"""Primal and dual (n,k)-transport problems as exact LPs.

Solving is one lp_core.solve of the marginal LP, which may run HiGHS's
interior-point method on the LP's quotient: the primal optimum is its
vertex, the dual potentials are the projection-row prices.  On top of
that the module provides the base-point decomposition of an
(n,k)-function into per-alpha potentials with explicit norm control, and
the bounded-dual extraction for (3,2) instances with product marginals.

Potentials are a dict {IndexSet alpha: tuple of f_alpha's values on
grid_alpha in ravel order}, the format of FeasibilityVerdict.potentials;
they are feasible for a cost c iff sum_alpha f_alpha(x_alpha) <= c(x) on
every cell.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Sequence

from . import lp_core
from .feasibility import (
    FeasibilityVerdict,
    PreconditionError,
    _check_refs,
    lift,
    marginal_lp,
    row_blocks,
    solve_lambda,
    verdict,
)
from .measures import (
    DiscreteMeasure,
    DomainError,
    Frozen,
    IndexSet,
    MarginalFamily,
    ProductGrid,
    all_index_sets,
    cell_sums,
    integral,
    lower_marginal,
    measure_to_json,
    potentials_to_json,
    product,
)


class InfeasibleFamilyError(Exception):
    """The marginal family admits no uniting measure.

    Carries the FeasibilityVerdict whose potentials certify emptiness.
    """

    def __init__(self, verdict: FeasibilityVerdict):
        super().__init__("marginal family is infeasible")
        self.verdict = verdict


class CostGrid(Frozen):
    """A cost function given by one rational value per full-grid cell."""

    __slots__ = ("grid", "values")

    def __init__(self, grid: ProductGrid, values: Sequence):
        if len(values) != grid.ncells:
            raise DomainError(f"expected {grid.ncells} values, got {len(values)}")
        self._freeze(
            grid=grid,
            values=tuple(Fraction(v) if isinstance(v, int) else v for v in values),
        )

    def at(self, cell: Sequence[int]):
        return self.values[self.grid.ravel(cell)]

    def linf(self):
        return max(abs(v) for v in self.values)

    @staticmethod
    def from_function(grid: ProductGrid, fn) -> "CostGrid":
        return CostGrid(grid, [fn(*cell) for cell in grid.cells()])

    def __repr__(self):
        return f"CostGrid(grid={self.grid})"


class SolveReport(Frozen):
    """Joint outcome of one primal/dual solve with its duality gap."""

    __slots__ = ("pi", "value", "potentials", "dual_value", "gap")

    def __init__(self, pi, value, potentials, dual_value, gap):
        self._freeze(
            pi=pi, value=value, potentials=potentials, dual_value=dual_value, gap=gap
        )

    def to_json(self) -> dict:
        return {
            "value": str(Fraction(self.value)),
            "gap": str(Fraction(self.gap)),
            "pi": measure_to_json(self.pi),
            "potentials": potentials_to_json(self.potentials),
        }

    def __repr__(self):
        return f"SolveReport(value={self.value}, gap={self.gap})"


def _check_cost(fam: MarginalFamily, cost: CostGrid):
    if cost.grid != fam.full_grid():
        raise DomainError("cost grid does not match the family's full grid")


def _normalize(fam: MarginalFamily, prices: Sequence) -> dict:
    """The potentials {alpha: tuple} of a marginal_lp's row prices, shifted
    to f_alpha(first cell) = 0 for all but the first alpha, which takes the
    sum of the shifts."""
    blocks = row_blocks(fam, prices)
    first, *rest = blocks
    offsets = {alpha: -blocks[alpha][0] for alpha in rest}
    offsets[first] = sum((blocks[alpha][0] for alpha in rest), Fraction(0))
    return {alpha: tuple(v + offsets[alpha] for v in f) for alpha, f in blocks.items()}


def _solve_both(fam: MarginalFamily, cost: CostGrid, arithmetic: str):
    """One feasibility.marginal_lp run giving (pi, value, normalized
    potentials, dual value).

    pi comes from feasibility.verdict, which also turns an infeasible LP's
    own Farkas ray into the InfeasibleFamilyError's certificate.  The LP is
    posed on the cells every marginal charges, so feasibility.lift lowers
    the potentials of zero-weight marginal cells if they exceed the cost
    on a dropped cell; it sums over the grid only if a cell was dropped.
    """
    _check_cost(fam, cost)
    sol = marginal_lp(fam, cost.values, arithmetic)
    found = verdict(fam, sol, arithmetic)
    if not found.feasible:
        raise InfeasibleFamilyError(found)
    potentials = lift(fam, _normalize(fam, sol.y), cost.values, False)
    return found.witness, sol.value, potentials, integral(fam, potentials)


def solve_primal(fam: MarginalFamily, cost: CostGrid, arithmetic: str = "exact"):
    """Minimize int c d pi over uniting measures; returns (pi, value)."""
    pi, value, _, _ = _solve_both(fam, cost, arithmetic)
    return pi, value


def solve_dual(fam: MarginalFamily, cost: CostGrid, arithmetic: str = "exact"):
    """Maximize sum int f_alpha d mu_alpha over feasible potentials;
    returns (potentials {alpha: tuple}, dual value).  The dual value is
    the exact integral of the returned potentials, float ones included.

    Potentials are normalized to f_alpha(first cell) = 0 for all but the
    first alpha, making the output deterministic.
    """
    _, _, potentials, dual_value = _solve_both(fam, cost, arithmetic)
    return potentials, dual_value


def verify_gap(fam: MarginalFamily, cost: CostGrid, arithmetic: str = "exact") -> SolveReport:
    """Solve both problems and require a zero (exact) or tiny (float) gap.

    Raises lp_core.CertificationError when the gap is not closed.
    """
    pi, value, potentials, dual_value = _solve_both(fam, cost, arithmetic)
    gap = value - dual_value
    if arithmetic == "exact":
        closed = gap == 0
    else:
        closed = abs(gap) <= 1e-7 * (1 + abs(float(value)))
    if not closed:
        raise lp_core.CertificationError(f"{arithmetic} duality gap {gap} is not closed")
    return SolveReport(pi, value, potentials, dual_value, gap)


def decomp_lambda(n: int, k: int) -> tuple[Fraction, ...]:
    """Coefficients of the base-point decomposition of an (n,k)-function:
    feasibility.solve_lambda with e(a, t) = C(n-t, k-t) C(n-k, t-a)."""
    return solve_lambda(n, k, lambda a, t: math.comb(n - t, k - t) * math.comb(n - k, t - a))


def nk_decompose(
    F: CostGrid, y: Sequence[int], lam: Sequence[Fraction]
) -> dict:
    """Split F into potentials {alpha: tuple} f_alpha via sections through base cell y.

    f_alpha(x_alpha) = sum over beta subset of alpha of
    lambda_{|beta|} F(x_beta, y off beta).  When F is an exact
    (n,k)-function the potentials sum back to F on every cell.
    """
    grid = F.grid
    n = len(grid.axes)
    k = len(lam) - 1
    y = tuple(y)
    grid.ravel(y)  # validates the cell
    potentials = {}
    for alpha in all_index_sets(n, k):
        sub = grid.subgrid(alpha)
        values = [Fraction(0)] * sub.ncells
        for size in range(k + 1):
            if lam[size] == 0:
                continue
            for beta in itertools.combinations(alpha, size):
                beta = IndexSet(beta)
                section = [lam[size] * F.values[j] for j in grid.section(beta, y)]
                index = sub.projection_index(beta)
                values = [v + section[i] for v, i in zip(values, index)]
        potentials[alpha] = tuple(values)
    return potentials


def good_basepoint(c: CostGrid, refs: Sequence[DiscreteMeasure]) -> tuple[int, ...]:
    """The first cell y, in lexicographic order, whose sections of c have
    controlled L1 norms.

    For every nonempty proper subset alpha the section
    x_alpha -> c(x_alpha, y off alpha) satisfies
    ||c_alpha||_{L1(nu_alpha)} <= 2^(n+1) ||c||_{L1(nu)}.  Cells of
    nu-mass >= 1/2 qualify; lp_core.CertificationError if none does.
    DomainError unless refs are one probability measure per axis of c's
    grid, on that axis and of its size.
    """
    grid = c.grid
    _check_refs(grid.sizes, refs)
    n = len(grid.axes)
    nu = product(list(refs))
    norm_c = sum(abs(v) * w for v, w in zip(c.values, nu.weights))
    bound = (2 ** (n + 1)) * norm_c
    subsets = [
        (IndexSet(s), product([refs[grid.axes.index(a)] for a in s]).weights)
        for size in range(1, n)
        for s in itertools.combinations(grid.axes, size)
    ]
    for cell in grid.cells():
        if all(
            sum(abs(c.values[j]) * w for j, w in zip(grid.section(alpha, cell), weights))
            <= bound
            for alpha, weights in subsets
        ):
            return cell
    raise lp_core.CertificationError("no cell qualifies as a base point")


def check_dual_feasible(d: dict, c: CostGrid):
    """Max over cells of sum_alpha f_alpha - c; <= 0 means feasible."""
    return max(s - v for s, v in zip(cell_sums(c.grid, d), c.values))


def complementary_slackness(pi: DiscreteMeasure, d: dict, c: CostGrid) -> list:
    """Cells carrying pi-mass where the dual sum is strictly below cost.

    Empty iff (pi, d) is a jointly optimal feasible pair.
    """
    grid = c.grid
    totals = cell_sums(grid, d)
    out = []
    for j, w in enumerate(pi.weights):
        if w <= 0:
            continue
        slack = c.values[j] - totals[j]
        if slack != 0:
            out.append((grid.unravel(j), slack))
    return out


def extract_bounded_dual(fam: MarginalFamily, c: CostGrid, d: dict, opt_value) -> dict:
    """Rebuild an optimal (3,2) dual d with uniformly bounded potentials.

    Requires product pairwise marginals (mu_ij = mu_i x mu_j), c >= 0 and
    d worth opt_value, the optimum of the transport LP, as solve_dual
    returns it with d.
    The sum F = sum f_ij is bounded below by -12||c||_inf wherever the
    product measure charges the cell; F is decomposed with
    decomp_lambda(3,2) through a good base point whose sections miss the
    null cells where F is lower.  The output keeps the dual value exactly
    and stays feasible, with every value in [-80/3 ||c||_inf,
    40/3 ||c||_inf]; lp_core.CertificationError if any of these checks
    fails.
    """
    if (fam.n, fam.k) != (3, 2):
        raise PreconditionError("extract_bounded_dual handles (3,2) only")
    _check_cost(fam, c)
    if any(v < 0 for v in c.values):
        raise PreconditionError("cost must be nonnegative")
    grid = fam.full_grid()
    mu_i = [lower_marginal(fam, IndexSet([a])) for a in (1, 2, 3)]
    for alpha in fam.index_sets():
        i, j = alpha.members
        if fam[alpha] != product([mu_i[i - 1], mu_i[j - 1]]):
            raise PreconditionError(
                f"marginal for {alpha} is not the product of its 1-marginals"
            )
    # d must be optimal: its value must match the optimum.
    d_value = integral(fam, d)
    if d_value != opt_value:
        raise PreconditionError(
            f"dual value {d_value} != primal optimum {opt_value}"
        )
    F_values = cell_sums(grid, d)
    if any(s > v for s, v in zip(F_values, c.values)):
        raise PreconditionError("input potentials are not feasible")

    norm = c.linf()
    floor_F = -12 * norm
    nu = product(mu_i)
    bad = set()
    for t, v in enumerate(F_values):
        if v < floor_F:
            # Bounded below everywhere the product measure charges; only
            # null cells may fall under the floor.
            if nu.weights[t] != 0:
                raise lp_core.CertificationError(
                    f"F = {v} < -12||c|| on a cell of positive product mass"
                )
            bad.add(t)
    F = CostGrid(grid, F_values)

    # The base point must (a) keep section L1 norms of F controlled and
    # (b) have every section through it avoid the bad set, so the
    # decomposition only reads F values >= -12||c||_inf and the
    # reconstruction identity survives untouched.  Every section holds
    # the base cell itself, so it is checked too.
    def sections_clear(cell) -> bool:
        return not bad or not any(
            j in bad
            for alpha in itertools.chain(all_index_sets(3, 1), all_index_sets(3, 2))
            for j in grid.section(alpha, cell)
        )

    y = good_basepoint(F, mu_i)
    if not sections_clear(y):
        y = next(
            (tuple(cell) for cell in grid.cells() if sections_clear(cell)), None
        )
    if y is None:
        raise lp_core.CertificationError(
            "no base cell with sections avoiding the bad set"
        )
    # The sections read F only in [-12||c||_inf, ||c||_inf], so with
    # lambda = (1/3, -1/2, 1) every potential is at least -17||c||_inf.
    result = nk_decompose(F, y, decomp_lambda(3, 2))
    bounds = (Fraction(-80, 3) * norm, Fraction(40, 3) * norm)
    for alpha, values in result.items():
        if any(not bounds[0] <= v <= bounds[1] for v in values):
            raise lp_core.CertificationError(
                f"a potential of {alpha} is outside [-80/3, 40/3] ||c||_inf"
            )
    if integral(fam, result) != opt_value:
        raise lp_core.CertificationError("extraction changed the value")
    if check_dual_feasible(result, c) > 0:
        raise lp_core.CertificationError("extraction broke feasibility")
    return result
