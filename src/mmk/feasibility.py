"""Existence and non-existence of uniting measures.

Implements the signed uniting construction (always possible for
consistent families), the exact feasibility criterion backed by the LP
engine (a uniting measure, or potentials f_alpha with sum f_alpha >= 0
pointwise and sum of integrals < 0, negated from the Farkas ray that
lp_core.solve makes on the support and lift carries to the full grid,
also for a family that charges no cell), the density-ratio sufficient
conditions for (3,2) families, a certificate that a family has exactly
one uniting measure (unique_uniting), and the two standard
counterexample builders (mod-k and the two-point anti-diagonal family).

Every closed-form measure is a list of (coefficient, product factors)
terms summed by _combine and checked by _assert_uniting.  The (3,2)
formulas (density-3/2, two-thirds, and the three density-2 branches)
are coefficient rows of the one symmetric template _symmetric_32.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence

from . import lp_core
from .measures import (
    DiscreteMeasure,
    DomainError,
    Frozen,
    IndexSet,
    MarginalFamily,
    SignedDiscreteMeasure,
    all_index_sets,
    cell_sums,
    family_from_rule,
    integral,
    is_consistent,
    lower_marginal,
    product,
    project,
)


class PreconditionError(DomainError):
    """A documented precondition of an operation does not hold."""


class DensityAssemblyError(Exception):
    """The density-2 assembly produced a negative weight.

    On finite grids the extreme-measure argument holds only up to
    almost-everywhere modifications of densities, so a discrete family
    with M/m <= 2 may still defeat the explicit formulas.  This error
    reports the offending cell instead of guessing.
    """

    def __init__(self, message: str, cell=None, weight=None):
        super().__init__(message)
        self.cell = cell
        self.weight = weight


@functools.total_ordering
class QuadExt:
    """An element a + b*sqrt(root) of a real quadratic field.

    `root` is a fixed positive rational that is not the square of a
    rational, else DomainError: equality, hash and sign() rely on
    sqrt(root) being irrational.  Supports field arithmetic with
    Fractions/ints and exact comparisons, which is what the density-2
    construction needs to certify nonnegativity without floating point.
    """

    __slots__ = ("a", "b", "root")

    def __init__(self, a, b, root):
        self.a = Fraction(a)
        self.b = Fraction(b)
        self.root = Fraction(root)
        if self.root < 0 or _sqrt_fraction(self.root) is not None:
            raise DomainError(f"root {self.root} must be positive and not a rational square")

    def _coerce(self, other):
        if isinstance(other, QuadExt):
            if other.root != self.root:
                raise DomainError("mixed quadratic fields")
            return other
        if isinstance(other, (int, Fraction)):
            return QuadExt(other, 0, self.root)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadExt(self.a + o.a, self.b + o.b, self.root)

    __radd__ = __add__

    def __neg__(self):
        return QuadExt(-self.a, -self.b, self.root)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadExt(self.a - o.a, self.b - o.b, self.root)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return QuadExt(
            self.a * o.a + self.b * o.b * self.root,
            self.a * o.b + self.b * o.a,
            self.root,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        norm = o.a * o.a - o.b * o.b * self.root
        if norm == 0:
            raise ZeroDivisionError("division by zero in quadratic field")
        conj = QuadExt(o.a / norm, -o.b / norm, self.root)
        return self * conj

    def __rtruediv__(self, other):
        return QuadExt(other, 0, self.root) / self

    def sign(self) -> int:
        sa, sb = (self.a > 0) - (self.a < 0), (self.b > 0) - (self.b < 0)
        if sa * sb >= 0:  # same signs, or a part is 0
            return sa or sb
        # Opposite signs: compare |a| with |b|*sqrt(root) via squares.
        d = self.a * self.a - self.b * self.b * self.root
        return sa * ((d > 0) - (d < 0))

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return (self - o).sign() == 0

    def __lt__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return (self - o).sign() < 0

    def __hash__(self):
        # root is no rational square: equal values share (a, b, root).
        return hash((self.a, self.b, self.root)) if self.b else hash(self.a)

    def __float__(self):
        return float(self.a) + float(self.b) * math.sqrt(float(self.root))

    def __repr__(self):
        return f"QuadExt({self.a} + {self.b}*sqrt({self.root}))"


class DensityBounds(Frozen):
    """Cellwise bounds m <= mu_alpha / nu_alpha <= M for a checked family."""

    __slots__ = ("m", "M")

    def __init__(self, m, M):
        self._freeze(m=Fraction(m), M=Fraction(M))

    @property
    def ratio(self) -> Fraction:
        return self.M / self.m

    def __repr__(self):
        return f"DensityBounds(m={self.m}, M={self.M})"


class FeasibilityVerdict(Frozen):
    """Feasible with a uniting witness, or infeasible with {f_alpha}.

    For the infeasible branch `potentials` maps alpha -> tuple of values
    on grid_alpha with sum_alpha f_alpha(x_alpha) >= 0 on every cell and
    sum_alpha int f_alpha d mu_alpha < 0.
    """

    __slots__ = ("feasible", "witness", "potentials")

    def __init__(self, feasible, witness=None, potentials=None):
        self._freeze(feasible=feasible, witness=witness, potentials=potentials)

    def __bool__(self):
        return self.feasible

    def __repr__(self):
        kind = "feasible" if self.feasible else "infeasible"
        return f"FeasibilityVerdict({kind})"


def solve_lambda(n: int, k: int, e) -> tuple[Fraction, ...]:
    """The solution with lambda_k = 1 of the triangular system

        sum_{t=i}^{k} lambda_t e(i, t) = 0,   i = 0..k-1,

    by back-substitution from i = k-1 down.  DomainError unless 1 <= k < n.
    """
    if not 1 <= k < n:
        raise DomainError(f"need 1 <= k < n, got n={n}, k={k}")
    lambdas = [Fraction(0)] * k + [Fraction(1)]
    for i in range(k - 1, -1, -1):
        acc = sum(lambdas[t] * e(i, t) for t in range(i + 1, k + 1))
        lambdas[i] = -acc / e(i, i)
    return tuple(lambdas)


def signed_lambda(n: int, k: int) -> tuple[Fraction, ...]:
    """Coefficients making sum_t lambda_t mu~_t project to every mu_alpha:
    the solution of sum_{t=i}^{k} lambda_t C(n-k, t-i) = [i == k], i = 0..k,
    which is solve_lambda with e(i, t) = C(n-k, t-i)."""
    return solve_lambda(n, k, lambda i, t: math.comb(n - k, t - i))


def _check_refs(sizes: Sequence[int], refs: Sequence[DiscreteMeasure]):
    """DomainError unless refs[i] is a probability measure on axis i + 1
    of size sizes[i], for every axis."""
    if len(refs) != len(sizes):
        raise DomainError(f"expected {len(sizes)} reference measures, got {len(refs)}")
    for axis, nu in enumerate(refs, start=1):
        if nu.grid.axes != (axis,):
            raise DomainError(f"reference measure #{axis} must live on axis {axis}")
        if nu.grid.sizes != (sizes[axis - 1],):
            raise DomainError(f"reference measure #{axis} has the wrong size")
        if nu.mass != 1:
            raise DomainError(f"reference measure #{axis} is not a probability measure")


def signed_uniting(
    fam: MarginalFamily, refs: Sequence[DiscreteMeasure]
) -> SignedDiscreteMeasure:
    """A signed measure projecting exactly to every mu_alpha of `fam`.

    Builds mu~_t = sum over t-subsets of (lower marginal x off-axis
    refs) and combines them with signed_lambda(n, k) in one _combine,
    which refuses a grid over the float cap before it exists.  The
    result's projections are checked before returning.
    """
    if not is_consistent(fam):
        raise PreconditionError("signed_uniting requires a consistent family")
    _check_refs(fam.sizes, refs)
    n = fam.n
    terms = (  # t = 0: beta is empty, its lower marginal the mass 1
        (lam, [refs[a - 1] for a in range(1, n + 1) if a not in beta] + [lower_marginal(fam, beta)])
        for t, lam in enumerate(signed_lambda(n, fam.k))
        for beta in all_index_sets(n, t)
    )
    return _assert_uniting(_combine(fam, terms), fam, "signed uniting", signed=True)


def marginal_constraint_rows(fam: MarginalFamily, cells=None):
    """The equality system prj_alpha(pi) = mu_alpha as the (columns, rhs)
    of an lp_core.LPProblem.

    The rows come in blocks, one per alpha in fam.index_sets() order, each
    one row per cell of grid_alpha in ravel order; row_blocks splits a
    vector over them.  Column t is full-grid raveled cell cells[t] (all
    cells when `cells` is None), and it lies in one row per block: row
    offset_alpha + projection_index(alpha)[cells[t]], ascending.
    """
    grid = fam.full_grid()
    if cells is None:
        cells = range(grid.ncells)
    blocks = []
    rhs = []
    for alpha in fam.index_sets():
        index, offset = grid.projection_index(alpha), len(rhs)
        blocks.append([offset + index[j] for j in cells])
        rhs.extend(fam[alpha].weights)
    return list(zip(*blocks)), rhs


def row_blocks(fam: MarginalFamily, values: Sequence) -> dict:
    """{alpha: tuple} of a vector over marginal_constraint_rows' rows."""
    blocks = {}
    offset = 0
    for alpha in fam.index_sets():
        size = len(fam[alpha].weights)
        blocks[alpha] = tuple(values[offset : offset + size])
        offset += size
    return blocks


def supported_columns(fam: MarginalFamily) -> list[int]:
    """The full-grid cells where every marginal weight is positive: the
    only cells a uniting measure can charge."""
    grid = fam.full_grid()
    keep = [True] * grid.ncells
    for alpha in fam.index_sets():
        charged = [w != 0 for w in fam[alpha].weights]
        index = grid.projection_index(alpha)
        keep = [k and charged[i] for k, i in zip(keep, index)]
    return [j for j, k in enumerate(keep) if k]


def marginal_lp(fam: MarginalFamily, objective, arithmetic: str):
    """Min objective.pi over the uniting measures, as an lp_core.LPSolution.

    `objective` has one entry per full-grid cell (None: the zero
    objective).  The LP is posed on columns = supported_columns(fam),
    column t being cell columns[t], even with none left (lp_core.solve
    answers that LP itself: infeasible, with y = 1 on every row as its
    Farkas ray, since the weights are not all 0).

    The first call checks check_size's memory cap on all cells before
    anything grid-sized exists, and then keeps the family's A x = b as
    (support, LPProblem) in its `_lp` slot, where verdict and lift read
    the support; a family is immutable, so it never goes stale.  Every
    later call, whatever its objective or mode, only builds its objective
    vector.  lp_core.solve applies the exact-mode cap to the LP it solves.
    """
    if fam._lp is None:
        lp_core.check_size(fam.full_grid().ncells * len(fam.index_sets()))
        columns = tuple(supported_columns(fam))
        fam._freeze(_lp=(columns, lp_core.LPProblem(*marginal_constraint_rows(fam, columns))))
    columns, problem = fam._lp
    costs = [0] * len(columns) if objective is None else [objective[j] for j in columns]
    return lp_core.solve(problem, costs, arithmetic)


def lift(fam: MarginalFamily, prices, bound: Sequence, every_cell: bool) -> dict:
    """Prices {alpha: tuple} of a marginal_lp, lifted from the support to
    the full grid, where they must sum to at most bound[j] on every
    dropped cell j (the cost for transport duals, 0 for a Farkas ray).

    One grid sum, none if no cell was dropped and not every_cell.  If a
    dropped cell is above its bound, every price on a zero-weight marginal
    cell is lowered to at most -s, s = sum over alpha of max|price_alpha|
    + max|bound| + 1, and summed again: b.y stays, and every dropped cell
    meets such a price, so its sum falls to at most -max|bound| - 1.
    lp_core.CertificationError if a dropped cell, or with every_cell any
    cell, is still above its bound.
    """
    grid = fam.full_grid()
    kept = set(fam._lp[0])
    dropped = [j for j in range(grid.ncells) if j not in kept]
    if not dropped and not every_cell:
        return prices
    totals = cell_sums(grid, prices)
    if any(totals[j] > bound[j] for j in dropped):
        alphas = fam.index_sets()
        s = sum(max(abs(v) for v in prices[a]) for a in alphas) + max(map(abs, bound)) + 1
        prices = {
            a: tuple(v if w != 0 else min(v, -s) for v, w in zip(prices[a], fam[a].weights))
            for a in alphas
        }
        totals = cell_sums(grid, prices)
    if any(totals[j] > bound[j] for j in (range(grid.ncells) if every_cell else dropped)):
        raise lp_core.CertificationError("lifted prices exceed the bound on a cell")
    return prices


def verdict(fam: MarginalFamily, sol, arithmetic: str) -> FeasibilityVerdict:
    """The FeasibilityVerdict of a marginal_lp solution.

    Optimal: the witness is x on the full grid.  Infeasible: the Farkas
    ray y, lifted to the full grid, certifies the full LP, and the
    potentials are f_alpha = -y_alpha; exact mode raises
    lp_core.CertificationError unless sum f_alpha >= 0 on every cell
    (lift's every_cell check) and sum int f_alpha d mu < 0.
    """
    grid = fam.full_grid()
    if sol.status == "optimal":
        weights = [0] * grid.ncells
        for t, j in enumerate(fam._lp[0]):
            weights[j] = sol.x[t]
        return FeasibilityVerdict(True, witness=DiscreteMeasure(grid, weights))
    exact = arithmetic == "exact"
    y = lift(fam, row_blocks(fam, sol.y), [0] * grid.ncells, exact)
    potentials = {alpha: tuple(-v for v in block) for alpha, block in y.items()}
    if exact and integral(fam, potentials) >= 0:
        raise lp_core.CertificationError(
            "certificate potentials must have negative total integral"
        )
    return FeasibilityVerdict(False, potentials=potentials)


def kellerer_check(fam: MarginalFamily, arithmetic: str = "exact") -> FeasibilityVerdict:
    """Decide Pi(mu_alpha) != {} exactly, with a checkable witness either way:
    the verdict of one zero-objective marginal_lp on the supported cells."""
    return verdict(fam, marginal_lp(fam, None, arithmetic), arithmetic)


def _rank_mod_p(columns) -> int:
    """The rank modulo the prime p = 2^61 - 1 of the 0/1 matrix whose
    columns list the rows of their ones, by sparse elimination.  It is at
    most the rank over Q, since a minor that is nonzero mod p is nonzero."""
    p = (1 << 61) - 1
    pivots = {}  # leading row -> a reduced column with that lowest row, its entry there 1
    for column in columns:
        v = dict.fromkeys(column, 1)
        while v:
            lead = min(v)
            pivot = pivots.get(lead)
            if pivot is None:
                inverse = pow(v[lead], -1, p)
                pivots[lead] = {i: a * inverse % p for i, a in v.items()}
                break
            f = v[lead]
            for i, a in pivot.items():
                if s := (v.get(i, 0) - f * a) % p:
                    v[i] = s
                else:
                    del v[i]
    return len(pivots)


def _unique_point(fam: MarginalFamily):
    """unique_uniting's certificate: the full-grid x* or None."""
    sol = marginal_lp(fam, None, "exact")
    if sol.status != "optimal":
        raise DomainError(f"family is {sol.status}")
    columns, problem = fam._lp
    support = [t for t, v in enumerate(sol.x) if v]
    if _rank_mod_p(problem.columns[t] for t in support) < len(support):
        return None
    if len(support) < len(columns):
        objective = [0] * fam.full_grid().ncells
        for j, v in zip(columns, sol.x):
            if not v:
                objective[j] = -1
        if marginal_lp(fam, objective, "exact").value != 0:
            return None
    return verdict(fam, sol, "exact").witness


def unique_uniting(fam: MarginalFamily):
    """The family's one uniting measure, on the full grid, if an exact
    certificate proves the uniting polytope a point, else None; DomainError
    if the family has no uniting measure.

    The certificate is Mangasarian's ("Uniqueness of solution in linear
    programming", Linear Algebra Appl. 1979).  x* is the exact optimum of
    the zero-objective marginal_lp, kellerer_check's LP, and T the columns
    where x* > 0.  The columns A_T are independent if their rank modulo
    2^61 - 1 is |T|, so x* is the one uniting measure on T; and if T is not
    every supported column, the exact marginal_lp with cost -1 on the
    others has value 0, so no uniting measure charges them.  A smaller
    rank proves nothing, a value below 0 shows a second uniting measure,
    and a CertificationError from either LP leaves the question open: all
    three give None.  SizeCapError propagates.

    The answer is kept in the family's `_unique` slot by the first call;
    an infeasible family keeps nothing and raises on every call.
    """
    if fam._unique is None:
        try:
            point = _unique_point(fam)
        except lp_core.CertificationError:
            point = None
        fam._freeze(_unique=(point,))
    return fam._unique[0]


def density_bounds(fam: MarginalFamily, refs: Sequence[DiscreteMeasure]) -> DensityBounds:
    """Extremes of mu_alpha-weight / nu_alpha-weight over all alpha and cells."""
    _check_refs(fam.sizes, refs)
    ratios = []
    for alpha in fam.index_sets():
        nu_alpha = product([refs[a - 1] for a in alpha])
        for w_mu, w_nu in zip(fam[alpha].weights, nu_alpha.weights):
            if w_nu != 0:
                ratios.append(w_mu / w_nu)
            elif w_mu != 0:
                raise DomainError(
                    f"marginal for {alpha} is not absolutely continuous "
                    "with respect to the reference product"
                )
    if not ratios:
        raise DomainError("reference product vanishes everywhere")
    return DensityBounds(min(ratios), max(ratios))


def _combine(fam: MarginalFamily, terms) -> SignedDiscreteMeasure:
    """sum of coef * product(factors) over the (coef, factors) terms, on
    fam's full grid: the one sum of every closed-form measure.

    check_size's cap (cells times marginals) refuses the grid before the
    first product exists.  Zero coefficients are skipped, and
    a QuadExt weight with no irrational part comes back as a Fraction.
    """
    grid = fam.full_grid()
    lp_core.check_size(grid.ncells * math.comb(fam.n, fam.k))
    total = [Fraction(0)] * grid.ncells
    for coef, factors in terms:
        if coef != 0:
            total = [s + coef * w for s, w in zip(total, product(factors).weights)]
    return SignedDiscreteMeasure(
        grid, [w.a if isinstance(w, QuadExt) and w.b == 0 else w for w in total]
    )


def _symmetric_32(fam: MarginalFamily, refs, *coefficients) -> list:
    """The _combine terms of the symmetric (3,2) template

        c1 mu1 mu2 mu3 + c2 nu1 nu2 nu3 + sum over axes a, {b, c} the others,
        of c3 nu_a mu_b mu_c + c4 mu_a nu_b nu_c + c5 mu_bc nu_a + c6 mu_bc mu_a,

    mu_i the lower marginals of fam, mu_bc its marginals, nu_i = refs[i-1].
    Every closed-form (3,2) construction is one row (c1, ..., c6).
    """
    c1, c2, c3, c4, c5, c6 = coefficients
    mu = [lower_marginal(fam, IndexSet([a])) for a in (1, 2, 3)]
    terms = [(c1, mu), (c2, refs)]
    for a, b, c in ((0, 1, 2), (1, 0, 2), (2, 0, 1)):
        pair = fam[IndexSet([b + 1, c + 1])]
        terms += [
            (c3, [refs[a], mu[b], mu[c]]),
            (c4, [mu[a], refs[b], refs[c]]),
            (c5, [pair, refs[a]]),
            (c6, [pair, mu[a]]),
        ]
    return terms


def _assert_uniting(mu, fam: MarginalFamily, label: str, signed: bool = False):
    """`mu`, checked to project onto every marginal of fam, as a
    DiscreteMeasure unless `signed`.  lp_core.CertificationError for a
    projection mismatch; DensityAssemblyError for a negative weight
    unless `signed`."""
    for i, w in enumerate(() if signed else mu.weights):
        if w < 0:
            cell = mu.grid.unravel(i)
            message = f"{label}: negative weight at cell {cell}"
            raise DensityAssemblyError(message, cell=cell, weight=w)
    for alpha in fam.index_sets():
        if project(mu, alpha).weights != fam[alpha].weights:
            raise lp_core.CertificationError(f"{label}: projection mismatch on {alpha}")
    return mu if signed else DiscreteMeasure(mu.grid, mu.weights)


def _require_32(fam: MarginalFamily):
    if (fam.n, fam.k) != (3, 2):
        raise PreconditionError(f"(3,2) family required, got ({fam.n},{fam.k})")


def uniting_by_density_32(
    fam: MarginalFamily, refs: Sequence[DiscreteMeasure]
) -> DiscreteMeasure:
    """The explicit uniting measure for (3,2) families with M/m <= 3/2:
    the _symmetric_32 row (4, 0, -2, 0, 2, -1),

    mu = 4 mu1 mu2 mu3 - 2(nu1 mu2 mu3 + mu1 nu2 mu3 + mu1 mu2 nu3)
         + 2(mu12 nu3 + mu13 nu2 + mu23 nu1)
         - (mu12 mu3 + mu13 mu2 + mu23 mu1)
    """
    _require_32(fam)
    bounds = density_bounds(fam, refs)
    if bounds.ratio > Fraction(3, 2):
        raise PreconditionError(f"M/m = {bounds.ratio} exceeds 3/2")
    terms = _symmetric_32(fam, refs, 4, 0, -2, 0, 2, -1)
    return _assert_uniting(_combine(fam, terms), fam, "density-3/2 assembly")


def uniting_by_twothirds(fam: MarginalFamily) -> DiscreteMeasure:
    """Uniting measure when mu_ij >= (2/3) mu_i x mu_j cellwise.

    mu = sum over pairs of (mu_ij - (2/3) mu_i x mu_j) x mu_k
       = sum over pairs of mu_ij x mu_k - 2 mu1 mu2 mu3,
    the _symmetric_32 row (-2, 0, 0, 0, 0, 1), which reads no reference.
    """
    _require_32(fam)
    mu = {a: lower_marginal(fam, IndexSet([a])) for a in (1, 2, 3)}
    for alpha in all_index_sets(3, 2):
        prod_ij = product([mu[a] for a in alpha])
        for idx, (w_pair, w_prod) in enumerate(
            zip(fam[alpha].weights, prod_ij.weights)
        ):
            if w_pair < Fraction(2, 3) * w_prod:
                cell = fam[alpha].grid.unravel(idx)
                raise PreconditionError(
                    f"mu_{alpha.key()} < (2/3) product at cell {cell}"
                )
    terms = _symmetric_32(fam, [None] * 3, -2, 0, 0, 0, 0, 1)
    return _assert_uniting(_combine(fam, terms), fam, "two-thirds assembly")


def _sqrt_fraction(value: Fraction):
    """Exact rational square root, or None if irrational."""
    if value < 0:
        return None
    num = math.isqrt(value.numerator)
    den = math.isqrt(value.denominator)
    if num * num == value.numerator and den * den == value.denominator:
        return Fraction(num, den)
    return None


def uniting_by_density_2(
    fam: MarginalFamily, refs: Sequence[DiscreteMeasure]
) -> DiscreteMeasure:
    """Uniting measure for (3,2) families with M/m <= 2.

    Pipeline: (i) an LP extracts the largest mass xi with residual
    densities still >= m; (ii) the residual family is renormalized;
    (iii) the residual is united by the product branch (m' = 1), the
    2-mu1mu2mu3 formula (m' = 2/3), or the explicit u-formula with
    u = sqrt(3 - 2/m') evaluated in the quadratic field Q(u).  Any
    negative weight raises DensityAssemblyError with diagnostics.  Weights
    with a nonzero irrational part stay QuadExt and have no JSON form.

    Its LP has no float mode: check_size refuses it before anything is
    built, and lp_core.solve's exact-mode cap reads its quotient, if any.
    """
    _require_32(fam)
    bounds = density_bounds(fam, refs)
    if bounds.ratio > 2:
        raise PreconditionError(f"M/m = {bounds.ratio} exceeds 2")
    m = bounds.m
    grid = fam.full_grid()
    pairs = all_index_sets(3, 2)
    # The extraction LP below: 3 nonzeros per cell, 1 per slack column.
    lp_core.check_size(3 * grid.ncells + sum(len(fam[alpha].weights) for alpha in pairs))

    # (i) maximize xi(X), as min -xi(X), subject to prj_ij(xi) <= mu_ij - m nu_ij:
    # the marginal columns of every cell, then one slack column per row.
    ncells = grid.ncells
    columns, _ = marginal_constraint_rows(fam)
    rhs = [
        w - m * v
        for alpha in pairs
        for w, v in zip(fam[alpha].weights, product([refs[a - 1] for a in alpha]).weights)
    ]
    columns += [(i,) for i in range(len(rhs))]
    objective = [-1] * ncells + [0] * len(rhs)
    sol = lp_core.solve(lp_core.LPProblem(columns, rhs), objective)
    if sol.status != "optimal":
        raise lp_core.LPError(f"the extraction LP is {sol.status}")
    xi = DiscreteMeasure(grid, sol.x[:ncells])
    alpha_rem = 1 - xi.mass
    if alpha_rem == 0:
        return _assert_uniting(xi, fam, "density-2 assembly (pure extraction)")

    # (ii) the residual family (mu_ij - prj_ij(xi)) / (1 - xi(X)).
    residual = {}
    for alpha in pairs:
        weights = zip(fam[alpha].weights, project(xi, alpha).weights)
        residual[alpha] = DiscreteMeasure(
            fam[alpha].grid, [(w_mu - w_xi) / alpha_rem for w_mu, w_xi in weights]
        )
    fam_prime = MarginalFamily(3, 2, fam.sizes, residual)
    m_prime = density_bounds(fam_prime, refs).m

    # (iii) one _symmetric_32 row per branch.
    if m_prime >= 1:
        row = (0, 1, 0, 0, 0, 0)
    elif m_prime == Fraction(2, 3):
        row = (-2, 0, 0, 0, 0, 1)
    elif m_prime > Fraction(2, 3):
        u_sq = 3 - 2 / m_prime
        u = _sqrt_fraction(u_sq)
        if u is None:
            u = QuadExt(0, 1, u_sq)
        d2 = (u + 1) * (u + 1)
        d3 = u * (u + 1) * d2
        row = (
            -8 / (m_prime * m_prime * d3),
            2 * (5 * u + 9) / d3,
            4 * (u + 3) / (m_prime * d3),
            -2 * (5 * u + 9) / d3,
            2 * (u + 2) / d2,
            -2 / (m_prime * d2),
        )
    else:
        raise DensityAssemblyError(
            f"residual lower density m' = {m_prime} < 2/3; the discrete family "
            "violates the extreme-measure assumptions"
        )
    inner = _combine(fam_prime, _symmetric_32(fam_prime, refs, *row))
    _assert_uniting(inner, fam_prime, "density-2 inner assembly")
    combined = _combine(fam, [(alpha_rem, [inner]), (1, [xi])])
    return _assert_uniting(combined, fam, "density-2 assembly")


def make_modk_counterexample(n: int, k: int) -> MarginalFamily:
    """The consistent but infeasible mod-k family on {0..k-1}^n.

    mu_alpha(x) = k^(1-k) exactly when the coordinates of x sum to
    1 mod k.  All lower-dimensional projections are uniform, so the
    family is consistent; no uniting measure exists for 1 < k < n.
    """
    if not 1 < k < n:
        raise DomainError(f"need 1 < k < n, got n={n}, k={k}")
    weight = Fraction(1, k ** (k - 1))
    return family_from_rule([k] * n, k, lambda cell: weight if sum(cell) % k == 1 else 0)


def make_two_point_counterexample(ratio) -> MarginalFamily:
    """The (3,2) two-point family: weight M on the anti-diagonal of
    {0,1}^2, m on the diagonal, with M/m = ratio and 2M + 2m = 1.

    Feasible exactly for 1 <= ratio <= 2.
    """
    r = Fraction(ratio)
    if r < 1:
        raise DomainError(f"ratio must be >= 1, got {r}")
    m = Fraction(1, 2) / (1 + r)
    M = r * m
    return family_from_rule([2, 2, 2], 2, lambda cell: M if cell[0] != cell[1] else m)
