"""Worked examples: truncated lattice counterexamples, the discontinuous
dual, structured couplings on the torus, the uniform-band experiment,
and the polynomial dual family.

The lattice examples live on the positive integers; here they are cut to
a finite window {1..N}^3 and renormalized, with quantitative bounds
checked against explicit truncation slack.  pi^2 never enters as a
float: every formula uses the certified rational bracket
98696/10000 < pi^2 < 98697/10000.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .measures import (
    DiscreteMeasure,
    DomainError,
    Frozen,
    IndexSet,
    MarginalFamily,
    ProductGrid,
    SignedDiscreteMeasure,
    all_index_sets,
    as_int,
    family_from_rule,
    project,
    uniform_family,
)
from .transport import CostGrid, solve_dual
from . import lp_core
from .feasibility import _assert_uniting, marginal_lp, unique_uniting

# Certified rational bracket for pi^2; the upper bound is used wherever
# a larger "pi^2" makes the derived inequalities conservative.
PI_SQUARED_LOW = Fraction(98696, 10000)
PI_SQUARED_HIGH = Fraction(98697, 10000)


def _capped_grid(sizes) -> ProductGrid:
    """The grid of a case's (3,2) family, or SizeCapError if the family's
    LP is over check_size's cap: each case gets its grid here before it
    builds anything grid-sized."""
    grid = ProductGrid(sizes)
    lp_core.check_size(grid.ncells * 3)
    return grid


def _family_from_full_measure(mu: DiscreteMeasure) -> MarginalFamily:
    n = len(mu.grid.axes)
    marginals = {alpha: project(mu, alpha) for alpha in all_index_sets(n, 2)}
    return MarginalFamily(n, 2, mu.grid.sizes, marginals)


def _a_points(n: int):
    """The three lattice points (n+1,n,n),(n,n+1,n),(n,n,n+1)."""
    return [(n + 1, n, n), (n, n + 1, n), (n, n, n + 1)]


def _b_points(n: int):
    """The three lattice points (n,n+1,n+1),(n+1,n,n+1),(n+1,n+1,n)."""
    return [(n, n + 1, n + 1), (n + 1, n, n + 1), (n + 1, n + 1, n)]


def unreachable_alpha0() -> Fraction:
    """The mixing weight: strictly below 2/(M pi^2 + 2) by using the
    rational upper bracket for pi^2.  M = max_n 2^-n n^2(n+1)^2/(2n+1),
    scanned over n <= 64 (the maximum sits at n = 4)."""
    M = max(
        Fraction(n * n * (n + 1) * (n + 1), (2 * n + 1) * (1 << n))
        for n in range(1, 65)
    )
    return 2 / (M * PI_SQUARED_HIGH + 2)


def _lattice_case(N: int, base, mass, points, cost_points):
    """The (3,2) family and indicator cost of a truncated lattice example.

    Grid cell (i,j,k), 0-based, represents the lattice point (i+1, j+1,
    k+1).  The weight of a point is base(point) plus mass(n) for each
    n < N with the point in points(n); the weights are renormalized to
    mass 1.  The cost is 1 on cost_points(n) for n < N and 0 elsewhere.
    Returns (family, cost).
    """
    if N < 6:
        raise DomainError("need N >= 6")
    grid = _capped_grid([N, N, N])
    weights = [base(*(c + 1 for c in cell)) for cell in grid.cells()]
    cost_values = [Fraction(0)] * grid.ncells
    for n in range(1, N):
        for pt in points(n):
            weights[grid.ravel(tuple(c - 1 for c in pt))] += mass(n)
        for pt in cost_points(n):
            cost_values[grid.ravel(tuple(c - 1 for c in pt))] = Fraction(1)
    total = sum(weights)
    mu = DiscreteMeasure(grid, [w / total for w in weights])
    return _family_from_full_measure(mu), CostGrid(grid, cost_values)


def build_unreachable(N: int):
    """Truncated mixture (1-a)mu_p + a mu_eps with the A_n indicator cost.

    mu_p spreads 2/(pi^2 n^2) over each point of A_n; mu_eps is the
    dyadic product 2^(-n1-n2-n3).  Returns (family, cost, alpha0).
    """
    alpha0 = unreachable_alpha0()
    fam, cost = _lattice_case(
        N,
        lambda *pt: alpha0 * Fraction(1, 1 << sum(pt)),
        lambda n: (1 - alpha0) * 2 / (PI_SQUARED_HIGH * n * n),
        _a_points,
        _a_points,
    )
    return fam, cost, alpha0


def unreachable_gamma_bound(m: int, alpha0: Fraction) -> Fraction:
    """Lower bound 2(1-a)/pi^2 (1/m^2 - 1/(m+1)^2) - a/2^m on the mass a
    uniting measure must place on each point of A_m."""
    return (
        2
        * (1 - alpha0)
        / PI_SQUARED_HIGH
        * (Fraction(1, m * m) - Fraction(1, (m + 1) * (m + 1)))
        - alpha0 / (1 << m)
    )


def _mass_extreme(fam: MarginalFamily, cell, sign: int, arithmetic: str):
    """LP minimum of sign * pi(cell) over the uniting polytope.  In exact
    mode, sign * mu*(cell) if feasibility.unique_uniting certifies mu* the
    one uniting measure; else one feasibility.marginal_lp with sign at the
    cell as objective.  DomainError if the family has no uniting measure."""
    grid = fam.full_grid()
    j = grid.ravel(cell)
    if arithmetic == "exact" and (mu := unique_uniting(fam)) is not None:
        return sign * mu.weights[j]
    objective = [Fraction(0)] * grid.ncells
    objective[j] = Fraction(sign)
    sol = marginal_lp(fam, objective, arithmetic)
    if sol.status != "optimal":
        raise DomainError(f"family is {sol.status}")
    return sol.value


def min_mass_at_cell(fam: MarginalFamily, cell, arithmetic: str = "exact"):
    """LP minimum of pi(cell) over all uniting measures of the family."""
    return _mass_extreme(fam, cell, 1, arithmetic)


def max_mass_at_cell(fam: MarginalFamily, cell, arithmetic: str = "exact"):
    """LP maximum of pi(cell) over all uniting measures of the family."""
    return -_mass_extreme(fam, cell, -1, arithmetic)


def diagnose_dual_growth(N: int, arithmetic: str = "float"):
    """Diagonal dual magnitudes of the truncated unreachable instance.

    Solves the dual LP and returns the list, indexed n = 1..N, of
    |f12(n,n)| + |f13(n,n)| + |f23(n,n)|.  The n^-2-weighted total of
    this list grows with the window size: at full scale the dual
    supremum is not attained and the potentials blow up along the
    diagonal.  The dual optimum is not unique, but lp_core solves this
    symmetric LP on its quotient and lifts a dual that is constant on
    each class of rows, so the sums follow neither HiGHS's method nor its
    presolve: the weighted totals at N = 8, 10 and 12 are 3.571, 4.138
    and 4.615, the least growth over all optimal duals (a separate LP,
    solved in float, gave these minima).  HiGHS's dual of the full LP
    gave 4.999, 5.606 and 6.107, and without presolve 10.685, 7.693 and
    14.792.
    """
    fam, cost, _ = build_unreachable(N)
    potentials, _ = solve_dual(fam, cost, arithmetic=arithmetic)
    grid = fam.full_grid()
    sums = []
    for n in range(1, N + 1):
        idx = grid.subgrid(IndexSet([1, 2])).ravel((n - 1, n - 1))
        s = sum(
            abs(potentials[alpha][idx]) for alpha in all_index_sets(3, 2)
        )
        sums.append(s)
    return sums


def weighted_diagonal_growth(sums) -> float:
    """sum over n of n^-2 * sums[n-1]; the unboundedness witness."""
    return float(sum(Fraction(1, n * n) * Fraction(s) for n, s in enumerate(sums, 1)))


def build_nonstrong(N: int):
    """Truncated measure with weight 1/(pi^2 n^2) on A_n and B_n points,
    and the B_n indicator cost.  Returns (family, cost)."""
    return _lattice_case(
        N,
        lambda *pt: Fraction(0),
        lambda n: 1 / (PI_SQUARED_HIGH * n * n),
        lambda n: _a_points(n) + _b_points(n),
        _b_points,
    )


def verify_unique_uniting(fam: MarginalFamily, cells, arithmetic: str = "exact"):
    """{cell: pi(cell)} for the given cells if every uniting measure pi
    agrees there, else None; DomainError if the family has none.

    In exact mode, if feasibility.unique_uniting certifies the polytope a
    point mu*, the values are mu*'s and no LP is solved.  Otherwise a min
    and a max LP per cell compare its extremes, and the first cell where
    they differ gives None; values from this loop pin the cells given,
    not the whole measure.
    """
    if arithmetic == "exact" and (mu := unique_uniting(fam)) is not None:
        return {tuple(cell): mu.weight(cell) for cell in cells}
    out = {}
    for cell in cells:
        lo = min_mass_at_cell(fam, cell, arithmetic)
        hi = max_mass_at_cell(fam, cell, arithmetic)
        if lo != hi:
            return None
        out[tuple(cell)] = lo
    return out


class PiecewiseDual32(Frozen):
    """The closed-form dual of the discontinuous example.

    f12 = 0; f13(x1,x3) and f23(x2,x3) vanish for x3 < 2/3 and equal
    x_i + (3/2)x3 - 3/2 beyond.  The sum F jumps across x3 = 2/3.
    """

    __slots__ = ()

    threshold = Fraction(2, 3)

    def f12(self, x1, x2) -> Fraction:
        return Fraction(0)

    def f13(self, x1, x3) -> Fraction:
        if x3 < self.threshold:
            return Fraction(0)
        return Fraction(x1) + Fraction(3, 2) * Fraction(x3) - Fraction(3, 2)

    f23 = f13

    def F(self, x1, x2, x3) -> Fraction:
        return self.f13(x1, x3) + self.f23(x2, x3)

    def potentials(self, N: int) -> dict:
        """{alpha: tuple} sampled at cell centers (i + 1/2)/N of the N^3 grid."""
        centers = [Fraction(2 * i + 1, 2 * N) for i in range(N)]
        return {
            alpha: tuple(f(x, y) for x, y in itertools.product(centers, repeat=2))
            for alpha, f in zip(all_index_sets(3, 2), (self.f12, self.f13, self.f23))
        }


def build_discontinuous(N: int):
    """Uniform pairwise marginals on the N^3 grid with the cost
    max(0, x1 + x2 + 3 x3 - 3) at cell centers, plus the closed-form
    dual.  Returns (family, cost, PiecewiseDual32)."""
    if N % 6:
        raise DomainError("N must be divisible by 6")
    grid = _capped_grid([N, N, N])
    fam = uniform_family([N, N, N], 2)

    def cost_fn(i, j, k):
        x = Fraction(2 * i + 1, 2 * N)
        y = Fraction(2 * j + 1, 2 * N)
        z = Fraction(2 * k + 1, 2 * N)
        return max(Fraction(0), x + y + 3 * z - 3)

    return fam, CostGrid.from_function(grid, cost_fn), PiecewiseDual32()


def frac_coupling(a1: int, a2: int, a3: int, N: int) -> DiscreteMeasure:
    """The coupling concentrated on frac(a1 x1 + a2 x2 + a3 x3) = 0.

    Mixture over shift triples t_i in {0..a_i-1} of the cyclic coupling
    (weight 1/N^2 where v1 + v2 + v3 = 0 mod N, the whole measure when
    a = (1, 1, 1)) squeezed into the box of side 1/a_i at offset t_i/a_i;
    pairwise projections stay exactly uniform (checked).
    """
    a = tuple(map(as_int, (a1, a2, a3)))
    if any(v < 1 for v in a):
        raise DomainError("coefficients must be >= 1")
    if any(N % v for v in a):
        raise DomainError(f"each coefficient must divide N = {N}")
    M = [N // v for v in a]
    grid = ProductGrid([N, N, N])
    weights = [Fraction(0)] * grid.ncells
    w = Fraction(1, a[0] * a[1] * a[2] * N * N)
    for t in itertools.product(*(range(v) for v in a)):
        base = [t[i] * M[i] for i in range(3)]
        for v1 in range(N):
            for v2 in range(N):
                v3 = (-v1 - v2) % N
                cell = (
                    base[0] + v1 // a[0],
                    base[1] + v2 // a[1],
                    base[2] + v3 // a[2],
                )
                weights[grid.ravel(cell)] += w
    mu = SignedDiscreteMeasure(grid, weights)
    return _assert_uniting(mu, uniform_family([N, N, N], 2), "frac_coupling")


def composite_pi(N: int) -> DiscreteMeasure:
    """The near-optimal uniting measure of the discontinuous example.

    Lebesgue mass 1/3 below x3 = 1/3, plus 2/3 of the (1,1,2) fractional
    coupling pushed through z -> (2z + 1)/3 into the band x3 >= 1/3.
    All pairwise projections are exactly uniform (checked).
    """
    if N % 6:
        raise DomainError("N must be divisible by 6")
    grid = ProductGrid([N, N, N])
    weights = [Fraction(0)] * grid.ncells
    low = Fraction(1, N * N * N)
    third = N // 3
    for i in range(N):
        for j in range(N):
            for k in range(third):
                weights[grid.ravel((i, j, k))] += low
    fine = frac_coupling(1, 1, 2, 2 * N)
    scale = Fraction(2, 3)
    for idx, w in enumerate(fine.weights):
        if w == 0:
            continue
        w1, w2, w3 = fine.grid.unravel(idx)
        cell = (w1 // 2, w2 // 2, (w3 + N) // 3)
        weights[grid.ravel(cell)] += scale * w
    mu = SignedDiscreteMeasure(grid, weights)
    return _assert_uniting(mu, uniform_family([N, N, N], 2), "composite_pi")


def build_uniformband(N: int):
    """The N x N x 3 instance with uniform mu_12 and product mu_13,
    mu_23; cost x*y*z with x, y at cell centers and z in {0,1,2}."""
    if N < 3:
        raise DomainError("need N >= 3")
    grid = _capped_grid([N, N, 3])
    fam = uniform_family([N, N, 3], 2)

    def cost_fn(i, j, k):
        return Fraction(2 * i + 1, 2 * N) * Fraction(2 * j + 1, 2 * N) * k

    return fam, CostGrid.from_function(grid, cost_fn)


def eval_fA(A, x, y) -> Fraction:
    """The polynomial dual potential f_A(x, y)."""
    A, x, y = Fraction(A), Fraction(x), Fraction(y)
    if A < 0:
        raise DomainError("A must be >= 0")
    return (
        -Fraction(1, 12) * (x**3 + y**3)
        - Fraction(1, 2) * x * y * (x + y)
        - (A - 2) * (x * x / 12 + x * y / 3 + y * y / 12)
        - (1 - 2 * A) * (x + y) / 12
        - A / 18
    )


FA_KAPPA = Fraction(1, 6)


def fA_defect(A, x, y, z) -> Fraction:
    """xyz - [f_A(x,y) + f_A(x,z) + f_A(y,z)]; equals
    (1/6)(x+y+z-1)^2 (x+y+z+A) identically."""
    A, x, y, z = Fraction(A), Fraction(x), Fraction(y), Fraction(z)
    return x * y * z - (eval_fA(A, x, y) + eval_fA(A, x, z) + eval_fA(A, y, z))


def build_nonuniform_2x2x2() -> MarginalFamily:
    """Pairwise marginals 1/3 off the diagonal of {0,1}^2 and 1/6 on it.

    The uniting polytope is a single point: the measure vanishing at
    (0,0,0) and (1,1,1) and equal to 1/6 elsewhere.
    """
    return family_from_rule(
        [2, 2, 2], 2, lambda cell: Fraction(1, 6) if cell[0] == cell[1] else Fraction(1, 3)
    )
