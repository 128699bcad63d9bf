"""Output checks and input data, written apart from mmk.

Cells of an n-fold grid are numbered row-major (last axis fastest), the
order in which mmk lists weights.  Every map from a cell to its sub-cell
on a set of axes is computed here; nothing in this module calls mmk, so
a fault in mmk's projection or certificate code cannot hide a wrong
answer.  Families are plain data: `sizes` (a tuple of axis sizes) and
`marginals` ({alpha: list of weights}), alpha a tuple of 1-based axes.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

# Absolute tolerance for float-mode outputs.  Marginal weights are at
# most 1 and potentials are scaled by their largest entry, so 1e-9
# leaves room for HiGHS's ~1e-12 residuals and nothing more.
FLOAT_TOL = 1e-9

# The rational upper bracket for pi^2 that the paper's bounds use.
PI_SQUARED_HIGH = Fraction(98697, 10000)


class CheckFailed(Exception):
    """An output of mmk is wrong."""


def require(condition, message):
    if not condition:
        raise CheckFailed(message)


class Grid:
    """An n-fold grid with cached cell-to-sub-cell maps."""

    def __init__(self, sizes):
        self.sizes = tuple(sizes)
        self.cells = list(itertools.product(*(range(s) for s in self.sizes)))
        self._sub = {}

    def sub_index(self, alpha):
        """sub[j]: the index of cell j's restriction to the axes alpha."""
        sub = self._sub.get(alpha)
        if sub is None:
            positions = [a - 1 for a in alpha]
            sub = []
            for cell in self.cells:
                t = 0
                for p in positions:
                    t = t * self.sizes[p] + cell[p]
                sub.append(t)
            self._sub[alpha] = sub
        return sub

    def sub_size(self, alpha):
        return math.prod(self.sizes[a - 1] for a in alpha)

    def project(self, weights, alpha):
        out = [0] * self.sub_size(alpha)
        for t, w in zip(self.sub_index(alpha), weights):
            out[t] += w
        return out

    def potential_sums(self, potentials):
        """sum_alpha f_alpha(x_alpha) at every cell."""
        sums = [0] * len(self.cells)
        for alpha, values in potentials.items():
            for j, t in enumerate(self.sub_index(alpha)):
                sums[j] += values[t]
        return sums


def index_sets(n, k):
    return list(itertools.combinations(range(1, n + 1), k))


# ---------------------------------------------------------------- checks


def integral(marginals, potentials):
    """sum_alpha int f_alpha d mu_alpha."""
    return sum(
        sum(f * w for f, w in zip(potentials[alpha], weights))
        for alpha, weights in marginals.items()
    )


def check_uniting(grid, marginals, weights, tol=0, signed=False):
    """weights (>= 0 unless signed) projects onto every marginal, to tol."""
    require(len(weights) == len(grid.cells), "measure has the wrong number of cells")
    if not signed:
        require(min(weights) >= -tol, f"negative weight {min(weights)}")
    for alpha, want in marginals.items():
        got = grid.project(weights, alpha)
        if tol == 0:
            require(got == list(want), f"projection onto {alpha} differs")
        else:
            worst = max(abs(float(g) - float(w)) for g, w in zip(got, want))
            require(worst <= tol, f"projection onto {alpha} off by {worst}")


def check_dual_feasible(grid, potentials, cost):
    sums = grid.potential_sums(potentials)
    for j, (s, c) in enumerate(zip(sums, cost)):
        require(s <= c, f"potentials exceed the cost at cell {grid.cells[j]}")


def check_optimal_pair(grid, marginals, cost, pi, potentials, value):
    """pi and potentials certify each other's optimality, worth `value`."""
    check_uniting(grid, marginals, pi)
    check_dual_feasible(grid, potentials, cost)
    primal = sum(c * w for c, w in zip(cost, pi))
    dual = integral(marginals, potentials)
    require(primal == dual, f"duality gap {primal - dual}")
    require(primal == value, f"reported value {value}, certified {primal}")


def check_farkas(grid, marginals, potentials, tol=0):
    """sum f_alpha >= 0 on every cell and sum int f_alpha d mu_alpha < 0.

    With tol > 0 both inequalities are taken relative to the largest
    potential, so a float certificate may be off by tol at that scale.
    """
    if tol:
        scale = max(abs(float(v)) for vs in potentials.values() for v in vs)
        require(scale > 0, "certificate is zero")
        potentials = {a: [float(v) / scale for v in vs] for a, vs in potentials.items()}
    sums = grid.potential_sums(potentials)
    require(min(sums) >= -tol, f"certificate negative on a cell: {min(sums)}")
    total = integral(marginals, potentials)
    require(total < -tol, f"certificate total {total} is not negative")


# ---------------------------------------------------------------- data


def random_measure(rng, sizes, zero_share=0.3, top=9):
    """Integer weights, about `zero_share` of them 0, normalized to mass 1."""
    ncells = math.prod(sizes)
    raw = [0 if rng.random() < zero_share else rng.randint(1, top) for _ in range(ncells)]
    if not any(raw):
        raw[rng.randrange(ncells)] = 1
    total = sum(raw)
    return [Fraction(w, total) for w in raw]


def projections(grid, weights, k):
    n = len(grid.sizes)
    return {alpha: grid.project(weights, alpha) for alpha in index_sets(n, k)}


def modk_marginals(n, k):
    """mu_alpha(x) = k^(1-k) where the coordinates of x sum to 1 mod k."""
    w = Fraction(1, k ** (k - 1))
    sub_cells = list(itertools.product(range(k), repeat=k))
    ws = [w if sum(c) % k == 1 else Fraction(0) for c in sub_cells]
    return {alpha: list(ws) for alpha in index_sets(n, k)}


def two_point_marginals(ratio):
    """(3,2) on {0,1}^3: M off the diagonal, m on it, M/m = ratio, 2M+2m = 1."""
    m = Fraction(1, 2) / (1 + ratio)
    M = ratio * m
    ws = [m, M, M, m]
    return {alpha: list(ws) for alpha in index_sets(3, 2)}


def nonuniform222_marginals():
    ws = [Fraction(1, 6), Fraction(1, 3), Fraction(1, 3), Fraction(1, 6)]
    return {alpha: list(ws) for alpha in index_sets(3, 2)}


def xor_value(n):
    """int i*j*k d(xor coupling) on (2^n)^3 = 4^-n sum_{i,j} i*j*(i xor j)."""
    size = 1 << n
    return Fraction(
        sum(i * j * (i ^ j) for i in range(size) for j in range(size)), size * size
    )


def a_points(m):
    """0-based cells of the lattice points (m+1,m,m), (m,m+1,m), (m,m,m+1)."""
    return [(m, m - 1, m - 1), (m - 1, m, m - 1), (m - 1, m - 1, m)]


def b_points(m):
    """0-based cells of the lattice points (m,m+1,m+1), (m+1,m,m+1), (m+1,m+1,m)."""
    return [(m - 1, m, m), (m, m - 1, m), (m, m, m - 1)]


def unreachable_alpha0():
    """2/(M pi^2 + 2), M = max_{n <= 64} n^2 (n+1)^2 / ((2n+1) 2^n)."""
    M = max(
        Fraction(n * n * (n + 1) * (n + 1), (2 * n + 1) * (1 << n)) for n in range(1, 65)
    )
    return 2 / (M * PI_SQUARED_HIGH + 2)


def unreachable_floor(m, alpha0):
    """The paper's bound on the mass at each A_m point, less 5% slack."""
    bound = (
        2 * (1 - alpha0) / PI_SQUARED_HIGH
        * (Fraction(1, m * m) - Fraction(1, (m + 1) * (m + 1)))
        - alpha0 / (1 << m)
    )
    return float(bound) - 0.05 * abs(float(bound))


def nonstrong_weights(N):
    """{cell: weight}: 1/(pi^2 n^2) on each A_n and B_n point, n < N, normalized."""
    raw = {}
    for n in range(1, N):
        w = 1 / (PI_SQUARED_HIGH * n * n)
        for cell in a_points(n) + b_points(n):
            raw[cell] = raw.get(cell, 0) + w
    total = sum(raw.values())
    return {cell: w / total for cell, w in raw.items()}
