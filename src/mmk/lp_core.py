"""Exact linear programming over 0/1 constraint matrices.

Solves min c.x subject to A x = b, x >= 0, with A a 0/1 matrix and c
and b rational: every LP this package builds fixes projections, so each
column of A is the set of rows it lies in.  LPProblem holds A x = b
alone and solve takes the objective, so one LPProblem serves every
objective posed on it, and what derives from A and b (the HiGHS model,
b over its common denominator) is made once, when first needed.  A
maximum is the negated minimum of -c.x, which the callers pose.

Exact mode takes one route per LP, by size.  An LP of at most
TABLEAU_ONLY_NONZEROS nonzeros goes to a dense two-phase primal simplex
over exact rationals, also the test oracle: it pivots by Bland's rule
(the first column with negative reduced cost, the lowest basic index
among tied ratios), which never cycles, and yields Farkas certificates.

Every larger LP is certified from floating point.  One HiGHS run per
LP, on a model of A x = b cached for every objective posed on it and
with feasibility tolerances TIGHT_TOLERANCE, returns an optimal vertex,
its dual prices y and its basis.  x and y are rounded to nearby
rationals, and a part that fails is rebuilt as the exact basic solution
of that basis (Applegate, Cook, Dash & Espinoza, "Exact solutions to
linear programming problems", Oper. Res. Lett. 2007) by elimination
modulo the prime _PRIME = 2^127 - 1 and rational reconstruction.

An optimum from either route is returned only if A x = b, x >= 0,
y.A_j <= c_j for every column and c.x == b.y hold exactly, in Python
integers over common denominators; HiGHS's floats, its basis and the
residues only choose the candidates.  A rejected HiGHS vertex is not
solved again.  When HiGHS reports the LP infeasible, the Farkas ray
(y.A <= 0, y.b > 0) comes from that same run: HiGHS's dual ray, scaled
to largest entry 1 and rounded to nearby rationals, if check_certificate
accepts it.  Otherwise CertificationError names the failed check: x, y,
the gap or the ray.  The tableau's time has no bound on a large LP, so
it is no fallback.

Float mode makes the same HiGHS run and returns its answer, with x's
entries in [-TIGHT_TOLERANCE, 0) set to 0 and any lower one an LPError,
and for infeasible problems the scaled dual ray as it is.  A model
without columns, which HiGHS rejects, goes to the tableau in both modes.
No LP this package builds is unbounded (its marginal rows and x >= 0
bound x), so an unbounded LP raises LPError, as does any other HiGHS
failure.
"""

from __future__ import annotations

import heapq
import math
from collections import Counter
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from typing import Sequence

from .measures import DomainError, Frozen, as_fraction, as_int

# Exact pivoting cost grows with coefficient size; beyond this many
# nonzeros the caller must opt into float mode explicitly.
EXACT_NONZERO_CAP = 50_000

# No LP in either mode may have more nonzeros than this.  The (3,2)
# family on 72^3 has 1,119,744: its support, rows and LPProblem took
# 1.4 s and grew the process from 16 to 139 MB.
FLOAT_NONZERO_CAP = 2_000_000

# Exact LPs with at most this many nonzeros go to the tableau, and no
# other exact LP does: on the test suite's LPs the tableau solves them in
# 0.1-4 ms, a HiGHS call plus certification takes 2-8 ms, and a process
# that never calls HiGHS never pays the ~0.8 s import of scipy.optimize.
# Above it HiGHS won 76 of 78 LPs with 65-128 nonzeros and every larger
# one, and the tableau's time grows without bound (over 600 s at 17,496).
TABLEAU_ONLY_NONZEROS = 64

# Primal and dual feasibility tolerance of every HiGHS run (HiGHS's
# default is 1e-7).  Under the default a basic variable may sit slightly
# below 0 or a degenerate vertex may come out on an inconsistent support:
# 27 of the 33 min-mass LPs of build_unreachable(12) have an entry near
# -9e-8, and a degenerate (5,3) family's vertex fails x's exact check.
# No LP is solved twice, and the tighter tolerance costs HiGHS no time
# on these LPs.
TIGHT_TOLERANCE = 1e-10

# The Mersenne prime 2^127 - 1, modulo which _solve_rational eliminates.
_PRIME = 2**127 - 1


class LPError(Exception):
    pass


class SizeCapError(LPError):
    """The LP has more nonzeros than check_size allows its mode."""


class CertificationError(LPError):
    """An exact answer failed its own certificate check."""


class LPProblem(Frozen):
    """A x = b, x >= 0 with A a 0/1 matrix: columns[j] lists the rows
    where column j has a 1.

    Each row index must be an int (as_int) in 0..len(rhs) - 1 and occur
    at most once in its column; anything else is a DomainError.  b is
    rational.  The objective is solve's argument.
    """

    __slots__ = ("columns", "rhs", "_nonzeros", "__dict__")

    def __init__(self, columns: Sequence[Sequence[int]], rhs: Sequence):
        b = tuple(as_fraction(v) for v in rhs)
        cols = tuple(tuple(map(as_int, column)) for column in columns)
        for j, column in enumerate(cols):
            if len(set(column)) != len(column) or not all(0 <= i < len(b) for i in column):
                raise DomainError(f"column {j} must list distinct rows in 0..{len(b) - 1}")
        self._freeze(columns=cols, rhs=b, _nonzeros=sum(map(len, cols)))

    @property
    def ncols(self) -> int:
        return len(self.columns)

    @property
    def nrows(self) -> int:
        return len(self.rhs)

    def nonzeros(self) -> int:
        return self._nonzeros

    @cached_property
    def scaled_rhs(self) -> tuple[list[int], int]:
        """_scaled(rhs): b as integers over its common denominator D."""
        return _scaled(self.rhs)

    @cached_property
    def highs_model(self):
        """A x = b, x >= 0 as the HighsLp _highs runs: A column-wise, the
        objective zero.

        OverflowError if an entry of b is too large for a float.
        """
        from scipy.optimize._highspy._core import HighsLp, MatrixFormat

        b = [float(v) for v in self.rhs]
        model = HighsLp()
        model.num_col_ = model.a_matrix_.num_col_ = self.ncols
        model.num_row_ = model.a_matrix_.num_row_ = len(b)
        model.a_matrix_.format_ = MatrixFormat.kColwise
        model.a_matrix_.start_ = list(accumulate(map(len, self.columns), initial=0))
        model.a_matrix_.index_ = [i for column in self.columns for i in column]
        model.a_matrix_.value_ = [1.0] * self._nonzeros
        model.col_cost_ = model.col_lower_ = [0.0] * self.ncols
        model.col_upper_ = [math.inf] * self.ncols
        model.row_lower_ = model.row_upper_ = b
        return model


class Certificate(Frozen):
    """A Farkas witness of infeasibility: y.A <= 0 componentwise, y.b > 0."""

    __slots__ = ("y",)

    def __init__(self, y: Sequence):
        self._freeze(y=tuple(Fraction(v) for v in y))

    def __repr__(self) -> str:
        return f"Certificate(y={[str(v) for v in self.y]})"


class LPSolution(Frozen):
    """Solver outcome: status plus the relevant witness objects.

    status 'optimal':    x, y (dual prices), value
    status 'infeasible': certificate

    No other status exists: solve raises LPError on an unbounded LP.
    """

    __slots__ = ("status", "x", "y", "value", "certificate")

    def __init__(self, status, x=None, y=None, value=None, certificate=None):
        self._freeze(status=status, x=x, y=y, value=value, certificate=certificate)

    def __repr__(self) -> str:
        return f"LPSolution(status={self.status!r}, value={self.value})"


def _scaled(values) -> tuple[list[int], int]:
    """Integers z and the least common denominator d, values[i] == z[i] / d."""
    d = 1
    for v in values:
        q = v.denominator
        if d % q:
            d = d // math.gcd(d, q) * q
    return [v.numerator * (d // v.denominator) for v in values], d


def _dot(scaled_u, v) -> Fraction:
    """The exact inner product of u and v, summed in integers; u is given
    as _scaled(u)."""
    (a, da), (b, db) = scaled_u, _scaled(v)
    return Fraction(sum(s * t for s, t in zip(a, b)), da * db)


def _columns_within(columns, y, scaled_bound) -> bool:
    """True iff y.A_j <= bound[j] for every column j, decided in integers.

    `columns` is A's columns (the rows of each) and the bound is given as
    _scaled(bound).  With y = Y / dy and bound = C / dc, the test is
    s_j * dc <= C_j * dy, where s_j = sum of Y_i over the rows i of column j.
    """
    Y, dy = _scaled(y)
    C, dc = scaled_bound
    return all(
        sum(map(Y.__getitem__, column)) * dc <= c * dy for column, c in zip(columns, C)
    )


def _primal_feasible(problem: LPProblem, x) -> bool:
    """True iff A x = b and x >= 0, decided in integers."""
    X, dx = _scaled(x)
    if min(X, default=0) < 0:
        return False
    ax = [0] * problem.nrows
    for xj, column in zip(X, problem.columns):
        if xj:
            for i in column:
                ax[i] += xj
    rhs, d_rhs = problem.scaled_rhs
    return all(a * d_rhs == bi * dx for a, bi in zip(ax, rhs))


def check_certificate(problem: LPProblem, cert: Certificate, tol=0) -> bool:
    """True iff y.A <= 0 on every column and y.b > 0 (up to tol)."""
    y, tol = cert.y, Fraction(tol)
    return (
        len(y) == problem.nrows
        and _columns_within(problem.columns, y, _scaled([tol] * problem.ncols))
        and _dot(problem.scaled_rhs, y) > tol
    )


class _ExactTableau:
    """Dense two-phase tableau over exact rationals.

    Columns: n structural, then m artificials, then the rhs.  Artificial
    columns stay in the tableau through phase 2 (never eligible to
    enter); they carry the basis inverse, so dual prices can be read off
    the final reduced-cost row.
    """

    def __init__(self, problem: LPProblem, objective: Sequence[Fraction]):
        self.n = problem.ncols
        self.m = problem.nrows
        self.obj = list(objective)
        self.row_sign = [-1 if b < 0 else 1 for b in problem.rhs]
        self.rows = []
        for i, b in enumerate(problem.rhs):
            row = [Fraction(0)] * (self.n + self.m + 1)
            row[self.n + i] = Fraction(1)
            row[-1] = self.row_sign[i] * b
            self.rows.append(row)
        for j, column in enumerate(problem.columns):
            for i in column:
                self.rows[i][j] = Fraction(self.row_sign[i])
        self.basis = [self.n + i for i in range(self.m)]
        self.live = list(range(self.m))  # rows not dropped as dependent
        self.r = None  # reduced-cost row; r[-1] == -objective value

    def _set_costs(self, costs):
        width = self.n + self.m + 1
        r = list(costs) + [Fraction(0)] * (width - len(costs))
        for i in self.live:
            cb = costs[self.basis[i]] if self.basis[i] < len(costs) else 0
            if cb == 0:
                continue
            row = self.rows[i]
            for j in range(width):
                if row[j]:
                    r[j] -= cb * row[j]
        self.r = r

    def _pivot(self, i, j):
        row = self.rows[i]
        piv = row[j]
        if piv != 1:
            inv = 1 / piv
            for s, v in enumerate(row):
                if v:
                    row[s] = v * inv
        nz = [s for s, v in enumerate(row) if v]
        for t in self.live:
            if t == i:
                continue
            other = self.rows[t]
            f = other[j]
            if f:
                for s in nz:
                    other[s] -= f * row[s]
        r = self.r
        f = r[j]
        if f:
            for s in nz:
                r[s] -= f * row[s]
        self.basis[i] = j

    def _run(self, allowed_cols: int) -> None:
        """Pivot to optimality by Bland's rule; LPError if unbounded."""
        while True:
            r = self.r
            enter = next((j for j in range(allowed_cols) if r[j] < 0), -1)
            if enter < 0:
                return
            leave = -1
            best_ratio = None
            for i in self.live:
                coef = self.rows[i][enter]
                if coef > 0:
                    ratio = self.rows[i][-1] / coef
                    if (
                        best_ratio is None
                        or ratio < best_ratio
                        or (ratio == best_ratio and self.basis[i] < self.basis[leave])
                    ):
                        best_ratio = ratio
                        leave = i
            if leave < 0:
                raise LPError("the LP is unbounded")
            self._pivot(leave, enter)

    def phase1(self) -> bool:
        """Drive artificials out; False means infeasible."""
        costs = [Fraction(0)] * self.n + [Fraction(1)] * self.m
        self._set_costs(costs)
        self._run(allowed_cols=self.n)
        if -self.r[-1] > 0:
            return False
        # Pivot out (or drop) artificials still basic at level zero.
        for i in list(self.live):
            if self.basis[i] < self.n:
                continue
            row = self.rows[i]
            enter = next((j for j in range(self.n) if row[j] != 0), -1)
            if enter >= 0:
                self._pivot(i, enter)
            else:
                self.live.remove(i)  # dependent constraint row
        return True

    def phase2(self) -> None:
        self._set_costs(self.obj + [Fraction(0)] * self.m)
        self._run(allowed_cols=self.n)

    def farkas(self) -> list:
        # At phase-1 optimality r[n+i] = 1 - y_i, so y = 1 - r over the
        # artificial block; undo the row sign flips for the original system.
        return [
            self.row_sign[i] * (1 - self.r[self.n + i]) for i in range(self.m)
        ]

    def primal(self) -> list:
        x = [Fraction(0)] * self.n
        for i in self.live:
            j = self.basis[i]
            if j < self.n:
                x[j] = self.rows[i][-1]
        return x

    def duals(self) -> list:
        # Phase-2 artificial costs are 0, so r[n+i] = -y_i; dropped rows
        # contribute price 0.
        y = [Fraction(0)] * self.m
        for i in self.live:
            y[i] = -self.row_sign[i] * self.r[self.n + i]
        return y


def _highs(model, objective: Sequence):
    """One HiGHS run of min objective.x on the model of A x = b, x >= 0.

    A fresh solver takes the cached model (an LPProblem.highs_model)
    and then the objective's nonzero entries, so the model keeps its zero
    objective.  The feasibility tolerances are TIGHT_TOLERANCE.  Returns
    (x, y, value, basis) of an optimal vertex with its duals and its
    HighsBasis; for an infeasible LP (None, ray, None, None), ray HiGHS's
    dual ray from the same run (None if HiGHS has none).  LPError on any
    other status, such as an unbounded LP; OverflowError if an entry is
    too large for a float.
    """
    from scipy.optimize._highspy._core import HighsModelStatus, _Highs

    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("primal_feasibility_tolerance", TIGHT_TOLERANCE)
    highs.setOptionValue("dual_feasibility_tolerance", TIGHT_TOLERANCE)
    highs.passModel(model)
    costs = {j: float(v) for j, v in enumerate(objective) if v}
    highs.changeColsCost(len(costs), list(costs), list(costs.values()))
    highs.run()
    status = highs.getModelStatus()
    if status == HighsModelStatus.kOptimal:
        solution = highs.getSolution()
        value = highs.getInfo().objective_function_value
        return solution.col_value, solution.row_dual, value, highs.getBasis()
    if status == HighsModelStatus.kInfeasible:
        _, has_ray, ray = highs.getDualRay()
        return None, list(ray) if has_ray else None, None, None
    raise LPError(f"HiGHS failed with model status {status.name}")


def _infeasible(problem: LPProblem, y, source: str) -> LPSolution:
    """The infeasible answer with Farkas ray y, once check_certificate accepts it."""
    cert = Certificate(y)
    if not check_certificate(problem, cert):
        raise CertificationError(f"the Farkas ray from {source} fails y.A <= 0, y.b > 0")
    return LPSolution("infeasible", certificate=cert)


def _rational(r: int, d: int, bound: int):
    """The rational num/den == r modulo _PRIME with |num|, den <= bound, or None.

    num/d is tried first (d <= bound is the common denominator of the
    values found so far); otherwise the half-extended Euclidean algorithm
    on (_PRIME, r) stops at the first remainder within the bound.  Two such
    rationals would differ by a multiple of _PRIME over at most
    bound^2 < _PRIME / 2, so the one found is the only one.
    """
    P = _PRIME
    num = r * d % P
    if num > P // 2:
        num -= P
    if -bound <= num <= bound:
        return Fraction(num, d)
    r0, r1, t0, t1 = P, r, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound:
        return None
    return Fraction(r1, t1)


def _solve_rational(equations: Sequence[Sequence], rhs: Sequence):
    """One exact solution of sum_{v in eq} z[v] == rhs, or None; each
    equation eq lists its distinct unknowns, whose coefficients are 1.

    Sparse Gaussian elimination modulo _PRIME, on the residues of the
    rational rhs (num * den^-1): each pivot is the unknown that occurs in
    the fewest equations, which keeps fill-in low on the 0/1 systems.
    Free unknowns are set to 0 and left out of the returned {unknown:
    Fraction} dict.  Each value is recovered from its residue by rational
    reconstruction.  None if the system is inconsistent modulo _PRIME or a
    value has no reconstruction: its numerator or denominator would exceed
    sqrt(_PRIME / 2), about 9.2e18.  The residues part from the rationals
    only where _PRIME divides a number of the elimination, and a value
    beyond the bound may reconstruct to a wrong small one, so the caller
    checks whatever comes back exactly.
    """
    P = _PRIME
    try:
        system = [
            (dict.fromkeys(eq, 1), b.numerator * pow(b.denominator, -1, P) % P)
            for eq, b in zip(equations, rhs)
        ]
    except ValueError:  # a denominator divisible by _PRIME
        return None
    occurs = Counter(v for eq in equations for v in eq)
    order = {}  # pivot unknown -> index into pivots
    pivots = []  # (unknown, equation scaled to coefficient 1 there, rhs)
    for row, b in system:
        # Pivot rows are applied in the order they were made: row k holds
        # no unknown pivoted before k, so no earlier pivot comes back.
        heap = [order[v] for v in row if v in order]
        heapq.heapify(heap)
        while heap:
            p, prow, pb = pivots[heapq.heappop(heap)]
            f = row.get(p)
            if f is None:
                continue
            for v, a in prow.items():
                old = row.get(v)
                new = (-f * a if old is None else old - f * a) % P
                if new:
                    row[v] = new
                    if old is None and v in order:
                        heapq.heappush(heap, order[v])
                else:
                    del row[v]
            b = (b - f * pb) % P
        if not row:
            if b:
                return None
            continue
        p = min(row, key=occurs.__getitem__)
        inv = pow(row[p], -1, P)
        order[p] = len(pivots)
        pivots.append((p, {v: a * inv % P for v, a in row.items()}, b * inv % P))
    z = {}
    for p, prow, b in reversed(pivots):
        z[p] = (b - sum(a * z[v] for v, a in prow.items() if v != p and v in z)) % P
    bound = math.isqrt(P // 2)
    d = 1  # the common denominator of the values so far, kept <= bound
    for p, r in z.items():
        value = _rational(r, d, bound)
        if value is None:
            return None
        z[p] = value
        d = math.lcm(d, value.denominator)
        if d > bound:
            d = value.denominator
    return z


def _rounded(v) -> Fraction:
    """The rational limit_denominator() finds nearest v.

    Every other fraction with denominator at most 10^6 lies at least 10^-6
    from an integer, so an integer within 4e-7 of v is that rational; this
    shortcut skips the continued fraction for most duals.
    """
    v = float(v)
    r = round(v)
    if abs(v - r) < 4e-7:
        return Fraction(r)
    return Fraction(v).limit_denominator()


def _accept(problem: LPProblem, objective, xs, ys):
    """(x, y, c.x) of an exactly checked optimum of the problem.

    x is the first candidate of xs with A x = b and x >= 0, y the first of
    ys with y.A_j <= c_j for every column j, and the pair must close the
    gap, c.x == b.y.  The checks run in integers over common
    denominators, c is scaled to them once, and a candidate is made only
    after the one before it has failed.  CertificationError names the
    check that no candidate passed: x, y or the gap.
    """
    x = next((c for c in xs if _primal_feasible(problem, c)), None)
    if x is None:
        raise CertificationError("x fails A x = b, x >= 0")
    scaled_c = _scaled(objective)
    y = next((c for c in ys if _columns_within(problem.columns, c, scaled_c)), None)
    if y is None:
        raise CertificationError("y fails y.A <= c")
    value = _dot(scaled_c, x)
    gap = value - _dot(problem.scaled_rhs, y)
    if gap:
        raise CertificationError(f"gap c.x - b.y is {gap}, not 0")
    return x, y, value


def _basic(statuses) -> list[int]:
    """The ascending indices whose HiGHS basis status is kBasic."""
    from scipy.optimize._highspy._core import HighsBasisStatus

    return [j for j, s in enumerate(statuses) if s == HighsBasisStatus.kBasic]


def _certify(problem: LPProblem, objective, x_float, y_float, basis):
    """_accept's (x, y, value) near HiGHS's optimal vertex and its basis.

    x's candidates, in order: the vertex rounded to the multiples of 1/D,
    D the common denominator of b, if D <= 2^53 (a float resolves no finer
    grid); the vertex rounded by limit_denominator; x rebuilt from the
    basis.  D goes first: a vertex denominator often divides D but exceeds
    limit_denominator's 10^6 (as on 216 of 384 exact mass extremes of
    build_nonstrong(8) and (10)), and limit_denominator still passes where
    D does not (on some random transport LPs).  y's: HiGHS's duals rounded
    by limit_denominator, then y rebuilt.  Every entry is rounded, as
    HiGHS puts the nonbasic columns at exactly 0.0.  The rebuilds solve
    A_B x_B = b with x = 0 off the basic columns B, and y.A_j = c_j for j
    in B with y = 0 on the basic rows.  The statuses are read only once a
    rebuild is reached, as their lists cost about 0.2 ms per LP of
    build_nonstrong(10); an invalid basis rebuilds nothing.
    """
    zero = Fraction(0)

    def xs():
        d_rhs = problem.scaled_rhs[1]
        if d_rhs <= 2**53:
            yield [Fraction(round(v * d_rhs), d_rhs) for v in x_float]
        yield [_rounded(v) for v in x_float]
        if basis.valid:
            equations = [[] for _ in range(problem.nrows)]
            for j in _basic(basis.col_status):
                for i in problem.columns[j]:
                    equations[i].append(j)
            x_sparse = _solve_rational(equations, problem.rhs)
            if x_sparse is not None:
                yield [x_sparse.get(j, zero) for j in range(problem.ncols)]

    def ys():
        yield [_rounded(v) for v in y_float]
        if basis.valid:
            cols, basic_rows = _basic(basis.col_status), set(_basic(basis.row_status))
            y_sparse = _solve_rational(
                [[i for i in problem.columns[j] if i not in basic_rows] for j in cols],
                [objective[j] for j in cols],
            )
            if y_sparse is not None:
                yield [y_sparse.get(i, zero) for i in range(problem.nrows)]

    return _accept(problem, objective, xs(), ys())


def _solve_tableau(problem: LPProblem, objective) -> LPSolution:
    """The tableau's answer; its optimum passes _accept and its ray _infeasible."""
    tab = _ExactTableau(problem, objective)
    if not tab.phase1():
        return _infeasible(problem, tab.farkas(), "phase 1")
    tab.phase2()
    return LPSolution("optimal", *_accept(problem, objective, [tab.primal()], [tab.duals()]))


def _solve_highs(problem: LPProblem, objective, exact: bool) -> LPSolution:
    """The answer of one HiGHS run, certified in exact mode.

    Exact mode returns _certify's optimum, or HiGHS's dual ray from the
    same run, scaled to largest entry 1 and rounded, once _infeasible
    accepts it.  Float mode returns HiGHS's numbers, with an entry of x
    in [-TIGHT_TOLERANCE, 0), within HiGHS's own feasibility tolerance,
    as 0.0, and the scaled ray; LPError if its optimal x has an entry
    below -TIGHT_TOLERANCE or an infeasible run has no ray
    (CertificationError in exact mode).
    """
    try:
        x, y, value, basis = _highs(problem.highs_model, objective)
    except OverflowError as exc:
        raise LPError(f"an LP entry is too large for a float: {exc}") from exc
    if x is None:
        if y is None:
            error = CertificationError if exact else LPError
            raise error("HiGHS calls the LP infeasible but gives no dual ray")
        scale = max(map(abs, y)) or 1.0
        y = [v / scale for v in y]
        if not exact:
            return LPSolution("infeasible", certificate=Certificate(y))
        return _infeasible(problem, [_rounded(v) for v in y], "HiGHS's rounded dual ray")
    if exact:
        return LPSolution("optimal", *_certify(problem, objective, x, y, basis))
    if min(x, default=0.0) < -TIGHT_TOLERANCE:
        raise LPError(f"HiGHS's optimal x has an entry {min(x)} < -{TIGHT_TOLERANCE}")
    return LPSolution("optimal", x=[max(v, 0.0) for v in x], y=list(y), value=value)


def check_size(nonzeros: int, arithmetic: str) -> None:
    """SizeCapError if an LP of this many nonzeros is over a cap.

    FLOAT_NONZERO_CAP binds both modes, EXACT_NONZERO_CAP exact mode
    too; DomainError for any other mode.  Callers that know the count
    before they build the rows check first, so a refused LP allocates
    nothing.
    """
    if arithmetic not in ("exact", "float"):
        raise DomainError(f"unknown arithmetic mode {arithmetic!r}")
    if nonzeros > FLOAT_NONZERO_CAP:
        raise SizeCapError(
            f"{nonzeros} nonzeros exceeds the cap {FLOAT_NONZERO_CAP} of both modes"
        )
    if arithmetic == "exact" and nonzeros > EXACT_NONZERO_CAP:
        raise SizeCapError(
            f"{nonzeros} nonzeros exceeds the exact-mode cap "
            f"{EXACT_NONZERO_CAP}; pass arithmetic='float'"
        )


def solve(problem: LPProblem, objective: Sequence, arithmetic: str = "exact") -> LPSolution:
    """Min objective.x over the problem's A x = b, x >= 0; exact rational
    mode unless arithmetic='float'.  The objective has one rational entry
    (as_fraction) per column, else DomainError.

    The tableau takes an LP without columns, which HiGHS rejects, and an
    exact one of at most TABLEAU_ONLY_NONZEROS nonzeros; one HiGHS run
    takes every other.  Both modes enforce check_size's caps: coefficient
    growth makes huge exact pivots impractical, and a huge float LP would
    use up memory.
    """
    check_size(problem.nonzeros(), arithmetic)
    objective = tuple(as_fraction(v) for v in objective)
    if len(objective) != problem.ncols:
        raise DomainError(f"{len(objective)} objective entries for {problem.ncols} columns")
    exact = arithmetic == "exact"
    if not problem.ncols or (exact and problem.nonzeros() <= TABLEAU_ONLY_NONZEROS):
        return _solve_tableau(problem, objective)
    return _solve_highs(problem, objective, exact)
