"""Exact linear programming over nonnegative integer constraint matrices.

Solves min c.x subject to A x = b, x >= 0, with A a nonnegative integer
matrix and c and b rational.  A column lists row i once per unit of
A_ij: every LP this package builds fixes projections, so its columns
are the sets of rows they lie in, and only a quotient (below) repeats a
row.  LPProblem holds A x = b alone and solve takes the objective, so
one LPProblem serves every objective posed on it, and what derives from
A and b (the HiGHS model, b over its common denominator) is made once,
when first needed.  A maximum is the negated minimum of -c.x, which the
callers pose.

A costed LP, with more than one nonzero objective entry, is first
reduced.  It gets the coarsest equitable partition of its rows and
columns refined from b and c (colour refinement: Grohe, Kersting,
Mladenov & Selman, ESA 2014; Bödi, Herr & Joswig, Math. Prog. 2013), in
plain Python on exact keys: each class is refined by the multisets of
its neighbours' classes themselves, so the partition found is equitable
by construction.  If the partition is not discrete, the LP solved is
its quotient, an LPProblem with one variable per column class and one
row per row class (XorInstance(4): 136 x 816 against 768 x 4,096), and
the quotient's vertex, duals or ray are lifted to the LP: x_j = X_Q(j)
and y_i = w_P(i) / |P(i)|.  The first keys of the columns all differ on
most LPs without symmetry, and these are solved as they are.

Both modes refuse a problem of more than FLOAT_NONZERO_CAP nonzeros
(check_size, which callers run before they build one), and exact mode
an LP solved, the quotient where there is one, of more than
EXACT_NONZERO_CAP: a SizeCapError.  Exact mode then takes one route per
LP, by the size of the LP solved.  One of at most TABLEAU_ONLY_NONZEROS nonzeros goes to a
dense two-phase primal simplex over exact rationals, also the test
oracle: it pivots by Bland's rule (the first column with negative
reduced cost, the lowest basic index among tied ratios), which never
cycles, and yields Farkas rays.  The tableau's time has no bound on a
large LP, so it is no fallback.

Every larger LP is certified from floating point.  HiGHS solves it on a
model of A x = b cached for every objective posed on it, with
feasibility tolerances TIGHT_TOLERANCE, and returns an optimal vertex,
its dual prices y and its basis.  A model with more than IPM_NONZEROS
nonzeros and a costed objective runs the interior-point method with
crossover, which ends on an optimal basis as the simplex does (Andersen
& Ye, "Combining interior-point and pivoting algorithms for linear
programming", Management Sci. 1996); every other model runs the dual
simplex.  An interior-point run that ends without an optimum is run
again by the simplex on the same solver, so every Farkas ray comes from
the simplex.  An objective with at most one nonzero entry
(kellerer_check's zero objective, the one-cell objectives of the mass
extremes) runs without HiGHS's presolve, which costs a quarter of such
a run and saves 2% of its simplex iterations; a costed one keeps it
(_highs says why).  The duals of a costed LP with a quotient are
constant on the row classes whichever optimal basis HiGHS ends on, so
diagnose_dual_growth's sums do not follow presolve or the method.

x and y are rounded to nearby rationals, and a part that fails is
rebuilt as the exact basic solution of that basis (Applegate, Cook,
Dash & Espinoza, "Exact solutions to linear programming problems",
Oper. Res. Lett. 2007): solves on HiGHS's own factor of the basis
matrix, refined with exact integer residuals to rationals of any size
that the basis admits.  Rounding and rebuilding both work on the short
quotient vectors before the lift.  scipy's HiGHS binding is loaded by
itself (_core), without scipy.optimize or scipy.sparse, and numpy is
imported only by the rebuild.

An optimum from either route is returned only if its lift passes A x =
b, x >= 0, y.A_j <= c_j for every column and c.x == b.y exactly on the
LP itself, in Python integers over common denominators, so no claim
rests on the quotient's theorem, and HiGHS's floats, its basis and its
factor only choose the candidates.  A rejected answer is not solved
again.  An infeasible LPSolution holds its Farkas ray (y.A <= 0, y.b >
0) in y, where an optimum holds its dual prices: the tableau's phase-1
ray, or HiGHS's dual ray from the simplex run that found the LP
infeasible, scaled to largest entry 1 and rounded to nearby rationals,
once check_certificate accepts its lift.  Otherwise CertificationError
names the failed check: x, y, the gap or the ray.

Float mode makes the same HiGHS runs and returns their lifted answer,
with x's entries in [-TIGHT_TOLERANCE, 0) set to 0 and any lower one an
LPError, and for infeasible problems the rounded ray if
check_certificate accepts it, else the scaled dual ray, each entry the
exact Fraction of its float.  solve itself answers a model without
columns, which HiGHS rejects, the same way in both modes, its ray also
checked.  No LP this package builds is unbounded (its marginal rows and
x >= 0 bound x), so an unbounded LP raises LPError, as does any other
HiGHS failure.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import sys
from collections import Counter
from fractions import Fraction
from functools import cache, cached_property
from itertools import accumulate
from typing import Sequence

from .measures import DomainError, Frozen, as_fraction, as_int, scaled

# Exact mode refuses an LP solved, a costed LP's quotient if it has one,
# of more nonzeros.  Exact verify_gap on build_discontinuous(36), whose
# quotient has 49,050, gives 1/6 in 2.7-3.8 s at 100 MB on 2 cores.  With
# the cap lifted, LPs without a quotient take far longer.  On (3,2)
# families on 30^3, 81,000 nonzeros, exact verify_gap on random marginals
# with costs 0..9 took 35 s and 386 MB (1.4 s float), and exact
# kellerer_check on uniform marginals 55 s.
EXACT_NONZERO_CAP = 50_000

# No LP in either mode may have more nonzeros than this.  The (3,2)
# family on 72^3 has 1,119,744: its support, rows and LPProblem took
# 1.4 s and grew the process from 16 to 139 MB.
FLOAT_NONZERO_CAP = 2_000_000

# Exact LPs with at most this many nonzeros go to the tableau, and no
# other exact LP does.  The count is the LP solved, the quotient's if a
# costed LP has one: build_nonstrong(10)'s support LP has 192 and its
# quotient 46.  On the test suite's LPs the tableau takes 0.1-4 ms,
# HiGHS plus certification 2-8 ms, and a first HiGHS run another ~0.1 s
# (0.01 s to load the binding, the rest mostly numpy's import).  Above it
# HiGHS won 76 of 78 LPs with 65-128 nonzeros and every larger one, and
# the tableau's time grows without bound (over 600 s at 17,496).
TABLEAU_ONLY_NONZEROS = 64

# Primal and dual feasibility tolerance of every HiGHS run (HiGHS's
# default is 1e-7).  Under the default a basic variable may sit slightly
# below 0 or a degenerate vertex may come out on an inconsistent support:
# 27 of the 33 min-mass LPs of build_unreachable(12) have an entry near
# -9e-8, and a degenerate (5,3) family's vertex fails x's exact check.
# No LP is solved again at another tolerance, and the tighter one costs
# HiGHS no time on these LPs.
TIGHT_TOLERANCE = 1e-10

# A model with more nonzeros than this and more than one nonzero objective
# entry runs HiGHS's interior-point method with crossover, every other
# model its dual simplex.  The count is the model's, the quotient's if
# HiGHS solves one.  These timings were taken on full LPs, before
# symmetric LPs went to HiGHS as their quotients.  Exact verify_gap, dual
# simplex -> interior point, on 2 cores (medians of 3):
# build_discontinuous(6), 648 nonzeros, 9-10 -> 12-15 ms; XorInstance(3),
# 1,536, 15-17 -> 19 ms; random (3,2) on 10^3, 3,000, 52-55 -> 48 ms; on
# 12^3, 5,184, 165-201 -> 107 ms; build_discontinuous(12), 5,184, 196-200
# -> 119-131 ms; XorInstance(4), 12,288, 284-302 -> 144-161 ms.  A
# one-entry objective loses at every size: float min_mass_at_cell on
# build_unreachable(12), 5,184 nonzeros, went from 22 to 43-69 ms, and on
# (18) from 81-92 to 181-217 ms.  The quotient of build_discontinuous(24),
# 14,892 nonzeros, still runs the interior-point method.
IPM_NONZEROS = 4096

_ZERO = Fraction(0)  # the one Fraction for every exact 0 of a candidate


class LPError(Exception):
    pass


@cache
def _core():
    """scipy's HiGHS binding: the imported module if there is one, else
    loaded from its file alone, since the package scipy.optimize would
    first import scipy.sparse, scipy.linalg and more.  The loaded module
    is not registered: a later import of scipy.optimize then imports it
    itself, gets the same module and sets it on scipy.optimize._highspy."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    dirs = importlib.util.find_spec("scipy").submodule_search_locations
    spec = importlib.machinery.PathFinder.find_spec(
        name, [f"{d}/optimize/_highspy" for d in dirs])
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class SizeCapError(LPError):
    """The LP is over FLOAT_NONZERO_CAP, or in exact mode EXACT_NONZERO_CAP."""


class CertificationError(LPError):
    """An exact answer failed its own certificate check."""


class LPProblem(Frozen):
    """A x = b, x >= 0 with A a nonnegative integer matrix: columns[j]
    lists row i A_ij times, so a 0/1 column lists the rows where it has
    a 1.

    Each row index must be an int (as_int) in 0..len(rhs) - 1; anything
    else is a DomainError.  b is rational.  The objective is solve's
    argument.
    """

    __slots__ = ("columns", "rhs", "_nonzeros", "_repeats", "__dict__")

    def __init__(self, columns: Sequence[Sequence[int]], rhs: Sequence):
        b = tuple(as_fraction(v) for v in rhs)
        cols = tuple(tuple(map(as_int, column)) for column in columns)
        nonzeros = 0
        for j, column in enumerate(cols):
            if not all(0 <= i < len(b) for i in column):
                raise DomainError(f"column {j} must list rows in 0..{len(b) - 1}")
            nonzeros += len(set(column))
        self._freeze(columns=cols, rhs=b, _nonzeros=nonzeros,
                     _repeats=nonzeros != sum(map(len, cols)))

    @property
    def ncols(self) -> int:
        return len(self.columns)

    @property
    def nrows(self) -> int:
        return len(self.rhs)

    def nonzeros(self) -> int:
        """The number of nonzero entries of A, HiGHS's getNumNz."""
        return self._nonzeros

    @cached_property
    def scaled_rhs(self) -> tuple[list[int], int]:
        """scaled(rhs): b as integers over its common denominator D."""
        return scaled(self.rhs)

    @cached_property
    def highs_model(self):
        """A x = b, x >= 0 as the HighsLp _highs runs, its objective zero:
        A column-wise, one entry a for a row that a column lists a times.

        OverflowError if an entry of b is too large for a float.
        """
        columns = [Counter(column) for column in self.columns] if self._repeats else self.columns
        index = [i for column in columns for i in column]  # a Counter lists each row once
        values = ([float(a) for column in columns for a in column.values()] if self._repeats
                  else [1.0] * self._nonzeros)
        b = [float(v) for v in self.rhs]
        model = _core().HighsLp()
        start = list(accumulate(map(len, columns), initial=0))
        model.num_col_ = model.a_matrix_.num_col_ = self.ncols
        model.num_row_ = model.a_matrix_.num_row_ = len(b)
        model.a_matrix_.format_ = _core().MatrixFormat.kColwise
        model.a_matrix_.start_ = start
        model.a_matrix_.index_ = index
        model.a_matrix_.value_ = values
        model.col_cost_ = model.col_lower_ = [0.0] * self.ncols
        model.col_upper_ = [math.inf] * self.ncols
        model.row_lower_ = model.row_upper_ = b
        return model


class LPSolution(Frozen):
    """Solver outcome: status plus the relevant witness objects.

    status 'optimal':    x, y (dual prices), value
    status 'infeasible': y, a Farkas ray (y.A <= 0, y.b > 0) of Fractions

    No other status exists: solve raises LPError on an unbounded LP.
    """

    __slots__ = ("status", "x", "y", "value")

    def __init__(self, status, x=None, y=None, value=None):
        self._freeze(status=status, x=x, y=y, value=value)

    def __repr__(self) -> str:
        return f"LPSolution(status={self.status!r}, value={self.value})"


def _dot(scaled_u, v) -> Fraction:
    """The exact inner product of u and v, summed in integers; u is given
    as scaled(u)."""
    (a, da), (b, db) = scaled_u, scaled(v)
    return Fraction(sum(s * t for s, t in zip(a, b)), da * db)


def _columns_within(columns, y, scaled_bound) -> bool:
    """True iff y.A_j <= bound[j] for every column j, decided in integers.

    `columns` is A's columns (the rows of each) and the bound is given as
    scaled(bound).  With y = Y / dy and bound = C / dc, the test is
    s_j * dc <= C_j * dy, where s_j = sum of Y_i over the rows i of column j.
    """
    Y, dy = scaled(y)
    C, dc = scaled_bound
    return all(
        sum(map(Y.__getitem__, column)) * dc <= c * dy for column, c in zip(columns, C)
    )


def _primal_feasible(problem: LPProblem, x) -> bool:
    """True iff A x = b and x >= 0, decided in integers."""
    X, dx = scaled(x)
    if min(X, default=0) < 0:
        return False
    ax = [0] * problem.nrows
    for xj, column in zip(X, problem.columns):
        if xj:
            for i in column:
                ax[i] += xj
    rhs, d_rhs = problem.scaled_rhs
    return all(a * d_rhs == bi * dx for a, bi in zip(ax, rhs))


def check_certificate(problem: LPProblem, y: Sequence) -> bool:
    """True iff the ray y has y.A <= 0 on every column and y.b > 0,
    decided exactly at the exact value of each entry (int, Fraction or
    float), through scaled."""
    return (
        len(y) == problem.nrows
        and _columns_within(problem.columns, y, ([0] * problem.ncols, 1))
        and _dot(problem.scaled_rhs, y) > 0
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
                self.rows[i][j] += self.row_sign[i]
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
    """HiGHS's min objective.x on the model of A x = b, x >= 0.

    A fresh solver takes the cached model (an LPProblem's highs_model)
    and then the objective's nonzero entries, so the model keeps its zero
    objective.  The feasibility tolerances are TIGHT_TOLERANCE.  An
    objective with at most one nonzero entry runs without presolve.  A
    costed one, with more, keeps presolve: without it an interior-point
    run leaves no factor, and getBasicVariables then crashes HiGHS
    1.12.0.  Above IPM_NONZEROS nonzeros of the model a costed LP runs
    the interior-point method with crossover; if that run ends without an
    optimum, the same solver runs again with the simplex.  Every other LP
    has one simplex run.  Returns
    (x, y, value, highs) of an optimal vertex with its duals and the
    solver itself, which holds the factor of its basis; for an infeasible
    LP (None, ray, None, None), ray the dual ray of the simplex run that
    found it (None if HiGHS has none).  LPError on any other status, such
    as an unbounded LP; OverflowError if an entry is too large for a
    float.
    """
    core = _core()
    highs = core._Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("primal_feasibility_tolerance", TIGHT_TOLERANCE)
    highs.setOptionValue("dual_feasibility_tolerance", TIGHT_TOLERANCE)
    highs.passModel(model)
    costs = {j: float(v) for j, v in enumerate(objective) if v}
    highs.changeColsCost(len(costs), list(costs), list(costs.values()))
    costed = len(costs) > 1
    ipm = costed and highs.getNumNz() > IPM_NONZEROS
    if not costed:
        highs.setOptionValue("presolve", "off")
    if ipm:
        highs.setOptionValue("solver", "ipm")
        highs.setOptionValue("run_crossover", "on")
    highs.run()
    status = highs.getModelStatus()
    if ipm and status != core.HighsModelStatus.kOptimal:
        highs.setOptionValue("solver", "simplex")
        highs.run()
        status = highs.getModelStatus()
    if status == core.HighsModelStatus.kOptimal:
        solution = highs.getSolution()
        value = highs.getInfo().objective_function_value
        return solution.col_value, solution.row_dual, value, highs
    if status == core.HighsModelStatus.kInfeasible:
        _, has_ray, ray = highs.getDualRay()
        return None, list(ray) if has_ray else None, None, None
    raise LPError(f"HiGHS failed with model status {status.name}")


class _Quotient:
    """The quotient LP of an equitable partition of A's rows and columns
    (Grohe, Kersting, Mladenov & Selman, "Dimension reduction via colour
    refinement", ESA 2014), and the lift of its answers.

    row_class[i] is the class P of row i and col_class[j] the class Q of
    column j; every row of P has the same b_i and the same number A_PQ of
    class-Q columns, every column of Q the same c_j and the same number
    of class-P rows.  lp is the quotient as an LPProblem: variable X_Q is
    the value of each column of Q, and row P reads sum_Q A_PQ X_Q = b_P,
    columns[Q] listing P A_PQ times.  X_Q costs objective[Q] = c_Q |Q|.
    A quotient x lifts to x_j = X_Q(j), a quotient dual price or ray w to
    y_i = w_P(i) / |P(i)|.
    """

    def __init__(self, problem: LPProblem, objective, row_class, col_class, columns):
        self.row_class, self.col_class = row_class, col_class
        row_sizes, col_sizes = Counter(row_class), Counter(col_class)
        rhs, cost = dict(zip(row_class, problem.rhs)), dict(zip(col_class, objective))
        self.row_sizes = [row_sizes[p] for p in range(len(row_sizes))]
        self.objective = [cost[q] * col_sizes[q] for q in range(len(col_sizes))]
        self.lp = LPProblem(columns, [rhs[p] for p in range(len(row_sizes))])

    def lift_x(self, x) -> list:
        return [x[q] for q in self.col_class]

    def lift_y(self, w) -> list:
        per_row = [v / n for v, n in zip(w, self.row_sizes)]
        return [per_row[p] for p in self.row_class]


def _colour_ids(keys) -> tuple[list, int]:
    """Each key's class number, numbered in order of first appearance,
    and the number of classes."""
    ids = {}
    return [ids.setdefault(key, len(ids)) for key in keys], len(ids)


def _quotient(problem: LPProblem, objective, scaled_c) -> _Quotient | None:
    """The quotient of the coarsest equitable partition refined from b
    and c = scaled_c, or None if its columns are all apart (the discrete
    partition).

    Rows start from their B_i and columns from (C_j, the sorted B_i of
    their rows), with b = B / D and c = C / dc.  If these column keys all
    differ, which ends the work for most LPs, there is no quotient.  The
    key takes the sorted B_i: in the order of the rows, a symmetry of the
    axes would part the columns it swaps.  Otherwise half-steps
    alternate, a row taking (its colour, the sorted colours of its
    columns) and a column (its colour, the sorted colours of its rows),
    until the first half-step that splits no class.  The keys are the
    multisets themselves, so every row of a class P then has the same
    number A_PQ of columns of each class Q, and every column of Q the
    same number of rows of P; A_PQ is counted on one row of P.
    """
    B = problem.scaled_rhs[0]
    keys = [(c, *sorted(map(B.__getitem__, column)))
            for c, column in zip(scaled_c[0], problem.columns)]
    if len(set(keys)) == len(keys):
        return None
    row_columns = [[] for _ in B]
    for j, column in enumerate(problem.columns):
        for i in column:
            row_columns[i].append(j)
    members = (row_columns, problem.columns)
    colours = [_colour_ids(B), _colour_ids(keys)]  # (class numbers, count) of rows, columns
    side = 0
    while True:
        (own, count), other = colours[side], colours[1 - side][0].__getitem__
        new = _colour_ids([(colour, *sorted(map(other, near)))
                           for colour, near in zip(own, members[side])])
        if new[1] == count:
            break
        colours[side], side = new, 1 - side
    (rows, _), (cols, ncols) = colours
    if ncols == len(cols):
        return None
    columns = [[] for _ in range(ncols)]
    for p, i in {p: i for i, p in enumerate(rows)}.items():  # p ascending, as numbered
        for j in row_columns[i]:
            columns[cols[j]].append(p)
    return _Quotient(problem, objective, rows, cols, columns)


def _infeasible(problem: LPProblem, y, source: str) -> LPSolution:
    """The infeasible answer with Farkas ray y, once check_certificate accepts it."""
    if not check_certificate(problem, y):
        raise CertificationError(f"the Farkas ray from {source} fails y.A <= 0, y.b > 0")
    return LPSolution("infeasible", y=y)


def _basis_factor(lp, highs):
    """(basic, columns, highs, bound) of the basis HiGHS has factored (it
    may have replaced dependent columns), or None if it has none: basic in
    HiGHS's order, j >= 0 column j and -1 - i row i, columns those of
    M = [A_B | I_R] in that order, and bound > |det M|, the product of
    the 2-norms of M's columns (Hadamard's bound) rounded up.  lp is the
    LPProblem HiGHS solved, whose columns list a row once per unit of its
    coefficient: a column's squared 2-norm is the sum of the squared
    multiplicities of its rows."""
    status, basic = highs.getBasicVariables()
    if status != _core().HighsStatus.kOk:
        return None
    basic = basic.tolist()
    columns = [lp.columns[j] if j >= 0 else (-1 - j,) for j in basic]
    squares = (sum(a * a for a in Counter(column).values()) for column in columns)
    return basic, columns, highs, math.isqrt(math.prod(squares)) + 1


def _refine(factor, rhs, transpose=False):
    """The exact z with M z = rhs (M^T z = rhs if transpose), M from
    factor = _basis_factor(...), or None.

    Iterative refinement (Wan, J. Symb. Comput. 2006) keeps integers with
    M N == d B - r, rhs = B / D.  A step solves M u = r / 2^e on HiGHS's
    factor (r / 2^e below 1, however large r) and sets N, d, r to
    2^a N + x, 2^a d, 2^a r - M x, x = 2^(a+e) u rounded, a <= 30 so small
    that r does not grow.  r == 0 makes N / d exact; else each step tries
    limit_denominator(q), q as large as the error 2^e |u| / d allows, and
    returns a w that solves M w == B exactly (M^-1 B's denominators are
    below the bound).  None if a solve fails, u is not finite, a step does
    not shrink the error, or q reaches the bound.
    """
    import numpy as np

    _, columns, highs, bound = factor
    rows = columns
    if not transpose:
        rows = [[] for _ in columns]
        for k, column in enumerate(columns):
            for i in column:
                rows[i].append(k)
    flat = np.array([k for row in rows for k in row])
    starts = list(accumulate(map(len, rows[:-1]), initial=0))
    solve = highs.getBasisTransposeSolve if transpose else highs.getBasisSolve
    B, D = scaled(rhs)
    N, d, r, last_error = [0] * len(B), 1, B, math.inf
    while any(r):
        e = max(map(abs, r)).bit_length()
        scale = 1 << e
        v = np.array([ri / scale for ri in r])
        status, u = solve(v)
        top = float(np.abs(u).max())
        k = math.frexp(top)[1]  # |u| < 2^k
        error = e + k - d.bit_length()  # M^-1 r / d is below 2^(error + 1)
        if status != _core().HighsStatus.kOk or not math.isfinite(top) or error >= last_error:
            return None
        last_error = error
        q = min(bound, 1 << max(0, (-2 - error) // 2))  # 2^(error + 1) <= 1/(2 q^2)
        w = [Fraction(n, d).limit_denominator(q) for n in N]
        W, dw = scaled(w)
        if all(sum(map(W.__getitem__, row)) == dw * b for row, b in zip(rows, B)):
            return [wi / D for wi in w]
        if q == bound:
            return None
        res = float(np.abs(v - np.add.reduceat(u[flat], starts)).max())
        a = min(30, -2 - math.frexp(res)[1]) if res else 30
        if a < 1:
            return None
        s = max(0, a + e + k - 62)
        x = [int(xi) << s for xi in np.rint(np.ldexp(u, a + e - s)).tolist()]
        N = [(n << a) + xi for n, xi in zip(N, x)]
        d <<= a
        r = [(ri << a) - sum(map(x.__getitem__, row)) for ri, row in zip(r, rows)]
    return [Fraction(n, d * D) for n in N]


def _rounded(v) -> Fraction:
    """The rational limit_denominator() finds nearest v.

    Every other fraction with denominator at most 10^6 lies at least 10^-6
    from an integer, so an integer within 4e-7 of v is that rational; this
    shortcut skips the continued fraction for most duals.
    """
    v = float(v)
    r = round(v)
    if abs(v - r) < 4e-7:
        return Fraction(r) if r else _ZERO
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
    scaled_c = scaled(objective)
    y = next((c for c in ys if _columns_within(problem.columns, c, scaled_c)), None)
    if y is None:
        raise CertificationError("y fails y.A <= c")
    value = _dot(scaled_c, x)
    gap = value - _dot(problem.scaled_rhs, y)
    if gap:
        raise CertificationError(f"gap c.x - b.y is {gap}, not 0")
    return x, y, value


def _certify(problem: LPProblem, objective, x_float, y_float, highs, quotient=None):
    """_accept's (x, y, value) near HiGHS's optimal vertex and its basis.

    x's candidates, in order: the vertex rounded to the multiples of 1/D,
    D the common denominator of b, if D <= 2^53 (a float resolves no finer
    grid); the vertex rounded by limit_denominator; x rebuilt from the
    basis.  D goes first: a vertex denominator often divides D but exceeds
    limit_denominator's 10^6 (as on 216 of 384 exact mass extremes of
    build_nonstrong(8) and (10)), and limit_denominator still passes where
    D does not (on some random transport LPs).  y's: HiGHS's duals rounded
    by limit_denominator, then y rebuilt.  The nonbasic columns, at
    exactly 0.0, all round to the one _ZERO.  The rebuilds, x_B from
    M z = b with x = 0 off B and y from M^T y = (c_B, 0), share
    _basis_factor's M = [A_B | I_R] and the factor that the solver highs
    holds, read only once a rebuild is reached; it is never run again.

    If HiGHS solved the quotient LP, its vectors are rounded and rebuilt
    on the quotient's basis and then lifted; _accept checks the lifted
    x and y on the problem itself.
    """
    lp = quotient.lp if quotient else problem
    lift_x, lift_y = (quotient.lift_x, quotient.lift_y) if quotient else (list, list)
    factor = cache(lambda: _basis_factor(lp, highs))

    def xs():
        d_rhs = problem.scaled_rhs[1]
        if d_rhs <= 2**53:
            yield lift_x([Fraction(round(v * d_rhs), d_rhs) if v else _ZERO for v in x_float])
        yield lift_x([_rounded(v) for v in x_float])
        if factor() and (z := _refine(factor(), lp.rhs)) is not None:
            x = dict(zip(factor()[0], z))
            yield lift_x([x.get(j, _ZERO) for j in range(lp.ncols)])

    def ys():
        yield lift_y([_rounded(v) for v in y_float])
        if factor():
            lp_objective = quotient.objective if quotient else objective
            c_basic = [lp_objective[j] if j >= 0 else _ZERO for j in factor()[0]]
            if (y := _refine(factor(), c_basic, transpose=True)) is not None:
                yield lift_y(y)

    return _accept(problem, objective, xs(), ys())


def check_size(nonzeros: int) -> None:
    """SizeCapError if an LP of this many nonzeros is over FLOAT_NONZERO_CAP,
    the memory cap of both modes.  Callers that know the count before they
    build the rows check first, so a refused LP allocates nothing; solve
    checks every problem it is given.
    """
    if nonzeros > FLOAT_NONZERO_CAP:
        raise SizeCapError(
            f"{nonzeros} nonzeros exceeds the cap {FLOAT_NONZERO_CAP} of both modes"
        )


def solve(problem: LPProblem, objective: Sequence, arithmetic: str = "exact") -> LPSolution:
    """Min objective.x over the problem's A x = b, x >= 0; exact rational
    mode unless arithmetic='float' (any other mode: DomainError).  The
    objective has one rational entry (as_fraction) per column, else
    DomainError.  Both modes enforce check_size's cap on the problem.

    An LP without columns, which HiGHS rejects, is answered here: x = ()
    is its one point if b = 0 (optimal, y = 0, value 0), and else the ray
    y_i = -1 where b_i < 0 and 1 elsewhere proves it infeasible.  A
    costed objective, with more than one nonzero entry, is solved on the
    problem's _quotient when it has one, and every other on the problem.
    Exact mode refuses the LP solved over EXACT_NONZERO_CAP nonzeros and
    sends it to the tableau at TABLEAU_ONLY_NONZEROS or fewer; every other
    LP goes to HiGHS, by _highs's choice of method.  Every vector either
    returns is lifted to the problem.

    Exact mode returns an optimum that _accept passes, the tableau's or
    _certify's, or a ray that _infeasible accepts: the tableau's phase-1
    ray, or HiGHS's dual ray scaled to largest entry 1 and rounded.
    Float mode returns HiGHS's numbers, with an entry of x in
    [-TIGHT_TOLERANCE, 0), within HiGHS's own feasibility tolerance, as
    0.0; its ray is the rounded one if check_certificate accepts it, else
    the scaled ray in Fractions.  LPError if float mode's optimal x has an
    entry below -TIGHT_TOLERANCE or an infeasible run has no ray
    (CertificationError in exact mode).
    """
    if arithmetic not in ("exact", "float"):
        raise DomainError(f"unknown arithmetic mode {arithmetic!r}")
    check_size(problem.nonzeros())
    objective = tuple(as_fraction(v) for v in objective)
    if len(objective) != problem.ncols:
        raise DomainError(f"{len(objective)} objective entries for {problem.ncols} columns")
    if not problem.ncols:
        if any(problem.rhs):
            ray = [Fraction(-1 if b < 0 else 1) for b in problem.rhs]
            return _infeasible(problem, ray, "the signs of b")
        return LPSolution("optimal", x=[], y=[_ZERO] * problem.nrows, value=_ZERO)
    exact = arithmetic == "exact"
    quotient = None
    if sum(map(bool, objective)) > 1:
        quotient = _quotient(problem, objective, scaled(objective))
    lp, lp_objective = (quotient.lp, quotient.objective) if quotient else (problem, objective)
    lift_x, lift_y = (quotient.lift_x, quotient.lift_y) if quotient else (list, list)
    if exact and lp.nonzeros() > EXACT_NONZERO_CAP:
        raise SizeCapError(
            f"{lp.nonzeros()} nonzeros exceeds the exact-mode cap {EXACT_NONZERO_CAP}"
        )
    if exact and lp.nonzeros() <= TABLEAU_ONLY_NONZEROS:
        tab = _ExactTableau(lp, lp_objective)
        if not tab.phase1():
            return _infeasible(problem, lift_y(tab.farkas()), "phase 1")
        tab.phase2()
        xs, ys = [lift_x(tab.primal())], [lift_y(tab.duals())]
        return LPSolution("optimal", *_accept(problem, objective, xs, ys))
    try:
        x, y, value, highs = _highs(lp.highs_model, lp_objective)
    except OverflowError as exc:
        raise LPError(f"an LP entry is too large for a float: {exc}") from exc
    if x is None:
        if y is None:
            error = CertificationError if exact else LPError
            raise error("HiGHS calls the LP infeasible but gives no dual ray")
        scale = max(map(abs, y)) or 1.0
        y = [v / scale for v in y]
        ray = lift_y([_rounded(v) for v in y])
        if exact:
            return _infeasible(problem, ray, "HiGHS's rounded dual ray")
        if not check_certificate(problem, ray):
            ray = lift_y([Fraction(v) for v in y])
        return LPSolution("infeasible", y=ray)
    if exact:
        return LPSolution("optimal", *_certify(problem, objective, x, y, highs, quotient))
    if min(x, default=0.0) < -TIGHT_TOLERANCE:
        raise LPError(f"HiGHS's optimal x has an entry {min(x)} < -{TIGHT_TOLERANCE}")
    return LPSolution("optimal", x=lift_x([max(v, 0.0) for v in x]), y=lift_y(y), value=value)
