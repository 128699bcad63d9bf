"""Exact and float LP solving: optima, duals, certificates, caps."""

import collections
import itertools
import os
import random
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmk import lp_core
from mmk.case_studies import (
    _a_points,
    _b_points,
    build_discontinuous,
    build_nonstrong,
)
from mmk.feasibility import (
    kellerer_check,
    make_modk_counterexample,
    make_two_point_counterexample,
    marginal_constraint_rows,
    marginal_lp,
)
from mmk.lp_core import LPProblem, SizeCapError, check_certificate, solve
from mmk.measures import (
    DiscreteMeasure,
    DomainError,
    MarginalFamily,
    ProductGrid,
    all_index_sets,
    project,
    scaled,
)
from mmk.transport import CostGrid, InfeasibleFamilyError, verify_gap
from mmk.xor_model import XorInstance


# The threshold as shipped; TestCertifier's fixture lowers it to 0.
DEFAULT_THRESHOLD = lp_core.TABLEAU_ONLY_NONZEROS

# scipy's HiGHS binding, loaded as lp_core loads it.
_core = lp_core._core()


def farkas_ray(fam, verdict):
    """The Farkas ray of fam's full marginal LP that an infeasible verdict
    holds: its potentials in index-set order, negated."""
    return [-v for alpha in fam.index_sets() for v in verdict.potentials[alpha]]


def record_runs(monkeypatch):
    """The list of HiGHS runs from now on, each (options, ipm): the
    (option, value) pairs set on its solver before the run, in order, and
    the run's interior-point iteration count."""
    runs = []

    class Recording(_core._Highs):
        def __init__(self):
            super().__init__()
            self.options = []

        def setOptionValue(self, name, value):
            self.options.append((name, value))
            return super().setOptionValue(name, value)

        def run(self):
            status = super().run()
            runs.append((list(self.options), self.getInfo().ipm_iteration_count))
            return status

    monkeypatch.setattr(_core, "_Highs", Recording)
    return runs


# The option a run without presolve has among record_runs's options.
PRESOLVE_OFF = ("presolve", "off")


def refuse_tableau(monkeypatch):
    def no_tableau(self, *args):
        raise AssertionError("the exact tableau was built")

    monkeypatch.setattr(lp_core._ExactTableau, "__init__", no_tableau)


def record_rebuilds(monkeypatch):
    """The list of _refine's results, one per call, from now on."""
    rebuilt, refine = [], lp_core._refine
    monkeypatch.setattr(
        lp_core, "_refine", lambda *a, **kw: rebuilt.append(refine(*a, **kw)) or rebuilt[-1]
    )
    return rebuilt


def one_cell_extreme(fam, cell, sign):
    """sign * the exact min of sign * pi(cell) over fam's uniting measures:
    the one-cell LP of the mass extremes, posed on fam's marginal LP even
    where unique_uniting would answer without it."""
    objective = [0] * fam.full_grid().ncells
    objective[fam.full_grid().ravel(cell)] = sign
    return sign * marginal_lp(fam, objective, "exact").value


def assert_equitable(problem, objective, quotient):
    """Brute force: every row of class P has the quotient's b_P and
    exactly A_PQ columns of class Q, A_PQ the times the quotient's column
    Q lists P, and every column of Q has the same c and the same number
    of rows of each class P."""
    row_class, col_class = quotient.row_class, quotient.col_class
    counts = {}
    for q, column in enumerate(quotient.lp.columns):
        for p, a in collections.Counter(column).items():
            counts.setdefault(p, {})[q] = a
    row_columns = [[] for _ in range(problem.nrows)]
    for j, column in enumerate(problem.columns):
        for i in column:
            row_columns[i].append(col_class[j])
    b = {}
    for i, p in enumerate(row_class):
        assert b.setdefault(p, problem.rhs[i]) == problem.rhs[i] == quotient.lp.rhs[p]
        assert collections.Counter(row_columns[i]) == counts.get(p, {})
    c, per_column = {}, {}
    for j, q in enumerate(col_class):
        assert c.setdefault(q, objective[j]) == objective[j]
        rows = collections.Counter(row_class[i] for i in problem.columns[j])
        assert per_column.setdefault(q, rows) == rows


def solver_with_basis(problem, basic_columns, basic_rows):
    """A HiGHS solver of the problem's model, not run, whose basis has the
    given columns and rows basic and every other variable at its lower
    bound.  HiGHS factors the basis when lp_core first asks for it."""
    status = _core.HighsBasisStatus
    basis = _core.HighsBasis()
    basis.col_status = [
        status.kBasic if j in basic_columns else status.kLower for j in range(problem.ncols)
    ]
    basis.row_status = [
        status.kBasic if i in basic_rows else status.kLower for i in range(problem.nrows)
    ]
    highs = _core._Highs()
    highs.setOptionValue("output_flag", False)
    highs.passModel(problem.highs_model)
    assert highs.setBasis(basis) == _core.HighsStatus.kOk
    return highs


class TestExact:
    def test_simple_min(self):
        sol = solve(LPProblem([[0]], [2]), [1])
        assert sol.status == "optimal" and sol.value == 2

    def test_max_sense(self):
        # max c.x is -(min -c.x).
        sol = solve(LPProblem([[0], [0]], [3]), [-1, -2])
        assert -sol.value == 6
        assert -sol.y[0] == 2  # marginal value of the resource

    def test_infeasible_with_certificate(self):
        problem = LPProblem([[0, 1], []], [1, 2])
        sol = solve(problem, [1, 1])
        assert sol.status == "infeasible"
        assert check_certificate(problem, sol.y)

    def test_unbounded(self, monkeypatch):
        # No LP of mmk is unbounded, so no status stands for it: the
        # tableau, HiGHS in exact mode and float mode all raise.  Column 1
        # lies in no row and costs -1.
        problem = LPProblem([[0], []], [1])
        with pytest.raises(lp_core.LPError, match="unbounded"):
            solve(problem, [0, -1])
        monkeypatch.setattr(lp_core, "TABLEAU_ONLY_NONZEROS", 0)
        for arithmetic in ("exact", "float"):
            with pytest.raises(lp_core.LPError):
                solve(problem, [0, -1], arithmetic)

    def test_negative_rhs_handled(self):
        # x0 = -2 has no solution x0 >= 0; the tableau flips the row's sign,
        # and its Farkas ray flips back to y0 < 0.
        problem = LPProblem([[0]], [-2])
        sol = solve(problem, [1])
        assert sol.status == "infeasible" and sol.y[0] < 0
        assert check_certificate(problem, sol.y)

    def test_redundant_rows_dropped(self):
        sol = solve(LPProblem([[0, 1]], [3, 3]), [1])
        assert sol.status == "optimal" and sol.value == 3

    def test_transport_duality(self):
        # 2x2 balanced transport: value and dual value agree exactly.
        problem = LPProblem([[0, 2], [0, 3], [1, 2], [1, 3]], [Fraction(1, 2)] * 4)
        sol = solve(problem, [0, 3, 3, 0])
        assert sol.value == 0
        assert sum(y * b for y, b in zip(sol.y, problem.rhs)) == 0

    def test_size_cap(self):
        # The exact-mode cap counts the LP solved.  Costs 0..299 set all
        # 300 columns apart, so the dense 300 x 300 LP has no quotient and
        # its 90,000 nonzeros are refused; with all costs 1 it is solved
        # through its 1 x 1 quotient.
        n = 300
        problem = LPProblem([range(n)] * n, [1] * n)
        with pytest.raises(SizeCapError, match="90000 nonzeros exceeds the exact-mode cap"):
            solve(problem, range(n))
        sol = solve(problem, [1] * n)
        assert sol.status == "optimal" and sol.value == 1

    def test_float_size_cap(self, monkeypatch):
        lp_core.check_size(lp_core.FLOAT_NONZERO_CAP)
        with pytest.raises(SizeCapError, match="of both modes"):
            lp_core.check_size(lp_core.FLOAT_NONZERO_CAP + 1)
        monkeypatch.setattr(lp_core, "FLOAT_NONZERO_CAP", 3)
        problem = LPProblem([[0]] * 4, [1])
        with pytest.raises(SizeCapError, match="4 nonzeros exceeds the cap 3"):
            solve(problem, [1] * 4, arithmetic="float")

    # A column's entries are the row indices of its 1s: anything but an
    # int is refused, a bool and a numeric string too.
    @pytest.mark.parametrize("value", [Fraction(1, 2), 0.5, True, 2.7, "1"])
    def test_non_integer_coefficient_refused(self, value):
        with pytest.raises(DomainError, match="expected an integer"):
            LPProblem([[value]], [1, 1, 1])

    @pytest.mark.parametrize("column", [[-1], [2]], ids=["negative", "nrows"])
    def test_row_index_out_of_range_or_repeated_refused(self, column):
        # A row index outside 0..n-1 is refused; a repeated one is a
        # coefficient (test_repeated_rows_are_coefficients).
        with pytest.raises(DomainError, match=r"column 1 must list rows in 0\.\.1"):
            LPProblem([[0], column], [1, 1])

    def test_repeated_rows_are_coefficients(self, monkeypatch):
        # Column 0 lists row 0 twice: 2 x = 4, one nonzero entry 2, solved
        # by the tableau, by HiGHS in exact mode and in float mode.
        problem = LPProblem([[0, 0]], [4])
        matrix = problem.highs_model.a_matrix_
        assert (list(matrix.start_), list(matrix.index_), list(matrix.value_)) == (
            [0, 1], [0], [2.0])
        assert problem.nonzeros() == 1
        assert solve(problem, [1]).x == [2]
        monkeypatch.setattr(lp_core, "TABLEAU_ONLY_NONZEROS", 0)
        for mode in ("exact", "float"):
            assert solve(problem, [1], mode).x == [2]

    def test_one_problem_serves_two_objectives(self, monkeypatch):
        # Both solves run HiGHS on the one model the problem builds.
        monkeypatch.setattr(lp_core, "TABLEAU_ONLY_NONZEROS", 0)
        built, models = [], []
        monkeypatch.setattr(
            _core, "HighsLp", lambda real=_core.HighsLp: built.append(1) or real()
        )
        highs = lp_core._highs
        monkeypatch.setattr(
            lp_core, "_highs", lambda model, obj: models.append(model) or highs(model, obj)
        )
        problem = LPProblem([[0], [0]], [3])
        assert solve(problem, [-2, -1]).value == -6 and solve(problem, [1, 2]).value == 3
        assert len(built) == 1 and models == [problem.highs_model] * 2
        with pytest.raises(DomainError, match="1 objective entries for 2 columns"):
            solve(problem, [1])

    # min x0 / 2 + 3 x1 / 2 s.t. x0 = 1, x1 = 1: the optimum is x = (1, 1),
    # y = (1/2, 3/2), of value 2.  The costs differ, so the LP reaches the
    # tableau whole, not as a quotient.  Each patch breaks one check of
    # the tableau's answer.
    @pytest.mark.parametrize(
        "method, wrong, check",
        [
            ("primal", [Fraction(2), Fraction(0)], "x fails"),
            ("duals", [Fraction(2), Fraction(2)], "y fails"),
            ("duals", [Fraction(0), Fraction(0)], "gap c.x - b.y is 2"),
        ],
    )
    def test_tableau_optimum_checked(self, monkeypatch, method, wrong, check):
        problem = LPProblem([[0], [1]], [1, 1])
        costs = [Fraction(1, 2), Fraction(3, 2)]
        assert solve(problem, costs).x == [1, 1]
        monkeypatch.setattr(lp_core._ExactTableau, method, lambda self: list(wrong))
        with pytest.raises(lp_core.CertificationError, match=check):
            solve(problem, costs)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_random_duality_gap_zero(self, data):
        n = data.draw(st.integers(2, 5))
        m = data.draw(st.integers(1, 3))
        frac = st.fractions(min_value=-3, max_value=3, max_denominator=6)
        obj = [data.draw(frac) for _ in range(n)]
        x_feas = [
            data.draw(st.fractions(min_value=0, max_value=3, max_denominator=6))
            for _ in range(n)
        ]
        rows = [[data.draw(st.integers(0, 1)) for j in range(n)] for _ in range(m)]
        rhs = [sum(a * x for a, x in zip(row, x_feas)) for row in rows]
        problem = LPProblem([[i for i in range(m) if rows[i][j]] for j in range(n)], rhs)
        # These LPs are small enough to go straight to the tableau; solve
        # again with HiGHS and the certifier, which must agree.  The problem
        # is feasible by construction: if it is unbounded both routes raise
        # LPError, else both are optimal with a zero gap.
        results = []
        for threshold in (lp_core.TABLEAU_ONLY_NONZEROS, 0):
            with mock.patch.object(lp_core, "TABLEAU_ONLY_NONZEROS", threshold):
                try:
                    results.append(solve(problem, obj))
                except lp_core.CertificationError:
                    raise
                except lp_core.LPError:
                    results.append(None)
        sol, certified = results
        if sol is None:
            assert certified is None
            return
        assert (certified.status, certified.value) == ("optimal", sol.value)
        for result in (sol, certified):
            dual = sum(y * b for y, b in zip(result.y, rhs))
            assert result.value == dual
            assert all(v >= 0 for v in result.x)
            for row, b in zip(rows, rhs):
                assert sum(a * x for a, x in zip(row, result.x)) == b


class TestCertifier:
    @pytest.fixture(autouse=True)
    def through_highs(self, monkeypatch):
        monkeypatch.setattr(lp_core, "TABLEAU_ONLY_NONZEROS", 0)

    # 2x2 balanced transport: the optimum 0 puts mass on the diagonal.
    PROBLEM = LPProblem([[0, 2], [0, 3], [1, 2], [1, 3]], [Fraction(1, 2)] * 4)
    COSTS = tuple(map(Fraction, [0, 3, 3, 0]))
    def wrong(self):
        """The anti-diagonal vertex, feasible but of cost 3, a y = (3, 3, 0, 0)
        that prices its support at zero reduced cost, and a solver set to
        its basis: columns 0, 1, 2 and row 3."""
        basis = solver_with_basis(self.PROBLEM, {0, 1, 2}, {3})
        return [0.0, 0.5, 0.5, 0.0], [3.0, 3.0, 0.0, 0.0], basis

    def optimal_basis(self):
        """The solver of HiGHS's run to the optimum of PROBLEM under COSTS."""
        return lp_core._highs(self.PROBLEM.highs_model, self.COSTS)[3]

    def test_accepts_optimal_vertex(self):
        p = self.PROBLEM
        x, y, value = lp_core._certify(
            p, self.COSTS, [0.5, 0.0, 0.0, 0.5], [0.0] * 4, self.optimal_basis()
        )
        assert x == [Fraction(1, 2), 0, 0, Fraction(1, 2)]
        assert value == sum(yi * b for yi, b in zip(y, p.rhs)) == 0

    def test_x_rounded_at_b_denominator_first(self, monkeypatch):
        # b's common denominator is 2, and x rounded at it passes: no entry
        # of x goes through limit_denominator, only y's do.
        rounded, real = [], lp_core._rounded
        monkeypatch.setattr(lp_core, "_rounded", lambda v: rounded.append(v) or real(v))
        p = self.PROBLEM
        basis = self.optimal_basis()
        lp_core._certify(p, self.COSTS, [0.5, 0.0, 0.0, 0.5], [0.0] * 4, basis)
        assert len(rounded) == p.nrows

    def test_rejects_feasible_non_optimal_vertex(self, monkeypatch):
        p = self.PROBLEM
        # The y of its basis, (3, 6, -3, 0), has y.A_3 = 6 > 0: x is not optimal.
        with pytest.raises(lp_core.CertificationError, match="y fails"):
            lp_core._certify(p, self.COSTS, *self.wrong())
        # solve hands HiGHS the problem itself only if its partition is
        # discrete, as under the costs (0, 3, 4, 1).  There the y of the
        # basis is (3, 7, -3, 0), with y.A_3 = 7 > 1.
        costs = tuple(map(Fraction, [0, 3, 4, 1]))
        assert lp_core._quotient(p, costs, scaled(costs)) is None
        x, y, basis = self.wrong()
        calls = []
        monkeypatch.setattr(
            lp_core, "_highs", lambda model, obj: calls.append(obj) or (x, y, 3.0, basis)
        )
        with pytest.raises(lp_core.CertificationError, match="y fails"):
            solve(p, costs)
        assert len(calls) == 1

    def test_rejects_infeasible_support(self):
        # Column 0 alone, with rows 1-3 basic, rebuilds x = (1/2, 0, 0, 0),
        # which misses row 1; a solver without a basis rebuilds nothing.
        p = self.PROBLEM
        no_basis = solver_with_basis(p, {0}, {1, 2, 3})
        no_basis.clearSolver()
        for basis in (solver_with_basis(p, {0}, {1, 2, 3}), no_basis):
            with pytest.raises(lp_core.CertificationError, match="x fails"):
                lp_core._certify(p, self.COSTS, [1.0, 0.0, 0.0, 0.0], [0.0] * 4, basis)

    # A (4,3) family on 3^4, the projections of weight d / sum(d) on the
    # cells in ravel order (d the digits), with the integer costs below.
    # The vertex is degenerate: the columns of zero reduced cost leave y
    # free, and with its free unknowns at 0 it fails y.A <= c.  The
    # basis's square system fixes y.
    DEGENERATE_43 = (
        "07900380170760005090065106033203728833820"
        "1004640564417382004682723119879901900071",
        "8 7 2 1 2 9 11 19 19 17 6 15 16 2 3 7 10 17 13 12 0 12 12 5 20 16 6 19 10 12 "
        "10 3 17 11 7 3 6 9 9 8 19 2 5 2 20 13 5 7 20 2 18 18 20 20 17 13 13 7 13 15 "
        "16 19 7 9 13 8 2 19 10 5 13 0 4 3 9 18 17 19 18 5 13",
    )

    def degenerate_43(self):
        """(family, cost) of DEGENERATE_43."""
        digits, costs = self.DEGENERATE_43
        grid = ProductGrid([3] * 4)
        total = sum(int(d) for d in digits)
        mu = DiscreteMeasure(grid, [Fraction(int(d), total) for d in digits])
        fam = MarginalFamily(
            4, 3, [3] * 4, {a: project(mu, a) for a in all_index_sets(4, 3)}
        )
        return fam, CostGrid(grid, [Fraction(int(c)) for c in costs.split()])

    def test_degenerate_vertex_certified_by_rounding(self, monkeypatch):
        fam, cost = self.degenerate_43()
        monkeypatch.setattr(lp_core, "TABLEAU_ONLY_NONZEROS", 10**9)
        oracle = verify_gap(fam, cost).value
        monkeypatch.setattr(lp_core, "TABLEAU_ONLY_NONZEROS", 0)
        refuse_tableau(monkeypatch)
        report = verify_gap(fam, cost)
        assert report.gap == 0 and report.value == oracle

    def test_degenerate_vertex_certified_by_the_basis_rebuild(self, monkeypatch):
        # Both rounding candidates fail: limit_denominator's answer is
        # 10^9, and HiGHS's x is shifted by 1/4 on its support, so x rounded
        # at b's denominator 281 misses A x = b.  x and y then come from
        # the basis.
        fam, cost = self.degenerate_43()
        refuse_tableau(monkeypatch)
        highs = lp_core._highs

        def shifted(model, obj):
            x, y, value, basis = highs(model, obj)
            return [v + 0.25 if v > 1e-9 else v for v in x], y, value, basis

        monkeypatch.setattr(lp_core, "_highs", shifted)
        monkeypatch.setattr(lp_core, "_rounded", lambda v: Fraction(10**9))
        rebuilt = record_rebuilds(monkeypatch)
        report = verify_gap(fam, cost)
        assert report.gap == 0 and report.value == Fraction(2959, 281)
        assert len(rebuilt) == 2 and None not in rebuilt

    def test_x_rounded_at_b_denominator_while_y_stays_rounded(self, monkeypatch):
        fam, _ = build_nonstrong(10)
        problems, certify = [], lp_core._certify
        monkeypatch.setattr(
            lp_core, "_certify", lambda p, *args: problems.append(p) or certify(p, *args)
        )
        rebuilt = record_rebuilds(monkeypatch)
        refuse_tableau(monkeypatch)
        # The denominator is above limit_denominator's 10^6, so the rounded
        # x fails A x = b; it divides b's common denominator 58668846, and
        # x rounded at that denominator passes, so nothing is rebuilt.
        assert one_cell_extreme(fam, (0, 0, 1), 1) == Fraction(1058400, 9778141)
        assert len(problems) == 1 and len(rebuilt) == 0

    def test_dual_check_is_exact(self):
        p = self.PROBLEM
        tiny = Fraction(1, 10**12)
        # Column 1 lies in rows 0 and 3 and costs 3; the other columns hold
        # in both cases.
        c = scaled(self.COSTS)
        assert lp_core._columns_within(p.columns, [3 - tiny, -tiny, -3, tiny], c)
        assert not lp_core._columns_within(p.columns, [3, -tiny, -3, tiny], c)

    def test_bad_farkas_certificate_raises(self, monkeypatch):
        problem = LPProblem([[0, 1], []], [1, 2])
        # HiGHS's route: the dual ray y = (1, 1) has y.A_0 = 2 > 0.
        monkeypatch.setattr(
            lp_core, "_highs", lambda model, obj: (None, [1.0, 1.0], None, None)
        )
        with pytest.raises(lp_core.CertificationError, match="dual ray"):
            solve(problem, [1, 1])
        # The tableau's route, at the default threshold.
        monkeypatch.setattr(lp_core, "TABLEAU_ONLY_NONZEROS", DEFAULT_THRESHOLD)
        monkeypatch.setattr(lp_core._ExactTableau, "farkas", lambda self: [1, 1])
        with pytest.raises(lp_core.CertificationError, match="phase 1"):
            solve(problem, [1, 1])

    def test_entry_too_large_for_float_goes_to_tableau(self, monkeypatch):
        problem = LPProblem([[0], [0]], [1])
        with pytest.raises(lp_core.LPError, match="too large for a float"):
            solve(problem, [10**400, 0])
        monkeypatch.setattr(lp_core, "TABLEAU_ONLY_NONZEROS", DEFAULT_THRESHOLD)
        sol = solve(problem, [10**400, 0])
        assert sol.status == "optimal" and sol.value == 0

    def test_empty_model_answered_without_a_solver(self, monkeypatch):
        # solve answers an LP without columns itself, in both modes: x = ()
        # is its one point if b = 0, and else y_i = -1 where b_i < 0 and 1
        # elsewhere is a Farkas ray.  Neither the tableau nor HiGHS runs.
        assert solve(LPProblem([[], []], []), [1, 0]).value == 0  # columns, no rows
        refuse_tableau(monkeypatch)
        monkeypatch.setattr(lp_core, "_highs", None)
        for mode in ("exact", "float"):
            for b in ([0, 0], []):
                sol = solve(LPProblem([], b), [], mode)
                assert sol.status == "optimal" and tuple(sol.x) == ()
                assert sol.value == 0 and all(v == 0 for v in sol.y) and len(sol.y) == len(b)
            for b, ray in (([1, 0, 2], [1, 1, 1]), ([-1, 1], [-1, 1]), ([0, -3], [1, -1])):
                problem = LPProblem([], b)
                sol = solve(problem, [], mode)
                assert sol.status == "infeasible" and list(sol.y) == ray
                assert all(type(v) is Fraction for v in sol.y)
                assert check_certificate(problem, sol.y)


def fraction_reference(equations, rhs):
    """(consistent, the solution if unique) by dense Gauss-Jordan in Fractions;
    each equation lists the unknowns whose coefficient is 1."""
    unknowns = sorted({v for eq in equations for v in eq})
    table = [[Fraction(v in eq) for v in unknowns] + [Fraction(b)]
             for eq, b in zip(equations, rhs)]
    pivots = []  # (row, unknown index)
    for c in range(len(unknowns)):
        r = next((i for i in range(len(pivots), len(table)) if table[i][c]), None)
        if r is None:
            continue
        top = len(pivots)
        table[top], table[r] = table[r], table[top]
        table[top] = [v / table[top][c] for v in table[top]]
        for i, row in enumerate(table):
            if i != top and row[c]:
                table[i] = [a - row[c] * p for a, p in zip(row, table[top])]
        pivots.append((top, c))
    if any(row[-1] for row in table[len(pivots):]):
        return False, None
    if len(pivots) < len(unknowns):
        return True, None
    return True, {unknowns[c]: table[r][-1] for r, c in pivots}


def transposed(columns, n):
    """The rows of the n-row 0/1 matrix with the given columns."""
    return [[k for k, column in enumerate(columns) if i in column] for i in range(n)]


def random_feasible_53(seed):
    """Projections of a random measure on 3^5 (weight 0 w.p. 0.3, else 1-9)."""
    rng = random.Random(seed)
    grid = ProductGrid([3] * 5)
    raw = [0 if rng.random() < 0.3 else rng.randint(1, 9) for _ in range(grid.ncells)]
    mu = DiscreteMeasure(grid, [Fraction(w, sum(raw)) for w in raw])
    return MarginalFamily(5, 3, [3] * 5, {a: project(mu, a) for a in all_index_sets(5, 3)})


def transport_lp(rows, cols):
    """The LPProblem of transport between the row marginal `rows` and the
    column marginal `cols`: cell (i, j) is column i * len(cols) + j."""
    m = len(rows)
    return LPProblem(
        [[i, m + j] for i in range(m) for j in range(len(cols))], list(rows) + list(cols)
    )


class TestRebuild:
    """_basis_factor and _refine: the exact basic solution of a basis."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_fraction_elimination(self, data):
        # M = [A_B | I_R] of a random 0/1 A and basis, and M z = b and
        # M^T y = b on HiGHS's one factor, against dense Gauss-Jordan.
        # HiGHS keeps a nonsingular basis and replaces variables of a
        # singular one; either way its M is nonsingular.
        n = data.draw(st.integers(1, 7))
        columns = [[i for i in range(n) if data.draw(st.booleans())] for _ in range(n)]
        basic_rows = [i for i in range(n) if data.draw(st.booleans())]
        basic_cols = range(n - len(basic_rows))
        value = st.fractions(min_value=-5, max_value=5, max_denominator=30)
        rhs = [data.draw(value) for _ in range(n)]
        problem = LPProblem(columns, rhs)
        factor = lp_core._basis_factor(
            problem, solver_with_basis(problem, set(basic_cols), set(basic_rows))
        )
        basic, m_columns = factor[:2]
        chosen = [columns[j] for j in basic_cols] + [[i] for i in basic_rows]
        if len(fraction_reference(transposed(chosen, n), rhs)[1] or ()) == n:
            assert sorted(basic) == sorted([*basic_cols, *(-1 - i for i in basic_rows)])
        _, z = fraction_reference(transposed(m_columns, n), rhs)
        _, y = fraction_reference(m_columns, rhs)
        got = lp_core._refine(factor, rhs)
        assert got == [z[k] for k in range(n)]
        assert all(isinstance(v, Fraction) for v in got)
        assert lp_core._refine(factor, rhs, transpose=True) == [y[i] for i in range(n)]

    def test_feasible_53_certified_by_the_rebuild(self, monkeypatch):
        fam = random_feasible_53(3)
        rebuilt = record_rebuilds(monkeypatch)
        refuse_tableau(monkeypatch)
        verdict = kellerer_check(fam)
        # The vertex denominators exceed limit_denominator's 10^6 and do not
        # divide b's common denominator, so x comes from the rebuild.
        assert verdict.feasible and rebuilt and rebuilt[-1] is not None
        for alpha in fam.index_sets():
            assert project(verdict.witness, alpha) == fam[alpha]

    def test_mass_extremes_rebuilt_after_a_run_without_presolve(self, monkeypatch):
        # One-cell objectives run without presolve, and the basis of such a
        # run must still be factored for the rebuild (after an
        # interior-point run without presolve, getBasicVariables crashed
        # HiGHS).  Every rounded candidate fails, so at least y is rebuilt.
        fam, _ = build_nonstrong(8)
        monkeypatch.setattr(lp_core, "_rounded", lambda v: Fraction(v) + Fraction(1, 3))
        refuse_tableau(monkeypatch)
        runs = record_runs(monkeypatch)
        rebuilt = record_rebuilds(monkeypatch)
        # The unique uniting measure weighs each point of A_n and B_n,
        # n < 8, by 1/n^2 over the total.
        total = sum(Fraction(6, n * n) for n in range(1, 8))
        for n in range(1, 8):
            for point in _a_points(n) + _b_points(n):
                cell = tuple(c - 1 for c in point)
                for sign in (1, -1):
                    runs.clear()
                    rebuilt.clear()
                    assert one_cell_extreme(fam, cell, sign) == Fraction(1, n * n) / total
                    assert [PRESOLVE_OFF in options for options, _ in runs] == [True]
                    assert any(z is not None for z in rebuilt)

    def test_failed_reconstruction_raises(self, monkeypatch):
        # The family of test_feasible_53_certified_by_the_rebuild, whose x
        # only the rebuild recovers.  With the denominator bound cut to 2
        # the budget runs out: the vertex fails, and the LP is too large
        # for the tableau.
        fam = random_feasible_53(3)
        rebuilt = record_rebuilds(monkeypatch)
        factor = lp_core._basis_factor
        monkeypatch.setattr(lp_core, "_basis_factor", lambda *args: factor(*args)[:3] + (2,))
        refuse_tableau(monkeypatch)
        with pytest.raises(lp_core.CertificationError, match="x fails"):
            kellerer_check(fam)
        assert rebuilt == [None]

    def test_singular_or_invalid_basis_rebuilds_nothing(self, monkeypatch):
        # The family again, its solver's basis cleared: nothing is rebuilt.
        fam = random_feasible_53(3)
        rebuilt = record_rebuilds(monkeypatch)
        refuse_tableau(monkeypatch)
        highs = lp_core._highs

        def cleared(model, obj):
            x, y, value, solver = highs(model, obj)
            solver.clearSolver()
            return x, y, value, solver

        monkeypatch.setattr(lp_core, "_highs", cleared)
        with pytest.raises(lp_core.CertificationError, match="x fails"):
            kellerer_check(fam)
        assert rebuilt == []
        # Every singular choice of four basic variables of the 2x2 transport
        # LP, which has rank 3, with candidates from HiGHS that both fail.
        # HiGHS factors a basis it may have repaired, so the rebuild solves
        # some other basis or none; either way _certify returns the optimum
        # or nothing.
        p, costs = TestCertifier.PROBLEM, TestCertifier.COSTS
        singular = 0
        for chosen in itertools.combinations(range(8), 4):
            cols, rows = {j for j in chosen if j < 4}, {j - 4 for j in chosen if j >= 4}
            m_columns = [p.columns[j] for j in sorted(cols)] + [[i] for i in sorted(rows)]
            if len(fraction_reference(transposed(m_columns, 4), p.rhs)[1] or ()) == 4:
                continue
            singular += 1
            solver = solver_with_basis(p, cols, rows)
            try:
                x, y, value = lp_core._certify(p, costs, [-1.0] * 4, [9.0] * 4, solver)
            except lp_core.CertificationError:
                continue
            assert x == [Fraction(1, 2), 0, 0, Fraction(1, 2)] and value == 0
        assert singular

    def test_denominators_beyond_63_bits_certified(self, monkeypatch):
        # 6x6 transport, 72 nonzeros: x's denominators reach b's 3^41 > 2^64,
        # past the reach of a float and of limit_denominator, so x comes
        # from the rebuild.
        rng = random.Random(5)
        q = 3**41
        rows = [Fraction(rng.randint(1, q), q) for _ in range(5)]
        rows.append(6 - sum(rows))
        cols = [Fraction(1)] * 6
        problem = transport_lp(rows, cols)
        costs = [rng.randint(0, 9) for _ in range(problem.ncols)]
        with mock.patch.object(lp_core, "TABLEAU_ONLY_NONZEROS", 10**9):
            oracle = solve(problem, costs).value
        rebuilt = record_rebuilds(monkeypatch)
        refuse_tableau(monkeypatch)
        sol = solve(problem, costs)
        assert sol.value == oracle and max(v.denominator for v in sol.x) == q
        assert len(rebuilt) == 1

    def test_rhs_too_large_for_a_float(self, monkeypatch):
        # b's common denominator 2 * 3^700 is too large for a float, and the
        # rebuild's residuals, scaled before they become floats, recover
        # the optimum (1/2 + t, 0, 0, 1/2 - t) exactly.
        monkeypatch.setattr(lp_core, "TABLEAU_ONLY_NONZEROS", 0)
        t = Fraction(1, 3**700)
        half = Fraction(1, 2)
        problem = transport_lp([half + t, half - t], [half + t, half - t])
        sol = solve(problem, [0, 3, 3, 0])
        assert sol.x == [half + t, 0, 0, half - t] and sol.value == 0

    def test_discontinuous_18_certified(self):
        # x's vertex denominators have 66 bits.
        fam, cost = build_discontinuous(18)[:2]
        report = verify_gap(fam, cost)
        assert report.value == Fraction(1, 6) and report.gap == 0


def mixed_family(n, k, sizes, raw, s):
    """(1 - s) times the projections of the measure `raw` plus s times the
    mod-k family placed on the cells with every coordinate below k.

    Every such family is consistent; the mod-k part makes it infeasible
    from some s on, and zero weights in `raw` make its LPs degenerate.
    """
    grid = ProductGrid(sizes)
    mu = DiscreteMeasure(grid, [Fraction(w, sum(raw)) for w in raw])
    modk = make_modk_counterexample(n, k)
    marginals = {}
    for alpha in all_index_sets(n, k):
        sub = grid.subgrid(alpha)
        bad = [modk[alpha].weight(c) if max(c) < k else 0 for c in sub.cells()]
        marginals[alpha] = DiscreteMeasure(
            sub, [(1 - s) * p + s * b for p, b in zip(project(mu, alpha).weights, bad)]
        )
    return MarginalFamily(n, k, sizes, marginals)


class TestOneRoute:
    """Exact LPs above TABLEAU_ONLY_NONZEROS never reach the tableau, so
    HiGHS plus certification must decide every random family."""

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_exact_and_float_agree(self, data):
        n, k = data.draw(st.sampled_from([(3, 2), (4, 2), (4, 3)]))
        sizes = [data.draw(st.integers(k, k + 1) if n == 4 else st.integers(2, 4))
                 for _ in range(n)]
        grid = ProductGrid(sizes)
        weight = st.one_of(st.just(0), st.integers(1, 9))
        raw = data.draw(st.lists(weight, min_size=grid.ncells, max_size=grid.ncells)
                        .filter(any))
        s = Fraction(data.draw(st.integers(0, 8)), 8)
        fam = mixed_family(n, k, sizes, raw, s)
        cost = CostGrid(grid, data.draw(
            st.lists(st.integers(0, 9), min_size=grid.ncells, max_size=grid.ncells)))
        exact = kellerer_check(fam)
        assert kellerer_check(fam, arithmetic="float").feasible == exact.feasible
        if not exact.feasible:
            assert check_certificate(
                LPProblem(*marginal_constraint_rows(fam)), farkas_ray(fam, exact))
            for arithmetic in ("exact", "float"):
                with pytest.raises(InfeasibleFamilyError):
                    verify_gap(fam, cost, arithmetic)
            return
        value = verify_gap(fam, cost).value
        assert abs(verify_gap(fam, cost, "float").value - float(value)) < 1e-6


class TestFarkas:
    MODK = [(4, 3), (5, 2), (5, 3), (6, 2), (6, 3), (7, 2)]

    @staticmethod
    def modk_problem(n, k):
        fam = make_modk_counterexample(n, k)
        return fam, LPProblem(*marginal_constraint_rows(fam))

    @pytest.mark.parametrize("n,k", MODK)
    def test_modk_certified_without_tableau(self, monkeypatch, n, k):
        def no_tableau(self, *args):
            raise AssertionError("the exact tableau was built")

        monkeypatch.setattr(lp_core._ExactTableau, "__init__", no_tableau)
        fam, problem = self.modk_problem(n, k)
        verdict = kellerer_check(fam)
        assert not verdict.feasible
        assert check_certificate(problem, farkas_ray(fam, verdict))

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("n,k", MODK)
    def test_modk_decided_without_a_solve(self, monkeypatch, n, k, mode):
        # No cell of a mod-k family is charged by every marginal, so the
        # LP on the support has no column: one lp_core.solve call answers
        # it with y = 1 as its ray, and neither the tableau nor HiGHS runs.
        refuse_tableau(monkeypatch)
        monkeypatch.setattr(lp_core, "_highs", None)
        calls, real = [], lp_core.solve
        monkeypatch.setattr(
            lp_core, "solve", lambda p, *args, **kw: calls.append(p.ncols) or real(p, *args, **kw)
        )
        fam, problem = self.modk_problem(n, k)
        verdict = kellerer_check(fam, arithmetic=mode)
        assert not verdict.feasible and calls == [0]
        assert check_certificate(problem, farkas_ray(fam, verdict))

    def test_farkas_rounding_failure_raises(self, monkeypatch):
        refuse_tableau(monkeypatch)
        _, problem = self.modk_problem(4, 3)
        highs = lp_core._highs

        def negated_ray(model, obj):
            x, ray, value, basis = highs(model, obj)
            assert x is None and basis is None
            return x, [-v for v in ray], value, basis

        monkeypatch.setattr(lp_core, "_highs", negated_ray)
        with pytest.raises(lp_core.CertificationError, match="dual ray"):
            solve(problem, [0] * problem.ncols)

    def test_float_highs_failure_raises(self, monkeypatch):
        # A run that ends in neither optimal nor infeasible: HiGHS never
        # runs, and its model status stays kNotset.
        class Failed(_core._Highs):
            def run(self):
                return _core.HighsStatus.kError

        monkeypatch.setattr(_core, "_Highs", Failed)
        with pytest.raises(lp_core.LPError, match="kNotset"):
            solve(LPProblem([[0]], [2]), [1], arithmetic="float")

    def one_run_problems(self):
        """The full-grid LPs of the mod-k families (4,3), (5,2), (6,2), (6,3)
        and of the two-point family with ratio 5/2, all infeasible.
        kellerer_check poses the mod-k ones without columns: they have no
        supported cell.  HiGHS's ray of (6,3) has entries near 206 that
        round to a certificate only once the ray is scaled to largest
        entry 1."""
        modk = [(4, 3), (5, 2), (6, 2), (6, 3)]
        problems = [self.modk_problem(n, k)[1] for n, k in modk]
        two_point = marginal_constraint_rows(make_two_point_counterexample(Fraction(5, 2)))
        return problems + [LPProblem(*two_point)]

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_one_highs_run_per_infeasible_lp(self, monkeypatch, mode):
        # The Farkas ray comes from the run that finds the LP infeasible.
        monkeypatch.setattr(lp_core, "TABLEAU_ONLY_NONZEROS", 0)
        refuse_tableau(monkeypatch)
        calls = []
        highs = lp_core._highs
        monkeypatch.setattr(lp_core, "_highs", lambda *args: calls.append(1) or highs(*args))
        for problem in self.one_run_problems():
            calls.clear()
            sol = solve(problem, [0] * problem.ncols, arithmetic=mode)
            assert sol.status == "infeasible" and len(calls) == 1
            assert check_certificate(problem, sol.y)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_infeasible_run_without_a_ray_raises(self, monkeypatch, mode):
        monkeypatch.setattr(
            lp_core, "_highs", lambda model, objective: (None, None, None, None)
        )
        _, problem = self.modk_problem(4, 3)
        with pytest.raises(lp_core.LPError, match="no dual ray") as raised:
            solve(problem, [0] * problem.ncols, arithmetic=mode)
        assert (raised.type is lp_core.CertificationError) == (mode == "exact")


class TestMethodRoute:
    """_highs runs the interior-point method with crossover on a model of
    more than IPM_NONZEROS nonzeros with more than one nonzero objective
    entry, and the simplex on every other model and after an
    interior-point run that ends without an optimum.  The rule reads the
    model HiGHS is given, the quotient of a costed LP that has one.  Only
    an objective with at most one nonzero entry runs without presolve."""

    @staticmethod
    def xor_problem(n):
        inst = XorInstance(n)
        return LPProblem(*marginal_constraint_rows(inst.family())), list(inst.cost().values)

    @staticmethod
    def random_problem():
        """The full-grid LP of the (3,2) projections of a random measure on
        12^3, weights 1-999, and a random cost 0-20: 5,184 nonzeros, and
        every first-pass key of its columns differs."""
        rng = random.Random(3)
        grid = ProductGrid([12] * 3)
        raw = [rng.randint(1, 999) for _ in range(grid.ncells)]
        mu = DiscreteMeasure(grid, [Fraction(w, sum(raw)) for w in raw])
        fam = MarginalFamily(3, 2, [12] * 3, {a: project(mu, a) for a in all_index_sets(3, 2)})
        return LPProblem(*marginal_constraint_rows(fam)), [rng.randint(0, 20) for _ in raw]

    IPM = [("solver", "ipm"), ("run_crossover", "on")]

    def test_method_follows_nonzeros_and_objective(self, monkeypatch):
        # XorInstance(4)'s costed LP reaches HiGHS as its quotient, 2,176
        # nonzeros, so the simplex runs it; the random LP keeps its model.
        runs = record_runs(monkeypatch)
        big, big_cost = self.random_problem()
        problem, cost = self.xor_problem(4)
        small, small_cost = self.xor_problem(3)
        assert big.nonzeros() == 5_184 and problem.nonzeros() == 12_288
        assert small.nonzeros() == 1_536
        assert lp_core._quotient(big, big_cost, scaled(big_cost)) is None
        one_cell = [0] * problem.ncols
        one_cell[5] = 1
        for lp, objective, ipm in ((big, big_cost, True), (problem, cost, False),
                                   (problem, one_cell, False),
                                   (problem, [0] * problem.ncols, False),
                                   (small, small_cost, False)):
            runs.clear()
            assert solve(lp, objective).status == "optimal"
            [(options, ipm_iterations)] = runs
            assert (options[-2:] == self.IPM) == ipm == (ipm_iterations > 0)

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_ray_after_interior_point_comes_from_the_simplex(self, monkeypatch, mode):
        # An interior-point run that finds the LP infeasible has no dual
        # ray; the same solver then runs the simplex for it.
        monkeypatch.setattr(lp_core, "TABLEAU_ONLY_NONZEROS", 0)
        monkeypatch.setattr(lp_core, "IPM_NONZEROS", 0)
        runs = record_runs(monkeypatch)
        for n, k in [(5, 2), (6, 3)]:
            _, problem = TestFarkas.modk_problem(n, k)
            runs.clear()
            sol = solve(problem, [j % 7 + 1 for j in range(problem.ncols)], arithmetic=mode)
            assert sol.status == "infeasible" and check_certificate(problem, sol.y)
            [(first, _), (second, ipm_iterations)] = runs
            assert first[-2:] == self.IPM and second == first + [("solver", "simplex")]
            assert ipm_iterations == 0 and PRESOLVE_OFF not in second

    def test_presolve_off_for_zero_and_one_entry_objectives_only(self, monkeypatch):
        runs = record_runs(monkeypatch)
        big, big_cost = self.random_problem()
        problem, cost = self.xor_problem(4)
        small, small_cost = self.xor_problem(3)

        def one_cell(lp, j, value):
            objective = [0] * lp.ncols
            objective[j] = value
            return objective

        for lp, objective, costed in (
            (big, big_cost, True), (problem, cost, True), (small, small_cost, True),
            (problem, [0] * problem.ncols, False), (small, [0] * small.ncols, False),
            (problem, one_cell(problem, 5, 1), False), (small, one_cell(small, 7, -3), False),
        ):
            for mode in ("exact", "float"):
                runs.clear()
                assert solve(lp, objective, arithmetic=mode).status == "optimal"
                [(options, ipm_iterations)] = runs
                assert (PRESOLVE_OFF not in options) == costed
                assert (ipm_iterations > 0) == (costed and lp is big)
        monkeypatch.setattr(lp_core, "TABLEAU_ONLY_NONZEROS", 0)
        for lp in TestFarkas().one_run_problems():
            for mode in ("exact", "float"):
                runs.clear()
                sol = solve(lp, [0] * lp.ncols, arithmetic=mode)
                assert sol.status == "infeasible" and check_certificate(lp, sol.y)
                assert [PRESOLVE_OFF in options for options, _ in runs] == [True]

    def test_xor4_value_in_both_modes(self):
        inst = XorInstance(4)
        fam, cost = inst.family(), inst.cost()
        exact = verify_gap(fam, cost)
        assert exact.value == Fraction(1395, 4) and exact.gap == 0
        approx = verify_gap(fam, cost, arithmetic="float")
        assert abs(approx.value - 1395 / 4) <= 1e-9


class TestQuotient:
    """A costed LP is solved as the quotient of the coarsest equitable
    partition of its rows and columns, and the lifted answer is checked
    on the LP itself."""

    @staticmethod
    def handed(monkeypatch):
        """The (rows, columns) of every model _highs is handed from now on."""
        shapes, highs = [], lp_core._highs
        monkeypatch.setattr(
            lp_core, "_highs",
            lambda model, obj: shapes.append((model.num_row_, model.num_col_)) or highs(model, obj))
        return shapes

    @staticmethod
    def quotients(monkeypatch):
        """The (problem, objective, quotient) of every _quotient call from now on."""
        calls, quotient = [], lp_core._quotient
        monkeypatch.setattr(
            lp_core, "_quotient",
            lambda problem, obj, c: calls.append((problem, obj, quotient(problem, obj, c)))
            or calls[-1][2])
        return calls

    @pytest.mark.parametrize("n, shape", [(3, (36, 120)), (4, (136, 816))])
    def test_xor_solved_on_its_quotient(self, monkeypatch, n, shape):
        inst = XorInstance(n)
        fam, cost = inst.family(), inst.cost()
        shapes = self.handed(monkeypatch)
        found = self.quotients(monkeypatch)
        exact = verify_gap(fam, cost)
        assert exact.value == inst.coupling_value() and exact.gap == 0
        approx = verify_gap(fam, cost, "float")
        assert abs(approx.value - inst.coupling_value()) <= 1e-9
        assert shapes == [shape, shape]
        for problem, objective, quotient in found:
            assert_equitable(problem, objective, quotient)

    def test_random_families_end_after_the_first_pass(self, monkeypatch):
        # Projections of random measures (weights 0-9, about 30% of them 0)
        # with costs 0-20, as perfbench's exact-transport draws them: the
        # first pass finds every column apart, so there is no quotient.
        refuse_tableau(monkeypatch)
        shapes = self.handed(monkeypatch)
        found = self.quotients(monkeypatch)
        rng = random.Random(11)
        for n, k, sizes in [(3, 2, (4, 4, 4)), (4, 2, (3, 3, 3, 3)), (4, 3, (3, 3, 3, 3))]:
            grid = ProductGrid(sizes)
            raw = [0 if rng.random() < 0.3 else rng.randint(1, 9) for _ in range(grid.ncells)]
            mu = DiscreteMeasure(grid, [Fraction(w, sum(raw)) for w in raw])
            fam = MarginalFamily(n, k, sizes, {a: project(mu, a) for a in all_index_sets(n, k)})
            cost = CostGrid(grid, [rng.randint(0, 20) for _ in raw])
            shapes.clear()
            found.clear()
            assert verify_gap(fam, cost).gap == 0
            assert [quotient for *_, quotient in found] == [None]
            assert shapes == [(fam._lp[1].nrows, fam._lp[1].ncols)]

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_symmetric_infeasible_family_gets_a_lifted_ray(self, monkeypatch, mode):
        # The two-point family with ratio 5/2 under the cost i + j + k:
        # its 12 x 8 LP, 24 nonzeros, has a 3 x 4 quotient, and the
        # quotient's ray, lifted, certifies the LP itself.  HiGHS finds the
        # ray at threshold 0; at the default threshold exact mode takes the
        # tableau's phase-1 ray on the quotient, and float mode HiGHS's.
        fam = make_two_point_counterexample(Fraction(5, 2))
        problem = LPProblem(*marginal_constraint_rows(fam))
        cost = [sum(cell) for cell in fam.full_grid().cells()]
        shapes = self.handed(monkeypatch)
        tableaus, tableau = [], lp_core._ExactTableau.__init__
        monkeypatch.setattr(
            lp_core._ExactTableau, "__init__",
            lambda self, lp, obj: tableaus.append((lp.nrows, lp.ncols)) or tableau(self, lp, obj))
        for threshold in (0, DEFAULT_THRESHOLD):
            monkeypatch.setattr(lp_core, "TABLEAU_ONLY_NONZEROS", threshold)
            sol = solve(problem, cost, mode)
            assert sol.status == "infeasible" and check_certificate(problem, sol.y)
        assert (problem.nrows, problem.ncols, shapes + tableaus) == (12, 8, [(3, 4)] * 2)
        assert len(tableaus) == (mode == "exact")

    def test_rebuilt_on_the_quotient_basis(self, monkeypatch):
        # build_discontinuous(6) with both rounded candidates of x and y
        # failing: x and y are rebuilt on the basis of the 51 x 105
        # quotient, whose coefficients are integers, 21 of them 2.
        fam, cost = build_discontinuous(6)[:2]
        problem = LPProblem(*marginal_constraint_rows(fam))
        quotient = lp_core._quotient(problem, cost.values, scaled(cost.values))
        coefficients = [a for column in quotient.lp.columns
                        for a in collections.Counter(column).values()]
        assert sorted(coefficients)[-22:] == [1] + [2] * 21
        assert_equitable(problem, cost.values, quotient)
        highs = lp_core._highs

        def shifted(model, obj):
            x, y, value, basis = highs(model, obj)
            return [v + 0.25 if v > 1e-9 else v for v in x], y, value, basis

        monkeypatch.setattr(lp_core, "_highs", shifted)
        monkeypatch.setattr(lp_core, "_rounded", lambda v: Fraction(10**9))
        rebuilt = record_rebuilds(monkeypatch)
        report = verify_gap(fam, cost)
        assert report.gap == 0 and report.value == Fraction(1, 6)
        assert len(rebuilt) == 2 and None not in rebuilt

    def test_hadamard_bound_takes_the_coefficients(self):
        # Two copies of one column: the quotient is 2 X = 1, and its basis
        # M = (2) has det 2.  Hadamard's bound is the 2-norm 2, rounded up
        # past it to 3; the square root of the column's length would give
        # sqrt(2), rounded up to 2, which is not above det M.
        problem = LPProblem([[0], [0]], [1])
        quotient = lp_core._quotient(problem, (1, 1), scaled([1, 1]))
        assert quotient.lp.columns == ((0, 0),) and quotient.objective == [2]
        highs = lp_core._highs(quotient.lp.highs_model, quotient.objective)[3]
        assert lp_core._basis_factor(quotient.lp, highs)[3] == 3

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_duplicated_columns_agree_with_the_tableau(self, data):
        # Each column twice at the same cost, so a costed objective has a
        # quotient; empty rows and columns, unbounded and infeasible LPs
        # included.  The quotient, on the tableau and on HiGHS, must give
        # the status and value of the tableau on the full LP, or raise
        # LPError where it does.
        n = data.draw(st.integers(1, 4))
        m = data.draw(st.integers(1, 3))
        frac = st.fractions(min_value=-3, max_value=3, max_denominator=6)
        base = [[i for i in range(m) if data.draw(st.booleans())] for _ in range(n)]
        costs = [data.draw(frac) for _ in range(n)]
        if data.draw(st.booleans()):
            x = [data.draw(st.fractions(min_value=0, max_value=3, max_denominator=6))
                 for _ in range(n)]
            rhs = [sum(xj for xj, column in zip(x, base) if i in column) for i in range(m)]
        else:
            rhs = [data.draw(frac) for _ in range(m)]
        problem = LPProblem(base * 2, rhs)
        objective = costs * 2
        results = []
        for threshold, reduce in ((10**9, False), (DEFAULT_THRESHOLD, True), (0, True)):
            with mock.patch.object(lp_core, "TABLEAU_ONLY_NONZEROS", threshold), \
                    mock.patch.object(lp_core, "_quotient",
                                      lp_core._quotient if reduce else lambda *args: None):
                try:
                    results.append(solve(problem, objective))
                except lp_core.CertificationError:
                    raise
                except lp_core.LPError:
                    results.append(None)
        oracle, *lifted = results
        if oracle is None:
            assert lifted == [None, None]
            return
        for sol in lifted:
            assert (sol.status, sol.value) == (oracle.status, oracle.value)
            if sol.status == "infeasible":
                assert check_certificate(problem, sol.y)
        if any(costs):
            quotient = lp_core._quotient(problem, objective, scaled(objective))
            assert quotient.lp.ncols <= n
            assert_equitable(problem, objective, quotient)


def test_highs_binding_has_what_lp_core_uses(monkeypatch):
    # lp_core runs HiGHS through scipy's private binding
    # scipy.optimize._highspy._core (scipy >= 1.15).  Building the model
    # sets every HighsLp field it uses; an optimal and an infeasible run
    # read every result it reads, getDualRay's three values and the basic
    # variables and basis solves of the rebuild included, and an
    # interior-point run with crossover leaves a basis to read.
    for method in (
        "setOptionValue", "passModel", "changeColsCost", "getNumNz", "run",
        "getModelStatus", "getSolution", "getInfo", "getDualRay", "getBasicVariables",
        "getBasisSolve", "getBasisTransposeSolve",
    ):
        assert callable(getattr(_core._Highs, method))
    assert isinstance(_core.MatrixFormat.kColwise, _core.MatrixFormat)
    assert {"kOptimal", "kInfeasible"} <= set(_core.HighsModelStatus.__members__)
    assert isinstance(_core.HighsStatus.kOk, _core.HighsStatus)
    problem = LPProblem([[0], [0]], [2])
    model = problem.highs_model
    assert isinstance(model, _core.HighsLp)
    matrix = model.a_matrix_
    assert (list(matrix.start_), list(matrix.index_), list(matrix.value_)) == (
        [0, 1, 2], [0, 0], [1.0, 1.0])
    x, y, value, highs = lp_core._highs(model, [1, 2])
    assert (list(x), list(y), value) == ([2.0, 0.0], [1.0], 2.0)
    assert isinstance(highs, _core._Highs)
    status, basic = highs.getBasicVariables()
    assert status == _core.HighsStatus.kOk and basic.tolist() == [0]
    for solve in (highs.getBasisSolve, highs.getBasisTransposeSolve):
        status, u = solve([3.0])
        assert status == _core.HighsStatus.kOk and u.tolist() == [3.0]
    infeasible = LPProblem([[0, 1]], [1, 2]).highs_model
    x, ray, value, highs = lp_core._highs(infeasible, [1])
    assert x is None and value is None and highs is None and len(ray) == 2
    for option, setting in (("solver", "ipm"), ("run_crossover", "on"), ("solver", "simplex")):
        assert _core._Highs().setOptionValue(option, setting) == _core.HighsStatus.kOk
    monkeypatch.setattr(lp_core, "IPM_NONZEROS", 0)
    problem, cost = TestMethodRoute.xor_problem(2)
    x, y, value, highs = lp_core._highs(problem.highs_model, cost)
    assert highs.getInfo().ipm_iteration_count > 0 and value == pytest.approx(9 / 4)
    status, basic = highs.getBasicVariables()
    assert status == _core.HighsStatus.kOk and len(basic) == problem.nrows


def run_python(code):
    """The stdout of a fresh interpreter that runs code, mmk importable."""
    src = os.path.dirname(os.path.dirname(lp_core.__file__))
    return subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, check=True, timeout=120,
    ).stdout


def test_highs_runs_import_neither_scipy_optimize_nor_scipy_sparse():
    # lp_core loads the HiGHS binding by itself.  The 6x6 transport of
    # test_denominators_beyond_63_bits_certified reaches the rebuild in
    # exact mode and is solved in float mode too.
    code = """
import random, sys
from fractions import Fraction
from mmk import lp_core

rng = random.Random(5)
q = 3**41
rows = [Fraction(rng.randint(1, q), q) for _ in range(5)]
rows.append(6 - sum(rows))
problem = lp_core.LPProblem([[i, 6 + j] for i in range(6) for j in range(6)], rows + [1] * 6)
costs = [rng.randint(0, 9) for _ in range(problem.ncols)]
refined, refine = [], lp_core._refine
lp_core._refine = lambda *args, **kw: refined.append(1) or refine(*args, **kw)
assert max(v.denominator for v in lp_core.solve(problem, costs).x) == q and refined
assert lp_core.solve(problem, costs, "float").status == "optimal"
print(sorted(m for m in ("scipy.optimize", "scipy.sparse") if m in sys.modules))
"""
    assert run_python(code).strip() == "[]"


@pytest.mark.parametrize("binding_first", [True, False], ids=["binding-first", "scipy-first"])
def test_binding_shared_with_scipy_optimize(binding_first):
    # Loaded before or after scipy.optimize, the binding is one module, the
    # attribute of its package too, and linprog still solves.
    code = f"""
import sys
from mmk import lp_core
if {binding_first}:
    core = lp_core._core()
    from scipy.optimize import linprog
else:
    from scipy.optimize import linprog
    core = lp_core._core()
import scipy.optimize._highspy as pkg
from scipy.optimize._highspy import _core
assert pkg._core is _core is core is lp_core._core() is sys.modules["scipy.optimize._highspy._core"]
result = linprog([1, 2], A_eq=[[1, 1]], b_eq=[1], method="highs")
print(result.status, result.x.tolist())
"""
    assert run_python(code).strip() == "0 [1.0, 0.0]"


class TestFloat:
    def test_optimal(self):
        sol = solve(LPProblem([[0]], [2]), [1], arithmetic="float")
        assert sol.status == "optimal"
        assert abs(sol.value - 2) < 1e-9

    def test_infeasible_certificate(self):
        problem = LPProblem([[0, 1], []], [1, 2])
        sol = solve(problem, [1, 1], arithmetic="float")
        assert sol.status == "infeasible"
        assert check_certificate(problem, sol.y)

    def test_empty_model_answered_as_in_exact_mode(self):
        # HiGHS rejects a model without columns; solve answers it itself.
        problem = LPProblem([], [1])
        sol = solve(problem, [], arithmetic="float")
        assert sol.status == "infeasible"
        assert check_certificate(problem, sol.y)
        assert solve(LPProblem([], [0]), [], arithmetic="float").value == 0

    def test_dual_value_matches(self):
        problem = LPProblem([[0, 2], [0, 3], [1, 2], [1, 3]], [Fraction(1, 2)] * 4)
        sol = solve(problem, [0, 3, 3, 0], arithmetic="float")
        dual = sum(y * float(b) for y, b in zip(sol.y, problem.rhs))
        assert abs(sol.value - dual) < 1e-9

    def test_negative_x_raises(self, monkeypatch):
        res = ([-1e-8, 1.0], [1.0], 1.0, None)
        monkeypatch.setattr(lp_core, "_highs", lambda model, objective: res)
        with pytest.raises(lp_core.LPError):
            solve(LPProblem([[0], [0]], [1]), [0, 1], arithmetic="float")

    def test_unknown_mode(self):
        with pytest.raises(Exception):
            solve(LPProblem([[0]], [1]), [1], arithmetic="interval")


class TestCertificateChecker:
    def test_rejects_wrong_length(self):
        problem = LPProblem([[0]], [1])
        assert not check_certificate(problem, [1, 1])

    def test_rejects_column_above_zero_by_tiny_amount(self):
        problem = LPProblem([[0, 1], []], [1, 2])
        assert check_certificate(problem, [-1, 1])
        tiny = Fraction(1, 10**12)
        assert not check_certificate(problem, [-1 + tiny, 1])

    def test_rejects_non_negative_yb(self):
        problem = LPProblem([(0,)], [1])
        assert not check_certificate(problem, [-1])
