"""Exact and float LP solving: optima, duals, certificates, caps."""

from fractions import Fraction
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmk import lp_core
from mmk.feasibility import (
    kellerer_check,
    make_modk_counterexample,
    marginal_constraint_rows,
)
from mmk.lp_core import LPProblem, SizeCapError, check_certificate, solve


class TestExact:
    def test_simple_min(self):
        sol = solve(LPProblem([1], [{0: 1}], [2]))
        assert sol.status == "optimal" and sol.value == 2

    def test_max_sense(self):
        sol = solve(LPProblem([1, 2], [[1, 1]], [3], sense="max"))
        assert sol.value == 6
        assert sol.y[0] == 2  # marginal value of the resource

    def test_infeasible_with_certificate(self):
        problem = LPProblem([1, 1], [{0: 1}, {0: 1}], [1, 2])
        sol = solve(problem)
        assert sol.status == "infeasible"
        assert check_certificate(problem, sol.certificate)

    def test_unbounded(self):
        sol = solve(LPProblem([-1, 0], [[1, -1]], [0]))
        assert sol.status == "unbounded"
        assert sol.ray is not None

    def test_negative_rhs_handled(self):
        sol = solve(LPProblem([1, 1], [[-1, 0]], [-2]))
        assert sol.status == "optimal" and sol.value == 2

    def test_redundant_rows_dropped(self):
        sol = solve(LPProblem([1], [{0: 1}, {0: 2}], [3, 6]))
        assert sol.status == "optimal" and sol.value == 3

    def test_transport_duality(self):
        # 2x2 balanced transport: value and dual value agree exactly.
        problem = LPProblem(
            [0, 3, 3, 0],
            [{0: 1, 1: 1}, {2: 1, 3: 1}, {0: 1, 2: 1}, {1: 1, 3: 1}],
            [Fraction(1, 2)] * 4,
        )
        sol = solve(problem)
        assert sol.value == 0
        assert sum(y * b for y, b in zip(sol.y, problem.rhs)) == 0

    def test_size_cap(self):
        n = 300
        rows = [{j: 1 for j in range(n)} for _ in range(n)]
        problem = LPProblem([1] * n, rows, [1] * n)
        with pytest.raises(SizeCapError):
            solve(problem)

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
        rows = [
            {j: data.draw(frac) for j in range(n)} for _ in range(m)
        ]
        rhs = [
            sum(row.get(j, 0) * x_feas[j] for j in range(n)) for row in rows
        ]
        problem = LPProblem(obj, rows, rhs)
        sol = solve(problem)
        # These LPs are small enough to go straight to the tableau; solve
        # again with HiGHS and the certifier, which must agree.
        with mock.patch.object(lp_core, "TABLEAU_ONLY_NONZEROS", 0):
            certified = solve(problem)
        assert (certified.status, certified.value) == (sol.status, sol.value)
        for result in (sol, certified):
            # The problem is feasible by construction; if bounded, the gap is 0.
            assert result.status in ("optimal", "unbounded")
            if result.status == "optimal":
                dual = sum(y * b for y, b in zip(result.y, rhs))
                assert result.value == dual
                assert all(v >= 0 for v in result.x)
                for row, b in zip(rows, rhs):
                    assert sum(row[j] * result.x[j] for j in row) == b


class TestCertifier:
    @pytest.fixture(autouse=True)
    def through_highs(self, monkeypatch):
        monkeypatch.setattr(lp_core, "TABLEAU_ONLY_NONZEROS", 0)

    # 2x2 balanced transport: the optimum 0 puts mass on the diagonal.
    PROBLEM = LPProblem(
        [0, 3, 3, 0],
        [{0: 1, 1: 1}, {2: 1, 3: 1}, {0: 1, 2: 1}, {1: 1, 3: 1}],
        [Fraction(1, 2)] * 4,
    )
    # The anti-diagonal vertex is feasible but costs 3; y = (3, 3, 0, 0)
    # prices its support at zero reduced cost.
    WRONG = ([0.0, 0.5, 0.5, 0.0], [3.0, 3.0, 0.0, 0.0])

    def test_accepts_optimal_vertex(self):
        p = self.PROBLEM
        x, y = lp_core._certify(p, p.objective, [0.5, 0.0, 0.0, 0.5], [0.0] * 4)
        assert x == [Fraction(1, 2), 0, 0, Fraction(1, 2)]
        assert sum(yi * b for yi, b in zip(y, p.rhs)) == 0

    def test_rejects_feasible_non_optimal_vertex(self, monkeypatch):
        p = self.PROBLEM
        assert lp_core._certify(p, p.objective, *self.WRONG) is None
        monkeypatch.setattr(lp_core, "_highs_vertex", lambda problem, obj: self.WRONG)
        sol = solve(p)
        assert sol.status == "optimal" and sol.value == 0
        assert sol.x == [Fraction(1, 2), 0, 0, Fraction(1, 2)]

    def test_rejects_infeasible_support(self):
        p = self.PROBLEM
        assert lp_core._certify(p, p.objective, [1.0, 0.0, 0.0, 0.0], [0.0] * 4) is None

    def test_bad_farkas_certificate_raises(self, monkeypatch):
        problem = LPProblem([1, 1], [{0: 1}, {0: 1}], [1, 2])
        monkeypatch.setattr(lp_core, "_farkas", lambda problem, exact: None)
        monkeypatch.setattr(lp_core._ExactTableau, "farkas", lambda self: [1, 1])
        with pytest.raises(lp_core.CertificationError):
            solve(problem)

    def test_entry_too_large_for_float_goes_to_tableau(self):
        sol = solve(LPProblem([10**400, 0], [{0: 1, 1: 1}], [1]))
        assert sol.status == "optimal" and sol.value == 0

    def test_empty_model_goes_to_tableau(self):
        sol = solve(LPProblem([], [{}], [1]))
        assert sol.status == "infeasible"
        assert check_certificate(LPProblem([], [{}], [1]), sol.certificate)
        assert solve(LPProblem([1, 0], [], [])).value == 0


class TestFarkas:
    MODK = [(4, 3), (5, 2), (5, 3), (6, 2), (6, 3), (7, 2)]

    @staticmethod
    def modk_problem(n, k):
        fam = make_modk_counterexample(n, k)
        rows, rhs, _ = marginal_constraint_rows(fam)
        return fam, LPProblem([0] * fam.full_grid().ncells, rows, rhs)

    @pytest.mark.parametrize("n,k", MODK)
    def test_modk_certified_without_tableau(self, monkeypatch, n, k):
        def no_tableau(self, *args):
            raise AssertionError("the exact tableau was built")

        monkeypatch.setattr(lp_core._ExactTableau, "__init__", no_tableau)
        fam, problem = self.modk_problem(n, k)
        verdict = kellerer_check(fam)
        assert not verdict.feasible
        assert check_certificate(problem, verdict.lp_certificate)

    def test_tableau_when_rounding_fails(self, monkeypatch):
        tried = []  # append returns None: no certificate from HiGHS
        monkeypatch.setattr(lp_core, "_farkas", lambda p, exact: tried.append(exact))
        built = []
        init = lp_core._ExactTableau.__init__

        def counting(self, *args):
            built.append(1)
            init(self, *args)

        monkeypatch.setattr(lp_core._ExactTableau, "__init__", counting)
        _, problem = self.modk_problem(4, 3)
        sol = solve(problem)
        assert sol.status == "infeasible" and tried == [True] and built
        assert check_certificate(problem, sol.certificate)

    def test_float_highs_failure_raises(self, monkeypatch):
        failed = SimpleNamespace(status=4, message="numerical difficulties")
        monkeypatch.setattr(lp_core, "_highs", lambda rows, rhs, objective: failed)
        with pytest.raises(lp_core.LPError):
            solve(LPProblem([1], [{0: 1}], [2]), arithmetic="float")


class TestFloat:
    def test_optimal(self):
        sol = solve(LPProblem([1], [{0: 1}], [2]), arithmetic="float")
        assert sol.status == "optimal"
        assert abs(sol.value - 2) < 1e-9

    def test_infeasible_certificate(self):
        problem = LPProblem([1, 1], [{0: 1}, {0: 1}], [1, 2])
        sol = solve(problem, arithmetic="float")
        assert sol.status == "infeasible"
        assert check_certificate(problem, sol.certificate, tol=Fraction(1, 10**6))

    def test_dual_value_matches(self):
        problem = LPProblem(
            [0, 3, 3, 0],
            [{0: 1, 1: 1}, {2: 1, 3: 1}, {0: 1, 2: 1}, {1: 1, 3: 1}],
            [Fraction(1, 2)] * 4,
        )
        sol = solve(problem, arithmetic="float")
        dual = sum(y * float(b) for y, b in zip(sol.y, problem.rhs))
        assert abs(sol.value - dual) < 1e-9

    def test_unknown_mode(self):
        with pytest.raises(Exception):
            solve(LPProblem([1], [{0: 1}], [1]), arithmetic="interval")


class TestCertificateChecker:
    def test_rejects_wrong_length(self):
        problem = LPProblem([1], [{0: 1}], [1])
        assert not check_certificate(problem, lp_core.Certificate([1, 1]))

    def test_rejects_non_negative_yb(self):
        problem = LPProblem([1], [{0: -1}], [1])
        assert not check_certificate(problem, lp_core.Certificate([-1]))
