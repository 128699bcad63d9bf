"""Desk-scale builders: truncated N^3 instances, fractional couplings,
the composite near-optimal coupling, polynomial duals, and the rigid
2x2x2 family."""

import math
from fractions import Fraction

import pytest

from mmk import case_studies as cs
from mmk import feasibility as fb
from mmk import lp_core, xor_model
from mmk.measures import (
    DiscreteMeasure,
    DomainError,
    IndexSet,
    SignedDiscreteMeasure,
    all_index_sets,
    integral,
    is_consistent,
    project,
    uniform,
    uniform_family,
)
from mmk.transport import check_dual_feasible, solve_primal


class TestPiBracket:
    def test_brackets_pi_squared(self):
        assert float(cs.PI_SQUARED_LOW) < math.pi**2 < float(cs.PI_SQUARED_HIGH)
        assert cs.PI_SQUARED_HIGH - cs.PI_SQUARED_LOW == Fraction(1, 10000)


class TestUnreachable:
    def test_alpha0_value(self):
        a0 = cs.unreachable_alpha0()
        assert a0 == Fraction(2400, 35299)
        assert 0 < a0 < 1

    def test_build_shapes_and_mass(self):
        fam, cost, a0 = cs.build_unreachable(6)
        assert fam.full_grid().sizes == (6, 6, 6)
        assert all(fam[a].mass == 1 for a in fam.index_sets())
        assert is_consistent(fam)
        assert sum(1 for v in cost.values if v == 1) == 3 * 5
        assert set(cost.values) == {Fraction(0), Fraction(1)}

    def test_gamma_bound_signs(self):
        a0 = cs.unreachable_alpha0()
        for m in (1, 2, 3, 5):
            assert cs.unreachable_gamma_bound(m, a0) > 0
        # The mixing weight is tuned to make the bound tight exactly at
        # the maximizing index m = 4.
        assert cs.unreachable_gamma_bound(4, a0) == 0

    def test_mass_extremes_bound_every_uniting_measure(self):
        fam, cost, a0 = cs.build_unreachable(6)
        # On each A_1 point the LP minimum must clear the closed-form bound.
        bound = cs.unreachable_gamma_bound(1, a0)
        for pt in cs._a_points(1):
            cell = tuple(c - 1 for c in pt)
            lo = cs.min_mass_at_cell(fam, cell, arithmetic="float")
            assert lo >= float(bound) - 1e-8

    def test_float_x_within_highs_tolerance_is_zero(self):
        # HiGHS's vertex of this min-mass LP has an entry of about -8.2e-11,
        # inside its 1e-10 feasibility tolerance: it counts as 0.
        fam, _, _ = cs.build_unreachable(16)
        assert cs.min_mass_at_cell(fam, (1, 0, 0), "float") >= 0

    def test_min_le_max(self):
        fam, _, _ = cs.build_unreachable(6)
        cell = (0, 0, 0)
        lo = cs.min_mass_at_cell(fam, cell)
        hi = cs.max_mass_at_cell(fam, cell)
        assert 0 <= lo <= hi

    def test_dual_growth_diagnostic(self):
        sums = cs.diagnose_dual_growth(6)
        assert len(sums) == 6
        assert all(s >= 0 for s in sums)
        g6 = cs.weighted_diagonal_growth(sums)
        g8 = cs.weighted_diagonal_growth(cs.diagnose_dual_growth(8))
        assert g8 > g6 > 0

    def test_dual_growth_does_not_follow_presolve(self, monkeypatch):
        # HiGHS solves the quotient LP, so the dual is constant on the
        # classes of the equitable partition, and its weighted totals are
        # the least growth over all optimal duals.  HiGHS's dual of the
        # full LP gave 4.999 and 5.606, and 10.685 and 7.693 without
        # presolve.
        def totals():
            return [cs.weighted_diagonal_growth(cs.diagnose_dual_growth(N)) for N in (8, 10)]

        default = totals()
        assert default == pytest.approx([3.571, 4.138], abs=5e-4)
        core = lp_core._core()

        class NoPresolve(core._Highs):
            def run(self):
                self.setOptionValue("presolve", "off")
                return super().run()

        monkeypatch.setattr(core, "_Highs", NoPresolve)
        assert totals() == pytest.approx(default, rel=0, abs=1e-9)

    @pytest.mark.xfail(strict=True, raises=lp_core.CertificationError,
                       reason="exact mode rejects every candidate x at N = 18")
    def test_exact_min_mass_at_n18_matches_float(self):
        # The smallest marginal weight at N = 18 is 1.0e-12, below
        # TIGHT_TOLERANCE, and at the first A_1 point HiGHS's vertex, its
        # rounding and the basis rebuild all fail A x = b, x >= 0.
        fam, _, a0 = cs.build_unreachable(18)
        cell = (1, 0, 0)
        approx = cs.min_mass_at_cell(fam, cell, "float")
        assert approx >= cs.unreachable_gamma_bound(1, a0)
        assert abs(cs.min_mass_at_cell(fam, cell) - approx) <= 1e-9

    def test_domain(self):
        with pytest.raises(DomainError):
            cs.build_unreachable(4)


class TestNonstrong:
    def test_uncharged_cell_decided_without_a_solve(self):
        # The coordinates of an A_n or B_n point differ by at most 1, so
        # the 1-2 marginal vanishes at (5, 0): no uniting measure charges
        # cell (5, 0, 0).  The LP still runs: only it knows whether the
        # family has a uniting measure at all.
        fam, _ = cs.build_nonstrong(6)
        for mode in ("exact", "float"):
            assert cs.min_mass_at_cell(fam, (5, 0, 0), mode) == 0
            assert cs.max_mass_at_cell(fam, (5, 0, 0), mode) == 0

    def test_unique_uniting_on_support(self):
        fam, cost = cs.build_nonstrong(6)
        grid = fam.full_grid()
        support = [
            tuple(c - 1 for c in pt)
            for n in range(1, 6)
            for pt in cs._a_points(n) + cs._b_points(n)
        ]
        values = cs.verify_unique_uniting(fam, support)
        assert values is not None
        assert all(v > 0 for v in values.values())

    def test_unique_measure_is_primal_optimum(self):
        fam, cost = cs.build_nonstrong(6)
        pi, value = solve_primal(fam, cost)
        # Value is the cost mass of the unique uniting measure: the total
        # weight on the B_n points.
        expected = sum(
            w for w, c in zip(pi.weights, cost.values) if c == 1
        )
        assert value == expected > 0


def test_mass_extremes_raise_on_a_family_without_uniting_measure():
    # Some marginal vanishes on every cell of the mod-2 family on
    # {0,1}^3, and no measure unites it: 0 is not its extreme anywhere.
    fam = fb.make_modk_counterexample(3, 2)
    cells = list(fam.full_grid().cells())
    for cell in cells:
        for extreme in (cs.min_mass_at_cell, cs.max_mass_at_cell):
            for mode in ("exact", "float"):
                with pytest.raises(DomainError, match="infeasible"):
                    extreme(fam, cell, mode)
    with pytest.raises(DomainError, match="infeasible"):
        cs.verify_unique_uniting(fam, cells)


def nonstrong_mass(N):
    """{cell: mass} of build_nonstrong(N)'s one uniting measure: each
    point of A_n and B_n, n < N, weighs 1/n^2 over the total."""
    total = sum(Fraction(6, n * n) for n in range(1, N))
    return {
        tuple(c - 1 for c in pt): Fraction(1, n * n) / total
        for n in range(1, N)
        for pt in cs._a_points(n) + cs._b_points(n)
    }


def one_cell_extreme(fam, cell, sign):
    """The oracle: sign * the exact min of sign * pi(cell), one one-cell
    marginal_lp, whether or not the family is certified."""
    objective = [0] * fam.full_grid().ncells
    objective[fam.full_grid().ravel(cell)] = sign
    return sign * fb.marginal_lp(fam, objective, "exact").value


def refuse_lps(monkeypatch):
    """From now on, any LP solve or marginal_lp call fails the test."""
    def refuse(*args, **kw):
        raise AssertionError("an LP was posed")

    for module, name in ((lp_core, "solve"), (fb, "marginal_lp"), (cs, "marginal_lp")):
        monkeypatch.setattr(module, name, refuse)


def record_marginal_lps(monkeypatch):
    """The list of (objective, value) of every marginal_lp call from now
    on, either module's name for it."""
    calls, marginal_lp = [], fb.marginal_lp

    def recording(fam, objective, arithmetic):
        sol = marginal_lp(fam, objective, arithmetic)
        calls.append((objective, sol.value))
        return sol

    monkeypatch.setattr(fb, "marginal_lp", recording)
    monkeypatch.setattr(cs, "marginal_lp", recording)
    return calls


class TestUniqueUniting:
    """feasibility.unique_uniting: one feasible point, one rank modulo
    2^61 - 1 and, if needed, one off-support LP certify the uniting
    polytope a point, and the exact mass extremes read it."""

    @pytest.mark.parametrize("N", [6, 8, 10, 14])
    def test_nonstrong_extremes_read_the_certificate(self, N, monkeypatch):
        fam, _ = cs.build_nonstrong(N)
        mass = nonstrong_mass(N)
        for cell, m in mass.items():
            assert one_cell_extreme(fam, cell, 1) == one_cell_extreme(fam, cell, -1) == m
        assert cs.min_mass_at_cell(fam, (0, 0, 1)) == mass[0, 0, 1]
        refuse_lps(monkeypatch)
        for cell in fam.full_grid().cells():
            want = mass.get(cell, 0)
            assert cs.min_mass_at_cell(fam, cell) == cs.max_mass_at_cell(fam, cell) == want
        assert cs.verify_unique_uniting(fam, list(mass)) == mass

    def test_nonuniform_222_certified_by_the_off_support_lp(self, monkeypatch):
        fam = cs.build_nonuniform_2x2x2()
        calls = record_marginal_lps(monkeypatch)
        mu = fb.unique_uniting(fam)
        diagonal = {(0, 0, 0), (1, 1, 1)}
        grid = fam.full_grid()
        assert len(fam._lp[0]) == 8
        assert [c for c in grid.cells() if mu.weight(c)] == [c for c in grid.cells() if c not in diagonal]
        assert all(mu.weight(c) == (0 if c in diagonal else Fraction(1, 6)) for c in grid.cells())
        # T has 6 of the 8 supported cells: the off-support LP charges -1
        # on the other two, and its value 0 completes the certificate.
        (zero, _), (off_support, value) = calls
        assert zero is None and value == 0
        assert [grid.unravel(j) for j, c in enumerate(off_support) if c] == sorted(diagonal)
        assert set(off_support) == {0, -1}

    def test_uniform_32_not_certified(self, monkeypatch):
        # Uniform pairwise marginals on 3^3: every cell's mass ranges over
        # [0, 1/9], and a uniting measure puts 2/3 off the vertex's support.
        fam = uniform_family([3, 3, 3], 2)
        calls = record_marginal_lps(monkeypatch)
        assert fb.unique_uniting(fam) is None
        assert calls[1][1] == Fraction(-2, 3) and len(calls) == 2
        cells = list(fam.full_grid().cells())
        for cell in cells:
            assert cs.min_mass_at_cell(fam, cell) == 0
            assert cs.max_mass_at_cell(fam, cell) == Fraction(1, 9)
        assert cs.verify_unique_uniting(fam, cells) is None
        assert len(calls) == 2 + 2 * len(cells) + 2  # the loop stops at its first cell

    def test_low_rank_falls_back_to_one_lp_per_cell(self, monkeypatch):
        fam, _ = cs.build_nonstrong(6)
        monkeypatch.setattr(fb, "_rank_mod_p", lambda columns: len(list(columns)) - 1)
        calls = record_marginal_lps(monkeypatch)
        assert fb.unique_uniting(fam) is None and len(calls) == 1
        mass = nonstrong_mass(6)
        for cell, m in mass.items():
            assert cs.min_mass_at_cell(fam, cell) == cs.max_mass_at_cell(fam, cell) == m
        assert len(calls) == 1 + 2 * len(mass)

    def test_uncertified_point_falls_back_to_one_lp_per_cell(self, monkeypatch):
        fam, _ = cs.build_nonstrong(6)
        marginal_lp = fb.marginal_lp

        def failing_zero_objective(fam, objective, arithmetic):
            if objective is None:
                raise lp_core.CertificationError("x fails A x = b, x >= 0")
            return marginal_lp(fam, objective, arithmetic)

        monkeypatch.setattr(fb, "marginal_lp", failing_zero_objective)
        assert fb.unique_uniting(fam) is None
        calls = record_marginal_lps(monkeypatch)
        mass = nonstrong_mass(6)
        for cell, m in mass.items():
            assert cs.min_mass_at_cell(fam, cell) == cs.max_mass_at_cell(fam, cell) == m
        assert len(calls) == 2 * len(mass)

    def test_infeasible_family_raises_and_keeps_nothing(self):
        fam = fb.make_two_point_counterexample(Fraction(5, 2))
        for extreme in (cs.min_mass_at_cell, cs.max_mass_at_cell):
            with pytest.raises(DomainError, match="family is infeasible"):
                extreme(fam, (0, 0, 0))
        with pytest.raises(DomainError, match="family is infeasible"):
            fb.unique_uniting(fam)
        assert fam._unique is None

    def test_float_mode_builds_no_certificate(self):
        fam, _ = cs.build_nonstrong(6)
        mass = nonstrong_mass(6)
        cell = next(iter(mass))
        assert abs(cs.min_mass_at_cell(fam, cell, "float") - mass[cell]) < 1e-12
        assert abs(cs.max_mass_at_cell(fam, cell, "float") - mass[cell]) < 1e-12
        cs.verify_unique_uniting(fam, list(mass), "float")  # float min and max may differ
        assert fam._unique is None

    def test_rank_mod_p(self):
        # {0,1}, {1,2}, {0,2} have determinant 2; adding {0,1,2} makes the
        # four columns dependent, and so are the four edges of a 4-cycle.
        assert fb._rank_mod_p([[0, 1], [1, 2], [0, 2]]) == 3
        assert fb._rank_mod_p([[0, 1], [1, 2], [0, 2], [0, 1, 2]]) == 3
        assert fb._rank_mod_p([[0, 1], [2, 3], [0, 2], [1, 3]]) == 3
        assert fb._rank_mod_p([]) == 0


class TestDiscontinuous:
    def test_closed_form_dual_is_feasible_and_worth_one_sixth(self):
        fam, cost, dual = cs.build_discontinuous(12)
        pot = dual.potentials(12)
        assert check_dual_feasible(pot, cost) <= 0
        assert integral(fam, pot) == Fraction(1, 6)

    def test_potentials_sample_each_pair_function(self):
        class Tilted(cs.PiecewiseDual32):
            __slots__ = ()

            def f12(self, x1, x2):
                return x1 - 2 * x2

        pot, N = Tilted().potentials(6), 6
        centers = [Fraction(2 * i + 1, 2 * N) for i in range(N)]
        for alpha, f in zip(all_index_sets(3, 2), (Tilted().f12, Tilted().f13, Tilted().f23)):
            assert pot[alpha] == tuple(f(x, y) for x in centers for y in centers)

    def test_F_jumps_at_threshold(self):
        dual = cs.PiecewiseDual32()
        x = Fraction(1)
        below = dual.F(x, x, Fraction(2, 3) - Fraction(1, 1000))
        at = dual.F(x, x, Fraction(2, 3))
        assert at - below > Fraction(1, 2)

    def test_domain(self):
        with pytest.raises(DomainError):
            cs.build_discontinuous(8)


class TestCouplings:
    def test_cyclic_support_and_mass(self):
        # frac_coupling(1, 1, 1, N) is the cyclic coupling i + j + k = 0 (mod N).
        mu = cs.frac_coupling(1, 1, 1, 5)
        assert mu.mass == 1
        assert sum(1 for w in mu.weights if w > 0) == 25
        grid = mu.grid
        for j, w in enumerate(mu.weights):
            i, jj, k = grid.unravel(j)
            assert (w > 0) == ((i + jj + k) % 5 == 0)

    def test_frac_support_meets_level_surface(self):
        # Every charged cell's box must straddle an integer level of
        # a1 x1 + a2 x2 + a3 x3.
        for a in [(1, 1, 2), (1, 2, 3), (2, 2, 2)]:
            N = 12
            mu = cs.frac_coupling(*a, N)
            assert mu.mass == 1
            grid = mu.grid
            for j, w in enumerate(mu.weights):
                if w == 0:
                    continue
                cell = grid.unravel(j)
                lo = sum(Fraction(ai * ci, N) for ai, ci in zip(a, cell))
                hi = sum(
                    Fraction(ai * (ci + 1), N) for ai, ci in zip(a, cell)
                )
                assert math.floor(hi) >= math.ceil(lo)

    def test_frac_domain(self):
        with pytest.raises(DomainError):
            cs.frac_coupling(1, 1, 5, 12)

    @pytest.mark.parametrize(
        "module, build",
        [
            (cs, lambda: cs.frac_coupling(1, 1, 2, 6)),
            (cs, lambda: cs.composite_pi(6)),
            (xor_model, lambda: xor_model.xor_coupling(2)),
        ],
        ids=["frac_coupling", "composite_pi", "xor_coupling"],
    )
    def test_corrupted_coupling_refused(self, monkeypatch, module, build):
        # Half the weight of the first charged cell moves to the next cell:
        # the mass stays 1 and no weight turns negative, but a pairwise
        # projection is no longer uniform.
        def corrupted(grid, weights):
            weights = list(weights)
            j = next(i for i, w in enumerate(weights) if w)
            weights[j] /= 2
            weights[(j + 1) % len(weights)] += weights[j]
            return SignedDiscreteMeasure(grid, weights)

        monkeypatch.setattr(module, "SignedDiscreteMeasure", corrupted)
        with pytest.raises(lp_core.CertificationError, match="projection mismatch"):
            build()

    def test_composite_structure(self):
        mu = cs.composite_pi(6)
        assert mu.mass == 1
        grid = mu.grid
        low_mass = sum(
            w for j, w in enumerate(mu.weights) if grid.unravel(j)[2] < 2
        )
        # The slab below x3 = 1/3 holds exactly its Lebesgue share plus
        # nothing from the band part.
        assert low_mass == Fraction(1, 3)

    def test_composite_near_optimal_value(self):
        fam, cost, _ = cs.build_discontinuous(6)
        mu = cs.composite_pi(6)
        value = sum(w * v for w, v in zip(mu.weights, cost.values))
        assert abs(value - Fraction(1, 6)) <= Fraction(2, 6)


class TestUniformband:
    def test_marginals(self):
        fam, cost = cs.build_uniformband(6)
        assert fam.full_grid().sizes == (6, 6, 3)
        assert fam[IndexSet([1, 2])] == uniform([6, 6], axes=(1, 2))
        assert cost.at((5, 5, 2)) == Fraction(11, 12) * Fraction(11, 12) * 2

    def test_solution_is_bang_bang(self):
        fam, cost = cs.build_uniformband(6)
        pi, _ = solve_primal(fam, cost)
        allowed = {Fraction(0), Fraction(1, 36)}
        assert set(pi.weights) <= allowed


class TestPolynomialDuals:
    def test_defect_identity_symbolically(self):
        import sympy

        A, x, y, z = sympy.symbols("A x y z")

        def fA(u, v):
            return (
                -sympy.Rational(1, 12) * (u**3 + v**3)
                - sympy.Rational(1, 2) * u * v * (u + v)
                - (A - 2) * (u * u / 12 + u * v / 3 + v * v / 12)
                - (1 - 2 * A) * (u + v) / 12
                - A / 18
            )

        defect = x * y * z - (fA(x, y) + fA(x, z) + fA(y, z))
        target = sympy.Rational(1, 6) * (x + y + z - 1) ** 2 * (x + y + z + A)
        assert sympy.simplify(sympy.expand(defect - target)) == 0

    def test_defect_matches_kappa_form(self):
        import random

        rng = random.Random(24)
        for _ in range(50):
            A = Fraction(rng.randint(0, 4))
            x, y, z = (
                Fraction(rng.randint(0, 12), 12) for _ in range(3)
            )
            s = x + y + z
            assert cs.fA_defect(A, x, y, z) == cs.FA_KAPPA * (s - 1) ** 2 * (
                s + A
            )

    def test_defect_nonnegative_on_unit_cube(self):
        import random

        rng = random.Random(25)
        for _ in range(50):
            A = Fraction(rng.randint(0, 3))
            x, y, z = (Fraction(rng.randint(0, 10), 10) for _ in range(3))
            assert cs.fA_defect(A, x, y, z) >= 0

    def test_zero_exactly_on_plane(self):
        for x, y in [(Fraction(1, 4), Fraction(1, 4)), (0, 1), (Fraction(1, 3), 0)]:
            z = 1 - Fraction(x) - Fraction(y)
            assert cs.fA_defect(2, x, y, z) == 0


class TestNonuniform222:
    def test_marginals(self):
        fam = cs.build_nonuniform_2x2x2()
        alpha = IndexSet([1, 2])
        assert fam[alpha].weight((0, 0)) == Fraction(1, 6)
        assert fam[alpha].weight((0, 1)) == Fraction(1, 3)
        assert fam[alpha].mass == 1

    def test_uniting_polytope_is_a_point(self):
        fam = cs.build_nonuniform_2x2x2()
        grid = fam.full_grid()
        values = cs.verify_unique_uniting(fam, list(grid.cells()))
        assert values is not None
        assert values[(0, 0, 0)] == values[(1, 1, 1)] == 0
        others = [v for c, v in values.items() if c not in {(0, 0, 0), (1, 1, 1)}]
        assert all(v == Fraction(1, 6) for v in others)
