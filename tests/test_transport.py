"""Primal/dual transport solving, zero-gap verification, base-point
decomposition, and bounded-dual extraction."""

import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmk import case_studies as cs
from mmk import feasibility as fb
from mmk import lp_core
from mmk.measures import (
    DiscreteMeasure,
    DomainError,
    IndexSet,
    MarginalFamily,
    ProductGrid,
    all_index_sets,
    cell_sums,
    integral,
    product,
    project,
    uniform,
)
from mmk.transport import (
    CostGrid,
    InfeasibleFamilyError,
    check_dual_feasible,
    complementary_slackness,
    decomp_lambda,
    extract_bounded_dual,
    good_basepoint,
    nk_decompose,
    solve_dual,
    solve_primal,
    verify_gap,
)
from mmk.xor_model import XorInstance
from test_measures import fraction_integral


def projected_family(rng, n, k, sizes):
    grid = ProductGrid(sizes)
    raw = [Fraction(rng.randint(1, 9)) for _ in range(grid.ncells)]
    total = sum(raw)
    mu = DiscreteMeasure(grid, [w / total for w in raw])
    return MarginalFamily(
        n, k, sizes, {a: project(mu, a) for a in all_index_sets(n, k)}
    )


def product_family(rng, sizes):
    mus = []
    for i, s in enumerate(sizes):
        raw = [Fraction(rng.randint(1, 5)) for _ in range(s)]
        t = sum(raw)
        mus.append(
            DiscreteMeasure(ProductGrid([s], axes=[i + 1]), [w / t for w in raw])
        )
    full = product(mus)
    fam = MarginalFamily(
        len(sizes),
        2,
        sizes,
        {a: project(full, a) for a in all_index_sets(len(sizes), 2)},
    )
    return fam, mus


def random_cost(rng, grid, lo=0, hi=9):
    return CostGrid(
        grid, [Fraction(rng.randint(lo, hi)) for _ in range(grid.ncells)]
    )


def scipy_oracle_value(fam, cost):
    """Independent assembly of the same LP, solved with scipy."""
    import numpy as np
    from scipy.optimize import linprog

    grid = fam.full_grid()
    rows, rhs = [], []
    for alpha in fam.index_sets():
        sub = grid.subgrid(alpha)
        positions = [grid.axes.index(a) for a in alpha]
        for t, sub_cell in enumerate(sub.cells()):
            row = np.zeros(grid.ncells)
            for j in range(grid.ncells):
                cell = grid.unravel(j)
                if tuple(cell[p] for p in positions) == tuple(sub_cell):
                    row[j] = 1.0
            rows.append(row)
            rhs.append(float(fam[alpha].weights[t]))
    res = linprog(
        [float(v) for v in cost.values],
        A_eq=np.array(rows),
        b_eq=np.array(rhs),
        bounds=(0, None),
        method="highs",
    )
    assert res.status == 0
    return res.fun


class TestCostGrid:
    def test_basics(self):
        grid = ProductGrid([2, 2])
        c = CostGrid.from_function(grid, lambda x, y: x - 2 * y)
        assert c.at((1, 0)) == 1
        assert c.linf() == 2

    def test_length_checked(self):
        with pytest.raises(DomainError):
            CostGrid(ProductGrid([2, 2]), [1, 2, 3])


def total_at(d, grid, cell):
    """sum_alpha f_alpha(x_alpha) of potentials d at one cell."""
    return cell_sums(grid, d)[grid.ravel(cell)]


class TestDualPotentials:
    def make(self):
        return {
            IndexSet([1, 2]): (0, 1, 2, 3),
            IndexSet([1, 3]): (1, 1, 1, 1),
            IndexSet([2, 3]): (0, 0, 0, Fraction(1, 2)),
        }

    def test_total_at(self):
        d = self.make()
        grid = ProductGrid([2, 2, 2])
        assert total_at(d, grid, (1, 1, 1)) == 3 + 1 + Fraction(1, 2)
        assert total_at(d, grid, (0, 0, 0)) == 1

    def test_value_and_shift_invariance(self):
        rng = random.Random(5)
        fam = projected_family(rng, 3, 2, [2, 2, 2])
        d = self.make()
        offsets = {
            IndexSet([1, 2]): Fraction(7),
            IndexSet([1, 3]): Fraction(-4),
            IndexSet([2, 3]): Fraction(-3),
        }
        shifted = {a: tuple(v + offsets[a] for v in values) for a, values in d.items()}
        # Offsets sum to zero, so both the value and the cellwise totals agree.
        assert integral(fam, shifted) == integral(fam, d)
        grid = fam.full_grid()
        for cell in grid.cells():
            assert total_at(shifted, grid, cell) == total_at(d, grid, cell)


class TestSolve:
    def test_value_matches_independent_oracle(self):
        rng = random.Random(6)
        for _ in range(5):
            fam = projected_family(rng, 3, 2, [2, 3, 2])
            cost = random_cost(rng, fam.full_grid())
            _, value = solve_primal(fam, cost)
            oracle = scipy_oracle_value(fam, cost)
            assert abs(float(value) - oracle) < 1e-7

    def test_primal_is_a_uniting_measure(self):
        rng = random.Random(7)
        fam = projected_family(rng, 3, 2, [2, 2, 3])
        cost = random_cost(rng, fam.full_grid())
        pi, value = solve_primal(fam, cost)
        for alpha in fam.index_sets():
            assert project(pi, alpha) == fam[alpha]
        assert sum(w * v for w, v in zip(pi.weights, cost.values)) == value

    def test_dual_feasible_and_tight(self):
        rng = random.Random(8)
        fam = projected_family(rng, 3, 2, [3, 2, 2])
        cost = random_cost(rng, fam.full_grid())
        d, dual_value = solve_dual(fam, cost)
        assert check_dual_feasible(d, cost) <= 0
        assert integral(fam, d) == dual_value
        _, value = solve_primal(fam, cost)
        assert dual_value == value

    def test_float_dual_value_is_the_integral_of_its_potentials(self):
        # Float potentials are summed exactly, so the dual value that float
        # mode reports is the exact integral of the potentials it returns.
        rng = random.Random(3)
        cases = []
        for _ in range(20):
            fam = projected_family(rng, 3, 2, [3, 3, 3])
            costs = [Fraction(rng.randint(0, 20), 7) for _ in range(27)]
            cases.append((fam, CostGrid(fam.full_grid(), costs)))
        xor = XorInstance(3)
        cases.append((xor.family(), xor.cost()))
        for fam, cost in cases:
            d, value = solve_dual(fam, cost, arithmetic="float")
            assert type(value) is Fraction
            assert value == integral(fam, d) == fraction_integral(fam, d)

    def test_dual_normalization(self):
        rng = random.Random(9)
        fam = projected_family(rng, 3, 2, [2, 2, 2])
        d, _ = solve_dual(fam, random_cost(rng, fam.full_grid()))
        anchors = [d[a][0] for a in fam.index_sets()]
        assert anchors[1] == anchors[2] == 0

    def test_verify_gap_and_report(self):
        rng = random.Random(10)
        fam = projected_family(rng, 3, 2, [2, 2, 2])
        cost = random_cost(rng, fam.full_grid())
        report = verify_gap(fam, cost)
        assert report.gap == 0
        blob = report.to_json()
        assert set(blob) >= {"value", "gap", "pi", "potentials"}
        assert Fraction(blob["value"]) == report.value

    def test_complementary_slackness_empty_at_optimum(self):
        rng = random.Random(11)
        fam = projected_family(rng, 3, 2, [2, 3, 2])
        cost = random_cost(rng, fam.full_grid())
        report = verify_gap(fam, cost)
        assert complementary_slackness(report.pi, report.potentials, cost) == []

    def test_infeasible_family_raises_with_certificate(self):
        fam = fb.make_modk_counterexample(3, 2)
        cost = CostGrid(fam.full_grid(), [0] * fam.full_grid().ncells)
        with pytest.raises(InfeasibleFamilyError) as err:
            solve_primal(fam, cost)
        assert not err.value.verdict.feasible
        assert err.value.verdict.potentials

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("which", ["modk", "two-point"])
    def test_infeasible_family_decided_by_its_own_lp(self, monkeypatch, mode, which):
        # The transport LP's own Farkas ray is the certificate: no second
        # LP.  The mod-k family charges no cell, so its one LP has no column.
        if which == "modk":
            fam, solves = fb.make_modk_counterexample(4, 2), [0]
        else:
            fam, solves = fb.make_two_point_counterexample(Fraction(5, 2)), [8]
        grid = fam.full_grid()
        calls = []
        real = lp_core.solve
        monkeypatch.setattr(
            lp_core, "solve", lambda p, *args, **kw: calls.append(p.ncols) or real(p, *args, **kw)
        )
        cost = CostGrid(grid, list(range(grid.ncells)))
        with pytest.raises(InfeasibleFamilyError) as err:
            verify_gap(fam, cost, arithmetic=mode)
        assert calls == solves
        verdict = err.value.verdict
        problem = lp_core.LPProblem(*fb.marginal_constraint_rows(fam))
        assert not verdict.feasible
        ray = [-v for alpha in fam.index_sets() for v in verdict.potentials[alpha]]
        assert lp_core.check_certificate(problem, ray)

    def test_float_mode(self):
        rng = random.Random(12)
        fam = projected_family(rng, 3, 2, [3, 3, 3])
        cost = random_cost(rng, fam.full_grid())
        report = verify_gap(fam, cost, arithmetic="float")
        _, exact_value = solve_primal(fam, cost)
        assert abs(report.value - float(exact_value)) < 1e-7

    def test_float_duals_feasible_with_zero_weight_cells(self):
        # Cells under a zero marginal weight are dropped from the LP, so its
        # prices say nothing there; the float potentials must still be
        # feasible on them, with the exact optimum as their value.
        rng = random.Random(5)
        grid = ProductGrid([4, 4, 4])
        for _ in range(10):
            raw = [0 if rng.random() < 0.3 else rng.randint(1, 9) for _ in range(64)]
            total = sum(raw)
            mu = DiscreteMeasure(grid, [Fraction(w, total) for w in raw])
            fam = MarginalFamily(
                3, 2, [4, 4, 4], {a: project(mu, a) for a in all_index_sets(3, 2)}
            )
            cost = random_cost(rng, grid)
            potentials, value = solve_dual(fam, cost, arithmetic="float")
            assert check_dual_feasible(potentials, cost) <= 1e-9
            assert value == pytest.approx(float(solve_dual(fam, cost)[1]), abs=1e-9)

    def test_higher_order_instance(self):
        rng = random.Random(13)
        fam = projected_family(rng, 4, 3, [2, 2, 2, 2])
        cost = random_cost(rng, fam.full_grid())
        report = verify_gap(fam, cost)
        assert report.gap == 0


class TestDualityIdentities:
    """Identities of the duality for random families, with zero weights."""

    SHAPES = [(3, 2, (3, 2, 3)), (4, 2, (2, 3, 2, 2)), (4, 3, (2, 3, 2, 3))]

    @classmethod
    def draw(cls, data):
        n, k, sizes = data.draw(st.sampled_from(cls.SHAPES))
        grid = ProductGrid(sizes)
        cells = grid.ncells
        raw = data.draw(st.lists(st.integers(0, 9), min_size=cells, max_size=cells))
        raw[0] += 1
        mu = DiscreteMeasure(grid, [Fraction(w, sum(raw)) for w in raw])
        fam = MarginalFamily(
            n, k, sizes, {a: project(mu, a) for a in all_index_sets(n, k)}
        )
        costs = data.draw(st.lists(st.integers(0, 20), min_size=cells, max_size=cells))
        return fam, CostGrid(grid, [Fraction(c) for c in costs])

    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def test_adding_an_nk_function_shifts_the_optimum(self, data):
        fam, cost = self.draw(data)
        grid = fam.full_grid()
        g = {
            alpha: [
                Fraction(data.draw(st.integers(-5, 5)))
                for _ in range(grid.subgrid(alpha).ncells)
            ]
            for alpha in fam.index_sets()
        }
        shift = sum(
            f * w
            for alpha in fam.index_sets()
            for f, w in zip(g[alpha], fam[alpha].weights)
        )
        moved = CostGrid(
            grid, [c + s for c, s in zip(cost.values, cell_sums(grid, g))]
        )
        pi, value = solve_primal(fam, cost)
        _, moved_value = solve_primal(fam, moved)
        assert moved_value == value + shift
        # the old optimal plan stays optimal
        assert sum(c * w for c, w in zip(moved.values, pi.weights)) == moved_value

    @settings(max_examples=12, deadline=None)
    @given(st.data(), st.integers(2, 7))
    def test_scaling_the_cost_scales_the_optimum(self, data, factor):
        fam, cost = self.draw(data)
        scaled = CostGrid(cost.grid, [factor * c for c in cost.values])
        assert solve_primal(fam, scaled)[1] == factor * solve_primal(fam, cost)[1]

    @settings(max_examples=12, deadline=None)
    @given(st.data())
    def test_permuting_the_axes_keeps_the_optimum(self, data):
        fam, cost = self.draw(data)
        grid = fam.full_grid()
        perm = data.draw(st.permutations(range(fam.n)))
        # Axis t of the new grid is axis perm[t] of the old one.
        moved_grid = ProductGrid([grid.sizes[p] for p in perm])

        def moved(values):
            out = [None] * grid.ncells
            for cell in grid.cells():
                out[moved_grid.ravel([cell[p] for p in perm])] = values[grid.ravel(cell)]
            return out

        # The family is the set of projections of any of its uniting
        # measures, so the moved family is that of the moved optimal plan.
        pi, value = solve_primal(fam, cost)
        moved_pi = DiscreteMeasure(moved_grid, moved(pi.weights))
        moved_fam = MarginalFamily(
            fam.n, fam.k, moved_grid.sizes,
            {a: project(moved_pi, a) for a in all_index_sets(fam.n, fam.k)},
        )
        moved_cost = CostGrid(moved_grid, moved(cost.values))
        assert solve_primal(moved_fam, moved_cost)[1] == value


TAMPERED_SOLVES = """
from fractions import Fraction

from mmk import feasibility, lp_core, transport
from mmk.measures import (
    DiscreteMeasure,
    MarginalFamily,
    ProductGrid,
    all_index_sets,
    project,
)

if __debug__:
    raise SystemExit("expected python -O")


def farkas(y_entry):
    def solve(problem, objective, arithmetic="exact"):
        y = [Fraction(y_entry)] * problem.nrows
        return lp_core.LPSolution("infeasible", y=y)

    return solve


def wrong_optimum(problem, objective, arithmetic="exact"):
    zero = Fraction(0) if arithmetic == "exact" else 0.0
    return lp_core.LPSolution(
        "optimal",
        x=[zero] * problem.ncols,
        y=[zero] * problem.nrows,
        value=zero + 1,
    )


real_decompose = transport.nk_decompose


def shifted_decompose(F, y, lam):
    out = real_decompose(F, y, lam)
    alpha = min(out)
    return {**out, alpha: (out[alpha][0] + 1,) + out[alpha][1:]}


grid = ProductGrid([2, 2, 2])
mu = DiscreteMeasure(grid, [Fraction(1, 8)] * 8)
fam = MarginalFamily(
    3, 2, [2, 2, 2], {a: project(mu, a) for a in all_index_sets(3, 2)}
)
cost = transport.CostGrid(grid, [1] * 8)
dual, dual_value = transport.solve_dual(fam, cost)
check = lambda: feasibility.kellerer_check(fam)
cases = [
    (lp_core, "solve", farkas(1), check),  # negative cell sums
    (lp_core, "solve", farkas(0), check),  # zero total
    (lp_core, "solve", wrong_optimum, lambda: transport.verify_gap(fam, cost)),
    (lp_core, "solve", wrong_optimum, lambda: transport.verify_gap(fam, cost, "float")),
    # the extracted dual's value differs from the optimum
    (transport, "nk_decompose", shifted_decompose,
     lambda: transport.extract_bounded_dual(fam, cost, dual, dual_value)),
]
for module, name, fake, run in cases:
    real = getattr(module, name)
    setattr(module, name, fake)
    try:
        run()
    except lp_core.CertificationError:
        continue
    finally:
        setattr(module, name, real)
    raise SystemExit("a tampered solve was accepted")
print("rejected", len(cases))
"""


def test_tampered_certificates_rejected_under_python_O():
    import mmk

    src = os.path.dirname(os.path.dirname(mmk.__file__))
    out = subprocess.run(
        [sys.executable, "-O", "-c", TAMPERED_SOLVES],
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr + out.stdout
    assert out.stdout.strip() == "rejected 5"


def test_exact_cap_counts_the_lp_solved():
    # 27,000 cells and C(3, 2) = 3 index sets: 81,000 nonzeros, over the
    # exact-mode cap.  The cost 1 gives the uniform family's LP a 1 x 1
    # quotient, which exact mode solves; the zero and one-cell objectives
    # have none, so the cap still refuses the full LP.
    fam = MarginalFamily(
        3,
        2,
        [30] * 3,
        {a: uniform([30, 30], axes=a.members) for a in all_index_sets(3, 2)},
    )
    report = verify_gap(fam, CostGrid(fam.full_grid(), [Fraction(1)] * 30**3))
    assert (report.value, report.gap) == (1, 0)
    for run in (fb.kellerer_check, lambda f: cs.min_mass_at_cell(f, (0, 0, 0))):
        with pytest.raises(lp_core.SizeCapError, match="81000 nonzeros exceeds the exact"):
            run(fam)


def test_exact_cap_on_the_discontinuous_dual_example():
    # build_discontinuous(30)'s LP has 81,000 nonzeros and its quotient
    # 28,665, so exact mode certifies it; (42)'s quotient has 77,343.
    fam, cost, _ = cs.build_discontinuous(30)
    report = verify_gap(fam, cost)
    assert (report.value, report.gap) == (Fraction(1, 6), 0)
    fam, cost, _ = cs.build_discontinuous(42)
    with pytest.raises(lp_core.SizeCapError, match="77343 nonzeros exceeds the exact-mode cap"):
        verify_gap(fam, cost)


def test_values_do_not_follow_presolve(monkeypatch):
    # Every simplex run is without presolve.  With presolve forced on for
    # every HiGHS run, exact verify_gap gives the same values with gap 0,
    # and float verify_gap values within 1e-9: on 10 families of each of
    # exact-transport's random shapes (about 30% of the measure's cells
    # empty, cost 0-20) and on the symmetric instances HiGHS solves as
    # quotients.
    rng = random.Random(37)
    cases = []
    for n, k, sizes in [(3, 2, [4] * 3), (4, 2, [3] * 4), (4, 3, [3] * 4)]:
        grid = ProductGrid(sizes)
        for _ in range(10):
            raw = [0 if rng.random() < 0.3 else rng.randint(1, 9) for _ in range(grid.ncells)]
            raw[rng.randrange(grid.ncells)] = 1
            mu = DiscreteMeasure(grid, [Fraction(w, sum(raw)) for w in raw])
            fam = MarginalFamily(n, k, sizes, {a: project(mu, a) for a in all_index_sets(n, k)})
            cases.append((fam, random_cost(rng, grid, 0, 20)))
    cases += [(XorInstance(m).family(), XorInstance(m).cost()) for m in (3, 4)]
    cases.append(cs.build_discontinuous(12)[:2])

    def values():
        out = []
        for fam, cost in cases:
            exact = verify_gap(fam, cost)
            assert exact.gap == 0
            out.append((exact.value, verify_gap(fam, cost, arithmetic="float").value))
        return out

    default = values()
    assert default[-1][0] == Fraction(1, 6)
    core = lp_core._core()

    class Presolve(core._Highs):
        def run(self):
            self.setOptionValue("presolve", "on")
            return super().run()

    monkeypatch.setattr(core, "_Highs", Presolve)
    for (exact, approx), (exact_on, approx_on) in zip(default, values(), strict=True):
        assert exact_on == exact and abs(approx_on - approx) <= 1e-9


class TestDecomposition:
    def test_decomp_lambda_32_golden(self):
        assert tuple(decomp_lambda(3, 2)) == (
            Fraction(1, 3),
            Fraction(-1, 2),
            Fraction(1),
        )

    def test_decomp_lambda_solves_its_system(self):
        import math

        for n, k in [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (6, 4)]:
            lam = decomp_lambda(n, k)
            assert lam[k] == 1
            for a in range(k):
                s = sum(
                    lam[t] * math.comb(n - t, k - t) * math.comb(n - k, t - a)
                    for t in range(a, k + 1)
                )
                assert s == 0

    def test_reconstruction_exact_for_pair_sums(self):
        rng = random.Random(14)
        grid = ProductGrid([2, 3, 2])
        for _ in range(5):
            parts = {
                alpha: [
                    Fraction(rng.randint(-5, 5))
                    for _ in range(grid.subgrid(alpha).ncells)
                ]
                for alpha in all_index_sets(3, 2)
            }
            F = CostGrid.from_function(grid, lambda *cell: total_at(parts, grid, cell))
            y = tuple(rng.randrange(s) for s in grid.sizes)
            d_got = nk_decompose(F, y, decomp_lambda(3, 2))
            for cell in grid.cells():
                assert total_at(d_got, grid, cell) == F.at(cell)

    def test_reconstruction_exact_43(self):
        rng = random.Random(15)
        grid = ProductGrid([2, 2, 2, 2])
        parts = {
            alpha: [
                Fraction(rng.randint(-4, 4))
                for _ in range(grid.subgrid(alpha).ncells)
            ]
            for alpha in all_index_sets(4, 3)
        }
        F = CostGrid.from_function(grid, lambda *cell: total_at(parts, grid, cell))
        d_got = nk_decompose(F, (0, 1, 0, 1), decomp_lambda(4, 3))
        for cell in grid.cells():
            assert total_at(d_got, grid, cell) == F.at(cell)

    def test_good_basepoint_checks_its_refs(self):
        # Two refs raised IndexError; a 3-cell ref on a 2-cell axis gave
        # (0, 0, 0) from norms that zip had cut short.
        c = CostGrid(ProductGrid([2, 2, 2]), [1] * 8)
        pair = [uniform([2], axes=[a]) for a in (1, 2)]
        long = [uniform([3], axes=[1]), *pair[1:], uniform([2], axes=[3])]
        for refs, message in [(pair, "expected 3 reference measures"), (long, "wrong size")]:
            with pytest.raises(DomainError, match=message):
                good_basepoint(c, refs)

    def test_good_basepoint_bound(self):
        rng = random.Random(16)
        grid = ProductGrid([3, 3, 3])
        refs = [uniform([3], axes=[a]) for a in (1, 2, 3)]
        c = random_cost(rng, grid, lo=-9, hi=9)
        y = good_basepoint(c, refs)
        nu = product(refs)
        norm = sum(abs(v) * w for v, w in zip(c.values, nu.weights))
        import itertools

        for size in (1, 2):
            for alpha_axes in itertools.combinations((1, 2, 3), size):
                alpha = IndexSet(alpha_axes)
                sub = grid.subgrid(alpha)
                positions = [grid.axes.index(a) for a in alpha]
                nu_a = product([refs[p] for p in positions])
                section = Fraction(0)
                for t, sub_cell in enumerate(sub.cells()):
                    full = list(y)
                    for p, v in zip(positions, sub_cell):
                        full[p] = v
                    section += abs(c.at(full)) * nu_a.weights[t]
                assert section <= 16 * norm


class TestBoundedDual:
    def instance(self, rng, sizes=(2, 2, 2)):
        fam, _ = product_family(rng, list(sizes))
        cost = random_cost(rng, fam.full_grid())
        d, value = solve_dual(fam, cost)
        return fam, cost, d, value

    def test_extraction_bounds_and_value(self):
        rng = random.Random(17)
        for sizes in [(2, 2, 2), (2, 3, 2), (3, 3, 3)]:
            fam, cost, d, value = self.instance(rng, sizes)
            out = extract_bounded_dual(fam, cost, d, value)
            norm = cost.linf()
            for values in out.values():
                for v in values:
                    assert Fraction(-80, 3) * norm <= v <= Fraction(40, 3) * norm
            assert integral(fam, out) == integral(fam, d)
            assert check_dual_feasible(out, cost) <= 0

    def test_null_cells_below_the_floor_are_avoided(self):
        # mu_1 vanishes at x1 = 1.  Under the constant cost 1 the
        # potentials 1/3 are optimal; lowering f12(1, 0) and f13(1, 0),
        # which meet zero weight, keeps them optimal and feasible and
        # puts F(1, 0, 0) = -41/3 below -12||c||.
        mus = [
            DiscreteMeasure(ProductGrid([3], axes=[1]), [Fraction(1, 2), 0, Fraction(1, 2)]),
            DiscreteMeasure(ProductGrid([2], axes=[2]), [Fraction(1, 3), Fraction(2, 3)]),
            DiscreteMeasure(ProductGrid([2], axes=[3]), [Fraction(1, 4), Fraction(3, 4)]),
        ]
        full = product(mus)
        fam = MarginalFamily(
            3, 2, [3, 2, 2], {a: project(full, a) for a in all_index_sets(3, 2)}
        )
        grid = fam.full_grid()
        cost = CostGrid(grid, [1] * grid.ncells)
        third = [Fraction(1, 3)] * 6
        low = list(third)
        low[grid.subgrid(IndexSet([1, 2])).ravel((1, 0))] = Fraction(-7)
        d = {IndexSet([1, 2]): low, IndexSet([1, 3]): low, IndexSet([2, 3]): third[:4]}
        F = cell_sums(grid, d)
        assert [grid.unravel(j) for j, v in enumerate(F) if v < -12] == [(1, 0, 0)]
        # The lexicographic base point's x1-section meets (1, 0, 0), so the
        # scan for a base cell with clear sections runs.
        assert good_basepoint(CostGrid(grid, F), mus) == (0, 0, 0)
        out = extract_bounded_dual(fam, cost, d, solve_dual(fam, cost)[1])
        for values in out.values():
            assert all(Fraction(-80, 3) <= v <= Fraction(40, 3) for v in values)
        assert check_dual_feasible(out, cost) <= 0
        assert integral(fam, out) == integral(fam, d) == 1

    def test_rejects_non_product_marginals(self):
        rng = random.Random(18)
        fam = projected_family(rng, 3, 2, [2, 2, 2])
        cost = random_cost(rng, fam.full_grid())
        d, value = solve_dual(fam, cost)
        if all(
            fam[a]
            == project(
                product(
                    [
                        project(fam[a], IndexSet([a.members[0]])),
                        project(fam[a], IndexSet([a.members[1]])),
                    ]
                ),
                a,
            )
            for a in fam.index_sets()
        ):
            pytest.skip("random family happened to be a product")
        with pytest.raises(fb.PreconditionError):
            extract_bounded_dual(fam, cost, d, value)

    def test_rejects_negative_cost(self):
        rng = random.Random(19)
        fam, _ = product_family(rng, [2, 2, 2])
        cost = CostGrid(fam.full_grid(), [-1] + [0] * 7)
        d = {a: (0,) * fam.full_grid().subgrid(a).ncells for a in fam.index_sets()}
        with pytest.raises(fb.PreconditionError):
            extract_bounded_dual(fam, cost, d, 0)

    def test_rejects_suboptimal_dual(self):
        rng = random.Random(20)
        fam, cost, d, value = self.instance(rng)
        first = fam.index_sets()[0]
        worse = {**d, first: tuple(v - 1 for v in d[first])}
        with pytest.raises(fb.PreconditionError):
            extract_bounded_dual(fam, cost, worse, value)
