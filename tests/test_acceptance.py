"""End-to-end acceptance suite: fourteen numbered criteria, each printing
one pass/fail line and enforcing its own time budget."""

import math
import random
import sys
import time
from contextlib import contextmanager
from fractions import Fraction

import pytest

from mmk import case_studies as cs
from mmk import feasibility as fb
from mmk import lp_core
from mmk import transport as tp
from mmk import xor_model as xm
from mmk.measures import (
    DiscreteMeasure,
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


@contextmanager
def criterion(number: int, label: str, budget_s: float):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, (
        f"criterion {number} took {elapsed:.1f}s, budget {budget_s}s"
    )
    print(f"[PASS] criterion {number}: {label} ({elapsed:.1f}s)")


def projected_family(rng, n, k, sizes):
    grid = ProductGrid(sizes)
    raw = [Fraction(rng.randint(1, 9)) for _ in range(grid.ncells)]
    total = sum(raw)
    mu = DiscreteMeasure(grid, [w / total for w in raw])
    return MarginalFamily(
        n, k, sizes, {a: project(mu, a) for a in all_index_sets(n, k)}
    )


def test_criterion_01_lambda_systems():
    with criterion(1, "lambda systems", 1):
        assert tuple(fb.signed_lambda(3, 2)) == (1, -1, 1)
        assert tuple(tp.decomp_lambda(3, 2)) == (
            Fraction(1, 3),
            Fraction(-1, 2),
            Fraction(1),
        )
        for n in range(2, 8):
            assert tuple(tp.decomp_lambda(n, 1)) == (
                Fraction(1, n) - 1,
                Fraction(1),
            )


def test_criterion_02_signed_uniting():
    with criterion(2, "signed uniting projects exactly", 5):
        rng = random.Random(101)
        cases = [(3, 2) for _ in range(20)] + [(4, 2) for _ in range(5)]
        for n, k in cases:
            sizes = [rng.randint(2, 3) for _ in range(n)]
            fam = projected_family(rng, n, k, sizes)
            refs = [uniform([s], axes=[i + 1]) for i, s in enumerate(sizes)]
            mu = fb.signed_uniting(fam, refs)
            for alpha in fam.index_sets():
                assert project(mu, alpha) == fam[alpha]


def test_criterion_03_modk_certificates():
    with criterion(3, "mod-k infeasibility certificates", 5):
        for n, k in [(3, 2), (4, 2), (4, 3)]:
            fam = fb.make_modk_counterexample(n, k)
            verdict = fb.kellerer_check(fam)
            assert not verdict.feasible
            problem = lp_core.LPProblem(*fb.marginal_constraint_rows(fam))
            ray = [-v for alpha in fam.index_sets() for v in verdict.potentials[alpha]]
            assert lp_core.check_certificate(problem, ray)
            total = sum(
                f * w
                for alpha in fam.index_sets()
                for f, w in zip(verdict.potentials[alpha], fam[alpha].weights)
            )
            assert total < 0


def test_criterion_04_two_point_family():
    with criterion(4, "two-point feasibility threshold", 2):
        refs = [uniform([2], axes=[a]) for a in (1, 2, 3)]
        fam32 = fb.make_two_point_counterexample(Fraction(3, 2))
        mu = fb.uniting_by_density_32(fam32, refs)
        for alpha in fam32.index_sets():
            assert project(mu, alpha) == fam32[alpha]
        fam2 = fb.make_two_point_counterexample(Fraction(2))
        assert fb.kellerer_check(fam2).feasible
        fam52 = fb.make_two_point_counterexample(Fraction(5, 2))
        assert not fb.kellerer_check(fam52).feasible


def test_criterion_05_nonuniform_2x2x2_unique():
    with criterion(5, "2x2x2 family has a unique uniting measure", 2):
        fam = cs.build_nonuniform_2x2x2()
        cells = list(fam.full_grid().cells())
        values = cs.verify_unique_uniting(fam, cells)  # unique_uniting: a point, a rank, an LP
        assert values is not None
        assert values[(0, 0, 0)] == values[(1, 1, 1)] == 0
        for cell, v in values.items():
            if cell not in {(0, 0, 0), (1, 1, 1)}:
                assert v == Fraction(1, 6)


def test_criterion_06_strong_duality():
    with criterion(6, "exact strong duality on random instances", 30):
        rng = random.Random(106)
        for _ in range(20):
            sizes = [rng.randint(2, 5) for _ in range(3)]
            fam = projected_family(rng, 3, 2, sizes)
            cost = tp.CostGrid(
                fam.full_grid(),
                [
                    Fraction(rng.randint(-9, 9))
                    for _ in range(fam.full_grid().ncells)
                ],
            )
            report = tp.verify_gap(fam, cost)
            assert report.gap == 0


def test_criterion_07_xor_goldens_and_bounds():
    with criterion(7, "xor goldens, fractal identity, bounds", 60):
        import numpy as np

        one = xm.Dyadic(1, 0)
        half = xm.Dyadic(1, 1)

        def riemann(x, y, precision=12):
            A = x.at_precision(precision).a
            B = y.at_precision(precision).a
            table = np.bitwise_xor.outer(
                np.arange(A, dtype=np.int64), np.arange(B, dtype=np.int64)
            )
            return Fraction(2 * int(table.sum()) + A * B, 2 * 8**precision)

        for x, y in [(one, one), (half, half), (one, half)]:
            assert xm.xor_integral(x, y) == riemann(x, y)
        assert xm.xor_integral(one, one) == Fraction(1, 2)
        assert xm.dual_f(one, one) == Fraction(1, 4)
        assert xm.dual_f(half, half) == Fraction(1, 32)

        rng = random.Random(107)

        def rand_dyadic(max_p=8):
            p = rng.randint(0, max_p)
            return xm.Dyadic(rng.randint(0, 1 << p), p)

        for _ in range(1000):
            x, y = rand_dyadic(), rand_dyadic()
            z = xm.xor_dyadic(x, y)
            assert xm.F_xor(x, y, z) == x.value * y.value * z.value
        for _ in range(1000):
            x, y, z = rand_dyadic(), rand_dyadic(), rand_dyadic()
            assert xm.F_xor(x, y, z) <= x.value * y.value * z.value

        for _ in range(200):
            n = rng.randint(1, 5)
            size = 1 << n
            a1, a2 = rng.randrange(size), rng.randrange(size)
            a3 = a1 ^ a2
            x = xm.Dyadic(a1 + rng.randint(0, 1), n)
            y = xm.Dyadic(a2 + rng.randint(0, 1), n)
            z = xm.Dyadic(a3 + rng.randint(0, 1), n)
            gap = x.value * y.value * z.value - xm.F_xor(x, y, z)
            assert abs(gap) <= Fraction(13, 1 << (3 * n))

        for _ in range(200):
            n = rng.randint(1, 5)
            size = 1 << n
            a, b = rng.randrange(size), rng.randrange(size)
            p = n + rng.randint(1, 3)
            step = 1 << (p - n)
            u1, u2 = sorted(rng.sample(range(step + 1), 2))
            v1, v2 = sorted(rng.sample(range(step + 1), 2))
            x1, x2 = xm.Dyadic(a * step + u1, p), xm.Dyadic(a * step + u2, p)
            y1, y2 = xm.Dyadic(b * step + v1, p), xm.Dyadic(b * step + v2, p)
            delta_f = (
                xm.dual_f(x2, y2)
                - xm.dual_f(x1, y2)
                - xm.dual_f(x2, y1)
                + xm.dual_f(x1, y1)
            )
            integral = (
                xm.xor_integral(x2, y2)
                - xm.xor_integral(x1, y2)
                - xm.xor_integral(x2, y1)
                + xm.xor_integral(x1, y1)
            )
            assert abs(delta_f - integral) <= Fraction(54, 1 << (3 * n))


def test_criterion_08_xor_lp_optimality():
    with criterion(8, "xor coupling is LP-optimal at n = 1, 2, 3", 60):
        inst1 = xm.XorInstance(1)
        _, v1 = tp.solve_primal(inst1.family(), inst1.cost())
        assert v1 == inst1.coupling_value() == 0
        inst2 = xm.XorInstance(2)
        _, v2 = tp.solve_primal(inst2.family(), inst2.cost())
        assert v2 == inst2.coupling_value() == Fraction(9, 4)
        inst3 = xm.XorInstance(3)
        _, v3 = tp.solve_primal(inst3.family(), inst3.cost())
        assert v3 == inst3.coupling_value()


def test_criterion_09_bounded_dual_extraction():
    with criterion(9, "bounded dual extraction constants", 60):
        rng = random.Random(109)
        for _ in range(10):
            mus = []
            for i in (1, 2, 3):
                s = rng.randint(2, 3)
                raw = [Fraction(rng.randint(1, 5)) for _ in range(s)]
                t = sum(raw)
                mus.append(
                    DiscreteMeasure(
                        ProductGrid([s], axes=[i]), [w / t for w in raw]
                    )
                )
            full = product(mus)
            fam = MarginalFamily(
                3,
                2,
                full.grid.sizes,
                {a: project(full, a) for a in all_index_sets(3, 2)},
            )
            grid = fam.full_grid()
            cost = tp.CostGrid(
                grid, [Fraction(rng.randint(0, 9)) for _ in range(grid.ncells)]
            )
            d, value = tp.solve_dual(fam, cost)
            out = tp.extract_bounded_dual(fam, cost, d, value)
            norm = cost.linf()
            for values in out.values():
                for v in values:
                    assert Fraction(-80, 3) * norm <= v <= Fraction(40, 3) * norm
            for total in cell_sums(grid, out):
                assert total >= -12 * norm
            assert integral(fam, out) == value


def test_criterion_10_discontinuous_composite():
    with criterion(10, "composite coupling and quadrature value", 60):
        for N in (12, 24):
            fam, cost, dual = cs.build_discontinuous(N)
            pi = cs.composite_pi(N)
            flat = uniform([N, N])
            for alpha in fam.index_sets():
                assert tuple(project(pi, alpha).weights) == tuple(flat.weights)
            value = sum(w * c for w, c in zip(pi.weights, cost.values))
            assert abs(value - Fraction(1, 6)) <= Fraction(2, N)
            pots = dual.potentials(N)
            slack = tp.complementary_slackness(pi, pots, cost)
            assert len(slack) <= 2 * N * N


def test_criterion_11_unreachable_bounds_and_growth():
    with criterion(11, "unreachable example bounds and dual growth", 120):
        fam, cost, alpha0 = cs.build_unreachable(12)
        for m in range(1, 5):
            bound = cs.unreachable_gamma_bound(m, alpha0)
            slack = float(bound) - 0.05 * abs(float(bound))
            for pt in cs._a_points(m):
                cell = tuple(c - 1 for c in pt)
                lo = cs.min_mass_at_cell(fam, cell, arithmetic="float")
                assert float(lo) >= slack - 1e-9
        growths = [
            cs.weighted_diagonal_growth(cs.diagnose_dual_growth(N))
            for N in (8, 10, 12)
        ]
        assert growths[0] < growths[1] < growths[2]


def test_criterion_12_nonstrong_uniqueness_and_recurrence():
    with criterion(12, "nonstrong example: rigidity and F recurrence", 60):
        N = 10
        fam, cost = cs.build_nonstrong(N)
        support = [
            tuple(c - 1 for c in pt)
            for n in range(1, N)
            for pt in cs._a_points(n) + cs._b_points(n)
        ]
        values = cs.verify_unique_uniting(fam, support)
        assert values is not None
        potentials, _ = tp.solve_dual(fam, cost)
        grid = fam.full_grid()
        totals = cell_sums(grid, potentials)
        F = [totals[grid.ravel((n - 1, n - 1, n - 1))] for n in range(1, N)]
        for a, b in zip(F[:-1], F[1:]):
            assert b - a == 3


def test_criterion_13_uniformband_figure(tmp_path):
    with criterion(13, "uniformband: band profile and P2 slices", 300):
        from mmk import cli

        N = 24
        fam, cost = cs.build_uniformband(N)
        pi, _ = tp.solve_primal(fam, cost, arithmetic="float")
        target = 1 / (3 * N)
        for z in range(3):
            for i in range(N):
                row = sum(float(pi.weight((i, j, z))) for j in range(N))
                assert abs(row - target) < 1e-7
            for j in range(N):
                col = sum(float(pi.weight((i, j, z))) for i in range(N))
                assert abs(col - target) < 1e-7
        # Density per slice: each slice carries mass 1/3, so cell weights
        # conditioned on the slice should sit at 0 or 3/N^2.
        hi = 3 / (N * N)
        ok = sum(
            1
            for w in pi.weights
            if min(abs(3 * float(w)), abs(3 * float(w) - hi)) <= 1e-6
        )
        assert ok >= 0.9 * len(pi.weights)
        assert (
            cli.main(
                ["case", "uniformband", "--N", str(N), "--out", str(tmp_path)]
            )
            == 0
        )
        for z in range(3):
            path = tmp_path / f"uniformband_z{z}.pgm"
            assert path.read_text().startswith("P2\n")


def test_criterion_14_polynomial_duals():
    with criterion(14, "polynomial dual factorization", 5):
        rng = random.Random(114)
        for A in (0, 1, 2):
            for _ in range(200):
                x, y, z = (
                    Fraction(rng.randint(-12, 24), 12) for _ in range(3)
                )
                s = x + y + z
                assert cs.fA_defect(A, x, y, z) == cs.FA_KAPPA * (s - 1) ** 2 * (
                    s + A
                )
        for _ in range(50):
            A = rng.choice([0, 1, 2])
            x = Fraction(rng.randint(-10, 20), 10)
            y = Fraction(rng.randint(-10, 20), 10)
            z = 1 - x - y
            total = (
                cs.eval_fA(A, x, y) + cs.eval_fA(A, x, z) + cs.eval_fA(A, y, z)
            )
            assert total == x * y * z
