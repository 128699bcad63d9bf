"""Signed uniting, the exact feasibility criterion, density constructions,
and the counterexample builders."""

import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmk import case_studies as cs
from mmk import feasibility as fb
from mmk import lp_core
from mmk.feasibility import QuadExt
from mmk.measures import (
    DiscreteMeasure,
    DomainError,
    IndexSet,
    MarginalFamily,
    ProductGrid,
    all_index_sets,
    cell_sums,
    is_consistent,
    lower_marginal,
    measure_to_json,
    product,
    project,
    scaled,
    uniform,
)
from test_measures import fraction_cell_sums


def random_family(rng, n, k, sizes):
    """A consistent family: projections of a random full measure."""
    grid = ProductGrid(sizes)
    raw = [Fraction(rng.randint(1, 9)) for _ in range(grid.ncells)]
    total = sum(raw)
    mu = DiscreteMeasure(grid, [w / total for w in raw])
    marginals = {alpha: project(mu, alpha) for alpha in all_index_sets(n, k)}
    return MarginalFamily(n, k, sizes, marginals)


def sparse_family(rng, n, k, sizes):
    """Projections of a random measure that vanishes on about 30% of cells."""
    grid = ProductGrid(sizes)
    raw = [
        Fraction(0 if rng.random() < 0.3 else rng.randint(1, 9))
        for _ in range(grid.ncells)
    ]
    raw[rng.randrange(grid.ncells)] = Fraction(1)
    total = sum(raw)
    mu = DiscreteMeasure(grid, [w / total for w in raw])
    marginals = {alpha: project(mu, alpha) for alpha in all_index_sets(n, k)}
    return MarginalFamily(n, k, sizes, marginals)


def padded_two_point():
    """The ratio-5/2 two-point family padded to 3x3x3 by a third level of
    zero weight: 8 charged cells, 19 dropped."""
    two = fb.make_two_point_counterexample(Fraction(5, 2))
    marginals = {}
    for alpha in two.index_sets():
        sub = ProductGrid([3, 3], axes=alpha.members)
        weights = [Fraction(0)] * 9
        for cell in two[alpha].grid.cells():
            weights[sub.ravel(cell)] = two[alpha].weight(cell)
        marginals[alpha] = DiscreteMeasure(sub, weights)
    return MarginalFamily(3, 2, [3, 3, 3], marginals)


FAMILY_SHAPES = [
    (3, 1, [3, 2, 2]),
    (3, 2, [2, 3, 2]),
    (3, 2, [4, 1, 3]),
    (4, 2, [2, 2, 3, 2]),
    (4, 3, [2, 1, 3, 2]),
]


def uniform_refs(fam):
    return [uniform([s], axes=[i + 1]) for i, s in enumerate(fam.sizes)]


class TestQuadExt:
    def test_field_axioms_sample(self):
        r = Fraction(2, 5)
        a = QuadExt(1, 2, r)
        b = QuadExt(Fraction(-1, 3), 1, r)
        assert (a + b) - b == a
        assert (a * b) / b == a
        assert a * (1 / a) == 1

    def test_sign_logic(self):
        r = Fraction(2)
        assert QuadExt(0, 1, r) > 0
        assert QuadExt(-1, 1, r) > 0  # sqrt(2) > 1
        assert QuadExt(-2, 1, r) < 0  # sqrt(2) < 2
        assert QuadExt(3, -2, r) > 0  # 9 > 8
        assert QuadExt(1, -1, r) < 0

    def test_order_agrees_with_the_float_value(self):
        # sqrt(3) is irrational, so a + b sqrt(3) is 0 only at a = b = 0 and
        # its float is far enough from 0 to give the sign.
        values = [QuadExt(a, b, 3) for a in range(-3, 4) for b in range(-3, 4)]
        for x in values:
            assert x.sign() == (float(x) > 0) - (float(x) < 0)
            for y in values + [Fraction(1, 2), -2]:
                fx, fy = float(x), float(y)
                assert (x < y, x <= y, x > y, x >= y, x == y) == (
                    fx < fy, fx <= fy, fx > fy, fx >= fy, fx == fy
                )
                assert (y < x, y <= x, y > x, y >= x) == (fy < fx, fy <= fx, fy > fx, fy >= fx)

    def test_foreign_types_are_unordered_and_unequal(self):
        x = QuadExt(1, 1, 3)
        assert x != "x" and not x == "x"
        for compare in (lambda: x < "x", lambda: x <= "x", lambda: x > "x", lambda: x >= "x"):
            with pytest.raises(TypeError):
                compare()
        with pytest.raises(DomainError):
            x < QuadExt(0, 1, 2)

    def test_interop_with_fraction(self):
        r = Fraction(3)
        x = QuadExt(1, 1, r)
        assert Fraction(1, 2) + x == QuadExt(Fraction(3, 2), 1, r)
        assert 2 * x == QuadExt(2, 2, r)
        assert x - 1 == QuadExt(0, 1, r)

    def test_mixed_fields_rejected(self):
        with pytest.raises(DomainError):
            QuadExt(0, 1, 2) + QuadExt(0, 1, 3)

    def test_equal_values_hash_alike(self):
        r = Fraction(2, 5)
        a, b = QuadExt(1, 2, r), QuadExt(Fraction(-1, 3), 1, r)
        pairs = [((a * b) / b, a), (a - a + 3, 3), (QuadExt(Fraction(1, 2), 0, r), Fraction(1, 2))]
        for x, y in pairs:
            assert x == y and hash(x) == hash(y)
        assert len({a, (a * b) / b, a - a + 3, 3, Fraction(3)}) == 2

    @pytest.mark.parametrize("root", [0, 4, Fraction(9, 4), -2])
    def test_root_must_be_positive_and_no_rational_square(self, root):
        # With sqrt(root) rational, QuadExt(0, 1, 4) would equal 2 but hash
        # apart from it, and QuadExt(0, 1, 0), the value 0, would have sign 1.
        with pytest.raises(DomainError, match="rational square"):
            QuadExt(0, 1, root)

    @staticmethod
    def irrational_density2_measure():
        """The density-2 measure of a 2x3x2 family of density near 1: some
        of its weights have a nonzero irrational part."""
        rng = random.Random(5)
        grid = ProductGrid([2, 3, 2])
        raw = [Fraction(rng.randint(10, 14), 10) for _ in range(grid.ncells)]
        mu = DiscreteMeasure(grid, [w / sum(raw) for w in raw])
        fam = MarginalFamily(3, 2, grid.sizes, {a: project(mu, a) for a in all_index_sets(3, 2)})
        return fb.uniting_by_density_2(fam, uniform_refs(fam))

    def test_set_of_irrational_density2_weights(self):
        weights = self.irrational_density2_measure().weights
        assert any(isinstance(w, QuadExt) and w.b for w in weights)
        distinct = set(weights)
        assert all(w in distinct for w in weights) and len(distinct) <= len(weights)

    def test_density2_still_builds_irrational_weights(self):
        weights = self.irrational_density2_measure().weights
        irrational = [w for w in weights if isinstance(w, QuadExt)]
        [root] = {w.root for w in irrational}
        assert math.isqrt(root.numerator) ** 2 != root.numerator or (
            math.isqrt(root.denominator) ** 2 != root.denominator)
        assert all(w.b for w in irrational) and all(w >= 0 for w in weights)
        assert sum(weights) == 1

    def test_irrational_density2_weights_have_no_json_form(self):
        mu = self.irrational_density2_measure()
        first = next(i for i, w in enumerate(mu.weights) if isinstance(w, QuadExt))
        cell = mu.grid.unravel(first)
        with pytest.raises(DomainError, match=re.escape(f"at cell {cell} is not rational")):
            measure_to_json(mu)


class TestSignedLambda:
    def test_32_golden(self):
        assert tuple(fb.signed_lambda(3, 2)) == (1, -1, 1)

    def test_n1_solves_two_row_system(self):
        for n in range(2, 7):
            lam = fb.signed_lambda(n, 1)
            assert lam[1] == 1
            assert lam[0] + lam[1] * (n - 1) == 0

    @settings(max_examples=20, deadline=None)
    @given(
        st.integers(2, 7).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(1, n - 1))
        )
    )
    def test_triangular_system(self, nk):
        n, k = nk
        lam = fb.signed_lambda(n, k)
        for i in range(k + 1):
            s = sum(lam[t] * math.comb(n - k, t - i) for t in range(i, k + 1))
            assert s == (1 if i == k else 0)


class TestSignedUniting:
    def test_projections_exact_over_shapes(self):
        rng = random.Random(0)
        for n, k, sizes in [
            (3, 2, [2, 3, 2]),
            (4, 2, [2, 2, 2, 2]),
            (4, 3, [2, 2, 2, 2]),
            (5, 2, [2, 2, 2, 2, 2]),
        ]:
            fam = random_family(rng, n, k, sizes)
            mu = fb.signed_uniting(fam, uniform_refs(fam))
            for alpha in fam.index_sets():
                assert project(mu, alpha) == fam[alpha]

    def test_independent_of_refs(self):
        rng = random.Random(1)
        fam = random_family(rng, 3, 2, [2, 2, 3])
        skew = [
            DiscreteMeasure(
                ProductGrid([s], axes=[i + 1]),
                [Fraction(1, s)] * (s - 1)
                + [Fraction(1, s)],
            )
            for i, s in enumerate(fam.sizes)
        ]
        other = [
            DiscreteMeasure(
                ProductGrid([s], axes=[i + 1]),
                [Fraction(2, 3)] + [Fraction(1, 3 * (s - 1))] * (s - 1),
            )
            for i, s in enumerate(fam.sizes)
        ]
        for refs in (skew, other):
            mu = fb.signed_uniting(fam, refs)
            for alpha in fam.index_sets():
                assert project(mu, alpha) == fam[alpha]

    def test_product_family_collapses(self):
        mus = [
            DiscreteMeasure(
                ProductGrid([2], axes=[i]), [Fraction(1, 4), Fraction(3, 4)]
            )
            for i in (1, 2, 3)
        ]
        full = product(mus)
        marginals = {
            alpha: project(full, alpha) for alpha in all_index_sets(3, 2)
        }
        fam = MarginalFamily(3, 2, [2, 2, 2], marginals)
        mu = fb.signed_uniting(fam, mus)
        assert tuple(mu.weights) == tuple(full.weights)

    def test_modk_gives_negative_weights(self):
        fam = fb.make_modk_counterexample(3, 2)
        mu = fb.signed_uniting(fam, uniform_refs(fam))
        assert any(w < 0 for w in mu.weights)

    def test_inconsistent_rejected(self):
        marg = {
            alpha: uniform([2, 2], axes=tuple(alpha))
            for alpha in all_index_sets(3, 2)
        }
        marg[IndexSet([1, 2])] = DiscreteMeasure(
            ProductGrid([2, 2], axes=(1, 2)),
            [Fraction(1, 2), Fraction(1, 2), 0, 0],
        )
        fam = MarginalFamily(3, 2, [2, 2, 2], marg)
        with pytest.raises(fb.PreconditionError):
            fb.signed_uniting(fam, uniform_refs(fam))


class TestKellererCheck:
    def test_product_family_feasible(self):
        rng = random.Random(2)
        fam = random_family(rng, 3, 2, [2, 2, 2])
        verdict = fb.kellerer_check(fam)
        assert verdict.feasible
        for alpha in fam.index_sets():
            assert project(verdict.witness, alpha) == fam[alpha]

    def test_modk_infeasible_with_valid_certificate(self):
        fam = fb.make_modk_counterexample(3, 2)
        verdict = fb.kellerer_check(fam)
        assert not verdict.feasible
        # Certificate potentials: nonnegative sums, negative total integral.
        grid = fam.full_grid()
        for cell in grid.cells():
            s = sum(
                verdict.potentials[alpha][
                    grid.subgrid(alpha).ravel(
                        [cell[grid.axes.index(a)] for a in alpha]
                    )
                ]
                for alpha in fam.index_sets()
            )
            assert s >= 0
        total = sum(
            f * w
            for alpha in fam.index_sets()
            for f, w in zip(verdict.potentials[alpha], fam[alpha].weights)
        )
        assert total < 0

    # A feasible (5,3) family on 3^5: the projections of the measure with
    # weight d/830 on the cells in ravel order, d the digits below.  Under
    # HiGHS's default tolerances its vertex has a weight of -2.4e-8 and an
    # inconsistent 130-column support.
    NEGATIVE_VERTEX = (
        "903107712010008080770207063407507107637020403952281800586167"
        "359570139026002000070440055040092050080136643710082347012801"
        "701103970081650081278782403610175970959089089011229309249203"
        "704950801205669145219241009157181488100034001800188026304238"
        "714"
    )

    def negative_vertex_family(self):
        grid = ProductGrid([3] * 5)
        mu = DiscreteMeasure(
            grid, [Fraction(int(d), 830) for d in self.NEGATIVE_VERTEX]
        )
        return MarginalFamily(
            5, 3, [3] * 5, {a: project(mu, a) for a in all_index_sets(5, 3)}
        )

    def test_slightly_negative_highs_vertex(self, monkeypatch):
        fam = self.negative_vertex_family()
        verdict = fb.kellerer_check(fam, arithmetic="float")
        assert verdict.feasible
        assert min(verdict.witness.weights) >= 0
        for alpha in fam.index_sets():
            got = project(verdict.witness, alpha).weights
            assert max(abs(g - w) for g, w in zip(got, fam[alpha].weights)) < 1e-9

        def no_tableau(self, *args):
            raise AssertionError("the exact tableau was built")

        monkeypatch.setattr(lp_core._ExactTableau, "__init__", no_tableau)
        verdict = fb.kellerer_check(fam)
        assert verdict.feasible
        for alpha in fam.index_sets():
            assert project(verdict.witness, alpha) == fam[alpha]

    def test_negative_vertex_family_certified_by_one_highs_call(self, monkeypatch):
        # Every HiGHS solve is tight, and its vertex here passes the exact
        # check at once: no LP is solved a second time.
        calls = []
        highs = lp_core._highs
        monkeypatch.setattr(lp_core, "_highs", lambda *args: calls.append(1) or highs(*args))
        assert fb.kellerer_check(self.negative_vertex_family()).feasible
        assert len(calls) == 1

    def test_unknown_arithmetic_refused_without_a_solve(self):
        with pytest.raises(DomainError, match="unknown arithmetic mode"):
            fb.kellerer_check(fb.make_modk_counterexample(3, 2), arithmetic="rational")

    @pytest.mark.parametrize("mode", ["exact", "float"])
    def test_padded_two_point_certificate_sunk_for_the_full_lp(self, monkeypatch, mode):
        # The LP is posed on the 8 charged cells, and its Farkas ray must be
        # sunk to hold on the 19 dropped ones too.
        fam = padded_two_point()
        solved, sunk = [], []
        real_solve, real_lift = lp_core.solve, fb.lift
        monkeypatch.setattr(
            lp_core, "solve",
            lambda p, *args, **kw: solved.append(p.ncols) or real_solve(p, *args, **kw),
        )

        def spy(fam, prices, bound, every_cell):
            out = real_lift(fam, prices, bound, every_cell)
            sunk.append(out is not prices)
            return out

        monkeypatch.setattr(fb, "lift", spy)
        verdict = fb.kellerer_check(fam, arithmetic=mode)
        assert not verdict.feasible and solved == [8] and sunk == [True]
        problem = lp_core.LPProblem(*fb.marginal_constraint_rows(fam))
        ray = [-v for alpha in fam.index_sets() for v in verdict.potentials[alpha]]
        assert lp_core.check_certificate(problem, ray)
        assert min(cell_sums(fam.full_grid(), verdict.potentials)) >= 0

    @pytest.mark.parametrize("mode", ["exact", "float"])
    @pytest.mark.parametrize("n, k", [(5, 3), (7, 2)])
    def test_modk_verdict_as_with_per_cell_fraction_sums(self, monkeypatch, n, k, mode):
        # lift adds exact potentials as integers over one denominator; with
        # the per-cell Fraction sum in its place the verdict is the same,
        # and on both runs lift lowers a price.
        lowered = []
        real_lift = fb.lift

        def spy(fam, prices, bound, every_cell):
            out = real_lift(fam, prices, bound, every_cell)
            lowered.append(any(v < p for a in prices for v, p in zip(out[a], prices[a])))
            return out

        monkeypatch.setattr(fb, "lift", spy)
        fast = fb.kellerer_check(fb.make_modk_counterexample(n, k), arithmetic=mode)
        monkeypatch.setattr(fb, "scaled_cell_sums", lambda g, f: scaled(fraction_cell_sums(g, f)))
        slow = fb.kellerer_check(fb.make_modk_counterexample(n, k), arithmetic=mode)
        assert not fast.feasible and not slow.feasible and lowered == [True, True]
        assert fast.potentials == slow.potentials
        fam = fb.make_modk_counterexample(n, k)
        problem = lp_core.LPProblem(*fb.marginal_constraint_rows(fam))
        ray = [-v for alpha in fam.index_sets() for v in fast.potentials[alpha]]
        assert lp_core.check_certificate(problem, ray)

    @pytest.mark.parametrize(
        "mode, family, calls",
        [
            ("exact", "modk53", 2),
            ("exact", "padded", 2),
            ("float", "modk53", 2),
            ("float", "padded", 2),
            ("exact", "two_point", 1),
            ("float", "two_point", 0),
        ],
    )
    def test_grid_sums_per_kellerer_check(self, monkeypatch, mode, family, calls):
        # A ray that lift lowers is summed twice, each time in one pass of
        # scaled_cell_sums: to find a dropped cell above 0, and to check the
        # lowered one (exact: on every cell).  The two-point family drops no
        # cell, so only exact mode sums it.
        fam = {
            "modk53": lambda: fb.make_modk_counterexample(5, 3),
            "padded": padded_two_point,
            "two_point": lambda: fb.make_two_point_counterexample(Fraction(5, 2)),
        }[family]()
        counted, real_sums = [], fb.scaled_cell_sums
        monkeypatch.setattr(fb, "scaled_cell_sums", lambda *a: counted.append(1) or real_sums(*a))
        assert not fb.kellerer_check(fam, mode).feasible
        assert len(counted) == calls

    def test_lift_checks_every_cell_only_when_asked(self):
        # One price raised by 1 puts the supported cells through it above
        # their bound 0 and no dropped cell above its bound 1.
        fam = padded_two_point()
        assert isinstance(fb.marginal_lp(fam, None, "exact"), lp_core.LPSolution)
        supported = set(fb.supported_columns(fam))
        bound = [0 if j in supported else 1 for j in range(fam.full_grid().ncells)]
        prices = {alpha: (0,) * 9 for alpha in fam.index_sets()}
        first = fam.index_sets()[0]
        assert fam[first].weights[0] != 0
        prices[first] = (1,) + (0,) * 8
        assert fb.lift(fam, prices, bound, False) is prices
        with pytest.raises(lp_core.CertificationError):
            fb.lift(fam, prices, bound, True)

    def test_nonuniform_witness(self):
        from mmk.case_studies import build_nonuniform_2x2x2

        verdict = fb.kellerer_check(build_nonuniform_2x2x2())
        assert verdict.feasible
        assert verdict.witness.weight((0, 0, 0)) == 0
        assert verdict.witness.weight((1, 1, 1)) == 0
        assert verdict.witness.weight((0, 1, 1)) == Fraction(1, 6)


def reference_lift(fam, prices, bound, every_cell):
    """lift on per-cell Fraction sums: each sum compared with its bound as
    Fractions, s from the maxima of the absolute values themselves."""
    grid = fam.full_grid()
    kept = set(fam._lp[0])
    dropped = [j for j in range(grid.ncells) if j not in kept]
    if not dropped and not every_cell:
        return prices
    totals = fraction_cell_sums(grid, prices)
    if any(totals[j] > bound[j] for j in dropped):
        alphas = fam.index_sets()
        s = sum(max(abs(v) for v in prices[a]) for a in alphas) + max(map(abs, bound)) + 1
        prices = {
            a: tuple(v if w != 0 else min(v, -s) for v, w in zip(prices[a], fam[a].weights))
            for a in alphas
        }
        totals = fraction_cell_sums(grid, prices)
    if any(totals[j] > bound[j] for j in (range(grid.ncells) if every_cell else dropped)):
        raise lp_core.CertificationError("lifted prices exceed the bound on a cell")
    return prices


class TestLiftInIntegers:
    """lift decides each sum of prices against its bound in integers and
    returns what the per-cell Fraction reference returns, or raises the
    same CertificationError, on families with zero marginal weights."""

    @staticmethod
    def families():
        rng = random.Random(5)
        fams = [padded_two_point(), fb.make_modk_counterexample(4, 2),
                fb.make_modk_counterexample(4, 3), fb.make_modk_counterexample(5, 3)]
        for n, k, sizes in [(3, 2, [3, 3, 3]), (4, 3, [2, 2, 2, 2]), (3, 1, [3, 2, 2])]:
            fam = sparse_family(rng, n, k, sizes)
            while all(w != 0 for a in fam.index_sets() for w in fam[a].weights):
                fam = sparse_family(rng, n, k, sizes)
            fams.append(fam)
        for fam in fams:
            fb.marginal_lp(fam, None, "exact")
            assert len(fam._lp[0]) < fam.full_grid().ncells
        return fams

    @staticmethod
    def draw(rng, size, kind):
        """size Fractions in [-60, 60], or floats or ints in [-5, 5]; all
        of them <= 0 a third of the time."""
        value = {
            "fraction": lambda: Fraction(rng.randint(-60, 60), rng.randint(1, 12)),
            "float": lambda: rng.uniform(-5, 5),
            "int": lambda: rng.randint(-5, 5),
        }[kind]
        values = [value() for _ in range(size)]
        return tuple(-abs(v) for v in values) if rng.random() < 1 / 3 else tuple(values)

    @pytest.mark.parametrize("kind", ["fraction", "float", "int"])
    def test_lift_matches_the_fraction_reference(self, kind):
        rng = random.Random(kind)
        outcomes = set()
        for fam in self.families():
            ncells = fam.full_grid().ncells
            for trial in range(40):
                prices = {a: self.draw(rng, len(fam[a].weights), kind) for a in fam.index_sets()}
                bound = ([0] * ncells if trial % 2 else
                         [Fraction(rng.randint(0, 20), rng.randint(1, 3)) for _ in range(ncells)])
                for every_cell in (False, True):
                    try:
                        want = reference_lift(fam, prices, bound, every_cell)
                    except lp_core.CertificationError as err:
                        with pytest.raises(lp_core.CertificationError, match=str(err)):
                            fb.lift(fam, prices, bound, every_cell)
                        outcomes.add("raised")
                        continue
                    got = fb.lift(fam, prices, bound, every_cell)
                    assert got == want
                    assert [type(v) for a in got for v in got[a]] == [
                        type(v) for a in want for v in want[a]]
                    outcomes.add("lowered" if want is not prices else "kept")
        assert outcomes == {"raised", "lowered", "kept"}


class TestProjectionRows:
    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(FAMILY_SHAPES), st.integers(0, 10**6), st.data())
    def test_columns_sum_to_the_projections(self, shape, seed, data):
        # A pi, summed over the columns, is the concatenated projections of
        # pi; the columns of some cells are the full columns at those cells.
        n, k, sizes = shape
        fam = sparse_family(random.Random(seed), n, k, sizes)
        grid = fam.full_grid()
        weight = st.integers(0, 9)
        pi = DiscreteMeasure(
            grid, data.draw(st.lists(weight, min_size=grid.ncells, max_size=grid.ncells)))
        columns, rhs = fb.marginal_constraint_rows(fam)
        a_pi = [0] * len(rhs)
        for column, w in zip(columns, pi.weights):
            for i in column:
                a_pi[i] += w
        alphas = fam.index_sets()
        assert a_pi == [w for alpha in alphas for w in project(pi, alpha).weights]
        assert rhs == [w for alpha in alphas for w in fam[alpha].weights]
        cells = sorted(data.draw(st.sets(st.integers(0, grid.ncells - 1))))
        assert fb.marginal_constraint_rows(fam, cells) == ([columns[j] for j in cells], rhs)

    @settings(max_examples=30, deadline=None)
    @given(st.sampled_from(FAMILY_SHAPES), st.integers(0, 10**6))
    def test_supported_columns_match_reference_loop(self, shape, seed):
        n, k, sizes = shape
        fam = sparse_family(random.Random(seed), n, k, sizes)
        grid = fam.full_grid()
        keep = [
            j
            for j, cell in enumerate(grid.cells())
            if all(
                fam[alpha].weight([cell[a - 1] for a in alpha]) != 0
                for alpha in fam.index_sets()
            )
        ]
        assert fb.supported_columns(fam) == keep


class TestMarginalLPPosedOnce:
    """marginal_lp poses a family's LP on its first call and re-solves that
    LP for every later objective, sense and arithmetic."""

    @staticmethod
    def nonstrong_support(N):
        return [
            tuple(c - 1 for c in pt)
            for n in range(1, N)
            for pt in cs._a_points(n) + cs._b_points(n)
        ]

    def test_mass_extremes_match_a_fresh_family(self):
        fam, _ = cs.build_nonstrong(8)
        cells = self.nonstrong_support(8)
        want = {}
        for mode in ("exact", "float", "exact"):
            for cell in cells:
                for extreme in (cs.min_mass_at_cell, cs.max_mass_at_cell):
                    key = mode, cell, extreme
                    if key not in want:
                        want[key] = extreme(cs.build_nonstrong(8)[0], cell, mode)
                    assert extreme(fam, cell, mode) == want[key]

    def test_kellerer_exact_then_float_match_a_fresh_family(self):
        fam = random_family(random.Random(5), 4, 2, [3] * 4)
        for mode in ("exact", "float"):
            fresh = random_family(random.Random(5), 4, 2, [3] * 4)
            verdict, want = fb.kellerer_check(fam, mode), fb.kellerer_check(fresh, mode)
            assert verdict.feasible and want.feasible
            assert verdict.witness.weights == want.witness.weights

    def test_exact_cap_holds_after_a_float_solve(self, monkeypatch):
        # 27 supported cells and 3 marginals: 81 nonzeros.
        fam = random_family(random.Random(3), 3, 2, [3, 3, 3])
        monkeypatch.setattr(lp_core, "EXACT_NONZERO_CAP", 80)
        with pytest.raises(lp_core.SizeCapError):
            fb.kellerer_check(fam)
        assert fb.kellerer_check(fam, arithmetic="float").feasible
        for check in (fb.kellerer_check, lambda f: cs.min_mass_at_cell(f, (0, 0, 0))):
            with pytest.raises(lp_core.SizeCapError):
                check(fam)

    def test_posed_once_under_pass_through_wrappers(self, monkeypatch):
        # The benchmark's tracer replaces these two with plain functions.
        nonstrong, _ = cs.build_nonstrong(6)
        random_fam = random_family(random.Random(9), 3, 2, [3, 3, 3])
        # min_mass_at_cell's one-cell objective, posed directly: an exact
        # mass extreme of this family reads unique_uniting's certificate,
        # whose off-support LP builds a quotient LPProblem of its own.
        objective = [0] * nonstrong.full_grid().ncells
        objective[nonstrong.full_grid().ravel(self.nonstrong_support(6)[0])] = 1
        want_min = fb.marginal_lp(cs.build_nonstrong(6)[0], objective, "exact").value
        want_witness = fb.kellerer_check(random_family(random.Random(9), 3, 2, [3, 3, 3])).witness
        calls = []
        rows, problem = fb.marginal_constraint_rows, lp_core.LPProblem
        monkeypatch.setattr(
            fb,
            "marginal_constraint_rows",
            lambda *args, **kw: calls.append("rows") or rows(*args, **kw),
        )
        monkeypatch.setattr(
            lp_core, "LPProblem", lambda *args, **kw: calls.append("LP") or problem(*args, **kw)
        )
        for _ in range(2):
            assert fb.marginal_lp(nonstrong, objective, "exact").value == want_min
            assert fb.kellerer_check(random_fam).witness == want_witness
        assert calls == ["rows", "LP", "rows", "LP"]


class TestDensityBounds:
    def test_product_is_unit_ratio(self):
        mus = [
            DiscreteMeasure(
                ProductGrid([2], axes=[i]), [Fraction(1, 3), Fraction(2, 3)]
            )
            for i in (1, 2, 3)
        ]
        full = product(mus)
        fam = MarginalFamily(
            3,
            2,
            [2, 2, 2],
            {alpha: project(full, alpha) for alpha in all_index_sets(3, 2)},
        )
        bounds = fb.density_bounds(fam, mus)
        assert bounds.m == bounds.M == 1

    def test_two_point_ratio(self):
        for r in (Fraction(3, 2), Fraction(2), Fraction(5, 2)):
            fam = fb.make_two_point_counterexample(r)
            bounds = fb.density_bounds(
                fam, [uniform([2], axes=[a]) for a in (1, 2, 3)]
            )
            assert bounds.ratio == r

    def test_nonuniform_bounds(self):
        from mmk.case_studies import build_nonuniform_2x2x2

        fam = build_nonuniform_2x2x2()
        bounds = fb.density_bounds(
            fam, [uniform([2], axes=[a]) for a in (1, 2, 3)]
        )
        assert (bounds.m, bounds.M) == (Fraction(2, 3), Fraction(4, 3))

    def test_absolute_continuity_enforced(self):
        fam = fb.make_two_point_counterexample(2)
        refs = [
            DiscreteMeasure(ProductGrid([2], axes=[a]), [1, 0]) for a in (1, 2, 3)
        ]
        with pytest.raises(DomainError):
            fb.density_bounds(fam, refs)


class TestDensityConstructions:
    def refs(self):
        return [uniform([2], axes=[a]) for a in (1, 2, 3)]

    def refs3(self):
        return [uniform([3], axes=[a]) for a in (1, 2, 3)]

    def test_density32_two_point(self):
        fam = fb.make_two_point_counterexample(Fraction(3, 2))
        mu = fb.uniting_by_density_32(fam, self.refs())
        for alpha in fam.index_sets():
            assert project(mu, alpha) == fam[alpha]

    def test_density32_ratio_too_big(self):
        fam = fb.make_two_point_counterexample(2)
        with pytest.raises(fb.PreconditionError):
            fb.uniting_by_density_32(fam, self.refs())

    def test_density32_random_mild_families(self):
        # Densities in [1, 1.4] of the uniform reference.
        rng = random.Random(3)
        for _ in range(5):
            grid = ProductGrid([3, 3, 3])
            raw = [Fraction(rng.randint(10, 14), 10) for _ in range(27)]
            total = sum(raw)
            mu = DiscreteMeasure(grid, [w / total for w in raw])
            fam = MarginalFamily(
                3,
                2,
                [3, 3, 3],
                {alpha: project(mu, alpha) for alpha in all_index_sets(3, 2)},
            )
            refs = self.refs3()
            if fb.density_bounds(fam, refs).ratio <= Fraction(3, 2):
                got = fb.uniting_by_density_32(fam, refs)
                assert got.is_nonnegative()

    def test_density2_pipeline_ratios(self):
        for r in (1, Fraction(7, 4), Fraction(19, 10), 2):
            fam = fb.make_two_point_counterexample(Fraction(r))
            mu = fb.uniting_by_density_2(fam, self.refs())
            for alpha in fam.index_sets():
                got = project(mu, alpha)
                assert all(
                    a == b for a, b in zip(got.weights, fam[alpha].weights)
                )

    def test_density2_agrees_with_kellerer(self):
        rng = random.Random(4)
        hits = 0
        for _ in range(20):
            grid = ProductGrid([2, 2, 2])
            raw = [Fraction(rng.randint(10, 19), 10) for _ in range(8)]
            total = sum(raw)
            mu = DiscreteMeasure(grid, [w / total for w in raw])
            fam = MarginalFamily(
                3,
                2,
                [2, 2, 2],
                {alpha: project(mu, alpha) for alpha in all_index_sets(3, 2)},
            )
            refs = self.refs()
            if fb.density_bounds(fam, refs).ratio > 2:
                continue
            hits += 1
            got = fb.uniting_by_density_2(fam, refs)
            assert got.is_nonnegative()
            assert fb.kellerer_check(fam).feasible
        assert hits > 0

    def test_density2_rational_weights_are_fractions(self):
        # At ratio 19/10 the Q(u) branch runs with u irrational, yet every
        # weight's irrational part is 0: the result must be plain Fractions,
        # hashable and JSON-encodable.
        fam = fb.make_two_point_counterexample(Fraction(19, 10))
        mu = fb.uniting_by_density_2(fam, self.refs())
        assert all(type(w) is Fraction for w in mu.weights)
        assert type(mu.mass) is Fraction and mu.mass == 1
        hash(mu)
        assert len(measure_to_json(mu)["weights"]) == 8

    def test_constructions_over_the_float_cap(self, monkeypatch):
        # A uniform (3,2) family on 120^3 meets both preconditions, and its
        # 1,728,000 cells times 3 marginals exceed the float cap: both
        # constructions refuse it before building a full-grid product.
        real = fb.product

        def marginal_sized(factors):
            cells = math.prod(s for f in factors for s in f.grid.sizes)
            assert cells <= 120 * 120, "a full-grid product is being built"
            return real(factors)

        monkeypatch.setattr(fb, "product", marginal_sized)
        fam = MarginalFamily(
            3, 2, [120] * 3, {a: uniform([120, 120], axes=tuple(a)) for a in all_index_sets(3, 2)}
        )
        refs = [uniform([120], axes=[a]) for a in (1, 2, 3)]
        with pytest.raises(lp_core.SizeCapError, match="5184000 nonzeros"):
            fb.uniting_by_density_32(fam, refs)
        with pytest.raises(lp_core.SizeCapError, match="5184000 nonzeros"):
            fb.uniting_by_twothirds(fam)

    def test_formulas_match_a_cellwise_oracle(self):
        # The density-3/2 and two-thirds formulas evaluated cell by cell
        # from the marginals with plain loops, against the template.
        rng = random.Random(22)
        hits = 0
        refs = self.refs3()
        for _ in range(8):
            # Densities in [1, 1.4] of the uniform reference.
            raw = [Fraction(rng.randint(10, 14), 10) for _ in range(27)]
            mu = DiscreteMeasure(ProductGrid([3, 3, 3]), [w / sum(raw) for w in raw])
            fam = MarginalFamily(
                3, 2, [3, 3, 3], {a: project(mu, a) for a in all_index_sets(3, 2)}
            )
            p = {(i, j): fam[IndexSet([i, j])] for i, j in ((1, 2), (1, 3), (2, 3))}
            m1 = [sum(p[1, 2].weight((x, y)) for y in range(3)) for x in range(3)]
            m2 = [sum(p[1, 2].weight((x, y)) for x in range(3)) for y in range(3)]
            m3 = [sum(p[1, 3].weight((x, z)) for x in range(3)) for z in range(3)]
            nu = Fraction(1, 3)
            d32, d23 = [], []
            for x, y, z in ProductGrid([3, 3, 3]).cells():
                a, b, c = m1[x], m2[y], m3[z]
                pxy = p[1, 2].weight((x, y))
                pxz = p[1, 3].weight((x, z))
                pyz = p[2, 3].weight((y, z))
                d32.append(
                    4 * a * b * c
                    - 2 * (nu * b * c + a * nu * c + a * b * nu)
                    + 2 * (pxy * nu + pxz * nu + pyz * nu)
                    - (pxy * c + pxz * b + pyz * a)
                )
                d23.append(
                    (pxy - Fraction(2, 3) * a * b) * c
                    + (pxz - Fraction(2, 3) * a * c) * b
                    + (pyz - Fraction(2, 3) * b * c) * a
                )
            if fb.density_bounds(fam, refs).ratio <= Fraction(3, 2):
                hits += 1
                assert fb.uniting_by_density_32(fam, refs).weights == tuple(d32)
                assert fb.uniting_by_twothirds(fam).weights == tuple(d23)
        assert hits >= 4

    def test_density2_over_the_exact_cap_builds_nothing(self, monkeypatch):
        def uniform_case(N):
            marginals = {a: uniform([N, N], axes=tuple(a)) for a in all_index_sets(3, 2)}
            refs = [uniform([N], axes=[a]) for a in (1, 2, 3)]
            return MarginalFamily(3, 2, [N] * 3, marginals), refs

        # Uniform marginals on 30^3 meet M/m <= 2, and their extraction LP
        # of 3 * 27000 + 2700 = 83700 nonzeros has a small quotient.
        assert fb.uniting_by_density_2(*uniform_case(30)).mass == 1

        # On 120^3 it would have 3 * 1728000 + 43200 = 5227200 nonzeros:
        # the memory cap refuses it before anything is built.
        built = []

        def spy(real):
            return lambda *args: built.append(real) or real(*args)

        monkeypatch.setattr(fb, "marginal_constraint_rows", spy(fb.marginal_constraint_rows))
        monkeypatch.setattr(lp_core, "LPProblem", spy(lp_core.LPProblem))
        with pytest.raises(lp_core.SizeCapError, match="5227200 nonzeros exceeds the cap"):
            fb.uniting_by_density_2(*uniform_case(120))
        assert not built

        # A family without symmetry has no quotient, so the exact-mode cap
        # reads its whole extraction LP: 3 * 27 + 27 = 108 nonzeros.
        rng = random.Random(3)
        raw = [Fraction(rng.randint(10, 14), 10) for _ in range(27)]
        mu = DiscreteMeasure(ProductGrid([3, 3, 3]), [w / sum(raw) for w in raw])
        fam = MarginalFamily(3, 2, [3, 3, 3], {a: project(mu, a) for a in all_index_sets(3, 2)})
        monkeypatch.setattr(lp_core, "EXACT_NONZERO_CAP", 107)
        with pytest.raises(lp_core.SizeCapError, match="108 nonzeros exceeds the exact-mode cap"):
            fb.uniting_by_density_2(fam, self.refs3())

    def test_density2_ratio_too_big(self):
        fam = fb.make_two_point_counterexample(Fraction(5, 2))
        with pytest.raises(fb.PreconditionError):
            fb.uniting_by_density_2(fam, self.refs())

    def test_twothirds_uniform(self):
        marg = {
            alpha: uniform([2, 2], axes=tuple(alpha))
            for alpha in all_index_sets(3, 2)
        }
        fam = MarginalFamily(3, 2, [2, 2, 2], marg)
        mu = fb.uniting_by_twothirds(fam)
        for alpha in fam.index_sets():
            assert project(mu, alpha) == fam[alpha]

    def test_twothirds_nonuniform(self):
        from mmk.case_studies import build_nonuniform_2x2x2

        fam = build_nonuniform_2x2x2()
        mu = fb.uniting_by_twothirds(fam)
        for alpha in fam.index_sets():
            assert project(mu, alpha) == fam[alpha]

    def test_twothirds_violation_pinpointed(self):
        fam = fb.make_two_point_counterexample(3)
        with pytest.raises(fb.PreconditionError) as err:
            fb.uniting_by_twothirds(fam)
        assert "cell" in str(err.value)


class TestCounterexamples:
    def test_modk_consistent_infeasible(self):
        for n, k in [(3, 2), (4, 2), (4, 3)]:
            fam = fb.make_modk_counterexample(n, k)
            assert is_consistent(fam)
            assert not fb.kellerer_check(fam).feasible

    def test_modk_weights(self):
        fam = fb.make_modk_counterexample(3, 2)
        alpha = IndexSet([1, 2])
        assert fam[alpha].weight((0, 1)) == Fraction(1, 2)
        assert fam[alpha].weight((0, 0)) == 0

    def test_modk_domain(self):
        with pytest.raises(DomainError):
            fb.make_modk_counterexample(3, 1)
        with pytest.raises(DomainError):
            fb.make_modk_counterexample(3, 3)

    def test_two_point_monotone_in_ratio(self):
        feasible = []
        for r in [1, Fraction(3, 2), 2, Fraction(21, 10), Fraction(5, 2), 4]:
            fam = fb.make_two_point_counterexample(Fraction(r))
            feasible.append(fb.kellerer_check(fam).feasible)
        assert feasible == [True, True, True, False, False, False]

    def test_two_point_masses(self):
        fam = fb.make_two_point_counterexample(Fraction(5, 2))
        for alpha in fam.index_sets():
            assert fam[alpha].mass == 1
            assert fam[alpha].weight((0, 1)) == Fraction(5, 2) * fam[alpha].weight(
                (0, 0)
            )
