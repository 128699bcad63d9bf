"""Grids, measures, projections, products, families, JSON round-trips."""

import itertools
import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mmk.measures import (
    DiscreteMeasure,
    DomainError,
    IndexSet,
    MarginalFamily,
    ProductGrid,
    SignedDiscreteMeasure,
    all_index_sets,
    as_fraction,
    cell_sums,
    dirac,
    integral,
    is_consistent,
    lower_marginal,
    measure_from_json,
    measure_to_json,
    product,
    project,
    scaled,
    uniform,
    uniform_family,
)
from mmk.lp_core import LPProblem, check_certificate
from mmk.transport import CostGrid, check_dual_feasible


def rationals():
    return st.fractions(min_value=0, max_value=10, max_denominator=20)


def small_grids():
    return st.lists(st.integers(1, 3), min_size=1, max_size=3).map(ProductGrid)


def measures_on(grid):
    return st.lists(
        rationals(), min_size=grid.ncells, max_size=grid.ncells
    ).map(lambda ws: DiscreteMeasure(grid, ws))


class TestIndexSet:
    def test_sorted_and_deduplicated(self):
        assert IndexSet([3, 1]).members == (1, 3)
        with pytest.raises(DomainError):
            IndexSet([1, 1])
        with pytest.raises(DomainError):
            IndexSet([0])

    def test_key_round_trip(self):
        alpha = IndexSet([2, 5])
        assert IndexSet.from_key(alpha.key()) == alpha

    def test_all_index_sets(self):
        assert len(all_index_sets(4, 2)) == 6
        assert all_index_sets(3, 2)[0] == IndexSet([1, 2])


class TestProductGrid:
    def test_ravel_unravel_inverse(self):
        grid = ProductGrid([2, 3, 4])
        for j in range(grid.ncells):
            assert grid.ravel(grid.unravel(j)) == j

    def test_subgrid_keeps_labels(self):
        grid = ProductGrid([2, 3, 4])
        sub = grid.subgrid(IndexSet([1, 3]))
        assert sub.axes == (1, 3)
        assert sub.sizes == (2, 4)

    def test_invalid(self):
        with pytest.raises(DomainError):
            ProductGrid([0])
        with pytest.raises(DomainError):
            ProductGrid([2, 2], axes=[2, 1])

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_projection_index_matches_ravel_of_projected_cell(self, data):
        sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
        axes = sorted(
            data.draw(
                st.sets(st.integers(1, 6), min_size=len(sizes), max_size=len(sizes))
            )
        )
        grid = ProductGrid(sizes, axes=axes)
        for size in range(len(axes) + 1):
            for members in itertools.combinations(axes, size):
                alpha = IndexSet(members)
                sub = grid.subgrid(alpha)
                positions = [grid.axes.index(a) for a in alpha]
                expected = tuple(
                    sub.ravel([cell[p] for p in positions]) for cell in grid.cells()
                )
                assert grid.projection_index(alpha) == expected

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_section_matches_replaced_coordinates(self, data):
        sizes = data.draw(st.lists(st.integers(1, 4), min_size=1, max_size=4))
        axes = sorted(
            data.draw(
                st.sets(st.integers(1, 6), min_size=len(sizes), max_size=len(sizes))
            )
        )
        grid = ProductGrid(sizes, axes=axes)
        base = [data.draw(st.integers(0, s - 1)) for s in sizes]
        for size in range(len(axes) + 1):
            for members in itertools.combinations(axes, size):
                alpha = IndexSet(members)
                positions = [grid.axes.index(a) for a in alpha]
                expected = []
                for sub_cell in grid.subgrid(alpha).cells():
                    cell = list(base)
                    for p, v in zip(positions, sub_cell):
                        cell[p] = v
                    expected.append(grid.ravel(cell))
                assert grid.section(alpha, base) == expected

    def test_section_rejects_foreign_axes_and_cells(self):
        grid = ProductGrid([2, 3])
        with pytest.raises(DomainError):
            grid.section(IndexSet([1, 3]), (0, 0))
        with pytest.raises(DomainError):
            grid.section(IndexSet([1]), (0, 3))

    def test_projection_index_rejects_foreign_axes(self):
        with pytest.raises(DomainError):
            ProductGrid([2, 3]).projection_index(IndexSet([1, 3]))
        with pytest.raises(DomainError, match="not a subset of grid axes"):
            ProductGrid([2, 3], axes=(2, 3)).subgrid(IndexSet([1]))


class TestMeasures:
    def test_uniform_mass(self):
        assert uniform([2, 3]).mass == 1

    def test_dirac(self):
        grid = ProductGrid([2, 2])
        d = dirac(grid, (1, 0))
        assert d.weight((1, 0)) == 1 and d.mass == 1

    def test_negative_weight_rejected(self):
        grid = ProductGrid([2])
        with pytest.raises(DomainError):
            DiscreteMeasure(grid, [Fraction(-1), Fraction(2)])
        SignedDiscreteMeasure(grid, [Fraction(-1), Fraction(2)])

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_projection_preserves_mass(self, data):
        grid = data.draw(small_grids())
        mu = data.draw(measures_on(grid))
        alpha = IndexSet(
            data.draw(
                st.sets(
                    st.sampled_from(grid.axes), min_size=1, max_size=len(grid.axes)
                )
            )
        )
        assert project(mu, alpha).mass == mu.mass

    @settings(max_examples=30, deadline=None)
    @given(st.data())
    def test_project_of_product_recovers_factor(self, data):
        g1 = ProductGrid([data.draw(st.integers(1, 3))], axes=[1])
        g2 = ProductGrid([data.draw(st.integers(1, 3))], axes=[2])
        m1 = data.draw(measures_on(g1))
        m2 = data.draw(measures_on(g2))
        if m2.mass == 0:
            return
        p = product([m1, m2])
        got = project(p, IndexSet([1]))
        assert all(
            a == b * m2.mass for a, b in zip(got.weights, m1.weights)
        )

    def test_product_interleaves_axes(self):
        a13 = uniform([2, 3], axes=[1, 3])
        a2 = uniform([4], axes=[2])
        p = product([a13, a2])
        assert p.grid.axes == (1, 2, 3)
        assert p.grid.sizes == (2, 4, 3)
        assert project(p, IndexSet([1, 3])) == a13

    def test_product_rejects_overlap(self):
        with pytest.raises(DomainError):
            product([uniform([2], axes=[1]), uniform([2], axes=[1])])


class TestMarginalFamily:
    def build(self):
        marg = {
            alpha: uniform([2, 2], axes=tuple(alpha))
            for alpha in all_index_sets(3, 2)
        }
        return MarginalFamily(3, 2, [2, 2, 2], marg)

    def test_grid_and_index_sets_kept_from_construction(self):
        fam = self.build()
        assert fam.full_grid() is fam.full_grid() and fam.full_grid() == ProductGrid([2] * 3)
        assert fam.index_sets() is fam.index_sets()
        assert fam.index_sets() == tuple(all_index_sets(3, 2))
        assert uniform_family([2, 2, 2], 2).marginals == fam.marginals

    def test_keys_must_cover_index_sets(self):
        marg = {IndexSet([1, 2]): uniform([2, 2], axes=(1, 2))}
        with pytest.raises(DomainError):
            MarginalFamily(3, 2, [2, 2, 2], marg)

    def test_mass_must_be_one(self):
        marg = {
            alpha: uniform([2, 2], axes=tuple(alpha))
            for alpha in all_index_sets(3, 2)
        }
        bad = DiscreteMeasure(ProductGrid([2, 2], axes=(1, 2)), [1, 1, 1, 1])
        marg[IndexSet([1, 2])] = bad
        with pytest.raises(DomainError):
            MarginalFamily(3, 2, [2, 2, 2], marg)

    def test_integral_of_functions_on_the_marginal_grids(self):
        fam = self.build()
        f = {
            IndexSet([1, 2]): (4, 0, 0, 0),
            IndexSet([1, 3]): (1, 1, 1, 1),
            IndexSet([2, 3]): (0, 0, 0, Fraction(-8)),
        }
        assert integral(fam, f) == 1 + 1 - 2
        assert integral(fam, {}) == 0
        floats = {a: (0.5, 0.25, 0.25, 0.0) for a in fam.index_sets()}
        assert integral(fam, floats) == 0.75

    @pytest.mark.parametrize("size", [2.7, True, "3"])
    def test_sizes_must_be_integers(self, size):
        # int() would make 2.7 a 2 and True a 1 without a word.
        with pytest.raises(DomainError, match="expected an integer"):
            ProductGrid([size, 2])
        with pytest.raises(DomainError, match="expected an integer"):
            MarginalFamily(3, 2, [2, 2, size], self.build().marginals)

    def test_marginals_are_read_only(self):
        fam = self.build()
        with pytest.raises(TypeError):
            fam.marginals[IndexSet([1, 2])] = uniform([2, 2], axes=(1, 2))

    def test_consistency_of_projected_family(self):
        fam = self.build()
        assert is_consistent(fam)

    def test_inconsistency_detected(self):
        marg = {
            alpha: uniform([2, 2], axes=tuple(alpha))
            for alpha in all_index_sets(3, 2)
        }
        skew = DiscreteMeasure(
            ProductGrid([2, 2], axes=(1, 2)),
            [Fraction(1, 2), Fraction(1, 2), 0, 0],
        )
        marg[IndexSet([1, 2])] = skew
        fam = MarginalFamily(3, 2, [2, 2, 2], marg)
        report = is_consistent(fam)
        assert not report
        assert report.failures

    @staticmethod
    def pairwise_failures(fam):
        """The reference check: every pair of marginals whose overlaps differ."""
        sets = fam.index_sets()
        return {
            (a, b)
            for i, a in enumerate(sets)
            for b in sets[i + 1 :]
            if (common := set(a) & set(b))
            and project(fam[a], IndexSet(common)) != project(fam[b], IndexSet(common))
        }

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_consistency_agrees_with_pairwise_reference(self, data):
        n = data.draw(st.integers(2, 4))
        k = data.draw(st.integers(1, n - 1))
        grid = ProductGrid([data.draw(st.integers(2, 3)) for _ in range(n)])
        raw = [data.draw(st.integers(1, 3)) for _ in range(grid.ncells)]
        mu = DiscreteMeasure(grid, [Fraction(w, sum(raw)) for w in raw])
        marginals = {alpha: project(mu, alpha) for alpha in all_index_sets(n, k)}
        # Perturbed families: in up to two marginals, add +-delta on the
        # corners of a box over one or two axes, with alternating signs.  A
        # box over axes S changes the projections onto the sets that hold
        # all of S and no other: a one-axis box shows only on some
        # (k-1)-sets, and a two-axis box keeps a (k,2) family consistent.
        for alpha in data.draw(st.sets(st.sampled_from(all_index_sets(n, k)), max_size=2)):
            sub = marginals[alpha].grid
            weights = list(marginals[alpha].weights)
            low = [data.draw(st.integers(0, size - 2)) for size in sub.sizes]
            box = data.draw(st.sets(st.integers(0, k - 1), min_size=1, max_size=2))
            corners = [
                (sub.ravel(tuple(c + o for c, o in zip(low, offset))), (-1) ** sum(offset))
                for offset in itertools.product(*[(0, 1) if t in box else (0,) for t in range(k)])
            ]
            delta = min(weights[i] for i, sign in corners if sign < 0) / 2
            for i, sign in corners:
                weights[i] += sign * delta
            marginals[alpha] = DiscreteMeasure(sub, weights)
        fam = MarginalFamily(n, k, grid.sizes, marginals)
        reference = self.pairwise_failures(fam)
        report = is_consistent(fam)
        assert bool(report) == (not reference)
        assert set(report.failures) <= reference

    def test_lower_marginal(self):
        fam = self.build()
        one = lower_marginal(fam, IndexSet([2]))
        assert one.grid.axes == (2,)
        assert one.weights == (Fraction(1, 2), Fraction(1, 2))


def fraction_cell_sums(grid, functions):
    """The oracle: sum_alpha f_alpha(x_alpha), one Fraction addition per
    cell, each value taken as its exact Fraction."""
    totals = [Fraction(0)] * grid.ncells
    for alpha, values in functions.items():
        index = grid.projection_index(alpha)
        totals = [s + Fraction(values[i]) for s, i in zip(totals, index)]
    return totals


def fraction_integral(fam, functions):
    """The oracle: sum_alpha int f_alpha d mu_alpha, one alpha at a time,
    each value taken as its exact Fraction."""
    per_alpha = (
        sum(Fraction(f) * w for f, w in zip(values, fam[alpha].weights))
        for alpha, values in functions.items()
    )
    return sum(per_alpha, Fraction(0))


def exact_values():
    """Ints and Fractions, negative ones and denominators above 2^64 among
    them, and floats, both raw and as Fraction(float)."""
    floats = st.floats(-1e6, 1e6, allow_nan=False)
    return st.one_of(
        st.integers(-(2**70), 2**70),
        st.builds(Fraction, st.integers(-(2**90), 2**90), st.integers(1, 2**90)),
        floats,
        floats.map(Fraction),
    )


@st.composite
def families_with_potentials(draw, values):
    """A family of projections of a random probability measure and values
    for a random subset of its index sets."""
    sizes = draw(st.lists(st.integers(1, 3), min_size=2, max_size=4))
    n = len(sizes)
    k = draw(st.integers(1, n - 1))
    grid = ProductGrid(sizes)
    weights = draw(st.lists(st.integers(1, 9), min_size=grid.ncells, max_size=grid.ncells))
    mu = DiscreteMeasure(grid, [Fraction(w, sum(weights)) for w in weights])
    fam = MarginalFamily(n, k, sizes, {a: project(mu, a) for a in all_index_sets(n, k)})
    alphas = draw(st.lists(st.sampled_from(fam.index_sets()), min_size=1, unique=True))
    return fam, {
        a: tuple(draw(st.lists(values, min_size=fam[a].grid.ncells, max_size=fam[a].grid.ncells)))
        for a in alphas
    }


class TestPotentialSums:
    @settings(max_examples=60, deadline=None)
    @given(families_with_potentials(exact_values()))
    def test_exact_values_match_the_fraction_sums(self, drawn):
        fam, f = drawn
        grid = fam.full_grid()
        sums = cell_sums(grid, f)
        assert sums == fraction_cell_sums(grid, f)
        assert all(type(s) is Fraction for s in sums)
        value = integral(fam, f)
        assert type(value) is Fraction and value == fraction_integral(fam, f)

    def test_denominators_above_2_64_and_negative_ints(self):
        fam = TestMarginalFamily().build()
        big = Fraction(1, 2**64 + 13)
        f = {
            IndexSet([1, 2]): (-(2**80), 3, big, -big),
            IndexSet([1, 3]): (Fraction(-7, 2**65 + 1), 0, 1, Fraction(0.1)),
        }
        grid = fam.full_grid()
        assert cell_sums(grid, f) == fraction_cell_sums(grid, f)
        assert cell_sums(grid, f)[0] == -(2**80) + Fraction(-7, 2**65 + 1)
        assert integral(fam, f) == fraction_integral(fam, f)

    def test_empty_mapping_gives_zero_on_every_cell(self):
        fam = TestMarginalFamily().build()
        sums = cell_sums(fam.full_grid(), {})
        assert sums == [Fraction(0)] * 8 and all(type(s) is Fraction for s in sums)
        assert type(integral(fam, {})) is Fraction and integral(fam, {}) == 0

    @settings(max_examples=100, deadline=None)
    @given(st.lists(exact_values() | st.booleans(), max_size=12))
    def test_scaled_is_the_common_denominator_of_the_exact_values(self, values):
        exact = [Fraction(v) for v in values]
        d = math.lcm(*(v.denominator for v in exact))
        assert scaled(values) == ([int(v * d) for v in exact], d)

    @pytest.mark.parametrize("entry", ["cell_sums", "integral", "certificate", "dual"])
    @pytest.mark.parametrize(
        "value", [np.int64(1), math.inf, math.nan, "1/2"], ids=["int64", "inf", "nan", "str"]
    )
    def test_a_value_without_an_exact_ratio_is_a_domain_error(self, value, entry):
        fam = uniform_family([2, 2, 2], 2)
        grid = fam.full_grid()
        f = {alpha: (0, value, 1, 2) for alpha in fam.index_sets()}
        call = {
            "cell_sums": lambda: cell_sums(grid, f),
            "integral": lambda: integral(fam, f),
            "certificate": lambda: check_certificate(LPProblem([[0, 1]], [1, 1]), [1, value]),
            "dual": lambda: check_dual_feasible(f, CostGrid(grid, [1] * grid.ncells)),
        }[entry]
        with pytest.raises(DomainError, match=re.escape(f"{value!r} has no exact ratio")):
            call()


class TestJson:
    def test_round_trip(self):
        mu = DiscreteMeasure(
            ProductGrid([2, 2]), [Fraction(1, 3), Fraction(1, 6), 0, Fraction(1, 2)]
        )
        again = measure_from_json(measure_to_json(mu))
        assert again == mu

    def test_malformed(self):
        with pytest.raises(DomainError):
            measure_from_json({"axes": [2]})

    def test_weights_must_be_an_array(self):
        # A string is iterable: "1" would otherwise be the one weight 1.
        with pytest.raises(DomainError, match="weights must be a JSON array"):
            measure_from_json({"axes": [1], "weights": "1"})

    def test_as_fraction(self):
        assert as_fraction("3/7") == Fraction(3, 7)
        assert as_fraction(2) == 2
        with pytest.raises(DomainError):
            as_fraction(object())

    @pytest.mark.parametrize(
        "value",
        ["1e999999999", "1E-4301", "2.5e+1_0000", "abc", float("nan"), float("inf"), True],
    )
    def test_as_fraction_refuses_huge_exponents_and_non_numbers(self, value):
        with pytest.raises(DomainError):
            as_fraction(value)

    def test_as_fraction_keeps_exponents_up_to_the_bound(self):
        assert as_fraction("1.5e3") == 1500
        assert as_fraction("1e-4300") == Fraction(1, 10**4300)


def test_value_types_refuse_assignment():
    """Every value type of the package refuses to set a field after __init__."""
    from mmk.case_studies import PiecewiseDual32
    from mmk.feasibility import DensityBounds, FeasibilityVerdict
    from mmk.lp_core import LPProblem, LPSolution
    from mmk.measures import ConsistencyReport
    from mmk.transport import CostGrid, SolveReport
    from mmk.xor_model import Dyadic, XorInstance

    grid = ProductGrid([2])
    mu = uniform([2])
    fields = [
        (IndexSet([1]), "members"),
        (grid, "sizes"),
        (SignedDiscreteMeasure(grid, [1, -1]), "weights"),
        (mu, "weights"),
        (XorInstance(1).family(), "marginals"),
        (ConsistencyReport(True, []), "consistent"),
        (LPProblem([[0]], [1]), "columns"),
        (LPSolution("optimal", x=[1], y=[1], value=1), "value"),
        (DensityBounds(1, 2), "M"),
        (FeasibilityVerdict(True, witness=mu), "witness"),
        (CostGrid(grid, [1, 2]), "values"),
        (SolveReport(mu, 0, None, 0, 0), "gap"),
        (Dyadic(1, 1), "a"),
        (XorInstance(1), "n"),
        (PiecewiseDual32(), "threshold"),
    ]
    for value, field in fields:
        for name in (field, "extra"):
            with pytest.raises(AttributeError, match="is immutable"):
                setattr(value, name, None)


@pytest.mark.parametrize("cell", [(1, 2), (1, 2, 3, 0)])
def test_cells_need_one_coordinate_per_axis(cell):
    # zip-based ravel read (1, 2) as cell 5 and (1, 2, 3, 9) as cell 23.
    from mmk import case_studies as cs
    from mmk.transport import CostGrid

    sizes = [2, 3, 4]
    grid = ProductGrid(sizes)
    fam = MarginalFamily(
        3,
        2,
        sizes,
        {a: uniform([sizes[i - 1] for i in a], axes=a.members) for a in all_index_sets(3, 2)},
    )
    for read in (
        grid.ravel,
        uniform(sizes).weight,
        CostGrid(grid, [0] * grid.ncells).at,
        lambda c: cs.min_mass_at_cell(fam, c),
        lambda c: cs.max_mass_at_cell(fam, c),
    ):
        with pytest.raises(DomainError, match="does not have 3 coordinates"):
            read(cell)


@pytest.mark.parametrize("value", [2.7, True, "3"])
def test_integer_arguments_refuse_other_types(value):
    # int() made 2.7 a 2, True a 1 and "3" a 3 without a word.
    from mmk.case_studies import frac_coupling
    from mmk.xor_model import Dyadic, XorInstance

    for build in (
        lambda: IndexSet([value, 2]),
        lambda: XorInstance(value),
        lambda: Dyadic(value, 2),
        lambda: Dyadic(1, value),
        lambda: frac_coupling(value, 1, 1, 6),
        lambda: frac_coupling(1, value, 1, 6),
        lambda: frac_coupling(1, 1, value, 6),
    ):
        with pytest.raises(DomainError):
            build()
