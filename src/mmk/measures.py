"""Product grids and discrete (signed) measures with exact rational weights.

Everything here is combinatorial: a grid is a list of per-axis cell counts,
a measure is a dense weight array over the grid cells.  Geometry (cell
centers, dyadic coordinates) belongs to the modules that need it.

All objects are immutable after construction and safe to share between
threads: every value type of the package derives from Frozen, which sets
the fields once in the constructor and refuses any later assignment.
The fields set later are MarginalFamily's private `_lp`, where
feasibility.marginal_lp keeps the family's (support, LPProblem) once
built, and `_unique`, where feasibility.unique_uniting keeps its answer,
and the LPProblem's cached b and HiGHS model; two threads that build one
at once build the same value.
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from fractions import Fraction
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping, Sequence


class DomainError(ValueError):
    """An operation was called with arguments outside its domain."""


class Frozen:
    """Base of the immutable value types: _freeze sets the fields once."""

    __slots__ = ()

    def _freeze(self, **fields):
        for name, value in fields.items():
            object.__setattr__(self, name, value)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")


# Fraction("1e999999999") builds 10**999999999 before anything can look
# at it, so as_fraction refuses a decimal exponent above this first; it
# is Python's default limit on the digits of an int string.
_MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?0*(\d+)")


def as_fraction(value) -> Fraction:
    """Coerce ints, 'p/q' or decimal strings, floats and Fractions to Fraction.

    DomainError for anything else (bools too: JSON's true is no weight),
    for infinite or NaN floats and for a decimal exponent beyond
    _MAX_EXPONENT.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        exponent = _EXPONENT.search(value.replace("_", ""))
        if exponent and (len(exponent[1]) > 4 or int(exponent[1]) > _MAX_EXPONENT):
            raise DomainError(f"decimal exponent above {_MAX_EXPONENT} in {value[:40]!r}")
    elif not isinstance(value, float):
        raise DomainError(f"cannot interpret {value!r} as a rational")
    try:
        return Fraction(value)
    except (ValueError, OverflowError) as exc:  # NaN, infinity, no number
        raise DomainError(f"cannot interpret {str(value)[:40]!r} as a rational") from exc


def as_int(value) -> int:
    """`value` if it is an int; DomainError for all else, bools and 2.0 too."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise DomainError(f"expected an integer, got {str(value)[:40]!r}")


class IndexSet(Frozen):
    """A duplicate-free, sorted set of axis indices in {1..n}."""

    __slots__ = ("members",)

    def __init__(self, members: Iterable[int]):
        ms = tuple(members)
        # as_int's test inline, so that the error names the whole set.
        if any(not isinstance(m, int) or isinstance(m, bool) or m < 1 for m in ms):
            raise DomainError(f"axis indices must be integers >= 1, got {ms}")
        ms = tuple(sorted(ms))
        if len(set(ms)) != len(ms):
            raise DomainError(f"duplicate axis in index set {ms}")
        self._freeze(members=ms)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[int]:
        return iter(self.members)

    def __contains__(self, axis: int) -> bool:
        return axis in self.members

    def __eq__(self, other) -> bool:
        return isinstance(other, IndexSet) and self.members == other.members

    def __hash__(self) -> int:
        return hash(self.members)

    def __lt__(self, other: "IndexSet") -> bool:
        return self.members < other.members

    def key(self) -> str:
        return ",".join(str(m) for m in self.members)

    @staticmethod
    def from_key(key: str) -> "IndexSet":
        return IndexSet(int(part) for part in key.split(",") if part != "")

    def __repr__(self) -> str:
        return f"IndexSet({list(self.members)})"


def all_index_sets(n: int, k: int) -> list[IndexSet]:
    """All k-element subsets of {1..n}, sorted lexicographically."""
    return [IndexSet(c) for c in itertools.combinations(range(1, n + 1), k)]


class ProductGrid(Frozen):
    """A labelled product grid: axis `axes[t]` has `sizes[t]` cells.

    A full grid over n axes has axes (1, ..., n); sub-grids keep the
    original labels so projections know which axes survive.
    """

    __slots__ = ("axes", "sizes")

    def __init__(self, sizes: Sequence[int], axes: Sequence[int] | None = None):
        sizes = tuple(map(as_int, sizes))
        if any(s < 1 for s in sizes):
            raise DomainError(f"grid sizes must be >= 1, got {sizes}")
        if axes is None:
            axes = tuple(range(1, len(sizes) + 1))
        else:
            axes = tuple(axes)
        if len(axes) != len(sizes):
            raise DomainError("axes and sizes length mismatch")
        if tuple(sorted(set(axes))) != axes:
            raise DomainError(f"axes must be strictly increasing, got {axes}")
        self._freeze(axes=axes, sizes=sizes)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ProductGrid)
            and self.axes == other.axes
            and self.sizes == other.sizes
        )

    def __hash__(self) -> int:
        return hash((self.axes, self.sizes))

    def __repr__(self) -> str:
        return f"ProductGrid(sizes={list(self.sizes)}, axes={list(self.axes)})"

    @property
    def ncells(self) -> int:
        out = 1
        for s in self.sizes:
            out *= s
        return out

    def cells(self) -> Iterator[tuple[int, ...]]:
        return itertools.product(*(range(s) for s in self.sizes))

    def ravel(self, cell: Sequence[int]) -> int:
        if len(cell) != len(self.sizes):
            raise DomainError(f"cell {tuple(cell)} does not have {len(self.sizes)} coordinates")
        idx = 0
        for coord, size in zip(cell, self.sizes):
            if not 0 <= coord < size:
                raise DomainError(f"cell {tuple(cell)} outside grid {self}")
            idx = idx * size + coord
        return idx

    def unravel(self, index: int) -> tuple[int, ...]:
        coords = []
        for size in reversed(self.sizes):
            coords.append(index % size)
            index //= size
        return tuple(reversed(coords))

    def _require_axes(self, alpha: IndexSet) -> None:
        if not all(a in self.axes for a in alpha):
            raise DomainError(f"{alpha} is not a subset of grid axes {self.axes}")

    def subgrid(self, alpha: IndexSet) -> "ProductGrid":
        self._require_axes(alpha)
        positions = [self.axes.index(a) for a in alpha]
        return ProductGrid([self.sizes[p] for p in positions], axes=tuple(alpha))

    def projection_index(self, alpha: IndexSet) -> tuple[int, ...]:
        """The raveled sub-cell on subgrid(alpha) of every cell, in ravel order.

        Entry j is subgrid(alpha).ravel of the alpha coordinates of
        unravel(j): prj_alpha sends cell j to sub-cell index[j].
        """
        self._require_axes(alpha)
        strides = {}
        stride = 1
        for a, s in zip(reversed(self.axes), reversed(self.sizes)):
            if a in alpha:
                strides[a] = stride
                stride *= s
        index = [0]
        for a, s in zip(self.axes, self.sizes):
            steps = [c * strides.get(a, 0) for c in range(s)]
            index = [i + d for i in index for d in steps]
        return tuple(index)

    def section(self, alpha: IndexSet, base: Sequence[int]) -> list[int]:
        """The section through `base` along alpha, in subgrid(alpha) ravel order:
        entry t is `base` with its alpha coordinates set to subgrid(alpha).unravel(t)."""
        self._require_axes(alpha)
        index = [self.ravel(base)]
        stride = self.ncells
        for a, s, b in zip(self.axes, self.sizes, base):
            stride //= s
            if a in alpha:
                index = [i + (c - b) * stride for i in index for c in range(s)]
        return index


class SignedDiscreteMeasure(Frozen):
    """A measure with one (possibly negative) weight per grid cell.

    Weights are exact rationals by default; any field elements supporting
    +, -, *, and comparison with 0 are accepted (used for quadratic-field
    weights in the density-2 construction).  A measure has no arithmetic
    of its own: feasibility._combine sums every closed-form measure.
    """

    __slots__ = ("grid", "weights")

    def __init__(self, grid: ProductGrid, weights: Sequence):
        if len(weights) != grid.ncells:
            raise DomainError(
                f"expected {grid.ncells} weights, got {len(weights)}"
            )
        ws = tuple(
            Fraction(w) if isinstance(w, int) else w for w in weights
        )
        self._freeze(grid=grid, weights=ws)

    @property
    def mass(self):
        return sum(self.weights, Fraction(0))

    def weight(self, cell: Sequence[int]):
        return self.weights[self.grid.ravel(cell)]

    def is_nonnegative(self) -> bool:
        return all(w >= 0 for w in self.weights)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SignedDiscreteMeasure)
            and self.grid == other.grid
            and all(a == b for a, b in zip(self.weights, other.weights))
        )

    def __hash__(self) -> int:
        return hash((self.grid, self.weights))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(grid={self.grid}, mass={self.mass})"


class DiscreteMeasure(SignedDiscreteMeasure):
    """A nonnegative discrete measure."""

    __slots__ = ()

    def __init__(self, grid: ProductGrid, weights: Sequence):
        super().__init__(grid, weights)
        for i, w in enumerate(self.weights):
            if w < 0:
                raise DomainError(
                    f"negative weight {w} at cell {grid.unravel(i)}"
                )


def uniform(sizes: Sequence[int], axes: Sequence[int] | None = None) -> DiscreteMeasure:
    """The uniform probability measure on the given grid."""
    grid = ProductGrid(sizes, axes=axes)
    w = Fraction(1, grid.ncells)
    return DiscreteMeasure(grid, [w] * grid.ncells)


def dirac(grid: ProductGrid, cell: Sequence[int]) -> DiscreteMeasure:
    """The point mass at `cell`."""
    weights = [Fraction(0)] * grid.ncells
    weights[grid.ravel(cell)] = Fraction(1)
    return DiscreteMeasure(grid, weights)


def project(mu: SignedDiscreteMeasure, alpha: IndexSet) -> SignedDiscreteMeasure:
    """Push `mu` forward along the coordinate projection onto `alpha`.

    Mass is preserved; signed measures stay signed.
    """
    grid = mu.grid
    index = grid.projection_index(alpha)
    sub = grid.subgrid(alpha)
    out = [Fraction(0)] * sub.ncells
    for i, w in zip(index, mu.weights):
        if w != 0:
            out[i] += w
    cls = DiscreteMeasure if isinstance(mu, DiscreteMeasure) else SignedDiscreteMeasure
    return cls(sub, out)


def product(factors: Sequence[SignedDiscreteMeasure]) -> SignedDiscreteMeasure:
    """The product measure of factors living on pairwise disjoint axes."""
    if not factors:
        raise DomainError("product of an empty factor list")
    size_of = {}
    for f in factors:
        for a, s in zip(f.grid.axes, f.grid.sizes):
            if a in size_of:
                raise DomainError(f"overlapping axis {a} in product")
            size_of[a] = s
    axes = tuple(sorted(size_of))
    grid = ProductGrid([size_of[a] for a in axes], axes=axes)
    first = factors[0].weights
    weights = [first[i] for i in grid.projection_index(factors[0].grid.axes)]
    for f in factors[1:]:
        index = grid.projection_index(f.grid.axes)
        weights = [w * f.weights[i] for w, i in zip(weights, index)]
    signed = any(not isinstance(f, DiscreteMeasure) for f in factors)
    cls = SignedDiscreteMeasure if signed else DiscreteMeasure
    return cls(grid, weights)


def scaled(values) -> tuple[list[int], int]:
    """Integers z and the least common denominator d, values[i] == z[i] / d.

    Each value is read once, through as_integer_ratio(): ints, bools,
    Fractions and finite floats all have it, and it is their exact value.
    DomainError names the first value without one (an infinite or NaN
    float, a numpy integer, a string).
    """
    try:  # v is the value last read, so the one that failed
        ratios = [(v := value).as_integer_ratio() for value in values]
    except (AttributeError, OverflowError, ValueError):
        raise DomainError(f"{v!r} has no exact ratio") from None
    d = 1
    for _, q in ratios:
        if d % q:
            d = d // math.gcd(d, q) * q
    return [p * (d // q) for p, q in ratios], d


def cell_sums(grid: ProductGrid, functions: Mapping[IndexSet, Sequence]) -> list[Fraction]:
    """sum_alpha f_alpha(x_alpha) at every cell of `grid`, in ravel order:
    exact Fractions, summed in integers over one common denominator."""
    blocks = list(functions.values())
    flat, d = scaled([v for values in blocks for v in values])
    ends = itertools.accumulate(map(len, blocks))
    totals = [0] * grid.ncells
    for alpha, end, values in zip(functions, ends, blocks):
        block = flat[end - len(values):end]
        totals = [s + block[i] for s, i in zip(totals, grid.projection_index(alpha))]
    return [Fraction(t, d) for t in totals]


def integral(fam: MarginalFamily, functions: Mapping[IndexSet, Sequence]) -> Fraction:
    """sum_alpha int f_alpha d mu_alpha: one exact Fraction, summed in
    integers over the common denominators of the f's and of the weights."""
    terms = [t for alpha, values in functions.items() for t in zip(values, fam[alpha].weights)]
    (F, df), (W, dw) = scaled([f for f, _ in terms]), scaled([w for _, w in terms])
    return Fraction(sum(map(operator.mul, F, W)), df * dw)


class MarginalFamily(Frozen):
    """The constraint data of an (n,k)-problem: one measure per alpha in I_nk.

    `marginals` is a read-only mapping.  The full grid and the index sets
    (a tuple) are the ones __init__ validated, kept for full_grid() and
    index_sets().  `_lp` is empty until feasibility.marginal_lp first
    builds the family's (support, LPProblem) and keeps it there, and
    `_unique` until feasibility.unique_uniting first answers, when it
    keeps (the certified uniting measure or None,).
    """

    __slots__ = ("n", "k", "sizes", "marginals", "_grid", "_index_sets", "_lp", "_unique")

    def __init__(
        self,
        n: int,
        k: int,
        sizes: Sequence[int],
        marginals: Mapping[IndexSet, DiscreteMeasure],
    ):
        if not 1 <= k < n:
            raise DomainError(f"need 1 <= k < n, got n={n}, k={k}")
        sizes = tuple(map(as_int, sizes))
        if len(sizes) != n:
            raise DomainError(f"expected {n} axis sizes, got {len(sizes)}")
        # C(n, k) index sets may be too many to list, so count them first.
        if len(marginals) != math.comb(n, k) or tuple(
            sorted(marginals.keys(), key=lambda a: a.members)
        ) != (alphas := tuple(all_index_sets(n, k))):
            raise DomainError("marginal keys must enumerate I_nk exactly")
        full = ProductGrid(sizes)
        for alpha, mu in marginals.items():
            if mu.grid != full.subgrid(alpha):
                raise DomainError(f"marginal for {alpha} lives on the wrong grid")
            if mu.mass != 1:
                raise DomainError(f"marginal for {alpha} has mass {mu.mass}, not 1")
        self._freeze(
            n=n, k=k, sizes=sizes, marginals=MappingProxyType(dict(marginals)),
            _grid=full, _index_sets=alphas, _lp=None, _unique=None,
        )

    def full_grid(self) -> ProductGrid:
        return self._grid

    def index_sets(self) -> tuple[IndexSet, ...]:
        return self._index_sets

    def __getitem__(self, alpha: IndexSet) -> DiscreteMeasure:
        return self.marginals[alpha]

    def __repr__(self) -> str:
        return f"MarginalFamily(n={self.n}, k={self.k}, sizes={list(self.sizes)})"


def family_from_rule(sizes: Sequence[int], k: int, weight) -> MarginalFamily:
    """The (n,k) family on the grid of `sizes`, n = len(sizes), whose
    marginal on each alpha weighs every cell of its sub-grid by weight(cell)."""
    n = len(sizes)
    marginals = {}
    for alpha in all_index_sets(n, k):
        sub = ProductGrid([sizes[a - 1] for a in alpha], axes=alpha.members)
        marginals[alpha] = DiscreteMeasure(sub, [weight(cell) for cell in sub.cells()])
    return MarginalFamily(n, k, sizes, marginals)


def uniform_family(sizes: Sequence[int], k: int) -> MarginalFamily:
    """The (n,k) family on the grid of `sizes`, n = len(sizes), whose
    every marginal is uniform."""
    n = len(sizes)
    marginals = {
        alpha: uniform([sizes[a - 1] for a in alpha], axes=alpha.members)
        for alpha in all_index_sets(n, k)
    }
    return MarginalFamily(n, k, sizes, marginals)


class ConsistencyReport(Frozen):
    """Outcome of is_consistent: failures are (first host, other host) pairs."""

    __slots__ = ("consistent", "failures")

    def __init__(self, consistent: bool, failures: list):
        self._freeze(consistent=consistent, failures=tuple(failures))

    def __bool__(self) -> bool:
        return self.consistent

    def __repr__(self) -> str:
        return f"ConsistencyReport(consistent={self.consistent}, failures={list(self.failures)})"


def is_consistent(fam: MarginalFamily) -> ConsistencyReport:
    """Check prj_{a&b}(mu_a) == prj_{a&b}(mu_b) exactly for every pair.

    It suffices that the k-sets hosting each (k-1)-set beta project alike
    onto it, k * C(n, k) projections instead of C(n, k)^2 / 2: two k-sets
    sharing a nonempty gamma are joined by one-axis swaps that keep gamma,
    each within a beta.  A failure is beta's first host and one unlike it.
    """
    failures = []
    for beta in all_index_sets(fam.n, fam.k - 1):
        hosts = [IndexSet(beta.members + (a,)) for a in range(1, fam.n + 1) if a not in beta]
        first = project(fam[hosts[0]], beta)
        failures += [(hosts[0], h) for h in hosts[1:] if project(fam[h], beta) != first]
    return ConsistencyReport(not failures, failures)


def lower_marginal(fam: MarginalFamily, beta: IndexSet) -> DiscreteMeasure:
    """The common projection prj_beta(mu_alpha) over all alpha containing beta.

    Well-defined only for consistent families: DomainError if the hosts
    project differently, if |beta| > k or if no marginal contains beta.
    """
    if len(beta) > fam.k:
        raise DomainError(f"|beta| = {len(beta)} exceeds k = {fam.k}")
    hosts = [alpha for alpha in fam.index_sets() if set(beta) <= set(alpha)]
    if not hosts:
        raise DomainError(f"no marginal contains {beta}")
    results = [project(fam[alpha], beta) for alpha in hosts]
    first = results[0]
    for r in results[1:]:
        if r != first:
            raise DomainError(
                f"family is inconsistent: prj_{beta.key()} differs between hosts"
            )
    return first


def measure_to_json(mu: SignedDiscreteMeasure) -> dict:
    """Encode a measure as {"axes": [...sizes...], "weights": ["p/q", ...]};
    DomainError names the first cell whose weight is not rational."""
    for i, w in enumerate(mu.weights):
        if not isinstance(w, (int, float, Fraction)):
            raise DomainError(f"weight {w!r} at cell {mu.grid.unravel(i)} is not rational")
    return {
        "axes": list(mu.grid.sizes),
        "weights": [str(Fraction(w)) for w in mu.weights],
    }


def potentials_to_json(potentials: Mapping) -> dict:
    """Encode {alpha: values} as {"i,j": ["p/q", ...]} in index-set order."""
    return {a.key(): [str(Fraction(v)) for v in potentials[a]] for a in sorted(potentials)}


def measure_from_json(data: Mapping, axes: Sequence[int] | None = None) -> DiscreteMeasure:
    """Decode a measure; its weights are a JSON array of 'p/q' strings or
    JSON numbers."""
    try:
        sizes = [as_int(s) for s in data["axes"]]
        if not isinstance(data["weights"], list):
            raise DomainError("weights must be a JSON array")
        weights = [as_fraction(w) for w in data["weights"]]
    except (KeyError, TypeError) as exc:
        raise DomainError(f"malformed measure object: {exc}") from exc
    return DiscreteMeasure(ProductGrid(sizes, axes=axes), weights)
