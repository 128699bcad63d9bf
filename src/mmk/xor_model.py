"""Digitwise-xor geometry: exact dyadic xor, the fractal membership test,
the closed-form dual potential, and the xor coupling.

Convention: 1 is always decomposed as 0.111..., so 1 xor y = 1 - y for
every finite dyadic y.  All integrals are exact rationals; the double
integral of xor over a dyadic rectangle reduces to per-bit counting, so
evaluation is O(precision) instead of O(4^precision).
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .feasibility import _assert_uniting
from .measures import DiscreteMeasure, DomainError, Frozen, MarginalFamily, ProductGrid
from .measures import SignedDiscreteMeasure, as_int, uniform_family


# The deepest Sierpinski slice, a 1024^2 raster: each level costs 4x.
MAX_SLICE_DEPTH = 10


class Dyadic(Frozen):
    """The number a / 2^p with 0 <= a <= 2^p; digit strings stay explicit.

    No gcd reduction: precision is part of the identity of the digit
    string, even though values compare by the underlying rational.
    """

    __slots__ = ("a", "p")

    def __init__(self, a: int, p: int):
        a, p = as_int(a), as_int(p)
        if p < 0 or a < 0 or a > (1 << p):
            raise DomainError(f"need 0 <= a <= 2^p, got a={a}, p={p}")
        self._freeze(a=a, p=p)

    @property
    def value(self) -> Fraction:
        return Fraction(self.a, 1 << self.p)

    def at_precision(self, p: int) -> "Dyadic":
        if p < self.p:
            if self.a % (1 << (self.p - p)):
                raise DomainError(f"{self} does not fit precision {p}")
            return Dyadic(self.a >> (self.p - p), p)
        return Dyadic(self.a << (p - self.p), p)

    @staticmethod
    def from_fraction(value) -> "Dyadic":
        v = Fraction(value)
        if not 0 <= v <= 1:
            raise DomainError(f"dyadic values live in [0,1], got {v}")
        den = v.denominator
        p = den.bit_length() - 1
        if (1 << p) != den:
            raise DomainError(f"{v} is not dyadic")
        return Dyadic(v.numerator, p)

    def __eq__(self, other):
        return isinstance(other, Dyadic) and self.value == other.value

    def __hash__(self):
        return hash(self.value)

    def __repr__(self):
        return f"Dyadic({self.a}/2^{self.p})"


def xor_dyadic(x: Dyadic, y: Dyadic) -> Dyadic:
    """Digitwise xor of binary expansions; 1 carries the all-ones string."""
    p = max(x.p, y.p)
    a = x.at_precision(p).a
    b = y.at_precision(p).a
    top = 1 << p
    if a == top and b == top:
        return Dyadic(0, p)
    if a == top:
        return Dyadic(top - b, p)  # ones xor finite tail: 1 - y
    if b == top:
        return Dyadic(top - a, p)
    return Dyadic(a ^ b, p)


def _xor_rectangle_sum(A: int, B: int, bits: int) -> int:
    """sum of (a xor b) over 0 <= a < A, 0 <= b < B, exactly.

    Per bit position the xor digits of a and b are independent, so the
    count of pairs with that xor-bit set factorizes into ones/zeros
    counts below each limit.
    """

    def ones(limit: int, k: int) -> int:
        period = 1 << (k + 1)
        half = 1 << k
        return (limit // period) * half + max(0, (limit % period) - half)

    total = 0
    for k in range(bits):
        oa, ob = ones(A, k), ones(B, k)
        total += (1 << k) * (oa * (B - ob) + (A - oa) * ob)
    return total


def xor_integral(x: Dyadic, y: Dyadic) -> Fraction:
    """Exact I(x, y) = double integral of s xor t over [0,x] x [0,y].

    At common precision n the rectangle splits into dyadic cells on
    which the integral is ((a xor b) + 1/2) / 8^n, by the affine
    self-similarity of xor on quadrants and the fact that the mean of
    xor over the unit square is 1/2.
    """
    p = max(x.p, y.p)
    A = x.at_precision(p).a
    B = y.at_precision(p).a
    s = _xor_rectangle_sum(A, B, p)
    return Fraction(2 * s + A * B, 2 * 8**p)


def dual_f(x: Dyadic, y: Dyadic) -> Fraction:
    """f(x,y) = I(x,y) - I(x,x)/4 - I(y,y)/4."""
    return (
        xor_integral(x, y)
        - xor_integral(x, x) / 4
        - xor_integral(y, y) / 4
    )


def F_xor(x: Dyadic, y: Dyadic, z: Dyadic) -> Fraction:
    """The three-variable dual sum f(x,y) + f(x,z) + f(y,z)."""
    return dual_f(x, y) + dual_f(x, z) + dual_f(y, z)


def _digit_prefixes(x: Dyadic, depth: int) -> set[int]:
    """First `depth` digits of every binary representation of x.

    A positive dyadic below 1 has a finite string and a trailing-ones
    string; 1 itself only has the all-ones string; 0 only zeros.
    """
    v = x.at_precision(max(x.p, depth))
    shift = v.p - depth
    top = 1 << v.p
    if v.a == top:
        return {(1 << depth) - 1}
    out = {v.a >> shift}
    if v.a > 0:
        out.add((v.a - 1) >> shift)
    return out


def sierpinski_member(x: Dyadic, y: Dyadic, z: Dyadic, depth: int) -> bool:
    """True iff some choice of binary representations xors to zero
    digitwise through the first `depth` digits."""
    if depth < 0:
        raise DomainError("depth must be >= 0")
    for rx, ry, rz in itertools.product(
        _digit_prefixes(x, depth),
        _digit_prefixes(y, depth),
        _digit_prefixes(z, depth),
    ):
        if rx ^ ry ^ rz == 0:
            return True
    return False


def xor_coupling(n: int) -> DiscreteMeasure:
    """Weight 4^-n on every cell (i, j, i xor j) of the (2^n)^3 grid.

    All three pairwise projections are uniform (checked by
    feasibility._assert_uniting): each pair of coordinates determines the
    third bijectively.
    """
    if n < 0:
        raise DomainError("n must be >= 0")
    size = 1 << n
    grid = ProductGrid([size, size, size])
    w = Fraction(1, size * size)
    weights = [Fraction(0)] * grid.ncells
    for i in range(size):
        for j in range(size):
            weights[grid.ravel((i, j, i ^ j))] = w
    mu = SignedDiscreteMeasure(grid, weights)
    return _assert_uniting(mu, uniform_family([size] * 3, 2), "xor_coupling")


class XorInstance(Frozen):
    """The discrete benchmark: (2^n)^3 grid, uniform pairwise marginals,
    cost c(i,j,k) = i*j*k on integer indices."""

    __slots__ = ("n",)

    def __init__(self, n: int):
        if as_int(n) < 0:
            raise DomainError("n must be >= 0")
        self._freeze(n=n)

    @property
    def size(self) -> int:
        return 1 << self.n

    def grid(self) -> ProductGrid:
        return ProductGrid([self.size] * 3)

    def family(self) -> MarginalFamily:
        return uniform_family([self.size] * 3, 2)

    def cost(self):
        from .transport import CostGrid

        return CostGrid.from_function(
            self.grid(), lambda i, j, k: Fraction(i * j * k)
        )

    def coupling_value(self) -> Fraction:
        """int c d(xor coupling) = 4^-n * sum_{i,j} i*j*(i xor j)."""
        size = self.size
        total = sum(
            i * j * (i ^ j) for i in range(size) for j in range(size)
        )
        return Fraction(total, size * size)

    def __repr__(self):
        return f"XorInstance(n={self.n})"


def sierpinski_slice(z: Dyadic, depth: int) -> list[list[int]]:
    """A (2^depth)^2 raster of the fractal slice at height z.

    Entry [row][col] is 1 when the cell corner (col/2^depth,
    row/2^depth, z) belongs to the set at the given depth.  Used by the
    CLI to emit P2 graymaps.  DomainError unless 0 <= depth <=
    MAX_SLICE_DEPTH, checked before anything is allocated.
    """
    if not 0 <= depth <= MAX_SLICE_DEPTH:
        raise DomainError(f"slice depth must be in 0..{MAX_SLICE_DEPTH}, got {depth}")
    size = 1 << depth
    rows = []
    for r in range(size):
        yv = Dyadic(r, depth)
        row = []
        for cidx in range(size):
            xv = Dyadic(cidx, depth)
            row.append(1 if sierpinski_member(xv, yv, z, depth) else 0)
        rows.append(row)
    return rows
