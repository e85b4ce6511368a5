"""Arithmetic and linear algebra over GF(2) and its binary extensions.

Elements of GF(2^m) are integers in [0, 2^m) interpreted as polynomials
over GF(2); multiplication reduces modulo a fixed irreducible polynomial
so that serialized matrices are portable across implementations.

A row over GF(2^m) is stored as its binary image: one int with entry j in
bits [j*m, (j+1)*m).  FieldMatrix keeps only these images and checks
entries once, where rows of ints come in (`FieldMatrix.from_rows`, the
loader's entry point; the builders write images directly).  Linear
algebra runs over GF(2) on the images, and a matrix is eliminated once:
its cached echelon (`FieldMatrix._echelon`, a RowSpan) answers its rank,
membership and solving in every field, and a copy of it grows into a
user's span of cache plus received rows.  A matrix product XORs the right
factor's cached images of x^i * row, one per set bit of the left row.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Optional, Sequence

from .errors import ConfigurationError, FieldDomainError

# Moduli pinned for reproducibility; every other degree uses the
# lexicographically smallest irreducible polynomial.
_PREFERRED_MODULI = {8: 0x11B}

# Largest degree whose modulus search by trial division stays cheap.
_EXHAUSTIVE_CHECK_LIMIT = 16


def poly_degree(p: int) -> int:
    return p.bit_length() - 1


def poly_mod(a: int, modulus: int) -> int:
    """Remainder of polynomial division over GF(2)."""
    dm = poly_degree(modulus)
    while poly_degree(a) >= dm:
        a ^= modulus << (poly_degree(a) - dm)
    return a


def poly_mul(a: int, b: int) -> int:
    """Carry-less polynomial product over GF(2)."""
    out = 0
    while b:
        if b & 1:
            out ^= a
        a <<= 1
        b >>= 1
    return out


def poly_mulmod(a: int, b: int, modulus: int) -> int:
    return poly_mod(poly_mul(a, b), modulus)


def is_irreducible(poly: int) -> bool:
    """Exhaustive trial division; intended for degrees up to 16."""
    deg = poly_degree(poly)
    if deg <= 0:
        return False
    if deg == 1:
        return True
    if not poly & 1:  # divisible by x
        return False
    for d in range(2, 2 ** (deg // 2 + 1)):
        if poly_degree(d) > deg // 2:
            break
        if poly_mod(poly, d) == 0:
            return False
    return True


@functools.lru_cache(maxsize=None)
def default_modulus(m: int) -> int:
    """Fixed irreducible polynomial of degree m (0x11B for m=8)."""
    if m in _PREFERRED_MODULI:
        return _PREFERRED_MODULI[m]
    for candidate in range(1 << m, 1 << (m + 1)):
        if is_irreducible(candidate):
            return candidate
    raise ConfigurationError(f"no irreducible polynomial of degree {m}")


@dataclass(frozen=True)
class FieldSpec:
    """GF(2^m) modulo `default_modulus(m)`; m=1 is plain GF(2)."""

    m: int = 1
    modulus: int = dc_field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.m < 1:
            raise ConfigurationError("extension degree m must be >= 1")
        object.__setattr__(self, "modulus", default_modulus(self.m))

    @property
    def size(self) -> int:
        return 1 << self.m

    def check_element(self, a: int) -> int:
        if not 0 <= a < self.size:
            raise FieldDomainError(f"{a} is not an element of GF(2^{self.m})")
        return a

    def add(self, a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        return poly_mulmod(a, b, self.modulus)

    def inv(self, a: int) -> int:
        """a^(2^m - 2), since a^(2^m - 1) = 1 for every nonzero a."""
        if a == 0:
            raise FieldDomainError("0 has no multiplicative inverse")
        return self.pow(a, self.size - 2)

    def pow(self, a: int, e: int) -> int:
        """a^e by square-and-multiply; a^0 = 1."""
        out = 1
        while e:
            if e & 1:
                out = self.mul(out, a)
            a = self.mul(a, a)
            e >>= 1
        return out

    def generator(self) -> int:
        """The smallest element of full multiplicative order 2^m - 1."""
        order = self.size - 1
        # g falls short of full order iff g^(order/q) = 1 for some divisor q > 1 of the order
        divisors = [q for q in range(2, order + 1) if order % q == 0]
        return next(g for g in range(1, self.size)
                    if all(self.pow(g, order // q) != 1 for q in divisors))


GF2 = FieldSpec(1)


@dataclass(frozen=True)
class FieldMatrix:
    """Immutable matrix over a FieldSpec, stored as packed row images.

    images[i] is the binary image of row i: entry j in bits [j*m, (j+1)*m).
    Every m-bit lane is an element of GF(2^m), so entries are checked once,
    where rows of ints come in (`from_rows`); products, stacks and column
    maps build images that need no check.  `rows` unpacks on each access.
    """

    spec: FieldSpec
    nrows: int
    ncols: int
    images: tuple[int, ...]

    def __post_init__(self):
        if len(self.images) != self.nrows:
            raise ConfigurationError("row count mismatch")

    @classmethod
    def from_rows(cls, spec: FieldSpec, rows: Iterable[Sequence[int]], ncols: Optional[int] = None) -> "FieldMatrix":
        """The matrix of rows of ints, each entry checked once as it is packed.

        An entry must be an int (not a bool) in 0..2^m - 1, and every row must
        have ncols entries (the first row's length when ncols is None).
        """
        m, size = spec.m, spec.size
        images = []
        for row in rows:
            if ncols is None:
                ncols = len(row)
            elif len(row) != ncols:
                raise ConfigurationError("column count mismatch")
            image = 0
            for shift, v in zip(range(0, ncols * m, m), row):
                if type(v) is not int or not 0 <= v < size:
                    raise ConfigurationError(f"entry {v!r} outside GF(2^{m})")
                if v:
                    image |= v << shift
            images.append(image)
        if ncols is None:
            raise ConfigurationError("cannot infer column count of an empty matrix")
        return cls(spec, len(images), ncols, tuple(images))

    @classmethod
    def empty(cls, spec: FieldSpec, ncols: int) -> "FieldMatrix":
        return cls(spec, 0, ncols, ())

    @classmethod
    def identity(cls, spec: FieldSpec, n: int) -> "FieldMatrix":
        return cls(spec, n, n, tuple(1 << i * spec.m for i in range(n)))

    @property
    def rows(self) -> tuple[tuple[int, ...], ...]:
        """The entries of every row, unpacked from the images on each access."""
        return tuple(_unpack(image, self.ncols, self.spec.m) for image in self.images)

    def stack(self, other: "FieldMatrix") -> "FieldMatrix":
        if other.ncols != self.ncols or other.spec != self.spec:
            raise ConfigurationError("cannot stack matrices of mismatched shape/field")
        return FieldMatrix(self.spec, self.nrows + other.nrows, self.ncols, self.images + other.images)

    def matmul(self, other: "FieldMatrix") -> "FieldMatrix":
        if self.ncols != other.nrows or self.spec != other.spec:
            raise ConfigurationError("dimension mismatch in matrix product")
        lifted = other._lifted
        out = []
        for image in self.images:
            # bit k*m + i of a row stands for x^i * (row k of other)
            acc = 0
            while image:
                low = image & -image
                acc ^= lifted[low.bit_length() - 1]
                image ^= low
            out.append(acc)
        return FieldMatrix(self.spec, self.nrows, other.ncols, tuple(out))

    def map_columns(self, col_map: Sequence[int], new_ncols: int) -> "FieldMatrix":
        """Scatter each column j to position col_map[j] in a wider matrix."""
        m = self.spec.m
        lane = (1 << m) - 1
        shifts = [c * m for c in col_map]
        out = []
        for image in self.images:
            mapped = 0
            while image:
                j = ((image & -image).bit_length() - 1) // m
                mapped ^= (image >> j * m & lane) << shifts[j]
                image &= ~(lane << j * m)
            out.append(mapped)
        return FieldMatrix(self.spec, self.nrows, new_ncols, tuple(out))

    # Cached on the immutable matrix; only reused matrices, such as
    # placements, reach them: as the right factor of matmul, or as a basis
    # whose echelon gives its rank and seeds its user's spans.

    @functools.cached_property
    def _lifted(self) -> list[int]:
        """Entry k*m + i is the binary image of x^i * (row k)."""
        span = RowSpan(self.spec, self.ncols)
        return [lifted for image in self.images for lifted in span._lift(image)]

    @functools.cached_property
    def _echelon(self) -> "RowSpan":
        """Echelon of the rows with a coefficient mask per pivot (see RowSpan)."""
        span = RowSpan(self.spec, self.ncols)
        tag = 1 << (self.ncols * self.spec.m)
        for image in self._lifted:
            span._insert(image | tag)
            tag <<= 1
        return span


def _pack(row: Sequence[int], m: int) -> int:
    """Binary image of a row: entry j in bits [j*m, (j+1)*m)."""
    mask = 0
    for shift, v in zip(range(0, len(row) * m, m), row):
        if v:
            mask |= v << shift
    return mask


def _unpack(mask: int, n: int, m: int) -> tuple[int, ...]:
    """The n field elements held in the m-bit lanes of a binary image."""
    lane = (1 << m) - 1
    return tuple((mask >> shift) & lane for shift in range(0, n * m, m))


class RowSpan:
    """Incremental GF(2) echelon of binary row images, for every GF(2^m).

    A row enters as the images of x^i * row for i < m.  Their GF(2)-span is
    exactly the binary image of the row's GF(2^m)-span, so membership is
    one GF(2) reduction and the rank over GF(2^m) is the pivot count over m.
    Pivots are packed ints keyed by their lowest set bit.

    A matrix's echelon (`FieldMatrix._echelon`) also carries, above the row
    bits, a coefficient mask per pivot in which bit k*m + i stands for
    x^i * (row k).  Read in m-bit lanes, the mask of a reduced target is the
    GF(2^m) weight of each matrix row, because field elements are
    polynomials stored as ints.  Rows that depend on earlier rows never
    become pivots, so they get weight 0.  Every pivot's lowest set bit is a
    row bit, and `contains` masks the coefficients away, so a copy of the
    echelon grown with other rows still answers `contains` and `rank`; its
    `express` no longer means anything.
    """

    def __init__(self, spec: FieldSpec, ncols: int):
        self.spec = spec
        self.ncols = ncols
        self.pivots: dict[int, int] = {}  # lowest set bit -> reduced image
        m = spec.m
        self._row_bits = (1 << (ncols * m)) - 1
        self._lane_tops = self._row_bits // ((1 << m) - 1) << (m - 1)

    def copy(self) -> "RowSpan":
        dup = RowSpan.__new__(RowSpan)
        dup.__dict__.update(self.__dict__)
        dup.pivots = dict(self.pivots)
        return dup

    @property
    def rank(self) -> int:
        return len(self.pivots) // self.spec.m

    def _lift(self, mask: int) -> list[int]:
        """The images of x^i * row for i < m, from the image of row."""
        m, tops = self.spec.m, self._lane_tops
        low = self.spec.modulus ^ (1 << m)
        images = [mask]
        for _ in range(m - 1):
            # Raise every lane one degree; a lane that reaches x^m is reduced
            # by the modulus.  Lanes are m bits apart, so nothing carries.
            top = mask & tops
            mask = ((mask ^ top) << 1) ^ (top >> (m - 1)) * low
            images.append(mask)
        return images

    def _reduce(self, mask: int) -> int:
        """Clear every pivot lead from mask, lowest bit first."""
        pivots = self.pivots
        while mask:
            lead = (mask & -mask).bit_length() - 1
            piv = pivots.get(lead)
            if piv is None:
                return mask
            mask ^= piv
        return 0

    def _insert(self, mask: int) -> bool:
        residual = self._reduce(mask)
        if not residual & self._row_bits:
            return False
        self.pivots[(residual & -residual).bit_length() - 1] = residual
        return True

    def add(self, mask: int) -> bool:
        """Insert a row's binary image; True when it enlarged the span."""
        if not self._insert(mask):
            return False  # the span is closed under x, so it holds every x^i * row
        for image in self._lift(mask)[1:]:
            self._insert(image)
        return True

    def add_matrix(self, matrix: FieldMatrix) -> None:
        for image in matrix.images:
            self.add(image)

    def add_span(self, other: "RowSpan") -> None:
        """Insert every row of another span that has no coefficient masks."""
        for piv in other.pivots.values():
            self._insert(piv)

    def contains(self, mask: int) -> bool:
        return not self._reduce(mask) & self._row_bits

    def express(self, mask: int) -> Optional[int]:
        """Coefficient mask of a row image over a matrix's echelon; None outside the span."""
        residual = self._reduce(mask)
        if residual & self._row_bits:
            return None
        return residual >> (self.ncols * self.spec.m)


def mat_rank(matrix: FieldMatrix) -> int:
    """Rank over the matrix's field, from its cached echelon."""
    return matrix._echelon.rank


def solve_in_rowspace(target: Sequence[int], basis: FieldMatrix) -> Optional[tuple[int, ...]]:
    """Coefficients c with c @ basis == target, or None when outside the span.

    Basis rows that depend on earlier rows get weight 0, making the answer
    deterministic.  The basis's echelon is built once and cached on it.
    """
    spec = basis.spec
    if len(target) != basis.ncols:
        raise ConfigurationError("target length must match basis column count")
    image = _pack([spec.check_element(int(v)) for v in target], spec.m)
    coeffs = basis._echelon.express(image)
    return None if coeffs is None else _unpack(coeffs, basis.nrows, spec.m)


def min_extension_degree(n_out: int) -> int:
    """Smallest m whose extended evaluation-point set covers n_out rows."""
    m = 1
    while (1 << m) + 1 < n_out:
        m += 1
    return m


def mds_generator(n_out: int, k_in: int, spec: FieldSpec) -> FieldMatrix:
    """Deterministic (n_out, k_in) MDS generator matrix.

    Rows evaluate (1, x, ..., x^(k_in-1)) at the points 0, 1, g, g^2, ...
    (g the field generator), plus a final point-at-infinity row
    (0, ..., 0, 1) when one extra row is needed.  Every k_in x k_in
    submatrix is invertible.
    """
    if k_in < 1 or n_out < k_in:
        raise ConfigurationError(f"need 1 <= k_in <= n_out, got ({n_out}, {k_in})")
    capacity = spec.size + 1
    if n_out > capacity:
        raise ConfigurationError(
            f"GF(2^{spec.m}) supports at most {capacity} MDS rows; "
            f"n_out={n_out} needs m >= {min_extension_degree(n_out)}"
        )
    points = [0]
    x = 1
    g = spec.generator()
    while len(points) < min(n_out, spec.size):
        points.append(x)
        x = spec.mul(x, g)
    images = [sum(spec.pow(p, e) << e * spec.m for e in range(k_in)) for p in points]
    if n_out == capacity:
        images.append(1 << (k_in - 1) * spec.m)
    return FieldMatrix(spec, n_out, k_in, tuple(images))
