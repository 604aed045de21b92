"""Small square matrices over the finite rings, with division-free determinants.

Matrix entries come from :mod:`cosetcodes.rings`; sizes are 2x2 up to 4x4 —
large enough for every matrix model in this package, small enough that a
cofactor determinant is both exact and fast.  Nothing here ever divides, so
the code is correct over the non-field rings (F2[i], F4[i], F16_ALT) where
Gaussian elimination would silently go wrong on a zero divisor.

Invertibility over a commutative ring is ``det(M) is a unit``, not
``det(M) != 0``; the two differ over F2[i] and friends and the difference is
load-bearing downstream (projection classes, Bachoc weights).

A matrix stores its entries as element masks, not as element objects: sums
XOR the masks, products and determinants read rows of the ring's
multiplication table ``ring._mul``.  Element objects appear only at the
boundary: the constructors and ``parse`` check and take them, while
``__getitem__``, ``row``, ``entries``, ``det`` and ``str`` hand them out.
The ``rings.*_calls`` counters of the benchmark therefore no longer see the
matrix inner loops.
"""

from __future__ import annotations

import itertools
import re
from typing import Iterable, Iterator

from .rings import QuotientRing, RingElement

# Exhaustive matrix-space enumeration is capped so a typo in (ring, n) cannot
# turn into an accidental 4^16-element loop.
ENUMERATION_LIMIT = 2**20


class RingMatrix:
    """An immutable n x n matrix over one :class:`QuotientRing`.

    The entries are kept as one row-major tuple of element masks, ``masks``;
    ``entries`` rebuilds the element objects on demand.
    """

    __slots__ = ("ring", "n", "masks")

    def __init__(self, ring: QuotientRing, rows: Iterable[Iterable[RingElement]]):
        masks: list[int] = []
        rows = [list(r) for r in rows]
        n = len(rows)
        if not 1 <= n <= 4:
            raise ValueError("only sizes 1x1 through 4x4 are supported")
        for row in rows:
            if len(row) != n:
                raise ValueError("matrix must be square")
            for x in row:
                if not isinstance(x, RingElement) or x.ring is not ring:
                    raise ValueError(f"entry {x!r} does not belong to {ring.name}")
                masks.append(x.mask)
        self.ring = ring
        self.n = n
        self.masks = tuple(masks)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def _of(cls, ring: QuotientRing, n: int, masks: tuple[int, ...]) -> "RingMatrix":
        """Wrap n*n row-major masks that are already known to be valid."""
        m = object.__new__(cls)
        m.ring = ring
        m.n = n
        m.masks = masks
        return m

    @classmethod
    def zeros(cls, ring: QuotientRing, n: int) -> "RingMatrix":
        return cls.from_masks(ring, [[0] * n for _ in range(n)])

    @classmethod
    def identity(cls, ring: QuotientRing, n: int) -> "RingMatrix":
        one = ring.one.mask
        return cls.from_masks(
            ring, [[one if r == c else 0 for c in range(n)] for r in range(n)]
        )

    @classmethod
    def from_masks(cls, ring: QuotientRing, rows: Iterable[Iterable[int]]) -> "RingMatrix":
        """Build from integer masks; handy for literal tables over F2."""
        return cls(ring, [[ring.element(m) for m in row] for row in rows])

    @classmethod
    def parse(cls, ring: QuotientRing, text: str) -> "RingMatrix":
        """Parse "[[0,1],[1,0]]" with entries in the ring's element grammar;
        whitespace may surround brackets, rows and entries."""
        m = re.fullmatch(r"\s*\[\s*\[(.*)\]\s*\]\s*", text, re.DOTALL)
        if not m:
            raise ValueError(f"matrix literal must look like [[...],[...]]: {text!r}")
        rows = [chunk.split(",") for chunk in re.split(r"\]\s*,\s*\[", m.group(1))]
        if set(map(len, rows)) != {len(rows)}:
            raise ValueError(f"matrix literal is not square: {text!r}")
        return cls(ring, [[ring.parse(e.strip()) for e in row] for row in rows])

    @classmethod
    def _parse_n(cls, ring: QuotientRing, n: int, text: str) -> "RingMatrix":
        """``parse``, refusing a literal that is not n x n: the one message
        for a matrix symbol or a coset of the wrong size."""
        m = cls.parse(ring, text)
        if m.n != n:
            raise ValueError(f"not a {n}x{n} matrix over {ring.name}: {text!r}")
        return m

    # ------------------------------------------------------------------
    # access

    @property
    def entries(self) -> tuple[RingElement, ...]:
        elements = self.ring.elements
        return tuple(elements[m] for m in self.masks)

    def __getitem__(self, rc: tuple[int, int]) -> RingElement:
        r, c = rc
        return self.ring.elements[self.masks[r * self.n + c]]

    def row(self, r: int) -> tuple[RingElement, ...]:
        elements = self.ring.elements
        return tuple(elements[m] for m in self.masks[r * self.n : (r + 1) * self.n])

    @property
    def is_zero(self) -> bool:
        return not any(self.masks)

    # ------------------------------------------------------------------
    # arithmetic: XOR of masks for sums, rows of ring._mul for products

    def _check_compatible(self, other: "RingMatrix") -> None:
        if not isinstance(other, RingMatrix):
            raise TypeError(f"cannot combine RingMatrix with {type(other).__name__}")
        if other.ring is not self.ring or other.n != self.n:
            raise ValueError("matrices have different rings or sizes")

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        self._check_compatible(other)
        return RingMatrix._of(
            self.ring, self.n, tuple(a ^ b for a, b in zip(self.masks, other.masks))
        )

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "RingMatrix") -> "RingMatrix":
        self._check_compatible(other)
        n = self.n
        mul = self.ring._mul
        a, b = self.masks, other.masks
        ks = range(n)
        out: list[int] = []
        # row r of the product is the XOR over k of a[r, k] * (row k of b)
        for r in range(0, n * n, n):
            acc = [0] * n
            for k in ks:
                x = a[r + k]
                if x:
                    row = mul[x]
                    for c in ks:
                        acc[c] ^= row[b[k * n + c]]
            out += acc
        return RingMatrix._of(self.ring, n, tuple(out))

    def __pow__(self, exponent: int) -> "RingMatrix":
        if exponent < 0:
            raise ValueError("negative matrix powers are not supported")
        result = RingMatrix.identity(self.ring, self.n)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # ------------------------------------------------------------------
    # determinant and invertibility

    def det(self) -> RingElement:
        """Cofactor-expansion determinant; exact over any commutative ring.

        Signs are irrelevant in characteristic 2, which keeps the expansion
        a plain XOR-accumulation of products.
        """
        return self.ring.elements[self._det(list(range(self.n)), list(range(self.n)))]

    def _det(self, rows: list[int], cols: list[int]) -> int:
        """Mask of the minor on the given rows and columns, expanded along
        its first row."""
        m, n, mul = self.masks, self.n, self.ring._mul
        r0 = rows[0] * n
        if len(rows) == 1:
            return m[r0 + cols[0]]
        if len(rows) == 2:
            r1 = rows[1] * n
            c0, c1 = cols
            return mul[m[r0 + c0]][m[r1 + c1]] ^ mul[m[r0 + c1]][m[r1 + c0]]
        acc = 0
        rest = rows[1:]
        for j, c in enumerate(cols):
            pivot = m[r0 + c]
            if pivot:
                acc ^= mul[pivot][self._det(rest, cols[:j] + cols[j + 1 :])]
        return acc

    @property
    def is_invertible(self) -> bool:
        return self.det().is_unit

    # ------------------------------------------------------------------
    # comparison / printing

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, RingMatrix)
            and other.ring is self.ring
            and other.n == self.n
            and other.masks == self.masks
        )

    def __hash__(self) -> int:
        return hash((self.ring.name, self.n, self.masks))

    def __str__(self) -> str:
        rows = []
        for r in range(self.n):
            rows.append("[" + ",".join(str(x) for x in self.row(r)) + "]")
        return "[" + ",".join(rows) + "]"

    def __repr__(self) -> str:
        return f"RingMatrix({self.ring.name}, {self})"


def all_matrices(ring: QuotientRing, n: int) -> Iterator[RingMatrix]:
    """All n x n matrices over the ring, row-major lexicographic in the
    ring's element order.  Refuses spaces larger than ENUMERATION_LIMIT."""
    total = ring.size ** (n * n)
    if total > ENUMERATION_LIMIT:
        raise ValueError(
            f"matrix space {ring.name}^({n}x{n}) has {total} elements, "
            f"over the enumeration limit {ENUMERATION_LIMIT}"
        )
    if not 1 <= n <= 4:
        raise ValueError("only sizes 1x1 through 4x4 are supported")
    for masks in itertools.product(range(ring.size), repeat=n * n):
        yield RingMatrix._of(ring, n, masks)


def count_invertible(ring: QuotientRing, n: int) -> int:
    """|GL_n| of the ring by exhaustive determinant checks."""
    return sum(1 for m in all_matrices(ring, n) if m.is_invertible)


def matrix_space_size(ring: QuotientRing, n: int) -> int:
    return ring.size ** (n * n)
