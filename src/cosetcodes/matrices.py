"""Small square matrices over the finite rings, with division-free determinants.

Matrix entries come from :mod:`cosetcodes.rings`; sizes are 2x2 up to 4x4 —
large enough for every matrix model in this package, small enough that a
cofactor determinant is both exact and fast.  Nothing here ever divides, so
the code is correct over the non-field rings (F2[i], F4[i], F16_ALT) where
Gaussian elimination would silently go wrong on a zero divisor.

Invertibility over a commutative ring is ``det(M) is a unit``, not
``det(M) != 0``; the two differ over F2[i] and friends and the difference is
load-bearing downstream (projection classes, Bachoc weights).
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
    """An immutable n x n matrix over one :class:`QuotientRing`."""

    __slots__ = ("ring", "n", "entries")

    def __init__(self, ring: QuotientRing, rows: Iterable[Iterable[RingElement]]):
        entries: list[RingElement] = []
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
                entries.append(x)
        self.ring = ring
        self.n = n
        self.entries = tuple(entries)

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def zeros(cls, ring: QuotientRing, n: int) -> "RingMatrix":
        z = ring.zero
        return cls(ring, [[z] * n for _ in range(n)])

    @classmethod
    def identity(cls, ring: QuotientRing, n: int) -> "RingMatrix":
        return cls(
            ring,
            [
                [ring.one if r == c else ring.zero for c in range(n)]
                for r in range(n)
            ],
        )

    @classmethod
    def from_masks(cls, ring: QuotientRing, rows: Iterable[Iterable[int]]) -> "RingMatrix":
        """Build from integer masks; handy for literal tables over F2."""
        return cls(ring, [[ring.elements[m] for m in row] for row in rows])

    @classmethod
    def parse(cls, ring: QuotientRing, text: str) -> "RingMatrix":
        """Parse "[[0,1],[1,0]]" with entries in the ring's element grammar;
        whitespace may surround brackets, rows and entries."""
        m = re.fullmatch(r"\s*\[\s*\[(.*)\]\s*\]\s*", text, re.DOTALL)
        if not m:
            raise ValueError(f"matrix literal must look like [[...],[...]]: {text!r}")
        rows = [chunk.split(",") for chunk in re.split(r"\]\s*,\s*\[", m.group(1))]
        return cls(ring, [[ring.parse(e.strip()) for e in row] for row in rows])

    # ------------------------------------------------------------------
    # access

    def __getitem__(self, rc: tuple[int, int]) -> RingElement:
        r, c = rc
        return self.entries[r * self.n + c]

    def row(self, r: int) -> tuple[RingElement, ...]:
        return self.entries[r * self.n : (r + 1) * self.n]

    @property
    def is_zero(self) -> bool:
        return all(x.is_zero for x in self.entries)

    # ------------------------------------------------------------------
    # arithmetic

    def _check_compatible(self, other: "RingMatrix") -> None:
        if not isinstance(other, RingMatrix):
            raise TypeError(f"cannot combine RingMatrix with {type(other).__name__}")
        if other.ring is not self.ring or other.n != self.n:
            raise ValueError("matrices have different rings or sizes")

    def __add__(self, other: "RingMatrix") -> "RingMatrix":
        self._check_compatible(other)
        n = self.n
        pairs = zip(self.entries, other.entries)
        flat = [a + b for a, b in pairs]
        return RingMatrix(self.ring, [flat[r * n : (r + 1) * n] for r in range(n)])

    __sub__ = __add__  # characteristic 2

    def __mul__(self, other: "RingMatrix") -> "RingMatrix":
        self._check_compatible(other)
        n = self.n
        rows = []
        for r in range(n):
            row = []
            for c in range(n):
                acc = self.ring.zero
                for k in range(n):
                    acc = acc + self.entries[r * n + k] * other.entries[k * n + c]
                row.append(acc)
            rows.append(row)
        return RingMatrix(self.ring, rows)

    def scale(self, s: RingElement) -> "RingMatrix":
        n = self.n
        flat = [s * x for x in self.entries]
        return RingMatrix(self.ring, [flat[r * n : (r + 1) * n] for r in range(n)])

    def transpose(self) -> "RingMatrix":
        n = self.n
        return RingMatrix(
            self.ring, [[self.entries[c * n + r] for c in range(n)] for r in range(n)]
        )

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
        return self._det(list(range(self.n)), list(range(self.n)))

    def _det(self, rows: list[int], cols: list[int]) -> RingElement:
        n = len(rows)
        if n == 1:
            return self[rows[0], cols[0]]
        acc = self.ring.zero
        r0 = rows[0]
        rest = rows[1:]
        for j, c in enumerate(cols):
            pivot = self[r0, c]
            if pivot.is_zero:
                continue
            minor_cols = cols[:j] + cols[j + 1 :]
            acc = acc + pivot * self._det(rest, minor_cols)
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
            and other.entries == self.entries
        )

    def __hash__(self) -> int:
        return hash((self.ring.name, self.n, tuple(x.mask for x in self.entries)))

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
    for flat in itertools.product(ring.elements, repeat=n * n):
        yield RingMatrix(ring, [flat[r * n : (r + 1) * n] for r in range(n)])


def count_invertible(ring: QuotientRing, n: int) -> int:
    """|GL_n| of the ring by exhaustive determinant checks."""
    return sum(1 for m in all_matrices(ring, n) if m.is_invertible)


def matrix_space_size(ring: QuotientRing, n: int) -> int:
    return ring.size ** (n * n)
