"""Exact determinant lower bounds, rates, and redundancy for coset schemes.

All bounds are rational arithmetic on :class:`fractions.Fraction`; the one
irrational ingredient (sqrt of a square-free integer, sqrt2 in the multilevel
sums) is carried symbolically by :class:`SqrtVal`, which refuses any other
radicand, so minima and comparisons are still exact — ordering is decided by signs and squaring, never by
floating point.

Formula inventory (delta is the normalized minimum determinant of the inner
lattice layer, d's are minimum distances of the outer codes):

* hamming_bound(n, a_norm_sq, delta, d):  min(a_norm_sq^n * delta, d^2 * delta)
  — coset codes from the ideal (a): either all symbols fall in the zero
  coset (giving the |a|^(2n) factor) or at least d nonzero-coset blocks
  contribute, and squaring the block sum gives d^2.
* bachoc_bound(delta, d_b): min(4 * delta, d_b^2 * delta / 2) — same shape
  for the 2x2 binary-matrix weight, whose nonzero classes only guarantee a
  half-unit of determinant each.
* hamming_bound_m2f2i(delta, d): min(16 * delta, d^2 * delta) — ideal (2),
  where the zero coset scales by |2|^4 = 16.
* multilevel_bound_m4: [min(4, d1, sqrt2*d2, 2*d3, 2*sqrt2*d4)]^2 * delta for
  the four-level nilpotent filtration of the 4x4 model.  A variant of the
  sum repeats d3 in the last term; pass duplicate_d3=True to compute that
  form instead.
* multilevel_min_m2f2i(d1, d2): min(2*d1, sqrt2*d2), the two-level analogue.
* normalized_redundancy(bits, L, n): redundancy bits per channel use, out of
  L blocks of n uses.
* rate_m2f2i(L, k): (L-1)/(2L) + k/(4L), the rate of the two-level scheme
  with a parity outer code and an [L, k] binary second level.
* multilevel_rate_m4(ks, L): sum(k_i) / (4L), information symbols per symbol
  slot for the four-level scheme.
* gv_bound(q, L, d): q^L / sum_{j<d} C(L,j) (q-1)^j, the Gilbert-Varshamov
  guarantee on the number of codewords.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Sequence


@functools.total_ordering
class SqrtVal:
    """Exact p + q*sqrt(d) with p, q rational and d a square-free int >= 2.

    The radicand is checked, so q != 0 means irrational and == agrees with
    hash.  Supports ring operations against values with the same d (or plain
    rationals), exact comparison, and printing.  Comparison works by moving
    everything to one side and deciding the sign of p + q*sqrt(d) from the
    signs of p, q and of p^2 - q^2*d — no floats involved.
    """

    __slots__ = ("p", "q", "d")

    def __init__(self, p, q=0, d: int = 2):
        k = 2  # the least k >= 2 with k^2 > d or k^2 dividing d
        while k * k <= d and d % (k * k):
            k += 1
        if d < 2 or k * k <= d:
            raise ValueError(f"sqrt({d}) needs a square-free radicand >= 2")
        self.p = Fraction(p)
        self.q = Fraction(q)
        self.d = d

    # ------------------------------------------------------------------

    def _coerce(self, other) -> "SqrtVal":
        if not isinstance(other, SqrtVal):
            return SqrtVal(Fraction(other), 0, self.d)
        if other.d != self.d and other.q != 0 and self.q != 0:
            raise ValueError(f"mixing sqrt({self.d}) with sqrt({other.d})")
        return other

    def _radicand(self, o: "SqrtVal") -> int:
        """The radicand of a result: that of its irrational operand."""
        return o.d if self.q == 0 else self.d

    def __add__(self, other) -> "SqrtVal":
        o = self._coerce(other)
        return SqrtVal(self.p + o.p, self.q + o.q, self._radicand(o))

    __radd__ = __add__

    def __sub__(self, other) -> "SqrtVal":
        o = self._coerce(other)
        return SqrtVal(self.p - o.p, self.q - o.q, self._radicand(o))

    def __rsub__(self, other) -> "SqrtVal":
        return self._coerce(other).__sub__(self)

    def __neg__(self) -> "SqrtVal":
        return SqrtVal(-self.p, -self.q, self.d)

    def __mul__(self, other) -> "SqrtVal":
        o = self._coerce(other)
        d = self._radicand(o)
        return SqrtVal(self.p * o.p + self.q * o.q * d, self.p * o.q + self.q * o.p, d)

    __rmul__ = __mul__

    # ------------------------------------------------------------------

    def sign(self) -> int:
        """Sign of p + q*sqrt(d), decided exactly.

        s -> s*|s| is strictly increasing, so p + q*sqrt(d) = p - (-q*sqrt(d))
        has the sign of p*|p| + q*|q|*d, taken here times the squared
        denominators of p and q so that it stays on integers.
        """
        a, b = self.p.as_integer_ratio()
        c, e = self.q.as_integer_ratio()
        t = a * abs(a) * e * e + c * abs(c) * self.d * b * b
        return (t > 0) - (t < 0)

    def __eq__(self, other) -> bool:
        try:
            o = self._coerce(other)
        except (ValueError, TypeError):
            return NotImplemented
        return (self - o).sign() == 0

    def __lt__(self, other) -> bool:
        return (self - self._coerce(other)).sign() < 0

    def __hash__(self) -> int:
        if self.q == 0:
            return hash(self.p)
        return hash((self.p, self.q, self.d))

    def __reduce__(self) -> tuple:
        return SqrtVal, (self.p, self.q, self.d)

    # ------------------------------------------------------------------

    @property
    def is_rational(self) -> bool:
        return self.q == 0

    def as_fraction(self) -> Fraction:
        if not self.is_rational:
            raise ValueError(f"{self} is irrational")
        return self.p

    def __float__(self) -> float:
        return float(self.p) + float(self.q) * math.sqrt(self.d)

    def __str__(self) -> str:
        if self.q == 0:
            return str(self.p)
        root = f"sqrt{self.d}"
        term = root if abs(self.q) == 1 else f"{abs(self.q)}*{root}"
        if self.p == 0:
            return term if self.q > 0 else f"-{term}"
        sign = "+" if self.q > 0 else "-"
        return f"{self.p}{sign}{term}"

    def __repr__(self) -> str:
        return f"SqrtVal({self.p}, {self.q}, d={self.d})"


SQRT2 = SqrtVal(0, 1, 2)


def _check_positive_delta(delta: Fraction) -> Fraction:
    delta = Fraction(delta)
    if delta <= 0:
        raise ValueError("delta must be positive")
    return delta


def hamming_bound(n: int, a_norm_sq, delta, d: int) -> Fraction:
    """min(a_norm_sq^n, d^2) * delta for the ideal-(a) coset construction."""
    delta = _check_positive_delta(delta)
    if d < 1:
        raise ValueError("distance must be >= 1")
    if n < 1:
        raise ValueError("n must be >= 1")
    a_norm_sq = Fraction(a_norm_sq)
    if a_norm_sq <= 0:
        raise ValueError("a_norm_sq must be positive")
    return min(a_norm_sq**n * delta, Fraction(d * d) * delta)


def bachoc_bound(delta, d_b: int) -> Fraction:
    """min(4, d_b^2 / 2) * delta for the 2x2 binary-matrix weight."""
    delta = _check_positive_delta(delta)
    if d_b < 1:
        raise ValueError("distance must be >= 1")
    return min(4 * delta, Fraction(d_b * d_b, 2) * delta)


def hamming_bound_m2f2i(delta, d: int) -> Fraction:
    """min(16, d^2) * delta for the ideal-(2) coset construction: the
    Hamming bound with |2|^2 = 4 over n = 2."""
    return hamming_bound(2, 4, delta, d)


def multilevel_min_m4(
    d1: int, d2: int, d3: int, d4: int, duplicate_d3: bool = False
) -> SqrtVal:
    """min(4, d1, sqrt2*d2, 2*d3, 2*sqrt2*d4) on the nilpotent filtration.

    duplicate_d3=True replaces the final d4 with d3 (the duplicated-index
    variant of the sum)."""
    for d in (d1, d2, d3, d4):
        if d < 1:
            raise ValueError("distances must be >= 1")
    last = d3 if duplicate_d3 else d4
    candidates = [
        SqrtVal(4),
        SqrtVal(d1),
        SQRT2 * d2,
        SqrtVal(2 * d3),
        SQRT2 * (2 * last),
    ]
    return min(candidates)


def multilevel_bound_m4(
    d1: int, d2: int, d3: int, d4: int, delta, duplicate_d3: bool = False
) -> Fraction:
    """Squared multilevel minimum times delta; always rational (each
    candidate is either rational or a rational multiple of sqrt2)."""
    delta = _check_positive_delta(delta)
    m = multilevel_min_m4(d1, d2, d3, d4, duplicate_d3)
    sq = m * m
    return sq.as_fraction() * delta


def multilevel_min_m2f2i(d1: int, d2: int) -> SqrtVal:
    """min(2*d1, sqrt2*d2) for the two-level F4[i] scheme."""
    if d1 < 1 or d2 < 1:
        raise ValueError("distances must be >= 1")
    return min(SqrtVal(2 * d1), SQRT2 * d2)


def normalized_redundancy(redundancy_bits: int, L: int, n: int) -> Fraction:
    """Outer-code redundancy in bits per channel use: bits / (L * n)."""
    if L < 1 or n < 1:
        raise ValueError("L and n must be >= 1")
    if redundancy_bits < 0:
        raise ValueError("redundancy must be nonnegative")
    return Fraction(redundancy_bits, L * n)


def rate_m2f2i(L: int, k: int) -> Fraction:
    """Rate (L-1)/(2L) + k/(4L) of the two-level scheme: a parity outer code
    on the unit layer plus an [L, k] binary code on the (1+i) layer."""
    if L < 2 or not 0 <= k <= L:
        raise ValueError("need L >= 2 and 0 <= k <= L")
    return Fraction(L - 1, 2 * L) + Fraction(k, 4 * L)


def multilevel_rate_m4(ks: Sequence[int], L: int) -> Fraction:
    """Information symbols per slot, sum(k_i) / (4L), for four level codes."""
    if len(ks) != 4:
        raise ValueError("need exactly 4 level dimensions")
    if L < 1:
        raise ValueError("L must be >= 1")
    if any(not 0 <= k <= L for k in ks):
        raise ValueError("level dimensions must lie in [0, L]")
    return Fraction(sum(ks), 4 * L)


def gv_bound(q: int, L: int, d: int) -> Fraction:
    """Gilbert-Varshamov: at least q^L / sum_{j<d} C(L,j)(q-1)^j codewords."""
    if q < 2 or L < 1 or not 1 <= d <= L + 1:
        raise ValueError("need q >= 2, L >= 1, 1 <= d <= L+1")
    denom = sum(math.comb(L, j) * (q - 1) ** j for j in range(d))
    return Fraction(q**L, denom)
