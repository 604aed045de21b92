from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from cosetcodes.bounds import (
    SQRT2,
    SqrtVal,
    bachoc_bound,
    gv_bound,
    hamming_bound,
    hamming_bound_m2f2i,
    multilevel_bound_m4,
    multilevel_min_m2f2i,
    multilevel_min_m4,
    multilevel_rate_m4,
    normalized_redundancy,
    rate_m2f2i,
)

small = st.integers(min_value=-40, max_value=40)


def test_sqrtval_basics():
    x = SqrtVal(Fraction(1, 2), Fraction(3, 4), 5)
    assert str(x) == "1/2+3/4*sqrt5"
    assert str(SQRT2) == "sqrt2"
    assert str(SqrtVal(0, -1, 2)) == "-sqrt2"
    assert SqrtVal(3, 0, 5).as_fraction() == 3
    assert not x.is_rational
    with pytest.raises(ValueError):
        x.as_fraction()
    with pytest.raises(ValueError):
        SQRT2 + SqrtVal(0, 1, 5)
    # sign() on an exhaustive grid of small fractions of both signs and 0,
    # against the case split it replaced, written out here
    grid = sorted({Fraction(n, k) for n in range(-7, 8) for k in (1, 2, 3)})
    for d in (2, 3, 5):
        for p in grid:
            for q in grid:
                assert SqrtVal(p, q, d).sign() == _case_split_sign(p, q, d), (p, q, d)


def _case_split_sign(p: Fraction, q: Fraction, d: int) -> int:
    if q == 0:
        return (p > 0) - (p < 0)
    if p == 0:
        return (q > 0) - (q < 0)
    if p > 0 and q > 0:
        return 1
    if p < 0 and q < 0:
        return -1
    # opposite signs: the term of larger magnitude wins (p^2 vs q^2 d)
    lhs, rhs = p * p, q * q * d
    if lhs == rhs:
        return 0
    return (1 if p > 0 else -1) if lhs > rhs else (1 if q > 0 else -1)


@pytest.mark.parametrize("rational", [SqrtVal(2), SqrtVal(2, 0, 7), Fraction(2), 2])
def test_sqrtval_result_takes_the_irrational_radicand(rational):
    """A rational operand, whatever its own radicand, leaves the result on
    the radicand of the irrational one, on either side."""
    root5 = SqrtVal(0, 1, 5)
    assert str(rational + root5) == str(root5 + rational) == "2+sqrt5"
    assert str(rational - root5) == "2-sqrt5"
    assert str(root5 - rational) == "-2+sqrt5"
    assert str(rational * root5) == str(root5 * rational) == "2*sqrt5"
    assert rational < root5 and root5 > rational  # sqrt5 > 2
    assert not (rational > root5) and not (root5 < rational)
    assert rational * root5 * root5 == 10 == root5 * root5 * rational
    assert rational + root5 == SqrtVal(2, 1, 5) == root5 + rational
    assert not (rational == root5) and not (root5 == rational)


def test_sqrtval_still_refuses_two_irrational_radicands():
    for op in ("__add__", "__sub__", "__mul__", "__lt__", "__gt__"):
        with pytest.raises(ValueError, match=r"^mixing sqrt\(5\) with sqrt\(2\)$"):
            getattr(SqrtVal(1, 1, 5), op)(SQRT2)
    assert SqrtVal(1, 1, 5) != SQRT2


@pytest.mark.parametrize("d", [0, -1, -5, 1, 4, 8, 12])
def test_sqrtval_rejects_nonpositive_radicand(d):
    """Radicands below 2 and those with a square factor are refused, so no
    irrational-looking value can equal a rational with a different hash."""
    with pytest.raises(ValueError, match=rf"^sqrt\({d}\) needs a square-free radicand >= 2$"):
        SqrtVal(0, 1, d)


def test_sqrt2_squares_to_2():
    assert SQRT2 * SQRT2 == SqrtVal(2, 0, 2)
    assert SqrtVal(0, 1, 5) * SqrtVal(0, 1, 5) == 5
    # sqrt2 is irrational: no rational ever equals it
    assert SQRT2 != Fraction(141421356, 100000000)


@given(p=small, q=small, r=small, s=small)
@example(p=3, q=-1, r=3, s=-1)
@example(p=7, q=0, r=7, s=0)
def test_sqrtval_order_matches_floats(p, q, r, s):
    """All six comparisons agree with floating point whenever the float gap
    is comfortably above rounding error, and a tie is <= and >= only."""
    x = SqrtVal(p, q, 5)
    y = SqrtVal(r, s, 5)
    fx = p + q * math.sqrt(5)
    fy = r + s * math.sqrt(5)
    order = (x < y, x <= y, x > y, x >= y, x == y, x != y)
    if abs(fx - fy) > 1e-6:
        assert order == (fx < fy, fx <= fy, fx > fy, fx >= fy, False, True)
    if (p, q) == (r, s):
        assert order == (False, True, False, True, True, False)
        if q == 0:  # against a plain rational, from either side
            assert (x < p, x <= p, x > p, x >= p, p <= x, p >= x) == (
                False, True, False, True, True, True
            )


@given(p=small, q=small, r=small, s=small)
def test_sqrtval_ring_ops(p, q, r, s):
    x = SqrtVal(p, q, 2)
    y = SqrtVal(r, s, 2)
    assert float(x * y) == pytest.approx(float(x) * float(y), abs=1e-6)
    assert float(x + y) == pytest.approx(float(x) + float(y), abs=1e-9)
    assert x - y == -(y - x)


def test_hamming_bound_values():
    assert hamming_bound(2, 2, Fraction(1, 5), 2) == Fraction(4, 5)
    assert hamming_bound(2, 2, Fraction(1, 5), 3) == Fraction(4, 5)  # capped
    assert hamming_bound(2, 2, Fraction(1, 5), 1) == Fraction(1, 5)
    assert hamming_bound(3, 2, Fraction(1, 5), 2) == Fraction(4, 5)
    with pytest.raises(ValueError):
        hamming_bound(2, 2, Fraction(-1, 5), 2)
    for n in (0, -1):
        with pytest.raises(ValueError, match="^n must be >= 1$"):
            hamming_bound(n, 2, Fraction(1, 5), 2)
    for a_norm_sq in (0, -2, Fraction(-1, 2)):
        with pytest.raises(ValueError, match="^a_norm_sq must be positive$"):
            hamming_bound(2, a_norm_sq, Fraction(1, 5), 2)


def test_bachoc_and_m2f2i_bounds():
    assert bachoc_bound(Fraction(1, 5), 2) == Fraction(2, 5)
    assert bachoc_bound(Fraction(1, 5), 4) == Fraction(4, 5)
    assert bachoc_bound(Fraction(1, 5), 100) == Fraction(4, 5)
    assert hamming_bound_m2f2i(Fraction(1, 5), 2) == Fraction(4, 5)
    assert hamming_bound_m2f2i(Fraction(1, 5), 5) == Fraction(16, 5)


def test_multilevel_m4():
    assert multilevel_min_m4(4, 3, 2, 2) == 4
    assert multilevel_bound_m4(4, 3, 2, 2, Fraction(1, 1125)) == Fraction(16, 1125)
    # the literal variant repeats d3 in the last term; visible only when the
    # last term is the minimum and d4 differs from d3
    assert multilevel_min_m4(8, 8, 8, 1) == SqrtVal(0, 2, 2)
    assert multilevel_min_m4(8, 8, 8, 1, duplicate_d3=True) == 4
    assert multilevel_bound_m4(8, 8, 8, 1, Fraction(1, 5)) == Fraction(8, 5)


def test_multilevel_m2f2i():
    assert multilevel_min_m2f2i(1, 4) == 2
    assert multilevel_min_m2f2i(3, 2) == SQRT2 * 2
    assert multilevel_min_m2f2i(3, 2) < multilevel_min_m2f2i(2, 4)


def test_rates_and_redundancy():
    assert normalized_redundancy(28, 16, 4) == Fraction(7, 16)
    assert multilevel_rate_m4((13, 14, 15, 15), 16) == Fraction(57, 64)
    assert rate_m2f2i(16, 13) == Fraction(15, 32) + Fraction(13, 64)


@pytest.mark.parametrize(
    "ks,L,message",
    [((0, 0, 0, 0), 0, "L must be >= 1"), ((0, 0, 0, 0), -1, "L must be >= 1"),
     ((0, 1, 2, 3), 2, r"level dimensions must lie in \[0, L\]"),
     ((0, -1, 0, 0), 1, r"level dimensions must lie in \[0, L\]")],
)
def test_multilevel_rate_m4_refuses_bad_lengths_and_dimensions(ks, L, message):
    """L < 1 is refused on its own, before the dimensions are read: with
    every k = 0 no dimension lies outside [0, L]."""
    with pytest.raises(ValueError, match=f"^{message}$"):
        multilevel_rate_m4(ks, L)


def test_gv_bound():
    assert gv_bound(4, 6, 4) == Fraction(2048, 347)
    assert gv_bound(2, 4, 1) == 16  # no distance constraint at all
    with pytest.raises(ValueError):
        gv_bound(4, 6, 0)
