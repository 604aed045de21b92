from __future__ import annotations

import itertools
import random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from cosetcodes.matrices import (
    ENUMERATION_LIMIT,
    RingMatrix,
    all_matrices,
    count_invertible,
    matrix_space_size,
)
from cosetcodes.rings import F2, F2I, F4, F4I, F16, RING_BY_NAME


def m2(ring, text):
    return RingMatrix.parse(ring, text)


def test_identity_and_zero():
    eye = RingMatrix.identity(F4, 3)
    zero = RingMatrix.zeros(F4, 3)
    for r in range(3):
        for c in range(3):
            assert eye[r, c] == (F4.one if r == c else F4.zero)
    assert zero.is_zero and not eye.is_zero
    for a in all_matrices(F4, 2):
        eye2 = RingMatrix.identity(F4, 2)
        assert a * eye2 == a == eye2 * a
        assert (a + a).is_zero


def test_parse_str_round_trip():
    for a in all_matrices(F2I, 2):
        assert RingMatrix.parse(F2I, str(a)) == a
    spaced = RingMatrix.parse(F2I, " [[1, i], [0,\t1+i]]\n")
    assert spaced == RingMatrix.parse(F2I, "[[1,i],[0,1+i]]")
    assert RingMatrix.parse(F2, "[[1,0], [0,1]]") == RingMatrix.identity(F2, 2)
    with pytest.raises(ValueError):
        RingMatrix.parse(F2, "[[0,1],[1]]")
    with pytest.raises(ValueError):
        RingMatrix.parse(F2, "[[0,1],[1,w]]")


def test_mixed_rings_refused():
    a = RingMatrix.identity(F2, 2)
    b = RingMatrix.identity(F4, 2)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a + RingMatrix.identity(F2, 3)
    with pytest.raises(TypeError):
        a + 1


def test_mul_associative_m2f2_exhaustive():
    ms = list(all_matrices(F2, 2))
    for a in ms:
        for b in ms:
            ab = a * b
            for c in ms:
                assert ab * c == a * (b * c)


def test_det_2x2_formula():
    for a in all_matrices(F4, 2):
        assert a.det() == a[0, 0] * a[1, 1] + a[0, 1] * a[1, 0]


def test_det_multiplicative_m2():
    for ring in (F2, F2I):
        ms = list(all_matrices(ring, 2))
        for a in ms:
            for b in ms:
                assert (a * b).det() == a.det() * b.det()


def test_det_transpose_m3f2():
    for a in all_matrices(F2, 3):
        t = a.transpose()
        assert t.transpose() == a
        assert t.det() == a.det()


def test_det_known_values():
    assert RingMatrix.identity(F16, 4).det() == F16.one
    perm = m2(F2, "[[0,1],[1,0]]")
    assert perm.det() == F2.one  # -1 = 1 in characteristic 2
    assert m2(F4, "[[w,w],[w,w]]").det().is_zero
    upper = RingMatrix.parse(F4, "[[w,1],[0,w+1]]")
    assert upper.det() == F4.parse("w") * F4.parse("w+1")


def test_pow_and_scale():
    a = m2(F2, "[[1,1],[0,1]]")
    assert a ** 0 == RingMatrix.identity(F2, 2)
    assert a ** 2 == a * a
    assert a ** 2 == RingMatrix.identity(F2, 2)  # unipotent, char 2
    s = F4.parse("w")
    b = RingMatrix.identity(F4, 2).scale(s)
    assert b[0, 0] == s and b[0, 1].is_zero


def test_invertibility_counts():
    assert count_invertible(F2, 2) == 6
    assert count_invertible(F2I, 2) == 96
    assert count_invertible(F4, 2) == (16 - 1) * (16 - 4)
    assert count_invertible(F2, 3) == 168


def test_is_invertible_matches_unit_det():
    for a in all_matrices(F2I, 2):
        assert a.is_invertible == a.det().is_unit


def test_enumeration_order_and_size():
    ms = list(all_matrices(F2, 2))
    assert len(ms) == matrix_space_size(F2, 2) == 16
    assert ms[0].is_zero
    assert str(ms[1]) == "[[0,0],[0,1]]"
    assert str(ms[-1]) == "[[1,1],[1,1]]"
    assert len(set(ms)) == 16


def test_enumeration_limit_guard():
    assert matrix_space_size(F16, 4) == 16 ** 16
    assert matrix_space_size(F16, 4) > ENUMERATION_LIMIT
    with pytest.raises(ValueError):
        next(all_matrices(F16, 4))
    for n in (-1, 0):
        with pytest.raises(ValueError, match="only sizes"):
            next(all_matrices(F2, n))


def test_from_masks():
    a = RingMatrix.from_masks(F4, [[0, 1], [2, 3]])
    assert a == m2(F4, "[[0,1],[w,w+1]]")


@pytest.mark.parametrize(
    "rows", [[[-1, 0], [0, -1]], [[2, 0], [0, 1]]], ids=["negative", "too-large"]
)
def test_from_masks_refuses_masks_out_of_range(rows):
    with pytest.raises(ValueError, match="is not an element of f2"):
        RingMatrix.from_masks(F2, rows)


# ----------------------------------------------------------------------
# the mask kernels against an element-level reference: every entry is a
# RingElement and every sum and product goes through the element operators


def _ref_add(a, b):
    return [x + y for x, y in zip(a.entries, b.entries)]


def _ref_mul(a, b):
    n = a.n
    out = []
    for r in range(n):
        for c in range(n):
            acc = a.ring.zero
            for k in range(n):
                acc = acc + a[r, k] * b[k, c]
            out.append(acc)
    return out


def _ref_det_leibniz(a):
    """Sum over all permutations of the products a[r, p(r)]; signs vanish in
    characteristic 2."""
    acc = a.ring.zero
    for perm in itertools.permutations(range(a.n)):
        term = a.ring.one
        for r, c in enumerate(perm):
            term = term * a[r, c]
        acc = acc + term
    return acc


def test_mask_kernels_match_the_element_route_on_all_m2f2i_pairs():
    ms = list(all_matrices(F2I, 2))
    for a in ms:
        assert a.det() == a[0, 0] * a[1, 1] + a[0, 1] * a[1, 0]
        for b in ms:
            assert list((a + b).entries) == _ref_add(a, b)
            assert list((a * b).entries) == _ref_mul(a, b)


@pytest.mark.parametrize("ring", list(RING_BY_NAME.values()), ids=list(RING_BY_NAME))
@pytest.mark.parametrize("n", [3, 4])
def test_mask_kernels_match_the_element_route_on_samples(ring, n):
    rng = random.Random(f"{ring.name}-{n}")

    def sample():
        return RingMatrix(ring, [rng.choices(ring.elements, k=n) for _ in range(n)])

    for _ in range(40):
        a, b, s = sample(), sample(), rng.choice(ring.elements)
        assert list((a + b).entries) == _ref_add(a, b)
        assert list((a * b).entries) == _ref_mul(a, b)
        assert a.det() == _ref_det_leibniz(a)
        assert a.scale(s).entries == tuple(s * x for x in a.entries)
        assert a.transpose().entries == tuple(a[c, r] for r in range(n) for c in range(n))
        assert a**3 == a * a * a
        assert hash(a) == hash((ring.name, n, tuple(x.mask for x in a.entries)))


def test_boundary_checks():
    a = RingMatrix.identity(F4, 2)
    with pytest.raises(ValueError):
        a.scale(F2.one)
    with pytest.raises(ValueError):
        a.scale(F4I.one)
    with pytest.raises(TypeError):
        a.scale(1)
    with pytest.raises(ValueError):
        RingMatrix(F4, [[F4.one, F2.one], [F4.zero, F4.one]])
    with pytest.raises(ValueError):
        RingMatrix(F4, [[1, 0], [0, 1]])


_spaces = st.text(alphabet=" \t\n", max_size=2)


@st.composite
def _spaced_literal(draw, ring, n):
    """A random n x n matrix over the ring and its str() with random
    whitespace around the brackets, the rows and the entries."""
    masks = draw(st.lists(st.integers(0, ring.size - 1), min_size=n * n, max_size=n * n))
    m = RingMatrix.from_masks(ring, [masks[r * n : (r + 1) * n] for r in range(n)])

    def pad(text):
        return draw(_spaces) + text + draw(_spaces)

    rows = [
        pad("[" + ",".join(pad(str(x)) for x in m.row(r)) + "]") for r in range(n)
    ]
    return m, pad("[" + ",".join(rows) + "]")


@pytest.mark.parametrize("ring", list(RING_BY_NAME.values()), ids=list(RING_BY_NAME))
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_parse_str_round_trip_with_whitespace(ring, n):
    @given(_spaced_literal(ring, n))
    @settings(max_examples=25, deadline=None)
    def round_trip(case):
        m, text = case
        assert RingMatrix.parse(ring, str(m)) == m
        assert RingMatrix.parse(ring, text) == m

    round_trip()
