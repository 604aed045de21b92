from __future__ import annotations

import pytest

from cosetcodes.matrices import (
    ENUMERATION_LIMIT,
    RingMatrix,
    all_matrices,
    count_invertible,
    matrix_space_size,
)
from cosetcodes.rings import F2, F2I, F4, F16


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


def test_from_masks():
    a = RingMatrix.from_masks(F4, [[0, 1], [2, 3]])
    assert a == m2(F4, "[[0,1],[w,w+1]]")
