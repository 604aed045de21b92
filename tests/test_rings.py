from __future__ import annotations

import pytest

from cosetcodes.matrices import RingMatrix
from cosetcodes.rings import (
    F2,
    F2I,
    F4,
    F4I,
    F8,
    F16,
    F16_ALT,
    RING_BY_NAME,
    frobenius,
    get_ring,
    quadratic_conj,
    quadratic_norm,
)

ALL_RINGS = [F2, F4, F8, F16, F16_ALT, F2I, F4I]


@pytest.mark.parametrize(
    "ring,size,field",
    [
        (F2, 2, True),
        (F4, 4, True),
        (F8, 8, True),
        (F16, 16, True),
        (F16_ALT, 16, False),
        (F2I, 4, False),
        (F4I, 16, False),
    ],
)
def test_inventory(ring, size, field):
    assert len(ring) == size
    assert ring.is_field == field
    assert len(ring.units) == (size - 1 if field else len(ring.units))


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.name)
def test_additive_group_is_xor(ring):
    """Characteristic 2: addition is mask XOR, so x + x = 0 everywhere."""
    for x in ring:
        assert (x + x).is_zero
        for y in ring:
            assert (x + y).mask == x.mask ^ y.mask
            assert x + y == y + x
            assert x - y == x + y


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.name)
def test_ring_axioms_exhaustive(ring):
    one = ring.one
    for x in ring:
        assert x * one == x
        assert (x * ring.zero).is_zero
        for y in ring:
            assert x * y == y * x
            for z in ring:
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z


def test_defining_relations():
    w4, w8, w16 = F4.gen_w, F8.gen_w, F16.gen_w
    assert w4 * w4 == w4 + F4.one
    assert w8 * w8 * w8 == w8 + F8.one
    assert w16 ** 4 == w16 + F16.one
    # the alternative modulus w^4 + w^2 + 1 is (w^2+w+1)^2: not a field
    wa = F16_ALT.gen_w
    assert wa ** 4 == wa * wa + F16_ALT.one
    zd = wa * wa + wa + F16_ALT.one
    assert not zd.is_zero and (zd * zd).is_zero
    i2 = F2I.gen_i
    assert i2 * i2 == F2I.one
    assert ((F2I.one + i2) * (F2I.one + i2)).is_zero


def test_unit_inverses():
    for ring in ALL_RINGS:
        for u in ring.units:
            assert u.is_unit
            assert u * u.inverse() == ring.one
        for x in ring:
            if not x.is_unit:
                with pytest.raises(ValueError):
                    x.inverse()


def test_f4i_nonunits_are_the_1pi_multiples():
    one_plus_i = F4I.one + F4I.gen_i
    nonunits = {x for x in F4I if not x.is_unit}
    assert nonunits == {x * one_plus_i for x in F4I}
    assert len(F4I.units) == 12


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.name)
def test_parse_format_round_trip(ring):
    for x in ring:
        assert ring.parse(ring.format_element(x)) == x
        assert ring.parse(str(x)) == x


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        F4.parse("q")
    with pytest.raises(ValueError):
        F2.parse("i")
    with pytest.raises(ValueError):
        F4I.parse("1 + + w")
    with pytest.raises(ValueError):
        get_ring("f32")


@pytest.mark.parametrize("mask", [-1, 4])
def test_element_refuses_masks_out_of_range(mask):
    """A negative mask must not wrap round to the end of the element list."""
    with pytest.raises(ValueError, match=f"mask {mask} is not an element of f4"):
        F4.element(mask)


def test_parse_accepts_spaces_powers_and_order():
    assert F4I.parse("iw + 1") == F4I.parse("1+iw")
    assert F8.parse("w^2+w") == F8.parse("w + w^2")
    # powers reduce through the defining relation
    assert F4.parse("w^3") == F4.one
    assert F8.parse("w^3") == F8.parse("w+1")


@pytest.mark.parametrize("ring", [F4, F4I], ids=lambda r: r.name)
def test_w_components_round_trip(ring):
    for x in ring:
        a, b = ring.w_components(x)
        assert a.ring is ring.subring and b.ring is ring.subring
        assert ring.from_w_components(a, b) == x


def test_frobenius_is_an_automorphism_on_f16():
    for x in F16:
        for y in F16:
            assert frobenius(x * y) == frobenius(x) * frobenius(y)
            assert frobenius(x + y) == frobenius(x) + frobenius(y)
    # fixed field of x -> x^2 is exactly the prime field
    fixed = [x for x in F16 if frobenius(x) == x]
    assert len(fixed) == 2


def test_frobenius_refuses_non_fields():
    with pytest.raises(ValueError):
        frobenius(F4I.one)
    with pytest.raises(ValueError):
        frobenius(F16_ALT.gen_w)


def test_quadratic_norm_f4():
    """On F4/F2 the norm a^2+ab+b^2 lands in F2 and vanishes only at 0."""
    for x in F4:
        n = quadratic_norm(x)
        assert n.ring is F2
        assert n.is_zero == x.is_zero


def test_quadratic_norm_multiplicative_f4i():
    for x in F4I:
        for y in F4I:
            assert quadratic_norm(x * y) == quadratic_norm(x) * quadratic_norm(y)


def test_quadratic_conj_is_the_relative_automorphism():
    for ring in (F4, F4I):
        sub = ring.subring
        for x in ring:
            c = quadratic_conj(x)
            assert quadratic_conj(c) == x
            # norm = x * conj(x), computed inside the big ring
            assert x * c == ring.from_w_components(quadratic_norm(x), sub.zero)
            for y in ring:
                assert quadratic_conj(x * y) == c * quadratic_conj(y)
                assert quadratic_conj(x + y) == c + quadratic_conj(y)
        for a in sub:
            emb = ring.from_w_components(a, sub.zero)
            assert quadratic_conj(emb) == emb


def test_conj_differs_from_squaring_on_f4i():
    """Squaring sends i to i^2 = 1; the conjugation must fix i.  Mixing the
    two up silently breaks the twisted pair algebra over F4[i]."""
    i = F4I.from_w_components(F2I.gen_i, F2I.zero)
    assert i * i == F4I.one
    assert quadratic_conj(i) == i
    w = F4I.gen_w
    assert quadratic_conj(w) == w + F4I.one == w * w
    iw = i * w
    assert quadratic_conj(iw) == iw + i
    assert iw * iw == w * w  # squaring loses the i


def test_registry_names():
    assert set(RING_BY_NAME) == {"f2", "f4", "f8", "f16", "f16alt", "f2i", "f4i"}
    for name, ring in RING_BY_NAME.items():
        assert get_ring(name) is ring


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.name)
def test_cached_hash_keeps_its_value(ring):
    """An element computes its hash once; the value is still that of
    (ring name, mask), and matrix hashes over the ring are unchanged."""
    for e in ring:
        assert hash(e) == hash((e.ring.name, e.mask))
    top = ring.elements[-1]
    for m in (
        RingMatrix.identity(ring, 2),
        RingMatrix(ring, [[top, ring.one], [ring.zero, top]]),
    ):
        assert hash(m) == hash((ring.name, 2, tuple(x.mask for x in m.entries)))
