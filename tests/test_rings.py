from __future__ import annotations

import copy
import itertools
import pickle

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


# Each ring's modulus m(w), coefficients from w^0 up, and whether it has i.
# Without w the modulus is w itself: every element is a constant.
REFERENCE_SPEC = {
    "f2": ([0, 1], False),
    "f4": ([1, 1, 1], False),
    "f8": ([1, 1, 0, 1], False),
    "f16": ([1, 1, 0, 0, 1], False),
    "f16alt": ([1, 0, 1, 0, 1], False),
    "f2i": ([0, 1], True),
    "f4i": ([1, 1, 1], True),
}


def _reference_mul(x: int, y: int, modulus: list[int], with_i: bool) -> int:
    """x*y by polynomial arithmetic over F2[i][w]: coefficient lists of
    (1-part, i-part) pairs, i^2 = 1, reduced by the monic modulus."""
    deg, span = len(modulus) - 1, 2 if with_i else 1

    def coeffs(mask):
        return [
            (mask >> (k * span) & 1, mask >> (k * span + 1) & 1 if with_i else 0)
            for k in range(deg)
        ]

    prod = [[0, 0] for _ in range(2 * deg - 1)]
    for j, (a0, a1) in enumerate(coeffs(x)):
        for k, (b0, b1) in enumerate(coeffs(y)):
            prod[j + k][0] ^= a0 & b0 ^ a1 & b1
            prod[j + k][1] ^= a0 & b1 ^ a1 & b0
    for top in range(2 * deg - 2, deg - 1, -1):  # w^top -> w^top - w^(top-deg) m(w)
        c0, c1 = prod[top]
        for j in range(deg + 1):
            if modulus[j]:
                prod[top - deg + j][0] ^= c0
                prod[top - deg + j][1] ^= c1
    assert all(c == [0, 0] for c in prod[deg:])
    return sum(c0 << (k * span) | c1 << (k * span + 1) for k, (c0, c1) in enumerate(prod[:deg]))


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.name)
def test_tables_match_polynomial_reference(ring):
    """Every product, inverse, unit and generator mask, against an
    independent computation from the ring's modulus."""
    modulus, with_i = REFERENCE_SPEC[ring.name]
    span = 2 if with_i else 1
    ref = [[_reference_mul(x, y, modulus, with_i) for y in range(ring.size)]
           for x in range(ring.size)]
    assert ring._mul == ref
    inverses = [[y for y in range(ring.size) if row[y] == 1] for row in ref]
    assert all(len(ys) <= 1 for ys in inverses)
    assert ring._inv == [ys[0] if ys else None for ys in inverses]
    assert [u.mask for u in ring.units] == [x for x, ys in enumerate(inverses) if ys]
    assert ring.is_field == all(inverses[1:])
    assert (ring.zero.mask, ring.one.mask) == (0, 1)
    mask_or_none = lambda g: None if g is None else g.mask  # noqa: E731
    assert mask_or_none(ring.gen_i) == (2 if with_i else None)
    assert mask_or_none(ring.gen_w) == (1 << span if len(modulus) > 2 else None)


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


@pytest.mark.parametrize("ring", ALL_RINGS, ids=lambda r: r.name)
def test_elements_are_interned_values(ring):
    """Equality is identity, so every way of copying an element must give
    the element back: copy, deepcopy and every pickle protocol."""
    for e in ring:
        assert copy.copy(e) is e and copy.deepcopy(e) is e
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            assert pickle.loads(pickle.dumps(e, protocol)) is e


def test_same_mask_elements_of_different_rings_differ():
    """Elements compare by identity: the same mask in two rings is two
    elements, and an element equals no int or string."""
    for a, b in itertools.combinations(ALL_RINGS, 2):
        for mask in range(min(a.size, b.size)):
            assert a.elements[mask] != b.elements[mask]
            assert not a.elements[mask] == b.elements[mask]
    assert F4.one != 1 and F4.zero != 0 and F4.one != "1"
    assert len({x for ring in ALL_RINGS for x in ring}) == sum(len(ring) for ring in ALL_RINGS)
