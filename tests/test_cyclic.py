from __future__ import annotations

import itertools
import random

import pytest

from cosetcodes.cyclic import (
    CyclicElement,
    F16_E_IMAGE,
    F16_W_IMAGE,
    F8_E_IMAGE,
    F8_W_IMAGE,
    from_f_basis,
    iso_f8_to_m3,
    iso_f16_to_m4,
    matrix_to_pair,
    multiplication_matrix,
    pair_to_matrix,
    regular_representation,
    to_f_basis,
    twisted_pair_mul,
)
from cosetcodes.matrices import RingMatrix
from cosetcodes.rings import F2, F4, F4I, F8, F16_ALT, quadratic_norm


def elt(ring, text):
    return CyclicElement.parse(ring, text)


def test_construction_guards():
    with pytest.raises(ValueError):
        CyclicElement(F8, [F8.zero])
    with pytest.raises(ValueError):
        CyclicElement(F8, [F4.zero, F8.zero, F8.zero])
    with pytest.raises(ValueError):
        CyclicElement.parse(F4, "0; 0; 0")


def test_parse_pads_and_round_trips():
    x = elt(F8, "w")
    assert x == CyclicElement(F8, [F8.gen_w, F8.zero, F8.zero])
    for coeffs in [(1, 2, 3), (7, 0, 5), (0, 0, 0)]:
        y = CyclicElement(F8, [F8.element(m) for m in coeffs])
        assert CyclicElement.parse(F8, str(y)) == y


def test_e_cubes_to_one_in_degree_3():
    e = elt(F8, "0; 1; 0")
    e2 = e * e
    assert e2 == elt(F8, "0; 0; 1")
    assert e2 * e == elt(F8, "1; 0; 0")


def test_twist_relation_l_e_equals_e_sigma_l():
    """l*e = e*l^2: moving a coefficient past e applies the Frobenius."""
    e = elt(F8, "0; 1; 0")
    for l in F8:
        left = CyclicElement(F8, [l, F8.zero, F8.zero]) * e
        assert left == CyclicElement(F8, [F8.zero, l * l, F8.zero])


def test_one_plus_e_is_nilpotent_in_degree_4():
    # e^4 = 1 and characteristic 2 give (1 + e)^4 = 1 + e^4 = 0
    f = elt(F16_ALT, "1; 1; 0; 0")
    f2 = f * f
    assert not f2.is_zero
    assert (f2 * f2).is_zero


def test_regular_representation_first_column_is_the_coefficients():
    rng = random.Random(7)
    for _ in range(25):
        coeffs = [F8.element(rng.randrange(8)) for _ in range(3)]
        x = CyclicElement(F8, coeffs)
        rep = regular_representation(x)
        for r in range(3):
            assert rep[r, 0] == coeffs[r]


def test_regular_representation_is_a_ring_map():
    rng = random.Random(11)
    sample = [
        CyclicElement(F8, [F8.element(rng.randrange(8)) for _ in range(3)])
        for _ in range(12)
    ]
    for x in sample:
        for y in sample:
            assert regular_representation(x * y) == regular_representation(
                x
            ) * regular_representation(y)
            assert regular_representation(x + y) == regular_representation(
                x
            ) + regular_representation(y)


def test_iso_f8m3_structure():
    one = elt(F8, "1")
    assert iso_f8_to_m3(one) == RingMatrix.identity(F2, 3)
    E = iso_f8_to_m3(elt(F8, "0; 1; 0"))
    assert E * E * E == RingMatrix.identity(F2, 3)
    rng = random.Random(3)
    sample = [
        CyclicElement(F8, [F8.element(rng.randrange(8)) for _ in range(3)])
        for _ in range(10)
    ]
    for x in sample:
        for y in sample:
            assert iso_f8_to_m3(x * y) == iso_f8_to_m3(x) * iso_f8_to_m3(y)


def test_f16_generator_relations():
    """The tabulated degree-4 images: e^4 = 1 and the twist hold, but the
    tabulated W is a root of w^4 + w + 1, NOT of the reducible
    w^4 + w^2 + 1 that names the coefficient ring."""
    E, W = F16_E_IMAGE, F16_W_IMAGE
    eye = RingMatrix.identity(E.ring, 4)
    assert E ** 4 == eye
    assert W * E == E * (W * W)
    assert W ** 4 + W + eye == RingMatrix.zeros(E.ring, 4)
    assert W ** 4 + W * W + eye != RingMatrix.zeros(E.ring, 4)


def test_f8_generator_is_a_root_of_the_f8_modulus():
    W = F8_W_IMAGE
    assert W ** 3 + W + RingMatrix.identity(F2, 3) == RingMatrix.zeros(F2, 3)


@pytest.mark.parametrize("mask", range(8))
def test_iso_f8m3_field_image_is_the_hand_formula(mask):
    a0, a1, a2 = (mask >> k & 1 for k in range(3))
    hand = RingMatrix.from_masks(
        F2, [[a0, a1, a2], [a2, a0 ^ a2, a1], [a1, a1 ^ a2, a0 ^ a2]]
    )
    assert iso_f8_to_m3(CyclicElement(F8, [F8.element(mask), F8.zero, F8.zero])) == hand


@pytest.mark.parametrize("mask", range(16))
def test_iso_f16m4_of_one_coefficient_sums_the_picked_w_powers(mask):
    picked = RingMatrix.zeros(F2, 4)
    for k in range(4):
        if mask >> k & 1:
            picked = picked + F16_W_IMAGE ** k
    for slot in range(4):
        coeffs = [F16_ALT.zero] * 4
        coeffs[slot] = F16_ALT.element(mask)
        image = iso_f16_to_m4(CyclicElement(F16_ALT, coeffs))
        assert image == F16_E_IMAGE ** slot * picked


def test_iso_f16m4_is_injective_on_a_sample():
    rng = random.Random(5)
    seen = {}
    for _ in range(60):
        coeffs = [F16_ALT.element(rng.randrange(16)) for _ in range(4)]
        x = CyclicElement(F16_ALT, coeffs)
        img = iso_f16_to_m4(x)
        key = tuple(e.mask for e in img.entries)
        assert seen.setdefault(key, x) == x
    assert len(seen) > 50


@pytest.mark.parametrize("ring", [F4, F4I], ids=lambda r: r.name)
def test_pair_matrix_bijection(ring):
    seen = set()
    for x in ring:
        for y in ring:
            m = pair_to_matrix(x, y)
            assert matrix_to_pair(m, ring) == (x, y)
            seen.add(tuple(e.mask for e in m.entries))
    assert len(seen) == len(ring) ** 2


def test_pair_to_matrix_multiplicative_f4():
    pairs = [(x, y) for x in F4 for y in F4]
    for p in pairs:
        for q in pairs:
            prod = twisted_pair_mul(p, q)
            assert pair_to_matrix(*prod) == pair_to_matrix(*p) * pair_to_matrix(*q)


def test_twisted_mul_j_squared_is_one():
    zero, one = F4I.zero, F4I.one
    i = F4I.parse("i")
    assert twisted_pair_mul((zero, one), (zero, one)) == (one, zero)
    # the twist must fix i: j * (i j) = sigma(i) j^2 = i, not 1
    assert twisted_pair_mul((zero, one), (zero, i)) == (i, zero)
    assert twisted_pair_mul((zero, i), (zero, one)) == (F4I.parse("i"), zero)


def test_twisted_mul_f4i_matches_matrix_product_sampled():
    rng = random.Random(17)
    els = list(F4I)
    for _ in range(400):
        p = (els[rng.randrange(16)], els[rng.randrange(16)])
        q = (els[rng.randrange(16)], els[rng.randrange(16)])
        prod = twisted_pair_mul(p, q)
        assert pair_to_matrix(*prod) == pair_to_matrix(*p) * pair_to_matrix(*q)


@pytest.mark.parametrize("ring", [F4, F4I], ids=lambda r: r.name)
def test_multiplication_matrix(ring):
    for x in ring:
        mx = multiplication_matrix(x)
        a, b = ring.w_components(x)
        assert mx == RingMatrix(mx.ring, [[a, b], [b, a + b]])
        assert mx.det() == quadratic_norm(x)
        for y in ring:
            assert multiplication_matrix(x * y) == mx * multiplication_matrix(y)


def test_f_basis_round_trip_and_e_image():
    e = elt(F16_ALT, "0; 1; 0; 0")
    assert to_f_basis(e) == (
        F16_ALT.one,
        F16_ALT.one,
        F16_ALT.zero,
        F16_ALT.zero,
    )
    rng = random.Random(23)
    for _ in range(50):
        x = CyclicElement(
            F16_ALT, [F16_ALT.element(rng.randrange(16)) for _ in range(4)]
        )
        assert from_f_basis(F16_ALT, to_f_basis(x)) == x


# ----------------------------------------------------------------------
# the mask kernels against an element-level reference


def _ref_conj(x):
    a, b = x.ring.w_components(x)
    return x.ring.from_w_components(a + b, b)


def _ref_pair_to_matrix(x, y):
    a, b = x.ring.w_components(x)
    c, d = y.ring.w_components(y)
    return (a + d, b + c, b + c + d, a + b + d)


def _ref_matrix_to_pair(m, ring):
    y11, y12, y21, y22 = m.entries
    return (
        ring.from_w_components(y11 + y12 + y21, y11 + y22),
        ring.from_w_components(y11 + y12 + y22, y12 + y21),
    )


def _ref_twisted(p, q):
    (a, b), (c, d) = p, q
    return (a * c + b * _ref_conj(d), a * d + b * _ref_conj(c))


def _ref_cyclic_mul(x, y):
    """(x * y)_m = sum over j+k = m (mod n) of sigma^k(x_j) * y_k."""
    n = x.n
    out = [x.ring.zero] * n
    for j, xj in enumerate(x.coeffs):
        for k, yk in enumerate(y.coeffs):
            s = xj
            for _ in range(k):
                s = s * s
            out[(j + k) % n] = out[(j + k) % n] + s * yk
    return CyclicElement(x.ring, out)


@pytest.mark.parametrize("ring", [F4, F4I], ids=lambda r: r.name)
def test_pair_kernels_match_the_element_route(ring):
    pairs = [(x, y) for x in ring for y in ring]
    for p in pairs:
        m = pair_to_matrix(*p)
        assert m.entries == _ref_pair_to_matrix(*p)
        assert matrix_to_pair(m, ring) == _ref_matrix_to_pair(m, ring)
        for q in pairs:
            assert twisted_pair_mul(p, q) == _ref_twisted(p, q)


@pytest.mark.parametrize("ring", [F4, F8, F16_ALT], ids=lambda r: r.name)
def test_cyclic_kernels_match_the_element_route(ring):
    rng = random.Random(ring.name)
    n = ring.w_deg
    sample = [CyclicElement(ring, rng.choices(ring.elements, k=n)) for _ in range(16)]
    for x in sample:
        rep = regular_representation(x)
        for r in range(n):
            for c in range(n):
                s = x.coeffs[(r - c) % n]
                for _ in range(c):
                    s = s * s
                assert rep[r, c] == s
        if n == 4:
            x0, x1, x2, x3 = x.coeffs
            assert to_f_basis(x) == (x0 + x1 + x2 + x3, x1 + x3, x2 + x3, x3)
        for y in sample:
            assert x * y == _ref_cyclic_mul(x, y)


def test_cyclic_boundary_checks():
    with pytest.raises(ValueError, match=r"^coefficient 1 not in f4$"):
        CyclicElement(F4, [1, 2])
    with pytest.raises(ValueError):
        elt(F4, "1; w") * elt(F4I, "1; w")
    with pytest.raises(ValueError, match=r"^element f4i:1 does not belong to f4$"):
        twisted_pair_mul((F4.one, F4.zero), (F4I.one, F4I.zero))
    with pytest.raises(ValueError, match=r"^element f4i:0 does not belong to f4$"):
        twisted_pair_mul((F4.one, F4I.zero), (F4.one, F4.zero))
    with pytest.raises(ValueError, match=r"^coefficient f4:0 not in f16alt$"):
        from_f_basis(F16_ALT, [F4.zero] * 4)


@pytest.mark.parametrize("bad", [1, None, F4I.one])
def test_cyclic_boundary_refuses_foreign_values(bad):
    """A plain int, None or an element of another ring is refused with
    ValueError, never AttributeError, in every slot of the twisted product
    and as a coefficient."""
    for slot in range(4):
        slots = [F4.one, F4.zero, F4.one, F4.zero]
        slots[slot] = bad
        if slot:
            message = rf"^element {bad!r} does not belong to f4$"
        elif bad is F4I.one:  # the pairs are read over the first element's ring
            message = r"^element f4:0 does not belong to f4i$"
        else:
            message = r"^twisted_pair_mul expects pairs over f4 or f4i$"
        with pytest.raises(ValueError, match=message):
            twisted_pair_mul(tuple(slots[:2]), tuple(slots[2:]))
    for slot in range(2):
        coeffs = [F4.one, F4.one]
        coeffs[slot] = bad
        with pytest.raises(ValueError, match=rf"^coefficient {bad!r} not in f4$"):
            CyclicElement(F4, coeffs)
    for slot in range(4):
        coeffs = [F16_ALT.one] * 4
        coeffs[slot] = bad
        with pytest.raises(ValueError, match=rf"^coefficient {bad!r} not in f16alt$"):
            from_f_basis(F16_ALT, coeffs)


def _per_call_literal_image(x, e_image, w_image):
    """The literal model as it was computed per call: the sum over j of
    E^j * RingMatrix(image(x_j)), image(c) the sum of W^k over the set bits
    k of c, with RingMatrix products and sums only."""
    n = e_image.n
    acc = RingMatrix.zeros(F2, n)
    for j, c in enumerate(x.masks):
        image = RingMatrix.zeros(F2, n)
        for k in range(n):
            if c >> k & 1:
                image = image + w_image ** k
        acc = acc + e_image ** j * image
    return acc


def test_iso_f8m3_equals_the_per_call_route_on_all_512_elements():
    for masks in itertools.product(range(8), repeat=3):
        x = CyclicElement(F8, [F8.elements[m] for m in masks])
        assert iso_f8_to_m3(x) == _per_call_literal_image(x, F8_E_IMAGE, F8_W_IMAGE)


def test_iso_f16m4_equals_the_per_call_route_on_all_65536_elements():
    """Each term E^j * image(c) depends on (j, c) only, so the per-call
    route's 64 distinct terms are computed once and summed per element."""
    terms = [
        [
            _per_call_literal_image(
                CyclicElement(F16_ALT, [F16_ALT.elements[c] if i == j else F16_ALT.zero for i in range(4)]),
                F16_E_IMAGE,
                F16_W_IMAGE,
            )
            for c in range(16)
        ]
        for j in range(4)
    ]
    elements = F16_ALT.elements
    for c0, t0 in zip(elements, terms[0]):
        for c1, t1 in zip(elements, terms[1]):
            s1 = t0 + t1
            for c2, t2 in zip(elements, terms[2]):
                s2 = s1 + t2
                for c3, t3 in zip(elements, terms[3]):
                    assert iso_f16_to_m4(CyclicElement(F16_ALT, (c0, c1, c2, c3))) == s2 + t3
