from __future__ import annotations

import copy
import heapq
import inspect
import itertools
import pickle
import random
import textwrap
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cosetcodes import cli, golden
from cosetcodes.cyclic import pair_to_matrix
from cosetcodes.golden import (
    ALPHA,
    ALPHA_BAR,
    FLOOR_BY_CLASS,
    GaussianInt,
    GoldenCodeword,
    GoldenInt,
    ProjectionClass,
    abs_det_sq,
    classify_projection,
    det_complex,
    det_numerator,
    det_sq_times5,
    floor_table_mod_1pi,
    floor_table_mod_2,
    golden_norm,
    golden_pair_mul,
    min_abs_det_sq,
    mod2_det_class,
    mod2_norm_pair,
    norm_ints,
    project_mod_1pi,
    project_pair_mod_1pi,
    project_pair_mod_2,
    scan_det_floors,
)
from cosetcodes.matrices import RingMatrix
from cosetcodes.rings import F2, F2I, F4, F4I, quadratic_norm
from cosetcodes.verify import brute_box_scan

ints = st.integers(min_value=-50, max_value=50)
gaussians = st.builds(GaussianInt, ints, ints)
goldens = st.builds(GoldenInt, gaussians, gaussians)
coords8 = st.tuples(*[st.integers(min_value=-3, max_value=3)] * 8)


@given(x=gaussians, y=gaussians, z=gaussians)
def test_gaussian_ring_axioms(x, y, z):
    assert x + y == y + x
    assert x * y == y * x
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert (x - y) + y == x


@given(x=gaussians, y=gaussians)
def test_gaussian_conj_and_abs_sq(x, y):
    assert (x * y).conj() == x.conj() * y.conj()
    assert x * x.conj() == GaussianInt(x.abs_sq(), 0)
    assert x.abs_sq() >= 0


@given(x=goldens, y=goldens, z=goldens)
def test_golden_ring_axioms(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x * y == y * x


@given(x=goldens, y=goldens)
def test_golden_conjugations_are_ring_maps(x, y):
    assert (x * y).galois_conj() == x.galois_conj() * y.galois_conj()
    assert (x * y).complex_conj() == x.complex_conj() * y.complex_conj()
    # galois conjugation is an involution
    assert x.galois_conj().galois_conj() == x


@given(x=goldens, y=goldens)
def test_golden_norm_multiplicative(x, y):
    assert golden_norm(x * y) == golden_norm(x) * golden_norm(y)
    assert golden_norm(x) == (x * x.galois_conj()).u


def test_alpha_times_conjugate():
    assert ALPHA.galois_conj() == ALPHA_BAR
    assert ALPHA * ALPHA_BAR == GoldenInt(GaussianInt(2, 1), GaussianInt(0, 0))
    assert golden_norm(ALPHA) == GaussianInt(2, 1)  # 2 + i, norm 5 in Z


@given(coords=coords8)
def test_det_integer_paths_agree(coords):
    cw = GoldenCodeword.from_ints(coords)
    num = det_numerator(cw)
    assert num.abs_sq() == 5 * det_sq_times5(coords)
    assert abs_det_sq(cw) == Fraction(det_sq_times5(coords), 5)


@given(coords=coords8)
@settings(max_examples=60)
def test_det_float_oracle(coords):
    cw = GoldenCodeword.from_ints(coords)
    approx = abs(det_complex(cw)) ** 2
    assert approx == pytest.approx(float(abs_det_sq(cw)), abs=1e-9)


@given(coords=coords8)
def test_nonzero_codewords_have_nonzero_det(coords):
    """Division algebra: the determinant vanishes only at zero."""
    cw = GoldenCodeword.from_ints(coords)
    if cw.is_zero:
        assert det_sq_times5(coords) == 0
    else:
        assert det_sq_times5(coords) > 0


def test_matrix_det_is_the_det_numerator():
    for coords in [(1, 0, 0, 0, 0, 0, 0, 0), (2, -1, 0, 1, 1, 1, -2, 0)]:
        cw = GoldenCodeword.from_ints(coords)
        (m00, m01), (m10, m11) = cw.matrix_times_sqrt5()
        det = m00 * m11 - m01 * m10
        assert det == GoldenInt(det_numerator(cw), GaussianInt(0, 0))


def test_codeword_value_semantics():
    coords = (1, -2, 0, 1, -1, 0, 3, -1)
    cw = GoldenCodeword.from_ints(coords)
    same = GoldenCodeword(
        GaussianInt(1, -2), GaussianInt(0, 1), GaussianInt(-1, 0), GaussianInt(3, -1)
    )
    assert cw == same and hash(cw) == hash(same)
    assert cw != coords and cw != tuple(cw.coords())
    for k in range(8):
        other = list(coords)
        other[k] += 1
        assert cw != GoldenCodeword.from_ints(other)
    for name in "abcd":
        with pytest.raises(AttributeError):
            setattr(cw, name, GaussianInt(0, 0))
        with pytest.raises(AttributeError):
            delattr(cw, name)
    with pytest.raises(AttributeError):
        cw.e = GaussianInt(0, 0)
    assert not hasattr(cw, "__dict__") and cw.coords() == same.coords()
    # the field-keyword repr that earlier releases printed
    assert str(cw) == "(1-2i, i, -1, 3-i)"
    assert repr(cw) == (
        "GoldenCodeword(a=GaussianInt(1, -2), b=GaussianInt(0, 1), "
        "c=GaussianInt(-1, 0), d=GaussianInt(3, -1))"
    )
    assert cw.coords() == (
        GaussianInt(1, -2), GaussianInt(0, 1), GaussianInt(-1, 0), GaussianInt(3, -1)
    )
    assert (cw.a, cw.b, cw.c, cw.d) == cw.coords()
    assert not cw.is_zero and GoldenCodeword.from_ints((0,) * 8).is_zero
    for k in range(8):
        assert not GoldenCodeword.from_ints(tuple(int(j == k) for j in range(8))).is_zero
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        assert pickle.loads(pickle.dumps(cw, protocol)) == cw
    assert copy.copy(cw) == cw and copy.deepcopy(cw) == cw
    # the same value from __init__, from_ints and a product with the unit
    one = GoldenCodeword.from_ints((1,) + (0,) * 7)
    product = golden_pair_mul(one, cw)
    assert product == cw and hash(product) == hash(cw)
    assert len({cw, same, product, golden_pair_mul(cw, one)}) == 1


def test_gaussian_and_golden_ints_are_values():
    """Like GoldenCodeword: read-only parts, so a set keeps finding its
    members, and every pickle protocol round-trips."""
    g = GaussianInt(1, 0)
    x = GoldenInt(GaussianInt(1, -2), GaussianInt(0, 3))
    members = {g, x}
    for value, names in ((g, ("re", "im")), (x, ("u", "v"))):
        for name in names:
            with pytest.raises(AttributeError):
                setattr(value, name, 3)
        with pytest.raises(AttributeError):
            value.w = 0
        assert not hasattr(value, "__dict__")
    assert (g.re, g.im, x.u, x.v) == (1, 0, GaussianInt(1, -2), GaussianInt(0, 3))
    assert g in members and GaussianInt(1, 0) in members and GaussianInt(3, 0) not in members
    assert GoldenInt(GaussianInt(1, -2), GaussianInt(0, 3)) in members
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        for value in (g, GaussianInt(1, 2), x):
            copied = pickle.loads(pickle.dumps(value, protocol))
            assert copied == value and hash(copied) == hash(value)
    assert copy.copy(x) == x and copy.deepcopy(x) == x


def test_golden_pair_mul_e_squared_is_i():
    zero = GoldenInt(GaussianInt(0, 0), GaussianInt(0, 0))
    one = GoldenInt(GaussianInt(1, 0), GaussianInt(0, 0))
    e = GoldenCodeword(zero.u, zero.v, one.u, one.v)
    e_sq = golden_pair_mul(e, e)
    assert (e_sq.x0(), e_sq.x1()) == (GoldenInt(GaussianInt(0, 1), GaussianInt(0, 0)), zero)


@given(coords8, coords8, coords8)
@settings(max_examples=40)
def test_golden_pair_mul_associative(t1, t2, t3):
    x, y, z = map(GoldenCodeword.from_ints, (t1, t2, t3))
    assert golden_pair_mul(golden_pair_mul(x, y), z) == golden_pair_mul(
        x, golden_pair_mul(y, z)
    )


def _reduce_mod_1pi(re, im):
    """Z[i] -> Z[i]/(1+i) = F2 through the oracle's residue key."""
    return F2.elements[golden._key_mod((re, im), 1)]


def _reduce_mod_2(re, im):
    """Z[i] -> Z[i]/(2) = F2[i] through the oracle's residue key."""
    return F2I.elements[golden._key_mod((re, im), 2)]


def test_reductions():
    assert _reduce_mod_1pi(1, 1).is_zero
    assert _reduce_mod_1pi(2, -1) == F2.one
    assert _reduce_mod_2(2, 2).is_zero
    assert _reduce_mod_2(1, 0) == F2I.one
    assert _reduce_mod_2(0, 1) == F2I.gen_i
    assert _reduce_mod_2(-1, 3) == F2I.one + F2I.gen_i


@pytest.mark.parametrize("depth", [1, 2, 3, 4])
def test_key_mod_is_the_residue_mod_a_power_of_1_plus_i(depth):
    """Two Gaussians x + y*i with |x|, |y| <= 9 share their key iff
    (1+i)^depth divides their difference, i.e. iff the difference times
    (1-i)^depth has both parts divisible by 2^depth; all 2^depth residues
    occur, and a codeword's key packs its coordinates' keys, a lowest."""
    span = range(-9, 10)
    divisible = {}
    for dx, dy in itertools.product(range(-18, 19), repeat=2):
        z = GaussianInt(dx, dy)
        for _ in range(depth):
            z = z * GaussianInt(1, -1)
        divisible[dx, dy] = z.re % 2**depth == 0 and z.im % 2**depth == 0
    keys = {g: golden._key_mod(g, depth) for g in itertools.product(span, repeat=2)}
    assert set(keys.values()) == set(range(2**depth))
    for (x, y), key in keys.items():
        for (u, v), other in keys.items():
            assert (key == other) == divisible[x - u, y - v], ((x, y), (u, v))
    rng = random.Random(depth)
    for _ in range(200):
        coords = [rng.choice(span) for _ in range(8)]
        packed = sum(keys[tuple(coords[2 * k:2 * k + 2])] << depth * k for k in range(4))
        assert golden._key_mod(coords, depth) == packed


@given(s=coords8, t=coords8)
@settings(max_examples=60)
def test_projection_additive(s, t):
    summed = GoldenCodeword.from_ints([a + b for a, b in zip(s, t)])
    for project in (project_pair_mod_1pi, project_pair_mod_2):
        ps, pt = project(GoldenCodeword.from_ints(s)), project(
            GoldenCodeword.from_ints(t)
        )
        assert project(summed) == (ps[0] + pt[0], ps[1] + pt[1])


def test_classify_projection():
    assert classify_projection(RingMatrix.zeros(F4, 2)) is ProjectionClass.ZERO
    assert classify_projection(RingMatrix.identity(F4, 2)) is ProjectionClass.UNIT
    ones = RingMatrix.parse(F4, "[[1,1],[1,1]]")
    assert classify_projection(ones) is ProjectionClass.NON_UNIT


def test_mod2_class_of_the_equal_norms_counterexample():
    """Norm pair (1,1) but |det|^2 = 2/5: the naive equal-norms rule would
    put this codeword on the 4/5 floor, the det class correctly says 2/5."""
    coords = (1, 0, 0, 0, 1, 0, 0, 0)
    cw = GoldenCodeword.from_ints(coords)
    assert mod2_norm_pair(cw) == (F2I.one, F2I.one)
    assert mod2_det_class(cw) is ProjectionClass.NON_UNIT
    assert det_sq_times5(coords) == 2


def test_floor_tables():
    t1 = floor_table_mod_1pi()
    t2 = floor_table_mod_2()
    assert len(t1) == 16 and len(t2) == 256
    assert t1[0] == 4 and t2[0] == 4  # the zero coset keeps the 4/5 floor
    assert set(t1) == {4, 2, 1} and set(t2) == {4, 2, 1}
    assert FLOOR_BY_CLASS[ProjectionClass.ZERO] == 4
    assert FLOOR_BY_CLASS[ProjectionClass.NON_UNIT] == 2
    assert FLOOR_BY_CLASS[ProjectionClass.UNIT] == 1
    # the parity key of the equal-norms counterexample (1,0,0,0,1,0,0,0)
    # is 1 + 16
    assert t2[17] == 2


def test_floor_table_mod_2_takes_each_norm_once(monkeypatch):
    """F4[i] has 16 elements, so the 256 classes need only their 16 norms;
    the norms lie in F2[i], so only its 4 x 4 norm pairs are classified."""
    expected = floor_table_mod_2()
    calls = {"quadratic_norm": 0, "_mod2_pair_class": 0}

    def counting(name):
        real = getattr(golden, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        return counted

    for name in calls:
        monkeypatch.setattr(golden, name, counting(name))
    assert floor_table_mod_2() == expected
    assert max(calls.values()) <= 16


def test_floor_table_mod_1pi_is_the_pair_matrix_class():
    """The norm route gives the class floor of the pair matrix on all 16
    pairs, in residue-key order (x1 outer, x0 inner)."""
    assert floor_table_mod_1pi() == [
        FLOOR_BY_CLASS[classify_projection(pair_to_matrix(x0, x1))] for x1 in F4 for x0 in F4
    ]


def test_floor_table_mod_1pi_takes_each_norm_once(monkeypatch):
    """The determinant of a pair matrix over F2 is N(x0) + N(x1), so the 16
    pairs need only the norms of the 4 elements of F4."""
    expected = floor_table_mod_1pi()
    calls = [0]
    real = golden.quadratic_norm

    def counted(x):
        calls[0] += 1
        return real(x)

    monkeypatch.setattr(golden, "quadratic_norm", counted)
    assert floor_table_mod_1pi() == expected
    assert calls[0] <= 4


@pytest.mark.parametrize("ideal", list(golden._IDEALS))
def test_each_ideal_record_derives_its_widths_and_coset_ring(capsys, ideal):
    """The record's pair ring fixes the rest.  On every half of the +/-2
    window the record's half key is the oracle's ``_key_mod`` at depth
    ring.subring.dim and lies below 1 << ring.dim; the norm-pair table has
    one floor per pair of norms in ring.subring; and ring.subring is the
    ring of the pair matrices and the one ``mindet --coset`` parses."""
    ring, half_key, floors = golden._IDEALS[ideal]
    depth = ring.subring.dim
    for h in itertools.product(range(-2, 3), repeat=4):
        key = half_key(h)
        assert key == golden._key_mod(h, depth)
        assert key < 1 << ring.dim
    assert len(floors) == ring.subring.size ** 2
    assert pair_to_matrix(ring.one, ring.one).ring is ring.subring
    assert cli.main(["mindet", "--box", "1", "--coset", "[[1]]", "--ideal", ideal]) == 2
    assert capsys.readouterr().err == f"error: not a 2x2 matrix over {ring.subring.name}: '[[1]]'\n"


@pytest.mark.parametrize("ideal,ring", [("1pi", F4), ("2", F4I)], ids=["1pi", "2"])
def test_the_norm_of_a_residue_is_the_residue_of_the_norm(ideal, ring):
    """Reduction mod (1+i) or mod 2 is a ring map that sends theta to w and
    theta -> 1 - theta to w -> w + 1, so on every half of boxes 1-3 the norm
    of the half's residue is the residue of its norm, keyed as the first
    slot of a half.  Each key table is the norm-pair table read at the
    element norms of the key's pair."""
    _, half_key, floors = golden._IDEALS[ideal]
    for h in itertools.product(range(-3, 4), repeat=4):
        assert quadratic_norm(ring.elements[half_key(h)]).mask == half_key(norm_ints(*h) + (0, 0))
    table = floor_table_mod_1pi() if ideal == "1pi" else floor_table_mod_2()
    for x0 in ring:
        for x1 in ring:
            n0, n1 = quadratic_norm(x0), quadratic_norm(x1)
            assert table[x0.mask | x1.mask << ring.dim] == floors[n0.mask | n1.mask << n0.ring.dim]


@pytest.mark.parametrize("ideal", ["1pi", "2"])
def test_a_norm_residue_read_from_the_real_part_alone_is_caught(monkeypatch, ideal):
    """The residue of the norm p + q*i is the parity of p + q mod (1+i) and
    the parities of p and q mod 2.  A residue read from p alone moves the
    box-2 class sizes, the same for both ideals, and reports five
    violations; the brute oracle keys coordinates and does not move."""
    expected = brute_box_scan(ideal, 2)[:3]
    assert scan_det_floors(ideal, 2) == expected
    record = golden._IDEALS[ideal]
    real_part_only = record._replace(half_key=lambda h: record.half_key((h[0], 0, 0, 0)))
    monkeypatch.setitem(golden._IDEALS, ideal, real_part_only)
    checked, violations, counts = scan_det_floors(ideal, 2)
    assert (checked, counts, len(violations)) == (390_624, [113_568, 82_944, 194_112], 5)
    assert brute_box_scan(ideal, 2)[:3] == expected


def test_min_abs_det_sq_box1():
    value, wit = min_abs_det_sq(1)
    assert value == Fraction(1, 5)
    assert abs_det_sq(wit) == Fraction(1, 5)


def test_min_abs_det_sq_coset_restricted():
    eye = RingMatrix.identity(F2, 2)
    value, wit = min_abs_det_sq(1, coset=eye, ideal="1pi")
    assert value == Fraction(1, 5)
    assert project_mod_1pi(wit) == eye
    with pytest.raises(ValueError):
        min_abs_det_sq(1, coset=eye)  # --coset needs an ideal
    with pytest.raises(ValueError, match="^ideal given without a coset matrix$"):
        min_abs_det_sq(1, ideal="2")


def test_scan_det_floors_box1():
    for ideal in ("1pi", "2"):
        checked, violations, counts = scan_det_floors(ideal, box=1)
        assert checked == 3 ** 8 - 1
        assert violations == []
        assert sum(counts) == checked
        assert all(c > 0 for c in counts)
    with pytest.raises(ValueError):
        scan_det_floors("3")


def test_scans_reject_an_empty_box():
    for box in (0, -1):
        with pytest.raises(ValueError, match="box must be at least 1"):
            min_abs_det_sq(box)
        with pytest.raises(ValueError, match="box must be at least 1"):
            scan_det_floors("1pi", box)


def test_scans_refuse_a_box_over_the_enumeration_limit():
    """Box 16 has 33^4 = 1185921 halves, over 2^20; box 15 (31^4) is the
    largest accepted, and is too slow to run here."""
    message = "box 16 has 1185921 half-codewords, over the enumeration limit 1048576"
    with pytest.raises(ValueError, match=message):
        min_abs_det_sq(16)
    with pytest.raises(ValueError, match=message):
        scan_det_floors("2", 16)


def test_empty_coset_keeps_its_message():
    """All coordinates even at box 1 means only the zero codeword."""
    with pytest.raises(ValueError, match="no nonzero codeword"):
        min_abs_det_sq(1, coset=RingMatrix.zeros(F2I, 2), ideal="2")


@pytest.mark.parametrize(
    "ideal,ring,depth,project",
    [("1pi", F4, 1, project_pair_mod_1pi), ("2", F4I, 2, project_pair_mod_2)],
    ids=["1pi", "2"],
)
def test_one_residue_key(ideal, ring, depth, project):
    """The oracle's coordinate key of every codeword in the +/-1 box is
    x0.mask | x1.mask << ring.dim of its projected pair, and the library
    keys the coset of every pair the same way."""
    for coords in itertools.product(range(-1, 2), repeat=8):
        x0, x1 = project(GoldenCodeword.from_ints(coords))
        assert golden._key_mod(coords, depth) == x0.mask | x1.mask << ring.dim
    for x0 in ring:
        for x1 in ring:
            key = golden._coset_key(pair_to_matrix(x0, x1), ideal)
            assert key == x0.mask | x1.mask << ring.dim


def test_key_mod_2_matches_the_bitwise_loop():
    """At depths 1 and 2 the key is the word of coordinate parities: at
    depth 2 bit pos is the parity of coordinate pos, at depth 1 bit k the
    parity of re + im of Gaussian coordinate k, negatives included."""

    def loop_key(coords, depth):
        key = 0
        for pos, v in enumerate(coords):
            key ^= (v & 1) << (pos if depth == 2 else pos // 2)
        return key

    rng = random.Random(20261018)
    for _ in range(2000):
        coords = tuple(rng.randint(-5, 5) for _ in range(8))
        for depth in (1, 2):
            assert golden._key_mod(coords, depth) == loop_key(coords, depth)


@pytest.mark.parametrize("ideal,ring", [("1pi", F4), ("2", F4I)], ids=["1pi", "2"])
def test_factorized_min_matches_the_brute_oracle(ideal, ring):
    """Every coset at boxes 1 and 2, against one oracle pass per box: same
    value, same witness string; the coset box 1 leaves empty (mod 2, all
    coordinates even) is refused by the library.  Box 1 has only 15
    distinct half norms, box 2 has 87."""
    pairs = [(x0, x1) for x1 in ring for x0 in ring]  # residue-key order
    for box in (1, 2):
        minima = brute_box_scan(ideal, box)[3]
        assert len(minima) == len(pairs)
        assert minima.count(None) == (1 if (ideal, box) == ("2", 1) else 0)
        for (x0, x1), best in zip(pairs, minima):
            coset = pair_to_matrix(x0, x1)
            if best is None:
                with pytest.raises(ValueError, match="no nonzero codeword matches"):
                    min_abs_det_sq(box, coset=coset, ideal=ideal)
                continue
            m, coords = best
            value, witness = min_abs_det_sq(box, coset=coset, ideal=ideal)
            assert value == Fraction(m, 5)
            assert str(witness) == str(GoldenCodeword.from_ints(coords))


def test_factorized_floors_match_the_brute_oracle():
    for ideal in ("1pi", "2"):
        assert scan_det_floors(ideal, 1) == brute_box_scan(ideal, 1)[:3]


@pytest.mark.parametrize("raised", [2, 4])
def test_factorized_floor_violations_match_the_brute_oracle(monkeypatch, raised):
    """The true floors never fail, so raise them to exercise the violation
    search: both routes must list the same first five violations, at boxes
    1 and 2.  Floors raised to 2 fail only at m = 1 (t = 1, the boundary of
    the scan's table test), floors raised to 4 on every shell t < 4.  The
    oracle's key tables are built from the same norm-pair table."""
    _plant_norm_floors(monkeypatch, lambda k, bits: raised)
    for box in (1, 2):
        for ideal in ("1pi", "2"):
            scan = scan_det_floors(ideal, box)
            assert len(scan[1]) == 5
            assert scan == brute_box_scan(ideal, box)[:3]


def _plant_norm_floors(monkeypatch, floors):
    """Replace the norm-pair floor table of every ideal's record:
    ``floors(k, bits)`` gives the floor of the index k = n0 | n1 << bits,
    bits being the record's ring.subring.dim (1 for "1pi", 2 for "2").  The
    key tables, the brute oracle's, follow it."""
    for ideal, record in list(golden._IDEALS.items()):
        bits = record.ring.subring.dim
        table = tuple(floors(k, bits) for k in range(1 << 2 * bits))
        monkeypatch.setitem(golden._IDEALS, ideal, record._replace(floors=table))


# Floor plants that depend on the pair of norm residues: the right norm's
# residue sits above the left norm's, whose lowest bit is bit 0.
_KEYED_FLOORS = {
    "right bit 2": lambda k, bits: 2 if k >> bits else 1,
    "odd left 4": lambda k, bits: 4 if k & 1 else 1,
    "cycle 1/2/4": lambda k, bits: (1, 2, 4)[k % 3],
}


@pytest.mark.parametrize("plant", list(_KEYED_FLOORS))
@pytest.mark.parametrize("ideal", ["1pi", "2"])
def test_grouped_floor_decisions_read_each_key_pairs_floor(monkeypatch, ideal, plant):
    """The scan decides a (left norm, right norm) pair at once: with floors
    that differ by norm residue, a decision that read another pair's floor
    would change the violations or the class sizes.  Against the brute
    oracle, which keys every codeword on its own, at box 2.  ("right bit 2"
    gives floor 2 where the right norm's residue is nonzero.)"""
    _plant_norm_floors(monkeypatch, _KEYED_FLOORS[plant])
    scan = scan_det_floors(ideal, 2)
    assert len(scan[1]) == 5 and sum(map(bool, scan[2])) >= 2
    assert scan == brute_box_scan(ideal, 2)[:3]


@pytest.mark.parametrize("plant", list(_KEYED_FLOORS))
@pytest.mark.parametrize("ideal", ["1pi", "2"])
def test_the_floor_scan_finds_every_violation(monkeypatch, ideal, plant):
    """The five-entry heap can hide a probe that the table test wrongly
    passes over.  With the heap widened to keep everything, the scan lists
    every codeword of the box-1 loop below its planted floor, read from the
    key table of its residue key."""
    _plant_norm_floors(monkeypatch, _KEYED_FLOORS[plant])
    monkeypatch.setattr(golden, "heapq", types.SimpleNamespace(nsmallest=lambda n, items: sorted(items)))
    table = floor_table_mod_1pi() if ideal == "1pi" else floor_table_mod_2()
    ring, half_key, _ = golden._IDEALS[ideal]
    bits = ring.dim
    every = [
        c
        for c in itertools.product(range(-1, 2), repeat=8)
        if any(c) and det_sq_times5(c) < table[half_key(c[:4]) | half_key(c[4:]) << bits]
    ]
    assert len(every) > 5
    assert scan_det_floors(ideal, 1)[1] == every


def _count_half_key_calls(monkeypatch, ideal):
    """Route the library's half key of ``ideal`` through a counter; the
    returned list holds the number of calls."""
    record = golden._IDEALS[ideal]
    calls = [0]

    def counted(h):
        calls[0] += 1
        return record.half_key(h)

    monkeypatch.setitem(golden._IDEALS, ideal, record._replace(half_key=counted))
    return calls


@pytest.mark.parametrize("ideal,ring", [("1pi", F4), ("2", F4I)], ids=["1pi", "2"])
def test_coset_search_keys_each_coordinate_once_per_slot(monkeypatch, ideal, ring):
    """The coset search builds both sides from one key per Gaussian
    coordinate of the box in each of the two slots of a half."""
    coset = pair_to_matrix(ring.elements[1], ring.elements[2])
    expected = min_abs_det_sq(2, coset=coset, ideal=ideal)
    calls = _count_half_key_calls(monkeypatch, ideal)
    assert min_abs_det_sq(2, coset=coset, ideal=ideal) == expected
    assert calls == [2 * 5**2]


@pytest.mark.parametrize("ideal", ["1pi", "2"])
def test_floor_scan_keys_each_coordinate_once_per_slot(monkeypatch, ideal):
    """The floor scan keys no half and no Gaussian coordinate, only each
    distinct norm once: 87 half-key calls at box 2, for the 87 norms of the
    5^4 halves."""
    expected = scan_det_floors(ideal, 2)
    calls = _count_half_key_calls(monkeypatch, ideal)
    assert scan_det_floors(ideal, 2) == expected
    assert calls == [87]


@pytest.mark.parametrize("ideal", ["1pi", "2"])
def test_floor_scan_norms_one_of_each_pair_of_halves(monkeypatch, ideal):
    """The half counts of each norm come from the zero half and the
    negative-leading halves, (5^4 + 1) / 2 = 313 norms at box 2, and with
    the library floors no probe can fail, so no half is expanded."""
    expected = scan_det_floors(ideal, 2)
    calls = [0]

    def counted(*h):
        calls[0] += 1
        return norm_ints(*h)

    monkeypatch.setattr(golden, "norm_ints", counted)
    assert scan_det_floors(ideal, 2) == expected
    assert calls == [313]


def test_a_scan_that_admits_the_floor_itself_is_caught():
    """The library floors are met at box 2, so a scan whose decisions read
    t <= floor instead of t < floor reports codewords with m equal to their
    floor; planted here by rewriting the scan's one comparison of t."""
    source = textwrap.dedent(inspect.getsource(golden.scan_det_floors))
    planted = source.replace(" t < ", " t <= ")
    assert planted.count(" t <= ") == 1
    namespace = dict(vars(golden))
    exec(planted, namespace)
    for ideal, table in (("1pi", floor_table_mod_1pi()), ("2", floor_table_mod_2())):
        checked, violations, counts = scan_det_floors(ideal, 2)
        mutant = namespace["scan_det_floors"](ideal, 2)
        assert violations == [] and (mutant[0], mutant[2]) == (checked, counts)
        assert len(mutant[1]) == 5
        ring, half_key, _ = golden._IDEALS[ideal]
        bits = ring.dim
        for v in mutant[1]:
            assert det_sq_times5(v) == table[half_key(v[:4]) | half_key(v[4:]) << bits]


@pytest.mark.parametrize(
    "ideal,ring,value,witness",
    [
        (None, None, Fraction(1, 5), "(-2-2i, -2-2i, -2-i, 2i)"),
        ("1pi", F4, Fraction(2, 5), "(-2-i, -2-2i, -2+i, -2)"),
        ("2", F4I, Fraction(2, 5), "(-1-2i, -2-2i, -1, -2+2i)"),
    ],
    ids=["full", "1pi", "2"],
)
def test_the_search_builds_one_table_when_the_half_keys_agree(monkeypatch, ideal, ring, value, witness):
    """The full search, and the coset [[1,1],[1,1]] whose two half keys are
    equal, build one first-half table for both sides; a coset whose half
    keys differ builds two."""
    first_halves, keys = golden._first_halves, []
    monkeypatch.setattr(golden, "_first_halves", lambda *args: keys.append(args[2]) or first_halves(*args))
    coset = ring and pair_to_matrix(ring.one, ring.one)  # [[1,1],[1,1]]
    found, cw = min_abs_det_sq(2, coset=coset, ideal=ideal)
    assert (found, str(cw), len(keys)) == (value, witness, 1)
    if ring:
        keys.clear()
        min_abs_det_sq(2, coset=pair_to_matrix(ring.elements[1], ring.elements[2]), ideal=ideal)
        assert keys == [1, 2]


def _all_halves_floor_scan(ideal, box):
    """scan_det_floors as it was before the slot keys: each of the (2B+1)^4
    halves keyed on its own, and the nine offsets of norm < 4 visited."""
    table = golden.floor_table_mod_1pi() if ideal == "1pi" else golden.floor_table_mod_2()
    ring, half_key, _ = golden._IDEALS[ideal]
    bits = ring.dim
    key_counts = [0] * (1 << bits)
    groups = {}
    for h in itertools.product(range(-box, box + 1), repeat=4):
        k = half_key(h)
        key_counts[k] += 1
        groups.setdefault(norm_ints(*h), {}).setdefault(k, []).append(h)
    counts = [0, 0, 0]  # floors 4, 2, 1
    for kl, count_l in enumerate(key_counts):
        for kr, count_r in enumerate(key_counts):
            counts[(4, 2, 1).index(table[kl | kr << bits])] += count_l * count_r
    counts[(4, 2, 1).index(table[0])] -= 1
    violations = heapq.nsmallest(5, (
        h + r
        for (p, q), left in groups.items()
        for dx, dy in itertools.product((-1, 0, 1), repeat=2)
        if (n := (q + dx, dy - p)) in groups and (dx or dy or p or q)
        for kl, left_halves in left.items()
        for kr, right_halves in groups[n].items()
        if dx * dx + dy * dy < table[kl | kr << bits]
        for h in left_halves
        for r in right_halves
    ))
    return sum(key_counts) ** 2 - 1, violations, counts


@pytest.mark.parametrize("raised", [None, 4], ids=["library", "raised"])
@pytest.mark.parametrize("box", [3, 4])
def test_floor_scan_matches_the_all_halves_grouping(monkeypatch, box, raised):
    """Beyond the brute oracle's boxes: the same checked count, violations
    and class sizes as the scan that keys every half, with the library's
    floors and with every floor raised to 4."""
    if raised:
        _plant_norm_floors(monkeypatch, lambda k, bits: raised)
    for ideal in ("1pi", "2"):
        scan = scan_det_floors(ideal, box)
        assert len(scan[1]) == (5 if raised else 0)
        assert scan == _all_halves_floor_scan(ideal, box)


def _all_halves_tables(box, half_key, bits):
    """key -> the first half of each norm among the box's halves of that key,
    from every one of the (2B+1)^4 halves keyed on its own: the search's
    tables as they were built before the slot and sign reductions."""
    tables = [{} for _ in range(1 << bits)]
    for h in itertools.product(range(-box, box + 1), repeat=4):
        tables[half_key(h)].setdefault(norm_ints(*h), h)
    return tables


@pytest.mark.parametrize("box", [1, 2, 3, 4])
def test_first_half_tables_match_the_all_halves_route(box):
    """Same norms, same first halves, same order: the unkeyed table of the
    full search, and the table of every key of both ideals, which covers
    both sides of every coset."""
    unkeyed = [0] * (2 * box + 1) ** 2
    table = golden._first_halves(box, (unkeyed, unkeyed), 0)
    assert list(table.items()) == list(_all_halves_tables(box, lambda h: 0, 0)[0].items())
    for ring, half_key, _ in golden._IDEALS.values():
        bits = ring.dim
        slot_keys = golden._slot_keys(box, half_key)
        for key, want in enumerate(_all_halves_tables(box, half_key, bits)):
            assert list(golden._first_halves(box, slot_keys, key).items()) == list(want.items())


def test_the_search_keeps_the_negative_leading_half_of_each_pair(monkeypatch):
    """Of h and -h the tables keep the half whose first nonzero coordinate
    is negative, the lexicographically first.  Tables built from the zero
    half and the positive-leading halves instead move the box-2 witness."""

    def positive_leading(box, slot_keys, key):
        coords = list(itertools.product(range(-box, box + 1), repeat=2))
        keyed = zip(itertools.product(coords, repeat=2), itertools.product(*slot_keys))
        first = {}
        for (a, b), (ka, kb) in keyed:
            if a + b >= (0, 0, 0, 0) and ka ^ kb == key:
                first.setdefault(norm_ints(*a, *b), a + b)
        return first

    assert str(min_abs_det_sq(2)[1]) == "(-2-2i, -2-2i, -2-i, 2i)"
    monkeypatch.setattr(golden, "_first_halves", positive_leading)
    value, witness = min_abs_det_sq(2)
    assert value == Fraction(1, 5)
    assert str(witness) == "(0, 0, 0, i)"


def test_box3_results_pinned():
    """Values the brute loops established at box 3 (7^8 - 1 codewords)."""
    value, witness = min_abs_det_sq(3)
    assert value == Fraction(1, 5)
    assert str(witness) == "(-3-3i, 2i, -3+i, -2-i)"
    assert scan_det_floors("1pi", 3) == (5_764_800, [], [390_624, 3_154_176, 2_220_000])
    assert scan_det_floors("2", 3) == (5_764_800, [], [1_911_264, 1_633_536, 2_220_000])


@pytest.mark.parametrize("box", [4, 5, 6])
def test_min_abs_det_sq_reaches_box_6(box):
    value, witness = min_abs_det_sq(box)
    assert value == Fraction(1, 5)
    assert abs_det_sq(witness) == value
    assert all(abs(v) <= box for g in witness.coords() for v in (g.re, g.im))


# ----------------------------------------------------------------------
# the int kernels against the GaussianInt formulas

_WINDOW = [
    GoldenInt(GaussianInt(ur, ui), GaussianInt(vr, vi))
    for ur, ui, vr, vi in itertools.product(range(-2, 3), repeat=4)
]


def test_norm_ints_matches_golden_norm():
    for x in _WINDOW:
        n = golden_norm(x)
        assert norm_ints(*x._ints()) == (n.re, n.im)


def _ref_golden_mul(x, y):
    vv = x.v * y.v
    return GoldenInt(x.u * y.u + vv, x.u * y.v + x.v * y.u + vv)


def _ref_pair_mul(x, y):
    """(x0 + e x1)(y0 + e y1) = (x0 y0 + i sigma(x1) y1) + e (sigma(x0) y1 + x1 y0)."""
    (x0, x1), (y0, y1) = x, y
    t = _ref_golden_mul(x1.galois_conj(), y1)
    i = GaussianInt(0, 1)
    first = _ref_golden_mul(x0, y0) + GoldenInt(i * t.u, i * t.v)
    second = _ref_golden_mul(x0.galois_conj(), y1) + _ref_golden_mul(x1, y0)
    return first, second


def _codeword(pair):
    x0, x1 = pair
    return GoldenCodeword(x0.u, x0.v, x1.u, x1.v)


def test_golden_kernels_match_the_gaussian_route():
    """The kernel on the +/-2 window, and ``golden_pair_mul``, the kernel's
    formula written out over 16 ints, on window pairs and on pairs with
    coordinates in +/-10^6.  There each of the 64 coordinate products of
    the expansion has its own magnitude, so a wrong sign or a dropped term
    cannot cancel against another, as it may on the window."""
    rng = random.Random(29)
    ys = rng.sample(_WINDOW, 16)
    for x in _WINDOW:
        for y in ys:
            assert x * y == _ref_golden_mul(x, y)
    draws = (  # an element pair x or y
        lambda: tuple(rng.choices(_WINDOW, k=2)),
        lambda: tuple(GoldenInt._of([rng.randint(-10**6, 10**6) for _ in range(4)]) for _ in range(2)),
    )
    for draw in draws:
        for _ in range(2000):
            x, y = draw(), draw()
            z = golden_pair_mul(_codeword(x), _codeword(y))
            assert (z.x0(), z.x1()) == _ref_pair_mul(x, y)


_PAIR_PROJECTIONS = (("1pi", project_pair_mod_1pi), ("2", project_pair_mod_2))


def _assert_projections_read_the_records(codewords):
    for ideal, project in _PAIR_PROJECTIONS:
        ring, half_key, _ = golden._IDEALS[ideal]
        for coords in codewords:
            x0, x1 = project(GoldenCodeword.from_ints(coords))
            assert x0 is ring.elements[half_key(coords[:4])]
            assert x1 is ring.elements[half_key(coords[4:])]


def test_the_pair_projections_read_the_records_the_scans_read():
    """The projections key each half with their record's half key written
    out: on every codeword of the +/-1 box each returns, by identity, the
    ring elements of ``golden._IDEALS`` at both halves' keys."""
    _assert_projections_read_the_records(list(itertools.product(range(-1, 2), repeat=8)))


def test_the_written_out_half_keys_hold_far_from_the_box():
    """The same identity on 2 000 seeded codewords with coordinates in
    +/-10^6, negatives included, where every slot and sign of the written
    out keys meets its own parity."""
    rng = random.Random(37)
    _assert_projections_read_the_records(
        [tuple(rng.randint(-10**6, 10**6) for _ in range(8)) for _ in range(2000)]
    )


def test_projections_match_the_reduction_route():
    rng = random.Random(31)
    box1 = itertools.product(range(-1, 2), repeat=8)
    box2 = [[rng.randint(-2, 2) for _ in range(8)] for _ in range(2000)]
    for coords in itertools.chain(box1, box2):
        cw = GoldenCodeword.from_ints(coords)
        a, b, c, d = (coords[k:k + 2] for k in range(0, 8, 2))
        assert project_pair_mod_1pi(cw) == (
            F4.from_w_components(_reduce_mod_1pi(*a), _reduce_mod_1pi(*b)),
            F4.from_w_components(_reduce_mod_1pi(*c), _reduce_mod_1pi(*d)),
        )
        assert project_pair_mod_2(cw) == (
            F4I.from_w_components(_reduce_mod_2(*a), _reduce_mod_2(*b)),
            F4I.from_w_components(_reduce_mod_2(*c), _reduce_mod_2(*d)),
        )
