from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from cosetcodes import golden
from cosetcodes.cyclic import pair_to_matrix
from cosetcodes.golden import (
    ALPHA,
    ALPHA_BAR,
    FLOOR_BY_CLASS,
    GI_I,
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
    project_mod_1pi,
    project_pair_mod_1pi,
    project_pair_mod_2,
    reduce_mod_1pi,
    reduce_mod_2,
    scan_det_floors,
)
from cosetcodes.matrices import RingMatrix
from cosetcodes.rings import F2, F2I, F4, F4I
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


# 0 and +-1 are the parts that str() writes specially ("2i", "-i", "1+i").
parts = st.sampled_from([0, 1, -1]) | ints


@given(x=st.builds(GaussianInt, parts, parts))
def test_gaussian_parse_round_trip(x):
    assert GaussianInt.parse(str(x)) == x


@pytest.mark.parametrize(
    "text,re_im",
    [("2i", (0, 2)), ("-3i", (0, -3)), ("1+12i", (1, 12)), ("i", (0, 1)),
     ("-i", (0, -1)), ("5", (5, 0))],
)
def test_gaussian_parse(text, re_im):
    assert GaussianInt.parse(text) == GaussianInt(*re_im)


@pytest.mark.parametrize("text", ["", "1+", "i2"])
def test_gaussian_parse_rejects(text):
    with pytest.raises(ValueError):
        GaussianInt.parse(text)


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


def test_reductions():
    assert reduce_mod_1pi(GaussianInt(1, 1)).is_zero
    assert reduce_mod_1pi(GaussianInt(2, -1)) == F2.one
    assert reduce_mod_2(GaussianInt(2, 2)).is_zero
    assert reduce_mod_2(GaussianInt(1, 0)) == F2I.one
    assert reduce_mod_2(GaussianInt(0, 1)) == F2I.gen_i
    assert reduce_mod_2(GaussianInt(-1, 3)) == F2I.one + F2I.gen_i


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
    "ideal,ring,keyfn,project",
    [
        ("1pi", F4, golden._key_mod_1pi, project_pair_mod_1pi),
        ("2", F4I, golden._key_mod_2, project_pair_mod_2),
    ],
    ids=["1pi", "2"],
)
def test_one_residue_key(ideal, ring, keyfn, project):
    """The oracle's coordinate key of every codeword in the +/-1 box is
    x0.mask | x1.mask << ring.dim of its projected pair, and the library
    keys the coset of every pair the same way."""
    for coords in itertools.product(range(-1, 2), repeat=8):
        x0, x1 = project(GoldenCodeword.from_ints(coords))
        assert keyfn(coords) == x0.mask | x1.mask << ring.dim
    for x0 in ring:
        for x1 in ring:
            key = golden._coset_key(pair_to_matrix(x0, x1), ideal)
            assert key == x0.mask | x1.mask << ring.dim


def test_key_mod_2_matches_the_bitwise_loop():
    """The one-expression mod-2 key is the full-coordinate parity key: bit
    pos is the parity of coordinate pos, negative coordinates included."""

    def loop_key(coords):
        key = 0
        for pos, v in enumerate(coords):
            key |= (v & 1) << pos
        return key

    rng = random.Random(20261018)
    for _ in range(2000):
        coords = tuple(rng.randint(-5, 5) for _ in range(8))
        assert golden._key_mod_2(coords) == loop_key(coords)


@pytest.mark.parametrize("ideal,ring", [("1pi", F4), ("2", F4I)], ids=["1pi", "2"])
def test_factorized_min_matches_the_brute_oracle(ideal, ring):
    """Every coset at box 1, against one oracle pass: same value, same
    witness string; the coset the box leaves empty (mod 2, all coordinates
    even) is refused by the library."""
    minima = brute_box_scan(ideal, 1)[3]
    pairs = [(x0, x1) for x1 in ring for x0 in ring]  # residue-key order
    assert len(minima) == len(pairs)
    assert minima.count(None) == (1 if ideal == "2" else 0)
    for (x0, x1), best in zip(pairs, minima):
        coset = pair_to_matrix(x0, x1)
        if best is None:
            with pytest.raises(ValueError, match="no nonzero codeword matches"):
                min_abs_det_sq(1, coset=coset, ideal=ideal)
            continue
        m, coords = best
        value, witness = min_abs_det_sq(1, coset=coset, ideal=ideal)
        assert value == Fraction(m, 5)
        assert str(witness) == str(GoldenCodeword.from_ints(coords))


def test_factorized_floors_match_the_brute_oracle():
    for ideal in ("1pi", "2"):
        assert scan_det_floors(ideal, 1) == brute_box_scan(ideal, 1)[:3]


@pytest.mark.parametrize("raised", [2, 4])
def test_factorized_floor_violations_match_the_brute_oracle(monkeypatch, raised):
    """The true floors never fail, so raise them to exercise the violation
    search: both routes must list the same first five violations."""
    monkeypatch.setattr(golden, "floor_table_mod_1pi", lambda: [raised] * 16)
    monkeypatch.setattr(golden, "floor_table_mod_2", lambda: [raised] * 256)
    for ideal in ("1pi", "2"):
        scan = scan_det_floors(ideal, 1)
        assert len(scan[1]) == 5
        assert scan == brute_box_scan(ideal, 1)[:3]


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


def _ref_golden_mul(x, y):
    vv = x.v * y.v
    return GoldenInt(x.u * y.u + vv, x.u * y.v + x.v * y.u + vv)


def _ref_pair_mul(x, y):
    """(x0 + e x1)(y0 + e y1) = (x0 y0 + i sigma(x1) y1) + e (sigma(x0) y1 + x1 y0)."""
    (x0, x1), (y0, y1) = x, y
    t = _ref_golden_mul(x1.galois_conj(), y1)
    first = _ref_golden_mul(x0, y0) + GoldenInt(GI_I * t.u, GI_I * t.v)
    second = _ref_golden_mul(x0.galois_conj(), y1) + _ref_golden_mul(x1, y0)
    return first, second


def _codeword(pair):
    x0, x1 = pair
    return GoldenCodeword(x0.u, x0.v, x1.u, x1.v)


def test_golden_kernels_match_the_gaussian_route():
    rng = random.Random(29)
    ys = rng.sample(_WINDOW, 16)
    for x in _WINDOW:
        for y in ys:
            assert x * y == _ref_golden_mul(x, y)
    for _ in range(2000):
        x = tuple(rng.choices(_WINDOW, k=2))
        y = tuple(rng.choices(_WINDOW, k=2))
        z = golden_pair_mul(_codeword(x), _codeword(y))
        assert (z.x0(), z.x1()) == _ref_pair_mul(x, y)


def test_projections_match_the_reduction_route():
    rng = random.Random(31)
    box1 = itertools.product(range(-1, 2), repeat=8)
    box2 = [[rng.randint(-2, 2) for _ in range(8)] for _ in range(2000)]
    for coords in itertools.chain(box1, box2):
        cw = GoldenCodeword.from_ints(coords)
        a, b, c, d = cw.coords()
        assert project_pair_mod_1pi(cw) == (
            F4.from_w_components(reduce_mod_1pi(a), reduce_mod_1pi(b)),
            F4.from_w_components(reduce_mod_1pi(c), reduce_mod_1pi(d)),
        )
        assert project_pair_mod_2(cw) == (
            F4I.from_w_components(reduce_mod_2(a), reduce_mod_2(b)),
            F4I.from_w_components(reduce_mod_2(c), reduce_mod_2(d)),
        )
