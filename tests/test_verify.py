from __future__ import annotations

import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from cosetcodes import cli, golden, verify
from cosetcodes.bounds import SqrtVal
from cosetcodes import cyclic
from cosetcodes.cyclic import CyclicElement, pair_to_matrix
from cosetcodes.golden import GaussianInt, GoldenCodeword, GoldenInt
from cosetcodes.matrices import RingMatrix
from cosetcodes.outer_codes import LinearCode, MatrixSpace, repetition_code
from cosetcodes.rings import F2, F2I, F4, F4I, F8, F16_ALT

ALL_CLAIMS = list(verify.CLAIMS)


@pytest.mark.parametrize("name", ALL_CLAIMS)
def test_every_claim_passes(claim_result, name):
    rep = claim_result(name)
    assert rep.passed, f"{name} failed: {rep.witness}; details={rep.details}"
    assert rep.claim == name
    assert rep.elapsed > 0


def test_report_tsv_shape(claim_result):
    for name in ("counts", "norm_f4i"):
        line = claim_result(name).tsv_line()
        fields = line.split("\t")
        assert len(fields) == 3
        assert fields[1] == "pass"


def test_counts_details(claim_result):
    details = "\n".join(claim_result("counts").details)
    assert "96 invertible of 256" in details


def test_f16m4_relation_report(claim_result):
    """The degree-4 table claim must carry the reducible-modulus anomaly:
    the tabulated W satisfies w^4+w+1, not the namesake w^4+w^2+1."""
    details = "\n".join(claim_result("iso_f16m4").details)
    assert "w^4 + w^2 + 1 = 0: FAIL" in details
    assert "w^4 + w + 1 = 0: pass" in details
    assert "bijection" in details


def test_inner_pair_lee_spectrum_detail(claim_result):
    details = "\n".join(claim_result("inner_pair_lee").details)
    assert "0:16, 2:24, 4:24" in details
    assert "15 non-unit members" in details


def test_det_floor_class_sizes_are_stable(claim_result):
    """Class sizes over the +/-2 box, frozen after the first exhaustive run;
    any arithmetic regression in reduction or classification moves them."""
    d1 = "\n".join(claim_result("det_floors_1pi").details)
    d2 = "\n".join(claim_result("det_floors_2").details)
    assert "28560/207936/154128" in d1
    assert "125328/111168/154128" in d2
    assert "(1, 0, 1, 0)" in d2  # the equal-norms counterexample


def test_projection_compat_details(claim_result):
    details = "\n".join(claim_result("projection_compat").details)
    assert "43008 of 65536" in details  # plain labeling fails mod (1+i)
    assert "36864 of 65536" in details  # conjugated labeling fails mod 2
    assert "both second slots" in details


def test_golden_mindet_has_a_witness(claim_result):
    rep = claim_result("golden_mindet")
    assert rep.witness != "-"


def test_delta_min_rep2_details(claim_result):
    details = "\n".join(claim_result("delta_min_rep2").details)
    assert "4/5" in details


def test_run_claim_rejects_unknown_names():
    with pytest.raises(ValueError):
        verify.run_claim("nosuch")


def test_brute_delta_min_guards(monkeypatch):
    code = repetition_code(2, MatrixSpace(F2, 2))
    with pytest.raises(ValueError):
        verify.brute_delta_min(code, "7")
    monkeypatch.setattr(verify, "DELTA_MIN_TUPLE_LIMIT", 10)
    with pytest.raises(ValueError):
        verify.brute_delta_min(code, "1pi")


@pytest.mark.parametrize(
    "ideal,box,message",
    [("x", 1, "ideal must be '1pi' or '2'"), ("1pi", 0, "box must be at least 1"),
     ("2", -1, "box must be at least 1")],
)
def test_brute_box_scan_refuses_bad_input(ideal, box, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        verify.brute_box_scan(ideal, box)


def test_a_ring_alphabet_is_refused_as_a_coset():
    """A coset must be a 2x2 matrix; a ring element gets the ValueError of
    matrix_to_pair on both routes that reach it, not an AttributeError."""
    message = "^matrix_to_pair expects a 2x2 matrix over the base ring$"
    with pytest.raises(ValueError, match=message):
        verify.brute_delta_min(repetition_code(2, F2), "1pi")
    with pytest.raises(ValueError, match=message):
        golden.min_abs_det_sq(1, coset=F2.one, ideal="1pi")


def test_brute_delta_min_value(claim_result):
    """L=2 repetition over M2(F2), coordinates in {0,1,i,1+i}: the minimum
    Gram determinant is exactly the stacked bound 16/20 = 4/5."""
    value, witness, eq2_ok = verify.brute_delta_min(
        repetition_code(2, MatrixSpace(F2, 2)), "1pi"
    )
    assert value == Fraction(4, 5)
    assert eq2_ok
    assert len(witness) == 2


@pytest.mark.parametrize("ring,ideal", [(F2, "1pi"), (F2I, "2")], ids=["1pi", "2"])
def test_brute_delta_min_single_block(ring, ideal):
    """L = 1: the one block must meet the superadditivity check with
    equality, at the unit codeword c = 1."""
    value, witness, eq2_ok = verify.brute_delta_min(
        repetition_code(1, MatrixSpace(ring, 2)), ideal
    )
    assert value == Fraction(1, 5) and type(value) is Fraction
    assert [str(cw) for cw in witness] == ["(0, 0, 1, 0)"]
    assert eq2_ok is True


@pytest.mark.parametrize(
    "u,ms,holds",
    [(20, (1, 1), True), (19, (1, 1), False), (0, (1, 1), False), (5, (1,), True),
     (6, (1,), False)],
)
def test_eq2_holds_at_its_integer_boundaries(u, ms, holds):
    """u = 25*delta: two unit blocks need u >= 5*(1+1) + 10*sqrt(1*1) = 20,
    one block needs u = 5*m exactly.  At u = 0 the square alone would pass."""
    assert verify._eq2_holds(u, ms) is holds


@pytest.mark.parametrize(
    "code",
    [repetition_code(3, MatrixSpace(F2I, 2)), LinearCode(MatrixSpace(F2I, 2), 0, 0, ())],
    ids=["L3", "L0"],
)
def test_brute_delta_min_refuses_lengths_other_than_1_and_2(code):
    """The superadditivity cross-check is exact for one or two blocks only,
    so any other length is refused before a tuple is scored."""
    with pytest.raises(ValueError, match=r"^the exact cross-check is implemented for L <= 2$"):
        verify.brute_delta_min(code, "2")


def _reference_gram_det(words):
    """det(sum X_i X_i^dagger) as p + q*sqrt5, with each 5*X X^dagger built
    from matrix_times_sqrt5 times its explicit conjugate transpose."""
    zero = GoldenInt(GaussianInt(0, 0), GaussianInt(0, 0))
    s = [[zero, zero], [zero, zero]]
    for cw in words:
        m = cw.matrix_times_sqrt5()
        adj = [[m[c][r].complex_conj() for c in range(2)] for r in range(2)]
        for r, c, k in itertools.product(range(2), repeat=3):
            s[r][c] = s[r][c] + m[r][k] * adj[k][c]
    det = s[0][0] * s[1][1] - s[0][1] * s[1][0]
    assert det.u.im == det.v.im == 0
    return SqrtVal(Fraction(det.u.re, 25) + Fraction(det.v.re, 50), Fraction(det.v.re, 50), 5)


def test_brute_delta_min_matches_a_per_tuple_reference(monkeypatch):
    """The L=2 mod-(2) repetition code over the representative box: {0, 1, i,
    1+i} holds one codeword per residue class, so its 255 nonzero tuples are
    (X, X).  A per-tuple loop gives the same minimum, first witness and
    superadditivity flag (checked here in floats), and the oracle computes
    each representative's matrix once."""
    code = repetition_code(2, MatrixSpace(F2I, 2))
    reps = [
        GoldenCodeword.from_ints(sum(pairs, ()))
        for pairs in itertools.product(verify.DEFAULT_REPRESENTATIVES, repeat=4)
    ]
    by_coset = {golden.project_mod_2(cw): cw for cw in reps}
    assert len(by_coset) == 256
    best, witness, eq2_ok, examined = None, None, True, 0
    for outer in code.codewords():
        words = tuple(by_coset[m] for m in outer)
        if all(cw.is_zero for cw in words):
            continue
        examined += 1
        delta = _reference_gram_det(words)
        sqrt_dets = [math.sqrt(golden.det_numerator(cw).abs_sq() / 25) for cw in words]
        eq2_ok &= float(delta.p) + float(delta.q) * math.sqrt(5) >= sum(sqrt_dets) ** 2 - 1e-9
        if best is None or delta < best:
            best, witness = delta, words
    assert examined == 255

    calls = 0
    real = GoldenCodeword.matrix_times_sqrt5

    def counted(cw):
        nonlocal calls
        calls += 1
        return real(cw)

    monkeypatch.setattr(GoldenCodeword, "matrix_times_sqrt5", counted)
    assert verify.brute_delta_min(code, "2") == (best, witness, eq2_ok)
    assert calls == 256


@pytest.mark.parametrize("ideal,keys", [("1pi", 16), ("2", 256)])
def test_representative_gram_entries_give_the_determinant(ideal, keys):
    """Every residue key has representatives, and each of the 256 table
    entries satisfies det(5*X X^dagger) = 25*|det X|^2 = 5*m."""
    table = verify._representative_table(ideal)
    assert sorted(table) == list(range(keys))
    entries = [entry for group in table.values() for entry in group]
    assert len(entries) == 256
    for cw, m, g00, g01, g11 in entries:
        det = g00 * g11 - g01 * g01.complex_conj()
        assert det == GoldenInt(GaussianInt(5 * m, 0), GaussianInt(0, 0)), cw


def test_hermitian_det_matches_golden_int_arithmetic():
    """The int determinant against s00*s11 - s01*conj(s01) in GoldenInt
    arithmetic, on seeded cases: sums of two representative Gram entries
    (Hermitian, so the value is an int), (x, conj x, u*x) for a unit u of
    Z[i] (an int, 0, from entries with imaginary parts) and small entries
    (mostly refused).  Equal values, and the same refusal where the value is
    not an int."""
    rng = random.Random(28)
    reps = [rep for group in verify._representative_table("1pi").values() for rep in group]

    def small():
        return GoldenInt(*(GaussianInt(*rng.choices(range(-3, 4), k=2)) for _ in range(2)))

    cases = [
        [a + b for a, b in zip(rng.choice(reps)[2:], rng.choice(reps)[2:])] for _ in range(200)
    ]
    for _ in range(200):
        x = small()
        u = GoldenInt(rng.choice([GaussianInt(1, 0), GaussianInt(0, 1)]), GaussianInt(0, 0))
        cases.append([x, u * x, x.complex_conj()])
        cases.append([small() for _ in range(3)])
    for g00, g01, g11 in cases:
        det = g00 * g11 - g01 * g01.complex_conj()
        ints = [(g.u.re, g.u.im, g.v.re, g.v.im) for g in (g00, g11, g01)]
        if det.u.im or det.v.im:
            refusal = "non-real"
        elif det.v.re:
            refusal = "irrational"
        else:
            assert verify._hermitian_det(*ints) == det.u.re
            continue
        with pytest.raises(ArithmeticError, match=refusal):
            verify._hermitian_det(*ints)


def test_delta_min_rep2_needs_true_conjugates(monkeypatch):
    """With complex conjugation planted as the identity the Gram sums stop
    being Hermitian and the claim refuses the non-real determinant."""
    monkeypatch.setattr(GoldenInt, "complex_conj", lambda self: self)
    with pytest.raises(ArithmeticError, match="non-real"):
        verify.run_claim("delta_min_rep2")


def test_delta_min_rep2_needs_a_true_galois_conjugate(monkeypatch):
    """With theta -> 1 - theta planted as the identity the bottom row loses
    the codeword shape, the Gram determinant picks up a sqrt5 part and the
    claim refuses it instead of ranking irrational values."""
    monkeypatch.setattr(golden, "_golden_sigma", lambda x: x)
    with pytest.raises(ArithmeticError, match="irrational"):
        verify.run_claim("delta_min_rep2")


def test_golden_mindet_needs_a_true_galois_conjugate(monkeypatch):
    """The same plant breaks the matrix route of the grid proof: the
    expanded determinant keeps a theta part, and det_numerator refuses it."""
    monkeypatch.setattr(golden, "_golden_sigma", lambda x: x)
    with pytest.raises(ArithmeticError, match="nonvanishing theta-component"):
        verify.run_claim("golden_mindet")


# `cosetcodes verify --all` stdout in both formats, as the claims print it.
VERIFY_ALL_TSV = """\
counts\tpass\t-
regular_rep\tpass\t-
iso_f8m3\tpass\t-
iso_f16m4\tpass\t-
iso_m2f2_f4j\tpass\t-
iso_m2f2i_f4ij\tpass\t-
f_basis\tpass\t-
norm_f4i\tpass\t-
isometry_weights\tpass\t-
inner_pair_lee\tpass\t-
code_distances\tpass\t-
projection_compat\tpass\t-
golden_mindet\tpass\t(-2-2i, -2-2i, -2-i, 2i)
det_floors_1pi\tpass\t-
det_floors_2\tpass\t-
delta_min_rep2\tpass\t((0, 0, 0, 0); (0, 0, 0, 1+i))
"""

VERIFY_ALL_PLAIN = """\
counts: pass  [matrix spaces up to 2^16 elements; f4i]
  M2(f2i): 96 invertible of 256
  f4i non-units: (1+i)w, (1+i)w+1+i, 0, 1+i
regular_rep: pass  [all 16^2 (n=2/f4) and 512^2 (n=3/f8) products]
iso_f8m3: pass  [512 images; 512x512 additivity and multiplicativity]
  generator relation e^3 = 1 and twist verified implicitly
iso_f16m4: pass  [4x4 generator relations; 2^16 images]
  relation e^4 = 1: pass
  relation w*e = e*w^2: pass
  relation w^4 + w^2 + 1 = 0: FAIL (residue [[0,1,1,0],[0,0,1,1],[1,1,0,1],[1,0,1,0]])
  observed minimal relation w^4 + w + 1 = 0: pass
  additive extension is a bijection onto M4(F2)
iso_m2f2_f4j: pass  [16 images; 256 pair products]
iso_m2f2i_f4ij: pass  [256 images; 65536 pair products]
f_basis: pass  [65536 round trips; 4096 singular checks]
  (I + E)^4 = 0: the f generator is nilpotent of index <= 4
  all 4096 elements with y0 = 0 map to singular matrices
norm_f4i: pass  [16 norms; 256 products]
  range is {0, 1, i}; 1+i is not a norm
isometry_weights: pass  [16 phi pairs; 256 psi pairs; lee table]
  96 of 256 psi images invertible (one-unit pairs)
inner_pair_lee: pass  [64 members of the inner parity pair-code]
  weight spectrum (weight:count) = 0:16, 2:24, 4:24
  a uniform floor of 2 fails for 15 non-unit members, first (0, 1+i); these project to the 4*delta determinant class, so the two-level bound stands
code_distances: pass  [exhaustive distances; RS minors]
  (0,0,1,1) -> (zero matrix, all-ones): hamming 1, matrix weight 2
  six one-sided unit pairs = GL2(F2)
  rs distances certified via Vandermonde minors (560 + 120)
projection_compat: pass  [625 coordinate pairs; 65536 golden-pair products]
  plain pair (x0bar, x1bar) is not multiplicative mod (1+i) (expected, e sits left of x1): 43008 of 65536 products differ, first at x=((0)+(0)t, (0)+(i)t), y=((0)+(0)t, (i)+(0)t); conjugating the second slot repairs all 65536
  mod-2 multiplicativity fails exactly when both second slots are units (expected, e^2 = i vs j^2 = 1): 36864 of 65536 products differ, first at x=((0)+(0)t, (0)+(i)t), y=((0)+(0)t, (0)+(i)t)
golden_mindet: pass  [5^8 - 1 nonzero codewords]
  witness: (-2-2i, -2-2i, -2-i, 2i)
  identity 5*det X = (2+i)(N(a+b*theta) - i*N(c+d*theta)) holds on all 6561 points of {-1,0,1}^8, so everywhere
det_floors_1pi: pass  [390624 nonzero codewords in the +/-2 box]
  checked 390624 codewords; class sizes (floor 4/2/1) = 28560/207936/154128
det_floors_2: pass  [390624 nonzero codewords in the +/-2 box]
  checked 390624 codewords; class sizes (floor 4/2/1) = 125328/111168/154128
  equal-norms grouping fails: codeword (1, 0, 1, 0) has |det|^2 = 2/5 < 4/5
delta_min_rep2: pass  [4096 mod-(1+i) tuples and 256 mod-(2) tuples over the box]
  witness: ((0, 0, 0, 0); (0, 0, 0, 1+i))
  mod-(1+i): meets the determinant bound 4/5 with equality
  mod-(2) analogue: delta_min = 4/5 = min(16, 4) * 1/5
"""


@pytest.mark.parametrize(
    "fmt,expected",
    [((), VERIFY_ALL_TSV), (("--format", "plain"), VERIFY_ALL_PLAIN)],
    ids=["tsv", "plain"],
)
def test_verify_all_stdout_is_pinned(claim_result, monkeypatch, capsys, fmt, expected):
    """Every space, witness, detail line and the claim order (definition
    order); the session's cached reports stand in for a second run."""
    monkeypatch.setattr(verify, "run_all", lambda: [claim_result(n) for n in verify.CLAIMS])
    assert cli.main(["verify", "--all", *fmt]) == 0
    assert capsys.readouterr().out == expected


def test_failing_claim_report(monkeypatch, capsys):
    """A failing claim's witness is its first failure; the later failures
    close its details, and the CLI exits 1."""
    monkeypatch.setattr(verify, "count_invertible", lambda ring, n: 0)
    rep = verify.run_claim("counts")
    assert rep.passed is False
    assert rep.witness == "M2(f2) invertible count != 6"
    assert rep.details[-1] == "FAILURE: M2(f2i) invertible count = 0, expected 96"
    assert cli.main(["verify", "--claim", "counts"]) == 1
    assert capsys.readouterr().out == "counts\tfail\tM2(f2) invertible count != 6\n"


@pytest.fixture
def flipped_f8(monkeypatch):
    """F8 with bit 0 of the products 3*5 and 5*3 flipped, on a copy of the
    multiplication table; the original table is restored afterwards."""
    table = [row[:] for row in F8._mul]
    table[3][5] ^= 1
    table[5][3] ^= 1
    monkeypatch.setattr(F8, "_mul", table)


def test_regular_rep_finds_a_planted_table_defect(flipped_f8):
    rep = verify.run_claim("regular_rep")
    assert not rep.passed
    assert rep.witness == "rep(x*y) != rep(x)rep(y) at ((0, 0, 3), (0, 0, 3)) over f8"


def test_iso_f8m3_finds_a_planted_table_defect(flipped_f8):
    rep = verify.run_claim("iso_f8m3")
    assert not rep.passed
    assert rep.witness == "multiplicativity fails at (0, 0, 3), (0, 3, 0)"


def test_iso_f8m3_finds_two_swapped_images(monkeypatch):
    """The images of (5, 0, 0) and (6, 0, 0) trade places; the map stays a
    bijection, so the first failure is additivity, in scan order."""
    real = verify.iso_f8_to_m3
    swap = {(5, 0, 0): 6, (6, 0, 0): 5}

    def swapped(x):
        if x.masks in swap:
            x = CyclicElement(F8, [F8.elements[swap[x.masks]], F8.zero, F8.zero])
        return real(x)

    monkeypatch.setattr(verify, "iso_f8_to_m3", swapped)
    rep = verify.run_claim("iso_f8m3")
    assert not rep.passed
    assert rep.witness == "additivity fails at (0, 0, 1), (5, 0, 0)"



def test_pair_model_finds_two_swapped_images(monkeypatch):
    """The psi images of (0, iw) and (0, (1+i)w+i) trade places.  The map
    stays a bijection, so after the inverse check the first product failure
    is additivity, in scan order (x outer, y inner)."""
    real = verify.pair_to_matrix
    a, b = F4I.elements[8], F4I.elements[14]

    def swapped(x, y):
        if x is F4I.zero and y in (a, b):
            y = b if y is a else a
        return real(x, y)

    monkeypatch.setattr(verify, "pair_to_matrix", swapped)
    rep = verify.run_claim("iso_m2f2i_f4ij")
    assert not rep.passed
    assert rep.witness == "psi inverse fails at (f4i:0, f4i:iw)"
    assert rep.details == ("FAILURE: additivity fails at (f4i:0, f4i:1), (f4i:0, f4i:iw)",)


def test_pair_model_needs_the_conjugation(monkeypatch):
    """A twisted product without sigma, (ac + bd) + (ad + bc)j, first
    differs where b = 1 meets d = w, which sigma moves."""
    monkeypatch.setattr(
        verify,
        "twisted_pair_mul",
        lambda p, q: (p[0] * q[0] + p[1] * q[1], p[0] * q[1] + p[1] * q[0]),
    )
    rep = verify.run_claim("iso_m2f2i_f4ij")
    assert not rep.passed
    assert rep.witness == "multiplicativity fails at (f4i:0, f4i:1), (f4i:0, f4i:w)"
    assert rep.details == ()


def test_iso_f16m4_finds_two_equal_basis_images(monkeypatch):
    """The basis element w (bit 1 of coefficient 0) is sent to the image of
    1: the 16 basis images have rank 15 and span half of M4(F2)."""
    real = verify.iso_f16_to_m4

    def merged(x):
        if x.masks == (2, 0, 0, 0):
            x = CyclicElement(F16_ALT, [F16_ALT.one, F16_ALT.zero, F16_ALT.zero, F16_ALT.zero])
        return real(x)

    monkeypatch.setattr(verify, "iso_f16_to_m4", merged)
    rep = verify.run_claim("iso_f16m4")
    assert not rep.passed
    assert rep.witness == "extended map hits only 32768 of 65536 matrices"
    # the first sample mask with bit 1 set is rebuilt from the wrong image
    assert rep.details[-1] == "FAILURE: linearity reconstruction differs at mask 62306"


def test_iso_f16m4_finds_a_perturbed_sample_image(monkeypatch):
    """The image of sample mask 31153, which is no basis element, gains the
    identity: the basis still spans M4(F2), and that sample is the first
    whose reconstruction from the basis images differs."""
    real = verify.iso_f16_to_m4
    masks = tuple(31153 >> 4 * j & 15 for j in range(4))

    def perturbed(x):
        image = real(x)
        return image + RingMatrix.identity(F2, 4) if x.masks == masks else image

    monkeypatch.setattr(verify, "iso_f16_to_m4", perturbed)
    rep = verify.run_claim("iso_f16m4")
    assert not rep.passed
    assert rep.witness == "linearity reconstruction differs at mask 31153"
    assert rep.details[-1] == "additive extension is a bijection onto M4(F2)"


def test_f_basis_finds_a_dropped_term(monkeypatch):
    """to_f_basis with x_3 left out of y_0 breaks the round trip first at
    the first element with x_3 != 0."""
    real = verify.to_f_basis

    def dropped(x):
        y0, y1, y2, y3 = real(x)
        return (y0 + x.coeffs[3], y1, y2, y3)

    monkeypatch.setattr(verify, "to_f_basis", dropped)
    rep = verify.run_claim("f_basis")
    assert not rep.passed
    assert rep.witness == "f-basis round trip fails at (0; 0; 0; 1)"


@pytest.mark.parametrize(
    "after_to,before_from,failure",
    [
        # R a 3-cycle of slots 1-3: to = R o T and from = T o R^-1 still
        # round-trip, but to o to = R o T o R o T is not the identity
        (
            lambda y: (y[0], y[3], y[1], y[2]),
            lambda y: (y[0], y[2], y[3], y[1]),
            "f-basis transform is not an involution at (0; 0; 0; 1)",
        ),
        # an affine to_f_basis fails both checks first at x = 0, and the
        # round trip is reported
        (
            lambda y: (y[0], y[1] + F16_ALT.one, y[2], y[3]),
            lambda y: y,
            "f-basis round trip fails at (0; 0; 0; 0)",
        ),
    ],
    ids=["permuted-slots", "affine"],
)
def test_f_basis_finds_a_transform_that_is_no_involution(
    monkeypatch, after_to, before_from, failure
):
    """Both plants move e off (1, 1, 0, 0), so that check fails first; the
    scan over all 16^4 elements reports its own first failure after it."""
    real_to, real_from = verify.to_f_basis, verify.from_f_basis
    monkeypatch.setattr(verify, "to_f_basis", lambda x: after_to(real_to(x)))
    monkeypatch.setattr(verify, "from_f_basis", lambda ring, y: real_from(ring, before_from(y)))
    rep = verify.run_claim("f_basis")
    assert not rep.passed
    assert rep.witness == "e does not rewrite to 1 + f"
    assert rep.details == (
        "(I + E)^4 = 0: the f generator is nilpotent of index <= 4",
        f"FAILURE: {failure}",
    )


def _reversed_pair(monkeypatch, name):
    """Make golden.<name> return its pair in reverse order."""
    real = getattr(golden, name)
    monkeypatch.setattr(golden, name, lambda cw: real(cw)[::-1])


def test_projection_compat_finds_a_reversed_1pi_pair(monkeypatch):
    """The scan goes on past its first product failure, so the mod-2
    summary, which the reversal does not touch, still counts every product."""
    _reversed_pair(monkeypatch, "project_pair_mod_1pi")
    rep = verify.run_claim("projection_compat")
    assert not rep.passed
    assert rep.witness == (
        "conjugated mod-(1+i) multiplicativity fails at "
        "x=((0)+(0)t,(0)+(i)t), y=((0)+(0)t,(0)+(i)t)"
    )
    assert rep.details[-1] == (
        "mod-2 multiplicativity fails exactly when both second slots are units "
        "(expected, e^2 = i vs j^2 = 1): 36864 of 65536 products differ, "
        "first at x=((0)+(0)t, (0)+(i)t), y=((0)+(0)t, (0)+(i)t)"
    )


def test_projection_compat_counts_every_product_past_a_late_defect(monkeypatch):
    """A 1pi projection reversed from its 40 000th call on: both summaries
    count all 65536 products, and the plain-pair line no longer says that
    conjugating repairs them all."""
    real = golden.project_pair_mod_1pi
    calls = 0

    def late(cw):
        nonlocal calls
        calls += 1
        return real(cw)[::-1] if calls >= 40000 else real(cw)

    monkeypatch.setattr(golden, "project_pair_mod_1pi", late)
    rep = verify.run_claim("projection_compat")
    assert not rep.passed
    assert rep.witness == (
        "conjugated mod-(1+i) multiplicativity fails at "
        "x=((1)+(i)t,(1)+(1+i)t), y=((i)+(0)t,(0)+(0)t)"
    )
    plain, mod2 = rep.details
    assert "45888 of 65536 products differ" in plain and "repairs" not in plain
    assert "36864 of 65536 products differ" in mod2


def test_projection_compat_finds_a_reversed_mod2_pair(monkeypatch):
    _reversed_pair(monkeypatch, "project_pair_mod_2")
    rep = verify.run_claim("projection_compat")
    assert not rep.passed
    assert rep.witness == (
        "mod-2 failure locus breaks the both-units rule at "
        "x=((0)+(0)t,(0)+(i)t), y=((0)+(0)t,(0)+(i)t)"
    )


@pytest.mark.parametrize("ideal,label", [("1pi", "mod-(1+i)"), ("2", "mod-2")])
def test_projection_compat_checks_the_half_keys_the_scans_run(monkeypatch, ideal, label):
    """A half key whose second slot reads ai for bi keeps g = -2-i in the
    second slot in the ideal: the window check reads the keys from the
    records of golden._IDEALS at call time, as the scans do."""
    record = golden._IDEALS[ideal]
    misread = record._replace(half_key=lambda h: record.half_key((h[0], h[1], h[2], h[1])))
    monkeypatch.setitem(golden._IDEALS, ideal, misread)
    rep = verify.run_claim("projection_compat")
    assert not rep.passed
    assert rep.witness == f"{label} membership mismatch at -2-i"


# Half-key plants that keep membership of either slot; each breaks a fact the
# minimum search enumerates by.  plant -> (extra key bits of h given the true
# key k, the first failure's check, its halves under "1pi" and under "2").
_HALF_KEY_PLANTS = {
    # couples the slots; additivity fails too, but later in the scan
    "slot product": (lambda h, k: (h[0] & h[2]) & 1,
                     "slot separability", "-1-2i, -1-2i", "-1-2i, -1-2i"),
    # vanishes on (g, h) + (h, g): membership and additivity still hold
    "slot form": (lambda h, k: (h[0] * h[3] + h[1] * h[2]) & 1,
                  "slot separability", "-2-i, -1-2i", "-2-i, -1-2i"),
    # flips key bit 1 of a first slot with key bit 0 set, when re > 0
    "sign": (lambda h, k: (h[0] > 0 and k(h[:2] + (0, 0)) & 1) << 1,
             "sign symmetry", "-2-i, -2-2i", "-1-2i, -2-2i"),
    # relabels each slot's mod-2 residue 1 -> 1, i -> 1, 1+i -> 2: membership,
    # slots and signs hold, additivity does not.  Mod 2 only: a one-bit
    # mod-(1+i) key that keeps membership is always additive.
    "relabel": (lambda h, k: k(h) ^ _relabeled_mod2_key(h), "additivity", None, "-2-i, -1-2i"),
}


def _relabeled_mod2_key(h):
    """Per slot, the parity of re + im in bit 0 and of re*im in bit 1."""
    return sum(((x ^ y) & 1 | (x & y & 1) << 1) << s for x, y, s in ((h[0], h[1], 0), (h[2], h[3], 2)))


_HALF_KEY_CASES = [
    (ideal, label, plant)
    for plant, (_, _, at_1pi, at_2) in _HALF_KEY_PLANTS.items()
    for ideal, label, at in (("1pi", "mod-(1+i)", at_1pi), ("2", "mod-2", at_2))
    if at is not None
]


@pytest.mark.parametrize("ideal,label,plant", _HALF_KEY_CASES)
def test_projection_compat_checks_the_half_key_facts_the_search_uses(monkeypatch, ideal, label, plant):
    """The scans key each Gaussian coordinate once per slot and the minimum
    search visits one of each pair +/-h, which needs key(g, h) = key(g, 0) ^
    key(0, h) and key(-g, -h) = key(g, h): the window check tests both,
    then additivity, on the keys read from the records of golden._IDEALS.
    Each case runs the whole claim."""
    extra, check, at_1pi, at_2 = _HALF_KEY_PLANTS[plant]
    record = golden._IDEALS[ideal]
    half_key = record.half_key
    planted = record._replace(half_key=lambda h: half_key(h) ^ extra(h, half_key))
    monkeypatch.setitem(golden._IDEALS, ideal, planted)
    rep = verify.run_claim("projection_compat")
    assert not rep.passed
    assert rep.witness == f"{label} {check} fails at {at_1pi if ideal == '1pi' else at_2}"


def test_projection_compat_stays_exhaustive(monkeypatch):
    """One passing run multiplies all 256^2 window pairs and projects the
    256 window elements and the 65536 products under both ideals.  Each
    distinct twisted product is taken once: 16^2 for each of the two F4-pair
    labelings and 256^2 for the F4[i] one."""
    counts = {}

    def counted(module, name):
        real = getattr(module, name)
        counts[name] = 0

        def wrapper(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(verify, "golden_pair_mul")
    counted(golden, "project_pair_mod_1pi")
    counted(golden, "project_pair_mod_2")
    counted(verify, "twisted_pair_mul")
    assert verify.run_claim("projection_compat").passed
    assert counts == {
        "golden_pair_mul": 65536,
        "project_pair_mod_1pi": 65792,
        "project_pair_mod_2": 65792,
        "twisted_pair_mul": 66048,
    }


def _pairs(ring, *texts):
    """Parse "a, b" pairs of elements of ring."""
    return [tuple(map(ring.parse, text.split(", "))) for text in texts]


def _bump(slot):
    """Add 1 to one slot of a twisted product."""
    return lambda r: tuple(c + c.ring.one if k == slot else c for k, c in enumerate(r))


_F4_PLANT = {tuple(_pairs(F4, "w, 1", "1, w+1")): _bump(0)}
_F4I_PLANT = {tuple(_pairs(F4I, "w+1, iw+1", "(1+i)w, 1+i")): _bump(1)}
_CONJ_AT = "x=((0)+(i)t,(i)+(0)t), y=((i)+(0)t,(0)+(i)t)"
_PLAIN = (
    "plain pair (x0bar, x1bar) is not multiplicative mod (1+i) (expected, e sits "
    "left of x1): 43008 of 65536 products differ, first at x=((0)+(0)t, (0)+(i)t), "
    "y=((0)+(0)t, (i)+(0)t)"
)
_MOD2 = (
    "mod-2 multiplicativity fails exactly when both second slots are units "
    "(expected, e^2 = i vs j^2 = 1): %d of 65536 products differ, first at "
    "x=((0)+(0)t, (0)+(i)t), y=((0)+(0)t, (0)+(i)t)"
)


@pytest.mark.parametrize(
    "plant,witness,details",
    [
        (
            _F4_PLANT,
            f"conjugated mod-(1+i) multiplicativity fails at {_CONJ_AT}",
            (_PLAIN, _MOD2 % 36864),
        ),
        (
            _F4I_PLANT,
            "mod-2 failure locus breaks the both-units rule at "
            "x=((1)+(1)t,(1+i)+(i)t), y=((0)+(1+i)t,(1+i)+(0)t)",
            (_PLAIN + "; conjugating the second slot repairs all 65536", _MOD2 % 36865),
        ),
        # the F4 plant's first failure and a locus failure at a smaller y of
        # the same x: the locus failure is the first in (x, y) order
        (
            {**_F4_PLANT, tuple(_pairs(F4I, "iw, i", "i, 0")): _bump(1)},
            "mod-2 failure locus breaks the both-units rule at "
            "x=((0)+(i)t,(i)+(0)t), y=((i)+(0)t,(0)+(0)t)",
            (
                _PLAIN,
                _MOD2 % 36865,
                f"FAILURE: conjugated mod-(1+i) multiplicativity fails at {_CONJ_AT}",
            ),
        ),
        # both first failures on one pair: the conjugated one comes first
        (
            {
                **_F4_PLANT,
                tuple(_pairs(F4I, "iw, i", "i, iw+i")): lambda r: _pairs(F4I, "(1+i)w, 0")[0],
            },
            f"conjugated mod-(1+i) multiplicativity fails at {_CONJ_AT}",
            (
                _PLAIN,
                _MOD2 % 36863,
                f"FAILURE: mod-2 failure locus breaks the both-units rule at {_CONJ_AT}",
            ),
        ),
    ],
    ids=["f4-pair", "f4i-pair", "locus-first-in-row", "one-pair"],
)
def test_projection_compat_finds_a_planted_twisted_product(monkeypatch, plant, witness, details):
    """A twisted product wrong on one operand pair, in either pair model, is
    found at the first product that reads it, in (x, y) order, and moves the
    summary counts by the products it touches."""
    real = verify.twisted_pair_mul

    def planted(p, q):
        r = real(p, q)
        return plant[p, q](r) if (p, q) in plant else r

    monkeypatch.setattr(verify, "twisted_pair_mul", planted)
    rep = verify.run_claim("projection_compat")
    assert not rep.passed
    assert rep.witness == witness
    assert rep.details == details


_LOCUS_AT = "x=((0)+(0)t,(0)+(i)t), y=((0)+(0)t,(1+i)+(0)t)"


@pytest.mark.parametrize(
    "on_f4,witness,details",
    [
        # the conjugated labelings become the plain ones: the mod-(1+i)
        # one fails at the plain pair's first mismatch
        (
            False,
            "conjugated mod-(1+i) multiplicativity fails at "
            "x=((0)+(0)t,(0)+(i)t), y=((0)+(0)t,(i)+(0)t)",
            (
                _PLAIN,
                _MOD2 % 59904,
                f"FAILURE: mod-2 failure locus breaks the both-units rule at {_LOCUS_AT}",
            ),
        ),
        (
            True,
            f"mod-2 failure locus breaks the both-units rule at {_LOCUS_AT}",
            (_PLAIN + "; conjugating the second slot repairs all 65536", _MOD2 % 59904),
        ),
    ],
    ids=["identity", "identity-on-f4i"],
)
def test_projection_compat_reads_the_conjugation_it_relabels_by(monkeypatch, on_f4, witness, details):
    """The conjugated labelings read quadratic_conj at call time, both to
    label x and y and to read their twisted product back: planted as the
    identity (on F4 too, or on F4[i] only), the labeling it builds is checked
    and fails.  Each case runs the whole claim."""
    real = verify.quadratic_conj
    monkeypatch.setattr(verify, "quadratic_conj", lambda e: real(e) if on_f4 and e.ring is F4 else e)
    rep = verify.run_claim("projection_compat")
    assert not rep.passed
    assert rep.witness == witness
    assert rep.details == details


def _flipped_norm_ints(ar, ai, br, bi):
    """golden.norm_ints with the sign of its 2*br*bi term flipped."""
    nr = ar * ar - ai * ai + ar * br - ai * bi - (br * br - bi * bi)
    ni = 2 * ar * ai + ar * bi + ai * br + 2 * br * bi
    return nr, ni


def test_golden_mindet_compares_the_search_with_the_brute_loop(monkeypatch):
    """A search that returned the box-1 witness, which also has |det|^2 = 1/5,
    passes the value and witness checks; only the brute loop catches it."""
    box1 = GoldenCodeword.from_ints((-1, -1, -1, -1, -1, -1, 0, 1))
    assert str(box1) == "(-1-i, -1-i, -1-i, i)" and golden.abs_det_sq(box1) == Fraction(1, 5)
    monkeypatch.setattr(verify, "min_abs_det_sq", lambda box: (Fraction(1, 5), box1))
    rep = verify.run_claim("golden_mindet")
    assert not rep.passed
    assert rep.witness == (
        "factorized search gives 1/5 at (-1-i, -1-i, -1-i, i), "
        "brute loop 1/5 at (-2-2i, -2-2i, -2-i, 2i)"
    )


def test_golden_mindet_proves_the_norm_identity(monkeypatch):
    """A sign error in norm_ints moves the library's scans and the brute pass
    together, so only the grid proof of the identity can catch it."""
    monkeypatch.setattr(golden, "norm_ints", _flipped_norm_ints)
    for ideal in ("1pi", "2"):
        assert golden.scan_det_floors(ideal, 1) == verify.brute_box_scan(ideal, 1)[:3]
    rep = verify.run_claim("golden_mindet")
    assert not rep.passed
    assert rep.witness.startswith(
        "identity 5*det X = (2+i)(N(a+b*theta) - i*N(c+d*theta)) fails on 4536 of 6561 points"
    )


@pytest.mark.parametrize("ideal", ["1pi", "2"])
def test_brute_keys_do_not_route_through_the_half_key_codec(monkeypatch, ideal):
    """Swap the two Gaussian slots inside the library's half keys: the
    library's per-coset minima then disagree with the oracle's, whose keys
    come from the full-coordinate key functions.  (The floor scans would
    still agree: their class sizes are symmetric under this swap.)"""
    record = golden._IDEALS[ideal]
    swapped = record._replace(half_key=lambda h: record.half_key(h[2:] + h[:2]))
    monkeypatch.setitem(golden._IDEALS, ideal, swapped)
    ring = F4 if ideal == "1pi" else F4I
    pairs = [(x0, x1) for x1 in ring for x0 in ring]  # residue-key order
    disagree = 0
    for (x0, x1), best in zip(pairs, verify.brute_box_scan(ideal, 1)[3]):
        if best is not None:
            coset = pair_to_matrix(x0, x1)
            library = golden.min_abs_det_sq(1, coset=coset, ideal=ideal)
            disagree += library != (Fraction(best[0], 5), GoldenCodeword.from_ints(best[1]))
    assert disagree == {"1pi": 12, "2": 240}[ideal]


def _reference_box1_scan(ideal, table, scored):
    """brute_box_scan's 4-tuple at box 1, rebuilt one scored codeword at a
    time, keyed by coordinate parities written out here."""
    violations, key_counts, best = [], [0] * len(table), [None] * len(table)
    for coords, m in scored:
        if ideal == "1pi":  # re + im of each Gaussian coordinate
            key = sum(((coords[2 * j] + coords[2 * j + 1]) & 1) << j for j in range(4))
        else:  # each integer coordinate
            key = sum((c & 1) << j for j, c in enumerate(coords))
        key_counts[key] += 1
        if m < table[key] and len(violations) < 5:
            violations.append(coords)
        if best[key] is None or m < best[key][0]:
            best[key] = (m, coords)
    counts = [sum(n for f, n in zip(table, key_counts) if f == floor) for floor in (4, 2, 1)]
    return sum(key_counts), violations, counts, best


def test_brute_box_scan_matches_a_per_codeword_reference(monkeypatch):
    """All 6 560 nonzero codewords of box 1, each scored by the symbolic
    determinant, for both ideals; raising every floor to 4 fills the
    violation list too."""
    scored = [
        (c, golden.det_numerator(GoldenCodeword.from_ints(c)).abs_sq() // 5)
        for c in itertools.product((-1, 0, 1), repeat=8)
        if any(c)
    ]
    for raised in (False, True):
        if raised:
            monkeypatch.setattr(golden, "floor_table_mod_1pi", lambda: [4] * 16)
            monkeypatch.setattr(golden, "floor_table_mod_2", lambda: [4] * 256)
        for ideal in ("1pi", "2"):
            floors = golden.floor_table_mod_1pi if ideal == "1pi" else golden.floor_table_mod_2
            reference = _reference_box1_scan(ideal, floors(), scored)
            assert len(reference[1]) == (5 if raised else 0)
            assert verify.brute_box_scan(ideal, 1) == reference


def _per_codeword_box_scan(ideal, box):
    """brute_box_scan one codeword at a time: left half outer, right half
    inner, each codeword scored and keyed on its own."""
    keyfn = functools.partial(golden._key_mod, depth=1 if ideal == "1pi" else 2)
    table = (golden.floor_table_mod_1pi if ideal == "1pi" else golden.floor_table_mod_2)()
    norm = golden.norm_ints
    pad = (0,) * 4
    halves = list(itertools.product(range(-box, box + 1), repeat=4))
    left = [(h, *norm(*h), keyfn(h + pad)) for h in halves]
    right = [(h, *norm(*h), keyfn(pad + h)) for h in halves]
    nonzero_right = [r for r in right if any(r[0])]
    violations, key_counts, best = [], [0] * len(table), [None] * len(table)
    for hl, p, q, kl in left:
        for hr, r, s, kr in right if any(hl) else nonzero_right:
            m = (p + s) ** 2 + (q - r) ** 2
            key = kl | kr
            key_counts[key] += 1
            if m < table[key] and len(violations) < 5:
                violations.append(hl + hr)
            if best[key] is None or m < best[key][0]:
                best[key] = (m, hl + hr)
    counts = [sum(n for f, n in zip(table, key_counts) if f == floor) for floor in (4, 2, 1)]
    return sum(key_counts), violations, counts, best


def _key_mod_without_t(coords, depth):
    """golden._key_mod with the correction x - 2^j*t dropped to x."""
    j, r = divmod(depth, 2)
    key = 0
    for pos in range(len(coords) // 2):
        x, y = coords[2 * pos], coords[2 * pos + 1]
        key |= (x % 2 ** (j + r) | y % 2**j << j + r) << depth * pos
    return key


def test_box_claims_catch_a_key_mod_without_its_t_correction(monkeypatch):
    """Without t the depth-1 key is the parity of re alone, so the oracle's
    cosets mod (1+i) are wrong; at depth 2, 2^j*t is 0 mod 2 and the keys
    do not change."""
    expected = verify.run_claim("det_floors_2")
    monkeypatch.setattr(golden, "_key_mod", _key_mod_without_t)
    for claim in ("det_floors_1pi", "delta_min_rep2"):
        assert not verify.run_claim(claim).passed, claim
    assert verify.run_claim("det_floors_2").tsv_line() == expected.tsv_line()


def _raise_floors(monkeypatch, floors):
    """Replace both floor tables: ``floors(key)`` gives each key's floor."""
    monkeypatch.setattr(golden, "floor_table_mod_1pi", lambda: [floors(k) for k in range(16)])
    monkeypatch.setattr(golden, "floor_table_mod_2", lambda: [floors(k) for k in range(256)])


@pytest.mark.parametrize("floors", ["library", "all 4", "sparse 2"])
@pytest.mark.parametrize("ideal", ["1pi", "2"])
def test_brute_box_scan_matches_the_codeword_loop_at_box_2(monkeypatch, ideal, floors):
    """At box 2, with the library's floors (no violation), every floor
    raised to 4 (five violations in the first row), and floor 2 on the keys
    with one right-half bit set (violations in two rows, between rows that
    go on lanes)."""
    if floors == "all 4":
        _raise_floors(monkeypatch, lambda key: 4)
    elif floors == "sparse 2":
        bit = 2 if ideal == "1pi" else 5
        _raise_floors(monkeypatch, lambda key: 2 if key >> bit & 1 else 1)
    reference = _per_codeword_box_scan(ideal, 2)
    rows = {"library": 0, "all 4": 1, "sparse 2": 2}[floors]
    assert len({v[:4] for v in reference[1]}) == rows
    assert len(reference[1]) == (5 if rows else 0)
    assert verify.brute_box_scan(ideal, 2) == reference


@pytest.mark.parametrize("ideal", ["1pi", "2"])
def test_brute_box_scan_widens_its_lanes_to_the_norms(monkeypatch, ideal):
    """Norms scaled by 2^20 make m need more than 32 bits: the lane width
    follows the norms, and the pass still equals the codeword loop."""
    real = golden.norm_ints
    monkeypatch.setattr(golden, "norm_ints", lambda *h: tuple(2**20 * v for v in real(*h)))
    reference = _per_codeword_box_scan(ideal, 1)
    assert max(b[0] for b in reference[3] if b) >= 2**32
    assert verify.brute_box_scan(ideal, 1) == reference


@pytest.mark.parametrize("width", [1, 2, 3, 4, 8])
def test_lanes_round_trip(width):
    values = [(k * 2654435761) % 256**width for k in range(37)] + [256**width - 1, 0]
    lane = verify._lane_width(256**width)
    assert lane == {3: 4}.get(width, width)
    assert list(verify._unpack_lanes(verify._lanes(values, lane), len(values), lane)) == values


def test_lanes_refuse_values_past_64_bits():
    with pytest.raises(ValueError, match="64 bits"):
        verify._lane_width(2**64 + 1)


def _sigma_tables(ring, n):
    sig = [list(range(ring.size))]
    for _ in range(1, n):
        sig.append([ring._mul[m][m] for m in sig[-1]])
    return sig


def _algebra_product(ring, sig, x, y):
    """Coefficient s of x*y is the sum over k of sigma^k(x_{s-k}) * y_k."""
    n = len(x)
    return tuple(
        functools.reduce(operator.xor, (ring._mul[sig[k][x[(s - k) % n]]][y[k]] for k in range(n)))
        for s in range(n)
    )


def _matrix_product(ring, a, b):
    n = len(a)
    return [
        [functools.reduce(operator.xor, (ring._mul[a[r][k]][b[k][c]] for k in range(n))) for c in range(n)]
        for r in range(n)
    ]


def _per_pair_regular_rep_witness():
    """regular_rep's product check, one pair at a time on entry lists."""
    for ring, n in ((F4, 2), (F8, 3)):
        sig = _sigma_tables(ring, n)

        def rep(x):
            return [[sig[c][x[(r - c) % n]] for c in range(n)] for r in range(n)]

        elems = list(itertools.product(range(ring.size), repeat=n))
        for x in elems:
            for y in elems:
                if rep(_algebra_product(ring, sig, x, y)) != _matrix_product(ring, rep(x), rep(y)):
                    return f"rep(x*y) != rep(x)rep(y) at {(x, y)} over {ring.name}"
    return "-"


def _per_pair_iso_f8m3_witness():
    """iso_f8m3's additivity, then multiplicativity, one pair at a time."""
    elems = list(itertools.product(range(8), repeat=3))
    masks = [verify.iso_f8_to_m3(CyclicElement(F8, [F8.elements[c] for c in x])).masks for x in elems]
    packed = [int("".join(map(str, m)), 2) for m in masks]
    for ix, x in enumerate(elems):
        for iy, y in enumerate(elems):
            if packed[ix ^ iy] != packed[ix] ^ packed[iy]:
                return f"additivity fails at {x}, {y}"
    sig = _sigma_tables(F8, 3)
    index = {x: i for i, x in enumerate(elems)}

    def image(i):
        return [list(masks[i][3 * r:3 * r + 3]) for r in range(3)]

    for ix, x in enumerate(elems):
        for iy, y in enumerate(elems):
            if image(index[_algebra_product(F8, sig, x, y)]) != _matrix_product(F2, image(ix), image(iy)):
                return f"multiplicativity fails at {x}, {y}"
    return "-"


@pytest.mark.parametrize(
    "ring, flips",
    [
        (F8, ((3, 5), (5, 3))),
        (F8, ((2, 6),)),
        (F8, ((1, 4),)),
        (F8, ((4, 4),)),
        (F4, ((1, 2),)),
        (F4, ((3, 1),)),
    ],
    ids=["f8-3x5-5x3", "f8-2x6", "f8-1x4", "f8-4x4", "f4-1x2", "f4-3x1"],
)
def test_algebra_scans_report_the_per_pair_witness(monkeypatch, ring, flips):
    """Bit 0 of the listed products flipped, on a copy of the table: the
    lane scans name the pair that a per-pair scan names first, also where
    it is not the first y of its row."""
    table = [row[:] for row in ring._mul]
    for a, b in flips:
        table[a][b] ^= 1
    monkeypatch.setattr(ring, "_mul", table)
    rep = verify.run_claim("regular_rep")
    assert not rep.passed
    assert rep.witness == _per_pair_regular_rep_witness()
    iso = verify.run_claim("iso_f8m3")
    if ring is F8:
        assert not iso.passed
        assert iso.witness == _per_pair_iso_f8m3_witness()
    else:  # the degree-3 map reads no F4 product
        assert iso.passed


def test_product_scans_build_the_sigma_tables_once_per_scan(monkeypatch):
    """A product scan builds the sigma tables once, from the live ``_mul``
    table, for all of its ``_cyclic_products`` calls."""
    built = []
    real = verify._sigma_tables

    def counted(ring, n):
        built.append((ring.name, n))
        return real(ring, n)

    monkeypatch.setattr(verify, "_sigma_tables", counted)
    assert verify.run_claim("regular_rep").passed
    assert verify.run_claim("iso_f8m3").passed
    # regular_rep builds one set for its rows and one per scan, per ring
    assert built == [("f4", 2), ("f4", 2), ("f8", 3), ("f8", 3), ("f8", 3)]


def _per_pair_pair_model_failures(ring, base):
    """The first pair (x, y), in pair order, at which a pair model's
    additivity fails and the first at which its multiplicativity fails, each
    as ((ix, iy), message) or None.  One pair at a time on entry lists,
    through the live ``pair_to_matrix`` and ``twisted_pair_mul`` of verify."""
    pairs = list(itertools.product(ring, repeat=2))
    masks = [verify.pair_to_matrix(*p).masks for p in pairs]
    index = {p: i for i, p in enumerate(pairs)}

    def image(i):
        return [list(masks[i][:2]), list(masks[i][2:])]

    add = mul = None
    for ix, p in enumerate(pairs):
        for iy, q in enumerate(pairs):
            total = tuple(ring.elements[a.mask ^ b.mask] for a, b in zip(p, q))
            if add is None and masks[index[total]] != tuple(map(operator.xor, masks[ix], masks[iy])):
                add = (ix, iy), f"additivity fails at {p}, {q}"
            if mul is None and image(index[verify.twisted_pair_mul(p, q)]) != _matrix_product(
                base, image(ix), image(iy)
            ):
                mul = (ix, iy), f"multiplicativity fails at {p}, {q}"
    return add, mul


def _per_pair_pair_model_witness(ring, base):
    """Additivity over all pairs, then multiplicativity."""
    add, mul = _per_pair_pair_model_failures(ring, base)
    return (add or mul or (None, "-"))[1]


# flipped table -> (claim, pair ring, matrix entry ring)
_PAIR_MODELS = {
    F2: ("iso_m2f2_f4j", F4, F2),
    F4: ("iso_m2f2_f4j", F4, F2),
    F2I: ("iso_m2f2i_f4ij", F4I, F2I),
    F4I: ("iso_m2f2i_f4ij", F4I, F2I),
}


@pytest.mark.parametrize(
    "table, flips",
    [
        (F2, ((1, 1),)),
        (F4, ((2, 3),)),
        (F4, ((3, 2), (1, 3))),
        (F2I, ((2, 3),)),
        (F4I, ((1, 4),)),
        (F4I, ((10, 13),)),
        (F4I, ((5, 9), (9, 5))),
    ],
    ids=["f2-1x1", "f4-2x3", "f4-3x2-1x3", "f2i-2x3", "f4i-1x4", "f4i-10x13", "f4i-5x9-9x5"],
)
def test_pair_model_scans_report_the_per_pair_witness(monkeypatch, table, flips):
    """Bit 0 of the listed products flipped, on a copy of the table of the
    pair ring or of the matrix entries' ring: the pair model's lane scans
    name the pair that a per-pair scan names first."""
    claim, ring, base = _PAIR_MODELS[table]
    mul = [row[:] for row in table._mul]
    for a, b in flips:
        mul[a][b] ^= 1
    monkeypatch.setattr(table, "_mul", mul)
    rep = verify.run_claim(claim)
    assert not rep.passed
    assert rep.witness == _per_pair_pair_model_witness(ring, base)
    assert rep.details == ()


def test_pair_model_scans_additivity_before_products(monkeypatch):
    """The phi images of (0, 1) and (0, w) trade places, and so do their
    inverses, so the map stays a bijection with that inverse.  In pair
    order a product fails, at ((0, 1), (0, w)), before additivity does, at
    ((0, 1), (1, 0)); the additivity scan runs over all pairs first, and
    the product scan only when nothing has failed."""
    a, b = (F4.zero, F4.one), (F4.zero, F4.parse("w"))
    swap = {a: b, b: a}

    def swapped_inverse(m, ring):
        pair = cyclic.matrix_to_pair(m, ring)
        return swap.get(pair, pair)

    monkeypatch.setattr(verify, "pair_to_matrix", lambda *p: pair_to_matrix(*swap.get(p, p)))
    monkeypatch.setattr(verify, "matrix_to_pair", swapped_inverse)
    add, mul = _per_pair_pair_model_failures(F4, F2)
    assert mul == ((1, 2), "multiplicativity fails at (f4:0, f4:1), (f4:0, f4:w)")
    assert add == ((1, 4), "additivity fails at (f4:0, f4:1), (f4:1, f4:0)")
    rep = verify.run_claim("iso_m2f2_f4j")
    assert not rep.passed
    assert rep.witness == add[1]
    assert rep.details == ()
