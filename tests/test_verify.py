from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest

from cosetcodes import cli, golden, verify
from cosetcodes.bounds import SqrtVal
from cosetcodes.cyclic import CyclicElement, pair_to_matrix
from cosetcodes.golden import GaussianInt, GoldenCodeword, GoldenInt
from cosetcodes.outer_codes import LinearCode, MatrixSpace, repetition_code
from cosetcodes.rings import F2, F2I, F4, F4I, F8

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
    monkeypatch.setattr(GoldenInt, "galois_conj", lambda self: self)
    with pytest.raises(ArithmeticError, match="irrational"):
        verify.run_claim("delta_min_rep2")


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


def _reversed_pair(monkeypatch, name):
    """Make golden.<name> return its pair in reverse order."""
    real = getattr(golden, name)
    monkeypatch.setattr(golden, name, lambda cw: real(cw)[::-1])


def test_projection_compat_finds_a_reversed_1pi_pair(monkeypatch):
    """The scan stops at its first product failure, before any mod-2
    mismatch is counted, so the mod-2 summary reports a failure too."""
    _reversed_pair(monkeypatch, "project_pair_mod_1pi")
    rep = verify.run_claim("projection_compat")
    assert not rep.passed
    assert rep.witness == (
        "conjugated mod-(1+i) multiplicativity fails at "
        "x=((0)+(0)t,(0)+(i)t), y=((0)+(0)t,(0)+(i)t)"
    )
    assert rep.details[-1] == (
        "FAILURE: mod-2 multiplicativity unexpectedly holds — "
        "the e^2 = i twist should break it"
    )


def test_projection_compat_finds_a_reversed_mod2_pair(monkeypatch):
    _reversed_pair(monkeypatch, "project_pair_mod_2")
    rep = verify.run_claim("projection_compat")
    assert not rep.passed
    assert rep.witness == (
        "mod-2 failure locus breaks the both-units rule at "
        "x=((0)+(0)t,(0)+(i)t), y=((0)+(0)t,(0)+(i)t)"
    )


def _flipped_norm_ints(ar, ai, br, bi):
    """golden.norm_ints with the sign of its 2*br*bi term flipped."""
    nr = ar * ar - ai * ai + ar * br - ai * bi - (br * br - bi * bi)
    ni = 2 * ar * ai + ar * bi + ai * br + 2 * br * bi
    return nr, ni


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
    half_key, bits = golden._HALF_KEYS[ideal]
    monkeypatch.setattr(golden, "_HALF_KEYS", {ideal: (lambda h: half_key(h[2:] + h[:2]), bits)})
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
