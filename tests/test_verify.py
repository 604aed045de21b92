from __future__ import annotations

from fractions import Fraction

import pytest

from cosetcodes import cli, golden, verify
from cosetcodes.cyclic import CyclicElement
from cosetcodes.outer_codes import MatrixSpace, repetition_code
from cosetcodes.rings import F2, F8

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


def test_brute_delta_min_guards():
    code = repetition_code(2, MatrixSpace(F2, 2))
    with pytest.raises(ValueError):
        verify.brute_delta_min(code, "7")
    with pytest.raises(ValueError):
        verify.brute_delta_min(code, "1pi", limit=10)


def test_brute_delta_min_value(claim_result):
    """L=2 repetition over M2(F2), coordinates in {0,1,i,1+i}: the minimum
    Gram determinant is exactly the stacked bound 16/20 = 4/5."""
    value, witness, eq2_ok = verify.brute_delta_min(
        repetition_code(2, MatrixSpace(F2, 2)), "1pi"
    )
    assert value == Fraction(4, 5)
    assert eq2_ok
    assert len(witness) == 2


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
