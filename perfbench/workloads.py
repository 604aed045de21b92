"""The four benchmark workloads: fixed job lists over the public API, each
operation paired with a correctness gate against pinned values.

A workload's ``build(cc, rng)`` receives the freshly imported ``cosetcodes``
package and a ``random.Random`` seeded from ``--seed`` and returns its
operations.  Everything done inside ``build`` counts as set-up; only
``Op.call`` is timed.

Why these four:

* ``certify`` is ``cosetcodes verify --all``: all sixteen claims, dominated
  by ring, matrix and cyclic-algebra work (f_basis, projection_compat,
  regular_rep, ...).  Fixed exhaustive spaces, so the seed is ignored.
* ``golden_min`` is the box-2 minimum-determinant search over
  (2B+1)^8 = 390 625 codewords, unfiltered and restricted to one seeded
  coset per ideal.  Almost no ring work: it moves only with the golden scan.
* ``golden_floors`` uses the same golden kernel to total every codeword's
  class, so a search that prunes codewords cannot help it; fixed space, seed
  ignored.

The golden scans use box 2, the box of ``verify --all``: a pass then takes
about a second, so one run's median is taken over many passes (at box 3 a
pass took 16-24 s, one sample per run, and runs of the same code spread by a
third).
* ``codes`` runs exhaustive outer-code distances, which drive scalar ring
  add/mul in long linear combinations.  The seed permutes coordinate pairs
  as blocks, which leaves every distance unchanged.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable


@dataclass(frozen=True)
class Op:
    """One timed call; ``name + "_s"`` is its timing metric."""

    name: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


@dataclass(frozen=True)
class Workload:
    name: str
    uses_seed: bool
    build: Callable[[Any, random.Random], list[Op]]


BOX = 2
GOLDEN_IDEALS = ("1pi", "2")

# The sixteen claims of `cosetcodes verify --all`, in registry order.
CERTIFY_CLAIMS = (
    "counts",
    "regular_rep",
    "iso_f8m3",
    "iso_f16m4",
    "iso_m2f2_f4j",
    "iso_m2f2i_f4ij",
    "f_basis",
    "norm_f4i",
    "isometry_weights",
    "inner_pair_lee",
    "code_distances",
    "projection_compat",
    "golden_mindet",
    "det_floors_1pi",
    "det_floors_2",
    "delta_min_rep2",
)

MINDET_VALUE = Fraction(1, 5)
MINDET_WITNESS = "(-2-2i, -2-2i, -2-i, 2i)"

# Box-2 floor scans: nonzero codewords checked and per-floor (4, 2, 1) counts.
# For (1+i) the floor-4 class is the codewords whose four Gaussian
# coordinates all have re + im even: 13^4 - 1 of them.
FLOOR_CHECKED = 5**8 - 1
FLOOR_COUNTS = {
    "1pi": [13**4 - 1, 207_936, 154_128],
    "2": [125_328, 111_168, 154_128],
}


def _certify(cc: Any, rng: random.Random) -> list[Op]:
    verify = cc.verify
    return [
        Op(
            f"verify.claim.{claim}",
            lambda claim=claim: verify.run_claim(claim),
            lambda report: report.passed,
        )
        for claim in CERTIFY_CLAIMS
    ]


def _coords(cw: Any) -> tuple[int, ...]:
    return tuple(v for g in cw.coords() for v in (g.re, g.im))


def _coset_check(golden: Any, coset: Any, ideal: str) -> Callable[[Any], bool]:
    """The witness lies in the coset, its determinant is the reported value,
    and the value respects the class floor."""

    def check(result: Any) -> bool:
        value, witness = result
        if ideal == "1pi":
            in_coset = golden.project_mod_1pi(witness) == coset
            cls = golden.classify_projection(coset)
        else:
            in_coset = golden.project_mod_2(witness) == coset
            cls = golden.mod2_det_class(witness)
        m = value * 5
        return (
            in_coset
            and m.denominator == 1
            and golden.det_sq_times5(_coords(witness)) == m
            and m >= golden.FLOOR_BY_CLASS[cls]
        )

    return check


def _golden_min(cc: Any, rng: random.Random) -> list[Op]:
    golden = cc.golden
    ops = [
        Op(
            "golden.mindet_full",
            lambda: golden.min_abs_det_sq(BOX),
            lambda r: r[0] == MINDET_VALUE and str(r[1]) == MINDET_WITNESS,
        )
    ]
    for ideal, ring in zip(GOLDEN_IDEALS, (cc.F4, cc.F4I)):
        coset = cc.pair_to_matrix(rng.choice(ring.elements), rng.choice(ring.elements))
        ops.append(
            Op(
                f"golden.mindet_coset_{ideal}",
                lambda coset=coset, ideal=ideal: golden.min_abs_det_sq(
                    BOX, coset=coset, ideal=ideal
                ),
                _coset_check(golden, coset, ideal),
            )
        )
    return ops


def _golden_floors(cc: Any, rng: random.Random) -> list[Op]:
    golden = cc.golden
    return [
        Op(
            f"golden.floors_{ideal}",
            lambda ideal=ideal: golden.scan_det_floors(ideal, BOX),
            lambda r, ideal=ideal: (
                r[0] == FLOOR_CHECKED and r[1] == [] and r[2] == FLOOR_COUNTS[ideal]
            ),
        )
        for ideal in GOLDEN_IDEALS
    ]


def permute_pairs(code: Any, rng: random.Random) -> Any:
    """The code with its coordinate pairs (2j, 2j+1) permuted as blocks."""
    blocks = list(range(code.L // 2))
    rng.shuffle(blocks)
    order = [2 * b + k for b in blocks for k in (0, 1)]

    def permute(rows: tuple) -> tuple:
        return tuple(tuple(row[j] for j in order) for row in rows)

    return dataclasses.replace(
        code, rows=permute(code.rows), parity_rows=permute(code.parity_rows)
    )


def _codes(cc: Any, rng: random.Random) -> list[Op]:
    oc = cc.outer_codes
    kind = oc.WeightKind
    rs = permute_pairs(oc.reed_solomon_code(4), rng)
    parity_f4 = permute_pairs(oc.parity_check_code(8, cc.F4), rng)
    parity_f4i = permute_pairs(oc.parity_check_code(4, cc.F4I), rng)
    jobs = [
        ("rs16_4_hamming", rs, kind.HAMMING, 13),
        ("parity8_f4_pairs_bachoc", oc.pushforward_pairs(parity_f4), kind.BACHOC, 2),
        ("parity8_f4_lift_hamming", oc.lift_code(parity_f4), kind.HAMMING, 2),
        # 0: a nonzero codeword of Lee weight 0 (zero divisors of F4[i]).
        ("parity4_f4i_lee", parity_f4i, kind.LEE, 0),
    ]
    return [
        Op(
            f"outer_codes.min_distance.{label}",
            lambda code=code, k=k: oc.min_distance(code, k),
            lambda d, want=want: d == want,
        )
        for label, code, k, want in jobs
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("certify", False, _certify),
        Workload("golden_min", True, _golden_min),
        Workload("golden_floors", False, _golden_floors),
        Workload("codes", True, _codes),
    )
}
