"""Self-test of the benchmark harness.  Run from the repository root:

    python3 perfbench/selftest.py

Checks that every metric declared in BENCHMARK.json is emitted with its
unit, that a wrong result and a raising operation are counted as failed,
and that the per-claim times of one certify pass add up to its wall time
within the harness's own overhead.  Takes about half a minute.
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

import run
from workloads import WORKLOADS, Op, Workload

EXPECTED_OP_NAMES = {
    "golden_min": {"golden.mindet_full", "golden.mindet_coset_1pi", "golden.mindet_coset_2"},
    "golden_floors": {"golden.floors_1pi", "golden.floors_2"},
    "codes": {
        "outer_codes.min_distance.rs16_4_hamming",
        "outer_codes.min_distance.parity8_f4_pairs_bachoc",
        "outer_codes.min_distance.parity8_f4_lift_hamming",
        "outer_codes.min_distance.parity4_f4i_lee",
    },
}


def _tiny(wrong: bool) -> Workload:
    """Cheap stand-in workload; with ``wrong`` it adds one operation whose
    gate rejects a correct answer and one that raises."""

    def build(cc, rng):
        ops = [
            Op("golden.mindet_box1", lambda: cc.golden.min_abs_det_sq(1), lambda r: r[0] == Fraction(1, 5)),
            Op("verify.claim.counts", lambda: cc.verify.run_claim("counts"), lambda r: r.passed),
        ]
        if wrong:
            ops.append(Op("wrong", lambda: cc.golden.min_abs_det_sq(1), lambda r: r[0] == Fraction(2, 5)))
            ops.append(Op("raises", lambda: cc.golden.scan_det_floors("3"), lambda r: True))
        return ops

    return Workload("tiny", False, build)


def _declared(kind: str) -> dict[str, str]:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def check_metric_names() -> list[str]:
    errors = []
    spans = run.Spans("selftest")
    untraced, _, _ = run.measure_untraced(_tiny(False), 0, 0, spans)
    traced, _, _ = run.measure_traced(_tiny(False), 0, spans)
    for kind, metrics in (("end_to_end", untraced), ("per_layer", traced)):
        emitted = {name: unit for name, (_, unit) in metrics.items()}
        if emitted != _declared(kind):
            errors.append(f"{kind}: emitted {emitted} != declared {_declared(kind)}")
    cc = run.import_package()
    expected = dict(EXPECTED_OP_NAMES, certify={f"verify.claim.{c}" for c in cc.verify.CLAIMS})
    for name, workload in WORKLOADS.items():
        got = {op.name for op in workload.build(cc, random.Random(0))}
        if got != expected[name]:
            errors.append(f"{name}: op timings {sorted(got)} != {sorted(expected[name])}")
    return errors


def check_wrong_result_counted() -> list[str]:
    _, passes, _ = run.measure_untraced(_tiny(True), 0, 0, run.Spans("selftest"))
    failed = [name for p in passes for name in p.failed_ops]
    attempted = sum(p.attempted for p in passes)
    if failed != ["wrong", "raises"] * len(passes) or attempted != 4 * len(passes):
        return [f"failed ops {failed} of {attempted} attempted"]
    return []


def check_claim_times_add_up() -> list[str]:
    spans = run.Spans("selftest")
    _, ops = run.setup(WORKLOADS["certify"], 0, spans)
    result = run.run_pass(ops, spans, "pass")
    overhead = result.wall - sum(result.op_seconds.values())
    errors = [f"certify failed {result.failed_ops}"] if result.failed_ops else []
    if not 0 <= overhead <= 0.01 * result.wall:
        errors.append(f"claim times miss wall_s={result.wall:.4f} by {overhead:.4f} s")
    return errors


def main() -> int:
    if not run.package_on_path():
        print(f"error: package source not found at {run.PACKAGE_DIR}", file=sys.stderr)
        return 2
    status = 0
    for check in (check_metric_names, check_wrong_result_counted, check_claim_times_add_up):
        errors = check()
        print(f"{'ok  ' if not errors else 'FAIL'} {check.__name__}")
        for error in errors:
            print(f"     {error}")
        status |= bool(errors)
    return status


if __name__ == "__main__":
    sys.exit(main())
