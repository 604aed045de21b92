"""Benchmark of the cosetcodes package, timed from outside through its public API.

Run from the repository root:

    python3 perfbench/run.py --workload golden_min --seed 1 --seconds 20 --trace 0

Workloads are defined in ``workloads.py``; ``all.py`` runs each of them in
turn and tabulates the end-to-end metrics, and ``selftest.py`` checks this
harness.  Every run is one single-process interpreter with ``jobs=1`` (the
package default); it starts no threads, pools or child processes.

``--trace 0`` reports the end-to-end metrics:

* ``wall_ref_s``: median over passes of one pass's wall time rescaled to
  the reference speed of ``reference.py``: the reference loop is timed
  before every operation, after the last one and every
  ``reference.PERIOD`` seconds during them, and each stretch of an
  operation's wall time between two readings is multiplied by
  ``REF_SECONDS`` over the mean of their loop times.  The host's speed
  drifts by a quarter or more within seconds; the rescaled time much less.
  The raw median ``wall_s`` is printed and saved beside it.  Passes repeat
  while another one still fits in ``--seconds``; a pass is never cut, so a
  run makes at least one even if it takes longer.
* ``setup_s``: median over ``2 * SETUP_REPEATS`` fresh imports of
  ``cosetcodes`` and ``cosetcodes.cli`` plus building the workload's inputs,
  each rescaled like ``wall_ref_s``; the raw median is printed and saved
  beside it.
* ``peak_rss_mb``: peak resident memory of the process.

``--trace 1`` reports the per-layer metrics.  It makes one untraced pass
(benchmark-side op timings), measures the kernel rates of ``kernels.py``,
then re-imports the package and repeats set-up and one pass under cProfile.
Profile self time and calls are summed per package module file; since the
re-import is profiled too, import-time work (the ring tables) is included.
``trace.overhead_s`` is the traced pass's wall time minus the untraced one;
no end-to-end number comes from the traced pass.

Every operation's output goes through the gate of its workload;
``failed_ratio`` is failed operations over attempted ones.  The last line
of standard output is the JSON result; the lines before it are a readable
summary.  The run's metrics, samples, environment, spans and per-module
profile are written to ``perfbench/out/<workload>-seed<n>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import importlib
import json
import os
import platform
import pstats
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import kernels
import reference
from workloads import WORKLOADS, Op, Workload

ROOT = Path(__file__).resolve().parent.parent
PACKAGE_DIR = ROOT / "src" / "cosetcodes"
OUT_DIR = Path(__file__).resolve().parent / "out"

SETUP_REPEATS = 10  # before the passes, and again after them
MODULES = ("rings", "matrices", "cyclic", "golden", "outer_codes", "bounds", "verify")

# Exact call counts read from the profile: metric -> (module, function path).
COUNTED_FUNCTIONS = {
    "rings.mul_calls": ("rings", "RingElement.__mul__"),
    "rings.add_calls": ("rings", "RingElement.__add__"),
    "rings.coerce_calls": ("rings", "RingElement._coerce"),
    "matrices.mul_calls": ("matrices", "RingMatrix.__mul__"),
    "matrices.det_calls": ("matrices", "RingMatrix.det"),
    "golden.det_evals": ("golden", "det_sq_times5"),
    "outer_codes.encodes": ("outer_codes", "LinearCode.encode"),
}


class Spans:
    """Spans (op name, start, end, parent, run id) kept in memory; times are
    seconds from the start of the run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.origin = time.perf_counter()
        self.records: list[dict[str, Any]] = []

    def add(self, op: str, start: float, end: float, parent: int | None = None) -> int:
        span_id = len(self.records)
        self.records.append(
            {
                "id": span_id,
                "run_id": self.run_id,
                "op": op,
                "start": start - self.origin,
                "end": end - self.origin,
                "parent": parent,
            }
        )
        return span_id


@dataclass
class PassResult:
    wall: float  # raw, without the gauge's readings
    wall_ref: float  # rescaled to the reference speed
    ref_times: list[float]  # loop seconds of the gauge's readings
    op_seconds: dict[str, float]
    attempted: int
    failed_ops: list[str] = field(default_factory=list)


def package_on_path() -> bool:
    """Put the checkout's ``src`` first on the path; False if it is missing."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        return False
    sys.path.insert(0, str(PACKAGE_DIR.parent))
    return True


def import_package() -> Any:
    """A fresh import of ``cosetcodes`` (and its CLI) from the checkout."""
    for name in [m for m in sys.modules if m == "cosetcodes" or m.startswith("cosetcodes.")]:
        del sys.modules[name]
    cc = importlib.import_module("cosetcodes")
    importlib.import_module("cosetcodes.cli")
    if Path(cc.__file__).resolve().parent != PACKAGE_DIR:
        raise ImportError(f"cosetcodes imported from {cc.__file__}, not the checkout")
    return cc


def setup(workload: Workload, seed: int, spans: Spans) -> tuple[Any, list[Op]]:
    start = time.perf_counter()
    cc = import_package()
    ops = workload.build(cc, random.Random(seed))
    spans.add("setup", start, time.perf_counter())
    return cc, ops


def _passed(op: Op, value: Any) -> bool:
    try:
        return bool(op.check(value))
    except Exception:  # a malformed result fails its gate
        traceback.print_exc()
        return False


def run_pass(ops: list[Op], spans: Spans, label: str) -> PassResult:
    """Time one pass over ``ops`` under a gauge of the reference loop, read
    before each operation, after the last and periodically during them;
    gates are evaluated after the clock stops."""
    gc.collect()
    timed = []
    start = time.perf_counter()
    with reference.Gauge() as gauge:
        for op in ops:
            gauge.read()
            t0 = time.perf_counter()
            try:
                value, ok = op.call(), True
            except Exception:  # an operation that raises counts as failed
                traceback.print_exc()
                value, ok = None, False
            timed.append((op, t0, time.perf_counter(), value, ok))
        gauge.read()
    end = time.perf_counter()
    parent = spans.add(label, start, end)
    ref_times = [loop_s for _, _, loop_s in gauge.readings]
    result = PassResult(end - start - gauge.busy_seconds(), 0.0, ref_times, {}, len(ops))
    for op, t0, t1, value, ok in timed:
        spans.add(op.name, t0, t1, parent)
        raw, rescaled = gauge.measure(t0, t1)
        result.op_seconds[f"{op.name}_s"] = raw
        result.wall_ref += rescaled
        if not (ok and _passed(op, value)):
            result.failed_ops.append(op.name)
            print(f"FAILED {op.name}: {value!r:.300}", file=sys.stderr)
    return result


def _timed_setups(workload: Workload, seed: int, spans: Spans, samples: dict[str, list[float]]) -> list[Op]:
    """Repeated set-ups, each timed raw and rescaled by the reference loop
    read before and after it."""
    gauge = reference.Gauge()
    gauge.read()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        _, ops = setup(workload, seed, spans)
        t1 = time.perf_counter()
        gauge.read()
        raw, rescaled = gauge.measure(t0, t1)
        samples["setup_s"].append(rescaled)
        samples["setup_s_raw"].append(raw)
    return ops


def measure_untraced(workload: Workload, seed: int, seconds: float, spans: Spans) -> tuple[dict, list[PassResult], dict]:
    # Half the set-up samples come after the passes: the host's speed drifts
    # over seconds, and spreading the samples steadies their median.
    setup_samples: dict[str, list[float]] = {"setup_s": [], "setup_s_raw": []}
    ops = _timed_setups(workload, seed, spans, setup_samples)
    passes: list[PassResult] = []
    start = time.perf_counter()
    while True:
        passes.append(run_pass(ops, spans, "pass"))
        wall = statistics.median(p.wall for p in passes)
        if time.perf_counter() - start + wall > seconds:
            break
    _timed_setups(workload, seed, spans, setup_samples)
    metrics = {
        "wall_ref_s": (statistics.median(p.wall_ref for p in passes), "s"),
        "setup_s": (statistics.median(setup_samples["setup_s"]), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, passes, setup_samples


def _function_key(module: Any, path: str) -> tuple[str, int, str] | None:
    obj = module
    for part in path.split("."):
        obj = getattr(obj, part, None)
    code = getattr(obj, "__code__", None)
    return None if code is None else (code.co_filename, code.co_firstlineno, code.co_name)


def profile_aggregates(profiler: cProfile.Profile, cc: Any) -> tuple[dict, dict, list]:
    """Per-module self time and calls, the counted functions, and the
    package's top functions by self time."""
    stats = pstats.Stats(profiler).stats
    modules = {m: {"self_s": 0.0, "calls": 0} for m in MODULES}
    top = []
    for (filename, line, func), (_, calls, self_s, cum_s, _) in stats.items():
        path = Path(filename)
        if path.parent != PACKAGE_DIR:
            continue
        if path.stem in modules:
            modules[path.stem]["self_s"] += self_s
            modules[path.stem]["calls"] += calls
        top.append({"function": f"{path.stem}:{line}({func})", "calls": calls, "self_s": self_s, "cum_s": cum_s})
    top.sort(key=lambda row: -row["self_s"])
    counts = {}
    for metric, (module, path) in COUNTED_FUNCTIONS.items():
        key = _function_key(getattr(cc, module), path)
        counts[metric] = stats[key][1] if key in stats else 0
    return modules, counts, top[:30]


def measure_traced(workload: Workload, seed: int, spans: Spans) -> tuple[dict, list[PassResult], dict]:
    cc, ops = setup(workload, seed, spans)
    untraced = run_pass(ops, spans, "pass")
    rates = kernels.measure(cc)
    del cc, ops
    # Builtins are charged to their callers, so module self times stay whole.
    profiler = cProfile.Profile(builtins=False, subcalls=False)
    profiler.enable()
    try:
        cc, ops = setup(workload, seed, spans)
        traced = run_pass(ops, spans, "traced_pass")
    finally:
        profiler.disable()
    modules, counts, top = profile_aggregates(profiler, cc)
    metrics: dict[str, tuple[float, str]] = {}
    for module, agg in modules.items():
        metrics[f"{module}.self_s"] = (agg["self_s"], "s")
        metrics[f"{module}.calls"] = (agg["calls"], "count")
    metrics.update({name: (value, "count") for name, value in counts.items()})
    metrics.update({name: (value, "1/s") for name, value in rates.items()})
    metrics["trace.overhead_s"] = (traced.wall - untraced.wall, "s")
    profile = {"modules": modules, "top_functions": top}
    return metrics, [untraced, traced], profile


def environment() -> dict[str, Any]:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "loadavg": list(os.getloadavg()),
    }


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def _line(name: str, values: list[float], unit: str) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{name:44s} median={q2:.6g} q1={q1:.6g} q3={q3:.6g} n={len(values)} {unit}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not package_on_path():
        print(f"error: package source not found at {PACKAGE_DIR}", file=sys.stderr)
        return 2

    env = environment()
    workload = WORKLOADS[args.workload]
    run_id = f"{workload.name}-seed{args.seed}-trace{args.trace}-{os.getpid()}-{time.time_ns()}"
    spans = Spans(run_id)
    profile = None
    setup_samples: dict[str, list[float]] = {}
    if args.trace:
        metrics, passes, profile = measure_traced(workload, args.seed, spans)
    else:
        metrics, passes, setup_samples = measure_untraced(workload, args.seed, args.seconds, spans)

    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed_ops) for p in passes)
    seed_note = "" if workload.uses_seed else " (ignored: fixed exhaustive space)"
    print(f"workload={workload.name} seed={args.seed}{seed_note} trace={args.trace} run_id={run_id}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    samples = {} if args.trace else {"wall_ref_s": [p.wall_ref for p in passes], **setup_samples}
    for name, (value, unit) in metrics.items():
        print(_line(name, samples[name], unit) if name in samples else f"{name:44s} {value:.6g} {unit}")
    if not args.trace:
        print(_line("wall_s (raw)", [p.wall for p in passes], "s"))
        print(_line("setup_s (raw)", setup_samples["setup_s_raw"], "s"))
    print(f"{'failed_ratio':44s} {failed}/{attempted} = {failed / attempted:.6g}")
    op_names = list(passes[0].op_seconds)
    untraced_passes = passes[:1] if args.trace else passes
    for name in op_names:
        print(_line(name, [p.op_seconds[name] for p in untraced_passes], "s"))

    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    record = {
        "run_id": run_id,
        "workload": workload.name,
        "seed": args.seed,
        "seed_used": workload.uses_seed,
        "trace": args.trace,
        "env": env,
        "metrics": reported,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "failed_ops": [name for p in passes for name in p.failed_ops],
        "wall_s_samples": [p.wall for p in untraced_passes],
        "wall_ref_s_samples": [p.wall_ref for p in untraced_passes],
        "reference_loop_s": [p.ref_times for p in untraced_passes],
        "setup_s_samples": setup_samples.get("setup_s", []),
        "setup_s_raw_samples": setup_samples.get("setup_s_raw", []),
        "op_seconds": {name: [p.op_seconds[name] for p in untraced_passes] for name in op_names},
        "profile": profile,
        "spans": spans.records,
    }
    out_file.write_text(json.dumps(record, indent=1) + "\n")
    print(f"results: {out_file.relative_to(ROOT)}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
