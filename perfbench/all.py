"""Run every workload once, each in a fresh interpreter, and print one row of
end-to-end metrics per workload.  From the repository root:

    python3 perfbench/all.py --seed 1 --seconds 20
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args()
    status = 0
    print(f"{'workload':14s} {'wall_ref_s':>10s} {'wall_s':>8s} {'setup_s':>9s} {'peak_rss_mb':>11s} failed_ratio")
    for name in WORKLOADS:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(command, cwd=HERE.parent, capture_output=True, text=True)
        lines = proc.stdout.splitlines()
        if not lines or not lines[-1].startswith("{"):
            print(f"{name:14s} no result (exit {proc.returncode})\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        result = json.loads(lines[-1])
        m = {k: v["value"] for k, v in result["metrics"].items()}
        record = json.loads((HERE / "out" / f"{name}-seed{args.seed}-trace0.json").read_text())
        wall = statistics.median(record["wall_s_samples"])  # raw, not rescaled
        print(f"{name:14s} {m['wall_ref_s']:10.4f} {wall:8.4f} {m['setup_s']:9.4f} {m['peak_rss_mb']:11.2f} "
              f"{result['failed']}/{result['attempted']} = {result['failed'] / result['attempted']:.4g}")
        status |= proc.returncode != 0
    return status


if __name__ == "__main__":
    sys.exit(main())
