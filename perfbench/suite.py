#!/usr/bin/env python3
"""Run every workload, untraced and traced, and print one summary.

    python3 perfbench/suite.py [--seed N] [--seconds S]

For each workload defined in ``workloads.py`` (the ones in ``BENCHMARK.json``
plus ``noisy_panel``) this runs ``run.py`` with ``--trace 0`` and
``--trace 1``, prints the end-to-end metrics with their units and sample
counts, and names the traced run's largest stage.  Takes about six minutes on
a 2-CPU machine.  Exits non-zero if any invocation fails its correctness
checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import run as bench

sys.path.insert(0, str(bench.SRC))
from workloads import WORKLOADS  # noqa: E402

HERE = Path(__file__).resolve().parent
STAGES = (
    "corpus.load_s",
    "screening.screen_s",
    "screening.apply_s",
    "significance.classify_s",
    "ranges.decompose_s",
    "ranges.assign_s",
    "mapping.fit_s",
    "evaluate.grid_s",
    "cli.serialize_s",
)


def main() -> int:
    parser = argparse.ArgumentParser(description="Run every benchmark workload.")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int)
    args = parser.parse_args()
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    ok = True
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(args.seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=HERE.parent, capture_output=True, text=True,
            )
            lines = proc.stdout.splitlines()
            if trace == 0:
                print("\n".join(lines[:-1]))
            try:
                result = json.loads(lines[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"{workload} trace={trace}: no result (exit {proc.returncode})\n{proc.stderr}")
                ok = False
                continue
            ok = ok and proc.returncode == 0 and result["correct"]
            if trace == 1:
                stages = {s: result["metrics"][s]["value"] for s in STAGES if s in result["metrics"]}
                if stages:
                    top = max(stages, key=stages.get)
                    print(f"  largest traced stage: {top} {stages[top]:.3f} s"
                          f" (trace.overhead_s {result['metrics']['trace.overhead_s']['value']:.3f})")
                else:
                    print("  traced run failed:\n" + "\n".join(lines[:-1]))
    print("all workloads correct" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
