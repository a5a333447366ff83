"""Where ``jndmap run``'s time goes as a study grows, and its peak memory.

Usage: ``python tools/io_scaling.py`` (no options).  It runs the package from
``src`` next to this script's directory, so a checkout of any commit measures
that commit.  Linux only: it reads the children's peak RSS from ``wait4``.

For each of 30, 300, 1 200 and 2 400 contents (``SimSpec()`` otherwise, seed
501), one child writes the study with ``jndmap simulate``, and a fresh child
runs ``jndmap run --truth`` on it in-process, as the process entry does
(``OPENBLAS_NUM_THREADS=1``, the collector off), with each stage's function
timed where ``cmd_run`` calls it.  Per size it prints the ratings and pairs,
the seconds of each stage (decompose includes the pair assignment), the
serialize seconds (the rest of ``cmd_run``: building and writing the
artifacts, hashing the inputs and printing the tables), the child's wall
seconds from spawn to exit, and its peak RSS.

A child's ``ru_maxrss`` counts the RSS it took over from this process at the
fork.  This process imports neither numpy nor the package, so it stays far
below a child's own peak, and the figure is the child's own.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
CONTENTS = (30, 300, 1200, 2400)
SEED = 501
STAGES = ("load", "screen", "classify", "decompose", "fit", "evaluate", "serialize")

PROBE = r'''
import gc, json, sys, time
gc.disable()
from jndmap import cli, corpus, evaluate, mapping, ranges, screening, significance

seconds, counts = {}, {}


def timed(module, name, stage, count=None):
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        result = original(*args, **kwargs)
        seconds[stage] = seconds.get(stage, 0.0) + time.perf_counter() - started
        if count:
            counts[count] = len(result.ratings if count == "ratings" else result)
        return result

    setattr(module, name, wrapper)


for module, name, stage, count in [
    (corpus, "load_corpus", "load", "ratings"),
    (screening, "screen", "screen", None),
    (screening, "apply_screening", "screen", None),
    (significance, "classify_pairs", "classify", "pairs"),
    (ranges, "decompose_balanced", "decompose", None),
    (ranges, "assign_pairs", "decompose", None),
    (mapping, "fit_all", "fit", None),
    (evaluate, "evaluate_grid", "evaluate", None),
    (cli, "cmd_run", "run", None),
]:
    timed(module, name, stage, count)
assert cli.main(sys.argv[1:]) == 0
seconds["serialize"] = seconds.pop("run") - sum(seconds.values())
print(json.dumps({"seconds": seconds, "counts": counts}), file=sys.stderr)
'''


def child(argv: list[str], env: dict) -> tuple[str, float, float]:
    """Run a child to its end: its stderr, wall seconds and peak RSS in MB."""
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, *argv], env=env, stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, text=True)
    stderr = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.monotonic() - spawned
    if os.waitstatus_to_exitcode(status) != 0:
        raise RuntimeError(f"child {argv[:3]} failed:\n{stderr}")
    return stderr, wall, usage.ru_maxrss / 1024


def main() -> int:
    env = {**{k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
           "PYTHONPATH": str(SRC), "OPENBLAS_NUM_THREADS": "1"}
    header = (f"{'contents':>8} {'ratings':>8} {'pairs':>7} "
              + " ".join(f"{stage:>9}" for stage in STAGES) + f" {'wall':>6} {'peak MB':>8}")
    print(f"jndmap run --truth by study size (SimSpec defaults, seed {SEED}), one child each; "
          f"seconds; {len(os.sched_getaffinity(0))} CPUs, Python {sys.version.split()[0]}")
    print(header)
    with tempfile.TemporaryDirectory(prefix="io_scaling-") as tmp:
        for n in CONTENTS:
            study, out = Path(tmp) / f"study{n}", Path(tmp) / f"out{n}"
            spec = Path(tmp) / f"spec{n}.json"
            spec.write_text(json.dumps({"n_contents": n}), encoding="utf-8")
            child(["-m", "jndmap.cli", "simulate", "--spec", str(spec), "--seed", str(SEED),
                   "--out-dir", str(study)], env)
            stderr, wall, rss = child(
                ["-c", PROBE, "run", str(study / "vmaf_scores.csv"),
                 str(study / "dcr_ratings.csv"), "--truth", str(study / "jnd_truth.csv"),
                 "--out-dir", str(out)], env)
            report = json.loads(stderr.strip().splitlines()[-1])
            seconds, counts = report["seconds"], report["counts"]
            print(f"{n:>8} {counts['ratings']:>8} {counts['pairs']:>7} "
                  + " ".join(f"{seconds.get(stage, 0.0):>9.3f}" for stage in STAGES)
                  + f" {wall:>6.2f} {rss:>8.1f}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
