#!/usr/bin/env python3
"""jndmap benchmark: simulated studies through the real ``jndmap run`` CLI.

Run from the repository root:

    python3 perfbench/run.py --workload default_study --seed 1 --seconds 35 --trace 0

One invocation writes the workload's study for the seed (see
``workloads.py``), then:

* times ``SETUP_REPEATS`` fresh interpreters running ``import jndmap.cli``
  (``setup_s``);
* with ``--trace 0``, runs ``jndmap run ... --truth`` in a child process, each
  time into a fresh out-dir, until ``--seconds`` have passed and at least
  ``MIN_REPEATS`` runs are done, and reports the end-to-end metrics as medians
  over the runs.  Each run's times are divided by the mean time of the
  ``reference_work`` calls made in this process just before and just after
  it;
* with ``--trace 1``, runs the CLI once in a child and once in this process
  with per-layer spans (``tracing.py``), and reports the per-layer metrics.

Every run passes through the correctness gate: each child exits 0, all nine
artifacts exist, every fitted curve has finite parameters, ``metrics.json``
and ``mf_params.json`` are byte-identical across the runs of one invocation
(and between the CLI and the traced run), and the best cell's MAE stays within
the workload's limit.  The report lists each metric with its unit and sample
count, the sha256 of the input tables and of the fingerprinted artifacts,
and the environment; the last line is the JSON result.  The exit status is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_REPEATS = 3
MIN_REPEATS = 2
BUDGET_S = 170.0  # an invocation must finish well inside 180 s
POLL_S = 0.002
REFERENCE_FITS = 200
REFERENCE_LOOP = 1_500_000

ARTIFACTS = (
    "screening.json",
    "pairs.csv",
    "ranges.json",
    "codist.csv",
    "mf_params.json",
    "curve_samples.csv",
    "predictions.csv",
    "metrics.json",
    "run_manifest.json",
)
FINGERPRINTED = ("metrics.json", "mf_params.json")


@dataclass(frozen=True)
class Child:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


def run_child(cmd: list[str], env: dict, log_path: Path, deadline: float) -> Child:
    """Run one child to completion; wall time, user+sys CPU and max RSS.

    The child is killed at ``deadline`` (a ``perf_counter`` value).
    """
    with open(log_path, "wb") as log:
        started = time.perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.STDOUT
        )
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() > deadline:
                    proc.kill()
                    _, status, usage = os.wait4(proc.pid, 0)
                    break
                time.sleep(POLL_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0)


def reference_work() -> None:
    """Fixed CPU work that does not depend on jndmap.

    About 1 s on the reference machine: small logistic least-squares fits
    and a dictionary-counting loop, the kinds of work the pipeline spends its
    time on.  CLI run times are reported as multiples of it, which cancels
    the drift of a shared machine's speed over minutes.
    """
    import numpy as np
    from scipy.optimize import least_squares

    x = np.linspace(0.0, 10.0, 40)
    y = 1.0 / (1.0 + np.exp(-1.3 * (x - 4.0)))
    for i in range(REFERENCE_FITS):
        least_squares(
            lambda p: p[0] / (1.0 + np.exp(-p[1] * (x - p[2]))) - y,
            [0.5 + 0.01 * (i % 5), 0.5, 6.0],
            xtol=1e-12, ftol=1e-12, gtol=1e-12,
        )
    counts: dict[int, float] = {}
    for i in range(REFERENCE_LOOP):
        counts[i % 1009] = counts.get(i % 1009, 0.0) + 0.5 * i


def time_reference() -> tuple[float, float]:
    """(wall, CPU) seconds of one ``reference_work`` call in this process."""
    wall, cpu = time.perf_counter(), time.process_time()
    reference_work()
    return time.perf_counter() - wall, time.process_time() - cpu


def relative(values: list[float], references: list[float]) -> float:
    """Median over runs of each run's time over the mean of the reference
    timings taken just before and just after it."""
    return statistics.median(v / (0.5 * (a + b)) for v, a, b in zip(values, references, references[1:]))


def child_env() -> dict:
    """This process's environment, with ``src`` importable."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def check_artifacts(out: Path) -> list[str]:
    """Problems with one run's out-dir: missing artifacts, non-finite params."""
    problems = [f"missing {name}" for name in ARTIFACTS if not (out / name).is_file()]
    if (out / "mf_params.json").is_file():
        models = json.loads((out / "mf_params.json").read_text(encoding="utf-8"))
        for range_id, families in sorted(models.items()):
            for family, entry in sorted(families.items()):
                if not all(math.isfinite(p) for p in entry["params"]):
                    problems.append(f"non-finite params in {range_id}/{family}")
    return problems


def sha256s(paths) -> dict[str, str]:
    return {path.name: hashlib.sha256(path.read_bytes()).hexdigest() for path in paths}


def fingerprints(out: Path) -> dict[str, str]:
    return sha256s(out / name for name in FINGERPRINTED)


def outcome_metrics(out: Path) -> dict[str, float]:
    """Output quality and failure shares, read from one run's artifacts."""

    def load(name: str) -> dict:
        return json.loads((out / name).read_text(encoding="utf-8"))

    models = load("mf_params.json")
    cells = [c for fams in load("metrics.json").values() for thr in fams.values() for c in thr.values()]
    fitted_ranges = sum(1 for refs in load("ranges.json")["assignments"].values() if refs)
    fits_attempted = fitted_ranges * len(load("run_manifest.json")["config"]["families"])
    usable = sum(e["fit_report"]["monotone"] for fams in models.values() for e in fams.values())
    scored = sum(c["n"] for c in cells)
    return {
        "jnd_mae": min(c["mae"] for c in cells if c["mae"] is not None),
        "fit_usable_ratio": usable / fits_attempted,
        "pred_scored_ratio": scored / (scored + sum(c["skipped"] for c in cells)),
    }


def environment() -> dict:
    import numpy
    import scipy

    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "src_jndmap_lines": sum(
            len(p.read_text(encoding="utf-8").splitlines()) for p in (SRC / "jndmap").glob("*.py")
        ),
    }


def run_benchmark(workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """One invocation's measurements and checks.

    Returns ``attempted``, ``failed``, ``problems``, ``metrics`` (name ->
    (value, sample count)), the timing ``samples``, and the sha256 of the
    ``inputs`` and of the artifacts (``fingerprints``).
    """
    from workloads import cli_flags, write_study

    deadline = time.perf_counter() + BUDGET_S
    study = write_study(workload, seed, work / "study")
    env = child_env()
    problems: list[str] = []
    attempted = failed = 0

    def child(label: str, cmd: list[str]) -> Child:
        nonlocal attempted, failed
        result = run_child([sys.executable, *cmd], env, work / f"{label}.log", deadline)
        attempted += 1
        if result.code != 0:
            failed += 1
            problems.append(f"{label}: exit status {result.code}")
        return result

    setup = [
        child(f"setup-{i}", ["-c", "import jndmap.cli"]).wall_s for i in range(SETUP_REPEATS)
    ]
    setup_s = statistics.median(setup)

    runs: list[Child] = []
    references = [] if trace else [time_reference()]
    first_prints: dict[str, str] | None = None
    first_out = work / "run-0"
    started = time.perf_counter()

    def more_runs() -> bool:
        if len(runs) < (1 if trace else MIN_REPEATS):
            return True
        now = time.perf_counter()
        return not trace and now - started < seconds and now + runs[-1].wall_s < deadline

    def run_args(out: Path) -> list[str]:
        return [
            "run", str(study["vmaf_scores"]), str(study["dcr_ratings"]),
            "--truth", str(study["jnd_truth"]), "--out-dir", str(out),
            *cli_flags(workload.options),
        ]

    while more_runs():
        label = f"run-{len(runs)}"
        out = work / label
        run = child(label, ["-m", "jndmap.cli", *run_args(out)])
        runs.append(run)
        if not trace:
            references.append(time_reference())
        if run.code != 0:
            continue
        run_problems = check_artifacts(out)
        if not run_problems:
            prints = fingerprints(out)
            first_prints = first_prints or prints
            if prints != first_prints:
                run_problems.append("metrics.json/mf_params.json differ from the first run")
        if run_problems:
            failed += 1
            problems += [f"{label}: {p}" for p in run_problems]

    metrics: dict[str, tuple[float, int]] = {}
    if not problems:
        outcome = outcome_metrics(first_out)
        limit = workload.mae_limit
        if limit is not None and outcome["jnd_mae"] > limit:
            problems.append(f"jnd_mae {outcome['jnd_mae']:.4f} exceeds {limit}")
        if trace:
            from tracing import traced_run

            traced_out = work / "traced"
            code, total, layers = traced_run(run_args(traced_out), traced_out, work / "traced.log")
            if code != 0:
                problems.append(f"traced run: exit status {code}")
            problems += [f"traced run: {p}" for p in check_artifacts(traced_out)]
            if not problems and fingerprints(traced_out) != first_prints:
                problems.append("traced run: metrics.json/mf_params.json differ from the CLI run")
            layers["trace.overhead_s"] = total - (runs[0].wall_s - setup_s)
            metrics = {name: (value, 1) for name, value in layers.items()}
        else:
            n = len(runs)
            metrics = {
                "run_rel": (relative([r.wall_s for r in runs], [w for w, _ in references]), n),
                "run_cpu_rel": (relative([r.cpu_s for r in runs], [c for _, c in references]), n),
                "setup_s": (setup_s, len(setup)),
                "peak_rss_mb": (statistics.median(r.rss_mb for r in runs), n),
                **{name: (value, n) for name, value in outcome.items()},
            }
    return {
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "samples": {
            "run_s": [r.wall_s for r in runs],
            "run_cpu_s": [r.cpu_s for r in runs],
            "reference_s": [w for w, _ in references],
            "reference_cpu_s": [c for _, c in references],
            "setup_s": setup,
        },
        "inputs": sha256s(study.values()),
        "fingerprints": first_prints or {},
    }


def declared_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit so running children are killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    # The CLI honours JNDMAP_SEED, in the children and in the traced run.
    os.environ.pop("JNDMAP_SEED", None)
    if not (SRC / "jndmap" / "cli.py").is_file():
        print(f"perfbench: no jndmap sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    units = declared_units(bool(args.trace))

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-s{args.seed}-", dir=WORK))
    try:
        result = run_benchmark(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), work
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other invocation is using it

    metrics = result["metrics"]
    if metrics and set(metrics) != set(units):
        result["problems"].append(
            f"emitted metrics differ from BENCHMARK.json: {sorted(set(metrics) ^ set(units))}"
        )
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for name in sorted(metrics):
        value, n = metrics[name]
        print(f"  {name:<28} {value:>14.6g} {units.get(name, '?'):<8} n={n}")
    for name, values in result["samples"].items():
        print(f"  samples {name:<19} " + " ".join(f"{v:.4f}" for v in values))
    for kind in ("inputs", "fingerprints"):
        for name, digest in sorted(result[kind].items()):
            print(f"  sha256 {name:<20} {digest}")
    print("  env " + " ".join(f"{k}={v}" for k, v in environment().items()))
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    correct = not result["problems"]
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": value, "unit": units.get(name, "?")}
            for name, (value, _) in sorted(metrics.items())
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
