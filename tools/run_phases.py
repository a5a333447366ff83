"""Where one ``jndmap run`` process spends its time, phase by phase.

Usage: ``python tools/run_phases.py`` (no options).  It runs the package from
``src`` next to this script's directory, so a checkout of any commit since the
process entry moved to ``jndmap.entry`` measures that commit.  Linux only: it
counts threads in ``/proc``.

It writes the default simulated study (``SimSpec()``, seed 501) with
``jndmap simulate``, then runs ``jndmap run --truth`` on it in fresh child
processes, ``CHILDREN`` per setting, with the settings taking turns.  Each
child runs ``jndmap.cli`` as ``__main__`` through ``runpy``, as ``python -m``
does, under a probe that marks these phases:

* interpreter start -- from the spawn to the probe's first line;
* numpy import -- the execution of the ``numpy`` package, the imports it
  makes included;
* package import -- the rest of the time up to the end of the ``jndmap.cli``
  import: the probe, ``runpy``, the package ``__init__`` and the entry;
* pipeline -- from there until ``main`` has returned and the process entry
  has frozen the heap;
* exit -- from there until the parent's ``wait4`` sees the child end.

A mark is the child's ``time.monotonic()`` (one clock for every process) and
``time.process_time()`` (every thread of the child); the exit's CPU time is the
child's ``getrusage`` total less the CPU time at its last mark.  For each
setting the tool prints the median wall and CPU seconds of each phase and of
the whole child, the children's thread counts at exit, read from
``/proc/<pid>/task``, and the modules that the children first import during
the pipeline phase, with their count, so that a lazy import (a module a
library loads on the first call of some function) shows up.  The settings:

* ``default`` -- ``OPENBLAS_NUM_THREADS`` unset, so the entry sets it to 1,
  and every module of the package compiled from source
  (``PYTHONDONTWRITEBYTECODE=1`` on a fresh copy of ``src``);
* ``blas-worker`` -- as ``default``, with ``OPENBLAS_NUM_THREADS`` set to the
  CPUs this process may use, the number of threads OpenBLAS starts when the
  variable is unset;
* ``cached-bytecode`` -- as ``default``, on a copy of ``src`` whose bytecode
  one earlier run has written, so no module of the package is compiled.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import textwrap
import time
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
CHILDREN = 5
SEED = 501
PHASES = ("interpreter start", "numpy import", "package import", "pipeline", "exit")

PROBE = r'''
import time
first = (time.monotonic(), time.process_time())
import atexit, json, os, runpy, sys

marks = {"start": first}
modules = {}


def mark(name):
    marks[name] = (time.monotonic(), time.process_time())
    modules[name] = list(sys.modules)


class Timer:
    """Marks the start and end of the numpy and jndmap.cli module code."""

    def find_spec(self, name, path=None, target=None):
        if name not in ("numpy", "jndmap.cli"):
            return None
        for finder in sys.meta_path:
            if finder is not self and hasattr(finder, "find_spec"):
                spec = finder.find_spec(name, path, target)
                if spec is not None:
                    break
        else:
            return None
        run = spec.loader.exec_module

        def exec_module(module):
            mark(name + ">")
            run(module)
            mark(name + "<")

        spec.loader.exec_module = exec_module
        return spec


sys.meta_path.insert(0, Timer())
atexit.register(lambda: print(json.dumps(
    {"marks": marks, "threads": len(os.listdir(f"/proc/{os.getpid()}/task")),
     "imported": sorted(set(modules["main<"]) - set(modules["jndmap.cli<"]))}), file=sys.stderr))
sys.argv[0] = "jndmap"
try:
    runpy.run_module("jndmap.cli", run_name="__main__", alter_sys=True)
except SystemExit:
    mark("main<")
    raise
'''


def child(argv: list[str], env: dict) -> tuple[dict[str, tuple[float, float]], int, list[str]]:
    """One probed ``jndmap`` child: per phase (wall, CPU) seconds, its
    thread count at exit, and the modules first imported in the pipeline."""
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-c", PROBE, *argv], env=env,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    stderr = proc.stderr.read()
    _, status, usage = os.wait4(proc.pid, 0)
    ended = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}:\n{stderr}")
    report = json.loads(stderr.strip().splitlines()[-1])
    m = report["marks"]
    numpy = (m["numpy<"][0] - m["numpy>"][0], m["numpy<"][1] - m["numpy>"][1])
    imports = (m["jndmap.cli<"][0] - m["start"][0], m["jndmap.cli<"][1] - m["start"][1])
    cpu = usage.ru_utime + usage.ru_stime
    phases = {
        "interpreter start": (m["start"][0] - spawned, m["start"][1]),
        "numpy import": numpy,
        "package import": (imports[0] - numpy[0], imports[1] - numpy[1]),
        "pipeline": (m["main<"][0] - m["jndmap.cli<"][0], m["main<"][1] - m["jndmap.cli<"][1]),
        "exit": (ended - m["main<"][0], cpu - m["main<"][1]),
        "total": (ended - spawned, cpu),
    }
    return phases, report["threads"], report["imported"]


def fresh_src(root: Path, name: str) -> Path:
    """A copy of the package's source files, without any bytecode."""
    dest = root / name
    shutil.copytree(SRC / "jndmap", dest / "jndmap", ignore=shutil.ignore_patterns("__pycache__"))
    return dest


def main() -> int:
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "PYTHONPYCACHEPREFIX")}
    cpus = len(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory(prefix="run_phases-") as tmp:
        root = Path(tmp)
        source = {**base, "PYTHONPATH": str(fresh_src(root, "source")),
                  "PYTHONDONTWRITEBYTECODE": "1"}
        cached = {**source, "PYTHONPATH": str(fresh_src(root, "cached"))}
        del cached["PYTHONDONTWRITEBYTECODE"]
        settings = {
            "default": source,
            "blas-worker": {**source, "OPENBLAS_NUM_THREADS": str(cpus)},
            "cached-bytecode": cached,
        }
        study = root / "study"
        subprocess.run([sys.executable, "-m", "jndmap.cli", "simulate", "--seed", str(SEED),
                        "--out-dir", str(study)], env=source, check=True,
                       stdout=subprocess.DEVNULL)

        def run(env: dict, i: int):
            return child(["run", str(study / "vmaf_scores.csv"), str(study / "dcr_ratings.csv"),
                          "--truth", str(study / "jnd_truth.csv"),
                          "--out-dir", str(root / f"out{i}")], env)

        run(cached, 0)  # writes the cached copy's bytecode
        results: dict[str, list] = {name: [] for name in settings}
        for i in range(CHILDREN):
            for name, env in settings.items():
                results[name].append(run(env, i))

    print(f"jndmap run on the default simulated study (seed {SEED}), "
          f"median of {CHILDREN} children per setting; {cpus} CPUs, Python "
          f"{sys.version.split()[0]}")
    for name, runs in results.items():
        print(f"\n{name}:")
        print(f"  {'phase':<18} {'wall s':>8} {'CPU s':>8}")
        for phase in (*PHASES, "total"):
            wall = statistics.median(phases[phase][0] for phases, _, _ in runs)
            cpu = statistics.median(phases[phase][1] for phases, _, _ in runs)
            print(f"  {phase:<18} {wall:>8.3f} {cpu:>8.3f}")
        print(f"  threads at exit: {sorted(threads for _, threads, _ in runs)}")
        imported = sorted(set().union(*(names for _, _, names in runs)))
        print(f"  modules first imported in the pipeline: {len(imported)}")
        print(textwrap.fill(", ".join(imported), width=88, initial_indent="    ",
                            subsequent_indent="    ") if imported else "    (none)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
