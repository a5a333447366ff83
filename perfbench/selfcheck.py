#!/usr/bin/env python3
"""Quick self-check of the benchmark on a tiny study (seconds, not minutes).

    python3 perfbench/selfcheck.py

Checks that an untraced and a traced invocation pass the correctness gate
and emit exactly the metrics declared in ``BENCHMARK.json``, that the gate
rejects a broken out-dir and an MAE over the limit, and that the benchmark
exits non-zero without printing a result when the jndmap sources are absent.
Exits non-zero when any check fails.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run as bench

sys.path.insert(0, str(bench.SRC))
from workloads import Workload  # noqa: E402

TINY = Workload(sim={"n_contents": 10, "observer_count": 12}, options={"jobs": 2}, mae_limit=10.0)


def main() -> int:
    failures: list[str] = []

    def expect(ok: bool, what: str) -> None:
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    bench.WORK.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="selfcheck-", dir=bench.WORK) as tmp:
        tmp = Path(tmp)
        for trace in (False, True):
            work = tmp / f"trace{int(trace)}"
            work.mkdir()
            result = bench.run_benchmark(TINY, seed=7, seconds=0, trace=trace, work=work)
            expect(not result["problems"], f"trace={int(trace)} passes the gate {result['problems']}")
            expect(
                set(result["metrics"]) == set(bench.declared_units(trace)),
                f"trace={int(trace)} emits every declared metric",
            )
            expect(result["attempted"] == bench.SETUP_REPEATS + (1 if trace else 2),
                   f"trace={int(trace)} counts every child as attempted")

        broken = tmp / "broken"
        shutil.copytree(tmp / "trace0" / "run-0", broken)
        (broken / "curve_samples.csv").unlink()
        params = json.loads((broken / "mf_params.json").read_text(encoding="utf-8"))
        range_id = sorted(params)[0]
        params[range_id]["glm"]["params"][0] = float("nan")
        (broken / "mf_params.json").write_text(json.dumps(params), encoding="utf-8")
        problems = bench.check_artifacts(broken)
        expect(any("missing curve_samples.csv" in p for p in problems), "gate finds a missing artifact")
        expect(any("non-finite" in p for p in problems), "gate finds a non-finite parameter")

        strict = dataclasses.replace(TINY, mae_limit=0.0)
        work = tmp / "strict"
        work.mkdir()
        result = bench.run_benchmark(strict, seed=7, seconds=0, trace=False, work=work)
        expect(any("jnd_mae" in p for p in result["problems"]), "gate enforces the MAE limit")

        bare = tmp / "bare"
        shutil.copytree(bench.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(bench.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "default_study",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
        expect(proc.returncode != 0 and "{" not in proc.stdout,
               "without sources: non-zero exit and no result")

    with contextlib.suppress(OSError):
        bench.WORK.rmdir()  # only when no other invocation is using it
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
