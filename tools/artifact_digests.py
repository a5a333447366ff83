"""The sha256 of the artifacts of two ``jndmap run`` studies that read no libm
or SIMD result, so that their bytes are the same on any machine.

Usage: ``python tools/artifact_digests.py`` (no options).  It imports the
package from ``src`` next to this script's directory, so a checkout of any
commit prints that commit's digests.

It runs ``jndmap simulate`` and ``jndmap run --truth`` in-process on two
studies:

* ``default_study`` -- ``SimSpec()`` at its own seed, with every setting at
  its default;
* ``small_study`` -- ``SMALL_SPEC`` of ``tests/conftest.py``, with ``--k 2``.

For each it prints the sha256 of ``screening.json``, ``ranges.json``,
``codist.csv`` and ``pairs.csv`` with its ``p_value`` column dropped, as
canonical JSON.  The other artifacts hold p-values, fitted parameters or
curve values, whose last digits depend on the CPU's ``exp`` and ``log``.
``tests/artifact_digests.json`` holds this output, and a Tier-1 test
compares the digests of the same two runs with it.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from conftest import SMALL_SPEC  # noqa: E402
from jndmap import cli  # noqa: E402
from jndmap.simulate import SimSpec  # noqa: E402
from jndmap.tableio import json_text, to_json, write_json  # noqa: E402

#: Each study: its simulator spec and the ``run`` flags beyond the inputs.
STUDIES = {
    "default_study": (SimSpec(), []),
    "small_study": (SMALL_SPEC, ["--k", "2"]),
}


def _without_p_value(text: str) -> bytes:
    """``pairs.csv`` without its ``p_value`` column, as ``csv.writer`` writes it."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    drop = rows[0].index("p_value")
    out = io.StringIO()
    csv.writer(out, lineterminator="\n").writerows(row[:drop] + row[drop + 1:] for row in rows)
    return out.getvalue().encode("utf-8")


def digests(run_dir: Path) -> dict[str, str]:
    """The sha256 of the pinned artifacts of the run in ``run_dir``."""
    data = {name: (run_dir / name).read_bytes()
            for name in ("screening.json", "ranges.json", "codist.csv")}
    data["pairs.csv without p_value"] = _without_p_value(
        (run_dir / "pairs.csv").read_text(encoding="utf-8"))
    return {name: hashlib.sha256(value).hexdigest() for name, value in data.items()}


def run_study(spec: SimSpec, flags: list[str], work: Path) -> Path:
    """``simulate`` and ``run --truth`` on ``spec`` under ``work``; returns the run's directory."""
    sim, out = work / "sim", work / "run"
    sim.mkdir()
    write_json(sim / "spec.json", to_json(spec))
    argv = [["simulate", "--spec", str(sim / "spec.json"), "--out-dir", str(sim)],
            ["run", str(sim / "vmaf_scores.csv"), str(sim / "dcr_ratings.csv"),
             "--truth", str(sim / "jnd_truth.csv"), "--out-dir", str(out), *flags]]
    with contextlib.redirect_stdout(io.StringIO()):
        for args in argv:
            if cli.main(args) != 0:
                raise SystemExit(f"jndmap {args[0]} failed")
    return out


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        result = {}
        for name, (spec, flags) in STUDIES.items():
            (Path(tmp) / name).mkdir()
            result[name] = digests(run_study(spec, flags, Path(tmp) / name))
    sys.stdout.write(json_text(result))


if __name__ == "__main__":
    main()
