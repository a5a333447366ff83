"""In-process traced run: the program's own ``jndmap run``, timed layer by layer.

``traced_run`` calls ``jndmap.cli.main(["run", ...])`` in this process while
module attributes are wrapped for the duration of the run, so the per-layer
figures describe ``cmd_run`` as it is, whatever its order of stages.  The
wrapped attributes are:

* the stages, as called from ``cmd_run``: ``corpus.load_corpus``,
  ``screening.screen``, ``screening.apply_screening``,
  ``significance.classify_pairs``, ``ranges.decompose_balanced`` /
  ``decompose_fixed`` / ``decompose_explicit``, ``ranges.assign_pairs``,
  ``mapping.fit_all`` and ``evaluate.evaluate_grid``;
* inside the stages: ``mapping.build_codistribution`` and
  ``mapping.fit_mapping`` as called from ``fit_all``,
  ``mapping.least_squares`` as called from the fits,
  ``evaluate.predict_jnd`` as called from ``evaluate_grid``, and
  ``predict.evaluate_mf`` as called from the threshold inversion;
* ``cli.cmd_run`` itself.  ``cli.serialize_s`` is its time outside the stage
  spans: building and writing the artifacts, hashing the inputs and printing
  the tables.

``cli.artifact_bytes`` is the size of the files in the out-dir.  No source
file is changed.
"""

from __future__ import annotations

import contextlib
import threading
import time
from pathlib import Path

from jndmap import cli as cli_mod
from jndmap import corpus as corpus_mod
from jndmap import evaluate as evaluate_mod
from jndmap import mapping as mapping_mod
from jndmap import predict as predict_mod
from jndmap import ranges as ranges_mod
from jndmap import screening as screening_mod
from jndmap import significance as significance_mod
from jndmap.errors import FitError


class Tracer:
    """Summed spans and counters, plus peaks, updated from any thread.

    Each thread updates tables of its own, so the hottest counter (one
    ``evaluate_mf`` call per bisection step, hundreds of thousands per run)
    costs no lock; the lock only registers a new thread's tables.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._tables: list[tuple[dict, dict]] = []
        self._lock = threading.Lock()

    def _own(self) -> tuple[dict, dict]:
        try:
            return self._local.tables
        except AttributeError:
            tables = self._local.tables = ({}, {})
            with self._lock:
                self._tables.append(tables)
            return tables

    def add(self, name: str, value: float = 1) -> None:
        sums = self._own()[0]
        sums[name] = sums.get(name, 0) + value

    def peak(self, name: str, value: float) -> None:
        peaks = self._own()[1]
        peaks[name] = max(peaks.get(name, value), value)

    @contextlib.contextmanager
    def span(self, name: str):
        started = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - started)

    def figures(self) -> dict[str, float]:
        """Sums over threads, and the largest of each peak."""
        merged: dict[str, float] = {}
        with self._lock:
            for sums, peaks in self._tables:
                for name, value in sums.items():
                    merged[name] = merged.get(name, 0) + value
                for name, value in peaks.items():
                    merged[name] = max(merged.get(name, value), value)
        return merged


def _fit_counts(result, *_args) -> dict[str, int]:
    _codists, models = result
    fits = [mf for per_range in models.values() for mf in per_range.values()]
    return {
        "mapping.fits_nonmonotone": sum(not mf.fit_report.monotone for mf in fits),
        "mapping.fits_hinge": sum("hinge_penalty" in mf.fit_report.flags for mf in fits),
        "mapping.report_iterations": sum(mf.fit_report.iterations for mf in fits),
    }


# (module, attribute, span, counters from the result and the arguments)
STAGES = (
    (corpus_mod, "load_corpus", "corpus.load_s",
     lambda corpus, *_: {"corpus.ratings": len(corpus.ratings)}),
    (screening_mod, "screen", "screening.screen_s",
     lambda report, *_: {"screening.removed": len(report.removed_observers)}),
    (screening_mod, "apply_screening", "screening.apply_s", None),
    (significance_mod, "classify_pairs", "significance.classify_s",
     lambda pairs, *_: {"significance.pairs": len(pairs),
                        "significance.sig_pairs": sum(p.sig for p in pairs)}),
    (ranges_mod, "decompose_balanced", "ranges.decompose_s", None),
    (ranges_mod, "decompose_fixed", "ranges.decompose_s", None),
    (ranges_mod, "decompose_explicit", "ranges.decompose_s", None),
    (ranges_mod, "assign_pairs", "ranges.assign_s",
     lambda decomp, *_: {"ranges.pair_refs": sum(len(r.pair_refs) for r in decomp.ranges)}),
    (mapping_mod, "fit_all", "mapping.fit_s", _fit_counts),
    (evaluate_mod, "evaluate_grid", "evaluate.grid_s",
     lambda grid, corpus, *_: {"evaluate.truths": len(corpus.truths),
                               "evaluate.skipped": sum(c.skipped for c in grid.cells.values())}),
)
STAGE_SPANS = tuple(dict.fromkeys(span for _, _, span, _ in STAGES))


@contextlib.contextmanager
def _wrapped(module, name: str, make_wrapper):
    original = getattr(module, name)
    setattr(module, name, make_wrapper(original))
    try:
        yield
    finally:
        setattr(module, name, original)


def _stage(tracer: Tracer, span: str, counters):
    def make(original):
        def stage(*args, **kwargs):
            with tracer.span(span):
                result = original(*args, **kwargs)
            for name, value in (counters(result, *args) if counters else {}).items():
                tracer.add(name, value)
            return result

        return stage

    return make


@contextlib.contextmanager
def _instrument(tracer: Tracer):
    """Wrap the attributes listed in the module docstring."""

    def timed(span):
        return _stage(tracer, span, None)

    def fit(original):
        def fit_mapping(points, family, *args, **kwargs):
            tracer.add("mapping.fits")
            started = time.perf_counter()
            try:
                return original(points, family, *args, **kwargs)
            except FitError:
                tracer.add("mapping.fits_failed")
                raise
            finally:
                elapsed = time.perf_counter() - started
                tracer.add("mapping.fit_s." + family, elapsed)
                tracer.peak("mapping.fit_max_s", elapsed)

        return fit_mapping

    def lsq(original):
        def least_squares(*args, **kwargs):
            sol = original(*args, **kwargs)
            tracer.add("mapping.lsq_calls")
            tracer.add("mapping.lsq_nfev", int(sol.nfev))
            return sol

        return least_squares

    def predict(original):
        def predict_jnd(*args, **kwargs):
            tracer.add("predict.calls")
            started = time.perf_counter()
            try:
                pred = original(*args, **kwargs)
            finally:
                tracer.add("predict.s", time.perf_counter() - started)
            tracer.add("predict.clamped", int(pred.clamped))
            return pred

        return predict_jnd

    def evaluate_mf(original):
        def counted(*args, **kwargs):
            tracer.add("predict.evaluate_mf_calls")
            return original(*args, **kwargs)

        return counted

    with contextlib.ExitStack() as stack:
        for module, name, span, counters in STAGES:
            stack.enter_context(_wrapped(module, name, _stage(tracer, span, counters)))
        stack.enter_context(_wrapped(cli_mod, "cmd_run", timed("cli.cmd_run_s")))
        stack.enter_context(_wrapped(mapping_mod, "build_codistribution", timed("mapping.codist_s")))
        stack.enter_context(_wrapped(mapping_mod, "fit_mapping", fit))
        stack.enter_context(_wrapped(mapping_mod, "least_squares", lsq))
        stack.enter_context(_wrapped(evaluate_mod, "predict_jnd", predict))
        stack.enter_context(_wrapped(predict_mod, "evaluate_mf", evaluate_mf))
        yield


def traced_run(run_args: list[str], out: Path, log_path: Path) -> tuple[int, float, dict[str, float]]:
    """``jndmap.cli.main(run_args)`` in-process, writing to ``out``.

    Returns the exit status, the wall seconds of the call and the per-layer
    metrics.  The CLI's output goes to ``log_path``.
    """
    tracer = Tracer()
    with open(log_path, "w", encoding="utf-8") as log, \
            contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        started = time.perf_counter()
        with _instrument(tracer):
            code = cli_mod.main(run_args)
        total = time.perf_counter() - started

    f = tracer.figures()
    metrics = {
        name: f.get(name, 0)
        for name in (
            "corpus.load_s", "corpus.ratings",
            "screening.screen_s", "screening.apply_s", "screening.removed",
            "significance.classify_s", "significance.pairs", "significance.sig_pairs",
            "ranges.decompose_s", "ranges.assign_s", "ranges.pair_refs",
            "mapping.codist_s", "mapping.fit_s",
            *("mapping.fit_s." + family for family in mapping_mod.FAMILIES),
            "mapping.fit_max_s", "mapping.fits", "mapping.fits_failed",
            "mapping.fits_nonmonotone", "mapping.fits_hinge",
            "mapping.lsq_calls", "mapping.lsq_nfev", "mapping.report_iterations",
            "predict.calls", "predict.s", "predict.evaluate_mf_calls", "predict.clamped",
            "evaluate.grid_s", "evaluate.truths", "evaluate.skipped",
        )
    }
    metrics["cli.serialize_s"] = f.get("cli.cmd_run_s", 0) - sum(f.get(s, 0) for s in STAGE_SPANS)
    metrics["cli.artifact_bytes"] = sum(p.stat().st_size for p in out.iterdir() if p.is_file())
    return code, total, metrics
