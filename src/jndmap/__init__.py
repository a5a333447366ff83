"""jndmap: map |dVMAF| between paired encodings to JND probability.

The pipeline, in library form:

1. :mod:`jndmap.corpus` -- load stimuli, DCR ratings, and JND truth tables.
2. :mod:`jndmap.screening` -- reject erratic observers (BT.500-style).
3. :mod:`jndmap.significance` -- label every within-content pair via a
   two-sample test on its rating vectors.
4. :mod:`jndmap.ranges` -- decompose the VMAF axis into sub-quality ranges
   and assign pairs by endpoint membership.
5. :mod:`jndmap.mapping` -- per range, histogram significant/similar pairs
   over |dVMAF| bins and fit monotone probability curves.
6. :mod:`jndmap.predict` -- invert a curve at a decision threshold to get the
   |dVMAF| of one JND from an anchor rendition.
7. :mod:`jndmap.evaluate` -- score predictions against ground truth over a
   (threshold x family) grid.
8. :mod:`jndmap.simulate` -- generate seeded synthetic corpora with known JND
   scale for end-to-end validation.

Importing the package loads none of these modules, and not numpy either:
each public name is resolved from its module on first access (PEP 562), so
the process entry (:mod:`jndmap.entry`) can set up the process before numpy
loads.
"""

import importlib

__version__ = "0.1.0"

#: Each public module and the names it exports, in ``__all__`` order.
_EXPORTS = {
    "corpus": ("Corpus", "DcrRating", "JndTruth", "Stimulus", "load_corpus"),
    "errors": ("ConfigError", "CorpusError", "FitError", "JndmapError"),
    "screening": ("ScreeningReport", "screen", "screen_bt500", "apply_screening"),
    "significance": ("RatedPair", "welch_t_test", "student_t_test", "paired_t_test",
                     "classify_pairs"),
    "ranges": ("Decomposition", "SubQualityRange", "decompose_balanced", "decompose_fixed",
               "decompose_explicit", "assign_pairs"),
    "mapping": ("CoDistribution", "MappingFunction", "build_codistribution", "fit_mapping",
                "fit_all", "evaluate_mf"),
    "predict": ("JndPrediction", "invert_at_threshold", "invert_family", "predict_jnd"),
    "evaluate": ("EvalGrid", "EvalGridSpec", "evaluate_grid", "ground_truth_delta"),
    "simulate": ("SimSpec", "simulate_corpus", "bisection_search"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name: str):
    """Import a public name's module on first access and keep the name."""
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
