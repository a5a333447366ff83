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
"""

__version__ = "0.1.0"

from .corpus import Corpus, DcrRating, JndTruth, Recipe, Stimulus, load_corpus
from .errors import CorpusError, FitError, JndmapError
from .evaluate import EvalGrid, EvalGridSpec, evaluate_grid, ground_truth_delta
from .mapping import (
    CoDistribution,
    MappingFunction,
    build_codistribution,
    evaluate_mf,
    fit_all,
    fit_mapping,
)
from .predict import JndPrediction, invert_at_threshold, predict_jnd
from .ranges import (
    Decomposition,
    SubQualityRange,
    assign_pairs,
    decompose_balanced,
    decompose_explicit,
    decompose_fixed,
)
from .screening import ScreeningReport, apply_screening, screen, screen_bt500
from .significance import (
    RatedPair,
    classify_pairs,
    paired_t_test,
    student_t_test,
    welch_t_test,
)
from .simulate import SimSpec, bisection_search, simulate_corpus

__all__ = [
    "__version__",
    "Corpus",
    "DcrRating",
    "JndTruth",
    "Recipe",
    "Stimulus",
    "load_corpus",
    "CorpusError",
    "FitError",
    "JndmapError",
    "ScreeningReport",
    "screen",
    "screen_bt500",
    "apply_screening",
    "RatedPair",
    "welch_t_test",
    "student_t_test",
    "paired_t_test",
    "classify_pairs",
    "Decomposition",
    "SubQualityRange",
    "decompose_balanced",
    "decompose_fixed",
    "decompose_explicit",
    "assign_pairs",
    "CoDistribution",
    "MappingFunction",
    "build_codistribution",
    "fit_mapping",
    "fit_all",
    "evaluate_mf",
    "JndPrediction",
    "invert_at_threshold",
    "predict_jnd",
    "EvalGrid",
    "EvalGridSpec",
    "evaluate_grid",
    "ground_truth_delta",
    "SimSpec",
    "simulate_corpus",
    "bisection_search",
]
