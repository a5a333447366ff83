"""Shared fixtures: tiny hand-built corpora and one full simulated pipeline."""

from __future__ import annotations

import math
import os
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

import jndmap
from jndmap.corpus import Corpus, DcrRating, Recipe, Stimulus
from jndmap.mapping import FitReport, MappingFunction
from jndmap.predict import JndPrediction, invert_at_threshold
from jndmap.ranges import Decomposition, decompose_explicit
from jndmap.significance import TestResult, _two_sided_p
from jndmap.simulate import SimSpec, simulate_corpus

# CLI subprocesses import the jndmap this session imports: its source
# directory goes first on their PYTHONPATH.
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, [str(Path(jndmap.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")])
)

# Closed-form inversion constant: sigmoid(0.5 * (d - 6)) reaches 0.75 here.
DSTAR = 6.0 + 2.0 * math.log(3.0)

LADDER_VMAFS = (95.0, 90.0, 85.0, 82.0, 78.0, 70.0)


def make_stimuli(content_id: str, vmafs, prefix: str = "r") -> tuple[Stimulus, ...]:
    return tuple(
        Stimulus(content_id, Recipe(f"{prefix}{i}", "1080p", i + 1), float(v))
        for i, v in enumerate(vmafs)
    )


def vector_test(a, b, test: str, alpha: float = 0.05) -> TestResult:
    """The reference two-sample tests, written on two score vectors in plain
    Python floats (so ``sa**2`` is C pow()): the oracle that the significance
    kernel must equal bit for bit, with the same errors in the same order.
    Its p is the package's own ``_two_sided_p`` on the one pair's t and df,
    whose accuracy ``test_significance.py`` checks against mpmath."""
    if len(a) < 2 or len(b) < 2:
        raise ValueError(f"need >= 2 observations per side, got {len(a)} and {len(b)}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if test == "paired":
        if len(a) != len(b):
            raise ValueError(f"paired test needs equal-length vectors, got {len(a)} and {len(b)}")
        d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
        na = nb = len(d)
        diff, va, vb = float(d.mean()), float(d.var(ddof=1)), 0.0
        df = float(na - 1)
    else:
        xa, xb = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
        na, nb = len(xa), len(xb)
        diff, va, vb = float(xa.mean() - xb.mean()), float(xa.var(ddof=1)), float(xb.var(ddof=1))
        df = float(na + nb - 2)
    if va == 0.0 and vb == 0.0:
        if diff == 0.0:
            return TestResult(t=0.0, df=df, p=1.0, sig=0)
        return TestResult(t=math.copysign(math.inf, diff), df=df, p=0.0, sig=1)
    if test == "paired":
        t = diff / math.sqrt(va / na)
    elif test == "student":
        pooled = ((na - 1) * va + (nb - 1) * vb) / df
        t = diff / math.sqrt(pooled * (1.0 / na + 1.0 / nb))
    else:
        sa, sb = va / na, vb / nb
        t = diff / math.sqrt(sa + sb)
        denom = sa**2 / (na - 1) + sb**2 / (nb - 1)
        if denom == 0.0:
            raise ValueError(f"variances {va:.3g} and {vb:.3g} are too small for the Welch df: "
                             "their squares underflow")
        df = (sa + sb) ** 2 / denom
    p = float(_two_sided_p(np.array([t]), np.array([df]))[0])
    return TestResult(t=t, df=df, p=p, sig=int(p < alpha))


def range_of(decomp: Decomposition, vmaf: float) -> tuple[int, bool]:
    """The index of the range holding ``vmaf`` by a loop over the ranges'
    ``(lo, hi]``, and whether no range holds it; then the first range for a
    value at or below the lowest bound and the last one for any other.  The
    reference that ``Decomposition.locate`` must equal."""
    for index, srange in enumerate(decomp.ranges):
        if srange.lo < vmaf <= srange.hi:
            return index, False
    return (0 if vmaf <= decomp.ranges[0].lo else len(decomp.ranges) - 1), True


def scalar_prediction(models, decomp: Decomposition, anchor: Stimulus, direction: str,
                      threshold: float, family: str) -> JndPrediction:
    """One JND step from ``anchor`` on plain Python floats: the range by
    :func:`range_of`, the curve bisected afresh by ``invert_at_threshold``
    and the target clipped by ``min`` and ``max``.  Raises the KeyError (no
    model) or FitError (non-monotone fit) that stops the anchor.  The
    reference that ``predict_jnd`` and each step of ``evaluate_grid`` must
    equal."""
    index, outside = range_of(decomp, anchor.vmaf)
    range_id = decomp.ranges[index].range_id
    if family not in models.get(range_id, {}):
        raise KeyError(f"no fitted {family} model for range {range_id}")
    delta, inverse_clamped = invert_at_threshold(models[range_id][family], threshold)
    raw = anchor.vmaf - delta if direction == "dec" else anchor.vmaf + delta
    target = min(max(raw, 0.0), 100.0)
    return JndPrediction(anchor.content_id, anchor.recipe_id, direction, range_id, family,
                         threshold, delta, target, outside or inverse_clamped or target != raw)


@pytest.fixture
def ladder_stimuli() -> tuple[Stimulus, ...]:
    """Six renditions of one content at 95/90/85/82/78/70 VMAF (r0..r5)."""
    return make_stimuli("c1", LADDER_VMAFS)


@pytest.fixture
def exact_model() -> MappingFunction:
    """A logistic curve with known parameters, so inversions have closed forms."""
    return MappingFunction(
        family="logistic2",
        params=(0.5, 6.0),
        domain=(0.0, 20.0),
        fit_report=FitReport(residual_norm=0.0, monotone=True, iterations=0),
    )


@pytest.fixture
def single_range_models(exact_model):
    """One all-covering range plus the exact model keyed under it."""
    decomp = decompose_explicit([0.0, 100.0])
    rid = decomp.range_ids()[0]
    return decomp, {rid: {"logistic2": exact_model}}


def build_inverted_observer_corpus() -> Corpus:
    """24 observers x 12 stimuli; observer "bad" answers the scale upside down.

    Six stimuli have unanimous consensus 5, six have consensus 1; "bad" scores
    6 - consensus everywhere, so their deviations split evenly between the two
    tails (erratic, not biased).
    """
    stimuli = []
    ratings = []
    observers = [f"o{j:02d}" for j in range(1, 24)] + ["bad"]
    for i in range(12):
        rid = f"r{i + 1:02d}"
        consensus = 5 if i < 6 else 1
        stimuli.append(Stimulus("c1", Recipe(rid, "1080p", i + 1), 95.0 - 2.0 * i))
        for obs in observers:
            score = (6 - consensus) if obs == "bad" else consensus
            ratings.append(DcrRating("c1", rid, obs, score))
    return Corpus(tuple(stimuli), tuple(ratings), ())


@pytest.fixture
def inverted_observer_corpus() -> Corpus:
    return build_inverted_observer_corpus()


SMALL_SPEC = SimSpec(
    n_contents=3,
    ladder=(
        ("r1", 92.0),
        ("r2", 88.0),
        ("r3", 84.0),
        ("r4", 80.0),
        ("r5", 76.0),
        ("r6", 72.0),
    ),
    observer_count=8,
    seed=7,
)


@pytest.fixture
def small_spec() -> SimSpec:
    return SMALL_SPEC


@pytest.fixture(scope="session")
def default_sim():
    """One default-settings simulation shared by the slower statistics tests."""
    return simulate_corpus(SimSpec())


def cli_command() -> list[str]:
    """Argv prefix for invoking the installed CLI in a subprocess."""
    exe = shutil.which("jndmap")
    if exe:
        return [exe]
    return [sys.executable, "-m", "jndmap.cli"]
