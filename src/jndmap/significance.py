"""Pair formation and two-sample significance labelling of DCR rating vectors.

Every unordered pair of rated renditions of a content is tested for a mean
opinion difference.  The default test is Welch's unequal-variance t-test with
the two-sided p-value computed through the regularized incomplete beta
function, p = I_x(df/2, 1/2) with x = df / (df + t**2).  Pooled-variance
("student") and paired variants are available behind the same interface.

The degenerate case where *both* vectors have zero variance falls outside the
t formulas and is resolved by definition: p = 1 for equal means, p = 0
otherwise.

The Welch and Student formulas read only each vector's size, mean and
variance (:class:`SampleStats`), so classification computes those once per
rated stimulus; ``welch_t_test`` and ``student_t_test`` are the same formulas
applied to two vectors.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path

import numpy as np

from . import tableio
from .corpus import Corpus, ratings_vector

log = logging.getLogger(__name__)

TESTS = ("welch", "student", "paired")


@dataclass(frozen=True)
class TestResult:
    t: float
    df: float
    p: float
    sig: int


@dataclass(frozen=True)
class RatedPair:
    content_id: str
    recipe_x: str
    recipe_y: str
    delta_obj: float
    p_value: float
    sig: int

    @property
    def pair_id(self) -> str:
        return f"{self.content_id}:{self.recipe_x}:{self.recipe_y}"


#: pairs.csv: the fields of :class:`RatedPair`, in order.
PAIR_TABLE: tableio.Schema = {
    "content_id": tableio.text,
    "recipe_x": tableio.text,
    "recipe_y": tableio.text,
    "delta_obj": tableio.within(tableio.number, 0.0, math.inf),
    "p_value": tableio.within(tableio.number, 0.0, 1.0),
    "sig": tableio.within(int, 0, 1),
}


def _two_sided_p(t: float, df: float) -> float:
    # Student-t survival mass in both tails via the regularized incomplete
    # beta function (continued-fraction evaluation, accurate to ~1e-14).
    if t == 0.0:
        return 1.0
    from scipy import special  # imported here: commands that test no pair skip it

    x = df / (df + t * t)
    return float(special.betainc(0.5 * df, 0.5, x))


@dataclass(frozen=True)
class SampleStats:
    """Size, mean and unbiased (ddof=1) variance of one rating vector."""

    n: int
    mean: float
    var: float


def sample_stats(values: list[int] | list[float]) -> SampleStats:
    """Statistics of ``values``; mean and variance are NaN below two values,
    a size every test rejects."""
    x = np.asarray(values, dtype=float)
    if len(x) < 2:
        return SampleStats(len(x), math.nan, math.nan)
    return SampleStats(len(x), float(x.mean()), float(x.var(ddof=1)))


def welch_from_stats(a: SampleStats, b: SampleStats, alpha: float = 0.05) -> TestResult:
    """Welch's unequal-variance two-sample t-test, two-sided."""
    _check_inputs(a.n, b.n, alpha)
    na, nb = a.n, b.n
    va, vb = a.var, b.var
    diff = a.mean - b.mean
    if va == 0.0 and vb == 0.0:
        return _degenerate(diff, float(na + nb - 2), alpha)
    sa, sb = va / na, vb / nb
    t = diff / math.sqrt(sa + sb)
    denom = sa**2 / (na - 1) + sb**2 / (nb - 1)
    if denom == 0.0:
        raise ValueError(
            f"variances {va:.3g} and {vb:.3g} are too small for the Welch df: "
            "their squares underflow"
        )
    df = (sa + sb) ** 2 / denom
    p = _two_sided_p(t, df)
    return TestResult(t=t, df=df, p=p, sig=int(p < alpha))


def student_from_stats(a: SampleStats, b: SampleStats, alpha: float = 0.05) -> TestResult:
    """Classic pooled-variance two-sample t-test, two-sided."""
    _check_inputs(a.n, b.n, alpha)
    na, nb = a.n, b.n
    va, vb = a.var, b.var
    diff = a.mean - b.mean
    df = float(na + nb - 2)
    if va == 0.0 and vb == 0.0:
        return _degenerate(diff, df, alpha)
    pooled = ((na - 1) * va + (nb - 1) * vb) / df
    t = diff / math.sqrt(pooled * (1.0 / na + 1.0 / nb))
    p = _two_sided_p(t, df)
    return TestResult(t=t, df=df, p=p, sig=int(p < alpha))


def welch_t_test(a: list[int] | list[float], b: list[int] | list[float], alpha: float = 0.05) -> TestResult:
    """Welch's unequal-variance two-sample t-test on two vectors, two-sided."""
    return welch_from_stats(sample_stats(a), sample_stats(b), alpha)


def student_t_test(a, b, alpha: float = 0.05) -> TestResult:
    """Classic pooled-variance two-sample t-test on two vectors, two-sided."""
    return student_from_stats(sample_stats(a), sample_stats(b), alpha)


def paired_t_test(a, b, alpha: float = 0.05) -> TestResult:
    """Paired-difference t-test; vectors must be index-aligned per observer."""
    _check_inputs(len(a), len(b), alpha)
    if len(a) != len(b):
        raise ValueError(f"paired test needs equal-length vectors, got {len(a)} and {len(b)}")
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    n = len(d)
    vd = float(d.var(ddof=1))
    mean = float(d.mean())
    df = float(n - 1)
    if vd == 0.0:
        return _degenerate(mean, df, alpha)
    t = mean / math.sqrt(vd / n)
    p = _two_sided_p(t, df)
    return TestResult(t=t, df=df, p=p, sig=int(p < alpha))


def _degenerate(diff: float, df: float, alpha: float) -> TestResult:
    if diff == 0.0:
        return TestResult(t=0.0, df=df, p=1.0, sig=0)
    return TestResult(t=math.copysign(math.inf, diff), df=df, p=0.0, sig=1)


def _check_inputs(na: int, nb: int, alpha: float) -> None:
    if na < 2 or nb < 2:
        raise ValueError(f"need >= 2 observations per side, got {na} and {nb}")
    if not 0.0 < alpha < 1.0:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")


_FROM_STATS = {"welch": welch_from_stats, "student": student_from_stats}


def form_pairs(corpus: Corpus, content_id: str) -> list[tuple[str, str]]:
    """All unordered recipe pairs of a content's *rated* stimuli.

    Recipes are ordered lexicographically within each pair and across the
    list, so the output is a pure function of the corpus.
    """
    rated = corpus.rated_recipes(content_id)
    if len(rated) < 2:
        raise ValueError(
            f"content {content_id!r} has {len(rated)} rated stimulus(es); need >= 2 to pair"
        )
    return list(itertools.combinations(rated, 2))


def classify_pairs(corpus: Corpus, alpha: float = 0.05, test: str = "welch") -> list[RatedPair]:
    """Label every within-content pair with |dVMAF|, p-value, and sig bit."""
    if test not in TESTS:
        raise ValueError(f"unknown test {test!r}; expected one of {TESTS}")
    contents = [c for c in corpus.contents() if len(corpus.rated_recipes(c)) >= 2]
    if not contents:
        raise ValueError("no content has two or more rated stimuli")

    # sorted contents, each with its sorted recipe pairs: already in
    # (content, recipe_x, recipe_y) order
    pairs = [p for c in contents for p in _classify_content(corpus, c, alpha, test)]
    n_sig = sum(p.sig for p in pairs)
    log.info("classified %d pairs (%d significant) at alpha=%g", len(pairs), n_sig, alpha)
    return pairs


def _classify_content(
    corpus: Corpus, content_id: str, alpha: float, test: str
) -> list[RatedPair]:
    out = []
    vectors = {r: ratings_vector(corpus, content_id, r) for r in corpus.rated_recipes(content_id)}
    stats = {r: sample_stats(v) for r, v in vectors.items()}
    for rx, ry in form_pairs(corpus, content_id):
        try:
            if test == "paired":
                _require_same_observers(corpus, content_id, rx, ry)
                result = paired_t_test(vectors[rx], vectors[ry], alpha)
            else:
                result = _FROM_STATS[test](stats[rx], stats[ry], alpha)
        except ValueError as exc:
            raise ValueError(f"pair {content_id}:{rx}:{ry}: {exc}") from exc
        delta = abs(
            corpus.stimulus(content_id, rx).vmaf - corpus.stimulus(content_id, ry).vmaf
        )
        out.append(
            RatedPair(
                content_id=content_id,
                recipe_x=rx,
                recipe_y=ry,
                delta_obj=delta,
                p_value=result.p,
                sig=result.sig,
            )
        )
    return out


def _require_same_observers(corpus: Corpus, content_id: str, rx: str, ry: str) -> None:
    ox = [r.observer_id for r in corpus.ratings_for(content_id, rx)]
    oy = [r.observer_id for r in corpus.ratings_for(content_id, ry)]
    if ox != oy:
        raise ValueError("paired test needs identical observer panels on both stimuli")


# -- serialization ----------------------------------------------------------


def pairs_csv_text(pairs: list[RatedPair]) -> str:
    return tableio.rows_to_csv_text(PAIR_TABLE, map(attrgetter(*PAIR_TABLE), pairs))


def read_pairs_csv(path: str | Path) -> list[RatedPair]:
    return [RatedPair(*values) for _, values in tableio.read_table(path, PAIR_TABLE)]
