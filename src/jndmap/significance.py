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
from .corpus import Corpus, RatingTable

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


def _two_sided_p(t, df):
    # Student-t survival mass in both tails via the regularized incomplete
    # beta function (continued-fraction evaluation, accurate to ~1e-14), for
    # floats or arrays of them.
    from scipy import special  # imported here: commands that test no pair skip it

    p = np.where(t == 0.0, 1.0, special.betainc(0.5 * df, 0.5, df / (df + t * t)))
    return p if p.ndim else float(p)


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
    """Label every within-content pair with |dVMAF|, p-value, and sig bit.

    The test runs over all pairs at once, on the per-stimulus statistics of
    :meth:`RatingTable.panels`.  It makes the checks and the float operations
    of ``paired_t_test`` / ``*_from_stats`` in their order, so each pair
    fails with the same error and each p-value is bit-equal to theirs.
    """
    if test not in TESTS:
        raise ValueError(f"unknown test {test!r}; expected one of {TESTS}")
    # sorted contents, each with its sorted recipe pairs: (content, recipe_x, recipe_y) order
    codes = [
        pair for c in corpus.contents() for pair in itertools.combinations(corpus.rated_codes(c), 2)
    ]
    if not codes:
        raise ValueError("no content has two or more rated stimuli")
    x, y = np.array(codes, dtype=np.intp).T
    table = corpus.ratings
    na, nb = table.counts[x], table.counts[y]
    faults = [  # (the pairs at fault, message), in the order the scalar tests check them
        ((na < 2) | (nb < 2),
         lambda i: f"need >= 2 observations per side, got {na[i]} and {nb[i]}"),
        (np.full(len(x), not 0.0 < alpha < 1.0),
         lambda i: f"alpha must be in (0, 1), got {alpha}"),
    ]
    with np.errstate(all="ignore"):
        if test == "paired":
            same, diff, var = _paired_differences(table, x, y)
            faults.insert(0, (~same, lambda i: (
                "paired test needs identical observer panels on both stimuli")))
            degenerate = var == 0.0
            df = (na - 1).astype(float)
            t = diff / np.sqrt(var / na)
        else:
            mean, var = np.full(len(table.keys), np.nan), np.full(len(table.keys), np.nan)
            for stimuli, scores in table.panels():
                if scores.shape[1] >= 2:
                    mean[stimuli], var[stimuli] = scores.mean(axis=1), scores.var(axis=1, ddof=1)
            diff, va, vb = mean[x] - mean[y], var[x], var[y]
            degenerate = (va == 0.0) & (vb == 0.0)
            if test == "welch":
                # Python's ``sa**2`` is C pow(), as is np.float_power; numpy's ** is
                # sa * sa, which can differ from pow() in the last bit
                sa, sb = va / na, vb / nb
                t = diff / np.sqrt(sa + sb)
                denom = np.float_power(sa, 2) / (na - 1) + np.float_power(sb, 2) / (nb - 1)
                df = np.float_power(sa + sb, 2) / denom
                faults.append((~degenerate & (denom == 0.0), lambda i: (
                    f"variances {va[i]:.3g} and {vb[i]:.3g} are too small for the Welch df: "
                    "their squares underflow")))
            else:
                df = (na + nb - 2).astype(float)
                pooled = ((na - 1) * va + (nb - 1) * vb) / df
                t = diff / np.sqrt(pooled * (1.0 / na + 1.0 / nb))
        hits = [(int(np.argmax(mask)), k) for k, (mask, _) in enumerate(faults) if mask.any()]
        if hits:
            i, k = min(hits)
            content_id, rx = table.keys[x[i]]
            raise ValueError(f"pair {content_id}:{rx}:{table.keys[y[i]][1]}: {faults[k][1](i)}")
        p = np.where(degenerate, (diff == 0.0).astype(float), _two_sided_p(t, df))
    keys, vmaf = table.keys, table.vmaf
    pairs = [
        RatedPair(keys[i][0], keys[i][1], keys[j][1], delta, p_value, int(p_value < alpha))
        for i, j, delta, p_value in zip(
            x.tolist(), y.tolist(), np.abs(vmaf[x] - vmaf[y]).tolist(), p.tolist()
        )
    ]
    n_sig = sum(p.sig for p in pairs)
    log.info("classified %d pairs (%d significant) at alpha=%g", len(pairs), n_sig, alpha)
    return pairs


def _paired_differences(
    table: RatingTable, x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per pair: whether both stimuli have the same panel, and the mean and
    ddof=1 variance of the score differences where they do."""
    same = np.zeros(len(x), bool)
    diff, var = np.full(len(x), np.nan), np.full(len(x), np.nan)
    for n in np.unique(table.counts[x]).tolist():
        (sel,) = np.nonzero((table.counts[x] == n) & (table.counts[y] == n))
        ix, iy = table.block(x[sel], n), table.block(y[sel], n)
        same[sel] = (table.observer[ix] == table.observer[iy]).all(axis=1)
        if n >= 2:
            d = table.score[ix].astype(float) - table.score[iy].astype(float)
            diff[sel], var[sel] = d.mean(axis=1), d.var(axis=1, ddof=1)
    return same, diff, var


# -- serialization ----------------------------------------------------------


def pairs_csv_text(pairs: list[RatedPair]) -> str:
    return tableio.rows_to_csv_text(PAIR_TABLE, map(attrgetter(*PAIR_TABLE), pairs))


def read_pairs_csv(path: str | Path) -> list[RatedPair]:
    """The pairs of a pairs.csv; a pair listed twice is a :class:`CorpusError`
    naming the line of its second row."""
    table = tableio.read_table(path, PAIR_TABLE)
    pairs = list(map(RatedPair, *table.columns))
    seen: set[str] = set()
    for i, pair in enumerate(pairs):
        if pair.pair_id in seen:
            raise table.error(f"duplicate pair {pair.pair_id}", i)
        seen.add(pair.pair_id)
    return pairs
