"""Pair formation and two-sample significance labelling of DCR rating vectors.

Every unordered pair of rated renditions of a content is tested for a mean
opinion difference.  The default test is Welch's unequal-variance t-test with
the two-sided p-value computed through the regularized incomplete beta
function, p = I_x(df/2, 1/2) with x = df / (df + t**2).  Pooled-variance
("student") and paired variants are available behind the same interface.

The degenerate case where *both* vectors have zero variance falls outside the
t formulas and is resolved by definition: p = 1 for equal means, p = 0
otherwise.

Each test is written once, as an array program over pairs that reads only
each side's size, mean and variance (for the paired test, those of the score
differences).  :func:`classify_pairs` runs it on every pair of a corpus at
once; ``welch_t_test``, ``student_t_test`` and ``paired_t_test`` run it on
one pair of vectors.

The labelled pairs are one columnar :class:`PairTable`: ids, |dVMAF|, p-value
and sig bit per pair, and, when it comes from a corpus, the stimulus codes of
both endpoints.  Pair assignment, the co-distributions, the pairwise GLM and
``pairs.csv`` take this table and read its columns; :class:`RatedPair`
objects are only a view of them, built when the table is iterated or indexed.
"""

from __future__ import annotations

import functools
import itertools
import logging
import math
from collections.abc import Sequence
from dataclasses import dataclass
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
    "content_id": tableio.ident,
    "recipe_x": tableio.ident,
    "recipe_y": tableio.ident,
    "delta_obj": tableio.within(tableio.number, 0.0, math.inf),
    "p_value": tableio.within(tableio.number, 0.0, 1.0),
    "sig": tableio.within(int, 0, 1),
}


class PairTable(tableio.RowSequence[RatedPair]):
    """Rated pairs as columns, one entry per pair.

    ``content_id``, ``recipe_x`` and ``recipe_y`` are object arrays of ids,
    ``delta_obj`` and ``p_value`` float arrays and ``sig`` an int array.  A
    table that :func:`classify_pairs` makes also holds ``codes``, the stimulus
    codes of each pair's two endpoints as an ``(n, 2)`` array, and ``keys``,
    the key list of the :class:`RatingTable` they index.

    As a sequence, the table is the pairs as :class:`RatedPair` objects, a
    view built from the columns on first use.
    """

    def __init__(self, content_id: Sequence[str], recipe_x: Sequence[str],
                 recipe_y: Sequence[str], delta_obj: Sequence[float], p_value: Sequence[float],
                 sig: Sequence[int], codes: np.ndarray | None = None,
                 keys: list[tuple[str, str]] | None = None) -> None:
        self.content_id, self.recipe_x, self.recipe_y = (
            np.asarray(ids, dtype=object) for ids in (content_id, recipe_x, recipe_y)
        )
        self.delta_obj = np.asarray(delta_obj, dtype=float)
        self.p_value = np.asarray(p_value, dtype=float)
        self.sig = np.asarray(sig, dtype=np.int64)
        self.codes, self.keys = codes, keys

    def columns(self) -> tuple[Sequence, ...]:
        """The columns of :data:`PAIR_TABLE` as Python values."""
        return (self.content_id, self.recipe_x, self.recipe_y, self.delta_obj.tolist(),
                self.p_value.tolist(), self.sig.tolist())

    def _build(self) -> tuple[RatedPair, ...]:
        return tuple(map(RatedPair, *self.columns()))

    def __len__(self) -> int:
        return len(self.sig)

    @functools.cached_property
    def pair_ids(self) -> list[str]:
        """``content_id:recipe_x:recipe_y`` of each pair."""
        return list(map(":".join, zip(self.content_id, self.recipe_x, self.recipe_y)))

    @functools.cached_property
    def index(self) -> dict[str, int]:
        """The row of each pair id (of one of its rows, for an id listed twice)."""
        return dict(zip(self.pair_ids, itertools.count()))

    def endpoint_codes(self, table: RatingTable) -> np.ndarray:
        """The ``(n, 2)`` codes in ``table`` of each pair's two stimuli; -1
        for a stimulus that ``table`` does not hold."""
        if self.codes is not None and self.keys is table.keys:
            return self.codes
        get = table.codes.get
        ends = [
            np.fromiter(map(get, zip(self.content_id, recipes), itertools.repeat(-1)), np.intp,
                        len(self))
            for recipes in (self.recipe_x, self.recipe_y)
        ]
        return np.column_stack(ends)


def _two_sided_p(t, df):
    # Student-t survival mass in both tails via the regularized incomplete
    # beta function (continued-fraction evaluation, accurate to ~1e-14), for
    # arrays of t and df.
    from scipy import special  # imported here: commands that test no pair skip it

    return np.where(t == 0.0, 1.0, special.betainc(0.5 * df, 0.5, df / (df + t * t)))


def _t_kernel(test: str, na: np.ndarray, nb: np.ndarray, diff: np.ndarray, va: np.ndarray,
              vb: np.ndarray | float, alpha: float) -> tuple:
    """Two-sided ``test`` over arrays of pairs: each pair's panel sizes, mean
    difference and ddof=1 variances.  For ``paired``, ``diff`` and ``va`` are
    the mean and variance of the score differences and ``vb`` is 0.

    Returns t, df, p and the faults: (mask of the pairs at fault, message of
    pair i), in the order they are checked.  Where both variances are 0, p is
    1 for equal means (t = 0) and 0 otherwise (t = +-inf), and Welch's df is
    the pooled ``na + nb - 2``.
    """
    faults = [
        ((na < 2) | (nb < 2), lambda i: f"need >= 2 observations per side, got {na[i]} and {nb[i]}"),
        (np.full(len(na), not 0.0 < alpha < 1.0), lambda i: f"alpha must be in (0, 1), got {alpha}"),
    ]
    degenerate = (va == 0.0) & (vb == 0.0)
    with np.errstate(all="ignore"):
        if test == "paired":
            df = (na - 1).astype(float)
            t = diff / np.sqrt(va / na)
        elif test == "welch":
            # square by C pow(), as Python's float ** does; numpy's ** is sa * sa,
            # which can differ from pow() in the last bit
            sa, sb = va / na, vb / nb
            t = diff / np.sqrt(sa + sb)
            denom = np.float_power(sa, 2) / (na - 1) + np.float_power(sb, 2) / (nb - 1)
            df = np.where(degenerate, (na + nb - 2).astype(float), np.float_power(sa + sb, 2) / denom)
            faults.append((~degenerate & (denom == 0.0), lambda i: (
                f"variances {va[i]:.3g} and {vb[i]:.3g} are too small for the Welch df: "
                "their squares underflow")))
        else:
            df = (na + nb - 2).astype(float)
            pooled = ((na - 1) * va + (nb - 1) * vb) / df
            t = diff / np.sqrt(pooled * (1.0 / na + 1.0 / nb))
        t = np.where(degenerate & (diff == 0.0), 0.0, t)
        p = np.where(degenerate, (diff == 0.0).astype(float), _two_sided_p(t, df))
    return t, df, p, faults


def _one_pair(test: str, na: int, nb: int, diff: float, va: float, vb: float, alpha: float,
              *late: tuple) -> TestResult:
    """The kernel on one pair; ``late`` are faults checked after the kernel's."""
    t, df, p, faults = _t_kernel(test, np.array([na]), np.array([nb]), np.array([diff]),
                                 np.array([va]), np.array([vb]), alpha)
    for mask, message in [*faults, *late]:
        if mask[0]:
            raise ValueError(message(0))
    return TestResult(t=float(t[0]), df=float(df[0]), p=float(p[0]), sig=int(p[0] < alpha))


def _moments(values) -> tuple[int, float, float]:
    """Size, mean and ddof=1 variance of ``values``; NaN below two values."""
    x = np.asarray(values, dtype=float)
    if len(x) < 2:
        return len(x), math.nan, math.nan
    return len(x), float(x.mean()), float(x.var(ddof=1))


def welch_t_test(a: list[int] | list[float], b: list[int] | list[float], alpha: float = 0.05) -> TestResult:
    """Welch's unequal-variance two-sample t-test on two vectors, two-sided."""
    (na, ma, va), (nb, mb, vb) = _moments(a), _moments(b)
    return _one_pair("welch", na, nb, ma - mb, va, vb, alpha)


def student_t_test(a, b, alpha: float = 0.05) -> TestResult:
    """Classic pooled-variance two-sample t-test on two vectors, two-sided."""
    (na, ma, va), (nb, mb, vb) = _moments(a), _moments(b)
    return _one_pair("student", na, nb, ma - mb, va, vb, alpha)


def paired_t_test(a, b, alpha: float = 0.05) -> TestResult:
    """Paired-difference t-test; vectors must be index-aligned per observer."""
    same = len(a) == len(b)
    _, mean, var = _moments(np.subtract(a, b, dtype=float) if same else ())
    unequal = (np.array([not same]), lambda i: (
        f"paired test needs equal-length vectors, got {len(a)} and {len(b)}"))
    return _one_pair("paired", len(a), len(b), mean, var, 0.0, alpha, unequal)


def classify_pairs(corpus: Corpus, alpha: float = 0.05, test: str = "welch") -> PairTable:
    """Label every within-content pair with |dVMAF|, p-value, and sig bit.

    The pairs come sorted by (content, recipe_x, recipe_y), with recipe_x <
    recipe_y, as one :class:`PairTable` that holds the endpoint codes.

    The test runs over all pairs at once, on the per-stimulus statistics of
    :meth:`RatingTable.panels`, through the same kernel as ``welch_t_test`` /
    ``student_t_test`` / ``paired_t_test``, so each pair fails with their
    error and each p-value is theirs on the pair's two rating vectors.
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
    if test == "paired":
        same, diff, va = _paired_differences(table, x, y)
        vb = 0.0
    else:
        mean, var = np.full(len(table.keys), np.nan), np.full(len(table.keys), np.nan)
        for stimuli, scores in table.panels():
            if scores.shape[1] >= 2:
                mean[stimuli], var[stimuli] = scores.mean(axis=1), scores.var(axis=1, ddof=1)
        diff, va, vb = mean[x] - mean[y], var[x], var[y]
    _, _, p, faults = _t_kernel(test, na, nb, diff, va, vb, alpha)
    if test == "paired":
        faults.insert(0, (~same, lambda i: (
            "paired test needs identical observer panels on both stimuli")))
    hits = [(int(np.argmax(mask)), k) for k, (mask, _) in enumerate(faults) if mask.any()]
    if hits:
        i, k = min(hits)
        content_id, rx = table.keys[x[i]]
        raise ValueError(f"pair {content_id}:{rx}:{table.keys[y[i]][1]}: {faults[k][1](i)}")
    keys = np.array(table.keys, dtype=object)
    pairs = PairTable(keys[x, 0], keys[x, 1], keys[y, 1], np.abs(table.vmaf[x] - table.vmaf[y]),
                      p, p < alpha, np.column_stack((x, y)), table.keys)
    n_sig = int(pairs.sig.sum())
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


def pairs_csv_text(pairs: PairTable) -> str:
    return tableio.rows_to_csv_text(PAIR_TABLE, zip(*pairs.columns()))


def read_pairs_csv(path: str | Path) -> PairTable:
    """The pairs of a pairs.csv.  Each pair is listed once, with recipe_x <
    recipe_y; a :class:`CorpusError` names the line of the first row that is
    out of order or repeats an earlier one."""
    table = tableio.read_table(path, PAIR_TABLE)
    pairs = PairTable(*table.columns)
    recipes = zip(itertools.count(), pairs.recipe_x, pairs.recipe_y)
    unordered = next((i for i, x, y in recipes if x >= y), len(pairs))
    ids, seen = pairs.pair_ids, set()
    repeat = next((i for i, pair_id in enumerate(ids) if pair_id in seen or seen.add(pair_id)),
                  len(pairs))
    if unordered < repeat:
        raise table.error(f"recipe_y {pairs.recipe_y[unordered]!r} does not sort after "
                          f"recipe_x {pairs.recipe_x[unordered]!r}", unordered, "recipe_y")
    if repeat < len(pairs):
        raise table.error(f"duplicate pair {ids[repeat]}", repeat)
    return pairs
