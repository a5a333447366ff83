"""Pair formation and two-sample significance labelling of DCR rating vectors.

Every unordered pair of rated renditions of a content is tested for a mean
opinion difference.  The default test is Welch's unequal-variance t-test with
the two-sided p-value computed through the regularized incomplete beta
function, p = I_x(df/2, 1/2) with x = df / (df + t**2), which the module
evaluates itself (:func:`_two_sided_p`), so the package needs no scipy.
Pooled-variance ("student") and paired variants are available behind the
same interface.

The degenerate case where *both* vectors have zero variance falls outside the
t formulas and is resolved by definition: p = 1 for equal means, p = 0
otherwise.

Each test is written once, as an array program over pairs that reads only
each side's size, mean and variance (for the paired test, those of the score
differences).  :func:`classify_pairs` runs it on every pair of a corpus at
once; ``welch_t_test``, ``student_t_test`` and ``paired_t_test`` run it on
one pair of vectors.

The labelled pairs are one columnar :class:`PairTable`: ids, |dVMAF|, p-value
and sig bit per pair.  A table lists each pair once, whatever the order of its
two recipes, and finds its endpoints in a corpus by their keys.  Pair
assignment, the co-distributions, the pairwise GLM and ``pairs.csv`` take
this table and read its columns; :class:`RatedPair` objects are only a view
of them, built when the table is iterated or indexed.
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
from .errors import CorpusError

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
    ``delta_obj`` and ``p_value`` float arrays and ``sig`` an int array.

    As a sequence, the table is the pairs as :class:`RatedPair` objects, a
    view built from the columns on first use.
    """

    def __init__(self, content_id: Sequence[str], recipe_x: Sequence[str],
                 recipe_y: Sequence[str], delta_obj: Sequence[float], p_value: Sequence[float],
                 sig: Sequence[int]) -> None:
        """The table of the given columns.  Raises :class:`CorpusError` with
        ``row=("pairs", index)`` at the first pair listed again: the same
        content and the same two recipes, in either order."""
        self.content_id, self.recipe_x, self.recipe_y = (
            np.asarray(ids, dtype=object) for ids in (content_id, recipe_x, recipe_y)
        )
        self.delta_obj = np.asarray(delta_obj, dtype=float)
        self.p_value = np.asarray(p_value, dtype=float)
        self.sig = np.asarray(sig, dtype=np.int64)
        lo, hi = np.minimum(self.recipe_x, self.recipe_y), np.maximum(self.recipe_x, self.recipe_y)
        pairs = list(zip(self.content_id.tolist(), lo.tolist(), hi.tolist()))
        if len(set(pairs)) < len(pairs):
            seen: set[tuple[str, str, str]] = set()
            i = next(i for i, pair in enumerate(pairs) if pair in seen or seen.add(pair))
            raise CorpusError(f"duplicate pair {self.pair_ids[i]}", row=("pairs", i))

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
        """The row of each pair id."""
        return dict(zip(self.pair_ids, itertools.count()))

    def endpoint_codes(self, table: RatingTable) -> np.ndarray:
        """The ``(n, 2)`` codes in ``table`` of each pair's two stimuli, found
        by key; -1 for a stimulus that ``table`` does not hold."""
        get = table.codes.get
        ends = [
            np.fromiter(map(get, zip(self.content_id, recipes), itertools.repeat(-1)), np.intp,
                        len(self))
            for recipes in (self.recipe_x, self.recipe_y)
        ]
        return np.column_stack(ends)


#: ln Gamma(1/2) = ln sqrt(pi).
LN_SQRT_PI = 0.5 * math.log(math.pi)

#: ln(Gamma(z + 1/2) / Gamma(z)) - (ln z) / 2 ~ sum of c_k z**(1 - 2k), k = 1..8,
#: with c_k = (2**(1 - n) - 2) B_n / (n (n - 1)), n = 2k, B_n the Bernoulli
#: numbers.  At z >= 8 the first term left out is below 2e-16.
GAMMA_RATIO_SERIES = (-1 / 8, 1 / 192, -1 / 640, 17 / 14336, -31 / 18432, 691 / 180224,
                      -5461 / 425984, 929569 / 15728640)

#: The continued fraction's pass limit, which bounds its work.  A lane leaves
#: once a pass changes its value by a factor within CF_TOL of 1; for any t
#: and df from 1 to 1e10 that takes at most 73 passes (at df near 3000).
CF_PASSES = 100
CF_TOL = 2 * np.finfo(float).eps


def _ln_gamma_ratio(a: np.ndarray) -> np.ndarray:
    """ln(Gamma(a + 1/2) / Gamma(a)) for a > 0: the ratio at z = a + j >= 8
    by :data:`GAMMA_RATIO_SERIES`, times the j factors (a + i) / (a + i + 1/2)
    of its recurrence.  No difference of two ln Gamma values is formed."""
    z, prod = a, np.ones_like(a)
    for _ in range(8):  # from any a > 0, eight steps pass 8
        low = z < 8.0
        prod = np.where(low, prod * (z / (z + 0.5)), prod)
        z = np.where(low, z + 1.0, z)
    w, series = 1.0 / (z * z), 0.0
    for c in reversed(GAMMA_RATIO_SERIES):
        series = c + w * series
    return 0.5 * np.log(z) + series / z + np.log(prod)


def _cont_frac(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The continued fraction f of I_x(a, b) = x**a (1 - x)**b f / (a B(a, b))
    by the modified Lentz method (Numerical Recipes, section 6.4), one lane
    per element.  Each lane leaves the loop at its own convergence, so its
    value does not depend on the other lanes."""
    fpmin = 1e-300  # a denominator that reaches 0 is moved off it
    out, lanes = np.empty_like(x), np.arange(len(x))
    c = np.ones_like(x)
    d = 1.0 - (a + b) * x / (a + 1.0)
    d = h = 1.0 / np.where(np.abs(d) < fpmin, fpmin, d)
    for m in range(1, CF_PASSES + 1):
        if not len(lanes):
            break
        for num in (m * (b - m) * x / ((a + (2 * m - 1)) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + (2 * m + 1)))):
            d = 1.0 + num * d
            d = 1.0 / np.where(np.abs(d) < fpmin, fpmin, d)
            c = 1.0 + num / c
            c = np.where(np.abs(c) < fpmin, fpmin, c)
            delta = d * c
            h = h * delta
        done = np.abs(delta - 1.0) <= CF_TOL
        if done.any():
            out[lanes[done]] = h[done]
            lanes, a, b, x, c, d, h = (v[~done] for v in (lanes, a, b, x, c, d, h))
    out[lanes] = h
    return out


def _two_sided_p(t: np.ndarray, df: np.ndarray) -> np.ndarray:
    """The Student-t mass beyond +-t at df degrees of freedom, for arrays:
    I_x(df/2, 1/2) with x = df / (df + t**2).  Where x > (a + 1) / (a + 2.5),
    a = df/2, it is 1 - I_y(1/2, a), with y = t**2 / (df + t**2) formed as
    such, not as 1 - x.  p is 1 at t = 0, 0 at t = +-inf and NaN where df <= 0
    or either is NaN; it raises on none of these."""
    with np.errstate(all="ignore"):
        tt = t * t
        p = np.select([~(df > 0.0), tt == 0.0, tt == np.inf], [np.nan, 1.0, 0.0], np.nan)
        live = (df > 0.0) & (tt > 0.0) & (tt < np.inf)
        n, tt = df[live], tt[live]
        a = 0.5 * n
        x, y = n / (n + tt), tt / (n + tt)
        swap = x > (a + 1.0) / (a + 2.5)
        f = _cont_frac(np.where(swap, 0.5, a), np.where(swap, a, 0.5), np.where(swap, y, x))
        # x**a y**(1/2) / B(a, 1/2), by logs; ln x as -log1p(t**2 / df)
        front = f * np.exp(0.5 * np.log(y) - a * np.log1p(tt / n) + _ln_gamma_ratio(a) - LN_SQRT_PI)
        p[live] = np.where(swap, 1.0 - 2.0 * front, front / a)
    return p


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
    recipe_y, as one :class:`PairTable`.

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
                      p, p < alpha)
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
    recipes = zip(itertools.count(), table.columns[1], table.columns[2])
    ordered = next((i for i, x, y in recipes if x >= y), len(table.lines))
    try:  # the rows before the first one out of order, which may repeat a pair
        pairs = PairTable(*(column[:ordered] for column in table.columns))
    except CorpusError as exc:
        raise table.error(exc.message, exc.row[1]) from None
    if ordered < len(table.lines):
        raise table.error(f"recipe_y {table.columns[2][ordered]!r} does not sort after "
                          f"recipe_x {table.columns[1][ordered]!r}", ordered, "recipe_y")
    return pairs
