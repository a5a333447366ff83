"""Sub-quality range decomposition of the VMAF axis and pair assignment.

A decomposition splits (lo, 100] into contiguous half-open intervals
``(lo, hi]``.  Three strategies are provided:

* ``balanced`` -- boundaries at empirical quantiles so each range holds the
  same number of stimuli (+/- 1).  Ties go to the lower range.  The lowest
  bound sits an epsilon below the smallest VMAF so that stimulus is covered
  despite the exclusive lower edge; the top bound is forced to 100.  The
  quantiles come from the corpus's VMAF column, ``corpus.ratings.vmaf``: one
  sort, one cumulative sum of the weights and one ``np.searchsorted``.
* ``fixed_width`` -- equal-width bins over (0, 100].
* ``explicit`` -- caller-supplied boundaries, kept verbatim; they must be
  finite and strictly increasing.

Each strategy's settings are one frozen class, :class:`Balanced`,
:class:`FixedWidth` or :class:`Explicit`, listed by name in
:data:`STRATEGIES`.  Its ``validate()`` is the rule that a flag, a config
file, ``ranges.json`` and the ``decompose_*`` functions all check.

A pair belongs to every range containing either of its endpoints, so a pair
spanning a boundary is counted in both ranges (and the total pair multiplicity
lies between n_pairs and 2*n_pairs).  :func:`assign_pairs` is an array
program over the pair table, which lists each pair once: it finds both
endpoints of every pair in the corpus by key, reads their VMAF and locates
them all in one call of :meth:`Decomposition.locate`, the one range rule that
every lookup goes through.
"""

from __future__ import annotations

import logging
import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import ClassVar, get_args

import numpy as np

from . import tableio
from .corpus import Corpus
from .significance import PairTable

log = logging.getLogger(__name__)

#: Margin below the smallest VMAF used for the lowest balanced bound.
LOW_EDGE_EPSILON = 1e-9

BALANCES = ("stimuli", "pairs")
#: The most ranges a fixed width may make: each range is fitted, so the work
#: grows as 100 / width.  A |dVMAF| bin width is bounded the same way.
MAX_FIXED_RANGES = 1000


def _fmt_bound(value: float, digits: int = 6) -> str:
    return f"{value:.{digits}g}"


@dataclass(frozen=True)
class SubQualityRange:
    lo: float  # exclusive
    hi: float  # inclusive
    range_id: str
    pair_refs: tuple[str, ...] = ()


@dataclass(frozen=True)
class Decomposition:
    strategy: str
    ranges: tuple[SubQualityRange, ...]

    def __post_init__(self) -> None:
        for prev, nxt in zip(self.ranges, self.ranges[1:]):
            if prev.hi != nxt.lo:
                raise ValueError(
                    f"ranges not contiguous: {prev.range_id} then {nxt.range_id}"
                )
    @property
    def bounds(self) -> list[float]:
        return [self.ranges[0].lo] + [r.hi for r in self.ranges]

    @property
    def coverage(self) -> tuple[float, float]:
        return self.ranges[0].lo, self.ranges[-1].hi

    def range_ids(self) -> list[str]:
        return [r.range_id for r in self.ranges]

    def locate(self, vmaf: float | Sequence[float] | np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The index of the range ``(lo, hi]`` holding each ``vmaf`` (a number
        or an array), and whether it lies outside the coverage; then the first
        range at or below the lowest bound, else (NaN too) the last."""
        vmaf = np.asarray(vmaf, dtype=float)
        lo, hi = self.coverage
        index = np.searchsorted([r.hi for r in self.ranges], vmaf)
        return np.minimum(index, len(self.ranges) - 1), ~((lo < vmaf) & (vmaf <= hi))

    def uncovered(self, vmaf: float) -> KeyError:
        """The error for a ``vmaf`` that no range holds."""
        lo, hi = self.coverage
        return KeyError(f"vmaf {vmaf} outside coverage ({lo}, {hi}]")


def _build(strategy: str, bounds: list[float]) -> Decomposition:
    ids = [f"({_fmt_bound(lo)},{_fmt_bound(hi)}]" for lo, hi in zip(bounds, bounds[1:])]
    digits = 6
    while len(set(ids)) != len(ids) and digits < 17:
        digits += 2
        ids = [
            f"({_fmt_bound(lo, digits)},{_fmt_bound(hi, digits)}]"
            for lo, hi in zip(bounds, bounds[1:])
        ]
    ranges = tuple(
        SubQualityRange(lo=lo, hi=hi, range_id=rid)
        for lo, hi, rid in zip(bounds, bounds[1:], ids)
    )
    return Decomposition(strategy=strategy, ranges=ranges)


def check_width(width: float, name: str = "width", parts: str = "ranges") -> None:
    """Raise ValueError, its message starting with ``name``, unless ``width``
    is positive and finite and splits [0, 100] into at most
    ``MAX_FIXED_RANGES`` ``parts``: the rule of the fixed range width and of
    the |dVMAF| bin width alike."""
    if not 0.0 < width < math.inf:
        raise ValueError(f"{name}: must be positive and finite, got {width}")
    count = 100.0 / width
    if count > MAX_FIXED_RANGES:
        shown = math.ceil(count) if count < 1e15 else f"{count:.3g}"
        raise ValueError(f"{name}: {width} makes {shown} {parts}, more than {MAX_FIXED_RANGES}")


# -- strategy settings ---------------------------------------------------------
#
# One frozen class per strategy holds the settings that strategy reads and no
# other.  ``validate()`` raises ValueError for a setting out of range, its
# message starting with the setting's name; ``decompose(corpus)`` runs the
# strategy through this module's ``decompose_*`` function.


@dataclass(frozen=True)
class Balanced:
    """``k`` ranges of near-equal stimulus (or, with ``balance="pairs"``,
    pair) counts."""

    strategy: ClassVar[str] = "balanced"
    k: int = 5
    balance: str = "stimuli"

    def validate(self) -> None:
        if self.k < 2:
            raise ValueError(f"k: must be >= 2, got {self.k}")
        if self.balance not in BALANCES:
            raise ValueError(f"balance: must be 'stimuli' or 'pairs', got {self.balance!r}")

    def decompose(self, corpus: Corpus) -> Decomposition:
        return decompose_balanced(corpus, self.k, self.balance)


@dataclass(frozen=True)
class FixedWidth:
    """Ranges of one ``width`` over (0, 100]: at most ``MAX_FIXED_RANGES``."""

    strategy: ClassVar[str] = "fixed_width"
    width: float = 10.0

    def validate(self) -> None:
        check_width(self.width)

    def decompose(self, corpus: Corpus) -> Decomposition:
        return decompose_fixed(self.width, corpus)


@dataclass(frozen=True)
class Explicit:
    """Ranges between the given ``bounds``: two or more, finite and strictly
    increasing."""

    strategy: ClassVar[str] = "explicit"
    bounds: tuple[float, ...] = ()

    def validate(self) -> None:
        bounds = list(self.bounds)
        if len(bounds) < 2:
            raise ValueError(f"bounds: need at least two, got {bounds}")
        if not all(map(math.isfinite, bounds)):
            raise ValueError(f"bounds: must be finite, got {bounds}")
        if any(not b2 > b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError(f"bounds: must be strictly increasing, got {bounds}")

    def decompose(self, corpus: Corpus) -> Decomposition:
        return decompose_explicit(list(self.bounds))


#: One strategy's settings, as a config's ``decomposition`` holds them.
Strategy = Balanced | FixedWidth | Explicit
#: Each strategy's settings class by its name.
STRATEGIES = {kind.strategy: kind for kind in get_args(Strategy)}


def decompose_balanced(corpus: Corpus, k: int, balance: str = "stimuli") -> Decomposition:
    """Split the VMAF axis into ``k`` ranges with near-equal stimulus counts.

    ``balance="pairs"`` weights each stimulus by the number of within-content
    pairs it participates in, approximately equalizing pair membership
    instead.
    """
    Balanced(k, balance).validate()
    table = corpus.ratings
    if not len(table.vmaf):
        raise ValueError("corpus has no stimuli")
    order = np.argsort(table.vmaf, kind="stable")
    values = table.vmaf[order]
    distinct = len(tableio.distinct(values))
    if distinct < k:
        raise ValueError(f"need at least {k} distinct VMAF values, got {distinct}")
    if balance == "stimuli":
        weights = np.ones(len(values))
    else:
        sizes = [len(codes) for codes in table.content_codes.values()]
        weights = np.repeat(np.subtract(sizes, 1.0), sizes)[order]
    # A boundary lands on the first value whose cumulative weight reaches each
    # weight quantile.  The weights are whole numbers, so the sums are exact,
    # and a tie block ends on the same sum whatever the order inside it.
    acc = np.cumsum(weights)
    cuts = values[np.searchsorted(acc, np.arange(1, k) * acc[-1] / k)]
    decomp = _build("balanced", [float(values[0]) - LOW_EDGE_EPSILON, *cuts.tolist(), 100.0])
    for r, held in zip(decomp.ranges, _held(decomp, values)):
        if not r.lo < r.hi:
            raise ValueError(
                f"tied VMAF values prevent {k} non-empty balanced ranges "
                f"(boundary collision at {r.lo})"
            )
        if not held:
            raise ValueError(
                f"tied VMAF values leave balanced range ({r.lo},{r.hi}] without stimuli"
            )
    return decomp


def _held(decomp: Decomposition, values: Sequence[float]) -> list[int]:
    """How many of ``values`` each range of ``decomp`` holds."""
    index, outside = decomp.locate(values)
    return np.bincount(index[~outside], minlength=len(decomp.ranges)).tolist()


def decompose_fixed(width: float, corpus: Corpus | None = None) -> Decomposition:
    """Equal-width ranges covering (0, 100]; the top range is clipped at 100.
    Given a corpus, one warning counts the ranges that hold none of its
    stimuli and names the first and last three."""
    FixedWidth(width).validate()
    n = math.ceil(100.0 / width)
    bounds = [min(i * width, 100.0) for i in range(n)] + [100.0]
    decomp = _build("fixed_width", bounds)
    if corpus is not None:
        held = _held(decomp, corpus.ratings.vmaf)
        empty = [r.range_id for r, count in zip(decomp.ranges, held) if not count]
        if empty:
            shown = empty if len(empty) <= 6 else [*empty[:3], "...", *empty[-3:]]
            log.warning(
                "%d fixed-width range(s) hold no stimuli: %s", len(empty), ", ".join(shown)
            )
    return decomp


def decompose_explicit(bounds: list[float]) -> Decomposition:
    """Ranges from caller-supplied boundaries, e.g. [30, 79, 86, 90, 95, 100]."""
    Explicit(tuple(bounds)).validate()
    return _build("explicit", [float(b) for b in bounds])


def assign_pairs(pairs: PairTable, decomp: Decomposition, corpus: Corpus) -> Decomposition:
    """Attach pair ids to every range containing either pair endpoint.

    Idempotent and independent of the order of ``pairs``; re-assignment
    replaces any previous refs.  Each range's refs are sorted by pair id.
    """
    table = corpus.ratings
    codes = pairs.endpoint_codes(table)
    vmaf = np.append(table.vmaf, np.nan)[codes]  # code -1 (unknown) reads NaN
    where, outside = decomp.locate(vmaf)
    if outside.any():
        i, end = divmod(int(np.argmax(outside)), 2)
        content_id, recipe = pairs.content_id[i], (pairs.recipe_x, pairs.recipe_y)[end][i]
        value = corpus.stimulus(content_id, recipe).vmaf  # KeyError for an unknown stimulus
        raise ValueError(
            f"stimulus {content_id}/{recipe} (vmaf {value}) lies outside "
            f"the decomposition coverage {decomp.coverage}"
        )
    ids = pairs.pair_ids
    order = sorted(range(len(ids)), key=ids.__getitem__)
    sorted_ids, where = np.array([ids[i] for i in order], dtype=object), where[order]
    refs = [tuple(sorted_ids[(where == k).any(axis=1)].tolist())
            for k in range(len(decomp.ranges))]
    new_ranges = tuple(replace(r, pair_refs=ref) for r, ref in zip(decomp.ranges, refs))
    assigned = sum(len(r.pair_refs) for r in new_ranges)
    log.info(
        "assigned %d pairs with total multiplicity %d across %d ranges",
        len(pairs),
        assigned,
        len(new_ranges),
    )
    return Decomposition(strategy=decomp.strategy, ranges=new_ranges)


# -- serialization ----------------------------------------------------------


@dataclass(frozen=True)
class _RangesJson:
    """A :class:`Decomposition` as ``ranges.json`` holds it."""

    strategy: str
    bounds: tuple[float, ...]
    assignments: dict[str, tuple[str, ...]] = field(default_factory=dict)


def decomposition_to_json_dict(decomp: Decomposition) -> dict:
    return tableio.to_json(_RangesJson(decomp.strategy, tuple(decomp.bounds),
                                       {r.range_id: r.pair_refs for r in decomp.ranges}))


def decomposition_from_json_dict(data: object) -> Decomposition:
    read = tableio.from_json(_RangesJson, data)
    if read.strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {read.strategy!r}; expected one of {tuple(STRATEGIES)}")
    Explicit(read.bounds).validate()
    decomp = _build(read.strategy, list(read.bounds))
    unknown = sorted(read.assignments.keys() - set(decomp.range_ids()))
    if unknown:
        raise ValueError(f"assignments: {len(unknown)} key(s) name no range of the bounds, "
                         f"e.g. {unknown[:3]}")
    for range_id, refs in read.assignments.items():
        repeated = [ref for ref, count in Counter(refs).items() if count > 1]
        if repeated:
            raise ValueError(f"assignments/{range_id}: pair {repeated[0]!r} is listed twice")
    ranges = tuple(replace(r, pair_refs=read.assignments.get(r.range_id, ()))
                   for r in decomp.ranges)
    return Decomposition(strategy=decomp.strategy, ranges=ranges)


def read_ranges_json(path: str | Path) -> Decomposition:
    return tableio.read_json(path, decomposition_from_json_dict)
