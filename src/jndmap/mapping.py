"""Co-distributions of significant/similar pairs and mapping-function fits.

For one sub-quality range, pairs assigned to it are histogrammed over shared
|dVMAF| bins twice: ``f_dif`` counts significantly different pairs, ``f_sim``
the rest.  The range's pairs are one row-index array into the
:class:`~jndmap.significance.PairTable`, and each count is one
``np.histogram`` over its |dVMAF| column.  The per-bin probability of a
perceived difference is then

    p_sd = f_dif / (f_dif + f_sim)

and the (bin center, p_sd) points of the non-empty bins -- weighted by bin
support, three arrays from :meth:`CoDistribution.points` -- are fitted by one
of four monotone curve families:

* ``logistic5``  p = b1*(0.5 - 1/(1+exp(b2*(d-b3)))) + b4*d + b5
* ``cubic4``     p = b1 + b2*d + b3*d**2 + b4*d**3
* ``logistic2``  p = 1/(1+exp(-b1*(d-b2)))
* ``glm``        p = 1/(1+exp(-(b0+b1*d)))   (binomial logit, IRLS)

Each family is defined once, by its entry in :data:`FAMILY_TABLE`: report
label, parameter count, minimum point count, curve, fitter and, for the
least-squares families, fit coordinates, analytic Jacobian and start points.
The table is the one place to add or change a family: ``FAMILIES``, the
config check, the artifact reader, the report labels and ``predict
--family`` all read it.

A fitted curve is read in one way: clamped into its domain and clipped to
[0, 1].  Every least-squares fit is non-decreasing on its domain by
construction, through one fit path: each family is fitted in coordinates in
which every point gives a non-decreasing curve, by one batched, unbounded
Levenberg-Marquardt solve per family (:func:`least_squares`).  Every start
of every range is one lane of that solve, of at most ``LSQ_MAX_NFEV``
function evaluations (a fit whose best start stops there is flagged
``budget``).  Sums over points run in point order, so a lane's iterates
depend on nothing but its own inputs, and a range's fit does not depend on
the batch it is solved in: ``fit_mapping`` on one range gives what
``fit_all`` gives for it.  The fit coordinates are:

* ``logistic5`` in (a1, a2, b3, a4, b5) with b1 = a1**2, b2 = a2**2 and
  b4 = a4**2, so its slope b1*b2*s*(1-s) + b4 is never negative;
* ``logistic2`` in (a1, b2) with b1 = a1**2;
* ``cubic4`` in Lukacs coordinates, each of which gives a cubic that does
  not decrease on the domain (see :class:`_Cubic4`).

A least-squares fit that rises by no more than ``FLAT_RISE`` over its domain
is rejected, flagged ``flat``: that is all a monotone curve can make of a
decreasing trend.  Fits are accepted only if the curve, clipped to [0, 1], is
non-decreasing on a 1000-point grid over its domain; for the least-squares
families this check is a safety net, and for ``glm`` it is the rule.  The
pairwise ``glm`` fits the table's |dVMAF| and sig columns at the range's rows;
the points ``glm`` fits them as grouped binomial data.  The GLM decides
separation from its data, once, before any iteration.  Labels of one kind are
pinned flat (``constant_labels``).  Labels that do not overlap -- every
non-difference at or below every difference, or the reverse -- have no finite
MLE, so the fit is a step of slope +-``IRLS_SLOPE_CAP`` that crosses 0.5 at
the middle of their gap (``separation``, 0 iterations).  Only labels that
overlap, whose MLE is finite, reach IRLS; its closed-form 2x2 steps over point
sums call no BLAS, and ``IRLS_MAX_ITER`` bounds its work.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from itertools import repeat
from pathlib import Path

import numpy as np

from . import tableio
from .errors import CorpusError, FitError
from .ranges import Decomposition, SubQualityRange, check_width
from .significance import PairTable

log = logging.getLogger(__name__)

#: How ``fit_all`` feeds the GLM: every assigned pair, or the binned p_sd points.
GLM_MODES = ("pairwise", "points")

MONOTONE_GRID_POINTS = 1000
MONOTONE_SLACK = 1e-9
# a bounded curve that rises by no more than this over its domain is rejected
# as flat: it spans at most one step of the default threshold grid
FLAT_RISE = 0.05
IRLS_MAX_ITER = 100
# the |slope| of a separated GLM fit's step, and the |intercept| of a
# constant-labels fit
IRLS_SLOPE_CAP = 50.0
CURVE_SAMPLES = 200


@dataclass(frozen=True)
class CoDistribution:
    range_id: str
    bin_edges: tuple[float, ...]
    f_dif: tuple[int, ...]
    f_sim: tuple[int, ...]

    @property
    def n_bins(self) -> int:
        return len(self.f_dif)

    def points(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The fit's points: the bin center, f_dif/(f_dif+f_sim) and the
        support of each non-empty bin, as three arrays."""
        edges, f_dif = np.asarray(self.bin_edges), np.asarray(self.f_dif, dtype=float)
        support = f_dif + self.f_sim
        kept = support > 0
        return 0.5 * (edges[:-1] + edges[1:])[kept], f_dif[kept] / support[kept], support[kept]


#: codist.csv: one row per bin.  ``p_sd`` is f_dif / (f_dif + f_sim), empty
#: for an empty bin; the reader rebuilds it from the counts.
CODIST_TABLE: tableio.Schema = {
    "range_id": tableio.text,
    "bin_lo": tableio.number,
    "bin_hi": tableio.number,
    "f_dif": tableio.within(int, 0, math.inf),
    "f_sim": tableio.within(int, 0, math.inf),
    "p_sd": str,
}
#: curve_samples.csv: ``CURVE_SAMPLES`` points of each fitted curve.
CURVE_TABLE: tableio.Schema = {
    "range_id": tableio.text,
    "family": tableio.text,
    "delta_obj": tableio.number,
    "p_sd": tableio.number,
}


@dataclass(frozen=True)
class FitReport:
    residual_norm: float
    monotone: bool
    iterations: int
    flags: tuple[str, ...] = ()
    extras: dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class MappingFunction:
    family: str
    params: tuple[float, ...]
    domain: tuple[float, float]
    fit_report: FitReport


@dataclass(frozen=True)
class Family:
    """One curve family: an entry of :data:`FAMILY_TABLE`.

    ``curve(params, x)`` is p at ``x``.  ``fit_ranges(problems)`` fits each
    problem (x, y, w, pairs, domain): the points (x, y) with weights w, and
    the range's (|dVMAF|, sig) pair columns for the pairwise GLM.  Per
    problem it returns the params, whether the curve is monotone, the
    iterations, the flags and the extras of the fit report, or the
    :class:`FitError` that stands for a failed fit.
    """

    name: str
    label: str  # short label in report tables
    n_params: int
    min_points: int

    def fit_ranges(self, problems: list[tuple]) -> list:
        """One ``fit(x, y, w, pairs, domain)`` per problem."""
        results = []
        for problem in problems:
            try:
                results.append(self.fit(*problem))
            except FitError as exc:
                results.append(exc)
        return results


# -- curves ------------------------------------------------------------------


def _sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


def _clipped_curve(family: str, params, domain: tuple, x: np.ndarray) -> np.ndarray:
    """The curve at ``x`` clamped into ``domain``, clipped to [0, 1]: the one
    reading of a fitted curve."""
    return family_spec(family).curve(np.asarray(params), x.clip(*domain)).clip(0.0, 1.0)


def evaluate_mf(mf: MappingFunction, delta_obj: float) -> float:
    """Evaluate the fitted curve at ``delta_obj``, clamped to domain and [0, 1]."""
    return float(_clipped_curve(mf.family, mf.params, mf.domain, np.array([delta_obj], float))[0])


def is_monotone(family: str, params: np.ndarray, domain: tuple[float, float]) -> bool:
    grid = np.linspace(domain[0], domain[1], MONOTONE_GRID_POINTS)
    return bool(np.all(np.diff(_clipped_curve(family, params, domain, grid)) >= -MONOTONE_SLACK))


# -- co-distribution ---------------------------------------------------------


def build_codistribution(
    srange: SubQualityRange, pairs: PairTable, bin_width: float = 2.0
) -> CoDistribution:
    """Histogram the range's pairs over shared |dVMAF| bins, split by sig bit.

    ``pairs`` may be the full pair table; only those referenced by the range
    are counted.  Bins run from 0 to the smallest multiple of ``bin_width``
    covering ceil(max |dVMAF|); each pair lands in exactly one bin.  The
    width is checked as a fixed range width is, for at most
    ``MAX_FIXED_RANGES`` bins over [0, 100].
    """
    check_width(bin_width, "bin_width", "bins")
    rows = _rows_in_range(srange, pairs)
    deltas, sig = pairs.delta_obj[rows], pairs.sig[rows].astype(bool)
    top = math.ceil(float(deltas.max()))
    n_bins = max(1, math.ceil(top / bin_width)) if top > 0 else 1
    edges = np.arange(n_bins + 1, dtype=float) * bin_width
    f_dif, _ = np.histogram(deltas[sig], bins=edges)
    f_sim, _ = np.histogram(deltas[~sig], bins=edges)
    return CoDistribution(
        range_id=srange.range_id,
        bin_edges=tuple(edges.tolist()),
        f_dif=tuple(f_dif.tolist()),
        f_sim=tuple(f_sim.tolist()),
    )


def _rows_in_range(srange: SubQualityRange, table: PairTable) -> np.ndarray:
    """The rows of the pairs the range references, ascending; a ValueError
    when it references none, a pair not in ``table`` or a pair twice."""
    refs = srange.pair_refs
    if not refs:
        raise ValueError(f"range {srange.range_id} has no assigned pairs")
    index = table.index
    missing = [ref for ref in refs if ref not in index]
    if missing:
        raise ValueError(
            f"range {srange.range_id} references {len(missing)} pair(s) not in the "
            f"given list, e.g. {sorted(missing)[:3]}"
        )
    rows = np.sort(np.fromiter(map(index.__getitem__, refs), np.intp, len(refs)))
    repeated = rows[1:][rows[1:] == rows[:-1]]
    if repeated.size:
        ref = table.pair_ids[repeated[0]]
        raise ValueError(f"range {srange.range_id} lists pair {ref!r} twice")
    return rows


# -- least-squares families --------------------------------------------------


#: The stop tolerance of ``least_squares``: on the relative fall of the cost
#: in an accepted step, on the scaled step relative to the scaled point, and
#: on the cosine between the residuals and each Jacobian column.
LSQ_TOL = 1e-12


@dataclass(frozen=True)
class LsqSolution:
    """The end of one ``least_squares`` call, lane by lane: the points ``x``
    (params x lanes), half the sum of squared residuals at each, the residual
    evaluations each lane spent (``lane_nfev``; ``nfev`` is their total), and
    ``status``: 0 when the lane stopped on its evaluation budget, 1 when it
    converged and -1 when its residuals were not finite at the start."""

    x: np.ndarray
    cost: np.ndarray
    nfev: int
    lane_nfev: np.ndarray
    status: np.ndarray


def _point_sum(terms: np.ndarray) -> np.ndarray:
    """The sum of ``terms`` over its first axis, the points, in point order
    whatever the other axes' sizes, so that zero terms after the last point
    leave it unchanged.  (``sum(axis=0)`` runs in that order over an axis
    with other axes beside it, but pairwise over an axis alone.)"""
    return np.add.accumulate(terms, axis=0)[-1]


def _normal_matrix(J: np.ndarray) -> np.ndarray:
    """J'J of a Jacobian (points, params, lanes), lane by lane: one point
    sum per pair of columns, so no temporary holds points x lanes x params**2."""
    n = J.shape[1]
    A = np.empty((n, n, J.shape[2]))
    for j in range(n):
        for k in range(j + 1):
            A[j, k] = A[k, j] = _point_sum(J[:, j] * J[:, k])
    return A


def least_squares(fun, x0: np.ndarray, jac, max_nfev: int) -> LsqSolution:
    """Minimise 0.5 * |fun(x)|**2 by Levenberg-Marquardt from each column
    (lane) of ``x0``, params x lanes, with the analytic Jacobian ``jac`` and
    at most ``max_nfev`` evaluations of ``fun`` per lane.

    ``fun`` maps params x lanes to residuals (points, lanes), and ``jac`` to
    (points, params, lanes); each lane's values must depend on that lane
    alone.  The lanes advance in lockstep, one trial step each per pass, and
    each keeps its own damping, column scaling, budget and stop tests.  A
    step solves the damped normal equations (J'J + lam * D) s = -J'f, where
    D is the running maximum of diag(J'J), as in MINPACK's ``lmder``, and
    lam follows the gain ratio of the last step (Nielsen's rule).  A
    factorisation that fails spends one unit of the budget, as an
    evaluation does, so the loop makes at most ``max_nfev`` passes.

    Every sum runs in a fixed order: over points in point order, over
    params in a Python loop, and the Cholesky solve element by element.  So
    a lane's iterates depend on nothing but its own inputs: not on the heap
    (scipy 1.17.1's MINPACK, ``least_squares(method="lm")``, took different
    iterates for the same residuals and Jacobians when the process's heap
    was laid out differently), not on the other lanes, and not on zero
    residuals after its points.  A lane whose residuals at the start are not
    finite spends no evaluation and ends at its start with status -1 and an
    infinite cost.
    """
    x = np.array(x0, dtype=float)
    f = fun(x)
    finite = np.isfinite(f).all(axis=0)
    x, f = np.where(finite, x, 0.0), np.where(finite, f, 0.0)
    cost = 0.5 * _point_sum(f * f)
    J = jac(x)
    n, lanes = x.shape
    nfev, tries = finite.astype(int), finite.astype(int)
    status = np.where(finite, 1, -1)
    active, fresh = finite.copy(), finite.copy()
    lam, grow = np.full(lanes, 1e-3), np.full(lanes, 2.0)
    # the damped system in the scaled step z = root * s, with unit diagonal damping
    scale, root, scaled = np.zeros((n, lanes)), np.ones((n, lanes)), np.zeros((n, n, lanes))
    rhs, size = np.zeros((n, lanes)), np.zeros(lanes)
    while True:
        if fresh.any():  # lanes that moved: the normal equations at their new point
            A = _normal_matrix(J)
            g = _point_sum(J * f[:, None])
            scale = np.where(fresh, np.maximum(scale, np.diagonal(A).T), scale)
            root = np.where(fresh, np.sqrt(np.where(scale > 0.0, scale, 1.0)), root)
            stationary = (np.abs(g) / root).max(axis=0) <= LSQ_TOL * np.sqrt(2.0 * cost)
            active &= ~(fresh & (~(cost > 0.0) | stationary))
            scaled = np.where(fresh, A / root[:, None] / root, scaled)
            rhs = np.where(fresh, -g / root, rhs)
            size = np.where(fresh, np.sqrt(sum(v * v for v in root * x)), size)
        spent = active & (tries >= max_nfev)
        status[spent] = 0
        active &= ~spent
        if not active.any():
            break
        damping = np.where(active, lam, 1.0)  # a stopped lane's lam may be inf
        z, solved = _solve_damped(scaled, rhs, damping)
        solved &= active
        trial = x + np.where(solved, z / root, 0.0)
        f_trial = fun(trial)
        nfev += solved
        tries += active
        cost_trial = 0.5 * _point_sum(f_trial * f_trial)
        small = solved & (np.sqrt(sum(v * v for v in z)) <= LSQ_TOL * (size + LSQ_TOL))
        better = solved & (cost_trial < cost)
        # the fall the damped model predicts, 0.5 * s'(lam * D s - g)
        predicted = 0.5 * sum(v * (damping * v + r) for v, r in zip(z, rhs))
        fall = cost - cost_trial
        positive = predicted > 0.0
        gain = np.where(positive, fall / np.where(positive, predicted, 1.0), 1.0)
        t = 2.0 * gain - 1.0
        lam = np.where(better, lam * np.maximum(1.0 / 3.0, 1.0 - t * t * t), lam)
        grow = np.where(better, 2.0, grow)
        x = np.where(better, trial, x)
        f = np.where(better, f_trial, f)
        cost = np.where(better, cost_trial, cost)
        if better.any():
            J = jac(x)
        refused = active & ~better
        with np.errstate(over="ignore"):  # lam runs to inf when no step lowers the cost
            lam = np.where(refused, lam * grow, lam)
        grow = np.where(refused, grow * 2.0, grow)
        active &= ~(better & (small | (fall <= LSQ_TOL * (cost + fall))))
        active &= ~(refused & (small | ~np.isfinite(lam)))
        fresh = better & active
    return LsqSolution(np.where(finite, x, x0), np.where(finite, cost, np.inf),
                       int(nfev.sum()), nfev, status)


def _solve_damped(
    a: np.ndarray, b: np.ndarray, lam: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The solution z of (a + lam * I) z = b by Cholesky, lane by lane, for
    symmetric positive semi-definite ``a`` (params x params x lanes), ``b``
    (params x lanes) and ``lam`` (lanes); and whether each lane's pivots were
    all positive, as z means nothing where they were not.  Each lane takes
    the operations of a scalar Cholesky, in the same order."""
    n = len(b)
    solved = np.ones(len(lam), dtype=bool)
    low: list[list] = [[None] * n for _ in range(n)]
    for j in range(n):
        row = low[j]
        pivot = a[j, j] + lam
        for k in range(j):
            pivot = pivot - row[k] * row[k]
        positive = pivot > 0.0
        solved &= positive
        row[j] = diag = np.sqrt(np.where(positive, pivot, 1.0))
        for i in range(j + 1, n):
            other = low[i]
            v = a[i, j]
            for k in range(j):
                v = v - other[k] * row[k]
            other[j] = v / diag
    y: list = [None] * n
    for i in range(n):
        v = b[i]
        for k in range(i):
            v = v - low[i][k] * y[k]
        y[i] = v / low[i][i]
    z: list = [None] * n
    for i in reversed(range(n)):
        v = y[i]
        for k in range(i + 1, n):
            v = v - low[k][i] * z[k]
        z[i] = v / low[i][i]
    return np.array(z), solved


class _LeastSquaresFamily(Family):
    """Fitted by least squares over fit coordinates theta, from
    ``starts(x, y)``, with the analytic ``jacobian(theta, x, domain)``, d p /
    d theta.  ``to_params(theta, domain)`` maps theta to the family's params.
    All three take a lane axis: theta (params, lanes), x (points, lanes) and
    domain ends (lanes), with a Jacobian (points, params, lanes).

    Every theta gives a curve that does not decrease on the domain, so each
    start is one lane of an unbounded Levenberg-Marquardt solve
    (:func:`least_squares`), of at most ``LSQ_MAX_NFEV`` function
    evaluations, and one solve holds every start of every range.  Each range
    is padded to the longest range's point count with zero-weight points; as
    the solver sums over points in point order, the padding adds exact zeros
    and a range's fit does not depend on the other ranges of its solve.  The
    logistics
    square their sign-constrained parameters, and cubic4 fits in Lukacs
    coordinates.  A start coordinate that would be zero is a tiny positive
    value instead, so that no Jacobian column starts at zero.
    """

    def fit_ranges(self, problems: list[tuple]) -> list:
        """Least squares from every start of every problem, in one call; per
        problem, its lowest-cost start wins.  The fit is flagged ``budget``
        when the winning start stopped on ``LSQ_MAX_NFEV``; it is still
        monotone, so it stays usable.  The curve is rejected, flagged
        ``flat``, when it rises by no more than ``FLAT_RISE`` over the
        domain: a monotone fit must not turn hopeless data, such as a
        decreasing trend, into a usable flat curve.  The monotone check
        still runs on the clipped curve, as a safety net.  The problems'
        ``pairs`` are not used."""
        if not problems:
            return []
        starts = [self.starts(x, y) for x, y, *_ in problems]
        counts = [len(s) for s in starts]
        size = max(len(x) for x, *_ in problems)

        def stacked(columns, mode: str) -> np.ndarray:
            """(points, lanes): each problem's column, padded, once per start."""
            padded = [np.pad(c, (0, size - len(c)), mode) for c in columns]
            return np.repeat(np.column_stack(padded), counts, axis=1)

        # padding points repeat the last point, with weight zero
        x = stacked([p[0] for p in problems], "edge")
        y = stacked([p[1] for p in problems], "edge")
        sw = stacked([np.sqrt(p[2]) for p in problems], "constant")
        domain = (0.0, np.repeat([p[4][1] for p in problems], counts))

        def residuals(theta: np.ndarray) -> np.ndarray:
            return sw * (self.curve(self.to_params(theta, domain), x) - y)

        def jac(theta: np.ndarray) -> np.ndarray:
            return sw[:, None] * self.jacobian(theta, x, domain)

        theta0 = np.column_stack([start for per_range in starts for start in per_range])
        sol = least_squares(residuals, theta0, jac=jac, max_nfev=LSQ_MAX_NFEV)
        results, first = [], 0
        for problem, count in zip(problems, counts):
            results.append(self._best(sol, range(first, first + count), problem[4]))
            first += count
        return results

    def _best(self, sol: LsqSolution, lanes: range, domain: tuple):
        """The fit of one problem from its lanes of ``sol``, or a FitError."""
        best = None
        for lane in lanes:
            if sol.status[lane] < 0:  # a bad start; others may work
                continue
            # strict tie-break in favour of the earlier start keeps the result deterministic
            if best is None or sol.cost[lane] < sol.cost[best] - 1e-15:
                best = lane
        if best is None:
            return FitError(f"{self.name}: no least-squares start converged")
        params = self.to_params(sol.x[:, best], domain)
        flags = ["budget"] if sol.status[best] == 0 else []
        monotone = is_monotone(self.name, params, domain)
        lo, hi = _clipped_curve(self.name, params, domain, np.asarray(domain, dtype=float))
        if hi - lo <= FLAT_RISE:
            monotone = False
            flags.append("flat")
        return params, monotone, int(sol.lane_nfev[lanes.start:lanes.stop].sum()), flags, {}


def _root(b: float) -> float:
    """The fit coordinate of a start value b >= 0 of a squared parameter;
    never zero, so that the parameter's Jacobian column is not zero."""
    return math.sqrt(max(b, 1e-10))


def _start_scales(x: np.ndarray, y: np.ndarray) -> tuple:
    """ymin, y range, mid level, slope scale, slopes and centers of the starts."""
    span = float(x.max() - x.min()) or 1.0
    ymin, ymax = float(y.min()), float(y.max())
    yrange = max(ymax - ymin, 0.05)
    # the transition center: halfway between the first point at or above
    # the mid level and the point before it
    mid_level = 0.5 * (ymin + ymax)
    first = int(np.nonzero(y >= mid_level)[0][0])
    x_mid = 0.5 * float(x[max(first - 1, 0)] + x[first])
    s0 = 4.0 * yrange / span
    slopes = [0.25 * s0, s0, 4.0 * s0, 16.0 * s0]
    centers = [x_mid, float(np.median(x))]
    return ymin, yrange, mid_level, s0, slopes, centers


class _Logistic5(_LeastSquaresFamily):
    """Fitted in theta = (a1, a2, b3, a4, b5), with b1 = a1**2, b2 = a2**2
    and b4 = a4**2: the slope b1*b2*s*(1-s) + b4 is never negative."""

    def curve(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        b1, b2, b3, b4, b5 = params
        s = _sigmoid(-b2 * (x - b3))  # equals 1/(1+exp(b2*(x-b3)))
        return b1 * (0.5 - s) + b4 * x + b5

    def to_params(self, theta: np.ndarray, domain: tuple[float, float]) -> np.ndarray:
        a1, a2, b3, a4, b5 = theta
        return np.array([a1 * a1, a2 * a2, b3, a4 * a4, b5])

    def jacobian(self, theta: np.ndarray, x: np.ndarray, domain: tuple) -> np.ndarray:
        a1, a2, b3, a4, _ = theta
        b1, b2 = a1 * a1, a2 * a2
        s = _sigmoid(-b2 * (x - b3))
        ss = s * (1.0 - s)
        return np.stack(
            [2.0 * a1 * (0.5 - s), 2.0 * a2 * b1 * ss * (x - b3), -b1 * b2 * ss,
             2.0 * a4 * x, np.ones_like(x)], axis=1
        )

    def starts(self, x: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
        # a2 = 0 is a stationary point of the squared coordinates: the b2 -> 0
        # plateau of a straight line.  So every start is steep, at the slope
        # 16*s0, and the transition is tried at the data's ends as well.
        ymin, yrange, mid_level, _, slopes, centers = _start_scales(x, y)
        a2 = _root(slopes[3])
        guesses = []
        for c in (*centers, float(x.min()), float(x.max())):
            guesses.append(np.array([_root(yrange), a2, c, _root(0.0), mid_level]))
            guesses.append(np.array([1.0, a2, c, _root(0.001), ymin]))
        return guesses


class _Cubic4(_LeastSquaresFamily):
    """Fitted in Lukacs coordinates theta = (c, u, v, w) over t = d / D, with
    D the domain end:

        p = c + u**2 t + (2uv + w**2) t**2 / 2 + (v**2 - w**2) t**3 / 3
        dp/dt = (u + v t)**2 + w**2 t (1 - t) >= 0

    These are exactly the cubics that do not decrease on [0, D] (Lukacs'
    theorem; Szego, *Orthogonal Polynomials*, Thm 1.21.1), so the fit needs
    no bounds.  ``to_params`` maps theta back to b1..b4."""

    def curve(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        b1, b2, b3, b4 = params
        return b1 + b2 * x + b3 * x**2 + b4 * x**3

    def to_params(self, theta: np.ndarray, domain: tuple[float, float]) -> np.ndarray:
        c, u, v, w = theta
        end = domain[1]
        return np.array(
            [
                c,
                u * u / end,
                (2.0 * u * v + w * w) / (2.0 * end**2),
                (v * v - w * w) / (3.0 * end**3),
            ]
        )

    def jacobian(self, theta: np.ndarray, x: np.ndarray, domain: tuple) -> np.ndarray:
        _, u, v, w = theta
        t = x / domain[1]
        t2 = t * t
        return np.stack(
            [
                np.ones_like(t),
                2.0 * u * t + v * t2,
                u * t2 + 2.0 * v * t2 * t / 3.0,
                w * t2 * (1.0 - 2.0 * t / 3.0),
            ],
            axis=1,
        )

    def starts(self, x: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
        # a straight ramp from ymin through the y range, and one steepest at
        # mid-domain; w and (u, v) non-zero, so no Jacobian column vanishes
        ymin, yrange, _, _, _, _ = _start_scales(x, y)
        s = math.sqrt(yrange)
        return [np.array([ymin, s, -2.0 * s, 2.0 * s]), np.array([ymin, 0.5 * s, 0.0, 2.0 * s])]


class _Logistic2(_LeastSquaresFamily):
    """Fitted in theta = (a1, b2), with b1 = a1**2 >= 0."""

    def curve(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        b1, b2 = params
        return _sigmoid(b1 * (x - b2))

    def to_params(self, theta: np.ndarray, domain: tuple[float, float]) -> np.ndarray:
        a1, b2 = theta
        return np.array([a1 * a1, b2])

    def jacobian(self, theta: np.ndarray, x: np.ndarray, domain: tuple) -> np.ndarray:
        a1, b2 = theta
        b1 = a1 * a1
        s = _sigmoid(b1 * (x - b2))
        ss = s * (1.0 - s)
        return np.stack([2.0 * a1 * ss * (x - b2), -b1 * ss], axis=1)

    def starts(self, x: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
        _, _, _, _, slopes, centers = _start_scales(x, y)
        return [np.array([_root(s), c]) for s in slopes for c in centers]


# -- GLM / IRLS ---------------------------------------------------------------


class _Glm(Family):
    def curve(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        b0, b1 = params
        return _sigmoid(b0 + b1 * x)

    def fit(self, x_points, y_points, w_points, pairs: tuple | None, domain) -> tuple:
        """Binomial logit: on the (|dVMAF|, sig) columns ``pairs`` as Bernoulli
        data when given, else on the points as grouped binomial data with their
        support as trials.  Labels that do not overlap have no finite MLE, so
        they get a step at the middle of their gap; IRLS fits the rest."""
        if pairs is not None:
            x, y, trials = pairs[0], pairs[1].astype(float), np.ones(len(pairs[0]))
        else:
            x, y, trials = x_points, y_points, w_points
        if len(np.unique(x)) < 2:  # the slope is not identified
            raise FitError(f"glm: need >= 2 distinct |dVMAF| values, got {len(np.unique(x))}")
        fails, wins = x[y < 1.0], x[y > 0.0]
        if not (fails.size and wins.size):
            # Degenerate all-similar / all-different data: no finite MLE exists,
            # so pin a flat curve at the observed rate and let prediction flag
            # the clamped inversion.  (Constant rates strictly inside (0, 1) are
            # fine -- IRLS converges to slope 0 at the logit of the rate.)
            b0 = IRLS_SLOPE_CAP if y[0] == 1.0 else -IRLS_SLOPE_CAP
            params, iterations, flags = np.array([b0, 0.0]), 0, ["constant_labels"]
        elif fails.max() <= wins.min() or wins.max() <= fails.min():
            # Separation (Albert and Anderson, Biometrika 71(1), 1984): the
            # likelihood rises as the slope grows, so the fit is a step at the
            # cap, rising or falling, that crosses 0.5 at the middle of the gap.
            rising = fails.max() <= wins.min()
            below, above = (fails, wins) if rising else (wins, fails)
            slope = IRLS_SLOPE_CAP if rising else -IRLS_SLOPE_CAP
            middle = 0.5 * (below.max() + above.min())
            params, iterations, flags = np.array([-slope * middle, slope]), 0, ["separation"]
        else:
            params, iterations = _irls(x, y, trials)
            flags = []

        deviance, grad_norm = _glm_deviance(params, x, y, trials)
        monotone = bool(params[1] >= -MONOTONE_SLACK) and is_monotone(self.name, params, domain)
        extras = {"deviance": deviance, "deviance_grad_norm": grad_norm}
        return params, monotone, iterations, flags, extras


def _irls(x: np.ndarray, y: np.ndarray, trials: np.ndarray) -> tuple[np.ndarray, int]:
    """Iteratively reweighted least squares for the binomial logit model.

    ``y`` holds observed proportions, ``trials`` the binomial weights, and the
    labels overlap, so the MLE is finite.  Each step solves [[Sw, Swx], [Swx,
    Swxx]] d = (Sr, Srx) in closed form, from one pass of point sums with w =
    trials*mu*(1-mu) and r = trials*(y-mu).  The step test is relative to
    |beta|, as the gradient's rounding floor exceeds 1e-10 with tens of
    thousands of observations; ``IRLS_MAX_ITER`` bounds the work.
    """
    beta = np.zeros(2)
    for iteration in range(IRLS_MAX_ITER + 1):  # the steps taken so far
        mu = np.clip(_sigmoid(beta[0] + beta[1] * x), 1e-12, 1.0 - 1e-12)
        w, r = trials * mu * (1.0 - mu), trials * (y - mu)
        sw, swx, swxx, sr, srx = _point_sum(np.stack([w, w * x, w * x * x, r, r * x], axis=1))
        grad_norm = 2.0 * math.hypot(sr, srx)
        if grad_norm < 1e-10:
            return beta, iteration
        if iteration == IRLS_MAX_ITER:
            raise FitError(
                f"glm: IRLS did not converge within {IRLS_MAX_ITER} iterations (final "
                f"b1={beta[1]:.3g}, deviance gradient norm {grad_norm:.3g})"
            )
        det = sw * swxx - swx * swx  # > 0 for two or more distinct x, but for rounding
        if not det > 0.0:
            raise FitError(f"glm: singular IRLS normal equations at b1={beta[1]:.3g}")
        step = np.array([swxx * sr - swx * srx, sw * srx - swx * sr]) / det
        beta = beta + step
        if np.max(np.abs(step)) < 1e-13 * max(1.0, float(np.max(np.abs(beta)))):
            return beta, iteration + 1


def _glm_deviance(
    beta: np.ndarray, x: np.ndarray, y: np.ndarray, trials: np.ndarray
) -> tuple[float, float]:
    """Binomial deviance and the norm of its gradient in beta, from point sums."""
    mu = np.clip(_sigmoid(beta[0] + beta[1] * x), 1e-12, 1.0 - 1e-12)
    yc = np.clip(y, 1e-12, 1.0 - 1e-12)
    dev_terms = y * np.log(yc / mu) + (1.0 - y) * np.log((1.0 - yc) / (1.0 - mu))
    r = trials * (y - mu)
    dev, sr, srx = _point_sum(np.stack([trials * dev_terms, r, r * x], axis=1))
    return float(2.0 * dev), 2.0 * math.hypot(sr, srx)


# -- the family table and the fits -------------------------------------------

#: The function evaluations one least-squares start may use, so a fit costs at
#: most its starts times this, and a family's batched solve makes at most this
#: many passes, however many ranges and starts it holds.  A start on the
#: benchmark's studies needs at most 83 (default_study) and 82 (large_study).
LSQ_MAX_NFEV = 400

#: Every curve family, in report order: the one place to add or change one.
#: The least-squares families need at least four points, the GLM two.  Each
#: least-squares family fits in coordinates in which every theta gives a
#: non-decreasing curve, by one Levenberg-Marquardt solve whose lanes are the
#: starts of every range.
FAMILY_TABLE: dict[str, Family] = {
    family.name: family
    for family in (
        _Logistic5("logistic5", "5-para", n_params=5, min_points=5),
        _Cubic4("cubic4", "4-para", n_params=4, min_points=4),
        _Logistic2("logistic2", "2-para", n_params=2, min_points=4),
        _Glm("glm", "GLM", n_params=2, min_points=2),
    )
}
FAMILIES = tuple(FAMILY_TABLE)


def family_spec(family: str) -> Family:
    """The table entry of ``family``; every unknown-family error comes from here."""
    try:
        return FAMILY_TABLE[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}") from None


def _fit_family(spec: Family, problems: list[tuple]) -> list[MappingFunction | FitError]:
    """Fit ``spec`` to each problem, its (x, y, w) p_sd points and its GLM
    pair columns, in one ``fit_ranges`` call; a FitError stands for each fit
    that fails."""
    results: list = [None] * len(problems)
    ready, arrays = [], []
    for i, (points, pairs) in enumerate(problems):
        x, y, w = (np.asarray(column, dtype=float) for column in points)
        if len(x) < spec.min_points:
            results[i] = FitError(f"{spec.name}: need >= {spec.min_points} points, got {len(x)}")
            continue
        domain = (0.0, float(x.max()))
        if not domain[0] < domain[1]:
            raise ValueError(f"empty domain {domain}")
        ready.append(i)
        arrays.append((x, y, w, pairs, domain))
    for i, (x, y, w, _, domain), fitted in zip(ready, arrays, spec.fit_ranges(arrays)):
        if isinstance(fitted, FitError):
            results[i] = fitted
            continue
        params, monotone, iterations, flags, extras = fitted
        report = FitReport(
            residual_norm=float(np.sqrt(np.sum(w * (spec.curve(params, x) - y) ** 2))),
            monotone=monotone,
            iterations=iterations,
            flags=tuple(flags),
            extras=extras,
        )
        log.debug(
            "fit %s on %d points: residual=%.4g monotone=%s",
            spec.name,
            len(x),
            report.residual_norm,
            report.monotone,
        )
        results[i] = MappingFunction(
            family=spec.name,
            params=tuple(float(p) for p in params),
            domain=domain,
            fit_report=report,
        )
    return results


def fit_mapping(
    points: tuple[np.ndarray, np.ndarray, np.ndarray],
    family: str,
    pairs_for_glm: PairTable | None = None,
) -> MappingFunction:
    """Fit one curve family to the (|dVMAF|, p_sd, support) arrays of
    :meth:`CoDistribution.points`, support-weighted, over the domain (0,
    largest point |dVMAF|): the one-range call of ``fit_all``'s path.

    The IRLS fitter (``glm``) uses the table's per-pair (|dVMAF|, sig)
    columns as Bernoulli data when ``pairs_for_glm`` is given; otherwise the
    points act as grouped binomial observations with their support as
    trials.  The least-squares fitter ignores ``pairs_for_glm``.
    """
    glm_pairs = None if pairs_for_glm is None else (pairs_for_glm.delta_obj, pairs_for_glm.sig)
    (fitted,) = _fit_family(family_spec(family), [(points, glm_pairs)])
    if isinstance(fitted, FitError):
        raise fitted
    return fitted


def fit_all(
    decomp: Decomposition,
    pairs: PairTable,
    families: tuple[str, ...] = FAMILIES,
    bin_width: float = 2.0,
    glm_mode: str = "pairwise",
) -> tuple[dict[str, CoDistribution], dict[str, dict[str, MappingFunction]]]:
    """Build co-distributions and fit every requested family per range.

    Each family fits all ranges at once: the least-squares families in one
    batched solve each.  Each range's pairs are one row-index array into the
    pair table; the pairwise GLM fits the table's columns at those rows."""
    if glm_mode not in GLM_MODES:
        raise ValueError(f"glm_mode must be one of {GLM_MODES}, got {glm_mode!r}")
    specs = [family_spec(family) for family in families]  # an unknown family fails first

    codists: dict[str, CoDistribution] = {}
    problems = []
    for srange in decomp.ranges:
        if not srange.pair_refs:
            log.warning("range %s has no pairs; skipped", srange.range_id)
            continue
        cd = build_codistribution(srange, pairs, bin_width)
        codists[srange.range_id] = cd
        rows = _rows_in_range(srange, pairs) if glm_mode == "pairwise" else None
        glm_pairs = None if rows is None else (pairs.delta_obj[rows], pairs.sig[rows])
        problems.append((cd.points(), glm_pairs))
    fits = [_fit_family(spec, problems) for spec in specs]
    models: dict[str, dict[str, MappingFunction]] = {}
    for i, range_id in enumerate(codists):
        for family, per_family in zip(families, fits):
            mf = per_family[i]
            if isinstance(mf, FitError):
                log.warning("fit failed for %s/%s: %s", range_id, family, mf)
                continue
            models.setdefault(range_id, {})[family] = mf
    return codists, models


# -- serialization ----------------------------------------------------------


def codist_csv_text(codists: dict[str, CoDistribution]) -> str:
    rows = []
    for range_id in sorted(codists):
        cd = codists[range_id]
        for i in range(cd.n_bins):
            support = cd.f_dif[i] + cd.f_sim[i]
            p_sd = cd.f_dif[i] / support if support else ""
            rows.append(
                (range_id, cd.bin_edges[i], cd.bin_edges[i + 1], cd.f_dif[i], cd.f_sim[i], p_sd)
            )
    return tableio.rows_to_csv_text(CODIST_TABLE, rows)


def models_to_json_dict(models: dict[str, dict[str, MappingFunction]]) -> dict:
    """Each fit's fields but its family, which keys it; empty flags and extras
    are left out."""
    out: dict = {}
    for range_id, per_range in models.items():
        for family, mf in per_range.items():
            entry = asdict(mf)
            del entry["family"]
            for key in ("flags", "extras"):
                if not entry["fit_report"][key]:
                    del entry["fit_report"][key]
            out.setdefault(range_id, {})[family] = entry
    return out


def models_from_json_dict(data: dict) -> dict[str, dict[str, MappingFunction]]:
    models: dict[str, dict[str, MappingFunction]] = {}
    for range_id, families in data.items():
        for family, entry in families.items():
            n_params = family_spec(family).n_params
            params = tuple(float(p) for p in entry["params"])
            if len(params) != n_params:
                raise ValueError(f"{range_id}/{family}: {len(params)} params, expected {n_params}")
            if not all(math.isfinite(p) for p in params):
                raise ValueError(f"{range_id}/{family}: non-finite params {list(params)}")
            domain = tuple(float(d) for d in entry["domain"])
            if len(domain) != 2 or not -math.inf < domain[0] < domain[1] < math.inf:
                raise ValueError(
                    f"{range_id}/{family}: domain must be two finite numbers lo < hi, "
                    f"got {list(domain)}"
                )
            report = entry["fit_report"]
            models.setdefault(range_id, {})[family] = MappingFunction(
                family=family,
                params=params,
                domain=domain,
                fit_report=FitReport(
                    residual_norm=float(report["residual_norm"]),
                    monotone=bool(report["monotone"]),
                    iterations=int(report["iterations"]),
                    flags=tuple(report.get("flags", [])),
                    extras={k: float(v) for k, v in report.get("extras", {}).items()},
                ),
            )
    return models


def read_mf_params_json(path: str | Path) -> dict[str, dict[str, MappingFunction]]:
    return tableio.read_json(path, models_from_json_dict)


def curve_samples_csv_text(models: dict[str, dict[str, MappingFunction]]) -> str:
    """``CURVE_SAMPLES`` evenly spaced |dVMAF| over each fit's domain, and the
    curve at each as :func:`evaluate_mf` gives it, from one call of the curve."""
    rows = []
    for range_id in sorted(models):
        for family in sorted(models[range_id]):
            mf = models[range_id][family]
            deltas = np.linspace(*mf.domain, CURVE_SAMPLES)
            p_sd = _clipped_curve(family, mf.params, mf.domain, deltas)
            rows += zip(repeat(range_id), repeat(family), deltas.tolist(), p_sd.tolist())
    return tableio.rows_to_csv_text(CURVE_TABLE, rows)


def read_curve_samples_csv(path: str | Path) -> dict[tuple[str, str], list[tuple[float, float]]]:
    curves: dict[tuple[str, str], list[tuple[float, float]]] = {}
    for range_id, family, delta_obj, p_sd in tableio.read_table(path, CURVE_TABLE).rows():
        curves.setdefault((range_id, family), []).append((delta_obj, p_sd))
    return curves


def read_codist_csv(path: str | Path) -> dict[str, CoDistribution]:
    """Rebuild co-distributions from codist.csv (used by the SVG renderer)."""
    grouped: dict[str, list[tuple[float, float, int, int]]] = {}
    for range_id, lo, hi, f_dif, f_sim, _ in tableio.read_table(path, CODIST_TABLE).rows():
        grouped.setdefault(range_id, []).append((lo, hi, f_dif, f_sim))
    out = {}
    for range_id, bins in grouped.items():
        bins.sort()
        edges = [b[0] for b in bins] + [bins[-1][1]]
        if any(not math.isclose(a[1], b[0]) for a, b in zip(bins, bins[1:])):
            raise CorpusError(f"non-contiguous bins for range {range_id}", path=Path(path).name)
        out[range_id] = CoDistribution(
            range_id=range_id,
            bin_edges=tuple(edges),
            f_dif=tuple(b[2] for b in bins),
            f_sim=tuple(b[3] for b in bins),
        )
    return out
