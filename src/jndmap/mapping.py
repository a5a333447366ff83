"""Co-distributions of significant/similar pairs and mapping-function fits.

For one sub-quality range, pairs assigned to it are histogrammed over shared
|dVMAF| bins twice: ``f_dif`` counts significantly different pairs, ``f_sim``
the rest.  The per-bin probability of a perceived difference is then

    p_sd = f_dif / (f_dif + f_sim)

and the (bin center, p_sd) points -- weighted by bin support -- are fitted by
one of four monotone curve families:

* ``logistic5``  p = b1*(0.5 - 1/(1+exp(b2*(d-b3)))) + b4*d + b5
* ``cubic4``     p = b1 + b2*d + b3*d**2 + b4*d**3
* ``logistic2``  p = 1/(1+exp(-b1*(d-b2)))
* ``glm``        p = 1/(1+exp(-(b0+b1*d)))   (binomial logit, IRLS)

Each family is defined once, by its entry in :data:`FAMILY_TABLE`: report
label, parameter count, minimum point count, curve, fitter and, for the
least-squares families, fit coordinates, analytic Jacobian, lower bounds and
start points.  The table is the one place to add or change a family:
``FAMILIES``, the config check, the artifact reader, the report labels and
``predict --family`` all read it.

Evaluated values are clamped to [0, 1].  Every least-squares fit is
non-decreasing on its domain by construction, through one fit path:

* ``logistic5`` is fitted under b1, b2, b4 >= 0, so its slope
  b1*b2*s*(1-s) + b4 is never negative;
* ``logistic2`` is fitted under b1 >= 0;
* ``cubic4`` is fitted in Lukacs coordinates, each of which gives a cubic
  that does not decrease on the domain (see :class:`_Cubic4`).

A least-squares fit that rises by no more than ``FLAT_RISE`` over its domain
is rejected, flagged ``flat``: that is all a monotone curve can make of a
decreasing trend.  Fits are accepted only if the curve, clipped to [0, 1], is
non-decreasing on a 1000-point grid over its domain; for the least-squares
families this check is a safety net, and for ``glm`` it is the rule.
"""

from __future__ import annotations

import logging
import math
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import tableio
from .errors import CorpusError, FitError
from .ranges import Decomposition, SubQualityRange
from .significance import RatedPair

log = logging.getLogger(__name__)

#: How ``fit_all`` feeds the GLM: every assigned pair, or the binned p_sd points.
GLM_MODES = ("pairwise", "points")

MONOTONE_GRID_POINTS = 1000
MONOTONE_SLACK = 1e-9
# a bounded curve that rises by no more than this over its domain is rejected
# as flat: it spans at most one step of the default threshold grid
FLAT_RISE = 0.05
IRLS_MAX_ITER = 100
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
class PsdPoint:
    delta_obj: float
    p_sd: float
    support: int


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

    ``curve(params, x)`` is p at ``x``.  ``fit(x, y, w, pairs, domain)`` fits
    the points (x, y) with weights w and returns the params, whether the curve
    is monotone, the iterations, the flags and the extras of the fit report.
    """

    name: str
    label: str  # short label in report tables
    n_params: int
    min_points: int


# -- curves ------------------------------------------------------------------


def _sigmoid(z: np.ndarray | float) -> np.ndarray | float:
    return 1.0 / (1.0 + np.exp(-np.clip(z, -500.0, 500.0)))


def _eval_raw(family: str, params: np.ndarray, x: np.ndarray) -> np.ndarray:
    return family_spec(family).curve(params, x)


def evaluate_mf(mf: MappingFunction, delta_obj: float) -> float:
    """Evaluate the fitted curve at ``delta_obj``, clamped to domain and [0, 1]."""
    lo, hi = mf.domain
    d = min(max(delta_obj, lo), hi)
    raw = _eval_raw(mf.family, np.asarray(mf.params), np.asarray([d], dtype=float))
    return float(np.clip(raw, 0.0, 1.0)[0])


def is_monotone(family: str, params: np.ndarray, domain: tuple[float, float]) -> bool:
    grid = np.linspace(domain[0], domain[1], MONOTONE_GRID_POINTS)
    values = np.clip(_eval_raw(family, params, grid), 0.0, 1.0)
    return bool(np.all(np.diff(values) >= -MONOTONE_SLACK))


# -- co-distribution ---------------------------------------------------------


def build_codistribution(
    srange: SubQualityRange, pairs: list[RatedPair], bin_width: float = 2.0
) -> CoDistribution:
    """Histogram the range's pairs over shared |dVMAF| bins, split by sig bit.

    ``pairs`` may be the full pair list; only those referenced by the range
    are counted.  Bins run from 0 to the smallest multiple of ``bin_width``
    covering ceil(max |dVMAF|); each pair lands in exactly one bin.
    """
    if not bin_width > 0:
        raise ValueError(f"bin_width must be positive, got {bin_width}")
    refs = set(srange.pair_refs)
    if not refs:
        raise ValueError(f"range {srange.range_id} has no assigned pairs")
    assigned = [p for p in pairs if p.pair_id in refs]
    missing = refs - {p.pair_id for p in assigned}
    if missing:
        raise ValueError(
            f"range {srange.range_id} references {len(missing)} pair(s) not in the "
            f"given list, e.g. {sorted(missing)[:3]}"
        )
    if len(assigned) != len(refs):
        raise ValueError(f"the given list repeats {len(assigned) - len(refs)} pair(s) of "
                         f"range {srange.range_id}")
    deltas = np.array([p.delta_obj for p in assigned], dtype=float)
    top = math.ceil(float(deltas.max()))
    n_bins = max(1, math.ceil(top / bin_width)) if top > 0 else 1
    edges = np.arange(n_bins + 1, dtype=float) * bin_width
    sig = np.array([p.sig for p in assigned], dtype=bool)
    f_dif, _ = np.histogram(deltas[sig], bins=edges)
    f_sim, _ = np.histogram(deltas[~sig], bins=edges)
    return CoDistribution(
        range_id=srange.range_id,
        bin_edges=tuple(float(e) for e in edges),
        f_dif=tuple(int(c) for c in f_dif),
        f_sim=tuple(int(c) for c in f_sim),
    )


def psd_points(cd: CoDistribution) -> list[PsdPoint]:
    """One (bin center, f_dif/(f_dif+f_sim), support) point per non-empty bin."""
    points = []
    for i in range(cd.n_bins):
        support = cd.f_dif[i] + cd.f_sim[i]
        if support == 0:
            continue
        center = 0.5 * (cd.bin_edges[i] + cd.bin_edges[i + 1])
        points.append(PsdPoint(delta_obj=center, p_sd=cd.f_dif[i] / support, support=support))
    return points


# -- least-squares families --------------------------------------------------


def least_squares(*args, **kwargs):
    """``scipy.optimize.least_squares``, imported on the first fit: the import
    takes about half a second that commands which fit nothing need not pay."""
    from scipy.optimize import least_squares as solve

    return solve(*args, **kwargs)


@dataclass(frozen=True)
class _LeastSquaresFamily(Family):
    """Fitted by least squares over fit coordinates theta, from
    ``starts(x, y)``, with the analytic ``jacobian(theta, x, domain)``, d p /
    d theta.  ``to_params(theta, domain)`` maps theta to the family's params;
    it is the identity unless the family fits in other coordinates.

    Every fit is non-decreasing on its domain by construction: either theta is
    held inside the lower bounds ``lower`` (``-inf`` for none), under which
    the curve cannot decrease, or no theta gives a decreasing curve.  Every
    start lies inside the bounds.
    """

    lower: tuple[float, ...] | None = None

    def to_params(self, theta: np.ndarray, domain: tuple[float, float]) -> np.ndarray:
        return theta

    def fit(self, x: np.ndarray, y: np.ndarray, w: np.ndarray, pairs, domain: tuple) -> tuple:
        """Least squares from every start; the lowest cost wins.  The curve is
        rejected, flagged ``flat``, when it rises by no more than
        ``FLAT_RISE`` over the domain: a monotone fit must not turn hopeless
        data, such as a decreasing trend, into a usable flat curve.  The
        monotone check still runs on the clipped curve, as a safety net.
        ``pairs`` is not used."""
        sw = np.sqrt(w)

        def residuals(theta: np.ndarray) -> np.ndarray:
            return sw * (self.curve(self.to_params(theta, domain), x) - y)

        def jac(theta: np.ndarray) -> np.ndarray:
            return sw[:, None] * self.jacobian(theta, x, domain)

        bounded = self.lower is not None
        best: tuple[float, np.ndarray] | None = None
        iterations = 0
        for start in self.starts(x, y):
            try:
                sol = least_squares(
                    residuals,
                    start,
                    jac=jac,
                    bounds=(self.lower if bounded else -np.inf, np.inf),
                    method="trf" if bounded else "lm",
                    xtol=1e-15,
                    ftol=1e-15,
                    gtol=1e-15,
                    max_nfev=4000,
                )
            except (ValueError, np.linalg.LinAlgError):  # a bad start; others may work
                continue
            iterations += int(sol.nfev)
            cost = float(sol.cost)
            # strict tie-break in favour of the earlier start keeps the result deterministic
            if best is None or cost < best[0] - 1e-15:
                best = (cost, sol.x)
        if best is None:
            raise FitError(f"{self.name}: no least-squares start converged")
        params = self.to_params(best[1], domain)
        flags: list[str] = []
        monotone = is_monotone(self.name, params, domain)
        lo, hi = np.clip(self.curve(params, np.asarray(domain, dtype=float)), 0.0, 1.0)
        if hi - lo <= FLAT_RISE:
            monotone = False
            flags.append("flat")
        return params, monotone, iterations, flags, {}


def _start_scales(x: np.ndarray, y: np.ndarray) -> tuple:
    """ymin, y range, mid level, slope scale, slopes and centers of the starts."""
    span = float(x.max() - x.min()) or 1.0
    ymin, ymax = float(y.min()), float(y.max())
    yrange = max(ymax - ymin, 0.05)
    # first crossing of the mid level approximates the transition center
    mid_level = 0.5 * (ymin + ymax)
    above = np.nonzero(y >= mid_level)[0]
    x_mid = float(x[above[0]]) if len(above) else float(np.median(x))
    s0 = 4.0 * yrange / span
    slopes = [0.25 * s0, s0, 4.0 * s0, 16.0 * s0]
    centers = [x_mid, float(np.median(x))]
    return ymin, yrange, mid_level, s0, slopes, centers


class _Logistic5(_LeastSquaresFamily):
    def curve(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        b1, b2, b3, b4, b5 = params
        s = _sigmoid(-b2 * (x - b3))  # equals 1/(1+exp(b2*(x-b3)))
        return b1 * (0.5 - s) + b4 * x + b5

    def jacobian(self, params: np.ndarray, x: np.ndarray, domain: tuple) -> np.ndarray:
        b1, b2, b3, _, _ = params
        s = _sigmoid(-b2 * (x - b3))
        ss = s * (1.0 - s)
        return np.column_stack(
            [0.5 - s, b1 * ss * (x - b3), -b1 * b2 * ss, x, np.ones_like(x)]
        )

    def starts(self, x: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
        ymin, yrange, mid_level, _, slopes, centers = _start_scales(x, y)
        guesses = []
        for s in slopes[:2]:
            for c in centers:
                guesses.append(np.array([yrange, s, c, 0.0, mid_level]))
                guesses.append(np.array([1.0, s, c, 0.001, ymin]))
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
        return np.column_stack(
            [
                np.ones_like(t),
                2.0 * u * t + v * t2,
                u * t2 + 2.0 * v * t2 * t / 3.0,
                w * t2 * (1.0 - 2.0 * t / 3.0),
            ]
        )

    def starts(self, x: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
        # a straight ramp from ymin through the y range, and one steepest at
        # mid-domain; w and (u, v) non-zero, so no Jacobian column vanishes
        ymin, yrange, _, _, _, _ = _start_scales(x, y)
        s = math.sqrt(yrange)
        return [np.array([ymin, s, -2.0 * s, 2.0 * s]), np.array([ymin, 0.5 * s, 0.0, 2.0 * s])]


class _Logistic2(_LeastSquaresFamily):
    def curve(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        b1, b2 = params
        return _sigmoid(b1 * (x - b2))

    def jacobian(self, params: np.ndarray, x: np.ndarray, domain: tuple) -> np.ndarray:
        b1, b2 = params
        s = _sigmoid(b1 * (x - b2))
        ss = s * (1.0 - s)
        return np.column_stack([ss * (x - b2), -b1 * ss])

    def starts(self, x: np.ndarray, y: np.ndarray) -> list[np.ndarray]:
        _, _, _, _, slopes, centers = _start_scales(x, y)
        return [np.array([s, c]) for s in slopes for c in centers]


# -- GLM / IRLS ---------------------------------------------------------------


class _Glm(Family):
    def curve(self, params: np.ndarray, x: np.ndarray) -> np.ndarray:
        b0, b1 = params
        return _sigmoid(b0 + b1 * x)

    def fit(self, x_points, y_points, w_points, pairs: list[RatedPair] | None, domain) -> tuple:
        """Binomial logit by IRLS: on ``pairs`` as Bernoulli data when given, else
        on the points as grouped binomial data with their support as trials."""
        if pairs is not None:
            if len(pairs) < 2:
                raise FitError(f"{self.name}: need >= 2 pair observations, got {len(pairs)}")
            x = np.array([p.delta_obj for p in pairs], dtype=float)
            y = np.array([float(p.sig) for p in pairs], dtype=float)
            trials = np.ones_like(x)
        else:
            x, y, trials = x_points, y_points, w_points

        flags: list[str] = []
        if np.all(y == 0.0) or np.all(y == 1.0):
            # Degenerate all-similar / all-different data: no finite MLE exists,
            # so pin a flat curve at the observed rate and let prediction flag
            # the clamped inversion.  (Constant rates strictly inside (0, 1) are
            # fine -- IRLS converges to slope 0 at the logit of the rate.)
            b0 = IRLS_SLOPE_CAP if y[0] == 1.0 else -IRLS_SLOPE_CAP
            params = np.array([b0, 0.0])
            flags.append("constant_labels")
            iterations = 0
        else:
            params, iterations, separated = _irls(x, y, trials)
            if separated:
                flags.append("separation")

        deviance, grad_norm = _glm_deviance(params, x, y, trials)
        monotone = bool(params[1] >= -MONOTONE_SLACK) and is_monotone(self.name, params, domain)
        extras = {"deviance": deviance, "deviance_grad_norm": grad_norm}
        return params, monotone, iterations, flags, extras


def _irls(x: np.ndarray, y: np.ndarray, trials: np.ndarray) -> tuple[np.ndarray, int, bool]:
    """Iteratively reweighted least squares for the binomial logit model.

    ``y`` holds observed proportions, ``trials`` the binomial weights.
    Diverging slope (|b1| past the cap) is diagnosed as separation: the slope
    is pinned at the cap and the intercept re-solved conditionally.  The step
    test is relative to the size of beta: with tens of thousands of
    observations the gradient's rounding floor sits above 1e-10, and the
    last steps stall at a few ulps of beta instead of reaching zero.
    """
    X = np.column_stack([np.ones_like(x), x])
    beta = np.zeros(2)
    for iteration in range(1, IRLS_MAX_ITER + 1):
        eta = X @ beta
        mu = np.clip(_sigmoid(eta), 1e-12, 1.0 - 1e-12)
        weight = trials * mu * (1.0 - mu)
        z = eta + (y - mu) / (mu * (1.0 - mu))
        xtw = X.T * weight
        try:
            beta_new = np.linalg.solve(xtw @ X, xtw @ z)
        except np.linalg.LinAlgError:
            beta_new = np.linalg.lstsq(xtw @ X, xtw @ z, rcond=None)[0]
        if abs(beta_new[1]) > IRLS_SLOPE_CAP:
            slope = math.copysign(IRLS_SLOPE_CAP, beta_new[1])
            intercept = _solve_intercept(x, y, trials, slope)
            return np.array([intercept, slope]), iteration, True
        step = float(np.max(np.abs(beta_new - beta)))
        beta = beta_new
        _, grad_norm = _glm_deviance(beta, x, y, trials)
        if grad_norm < 1e-10 or step < 1e-13 * max(1.0, float(np.max(np.abs(beta)))):
            return beta, iteration, False
    raise FitError(
        f"glm: IRLS did not converge within {IRLS_MAX_ITER} iterations (final "
        f"b1={beta[1]:.3g}, deviance gradient norm {grad_norm:.3g})"
    )


def _solve_intercept(x: np.ndarray, y: np.ndarray, trials: np.ndarray, slope: float) -> float:
    """1-d solve for the intercept with the slope held fixed.

    The score is strictly decreasing in the intercept, so the root is unique;
    bisection on an expanding bracket is used because plain Newton shoots off
    along the saturated tails (the Hessian is ~0 there after clipping).
    """

    def score(b0: float) -> float:
        mu = np.clip(_sigmoid(b0 + slope * x), 1e-12, 1.0 - 1e-12)
        return float(np.sum(trials * (y - mu)))

    center = -slope * float(np.mean(x))
    width = 1.0
    lo = hi = center
    for _ in range(200):
        lo = center - width
        if score(lo) > 0.0:
            break
        width *= 2.0
    else:
        return lo
    width = 1.0
    for _ in range(200):
        hi = center + width
        if score(hi) < 0.0:
            break
        width *= 2.0
    else:
        return hi
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if score(mid) > 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-12 * max(1.0, abs(mid)):
            break
    return 0.5 * (lo + hi)


def _glm_deviance(
    beta: np.ndarray, x: np.ndarray, y: np.ndarray, trials: np.ndarray
) -> tuple[float, float]:
    """Binomial deviance and the norm of its gradient in beta."""
    X = np.column_stack([np.ones_like(x), x])
    mu = np.clip(_sigmoid(X @ beta), 1e-12, 1.0 - 1e-12)
    yc = np.clip(y, 1e-12, 1.0 - 1e-12)
    dev_terms = y * np.log(yc / mu) + (1.0 - y) * np.log((1.0 - yc) / (1.0 - mu))
    deviance = float(2.0 * np.sum(trials * dev_terms))
    grad = -2.0 * (X.T @ (trials * (y - mu)))
    return deviance, float(np.linalg.norm(grad))


# -- the family table and the fits -------------------------------------------


#: Every curve family, in report order: the one place to add or change one.
#: The least-squares families need at least four points, the GLM two.
FAMILY_TABLE: dict[str, Family] = {
    family.name: family
    for family in (
        _Logistic5(
            "logistic5", "5-para", n_params=5, min_points=5,
            lower=(0.0, 0.0, -math.inf, 0.0, -math.inf),
        ),
        _Cubic4("cubic4", "4-para", n_params=4, min_points=4),
        _Logistic2("logistic2", "2-para", n_params=2, min_points=4, lower=(0.0, -math.inf)),
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


def fit_mapping(
    points: list[PsdPoint],
    family: str,
    pairs_for_glm: list[RatedPair] | None = None,
) -> MappingFunction:
    """Fit one curve family to p_sd points (support-weighted) over the domain
    (0, largest point |dVMAF|).

    The IRLS fitter (``glm``) uses raw per-pair (|dVMAF|, sig) observations
    as Bernoulli data when ``pairs_for_glm`` is given; otherwise the points
    act as grouped binomial observations with their support as trials.  The
    least-squares fitter ignores ``pairs_for_glm``.
    """
    spec = family_spec(family)
    if len(points) < spec.min_points:
        raise FitError(f"{family}: need >= {spec.min_points} points, got {len(points)}")
    x = np.array([p.delta_obj for p in points], dtype=float)
    y = np.array([p.p_sd for p in points], dtype=float)
    w = np.array([p.support for p in points], dtype=float)
    domain = (0.0, float(x.max()))
    if not domain[0] < domain[1]:
        raise ValueError(f"empty domain {domain}")

    params, monotone, iterations, flags, extras = spec.fit(x, y, w, pairs_for_glm, domain)
    report = FitReport(
        residual_norm=float(np.sqrt(np.sum(w * (spec.curve(params, x) - y) ** 2))),
        monotone=monotone,
        iterations=iterations,
        flags=tuple(flags),
        extras=extras,
    )
    log.debug(
        "fit %s on %d points: residual=%.4g monotone=%s",
        family,
        len(points),
        report.residual_norm,
        report.monotone,
    )
    return MappingFunction(
        family=family,
        params=tuple(float(p) for p in params),
        domain=domain,
        fit_report=report,
    )


def fit_all(
    decomp: Decomposition,
    pairs: list[RatedPair],
    families: tuple[str, ...] = FAMILIES,
    bin_width: float = 2.0,
    glm_mode: str = "pairwise",
) -> tuple[dict[str, CoDistribution], dict[str, dict[str, MappingFunction]]]:
    """Build co-distributions and fit every requested family per range."""
    if glm_mode not in GLM_MODES:
        raise ValueError(f"glm_mode must be one of {GLM_MODES}, got {glm_mode!r}")
    for family in families:
        family_spec(family)  # rejects an unknown family before any fit

    codists: dict[str, CoDistribution] = {}
    models: dict[str, dict[str, MappingFunction]] = {}
    for srange in decomp.ranges:
        if not srange.pair_refs:
            log.warning("range %s has no pairs; skipped", srange.range_id)
            continue
        in_range = decomp.pairs_in_range(srange.range_id, pairs)
        cd = build_codistribution(srange, in_range, bin_width)
        codists[srange.range_id] = cd
        points = psd_points(cd)
        glm_pairs = in_range if glm_mode == "pairwise" else None
        for family in families:
            try:
                mf = fit_mapping(points, family, pairs_for_glm=glm_pairs)
            except FitError as exc:
                log.warning("fit failed for %s/%s: %s", srange.range_id, family, exc)
                continue
            models.setdefault(srange.range_id, {})[family] = mf
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
    rows = []
    for range_id in sorted(models):
        for family in sorted(models[range_id]):
            mf = models[range_id][family]
            for d in np.linspace(mf.domain[0], mf.domain[1], CURVE_SAMPLES):
                rows.append((range_id, family, float(d), evaluate_mf(mf, float(d))))
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
