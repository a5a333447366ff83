"""Co-distributions and the four mapping-function families."""

from __future__ import annotations

import dataclasses
import json
import math
import re

import numpy as np
import pytest

from jndmap import mapping as mapping_mod
from jndmap.corpus import Corpus, Recipe, Stimulus
from jndmap.errors import CorpusError, FitError
from jndmap.mapping import (
    CURVE_SAMPLES,
    FAMILIES,
    FAMILY_TABLE,
    IRLS_MAX_ITER,
    IRLS_SLOPE_CAP,
    LSQ_MAX_NFEV,
    CoDistribution,
    FitReport,
    MappingFunction,
    _glm_deviance,
    _irls,
    _sigmoid,
    build_codistribution,
    codist_csv_text,
    curve_samples_csv_text,
    evaluate_mf,
    fit_all,
    fit_mapping,
    is_monotone,
    models_from_json_dict,
    models_to_json_dict,
    read_codist_csv,
    read_curve_samples_csv,
    read_mf_params_json,
)
from jndmap.ranges import assign_pairs, decompose_balanced, decompose_explicit
from jndmap.screening import apply_screening, screen_bt500
from jndmap.significance import PairTable, classify_pairs
from jndmap.simulate import SimSpec, simulate_corpus
from jndmap.tableio import json_text, write_json

# Ground-truth parameter sets used by the recovery tests: all four produce
# curves inside (0, 1) on x in [0.5, 14.5], so a noiseless refit is exact.
TRUE_PARAMS = {
    "logistic5": (0.85, 0.8, 6.0, 0.002, 0.5),
    "cubic4": (0.05, 0.002, 0.008, -0.00032),
    "logistic2": (0.5, 6.0),
    "glm": (-3.0, 0.5),
}


def _points(xs, ys, support: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The (|dVMAF|, p_sd, support) arrays of ``fit_mapping``, one support for all."""
    return np.asarray(xs, float), np.asarray(ys, float), np.full(len(xs), float(support))


def _noiseless_points(family: str, n: int = 15) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xs = np.linspace(0.5, 14.5, n)
    return _points(xs, FAMILY_TABLE[family].curve(np.asarray(TRUE_PARAMS[family], float), xs), 25)


def _take(pairs: PairTable, rows: np.ndarray) -> PairTable:
    """The table of the pairs at positions ``rows``, in that order."""
    return PairTable(*(np.asarray(column)[rows] for column in pairs.columns()))


def _codist_fixture():
    """Two similar pairs at small delta, one different pair at delta 7.5."""
    vm = {"a": 40.0, "b": 39.0, "c": 38.8, "d": 32.5}
    stimuli = tuple(
        Stimulus("c1", Recipe(r, "1080p", i + 1), v)
        for i, (r, v) in enumerate(vm.items())
    )
    corpus = Corpus(stimuli, (), ())
    pairs = PairTable(*zip(
        ("c1", "a", "b", 1.0, 0.50, 0),
        ("c1", "a", "c", 1.2, 0.40, 0),
        ("c1", "a", "d", 7.5, 0.001, 1),
    ))
    decomp = assign_pairs(pairs, decompose_explicit([0.0, 50.0]), corpus)
    return decomp.ranges[0], pairs


def test_codistribution_worked_example():
    srange, pairs = _codist_fixture()
    cd = build_codistribution(srange, pairs, bin_width=2.0)
    assert cd.bin_edges == (0.0, 2.0, 4.0, 6.0, 8.0)
    assert cd.f_sim == (2, 0, 0, 0)
    assert cd.f_dif == (0, 0, 0, 1)
    assert [column.tolist() for column in cd.points()] == [[1.0, 7.0], [0.0, 1.0], [2.0, 1.0]]


def _points_by_bin(cd: CoDistribution) -> list[tuple[float, float, int]]:
    """One (bin center, f_dif/(f_dif+f_sim), support) point per non-empty bin,
    by a loop over the bins."""
    points = []
    for i in range(cd.n_bins):
        support = cd.f_dif[i] + cd.f_sim[i]
        if support == 0:
            continue
        center = 0.5 * (cd.bin_edges[i] + cd.bin_edges[i + 1])
        points.append((center, cd.f_dif[i] / support, support))
    return points


def test_codistribution_points_equal_a_loop_over_bins():
    rng = np.random.default_rng(23)
    empty = 0
    for _ in range(50):
        n_bins = int(rng.integers(1, 40))
        width = float(rng.choice([0.5, 1.0, 2.0, 3.0]))
        # about half of each count is zero, so many bins are empty on one side or both
        f_dif, f_sim = (rng.integers(0, 5, n_bins) * (rng.uniform(size=n_bins) < 0.5)
                        for _ in range(2))
        empty += int(np.sum(f_dif + f_sim == 0))
        cd = CoDistribution("(0,100]", tuple((np.arange(n_bins + 1) * width).tolist()),
                            tuple(f_dif.tolist()), tuple(f_sim.tolist()))
        assert list(zip(*(column.tolist() for column in cd.points()))) == _points_by_bin(cd)
    assert empty > 0


def test_codistribution_conserves_counts():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(5, 60))
        deltas = rng.uniform(0.05, 25.0, size=n)
        sigs = rng.integers(0, 2, size=n)
        pairs = PairTable(*zip(*(
            ("c1", f"x{i}", f"y{i}", float(d), 0.5, int(s))
            for i, (d, s) in enumerate(zip(deltas, sigs))
        )))
        from jndmap.ranges import SubQualityRange

        srange = SubQualityRange(0.0, 50.0, "(0,50]", tuple(pairs.pair_ids))
        cd = build_codistribution(srange, pairs, bin_width=2.0)
        assert sum(cd.f_sim) + sum(cd.f_dif) == n
        assert sum(cd.f_sim) == int(np.sum(sigs == 0))
        # The empirical probability is exactly the frequency ratio per bin.
        for center, p_sd, support in zip(*cd.points()):
            idx = int(np.searchsorted(cd.bin_edges, center) - 1)
            fd, fs = cd.f_dif[idx], cd.f_sim[idx]
            assert p_sd == fd / (fd + fs)
            assert support == fd + fs


def test_codistribution_input_guards():
    srange, pairs = _codist_fixture()
    for width in (0.0, math.nan, math.inf, 1e-300):  # the rule of RunConfig.validate
        with pytest.raises(ValueError, match="bin_width"):
            build_codistribution(srange, pairs, bin_width=width)
    with pytest.raises(ValueError):
        build_codistribution(srange, PairTable(*[()] * 6))  # referenced pairs missing
    from jndmap.ranges import SubQualityRange

    empty = SubQualityRange(0.0, 50.0, "(0,50]", ())
    with pytest.raises(ValueError):
        build_codistribution(empty, pairs)


def test_codistribution_counts_missing_and_repeated_pairs_by_id():
    srange, pairs = _codist_fixture()
    with pytest.raises(ValueError, match=r"references 1 pair\(s\) not in the given list"):
        build_codistribution(srange, _take(pairs, np.array([0, 2])))
    # a hand-built range that lists a pair again is refused, not counted once
    repeated = dataclasses.replace(srange, pair_refs=(*srange.pair_refs, srange.pair_refs[1]))
    with pytest.raises(ValueError, match=rf"^range \(0,50\] lists pair '{pairs.pair_ids[1]}' twice$"):
        build_codistribution(repeated, pairs)


@pytest.mark.parametrize("family", FAMILIES)
def test_curve_samples_equal_evaluate_mf(family):
    """One curve call per fit writes the samples the scalar ``evaluate_mf``
    gives, bit for bit: on the fitted domain, and on a wider domain where
    cubic4 and logistic5 leave [0, 1] and are clipped."""
    fitted = fit_mapping(_noiseless_points(family), family)
    wide = dataclasses.replace(fitted, domain=(0.0, 60.0))
    for mf in (fitted, wide):
        deltas = np.linspace(*mf.domain, CURVE_SAMPLES).tolist()
        samples = [(d, evaluate_mf(mf, d)) for d in deltas]
        text = curve_samples_csv_text({"(0,100]": {family: mf}})
        assert text.splitlines()[1:] == [f'"(0,100]",{family},{d!r},{p!r}' for d, p in samples]
    if family in ("cubic4", "logistic5"):
        assert {p for _, p in samples} & {0.0, 1.0}


@pytest.mark.parametrize("family", FAMILIES)
def test_noiseless_recovery(family):
    points = _noiseless_points(family)
    mf = fit_mapping(points, family)
    xs, truth, _ = points
    fitted = np.array([evaluate_mf(mf, float(x)) for x in xs])
    assert np.sqrt(np.mean((fitted - truth) ** 2)) < 1e-8
    assert mf.fit_report.monotone
    assert mf.fit_report.iterations > 0


def test_glm_reports_deviance_gradient():
    mf = fit_mapping(_noiseless_points("glm"), "glm")
    assert mf.fit_report.extras["deviance_grad_norm"] < 1e-8
    assert mf.fit_report.extras["deviance"] >= 0.0


def test_glm_flat_rate_recovers_intercept_only():
    # Constant 0.5 proportions: slope 0, curve pinned to the empirical rate.
    pts = _points([1.0, 3.0, 5.0, 7.0, 9.0], [0.5] * 5, 20)
    mf = fit_mapping(pts, "glm")
    assert mf.params[1] == pytest.approx(0.0, abs=1e-6)
    assert evaluate_mf(mf, 5.0) == pytest.approx(0.5, abs=1e-6)
    assert mf.fit_report.monotone


def test_glm_constant_labels_short_circuit():
    pts = _points([1.0, 4.0, 8.0], [1.0] * 3, 5)
    mf = fit_mapping(pts, "glm")
    assert "constant_labels" in mf.fit_report.flags
    assert evaluate_mf(mf, 4.0) > 0.999


def test_glm_separated_pairs_hit_slope_cap():
    # Perfect separation with a narrow margin around delta 5: no finite slope
    # fits it, so the fit is a step at the cap whose 0.5-crossing is the
    # middle of the margin.
    pairs = PairTable(*zip(*(
        ("c1", "a", f"s{i}", d, 0.5, int(d > 5.0))
        for i, d in enumerate((1.0, 3.0, 4.95, 5.05, 7.0, 9.0))
    )))
    pts = _points(pairs.delta_obj, pairs.sig, 1)
    mf = fit_mapping(pts, "glm", pairs_for_glm=pairs)
    assert "separation" in mf.fit_report.flags
    assert abs(mf.params[1]) == pytest.approx(50.0)
    assert evaluate_mf(mf, 5.0) == pytest.approx(0.5, abs=1e-6)
    assert mf.fit_report.monotone


@pytest.mark.parametrize("family", ["cubic4", "logistic5", "logistic2"])
def test_decreasing_trend_is_rejected_not_flattened(family):
    xs = np.linspace(1.0, 14.0, 10)
    ys = np.linspace(0.9, 0.1, 10)
    mf = fit_mapping(_points(xs, ys, 10), family)
    assert not mf.fit_report.monotone
    # a monotone fit can only follow this with a flat line; it is rejected as such
    assert mf.fit_report.flags == ("flat",)


def _lsq_cases() -> dict[str, tuple]:
    """A dip an unconstrained fit bends down into (``dip``), noisy data an
    unconstrained fit ends non-monotone on (``noisy``), a decreasing trend
    (``decreasing``) and noiseless logistic5 data (``noiseless``)."""
    xs = np.linspace(0.5, 12.5, 13)
    dip = 1.0 / (1.0 + np.exp(-0.8 * (xs - 6.0)))
    dip[6] -= 0.06
    rng = np.random.default_rng(3)
    noisy = np.clip(1.0 / (1.0 + np.exp(-0.6 * (xs - 5.0))) + rng.normal(0, 0.12, 13), 0, 1)
    cases = {"dip": dip, "noisy": noisy, "decreasing": np.linspace(0.9, 0.1, 13)}
    out = {name: _points(xs, ys, 15) for name, ys in cases.items()}
    out["noiseless"] = _noiseless_points("logistic5")
    return out


LSQ_CASES = _lsq_cases()

#: The families fitted by least squares: those with an analytic Jacobian.
LSQ_FAMILIES = [family for family, spec in FAMILY_TABLE.items() if hasattr(spec, "jacobian")]


@pytest.mark.parametrize("case", sorted(LSQ_CASES))
def test_logistics_solve_unbounded_by_lm_with_analytic_jacobian(case, monkeypatch):
    calls = []
    solve = mapping_mod.least_squares

    def spy(fun, x0, **kwargs):
        calls.append((x0, kwargs))
        return solve(fun, x0, **kwargs)

    monkeypatch.setattr(mapping_mod, "least_squares", spy)
    for family in ("logistic5", "logistic2"):
        calls.clear()
        fit_mapping(LSQ_CASES[case], family)
        starts = FAMILY_TABLE[family].starts(*LSQ_CASES[case][:2])
        # one batched call per fit, with one lane per start
        assert len(calls) == 1
        x0, kwargs = calls[0]
        assert np.array_equal(x0, np.column_stack(starts))
        # no bounds and no other option: the analytic Jacobian and the budget
        assert set(kwargs) == {"jac", "max_nfev"}
        assert callable(kwargs["jac"])
        assert kwargs["max_nfev"] == LSQ_MAX_NFEV


@pytest.mark.parametrize("case", sorted(LSQ_CASES))
def test_logistic5_params_respect_lower_bounds(case):
    mf = fit_mapping(LSQ_CASES[case], "logistic5")
    b1, b2, _, b4, _ = mf.params
    assert b1 >= 0.0 and b2 >= 0.0 and b4 >= 0.0
    assert mf.fit_report.monotone == (case != "decreasing")


@pytest.mark.parametrize("case", sorted(LSQ_CASES))
@pytest.mark.parametrize("family", LSQ_FAMILIES)
def test_least_squares_fit_is_monotone_or_flat(family, case):
    mf = fit_mapping(LSQ_CASES[case], family)
    # the raw curve, not the clipped one, is monotone by construction, even
    # when the fit is rejected as flat
    grid = np.linspace(mf.domain[0], mf.domain[1], 20_000)
    raw = FAMILY_TABLE[family].curve(np.asarray(mf.params), grid)
    assert np.all(np.diff(raw) >= -mapping_mod.MONOTONE_SLACK)
    assert mf.fit_report.flags == (("flat",) if case == "decreasing" else ())
    assert mf.fit_report.monotone == (case != "decreasing")


@pytest.mark.parametrize("family", LSQ_FAMILIES)
def test_fit_report_counts_the_work_of_every_start(family, monkeypatch):
    solutions = []
    solve = mapping_mod.least_squares

    def spy(fun, x0, **kwargs):
        solutions.append(solve(fun, x0, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(mapping_mod, "least_squares", spy)
    mf = fit_mapping(LSQ_CASES["noisy"], family)
    (sol,) = solutions
    assert len(sol.lane_nfev) >= 2 and all(sol.lane_nfev > 0)
    assert mf.fit_report.iterations == sum(sol.lane_nfev) == sol.nfev


def test_a_bad_start_is_skipped_but_a_coding_error_propagates(monkeypatch):
    points = LSQ_CASES["noisy"]
    good = fit_mapping(points, "cubic4")
    solutions = []
    solve = mapping_mod.least_squares

    def spy(fun, x0, **kwargs):
        solutions.append(solve(fun, x0, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(mapping_mod, "least_squares", spy)
    starts = mapping_mod._Cubic4.starts
    bad = np.full(4, np.nan)
    # a start whose residuals are not finite, before, between and after the good ones
    monkeypatch.setattr(mapping_mod._Cubic4, "starts", lambda self, x, y: [
        bad, starts(self, x, y)[0], bad, starts(self, x, y)[1], bad])
    # the bad lanes spend nothing and cannot win; the good ones still finish
    assert fit_mapping(points, "cubic4") == good
    (sol,) = solutions
    assert sol.status[[0, 2, 4]].tolist() == [-1, -1, -1]
    assert sol.lane_nfev[[0, 2, 4]].tolist() == [0, 0, 0]
    assert sol.status[[1, 3]].tolist() == [1, 1]

    monkeypatch.setattr(mapping_mod._Cubic4, "starts", lambda self, x, y: [bad, bad])
    with pytest.raises(FitError, match="no least-squares start converged"):
        fit_mapping(points, "cubic4")

    def coding_error(fun, x0, **kwargs):
        raise TypeError("unsupported operand type(s)")

    monkeypatch.setattr(mapping_mod, "least_squares", coding_error)
    with pytest.raises(TypeError, match="unsupported operand"):
        fit_mapping(points, "cubic4")


def test_noisy_panel_fits_are_all_usable():
    # noisy_panel's study, built directly: its noisy co-distributions pull an
    # unconstrained cubic into a decreasing stretch, so all 20 fits are usable
    # only when every family is monotone by construction.
    spec = SimSpec(n_contents=6, observer_count=9, rating_noise_sd=2.0, seed=4)
    corpus, _ = simulate_corpus(spec)
    corpus = apply_screening(corpus, screen_bt500(corpus))
    pairs = classify_pairs(corpus)
    decomp = assign_pairs(pairs, decompose_balanced(corpus, 5), corpus)
    _, models = fit_all(decomp, pairs, FAMILIES, bin_width=1.0)
    fits = [mf for per_range in models.values() for mf in per_range.values()]
    assert len(fits) == 20
    unusable = [(mf.family, mf.fit_report.flags) for mf in fits if not mf.fit_report.monotone]
    assert unusable == []


def _study_points(spec: SimSpec, k: int, range_id: str, bin_width: float) -> tuple:
    """The p_sd points of one range of a simulated study, screened, Welch-classified
    and decomposed into ``k`` balanced ranges."""
    corpus, _ = simulate_corpus(spec)
    corpus = apply_screening(corpus, screen_bt500(corpus))
    pairs = classify_pairs(corpus, test="welch")
    decomp = assign_pairs(pairs, decompose_balanced(corpus, k), corpus)
    (srange,) = (r for r in decomp.ranges if r.range_id == range_id)
    return build_codistribution(srange, pairs, bin_width=bin_width).points()


#: Small noisy studies whose logistic5 fit has a worse local minimum on the
#: b2 -> 0 plateau of a straight line, and the residual norm the bounded trf
#: fit of (b1, b2, b4 >= 0) reached on each.
PLATEAU_STUDIES = {
    "seed-922759": (
        SimSpec(n_contents=4, observer_count=7, rating_noise_sd=2.0,
                jnd_scale=3.6184381690967538, seed=922759),
        2, "(83.5784,100]", 2.0, 0.5200216815664338,
    ),
    "seed-933419": (
        SimSpec(n_contents=8, observer_count=5, rating_noise_sd=1.0,
                jnd_scale=3.0466097923388893, seed=933419),
        3, "(68.0051,77.8712]", 3.0, 0.49401109255897024,
    ),
    "seed-886965": (
        SimSpec(n_contents=7, ladder=SimSpec().ladder[:7], observer_count=7,
                rating_noise_sd=5.676673088323087, jnd_scale=0.6376215119428277, seed=886965),
        5, "(90.7362,94.0095]", 0.5, 0.6755890740513419,
    ),
    "seed-882969": (
        SimSpec(n_contents=4, ladder=SimSpec().ladder[:5], observer_count=9,
                rating_noise_sd=9.848186387243782, jnd_scale=29.492719341937605, seed=882969),
        5, "(90.5836,93.1731]", 1.0, 0.6236095644623237,
    ),
}


def test_logistic5_needs_more_than_its_first_start(monkeypatch):
    # A small study where start 0 stops at a cost 1.8x the best start's:
    # the later starts are not redundant, even where every start ties on the
    # benchmark studies.
    spec = SimSpec(n_contents=3, ladder=SimSpec().ladder[:10], observer_count=2,
                   jnd_scale=2.0958626354058416, rating_noise_sd=0.23474921031692686, seed=88343)
    points = _study_points(spec, 3, "(80.2503,87.6959]", 2.0)
    assert len(points[0]) == 8
    assert fit_mapping(points, "logistic5").fit_report.residual_norm == pytest.approx(
        0.42793, abs=1e-5
    )
    starts = mapping_mod._Logistic5.starts
    monkeypatch.setattr(mapping_mod._Logistic5, "starts", lambda self, x, y: starts(self, x, y)[:1])
    assert fit_mapping(points, "logistic5").fit_report.residual_norm == pytest.approx(
        0.57577, abs=1e-5
    )


@pytest.mark.parametrize("study", sorted(PLATEAU_STUDIES))
def test_logistic5_starts_reach_below_the_straight_line_plateau(study):
    # started from the slopes s0/4 and s0 at the two inner centers only,
    # logistic5 ends 6.1% and 0.5% above these on seeds 882969 and 922759
    spec, k, range_id, bin_width, trf_residual = PLATEAU_STUDIES[study]
    mf = fit_mapping(_study_points(spec, k, range_id, bin_width), "logistic5")
    assert mf.fit_report.residual_norm == pytest.approx(trf_residual, rel=1e-3)
    assert mf.fit_report.monotone


#: A small noisy study with a range on which scipy 1.17.1's MINPACK
#: (``least_squares(method="lm")``) spent 996 evaluations on the logistic5
#: fit in one call and 1005 in another, depending on the heap.
REPEAT_STUDY = (
    SimSpec(n_contents=8, ladder=SimSpec().ladder[:7], observer_count=3,
            jnd_scale=31.835078562440184, rating_noise_sd=5.901201244353641, seed=761895),
    2, "(88.2682,100]", 0.5,
)


@pytest.mark.parametrize("family", LSQ_FAMILIES)
def test_a_repeated_fit_is_bit_identical(family):
    points = _study_points(*REPEAT_STUDY)
    rng = np.random.default_rng(0)
    fits = []
    for _ in range(8):
        # a differently laid-out heap, with different stale values, each time
        sizes, values = rng.integers(1, 2000, 40), rng.choice([1e300, -1.0, 0.5, 1e-300], 40)
        held = [np.full(int(n), v) for n, v in zip(sizes, values)]
        fits.append(fit_mapping(points, family))
        del held
    assert all(mf == fits[0] for mf in fits[1:])


def _lanes(family: str, points: tuple, lanes: int) -> tuple:
    """The residuals and Jacobian of one range's points, ``lanes`` times over."""
    spec = FAMILY_TABLE[family]
    x, y, w = (np.repeat(v[:, None], lanes, axis=1) for v in points)
    sw = np.sqrt(w)
    domain = (0.0, np.full(lanes, x.max()))

    def fun(theta):
        return sw * (spec.curve(spec.to_params(theta, domain), x) - y)

    def jac(theta):
        return sw[:, None] * spec.jacobian(theta, x, domain)

    return fun, jac


@pytest.mark.parametrize("study", ["default", "repeat"])
def test_a_range_fits_the_same_alone_and_in_any_batch(study, default_sim):
    # fit_all solves every start of every range of a family as lanes of one
    # call, each range padded with zero-weight points to the longest range's
    # point count; a range's fit must not depend on its batch
    if study == "default":
        corpus, k, bin_width = default_sim[0], 5, 2.0
    else:
        spec, k, _, bin_width = REPEAT_STUDY
        corpus, _ = simulate_corpus(spec)
    corpus = apply_screening(corpus, screen_bt500(corpus))
    pairs = classify_pairs(corpus)
    decomp = assign_pairs(pairs, decompose_balanced(corpus, k), corpus)
    codists, models = fit_all(decomp, pairs, FAMILIES, bin_width=bin_width)
    sizes = {range_id: len(cd.points()[0]) for range_id, cd in codists.items()}
    assert len(set(sizes.values())) > 1  # so some ranges are padded
    for srange in decomp.ranges:
        points = codists[srange.range_id].points()
        refs = set(srange.pair_refs)
        glm_pairs = _take(pairs, np.flatnonzero([pair_id in refs for pair_id in pairs.pair_ids]))
        for family in FAMILIES:
            alone = fit_mapping(points, family, pairs_for_glm=glm_pairs)
            assert models[srange.range_id][family] == alone  # params, report, flags

    # one lane alone and the same lane among all starts, on the most points
    points = codists[max(sizes, key=sizes.get)].points()
    assert len(points[0]) >= 8
    for family in LSQ_FAMILIES:
        x0 = np.column_stack(FAMILY_TABLE[family].starts(*points[:2]))
        fun, jac = _lanes(family, points, x0.shape[1])
        batch = mapping_mod.least_squares(fun, x0, jac=jac, max_nfev=LSQ_MAX_NFEV)
        fun, jac = _lanes(family, points, 1)
        for lane in range(x0.shape[1]):
            sol = mapping_mod.least_squares(fun, x0[:, [lane]], jac=jac, max_nfev=LSQ_MAX_NFEV)
            assert sol.x[:, 0].tolist() == batch.x[:, lane].tolist()
            assert (sol.cost[0], sol.nfev, sol.status[0]) == (
                batch.cost[lane], batch.lane_nfev[lane], batch.status[lane])


def test_fit_work_of_a_tiny_study_is_bounded_by_the_budget():
    # one content, six rungs, three noiseless observers: two ranges whose
    # p_sd steps from 0 to 1, which a logistic fits only as its slope runs to
    # infinity.  The bounded trf fit spent 8 x 4000 evaluations on each of
    # two such fits (26 s).
    spec = SimSpec(n_contents=1, ladder=SimSpec().ladder[:6], observer_count=3,
                   rating_noise_sd=0.0, seed=5)
    corpus, _ = simulate_corpus(spec)
    corpus = apply_screening(corpus, screen_bt500(corpus))
    pairs = classify_pairs(corpus)
    decomp = assign_pairs(pairs, decompose_balanced(corpus, 2), corpus)
    codists, models = fit_all(decomp, pairs, FAMILIES, bin_width=2.0)
    budgeted = []
    for range_id, per_range in models.items():
        x, y, _ = codists[range_id].points()
        for family in LSQ_FAMILIES:
            report = per_range[family].fit_report
            assert report.iterations <= len(FAMILY_TABLE[family].starts(x, y)) * LSQ_MAX_NFEV
            if "budget" in report.flags:
                # still monotone by construction, so still usable
                assert report.monotone
                budgeted.append(family)
    assert sorted(budgeted) == ["logistic2", "logistic5"]


def test_irls_converges_on_thirty_thousand_bernoulli_pairs():
    # The gradient's rounding floor at this size sits above 1e-10, so only a
    # step test relative to |beta| can stop the iteration.
    rng = np.random.default_rng(11)
    x = rng.uniform(0, 12, 30000)
    y = (rng.uniform(size=30000) < 1 / (1 + np.exp(-(-2.5 + 0.76 * x)))).astype(float)
    trials = np.ones_like(x)
    beta, iterations = _irls(x, y, trials)
    assert iterations < IRLS_MAX_ITER
    assert beta == pytest.approx([-2.5, 0.76], abs=0.1)
    assert _glm_deviance(beta, x, y, trials)[1] < 1e-8


def _reference_irls(x, y, trials):
    """IRLS as the package once wrote it, the oracle of the closed-form step:
    each iteration solves the 2x2 normal equations in the working response z
    with ``np.linalg.solve`` (``lstsq`` when singular) and then evaluates the
    deviance gradient at the new beta; the stop rules are the package's, on
    labels that overlap."""
    X = np.column_stack([np.ones_like(x), x])
    beta = np.zeros(2)
    for iteration in range(1, IRLS_MAX_ITER + 1):
        eta = X @ beta
        mu = np.clip(_sigmoid(eta), 1e-12, 1.0 - 1e-12)
        z = eta + (y - mu) / (mu * (1.0 - mu))
        xtw = X.T * (trials * mu * (1.0 - mu))
        try:
            beta_new = np.linalg.solve(xtw @ X, xtw @ z)
        except np.linalg.LinAlgError:
            beta_new = np.linalg.lstsq(xtw @ X, xtw @ z, rcond=None)[0]
        step = float(np.max(np.abs(beta_new - beta)))
        beta = beta_new
        mu = np.clip(_sigmoid(X @ beta), 1e-12, 1.0 - 1e-12)
        grad_norm = float(np.linalg.norm(-2.0 * (X.T @ (trials * (y - mu)))))
        if grad_norm < 1e-10 or step < 1e-13 * max(1.0, float(np.max(np.abs(beta)))):
            return beta, iteration
    raise AssertionError("the reference IRLS did not converge")


def _bernoulli_problem(seed, n, b0, b1, top):
    rng = np.random.default_rng(seed)
    x = rng.uniform(0.0, top, n)
    y = (rng.uniform(size=n) < 1.0 / (1.0 + np.exp(-(b0 + b1 * x)))).astype(float)
    return x, y, np.ones_like(x)


def _binomial_problem(seed, n_bins, b0, b1):
    # bin centres 1, 3, 5, ... with a random support each, as CoDistribution.points gives
    rng = np.random.default_rng(seed)
    x = 2.0 * np.arange(n_bins) + 1.0
    trials = rng.integers(1, 60, n_bins).astype(float)
    y = rng.binomial(trials.astype(int), 1.0 / (1.0 + np.exp(-(b0 + b1 * x)))) / trials
    return x, y, trials


IRLS_PROBLEMS = {
    "bernoulli-30000": _bernoulli_problem(11, 30000, -2.5, 0.76, 12.0),
    "bernoulli-2000": _bernoulli_problem(3, 2000, -4.0, 0.45, 20.0),
    "bernoulli-60": _bernoulli_problem(5, 60, 0.3, 0.2, 15.0),
    "bernoulli-falling": _bernoulli_problem(7, 500, 1.0, -0.3, 10.0),
    "binomial-8": _binomial_problem(13, 8, -3.0, 0.5),
    "binomial-25": _binomial_problem(17, 25, -6.0, 0.35),
    "binomial-flat": _binomial_problem(19, 6, 0.4, 0.0),
}


@pytest.mark.parametrize("name", list(IRLS_PROBLEMS))
def test_closed_form_irls_matches_the_linalg_reference(name):
    x, y, trials = IRLS_PROBLEMS[name]
    beta, iterations = _irls(x, y, trials)
    ref_beta, _ = _reference_irls(x, y, trials)
    np.testing.assert_allclose(beta, ref_beta, rtol=1e-10, atol=0.0)
    assert 0 < iterations < IRLS_MAX_ITER


# The (|dVMAF|, sig) pairs of range (69.7453,69.8683] of `run --k 200` on the
# default simulated study (seed 1729): sig 0 only at the two smallest deltas,
# so the labels are separated, though 4.53 to 6.82 is no narrow gap.
K200_DELTAS = np.array([
    24.457881018823286, 21.844304460160146, 20.374993157200805, 17.426698026082164,
    15.210331521095497, 13.191928927943053, 11.330968860120379, 9.452773583037981,
    6.817848229520536, 4.53076783066588, 2.164227416751473,
])
K200_SIG = np.array([1, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0])

# x, y and the trials of grouped data (None for Bernoulli pairs), the sign of
# the step and the middle of the gap between the labels
SEPARATED = {
    "rising": ([1.0, 3.0, 4.95, 5.05, 7.0, 9.0], [0, 0, 0, 1, 1, 1], None, 1.0, 5.0),
    "falling": ([1.0, 3.0, 4.95, 5.05, 7.0, 9.0], [1, 1, 1, 0, 0, 0], None, -1.0, 5.0),
    "tie": ([1.0, 3.0, 5.0, 5.0, 7.0, 9.0], [0, 0, 0, 1, 1, 1], None, 1.0, 5.0),
    "grouped": ([1.0, 4.95, 5.05, 7.0], [0.0, 0.0, 1.0, 1.0], [4.0, 9.0, 2.0, 5.0], 1.0, 5.0),
    "grouped-tie": ([1.0, 3.0, 5.0, 7.0], [0.0, 0.0, 0.25, 1.0], [4.0, 9.0, 8.0, 5.0], 1.0, 5.0),
    "k200-range": (K200_DELTAS, K200_SIG, None, 1.0, 0.5 * (4.53076783066588 + 6.817848229520536)),
}


@pytest.mark.parametrize(("x", "y", "trials", "sign", "middle"), list(SEPARATED.values()),
                         ids=list(SEPARATED))
def test_glm_fits_separated_labels_as_a_step_at_the_middle_of_the_gap(x, y, trials, sign, middle):
    # no finite MLE: the slope sits at the cap, IRLS is not run, and the curve
    # crosses 0.5 halfway between the last label of one kind and the first of the other
    x, y = np.array(x, dtype=float), np.array(y)
    glm, domain = FAMILY_TABLE["glm"], (0.0, float(x.max()))
    if trials is None:
        params, monotone, iterations, flags, _ = glm.fit(None, None, None, (x, y), domain)
    else:
        params, monotone, iterations, flags, _ = glm.fit(x, y, np.array(trials), None, domain)
    assert flags == ["separation"] and iterations == 0
    assert params[1] == sign * IRLS_SLOPE_CAP
    assert -params[0] / params[1] == pytest.approx(middle, rel=1e-15)
    assert glm.curve(params, np.array([middle]))[0] == pytest.approx(0.5, abs=1e-12)
    assert monotone == (sign > 0)


@pytest.mark.parametrize("deltas", [(5.0,), (5.0, 5.0, 5.0, 5.0)], ids=["one-pair", "equal-deltas"])
def test_glm_needs_two_distinct_pair_deltas(deltas):
    # the points are any two; the pairwise GLM fits the pairs' own |dVMAF|,
    # and with one value the slope is not identified
    pairs = PairTable(*zip(*(
        ("c1", "a", f"s{i}", d, 0.5, i % 2) for i, d in enumerate(deltas)
    )))
    pts = _points([1.0, 5.0], [0.0, 1.0], 1)
    with pytest.raises(FitError, match=r"^glm: need >= 2 distinct \|dVMAF\| values, got 1$"):
        fit_mapping(pts, "glm", pairs_for_glm=pairs)


def test_irls_on_indistinguishable_deltas_is_a_fit_error():
    # three deltas within 2e-9 of 50: distinct, but the normal equations'
    # determinant cancels to rounding, so there is no step to take
    x = np.array([50.0, 50.0 + 1e-9, 50.0 + 2e-9])
    with pytest.raises(FitError, match=r"^glm: singular IRLS normal equations at b1=0$"):
        _irls(x, np.array([0.0, 1.0, 1.0]), np.ones(3))


def test_irls_non_convergence_reports_state_not_a_guess(monkeypatch):
    monkeypatch.setattr(mapping_mod, "IRLS_MAX_ITER", 1)
    with pytest.raises(FitError) as err:
        fit_mapping(_noiseless_points("glm"), "glm")
    message = str(err.value)
    assert re.search(r"within 1 iterations \(final b1=\S+, deviance gradient norm \S+\)", message)
    assert "separation" not in message


def test_evaluate_mf_clamps_domain_and_unit_interval():
    mf = MappingFunction(
        "logistic2", (0.5, 6.0), (2.0, 10.0), FitReport(0.0, True, 0)
    )
    assert evaluate_mf(mf, -5.0) == evaluate_mf(mf, 2.0)
    assert evaluate_mf(mf, 50.0) == evaluate_mf(mf, 10.0)
    assert 0.0 <= evaluate_mf(mf, 6.0) <= 1.0


def test_is_monotone_direct():
    assert is_monotone("logistic2", np.array([0.5, 6.0]), (0.0, 20.0))
    assert not is_monotone("logistic2", np.array([-0.5, 6.0]), (0.0, 20.0))


def test_fit_input_guards():
    points = _noiseless_points("logistic5")
    with pytest.raises(FitError):
        fit_mapping([column[:3] for column in points], "logistic5")
    with pytest.raises(FitError):
        fit_mapping([column[:1] for column in points], "glm")
    unknown = re.escape(f"unknown family 'spline9'; expected one of {FAMILIES}")
    with pytest.raises(ValueError, match=unknown):
        fit_mapping(points, "spline9")
    with pytest.raises(ValueError, match=unknown):
        fit_all(decompose_explicit([0.0, 100.0]), [], families=("spline9",))


def test_fit_all_and_serialization(tmp_path):
    rng = np.random.default_rng(5)
    vm = {f"s{i}": 90.0 - 3.0 * i for i in range(12)}
    stimuli = tuple(
        Stimulus("c1", Recipe(r, "1080p", i + 1), v)
        for i, (r, v) in enumerate(vm.items())
    )
    corpus = Corpus(stimuli, (), ())
    recipes = list(vm)
    rows = []
    for i, rx in enumerate(recipes):
        for ry in recipes[i + 1 :]:
            delta = abs(vm[rx] - vm[ry])
            p_true = 1.0 / (1.0 + np.exp(-0.8 * (delta - 6.0)))
            rows.append(("c1", rx, ry, delta, 0.5, int(rng.uniform() < p_true)))
    pairs = PairTable(*zip(*rows))
    decomp = assign_pairs(pairs, decompose_explicit([50.0, 75.0, 100.0]), corpus)
    codists, models = fit_all(decomp, pairs, families=FAMILIES, bin_width=2.0)
    assert set(models) <= set(decomp.range_ids())
    assert set(codists) == set(decomp.range_ids())
    for per_range in models.values():
        for family, mf in per_range.items():
            assert mf.family == family
            assert len(mf.params) == FAMILY_TABLE[family].n_params

    data = models_to_json_dict(models)
    restored = models_from_json_dict(data)
    assert restored == models
    path = tmp_path / "mf_params.json"
    write_json(path, data)
    assert read_mf_params_json(path) == models


def test_fit_all_skips_empty_ranges(caplog):
    import logging

    _, pairs = _codist_fixture()
    corpus = Corpus(
        tuple(
            Stimulus("c1", Recipe(r, "1080p", i + 1), v)
            for i, (r, v) in enumerate(
                (("a", 40.0), ("b", 39.0), ("c", 38.8), ("d", 32.5))
            )
        ),
        (),
        (),
    )
    decomp = assign_pairs(pairs, decompose_explicit([0.0, 50.0, 100.0]), corpus)
    with caplog.at_level(logging.WARNING):
        codists, models = fit_all(decomp, pairs, families=("glm",), glm_mode="pairwise")
    assert "(50,100]" not in models
    assert "(50,100]" not in codists


def test_codist_csv_round_trip(tmp_path):
    srange, pairs = _codist_fixture()
    cd = build_codistribution(srange, pairs, bin_width=2.0)
    text = codist_csv_text({cd.range_id: cd})
    lines = text.splitlines()
    assert lines[0] == "range_id,bin_lo,bin_hi,f_dif,f_sim,p_sd"
    # Empty bins keep their counts but publish no probability.
    assert '"(0,50]",2.0,4.0,0,0,' in lines
    path = tmp_path / "codist.csv"
    path.write_text(text)
    restored = read_codist_csv(path)
    assert restored[cd.range_id] == cd


def test_codist_csv_rejects_a_negative_count(tmp_path):
    path = tmp_path / "codist.csv"
    path.write_text('range_id,bin_lo,bin_hi,f_dif,f_sim,p_sd\n"(0,50]",0.0,2.0,-40,0,1.0\n')
    with pytest.raises(CorpusError, match=r"^codist.csv:line 2:f_dif: -40 outside \[0, inf\]"):
        read_codist_csv(path)


def test_curve_samples_round_trip(tmp_path):
    mf = fit_mapping(_noiseless_points("logistic2"), "logistic2")
    models = {"(0,100]": {"logistic2": mf}}
    text = curve_samples_csv_text(models)
    assert len(text.splitlines()) == 1 + 200
    path = tmp_path / "curves.csv"
    path.write_text(text)
    curves = read_curve_samples_csv(path)
    xs_ys = curves[("(0,100]", "logistic2")]
    assert len(xs_ys) == 200
    x0, y0 = xs_ys[0]
    assert y0 == pytest.approx(evaluate_mf(mf, x0), abs=1e-9)


def test_family_labels_cover_families():
    assert FAMILIES == tuple(FAMILY_TABLE) == ("logistic5", "cubic4", "logistic2", "glm")
    labels = [FAMILY_TABLE[family].label for family in FAMILIES]
    assert labels == ["5-para", "4-para", "2-para", "GLM"]
    for family in FAMILIES:
        assert len(TRUE_PARAMS[family]) == FAMILY_TABLE[family].n_params
    assert LSQ_FAMILIES == ["logistic5", "cubic4", "logistic2"]
    for family in LSQ_FAMILIES:
        assert hasattr(FAMILY_TABLE[family], "starts")
        assert not hasattr(FAMILY_TABLE[family], "slope")
    # every least-squares family fits in its own coordinates
    for family in LSQ_FAMILIES:
        assert "to_params" in vars(type(FAMILY_TABLE[family]))


#: A point in each family's fit coordinates: the logistics' squared
#: coordinates of either sign, and cubic4's Lukacs coordinates.
FIT_COORDINATES = {
    "logistic5": (0.9, -0.85, 6.0, 0.05, 0.5),
    "cubic4": (0.05, 0.3, -0.2, 0.4),
    "logistic2": (-0.7, 6.0),
}


@pytest.mark.parametrize("family", LSQ_FAMILIES)
def test_analytic_derivatives_match_finite_differences(family):
    spec = FAMILY_TABLE[family]
    theta = np.asarray(FIT_COORDINATES[family], float)
    xs = np.linspace(0.5, 14.5, 15)
    domain = (0.0, 14.5)

    def curve(theta):
        return spec.curve(spec.to_params(theta, domain), xs)

    jacobian = spec.jacobian(theta, xs, domain)
    assert jacobian.shape == (len(xs), spec.n_params)
    for j in range(spec.n_params):
        step = np.zeros_like(theta)
        step[j] = 1e-6 * max(1.0, abs(theta[j]))
        central = (curve(theta + step) - curve(theta - step)) / (2 * step[j])
        np.testing.assert_allclose(jacobian[:, j], central, rtol=1e-6, atol=1e-8)


@pytest.mark.parametrize("family", LSQ_FAMILIES)
def test_every_fit_coordinate_gives_a_non_decreasing_curve(family):
    # what lets each start be one unbounded solve
    spec = FAMILY_TABLE[family]
    domain = (0.0, 14.5)
    grid = np.linspace(*domain, 2000)
    for theta in np.random.default_rng(7).normal(0.0, 2.0, size=(300, spec.n_params)):
        raw = spec.curve(spec.to_params(theta, domain), grid)
        assert np.all(np.diff(raw) >= -mapping_mod.MONOTONE_SLACK)


def test_cubic4_lukacs_coordinates_give_the_stated_slope():
    # dp/dt = (u + v t)**2 + w**2 t (1 - t) with t = d / D: never negative on [0, D]
    spec = FAMILY_TABLE["cubic4"]
    c, u, v, w = FIT_COORDINATES["cubic4"]
    domain = (0.0, 14.5)
    b1, b2, b3, b4 = spec.to_params(np.array([c, u, v, w]), domain)
    t = np.linspace(0.0, 1.0, 101)
    d = t * domain[1]
    slope_in_t = (b2 + 2.0 * b3 * d + 3.0 * b4 * d**2) * domain[1]
    np.testing.assert_allclose(slope_in_t, (u + v * t) ** 2 + w**2 * t * (1.0 - t), atol=1e-12)
    assert b1 == c


def test_decreasing_glm_fit_is_marked_non_monotone_and_serializes():
    xs = np.linspace(1.0, 14.0, 10)
    ys = np.linspace(0.9, 0.1, 10)
    mf = fit_mapping(_points(xs, ys, 10), "glm")
    assert mf.fit_report.monotone is False
    data = models_to_json_dict({"(0,100]": {"glm": mf}})
    assert data["(0,100]"]["glm"]["fit_report"]["monotone"] is False
    assert models_from_json_dict(json.loads(json_text(data))) == {"(0,100]": {"glm": mf}}



_GLM_ENTRY = {
    "params": [-3.0, 0.5],
    "domain": [0.0, 14.0],
    "fit_report": {"residual_norm": 0.1, "monotone": True, "iterations": 3},
}


@pytest.mark.parametrize(
    "change, message",
    [
        ({"params": [float("nan"), 0.5], "domain": [0, 10, 99]}, "non-finite params"),
        ({"params": [-3.0, float("inf")]}, "non-finite params"),
        ({"params": [-float("inf"), 0.5]}, "non-finite params"),
        ({"domain": [0, 10, 99]}, "domain must be two finite numbers lo < hi"),
        ({"domain": [5.0]}, "domain must be two finite numbers lo < hi"),
        ({"domain": [10.0, 0.0]}, "domain must be two finite numbers lo < hi"),
        ({"domain": [4.0, 4.0]}, "domain must be two finite numbers lo < hi"),
        ({"domain": [0.0, float("inf")]}, "domain must be two finite numbers lo < hi"),
        ({"domain": [float("nan"), 10.0]}, "domain must be two finite numbers lo < hi"),
    ],
)
def test_models_reader_rejects_corrupt_params_and_domain(change, message):
    data = {"(0,100]": {"glm": {**_GLM_ENTRY, **change}}}
    with pytest.raises(ValueError, match=re.escape(f"(0,100]/glm: {message}")):
        models_from_json_dict(data)


def test_models_reader_accepts_a_sound_entry():
    mf = models_from_json_dict({"(0,100]": {"glm": _GLM_ENTRY}})["(0,100]"]["glm"]
    assert mf.params == (-3.0, 0.5) and mf.domain == (0.0, 14.0)
