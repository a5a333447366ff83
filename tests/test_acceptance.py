"""Acceptance criteria for the delta-quality -> JND-probability pipeline.

Each test covers one advertised guarantee, end to end, with its tolerance
pinned in the assertions.  Run with ``pytest -v tests/test_acceptance.py`` to
get one pass/fail line per criterion.
"""

from __future__ import annotations

import itertools
import json
import math
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest

from jndmap import cli
from jndmap.corpus import save_corpus
from jndmap.evaluate import EvalGrid, EvalGridSpec, evaluate_grid, format_grid_table
from jndmap.mapping import (
    FAMILIES,
    PsdPoint,
    _eval_raw,
    build_codistribution,
    evaluate_mf,
    fit_all,
    fit_mapping,
    is_monotone,
    psd_points,
)
from jndmap.predict import invert_at_threshold
from jndmap.ranges import SubQualityRange, decompose_balanced, decompose_explicit, assign_pairs
from jndmap.screening import apply_screening, screen_bt500
from jndmap.significance import RatedPair, classify_pairs, welch_t_test
from jndmap.simulate import SimSpec, simulate_corpus

from conftest import build_inverted_observer_corpus, cli_command

README = Path(__file__).resolve().parent.parent / "README.md"


# --------------------------------------------------------------------------
# criterion 1: co-distribution counts are conserved and P_SD is the exact
# frequency ratio, over randomized pair sets, in under a second.
# --------------------------------------------------------------------------


def test_criterion_1_codistribution_conservation():
    rng = np.random.default_rng(101)
    width = 2.0
    started = time.perf_counter()
    for trial in range(100):
        n = int(rng.integers(5, 80))
        deltas = rng.uniform(0.05, 29.9, size=n)
        sigs = rng.integers(0, 2, size=n)
        pairs = [
            RatedPair("c", f"x{i}", f"y{i}", float(d), 0.5, int(s))
            for i, (d, s) in enumerate(zip(deltas, sigs))
        ]
        srange = SubQualityRange(
            0.0, 50.0, "(0,50]", tuple(p.pair_id for p in pairs)
        )
        cd = build_codistribution(srange, pairs, bin_width=width)

        # Independent recount: place every delta by integer division.
        n_bins = len(cd.f_dif)
        expect_dif = [0] * n_bins
        expect_sim = [0] * n_bins
        for d, s in zip(deltas, sigs):
            idx = min(int(d / width), n_bins - 1)
            if s:
                expect_dif[idx] += 1
            else:
                expect_sim[idx] += 1
        assert list(cd.f_dif) == expect_dif, f"trial {trial}: f_dif mismatch"
        assert list(cd.f_sim) == expect_sim, f"trial {trial}: f_sim mismatch"
        assert sum(cd.f_dif) + sum(cd.f_sim) == n

        for point in psd_points(cd):
            idx = min(int(point.delta_obj / width), n_bins - 1)
            fd, fs = cd.f_dif[idx], cd.f_sim[idx]
            assert point.p_sd == fd / (fd + fs)
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0, f"took {elapsed:.3f}s, budget 1s"
    print(f"criterion 1 PASS: 100 randomized co-distributions exact ({elapsed:.3f}s)")


# --------------------------------------------------------------------------
# criterion 2: every family refits noiseless curves to numerical precision.
# --------------------------------------------------------------------------

TRUE_PARAMS = {
    "logistic5": (0.85, 0.8, 6.0, 0.002, 0.5),
    "cubic4": (0.05, 0.002, 0.008, -0.00032),
    "logistic2": (0.5, 6.0),
    "glm": (-3.0, 0.5),
}


def test_criterion_2_four_family_recovery():
    started = time.perf_counter()
    xs = np.linspace(0.5, 14.5, 15)
    worst = 0.0
    for family, params in TRUE_PARAMS.items():
        truth = _eval_raw(family, np.asarray(params, float), xs)
        points = [PsdPoint(float(x), float(y), 25) for x, y in zip(xs, truth)]
        mf = fit_mapping(points, family)
        fitted = np.array([evaluate_mf(mf, float(x)) for x in xs])
        rms = float(np.sqrt(np.mean((fitted - truth) ** 2)))
        worst = max(worst, rms)
        assert rms < 1e-4, f"{family}: refit rms {rms:.3e} over 1e-4"
        if family == "glm":
            grad = mf.fit_report.extras["deviance_grad_norm"]
            assert grad < 1e-8, f"glm deviance gradient {grad:.3e} over 1e-8"
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"took {elapsed:.3f}s, budget 5s"
    print(
        f"criterion 2 PASS: all families refit exactly "
        f"(worst rms {worst:.2e}, {elapsed:.2f}s)"
    )


# --------------------------------------------------------------------------
# criterion 3: fitted curves are monotone on a dense grid and threshold
# inversion round-trips within 1e-6, with honest clamp flags.
# --------------------------------------------------------------------------


def test_criterion_3_monotonicity_and_inversion():
    xs = np.linspace(0.5, 14.5, 15)
    thresholds = np.linspace(0.05, 0.95, 19)
    checked = 0
    for family, params in TRUE_PARAMS.items():
        truth = _eval_raw(family, np.asarray(params, float), xs)
        points = [PsdPoint(float(x), float(y), 25) for x, y in zip(xs, truth)]
        mf = fit_mapping(points, family)
        assert mf.fit_report.monotone
        assert is_monotone(mf.family, np.asarray(mf.params), mf.domain)
        lo, hi = mf.domain
        for thr in thresholds:
            delta, clamped = invert_at_threshold(mf, float(thr))
            value = evaluate_mf(mf, delta)
            if clamped:
                assert (delta == lo and value >= thr) or (
                    delta == hi and evaluate_mf(mf, hi) < thr
                ), f"{family}@{thr:.2f}: clamp flag inconsistent"
            else:
                assert abs(value - thr) <= 1e-6, (
                    f"{family}@{thr:.2f}: roundtrip off by {abs(value - thr):.2e}"
                )
            checked += 1
    print(f"criterion 3 PASS: {checked} inversions monotone and within 1e-6")


# --------------------------------------------------------------------------
# criterion 4: the significance test agrees with exact permutation
# enumeration, nails a hand-worked example, and screening removes exactly
# the planted erratic observer.
# --------------------------------------------------------------------------

# Score vectors frozen after checking agreement; p-values span 0.02..0.86.
PERMUTATION_VECTORS = [
    ([4, 1, 1, 3, 2, 4, 3, 3, 4], [5, 4, 4, 5, 5, 4, 2, 5, 4]),
    ([1, 3, 1, 2, 2, 2, 1, 1], [5, 3, 2, 1, 5, 4, 2, 4, 1]),
    ([1, 3, 2, 2, 1, 3, 5], [3, 4, 3, 5, 3, 3, 4, 5, 3]),
    ([5, 2, 5, 2, 3, 5, 2], [3, 2, 3, 1, 4, 2, 3, 1, 2]),
    ([5, 4, 1, 5, 5, 5, 1, 5, 3], [1, 4, 3, 1, 3, 4, 3, 3]),
    ([5, 4, 4, 4, 5, 3, 4, 1, 2], [4, 1, 4, 1, 1, 3, 4]),
    ([2, 2, 3, 4, 3, 5, 2, 4], [2, 1, 4, 2, 2, 3, 5]),
    ([5, 3, 3, 5, 3, 4, 1, 1, 2], [1, 2, 3, 1, 3, 1, 5, 5]),
    ([1, 2, 5, 5, 1, 1, 4], [5, 1, 2, 4, 4, 5, 2, 2, 2]),
    ([3, 3, 4, 5, 1, 3, 3, 3, 2], [5, 2, 1, 3, 4, 5, 4, 1]),
]


def _oracle_t(a: np.ndarray, b: np.ndarray) -> float:
    """Welch statistic computed from first principles (oracle-side)."""
    va = a.var(ddof=1) / len(a)
    vb = b.var(ddof=1) / len(b)
    diff = a.mean() - b.mean()
    if va + vb == 0.0:
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return float(diff / math.sqrt(va + vb))


def _permutation_p(a: list[int], b: list[int]) -> float:
    """Exact two-sided permutation p-value by full enumeration."""
    pooled = np.asarray(a + b, dtype=float)
    na, n = len(a), len(a) + len(b)
    nb = n - na
    observed = abs(_oracle_t(np.asarray(a, float), np.asarray(b, float)))

    combos = np.array(list(itertools.combinations(range(n), na)))
    group_a = pooled[combos]
    sum_a = group_a.sum(axis=1)
    mean_a = sum_a / na
    mean_b = (pooled.sum() - sum_a) / nb
    var_a = group_a.var(axis=1, ddof=1)
    sumsq_b = (pooled**2).sum() - (group_a**2).sum(axis=1)
    var_b = np.maximum((sumsq_b - nb * mean_b**2) / (nb - 1), 0.0)
    se2 = var_a / na + var_b / nb
    diff = mean_a - mean_b
    with np.errstate(divide="ignore", invalid="ignore"):
        stats = np.where(
            se2 > 0.0,
            np.abs(diff) / np.sqrt(se2),
            np.where(diff == 0.0, 0.0, np.inf),
        )
    return float(np.mean(stats >= observed - 1e-12))


def test_criterion_4_significance_and_screening():
    # Hand-worked example: unit shift of 1..5 against itself.
    hand = welch_t_test([1, 2, 3, 4, 5], [2, 3, 4, 5, 6])
    assert hand.t == -1.0 and hand.df == 8.0
    assert hand.p == pytest.approx(0.34659350708733416, abs=1e-14)

    worst = 0.0
    for a, b in PERMUTATION_VECTORS:
        welch_p = welch_t_test(a, b).p
        perm_p = _permutation_p(a, b)
        gap = abs(welch_p - perm_p)
        worst = max(worst, gap)
        assert gap <= 2e-2, f"{a} vs {b}: |{welch_p:.4f} - {perm_p:.4f}| > 0.02"

    corpus = build_inverted_observer_corpus()
    report = screen_bt500(corpus)
    assert report.removed_observers == frozenset({"bad"}), (
        f"expected only the planted observer, got {sorted(report.removed_observers)}"
    )
    print(
        f"criterion 4 PASS: permutation gap <= {worst:.4f}; "
        "screening removed exactly the planted observer"
    )


# --------------------------------------------------------------------------
# criterion 5: on the default synthetic study the best grid cell predicts
# panel JNDs within 1.5 VMAF mean absolute error, inside a minute.
# --------------------------------------------------------------------------


def test_criterion_5_end_to_end_accuracy():
    started = time.perf_counter()
    corpus, info = simulate_corpus(SimSpec())
    report = screen_bt500(corpus)
    corpus = apply_screening(corpus, report)
    pairs = classify_pairs(corpus, alpha=0.05, test="welch")
    decomp = assign_pairs(pairs, decompose_balanced(corpus, 5), corpus)
    _, models = fit_all(decomp, pairs, FAMILIES, bin_width=2.0)
    grid = evaluate_grid(corpus, models, decomp, EvalGridSpec())
    key, best = grid.best_cell()
    elapsed = time.perf_counter() - started
    assert best.mae is not None
    assert best.mae <= 1.5, f"best cell {key}: mae {best.mae:.4f} over 1.5"
    assert best.n >= 10
    assert elapsed < 60.0, f"pipeline took {elapsed:.1f}s, budget 60s"
    print(
        f"criterion 5 PASS: best cell {key} mae={best.mae:.4f} "
        f"(n={best.n}) in {elapsed:.1f}s"
    )


# --------------------------------------------------------------------------
# criterion 6: explicit decomposition reproduces the published range labels,
# the report table is laid out threshold x family, and the README pins the
# published benchmark numbers.
# --------------------------------------------------------------------------


def test_criterion_6_reference_labels_and_readme():
    decomp = decompose_explicit([30.0, 79.0, 86.0, 90.0, 95.0, 100.0])
    assert decomp.range_ids() == [
        "(30,79]",
        "(79,86]",
        "(86,90]",
        "(90,95]",
        "(95,100]",
    ]

    grid = EvalGrid(
        spec=EvalGridSpec(thresholds=(0.85, 0.95), families=FAMILIES),
        cells={},
        predictions=(),
    )
    table = format_grid_table(grid, "dec")
    lines = table.splitlines()
    header = next(l for l in lines if "5-para" in l)
    for label in ("5-para", "4-para", "2-para", "GLM"):
        assert label in header
    assert any(l.strip().startswith("0.85") for l in lines)
    assert any(l.strip().startswith("0.95") for l in lines)

    readme = README.read_text()
    for figure in ("3.4963", "4.8471", "3.2493", "3.0491"):
        assert figure in readme, f"README missing benchmark figure {figure}"
    print("criterion 6 PASS: range labels, table layout, README benchmarks")


# --------------------------------------------------------------------------
# criterion 7: re-running with a different worker count changes nothing.
# --------------------------------------------------------------------------


def test_criterion_7_parallel_runs_byte_identical(tmp_path):
    sim = tmp_path / "sim"
    spec = SimSpec(n_contents=10)
    spec_path = tmp_path / "spec.json"
    from jndmap.tableio import write_json

    write_json(spec_path, spec.to_json_dict())
    subprocess.run(
        cli_command() + ["simulate", "--spec", str(spec_path), "--out-dir", str(sim)],
        check=True,
        capture_output=True,
        timeout=300,
    )
    outputs = []
    for jobs in (1, 8):
        out = tmp_path / f"jobs{jobs}"
        proc = subprocess.run(
            cli_command()
            + [
                "run",
                str(sim / "vmaf_scores.csv"),
                str(sim / "dcr_ratings.csv"),
                "--truth",
                str(sim / "jnd_truth.csv"),
                "--out-dir",
                str(out),
                "--jobs",
                str(jobs),
            ],
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out)
    for name in ("metrics.json", "mf_params.json"):
        one = (outputs[0] / name).read_bytes()
        eight = (outputs[1] / name).read_bytes()
        assert one == eight, f"{name} differs between --jobs 1 and --jobs 8"
    print("criterion 7 PASS: --jobs 1 and --jobs 8 byte-identical artifacts")


def test_criterion_7_shuffled_rows_byte_identical(tmp_path, capsys):
    """The same study with the rows of every input table shuffled gives the
    same analysis artifacts; only the manifest's input hashes differ."""
    corpus, _ = simulate_corpus(SimSpec(n_contents=10))
    studies = {"sorted": tmp_path / "sorted", "shuffled": tmp_path / "shuffled"}
    paths = save_corpus(corpus, studies["sorted"])
    rng = np.random.default_rng(2024)
    studies["shuffled"].mkdir()
    for path in paths.values():
        header, *rows = path.read_text().splitlines(keepends=True)
        (studies["shuffled"] / path.name).write_text(
            "".join([header] + [rows[i] for i in rng.permutation(len(rows))])
        )
    for study in studies.values():
        argv = ["run", study / "vmaf_scores.csv", study / "dcr_ratings.csv",
                "--truth", study / "jnd_truth.csv", "--out-dir", study / "out"]
        assert cli.main([str(a) for a in argv]) == 0, capsys.readouterr().err
    outputs = [sorted((study / "out").iterdir()) for study in studies.values()]
    assert [p.name for p in outputs[0]] == [p.name for p in outputs[1]]
    assert len(outputs[0]) == 9
    for one, other in zip(*outputs):
        if one.name == "run_manifest.json":
            one, other = (json.loads(p.read_text()) for p in (one, other))
            assert one.pop("inputs") != other.pop("inputs")
            assert one == other
        else:
            assert one.read_bytes() == other.read_bytes(), f"{one.name} depends on row order"


# Sanity guard for the frozen vectors above (not a criterion by itself).
def test_frozen_vectors_are_valid_scores():
    for a, b in PERMUTATION_VECTORS:
        assert all(1 <= v <= 5 for v in a + b)
