"""End-to-end exercises of the command-line interface via subprocesses."""

from __future__ import annotations

import csv
import dataclasses
import gc
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from jndmap import cli, predict, significance
from jndmap.config import DecompositionConfig, RunConfig
from jndmap.ranges import read_ranges_json
from jndmap.tableio import write_json

from conftest import SMALL_SPEC, cli_command

RUN_ARTIFACTS = [
    "screening.json",
    "pairs.csv",
    "ranges.json",
    "codist.csv",
    "mf_params.json",
    "curve_samples.csv",
    "predictions.csv",
    "metrics.json",
    "run_manifest.json",
]


def run_cli(args, env_extra=None, check=True):
    env = dict(os.environ)
    env.pop("JNDMAP_SEED", None)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        cli_command() + [str(a) for a in args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    if check and proc.returncode != 0:
        raise AssertionError(
            f"cli failed ({proc.returncode}):\n{proc.stdout}\n{proc.stderr}"
        )
    return proc


@pytest.fixture(scope="module")
def sim_dir(tmp_path_factory):
    """A small simulated corpus written once for the whole module."""
    out = tmp_path_factory.mktemp("sim")
    spec_path = out / "spec.json"
    write_json(spec_path, SMALL_SPEC.to_json_dict())
    run_cli(["simulate", "--spec", spec_path, "--out-dir", out])
    return out


@pytest.fixture(scope="module")
def run_dir(sim_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    run_cli(
        [
            "run",
            sim_dir / "vmaf_scores.csv",
            sim_dir / "dcr_ratings.csv",
            "--truth",
            sim_dir / "jnd_truth.csv",
            "--out-dir",
            out,
            "--k",
            "2",
        ]
    )
    return out


def test_simulate_writes_tables(sim_dir):
    for name in ("vmaf_scores.csv", "dcr_ratings.csv", "jnd_truth.csv", "sim_truth.json"):
        assert (sim_dir / name).exists(), name


def test_run_writes_all_artifacts(run_dir):
    for name in RUN_ARTIFACTS:
        assert (run_dir / name).exists(), name


def test_run_manifest_contents(run_dir):
    manifest = json.loads((run_dir / "run_manifest.json").read_text())
    assert manifest["tool"] == "jndmap"
    assert "config" in manifest and "config_sha256" in manifest
    assert "version" in manifest
    assert set(manifest["inputs"]) >= {"vmaf_scores.csv", "dcr_ratings.csv"}
    for digest in manifest["inputs"].values():
        assert len(digest) == 64
    listed = {name.split("/")[-1] for name in manifest["artifacts"]}
    # The manifest is sealed before it is written, so it never lists itself.
    assert set(RUN_ARTIFACTS) - {"run_manifest.json"} <= listed


def test_metrics_structure(run_dir):
    metrics = json.loads((run_dir / "metrics.json").read_text())
    assert set(metrics) <= {"inc", "dec"}
    for families in metrics.values():
        for cells in families.values():
            for cell in cells.values():
                assert {"mae", "rmse", "n", "clamped", "skipped"} == set(cell)


def test_corrupt_input_exits_2_with_json_error(sim_dir, tmp_path):
    bad = tmp_path / "vmaf_scores.csv"
    lines = (sim_dir / "vmaf_scores.csv").read_text().splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",boom"
    bad.write_text("\n".join(lines) + "\n")
    proc = run_cli(
        [
            "run",
            bad,
            sim_dir / "dcr_ratings.csv",
            "--out-dir",
            tmp_path / "out",
        ],
        check=False,
    )
    assert proc.returncode == 2
    record = json.loads(proc.stderr.strip().splitlines()[-1])
    assert record["command"] == "run"
    assert "line 4" in record["message"]
    assert "error" in record


def test_seed_precedence(tmp_path):
    flag = tmp_path / "flag"
    env = tmp_path / "env"
    both = tmp_path / "both"
    run_cli(["simulate", "--out-dir", flag, "--seed", "5"])
    run_cli(["simulate", "--out-dir", env], env_extra={"JNDMAP_SEED": "5"})
    run_cli(
        ["simulate", "--out-dir", both, "--seed", "5"],
        env_extra={"JNDMAP_SEED": "7"},
    )
    reference = (flag / "dcr_ratings.csv").read_bytes()
    assert (env / "dcr_ratings.csv").read_bytes() == reference
    assert (both / "dcr_ratings.csv").read_bytes() == reference


def test_truncated_json_input_names_file_and_line(run_dir, tmp_path):
    ranges = tmp_path / "ranges.json"
    head = (run_dir / "ranges.json").read_text().splitlines()[:2]
    ranges.write_text("\n".join(head) + "\n")
    proc = run_cli(
        [
            "fit",
            "--pairs",
            run_dir / "pairs.csv",
            "--ranges",
            ranges,
            "--out-dir",
            tmp_path / "out",
        ],
        check=False,
    )
    assert proc.returncode == 2
    record = json.loads(proc.stderr.strip().splitlines()[-1])
    assert record["error"] == "CorpusError"
    assert record["message"].startswith("ranges.json:line 3:column 1: ")


def test_staged_pipeline_matches_run(sim_dir, run_dir, tmp_path):
    """screen/classify/decompose/fit/evaluate, chained by hand, reproduce
    every artifact `run` writes besides its manifest."""
    vmaf = sim_dir / "vmaf_scores.csv"
    ratings = sim_dir / "dcr_ratings.csv"
    screening = tmp_path / "screening.json"
    pairs = tmp_path / "pairs.csv"
    ranges = tmp_path / "ranges.json"
    run_cli(["screen", vmaf, ratings, "--out", screening])
    run_cli(
        [
            "classify",
            vmaf,
            ratings,
            "--screening-report",
            screening,
            "--out",
            pairs,
        ]
    )
    run_cli(["decompose", vmaf, "--pairs", pairs, "--out", ranges, "--k", "2"])
    run_cli(["fit", "--pairs", pairs, "--ranges", ranges, "--out-dir", tmp_path])
    run_cli(
        [
            "evaluate",
            "--vmaf",
            vmaf,
            "--truth",
            sim_dir / "jnd_truth.csv",
            "--models",
            tmp_path / "mf_params.json",
            "--ranges",
            ranges,
            "--out",
            tmp_path / "metrics.json",
            "--predictions",
            tmp_path / "predictions.csv",
        ]
    )
    for name in RUN_ARTIFACTS:
        if name != "run_manifest.json":
            assert (tmp_path / name).read_bytes() == (run_dir / name).read_bytes(), name


def test_predict_prints_json(run_dir):
    proc = run_cli(
        [
            "predict",
            "--models",
            run_dir / "mf_params.json",
            "--ranges",
            run_dir / "ranges.json",
            "--anchor-vmaf",
            "88.0",
            "--direction",
            "dec",
            "--threshold",
            "0.9",
        ]
    )
    record = json.loads(proc.stdout.strip().splitlines()[-1])
    assert record["threshold"] == 0.9
    assert record["delta_obj_jnd"] > 0.0
    assert 0.0 <= record["target_vmaf"] <= 88.0
    assert record["range_id"]
    assert isinstance(record["clamped"], bool)


def _predict_in_process(run_dir, out, *flags):
    return cli.main(["predict", "--models", str(run_dir / "mf_params.json"), "--ranges",
                     str(run_dir / "ranges.json"), "--direction", "dec", "--out", str(out),
                     *flags])


@pytest.mark.parametrize(("value", "problem"), [
    ("nan", "non-finite value nan"),
    ("inf", "non-finite value inf"),
    ("-5", "-5.0 outside [0.0, 100.0]"),
    ("150", "150.0 outside [0.0, 100.0]"),
])
def test_predict_rejects_an_anchor_vmaf_the_vmaf_column_would(
    sim_dir, run_dir, tmp_path, capsys, value, problem
):
    """``--anchor-vmaf`` follows the rule of the vmaf column: finite and in
    [0, 100].  Out of it, 150 and inf used to predict a target of 100.  The
    flag is checked also when the anchor comes from ``--vmaf-table``."""
    out = tmp_path / "predictions.csv"
    table = ["--vmaf-table", str(sim_dir / "vmaf_scores.csv"), "--content", "c00",
             "--recipe", "r1"]
    for flags in (["--anchor-vmaf", value], ["--anchor-vmaf", value, *table]):
        assert _predict_in_process(run_dir, out, *flags) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": "ValueError", "message": f"--anchor-vmaf: {problem}",
                          "command": "predict", "artifacts_written": []}
        assert not out.exists()
    assert _predict_in_process(run_dir, out, *table) == 0


def test_predict_takes_its_anchor_from_one_source(sim_dir, run_dir, tmp_path, capsys):
    """A valid ``--anchor-vmaf`` beside ``--vmaf-table`` used to lose to the
    table's anchor without a word."""
    out = tmp_path / "predictions.csv"
    vmaf_table = ["--vmaf-table", str(sim_dir / "vmaf_scores.csv")]
    for flags in (vmaf_table, [*vmaf_table, "--content", "c00", "--recipe", "r1"]):
        assert _predict_in_process(run_dir, out, "--anchor-vmaf", "88", *flags) == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": "ValueError", "command": "predict", "artifacts_written": [],
                          "message": "--anchor-vmaf and --vmaf-table both give the anchor; "
                                     "pass one"}
        assert not out.exists()
    # --content and --recipe label an --anchor-vmaf anchor
    assert _predict_in_process(run_dir, out, "--anchor-vmaf", "88", "--content", "c00",
                               "--recipe", "r1") == 0
    assert out.read_text(encoding="utf-8").splitlines()[1].startswith("c00,r1,dec,")


@pytest.mark.parametrize("value", ["0", "100"])
def test_predict_accepts_an_anchor_vmaf_at_either_end_of_the_scale(run_dir, tmp_path, capsys,
                                                                    value):
    out = tmp_path / "predictions.csv"
    assert _predict_in_process(run_dir, out, "--anchor-vmaf", value) == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0.0 <= record["target_vmaf"] <= float(value)
    assert out.read_text(encoding="utf-8").splitlines()[1].startswith("anchor,anchor,dec,")


def test_evaluate_from_artifacts(sim_dir, run_dir, tmp_path):
    out = tmp_path / "metrics.json"
    run_cli(
        [
            "evaluate",
            "--vmaf",
            sim_dir / "vmaf_scores.csv",
            "--truth",
            sim_dir / "jnd_truth.csv",
            "--models",
            run_dir / "mf_params.json",
            "--ranges",
            run_dir / "ranges.json",
            "--out",
            out,
        ]
    )
    assert out.read_text() == (run_dir / "metrics.json").read_text()


def test_render_svg(run_dir, tmp_path):
    out = tmp_path / "curves.svg"
    run_cli(
        [
            "render",
            "--curves",
            run_dir / "curve_samples.csv",
            "--codist",
            run_dir / "codist.csv",
            "--out",
            out,
        ]
    )
    text = out.read_text()
    assert text.startswith("<svg")
    assert "polyline" in text
    # the P_SD scatter: one point per bin that holds a pair
    with open(run_dir / "codist.csv", newline="", encoding="utf-8") as handle:
        rows = list(csv.DictReader(handle))
    non_empty = sum(int(row["f_dif"]) + int(row["f_sim"]) > 0 for row in rows)
    assert text.count("<circle") == non_empty > 0


def test_version_flag():
    proc = run_cli(["--version"])
    assert proc.stdout.strip().startswith("jndmap ")


def test_cli_import_loads_no_scipy_solver(sim_dir, tmp_path):
    # neither the import nor a whole run loads scipy: the fits and the
    # p-values are the package's own
    src = Path(cli.__file__).resolve().parents[1]
    probe = (
        "import sys, jndmap.cli\n"
        "loaded = lambda: sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
        "print('scipy:', loaded(), file=sys.stderr)\n"
        f"assert jndmap.cli.main({_run_argv(sim_dir, tmp_path / 'out')!r}) == 0\n"
        "print('scipy:', loaded(), file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert [line for line in proc.stderr.splitlines() if line.startswith("scipy:")] == [
        "scipy: []", "scipy: []"]
    assert (tmp_path / "out" / "pairs.csv").exists()


def test_config_file_round_trip(sim_dir, tmp_path):
    config = {
        "alpha": 0.01,
        "test": "welch",
        "screening": "none",
        "decomposition": {"strategy": "fixed_width", "width": 25.0},
        "families": ["glm", "logistic2"],
        "thresholds": [0.8, 0.9],
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out = tmp_path / "out"
    run_cli(
        [
            "run",
            sim_dir / "vmaf_scores.csv",
            sim_dir / "dcr_ratings.csv",
            "--truth",
            sim_dir / "jnd_truth.csv",
            "--out-dir",
            out,
            "--config",
            config_path,
        ]
    )
    manifest = json.loads((out / "run_manifest.json").read_text())
    assert manifest["config"]["alpha"] == 0.01
    assert manifest["config"]["screening"] == "none"
    assert manifest["config"]["decomposition"]["strategy"] == "fixed_width"
    models = json.loads((out / "mf_params.json").read_text())
    for per_range in models.values():
        assert set(per_range) <= {"glm", "logistic2"}


#: Every config flag with a valid value (None for a switch).
CONFIG_FLAG_VALUES = {
    "--alpha": "0.01",
    "--test": "student",
    "--screening": "none",
    "--bin-width": "3",
    "--families": "glm,cubic4",
    "--thresholds": "0.8,0.9",
    "--glm-mode": "points",
    "--no-chain": None,
    "--strategy": "explicit",
    "--k": "3",
    "--width": "20",
    "--bounds": "0,50,100",
    "--balance": "pairs",
}
#: Each analysis command's required arguments, and the config flags it reads.
COMMAND_ARGS = {
    "run": ["v.csv", "r.csv", "--out-dir", "out"],
    "screen": ["v.csv", "r.csv", "--out", "s.json"],
    "classify": ["v.csv", "r.csv", "--out", "p.csv"],
    "decompose": ["v.csv", "--pairs", "p.csv", "--out", "r.json"],
    "fit": ["--pairs", "p.csv", "--ranges", "r.json", "--out-dir", "out"],
    "evaluate": ["--vmaf", "v.csv", "--truth", "t.csv", "--models", "m.json",
                 "--ranges", "r.json", "--out", "metrics.json"],
}
COMMAND_FLAGS = {
    "run": set(CONFIG_FLAG_VALUES) | {"--jobs"},
    "screen": {"--screening"},
    "classify": {"--alpha", "--test"},
    "decompose": {"--strategy", "--k", "--width", "--bounds", "--balance"},
    "fit": {"--bin-width", "--families", "--glm-mode"},
    "evaluate": {"--families", "--thresholds", "--no-chain"},
}


def _flag_args(flag, value):
    return [flag] if value is None else [flag, value]


@pytest.mark.parametrize("command", sorted(COMMAND_ARGS))
def test_each_command_takes_only_the_flags_it_reads(command, capsys):
    parser = cli._build_parser()
    candidates = {**CONFIG_FLAG_VALUES, "--seed": "3", "--jobs": "2"}
    for flag, value in candidates.items():
        argv = [command, *COMMAND_ARGS[command], "--config", "c.json", *_flag_args(flag, value)]
        if flag in COMMAND_FLAGS[command]:
            parser.parse_args(argv)
            continue
        with pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        assert exc.value.code == 2, flag
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_unread_flag_exits_2(run_dir, tmp_path):
    proc = run_cli(
        ["fit", "--pairs", run_dir / "pairs.csv", "--ranges", run_dir / "ranges.json",
         "--out-dir", tmp_path, "--alpha", "0.01"],
        check=False,
    )
    assert proc.returncode == 2
    assert "unrecognized arguments: --alpha 0.01" in proc.stderr
    assert not (tmp_path / "mf_params.json").exists()


def test_flags_replace_config_values(tmp_path):
    config = tmp_path / "config.json"
    write_json(
        config,
        {"alpha": 0.2, "decomposition": {"k": 7}, "families": ["glm"], "chain_orders": True},
    )
    base = ["run", *COMMAND_ARGS["run"], "--config", str(config)]
    assert cli._resolve_config(cli._build_parser().parse_args(base)) == RunConfig(
        alpha=0.2, decomposition=DecompositionConfig(k=7), families=("glm",)
    )
    flags = [arg for flag, value in CONFIG_FLAG_VALUES.items() for arg in _flag_args(flag, value)]
    assert cli._resolve_config(cli._build_parser().parse_args(base + flags)) == RunConfig(
        alpha=0.01,
        test="student",
        screening="none",
        decomposition=DecompositionConfig(
            strategy="explicit", k=3, width=20.0, bounds=(0.0, 50.0, 100.0), balance="pairs"
        ),
        bin_width=3.0,
        families=("glm", "cubic4"),
        thresholds=(0.8, 0.9),
        glm_mode="points",
        chain_orders=False,
    )


@pytest.mark.parametrize(
    "flags, config, error",
    [
        (["--k", "1"], None, ("ValueError", "k must be >= 2, got 1")),
        (["--strategy", "fixed_width", "--width", "-3"], None,
         ("ValueError", "width must be positive and finite, got -3.0")),
        (["--strategy", "fixed_width", "--width", "inf"], None,  # no range at all
         ("ValueError", "width must be positive and finite, got inf")),
        (["--strategy", "fixed_width", "--width", "1e-9"], None,
         ("ValueError", "width 1e-09 makes 100000000000 ranges, more than 1000")),
        (["--strategy", "explicit", "--bounds", "0,90,80,100"], None,
         ("ValueError", "bounds: must be strictly increasing, got [0.0, 90.0, 80.0, 100.0]")),
        (["--strategy", "explicit", "--bounds", "50"], None,
         ("ValueError", "bounds: need at least two, got (50.0,)")),
        ([], {"decomposition": {"balance": "pair"}},
         ("CorpusError", "config.json: balance must be 'stimuli' or 'pairs', got 'pair'")),
        # the bin width follows the fixed width's rule; nan used to fail in fit
        # after three artifacts, inf to fit nothing and 1e-300 to overflow numpy
        (["--bin-width", "nan"], None,
         ("ValueError", "bin_width must be positive and finite, got nan")),
        (["--bin-width", "inf"], None,
         ("ValueError", "bin_width must be positive and finite, got inf")),
        (["--bin-width", "1e-300"], None,
         ("ValueError", "bin_width 1e-300 makes 1e+302 bins, more than 1000")),
        # a repeated family or threshold would write each of its
        # predictions.csv rows twice
        (["--families", "glm,glm"], None,
         ("ValueError", "families: each may be listed once, got ['glm', 'glm']")),
        (["--thresholds", "0.5,0.5"], None,
         ("ValueError", "thresholds: each may be listed once, got [0.5, 0.5]")),
        ([], {"thresholds": [0.9, 0.75, 0.9]},
         ("CorpusError",
          "config.json: thresholds: each may be listed once, got [0.9, 0.75, 0.9]")),
    ],
    ids=["k", "width", "width-inf", "width-tiny", "bounds-order", "bounds-one", "balance",
         "bin-width-nan", "bin-width-inf", "bin-width-tiny", "families-repeat",
         "thresholds-repeat", "thresholds-repeat-config"],
)
def test_bad_decomposition_setting_exits_before_any_stage(
    sim_dir, tmp_path, capsys, flags, config, error
):
    argv = ["run", sim_dir / "vmaf_scores.csv", sim_dir / "dcr_ratings.csv",
            "--out-dir", tmp_path / "out", *flags]
    if config is not None:
        write_json(tmp_path / "config.json", config)
        argv += ["--config", tmp_path / "config.json"]
    assert cli.main([str(a) for a in argv]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert (record["error"], record["message"]) == error
    assert record["artifacts_written"] == []
    assert not (tmp_path / "out").exists()


def test_settings_of_other_strategies_are_not_checked():
    odd = DecompositionConfig(k=1, width=-3.0, bounds=(50.0,), balance="pair")
    for strategy in ("balanced", "fixed_width", "explicit"):
        cfg = RunConfig(decomposition=dataclasses.replace(odd, strategy=strategy))
        with pytest.raises(ValueError):
            cfg.validate()
    RunConfig(decomposition=dataclasses.replace(odd, strategy="fixed_width", width=5.0)).validate()
    RunConfig(decomposition=dataclasses.replace(odd, k=3, balance="pairs")).validate()
    RunConfig(decomposition=dataclasses.replace(
        odd, strategy="explicit", bounds=(0.0, 50.0, 100.0))).validate()


def _error_record(proc):
    assert proc.returncode == 2, proc.stderr
    return json.loads(proc.stderr.strip().splitlines()[-1])


@pytest.mark.parametrize("key", ["seed", "familes"])
def test_config_unknown_key_names_file_and_key(sim_dir, tmp_path, key):
    config = tmp_path / "config.json"
    write_json(config, {key: 3})
    proc = run_cli(
        ["run", sim_dir / "vmaf_scores.csv", sim_dir / "dcr_ratings.csv",
         "--out-dir", tmp_path / "out", "--config", config],
        check=False,
    )
    record = _error_record(proc)
    assert record["error"] == "CorpusError"
    assert record["message"].startswith(f"config.json: unknown key '{key}'")


def test_mistyped_spec_names_file_and_key(tmp_path):
    spec = tmp_path / "spec.json"
    write_json(spec, {"n_contents": "3"})
    record = _error_record(run_cli(["simulate", "--spec", spec, "--out-dir", tmp_path], check=False))
    assert record["error"] == "CorpusError"
    assert record["message"] == "spec.json: n_contents: expected int, got '3'"


def test_mf_params_without_fit_report_names_file(run_dir, tmp_path):
    data = json.loads((run_dir / "mf_params.json").read_text())
    for families in data.values():
        for entry in families.values():
            del entry["fit_report"]
    models = tmp_path / "mf_params.json"
    write_json(models, data)
    proc = run_cli(
        ["predict", "--models", models, "--ranges", run_dir / "ranges.json",
         "--anchor-vmaf", "88.0", "--direction", "dec"],
        check=False,
    )
    record = _error_record(proc)
    assert record["error"] == "CorpusError"
    assert record["message"] == "mf_params.json: missing key 'fit_report'"


def test_malformed_artifact_inputs_name_file(sim_dir, run_dir, tmp_path):
    ranges = json.loads((run_dir / "ranges.json").read_text())
    write_json(tmp_path / "ranges.json", {**ranges, "bounds": "x"})
    proc = run_cli(
        ["fit", "--pairs", run_dir / "pairs.csv", "--ranges", tmp_path / "ranges.json",
         "--out-dir", tmp_path / "out"],
        check=False,
    )
    assert _error_record(proc)["message"].startswith("ranges.json: ")
    write_json(tmp_path / "screening.json", {"method": "bt500", "removed": []})
    proc = run_cli(
        ["classify", sim_dir / "vmaf_scores.csv", sim_dir / "dcr_ratings.csv",
         "--screening-report", tmp_path / "screening.json", "--out", tmp_path / "pairs.csv"],
        check=False,
    )
    assert _error_record(proc)["message"] == "screening.json: missing key 'stats'"
    write_json(tmp_path / "ranges.json", {**ranges, "strategy": "bogus"})
    proc = run_cli(
        ["fit", "--pairs", run_dir / "pairs.csv", "--ranges", tmp_path / "ranges.json",
         "--out-dir", tmp_path / "out"],
        check=False,
    )
    assert _error_record(proc)["message"].startswith("ranges.json: unknown strategy 'bogus'")
    models = json.loads((run_dir / "mf_params.json").read_text())
    range_id = sorted(models)[0]
    glm = models[range_id]["glm"]
    bad_domain = f"{range_id}/glm: domain must be two finite numbers lo < hi"
    bad_models = [
        ("unknown family 'bogus'", {range_id: {"bogus": glm}}),
        (f"{range_id}/glm: 3 params, expected 2", {range_id: {"glm": {**glm, "params": [0.0, 1.0, 2.0]}}}),
        # a NaN intercept with a three-number domain used to predict the domain's end
        (f"{range_id}/glm: non-finite params",
         {range_id: {"glm": {**glm, "params": [math.nan, glm["params"][1]], "domain": [0, 10, 99]}}}),
        (f"{range_id}/glm: non-finite params",
         {range_id: {"glm": {**glm, "params": [glm["params"][0], math.inf]}}}),
        *(
            (bad_domain, {range_id: {"glm": {**glm, "domain": domain}}})
            for domain in ([0, 10, 99], [10.0, 0.0], [0.0, math.inf], [math.nan, 10.0])
        ),
    ]
    for message, data in bad_models:
        write_json(tmp_path / "mf_params.json", data)
        proc = run_cli(
            ["predict", "--models", tmp_path / "mf_params.json", "--ranges",
             run_dir / "ranges.json", "--anchor-vmaf", "88.0", "--direction", "dec"],
            check=False,
        )
        record = _error_record(proc)
        assert record["error"] == "CorpusError"
        assert record["message"].startswith(f"mf_params.json: {message}")


def _main_error_record(capsys, argv) -> dict:
    assert cli.main([str(arg) for arg in argv]) == 2
    return json.loads(capsys.readouterr().err.strip().splitlines()[-1])


@pytest.mark.parametrize(("removed", "message"), [
    # a string used to be read as the set of its characters, removing nobody
    ("o01", "screening.json: removed: expected a list of strings, got 'o01'"),
    ([1], "screening.json: removed: expected a list of strings, got [1]"),
    (["o01", "zz"], "screening.json: removed observer 'zz' has no rating"),
], ids=["string", "number", "unknown-observer"])
def test_screening_report_removes_listed_observers_with_ratings(
    sim_dir, run_dir, tmp_path, capsys, removed, message
):
    report = json.loads((run_dir / "screening.json").read_text(encoding="utf-8"))
    write_json(tmp_path / "screening.json", {**report, "removed": removed})
    record = _main_error_record(capsys, [
        "classify", sim_dir / "vmaf_scores.csv", sim_dir / "dcr_ratings.csv",
        "--screening-report", tmp_path / "screening.json", "--out", tmp_path / "pairs.csv"])
    assert record == {"error": "CorpusError", "message": message, "command": "classify",
                      "artifacts_written": []}


@pytest.mark.parametrize("refs", ["c00:r1:r2", {"c00:r1:r2": 0}, ["c00:r1:r2", 3]],
                         ids=["string", "dict", "number"])
def test_ranges_assignments_are_lists_of_pair_ids(run_dir, tmp_path, capsys, refs):
    # a string or dict used to fail as pairs missing from pairs.csv, unnamed
    ranges = json.loads((run_dir / "ranges.json").read_text(encoding="utf-8"))
    range_id = sorted(ranges["assignments"])[0]
    ranges["assignments"][range_id] = refs
    write_json(tmp_path / "ranges.json", ranges)
    record = _main_error_record(capsys, [
        "fit", "--pairs", run_dir / "pairs.csv", "--ranges", tmp_path / "ranges.json",
        "--out-dir", tmp_path / "out"])
    assert record["error"] == "CorpusError"
    assert record["message"] == (
        f"ranges.json: assignments[{range_id!r}]: expected a list of strings, got {refs!r}")


def test_fit_names_both_files_for_a_pair_missing_from_pairs_csv(run_dir, tmp_path, capsys):
    ranges = json.loads((run_dir / "ranges.json").read_text(encoding="utf-8"))
    range_id = sorted(ranges["assignments"])[0]
    ranges["assignments"][range_id].append("zz:a:b")
    write_json(tmp_path / "ranges.json", ranges)
    record = _main_error_record(capsys, [
        "fit", "--pairs", run_dir / "pairs.csv", "--ranges", tmp_path / "ranges.json",
        "--out-dir", tmp_path / "out"])
    assert record == {
        "error": "CorpusError",
        "message": f"ranges.json: range {range_id} references 1 pair(s) not in pairs.csv, "
                   "e.g. ['zz:a:b']",
        "command": "fit",
        "artifacts_written": [],
    }


@pytest.mark.parametrize(("key", "value", "message"), [
    ("assignments", [1], "assignments: expected an object of pair-id lists, got [1]"),
    ("bounds", "x", "bounds: expected a list of numbers, got 'x'"),
    ("bounds", [0, "80", 100], "bounds: expected a list of numbers, got [0, '80', 100]"),
    # these three used to fit nothing and exit 0
    ("bounds", [100, 50, 0], "bounds: must be strictly increasing, got [100.0, 50.0, 0.0]"),
    ("bounds", [50], "bounds: need at least two, got [50.0]"),
    ("assignments", {"(0,1]": []},
     "assignments: 1 key(s) name no range of the bounds, e.g. ['(0,1]']"),
    ("assignments", lambda a, range_id, ref: {**a, range_id: [*a[range_id], ref]},
     "assignments[{range_id!r}]: pair {ref!r} is listed twice"),
], ids=["assignments-list", "bounds-string", "bounds-item-string", "bounds-reversed",
        "bounds-one", "assignments-unknown-range", "assignments-repeat"])
def test_ranges_json_shape_errors_name_the_key(run_dir, tmp_path, capsys, key, value, message):
    # these used to surface Python's own message, without the key; a callable
    # value is built from the file's assignments, its first range and that range's first pair
    ranges = json.loads((run_dir / "ranges.json").read_text(encoding="utf-8"))
    if callable(value):
        range_id = sorted(ranges["assignments"])[0]
        ref = ranges["assignments"][range_id][0]
        value = value(ranges["assignments"], range_id, ref)
        message = message.format(range_id=range_id, ref=ref)
    write_json(tmp_path / "ranges.json", {**ranges, key: value})
    record = _main_error_record(capsys, [
        "fit", "--pairs", run_dir / "pairs.csv", "--ranges", tmp_path / "ranges.json",
        "--out-dir", tmp_path / "out"])
    assert record["error"] == "CorpusError"
    assert record["message"] == f"ranges.json: {message}"
    assert record["artifacts_written"] == []


def _duplicate_line_2(lines):
    return lines[:2] + [lines[1]] + lines[2:]


def _edit_line_2(index, value):
    def edit(lines):
        row = lines[1].split(",")
        row[index] = value
        return [lines[0], ",".join(row)] + lines[2:]

    return edit


def _swap_pair_recipes(lines):
    content_id, recipe_x, recipe_y, *rest = lines[1].split(",")
    return [lines[0], ",".join([content_id, recipe_y, recipe_x, *rest])] + lines[2:]


def _swap_anchor_and_jnd(lines):
    content_id, anchor, direction, jnd, order = lines[1].split(",")
    return [lines[0], ",".join([content_id, jnd, direction, anchor, order])] + lines[2:]


@pytest.mark.parametrize(
    "table, edit, where, message",
    [
        pytest.param("vmaf_scores.csv", _duplicate_line_2, "line 3", "duplicate stimulus c00/r1",
                     id="duplicate-stimulus"),
        pytest.param("dcr_ratings.csv", _duplicate_line_2, "line 3", "duplicate rating for c00/r1",
                     id="duplicate-rating"),
        pytest.param("dcr_ratings.csv", _edit_line_2(1, "zz"), "line 2",
                     "rating references unknown stimulus c00/zz", id="unknown-rated-stimulus"),
        pytest.param("jnd_truth.csv", _edit_line_2(4, "0"), "line 2:order", "0 outside [1, inf]",
                     id="truth-order-0"),
        pytest.param("jnd_truth.csv", _edit_line_2(1, "zz"), "line 2:anchor_recipe_id",
                     "truth anchor references unknown stimulus c00/zz", id="unknown-anchor"),
        pytest.param("jnd_truth.csv", _edit_line_2(3, "zz"), "line 2:jnd_recipe_id",
                     "truth jnd references unknown stimulus c00/zz", id="unknown-jnd"),
        pytest.param("jnd_truth.csv", _swap_anchor_and_jnd, "line 2",
                     "dec truth for c00 moves up in quality", id="truth-moves-wrong-way"),
        pytest.param("jnd_truth.csv", _duplicate_line_2, "line 3",
                     "duplicate truth c00/r1 dec r3 order 1", id="truth-duplicate"),
        pytest.param("pairs.csv", _edit_line_2(0, ""), "line 2:content_id", "empty value",
                     id="pair-empty-id"),
        pytest.param("pairs.csv", _edit_line_2(4, "7.5"), "line 2:p_value",
                     "7.5 outside [0.0, 1.0]", id="pair-p-value-above-1"),
        pytest.param("pairs.csv", _edit_line_2(4, "-0.5"), "line 2:p_value",
                     "-0.5 outside [0.0, 1.0]", id="pair-p-value-below-0"),
        pytest.param("pairs.csv", _duplicate_line_2, "line 3", "duplicate pair ",
                     id="pair-duplicate"),
        pytest.param("pairs.csv", _swap_pair_recipes, "line 2:recipe_y",
                     "recipe_y 'r1' does not sort after recipe_x 'r2'", id="pair-reversed"),
        pytest.param("pairs.csv", _edit_line_2(2, "r1"), "line 2:recipe_y",
                     "recipe_y 'r1' does not sort after recipe_x 'r1'", id="pair-self"),
        pytest.param("vmaf_scores.csv", _edit_line_2(0, "x:r01"), "line 2:content_id",
                     "id 'x:r01' contains ':'", id="colon-in-content-id"),
        pytest.param("dcr_ratings.csv", _edit_line_2(1, "r01:r01"), "line 2:recipe_id",
                     "id 'r01:r01' contains ':'", id="colon-in-rated-recipe-id"),
        pytest.param("jnd_truth.csv", _edit_line_2(3, "r1:r2"), "line 2:jnd_recipe_id",
                     "id 'r1:r2' contains ':'", id="colon-in-truth-recipe-id"),
        pytest.param("pairs.csv", _edit_line_2(1, "r0:r1"), "line 2:recipe_x",
                     "id 'r0:r1' contains ':'", id="colon-in-pair-recipe-id"),
    ],
)
def test_bad_row_names_file_and_line(sim_dir, run_dir, tmp_path, capsys, table, edit, where, message):
    tables = {name: sim_dir / name for name in ("vmaf_scores.csv", "dcr_ratings.csv", "jnd_truth.csv")}
    tables["pairs.csv"] = run_dir / "pairs.csv"
    lines = tables[table].read_text().splitlines()
    tables[table] = tmp_path / table
    tables[table].write_text("\n".join(edit(lines)) + "\n")
    if table == "pairs.csv":
        argv = ["fit", "--pairs", tables["pairs.csv"], "--ranges", run_dir / "ranges.json"]
    else:
        argv = ["run", tables["vmaf_scores.csv"], tables["dcr_ratings.csv"],
                "--truth", tables["jnd_truth.csv"]]
    assert cli.main([str(a) for a in argv + ["--out-dir", tmp_path / "out"]]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "CorpusError"
    assert record["message"].startswith(f"{table}:{where}: {message}")


def test_run_builds_no_pair_or_prediction_objects(sim_dir, run_dir, tmp_path, monkeypatch):
    """``run`` keeps its pairs and predictions as columns from classify to the
    artifacts: with the row constructors refusing, it writes the same bytes."""

    def refuse(self, *args, **kwargs):
        raise AssertionError(f"a {type(self).__name__} was built")

    monkeypatch.setattr(significance.RatedPair, "__init__", refuse)
    monkeypatch.setattr(predict.JndPrediction, "__init__", refuse)
    out = tmp_path / "out"
    argv = ["run", sim_dir / "vmaf_scores.csv", sim_dir / "dcr_ratings.csv",
            "--truth", sim_dir / "jnd_truth.csv", "--out-dir", out, "--k", "2"]
    assert cli.main([str(a) for a in argv]) == 0
    for name in RUN_ARTIFACTS:
        assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name


def test_evaluate_names_range_ids_missing_from_ranges(sim_dir, run_dir, tmp_path):
    ranges = tmp_path / "ranges.json"
    run_cli(["decompose", sim_dir / "vmaf_scores.csv", "--pairs", run_dir / "pairs.csv",
             "--out", ranges, "--strategy", "explicit", "--bounds", "0,80,90,100"])
    proc = run_cli(
        ["evaluate", "--vmaf", sim_dir / "vmaf_scores.csv", "--truth", sim_dir / "jnd_truth.csv",
         "--models", run_dir / "mf_params.json", "--ranges", ranges,
         "--out", tmp_path / "metrics.json"],
        check=False,
    )
    record = _error_record(proc)
    model_ids = sorted(json.loads((run_dir / "mf_params.json").read_text()))
    range_ids = read_ranges_json(ranges).range_ids()
    assert record["message"] == (
        f"mf_params.json range ids {model_ids} are not all in ranges.json range ids {range_ids}"
    )
    assert not (tmp_path / "metrics.json").exists()


@pytest.mark.parametrize(("orders", "message"), [
    ("1", None),
    ("1,x", "--orders: invalid literal for int() with base 10: 'x'"),
    ("0", "--orders: 0 outside [1, inf]"),
], ids=["order-1", "not-an-integer", "zero"])
def test_evaluate_orders_follow_the_order_column_rule(sim_dir, run_dir, tmp_path, capsys,
                                                       orders, message):
    out = tmp_path / "metrics.json"
    argv = [str(a) for a in [
        "evaluate", "--vmaf", sim_dir / "vmaf_scores.csv", "--truth", sim_dir / "jnd_truth.csv",
        "--models", run_dir / "mf_params.json", "--ranges", run_dir / "ranges.json",
        "--out", out, "--orders", orders]]
    if message is None:
        # every truth of the simulated study is of order 1, so the filter keeps them all
        assert cli.main(argv) == 0
        assert out.read_bytes() == (run_dir / "metrics.json").read_bytes()
    else:
        record = _main_error_record(capsys, argv)
        assert record["message"] == message
        assert record["artifacts_written"] == []


# -- the process entry and the cyclic collector --------------------------------


def _run_argv(study, out):
    return [str(a) for a in ["run", study / "vmaf_scores.csv", study / "dcr_ratings.csv",
                             "--truth", study / "jnd_truth.csv", "--out-dir", out, "--k", "2"]]


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_main_leaves_the_collector_as_it_found_it(sim_dir, tmp_path, enabled):
    """Only the process entry turns the collector off and freezes the heap:
    ``main`` called in-process leaves both as its caller set them."""
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    (gc.enable if enabled else gc.disable)()
    try:
        assert cli.main(_run_argv(sim_dir, tmp_path / "out")) == 0
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_a_run_leaves_the_same_cyclic_garbage_at_any_study_size(sim_dir, tmp_path):
    """The process entry runs without the collector, which holds only while a
    run's garbage in reference cycles does not grow with the study: the
    collector finds as much after a run on a study as after one on the same
    study with three times the contents."""
    spec_path = tmp_path / "spec.json"
    write_json(spec_path, dataclasses.replace(SMALL_SPEC, n_contents=3 * SMALL_SPEC.n_contents)
               .to_json_dict())
    assert cli.main(["simulate", "--spec", str(spec_path), "--out-dir", str(tmp_path)]) == 0
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        # the first run also fills import-time caches, so it is not counted
        assert cli.main(_run_argv(sim_dir, tmp_path / "warm")) == 0
        found = []
        for study in (sim_dir, tmp_path):
            gc.collect()
            assert cli.main(_run_argv(study, tmp_path / f"out{len(found)}")) == 0
            found.append(gc.collect())
    finally:
        if was_enabled:
            gc.enable()
    assert found[0] == found[1], found


_ENTRY_PROBE = """\
import atexit, gc, sys
atexit.register(lambda: print("collector", gc.isenabled(), gc.get_freeze_count() > 0,
                              file=sys.stderr))
sys.argv[0] = "jndmap"
"""
_PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _console_script_launch():
    """The code a console-script wrapper runs for ``[project.scripts] jndmap``."""
    target = re.search(r'^jndmap = "([\w.]+):(\w+)"$', _PYPROJECT.read_text(), re.M)
    module, func = target.groups()
    return f"from {module} import {func}\nsys.exit({func}())\n"


@pytest.mark.parametrize("entry", ["module", "script"])
def test_process_entry_runs_main_without_the_collector(run_dir, tmp_path, entry):
    """``python -m jndmap.cli`` and the ``jndmap`` console script run the same
    entry: ``main``'s exit status, outputs and error record, with the
    collector off and the heap frozen by the time the process exits."""
    launch = {
        "module": "import runpy\nrunpy.run_module('jndmap.cli', run_name='__main__', alter_sys=True)\n",
        "script": _console_script_launch(),
    }[entry]

    def probe(*args):
        return subprocess.run([sys.executable, "-c", _ENTRY_PROBE + launch, *map(str, args)],
                              capture_output=True, text=True, timeout=120)

    curves = run_dir / "curve_samples.csv"
    assert cli.main(["render", "--curves", str(curves), "--out", str(tmp_path / "main.svg")]) == 0
    proc = probe("render", "--curves", curves, "--out", tmp_path / "entry.svg")
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "entry.svg").read_bytes() == (tmp_path / "main.svg").read_bytes()
    assert proc.stderr.splitlines()[-1] == "collector False True"

    proc = probe("render", "--curves", tmp_path / "missing.csv", "--out", tmp_path / "x.svg")
    assert proc.returncode == 2
    lines = proc.stderr.strip().splitlines()
    assert lines[-1] == "collector False True"
    record = json.loads(lines[-2])
    assert record["command"] == "render" and record["artifacts_written"] == []
    assert not (tmp_path / "x.svg").exists()
