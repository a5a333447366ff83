"""End-to-end exercises of the command-line interface via subprocesses."""

from __future__ import annotations

import collections
import csv
import dataclasses
import gc
import importlib.util
import itertools
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import pytest

import jndmap
from jndmap import cli, corpus, mapping, predict, screening, significance, simulate
from jndmap.config import RunConfig, load_config
from jndmap.ranges import (Balanced, Explicit, FixedWidth, decomposition_to_json_dict,
                           read_ranges_json)
from jndmap.tableio import Columns, json_text, to_json, write_json

from conftest import SMALL_SPEC, cli_command, scalar_prediction

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
    write_json(spec_path, to_json(SMALL_SPEC))
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


def test_each_json_artifact_reads_back_to_the_same_bytes(sim_dir, run_dir, tmp_path):
    """Each JSON artifact of ``run --truth`` that a reader reads, and the
    config in the manifest and the spec in ``sim_truth.json``, read by its
    reader and written again through ``tableio.to_json``, gives its bytes."""
    rewrites = {
        "screening.json": lambda path: to_json(screening.read_report(path)),
        "ranges.json": lambda path: decomposition_to_json_dict(read_ranges_json(path)),
        "mf_params.json": lambda path: mapping.models_to_json_dict(
            mapping.read_mf_params_json(path)),
    }
    for name, rewrite in rewrites.items():
        assert json_text(rewrite(run_dir / name)) == (run_dir / name).read_text(), name
    for path, key, reader in [(run_dir / "run_manifest.json", "config", load_config),
                              (sim_dir / "sim_truth.json", "spec", simulate.read_sim_spec_json)]:
        data = json.loads(path.read_text())
        write_json(tmp_path / key, data[key])
        assert json_text({**data, key: to_json(reader(tmp_path / key))}) == path.read_text()


def test_each_csv_artifact_reads_back_to_the_same_bytes(sim_dir, run_dir):
    """Each CSV artifact of ``run --truth`` that a reader reads, and each table
    that ``simulate`` writes, read by its reader and written again by
    ``Columns.csv_text``, gives its bytes."""
    loaded = corpus.load_corpus(sim_dir / "vmaf_scores.csv", sim_dir / "dcr_ratings.csv",
                                sim_dir / "jnd_truth.csv")
    tables = {sim_dir / name: table for name, table in corpus.corpus_tables(loaded).items()}
    tables[run_dir / "pairs.csv"] = significance.read_pairs_csv(run_dir / "pairs.csv")
    tables[run_dir / "codist.csv"] = mapping.codist_table(
        mapping.read_codist_csv(run_dir / "codist.csv"))
    tables[run_dir / "curve_samples.csv"] = mapping.read_curve_samples_csv(
        run_dir / "curve_samples.csv")
    for path, table in tables.items():
        assert table.csv_text().encode("utf-8") == path.read_bytes(), path.name


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
    """``simulate --seed`` beats the spec's ``seed``, and the retired
    ``JNDMAP_SEED`` variable changes none of the four files."""
    files = ("vmaf_scores.csv", "dcr_ratings.csv", "jnd_truth.csv", "sim_truth.json")
    for seed in (5, 7):
        write_json(tmp_path / f"spec{seed}.json", to_json(dataclasses.replace(SMALL_SPEC, seed=seed)))
    runs = {"spec5": (["--spec", tmp_path / "spec5.json"], None),
            "flag": (["--spec", tmp_path / "spec7.json", "--seed", "5"], None),
            "spec7": (["--spec", tmp_path / "spec7.json"], None),
            "env": (["--spec", tmp_path / "spec7.json"], {"JNDMAP_SEED": "5"})}
    written = {}
    for name, (argv, env) in runs.items():
        run_cli(["simulate", "--out-dir", tmp_path / name, *argv], env_extra=env)
        written[name] = [(tmp_path / name / f).read_bytes() for f in files]
    assert written["flag"] == written["spec5"] != written["spec7"]
    assert written["env"] == written["spec7"]


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
        assert record == {"error": "ConfigError", "message": f"--anchor-vmaf: {problem}",
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
        assert record == {"error": "ConfigError", "command": "predict", "artifacts_written": [],
                          "message": "--anchor-vmaf and --vmaf-table both give the anchor; "
                                     "pass one"}
        assert not out.exists()
    # --content and --recipe label an --anchor-vmaf anchor
    assert _predict_in_process(run_dir, out, "--anchor-vmaf", "88", "--content", "c00",
                               "--recipe", "r1") == 0
    assert out.read_text(encoding="utf-8").splitlines()[1].startswith("c00,r1,dec,")


@pytest.mark.parametrize("value", ["0", "1", "1.5", "nan"])
def test_predict_rejects_a_threshold_outside_the_unit_interval(run_dir, tmp_path, capsys, value):
    out = tmp_path / "predictions.csv"
    assert _predict_in_process(run_dir, out, "--anchor-vmaf", "88", "--threshold", value) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record == {"error": "ConfigError", "command": "predict", "artifacts_written": [],
                      "message": f"--threshold: must be in (0, 1), got {float(value)}"}
    assert not out.exists()


@pytest.mark.parametrize("value", ["0", "100"])
def test_predict_accepts_an_anchor_vmaf_at_either_end_of_the_scale(run_dir, tmp_path, capsys,
                                                                    value):
    out = tmp_path / "predictions.csv"
    assert _predict_in_process(run_dir, out, "--anchor-vmaf", value) == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert 0.0 <= record["target_vmaf"] <= float(value)
    assert out.read_text(encoding="utf-8").splitlines()[1].startswith("anchor,anchor,dec,")


@pytest.fixture(scope="module")
def default_run_dir(tmp_path_factory):
    """``run --truth`` on the default simulated study, in-process."""
    sim, out = tmp_path_factory.mktemp("default_sim"), tmp_path_factory.mktemp("default_run")
    assert cli.main(["simulate", "--seed", str(simulate.SimSpec().seed), "--out-dir", str(sim)]) == 0
    assert cli.main(["run", str(sim / "vmaf_scores.csv"), str(sim / "dcr_ratings.csv"),
                     "--truth", str(sim / "jnd_truth.csv"), "--out-dir", str(out)]) == 0
    return out


def test_artifact_digests_match_the_committed_file(default_run_dir, run_dir):
    """The artifacts that read no libm or SIMD result hash as
    ``tools/artifact_digests.py`` printed them into
    ``tests/artifact_digests.json``, on the same two runs: a change to their
    bytes fails here until the file is written again."""
    tool = Path(__file__).resolve().parents[1] / "tools" / "artifact_digests.py"
    spec = importlib.util.spec_from_file_location("artifact_digests", tool)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    assert list(digests.STUDIES) == ["default_study", "small_study"]
    expected = json.loads((Path(__file__).parent / "artifact_digests.json").read_text())
    assert {"default_study": digests.digests(default_run_dir),
            "small_study": digests.digests(run_dir)} == expected


def test_predict_prints_what_the_scalar_bisection_gives(default_run_dir, capsys):
    """On the default study, ``predict`` prints the record of the scalar
    ``evaluate_mf`` bisection, bit for bit: every family, both directions, an
    anchor in each range and one below the coverage, at three thresholds."""
    models = mapping.read_mf_params_json(default_run_dir / "mf_params.json")
    decomp = read_ranges_json(default_run_dir / "ranges.json")
    anchors = [5.0] + [0.5 * (r.lo + r.hi) for r in decomp.ranges]
    capsys.readouterr()
    for family, direction, threshold, vmaf in itertools.product(
            mapping.FAMILIES, ("dec", "inc"), (0.6, 0.8, 0.95), anchors):
        assert cli.main(["predict", "--models", str(default_run_dir / "mf_params.json"),
                         "--ranges", str(default_run_dir / "ranges.json"),
                         "--anchor-vmaf", repr(vmaf), "--direction", direction,
                         "--threshold", repr(threshold), "--family", family]) == 0
        anchor = corpus.Stimulus("anchor", "anchor", "other", 0, vmaf)
        pred = scalar_prediction(models, decomp, anchor, direction, threshold, family)
        expected = {"range_id": pred.range_id, "family": family, "threshold": threshold,
                    "delta_obj_jnd": pred.delta_obj_jnd, "target_vmaf": pred.target_vmaf,
                    "clamped": pred.clamped}
        assert capsys.readouterr().out == json.dumps(expected, sort_keys=True) + "\n"


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


def test_render_escapes_range_id_and_family(tmp_path):
    """Markup characters in a range id or a family are text in the SVG."""
    curves = tmp_path / "curve_samples.csv"
    rows = [mapping.CurveSample("(0,5]<&>", "a<b&c>", x, x / 10.0) for x in (0.0, 5.0, 10.0)]
    curves.write_text(Columns[mapping.CurveSample].of(rows).csv_text(), encoding="utf-8")
    out = tmp_path / "curves.svg"
    assert cli.main(["render", "--curves", str(curves), "--out", str(out)]) == 0
    texts = [node.text for node in ElementTree.parse(out).iter("{http://www.w3.org/2000/svg}text")]
    assert "(0,5]<&> a<b&c>" in texts


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
    "--strategy": "fixed_width",
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


#: The flags of each strategy's settings.
STRATEGY_FLAGS = {"balanced": ("--k", "--balance"), "fixed_width": ("--width",),
                  "explicit": ("--bounds",)}


def test_fit_refuses_glm_mode_without_the_glm_family(run_dir, tmp_path, capsys):
    """``--glm-mode`` is refused when the resolved families lack glm; the
    config file's ``glm_mode`` key stays allowed, as the file serves every
    stage command."""
    config = tmp_path / "config.json"
    argv = ["fit", "--pairs", run_dir / "pairs.csv", "--ranges", run_dir / "ranges.json",
            "--out-dir", tmp_path / "out", "--config", config]
    write_json(config, {"families": ["logistic2"]})
    assert _main_error_record(capsys, [*argv, "--glm-mode", "points"]) == {
        "error": "ConfigError", "message": "--glm-mode: read only for the glm family, "
        "got ['logistic2']", "command": "fit", "artifacts_written": []}
    assert not (tmp_path / "out").exists()
    write_json(config, {"families": ["logistic2"], "glm_mode": "points"})
    assert cli.main([str(arg) for arg in argv]) == 0


def test_flags_replace_config_values(tmp_path):
    config = tmp_path / "config.json"
    write_json(
        config,
        {"alpha": 0.2, "decomposition": {"k": 7}, "families": ["glm"], "chain_orders": True},
    )
    base = ["run", *COMMAND_ARGS["run"], "--truth", "t.csv", "--config", str(config)]
    assert cli._resolve_config(cli._build_parser().parse_args(base)) == RunConfig(
        alpha=0.2, decomposition=Balanced(k=7), families=("glm",)
    )
    decomposition_flags = {flag for flags in STRATEGY_FLAGS.values() for flag in flags}
    flags = [arg for flag, value in CONFIG_FLAG_VALUES.items()
             if flag not in decomposition_flags | {"--strategy"} for arg in _flag_args(flag, value)]
    expected = RunConfig(alpha=0.01, test="student", screening="none", bin_width=3.0,
                         families=("glm", "cubic4"), thresholds=(0.8, 0.9), glm_mode="points",
                         chain_orders=False)
    # once per strategy: --strategy replaces the file's whole decomposition
    # (its k of 7 too), and then that strategy's flags apply
    for strategy, decomposition in [("balanced", Balanced(k=3, balance="pairs")),
                                    ("fixed_width", FixedWidth(width=20.0)),
                                    ("explicit", Explicit(bounds=(0.0, 50.0, 100.0)))]:
        strategy_flags = [arg for flag in STRATEGY_FLAGS[strategy]
                          for arg in _flag_args(flag, CONFIG_FLAG_VALUES[flag])]
        argv = base + flags + ["--strategy", strategy] + strategy_flags
        assert cli._resolve_config(cli._build_parser().parse_args(argv)) == dataclasses.replace(
            expected, decomposition=decomposition)
    argv = base + ["--strategy", "balanced", "--balance", "pairs"]
    assert cli._resolve_config(cli._build_parser().parse_args(argv)) == RunConfig(
        alpha=0.2, decomposition=Balanced(balance="pairs"), families=("glm",))


@pytest.mark.parametrize(
    "flags, config, error",
    [
        (["--k", "1"], None, ("ConfigError", "--k: must be >= 2, got 1")),
        (["--strategy", "fixed_width", "--width", "-3"], None,
         ("ConfigError", "--width: must be positive and finite, got -3.0")),
        (["--strategy", "fixed_width", "--width", "inf"], None,  # no range at all
         ("ConfigError", "--width: must be positive and finite, got inf")),
        (["--strategy", "fixed_width", "--width", "1e-9"], None,
         ("ConfigError", "--width: 1e-09 makes 100000000000 ranges, more than 1000")),
        (["--strategy", "explicit", "--bounds", "0,90,80,100"], None,
         ("ConfigError", "--bounds: must be strictly increasing, got [0.0, 90.0, 80.0, 100.0]")),
        (["--strategy", "explicit", "--bounds", "50"], None,
         ("ConfigError", "--bounds: need at least two, got [50.0]")),
        # these two used to write Infinity into ranges.json and the manifest
        (["--strategy", "explicit", "--bounds", "0,50,inf"], None,
         ("ConfigError", "--bounds: must be finite, got [0.0, 50.0, inf]")),
        (["--strategy", "explicit", "--bounds=-inf,80,90,100"], None,
         ("ConfigError", "--bounds: must be finite, got [-inf, 80.0, 90.0, 100.0]")),
        ([], {"decomposition": {"balance": "pair"}},
         ("ConfigError",
          "config.json: decomposition/balance: must be 'stimuli' or 'pairs', got 'pair'")),
        # the bin width follows the fixed width's rule; nan used to fail in fit
        # after three artifacts, inf to fit nothing and 1e-300 to overflow numpy
        (["--bin-width", "nan"], None,
         ("ConfigError", "--bin-width: must be positive and finite, got nan")),
        (["--bin-width", "inf"], None,
         ("ConfigError", "--bin-width: must be positive and finite, got inf")),
        (["--bin-width", "1e-300"], None,
         ("ConfigError", "--bin-width: 1e-300 makes 1e+302 bins, more than 1000")),
        # a repeated family or threshold would write each of its
        # predictions.csv rows twice
        (["--families", "glm,glm"], None,
         ("ConfigError", "--families: each may be listed once, got ['glm', 'glm']")),
        (["--thresholds", "0.5,0.5", "--truth", "jnd_truth.csv"], None,
         ("ConfigError", "--thresholds: each may be listed once, got [0.5, 0.5]")),
        # two thresholds of one label would write one metrics.json cell for both
        (["--families", "logistic2", "--k", "2", "--thresholds", "0.9,0.9000001",
          "--truth", "jnd_truth.csv"], None,
         ("ConfigError", "--thresholds: 0.9 and 0.9000001 share the metrics.json key '0.9'")),
        ([], {"thresholds": [0.9, 0.75, 0.9]},
         ("ConfigError",
          "config.json: thresholds: each may be listed once, got [0.9, 0.75, 0.9]")),
        # with no family nothing is fitted, and with no threshold no cell is scored
        ([], {"families": []},
         ("ConfigError", "config.json: families: need at least one value, got []")),
        ([], {"thresholds": []},
         ("ConfigError", "config.json: thresholds: need at least one value, got []")),
        (["--alpha", "2"], None, ("ConfigError", "--alpha: must be in (0, 1), got 2.0")),
        (["--families", "foo"], None,
         ("ConfigError", "--families: unknown family 'foo'; expected one of "
                         "('logistic5', 'cubic4', 'logistic2', 'glm')")),
        (["--bin-width", "0"], None,
         ("ConfigError", "--bin-width: must be positive and finite, got 0.0")),
        (["--thresholds", "1.5", "--truth", "jnd_truth.csv"], None,
         ("ConfigError", "--thresholds: must be in (0, 1), got 1.5")),
        (["--strategy", "explicit", "--bounds", "50,20"], None,
         ("ConfigError", "--bounds: must be strictly increasing, got [50.0, 20.0]")),
        (["--strategy", "explicit"], {"decomposition": {"strategy": "explicit",
                                                        "bounds": [0, 50, 100]}},
         ("ConfigError", "--bounds: need at least two, got []")),
        ([], {"decomposition": {"k": 1}},
         ("ConfigError", "config.json: decomposition/k: must be >= 2, got 1")),
        ([], {"decomposition": {"strategy": "fixed_width", "k": 9}},
         ("ConfigError", "config.json: decomposition: unknown key 'k'; "
                         "expected one of ['strategy', 'width']")),
        ([], {"decomposition": {"strategy": "even"}},
         ("ConfigError", "config.json: decomposition/strategy: expected one of "
                         "['balanced', 'fixed_width', 'explicit'], got 'even'")),
        # each of these used to exit 0 and change nothing but run_manifest.json
        (["--strategy", "fixed_width", "--k", "9", "--balance", "pairs"], None,
         ("ConfigError", "--k: the fixed_width strategy does not read it")),
        (["--bounds", "50,20"], None,
         ("ConfigError", "--bounds: the balanced strategy does not read it")),
        (["--families", "logistic2", "--glm-mode", "points"], None,
         ("ConfigError", "--glm-mode: read only for the glm family, got ['logistic2']")),
        (["--thresholds", "0.9", "--no-chain"], None,
         ("ConfigError", "--thresholds: read only with --truth")),
        (["--k", "3"], {"decomposition": {"strategy": "explicit", "bounds": [0, 50, 100]}},
         ("ConfigError", "--k: the explicit strategy does not read it")),
    ],
    ids=["k", "width", "width-inf", "width-tiny", "bounds-order", "bounds-one", "bounds-inf",
         "bounds-minus-inf", "balance",
         "bin-width-nan", "bin-width-inf", "bin-width-tiny", "families-repeat",
         "thresholds-repeat", "thresholds-same-label", "thresholds-repeat-config", "families-empty-config",
         "thresholds-empty-config", "alpha", "families-unknown", "bin-width-zero",
         "thresholds-outside", "bounds-reversed", "strategy-drops-config-bounds", "k-config",
         "key-of-another-strategy-config", "unknown-strategy-config", "k-under-fixed-width",
         "bounds-under-balanced", "glm-mode-without-glm", "thresholds-without-truth",
         "k-under-config-explicit"],
)
def test_bad_decomposition_setting_exits_before_any_stage(
    sim_dir, tmp_path, capsys, flags, config, error
):
    flags = [sim_dir / flag if flag == "jnd_truth.csv" else flag for flag in flags]
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


#: Each strategy's settings in the matrix's config file, which no flag of
#: ``CONFIG_FLAG_VALUES`` repeats.
MATRIX_DECOMPOSITIONS = {
    "balanced": {"strategy": "balanced", "k": 2},
    "fixed_width": {"strategy": "fixed_width", "width": 25.0},
    "explicit": {"strategy": "explicit", "bounds": [0.0, 80.0, 100.0]},
}


@pytest.fixture(scope="module")
def matrix_study(sim_dir, tmp_path_factory):
    """The small study without stimuli c00/r2 and c02/r2, so that its contents
    hold unequal numbers of stimuli and ``--balance pairs`` moves the balanced
    bound, and with one truth of order 2, which ``--no-chain`` scores in one
    step, not two."""
    out = tmp_path_factory.mktemp("matrix")
    for name in ("vmaf_scores.csv", "dcr_ratings.csv", "jnd_truth.csv"):
        lines = (sim_dir / name).read_text(encoding="utf-8").splitlines(keepends=True)
        text = "".join(line for line in lines if not line.startswith(("c00,r2,", "c02,r2,")))
        (out / name).write_text(text + ("c00,r1,dec,r4,2\n" if name == "jnd_truth.csv" else ""),
                                encoding="utf-8")
    return out


@pytest.mark.parametrize("truth", [False, True], ids=["no-truth", "truth"])
@pytest.mark.parametrize("strategy", list(MATRIX_DECOMPOSITIONS))
def test_each_flag_changes_an_artifact_or_is_refused(matrix_study, tmp_path, capsys, strategy,
                                                     truth):
    """Each config flag that ``run`` accepts changes an artifact other than
    ``run_manifest.json``.  The flags of another strategy's settings, and
    ``--thresholds`` and ``--no-chain`` without ``--truth``, exit 2 with a
    ConfigError that names the flag, and write nothing."""
    config = tmp_path / "config.json"
    # two fast families keep the 84 runs short
    write_json(config, {"decomposition": MATRIX_DECOMPOSITIONS[strategy],
                        "families": ["logistic2", "glm"]})

    def run(out, *flags):
        study = matrix_study
        argv = ["run", study / "vmaf_scores.csv", study / "dcr_ratings.csv", "--out-dir", out,
                "--config", config, *(["--truth", study / "jnd_truth.csv"] if truth else []),
                *flags]
        return cli.main([str(a) for a in argv])

    def artifacts(out):
        return {path.name: path.read_bytes() for path in out.iterdir()
                if path.name != "run_manifest.json"}

    assert run(tmp_path / "base") == 0
    base = artifacts(tmp_path / "base")
    refused = {flag for name, flags in STRATEGY_FLAGS.items() if name != strategy
               for flag in flags}
    if not truth:
        refused |= {"--thresholds", "--no-chain"}
    capsys.readouterr()
    for i, (flag, value) in enumerate(CONFIG_FLAG_VALUES.items()):
        out = tmp_path / f"out{i}"
        code = run(out, *_flag_args(flag, value))
        if flag in refused:
            assert code == 2, flag
            record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert record["error"] == "ConfigError", record
            assert record["message"].startswith(f"{flag}: "), record
            assert record["artifacts_written"] == [] and not out.exists()
        else:
            assert code == 0, flag
            assert artifacts(out).keys() == base.keys()
            assert any(data != base[name] for name, data in artifacts(out).items()), flag
            capsys.readouterr()


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
    assert record["error"] == "ConfigError"
    assert record["message"].startswith(f"config.json: unknown key '{key}'")


def test_mistyped_spec_names_file_and_key(tmp_path):
    spec = tmp_path / "spec.json"
    write_json(spec, {"n_contents": "3"})
    record = _error_record(run_cli(["simulate", "--spec", spec, "--out-dir", tmp_path], check=False))
    assert record["error"] == "CorpusError"
    assert record["message"] == "spec.json: n_contents: expected int, got '3'"


@pytest.mark.parametrize("name, value", [
    ("content_spread", math.nan),  # used to end in an OverflowError traceback
    ("jnd_scale", math.inf),  # these three used to write Infinity or NaN into sim_truth.json
    ("detection_slope", math.inf),
    ("rating_noise_sd", math.nan),
])
def test_non_finite_spec_setting_exits_2(tmp_path, capsys, name, value):
    write_json(tmp_path / "spec.json", {name: value})
    record = _main_error_record(capsys, ["simulate", "--spec", tmp_path / "spec.json",
                                         "--out-dir", tmp_path / "out"])
    assert record == {"error": "CorpusError", "message": f"spec.json: {name} must be finite, "
                      f"got {value}", "command": "simulate", "artifacts_written": []}
    assert not (tmp_path / "out").exists()


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
    range_id = sorted(data)[0]
    family = sorted(data[range_id])[0]
    assert record["message"] == f"mf_params.json: {range_id}/{family}: missing key 'fit_report'"


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
    # bytes that are not UTF-8 used to exit with a UnicodeDecodeError that named no file
    text = (run_dir / "ranges.json").read_text(encoding="utf-8").splitlines(keepends=True)
    (tmp_path / "ranges.json").write_bytes("".join(text[:2]).encode() + b"\xff"
                                           + "".join(text[2:]).encode())
    (tmp_path / "config.json").write_bytes(b"\xff\xfe{}")
    for error, message, extra in [
        ("CorpusError", "ranges.json:line 3: not UTF-8: byte 0xff (invalid start byte)",
         ["--ranges", tmp_path / "ranges.json"]),
        ("ConfigError", "config.json:line 1: not UTF-8: byte 0xff (invalid start byte)",
         ["--ranges", run_dir / "ranges.json", "--config", tmp_path / "config.json"]),
    ]:
        proc = run_cli(
            ["fit", "--pairs", run_dir / "pairs.csv", "--out-dir", tmp_path / "out", *extra],
            check=False,
        )
        assert _error_record(proc) == {"error": error, "message": message,
                                       "command": "fit", "artifacts_written": []}
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


@pytest.mark.parametrize("command", ["simulate", "run"])
@pytest.mark.parametrize(("zeros", "message"), [
    (400, "{key}: integer too large for a float"),  # used to end in an OverflowError traceback
    (5000, "Exceeds the limit (4300 digits) for integer string conversion"),  # named no file
], ids=["float-range", "digit-limit"])
def test_integer_beyond_the_float_range_exits_2(sim_dir, tmp_path, capsys, command, zeros,
                                                message):
    name, key = ("spec.json", "content_spread") if command == "simulate" else ("config.json", "alpha")
    (tmp_path / name).write_text(f'{{"{key}": 1{"0" * zeros}}}', encoding="utf-8")
    if command == "simulate":
        argv = ["simulate", "--spec", tmp_path / name, "--out-dir", tmp_path / "out"]
    else:
        argv = [*_run_argv(sim_dir, tmp_path / "out"), "--config", tmp_path / name]
    record = _main_error_record(capsys, argv)
    assert record.pop("message").startswith(f"{name}: " + message.format(key=key))
    error = "CorpusError" if command == "simulate" else "ConfigError"
    assert record == {"error": error, "command": command, "artifacts_written": []}
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(("removed", "message"), [
    # a string used to be read as the set of its characters, removing nobody
    ("o01", "screening.json: removed: expected a list, got 'o01'"),
    ([1], "screening.json: removed/0: expected str, got 1"),
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


@pytest.mark.parametrize(("refs", "message"), [
    ("c00:r1:r2", ": expected a list, got 'c00:r1:r2'"),
    ({"c00:r1:r2": 0}, ": expected a list, got {'c00:r1:r2': 0}"),
    (["c00:r1:r2", 3], "/1: expected str, got 3"),
], ids=["string", "dict", "number"])
def test_ranges_assignments_are_lists_of_pair_ids(run_dir, tmp_path, capsys, refs, message):
    # a string or dict used to fail as pairs missing from pairs.csv, unnamed
    ranges = json.loads((run_dir / "ranges.json").read_text(encoding="utf-8"))
    range_id = sorted(ranges["assignments"])[0]
    ranges["assignments"][range_id] = refs
    write_json(tmp_path / "ranges.json", ranges)
    record = _main_error_record(capsys, [
        "fit", "--pairs", run_dir / "pairs.csv", "--ranges", tmp_path / "ranges.json",
        "--out-dir", tmp_path / "out"])
    assert record["error"] == "CorpusError"
    assert record["message"] == f"ranges.json: assignments/{range_id}{message}"


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
    ("assignments", [1], "assignments: expected an object, got [1]"),
    ("bounds", "x", "bounds: expected a list, got 'x'"),
    ("bounds", [0, "80", 100], "bounds/1: expected float, got '80'"),
    # the file holds Infinity, which a strict JSON parser rejects
    ("bounds", [0, 50, math.inf], "bounds: must be finite, got [0.0, 50.0, inf]"),
    # these three used to fit nothing and exit 0
    ("bounds", [100, 50, 0], "bounds: must be strictly increasing, got [100.0, 50.0, 0.0]"),
    ("bounds", [50], "bounds: need at least two, got [50.0]"),
    ("assignments", {"(0,1]": []},
     "assignments: 1 key(s) name no range of the bounds, e.g. ['(0,1]']"),
    ("assignments", lambda a, range_id, ref: {**a, range_id: [*a[range_id], ref]},
     "assignments/{range_id}: pair {ref!r} is listed twice"),
], ids=["assignments-list", "bounds-string", "bounds-item-string", "bounds-infinity",
        "bounds-reversed", "bounds-one", "assignments-unknown-range", "assignments-repeat"])
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


# one value of each JSON kind, and the kinds that a leaf of a valid file
# admits by the kind it has there: a float setting also takes an integer
JSON_KINDS = {type(None): None, bool: True, int: 1, float: 1.5, str: "x", list: [], dict: {}}
ADMITTED = {bool: {bool}, int: {int}, float: {int, float}, str: {str}}


def _json_leaves(value, path=()):
    """The key path and value of every leaf (not an object or a list) of ``value``."""
    if type(value) not in (dict, list):
        yield path, value
        return
    for key, item in value.items() if type(value) is dict else enumerate(value):
        yield from _json_leaves(item, (*path, key))


def _json_replaced(value, path, new):
    """``value`` with the item at key path ``path`` set to ``new``."""
    if not path:
        return new
    copy = dict(value) if type(value) is dict else list(value)
    copy[path[0]] = _json_replaced(copy[path[0]] if path[1:] else None, path[1:], new)
    return copy


def _json_input(name, sim_dir, run_dir, path):
    """A valid ``name`` file's data, and the argv of a command that reads it from ``path``."""
    predict_argv = ["predict", "--anchor-vmaf", "88.0", "--direction", "dec"]
    if name == "config.json":
        data = to_json(RunConfig())
        argv = ["fit", "--pairs", run_dir / "pairs.csv", "--ranges", run_dir / "ranges.json",
                "--out-dir", path.parent / "out", "--config", path]
    elif name == "spec.json":
        data = json.loads((sim_dir / "sim_truth.json").read_text(encoding="utf-8"))["spec"]
        argv = ["simulate", "--spec", path, "--out-dir", path.parent / "out"]
    elif name == "screening.json":
        data = json.loads((run_dir / name).read_text(encoding="utf-8"))
        argv = ["classify", sim_dir / "vmaf_scores.csv", sim_dir / "dcr_ratings.csv",
                "--screening-report", path, "--out", path.parent / "pairs.csv"]
    elif name == "ranges.json":
        data = json.loads((run_dir / name).read_text(encoding="utf-8"))
        argv = [*predict_argv, "--models", run_dir / "mf_params.json", "--ranges", path]
    else:
        data = json.loads((run_dir / name).read_text(encoding="utf-8"))
        argv = [*predict_argv, "--models", path, "--ranges", run_dir / "ranges.json"]
    return json.loads(json.dumps(data)), [str(arg) for arg in argv]


@pytest.mark.parametrize("name", ["config.json", "spec.json", "screening.json", "ranges.json",
                                  "mf_params.json"])
def test_a_leaf_of_another_json_kind_names_file_and_key_path(sim_dir, run_dir, tmp_path,
                                                             capsys, name):
    """Each leaf of a valid input, swapped for a value of each JSON kind that
    its type does not admit, exits 2 naming the file and the leaf's key path."""
    path = tmp_path / name
    data, argv = _json_input(name, sim_dir, run_dir, path)
    write_json(path, data)
    assert cli.main(argv) == 0
    capsys.readouterr()
    tried = 0
    for keys, leaf in _json_leaves(data):
        key = "/".join(map(str, keys))
        for kind, value in JSON_KINDS.items():
            if kind in ADMITTED[type(leaf)]:
                continue
            write_json(path, _json_replaced(data, keys, value))
            assert cli.main(argv) == 2, (key, value)
            record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
            assert record["error"] == ("ConfigError" if name == "config.json" else "CorpusError")
            message = record["message"]
            assert message.startswith(f"{name}: {key}: expected "), message
            assert message.endswith(f", got {value!r}"), message
            tried += 1
    assert tried >= 5 * len(list(_json_leaves(data)))


@pytest.mark.parametrize(("name", "keys", "value", "message"), [
    ("mf_params.json", ("fit_report", "monotone"), "false",
     "fit_report/monotone: expected bool, got 'false'"),
    ("mf_params.json", ("params",), ["-5.6", "0.56"], "params/0: expected float, got '-5.6'"),
    ("mf_params.json", ("fit_report", "flags"), "budget",
     "fit_report/flags: expected a list, got 'budget'"),
    ("mf_params.json", ("fit_report", "iterations"), 2.9,
     "fit_report/iterations: expected int, got 2.9"),
    ("screening.json", ("method",), "bogus",
     "method must be one of ('bt500', 'none'), got 'bogus'"),
    ("spec.json", ("ladder", 0), [1, "95"], "ladder/0/0: expected str, got 1"),
    # an id that the tables it writes cannot hold: `run` used to reject them
    ("spec.json", ("ladder", 0, 0), "r:1", "ladder/0/0: id 'r:1' contains ':'"),
], ids=["monotone-string", "params-strings", "flags-string", "iterations-float",
        "screening-method", "ladder-rung-types", "ladder-id-colon"])
def test_json_values_accepted_before_now_exit_2(sim_dir, run_dir, tmp_path, capsys, name, keys,
                                                value, message):
    """Each of these was read and used, and the command exited 0; an
    ``mf_params.json`` path starts at the first range's GLM fit."""
    path = tmp_path / name
    data, argv = _json_input(name, sim_dir, run_dir, path)
    if name == "mf_params.json":
        fit = (sorted(data)[0], "glm")
        keys, message = (*fit, *keys), "/".join(fit) + "/" + message
    write_json(path, _json_replaced(data, keys, value))
    assert cli.main(argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert json.loads(err.strip().splitlines()[-1]) == {
        "error": "CorpusError", "message": f"{name}: {message}",
        "command": argv[0], "artifacts_written": []}
    assert not (tmp_path / "out").exists()


def _duplicate_line_2(lines):
    return lines[:2] + [lines[1]] + lines[2:]


def _edit_line_2(index, value):
    def edit(lines):
        row = lines[1].split(",")
        row[index] = value
        return [lines[0], ",".join(row)] + lines[2:]

    return edit


def _bad_byte_on_line(n):
    """End line ``n`` with the byte 0xff, which the test writes through
    ``surrogateescape``."""

    def edit(lines):
        return lines[:n - 1] + [lines[n - 1] + "\udcff"] + lines[n:]

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
        # these used to exit with a UnicodeDecodeError that named no file
        pytest.param("dcr_ratings.csv", _bad_byte_on_line(100), "line 100",
                     "not UTF-8: byte 0xff (invalid start byte)", id="ratings-not-utf8"),
        pytest.param("pairs.csv", _bad_byte_on_line(3), "line 3",
                     "not UTF-8: byte 0xff (invalid start byte)", id="pairs-not-utf8"),
        # a cell over csv's field limit used to end in a _csv.Error traceback; the
        # split reader and csv.reader (which reads a file with quotes) decide it alike
        pytest.param("vmaf_scores.csv", _edit_line_2(2, "x" * 140_000), "line 2",
                     "field larger than field limit (131072)", id="cell-over-field-limit"),
        pytest.param("vmaf_scores.csv", _edit_line_2(2, '"' + "x" * 140_000 + '"'), "line 2",
                     "field larger than field limit (131072)", id="quoted-cell-over-field-limit"),
    ],
)
def test_bad_row_names_file_and_line(sim_dir, run_dir, tmp_path, capsys, table, edit, where, message):
    tables = {name: sim_dir / name for name in ("vmaf_scores.csv", "dcr_ratings.csv", "jnd_truth.csv")}
    tables["pairs.csv"] = run_dir / "pairs.csv"
    lines = tables[table].read_text().splitlines()
    tables[table] = tmp_path / table
    tables[table].write_bytes(("\n".join(edit(lines)) + "\n").encode("utf-8", "surrogateescape"))
    if table == "pairs.csv":
        argv = ["fit", "--pairs", tables["pairs.csv"], "--ranges", run_dir / "ranges.json"]
    else:
        argv = ["run", tables["vmaf_scores.csv"], tables["dcr_ratings.csv"],
                "--truth", tables["jnd_truth.csv"]]
    assert cli.main([str(a) for a in argv + ["--out-dir", tmp_path / "out"]]) == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["error"] == "CorpusError"
    assert record["message"].startswith(f"{table}:{where}: {message}")


@pytest.mark.parametrize("command", ["run", "evaluate"])
@pytest.mark.parametrize("thresholds", ["0.75,0.8,0.85,0.9,0.95", "0.5"],
                         ids=["some-clamped", "none-clamped"])
def test_degraded_predictions_get_one_warning_with_the_totals(
    sim_dir, run_dir, tmp_path, caplog, command, thresholds
):
    """A grid with clamped or skipped predictions says so in one WARNING line
    whose totals are the sums over ``metrics.json``'s cells; a grid without
    any says nothing."""
    out = tmp_path / "out"
    if command == "run":
        argv = _run_argv(sim_dir, out)
    else:
        argv = ["evaluate", "--vmaf", sim_dir / "vmaf_scores.csv", "--truth",
                sim_dir / "jnd_truth.csv", "--models", run_dir / "mf_params.json",
                "--ranges", run_dir / "ranges.json", "--out", out / "metrics.json"]
    assert cli.main([str(a) for a in [*argv, "--thresholds", thresholds]]) == 0
    metrics = json.loads((out / "metrics.json").read_text(encoding="utf-8"))
    cells = [c for fams in metrics.values() for thr in fams.values() for c in thr.values()]
    clamped, skipped = sum(c["clamped"] for c in cells), sum(c["skipped"] for c in cells)
    total = sum(c["n"] + c["skipped"] for c in cells)
    warnings = [r.getMessage() for r in caplog.records if r.name == "jndmap.cli"]
    if thresholds == "0.5":
        assert clamped == skipped == 0 and warnings == []
    else:
        assert clamped > 0
        assert warnings == [f"{clamped} of {total} grid predictions clamped and {skipped} "
                            "skipped (per cell in metrics.json)"]


def test_simulate_save_and_run_build_no_row_objects(sim_dir, run_dir, tmp_path, monkeypatch):
    """The simulator, the corpus writer and ``run`` keep ratings, pairs and
    predictions as columns: counted by their constructors, no row object is
    built, and the bytes are those of the ``simulate`` and ``run`` commands."""
    built = collections.Counter()

    def counting(init):
        def __init__(self, *args, **kwargs):
            built[type(self).__name__] += 1
            init(self, *args, **kwargs)
        return __init__

    for row in (corpus.DcrRating, significance.RatedPair, predict.JndPrediction):
        monkeypatch.setattr(row, "__init__", counting(row.__init__))
    tables = corpus.save_corpus(simulate.simulate_corpus(SMALL_SPEC)[0], tmp_path / "sim")
    assert built == {}
    for path in tables.values():
        assert path.read_bytes() == (sim_dir / path.name).read_bytes(), path.name
    out = tmp_path / "out"
    argv = ["run", sim_dir / "vmaf_scores.csv", sim_dir / "dcr_ratings.csv",
            "--truth", sim_dir / "jnd_truth.csv", "--out-dir", out, "--k", "2"]
    assert cli.main([str(a) for a in argv]) == 0
    assert built == {}
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
    assert (record["error"], record["message"]) == ("CorpusError", (
        f"mf_params.json: range ids {model_ids} are not all in ranges.json range ids {range_ids}"
    ))
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
        assert (record["error"], record["message"]) == ("ConfigError", message)
        assert record["artifacts_written"] == []


# -- the process entry and the cyclic collector --------------------------------


def _run_argv(study, out):
    return [str(a) for a in ["run", study / "vmaf_scores.csv", study / "dcr_ratings.csv",
                             "--truth", study / "jnd_truth.csv", "--out-dir", out, "--k", "2"]]


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
def test_main_leaves_the_collector_as_it_found_it(sim_dir, tmp_path, enabled):
    """Only the process entry sets ``OPENBLAS_NUM_THREADS``, turns the
    collector off and freezes the heap: ``main`` called in-process leaves the
    environment and the collector as its caller set them."""
    was_enabled, frozen = gc.isenabled(), gc.get_freeze_count()
    environment = dict(os.environ)
    (gc.enable if enabled else gc.disable)()
    try:
        assert cli.main(_run_argv(sim_dir, tmp_path / "out")) == 0
        assert gc.isenabled() is enabled
        assert gc.get_freeze_count() == frozen
        assert dict(os.environ) == environment
    finally:
        (gc.enable if was_enabled else gc.disable)()


def test_a_run_leaves_the_same_cyclic_garbage_at_any_study_size(sim_dir, tmp_path):
    """The process entry runs without the collector, which holds only while a
    run's garbage in reference cycles does not grow with the study: the
    collector finds as much after a run on a study as after one on the same
    study with three times the contents."""
    spec_path = tmp_path / "spec.json"
    write_json(spec_path, to_json(dataclasses.replace(SMALL_SPEC,
                                                      n_contents=3 * SMALL_SPEC.n_contents)))
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


def _console_script_target() -> tuple[str, str]:
    """The module and function of ``[project.scripts] jndmap``."""
    return re.search(r'^jndmap = "([\w.]+):(\w+)"$', _PYPROJECT.read_text(), re.M).groups()


def _console_script_launch():
    """The code a console-script wrapper runs for ``[project.scripts] jndmap``."""
    module, func = _console_script_target()
    return f"from {module} import {func}\nsys.exit({func}())\n"


def _child(code: str, *args, env=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *map(str, args)], capture_output=True,
                          text=True, timeout=120, env=env)


def test_console_script_runs_the_entry_of_python_m():
    """The ``[project.scripts]`` target is the function that ``python -m
    jndmap.cli`` hands the process to, so the two cannot drift apart."""
    module, func = _console_script_target()
    proc = _child(f"""\
import importlib, runpy, sys
import jndmap.entry
target, entry = getattr(importlib.import_module({module!r}), {func!r}), jndmap.entry.process_main
jndmap.entry.process_main = lambda: print("reached; script target is the entry:", target is entry)
sys.argv[0] = "jndmap"
runpy.run_module("jndmap.cli", run_name="__main__", alter_sys=True)
""")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "reached; script target is the entry: True\n"


_THREADS_PROBE = """\
import atexit, json, os, sys
atexit.register(lambda: print(json.dumps({
    "threads": len(os.listdir(f"/proc/{os.getpid()}/task")),
    "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    "numpy": "numpy" in sys.modules,
    "lazy": sorted({"jndmap.simulate", "jndmap.render"} & set(sys.modules)),
}), file=sys.stderr))
import runpy
sys.argv[0] = "jndmap"
runpy.run_module("jndmap.cli", run_name="__main__", alter_sys=True)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="counts threads in /proc")
@pytest.mark.parametrize("given", [None, "2"], ids=["unset", "caller-2"])
def test_process_entry_starts_no_blas_worker(sim_dir, run_dir, tmp_path, given):
    """``python -m jndmap.cli run`` sets ``OPENBLAS_NUM_THREADS=1`` before
    numpy loads, so the process ends with its one thread; a caller's value is
    kept, and the artifacts do not depend on it.  A run loads neither
    ``simulate`` nor ``render``.  (On a 1-CPU machine OpenBLAS starts no
    worker either way, so there the thread count shows nothing.)"""
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if given is not None:
        env["OPENBLAS_NUM_THREADS"] = given
    out = tmp_path / "out"
    proc = _child(_THREADS_PROBE, *_run_argv(sim_dir, out), env=env)
    assert proc.returncode == 0, proc.stderr
    state = json.loads(proc.stderr.strip().splitlines()[-1])
    assert state["OPENBLAS_NUM_THREADS"] == (given or "1")
    assert state["numpy"] and state["lazy"] == []
    if given is None:
        assert state["threads"] == 1
    for name in RUN_ARTIFACTS:
        assert (out / name).read_bytes() == (run_dir / name).read_bytes(), name


def test_package_import_is_lazy():
    """``import jndmap`` loads no numpy and no module of the package; each
    public name is then the object of its defining module."""
    proc = _child("""\
import json, sys
import jndmap
loaded = sorted(m for m in sys.modules
                if m.partition(".")[0] == "numpy" or m.startswith("jndmap."))
origin = {}
for name in jndmap.__all__[1:]:
    value = getattr(jndmap, name)
    module = sys.modules[value.__module__]
    origin[name] = module.__name__ if getattr(module, name) is value else None
try:
    jndmap.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({"loaded": loaded, "origin": origin, "unknown": unknown,
                  "dir": sorted(set(jndmap.__all__) - set(dir(jndmap)))}))
""")
    assert proc.returncode == 0, proc.stderr
    found = json.loads(proc.stdout)
    assert found["loaded"] == []
    assert list(found["origin"]) == jndmap.__all__[1:]
    assert all(str(module).startswith("jndmap.") for module in found["origin"].values()), found
    assert found["unknown"] == "module 'jndmap' has no attribute 'no_such_name'"
    assert found["dir"] == []


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
