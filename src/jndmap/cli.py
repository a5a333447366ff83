"""Command-line pipeline around the library modules.

Every stage reads and writes the documented interchange files, so partial
re-runs are possible: ``simulate`` produces a corpus, and the single-stage
subcommands ``screen``, ``classify``, ``decompose``, ``fit`` and ``evaluate``
re-run any step from its inputs.  ``run`` is that stage chain: it loads the
corpus, calls the same stage functions in that order (``evaluate`` only when
truth rows exist) and writes ``run_manifest.json``, so its artifacts are the
bytes the single-stage commands write.  ``render`` turns curve samples into a
standalone SVG.

Configuration comes from an optional JSON file (see :mod:`jndmap.config`); a
flag replaces the file's value, and each stage command takes only the flags of
the settings it reads.  ``--seed`` and the ``JNDMAP_SEED`` environment variable
seed ``simulate`` only, and an explicit ``--seed`` beats the variable.
Failures exit with status 2 and a one-line JSON error record on stderr naming
the failure and any artifacts already written.

The process entry is :func:`process_main`: ``python -m jndmap.cli`` and the
``jndmap`` console script both call it.  It runs :func:`main` with the cyclic
garbage collector off and freezes the heap when ``main`` returns or raises,
so the process spends no time on collector passes during the run or on the
interpreter's collection over the whole heap at exit.  A run leaves the same
few hundred objects in reference cycles whatever the study's size (the
argument parser and the JSON encoder's closures), and no output waits on a
finalizer.  :func:`main` itself leaves the collector alone, so in-process
callers keep theirs.
"""

from __future__ import annotations

import argparse
import dataclasses
import gc
import hashlib
import json
import logging
import os
import sys
import time
from pathlib import Path

from . import __version__, config as config_mod, corpus as corpus_mod, tableio
from . import evaluate as evaluate_mod
from . import mapping as mapping_mod
from . import predict as predict_mod
from . import ranges as ranges_mod
from . import render as render_mod
from . import screening as screening_mod
from . import significance as significance_mod
from . import simulate as simulate_mod
from .errors import CorpusError, JndmapError


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(level=logging.WARNING, format="%(levelname)s %(name)s: %(message)s")
    written: list[str] = []
    try:
        args.func(args, written)
    except (JndmapError, ValueError, KeyError, OSError) as exc:
        message = str(exc)
        if isinstance(exc, KeyError) and message.startswith("'") and message.endswith("'"):
            message = message[1:-1]
        record = {
            "error": type(exc).__name__,
            "message": message,
            "command": args.command,
            "artifacts_written": written,
        }
        print(json.dumps(record, sort_keys=True), file=sys.stderr)
        return 2
    return 0


def process_main() -> int:
    """``main()`` for a process that exits when it returns: the collector
    stays off during the run, and the heap is frozen before the exit, so that
    the interpreter's collections at exit skip every object the process
    holds."""
    gc.disable()
    try:
        return main()
    finally:
        gc.freeze()


# -- shared helpers ----------------------------------------------------------


def _resolve_config(args: argparse.Namespace) -> config_mod.RunConfig:
    """The ``--config`` file's settings, each replaced by its flag when given."""
    cfg = config_mod.load_config(args.config)
    given = {d: getattr(args, d) for d in CONFIG_FLAGS if getattr(args, d, None) is not None}
    decomp = {d: given.pop(d) for d in list(given) if hasattr(cfg.decomposition, d)}
    cfg = dataclasses.replace(
        cfg, decomposition=dataclasses.replace(cfg.decomposition, **decomp), **given
    )
    cfg.validate()
    return cfg


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _write(path: Path, artifact: str | dict, written: list[str]) -> None:
    """Write one artifact: a dict as canonical JSON, text as it is."""
    path.parent.mkdir(parents=True, exist_ok=True)
    if isinstance(artifact, str):
        path.write_text(artifact, encoding="utf-8", newline="")
    else:
        tableio.write_json(path, artifact)
    written.append(path.name)


# -- stages ------------------------------------------------------------------
#
# One function per pipeline stage, shared by ``run`` and the single-stage
# subcommands: each takes the resolved config and its inputs, writes its
# artifacts, prints one status line and returns its result.


def _screen(
    cfg: config_mod.RunConfig, corpus: corpus_mod.Corpus, out: Path, written: list[str]
) -> corpus_mod.Corpus:
    """Write the screening report; returns the corpus without removed observers."""
    report = screening_mod.screen(corpus, cfg.screening)
    _write(out, report.to_json_dict(), written)
    print(f"[screen] removed: {sorted(report.removed_observers) or 'nobody'}")
    return screening_mod.apply_screening(corpus, report)


def _classify(
    cfg: config_mod.RunConfig, corpus: corpus_mod.Corpus, out: Path, written: list[str]
) -> significance_mod.PairTable:
    pairs = significance_mod.classify_pairs(corpus, cfg.alpha, cfg.test)
    _write(out, significance_mod.pairs_csv_text(pairs), written)
    print(f"[classify] {len(pairs)} pairs, {int(pairs.sig.sum())} significant")
    return pairs


def _decompose(
    cfg: config_mod.RunConfig,
    corpus: corpus_mod.Corpus,
    pairs: significance_mod.PairTable,
    out: Path,
    written: list[str],
) -> ranges_mod.Decomposition:
    dc = cfg.decomposition
    if dc.strategy == "balanced":
        decomp = ranges_mod.decompose_balanced(corpus, dc.k, dc.balance)
    elif dc.strategy == "fixed_width":
        decomp = ranges_mod.decompose_fixed(dc.width, corpus)
    else:
        decomp = ranges_mod.decompose_explicit(list(dc.bounds))
    decomp = ranges_mod.assign_pairs(pairs, decomp, corpus)
    _write(out, ranges_mod.decomposition_to_json_dict(decomp), written)
    print(f"[decompose] {len(decomp.ranges)} ranges ({decomp.strategy})")
    return decomp


def _fit(
    cfg: config_mod.RunConfig,
    decomp: ranges_mod.Decomposition,
    pairs: significance_mod.PairTable,
    out_dir: Path,
    written: list[str],
) -> dict[str, dict[str, mapping_mod.MappingFunction]]:
    codists, models = mapping_mod.fit_all(
        decomp, pairs, cfg.families, cfg.bin_width, cfg.glm_mode
    )
    _write(out_dir / "codist.csv", mapping_mod.codist_csv_text(codists), written)
    _write(out_dir / "mf_params.json", mapping_mod.models_to_json_dict(models), written)
    _write(out_dir / "curve_samples.csv", mapping_mod.curve_samples_csv_text(models), written)
    print(f"[fit] {sum(len(f) for f in models.values())} fits over {len(codists)} ranges")
    return models


def _evaluate(
    cfg: config_mod.RunConfig,
    corpus: corpus_mod.Corpus,
    models: dict[str, dict[str, mapping_mod.MappingFunction]],
    decomp: ranges_mod.Decomposition,
    out: Path,
    predictions: Path | None,
    written: list[str],
    orders: tuple[int, ...] | None = None,
) -> evaluate_mod.EvalGrid:
    """Write the grid metrics (and optionally every prediction), print the
    tables; raises ValueError when no grid cell scored a prediction."""
    grid = evaluate_mod.evaluate_grid(
        corpus,
        models,
        decomp,
        evaluate_mod.EvalGridSpec(
            thresholds=cfg.thresholds,
            families=cfg.families,
            chain_orders=cfg.chain_orders,
            orders=orders,
        ),
    )
    _write(out, evaluate_mod.metrics_json_dict(grid), written)
    if predictions is not None:
        _write(predictions, predict_mod.predictions_csv_text(grid.predictions), written)
    for direction in sorted({t.direction for t in corpus.truths}):
        print()
        print(evaluate_mod.format_grid_table(grid, direction))
    key, best = grid.best_cell()
    print(
        f"[evaluate] best cell: direction={key[0]} family={key[1]} thr={key[2]:g} "
        f"mae={best.mae:.4f} rmse={best.rmse:.4f} (n={best.n}, clamped={best.clamped})"
    )
    return grid


# -- subcommands -------------------------------------------------------------


def cmd_run(args: argparse.Namespace, written: list[str]) -> None:
    cfg = _resolve_config(args)
    out = Path(args.out_dir)
    inputs = {Path(p).name: _sha256(Path(p)) for p in
              [args.vmaf, args.ratings] + ([args.truth] if args.truth else [])}

    t0 = time.perf_counter()
    corpus = corpus_mod.load_corpus(args.vmaf, args.ratings, args.truth)
    print(
        f"[load] {len(corpus.stimuli)} stimuli, {len(corpus.ratings)} ratings, "
        f"{len(corpus.truths)} truth rows"
    )
    corpus = _screen(cfg, corpus, out / "screening.json", written)
    pairs = _classify(cfg, corpus, out / "pairs.csv", written)
    decomp = _decompose(cfg, corpus, pairs, out / "ranges.json", written)
    models = _fit(cfg, decomp, pairs, out, written)
    if corpus.truths:
        _evaluate(
            cfg, corpus, models, decomp, out / "metrics.json", out / "predictions.csv", written
        )
    else:
        print("[evaluate] skipped: no truth rows")

    config = cfg.to_json_dict()
    manifest = {
        "tool": "jndmap",
        "version": __version__,
        "config": config,
        "config_sha256": hashlib.sha256(tableio.json_text(config).encode()).hexdigest(),
        "inputs": inputs,
        "artifacts": sorted(set(written)),
    }
    _write(out / "run_manifest.json", manifest, written)
    print(f"[run] done in {time.perf_counter() - t0:.2f}s")


def cmd_simulate(args: argparse.Namespace, written: list[str]) -> None:
    spec = (
        simulate_mod.read_sim_spec_json(args.spec)
        if args.spec
        else simulate_mod.SimSpec()
    )
    if args.seed is not None:
        spec = dataclasses.replace(spec, seed=args.seed)
    corpus, info = simulate_mod.simulate_corpus(spec)
    out = Path(args.out_dir)
    _write(out / "vmaf_scores.csv", corpus_mod.vmaf_csv_text(corpus), written)
    _write(out / "dcr_ratings.csv", corpus_mod.ratings_csv_text(corpus), written)
    _write(out / "jnd_truth.csv", corpus_mod.truth_csv_text(corpus), written)
    _write(out / "sim_truth.json", simulate_mod.truth_info_json_dict(info), written)
    print(
        f"[simulate] seed={spec.seed}: {len(corpus.stimuli)} stimuli, "
        f"{len(corpus.ratings)} ratings, {len(corpus.truths)} truths -> {out}"
    )


def cmd_screen(args: argparse.Namespace, written: list[str]) -> None:
    cfg = _resolve_config(args)
    corpus = corpus_mod.load_corpus(args.vmaf, args.ratings)
    _screen(cfg, corpus, Path(args.out), written)


def cmd_classify(args: argparse.Namespace, written: list[str]) -> None:
    cfg = _resolve_config(args)
    corpus = corpus_mod.load_corpus(args.vmaf, args.ratings)
    if args.screening_report:
        report = screening_mod.read_report(args.screening_report)
        unknown = sorted(report.removed_observers - set(corpus.observers()))
        if unknown:
            raise CorpusError(f"removed observer {unknown[0]!r} has no rating",
                              path=Path(args.screening_report).name)
        corpus = screening_mod.apply_screening(corpus, report)
    _classify(cfg, corpus, Path(args.out), written)


def cmd_decompose(args: argparse.Namespace, written: list[str]) -> None:
    cfg = _resolve_config(args)
    corpus = corpus_mod.load_corpus(args.vmaf, None)
    pairs = significance_mod.read_pairs_csv(args.pairs)
    _decompose(cfg, corpus, pairs, Path(args.out), written)


def cmd_fit(args: argparse.Namespace, written: list[str]) -> None:
    cfg = _resolve_config(args)
    pairs = significance_mod.read_pairs_csv(args.pairs)
    decomp = ranges_mod.read_ranges_json(args.ranges)
    for srange in decomp.ranges:
        missing = sorted(set(srange.pair_refs) - pairs.index.keys())
        if missing:
            raise CorpusError(f"range {srange.range_id} references {len(missing)} pair(s) not "
                              f"in {Path(args.pairs).name}, e.g. {missing[:3]}",
                              path=Path(args.ranges).name)
    _fit(cfg, decomp, pairs, Path(args.out_dir), written)


def cmd_predict(args: argparse.Namespace, written: list[str]) -> None:
    if args.anchor_vmaf is not None:
        try:  # the rule of the vmaf column: finite and in [0, 100]
            corpus_mod.VMAF_TABLE["vmaf"](args.anchor_vmaf)
        except ValueError as exc:
            raise ValueError(f"--anchor-vmaf: {exc}") from None
        if args.vmaf_table:
            raise ValueError("--anchor-vmaf and --vmaf-table both give the anchor; pass one")
    models = mapping_mod.read_mf_params_json(args.models)
    decomp = ranges_mod.read_ranges_json(args.ranges)
    if args.anchor_vmaf is not None:
        anchor = corpus_mod.Stimulus(
            content_id=args.content or "anchor",
            recipe=corpus_mod.Recipe(args.recipe or "anchor", "other", 0),
            vmaf=args.anchor_vmaf,
        )
    elif args.vmaf_table and args.content and args.recipe:
        corpus = corpus_mod.load_corpus(args.vmaf_table, None)
        anchor = corpus.stimulus(args.content, args.recipe)
    else:
        raise ValueError(
            "predict needs --anchor-vmaf, or --vmaf-table with --content and --recipe"
        )
    pred = predict_mod.predict_jnd(
        models, decomp, anchor, args.direction, args.threshold, args.family
    )
    print(
        json.dumps(
            {
                "range_id": pred.range_id,
                "family": pred.family,
                "threshold": pred.threshold,
                "delta_obj_jnd": pred.delta_obj_jnd,
                "target_vmaf": pred.target_vmaf,
                "clamped": pred.clamped,
            },
            sort_keys=True,
        )
    )
    if args.out:
        table = predict_mod.PredictionTable(*zip(dataclasses.astuple(pred)))
        _write(Path(args.out), predict_mod.predictions_csv_text(table), written)


def cmd_evaluate(args: argparse.Namespace, written: list[str]) -> None:
    cfg = _resolve_config(args)
    orders = None
    if args.orders:
        try:  # the rule of the order column: integers >= 1
            orders = tuple(map(corpus_mod.TRUTH_TABLE["order"], args.orders.split(",")))
        except ValueError as exc:
            raise ValueError(f"--orders: {exc}") from None
    corpus = corpus_mod.load_corpus(args.vmaf, None, args.truth)
    models = mapping_mod.read_mf_params_json(args.models)
    decomp = ranges_mod.read_ranges_json(args.ranges)
    if not set(models) <= set(decomp.range_ids()):
        raise ValueError(
            f"{Path(args.models).name} range ids {sorted(models)} are not all in "
            f"{Path(args.ranges).name} range ids {decomp.range_ids()}"
        )
    predictions = Path(args.predictions) if args.predictions else None
    _evaluate(cfg, corpus, models, decomp, Path(args.out), predictions, written, orders)


def cmd_render(args: argparse.Namespace, written: list[str]) -> None:
    curves = mapping_mod.read_curve_samples_csv(args.curves)
    codists = mapping_mod.read_codist_csv(args.codist) if args.codist else None
    _write(Path(args.out), render_mod.render_svg(curves, codists), written)
    print(f"[render] wrote {args.out}")


# -- parser ------------------------------------------------------------------


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(t) for t in text.split(","))


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(text.split(","))


#: One entry per config setting: its dest, its flag and its argparse options.
#: A dest that names a ``DecompositionConfig`` field sets that field.
CONFIG_FLAGS: dict[str, tuple[str, dict]] = {
    "alpha": ("--alpha", dict(type=float, help="significance level")),
    "test": ("--test", dict(choices=significance_mod.TESTS, help="two-sample test")),
    "screening": ("--screening", dict(choices=screening_mod.METHODS, help="screening method")),
    "bin_width": ("--bin-width", dict(type=float, help="|dVMAF| histogram bin width")),
    "families": ("--families", dict(type=_str_list, help="comma-separated curve families")),
    "thresholds": ("--thresholds", dict(type=_float_list, help="comma-separated thresholds")),
    "glm_mode": ("--glm-mode", dict(choices=mapping_mod.GLM_MODES)),
    "chain_orders": ("--no-chain", dict(action="store_false", default=None,
                                        help="score higher-order truths without chaining")),
    "strategy": ("--strategy", dict(choices=ranges_mod.STRATEGIES, help="range strategy")),
    "k": ("--k", dict(type=int, help="balanced range count")),
    "width": ("--width", dict(type=float, help="fixed range width")),
    "bounds": ("--bounds", dict(type=_float_list, help="comma-separated explicit bounds")),
    "balance": ("--balance", dict(choices=ranges_mod.BALANCES, help="balanced target")),
}


def _add_config_flags(sub: argparse.ArgumentParser, *dests: str) -> None:
    """``--config`` plus the flags of the settings ``dests``."""
    sub.add_argument("--config", help="JSON config file (flags override its values)")
    for dest in dests:
        flag, options = CONFIG_FLAGS[dest]
        sub.add_argument(flag, dest=dest, **options)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jndmap",
        description="Map |dVMAF| between paired encodings to JND probability.",
    )
    parser.add_argument("--version", action="version", version=f"jndmap {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    run = subs.add_parser("run", help="full pipeline from corpus tables")
    run.add_argument("vmaf", help="vmaf_scores.csv")
    run.add_argument("ratings", help="dcr_ratings.csv")
    run.add_argument("--truth", help="jnd_truth.csv (enables evaluation)")
    run.add_argument("--out-dir", required=True)
    run.add_argument("--jobs", type=int, default=1,
                     help="accepted for compatibility; has no effect")
    _add_config_flags(run, *CONFIG_FLAGS)
    run.set_defaults(func=cmd_run)

    sim = subs.add_parser("simulate", help="generate a synthetic corpus")
    sim.add_argument("--spec", help="simulator spec JSON (defaults built in)")
    sim.add_argument("--out-dir", required=True)
    sim.add_argument("--seed", type=int, default=os.environ.get("JNDMAP_SEED"),
                     help="seed override (default: $JNDMAP_SEED, else the spec's seed)")
    sim.set_defaults(func=cmd_simulate)

    screen = subs.add_parser("screen", help="observer screening report")
    screen.add_argument("vmaf")
    screen.add_argument("ratings")
    screen.add_argument("--out", required=True)
    _add_config_flags(screen, "screening")
    screen.set_defaults(func=cmd_screen)

    classify = subs.add_parser("classify", help="pair significance labels")
    classify.add_argument("vmaf")
    classify.add_argument("ratings")
    classify.add_argument("--screening-report", dest="screening_report",
                          help="screening.json to apply before pairing")
    classify.add_argument("--out", required=True)
    _add_config_flags(classify, "alpha", "test")
    classify.set_defaults(func=cmd_classify)

    decompose = subs.add_parser("decompose", help="sub-quality ranges + assignment")
    decompose.add_argument("vmaf")
    decompose.add_argument("--pairs", required=True)
    decompose.add_argument("--out", required=True)
    _add_config_flags(decompose, "strategy", "k", "width", "bounds", "balance")
    decompose.set_defaults(func=cmd_decompose)

    fit = subs.add_parser("fit", help="co-distributions and curve fits")
    fit.add_argument("--pairs", required=True)
    fit.add_argument("--ranges", required=True)
    fit.add_argument("--out-dir", required=True)
    _add_config_flags(fit, "bin_width", "families", "glm_mode")
    fit.set_defaults(func=cmd_fit)

    predict = subs.add_parser("predict", help="one JND prediction from fitted curves")
    predict.add_argument("--models", required=True, help="mf_params.json")
    predict.add_argument("--ranges", required=True, help="ranges.json")
    predict.add_argument("--anchor-vmaf", dest="anchor_vmaf", type=float,
                         help="anchor VMAF, finite and in [0, 100]")
    predict.add_argument("--vmaf-table", dest="vmaf_table")
    predict.add_argument("--content")
    predict.add_argument("--recipe")
    predict.add_argument("--direction", choices=("inc", "dec"), required=True)
    predict.add_argument("--threshold", type=float, default=0.95)
    predict.add_argument("--family", default="glm", choices=mapping_mod.FAMILIES)
    predict.add_argument("--out", help="optional predictions.csv")
    predict.set_defaults(func=cmd_predict)

    evaluate = subs.add_parser("evaluate", help="grid metrics against truth rows")
    evaluate.add_argument("--vmaf", required=True)
    evaluate.add_argument("--truth", required=True)
    evaluate.add_argument("--models", required=True)
    evaluate.add_argument("--ranges", required=True)
    evaluate.add_argument("--out", required=True, help="metrics.json")
    evaluate.add_argument("--predictions", help="optional predictions.csv")
    evaluate.add_argument("--orders", help="comma-separated truth orders to keep")
    _add_config_flags(evaluate, "families", "thresholds", "chain_orders")
    evaluate.set_defaults(func=cmd_evaluate)

    render = subs.add_parser("render", help="SVG from curve samples")
    render.add_argument("--curves", required=True, help="curve_samples.csv")
    render.add_argument("--codist", help="codist.csv for P_SD scatter")
    render.add_argument("--out", required=True, help="curves.svg")
    render.set_defaults(func=cmd_render)

    for sub in subs.choices.values():
        sub.allow_abbrev = False  # so that no flag passes for a longer one
    return parser


if __name__ == "__main__":
    sys.exit(process_main())
