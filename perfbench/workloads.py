"""The benchmark's workloads and the seeded studies they run on.

Each workload pins a simulated study: the simulator settings and the
simulator seed.  The fit stage's work depends strongly on the exact ratings
(on the default study it ranges from 2 s to 11 s across simulator seeds), so
varying the simulator seed would measure a different program load on every
run.  The benchmark's ``--seed`` instead relabels contents and observers and
shuffles the row order of all three tables.  Every seed therefore writes
different input files that describe the same study, and the pipeline does the
same work on each.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from jndmap.corpus import Corpus, save_corpus
from jndmap.simulate import SimSpec, simulate_corpus


@dataclass(frozen=True)
class Workload:
    #: ``SimSpec`` fields that differ from the simulator defaults.
    sim: dict = field(default_factory=dict)
    sim_seed: int = 1729
    #: ``jndmap run`` options; ``jobs`` is a CLI flag, the rest are config keys.
    options: dict = field(default_factory=lambda: {"jobs": 1})
    #: Upper bound on the best grid cell's MAE, when the study has one.
    mae_limit: float | None = None


WORKLOADS = {
    # Paper-scale study: 30 contents x 12 rungs, 24 observers, 1 980 pairs,
    # 60 truths.  Fit-bound; single-threaded baseline.  The MAE limit is the
    # bound of acceptance criterion 5.
    "default_study": Workload(mae_limit=1.5),
    # 300 contents: 19 800 pairs, 86 400 ratings, 600 truths.  Load,
    # classify and evaluate dominate; --jobs 2 matches the 2-CPU reference
    # machine and exercises the thread pools.
    "large_study": Workload(sim={"n_contents": 300}, options={"jobs": 2}),
    # Tiny noisy panel: 396 pairs whose noisy co-distributions drive the
    # hinge-penalty refits.  Fit work depends strongly on these exact inputs
    # (13 s here, 38-190 s at nearby specs), which is why the spec is pinned.
    # Runnable by name and by suite.py, but not listed in BENCHMARK.json: the
    # run budget there cannot hold a third workload at a steady repeat count.
    "noisy_panel": Workload(
        sim={"n_contents": 6, "observer_count": 9, "rating_noise_sd": 2.0},
        sim_seed=4,
        options={"jobs": 1, "bin_width": 1.0},
    ),
}


def cli_flags(options: dict) -> list[str]:
    """``jndmap run`` flags for a workload's options."""
    flags = []
    for name, value in options.items():
        flags += ["--" + name.replace("_", "-"), str(value)]
    return flags


def write_study(workload: Workload, seed: int, out_dir: Path) -> dict[str, Path]:
    """Write the workload's study for ``seed``; returns the three table paths."""
    spec = dataclasses.replace(SimSpec(), seed=workload.sim_seed, **workload.sim)
    corpus, _ = simulate_corpus(spec)
    rng = np.random.default_rng(seed)
    contents = sorted({s.content_id for s in corpus.stimuli})
    observers = sorted({r.observer_id for r in corpus.ratings})
    content_ids = rng.choice(10 * len(contents) + 1000, size=len(contents), replace=False)
    observer_ids = rng.choice(10 * len(observers) + 1000, size=len(observers), replace=False)
    content_map = {c: f"c{n:05d}" for c, n in zip(contents, content_ids)}
    observer_map = {o: f"o{n:05d}" for o, n in zip(observers, observer_ids)}

    def shuffled(rows: list) -> tuple:
        return tuple(rows[i] for i in rng.permutation(len(rows)))

    relabelled = Corpus(
        stimuli=shuffled(
            [dataclasses.replace(s, content_id=content_map[s.content_id]) for s in corpus.stimuli]
        ),
        ratings=shuffled(
            [
                dataclasses.replace(
                    r,
                    content_id=content_map[r.content_id],
                    observer_id=observer_map[r.observer_id],
                )
                for r in corpus.ratings
            ]
        ),
        truths=shuffled(
            [dataclasses.replace(t, content_id=content_map[t.content_id]) for t in corpus.truths]
        ),
    )
    return save_corpus(relabelled, out_dir)
