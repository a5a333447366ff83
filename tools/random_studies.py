"""Fit every curve family on small random studies and print what the fits did.

Usage: ``python tools/random_studies.py`` (no options).  It imports the
package from ``src`` next to this script's directory, so a checkout of any
commit measures that commit.

For each of the seeds 2026 and 2027, study i draws its settings from
``np.random.default_rng([seed, i])``:

* ``SimSpec`` with ``n_contents`` in 1..8, the first 3..12 rungs of the
  default ladder, ``observer_count`` in 2..9, ``rating_noise_sd`` in U(0, 10),
  ``jnd_scale`` in U(0.5, 40) and a simulator ``seed`` in 1..10**6;
* a balanced range count ``k`` in 2..5 and a ``bin_width`` in {0.5, 1, 2, 3}.

It runs ``screen_bt500`` -> ``apply_screening`` -> ``classify_pairs``
(Welch) -> ``decompose_balanced(k)`` -> ``assign_pairs``, skips a study whose
stages before the fit raise ``ValueError``, and keeps the first 40 studies
that reach ``fit_all``.  Each family is fitted by its own ``fit_all`` call,
which is timed.  Per seed and family it prints the ranges fitted, the usable
fits (monotone), the failed fits (``FitError``), each flag's count, the
total reported iterations and the total ``fit_all`` seconds.
"""

from __future__ import annotations

import logging
import sys
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from jndmap.mapping import FAMILIES, fit_all  # noqa: E402
from jndmap.ranges import assign_pairs, decompose_balanced  # noqa: E402
from jndmap.screening import apply_screening, screen_bt500  # noqa: E402
from jndmap.significance import classify_pairs  # noqa: E402
from jndmap.simulate import SimSpec, simulate_corpus  # noqa: E402

SEEDS = (2026, 2027)
STUDIES = 40
BIN_WIDTHS = (0.5, 1.0, 2.0, 3.0)


def studies(seed: int):
    """The first ``STUDIES`` studies of ``seed`` that reach the fit: (study
    index, decomposition with its pairs assigned, pair table, bin width)."""
    kept, i = 0, 0
    while kept < STUDIES:
        rng = np.random.default_rng([seed, i])
        spec = replace(
            SimSpec(),
            n_contents=int(rng.integers(1, 9)),
            ladder=SimSpec().ladder[: int(rng.integers(3, 13))],
            observer_count=int(rng.integers(2, 10)),
            rating_noise_sd=float(rng.uniform(0.0, 10.0)),
            jnd_scale=float(rng.uniform(0.5, 40.0)),
            seed=int(rng.integers(1, 10**6 + 1)),
        )
        k, bin_width = int(rng.integers(2, 6)), float(rng.choice(BIN_WIDTHS))
        try:
            corpus, _ = simulate_corpus(spec)
            corpus = apply_screening(corpus, screen_bt500(corpus))
            pairs = classify_pairs(corpus, test="welch")
            decomp = assign_pairs(pairs, decompose_balanced(corpus, k), corpus)
        except ValueError:
            i += 1
            continue
        yield i, decomp, pairs, bin_width
        kept, i = kept + 1, i + 1


def main() -> None:
    logging.disable(logging.WARNING)  # fit_all logs each failed fit
    for seed in SEEDS:
        totals = {family: Counter() for family in FAMILIES}
        flags = {family: Counter() for family in FAMILIES}
        for _, decomp, pairs, bin_width in studies(seed):
            for family in FAMILIES:
                start = time.perf_counter()
                codists, models = fit_all(decomp, pairs, (family,), bin_width)
                total = totals[family]
                total["seconds"] += time.perf_counter() - start
                fits = [per_range[family] for per_range in models.values()]
                total["ranges"] += len(codists)
                total["usable"] += sum(mf.fit_report.monotone for mf in fits)
                total["failed"] += len(codists) - len(fits)
                total["iterations"] += sum(mf.fit_report.iterations for mf in fits)
                flags[family].update(flag for mf in fits for flag in mf.fit_report.flags)
        for family, total in totals.items():
            counts = " ".join(f"{flag}={n}" for flag, n in sorted(flags[family].items()))
            print(f"seed {seed} {family:9s} ranges {total['ranges']} usable {total['usable']} "
                  f"failed {total['failed']} iterations {total['iterations']} "
                  f"fit_all {total['seconds']:.2f}s  flags: {counts or '-'}")


if __name__ == "__main__":
    main()
