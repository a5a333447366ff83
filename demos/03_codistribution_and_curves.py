"""
Co-distributions and the four curve families
============================================

Within one sub-quality range, the labelled pairs are binned by |dVMAF| into
paired histograms (f_dif, f_sim).  Their ratio per bin is the empirical
probability of seeing a difference, and four parametric families are fitted
to it.
"""

import numpy as np

from jndmap import (SimSpec, simulate_corpus, apply_screening, screen,
                    classify_pairs, decompose_balanced, assign_pairs,
                    fit_all, evaluate_mf)
from jndmap.mapping import FAMILY_TABLE

corpus, _ = simulate_corpus(SimSpec(seed=11))
corpus = apply_screening(corpus, screen(corpus))
pairs = classify_pairs(corpus)

# 1. five balanced sub-quality ranges -------------------------------------
decomp = assign_pairs(pairs, decompose_balanced(corpus, 5), corpus)
for rng in decomp.ranges:
    print(f"  {rng.range_id:22s} {len(rng.pair_refs):3d} pairs")

codists, models = fit_all(decomp, pairs, bin_width=2.0)

# 2. inspect one co-distribution ------------------------------------------
rid = decomp.range_ids()[1]
cd = codists[rid]
print(f"\nco-distribution for {rid}:")
for lo, hi, fd, fs in zip(cd.bin_edges[:-1], cd.bin_edges[1:], cd.f_dif, cd.f_sim):
    psd = fd / (fd + fs) if fd + fs else None
    bar = "" if psd is None else "#" * int(round(psd * 20))
    shown = "  -  " if psd is None else f"{psd:.3f}"
    print(f"  [{lo:4.1f},{hi:4.1f})  dif={fd:3d} sim={fs:3d}  P_SD={shown} {bar}")

# 3. the fitted families ----------------------------------------------------
# All four should agree on the gross shape; they differ in the tails and in
# how many knobs they spend to get there.
print(f"\nfits for {rid}:")
grid = np.linspace(0.5, 14.0, 4)
for family, mf in models[rid].items():
    vals = ", ".join(f"f({d:g})={evaluate_mf(mf, d):.3f}" for d in grid)
    print(f"  {FAMILY_TABLE[family].label:7s} residual={mf.fit_report.residual_norm:.4f} "
          f"monotone={mf.fit_report.monotone}  {vals}")
