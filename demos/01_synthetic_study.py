"""
Generating a synthetic DCR study
================================

The simulator stands in for a real subjective experiment: every content gets
an encoding ladder, every observer rates every stimulus on the 5-level
impairment scale, and the true just-noticeable rung per content/direction is
recorded so later stages can be scored against it.
"""

import tempfile

import numpy as np

from jndmap import SimSpec, simulate_corpus
from jndmap.corpus import save_corpus

# 1. describe the study --------------------------------------------------
# Ten contents, the default six-rung ladder, a 24-observer panel.  The seed
# pins everything: rerunning this script reproduces every byte.
spec = SimSpec(n_contents=10, observer_count=24, seed=42)
print("ladder:", [f"{rid}@{v:g}" for rid, v in spec.ladder])

corpus, info = simulate_corpus(spec)
print(f"{len(corpus.stimuli)} stimuli, {len(corpus.ratings)} ratings,",
      f"{len(corpus.truths)} planted truths")

# 2. what the panel produced ----------------------------------------------
# References are rated against themselves, so their scores sit at 5; the
# deeper rungs drift down as the impairment grows.
for stim in corpus.stimuli[:7]:
    scores = [r.score for r in corpus.ratings_for(stim.content_id, stim.recipe_id)]
    print(f"  {stim.content_id}/{stim.recipe_id}  vmaf={stim.vmaf:6.2f}  "
          f"mean score={np.mean(scores):.2f}")

# 3. planted ground truth ------------------------------------------------
# info["true_deltas"] records the true VMAF drop per (content, direction);
# the median tells you roughly how many VMAF points one JND is worth here.
deltas = [abs(d) for d in info["true_deltas"].values()]
print(f"median planted |dVMAF| per JND: {np.median(deltas):.2f}")
print(f"contents whose JND lies beyond the ladder: {len(info['beyond_ladder'])}")

# 4. round-trip through the interchange CSVs ------------------------------
with tempfile.TemporaryDirectory() as tmp:
    for name, path in save_corpus(corpus, tmp).items():
        lines = path.read_text().splitlines()
        print(f"{name}.csv: {len(lines) - 1} rows, header: {lines[0]}")
