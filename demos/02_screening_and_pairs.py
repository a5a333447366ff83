"""
Observer screening and pair significance
========================================

Two gates stand between raw ratings and the probability curves.  First the
panel is screened: an observer whose scores land outside kurtosis-gated
mean +/- 2 sigma bands too often *and* on both sides is erratic and gets
dropped.  Second, every same-content encoding pair is labelled different or
similar with a Welch t-test on the two rating vectors.
"""

from jndmap import SimSpec, simulate_corpus, screen, apply_screening, classify_pairs
from jndmap.corpus import Corpus, DcrRating

# A ladder reaching deep into low quality, so panel means cover the whole
# 1..5 scale -- an observer can only be caught deviating in *both*
# directions if the study actually visits both ends of the scale.
ladder = tuple((f"r{i + 1:02d}", v) for i, v in enumerate((92, 90, 87, 82, 74, 64, 53, 43)))
corpus, _ = simulate_corpus(SimSpec(n_contents=6, ladder=ladder, seed=3))

# 1. plant a scale-inverted observer --------------------------------------
# "obs_x" reads the scale backwards (6 - score of a well-behaved colleague).
# Balanced over- and under-scoring is exactly what the screen targets.
flipped = tuple(DcrRating(r.content_id, r.recipe_id, "obs_x", 6 - r.score)
                for r in corpus.ratings if r.observer_id == "o01")
corpus = Corpus(corpus.stimuli, (*corpus.ratings, *flipped), corpus.truths)

report = screen(corpus)
print("removed:", sorted(report.removed_observers))
stats = report.per_observer_stats["obs_x"]
print(f"  obs_x: P={stats.p_count} Q={stats.q_count} "
      f"ratio1={stats.ratio1:.3f} ratio2={stats.ratio2:.3f}")

corpus = apply_screening(corpus, report)
print("panel after screening:", len(corpus.observers()), "observers")

# 2. classify pairs --------------------------------------------------------
pairs = classify_pairs(corpus, alpha=0.05, test="welch")
n_sig = sum(p.sig for p in pairs)
print(f"{len(pairs)} pairs, {n_sig} significantly different")

# Small |dVMAF| pairs should mostly read "similar", big ones "different".
pairs = sorted(pairs, key=lambda p: p.delta_obj)
for p in (pairs[0], pairs[len(pairs) // 2], pairs[-1]):
    label = "different" if p.sig else "similar"
    print(f"  {p.pair_id:14s} |dVMAF|={p.delta_obj:5.2f}  p={p.p_value:.4f}  {label}")
