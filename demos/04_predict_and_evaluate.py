"""
Inverting the curves and scoring against ground truth
=====================================================

A fitted curve answers "how visible is a drop of d points?"; inverted, it
answers the planning question "how far can I drop before a fraction thr of
viewers notice?".  With ground-truth JND annotations the whole grid of
(direction, family, threshold) cells can be scored by MAE/RMSE.
"""

from jndmap import (SimSpec, simulate_corpus, screen, apply_screening,
                    classify_pairs, decompose_balanced, assign_pairs,
                    fit_all, invert_at_threshold, predict_jnd)
from jndmap.evaluate import EvalGridSpec, evaluate_grid, format_grid_table

spec = SimSpec(seed=0)
corpus, _ = simulate_corpus(spec)
corpus = apply_screening(corpus, screen(corpus))
pairs = classify_pairs(corpus)
decomp = assign_pairs(pairs, decompose_balanced(corpus, 5), corpus)
codists, models = fit_all(decomp, pairs)

# 1. invert one curve at several thresholds --------------------------------
index, _outside = decomp.locate(88.0)
rid = decomp.ranges[index].range_id
mf = models[rid]["glm"]
print(f"range {rid}, GLM:")
for thr in (0.75, 0.85, 0.95):
    delta, clamped = invert_at_threshold(mf, thr)
    note = "  (clamped)" if clamped else ""
    print(f"  thr={thr:.2f} -> smallest noticeable |dVMAF| = {delta:6.3f}{note}")

# 2. predict from a concrete anchor ----------------------------------------
anchor = corpus.stimulus("c02", "r01")
pred = predict_jnd(models, decomp, anchor, "dec", threshold=0.95, family="glm")
print(f"\nanchor {anchor.content_id}/{anchor.recipe_id} at vmaf={anchor.vmaf:.2f}:")
print(f"  one JND down sits near vmaf {pred.target_vmaf:.2f} "
      f"(delta {pred.delta_obj_jnd:.2f}, range {pred.range_id})")

# 3. score the whole grid against the planted truths -----------------------
gridspec = EvalGridSpec(thresholds=(0.75, 0.85, 0.95), families=("logistic2", "glm"))
grid = evaluate_grid(corpus, models, decomp, gridspec)
print()
print(format_grid_table(grid, "dec"))

(direction, family, threshold), best = grid.best_cell()
print(f"best cell: {direction}/{family}@{threshold} "
      f"mae={best.mae:.3f} over n={best.n} truths")
