"""
Choosing sub-quality ranges
===========================

Visibility of a fixed |dVMAF| depends on where on the quality scale it
happens, which is why curves are fitted per range.  Three ways to cut the
scale: equal-occupancy ("balanced"), equal width, or hand-picked bounds.
"""

import numpy as np

from jndmap import SimSpec, simulate_corpus
from jndmap.ranges import decompose_balanced, decompose_explicit, decompose_fixed

corpus, _ = simulate_corpus(SimSpec(n_contents=12, seed=5))
vmafs = np.array([s.vmaf for s in corpus.stimuli])
print(f"{vmafs.size} stimuli spanning [{vmafs.min():.1f}, {vmafs.max():.1f}]")


def occupancy(decomp):
    counts = [int(np.sum((vmafs > r.lo) & (vmafs <= r.hi))) for r in decomp.ranges]
    return "  ".join(f"{rid}:{c}" for rid, c in zip(decomp.range_ids(), counts))


# balanced: near-equal stimulus counts, data-driven cuts
bal = decompose_balanced(corpus, 4)
print("\nbalanced k=4     ", occupancy(bal))

# fixed width: predictable bounds, possibly lopsided occupancy
fw = decompose_fixed(10.0, corpus)
print("fixed width 10   ", occupancy(fw))

# explicit: bounds chosen by the operator, e.g. finer resolution up top
# where small drops are least visible
exp = decompose_explicit([30.0, 79.0, 86.0, 90.0, 95.0, 100.0])
print("explicit         ", occupancy(exp))

# membership is lower-exclusive / upper-inclusive
for v in (79.0, 79.01, 95.0):
    index, _outside = exp.locate(v)
    print(f"  vmaf {v:5.2f} falls in {exp.ranges[index].range_id}")
