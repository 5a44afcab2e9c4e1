"""Pairwise distances survive the full transform untouched and only ever
shrink under truncation.

The squared distance between two points splits exactly across the
eigenbasis coordinates, so dropping coordinates drops distance: the
truncated distance plus the discarded energy reassembles the original.

Run:  python3 demos/03_distance_shrinkage.py
"""

import numpy as np

from pcashrink import fit, shrinkage_blocks, shrinkage_summaries, transform

rng = np.random.default_rng(42)
X = rng.standard_normal((150, 5)) * [3.0, 2.0, 1.0, 0.4, 0.1]
model = fit(X)

# full rank: an isometry (largest distance change over all 11175 pairs,
# read a block of pairs at a time)
blocks, _ = shrinkage_blocks(model, X, 5)
change = max(np.max(np.abs(block.shrinkage)) for block in blocks)
print("m=5 (full): largest |distance change| = %.2e" % change)

# truncation: distances shrink, never grow; one pass over the same pairs,
# one summary per m, without reading a block
for stats in shrinkage_summaries(model, X, [4, 3, 2, 1]):
    print("m=%d: mean shrinkage %.4f, max %.4f, pairs that grew: %d"
          % (stats.m, stats.mean, stats.max, stats.negative_count))

# the exact decomposition for one pair at m=2
a, b = X[0], X[1]
ya, yb = transform(model, a), transform(model, b)
orig_sq = np.sum((a - b) ** 2)
kept_sq = np.sum((ya - yb)[:2] ** 2)
tail_sq = np.sum((ya - yb)[2:] ** 2)
print()
print("one pair at m=2:")
print("  original distance^2          %.6f" % orig_sq)
print("  truncated^2 + discarded^2    %.6f" % (kept_sq + tail_sq))
