"""How much can a pair's distance shrink? Never more than the two
points' own reconstruction errors, summed.

Each point sits some distance from its truncated reconstruction; the
triangle inequality caps the pair's distance loss by the sum of those
two gaps. The bound is loose for most pairs but tight when both points
stick far out of the retained subspace in opposite directions.

Run:  python3 demos/04_shrinkage_bound.py
"""

import numpy as np

from pcashrink import fit, shrinkage_blocks

rng = np.random.default_rng(3)
X = rng.standard_normal((200, 6)) * [4.0, 2.0, 1.0, 0.5, 0.25, 0.1]
model = fit(X)

blocks, summary = shrinkage_blocks(model, X, m=2)
blocks = list(blocks)  # every block read, so the summary is complete
stats = summary()
table = {name: np.concatenate([getattr(block, name) for block in blocks])
         for name in ("i", "j", "dist_original", "dist_truncated", "shrinkage", "recon_error")}
print("pairs checked:            %d" % stats.pair_count)
print("bound violations:         %d" % stats.bound_violations)
ratio = table["shrinkage"] / table["recon_error"]
print("shrinkage / bound ratio:  median %.3f, max %.3f"
      % (np.median(ratio), np.max(ratio)))
print()

# the tightest pair, spelled out
k = int(np.argmax(ratio))
print("tightest pair (%d, %d):" % (table["i"][k], table["j"][k]))
print("  distance before truncation  %.4f" % table["dist_original"][k])
print("  distance after              %.4f" % table["dist_truncated"][k])
print("  shrinkage                   %.4f" % table["shrinkage"][k])
print("  reconstruction-error bound  %.4f" % table["recon_error"][k])
