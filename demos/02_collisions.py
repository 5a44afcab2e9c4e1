"""Truncating a PCA transform destroys injectivity, and you can build
the colliding points explicitly.

Keeping m of n coordinates means every point can slide along any of the
n - m discarded eigenvectors without its truncated image noticing.

Run:  python3 demos/02_collisions.py
"""

import numpy as np

from pcashrink import FullRankInjectiveError, collision_witness, fit, transform

rng = np.random.default_rng(7)
X = rng.standard_normal((100, 4)) * [4.0, 2.0, 1.0, 0.5]

model = fit(X)
x = X[0]

for m in (1, 2, 3):
    other = collision_witness(model, x, m)
    gap = np.linalg.norm(transform(model, x, m) - transform(model, other, m))
    moved = np.linalg.norm(x - other)
    print("m=%d: moved the point %.1f units, truncated images differ by %.1e"
          % (m, moved, gap))

# with all coordinates kept the transform is a rotation plus shift:
# invertible, so no witness can exist
try:
    collision_witness(model, x, 4)
except FullRankInjectiveError as err:
    print("m=4: %s" % err)
