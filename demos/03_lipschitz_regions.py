"""Largest Lipschitz extensions and the regions they carve out of nearby spaces.

Given a compact K inside a limit space S, its defining function (zero set K,
distance to K outside) extends to the ambient space by the largest
L-Lipschitz extension U(y) = min_a (u(a) + L d(a, y)).  Thresholding U at
alpha_i >= 0 inside a nearby space S_i picks out the subset of S_i matched
to K; for the canonical distance defining function that region is exactly
the closed alpha_i-neighborhood of K.
"""

import math

import numpy as np

from varcap import (
    DefiningFunction,
    Disk,
    FiniteMetricMeasureSpace,
    build_planar_sheet,
    mcshane_extend,
    region_measure,
    union_spaces,
)

rng = np.random.default_rng(0)

print("=== The extension dominates every other extension ===")
pts = rng.uniform(-1, 1, size=(7, 3))
space = FiniteMetricMeasureSpace([f"x{k}" for k in range(7)], np.ones(7), coords=pts)
anchors = ["x0", "x3", "x5"]
values = [0.0, 0.4, 0.1]
U = mcshane_extend(space, anchors, values, lip=1.0)
print(f"  anchors {anchors} with values {values}")
print(f"  extension: {np.round(U, 4)}")
print("  restricting to the anchors returns the anchor data exactly,")
print("  and any other 1-Lipschitz extension sits below it pointwise.")

print("\n=== Regions matched to a disk across a two-sheet space ===")
h = 0.1
limit = build_planar_sheet((-3, 3, -3, 3), h, label_prefix="L", offset=0.5)
r = np.sqrt(limit.coords[:, 0] ** 2 + limit.coords[:, 1] ** 2)
K = [lab for lab, ri in zip(limit.labels, r) if ri <= 1.0 + 1e-9]
defining = DefiningFunction.canonical_for(limit, K)
print(f"  limit plane: {limit.n} nodes, disk K: {len(K)} nodes,"
      f" measure(K) = {region_measure(limit, K):.4f} (pi = {math.pi:.4f})")

disk = build_planar_sheet((-1, 1, -1, 1), h, clip=Disk(0, 0, 1), label_prefix="K", offset=0.5)
sheet = build_planar_sheet(
    (-3, 3, -3, 3), h, hole=Disk(0, 0, 1), z_offset=0.25, label_prefix="S", offset=0.5
)
space_i = union_spaces(disk, sheet)

for alpha in (0.0, 0.2, 0.3, 0.6):
    region = space_i.labels_at(defining.extension_on(space_i, upto=alpha) <= alpha)
    on_disk = sum(1 for lab in region if lab.startswith("K:"))
    on_sheet = len(region) - on_disk
    print(f"  alpha = {alpha:<4}: region has {on_disk} disk nodes + {on_sheet} upper-sheet nodes,"
          f" measure = {region_measure(space_i, region):.4f}")
print("  at alpha = 0 the region is exactly the disk sheet; once alpha exceeds")
print("  the 0.25 vertical gap, the rim of the upper sheet joins in.")
