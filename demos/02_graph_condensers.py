"""Discrete condensers: graph Dirichlet forms on metric-measure point clouds.

The metric (ambient R^3 distances) and the energy (edge conductances) are
independent data.  Capacity is the minimum of sum c_ij (u_i - u_j)^2 over
potentials clamped to 1 on K and 0 on the grounded set B, divided by
gamma_m, so planar lattices converge to continuum condenser values.
"""

import math

import numpy as np

from varcap import (
    Dimension,
    Disk,
    FiniteMetricMeasureSpace,
    GraphCondenser,
    build_planar_sheet,
    graph_capacity,
    union_spaces,
)
from varcap.sequences import planar_condenser_study

print("=== Series resistors ===")
chain = FiniteMetricMeasureSpace(
    ["a", "b", "c"],
    [1.0, 1.0, 1.0],
    coords=np.array([[0, 0, 0], [1, 0, 0], [2, 0, 0]], dtype=float),
    edges=np.array([[0, 1], [1, 2]]),
    conductance=[1.0, 1.0],
)
pot = graph_capacity(GraphCondenser(chain, ("a",), ("c",), Dimension(3)))
print(f"  two unit edges in series: u = {pot.u}, energy = {pot.raw_energy}")

print("\n=== Disk-in-plane condenser on a lattice ===")
print("  inner disk radius 1, grounded rim radius 4; continuum value 1/ln 4")
caps, errors, order = planar_condenser_study((0.1, 0.05, 0.025), rim_radius=4.0)
for h, cap, err in zip((0.1, 0.05, 0.025), caps, errors):
    print(f"  h={h:<6} capacity = {cap:.6f}   error = {err:.6f}")
print(f"  target 1/ln(4) = {1/math.log(4):.6f}, observed order = {order:.3f}")
print("  (condenser values are relative to the stated rim: the plane has no")
print("   capacity at infinity, the log divergence kills it)")

print("\n=== Two sheets a hair apart, but no shared edges ===")
h = 0.1
disk = build_planar_sheet((-1, 1, -1, 1), h, clip=Disk(0, 0, 1), label_prefix="K", offset=0.5)
plane = build_planar_sheet(
    (-4.5, 4.5, -4.5, 4.5), h, hole=Disk(0, 0, 1), z_offset=0.01, label_prefix="S", offset=0.5
)
space = union_spaces(disk, plane)
r = np.sqrt(space.coords[:, 0] ** 2 + space.coords[:, 1] ** 2)
outer = tuple(lab for lab, ri in zip(space.labels, r) if lab.startswith("S:") and ri >= 4.0)
pot = graph_capacity(GraphCondenser(space, tuple(disk.labels), outer, Dimension(2)))
print(f"  ambient gap between sheets: 0.01;  capacity = {pot.capacity}")
print("  (the Dirichlet form lives on the sheets, not on the ambient space)")

print("\n=== A thin strip restores a little capacity ===")
# The strip is one edge of conductance c from the disk (held at 1) to S:10_0,
# so it is in series with the sheet's own conductance G from S:10_0 to the
# rim: one point-source solve on the sheet alone gives G.
c = 0.05
G = graph_capacity(GraphCondenser(plane, ("S:10_0",), outer, Dimension(2))).raw_energy
print(f"  sheet conductance from S:10_0 to the rim: G = {G:.6f}")
print(f"  strip of conductance 0.05 in series: capacity = {1 / (1 / c + 1 / G) / (2 * math.pi):.6f}")
print(f"  series bound conductance/(2 pi)               = {c / (2 * math.pi):.6f}")
