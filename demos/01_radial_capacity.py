"""Radial condensers: closed-form capacity vs the finite-element route.

A rotationally symmetric metric ds^2 + f(s)^2 dsigma^2 reduces capacity to a
one-dimensional resistance integral: each end contributes
C = integral of f^(1-m), and the capacity of {s <= s0} is omega/(gamma*C)
per end.  The FEM route never sees that formula: it minimizes the discrete
Dirichlet energy on a truncated interval and extrapolates, so agreement is a
real two-route check.
"""

import math

from varcap import (
    RadialCondenser,
    capacity_estimate,
    cylinder_transition_profile,
    euclidean_profile,
    hyperboloid_profile,
    radial_capacity,
    schwarzschild_profile,
    solve_radial,
)
from varcap.radial_fem import RadialGrid, fem_csv

print("=== Euclidean balls: capacity r^(m-2) ===")
for m in (3, 4, 5):
    for r in (0.5, 1.0, 2.0):
        cap = radial_capacity(RadialCondenser(euclidean_profile(m), r))
        print(f"  m={m} r={r}: capacity = {cap:.12f}  (exact {r**(m-2):.12f})")

print("\n=== FEM route on the unit ball, m=3 ===")
cond = RadialCondenser(euclidean_profile(3), 1.0)
est = capacity_estimate(cond)
print(f"  extrapolated capacity = {est.cap:.9f} +- {est.error_estimate:.1e}")
print("  convergence table (L, h, cap, energy):")
print("  " + fem_csv(est.rows).replace("\n", "\n  "))

print("=== A cylindrical end kills every capacity ===")
prof = cylinder_transition_profile(4, m=3)
print(f"  f is Euclidean to s=4, then a unit cylinder past s=5")
print(f"  closed form: capacity = {radial_capacity(RadialCondenser(prof, 1.0))}")
cond = RadialCondenser(prof, 1.0)
for L in (100.0, 1000.0, 10000.0):
    sol = solve_radial(cond, RadialGrid.geometric(1.0, L, 1.0 / 32))
    print(f"  FEM truncated at L={L:>8.0f}: cap_L = {sol.cap_L:.6f}")

print("\n=== Two-ended neck f = sqrt(1+s^2) ===")
two = RadialCondenser(hyperboloid_profile(), 0.0, ends="two_symmetric")
print(f"  closed form: 2/C with C = pi/2  ->  {radial_capacity(two):.12f}")
print(f"  4/pi                             =  {4/math.pi:.12f}")
est = capacity_estimate(two)
print(f"  FEM extrapolation                =  {est.cap:.12f} +- {est.error_estimate:.1e}")

print("\n=== Schwarzschild exterior (mass 1), areal radius ===")
prof = schwarzschild_profile(1.0)
for R in (2.0, 3.0, 10.0, 100.0):
    cap = radial_capacity(RadialCondenser(prof, R))
    exact = 1.0 / (1.0 - math.sqrt(max(1 - 2.0 / R, 0.0)))
    print(f"  cap({{R <= {R:>5.1f}}}) = {cap:.10f}   (exact {exact:.10f})")
print("  the horizon itself has capacity equal to the mass")
