"""varcap: variational capacity on radial manifolds and finite metric-measure spaces.

Closed-form/quadrature capacity for rotationally symmetric condensers, an
independent 1D finite-element route, graph-Laplacian condensers on discrete
metric-measure spaces, largest Lipschitz extensions with sublevel regions,
converging-family semicontinuity experiments, and quasi-local mass
functionals on asymptotically flat radial profiles.
"""

__version__ = "0.1.0"

from .geometry import Dimension, unit_sphere_area
from .profiles import (
    WarpProfile,
    capped_even_profile,
    cylinder_transition_profile,
    euclidean_profile,
    hyperboloid_profile,
    schwarzschild_profile,
)
from .warped import (
    RadialCondenser,
    end_resistance,
    end_resistance_estimate,
    radial_capacity,
    truncated_ramp_energy,
    volume_and_boundary,
)
from .radial_fem import (
    CapacityEstimate,
    FemSolution,
    RadialGrid,
    capacity_estimate,
    solve_radial,
)
from .mms import (
    Disk,
    FiniteMetricMeasureSpace,
    GraphCondenser,
    GraphPotential,
    build_planar_sheet,
    graph_capacity,
    union_spaces,
)
from .regions import (
    DefiningFunction,
    distance_to_set,
    mcshane_extend,
    region_measure,
)
from .sequences import (
    SequenceExperiment,
    Verdict,
    check_semicontinuity,
    run_example1,
    run_example2,
    run_example3,
    run_example4,
)
from .mass import AFProfile, MassCurve, evaluate_mass_curve, extrapolate_mass

__all__ = [
    "AFProfile",
    "CapacityEstimate",
    "DefiningFunction",
    "Dimension",
    "Disk",
    "FemSolution",
    "FiniteMetricMeasureSpace",
    "GraphCondenser",
    "GraphPotential",
    "MassCurve",
    "RadialCondenser",
    "RadialGrid",
    "SequenceExperiment",
    "Verdict",
    "WarpProfile",
    "build_planar_sheet",
    "capacity_estimate",
    "capped_even_profile",
    "check_semicontinuity",
    "cylinder_transition_profile",
    "distance_to_set",
    "end_resistance",
    "end_resistance_estimate",
    "euclidean_profile",
    "evaluate_mass_curve",
    "extrapolate_mass",
    "graph_capacity",
    "hyperboloid_profile",
    "mcshane_extend",
    "radial_capacity",
    "region_measure",
    "run_example1",
    "run_example2",
    "run_example3",
    "run_example4",
    "schwarzschild_profile",
    "solve_radial",
    "truncated_ramp_energy",
    "union_spaces",
    "unit_sphere_area",
    "volume_and_boundary",
]
