"""Hermitian, gauge-covariant surface Hamiltonians on rings, cylinders and spheres."""

from .geometry import (
    PhysicalConstants,
    SurfaceKind,
    SurfaceSpec,
    cylinder,
    geometric_kinetic_energy,
    principal_curvatures,
    ring,
    sphere,
)
from .discretize import (
    Grid,
    OperatorMatrix,
    build_grid,
    hermiticity_residual,
    weighted_inner,
    weighted_norm,
)
from .fields import (
    ABFlux,
    GaugeFieldSpec,
    GaugeFunction,
    Sampled,
    UniformAxial,
    add_gauge,
    load_sampled_csv,
    materialize,
    surface_gradient,
)
from .hamiltonians import (
    HamiltonianRequest,
    build_hamiltonian,
    hermitian_radial_momentum,
    zeeman_block,
)
from .analysis import (
    SpectrumReport,
    analytic_cylinder_landau,
    analytic_ring_spectrum,
    antihermitian_part,
    gauge_covariance_residual,
    ring_symbol_spectrum,
    spectrum,
    spectrum_gauge_invariance,
)
from .thinlayer import (
    ShellProblem,
    build_radial_operator,
    gke_extrapolate,
    radial_spectrum,
    sweep_table,
)

__version__ = "0.1.0"
