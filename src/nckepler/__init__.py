"""Deformed-bracket Kepler dynamics.

A library and CLI for a Kepler system on a phase space with deformed
bracket relations: the weighted Poisson structure, conserved-vector
symmetry algebras, exact action-angle and Delaunay-type charts, a ladder
of compatible Poisson structures with recursion operators, and master
symmetries with their scaling relations.  Every displayed identity ships
with a numerical verification battery built on exact forward-mode
derivatives.
"""

from .deformation import DeformationParams, beta_bracket_table, nc_bracket, nc_symplectic_structures, theta_weights, transform_coordinates
from .errors import (
    ChartDomainError,
    InvalidDeformationError,
    NCKeplerError,
    NonCompactError,
    SamplingError,
    SingularConfigurationError,
    StepFailureError,
    TurningPointError,
)
from .geometry import (
    Chart,
    PhasePoint,
    ScalarField,
    TensorField,
    VectorField,
    gradient,
    hamiltonian_vector_field,
    interior_product,
    lie_bracket,
    lie_derivative,
    nijenhuis_torsion,
    schouten_bracket,
)
from .kepler import Trajectory, deformed_radius, hamiltonian, hamiltonian_vector_field_nc, hamilton_rhs_closed_form, integrate
from .reduced import ReducedParams
from .report import CheckRecord, SuiteReport
from .suites import SUITE_NAMES, VerifyConfig

__version__ = "0.1.0"
