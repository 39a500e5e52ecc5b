"""Numerical laboratory for the discrete defocusing mKdV lattice.

Building blocks:

* ``lattice``    -- the ODE system and its RK4 integrator
* ``scattering`` -- a(z), b(z) as Laurent polynomials; r(z) on |z| = 1
* ``phase``      -- phase function, stationary points, scaling factors
* ``weights``    -- arc-integral coefficients (nu_j, chi_j,
                    hat_delta_j, delta_j^0, delta(0))
* ``model``      -- Gamma-function cross entries and the leading-order
                    asymptotic value of q_n
* ``harness``    -- end-to-end sweeps, self-test, emitters, used by the
                    ``dmkdv`` command-line tool

The names below are the ones the command-line tool, the demos and the
tests import from the package; everything else is imported from its
module.
"""

from .errors import (
    BlowupError,
    ConfigError,
    ConventionError,
    DmkdvError,
    DomainError,
    MergingPointsError,
    ReflectionTooLargeError,
    SpillError,
)
from .harness import RunConfig
from .lattice import (
    InitialProfile,
    LatticeState,
    conserved_c_inf,
    integrate,
    rho_zero,
    staggered,
)
from .model import (
    amplitude_envelope,
    complex_gamma,
    cross_solutions,
    leading_term,
    m1_entry,
)
from .phase import RayParams, phase_derivative, stationary_points
from .scattering import (
    UnitCirclePoint,
    reflection_evaluator,
    reflection_grid,
    scattering_coefficients,
    scattering_polynomials,
)
from .weights import coefficient_set, density_spectrum

__version__ = "0.1.0"
