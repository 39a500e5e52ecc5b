"""Exception types shared across the package.

Every failure mode that callers are expected to catch has its own class;
generic ValueError/TypeError are reserved for plain misuse (bad argument
types, malformed construction), and DomainError is also a ValueError.
"""


class DmkdvError(Exception):
    """Base class for all package-specific errors."""

    def describe(self) -> str:
        """The failure on one line, as rows and the CLI report it."""
        return f"{type(self).__name__}: {self}"


class SpillError(DmkdvError):
    """Boundary sites of the integration window picked up non-negligible
    amplitude: the window is too small for the requested final time."""


class BlowupError(DmkdvError):
    """sup|q| reached 1 (or exceeded the conserved bound) during time
    stepping; the step size is too large or the input state is invalid."""


class DomainError(DmkdvError, ValueError):
    """Argument outside the mathematical domain of the operation
    (off the unit circle, at z = 0, on an integration arc, ...)."""


class ReflectionTooLargeError(DmkdvError):
    """|r(z)| reached 1; the defocusing assumption |r| < 1 is violated."""


class MergingPointsError(DmkdvError):
    """Ray with |n/t| >= 2 - phase.MERGING_MARGIN = 1.95: the stationary
    points coalesce at |n/t| = 2 and leave the unit circle beyond it, so
    the four-point asymptotics does not apply."""


class ConventionError(DmkdvError):
    """The two odd crosses of the asymptotic sum, equal for real data,
    differ by more than rounding (model.check_realness); signals a branch
    or sign inconsistency."""


class ConfigError(DmkdvError):
    """Invalid run configuration."""


class ConditioningError(DmkdvError):
    """The scattering data cannot be computed to working precision: the
    coefficients of a(z) and b(z) overflow while they are built, a(z)
    rounds to more than 1e-8 of its modulus somewhere on the circle, or
    the density's spectrum has not decayed on 2^19 circle points
    (weights.density_spectrum)."""
