"""Parabolic-cylinder model contributions and the leading-order value.

Each stationary point S_j carries an exactly solvable cross problem whose
first moment has the Gamma-function closed form

    odd j :  (m1^j)_12 =  i (2pi)^(1/2) e^(+i pi/4) e^(-pi nu/2)
                          / (r(S_j) Gamma(-i nu_j)),
    even j:  (m1^j)_12 = -i (2pi)^(1/2) e^(-i pi/4) e^(-pi nu/2)
                          / (r(S_j) Gamma(+i nu_j)).

This is the "conjugate_pair" form.  Writing e^(-i pi/4) for every j
("uniform_phase") would multiply the odd crosses by -i.  Only the form
above makes (m1^2)_12 = conj((m1^1)_12) for real lattice data, which is
what forces the assembled leading term

    q_n ~ Re[ delta(0)^-1 sum_j beta_j S_j^-2 (delta_j^0)^2 (m1^j)_12 ]

to be real up to the error scale; the self-test's realness audit applies
that rotation to the contributions to show the rejected form fails.

cross_solutions returns the four (m1^j)_12 as plain complex numbers,
built from the r(S_j) and nu_j that a CoefficientSet already holds;
leading_term assembles them with that set's delta_j^0 and delta(0).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ConventionError, PoleError
from .phase import RayParams, StationarySet
from .weights import CoefficientSet

__all__ = [
    "AsymptoticResult",
    "complex_gamma",
    "m1_entry",
    "cross_solutions",
    "leading_term",
    "amplitude_envelope",
    "oscillation_decomposition",
]

# Lanczos coefficients, g = 7, n = 9 (Godfrey / GSL set)
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def complex_gamma(w: complex) -> complex:
    """Gamma(w) by the Lanczos approximation with reflection for Re w < 1/2.

    Relative error is well below 1e-12 on the strip used by the model
    (|Im w| <= 2, Re w in [-0.5, 2]).
    """
    wc = complex(w)
    if wc.imag == 0.0 and wc.real <= 0.0 and wc.real == int(wc.real):
        raise PoleError(f"Gamma has a pole at {wc.real:.0f}")
    if wc.real < 0.5:
        # Gamma(w) Gamma(1-w) = pi / sin(pi w)
        return math.pi / (cmath.sin(math.pi * wc) * complex_gamma(1.0 - wc))
    x = wc - 1.0
    acc = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (x + i)
    t = x + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (x + 0.5) * cmath.exp(-t) * acc


@dataclass(frozen=True)
class AsymptoticResult:
    """Leading-order asymptotic value at (n, t) with diagnostics."""

    n: int
    t: float
    q_asym: float
    contributions: tuple        # beta_j S_j^-2 (delta_j^0)^2 (m1^j)_12
    imag_residual: float
    delta_at_zero: complex


def m1_entry(nu: float, r_at_S: complex, j: int) -> complex:
    """(m1^j)_12 for one cross; returns 0 at nu = 0 by continuity."""
    if j not in (1, 2, 3, 4):
        raise ValueError("j must be one of 1, 2, 3, 4")
    if nu < 0:
        raise ValueError("nu must be nonnegative")
    if nu == 0.0 or r_at_S == 0.0:
        return 0.0 + 0.0j
    root = math.sqrt(2.0 * math.pi) * math.exp(-math.pi * nu / 2.0)
    if j % 2 == 1:
        return 1j * root * cmath.exp(0.25j * math.pi) \
            / (r_at_S * complex_gamma(-1j * nu))
    return -1j * root * cmath.exp(-0.25j * math.pi) \
        / (r_at_S * complex_gamma(1j * nu))


def cross_solutions(coeffs: CoefficientSet) -> tuple:
    """The four (m1^j)_12, j = 1..4.

    r(S_j) is read from coeffs.r_at_S, the values nu_j was taken from,
    and no r is evaluated here.
    """
    return tuple(m1_entry(coeffs.nu[k], coeffs.r_at_S[k], k + 1)
                 for k in range(4))


REALNESS_CALIBRATION = 0.02  # C of leading_term's realness guard


def leading_term(ray: RayParams, stationary: StationarySet,
                 coeffs: CoefficientSet, m1,
                 realness_calibration: float | None = REALNESS_CALIBRATION
                 ) -> AsymptoticResult:
    """Assemble the leading-order value at (n, t) from the four
    (m1^j)_12 of cross_solutions.

    realness_calibration is the constant C in the guard threshold
    10 C t^-1 log t on the imaginary residual; pass None to skip the
    guard (used by the realness audit, which reports the residual
    against its own threshold).
    """
    total = 0.0 + 0.0j
    contributions = []
    for k in range(4):  # fixed order j = 1..4 for bit-stable output
        term = (stationary.beta[k] / (stationary.S[k] * stationary.S[k])
                * coeffs.delta_j0[k] ** 2 * m1[k])
        contributions.append(term)
        total += term
    total /= coeffs.delta_at_zero
    imag_residual = abs(total.imag)
    if realness_calibration is not None:
        scale = math.log(max(ray.t, 2.0)) / ray.t
        if imag_residual > 10.0 * realness_calibration * scale:
            raise ConventionError(
                f"imaginary residual {imag_residual:.3e} exceeds "
                f"{10.0 * realness_calibration * scale:.3e}; "
                "sign/branch inconsistency upstream")
    return AsymptoticResult(n=ray.n, t=ray.t, q_asym=total.real,
                            contributions=tuple(contributions),
                            imag_residual=imag_residual,
                            delta_at_zero=coeffs.delta_at_zero)


def amplitude_envelope(result: AsymptoticResult) -> float:
    """Sum of contribution moduli over |delta(0)|: the O(t^-1/2) envelope."""
    return sum(abs(c) for c in result.contributions) / abs(result.delta_at_zero)


def oscillation_decomposition(ray: RayParams, stationary: StationarySet,
                              coeffs: CoefficientSet, j: int):
    """Oscillation diagnostics of contribution j.

    The oscillatory part of delta_j^0 is

        exp(i [2 n theta_j - 2 kappa_j t + (-1)^j nu_j log t] / 2 + i const),

    theta_j = arg S_j, kappa_j = Im S_j^2.  Returns (amplitude,
    phase_slope_t, phase_slope_logt) where amplitude = |contribution_j| =
    |beta_j| sqrt(nu_j) |delta_j^0|^2 and the slopes are the t and log t
    rates of that half-angle phase: -kappa_j and (-1)^j nu_j / 2.
    """
    if j not in (1, 2, 3, 4):
        raise ValueError("j must be one of 1, 2, 3, 4")
    k = j - 1
    amplitude = (abs(stationary.beta[k]) * math.sqrt(coeffs.nu[k])
                 * abs(coeffs.delta_j0[k]) ** 2)
    kappa = (stationary.S[k] * stationary.S[k]).imag
    return amplitude, -kappa, (-1) ** j * coeffs.nu[k] / 2.0
