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

from .errors import ConventionError
from .phase import StationarySet
from .weights import CoefficientSet, _check_j

__all__ = [
    "AsymptoticResult",
    "complex_gamma",
    "m1_entry",
    "cross_solutions",
    "leading_term",
    "check_realness",
    "amplitude_envelope",
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
    """Gamma(w) by the Lanczos approximation for Re w >= 1/2, ValueError
    below (NaN too).  Relative error is well below 1e-12 on Re w in
    [1/2, 2], |Im w| <= 3; rows use Re w = 1, |Im w| = nu_j < 2.83."""
    wc = complex(w)
    if not wc.real >= 0.5:  # refuses NaN too
        raise ValueError("complex_gamma needs Re w >= 1/2")
    x = wc - 1.0
    acc = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (x + i)
    t = x + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * t ** (x + 0.5) * cmath.exp(-t) * acc


@dataclass(frozen=True)
class AsymptoticResult:
    """Leading-order asymptotic value with diagnostics; its ray (n, t) is
    the stationary.ray it was assembled on, which the caller holds."""

    q_asym: float
    contributions: tuple        # beta_j S_j^-2 (delta_j^0)^2 (m1^j)_12
    imag_residual: float
    delta_at_zero: complex


def m1_entry(nu: float, r_at_S: complex, j: int) -> complex:
    """(m1^j)_12 for one cross, written without the pole at nu = 0 by
    Gamma(1 -+ i nu) = -+ i nu Gamma(-+ i nu) and nu / r = rho conj(r):

        odd j :  (2pi)^(1/2) e^(-pi nu/2) e^(+i pi/4) rho conj(r)
                 / Gamma(1 - i nu),
        even j:  (2pi)^(1/2) e^(-pi nu/2) e^(-i pi/4) rho conj(r)
                 / Gamma(1 + i nu),

    with rho = nu / |r|^2, or its limit 1/(2pi) once |r|^2 <= 2^-53, so
    that data whose |r|^2 underflows keeps its linear-limit value."""
    _check_j(j)
    if not nu >= 0:  # refuses NaN too
        raise ValueError("nu must be nonnegative")
    abs2 = abs(r_at_S) ** 2
    rho = nu / abs2 if abs2 > 2.0 ** -53 else 1.0 / (2.0 * math.pi)
    root = math.sqrt(2.0 * math.pi) * math.exp(-math.pi * nu / 2.0) \
        * rho * complex(r_at_S).conjugate()
    if j % 2 == 1:
        return root * cmath.exp(0.25j * math.pi) / complex_gamma(1.0 - 1j * nu)
    return root * cmath.exp(-0.25j * math.pi) / complex_gamma(1.0 + 1j * nu)


def cross_solutions(coeffs: CoefficientSet) -> tuple:
    """The four (m1^j)_12, j = 1..4.

    r(S_j) is read from coeffs.r_at_S, the values nu_j was taken from,
    and no r is evaluated here.
    """
    return tuple(m1_entry(coeffs.nu[k], coeffs.r_at_S[k], k + 1)
                 for k in range(4))


def leading_term(stationary: StationarySet, coeffs: CoefficientSet,
                 m1) -> AsymptoticResult:
    """Assemble the leading-order value on the ray stationary.ray from the
    four (m1^j)_12 of cross_solutions.

    imag_residual is |Im| of the assembled sum, as measured; no bound is
    applied here (see check_realness).
    """
    total = 0.0 + 0.0j
    contributions = []
    for k in range(4):  # fixed order j = 1..4 for bit-stable output
        term = (stationary.beta[k] / (stationary.S[k] * stationary.S[k])
                * coeffs.delta_j0[k] ** 2 * m1[k])
        contributions.append(term)
        total += term
    total /= coeffs.delta_at_zero
    return AsymptoticResult(
        q_asym=total.real, contributions=tuple(contributions),
        imag_residual=abs(total.imag), delta_at_zero=coeffs.delta_at_zero)


REALNESS_TOL = 1e-6  # of the row's amplitude_envelope


def check_realness(result: AsymptoticResult) -> None:
    """The realness guard: ConventionError when the imaginary residual
    exceeds REALNESS_TOL times the row's amplitude_envelope; a NaN in
    either fails too.  For real data the residual is rounding-level, so
    the guard catches a broken symmetry or convention in the code (a
    rotated cross, a sign or branch slip), not anything about the data."""
    bound = REALNESS_TOL * amplitude_envelope(result)
    if not result.imag_residual <= bound:
        raise ConventionError(
            f"imaginary residual {result.imag_residual:.3e} exceeds "
            f"{bound:.3e}; sign/branch inconsistency upstream")


def amplitude_envelope(result: AsymptoticResult) -> float:
    """Sum of contribution moduli over |delta(0)|: the O(t^-1/2) envelope."""
    return sum(abs(c) for c in result.contributions) / abs(result.delta_at_zero)
