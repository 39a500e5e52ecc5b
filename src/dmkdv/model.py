"""Parabolic-cylinder model contributions and the leading-order value.

Each stationary point S_j carries an exactly solvable cross problem whose
first moment has the Gamma-function closed form

    odd j :  (m1^j)_12 =  i (2pi)^(1/2) e^(+i pi/4) e^(-pi nu/2)
                          / (r(S_j) Gamma(-i nu_j)),
    even j:  (m1^j)_12 = -i (2pi)^(1/2) e^(-i pi/4) e^(-pi nu/2)
                          / (r(S_j) Gamma(+i nu_j)).

This is the "conjugate_pair" form.  Writing e^(-i pi/4) for every j
("uniform_phase") would multiply the odd crosses by -i.  Only the form
above makes (m1^2)_12 = conj((m1^1)_12) for real lattice data, so that
the contributions c_j = beta_j S_j^-2 (delta_j^0)^2 (m1^j)_12 pair as
c_2 = conj(c_1), c_4 = conj(c_3) and the leading term is real:

    q_n ~ Re[ delta(0)^-1 sum_j c_j ] = 2 Re[ (c_1 + c_3) / delta(0) ].

Rows build the odd crosses alone (cross_solutions, from the r(S_1) and
nu a CoefficientSet holds) and take the second form (leading_term); the
self-test's realness audit forms the even crosses to show the pairing.
For real data c_3 = c_1 as well (S_3 = -S_1, beta_3 = -beta_1,
r(S_3) = -r(S_1)).  The two crosses still differ in the oscillation
factor S_j^n exp(-(t/2)(S_j^2 - S_j^-2)), beta_j, S_j, r(S_j) and the
m1 entry, and check_realness compares them.  chi, hat_delta and the
nu-power are one value each, shared by both (dmkdv.weights); the
per-arc oracle of the tests checks those against the four arcs summed
one by one.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ConventionError
from .phase import StationarySet
from .weights import CoefficientSet

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
    contributions: tuple        # c_1, c_3 (see the module docstring)
    odd_pair_residual: float    # |c_1 - c_3| / |delta(0)|
    delta_at_zero: float


def _check_j(j: int) -> None:
    if j not in (1, 2, 3, 4):
        raise ValueError("j must be one of 1, 2, 3, 4")


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
    """(m1^1)_12 and (m1^3)_12 from coeffs.r_at_S1, the value nu was
    taken from, and its image r(S_3) = -r(S_1); no r is evaluated here."""
    return (m1_entry(coeffs.nu, coeffs.r_at_S1, 1),
            m1_entry(coeffs.nu, -coeffs.r_at_S1, 3))


def leading_term(stationary: StationarySet, coeffs: CoefficientSet,
                 m1) -> AsymptoticResult:
    """Assemble the leading-order value 2 Re[(c_1 + c_3) / delta(0)] on
    the ray stationary.ray from the two (m1^j)_12 of cross_solutions.

    odd_pair_residual is |c_1 - c_3| / |delta(0)|, as measured; no bound
    is applied here (see check_realness).
    """
    c1, c3 = (stationary.beta[k] / (stationary.S[k] * stationary.S[k])
              * delta_j0 ** 2 * entry
              for k, delta_j0, entry in zip((0, 2), coeffs.delta_j0, m1))
    delta0 = coeffs.delta_at_zero
    return AsymptoticResult(
        q_asym=2.0 * ((c1 + c3) / delta0).real, contributions=(c1, c3),
        odd_pair_residual=abs(c1 - c3) / abs(delta0), delta_at_zero=delta0)


# of the row's amplitude_envelope; rows read at most 1.3e-12 at t <= 3200,
# growing like t eps (about 5e-12 at t = 12,800)
ODD_PAIR_TOL = 1e-9


def check_realness(result: AsymptoticResult) -> None:
    """The odd-pair guard: ConventionError when the odd-pair residual
    exceeds ODD_PAIR_TOL times the row's amplitude_envelope; a NaN in
    either fails too.  For real data c_3 = c_1 up to rounding, so the
    guard catches a sign, branch or anchor slip in what differs between
    the two crosses (a slip that scales delta_3^0 by e^(-2 pi nu) scales
    c_3 by e^(-4 pi nu)), not anything about the data."""
    bound = ODD_PAIR_TOL * amplitude_envelope(result)
    if not result.odd_pair_residual <= bound:
        raise ConventionError(
            f"odd-pair residual {result.odd_pair_residual:.3e} exceeds "
            f"{bound:.3e}; sign/branch inconsistency upstream")


def amplitude_envelope(result: AsymptoticResult) -> float:
    """2 (|c_1| + |c_3|) / |delta(0)|, all four contribution moduli over
    |delta(0)|: the O(t^-1/2) envelope."""
    c1, c3 = result.contributions
    return 2.0 * (abs(c1) + abs(c3)) / abs(result.delta_at_zero)
