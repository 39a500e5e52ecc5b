"""Arc-integral coefficients of the asymptotic formula.

All integrals run over arcs of the unit circle between the stationary
points and the anchors T_1 = T_2 = 1, T_3 = T_4 = -1.  Conventions,
pinned by the product identity delta = prod_j delta_j and by the
positivity |delta(0)| >= 1:

  * the two arcs of delta run S1 -> S2 through z = 1 and S3 -> S4
    through z = -1 (both counterclockwise),
  * the per-point arcs run T_j -> S_j along the short arc,

      delta(z)   = exp(-(1/2pi i) (int_{S1}^{S2} + int_{S3}^{S4})
                       log(1-|r|^2) dtau/(tau-z)),
      delta_j(z) = exp((-1)^(j-1) (1/2pi i) int_{T_j}^{S_j}
                       log(1-|r|^2) dtau/(tau-z)),
      nu_j       = -(1/2pi) log(1-|r(S_j)|^2),
      chi_j(z)   = (1/2pi i) int_{T_j}^{S_j}
                       log[(1-|r|^2)/(1-|r(S_j)|^2)] dtau/(tau-z),

and the per-cross constant assembled from them:

      delta_j^0 = S_j^n (beta_j/(S_j-T_j))^((-1)^(j-1) i nu_j)
                  exp[(-1)^(j-1) chi_j(S_j) - (t/2)(S_j^2 - S_j^-2)]
                  hat_delta_j(S_j),

with hat_delta_j = delta/delta_j and complex powers on the principal
branch (cut on the negative real axis).

Every integral is taken in closed form from one Fourier series per
profile (density_spectrum): on |tau| = 1, |a|^2 - |b|^2 = c_inf, so

      log(1-|r|^2) = log c_inf - log|a|^2 = F(tau) = sum_{|m|<=M} d_m tau^m,

d_-m = d_m real for real data, falling geometrically as a has no zero
on the circle.  Over an arc A -> B of angle theta (_cauchy_sums),

      int tau^m dtau/tau = (B^m - A^m)/m  (i theta at m = 0),
      int (tau^m - z^m)/(tau - z) dtau = z^m sum_{k<=m} (B^k - A^k)/(k z^k),
      int (tau^-p - z^-p)/(tau - z) dtau = -z^(-p-1) sum_{k<=p} z^k E_k,

with E_1 = i theta, E_k = (B^(1-k) - A^(1-k))/(1 - k); at z != 0 the
integral of F is these analytic parts plus F(z) log((B - z)/(A - z)).
chi_j(S_j) subtracts the series' own F(S_j), leaving the analytic part;
nu_j is read from r(S_j) itself.

For real lattice data the four arcs T_j -> S_j are images of one:
|r| is even under z -> conj(z) and under z -> -z, and S_2 = conj(S_1),
S_3 = -S_1, S_4 = -conj(S_1).  So with s the sums of arc T_1 -> S_1 at
(0, S_1, S_2, S_3, S_4), F(S_1) subtracted at S_1 only, every arc
integral a row needs is one of three closed forms:

      log delta(0)                         = 4 Re s_0,
      chi_1(S_1) = chi_3(S_3)              = s_1,
      log hat_delta_1(S_1) = log hat_delta_3(S_3)
                                           = conj s_2 + s_3 + conj s_4.

coefficient_set sums arc 1 alone and keeps only what the odd crosses
j = 1, 3 read (see dmkdv.model).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConditioningError
from .phase import StationarySet
from .scattering import ScatteringPolynomials, check_abs2, circle_modulus

__all__ = [
    "CoefficientSet",
    "DensitySpectrum",
    "coefficient_set",
    "density_spectrum",
]

_T_ANCHORS = (1.0 + 0.0j, 1.0 + 0.0j, -1.0 + 0.0j, -1.0 + 0.0j)
_EPS = float(np.finfo(float).eps)
_SPECTRUM_CUT = 1e-13  # tail of the density's spectrum, of its largest term
_MAX_GRID = 1 << 19  # largest number of circle points the spectrum takes
CONDITIONING_BOUND = 1e-8  # rounding of a(z) relative to |a(z)|


@dataclass(frozen=True, eq=False)
class DensitySpectrum:
    """The density as F(tau) = d_0 + sum_{m=1..M} d_m (tau^m + tau^-m):
    coeffs holds d_0 .. d_M, grid the number P of circle points it was
    sampled on, and conditioning the worst rounding ratio of a there."""

    coeffs: np.ndarray
    grid: int
    conditioning: float


def density_spectrum(poly: ScatteringPolynomials) -> DensitySpectrum:
    """The Fourier series of log c_inf - log|a|^2, once per profile.

    a at the P-th roots of unity is one inverse FFT of its coefficients,
    each at its exponent mod P, and d = FFT(density) / P.  P starts at the
    smallest power of two above the span of a's exponents and doubles
    until every |d_m|, P/4 <= |m| <= P/2, is at most 1e-13 of the
    largest; M is the last index above that cut.  ConditioningError when
    (2N + 32) eps sum|a_i| / |a|, the rounding bound of a's evaluation by
    cumulative powers (dmkdv.scattering), exceeds 1e-8 at some point, or
    P would pass 2^19; ReflectionTooLargeError by scattering.check_abs2
    on 1 - c_inf/|a|^2.
    """
    coeffs = np.array(poly.a_coeffs)
    exponents = poly.a_low + 2 * np.arange(coeffs.size)
    rounding = (2 * coeffs.size + 32) * _EPS * np.abs(coeffs).sum()
    grid = 1 << int(exponents[-1] - exponents[0]).bit_length()
    while True:
        if grid > _MAX_GRID:
            raise ConditioningError(
                f"the density's spectrum has not decayed on {_MAX_GRID} "
                f"circle points")
        placed = np.zeros(grid, dtype=complex)
        placed[exponents % grid] = coeffs
        modulus = np.abs(np.fft.ifft(placed, norm="forward"))
        conditioning = rounding / modulus.min()
        if not conditioning <= CONDITIONING_BOUND:  # NaN fails too
            raise ConditioningError(
                f"a(z) rounds to {conditioning:.3e} of its modulus on the "
                f"circle, above {CONDITIONING_BOUND:g}")
        ratio = poly.c_inf / (modulus * modulus)  # 1 - |r|^2
        check_abs2(1.0 - ratio)
        d = np.fft.rfft(np.log(ratio), norm="forward").real
        cut = _SPECTRUM_CUT * np.abs(d).max()
        if np.abs(d[-(-grid // 4):]).max(initial=0.0) <= cut:
            break
        grid *= 2
    kept = np.flatnonzero(np.abs(d) > cut)
    return DensitySpectrum(coeffs=d[:kept[-1] + 1 if kept.size else 1],
                           grid=grid, conditioning=float(conditioning))


def _cauchy_sums(spectrum: DensitySpectrum, start: complex, end: complex,
                 points) -> np.ndarray:
    """(1/2pi i) int (F(tau) - c) dtau / (tau - z) along the short arc
    from `start` to `end` on |z| = 1, at every z of the 1-d `points`, by
    the closed forms of the module docstring, with powers by cumulative
    products; c = F(end) at z = end (chi's sum), else 0.  The log is
    principal on and outside the circle; inside it the arc can sweep more
    than pi, always turning with theta, so the branch follows theta."""
    circle_modulus(start)
    circle_modulus(end)
    d0, d = spectrum.coeffs[0], spectrum.coeffs[1:]
    theta = cmath.phase(end / start)
    z = np.asarray(points, dtype=complex)
    sums = np.empty(z.shape, dtype=complex)
    origin = z == 0.0
    z = z[~origin]
    # rows B^k, A^k, then z^k and z^-k of each point, k = 1..M
    powers = np.cumprod(np.concatenate(([end, start], z, 1.0 / z))[
        :, None].repeat(d.size, axis=1), axis=1)
    up, down = powers[2:2 + z.size], powers[2 + z.size:]
    k = np.arange(1.0, d.size + 1.0)
    rise = (powers[0] - powers[1]) / k  # (B^k - A^k)/k
    fall = rise.conj()  # (B^-k - A^-k)/k on the circle
    sums[origin] = 1j * theta * d0 + d @ (rise - fall)
    steps = np.empty(d.size, dtype=complex)  # E_k
    steps[:1] = 1j * theta
    steps[1:] = -fall[:-1]
    analytic = (up * np.cumsum(rise * down, axis=1)
                - down / z[:, None] * np.cumsum(up * steps, axis=1)) @ d
    with np.errstate(divide="ignore"):
        log = np.log((end - z) / (start - z))
    log[z == end] = 0.0  # F(end) is subtracted there
    log[(abs(z) < 1.0) & (log.imag * theta < 0.0)] += (
        2j * math.pi * math.copysign(1.0, theta))
    sums[~origin] = analytic + (d0 + (up + down) @ d) * log
    return sums / (2j * math.pi)


@dataclass(frozen=True)
class CoefficientSet:
    """What the odd crosses read on one ray: r(S_1), nu (every nu_j),
    chi_1(S_1) and hat_delta_1(S_1) (also chi_3(S_3) and
    hat_delta_3(S_3)), delta_j^0 for j = 1, 3, and delta(0) > 0."""

    r_at_S1: complex
    nu: float
    chi_at_S1: complex
    hat_delta: complex
    delta_j0: tuple
    delta_at_zero: float


def coefficient_set(r_eval, spectrum: DensitySpectrum,
                    stationary: StationarySet) -> CoefficientSet:
    """Compute every coefficient the odd crosses need.

    r_eval and spectrum must be the r and the density_spectrum of the
    same real lattice data: the three closed forms of the module
    docstring, and r(S_3) = -r(S_1), hold only when |r| is even under
    z -> conj(z) and z -> -z.  r is sampled once, at S_1: r(S_1) gives
    g(S_1) = log(1 - |r(S_1)|^2), hence nu, and is kept as r_at_S1 for
    the cross entries.  Arc T_1 -> S_1 is summed in closed form at
    s = (0, S_1, S_2, S_3, S_4), with F(S_1) subtracted at S_1 only, and

        delta(0) = exp(4 Re s_0),  chi = s_1,
        hat_delta = exp(conj s_2 + s_3 + conj s_4).

    delta_1^0 and delta_3^0 are then assembled from nu, chi and
    hat_delta by the formula of the module docstring; they differ only
    in S_j^n exp(-(t/2)(S_j^2 - S_j^-2)), since beta_j/(S_j - T_j) is the
    same number at j = 1 and j = 3.

    ReflectionTooLargeError when |r(S_1)| reaches 1 - 1e-8, or is NaN;
    it fails the row.
    """
    r_at_S1 = r_eval(stationary.S[0])
    g = np.log1p(-check_abs2(np.abs(r_at_S1) ** 2))
    s = _cauchy_sums(spectrum, _T_ANCHORS[0], stationary.S[0],
                     np.concatenate(([0.0], stationary.S)))
    return _assembled(stationary, r_at_S1, g, s)


def _assembled(stationary: StationarySet, r_at_S1, g_at_S1,
               s) -> CoefficientSet:
    """The CoefficientSet from r(S_1), g(S_1) and arc 1's five sums s at
    (0, S_1, S_2, S_3, S_4), by the closed forms of coefficient_set."""
    chi = complex(s[1])
    hat_delta = cmath.exp(s[2].conjugate() + s[3] + s[4].conjugate())
    nu = float(-g_at_S1 / (2.0 * math.pi))
    S, ray = stationary.S, stationary.ray
    power = cmath.exp(1j * nu * cmath.log(
        stationary.beta[0] / (S[0] - _T_ANCHORS[0])))
    delta_j0 = tuple(  # S_j^-2 = conj(S_j^2) on the circle
        cmath.exp(1j * (ray.n * cmath.phase(Sj) - ray.t * (Sj * Sj).imag))
        * power * cmath.exp(chi) * hat_delta for Sj in (S[0], S[2]))
    return CoefficientSet(
        r_at_S1=complex(r_at_S1), nu=nu, chi_at_S1=chi, hat_delta=hat_delta,
        delta_j0=delta_j0, delta_at_zero=math.exp(4.0 * s[0].real))
