"""One coefficient at a time, by its definition in the weights module
docstring, and every coefficient at all four S_j with each of the four
arcs summed on its own: the oracles that `weights.coefficient_set`, which
sums arc 1 and reads delta(0), chi and the one hat_delta from its five
sums by the symmetry of |r|, is checked against.  With them the four-cross sum
that rows no longer form: `four_cross_sum` assembles the leading term
from all four crosses, both branches of `model.m1_entry`, and measures
its imaginary residual, and `four_cross_value` is that sum in the gauge
of `harness.asymptotic_value`.  delta(z) and delta_j(z) are read one arc
and one point per call, by cauchy_arc_integral, which refuses a point
that is not finite or lies on its arc.  Also `assembled`, which calls
`weights._assembled` on inputs changed so that one term of delta_j^0 is
replaced, for the ablations that show each term matters; no copy of the
assembly is kept here.  And arc_sums_by_doubling, composite 16-point
Gauss-Legendre refined until two panel levels agree, on the r-form
density log_density: the one quadrature, sharing neither density nor
rule with the closed-form sums of the rows.
"""

import cmath
import dataclasses
import functools
import math
from typing import NamedTuple

import numpy as np

from dmkdv import (
    DmkdvError,
    DomainError,
    RayParams,
    density_spectrum,
    reflection_evaluator,
    scattering_polynomials,
    stationary_points,
)
from dmkdv import weights
from dmkdv.model import _check_j, m1_entry
from dmkdv.scattering import check_abs2
from dmkdv.weights import _T_ANCHORS, _assembled

# the terms of delta_j^0 that `assembled` can replace, and by what:
# beta_j t^(1/2) for beta_j inside the nu-power (no log t in the phase),
# 1 for the whole nu-power, 0 for chi_j(S_j), 1 for hat_delta_j(S_j)
ABLATIONS = ("beta", "nu_power", "chi", "hat_delta")

# the quadrature's own constants: its tolerance, a panel budget of 4,096
# panels per arc, and a level's rounding of about 16 eps sum|terms|
DEFAULT_TOL = 1e-11
_MAX_LEVEL = 12
_FLOOR_ULPS = 32.0
_EPS = float(np.finfo(float).eps)
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


class QuadratureError(DmkdvError):
    """arc_sums_by_doubling failed to meet its tolerance."""


class Arc(NamedTuple):
    """The short arc from `start` to `end` on |z| = 1."""

    start: complex
    end: complex

    @property
    def theta_start(self) -> float:
        return cmath.phase(self.start)

    @property
    def dtheta(self) -> float:
        return cmath.phase(self.end / self.start)  # wrapped to (-pi, pi]


def delta_j_arc(stationary, j: int) -> Arc:
    """Per-point arc T_j -> S_j (short arc)."""
    _check_j(j)
    return Arc(_T_ANCHORS[j - 1], stationary.S[j - 1])


def r_of(state):
    """r(z) of a state, from one build of its polynomials."""
    return reflection_evaluator(scattering_polynomials(state))


def reflection(state) -> tuple:
    """(r_eval, spectrum) of a state, from one build of its polynomials,
    as harness.reflection_u gives them for a profile."""
    poly = scattering_polynomials(state)
    return reflection_evaluator(poly), density_spectrum(poly)


def log_density(r_eval, z):
    """log(1 - |r(z)|^2) <= 0 past the |r| < 1 guard: the r-form density."""
    return np.log1p(-check_abs2(np.abs(r_eval(z)) ** 2))


def _gauss_level_nodes(arc: Arc, panels: int) -> tuple:
    """(half, tau) of one panel level of `arc`: half the angle of each of
    its `panels` equal panels, and the 16 Gauss nodes of every panel on
    the circle, panel by panel."""
    half = 0.5 * arc.dtheta / panels
    mids = arc.theta_start + half * (2.0 * np.arange(panels) + 1.0)
    return half, np.exp(1j * (mids[:, None] + half * _GL_NODES).ravel())


def arc_sums_by_doubling(density, arc: Arc, points, shifts,
                         tol: float = DEFAULT_TOL) -> np.ndarray:
    """The sums (1/2pi i) int_arc (density(tau) - shift) dtau / (tau - z)
    at every point z of `points`, with `shifts` broadcast against them,
    by composite 16-point Gauss-Legendre on 2^m equal panels, returning a
    level's sums once no sum moved by more than `tol` from the level
    before: the density is sampled at 16, 32, 64, ... nodes, and a
    smooth arc settles at its second level.  QuadratureError past the
    panel budget, or once the residual has stopped falling while `tol`
    lies below the rounding floor of a level's sums."""
    z, c = (a[..., None, None] for a in np.broadcast_arrays(
        np.asarray(points, dtype=complex), shifts))
    previous, residual = None, math.inf
    for level in range(_MAX_LEVEL + 1):
        panels = 2 ** level
        half, tau = _gauss_level_nodes(arc, panels)
        values = density(tau).reshape(panels, _GL_NODES.size)
        tau = tau.reshape(values.shape)
        terms = (values - c) * tau / (tau - z)
        terms *= _GL_WEIGHTS * (half / (2.0 * math.pi))
        sums = terms.sum(axis=(-2, -1))
        if previous is not None:
            last, residual = residual, abs(sums - previous).max()
            if residual <= tol:
                return sums
            if residual >= last:
                floor = _FLOOR_ULPS * _EPS * abs(terms).sum(
                    axis=(-2, -1)).max()
                if tol < floor:
                    raise QuadratureError(
                        f"arc quadrature stalled at {panels} panels: "
                        f"residual {residual:.3e} stopped falling and "
                        f"tol {tol:.3e} is below the rounding floor "
                        f"{floor:.3e}")
        previous = sums
    raise QuadratureError(
        f"arc quadrature unsettled at {panels} panels "
        f"(residual {residual:.3e} > {tol:.3e})")


@dataclasses.dataclass(frozen=True)
class FourCrossSet:
    """Every per-point coefficient at all four S_j (index j - 1), and
    delta(0): what the four crosses read."""

    r_at_S: tuple
    nu: tuple
    chi_at_S: tuple
    hat_delta_at_S: tuple
    delta_j0: tuple
    delta_at_zero: complex


def four_cross_set(r_eval, stationary, arc_sums) -> FourCrossSet:
    """The coefficients at all four S_j from the four arcs' sums at the
    points (0, S_1, .., S_4), arc j's sum at S_j taken with the density
    at S_j subtracted (chi_j), and from r(S_j), one scalar call per point:
    delta_j^0 for every j by the formula of the weights module
    docstring, each with its own nu_j and chi_j."""
    r_at_S = tuple(complex(r_eval(s)) for s in stationary.S)
    exponents = np.zeros(5, dtype=complex)  # log delta(0), log hat_delta_j
    chis = []
    for j, sums in enumerate(np.array(arc_sums), 1):
        chis.append(complex(sums[j]))
        sums[j] = 0.0
        exponents += (-1) ** (j - 1) * sums
    nu = tuple(float(-log_density(r_eval, s) / (2.0 * math.pi))
               for s in stationary.S)
    hat_delta_at_S = tuple(map(cmath.exp, exponents[1:]))
    ray = stationary.ray
    delta_j0 = []
    for k in range(4):
        Sj, sgn = stationary.S[k], (-1) ** k
        kappa_j = (Sj * Sj).imag
        osc = cmath.exp(1j * (ray.n * cmath.phase(Sj) - ray.t * kappa_j))
        power = cmath.exp(sgn * 1j * nu[k] * cmath.log(
            stationary.beta[k] / (Sj - _T_ANCHORS[k])))
        delta_j0.append(osc * power * cmath.exp(sgn * chis[k])
                        * hat_delta_at_S[k])
    return FourCrossSet(
        r_at_S=r_at_S, nu=nu, chi_at_S=tuple(chis),
        hat_delta_at_S=hat_delta_at_S, delta_j0=tuple(delta_j0),
        delta_at_zero=cmath.exp(exponents[0]))


def coefficient_set_by_arc(r_eval, spectrum, stationary) -> FourCrossSet:
    """four_cross_set with one closed-form call per arc, each subtracting
    F(S_j) at its own endpoint: no arc is read as the image of another."""
    points = np.array((0.0,) + stationary.S)
    sums = [weights._cauchy_sums(spectrum, *delta_j_arc(stationary, j),
                                 points) for j in (1, 2, 3, 4)]
    return four_cross_set(r_eval, stationary, sums)


class FourCrossSum(NamedTuple):
    value: float          # Re of the sum over delta(0)
    contributions: tuple  # c_j = beta_j S_j^-2 (delta_j^0)^2 (m1^j)_12
    imag_residual: float  # |Im| of the sum over delta(0)
    envelope: float       # sum_j |c_j| / |delta(0)|


def four_cross_sum(stationary, coeffs: FourCrossSet) -> FourCrossSum:
    """Re[delta(0)^-1 sum_j c_j] over all four crosses, c_j =
    beta_j S_j^-2 (delta_j^0)^2 (m1^j)_12 with (m1^j)_12 =
    m1_entry(nu_j, r(S_j), j), summed in the order j = 1..4."""
    total = 0.0 + 0.0j
    contributions = []
    for k in range(4):
        term = (stationary.beta[k] / (stationary.S[k] * stationary.S[k])
                * coeffs.delta_j0[k] ** 2
                * m1_entry(coeffs.nu[k], coeffs.r_at_S[k], k + 1))
        contributions.append(term)
        total += term
    total /= coeffs.delta_at_zero
    return FourCrossSum(
        value=total.real, contributions=tuple(contributions),
        imag_residual=abs(total.imag),
        envelope=sum(map(abs, contributions)) / abs(coeffs.delta_at_zero))


def four_cross_value(r_eval, spectrum, n: int, t: float) -> FourCrossSum:
    """four_cross_sum of coefficient_set_by_arc in the gauge of
    harness.asymptotic_value: on the ray n + 1, its value times (-1)^n.
    It is the sum rows formed before they kept the odd crosses alone."""
    stat = stationary_points(RayParams(n=n + 1, t=t))
    res = four_cross_sum(stat, coefficient_set_by_arc(r_eval, spectrum,
                                                      stat))
    return res._replace(value=(-1) ** n * res.value)


def cauchy_arc_integral(density, arc: Arc, z: complex,
                        tol: float = DEFAULT_TOL) -> complex:
    """(1/2pi i) int_arc density(tau) dtau / (tau - z).

    `density` maps an array of points tau on the circle to an array of
    values; z must be finite and off the closed arc: not within 1e-13 of
    the circle with z = start or 0 <= phase(z / start) / dtheta <= 1.
    """
    zc = complex(z)
    if not cmath.isfinite(zc):
        raise DomainError(f"evaluation point {zc!r} is not finite")
    rel = cmath.phase(zc / arc.start) / arc.dtheta
    if abs(abs(zc) - 1.0) < 1e-13 and (zc == arc.start or 0 <= rel <= 1):
        raise DomainError("evaluation point lies on the integration arc")
    return complex(arc_sums_by_doubling(density, arc, zc, 0.0, tol))


def delta_arcs(stationary) -> tuple:
    """The two arcs of the scalar problem: S1->S2 through 1, S3->S4
    through -1."""
    S = stationary.S
    return (Arc(S[0], S[1]), Arc(S[2], S[3]))


def delta_at(r_eval, stationary, z: complex,
             tol: float = DEFAULT_TOL) -> complex:
    """Scalar-problem solution delta(z); tends to 1 as z -> infinity."""
    density = functools.partial(log_density, r_eval)
    total = 0.0 + 0.0j
    for arc in delta_arcs(stationary):
        total += cauchy_arc_integral(density, arc, z, tol)
    return cmath.exp(-total)


def delta_j_at(r_eval, stationary, j: int, z: complex,
               tol: float = DEFAULT_TOL) -> complex:
    """Single-arc factor delta_j(z); delta = prod_j delta_j."""
    val = cauchy_arc_integral(functools.partial(log_density, r_eval),
                              delta_j_arc(stationary, j), z, tol)
    return cmath.exp((-1) ** (j - 1) * val)


def nu_at(r_eval, stationary, j: int) -> float:
    """Local exponent nu_j = -(1/2pi) log(1 - |r(S_j)|^2) >= 0."""
    _check_j(j)
    return float(-log_density(r_eval, stationary.S[j - 1]) / (2.0 * math.pi))


def chi_at_stationary(r_eval, stationary, j: int,
                      tol: float = DEFAULT_TOL) -> complex:
    """chi_j evaluated at z = S_j, the endpoint of its own arc.

    The integrand (g(tau) - g(S_j)) / (tau - S_j) is analytic there, and
    the Gauss nodes never touch the endpoint.
    """
    Sj = stationary.S[j - 1]
    return complex(arc_sums_by_doubling(
        functools.partial(log_density, r_eval), delta_j_arc(stationary, j),
        Sj, log_density(r_eval, Sj), tol))


def hat_delta_at_stationary(r_eval, stationary, j: int,
                            tol: float = DEFAULT_TOL) -> complex:
    """hat_delta_j(S_j) = prod_{k != j} delta_k(S_j).

    Regular because S_j never lies on the arc of any k != j.
    """
    _check_j(j)
    Sj = stationary.S[j - 1]
    return math.prod(delta_j_at(r_eval, stationary, k, Sj, tol)
                     for k in (1, 2, 3, 4) if k != j)


def assembled(stationary, r_at_S1, g_at_S1, s, replaced):
    """weights._assembled on inputs changed so that the term of delta_j^0
    named by `replaced`, one of ABLATIONS, is replaced; the other
    coefficients stay those of the full formula.  s holds arc 1's sums
    at (0, S_1, .., S_4): chi is s_1, hat_delta reads s_2, s_3, s_4."""
    s = np.array(s)
    if replaced == "beta":
        root_t = math.sqrt(stationary.ray.t)
        stationary = dataclasses.replace(
            stationary, beta=tuple(beta * root_t for beta in stationary.beta))
    elif replaced == "chi":
        s[1] = 0.0
    elif replaced == "hat_delta":
        s[2:] = 0.0
    elif replaced == "nu_power":  # nu = 0 in delta_j^0, not in the crosses
        nu = _assembled(stationary, r_at_S1, g_at_S1, s).nu
        return dataclasses.replace(
            _assembled(stationary, r_at_S1, 0.0, s), nu=nu)
    return _assembled(stationary, r_at_S1, g_at_S1, s)
