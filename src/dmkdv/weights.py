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

Every integral is one rule: composite 16-point Gauss-Legendre in the
angle on 2^m equal panels, m growing until no sum moves by more than the
tolerance.  The nodes of a level are placed for every arc still open in
one array expression, the density is sampled once on them, and one
sample serves all Cauchy sums of each arc.  No arc can settle before
level 1, so coefficient_set samples levels 0 and 1 in one call.
chi_j(S_j) subtracts g(S_j) from the density, leaving an analytic
integrand; no Gauss node sits on the endpoint S_j.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, QuadratureError, ReflectionTooLargeError
from .phase import StationarySet

__all__ = [
    "ArcSpec",
    "CoefficientSet",
    "log_density",
    "cauchy_arc_integral",
    "delta_at",
    "delta_j_at",
    "coefficient_set",
]

DEFAULT_TOL = 1e-11
_T_ANCHORS = (1.0 + 0.0j, 1.0 + 0.0j, -1.0 + 0.0j, -1.0 + 0.0j)
_MAX_LEVEL = 12  # panel budget: 4,096 panels per arc
_EPS = float(np.finfo(float).eps)
# Two levels' sums each round at about 16 eps sum|terms|: a handful of
# roundings per term, plus pairwise summation over up to 65,536 terms.
_FLOOR_ULPS = 32.0


def _gauss_legendre(m: int) -> tuple:
    """m-point Gauss-Legendre rule on [-1, 1] by Newton's method on the
    Legendre recurrence; loads neither numpy.polynomial nor LAPACK."""
    x = np.cos(np.pi * (np.arange(m) + 0.75) / (m + 0.5))
    for _ in range(6):
        p, p_prev = x, np.ones(m)
        for k in range(2, m + 1):
            p, p_prev = ((2 * k - 1) * x * p - (k - 1) * p_prev) / k, p
        dp = m * (x * p - p_prev) / (x * x - 1.0)
        x = x - p / dp
    return x, 2.0 / ((1.0 - x) * (1.0 + x) * dp * dp)


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(16)


@dataclass(frozen=True)
class ArcSpec:
    """Short arc (central angle < pi) from `start` to `end` on |z| = 1."""

    start: complex
    end: complex
    theta_start: float
    dtheta: float

    @classmethod
    def between(cls, start: complex, end: complex) -> "ArcSpec":
        for p in (start, end):
            if abs(abs(p) - 1.0) > 1e-12:
                raise ValueError("arc endpoints must lie on the unit circle")
        theta_start = cmath.phase(start)
        dtheta = cmath.phase(end / start)  # wrapped to (-pi, pi]
        if not 0.0 < abs(dtheta) < math.pi:
            raise ValueError("central angle must lie strictly in (0, pi)")
        return cls(start=start, end=end, theta_start=theta_start, dtheta=dtheta)

    def contains_angle(self, theta: float) -> bool:
        rel = (theta - self.theta_start) / self.dtheta
        # tolerate wrap-around of the absolute angle
        rel_wrapped = ((theta - self.theta_start + math.pi) % (2 * math.pi)
                       - math.pi) / self.dtheta
        return (0.0 <= rel <= 1.0) or (0.0 <= rel_wrapped <= 1.0)


def log_density(r_eval, z):
    """log(1 - |r(z)|^2) <= 0 at scalar or array z, shaped like z (a
    constant r is broadcast); the density of every arc integral."""
    density = _density_of(r_eval(z))
    if density.shape != np.shape(z):
        density = np.broadcast_to(density, np.shape(z))
    return density


def _density_of(r_values):
    """log(1 - |r|^2) of values of r; ReflectionTooLargeError when some
    |r| reaches 1 - 1e-8."""
    m2 = np.abs(r_values) ** 2
    peak = m2.max()
    if peak >= (1.0 - 1e-8) ** 2:
        raise ReflectionTooLargeError(
            f"max |r| = {math.sqrt(peak):.9f} at the sampled points")
    return np.log1p(-m2)


def _level_nodes(arcs, panels: int) -> tuple:
    """(half, tau) of one panel level for every arc at once: half the
    angle of each arc's `panels` equal panels, shaped (arcs,), and the 16
    Gauss nodes of every panel on the circle, shaped (arcs, panels * 16).
    Each element takes the arithmetic of one arc on its own, so the nodes
    are bitwise those of the arc alone."""
    half = 0.5 * np.array([arc.dtheta for arc in arcs]) / panels
    mids = (np.array([arc.theta_start for arc in arcs])[:, None]
            + half[:, None] * (2.0 * np.arange(panels) + 1.0))
    angles = mids[:, :, None] + half[:, None, None] * _GL_NODES
    return half, np.exp(1j * angles.reshape(len(arcs), -1))


def _arc_sums(density, sweeps, tol: float = DEFAULT_TOL,
              sampled=()) -> list:
    """For every sweep (arc, points, shifts), the sums
    (1/2pi i) int_arc (density(tau) - shift_k) dtau / (tau - z_k) at its
    points z_k, with dtau/(2pi i) = tau dtheta/(2pi) at tau = e^(i theta).

    Each level of 2^m panels takes its nodes for every arc still open
    from one _level_nodes call and samples the density once on all of
    them, stacked in sweep order.  `sampled` holds the (half, tau, values)
    of the first levels, already computed for every arc: no arc can
    settle before level 1, so every arc is open at levels 0 and 1.  An
    arc settles at the first level where none of its sums moves by more
    than `tol`; its sums are exactly those of the arc swept on its own.

    QuadratureError past the panel budget, or earlier, at the first level
    where an arc's residual has stopped falling while `tol` lies below
    the rounding floor _FLOOR_ULPS * eps * max_k sum |weighted terms_k|:
    no finer level can then be trusted to meet `tol`."""
    points = [np.reshape(np.asarray(z, dtype=complex), (-1, 1))
              for _, z, _ in sweeps]
    shifts = [np.reshape(c, (-1, 1)) for _, _, c in sweeps]
    settled = [None] * len(sweeps)
    previous = [None] * len(sweeps)
    residual = [math.inf] * len(sweeps)
    for level in range(_MAX_LEVEL + 1):
        panels = 2 ** level
        open_arcs = [k for k, sums in enumerate(settled) if sums is None]
        if level < len(sampled):
            halves, taus, sample = sampled[level]
        else:
            halves, taus = _level_nodes(
                [sweeps[k][0] for k in open_arcs], panels)
            sample = density(taus.ravel())
        sample = np.broadcast_to(sample, (taus.size,)).reshape(taus.shape)
        for k, half, tau, values in zip(open_arcs, halves.tolist(), taus,
                                        sample):
            z, c = points[k], shifts[k]
            terms = ((values - c) * tau / (tau - z)).reshape(
                len(z), panels, _GL_NODES.size)
            terms *= _GL_WEIGHTS * (half / (2.0 * math.pi))
            sums = terms.sum(axis=(1, 2))
            if previous[k] is not None:
                last = residual[k]
                residual[k] = float(abs(sums - previous[k]).max())
                if residual[k] <= tol:
                    settled[k] = sums
                    continue
                if residual[k] >= last:
                    floor = _FLOOR_ULPS * _EPS * float(
                        abs(terms).sum(axis=(1, 2)).max())
                    if tol < floor:
                        raise QuadratureError(
                            f"arc quadrature stalled at {panels} panels: "
                            f"residual {residual[k]:.3e} stopped falling "
                            f"and tol {tol:.3e} is below the rounding "
                            f"floor {floor:.3e}")
            previous[k] = sums
        if all(sums is not None for sums in settled):
            return settled
    first_open = next(k for k, sums in enumerate(settled) if sums is None)
    raise QuadratureError(
        f"arc quadrature unsettled at {panels} panels "
        f"(residual {residual[first_open]:.3e} > {tol:.3e})")


def cauchy_arc_integral(density, arc: ArcSpec, z: complex,
                        tol: float = DEFAULT_TOL) -> complex:
    """(1/2pi i) int_arc density(tau) dtau / (tau - z).

    `density` maps an array of points tau on the circle to an array of
    values (or to one constant); z must be off the closed arc.
    """
    zc = complex(z)
    if abs(abs(zc) - 1.0) < 1e-13 and arc.contains_angle(cmath.phase(zc)):
        raise DomainError("evaluation point lies on the integration arc")
    return complex(_arc_sums(density, [(arc, zc, 0.0)], tol)[0][0])


def delta_arcs(stationary: StationarySet) -> tuple:
    """The two arcs of the scalar problem: S1->S2 through 1, S3->S4 through -1."""
    S = stationary.S
    return (ArcSpec.between(S[0], S[1]), ArcSpec.between(S[2], S[3]))


def delta_j_arc(stationary: StationarySet, j: int) -> ArcSpec:
    """Per-point arc T_j -> S_j (short arc)."""
    _check_j(j)
    return ArcSpec.between(_T_ANCHORS[j - 1], stationary.S[j - 1])


def delta_at(r_eval, stationary: StationarySet, z: complex,
             tol: float = DEFAULT_TOL) -> complex:
    """Scalar-problem solution delta(z); tends to 1 as z -> infinity."""
    density = functools.partial(log_density, r_eval)
    total = 0.0 + 0.0j
    for arc in delta_arcs(stationary):
        total += cauchy_arc_integral(density, arc, z, tol)
    return cmath.exp(-total)


def delta_j_at(r_eval, stationary: StationarySet, j: int, z: complex,
               tol: float = DEFAULT_TOL) -> complex:
    """Single-arc factor delta_j(z); delta = prod_j delta_j."""
    val = cauchy_arc_integral(functools.partial(log_density, r_eval),
                              delta_j_arc(stationary, j), z, tol)
    return cmath.exp((-1) ** (j - 1) * val)


@dataclass(frozen=True)
class CoefficientSet:
    """All per-point coefficients plus delta(0) for one ray; r_at_S holds
    r(S_j), from which nu_j is taken and which the cross entries read."""

    r_at_S: tuple
    nu: tuple
    chi_at_S: tuple
    hat_delta_at_S: tuple
    delta_j0: tuple
    delta_at_zero: complex


def coefficient_set(r_eval, stationary: StationarySet,
                    tol: float = DEFAULT_TOL) -> CoefficientSet:
    """Compute every coefficient the asymptotic formula needs.

    r is sampled once per panel level for all four arcs T_j -> S_j.  The
    first sample holds the four S_j and the nodes of levels 0 and 1 of
    every arc, 4 + 64 + 128 = 196 points, since no arc can settle before
    level 1; later levels sample only the arcs still open.  The values
    at the S_j give g(S_j) = log(1 - |r(S_j)|^2), hence nu_j, and are
    kept as r_at_S for the cross entries.  Each arc's sweep gives its
    integral at z = 0 and at every S_k, with g(S_j) subtracted at its own
    endpoint (chi_j), and settles on its own, bitwise as if swept alone.  delta(0) is
    prod_j delta_j(0): arc S1 -> S2 through 1 is arc T1 -> S1 reversed
    followed by arc T2 -> S2, and likewise through -1.  delta_j^0 is then
    assembled from nu_j, chi_j(S_j) and hat_delta_j(S_j) by the formula
    of the module docstring.

    Every arc is sampled at every level until it settles, so data that
    would trip two guards may report either one: ReflectionTooLargeError
    from any arc's sample, or QuadratureError from the first arc (in
    order j = 1..4) to stall.  Either fails the row.  A node of level 1
    where |r| reaches 1 - 1e-8 trips the guard in the first sample, whose
    reported max |r| is then the peak over all 196 points.
    """
    arcs = [delta_j_arc(stationary, j) for j in (1, 2, 3, 4)]
    levels = [_level_nodes(arcs, panels) for panels in (1, 2)]
    points = np.concatenate([np.array(stationary.S)]
                            + [taus.ravel() for _, taus in levels])
    r_values = np.broadcast_to(r_eval(points), points.shape)
    g = _density_of(r_values)
    sampled = [nodes + (values,) for nodes, values
               in zip(levels, np.split(g[4:], [levels[0][1].size]))]
    sums = _arc_sums(functools.partial(log_density, r_eval),
                     _sweeps(stationary, arcs, g[:4]), tol, sampled)
    return _assembled(stationary, r_values[:4], g[:4], sums)


def _sweeps(stationary: StationarySet, arcs, g_at_S) -> list:
    """The (arc, points, shifts) of coefficient_set: arc T_j -> S_j at
    z = 0 and every S_k, with g(S_j) subtracted at S_j."""
    return [(arc, (0.0,) + stationary.S,
             np.where(np.arange(5) == j, g_at_S[j - 1], 0.0))
            for j, arc in enumerate(arcs, 1)]


def _assembled(stationary: StationarySet, r_at_S, g_at_S,
               arc_sums) -> CoefficientSet:
    """The CoefficientSet from r(S_j), g(S_j) and the four sweeps' sums."""
    exponents = np.zeros(5, dtype=complex)  # log delta(0), log hat_delta_j
    chis = []
    for j, sums in enumerate(arc_sums, 1):
        chis.append(complex(sums[j]))
        sums[j] = 0.0
        exponents += (-1) ** (j - 1) * sums
    nu = tuple(float(-g / (2.0 * math.pi)) for g in g_at_S)
    hat_delta_at_S = tuple(map(cmath.exp, exponents[1:]))
    ray = stationary.ray
    delta_j0 = []
    for k in range(4):
        Sj, sgn = stationary.S[k], (-1) ** k
        kappa_j = (Sj * Sj).imag  # S_j^-2 = conj(S_j^2) on the circle
        osc = cmath.exp(1j * (ray.n * cmath.phase(Sj) - ray.t * kappa_j))
        power = cmath.exp(sgn * 1j * nu[k] * cmath.log(
            stationary.beta[k] / (Sj - _T_ANCHORS[k])))
        delta_j0.append(osc * power * cmath.exp(sgn * chis[k])
                        * hat_delta_at_S[k])
    return CoefficientSet(
        r_at_S=tuple(r_at_S.tolist()), nu=nu, chi_at_S=tuple(chis),
        hat_delta_at_S=hat_delta_at_S, delta_j0=tuple(delta_j0),
        delta_at_zero=cmath.exp(exponents[0]))


def _check_j(j: int) -> None:
    if j not in (1, 2, 3, 4):
        raise ValueError("j must be one of 1, 2, 3, 4")
