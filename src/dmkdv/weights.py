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

Every integral is one rule: the composite 16/33-point Gauss-Kronrod
pair in the angle on 2^m equal panels, m = 0, 1, 2, ...  One call sweeps
one arc at all its points: each level places the 33 Kronrod nodes of
every panel, which contain the 16 Gauss nodes, samples the density once
on them and forms every Cauchy sum twice in one pass, by the Kronrod
weights (K) and by the Gauss weights (G).  The call returns the K sums
at the first level where no point's |K - G| exceeds the tolerance, so a
smooth arc settles at its first level, on one panel.  |K - G| is read
from one sample set, so it cannot see the density's own evaluation
noise, which a per-sample conditioning guard on the density would have
to bound: data whose density is noisier than the tolerance can settle.
chi_j(S_j) subtracts g(S_j) from the density, leaving an analytic
integrand; no node sits on the endpoint S_j.

For real lattice data the four arcs T_j -> S_j are images of one:
|r| is even under z -> conj(z) and under z -> -z, and S_2 = conj(S_1),
S_3 = -S_1, S_4 = -conj(S_1).  coefficient_set therefore sweeps arc 1
alone and reads the other three from its sums, and keeps only what the
odd crosses j = 1, 3 read (see dmkdv.model).
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import QuadratureError
from .phase import StationarySet
from .scattering import checked_abs2, circle_modulus

__all__ = [
    "ArcSpec",
    "CoefficientSet",
    "log_density",
    "coefficient_set",
]

DEFAULT_TOL = 1e-11
_T_ANCHORS = (1.0 + 0.0j, 1.0 + 0.0j, -1.0 + 0.0j, -1.0 + 0.0j)
_MAX_LEVEL = 12  # panel budget: 4,096 panels per arc
_EPS = float(np.finfo(float).eps)
# A level's K and G sums each round at about 16 eps sum|terms|: a handful
# of roundings per term, plus summation over up to 135,168 terms.
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


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(16)  # descending nodes

# The 33-point Kronrod extension of _GL_NODES (degree 49): the 17 zeros of
# the Stieltjes polynomial E_17, orthogonal to P_16 x^k for k < 16, which
# interlace the Gauss nodes, and the weights of all 33 nodes, descending.
# Derived at 60 digits (E_17 exactly in rationals, its zeros, then the
# weights from the Legendre moment system) and rounded to float64;
# tests/test_weights.py recomputes them with mpmath.
_KRONROD_NODES = np.array([
    0.9982392741454446, 0.9715059509693926, 0.9091576670123429,
    0.8142402870624444, 0.6897411066817623, 0.5404076763521397,
    0.37148378087841627, 0.18916857901808373, 0.0,
    -0.18916857901808373, -0.37148378087841627, -0.5404076763521397,
    -0.6897411066817623, -0.8142402870624444, -0.9091576670123429,
    -0.9715059509693926, -0.9982392741454446])
_GK_WEIGHTS = np.array([
    0.004742777049247318, 0.013257930688091158, 0.022498859440049444,
    0.031260543647380526, 0.039512951202421966, 0.047506215976407015,
    0.055205633095422174, 0.062358806011834855, 0.06886299519153125,
    0.07476982388559955, 0.08005394126371929, 0.08459580379259064,
    0.08833750257911273, 0.09129203282819166, 0.09343867406092123,
    0.09472840124723005, 0.0951542160804983, 0.09472840124723005,
    0.09343867406092123, 0.09129203282819166, 0.08833750257911273,
    0.08459580379259064, 0.08005394126371929, 0.07476982388559955,
    0.06886299519153125, 0.062358806011834855, 0.055205633095422174,
    0.047506215976407015, 0.039512951202421966, 0.031260543647380526,
    0.022498859440049444, 0.013257930688091158, 0.004742777049247318])
_GK_NODES = np.empty(33)
_GK_NODES[0::2], _GK_NODES[1::2] = _KRONROD_NODES, _GL_NODES


@dataclass(frozen=True)
class ArcSpec:
    """Short arc (central angle < pi) from `start` to `end` on |z| = 1."""

    start: complex
    end: complex
    theta_start: float
    dtheta: float

    @classmethod
    def between(cls, start: complex, end: complex) -> "ArcSpec":
        circle_modulus(start)
        circle_modulus(end)
        theta_start = cmath.phase(start)
        dtheta = cmath.phase(end / start)  # wrapped to (-pi, pi]
        if not 0.0 < abs(dtheta) < math.pi:
            raise ValueError("central angle must lie strictly in (0, pi)")
        return cls(start=start, end=end, theta_start=theta_start, dtheta=dtheta)


def log_density(r_eval, z):
    """log(1 - |r(z)|^2) <= 0 at scalar or array z, shaped like z, by
    _density: the density of every arc integral."""
    return _density(r_eval(z))


def _density(r_values):
    """log(1 - |r|^2) of values of r, past scattering.checked_abs2's
    |r| < 1 guard: the one formula of the density."""
    return np.log1p(-checked_abs2(r_values))


def _level_nodes(arc: ArcSpec, panels: int) -> tuple:
    """(half, tau) of one panel level of `arc`: half the angle of each of
    its `panels` equal panels, and the 33 Gauss-Kronrod nodes of every
    panel on the circle, panel by panel."""
    half = 0.5 * arc.dtheta / panels
    mids = arc.theta_start + half * (2.0 * np.arange(panels) + 1.0)
    return half, np.exp(1j * (mids[:, None] + half * _GK_NODES).ravel())


def _arc_sums(density, arc: ArcSpec, points, shifts,
              tol: float = DEFAULT_TOL) -> np.ndarray:
    """The sums (1/2pi i) int_arc (density(tau) - shift) dtau / (tau - z)
    at every point z of `points`, with `shifts` broadcast against them
    and the result shaped like both: dtau/(2pi i) = tau dtheta/(2pi) at
    tau = e^(i theta).  The density is sampled once per level, on the 33
    nodes of every panel, and the K sums are returned at the first level
    where the residual max_z |K - G| is at most `tol`.

    QuadratureError past the panel budget, or earlier, at the first level
    where the residual has stopped falling while `tol` lies below the
    rounding floor _FLOOR_ULPS * eps * max_z sum |K-weighted terms|: no
    finer level can then be trusted to meet `tol`."""
    z, c = (a[..., None, None] for a in np.broadcast_arrays(
        np.asarray(points, dtype=complex), shifts))
    residual = math.inf
    for level in range(_MAX_LEVEL + 1):
        panels = 2 ** level
        half, tau = _level_nodes(arc, panels)
        values = density(tau).reshape(panels, _GK_NODES.size)
        tau = tau.reshape(values.shape)
        terms = (values - c) * tau / (tau - z)
        scale = half / (2.0 * math.pi)
        kronrod = (terms @ _GK_WEIGHTS).sum(axis=-1) * scale
        gauss = (terms[..., 1::2] @ _GL_WEIGHTS).sum(axis=-1) * scale
        last, residual = residual, abs(kronrod - gauss).max()
        if residual <= tol:
            return kronrod
        if residual >= last:
            floor = _FLOOR_ULPS * _EPS * abs(scale) * (
                abs(terms) @ _GK_WEIGHTS).sum(axis=-1).max()
            if tol < floor:
                raise QuadratureError(
                    f"arc quadrature stalled at {panels} panels: "
                    f"residual {residual:.3e} stopped falling and "
                    f"tol {tol:.3e} is below the rounding floor "
                    f"{floor:.3e}")
    raise QuadratureError(
        f"arc quadrature unsettled at {panels} panels "
        f"(residual {residual:.3e} > {tol:.3e})")


def delta_j_arc(stationary: StationarySet, j: int) -> ArcSpec:
    """Per-point arc T_j -> S_j (short arc)."""
    _check_j(j)
    return ArcSpec.between(_T_ANCHORS[j - 1], stationary.S[j - 1])


@dataclass(frozen=True)
class CoefficientSet:
    """What the odd crosses read on one ray: r(S_1), nu (every nu_j),
    chi_1(S_1) (also chi_3(S_3)), hat_delta_j(S_j) and delta_j^0 for
    j = 1, 3, and delta(0)."""

    r_at_S1: complex
    nu: float
    chi_at_S1: complex
    hat_delta_at_S: tuple
    delta_j0: tuple
    delta_at_zero: complex


def coefficient_set(r_eval, stationary: StationarySet,
                    tol: float = DEFAULT_TOL) -> CoefficientSet:
    """Compute every coefficient the odd crosses need.

    r_eval must be the r of real lattice data: the other three arcs are
    read as images of arc 1, and r(S_3) as -r(S_1) (see the module
    docstring), which holds only when |r| is even under z -> conj(z)
    and z -> -z.  r is sampled once at S_1, and then once per panel
    level of arc 1, on the 33 Kronrod nodes of each panel; a smooth arc
    settles at its first level, so its row samples r twice.  r(S_1)
    gives g(S_1) = log(1 - |r(S_1)|^2), hence nu, and is kept as
    r_at_S1 for the cross entries.  Arc 1 is swept at the points
    s = (0, S_1, S_2, S_3, S_4), with g(S_1) subtracted at S_1 only
    (chi_1); arc 2 is -conj(s[[0, 2, 1, 4, 3]]), arc 3 is
    s3 = s[[0, 3, 4, 1, 2]] and arc 4 is -conj(s3[[0, 2, 1, 4, 3]]).
    delta(0) is prod_j delta_j(0): arc S1 -> S2 through 1 is arc
    T1 -> S1 reversed followed by arc T2 -> S2, and likewise through -1.
    delta_1^0 and delta_3^0 are then assembled from nu, chi_1(S_1) and
    hat_delta_j(S_j) by the formula of the module docstring.

    ReflectionTooLargeError when |r| reaches 1 - 1e-8, or r is NaN, at
    S_1 (the first call) or at a node of arc 1 (a later one); only arc 1
    can raise QuadratureError.  Either fails the row.
    """
    r_at_S1 = r_eval(stationary.S[0])
    g = _density(r_at_S1)
    s = _arc_sums(functools.partial(log_density, r_eval),
                  delta_j_arc(stationary, 1),
                  np.concatenate(([0.0], stationary.S)),
                  np.array([0.0, g, 0.0, 0.0, 0.0]), tol)
    conj, s3 = [0, 2, 1, 4, 3], s[[0, 3, 4, 1, 2]]
    return _assembled(stationary, r_at_S1, g,
                      np.array([s, -s[conj].conj(), s3, -s3[conj].conj()]))


def _assembled(stationary: StationarySet, r_at_S1, g_at_S1,
               arc_sums) -> CoefficientSet:
    """The CoefficientSet from r(S_1), g(S_1) and the four arcs' sums;
    arc j's sum at its own S_j is chi_j(S_j), which hat_delta_j omits."""
    exponents = np.zeros(5, dtype=complex)  # log delta(0), log hat_delta_j
    chi = complex(arc_sums[0][1])
    for j, sums in enumerate(arc_sums, 1):
        sums[j] = 0.0
        exponents += (-1) ** (j - 1) * sums
    nu = float(-g_at_S1 / (2.0 * math.pi))
    hat_delta_at_S = (cmath.exp(exponents[1]), cmath.exp(exponents[3]))
    ray = stationary.ray
    delta_j0 = []
    for k, hat_delta in zip((0, 2), hat_delta_at_S):
        Sj = stationary.S[k]
        kappa_j = (Sj * Sj).imag  # S_j^-2 = conj(S_j^2) on the circle
        osc = cmath.exp(1j * (ray.n * cmath.phase(Sj) - ray.t * kappa_j))
        power = cmath.exp(1j * nu * cmath.log(
            stationary.beta[k] / (Sj - _T_ANCHORS[k])))
        delta_j0.append(osc * power * cmath.exp(chi) * hat_delta)
    return CoefficientSet(
        r_at_S1=complex(r_at_S1), nu=nu, chi_at_S1=chi,
        hat_delta_at_S=hat_delta_at_S, delta_j0=tuple(delta_j0),
        delta_at_zero=cmath.exp(exponents[0]))


def _check_j(j: int) -> None:
    if j not in (1, 2, 3, 4):
        raise ValueError("j must be one of 1, 2, 3, 4")
