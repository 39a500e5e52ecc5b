"""One coefficient at a time, by its definition in the weights module
docstring, every coefficient one arc at a time, and the nodes of one
arc: the oracles that `weights.coefficient_set`, which samples r once per
panel level for all four arcs, and `weights._level_nodes`, which places
the nodes of all arcs at once, are checked against.
"""

import functools
import math

import numpy as np

from dmkdv.weights import (
    DEFAULT_TOL,
    _GL_NODES,
    _arc_sums,
    _assembled,
    _check_j,
    delta_j_arc,
    delta_j_at,
    log_density,
)


def arc_nodes(arc, panels: int) -> tuple:
    """(half, tau): half the angle of each of `panels` equal panels of
    `arc`, and the 16 Gauss nodes of every panel on the circle."""
    half = 0.5 * arc.dtheta / panels
    mids = arc.theta_start + half * (2.0 * np.arange(panels) + 1.0)
    return half, np.exp(1j * (mids[:, None] + half * _GL_NODES).ravel())


def coefficient_set_by_arc(r_eval, stationary, tol: float = DEFAULT_TOL):
    """coefficient_set from r(S_j) in one call and one sweep per arc,
    each sampling r on its own nodes only."""
    S = np.array(stationary.S)
    r_at_S, g_at_S = r_eval(S), log_density(r_eval, S)
    density = functools.partial(log_density, r_eval)
    arcs = [delta_j_arc(stationary, j) for j in (1, 2, 3, 4)]
    points = (0.0,) + stationary.S
    sums = [_arc_sums(density, [arc], points,
                      np.where(np.arange(5) == j, g_at_S[j - 1], 0.0), tol)[0]
            for j, arc in enumerate(arcs, 1)]
    return _assembled(stationary, r_at_S, g_at_S, sums)


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
    arc = delta_j_arc(stationary, j)
    density = functools.partial(log_density, r_eval)
    Sj = stationary.S[j - 1]
    return complex(_arc_sums(density, [arc], Sj, density(Sj), tol)[0, 0])


def hat_delta_at_stationary(r_eval, stationary, j: int,
                            tol: float = DEFAULT_TOL) -> complex:
    """hat_delta_j(S_j) = prod_{k != j} delta_k(S_j).

    Regular because S_j never lies on the arc of any k != j.
    """
    _check_j(j)
    Sj = stationary.S[j - 1]
    return math.prod(delta_j_at(r_eval, stationary, k, Sj, tol)
                     for k in (1, 2, 3, 4) if k != j)
