"""Phase function of the oscillatory jump matrix and its stationary points.

    phi(z) = (t/2)(z^2 - z^-2) - n Log z,

with the principal branch of the logarithm (cut on the negative real
axis); every complex power elsewhere in the package uses the same branch.
On a ray v = n/t with |v| < 2 there are four first-order stationary
points on the unit circle,

    S1 = A,  S2 = conj(A),  S3 = -A,  S4 = -conj(A),
    A = (sqrt(2+v) - i sqrt(2-v)) / 2,

and the local scaling factors beta_j satisfy phi''(S_j) beta_j^2 =
(-1)^(j+1) i/2, which is the identity everything downstream leans on.
The points coalesce at z = +-1 as |v| -> 2 and leave the circle beyond;
stationary_points is the one place that refuses a ray with |v| >=
2 - MERGING_MARGIN.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, MergingPointsError

__all__ = [
    "RayParams",
    "StationarySet",
    "phase_derivative",
    "stationary_points",
]

MERGING_MARGIN = 0.05


@dataclass(frozen=True)
class RayParams:
    """Space-time ray v = n/t; stationary_points needs |v| < 2 - margin."""

    n: int
    t: float

    def __post_init__(self):
        if not 0 < self.t < math.inf:  # NaN fails too
            raise ValueError("t must be positive and finite")

    @property
    def v(self) -> float:
        return self.n / self.t


@dataclass(frozen=True)
class StationarySet:
    """Stationary points S_1..S_4 and beta_j (index j-1), and the ray they
    belong to: the one carrier of (n, t) for everything assembled from
    them."""

    S: tuple
    beta: tuple
    ray: RayParams


def phase_derivative(z: complex, ray: RayParams) -> complex:
    """phi'(z) = t(z + z^-3) - n/z; DomainError at z = 0."""
    zc = complex(z)
    if zc == 0:
        raise DomainError("phase is undefined at z = 0")
    return ray.t * (zc + zc ** -3) - ray.n / zc


def stationary_points(ray: RayParams) -> StationarySet:
    """Locate S_1..S_4 and their scaling factors beta_j.

    Raises MergingPointsError when |v| >= 2 - MERGING_MARGIN: the points
    coalesce at z = +-1 at the light-cone edge |v| = 2 and leave the
    circle beyond it.
    """
    v = ray.v
    if abs(v) >= 2.0 - MERGING_MARGIN:
        raise MergingPointsError(
            f"|v| = {abs(v):.4f} >= {2.0 - MERGING_MARGIN}: the stationary "
            "points merge at |v| = 2 and leave the unit circle beyond it")
    A = 0.5 * (math.sqrt(2.0 + v) - 1j * math.sqrt(2.0 - v))
    S = (A, A.conjugate(), -A, -A.conjugate())

    root = math.sqrt(4.0 * ray.t ** 2 - ray.n ** 2)
    beta = tuple(0.5 * root ** -0.5 * 1j * S[j - 1] * (-1) ** j
                 for j in (1, 2, 3, 4))

    worst = max(abs(phase_derivative(s, ray)) for s in S)
    # residual of the algebraic zero scales with t * eps
    if worst > 1e-10 * max(1.0, ray.t):
        raise DomainError(f"stationary-point residual {worst:.3e} too large")
    return StationarySet(S=S, beta=beta, ray=ray)

