"""Direct scattering transform for the lattice on the unit circle.

The scattering data come from the 2x2 transfer recursion at t = 0 with
the one-step increment

    B_k(z) = [[0, q_k z^(-2k-1)], [q_k z^(2k+1), 0]].

Starting from (u, w) = (1, 0) far left of the support, each site applies
the simultaneous update

    (u, w) <- (u + q_k z^(-2k-1) w,  w + q_k z^(2k+1) u),

and one site past the right edge (u, w) = (a(z), b(z)).  For finite
support both are Laurent polynomials in z: a has the even exponents
-2(k_max - k_min) .. 0 with constant term exactly 1, b the odd exponents
2k_min + 1 .. 2k_max + 1.  The recursion runs once per state on their
coefficient arrays; every value of a, b and r = b/a is an evaluation of
those polynomials.  On |z| = 1 they satisfy |a|^2 - |b|^2 = c_inf, so
|a| > 0 and the reflection coefficient r = b/a has |r| < 1.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ReflectionTooLargeError
from .lattice import LatticeState, conserved_c_inf

__all__ = [
    "UnitCirclePoint",
    "ScatteringData",
    "ScatteringPolynomials",
    "ReflectionGrid",
    "scattering_polynomials",
    "scattering_coefficients",
    "reflection_grid",
    "reflection_evaluator",
]

_CIRCLE_TOL = 1e-12


@dataclass(frozen=True)
class UnitCirclePoint:
    """Point z = e^(i theta) on the jump circle, theta in (-pi, pi]."""

    theta: float
    z: complex

    def __post_init__(self):
        if abs(abs(self.z) - 1.0) > 1e-14:
            raise ValueError(f"|z| = {abs(self.z)!r} is not 1")

    @classmethod
    def from_theta(cls, theta: float) -> "UnitCirclePoint":
        wrapped = (theta + np.pi) % (2.0 * np.pi) - np.pi
        if wrapped == -np.pi:
            wrapped = np.pi
        return cls(theta=wrapped, z=cmath.exp(1j * wrapped))

    @classmethod
    def from_z(cls, z: complex) -> "UnitCirclePoint":
        zn = _on_circle(complex(z))
        return cls(theta=cmath.phase(zn), z=zn)


@dataclass(frozen=True)
class ScatteringData:
    """Connection coefficients at one circle point, r = b/a."""

    a: complex
    b: complex
    r: complex
    at: UnitCirclePoint
    c_inf: float


@dataclass(frozen=True)
class ScatteringPolynomials:
    """a(z) = sum_i a_coeffs[i] z^(a_low + 2i), b(z) likewise, and c_inf.

    Coefficients are real; exact zeros at either end are trimmed, so the
    zero state has a_coeffs = (1.0,) and no b coefficients.  On |z| = 1
    the rounding error of a and b is O(eps) times prod(1 + |q_k|), the
    coefficient sum of the same recursion run on |q|: tight for small
    data, loose relative to |a| for strongly reflecting data.
    """

    a_coeffs: tuple
    a_low: int
    b_coeffs: tuple
    b_low: int
    c_inf: float

    def __call__(self, z):
        """(a(z), b(z)) at a nonzero scalar or array z."""
        return (_laurent(self.a_coeffs, self.a_low, z),
                _laurent(self.b_coeffs, self.b_low, z))


def _laurent(coeffs: tuple, low: int, z):
    # Horner from both ends toward the exponent nearest 0: the terms there
    # (a's constant 1 among them) pick up the fewest roundings, and for
    # data near the origin no large power of z multiplies the sum.
    p = min(max((1 - low) // 2, 0), len(coeffs))
    zeta = z * z
    inv = 1.0 / zeta
    upper = 0.0
    for c in reversed(coeffs[p:]):
        upper = upper * zeta + c
    lower = 0.0
    for c in coeffs[:p]:
        lower = (lower + c) * inv
    return (upper + lower) * z ** (low + 2 * p)


def _trimmed(coeffs: np.ndarray, low: int) -> tuple:
    nonzero = np.flatnonzero(coeffs)
    if nonzero.size == 0:
        return (), 0
    first, last = int(nonzero[0]), int(nonzero[-1])
    return tuple(coeffs[first:last + 1].tolist()), low + 2 * first


def scattering_polynomials(q: LatticeState) -> ScatteringPolynomials:
    """Run the transfer recursion on coefficient arrays, once per state.

    With k_min..k_max the outermost nonzero sites and K = k_max - k_min,
    a is stored as U[i] at z^(2(i - K)) and b as W[i] at z^(2(i + k_min)
    + 1).  Site k = k_min + s then adds q_k W[0..s] onto U[K-s..K] and
    q_k U[K-s..K] onto W[0..s]; everything outside those slices is still
    zero at that point.
    """
    if q.t != 0.0:
        raise ValueError("scattering data is defined from the t = 0 state")
    offsets = np.flatnonzero(q.values)
    first = int(offsets[0]) if offsets.size else 0
    span = int(offsets[-1]) - first if offsets.size else 0
    u = np.zeros(span + 1)
    u[span] = 1.0
    w = np.zeros(span + 1)
    for offset in offsets:
        qk = q.values[offset]
        s = int(offset) - first
        u_tail, w_head = u[span - s:], w[:s + 1]
        u[span - s:], w[:s + 1] = u_tail + qk * w_head, w_head + qk * u_tail
    a_coeffs, a_low = _trimmed(u, -2 * span)
    b_coeffs, b_low = _trimmed(w, 2 * (q.n_min + first) + 1)
    return ScatteringPolynomials(a_coeffs=a_coeffs, a_low=a_low,
                                 b_coeffs=b_coeffs, b_low=b_low,
                                 c_inf=conserved_c_inf(q))


def _on_circle(z):
    # z / |z| for scalar or array z, after checking |z| = 1
    modulus = abs(z)
    off = float(np.max(abs(modulus - 1.0)))
    if off > _CIRCLE_TOL:
        raise DomainError(f"|z| is {off:.3e} away from 1, beyond "
                          f"{_CIRCLE_TOL}")
    return z / modulus


def scattering_coefficients(q: LatticeState, z) -> ScatteringData:
    """Coefficients a, b and r = b/a at one circle point."""
    at = z if isinstance(z, UnitCirclePoint) else UnitCirclePoint.from_z(z)
    poly = scattering_polynomials(q)
    a, b = poly(at.z)
    return ScatteringData(a=a, b=b, r=b / a, at=at, c_inf=poly.c_inf)


def reflection_evaluator(q: LatticeState):
    """Callable z -> r(z) for scalar or array z on |z| = 1."""
    poly = scattering_polynomials(q)

    def r_eval(z):
        a, b = poly(_on_circle(z))
        return b / a
    return r_eval


@dataclass(frozen=True)
class ReflectionGrid:
    """r sampled at uniformly spaced angles (diagnostics and plots)."""

    points: tuple
    values: np.ndarray
    max_abs_r: float


def reflection_grid(q: LatticeState, size: int = 256) -> ReflectionGrid:
    """Sample r at `size` (a power of two >= 64) uniform angles."""
    if size < 64 or (size & (size - 1)) != 0:
        raise ValueError("grid size must be a power of two >= 64")
    thetas = 2.0 * np.pi * np.arange(size) / size
    points = tuple(UnitCirclePoint.from_theta(th) for th in thetas)
    values = reflection_evaluator(q)(np.array([p.z for p in points]))
    max_abs = float(np.max(np.abs(values)))
    if max_abs >= 1.0 - 1e-8:
        raise ReflectionTooLargeError(
            f"max |r| = {max_abs:.12f} is not strictly below 1")
    return ReflectionGrid(points=points, values=values, max_abs_r=max_abs)
