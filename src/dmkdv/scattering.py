"""Direct scattering transform for the lattice on the unit circle.

The scattering data of a state, at whatever time t it holds, come from
the 2x2 transfer recursion with the one-step increment

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
|a| > 0 and the reflection coefficient r = b/a has |r| < 1; how r moves
with t is stated in scattering_polynomials.

An evaluation at scalar or array z takes a fixed number of array
operations, whatever the number N of coefficients: from the exponent
nearest 0 outward, one table of the first 16 powers of z^2 (and of
z^-2), one matrix product with the coefficients cut into rows of 16
(laid out once, when the polynomials are built), and Horner in z^32
(z^-32) over the ~N/16 rows.  Each term c_j z^e_j carries a relative
rounding error of at most (2 N + 32) eps, so a value is off by at most
that times sum_j |c_j| |z|^e_j.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass, field

import numpy as np

from .errors import ConditioningError, DomainError, ReflectionTooLargeError
from .lattice import LatticeState, conserved_c_inf

__all__ = [
    "UnitCirclePoint",
    "ScatteringData",
    "ScatteringPolynomials",
    "scattering_polynomials",
    "scattering_coefficients",
    "reflection_grid",
    "reflection_evaluator",
]

_CIRCLE_TOL = 1e-14  # the S_j come within 2.2e-16
_BLOCK = 16  # row width of the blocked polynomial evaluation
_PASS_BYTES = 1 << 16  # largest temporary array of one pass over the points


@dataclass(frozen=True)
class UnitCirclePoint:
    """Point z = e^(i theta) on the jump circle, theta in (-pi, pi]."""

    theta: float
    z: complex

    def __post_init__(self):
        circle_modulus(self.z)

    @classmethod
    def from_theta(cls, theta: float) -> "UnitCirclePoint":
        wrapped = float(wrapped_angle(theta))
        return cls(theta=wrapped, z=cmath.exp(1j * wrapped))

    @classmethod
    def from_z(cls, z: complex) -> "UnitCirclePoint":
        zc = np.asarray(complex(z))
        zn = complex(zc / circle_modulus(zc))
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
    zero state has a_coeffs = (1.0,) and no b coefficients.  Calling it
    evaluates a and b together by the blocked sum of the module
    docstring, from a layout of the coefficients in rows of 16 that is
    built with the polynomials.  On |z| = 1 the rounding error of a and b
    is O(N eps) times prod(1 + |q_k|), the coefficient sum of the same
    recursion run on |q|: tight for small data, loose relative to |a| for
    strongly reflecting data.
    """

    a_coeffs: tuple
    a_low: int
    b_coeffs: tuple
    b_low: int
    c_inf: float
    _layout: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_layout", _blocked_layout(
            ((self.a_coeffs, self.a_low), (self.b_coeffs, self.b_low))))

    def __call__(self, z):
        """(a(z), b(z)) at a nonzero scalar or array z."""
        return _laurent(self._layout, z)


def _blocked_layout(polys) -> tuple:
    """The polynomials sum_i c[i] z^(low + 2i), given as (c, low) pairs,
    laid out for _laurent: (upper, lower, shifts).

    Each polynomial is split at the exponent nearest 0 into an upper half
    in powers of zeta = z^2 and a lower half in powers of 1/zeta, both
    running from there outward: the terms there (a's constant 1 among
    them) pick up the fewest roundings, and for data near the origin no
    large power of z multiplies the sum.  Each half is cut into rows of
    w = min(16, longest half) coefficients, zero-padded; upper and lower
    are arrays shaped (rows, len(polys), w), lower is None when no
    polynomial has one, and shifts are the exponents nearest 0.
    """
    upper, lower, shifts = [], [], []
    for coeffs, low in polys:
        p = min(max((1 - low) // 2, 0), len(coeffs))
        upper.append(coeffs[p:])
        lower.append(coeffs[p - 1::-1] if p else ())
        shifts.append(low + 2 * p)
    return (_coefficient_rows(upper),
            _coefficient_rows(lower) if any(lower) else None, tuple(shifts))


def _coefficient_rows(series) -> np.ndarray:
    longest = max(map(len, series))
    width = max(min(_BLOCK, longest), 1)
    rows = max(-(-longest // width), 1)
    padded = np.zeros((len(series), rows * width))
    for row, coeffs in zip(padded, series):
        row[:len(coeffs)] = coeffs
    # row blocks outermost: each Horner step reads one contiguous block
    return padded.reshape(len(series), rows, width).swapaxes(0, 1).copy()


def _laurent(layout: tuple, z) -> tuple:
    """Values at z of the polynomials laid out by _blocked_layout."""
    upper, lower, shifts = layout
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    zeta = flat * flat
    values = _power_sums(upper, zeta)
    if lower is not None:
        inv = 1.0 / zeta
        lower_values = _power_sums(lower, inv)
        lower_values *= inv
        values += lower_values
    return tuple((value * z ** shift if shift else value)[()]
                 for value, shift in zip(
                     values.reshape((len(shifts),) + z.shape), shifts))


def _power_sums(blocks: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_j c[j] x^j for every sequence c of _coefficient_rows, laid out
    in `blocks` (rows, sequences, w), at the points x (1-d); shaped
    (sequences, len(x)).

    Each pass over the points takes a fixed number of array operations:
    one table holds x^0 .. x^w; one matrix product with the coefficient
    rows gives every row's sum; Horner in x^w runs over the rows, all
    sequences at once.  A pass takes as many points as keep its table and
    its row sums within 64 kB each, so large evaluations reuse memory
    instead of faulting in fresh pages.
    """
    rows, count, width = blocks.shape
    flat_blocks = blocks.reshape(-1, width)
    size = max(_PASS_BYTES // (16 * max(width + 1, rows * count)), 1)
    total = np.empty((count, x.size), dtype=complex)
    for start in range(0, x.size, size):
        part = x[start:start + size]
        table = np.empty((width + 1, part.size), dtype=complex)
        table[0] = 1.0
        table[1] = part
        done = 1  # table[:done + 1] is filled; double it until it is full
        while done < width:
            top = min(2 * done, width)
            np.multiply(table[1:top - done + 1], table[done],
                        out=table[done + 1:top + 1])
            done = top
        # real coefficients times the real view of the table
        sums = (flat_blocks @ table[:width].view(float)).view(
            complex).reshape(rows, count, part.size)
        acc, step = sums[-1], table[width]
        for row in sums[-2::-1]:
            acc *= step
            acc += row
        total[:, start:start + size] = acc
    return total


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
    zero at that point.  U and W are updated in place: both products go
    into two scratch arrays allocated once per build, then each is added
    onto its slice, so no site allocates.

    Any state is accepted.  The lattice flow is isospectral: for q(t)
    integrated from q(0), r(z, t) = r(z, 0) e^(-(z^2 - z^-2) t), so |r|
    is conserved and on |z| = 1 the phase turns by e^(-2 i t sin 2 theta).
    The residual of that law measures an integrator's error.

    The coefficients grow like prod(1 + |q_k|); ConditioningError when
    any of them overflows, before a value of a, b or r is computed.
    """
    offsets = np.flatnonzero(q.values)
    first = int(offsets[0]) if offsets.size else 0
    span = int(offsets[-1]) - first if offsets.size else 0
    u = np.zeros(span + 1)
    u[span] = 1.0
    w = np.zeros(span + 1)
    to_u, to_w = np.empty(span + 1), np.empty(span + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        for offset in offsets:
            qk = q.values[offset:offset + 1].reshape(())  # a 0-d operand
            s = int(offset) - first
            u_tail, w_head = u[span - s:], w[:s + 1]
            u_add, w_add = to_u[:s + 1], to_w[:s + 1]
            np.multiply(qk, w_head, out=u_add)
            np.multiply(qk, u_tail, out=w_add)
            u_tail += u_add
            w_head += w_add
    if not (np.isfinite(u).all() and np.isfinite(w).all()):
        raise ConditioningError(
            f"the coefficients of a(z) and b(z) overflow on "
            f"{offsets.size} nonzero sites")
    a_coeffs, a_low = _trimmed(u, -2 * span)
    b_coeffs, b_low = _trimmed(w, 2 * (q.n_min + first) + 1)
    return ScatteringPolynomials(a_coeffs=a_coeffs, a_low=a_low,
                                 b_coeffs=b_coeffs, b_low=b_low,
                                 c_inf=conserved_c_inf(q))


def circle_modulus(z):
    """|z| of a scalar or numpy-array z, after the one check of |z| = 1:
    DomainError unless every |z| lies within 1e-14 of 1.  A scalar takes
    plain float arithmetic and no division: the check of a row's arc
    ends costs what an inline test did."""
    modulus = abs(z)
    off = abs(modulus - 1.0)
    if isinstance(off, np.ndarray):
        off = off.max()
    if not off <= _CIRCLE_TOL:  # NaN fails too
        raise DomainError(f"z is off the unit circle: ||z| - 1| = "
                          f"{off:.3e} > {_CIRCLE_TOL:g}")
    return modulus


def wrapped_angle(theta):
    """The one wrap of an angle (float or array) into (-pi, pi]."""
    wrapped = (theta + np.pi) % (2.0 * np.pi) - np.pi
    return np.where(wrapped == -np.pi, np.pi, wrapped)


def check_grid_size(size: int) -> None:
    """The one rule for a circle grid: a power of two >= 64."""
    if size < 64 or size & (size - 1):
        raise ValueError("grid size must be a power of two >= 64")


def scattering_coefficients(q: LatticeState, z) -> ScatteringData:
    """Coefficients a, b and r = b/a at one circle point."""
    at = z if isinstance(z, UnitCirclePoint) else UnitCirclePoint.from_z(z)
    poly = scattering_polynomials(q)
    a, b = poly(at.z)
    return ScatteringData(a=a, b=b, r=b / a, at=at, c_inf=poly.c_inf)


def reflection_evaluator(poly: ScatteringPolynomials):
    """Callable z -> r(z) for scalar or array z on |z| = 1, from the
    polynomials of scattering_polynomials."""
    return functools.partial(_reflection_at, poly)


def _reflection_at(poly: ScatteringPolynomials, z):
    z = np.asarray(z, dtype=complex)
    a, b = poly(z / circle_modulus(z))
    return b / a


def reflection_grid(poly: ScatteringPolynomials, size: int = 256) -> tuple:
    """(theta, r): r at `size` (a power of two >= 64) uniform angles
    theta in (-pi, pi], for diagnostics and plots."""
    check_grid_size(size)
    theta = wrapped_angle(2.0 * np.pi * np.arange(size) / size)
    r = reflection_evaluator(poly)(np.exp(1j * theta))
    checked_abs2(r)
    return theta, r


def checked_abs2(r_values):
    """|r|^2 of values of r, past check_abs2."""
    return check_abs2(np.abs(r_values) ** 2)


def check_abs2(abs2):
    """abs2, values of |r|^2, after the one bound on |r| that every check
    applies: ReflectionTooLargeError when some |r| reaches 1 - 1e-8 or
    is NaN."""
    peak = abs2.max()
    if not peak < (1.0 - 1e-8) ** 2:  # NaN fails too
        raise ReflectionTooLargeError(
            f"max |r| = {np.sqrt(peak):.9f} at the sampled points")
    return abs2
