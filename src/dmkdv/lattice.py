"""Discrete defocusing mKdV lattice on a finite window.

The equation is

    dq_n/dt = (1 - q_n^2) (q_{n+1} - q_{n-1}),

for real q_n with sup|q_n| < 1 (defocusing regime).  States live on a
finite index window; sites outside the window are implicitly zero, which
is a faithful truncation as long as nothing reaches the boundary (the
signal speed of the linearization is 2 sites per unit time).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import BlowupError, SpillError

__all__ = [
    "LatticeState",
    "InitialProfile",
    "integrate",
    "conserved_c_inf",
    "rho_zero",
    "staggered",
]


@dataclass(frozen=True)
class LatticeState:
    """Real sequence q_n on sites n_min .. n_min+len(values)-1 at time t.

    `values` is a read-only copy of the input, checked once: finite, with
    sup|q| < 1.
    """

    n_min: int
    values: np.ndarray
    t: float = 0.0

    def __post_init__(self):
        # a private read-only copy: validation holds for the state's
        # lifetime, and the caller's array keeps its own flags
        vals = np.array(self.values, dtype=float)
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size == 0:
            raise ValueError("values must be a nonempty 1-d real array")
        check_defocusing("values", vals)

    @property
    def n_max(self) -> int:
        return self.n_min + len(self.values) - 1

    @property
    def sites(self) -> np.ndarray:
        return np.arange(self.n_min, self.n_min + len(self.values))

    def value_at(self, n: int) -> float:
        """q_n, with the implicit zero extension outside the window."""
        if n < self.n_min or n > self.n_max:
            return 0.0
        return float(self.values[n - self.n_min])


@dataclass(frozen=True)
class InitialProfile:
    """Recipe for initial data.  kinds: zero, single_site, gaussian,
    custom_list (values then taken from ``custom`` starting at ``center``)."""

    kind: str = "single_site"
    amplitude: float = 0.3
    width: float = 1.0
    center: int = 0
    custom: tuple = field(default_factory=tuple)

    _KINDS = ("zero", "single_site", "gaussian", "custom_list")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}")
        if self.kind in ("single_site", "gaussian"):
            check_defocusing("amplitude", self.amplitude)
        if self.kind == "gaussian" and not 0 < self.width < np.inf:
            raise ValueError("width must be positive and finite")
        check_defocusing("custom values", [float(q) for q in self.custom])

    def realize(self, n_min: int, n_max: int) -> LatticeState:
        """Materialize the profile on the window [n_min, n_max] at t = 0."""
        if n_max < n_min:
            raise ValueError("empty window")
        sites = np.arange(n_min, n_max + 1)
        q = np.zeros(sites.size)
        if self.kind == "single_site":
            if not (n_min <= self.center <= n_max):
                raise ValueError("center outside window")
            q[self.center - n_min] = self.amplitude
        elif self.kind == "gaussian":
            q = self.amplitude * np.exp(-((sites - self.center) / self.width) ** 2 / 2.0)
        elif self.kind == "custom_list":
            vals = np.asarray(self.custom, dtype=float)
            lo = self.center - n_min
            if lo < 0 or lo + vals.size > sites.size:
                raise ValueError("custom values do not fit in window")
            q[lo:lo + vals.size] = vals
        return LatticeState(n_min=n_min, values=q, t=0.0)

    def support_state(self) -> LatticeState:
        """The profile on exactly its nonzero sites, first to last; data
        with none (zero data, a zero amplitude) gives its center, with
        value 0."""
        # exp(-d^2/(2w^2)) is 0.0 past d = 38.6 w, where d^2/(2w^2) > 745.1
        reach = (int(np.ceil(39.0 * self.width)) if self.kind == "gaussian"
                 else 0)
        full = self.realize(self.center - reach,
                            self.center + max(reach, len(self.custom) - 1))
        nonzero = np.flatnonzero(full.values)
        if nonzero.size == 0:
            return LatticeState(n_min=self.center, values=np.zeros(1))
        first, last = map(int, nonzero[[0, -1]])
        return LatticeState(n_min=full.n_min + first,
                            values=full.values[first:last + 1])


def check_defocusing(name: str, values) -> None:
    """The one check of sup|q| < 1: ValueError naming `name` (NaN fails)."""
    if not np.max(np.abs(values), initial=0.0) < 1.0:
        raise ValueError(f"{name} must be finite with |q| < 1 (defocusing)")


def staggered(state: LatticeState) -> LatticeState:
    """Sign-alternated copy (-1)^n q_n of a state at t = 0.

    The staggering maps solutions of the lattice equation to solutions of
    its time reversal; on the scattering side it rotates the spectral
    parameter by 90 degrees (r_staggered(z) = r(iz)/i).  A state at
    t != 0 is refused: its copy would solve the reversed flow from -t.
    """
    if state.t != 0.0:  # NaN is refused too
        raise ValueError(f"staggered needs t = 0, got t = {state.t!r}")
    signs = np.where(state.sites % 2 == 0, 1.0, -1.0)
    return LatticeState(n_min=state.n_min, values=state.values * signs, t=0.0)


def conserved_c_inf(state: LatticeState) -> float:
    """Conserved product prod_n (1 - q_n^2) over the window."""
    return float(np.prod(1.0 - state.values ** 2))


def rho_zero(state: LatticeState) -> float:
    """Conserved sup bound rho_0 = (1 - c_inf)^(1/2); sup|q(t)| <= rho_0."""
    return float(np.sqrt(max(1.0 - conserved_c_inf(state), 0.0)))


# One RK4 step widens the support by at most 4 sites (one per stage).
_RESCAN_STEPS = 16
_RESCAN_MARGIN = 4 * _RESCAN_STEPS
# 1.0 for _slope: a ufunc takes a 0-d array operand faster than a float
_ONE = np.ones(())
_ONE.setflags(write=False)


def integrate(initial: LatticeState, t_end: float, dt: float,
              spill_tol: float = 1e-10) -> LatticeState:
    """Evolve with classical fixed-step RK4 from initial.t to t_end.

    The step count is chosen so the uniform step is as close as possible
    to the requested dt while landing exactly on t_end.  Each step checks
    three runtime guards:

      * sup|q| < 1 at every RK stage (else BlowupError),
      * sup|q| <= rho_0 + 1e-9 after the step (conserved bound; a
        violation again means the stepping broke down),
      * |q| below spill_tol on the outermost 10% of sites on each side
        (else SpillError: the window is too small).

    A NaN fails the first two guards.  The kernel works in place on
    buffers allocated once per call and steps only the exact active
    range: outside the support of q every quantity is exactly 0.0, and
    one RK4 step widens that support by at most 4 sites, so the range is
    rescanned every 16 steps and set to the nonzero sites plus 64 on each
    side (clipped to the window).  It only ever widens, which keeps the
    stage buffer exactly zero outside it.  Each stage's sup guard reads
    the 1 - y^2 its slope evaluation computes anyway: sup|y| < 1 exactly
    when min(1 - y^2) > 0 in floating point.  The operations and their
    order are those of the plain RK4 loop, so the result is the same to
    the last bit.

    Reflection-symmetric data, an odd window centred on c with
    q_{c+n} == (-1)^n q_{c-n} (single-site data, for one), keeps that
    symmetry bit for bit: the map negates exactly, and RK4 commutes with
    it.  Such data is detected from the initial values and stepped on
    sites c .. c+H only, with a ghost slot holding q_{c-1} = -q_{c+1}
    (rewritten before each slope evaluation); the spill guard reads the
    right edge, which the left one mirrors, and the left half is rebuilt
    from the right at the end.  The result is bit for bit that of the
    whole window.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    span = t_end - initial.t
    if span == 0.0:
        return initial
    nsteps = max(1, int(round(abs(span) / dt)))
    h = span / nsteps
    # 0-d arrays, like _ONE
    half_h, full_h, sixth_h = (np.array(c) for c in (0.5 * h, h, h / 6.0))

    size = len(initial.values)
    bound = rho_zero(initial) + 1e-9
    edge = max(1, size // 10)
    half = _mirror_half(initial.values)
    mirrored = half is not None
    stepped = initial.values[half:] if mirrored else initial.values
    width = len(stepped)
    # q and the stage point y, each with one zero site on either side; on
    # mirrored data the left one is the ghost of site c - 1
    padded_q, padded_y = np.zeros(width + 2), np.zeros(width + 2)
    padded_q[1:-1] = stepped
    q = padded_q[1:-1]
    one_minus_sq, diff, slope, acc = (np.empty(width) for _ in range(4))
    lo, hi = width, 0  # active range [lo, hi), empty until the first scan
    amin, amax = np.minimum.reduce, np.maximum.reduce
    left_edge = 0 if mirrored else edge

    for step in range(nsteps):
        if step % _RESCAN_STEPS == 0 and hi - lo < width:
            nonzero = np.flatnonzero(q)
            first, last = (nonzero[0], nonzero[-1]) if nonzero.size else (0, 0)
            lo = min(lo, max(first - _RESCAN_MARGIN, 0))
            hi = max(hi, min(last + _RESCAN_MARGIN + 1, width))
            qa, q_up, q_dn = (padded_q[lo + 1:hi + 1], padded_q[lo + 2:hi + 2],
                              padded_q[lo:hi])
            ya, y_up, y_dn = (padded_y[lo + 1:hi + 1], padded_y[lo + 2:hi + 2],
                              padded_y[lo:hi])
            a, b, k, acc_a = (one_minus_sq[lo:hi], diff[lo:hi], slope[lo:hi],
                              acc[lo:hi])
            # |q| is exactly 0 outside the range, so the spill guard reads
            # the parts of the outer 10% inside it (|q| is kept in a)
            edges = [part for part in (one_minus_sq[lo:min(left_edge, hi)],
                                       one_minus_sq[max(width - edge, lo):hi])
                     if part.size]

        if mirrored:
            padded_q[0] = -padded_q[2]
        _slope(qa, q_up, q_dn, a, b, acc_a)  # k1, kept in acc
        k_prev = acc_a
        for c in (half_h, half_h, full_h):
            np.multiply(k_prev, c, ya)
            np.add(qa, ya, ya)  # y = q + c k_prev
            if k_prev is k:  # k2 and k3 enter acc doubled
                np.add(k, k, k)  # 2 k, exactly
                np.add(acc_a, k, acc_a)
            if mirrored:
                padded_y[0] = -padded_y[2]
            _slope(ya, y_up, y_dn, a, b, k)
            if not amin(a) > 0.0:  # a = 1 - y^2
                raise BlowupError("sup|q| reached 1 at an RK stage point")
            k_prev = k
        np.add(acc_a, k, acc_a)  # acc = ((k1 + 2 k2) + 2 k3) + k4
        np.multiply(acc_a, sixth_h, acc_a)
        np.add(qa, acc_a, qa)

        np.abs(qa, a)
        sup = amax(a)
        if not sup < 1.0:
            raise BlowupError(f"sup|q| = {sup:.6g} reached 1 during stepping")
        if not sup <= bound:
            raise BlowupError(
                f"sup|q| = {sup:.6g} exceeds conserved bound {bound:.6g}")
        spill = max([amax(part) for part in edges], default=0.0)
        if not spill <= spill_tol:
            raise SpillError(
                f"boundary amplitude {spill:.3g} exceeds spill tolerance "
                f"{spill_tol:.3g}; enlarge the window")

    values = _unfold(q) if mirrored else q
    return LatticeState(n_min=initial.n_min, values=values, t=initial.t + span)


def _mirror_half(values):
    """H when the 2H + 1 values satisfy values[H + n] == (-1)^n
    values[H - n] for every n, else None."""
    half = len(values) // 2
    if len(values) % 2 and np.array_equal(_unfold(values[half:]), values):
        return half
    return None


def _unfold(right):
    """q_{c-H} .. q_{c+H} from right = q_c .. q_{c+H}, by the reflection
    q_{c-n} = (-1)^n q_{c+n}.  Adding 0.0 turns a negated +0.0 into the
    +0.0 that the whole-window kernel keeps."""
    signs = np.where(np.arange(len(right)) % 2 == 0, 1.0, -1.0)
    return np.concatenate([(signs * right)[:0:-1] + 0.0, right])


def _slope(z, z_up, z_dn, one_minus_sq, diff, out):
    """out = (1 - z^2)(z_up - z_dn), leaving 1 - z^2 in one_minus_sq."""
    np.multiply(z, z, one_minus_sq)
    np.subtract(_ONE, one_minus_sq, one_minus_sq)
    np.subtract(z_up, z_dn, diff)
    np.multiply(one_minus_sq, diff, out)
