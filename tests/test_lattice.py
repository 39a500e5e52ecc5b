import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmkdv import (
    BlowupError,
    InitialProfile,
    LatticeState,
    SpillError,
    conserved_c_inf,
    integrate,
    rho_zero,
    staggered,
)
from dmkdv import lattice


def single_site(c, half=20, center=0):
    q = np.zeros(2 * half + 1)
    q[half + center] = c
    return LatticeState(n_min=-half, values=q)


def test_rhs_zero_fixed_point():
    state = LatticeState(n_min=-5, values=np.zeros(11))
    assert np.all(_oracle_rhs(state.values) == 0.0)


def test_rhs_single_site_by_hand():
    state = single_site(0.5, half=3)
    dq = _oracle_rhs(state.values)
    expect = np.zeros(7)
    expect[2] = 0.5    # site -1 sees q_0 on its right
    expect[4] = -0.5   # site +1 sees q_0 on its left
    np.testing.assert_allclose(dq, expect)


def test_rhs_matches_finite_difference_of_integration():
    rng = np.random.default_rng(7)
    state = LatticeState(n_min=-10, values=rng.uniform(-0.5, 0.5, 21))
    h = 1e-4
    fwd = integrate(state, h, h / 10, spill_tol=1.0)
    bwd = integrate(state, -h, h / 10, spill_tol=1.0)
    fd = (fwd.values - bwd.values) / (2 * h)
    dq = _oracle_rhs(state.values)
    assert np.max(np.abs(fd - dq)) / np.max(np.abs(dq)) < 1e-8


def test_conserved_product_examples():
    assert conserved_c_inf(LatticeState(n_min=0, values=np.zeros(4))) == 1.0
    assert conserved_c_inf(single_site(0.3)) == pytest.approx(0.91, abs=1e-15)
    two = LatticeState(n_min=0, values=np.array([0.3, 0.4]))
    assert conserved_c_inf(two) == pytest.approx(0.7644, abs=1e-15)
    assert rho_zero(two) == pytest.approx(np.sqrt(1 - 0.7644), rel=1e-14)


def test_integrate_zero_state_stays_zero():
    state = LatticeState(n_min=-30, values=np.zeros(61))
    out = integrate(state, 7.0, 0.05)
    assert np.all(out.values == 0.0)
    assert out.t == 7.0


def test_sup_norm_bound_holds():
    rng = np.random.default_rng(3)
    state = LatticeState(n_min=-60, values=rng.uniform(-0.4, 0.4, 121))
    bound = rho_zero(state) + 1e-9
    current = state
    for _ in range(5):
        current = integrate(current, current.t + 2.0, 0.01, spill_tol=1.0)
        assert np.max(np.abs(current.values)) <= bound


def test_reversal_symmetry_single_step():
    state = single_site(0.4, half=15)
    for dt in (0.1, 0.05):
        fwd = integrate(state, dt, dt, spill_tol=1.0)
        back = integrate(fwd, 0.0, dt, spill_tol=1.0)
        assert np.max(np.abs(back.values - state.values)) < 10 * dt ** 5


def test_construction_rejects_non_defocusing():
    with pytest.raises(ValueError):
        LatticeState(n_min=0, values=np.array([0.2, 1.0]))
    with pytest.raises(ValueError):
        InitialProfile(kind="single_site", amplitude=1.2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_construction_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        LatticeState(n_min=0, values=np.array([0.1, bad, 0.0]))


def test_values_are_read_only():
    raw = np.array([0.1, 0.2, 0.0])
    state = LatticeState(n_min=0, values=raw)
    with pytest.raises(ValueError):
        state.values[1] = np.nan
    raw[1] = 0.5  # the caller's array is copied, not frozen
    assert state.values[1] == 0.2


def test_integrate_raises_on_nan(monkeypatch):
    # a validated state cannot hold a NaN, so the first slope evaluation
    # writes one into the kernel's own copy of q; the stage guard that
    # follows must catch it
    slope = lattice._slope
    calls = []

    def nan_slope(z, *buffers):
        if not calls:
            z[z.size // 2] = np.nan
        calls.append(z.size)
        slope(z, *buffers)

    monkeypatch.setattr(lattice, "_slope", nan_slope)
    with pytest.raises(BlowupError, match="RK stage"):
        integrate(single_site(0.1, half=10), 1.0, 0.1, spill_tol=1.0)
    assert len(calls) == 2  # k1, then the first stage slope


def test_blowup_on_oversized_step():
    state = single_site(0.9, half=10)
    with pytest.raises(BlowupError):
        integrate(state, 50.0, 5.0, spill_tol=1.0)


def test_spill_error_for_small_window():
    state = single_site(0.3, half=6)
    with pytest.raises(SpillError):
        integrate(state, 10.0, 0.01, spill_tol=1e-10)


def test_profiles():
    gauss = InitialProfile(kind="gaussian", amplitude=0.25, width=2.0)
    state = gauss.realize(-30, 30)
    assert np.max(np.abs(state.values)) == pytest.approx(0.25)
    assert state.value_at(0) == pytest.approx(0.25)

    custom = InitialProfile(kind="custom_list", center=1, custom=(0.1, -0.2))
    state = custom.realize(-3, 3)
    assert state.value_at(1) == 0.1 and state.value_at(2) == -0.2

    zero = InitialProfile(kind="zero")
    assert np.all(zero.realize(-2, 2).values == 0.0)

    with pytest.raises(ValueError):
        InitialProfile(kind="sawtooth")
    with pytest.raises(ValueError):
        custom.realize(2, 3)  # custom values do not fit
    for bad in ((1.5,), (0.1, -1.0), (float("nan"),), (float("inf"),)):
        with pytest.raises(ValueError):
            InitialProfile(kind="custom_list", custom=bad)


def test_support_state_covers_profile():
    gauss = InitialProfile(kind="gaussian", amplitude=0.25, width=2.0)
    support = gauss.support_state()
    assert np.sum(np.abs(support.values)) == pytest.approx(
        np.sum(np.abs(gauss.realize(-400, 400).values)), rel=1e-12)


@pytest.mark.parametrize("profile, n_min, size", [
    (InitialProfile(kind="gaussian", amplitude=0.2, width=2.0), -77, 155),
    (InitialProfile(kind="custom_list", center=3,
                    custom=(0.0, 0.3, 0.0, -0.2, 0.0)), 4, 3),
    (InitialProfile(kind="single_site", amplitude=0.3, center=-2), -2, 1),
    (InitialProfile(kind="zero", center=5), 5, 1),
    (InitialProfile(kind="custom_list", center=1, custom=(0.0, 0.0)), 1, 1),
])
def test_support_state_holds_exactly_the_nonzero_sites(profile, n_min, size):
    support = profile.support_state()
    assert (support.n_min, len(support.values)) == (n_min, size)
    if support.values.any():  # no zero site at either end
        assert support.values[0] != 0.0 and support.values[-1] != 0.0
    else:  # no data: its center, with value 0
        assert support.values.tolist() == [0.0]
    wide = profile.realize(n_min - 300, n_min + 300)
    assert np.array_equal(wide.values[300:300 + size], support.values)
    assert not wide.values[:300].any() and not wide.values[300 + size:].any()


def test_staggered_signs_and_involution():
    rng = np.random.default_rng(11)
    state = LatticeState(n_min=-4, values=rng.uniform(-0.5, 0.5, 9))
    stag = staggered(state)
    for n in range(-4, 5):
        assert stag.value_at(n) == pytest.approx((-1) ** n * state.value_at(n))
    again = staggered(stag)
    np.testing.assert_allclose(again.values, state.values)


def test_staggered_refuses_an_integrated_state():
    # staggering maps solutions to the time-reversed flow, so the copy of
    # a state at t != 0 is no state at t = 0 of the forward flow
    rng = np.random.default_rng(12)
    state = LatticeState(n_min=-65,
                         values=np.pad(rng.uniform(-0.5, 0.5, 11), 60))
    with pytest.raises(ValueError, match=r"t = 0, got t = 5\.0$"):
        staggered(integrate(state, 5.0, 0.01))
    # at t = 0 the copy is bitwise (-1)^n q_n, as before the refusal
    signs = np.where(state.sites % 2 == 0, 1.0, -1.0)
    stag = staggered(state)
    assert (stag.n_min, stag.t) == (state.n_min, 0.0)
    assert stag.values.tobytes() == (state.values * signs).tobytes()


def _centred_single_site(amplitude, center, half):
    """single_site data on the odd window center - half .. center + half."""
    profile = InitialProfile(kind="single_site", amplitude=amplitude,
                             center=center)
    return profile.realize(center - half, center + half)


def _bits(state):
    return state.values.view(np.uint64)


# With 25 sites either side the active range spans the window from the
# first step; with 400 it stays inside (the support reaches about 300
# sites by |t| = 10).  Two cases step backwards in time, one crosses 0.
@pytest.mark.parametrize("center, amplitude, half, stops", [
    (0, 0.3, 25, (2.0, 5.0, 9.5)),
    (-7, -0.45, 400, (-1.5, -4.0, -10.0)),
    (12, 0.6, 25, (3.0, -2.0, 6.0)),
    (3, 0.2, 400, (0.7, 8.0)),
])
def test_mirror_path_matches_whole_window_bitwise(monkeypatch, center,
                                                  amplitude, half, stops):
    state = _centred_single_site(amplitude, center, half)
    assert lattice._mirror_half(state.values) == half

    def trajectory():
        current, out = state, []
        for t in stops:
            current = integrate(current, t, 0.05, spill_tol=1.0)
            out.append(current)
        return out

    mirrored = trajectory()
    monkeypatch.setattr(lattice, "_mirror_half", lambda values: None)
    for got, want in zip(mirrored, trajectory()):
        assert (got.n_min, got.t) == (want.n_min, want.t)
        assert np.array_equal(_bits(got), _bits(want))


@pytest.mark.parametrize(
    "amplitude, half, t_end, dt, spill_tol, error, guard", [
    (0.3, 6, 10.0, 0.01, 1e-10, SpillError, "spill tolerance"),
    (0.9, 10, 50.0, 5.0, 1.0, BlowupError, "RK stage"),
    (0.05, 30, 200.0, 1.5, 1.0, BlowupError, "conserved bound"),
])
def test_mirror_path_fails_like_whole_window(monkeypatch, amplitude, half,
                                            t_end, dt, spill_tol, error,
                                            guard):
    state = _centred_single_site(amplitude, 4, half)
    assert lattice._mirror_half(state.values) == half
    got = _outcome(integrate, state, t_end, dt, spill_tol)
    monkeypatch.setattr(lattice, "_mirror_half", lambda values: None)
    want = _outcome(integrate, state, t_end, dt, spill_tol)
    assert want[0] is error and guard in want[1]
    assert got == want


def test_asymmetric_twins_take_the_whole_window():
    symmetric = _centred_single_site(0.3, 0, 20)
    perturbed = symmetric.values.copy()
    perturbed[25] = 1e-12
    twins = (
        LatticeState(n_min=-20, values=np.append(symmetric.values, 0.0)),
        InitialProfile(kind="single_site", amplitude=0.3,
                       center=1).realize(-20, 20),  # off the midpoint
        LatticeState(n_min=-20, values=perturbed),  # site 5 perturbed
    )
    for state in twins:
        assert lattice._mirror_half(state.values) is None
        got = integrate(state, 4.0, 0.05, spill_tol=1.0)
        want = oracle_integrate(state, 4.0, 0.05, spill_tol=1.0)
        assert np.array_equal(_bits(got), _bits(want))


# The plain RK4 loop that `integrate` replaced, kept as its reference: the
# in-place kernel performs the same floating-point operations in the same
# order, so the two must agree bit for bit, and fail in the same guard.

def _oracle_rhs(q):
    shift_up = np.empty_like(q)
    shift_up[:-1] = q[1:]
    shift_up[-1] = 0.0
    shift_dn = np.empty_like(q)
    shift_dn[1:] = q[:-1]
    shift_dn[0] = 0.0
    return (1.0 - q * q) * (shift_up - shift_dn)


def _oracle_stage(q, h, k):
    y = q + h * k
    if np.max(np.abs(y)) >= 1.0:
        raise BlowupError("sup|q| reached 1 at an RK stage point")
    return y


def oracle_integrate(initial, t_end, dt, spill_tol=1e-10):
    span = t_end - initial.t
    if span == 0.0:
        return initial
    nsteps = max(1, int(round(abs(span) / dt)))
    h = span / nsteps
    q = initial.values.copy()
    bound = rho_zero(initial) + 1e-9
    edge = max(1, len(q) // 10)
    for _ in range(nsteps):
        k1 = _oracle_rhs(q)
        k2 = _oracle_rhs(_oracle_stage(q, 0.5 * h, k1))
        k3 = _oracle_rhs(_oracle_stage(q, 0.5 * h, k2))
        k4 = _oracle_rhs(_oracle_stage(q, h, k3))
        q += (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        sup = np.max(np.abs(q))
        if sup >= 1.0:
            raise BlowupError(f"sup|q| = {sup:.6g} reached 1 during stepping")
        if sup > bound:
            raise BlowupError(
                f"sup|q| = {sup:.6g} exceeds conserved bound {bound:.6g}")
        spill = max(np.max(np.abs(q[:edge])), np.max(np.abs(q[-edge:])))
        if spill > spill_tol:
            raise SpillError(
                f"boundary amplitude {spill:.3g} exceeds spill tolerance "
                f"{spill_tol:.3g}; enlarge the window")
    return LatticeState(n_min=initial.n_min, values=q, t=initial.t + span)


def _outcome(fn, state, t_end, dt, spill_tol):
    try:
        return fn(state, t_end, dt, spill_tol=spill_tol)
    except (BlowupError, SpillError) as exc:
        return type(exc), str(exc)  # the message names the guard that fired


# Spans up to 300 steps cross many rescans of the active range; padding
# up to 150 sites lets the range either reach the window edge or stay
# inside it, and small padding with spill_tol = 1e-10 trips SpillError.
# A mirrored draw reflects `values` about its first entry, q_{c-n} =
# (-1)^n q_{c+n}, on an odd window, so `integrate` steps half of it.
@settings(max_examples=80, derandomize=True, deadline=None, database=None)
@given(values=st.lists(st.floats(-0.6, 0.6), min_size=1, max_size=30),
       mirror=st.booleans(),
       n_min=st.integers(-100, 100),
       pad=st.tuples(st.integers(0, 150), st.integers(0, 150)),
       span=st.floats(-6.0, 6.0),
       dt=st.sampled_from((0.02, 0.05, 0.1, 0.25)),
       spill_tol=st.sampled_from((1e-10, 1.0)))
@example(values=[0.6], mirror=False, n_min=0, pad=(10, 10), span=50.0,
         dt=5.0, spill_tol=1.0)  # stage BlowupError at the first step
@example(values=[0.3], mirror=False, n_min=0, pad=(6, 6), span=10.0,
         dt=0.01, spill_tol=1e-10)  # SpillError
@example(values=[0.3, -0.2], mirror=True, n_min=0, pad=(5, 0), span=10.0,
         dt=0.01, spill_tol=1e-10)  # SpillError on a mirrored window
def test_property_integrate_matches_oracle(values, mirror, n_min, pad, span,
                                           dt, spill_tol):
    if mirror:
        values = [(-1) ** n * values[n]
                  for n in range(len(values) - 1, 0, -1)] + values
        pad = (pad[0], pad[0])
    state = LatticeState(
        n_min=n_min - pad[0],
        values=np.concatenate([np.zeros(pad[0]), values, np.zeros(pad[1])]),
        t=1.5)
    if mirror:
        assert lattice._mirror_half(state.values) is not None
    got = _outcome(integrate, state, state.t + span, dt, spill_tol)
    want = _outcome(oracle_integrate, state, state.t + span, dt, spill_tol)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, LatticeState)
        assert (got.n_min, got.t) == (want.n_min, want.t)
        assert np.array_equal(got.values, want.values)
