import cmath
import dataclasses
import math

import numpy as np
import pytest
import scipy.special

import dmkdv.model as model
from dmkdv import (
    ConventionError,
    LatticeState,
    RayParams,
    amplitude_envelope,
    coefficient_set,
    complex_gamma,
    cross_solutions,
    leading_term,
    m1_entry,
    stationary_points,
)
from weights_oracles import coefficient_set_by_arc, four_cross_sum, reflection

# r = 0 everywhere and its spectrum: the zero state's
ZERO = reflection(LatticeState(n_min=0, values=[0.0]))


def single_site(c):
    """(r_eval, spectrum) of the value c at site 0 of sites -2..2."""
    q = np.zeros(5)
    q[2] = c
    return reflection(LatticeState(n_min=-2, values=q))


# The rejected "uniform_phase" form of (m1^j)_12 takes e^(-i pi/4) for
# every j.  It is written out here as an oracle for the rotation that the
# bad-convention tests and the realness audit apply to m1_entry instead.
ROTATIONS = {"conjugate_pair": (1, 1, 1, 1),
             "uniform_phase": (-1j, 1, -1j, 1)}


def _oracle_uniform_phase(nu, r_at_S, j):
    # in m1_entry's pole-free form: nu / (r Gamma(-+ i nu)) is
    # -+ i rho conj(r) / Gamma(1 -+ i nu), rho = nu / |r|^2
    abs2 = abs(r_at_S) ** 2
    rho = nu / abs2 if abs2 > 2.0 ** -53 else 1.0 / (2.0 * math.pi)
    root = math.sqrt(2.0 * math.pi) * math.exp(-math.pi * nu / 2.0) \
        * rho * complex(r_at_S).conjugate()
    return root * cmath.exp(-0.25j * math.pi) \
        / complex_gamma(1.0 + (-1) ** j * 1j * nu)


def test_gamma_special_values():
    assert abs(complex_gamma(1.0) - 1.0) < 1e-14
    assert abs(complex_gamma(0.5) - math.sqrt(math.pi)) < 1e-14
    assert abs(complex_gamma(5.0) - 24.0) < 1e-12
    nu = 0.25
    assert abs(abs(complex_gamma(1.0 + 1j * nu)) ** 2
               - math.pi * nu / math.sinh(math.pi * nu)) < 1e-12


def test_gamma_matches_scipy_on_strip():
    # Re w from 1/2, the domain; |Im w| <= 3 covers the nu_j < 2.83 that
    # the |r| < 1 - 1e-8 guard admits
    worst = 0.0
    for re in np.linspace(0.5, 2.0, 16):
        for im in np.linspace(-3.0, 3.0, 49):
            w = complex(re, im)
            ref = scipy.special.gamma(w)
            worst = max(worst, abs(complex_gamma(w) - ref) / abs(ref))
    assert worst < 1e-12


def test_gamma_conjugation_and_poles():
    w = 1.0 + 1.7j
    assert abs(complex_gamma(w.conjugate())
               - complex_gamma(w).conjugate()) < 1e-14
    # the reflection half-plane, the poles and NaN are refused, not reached
    for outside in (0.3, 0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="Re w >= 1/2"):
            complex_gamma(outside)


def test_m1_entry_trivial_limits():
    for j in (1, 2, 3, 4):
        assert m1_entry(0.0, 0.3 + 0.1j, j) == 0.0
        assert m1_entry(0.2, 0.0, j) == 0.0
    for nu in (-0.1, math.nan):
        with pytest.raises(ValueError):
            m1_entry(nu, 0.3, 1)
    with pytest.raises(ValueError):
        m1_entry(0.1, 0.3, 5)


@pytest.mark.parametrize("nu", [0.001, 0.01, 0.1, 0.5])
@pytest.mark.parametrize("convention", ROTATIONS)
def test_m1_modulus_is_sqrt_nu(nu, convention):
    r_mod = math.sqrt(1.0 - math.exp(-2.0 * math.pi * nu))
    r_val = r_mod * cmath.exp(0.4j)
    for j in (1, 2, 3, 4):
        m1 = ROTATIONS[convention][j - 1] * m1_entry(nu, r_val, j)
        assert abs(abs(m1) - math.sqrt(nu)) < 1e-10


@pytest.mark.parametrize("nu", [0.001, 0.07, 0.5, 2.0])
def test_uniform_phase_is_the_odd_cross_rotation(nu):
    r_mod = math.sqrt(1.0 - math.exp(-2.0 * math.pi * nu))
    for angle in (-2.5, -0.9, 0.0, 0.4, 3.0):
        r_val = r_mod * cmath.exp(1j * angle)
        for j in (1, 2, 3, 4):
            oracle = _oracle_uniform_phase(nu, r_val, j)
            got = ROTATIONS["uniform_phase"][j - 1] * m1_entry(nu, r_val, j)
            if j % 2 == 0:
                assert got == oracle
            else:
                assert abs(got - oracle) <= 1e-15 * abs(oracle)


def test_m1_conjugate_pairing_selects_convention():
    nu = 0.07
    r_mod = math.sqrt(1.0 - math.exp(-2.0 * math.pi * nu))
    r1 = r_mod * cmath.exp(-0.9j)
    r2 = r1.conjugate()
    good = abs(m1_entry(nu, r2, 2) - m1_entry(nu, r1, 1).conjugate())
    # the rotation leaves j = 2 alone and turns j = 1 by -i
    bad = abs(m1_entry(nu, r2, 2) - (-1j * m1_entry(nu, r1, 1)).conjugate())
    assert good < 1e-14
    assert bad > 0.1 * math.sqrt(nu)


def test_leading_term_zero_reflection():
    ray = RayParams(n=20, t=50.0)
    stat = stationary_points(ray)
    coeffs = coefficient_set(*ZERO, stat)
    m1 = cross_solutions(coeffs)
    res = leading_term(stat, coeffs, m1)
    assert res.q_asym == 0.0
    assert res.odd_pair_residual == 0.0
    assert amplitude_envelope(res) == 0.0


def test_leading_term_modulus_bookkeeping():
    ray = RayParams(n=20, t=50.0)
    stat = stationary_points(ray)
    data = single_site(0.3)
    coeffs = coefficient_set(*data, stat)
    m1 = cross_solutions(coeffs)
    res = leading_term(stat, coeffs, m1)
    for i, k in enumerate((0, 2)):  # the odd crosses j = 1, 3
        expect = abs(stat.beta[k]) * math.sqrt(coeffs.nu) \
            * abs(coeffs.delta_j0[i]) ** 2
        assert abs(abs(res.contributions[i]) - expect) < 1e-12
    env = 2 * sum(abs(c) for c in res.contributions) / abs(res.delta_at_zero)
    assert amplitude_envelope(res) == pytest.approx(env)
    assert abs(res.q_asym) <= env + 1e-15
    # real data: the four-cross oracle's even contributions are the
    # conjugates of the row's odd ones
    four = four_cross_sum(stat, coefficient_set_by_arc(*data, stat))
    assert four.contributions[1] == pytest.approx(
        res.contributions[0].conjugate(), abs=1e-12)
    assert four.contributions[3] == pytest.approx(
        res.contributions[1].conjugate(), abs=1e-12)


def test_leading_term_realness_and_convention_guard():
    ray = RayParams(n=400, t=800.0)
    stat = stationary_points(ray)
    coeffs = coefficient_set(*single_site(0.3), stat)

    good = leading_term(stat, coeffs, cross_solutions(coeffs))
    assert good.odd_pair_residual < 1e-12
    model.check_realness(good)

    # leading_term reports the residual; check_realness is the guard.
    # (m1^1)_12 rotated by -i, e^(-i pi/4) in place of e^(+i pi/4) at S_1,
    # is a convention slip at one cross
    m1, m3 = cross_solutions(coeffs)
    bad = leading_term(stat, coeffs, (-1j * m1, m3))
    assert bad.odd_pair_residual > 1e-3
    with pytest.raises(ConventionError, match="^odd-pair residual"):
        model.check_realness(bad)
    # a NaN residual or envelope passes no comparison, so it fails too
    nan = complex(math.nan, 0.0)
    for broken in (dataclasses.replace(good, odd_pair_residual=math.nan),
                   dataclasses.replace(good, contributions=(nan,) * 2)):
        with pytest.raises(ConventionError, match="^odd-pair residual"):
            model.check_realness(broken)


def test_odd_pair_guard_sees_a_branch_slip_at_S3():
    # a 2 pi i slip in the branch of the nu power at S_3 multiplies
    # delta_3^0 by e^(-2 pi nu), and the slip at S_4 that keeps the
    # conjugate pairing does the same to delta_4^0: the four-cross sum
    # stays real, and only the odd pair sees the slip
    stat = stationary_points(RayParams(n=51, t=100.0))
    data = single_site(0.3)
    coeffs = coefficient_set(*data, stat)
    slip = math.exp(-2.0 * math.pi * coeffs.nu)
    assert slip < 0.95
    slipped = dataclasses.replace(
        coeffs, delta_j0=(coeffs.delta_j0[0], slip * coeffs.delta_j0[1]))
    model.check_realness(leading_term(stat, coeffs, cross_solutions(coeffs)))
    with pytest.raises(ConventionError, match="^odd-pair residual"):
        model.check_realness(
            leading_term(stat, slipped, cross_solutions(slipped)))

    four = coefficient_set_by_arc(*data, stat)
    d1, d2, d3, d4 = four.delta_j0
    slipped_four = four_cross_sum(stat, dataclasses.replace(
        four, delta_j0=(d1, d2, slip * d3, slip * d4)))
    assert slipped_four.imag_residual <= 1e-13 * slipped_four.envelope
    moved = slipped_four.value / four_cross_sum(stat, four).value - 1.0
    assert abs(moved) > 0.05


def test_contribution_modulus_symmetric_ray():
    # |contribution_j| = |beta_j| nu^(1/2) |delta_j^0|^2: |S_j| = 1 and
    # |(m1^j)_12| = nu^(1/2); on this ray theta_1 = -pi/4, Im S_1^2 = -1
    stat = stationary_points(RayParams(n=0, t=64.0))
    coeffs = coefficient_set(*single_site(0.3), stat)
    res = leading_term(stat, coeffs, cross_solutions(coeffs))
    assert cmath.phase(stat.S[0]) == pytest.approx(-math.pi / 4)
    assert (stat.S[0] * stat.S[0]).imag == pytest.approx(-1.0)
    for i, k in enumerate((0, 2)):  # the odd crosses j = 1, 3
        assert abs(res.contributions[i]) == pytest.approx(
            abs(stat.beta[k]) * math.sqrt(coeffs.nu)
            * abs(coeffs.delta_j0[i]) ** 2, rel=1e-12)


def test_oscillation_phase_slope_finite_difference():
    # d/dt arg(S^n e^{-i t kappa}) at fixed n equals -kappa by stationarity,
    # kappa_1 = Im S_1^2
    n, t, h = 30, 80.0, 1e-3
    vals = []
    for tt in (t - h, t + h):
        ray = RayParams(n=n, t=tt)
        stat = stationary_points(ray)
        coeffs = coefficient_set(*ZERO, stat)
        vals.append(coeffs.delta_j0[0])
    fd = cmath.phase(vals[1] / vals[0]) / (2 * h)
    S1 = stationary_points(RayParams(n=n, t=t)).S[0]
    assert fd == pytest.approx(-(S1 * S1).imag, abs=1e-5)


def test_amplitude_times_sqrt_t_constant_on_ray():
    # |contribution_1| t^(1/2) along the ray v = 1/2
    data = single_site(0.3)
    scaled = []
    for t in (100.0, 200.0, 400.0):
        stat = stationary_points(RayParams(n=round(0.5 * t), t=t))
        coeffs = coefficient_set(*data, stat)
        res = leading_term(stat, coeffs, cross_solutions(coeffs))
        scaled.append(abs(res.contributions[0]) * math.sqrt(t))
    assert max(scaled) / min(scaled) < 1.0 + 1e-9
