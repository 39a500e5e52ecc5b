import cmath
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dmkdv import (
    ArcSpec,
    DomainError,
    InitialProfile,
    LatticeState,
    QuadratureError,
    RayParams,
    ReflectionTooLargeError,
    cauchy_arc_integral,
    coefficient_set,
    delta_at,
    delta_j_at,
    log_density,
    reflection_evaluator,
    staggered,
    stationary_points,
)
from dmkdv.weights import (
    _GL_NODES,
    _GL_WEIGHTS,
    _level_nodes,
    delta_arcs,
    delta_j_arc,
)
from weights_oracles import (
    arc_nodes,
    chi_at_stationary,
    coefficient_set_by_arc,
    hat_delta_at_stationary,
    nu_at,
)


def single_site_eval(c):
    q = np.zeros(5)
    q[2] = c
    return reflection_evaluator(LatticeState(n_min=-2, values=q))


def two_site_eval(q0=0.35, q1=-0.2):
    return reflection_evaluator(LatticeState(n_min=0, values=np.array([q0, q1])))


def gaussian_eval():
    profile = InitialProfile(kind="gaussian", amplitude=0.2, width=2.0)
    return reflection_evaluator(staggered(profile.support_state()))


ZERO_EVAL = lambda z: 0.0 + 0.0j

# the two-site data on an interior ray and on both rays v = +-1.8, plus
# the staggered 217-site gaussian(0.2, 2) support
COEFFICIENT_CASES = pytest.mark.parametrize("make_eval, n", [
    (two_site_eval, 30), (two_site_eval, 144), (two_site_eval, -144),
    (gaussian_eval, 30), (gaussian_eval, 144), (gaussian_eval, -144)])


def test_log_density_examples():
    assert log_density(ZERO_EVAL, 1.0 + 0j) == 0.0
    r03 = lambda z: 0.3 + 0.0j
    assert log_density(r03, 1j) == pytest.approx(math.log(0.91), abs=1e-15)
    r_exp = lambda z: math.sqrt(1.0 - math.exp(-2 * math.pi))
    assert log_density(r_exp, 1j) == pytest.approx(-2 * math.pi, rel=1e-12)
    r_big = lambda z: 1.0 - 1e-9
    with pytest.raises(ReflectionTooLargeError):
        log_density(r_big, 1.0 + 0j)


def test_gauss_legendre_rule_matches_numpy():
    # the rule is built without numpy.polynomial; leggauss is the reference
    nodes, wts = np.polynomial.legendre.leggauss(16)
    order = np.argsort(_GL_NODES)
    assert np.max(np.abs(_GL_NODES[order] - nodes)) < 1e-15
    assert np.max(np.abs(_GL_WEIGHTS[order] - wts) / wts) < 2e-14


def test_cauchy_arc_integral_examples():
    arc = ArcSpec.between(cmath.exp(-1j * math.pi / 4),
                          cmath.exp(1j * math.pi / 4))
    one = lambda tau: 1.0
    got = cauchy_arc_integral(one, arc, 0.0)
    assert abs(got - 0.25) < 1e-11

    zero = lambda tau: 0.0
    assert cauchy_arc_integral(zero, arc, 0.0) == 0.0


def test_cauchy_arc_integral_vs_dense_trapezoid():
    arc = ArcSpec.between(cmath.exp(-1j * math.pi / 4),
                          cmath.exp(1j * math.pi / 4))
    z = 3.0 + 0.0j
    got = cauchy_arc_integral(lambda tau: 1.0, arc, z)
    thetas = np.linspace(arc.theta_start, arc.theta_start + arc.dtheta,
                         1_000_001)
    taus = np.exp(1j * thetas)
    vals = taus / (2 * math.pi * (taus - z))
    ref = np.trapezoid(vals, thetas)
    assert abs(got - ref) < 1e-10


def test_cauchy_rejects_point_on_arc():
    arc = ArcSpec.between(cmath.exp(-1j * math.pi / 4),
                          cmath.exp(1j * math.pi / 4))
    with pytest.raises(DomainError):
        cauchy_arc_integral(lambda tau: 1.0, arc, 1.0 + 0.0j)


def test_quadrature_error_on_unreachable_tolerance():
    arc = ArcSpec.between(cmath.exp(-1j * math.pi / 4),
                          cmath.exp(1j * math.pi / 4))
    wild = lambda tau: np.sin(200.0 * np.angle(tau)) / (np.abs(tau - 1.02) ** 2)
    with pytest.raises(QuadratureError):
        cauchy_arc_integral(wild, arc, 1.02, tol=1e-30)


@pytest.mark.parametrize("tol", [1e-14, 1e-16])
def test_quadrature_stops_at_the_rounding_floor(tol):
    # gaussian(0.5, 3) on the ray of v = -1.8, t = 50: the first arc's
    # residual falls to 5.8e-14 at 8 panels and rises to 1.1e-13 at 16,
    # rounding noise above both tolerances; without the floor the sweep
    # walks to 4,096 panels (65,536 nodes)
    profile = InitialProfile(kind="gaussian", amplitude=0.5, width=3.0)
    r_eval = reflection_evaluator(staggered(profile.support_state()))
    sampled = []

    def counting(z):
        sampled.append(np.size(z))
        return r_eval(z)

    stat = stationary_points(RayParams(n=-89, t=50.0))
    with pytest.raises(QuadratureError, match="rounding floor"):
        coefficient_set(counting, stat, tol=tol)
    assert sampled[0] == 4 + 4 * 16 + 4 * 32  # the S_j, levels 0 and 1
    assert max(sampled) == 4 * 16 * 16  # four open arcs at 16 panels


@pytest.mark.parametrize("profile, n, t", [
    (InitialProfile(kind="single_site", amplitude=0.3), 51, 100.0),
    (InitialProfile(kind="gaussian", amplitude=0.2, width=2.0), 401, 800.0)])
def test_coefficient_set_samples_r_once_per_level(profile, n, t):
    # every arc settles at 2 panels: one sample holds the four S_j and
    # the four arcs' nodes at 1 and 2 panels, 16 and 32 each
    r_eval = reflection_evaluator(staggered(profile.support_state()))
    sampled = []

    def counting(z):
        sampled.append(np.size(z))
        return r_eval(z)

    coefficient_set(counting, stationary_points(RayParams(n=n, t=t)))
    assert sampled == [4 + 4 * 16 + 4 * 32]


def test_arcspec_validation():
    with pytest.raises(ValueError):
        ArcSpec.between(1.0 + 0.0j, -1.0 + 0.0j)  # central angle pi
    with pytest.raises(ValueError):
        ArcSpec.between(0.5 + 0.0j, 1.0 + 0.0j)   # off circle
    arc = ArcSpec.between(cmath.exp(1j * (math.pi - 0.2)),
                          cmath.exp(1j * (-math.pi + 0.2)))
    assert arc.dtheta == pytest.approx(0.4)  # short arc through -1


def test_delta_trivial_and_closed_form():
    stat = stationary_points(RayParams(n=0, t=100.0))
    assert abs(delta_at(ZERO_EVAL, stat, 0.0) - 1.0) < 1e-12

    c = 0.3
    r_eval = single_site_eval(c)
    d0 = delta_at(r_eval, stat, 0.0)
    assert abs(d0 - (1 - c * c) ** -0.5) < 1e-9

    # general ray: arcs subtend 4*theta0, |r| constant
    stat2 = stationary_points(RayParams(n=50, t=100.0))
    d0g = delta_at(r_eval, stat2, 0.0)
    expect = (1 - c * c) ** (-2 * stat2.theta0 / math.pi)
    assert abs(d0g - expect) < 1e-9


def test_delta_decays_at_infinity():
    r_eval = single_site_eval(0.3)
    stat = stationary_points(RayParams(n=50, t=100.0))
    gaps = [abs(delta_at(r_eval, stat, R * cmath.exp(0.9j)) - 1.0)
            for R in (20.0, 50.0, 100.0)]
    assert gaps[1] < 1e-2
    assert gaps[0] > gaps[1] > gaps[2]


def test_delta_product_identity():
    r_eval = single_site_eval(0.3)
    stat = stationary_points(RayParams(n=50, t=100.0))
    radii = list(np.linspace(0.3, 0.85, 10)) + list(np.linspace(1.15, 2.0, 10))
    worst = 0.0
    for k, radius in enumerate(radii):
        z = radius * cmath.exp(2j * math.pi * k / len(radii))
        d = delta_at(r_eval, stat, z)
        prod = 1.0 + 0.0j
        for j in (1, 2, 3, 4):
            prod *= delta_j_at(r_eval, stat, j, z)
        worst = max(worst, abs(d - prod))
    assert worst < 1e-9


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(st.integers(-10, 10),
       st.lists(st.floats(-0.6, 0.6), min_size=1, max_size=8),
       st.floats(-1.8, 1.8),
       st.one_of(st.floats(0.3, 0.85), st.floats(1.15, 2.0)),
       st.floats(-math.pi, math.pi))
def test_property_delta_product_identity(n_min, values, v, radius, angle):
    r_eval = reflection_evaluator(
        LatticeState(n_min=n_min, values=np.array(values)))
    stat = stationary_points(RayParams(n=round(100 * v), t=100.0))
    z = radius * cmath.exp(1j * angle)
    prod = 1.0 + 0.0j
    for j in (1, 2, 3, 4):
        prod *= delta_j_at(r_eval, stat, j, z)
    assert abs(delta_at(r_eval, stat, z) - prod) < 1e-9


def test_arc_layout():
    stat = stationary_points(RayParams(n=50, t=100.0))
    a1, a2 = delta_arcs(stat)
    assert a1.contains_angle(0.0)                      # passes through +1
    assert a2.contains_angle(math.pi)                  # passes through -1
    assert delta_j_arc(stat, 1).start == 1.0 + 0.0j
    assert delta_j_arc(stat, 4).start == -1.0 + 0.0j
    assert delta_j_arc(stat, 2).end == stat.S[1]


def test_nu_examples():
    stat = stationary_points(RayParams(n=0, t=50.0))
    assert nu_at(ZERO_EVAL, stat, 1) == 0.0
    r_exp = lambda z: math.sqrt(1.0 - math.exp(-2 * math.pi))
    assert nu_at(r_exp, stat, 2) == pytest.approx(1.0, rel=1e-12)
    nu = nu_at(single_site_eval(0.3), stat, 3)
    assert nu == pytest.approx(-math.log(0.91) / (2 * math.pi), rel=1e-12)


def test_chi_vanishes_for_constant_modulus():
    stat = stationary_points(RayParams(n=30, t=80.0))
    for j in (1, 2, 3, 4):
        assert abs(chi_at_stationary(ZERO_EVAL, stat, j)) < 1e-12
        assert abs(chi_at_stationary(single_site_eval(0.3), stat, j)) < 1e-10


def test_chi_self_convergence():
    r_eval = two_site_eval()
    stat = stationary_points(RayParams(n=30, t=80.0))
    for j in (1, 2):
        loose = chi_at_stationary(r_eval, stat, j, tol=1e-9)
        tight = chi_at_stationary(r_eval, stat, j, tol=1e-12)
        assert abs(loose - tight) < 1e-9


def test_hat_delta_identities():
    stat = stationary_points(RayParams(n=30, t=80.0))
    for j in (1, 2, 3, 4):
        assert abs(hat_delta_at_stationary(ZERO_EVAL, stat, j) - 1.0) < 1e-12

    r_eval = two_site_eval()
    # product identity delta_j * hat_delta_j = delta away from the circle
    z = 2.0 + 0.0j
    d = delta_at(r_eval, stat, z)
    for j in (1, 2, 3, 4):
        prod = delta_j_at(r_eval, stat, j, z)
        for k in (1, 2, 3, 4):
            if k != j:
                prod *= delta_j_at(r_eval, stat, k, z)
        assert abs(prod - d) < 1e-9

    # conjugation pairing for real lattice data
    hd1 = hat_delta_at_stationary(r_eval, stat, 1)
    hd2 = hat_delta_at_stationary(r_eval, stat, 2)
    hd3 = hat_delta_at_stationary(r_eval, stat, 3)
    hd4 = hat_delta_at_stationary(r_eval, stat, 4)
    assert abs(hd2 - hd1.conjugate()) < 1e-9
    assert abs(hd4 - hd3.conjugate()) < 1e-9


def test_delta_j0_reflectionless_is_unimodular():
    ray = RayParams(n=21, t=60.0)
    stat = stationary_points(ray)
    coeffs = coefficient_set(ZERO_EVAL, stat)
    for j in (1, 2, 3, 4):
        val = coeffs.delta_j0[j - 1]
        assert abs(abs(val) - 1.0) < 1e-12
        S = stat.S[j - 1]
        expect = cmath.exp(1j * (ray.n * cmath.phase(S) - ray.t * (S * S).imag))
        assert abs(val - expect) < 1e-12


def test_delta_j0_modulus_decomposition():
    ray = RayParams(n=21, t=60.0)
    stat = stationary_points(ray)
    r_eval = two_site_eval()
    coeffs = coefficient_set(r_eval, stat)
    anchors = (1.0, 1.0, -1.0, -1.0)
    for j in (1, 2, 3, 4):
        k = j - 1
        sgn = (-1) ** (j - 1)
        ratio = stat.beta[k] / (stat.S[k] - anchors[k])
        expect = math.exp(-coeffs.nu[k] * sgn * cmath.phase(ratio)
                          + sgn * coeffs.chi_at_S[k].real) \
            * abs(coeffs.hat_delta_at_S[k])
        assert abs(abs(coeffs.delta_j0[k]) - expect) < 1e-10


def test_delta_j0_conjugate_pairing():
    stat = stationary_points(RayParams(n=21, t=60.0))
    coeffs = coefficient_set(two_site_eval(), stat)
    assert abs(coeffs.delta_j0[1] - coeffs.delta_j0[0].conjugate()) < 1e-9
    assert abs(coeffs.delta_j0[3] - coeffs.delta_j0[2].conjugate()) < 1e-9


@COEFFICIENT_CASES
def test_coefficient_set_matches_individual_operations(make_eval, n):
    stat = stationary_points(RayParams(n=n, t=80.0))
    r_eval = make_eval()
    coeffs = coefficient_set(r_eval, stat)
    assert coeffs.delta_at_zero == pytest.approx(delta_at(r_eval, stat, 0.0))
    for j in (1, 2, 3, 4):
        assert coeffs.nu[j - 1] == pytest.approx(nu_at(r_eval, stat, j))
        assert coeffs.chi_at_S[j - 1] == pytest.approx(
            chi_at_stationary(r_eval, stat, j), abs=1e-12)
        assert coeffs.hat_delta_at_S[j - 1] == pytest.approx(
            hat_delta_at_stationary(r_eval, stat, j), abs=1e-11)


def _bits(coeffs) -> list:
    return [float.hex(x) for value in dataclasses.astuple(coeffs)
            for z in np.ravel(value) for x in (z.real, z.imag)]


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(st.integers(-10, 10),
       st.lists(st.floats(-0.6, 0.6), min_size=1, max_size=8),
       st.floats(-1.7, 1.7),
       st.sampled_from((20.0, 100.0, 400.0)))
def test_property_batched_sums_equal_arc_by_arc(n_min, values, v, t):
    # one sample per level for all arcs gives bitwise the sums of one
    # sweep per arc
    r_eval = reflection_evaluator(
        LatticeState(n_min=n_min, values=np.array(values)))
    stat = stationary_points(RayParams(n=round(v * t), t=t))
    assert _bits(coefficient_set(r_eval, stat)) == _bits(
        coefficient_set_by_arc(r_eval, stat))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(st.lists(st.tuples(st.floats(-math.pi, math.pi),
                          st.floats(0.01, math.pi - 0.01), st.booleans()),
                min_size=1, max_size=4),
       st.integers(1, 64))
def test_property_level_nodes_equal_one_arc_nodes(ends, panels):
    # the nodes of one level, computed for all arcs at once, are bitwise
    # those of each arc on its own
    arcs = [ArcSpec.between(cmath.exp(1j * start),
                            cmath.exp(1j * (start - span if back
                                            else start + span)))
            for start, span, back in ends]
    halves, taus = _level_nodes(arcs, panels)
    assert taus.shape == (len(arcs), 16 * panels)
    for arc, half, tau in zip(arcs, halves.tolist(), taus):
        want_half, want_tau = arc_nodes(arc, panels)
        assert float.hex(half) == float.hex(want_half)
        assert tau.tobytes() == want_tau.tobytes()


@COEFFICIENT_CASES
def test_quadrature_self_convergence_of_coefficients(make_eval, n):
    stat = stationary_points(RayParams(n=n, t=80.0))
    r_eval = make_eval()
    loose = coefficient_set(r_eval, stat, tol=1e-9)
    tight = coefficient_set(r_eval, stat, tol=1e-12)
    assert abs(loose.delta_at_zero - tight.delta_at_zero) < 1e-9
    for k in range(4):
        assert abs(loose.hat_delta_at_S[k] - tight.hat_delta_at_S[k]) < 1e-9
        assert abs(loose.delta_j0[k] - tight.delta_j0[k]) < 1e-8


def test_delta_at_zero_bounded_below_by_one():
    # density log(1-|r|^2) <= 0 makes |delta(0)| >= 1
    for r_eval in (single_site_eval(0.3), two_site_eval(), single_site_eval(0.7)):
        stat = stationary_points(RayParams(n=40, t=90.0))
        d0 = delta_at(r_eval, stat, 0.0)
        assert abs(d0) >= 1.0
        assert abs(d0.imag) < 1e-10  # real positive for real data
