import cmath
import functools
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dmkdv.harness as harness
import dmkdv.model as model
import dmkdv.weights as weights
from dmkdv import (
    DomainError,
    InitialProfile,
    LatticeState,
    RayParams,
    ReflectionTooLargeError,
    RunConfig,
    coefficient_set,
    staggered,
    stationary_points,
)
from dmkdv.errors import ConditioningError
from weights_oracles import (
    Arc,
    FourCrossSet,
    QuadratureError,
    arc_sums_by_doubling,
    cauchy_arc_integral,
    chi_at_stationary,
    coefficient_set_by_arc,
    delta_arcs,
    delta_at,
    delta_j_arc,
    delta_j_at,
    hat_delta_at_stationary,
    log_density,
    nu_at,
    r_of,
    reflection,
)


def single_site_eval(c):
    """(r_eval, spectrum) of the value c at site 0 of sites -2..2; each
    *_eval gives the pair a row evaluates from."""
    q = np.zeros(5)
    q[2] = c
    return reflection(LatticeState(n_min=-2, values=q))


def two_site_eval(q0=0.35, q1=-0.2):
    return reflection(LatticeState(n_min=0, values=np.array([q0, q1])))


def gaussian_eval(amplitude=0.2, width=2.0):
    profile = InitialProfile(kind="gaussian", amplitude=amplitude,
                             width=width)
    return reflection(staggered(profile.support_state()))


def constant_r(value):
    """r(z) = value everywhere, valued like r itself: shaped like z."""
    return lambda z: np.full(np.shape(z), value, dtype=complex)


def constant_density(value):
    """A density equal to `value` at every node, shaped like the nodes."""
    return lambda tau: np.full(np.shape(tau), value, dtype=float)


ZERO_EVAL = constant_r(0.0)
ZERO = reflection(LatticeState(n_min=0, values=[0.0]))

# the two-site data on an interior ray and on both rays v = +-1.8, plus
# the staggered 217-site gaussian(0.2, 2) support
COEFFICIENT_CASES = pytest.mark.parametrize("make_data, n", [
    (two_site_eval, 30), (two_site_eval, 144), (two_site_eval, -144),
    (gaussian_eval, 30), (gaussian_eval, 144), (gaussian_eval, -144)])


def test_log_density_examples():
    # the r-form density of the oracles
    assert log_density(ZERO_EVAL, 1.0 + 0j) == 0.0
    r03 = constant_r(0.3)
    assert log_density(r03, 1j) == pytest.approx(math.log(0.91), abs=1e-15)
    r_exp = constant_r(math.sqrt(1.0 - math.exp(-2 * math.pi)))
    assert log_density(r_exp, 1j) == pytest.approx(-2 * math.pi, rel=1e-12)
    # shaped like z, scalar or array
    assert log_density(r03, np.ones((2, 3))).shape == (2, 3)
    r_big = constant_r(1.0 - 1e-9)
    r_nan = constant_r(complex(math.nan, 0.0))
    for r_eval in (r_big, r_nan):
        with pytest.raises(ReflectionTooLargeError):
            log_density(r_eval, 1.0 + 0j)


def test_cauchy_arc_integral_examples():
    arc = Arc(cmath.exp(-1j * math.pi / 4), cmath.exp(1j * math.pi / 4))
    got = cauchy_arc_integral(constant_density(1.0), arc, 0.0)
    assert abs(got - 0.25) < 1e-11

    assert cauchy_arc_integral(constant_density(0.0), arc, 0.0) == 0.0


def test_cauchy_arc_integral_vs_dense_trapezoid():
    arc = Arc(cmath.exp(-1j * math.pi / 4), cmath.exp(1j * math.pi / 4))
    z = 3.0 + 0.0j
    got = cauchy_arc_integral(constant_density(1.0), arc, z)
    thetas = np.linspace(arc.theta_start, arc.theta_start + arc.dtheta,
                         1_000_001)
    taus = np.exp(1j * thetas)
    vals = taus / (2 * math.pi * (taus - z))
    ref = np.trapezoid(vals, thetas)
    assert abs(got - ref) < 1e-10


def test_non_finite_evaluation_point_is_refused():
    # a NaN point would walk every panel level before a QuadratureError
    r_eval, _ = reflection(LatticeState(n_min=0, values=[0.3]))
    stat = stationary_points(RayParams(n=50, t=100.0))
    arc = delta_j_arc(stat, 1)
    for z in (complex(math.nan, 0.0), complex(math.inf, 0.0),
              complex(0.0, math.nan)):
        with pytest.raises(DomainError, match="not finite"):
            cauchy_arc_integral(constant_density(1.0), arc, z)
        with pytest.raises(DomainError, match="not finite"):
            delta_at(r_eval, stat, z)
        with pytest.raises(DomainError, match="not finite"):
            delta_j_at(r_eval, stat, 2, z)


def test_cauchy_rejects_point_on_arc():
    arc = Arc(cmath.exp(-1j * math.pi / 4), cmath.exp(1j * math.pi / 4))
    with pytest.raises(DomainError):
        cauchy_arc_integral(constant_density(1.0), arc, 1.0 + 0.0j)


def _contains_angle(arc, theta):
    # test-only copy of the deleted ArcSpec.contains_angle
    rel = (theta - arc.theta_start) / arc.dtheta
    rel_wrapped = ((theta - arc.theta_start + math.pi) % (2 * math.pi)
                   - math.pi) / arc.dtheta
    return (0.0 <= rel <= 1.0) or (0.0 <= rel_wrapped <= 1.0)


def _refused(arc, z):
    try:
        cauchy_arc_integral(constant_density(0.0), arc, z)
    except DomainError as exc:
        assert str(exc) == "evaluation point lies on the integration arc"
        return True
    return False


# Within this angle of an endpoint the old and the new test of a point
# round the same angle two ways and may disagree; fixed before the first
# run, a thousand times the rounding of an angle near pi.
ENDPOINT_BAND = 1e-12


@settings(max_examples=400, derandomize=True, deadline=None, database=None)
@given(st.floats(-math.pi, math.pi), st.floats(0.01, math.pi - 0.01),
       st.booleans(), st.floats(-math.pi, math.pi),
       st.sampled_from((1.0, 1.0 + 1e-14, 1.0 - 5e-14, 1.0 + 1e-12, 0.5)))
@example(3.0, 0.5, False, -3.0, 1.0)  # counterclockwise across the cut
@example(-3.0, 0.5, True, 3.0, 1.0)  # clockwise across the cut
@example(3.0, 0.5, False, math.pi, 1.0)
@example(-3.0, 0.5, True, -math.pi, 1.0)
@example(3.0, 0.5, False, 2.0, 1.0)  # off the arc, across the cut
def test_property_on_arc_refusal_matches_contains_angle(start, span, back,
                                                         angle, radius):
    # cauchy_arc_integral refuses a point of the circle where
    # 0 <= phase(z / start) / dtheta <= 1: where the deleted
    # contains_angle did, arcs across the cut at +-pi included, and at
    # both exact endpoints
    arc = Arc(cmath.exp(1j * start),
              cmath.exp(1j * (start - span if back else start + span)))
    assert _refused(arc, arc.start) and _refused(arc, arc.end)
    z = radius * cmath.exp(1j * angle)
    if min(abs(cmath.phase(z / p)) for p in (arc.start, arc.end)) \
            > ENDPOINT_BAND:
        assert _refused(arc, z) == (abs(abs(z) - 1.0) < 1e-13
                                    and _contains_angle(arc,
                                                        cmath.phase(z)))


def test_quadrature_error_on_unreachable_tolerance():
    # the oracle quadrature refuses rather than returns unsettled sums
    arc = Arc(cmath.exp(-1j * math.pi / 4), cmath.exp(1j * math.pi / 4))
    wild = lambda tau: np.sin(200.0 * np.angle(tau)) / (np.abs(tau - 1.02) ** 2)
    with pytest.raises(QuadratureError):
        cauchy_arc_integral(wild, arc, 1.02, tol=1e-30)


@pytest.mark.parametrize("tol", [1e-14, 1e-16])
def test_quadrature_stops_at_the_rounding_floor(tol):
    # the oracle quadrature on gaussian(0.5, 3), arc 1 of the ray
    # v = -1.8, t = 50: its residual stops falling at 16 panels, above both
    # tolerances and the 1.3e-14 floor; without the floor it walks to
    # 4,096 panels (65,536 nodes)
    r_eval, _ = gaussian_eval(0.5, 3.0)
    sampled = []

    def counting(z):
        sampled.append(np.size(z))
        return log_density(r_eval, z)

    stat = stationary_points(RayParams(n=-89, t=50.0))
    shifts = np.where(np.arange(5) == 1, log_density(r_eval, stat.S[0]), 0.0)
    with pytest.raises(QuadratureError, match="rounding floor"):
        arc_sums_by_doubling(counting, delta_j_arc(stat, 1),
                             (0.0,) + stat.S, shifts, tol)
    assert max(sampled) == 16 * 16  # arc 1 at 16 panels


@pytest.mark.parametrize("profile, n, t", [
    (InitialProfile(kind="single_site", amplitude=0.3), 51, 100.0),
    (InitialProfile(kind="gaussian", amplitude=0.2, width=2.0), 401, 800.0)])
def test_coefficient_set_samples_r_once(profile, n, t):
    # r is sampled at S_1 alone; the arcs read the profile's spectrum
    r_eval, spectrum = reflection(staggered(profile.support_state()))
    sampled = []

    def counting(z):
        sampled.append(np.size(z))
        return r_eval(z)

    coefficient_set(counting, spectrum,
                    stationary_points(RayParams(n=n, t=t)))
    assert sampled == [1]


def test_a_nan_r_fails_at_the_first_sample():
    # the |r| < 1 guard refuses NaN as it refuses |r| >= 1 - 1e-8, at the
    # S_1 of a row, and at the first level of the oracle quadrature
    sampled = []

    def nan_r(z):
        sampled.append(np.size(z))
        return np.full(np.shape(z), complex(math.nan, 0.0))

    stat = stationary_points(RayParams(n=51, t=100.0))
    with pytest.raises(ReflectionTooLargeError, match=r"^max \|r\| = nan "):
        coefficient_set(nan_r, ZERO[1], stat)
    assert sampled == [1]
    sampled.clear()
    with pytest.raises(ReflectionTooLargeError):
        delta_at(nan_r, stat, 0.0)
    assert sampled == [16]


def test_delta_trivial_and_closed_form():
    stat = stationary_points(RayParams(n=0, t=100.0))
    assert abs(delta_at(ZERO_EVAL, stat, 0.0) - 1.0) < 1e-12

    c = 0.3
    r_eval = single_site_eval(c)[0]
    d0 = delta_at(r_eval, stat, 0.0)
    assert abs(d0 - (1 - c * c) ** -0.5) < 1e-9

    # general ray: arcs subtend 4*theta0, theta0 = -arg S_1, |r| constant
    stat2 = stationary_points(RayParams(n=50, t=100.0))
    d0g = delta_at(r_eval, stat2, 0.0)
    expect = (1 - c * c) ** (2 * cmath.phase(stat2.S[0]) / math.pi)
    assert abs(d0g - expect) < 1e-9


def test_delta_decays_at_infinity():
    r_eval = single_site_eval(0.3)[0]
    stat = stationary_points(RayParams(n=50, t=100.0))
    gaps = [abs(delta_at(r_eval, stat, R * cmath.exp(0.9j)) - 1.0)
            for R in (20.0, 50.0, 100.0)]
    assert gaps[1] < 1e-2
    assert gaps[0] > gaps[1] > gaps[2]


def test_delta_product_identity():
    r_eval = single_site_eval(0.3)[0]
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
    r_eval = r_of(LatticeState(n_min=n_min, values=np.array(values)))
    stat = stationary_points(RayParams(n=round(100 * v), t=100.0))
    z = radius * cmath.exp(1j * angle)
    prod = 1.0 + 0.0j
    for j in (1, 2, 3, 4):
        prod *= delta_j_at(r_eval, stat, j, z)
    assert abs(delta_at(r_eval, stat, z) - prod) < 1e-9


def test_arc_layout():
    stat = stationary_points(RayParams(n=50, t=100.0))
    a1, a2 = delta_arcs(stat)
    for arc, through in ((a1, 1.0), (a2, -1.0)):  # the arc passes there
        with pytest.raises(DomainError, match="on the integration arc"):
            cauchy_arc_integral(constant_density(0.0), arc, through)
    assert delta_j_arc(stat, 1).start == 1.0 + 0.0j
    assert delta_j_arc(stat, 4).start == -1.0 + 0.0j
    assert delta_j_arc(stat, 2).end == stat.S[1]


def test_nu_examples():
    stat = stationary_points(RayParams(n=0, t=50.0))
    assert nu_at(ZERO_EVAL, stat, 1) == 0.0
    r_exp = constant_r(math.sqrt(1.0 - math.exp(-2 * math.pi)))
    assert nu_at(r_exp, stat, 2) == pytest.approx(1.0, rel=1e-12)
    nu = nu_at(single_site_eval(0.3)[0], stat, 3)
    assert nu == pytest.approx(-math.log(0.91) / (2 * math.pi), rel=1e-12)


def test_chi_vanishes_for_constant_modulus():
    stat = stationary_points(RayParams(n=30, t=80.0))
    for j in (1, 2, 3, 4):
        assert abs(chi_at_stationary(ZERO_EVAL, stat, j)) < 1e-12
        assert abs(chi_at_stationary(single_site_eval(0.3)[0], stat, j)) < 1e-10


def test_chi_self_convergence():
    r_eval = two_site_eval()[0]
    stat = stationary_points(RayParams(n=30, t=80.0))
    for j in (1, 2):
        loose = chi_at_stationary(r_eval, stat, j, tol=1e-9)
        tight = chi_at_stationary(r_eval, stat, j, tol=1e-12)
        assert abs(loose - tight) < 1e-9


def test_hat_delta_identities():
    stat = stationary_points(RayParams(n=30, t=80.0))
    for j in (1, 2, 3, 4):
        assert abs(hat_delta_at_stationary(ZERO_EVAL, stat, j) - 1.0) < 1e-12

    r_eval = two_site_eval()[0]
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
    coeffs = coefficient_set(*ZERO, stat)
    for val, j in zip(coeffs.delta_j0, (1, 3)):
        assert abs(abs(val) - 1.0) < 1e-12
        S = stat.S[j - 1]
        expect = cmath.exp(1j * (ray.n * cmath.phase(S) - ray.t * (S * S).imag))
        assert abs(val - expect) < 1e-12


def test_delta_j0_modulus_decomposition():
    ray = RayParams(n=21, t=60.0)
    stat = stationary_points(ray)
    coeffs = coefficient_set(*two_site_eval(), stat)
    anchors = (1.0, 1.0, -1.0, -1.0)
    for i, j in enumerate((1, 3)):  # sgn = (-1)^(j-1) = 1
        k = j - 1
        ratio = stat.beta[k] / (stat.S[k] - anchors[k])
        expect = math.exp(-coeffs.nu * cmath.phase(ratio)
                          + coeffs.chi_at_S1.real) \
            * abs(coeffs.hat_delta_at_S[i])
        assert abs(abs(coeffs.delta_j0[i]) - expect) < 1e-10


def test_delta_j0_conjugate_pairing():
    # the even delta_j^0, summed arc by arc, are the conjugates of the odd
    # ones that rows keep
    stat = stationary_points(RayParams(n=21, t=60.0))
    data = two_site_eval()
    coeffs = coefficient_set(*data, stat)
    ref = coefficient_set_by_arc(*data, stat)
    assert abs(ref.delta_j0[1] - coeffs.delta_j0[0].conjugate()) < 1e-9
    assert abs(ref.delta_j0[3] - coeffs.delta_j0[1].conjugate()) < 1e-9


@COEFFICIENT_CASES
def test_coefficient_set_matches_individual_operations(make_data, n):
    # against the oracle quadrature of the r-form density: the one nu is
    # every nu_j; chi_1(S_1) and hat_delta_j(S_j) are the values at j = 1
    # and at j = 3, whose chi_3(S_3) is chi_1(S_1)
    stat = stationary_points(RayParams(n=n, t=80.0))
    r_eval, spectrum = make_data()
    coeffs = coefficient_set(r_eval, spectrum, stat)
    assert coeffs.delta_at_zero == pytest.approx(delta_at(r_eval, stat, 0.0))
    for j in (1, 2, 3, 4):
        assert coeffs.nu == pytest.approx(nu_at(r_eval, stat, j))
    for i, j in enumerate((1, 3)):
        assert coeffs.chi_at_S1 == pytest.approx(
            chi_at_stationary(r_eval, stat, j), abs=1e-12)
        assert coeffs.hat_delta_at_S[i] == pytest.approx(
            hat_delta_at_stationary(r_eval, stat, j), abs=1e-11)


# a CoefficientSet's fields and the entries j = 1, 3 of a FourCrossSet
ODD_FIELDS = ("chi_at_S1", "hat_delta_at_S", "delta_j0", "delta_at_zero")


def odd_values(coeffs):
    """The values of ODD_FIELDS, flattened, of a CoefficientSet or, at
    j = 1, 3, of a FourCrossSet."""
    if isinstance(coeffs, FourCrossSet):
        return (coeffs.chi_at_S[0], *coeffs.hat_delta_at_S[0::2],
                *coeffs.delta_j0[0::2], coeffs.delta_at_zero)
    return (coeffs.chi_at_S1, *coeffs.hat_delta_at_S, *coeffs.delta_j0,
            coeffs.delta_at_zero)


@settings(max_examples=20, derandomize=True, deadline=None, database=None)
@given(st.integers(-10, 10),
       st.lists(st.floats(-0.6, 0.6), min_size=1, max_size=8),
       st.floats(-1.7, 1.7),
       st.sampled_from((20.0, 100.0, 400.0)))
def test_property_image_arcs_match_arc_by_arc(n_min, values, v, t):
    # arcs 2-4 read as images of arc 1 give the coefficients of four
    # closed-form calls, one per arc, within the sums' rounding: r(S_1)
    # and nu are the same values, r(S_3) = -r(S_1) and nu_3 = nu, and the
    # odd crosses' coefficients lie within 1e-12 max(1, |ref|)
    data = reflection(LatticeState(n_min=n_min, values=np.array(values)))
    stat = stationary_points(RayParams(n=round(v * t), t=t))
    got = coefficient_set(*data, stat)
    ref = coefficient_set_by_arc(*data, stat)
    assert got.r_at_S1 == ref.r_at_S[0] and got.nu == ref.nu[0]
    assert ref.r_at_S[2] == -got.r_at_S1 and ref.nu[2] == got.nu
    for name, a, b in zip(ODD_FIELDS * 2, odd_values(got), odd_values(ref)):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), name


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.integers(-10, 10),
       st.lists(st.floats(-0.3, 0.3), min_size=1, max_size=8),
       st.floats(-1.8, 1.8),
       st.sampled_from((50.0, 100.0, 200.0)))
def test_property_closed_forms_match_panel_doubling(n_min, values, v, t):
    # a row's arc-1 sums at (0, S_1, .., S_4), in closed form from the
    # spectrum, against the oracle quadrature of the r-form density with
    # g(S_1) from r(S_1) subtracted at S_1: within 1e-12
    r_eval, spectrum = reflection(
        LatticeState(n_min=n_min, values=np.array(values)))
    stat = stationary_points(RayParams(n=round(v * t), t=t))
    points = np.array((0.0,) + stat.S)
    got = weights._cauchy_sums(spectrum, *delta_j_arc(stat, 1), points)
    shifts = np.where(np.arange(5) == 1, log_density(r_eval, stat.S[0]), 0.0)
    ref = arc_sums_by_doubling(functools.partial(log_density, r_eval),
                               delta_j_arc(stat, 1), points, shifts)
    assert abs(got - ref).max() <= 1e-12


@pytest.mark.parametrize("profile", [
    InitialProfile(kind="gaussian", amplitude=0.5, width=3.0),
    InitialProfile(kind="custom_list", custom=(0.3, -0.2, 0.15, 0.4, -0.1))])
@pytest.mark.parametrize("n, t", [(-89, 50.0), (30, 80.0), (401, 800.0)])
def test_arc_sums_are_images_of_one_another(profile, n, t):
    # |r| on the circle is even under z -> conj(z) (real data) and under
    # z -> -z, so arc T2 -> S2 is the mirror image of arc T1 -> S1 and arc
    # T3 -> S3 its rotation by pi: the symmetry coefficient_set reads
    # arcs 2-4 by.  The points (0, S1, S2, S3, S4) map to (0, S2, S1, S4,
    # S3) under conjugation and to (0, S3, S4, S1, S2) under negation.
    # Each arc is summed on its own, F(S_j) subtracted at its own S_j.
    _, spectrum = reflection(staggered(profile.support_state()))
    stat = stationary_points(RayParams(n=n, t=t))
    points = np.array((0.0,) + stat.S)
    sums = np.array([weights._cauchy_sums(spectrum, *delta_j_arc(stat, j),
                                          points) for j in (1, 2, 3, 4)])
    conj, neg = [0, 2, 1, 4, 3], [0, 3, 4, 1, 2]
    bound = 1e-13 * abs(sums).max()
    assert abs(sums[1] + sums[0, conj].conj()).max() <= bound
    assert abs(sums[3] + sums[2, conj].conj()).max() <= bound
    assert abs(sums[2] - sums[0, neg]).max() <= bound


@COEFFICIENT_CASES
def test_quadrature_self_convergence_of_coefficients(make_data, n,
                                                     monkeypatch):
    # the spectrum is the trapezoid rule of the density's Fourier
    # integrals: cut at 1e-9 of its largest term instead of 1e-13, on a
    # coarser grid, the coefficients move by less than these bounds
    stat = stationary_points(RayParams(n=n, t=80.0))
    tight = coefficient_set(*make_data(), stat)
    monkeypatch.setattr(weights, "_SPECTRUM_CUT", 1e-9)
    loose = coefficient_set(*make_data(), stat)
    assert abs(loose.delta_at_zero - tight.delta_at_zero) < 1e-9
    for k in range(2):  # j = 1, 3
        assert abs(loose.hat_delta_at_S[k] - tight.hat_delta_at_S[k]) < 1e-9
        assert abs(loose.delta_j0[k] - tight.delta_j0[k]) < 1e-8


def test_delta_at_zero_bounded_below_by_one():
    # density log(1-|r|^2) <= 0 makes |delta(0)| >= 1
    for r_eval in (single_site_eval(0.3)[0], two_site_eval()[0],
                   single_site_eval(0.7)[0]):
        stat = stationary_points(RayParams(n=40, t=90.0))
        d0 = delta_at(r_eval, stat, 0.0)
        assert abs(d0) >= 1.0
        assert abs(d0.imag) < 1e-10  # real positive for real data


@pytest.mark.parametrize("amplitude, v", [(0.8, -1.5), (0.9, -1.5),
                                          (0.9, -1.0)])
def test_strong_rows_settle(amplitude, v):
    # every row with |n/t - v| <= 0.05 at t = 100, 200 of gaussian(a, 3),
    # nu up to 2.1; the r-form Gauss-Kronrod quadrature failed 1/11 and
    # 1/21 (a = 0.8), 10/11 and 19/21 (v = -1.5), 1/11 and 4/21 (v = -1)
    pair = harness.reflection_u(InitialProfile(kind="gaussian",
                                               amplitude=amplitude, width=3.0))
    for t in (100.0, 200.0):
        sites = range(round((v - 0.05) * t), round((v + 0.05) * t) + 1)
        assert len(sites) == round(0.1 * t) + 1
        for n in sites:
            result = harness.asymptotic_value(*pair, n, t)
            model.check_realness(result)
            assert math.isfinite(result.q_asym), (t, n)


def random_case(index):
    """(state, n, t) of case `index` of a draw from default_rng(5): 1-39
    sites uniform in (-0.6, 0.6) from n_min in [-10, 10), t in {20, 100,
    400, 800} and n = round(v t), v uniform in (-1.8, 1.8)."""
    rng = np.random.default_rng(5)
    for _ in range(index + 1):
        values = rng.uniform(-0.6, 0.6, rng.integers(1, 40))
        n_min = rng.integers(-10, 10)
        t = float(rng.choice([20.0, 100.0, 400.0, 800.0]))
        n = round(rng.uniform(-1.8, 1.8) * t)
    return LatticeState(n_min=int(n_min), values=values), n, t


@pytest.mark.parametrize("index, sites, n, t", [(7, 37, -1055, 800.0),
                                                (42, 36, 4, 20.0)])
def test_random_rows_with_a_narrow_density_settle(index, sites, n, t):
    # zeros of a(z) within 3e-4 of the circle (case 7) make the density
    # vary on a scale of 1e-3 rad: the r-form quadrature walked to 4,096
    # panels and failed, and the spectrum needs P = 2^19 (case 7) and
    # 2^16 (case 42)
    state, drawn_n, drawn_t = random_case(index)
    assert (state.values.size, drawn_n, drawn_t) == (sites, n, t)
    coeffs = coefficient_set(*reflection(state),
                             stationary_points(RayParams(n=n, t=t)))
    values = (coeffs.nu, coeffs.chi_at_S1, *coeffs.hat_delta_at_S,
              *coeffs.delta_j0, coeffs.delta_at_zero)
    assert all(cmath.isfinite(x) for x in values)
    assert coeffs.delta_at_zero.imag == 0.0
    assert coeffs.delta_at_zero.real >= 1.0


@pytest.mark.parametrize("sites", [20, 30])
def test_conditioning_guard_refuses_long_strong_data(sites):
    # (2N + 32) eps sum|a_i| / |a| reads 4.9e-2 at 20 sites of 0.9; at 30
    # the evaluated r reached |r| = 31.6 before the guard existed
    profile = InitialProfile(kind="custom_list", custom=(0.9,) * sites)
    with pytest.raises(ConditioningError, match="of its modulus"):
        harness.reflection_u(profile)


def test_wide_strong_profile_is_refused_by_the_spectrum_guards():
    # gaussian(0.2, 50): |a| reaches sum|a_i| = 7.8e9 at z = 1, so
    # 1 - |r| is about 2e-22 there, and min|a| = 0.17 carries a rounding
    # bound of 5.7e-2 (measured error 8e-7); the r-form rows sampled past
    # the peak and read q_asym = -1.3e-7 against q_direct = 0.196 at t = 4
    config = RunConfig(profile=InitialProfile(kind="gaussian", amplitude=0.2,
                                              width=50.0), t_list=(4.0,))
    [rec] = harness.run_compare(config, compute_direct=False)
    assert rec.fail_reason.startswith("ConditioningError: a(z) rounds to ")


def test_reflection_guard_refuses_every_row_of_a_near_reflector():
    # gaussian(0.6, 6) has 1 - max|r| = 6.4e-9: the spectrum's grid
    # finds it, so every row fails alike, with the guard's message
    config = RunConfig(profile=InitialProfile(kind="gaussian", amplitude=0.6,
                                              width=6.0),
                       v_list=(-1.5, -1.0, 0.5), t_list=(100.0, 200.0))
    records = harness.run_compare(config, compute_direct=False)
    assert len(records) == 6
    for rec in records:
        assert re.fullmatch(r"ReflectionTooLargeError: max \|r\| = "
                            r"0\.99999999\d at the sampled points",
                            rec.fail_reason)


def test_a_strong_profile_passes_both_guards():
    # gaussian(0.9, 3): 1 - max|r| = 5.4e-8, conditioning ratio 2.4e-10
    _, spectrum = gaussian_eval(0.9, 3.0)
    assert spectrum.conditioning <= weights.CONDITIONING_BOUND
    assert spectrum.grid <= weights._MAX_GRID
    assert np.all(np.isfinite(spectrum.coeffs))


def test_spectrum_cap_raises_conditioning_error(monkeypatch):
    # gaussian(0.9, 3) settles at P = 1024; with the cap at 512 it fails
    monkeypatch.setattr(weights, "_MAX_GRID", 512)
    with pytest.raises(ConditioningError, match="not decayed on 512"):
        gaussian_eval(0.9, 3.0)


def _mp_density(state, theta):
    """log(1 - |r|^2) at e^(i theta) by the transfer recursion at the
    working precision of mpmath."""
    z = mpmath.expj(theta)
    u, w = mpmath.mpc(1), mpmath.mpc(0)
    for k, q in zip(state.sites, state.values):
        q = mpmath.mpf(float(q))
        u, w = (u + q * z ** (-2 * k - 1) * w, w + q * z ** (2 * k + 1) * u)
    return mpmath.log(1 - abs(w / u) ** 2)


def test_series_density_matches_a_50_digit_transfer_recursion():
    # gaussian(0.9, 3), nu up to 2.1, at 64 circle points off the
    # spectrum's grid: F(tau) = d_0 + 2 sum d_m cos(m theta) within 1e-9
    profile = InitialProfile(kind="gaussian", amplitude=0.9, width=3.0)
    state = staggered(profile.support_state())
    _, spectrum = reflection(state)
    thetas = 2.0 * math.pi * (np.arange(64) + 0.3) / 64
    m = np.arange(1, spectrum.coeffs.size)
    series = spectrum.coeffs[0] + 2.0 * np.cos(
        np.outer(thetas, m)) @ spectrum.coeffs[1:]
    with mpmath.workdps(50):
        exact = np.array([float(_mp_density(state, th)) for th in thetas])
    assert np.abs(series - exact).max() <= 1e-9
