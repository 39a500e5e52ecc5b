import cmath
import functools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import dmkdv.weights as weights
from dmkdv import (
    ArcSpec,
    DomainError,
    InitialProfile,
    LatticeState,
    QuadratureError,
    RayParams,
    ReflectionTooLargeError,
    coefficient_set,
    log_density,
    reflection_evaluator,
    staggered,
    stationary_points,
)
from dmkdv.weights import (
    _GK_NODES,
    _GK_WEIGHTS,
    _GL_NODES,
    _GL_WEIGHTS,
    _arc_sums,
    delta_j_arc,
)
from weights_oracles import (
    FourCrossSet,
    arc_sums_by_doubling,
    cauchy_arc_integral,
    chi_at_stationary,
    coefficient_set_by_arc,
    delta_arcs,
    delta_at,
    delta_j_at,
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


def constant_r(value):
    """r(z) = value everywhere, valued like r itself: shaped like z."""
    return lambda z: np.full(np.shape(z), value, dtype=complex)


def constant_density(value):
    """A density equal to `value` at every node, shaped like the nodes."""
    return lambda tau: np.full(np.shape(tau), value, dtype=float)


ZERO_EVAL = constant_r(0.0)

# the two-site data on an interior ray and on both rays v = +-1.8, plus
# the staggered 217-site gaussian(0.2, 2) support
COEFFICIENT_CASES = pytest.mark.parametrize("make_eval, n", [
    (two_site_eval, 30), (two_site_eval, 144), (two_site_eval, -144),
    (gaussian_eval, 30), (gaussian_eval, 144), (gaussian_eval, -144)])


def test_log_density_examples():
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


def test_gauss_legendre_rule_matches_numpy():
    # the rule is built without numpy.polynomial; leggauss is the reference
    nodes, wts = np.polynomial.legendre.leggauss(16)
    order = np.argsort(_GL_NODES)
    assert np.max(np.abs(_GL_NODES[order] - nodes)) < 1e-15
    assert np.max(np.abs(_GL_WEIGHTS[order] - wts) / wts) < 2e-14


def test_kronrod_rule_is_symmetric_inside_and_positive():
    # the Gauss nodes sit between the Kronrod nodes, all in (-1, 1)
    assert np.array_equal(_GK_NODES[1::2], _GL_NODES)
    assert np.all(np.diff(_GK_NODES) < 0)
    assert -1.0 < _GK_NODES[-1] and _GK_NODES[0] < 1.0
    assert np.array_equal(_GK_NODES, -_GK_NODES[::-1])
    assert np.all(_GK_WEIGHTS > 0)
    assert np.array_equal(_GK_WEIGHTS, _GK_WEIGHTS[::-1])


def test_kronrod_rule_integrates_every_power_to_49():
    for p in range(50):
        exact = 2.0 / (p + 1) if p % 2 == 0 else 0.0
        assert abs(_GK_WEIGHTS @ _GK_NODES ** p - exact) < 1e-15, p


def _kronrod_rule_mpmath(mp):
    """The 16/33 Gauss-Kronrod nodes and weights, descending, at the
    working precision of `mp`: the Gauss nodes are the zeros of P_16, the
    Kronrod ones those of the Stieltjes polynomial E_17 = x^17 + ...,
    orthogonal to P_16 x^k for k < 16 (one linear system in the moments
    int P_16 x^m, in closed form), and the weights solve
    sum_i w_i P_k(x_i) = 2 delta_k0 for k <= 32."""
    def moment(m):  # int_{-1}^{1} P_16(x) x^m dx
        if m < 16 or (m - 16) % 2:
            return mp.mpf(0)
        return (2 ** 17 * mp.factorial(m) * mp.factorial((m + 16) // 2)
                / (mp.factorial((m - 16) // 2) * mp.factorial(m + 17)))

    def even_zeros(coeffs):  # zeros of sum_k coeffs[k] x^(2k), descending
        ys = mp.polyroots(coeffs[::-1], maxsteps=200, extraprec=200)
        pos = sorted(mp.sqrt(mp.re(y)) for y in ys)
        return pos[::-1] + [-x for x in pos]

    gauss = even_zeros([(-1) ** k * mp.binomial(16, k)
                        * mp.binomial(32 - 2 * k, 16)
                        for k in range(8, -1, -1)])
    odd = range(1, 17, 2)
    c = mp.lu_solve(mp.matrix([[moment(j + k) for j in odd] for k in odd]),
                    mp.matrix([-moment(17 + k) for k in odd]))
    stieltjes = even_zeros([c[i] for i in range(8)] + [mp.mpf(1)])
    kronrod = stieltjes[:8] + [mp.mpf(0)] + stieltjes[8:]
    nodes = [None] * 33
    nodes[0::2], nodes[1::2] = kronrod, gauss
    legendre = mp.matrix(33, 33)
    for i, x in enumerate(nodes):
        p_prev, p = mp.mpf(1), x
        legendre[0, i] = p_prev
        for k in range(1, 33):
            legendre[k, i] = p
            p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    w = mp.lu_solve(legendre, mp.matrix([2] + [0] * 32))
    return nodes, [w[i] for i in range(33)]


def test_kronrod_rule_matches_an_mpmath_recomputation():
    with mpmath.workdps(40):
        nodes, wts = _kronrod_rule_mpmath(mpmath.mp)
        nodes = np.array([float(x) for x in nodes])
        wts = np.array([float(w) for w in wts])
    assert np.max(np.abs(_GK_NODES - nodes)) < 1e-15
    assert np.max(np.abs(_GK_WEIGHTS - wts) / wts) < 1e-15


def test_cauchy_arc_integral_examples():
    arc = ArcSpec.between(cmath.exp(-1j * math.pi / 4),
                          cmath.exp(1j * math.pi / 4))
    got = cauchy_arc_integral(constant_density(1.0), arc, 0.0)
    assert abs(got - 0.25) < 1e-11

    assert cauchy_arc_integral(constant_density(0.0), arc, 0.0) == 0.0


def test_cauchy_arc_integral_vs_dense_trapezoid():
    arc = ArcSpec.between(cmath.exp(-1j * math.pi / 4),
                          cmath.exp(1j * math.pi / 4))
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
    r_eval = reflection_evaluator(LatticeState(n_min=0, values=[0.3]))
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
    arc = ArcSpec.between(cmath.exp(-1j * math.pi / 4),
                          cmath.exp(1j * math.pi / 4))
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
    arc = ArcSpec.between(cmath.exp(1j * start),
                          cmath.exp(1j * (start - span if back
                                          else start + span)))
    assert _refused(arc, arc.start) and _refused(arc, arc.end)
    z = radius * cmath.exp(1j * angle)
    if min(abs(cmath.phase(z / p)) for p in (arc.start, arc.end)) \
            > ENDPOINT_BAND:
        assert _refused(arc, z) == (abs(abs(z) - 1.0) < 1e-13
                                    and _contains_angle(arc,
                                                        cmath.phase(z)))


def test_quadrature_error_on_unreachable_tolerance():
    arc = ArcSpec.between(cmath.exp(-1j * math.pi / 4),
                          cmath.exp(1j * math.pi / 4))
    wild = lambda tau: np.sin(200.0 * np.angle(tau)) / (np.abs(tau - 1.02) ** 2)
    with pytest.raises(QuadratureError):
        cauchy_arc_integral(wild, arc, 1.02, tol=1e-30)


@pytest.mark.parametrize("tol", [1e-14, 1e-16])
def test_quadrature_stops_at_the_rounding_floor(tol):
    # gaussian(0.5, 3) on the ray of v = -1.8, t = 50: arc 1's residual
    # |K - G| reads 1.2e-5, 1.4e-8 and 5.1e-14 at 1, 2 and 4 panels and
    # rises to 1.1e-13 at 8, noise above both tolerances and above the
    # 1.3e-14 floor; without the floor the sweep walks to 4,096 panels
    # (135,168 nodes)
    profile = InitialProfile(kind="gaussian", amplitude=0.5, width=3.0)
    r_eval = reflection_evaluator(staggered(profile.support_state()))
    sampled = []

    def counting(z):
        sampled.append(np.size(z))
        return r_eval(z)

    stat = stationary_points(RayParams(n=-89, t=50.0))
    with pytest.raises(QuadratureError, match="rounding floor"):
        coefficient_set(counting, stat, tol=tol)
    assert sampled[0] == 1  # S_1
    assert max(sampled) == 8 * 33  # arc 1 at 8 panels


@pytest.mark.parametrize("profile, n, t", [
    (InitialProfile(kind="single_site", amplitude=0.3), 51, 100.0),
    (InitialProfile(kind="gaussian", amplitude=0.2, width=2.0), 401, 800.0)])
def test_coefficient_set_settles_the_arc_at_its_first_level(profile, n, t):
    # arc 1 settles on one panel: one sample at S_1, then one of its 33
    # Kronrod nodes
    r_eval = reflection_evaluator(staggered(profile.support_state()))
    sampled = []

    def counting(z):
        sampled.append(np.size(z))
        return r_eval(z)

    coefficient_set(counting, stationary_points(RayParams(n=n, t=t)))
    assert sampled == [1, 33]


def test_a_nan_r_fails_at_the_first_sample():
    # the |r| < 1 guard refuses NaN as it refuses |r| >= 1 - 1e-8, at the
    # S_1, before a single panel level is sampled
    sampled = []

    def nan_r(z):
        sampled.append(np.size(z))
        return np.full(np.shape(z), complex(math.nan, 0.0))

    stat = stationary_points(RayParams(n=51, t=100.0))
    with pytest.raises(ReflectionTooLargeError, match=r"^max \|r\| = nan "):
        coefficient_set(nan_r, stat)
    assert sampled == [1]
    sampled.clear()
    with pytest.raises(ReflectionTooLargeError):
        delta_at(nan_r, stat, 0.0)
    assert sampled == [33]


def test_arcspec_validation():
    with pytest.raises(ValueError):
        ArcSpec.between(1.0 + 0.0j, -1.0 + 0.0j)  # central angle pi
    with pytest.raises(ValueError):
        ArcSpec.between(0.5 + 0.0j, 1.0 + 0.0j)   # off circle
    for start, end in ((complex(math.nan, 0.0), 1j),
                       (1.0, complex(0.0, math.nan))):
        with pytest.raises(ValueError, match="unit circle"):
            ArcSpec.between(start, end)
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

    # general ray: arcs subtend 4*theta0, theta0 = -arg S_1, |r| constant
    stat2 = stationary_points(RayParams(n=50, t=100.0))
    d0g = delta_at(r_eval, stat2, 0.0)
    expect = (1 - c * c) ** (2 * cmath.phase(stat2.S[0]) / math.pi)
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
    for val, j in zip(coeffs.delta_j0, (1, 3)):
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
    for i, j in enumerate((1, 3)):  # sgn = (-1)^(j-1) = 1
        k = j - 1
        ratio = stat.beta[k] / (stat.S[k] - anchors[k])
        expect = math.exp(-coeffs.nu * cmath.phase(ratio)
                          + coeffs.chi_at_S1.real) \
            * abs(coeffs.hat_delta_at_S[i])
        assert abs(abs(coeffs.delta_j0[i]) - expect) < 1e-10


def test_delta_j0_conjugate_pairing():
    # the even delta_j^0, swept arc by arc, are the conjugates of the odd
    # ones that rows keep
    stat = stationary_points(RayParams(n=21, t=60.0))
    r_eval = two_site_eval()
    coeffs = coefficient_set(r_eval, stat)
    ref = coefficient_set_by_arc(r_eval, stat)
    assert abs(ref.delta_j0[1] - coeffs.delta_j0[0].conjugate()) < 1e-9
    assert abs(ref.delta_j0[3] - coeffs.delta_j0[1].conjugate()) < 1e-9


@COEFFICIENT_CASES
def test_coefficient_set_matches_individual_operations(make_eval, n):
    # the one nu is every nu_j; chi_1(S_1) and hat_delta_j(S_j) are the
    # values at j = 1 and at j = 3, whose chi_3(S_3) is chi_1(S_1)
    stat = stationary_points(RayParams(n=n, t=80.0))
    r_eval = make_eval()
    coeffs = coefficient_set(r_eval, stat)
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
    # sweeps, one per arc, within the sums' rounding: r(S_1) and nu are
    # the same values, r(S_3) = -r(S_1) and nu_3 = nu, and the odd
    # crosses' coefficients lie within 1e-12 max(1, |ref|)
    r_eval = reflection_evaluator(
        LatticeState(n_min=n_min, values=np.array(values)))
    stat = stationary_points(RayParams(n=round(v * t), t=t))
    got = coefficient_set(r_eval, stat)
    ref = coefficient_set_by_arc(r_eval, stat)
    assert got.r_at_S1 == ref.r_at_S[0] and got.nu == ref.nu[0]
    assert ref.r_at_S[2] == -got.r_at_S1 and ref.nu[2] == got.nu
    for name, a, b in zip(ODD_FIELDS * 2, odd_values(got), odd_values(ref)):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), name


@settings(max_examples=100, derandomize=True, deadline=None, database=None)
@given(st.integers(-10, 10),
       st.lists(st.floats(-0.6, 0.6), min_size=1, max_size=8),
       st.floats(-1.8, 1.8),
       st.sampled_from((50.0, 100.0, 200.0)))
def test_property_kronrod_pair_matches_panel_doubling(n_min, values, v, t):
    # the Kronrod sums of the level where |K - G| <= tol against the
    # 16-point rule refined until two levels agree: r(S_1) and nu are
    # the same values, the rest lies within 1e-12 max(1, |ref|)
    r_eval = reflection_evaluator(
        LatticeState(n_min=n_min, values=np.array(values)))
    stat = stationary_points(RayParams(n=round(v * t), t=t))
    got = coefficient_set(r_eval, stat)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weights, "_arc_sums", arc_sums_by_doubling)
        ref = coefficient_set(r_eval, stat)
    assert got.r_at_S1 == ref.r_at_S1 and got.nu == ref.nu
    for name, a, b in zip(ODD_FIELDS * 2, odd_values(got), odd_values(ref)):
        assert abs(a - b) <= 1e-12 * max(1.0, abs(b)), name


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
    # Each arc is swept on its own, g(S_j) subtracted at its own S_j.
    r_eval = reflection_evaluator(staggered(profile.support_state()))
    stat = stationary_points(RayParams(n=n, t=t))
    g = log_density(r_eval, np.array(stat.S))
    sums = np.array([_arc_sums(functools.partial(log_density, r_eval),
                               delta_j_arc(stat, j), (0.0,) + stat.S,
                               np.where(np.arange(5) == j, g[j - 1], 0.0))
                     for j in (1, 2, 3, 4)])
    conj, neg = [0, 2, 1, 4, 3], [0, 3, 4, 1, 2]
    bound = 1e-13 * abs(sums).max()
    assert abs(sums[1] + sums[0, conj].conj()).max() <= bound
    assert abs(sums[3] + sums[2, conj].conj()).max() <= bound
    assert abs(sums[2] - sums[0, neg]).max() <= bound


@COEFFICIENT_CASES
def test_quadrature_self_convergence_of_coefficients(make_eval, n):
    stat = stationary_points(RayParams(n=n, t=80.0))
    r_eval = make_eval()
    loose = coefficient_set(r_eval, stat, tol=1e-9)
    tight = coefficient_set(r_eval, stat, tol=1e-12)
    assert abs(loose.delta_at_zero - tight.delta_at_zero) < 1e-9
    for k in range(2):  # j = 1, 3
        assert abs(loose.hat_delta_at_S[k] - tight.hat_delta_at_S[k]) < 1e-9
        assert abs(loose.delta_j0[k] - tight.delta_j0[k]) < 1e-8


def test_delta_at_zero_bounded_below_by_one():
    # density log(1-|r|^2) <= 0 makes |delta(0)| >= 1
    for r_eval in (single_site_eval(0.3), two_site_eval(), single_site_eval(0.7)):
        stat = stationary_points(RayParams(n=40, t=90.0))
        d0 = delta_at(r_eval, stat, 0.0)
        assert abs(d0) >= 1.0
        assert abs(d0.imag) < 1e-10  # real positive for real data
