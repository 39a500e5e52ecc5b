import cmath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dmkdv import (
    DomainError,
    InitialProfile,
    LatticeState,
    ReflectionTooLargeError,
    UnitCirclePoint,
    conserved_c_inf,
    reflection_evaluator,
    reflection_grid,
    scattering_coefficients,
    scattering_polynomials,
    staggered,
)
from dmkdv.scattering import ScatteringPolynomials, _trimmed


def single_site(c, site=0):
    half = abs(site) + 2
    q = np.zeros(2 * half + 1)
    q[half + site] = c
    return LatticeState(n_min=-half, values=q)


def circle_points(count):
    return [UnitCirclePoint.from_theta(2 * np.pi * k / count)
            for k in range(count)]


def brute_step(qn, n, z):
    # z^{-sigma3} Q~_n at t = 0, multiplied out entry by entry
    zinv = np.array([[1 / z, 0], [0, z]], dtype=complex)
    qt = np.array([[0, qn * z ** (-2 * n)], [qn * z ** (2 * n), 0]],
                  dtype=complex)
    return zinv @ qt


# Test-only oracle: the scalar transfer recursion, multiplied out site by
# site with one 2x2 matrix per site and per point z.

def jost_minus(q, z, n_stop):
    """Y_{n_stop}^(-) = prod_{k < n_stop} (I + B_k(z)), I far left."""
    y = np.eye(2, dtype=complex)
    for k in range(q.n_min, n_stop):
        y = (np.eye(2) + brute_step(q.value_at(k), k, z)) @ y
    return y


def jost_plus(q, z, n_stop):
    """Y_{n_stop}^(+) = prod_{k >= n_stop} (I + B_k(z))^-1, I far right."""
    y = np.eye(2, dtype=complex)
    for k in range(q.n_max, n_stop - 1, -1):
        y = np.linalg.solve(np.eye(2) + brute_step(q.value_at(k), k, z), y)
    return y


def oracle_coefficients(q, z, n_eval=None):
    """(a, b) from the determinant formulas at site n_eval,

    a = det(col1 Y^-, col2 Y^+) / det Y^+,
    b = det(col1 Y^+, col1 Y^-) / det Y^+;

    any site gives the same values.
    """
    n_eval = q.n_max + 1 if n_eval is None else n_eval
    ym = jost_minus(q, z, n_eval)
    yp = jost_plus(q, z, n_eval)
    det_p = yp[0, 0] * yp[1, 1] - yp[0, 1] * yp[1, 0]
    a = (ym[0, 0] * yp[1, 1] - yp[0, 1] * ym[1, 0]) / det_p
    b = (yp[0, 0] * ym[1, 0] - ym[0, 0] * yp[1, 0]) / det_p
    return a, b


def assert_matches_oracle(state, thetas, tol=1e-13):
    zs = np.exp(1j * np.asarray(thetas))
    a, b = scattering_polynomials(state)(zs)
    r = reflection_evaluator(state)(zs)
    for k, z in enumerate(zs):
        a_o, b_o = oracle_coefficients(state, complex(z))
        assert abs(a[k] - a_o) <= tol and abs(b[k] - b_o) <= tol
        assert abs(r[k] - b_o / a_o) <= tol
        # the scalar path evaluates the same polynomials
        assert abs(scattering_coefficients(state, complex(z)).r - r[k]) <= tol


def test_reduced_potential_examples():
    # B_n(z) as the oracle builds it
    z = UnitCirclePoint.from_theta(0.37).z
    assert np.all(brute_step(0.0, 0, z) == 0.0)
    np.testing.assert_allclose(
        brute_step(0.5, 0, z), [[0, 0.5 / z], [0.5 * z, 0]], atol=1e-15)
    np.testing.assert_allclose(
        brute_step(0.5, 1, 1j), [[0, 0.5j], [-0.5j, 0]], atol=1e-15)


def test_reduced_potential_matches_brute_form_at_random_points():
    # one nonzero site n: (a, b) is the first column of I + B_n(z)
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(-6, 7))
        qn = rng.uniform(-0.5, 0.5)
        z = UnitCirclePoint.from_theta(rng.uniform(-np.pi, np.pi)).z
        a, b = scattering_polynomials(single_site(qn, n))(z)
        step = np.eye(2) + brute_step(qn, n, z)
        np.testing.assert_allclose([a, b], step[:, 0], atol=1e-13)


def test_off_circle_and_nonzero_time_rejected():
    state = single_site(0.3)
    with pytest.raises(DomainError):
        reflection_evaluator(state)(1.2 + 0j)
    with pytest.raises(DomainError):
        reflection_evaluator(state)(np.array([1.0, 1.2j]))
    with pytest.raises(DomainError):
        scattering_coefficients(state, 1.2 + 0j)
    later = LatticeState(n_min=-2, values=state.values, t=1.0)
    with pytest.raises(ValueError):
        scattering_polynomials(later)


def test_jost_minus_examples():
    z = UnitCirclePoint.from_theta(1.1).z
    zero = LatticeState(n_min=-3, values=np.zeros(7))
    np.testing.assert_allclose(jost_minus(zero, z, 2), np.eye(2), atol=1e-15)

    state = single_site(0.4)
    got = jost_minus(state, z, 1)
    np.testing.assert_allclose(
        got, [[1, 0.4 / z], [0.4 * z, 1]], atol=1e-15)


def test_jost_minus_matches_summation_equation():
    # two-term evaluation of Y_n = I + sum_{k<n} B_k Y_k
    q0, q1 = 0.35, -0.2
    state = LatticeState(n_min=0, values=np.array([q0, q1]))
    z = UnitCirclePoint.from_theta(-0.6).z
    y0 = np.eye(2, dtype=complex)
    y1 = y0 + brute_step(q0, 0, z) @ y0
    y2 = y1 + brute_step(q1, 1, z) @ y1
    np.testing.assert_allclose(jost_minus(state, z, 2), y2, atol=1e-14)


def test_jost_plus_examples():
    z = UnitCirclePoint.from_theta(0.8).z
    zero = LatticeState(n_min=-3, values=np.zeros(7))
    np.testing.assert_allclose(jost_plus(zero, z, -1), np.eye(2), atol=1e-15)

    c = 0.4
    state = single_site(c)
    got = jost_plus(state, z, 0)
    expect = np.array([[1, -c / z], [-c * z, 1]]) / (1 - c * c)
    np.testing.assert_allclose(got, expect, atol=1e-14)

    # one site past the support the backward product is empty
    np.testing.assert_allclose(jost_plus(state, z, 3), np.eye(2), atol=1e-15)


def test_polynomials_match_oracle_random_data():
    rng = np.random.default_rng(31)
    for sites in (1, 2, 7, 19, 40):
        state = LatticeState(n_min=int(rng.integers(-30, 30)),
                             values=rng.uniform(-0.5, 0.5, sites))
        assert_matches_oracle(state, rng.uniform(-np.pi, np.pi, 16))


def test_polynomials_match_oracle_gaussian_support():
    # 217 sites, of which the outer ones underflow to exact zeros
    state = InitialProfile(kind="gaussian", amplitude=0.2,
                           width=2.0).support_state()
    thetas = np.linspace(-np.pi, np.pi, 24, endpoint=False) + 0.01
    assert_matches_oracle(state, thetas)
    assert_matches_oracle(staggered(state), thetas)


def test_scattering_zero_data():
    zero = LatticeState(n_min=-3, values=np.zeros(7))
    sd = scattering_coefficients(zero, UnitCirclePoint.from_theta(0.2))
    assert sd.a == 1.0 and sd.b == 0.0 and sd.r == 0.0


def test_scattering_single_site_closed_form():
    c = 0.3
    state = single_site(c)
    for pt in circle_points(64):
        sd = scattering_coefficients(state, pt)
        assert abs(sd.a - 1.0) < 1e-13
        assert abs(sd.b - c * pt.z) < 1e-13
        assert abs(sd.r - c * pt.z) < 1e-13


def test_unitarity_random_data():
    rng = np.random.default_rng(12)
    state = LatticeState(n_min=-4, values=rng.uniform(-0.5, 0.5, 8))
    c_inf = conserved_c_inf(state)
    for pt in circle_points(64):
        sd = scattering_coefficients(state, pt)
        assert abs(abs(sd.a) ** 2 - abs(sd.b) ** 2 - c_inf) < 1e-10
        assert abs(sd.r) < 1.0
        assert sd.c_inf == pytest.approx(c_inf)


def test_site_independence():
    # the oracle's determinant formulas give the polynomials' values at
    # every evaluation site
    rng = np.random.default_rng(4)
    state = LatticeState(n_min=-5, values=rng.uniform(-0.5, 0.5, 11))
    z = UnitCirclePoint.from_theta(0.33).z
    a, b = scattering_polynomials(state)(z)
    for n_eval in (-8, -2, 0, 3, 6, 20):
        a_o, b_o = oracle_coefficients(state, z, n_eval)
        assert abs(a_o - a) < 1e-12
        assert abs(b_o - b) < 1e-12


def test_conjugation_symmetry_real_data():
    rng = np.random.default_rng(9)
    state = LatticeState(n_min=-5, values=rng.uniform(-0.5, 0.5, 11))
    for theta in rng.uniform(-np.pi, np.pi, 12):
        plus = scattering_coefficients(state, UnitCirclePoint.from_theta(theta))
        minus = scattering_coefficients(state, UnitCirclePoint.from_theta(-theta))
        assert abs(minus.r - plus.r.conjugate()) < 1e-12
        assert abs(minus.a - plus.a.conjugate()) < 1e-12


def test_a_tends_to_one_radially():
    rng = np.random.default_rng(12)
    state = LatticeState(n_min=-4, values=rng.uniform(-0.5, 0.5, 8))
    poly = scattering_polynomials(state)
    # a = 1 + (negative powers of z): its top exponent is 0, coefficient 1
    assert poly.a_coeffs[-1] == 1.0
    assert poly.a_low + 2 * (len(poly.a_coeffs) - 1) == 0
    gaps = [abs(poly(radius * cmath.exp(0.4j))[0] - 1.0)
            for radius in (10.0, 100.0)]
    assert gaps[0] > gaps[1]
    assert gaps[1] < 1e-3


def test_reflection_grid_single_site():
    c = 0.3
    theta, r = reflection_grid(single_site(c), 64)
    assert theta.shape == r.shape == (64,)
    assert theta[0] == 0.0 and theta[32] == np.pi and theta[33] < 0.0
    assert np.all(np.abs(r - c * np.exp(1j * theta)) < 1e-13)


def test_reflection_grid_zero_and_validation():
    zero = LatticeState(n_min=-2, values=np.zeros(5))
    _, r = reflection_grid(zero, 64)
    assert np.all(r == 0.0)
    with pytest.raises(ValueError):
        reflection_grid(zero, 63)
    with pytest.raises(ValueError):
        reflection_grid(zero, 32)


def test_reflection_too_large():
    state = single_site(1.0 - 1e-9)
    with pytest.raises(ReflectionTooLargeError):
        reflection_grid(state, 64)


def test_staggered_rotates_spectral_parameter():
    # r_staggered(z) = r(iz)/i, exactly, for any real data
    rng = np.random.default_rng(21)
    state = LatticeState(n_min=-5, values=rng.uniform(-0.5, 0.5, 11))
    r_plain = reflection_evaluator(state)
    r_stag = reflection_evaluator(staggered(state))
    for theta in rng.uniform(-np.pi, np.pi, 10):
        z = cmath.exp(1j * theta)
        assert abs(r_stag(z) - r_plain(1j * z) / 1j) < 1e-12


def test_unit_circle_point_validation():
    with pytest.raises(DomainError):
        UnitCirclePoint.from_z(1.1 + 0j)
    pt = UnitCirclePoint.from_theta(4.0)  # wraps into (-pi, pi]
    assert -np.pi < pt.theta <= np.pi
    assert abs(pt.z - cmath.exp(1j * pt.theta)) < 1e-15


# Property tests over admissible finite-support data.  Each identity is
# checked to within the a-priori rounding bound of the polynomials on
# |z| = 1: the recursion adds O(eps) per site and the blocked evaluation
# O(eps) per coefficient (see test_property_blocked_matches_horner),
# relative to the coefficients of the same recursion run on |q|, whose
# sum is prod(1 + |q_k|).  That bound is sharp for small data and grows
# with prod(1 + |q_k|) for strongly reflecting data.

admissible_states = st.builds(
    lambda n_min, values: LatticeState(n_min=n_min, values=np.array(values)),
    st.integers(-60, 60),
    st.lists(st.floats(-0.9, 0.9), min_size=1, max_size=30))

PROPERTY = settings(max_examples=60, derandomize=True, deadline=None,
                    database=None)

CIRCLE = np.exp(2j * np.pi * (np.arange(64) + 0.25) / 64)


def rounding_bound(state, poly):
    steps = (np.count_nonzero(state.values) + len(poly.a_coeffs)
             + len(poly.b_coeffs))
    return 8 * steps * np.finfo(float).eps * np.prod(1 + np.abs(state.values))


@PROPERTY
@given(admissible_states)
def test_property_unitarity(state):
    poly = scattering_polynomials(state)
    err = rounding_bound(state, poly)
    a, b = poly(CIRCLE)
    defect = np.abs(np.abs(a) ** 2 - np.abs(b) ** 2 - conserved_c_inf(state))
    assert np.all(defect <= 4 * (np.abs(a) + np.abs(b) + err) * err)


@PROPERTY
@given(admissible_states)
def test_property_reflection_below_one(state):
    poly = scattering_polynomials(state)
    err = rounding_bound(state, poly)
    a, _ = poly(CIRCLE)
    r = reflection_evaluator(state)(CIRCLE)
    assert np.all(np.abs(r) < 1.0 + 2 * err / np.abs(a))


@PROPERTY
@given(admissible_states)
def test_property_staggering_rotates_z(state):
    poly = scattering_polynomials(state)
    err = rounding_bound(state, poly)
    a_rot, _ = poly(1j * CIRCLE)
    a_stag, _ = scattering_polynomials(staggered(state))(CIRCLE)
    gap = np.abs(reflection_evaluator(staggered(state))(CIRCLE)
                 - reflection_evaluator(state)(1j * CIRCLE) / 1j)
    assert np.all(gap <= 2 * err * (1 / np.abs(a_stag) + 1 / np.abs(a_rot)))


@PROPERTY
@given(admissible_states, st.integers(0, 6), st.integers(0, 6))
def test_property_zero_padding_invariance(state, left, right):
    padded = LatticeState(
        n_min=state.n_min - left,
        values=np.concatenate([np.zeros(left), state.values,
                               np.zeros(right)]))
    poly, poly_padded = (scattering_polynomials(state),
                         scattering_polynomials(padded))
    assert (poly_padded.a_coeffs, poly_padded.a_low) == \
        (poly.a_coeffs, poly.a_low)
    assert (poly_padded.b_coeffs, poly_padded.b_low) == \
        (poly.b_coeffs, poly.b_low)
    assert np.array_equal(reflection_evaluator(padded)(CIRCLE),
                          reflection_evaluator(state)(CIRCLE))


# The transfer recursion with two new arrays per site, the test-only
# oracle of scattering_polynomials, which updates in place: same
# products, same sums, so every coefficient is bitwise the same.

def recursion_oracle(q):
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
    return (_trimmed(u, -2 * span), _trimmed(w, 2 * (q.n_min + first) + 1),
            conserved_c_inf(q))


def assert_recursion_matches_oracle(state):
    poly = scattering_polynomials(state)
    (a_coeffs, a_low), (b_coeffs, b_low), c_inf = recursion_oracle(state)
    assert (poly.a_low, poly.b_low) == (a_low, b_low)
    assert list(map(float.hex, poly.a_coeffs)) == list(map(float.hex, a_coeffs))
    assert list(map(float.hex, poly.b_coeffs)) == list(map(float.hex, b_coeffs))
    assert float.hex(poly.c_inf) == float.hex(c_inf)


# zero gaps, and magnitudes down to 1e-300, whose products go subnormal
tiny_or_zero_values = st.lists(
    st.one_of(st.just(0.0), st.floats(-0.9, 0.9),
              st.builds(lambda m, e: m * 10.0 ** e, st.floats(-0.9, 0.9),
                        st.integers(-300, 0))),
    min_size=1, max_size=60)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(st.integers(-60, 60), tiny_or_zero_values)
def test_property_recursion_matches_oracle(n_min, values):
    assert_recursion_matches_oracle(
        LatticeState(n_min=n_min, values=np.array(values)))


def test_recursion_matches_oracle_on_4301_sites():
    values = np.random.default_rng(16).uniform(-0.3, 0.3, 4301)
    values[::7] = 0.0
    assert_recursion_matches_oracle(LatticeState(n_min=-2150, values=values))


# The blocked evaluation against a plain two-sided Horner sum, the
# test-only oracle.  Both are sums of the terms c_j z^e_j with
# relative errors in the terms only: Horner's at most 2 N eps, the
# blocked sum's at most (2 N + 32) eps (a table power x^k, k <= 16,
# carries k - 1 complex products of at most 1.5 eps each, a row sum of
# w <= 16 terms w/2 eps, and each of the N/w Horner steps in x^w about
# (3w + 1)/2 eps), for the N coefficients of the polynomial's longer
# half.  So the two differ by at most 4 (N + 16) eps sum_j |c_j| |z|^e_j,
# plus an underflow allowance of N times the smallest normal number in
# that sum; fixed before the first run.

def horner_oracle(coeffs, low, z):
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


def evaluation_bound(coeffs, low, z):
    p = min(max((1 - low) // 2, 0), len(coeffs))
    longest = max(p, len(coeffs) - p)
    exponents = low + 2 * np.arange(len(coeffs))
    scale = sum(abs(c) * np.abs(z) ** float(e)
                for c, e in zip(coeffs, exponents))
    scale += len(coeffs) * np.finfo(float).tiny
    return 4 * (longest + 16) * np.finfo(float).eps * scale


# lengths 0..300 drawn directly, the coefficients from a seeded generator
coefficient_lists = st.builds(
    lambda size, seed: tuple(
        np.random.default_rng(seed).uniform(-1.0, 1.0, size).tolist()),
    st.integers(0, 300), st.integers(0, 2 ** 32))
point_shapes = st.sampled_from([(), (7,), (3, 5)])


def points(seed, shape, radius=1.0):
    rng = np.random.default_rng(seed)
    return radius * np.exp(1j * rng.uniform(-np.pi, np.pi, shape))


def assert_matches_horner(coeffs, low, z, value):
    expected = horner_oracle(coeffs, low, z)
    assert np.shape(value) == np.shape(z)
    if len(coeffs) <= 1:
        assert np.array_equal(value, expected)
    assert np.all(np.abs(value - expected)
                  <= evaluation_bound(coeffs, low, z))


LONG = tuple(np.random.default_rng(5).uniform(-1.0, 1.0, 300).tolist())


@PROPERTY
@given(coefficient_lists, st.integers(-320, 320), coefficient_lists,
       st.integers(-320, 320), st.integers(0, 2 ** 32), point_shapes)
@example((0.7,), -5, (-0.3,), 301, 1, (3, 5))
@example((1.0,), 0, (), 17, 2, ())
@example((), -320, (0.25,), 1, 3, (7,))
@example((0.5,), -1, LONG, -100, 4, (7,))
def test_property_blocked_matches_horner(a_coeffs, a_low, b_coeffs, b_low,
                                         seed, shape):
    poly = ScatteringPolynomials(a_coeffs=a_coeffs, a_low=a_low,
                                 b_coeffs=b_coeffs, b_low=b_low, c_inf=1.0)
    z = np.asarray(points(seed, shape))
    a, b = poly(z)
    assert_matches_horner(poly.a_coeffs, a_low, z, a)
    assert_matches_horner(poly.b_coeffs, b_low, z, b)


@PROPERTY
@given(coefficient_lists, st.sampled_from([10.0, 100.0]),
       st.integers(0, 2 ** 32), point_shapes)
def test_property_blocked_matches_horner_off_circle(coeffs, radius, seed,
                                                   shape):
    # a's shape: exponents -2(N - 1) .. 0, so its terms shrink off the
    # circle, while b's would overflow
    low = -2 * max(len(coeffs) - 1, 0)
    poly = ScatteringPolynomials(a_coeffs=coeffs, a_low=low, b_coeffs=(),
                                 b_low=0, c_inf=1.0)
    z = np.asarray(points(seed, shape, radius))
    a, b = poly(z)
    assert_matches_horner(poly.a_coeffs, low, z, a)
    assert np.array_equal(b, np.zeros(shape))
