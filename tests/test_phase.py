import cmath
import math

import numpy as np
import pytest

from dmkdv import (
    DomainError,
    MergingPointsError,
    RayParams,
    phase_derivative,
    stationary_points,
)


def direct_second_derivative(z, ray):
    return ray.t * (1 - 3 * z ** -4) + ray.n / (z * z)


def random_ray(rng, v_lim=1.8):
    v = rng.uniform(-v_lim, v_lim)
    t = rng.uniform(1.0, 1000.0)
    n = int(v * t)  # truncation keeps |n/t| <= |v|
    return RayParams(n=n, t=t)


def test_phase_examples():
    # phi'(z) = t(z + z^-3) - n/z: 2t - n at z = 1, i(2t + n) at z = i
    ray = RayParams(n=5, t=3.0)
    assert phase_derivative(1.0, ray) == 1.0
    assert abs(phase_derivative(1j, ray) - 11j) < 1e-14
    with pytest.raises(DomainError):
        phase_derivative(0.0, ray)


def test_stationary_points_symmetric_ray():
    stat = stationary_points(RayParams(n=0, t=5.0))
    expect = [cmath.exp(-1j * math.pi / 4), cmath.exp(1j * math.pi / 4),
              cmath.exp(3j * math.pi / 4), cmath.exp(-3j * math.pi / 4)]
    for got, want in zip(stat.S, expect):
        assert abs(got - want) < 1e-14
    assert -cmath.phase(stat.S[0]) == pytest.approx(math.pi / 4)


def test_stationary_point_modulus_identity():
    stat = stationary_points(RayParams(n=100, t=100.0))
    A = stat.S[0]
    assert abs(A - (math.sqrt(3) - 1j) / 2) < 1e-14
    for s in stat.S:
        assert abs(abs(s) - 1.0) < 1e-12


def test_first_derivative_vanishes_random_rays():
    rng = np.random.default_rng(42)
    for _ in range(100):
        ray = random_ray(rng)
        stat = stationary_points(ray)
        for s in stat.S:
            assert abs(phase_derivative(s, ray)) < 1e-10
        assert stat.S[1] == stat.S[0].conjugate()
        assert stat.S[3] == stat.S[2].conjugate()


def test_scaling_factor_identity():
    ray0 = RayParams(n=0, t=1.0)
    beta1 = stationary_points(ray0).beta[0]
    assert abs(beta1 ** 2 - 0.125j) < 1e-14  # phi'' beta^2 = i/2 with phi''=4

    rng = np.random.default_rng(15)
    for _ in range(100):
        ray = random_ray(rng)
        stat = stationary_points(ray)
        mod = 0.5 * (4 * ray.t ** 2 - ray.n ** 2) ** -0.25
        for j in (1, 2, 3, 4):
            phi_dd = direct_second_derivative(stat.S[j - 1], ray)
            identity = phi_dd * stat.beta[j - 1] ** 2 - (-1) ** (j + 1) * 0.5j
            assert abs(identity) < 1e-12
            assert abs(abs(stat.beta[j - 1]) - mod) < 1e-14


def test_scaling_factor_homogeneity():
    v = 0.5
    b1 = stationary_points(RayParams(n=50, t=100.0)).beta[0]
    b2 = stationary_points(RayParams(n=200, t=400.0)).beta[0]
    assert abs(b2 / b1) == pytest.approx(0.5, rel=1e-12)


def test_merging_points_guard():
    # refused from |v| = 2 - margin = 1.95 on, the edge included, and past
    # |v| = 2, where the points leave the circle; the message states the bound
    for n, t in ((196, 100.0), (-195, 100.0), (195, 100.0), (250, 100.0),
                 (1, 1e-9)):
        with pytest.raises(MergingPointsError, match=r"\|v\| = \d+\.\d{4} "
                           r">= 1\.95: the stationary points merge at "
                           r"\|v\| = 2 and leave the unit circle beyond it$"):
            stationary_points(RayParams(n=n, t=t))
    assert stationary_points(RayParams(n=194, t=100.0)).ray.v == 1.94


def test_ray_validation():
    # t <= 0 is false for NaN, and inf gives v = 0: stationary_points,
    # whose residual check is false for both, would return NaN points
    # or beta = 0 without a word
    for t in (-1.0, math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="positive and finite"):
            RayParams(n=10, t=t)
    ray = RayParams(n=-90, t=100.0)
    assert ray.v == pytest.approx(-0.9)
