import dataclasses
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

import dmkdv.harness as hn
import dmkdv.model as model
from dmkdv import (
    ConfigError,
    DmkdvError,
    InitialProfile,
    RayParams,
    RunConfig,
    SpillError,
    coefficient_set,
    integrate,
    leading_term,
    m1_entry,
    reflection_evaluator,
    staggered,
    stationary_points,
)
from dmkdv.harness import (
    CSV_HEADER,
    ComparisonRecord,
    asymptotic_value,
    emit,
    emit_plot_data,
    probe_site,
    run_compare,
    selftest,
)


def oracle_direct(config, v, t):
    """Per-row integration: a fresh run from 0 to t on its own window, the
    profile's nonzero sites (its center for zero data) widened by
    ceil(2.5 t + 150) on either side; returns (n, q_n(t))."""
    n = probe_site(v, t, config.v_max)
    support = config.profile.support_state()
    nonzero = [site for site, q in zip(support.sites, support.values) if q]
    first, last = (min(nonzero), max(nonzero)) if nonzero else \
        (config.profile.center,) * 2
    half = math.ceil(2.5 * t + 150)
    state0 = config.profile.realize(first - half, last + half)
    final = integrate(state0, t, config.dt)
    return n, final.value_at(n)


def oracle_row(config, v, t):
    """(q_direct, fail_reason) of the per-row oracle."""
    try:
        return oracle_direct(config, v, t)[1], None
    except DmkdvError as exc:
        return math.nan, f"{type(exc).__name__}: {exc}"


def oracle_asymptotic(config, v, t):
    """(q_asym, imag_residual, fail_reason) by the per-row path: a fresh
    r(z) for the row, and the cross entries from four scalar r(S_j)
    calls."""
    n = probe_site(v, t, config.v_max)
    try:
        ray = RayParams(n=n + 1, t=t)
        r_eval = reflection_evaluator(staggered(config.profile.support_state()))
        stat = stationary_points(ray)
        coeffs = coefficient_set(r_eval, stat)
        m1 = [m1_entry(coeffs.nu[j - 1], r_eval(stat.S[j - 1]), j)
              for j in (1, 2, 3, 4)]
        res = leading_term(ray, stat, coeffs, m1)
    except DmkdvError as exc:
        return math.nan, math.nan, f"{type(exc).__name__}: {exc}"
    return (-1) ** n * res.q_asym, res.imag_residual, None


def zero_config(**kw):
    base = dict(profile=InitialProfile(kind="zero"),
                v_list=(0.3,), t_list=(5.0,), dt=0.05)
    base.update(kw)
    return RunConfig(**base)


def make_records(count):
    recs = []
    for k in range(count):
        err = 0.1 / (k + 1)
        recs.append(ComparisonRecord(
            n=k, t=10.0 * (k + 1), v=0.5, q_direct=0.01 * k,
            q_asym=0.01 * k + err, abs_err=err,
            scaled_err=err * 10 * (k + 1) / math.log(10 * (k + 1)),
            imag_residual=1e-12))
    return recs


def test_config_validation():
    with pytest.raises(ConfigError):
        zero_config(dt=0.0)
    with pytest.raises(ConfigError):
        zero_config(v_list=(1.9,))
    with pytest.raises(ConfigError):
        zero_config(t_list=(10.0, 5.0))
    with pytest.raises(ConfigError):
        zero_config(t_list=())
    with pytest.raises(ConfigError):
        zero_config(output_format="xml")
    with pytest.raises(ConfigError):
        zero_config(threads=0)
    for bad in (dict(v_list=()),
                dict(v_max=2.5), dict(v_max=0.0), dict(grid_size=100),
                dict(grid_size=32),
                # non-finite numbers: NaN slips past every comparison
                dict(dt=math.nan), dict(dt=math.inf),
                dict(v_list=(math.nan,)), dict(t_list=(5.0, math.nan)),
                dict(t_list=(5.0, math.inf))):
        with pytest.raises(ConfigError):
            zero_config(**bad)
    # an unknown key is named instead of leaving its default in place
    for data, key in (({"time": [10], "ray": [0.1]}, "'time', 'ray'"),
                      ({"profile": {"amp": 0.2}}, "'profile.amp'"),
                      ({"tolerances": {"quad": 1}}, "'tolerances.quad'"),
                      ({"output": {"fmt": "json"}}, "'output.fmt'"),
                      ({"sign_convention": "conjugate_pair"},
                       "'sign_convention'"),
                      # retired: the window and the guard thresholds are
                      # constants of the layers that apply them
                      ({"window_margin": 150}, "'window_margin'"),
                      ({"tolerances": {"spill": 1e-10}},
                       "'tolerances.spill'")):
        with pytest.raises(ConfigError,
                           match=f"unknown configuration key {key}$"):
            RunConfig.from_dict(data)
    # an integer key is not truncated
    for data, key in (({"profile": {"center": 2.7}}, "profile.center"),
                      ({"grid_size": 128.5}, "grid_size"),
                      ({"threads": 1.9}, "threads")):
        with pytest.raises(ConfigError, match=f"^{key} must be an integer"):
            RunConfig.from_dict(data)
    assert RunConfig.from_dict({"threads": 2.0}).threads == 2
    for width in (math.nan, math.inf):
        with pytest.raises(ConfigError, match="width must be positive"):
            RunConfig.from_dict({"profile": {"kind": "gaussian",
                                             "width": width}})
    with pytest.raises(ConfigError, match=r"\|q\| < 1"):
        RunConfig.from_dict({"profile": {"kind": "custom_list",
                                         "custom": [0.2, math.nan]}})


def test_config_dict_round_trip():
    cfg = RunConfig.from_dict({
        "profile": {"kind": "gaussian", "amplitude": 0.2, "width": 2.5,
                    "center": 3},
        "rays": [0.1, -0.4],
        "times": [10, 20],
        "dt": 0.01,
        "grid_size": 128,
        "v_max": 1.5,
        "output": {"path": "out.json", "format": "json"},
        "threads": 2,
    })
    # every key of the schema lands in its field
    assert cfg == RunConfig(
        profile=InitialProfile(kind="gaussian", amplitude=0.2, width=2.5,
                               center=3),
        v_list=(0.1, -0.4), t_list=(10.0, 20.0), dt=0.01, grid_size=128,
        v_max=1.5, output_path="out.json", output_format="json", threads=2)
    custom = RunConfig.from_dict(
        {"profile": {"kind": "custom_list", "custom": [0.1, -0.2]}})
    assert custom.profile.custom == (0.1, -0.2)

    defaults = RunConfig.from_dict({})
    assert defaults.profile.kind == "single_site"
    assert defaults.profile.amplitude == 0.3
    assert defaults.t_list == (100.0, 200.0, 400.0, 800.0)

    with pytest.raises(ConfigError):
        RunConfig.from_dict({"dt": "fast"})

def test_nested_and_dotted_keys_are_one_key():
    nested = RunConfig.from_dict({"profile": {"amplitude": 0.2},
                                  "output": {"format": "json"}})
    assert nested == RunConfig.from_dict({"profile.amplitude": 0.2,
                                          "output.format": "json"})
    # a later key wins, in either spelling
    for data, amplitude in (
            ({"profile.amplitude": 0.1, "profile": {"amplitude": 0.2}}, 0.2),
            ({"profile": {"amplitude": 0.2}, "profile.amplitude": 0.1}, 0.1)):
        assert RunConfig.from_dict(data).profile.amplitude == amplitude
    with pytest.raises(ConfigError,
                       match="^unknown configuration key 'profile.amp'$"):
        RunConfig.from_dict({"profile.amp": 0.2})
    # an object under a leaf key is refused, not read as a section
    with pytest.raises(ConfigError):
        RunConfig.from_dict({"dt": {}})


def test_probe_site_nudges_overshoot():
    assert probe_site(0.5, 100.0, 1.8) == 50
    # round(1.8 * 100.3) = 181 overshoots 1.8 * 100.3 = 180.54
    assert probe_site(1.8, 100.3, 1.8) == 180
    assert probe_site(-1.8, 100.3, 1.8) == -180


def test_emit_csv_single_record(tmp_path):
    path = tmp_path / "one.csv"
    emit(make_records(1), str(path), "csv")
    lines = path.read_text().splitlines()
    assert len(lines) == 2
    assert lines[0] == CSV_HEADER
    assert lines[1].split(",")[0] == "0"


def test_emit_refuses_empty(tmp_path):
    path = tmp_path / "none.csv"
    with pytest.raises(ValueError):
        emit([], str(path), "csv")
    assert not path.exists()


def test_emit_round_trip_and_determinism(tmp_path):
    records = make_records(100)
    csv_path = tmp_path / "out.csv"
    json_path = tmp_path / "out.json"
    emit(records, str(csv_path), "csv")
    emit(records, str(json_path), "json")

    lines = csv_path.read_text().splitlines()
    parsed_csv = [dict(zip(CSV_HEADER.split(","),
                           [float(x) for x in line.split(",")]))
                  for line in lines[1:]]
    parsed_json = json.loads(json_path.read_text())
    assert len(parsed_csv) == len(parsed_json) == 100
    for row_c, row_j in zip(parsed_csv, parsed_json):
        for key in row_j:
            assert row_c[key] == pytest.approx(row_j[key], rel=0, abs=0)

    second = tmp_path / "again.csv"
    emit(records, str(second), "csv")
    assert second.read_bytes() == csv_path.read_bytes()


def test_emit_nan_rows(tmp_path):
    rec = ComparisonRecord(n=1, t=2.0, v=0.5, q_direct=math.nan,
                           q_asym=math.nan, abs_err=math.nan,
                           scaled_err=math.nan, imag_residual=math.nan,
                           fail_reason="QuadratureError: boom")
    csv_path = tmp_path / "nan.csv"
    emit([rec], str(csv_path), "csv")
    assert "nan" in csv_path.read_text()
    json_path = tmp_path / "nan.json"
    emit([rec], str(json_path), "json")
    row = json.loads(json_path.read_text())[0]
    assert row["q_direct"] is None


def test_emit_plot_data(tmp_path):
    records = make_records(3)
    paths = emit_plot_data(records, str(tmp_path / "cmp"))
    assert paths == [str(tmp_path / "cmp_ray0.5.dat")]
    content = Path(paths[0]).read_text().splitlines()
    assert content[0].startswith("#")
    assert len(content) == 4
    # rays that agree to six digits still get one file each
    close = [dataclasses.replace(rec, v=v) for rec, v in
             zip(make_records(2), (0.3000001, 0.3000002))]
    paths = emit_plot_data(close, str(tmp_path / "close"))
    assert paths == [str(tmp_path / "close_ray0.3000001.dat"),
                     str(tmp_path / "close_ray0.3000002.dat")]
    assert all(len(Path(p).read_text().splitlines()) == 2 for p in paths)


def test_zero_profile_rows_are_zero():
    records = run_compare(zero_config(t_list=(4.0, 8.0)))
    assert len(records) == 2
    for rec in records:
        assert rec.q_direct == 0.0
        assert rec.q_asym == 0.0
        assert rec.abs_err == 0.0
        assert rec.fail_reason is None
    assert [r.t for r in records] == [4.0, 8.0]


def test_wide_profile_fits_the_window():
    # the window follows the profile's support: a gaussian wider than the
    # 150-site margin integrates before the wave has moved, not spills
    config = RunConfig(profile=InitialProfile(kind="gaussian", amplitude=0.2,
                                              width=50.0), t_list=(4.0,))
    [rec] = run_compare(config)
    assert rec.fail_reason is None
    assert rec.q_direct == oracle_direct(config, rec.v, rec.t)[1]


def test_row_failure_isolation(monkeypatch):
    real = hn.integrate

    def failing(state, t_end, dt, **kw):
        if t_end == 6.0:  # only the segment 4 -> 6 trips
            raise SpillError("forced failure past t = 5")
        return real(state, t_end, dt, **kw)

    monkeypatch.setattr(hn, "integrate", failing)
    config = zero_config(profile=InitialProfile(kind="single_site",
                                                amplitude=0.2),
                         v_list=(0.1, 0.6), t_list=(4.0, 6.0, 8.0),
                         dt=0.02)
    records = hn.run_compare(config)
    assert [(r.v, r.t) for r in records] == [
        (v, t) for v in (0.1, 0.6) for t in (4.0, 6.0, 8.0)]
    for rec in records:
        if rec.t < 5.0:  # the stop before the failed segment keeps its row
            assert rec.fail_reason is None
            assert rec.q_direct == oracle_direct(config, rec.v, rec.t)[1]
            assert rec.q_direct != 0.0 and math.isfinite(rec.q_asym)
        else:  # the failed segment and every later stop fail with it
            assert rec.fail_reason == "SpillError: forced failure past t = 5"
            assert math.isnan(rec.q_direct) and math.isnan(rec.q_asym)
            assert math.isnan(rec.abs_err)


@pytest.mark.parametrize("v, v_max, t", [(1.94, 1.95, 100.0),
                                         (1.9, 1.9, 1.0)])
def test_merging_probe_fails_its_own_row(v, v_max, t):
    # the asymptotic ray n+1 lands at |v| >= 1.95, past the merging margin
    config = zero_config(profile=InitialProfile(kind="single_site",
                                                amplitude=0.2),
                         v_list=(0.5, v), t_list=(t,), v_max=v_max)
    records = run_compare(config, compute_direct=False)
    assert records[0].fail_reason is None
    assert "MergingPointsError" in records[1].fail_reason
    assert math.isnan(records[1].q_asym)


def test_short_time_rows_leave_scaled_error_undefined():
    # t / log t is undefined at t = 1 and negative below; t = 0.5 leaves
    # no probe site off the merging margin, so that row fails on its own
    config = zero_config(profile=InitialProfile(kind="single_site",
                                                amplitude=0.2),
                         v_list=(-1.5,), t_list=(0.5, 0.9, 1.0, 2.0),
                         dt=0.01)
    early, before, at_one, late = run_compare(config)
    assert "MergingPointsError" in early.fail_reason
    for rec in (before, at_one):
        assert rec.fail_reason is None
        assert math.isfinite(rec.q_direct) and math.isfinite(rec.q_asym)
        assert rec.abs_err == abs(rec.q_direct - rec.q_asym)
        assert math.isnan(rec.scaled_err)
    assert late.scaled_err == late.abs_err * 2.0 / math.log(2.0)


def test_row_times_share_the_trajectory():
    config = zero_config(profile=InitialProfile(kind="single_site",
                                                amplitude=0.2),
                         v_list=(0.2, 0.6), t_list=(4.0, 6.0, 6.0), dt=0.02)
    started = time.perf_counter()
    records = run_compare(config)
    elapsed = time.perf_counter() - started
    assert sum(r.wall_time for r in records) <= elapsed
    for rec in records:
        assert 0.0 < rec.integrate_time < rec.wall_time
        # the rays and repeats at one stop split its segment equally
        assert rec.integrate_time == records[0 if rec.t == 4.0 else 1
                                             ].integrate_time
    assert records[1].q_direct == records[2].q_direct
    assert all(r.integrate_time == 0.0
               for r in run_compare(config, compute_direct=False))


def test_parallel_rows_identical_output(tmp_path):
    base = zero_config(profile=InitialProfile(kind="single_site", amplitude=0.2),
                       v_list=(0.2, 0.6), t_list=(4.0, 6.0), dt=0.02)
    seq = run_compare(base)
    par = run_compare(dataclasses.replace(base, threads=2))
    p1, p2 = tmp_path / "seq.csv", tmp_path / "par.csv"
    emit(seq, str(p1), "csv")
    emit(par, str(p2), "csv")
    assert p1.read_bytes() == p2.read_bytes()


@settings(derandomize=True, database=None, max_examples=5, deadline=None)
@given(values=st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=4),
       rays=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=3),
       times=st.lists(st.floats(20.0, 60.0), min_size=1, max_size=2,
                      unique=True))
def test_property_output_does_not_depend_on_threads(tmp_path_factory,
                                                    values, rays, times):
    config = RunConfig(
        profile=InitialProfile(kind="custom_list", custom=tuple(values)),
        v_list=tuple(rays), t_list=tuple(sorted(times)))
    paths = []
    for threads in (1, 2):
        path = tmp_path_factory.mktemp("threads") / f"{threads}.csv"
        emit(run_compare(dataclasses.replace(config, threads=threads),
                         compute_direct=False), str(path), "csv")
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_sweep_builds_r_once_and_crosses_evaluate_none(monkeypatch):
    builds, calls, calls_in_crosses = [], [], []
    real_build, real_crosses = hn.reflection_evaluator, model.cross_solutions

    def counting_build(state):
        r_eval = real_build(state)
        builds.append(state)

        def counted(z):
            calls.append(z)
            return r_eval(z)
        return counted

    def watched_crosses(*args, **kwargs):
        before = len(calls)
        out = real_crosses(*args, **kwargs)
        calls_in_crosses.append(len(calls) - before)
        return out

    monkeypatch.setattr(hn, "reflection_evaluator", counting_build)
    monkeypatch.setattr(model, "cross_solutions", watched_crosses)
    config = RunConfig(profile=InitialProfile(kind="gaussian", amplitude=0.2,
                                              width=2.0),
                       v_list=(0.0, 0.5, -1.2), t_list=(30.0, 60.0))
    records = run_compare(config, compute_direct=False)
    assert [r.fail_reason for r in records] == [None] * 6
    assert len(builds) == 1
    assert calls_in_crosses == [0] * 6
    assert calls  # the rows did evaluate r, through the one evaluator


@settings(derandomize=True, database=None, max_examples=20, deadline=None)
@given(values=st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=6),
       rays=st.lists(st.floats(-1.5, 1.5), min_size=1, max_size=3),
       times=st.lists(st.floats(20.0, 60.0), min_size=1, max_size=2,
                      unique=True))
def test_property_shared_r_matches_per_row_oracle(values, rays, times):
    # the sweep's r(S_j) come from one array call, the oracle's from four
    # scalar calls: the two differ in the last bits of m1_12 only
    config = RunConfig(
        profile=InitialProfile(kind="custom_list", custom=tuple(values)),
        v_list=tuple(rays), t_list=tuple(sorted(times)))
    records = run_compare(config, compute_direct=False)
    assert len(records) == len(rays) * len(times)
    for rec in records:
        q_asym, imag_residual, reason = oracle_asymptotic(config, rec.v, rec.t)
        assert rec.fail_reason == reason
        if reason is None:
            assert abs(rec.q_asym - q_asym) <= 1e-14
            assert abs(rec.imag_residual - imag_residual) <= 1e-14


def test_asymptotics_match_linear_limit():
    # Exact small-amplitude solution of the lattice: a single site c at the
    # origin evolves to q_n(t) = c (-1)^n J_n(2t) + O(c^3).  This pins the
    # whole asymptotics chain (stationary points, coefficients, cross
    # entries, gauge) with an oracle that never touches the integrator.
    c = 0.02
    config = RunConfig(profile=InitialProfile(kind="single_site", amplitude=c))
    for v in (0.0, 0.5, -0.8, 1.2):
        for t in (60.0, 75.0):
            n = probe_site(v, t, config.v_max)
            truth = c * (-1) ** n * scipy.special.jv(n, 2 * t)
            res = asymptotic_value(config, v, t)
            assert res.n == n
            assert abs(res.q_asym - truth) < 3e-5  # O(t^-1) correction scale


def test_asymptotics_match_integration_two_site():
    # asymmetric data exercises both parities of the probe site
    config = RunConfig(
        profile=InitialProfile(kind="custom_list", center=0, custom=(0.3, -0.2)),
        v_list=(0.5,), t_list=(50.0, 54.0), dt=0.01)
    records = run_compare(config)
    assert [r.n for r in records] == [25, 27]
    for rec in records:
        assert rec.fail_reason is None
        qd = rec.q_direct
        assert abs(qd - rec.q_asym) < 0.02 * max(abs(qd), 1e-3)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(values=st.lists(st.floats(-0.6, 0.6), min_size=1, max_size=8),
       rays=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
       stops=st.lists(st.integers(5, 30), min_size=1, max_size=4),
       dt=st.sampled_from((0.02, 0.05, 0.25)))
def test_property_trajectory_matches_per_row_oracle(values, rays, stops, dt):
    # every stop is a multiple of dt, so each segment takes the per-row
    # step and the zero padding of the wider window changes no bit
    config = RunConfig(
        profile=InitialProfile(kind="custom_list", custom=tuple(values)),
        v_list=tuple(rays), t_list=tuple(float(t) for t in sorted(stops)),
        dt=dt)
    records = run_compare(config, compute_asym=False)
    assert len(records) == len(rays) * len(stops)
    for rec in records:
        q, reason = oracle_row(config, rec.v, rec.t)
        assert rec.fail_reason == reason
        assert np.array_equal(rec.q_direct, q, equal_nan=True)


def test_trajectory_off_the_step_grid_matches_per_row_oracle():
    # no stop is a multiple of dt: the chain's segments take other steps
    # than the per-row runs, so the two agree only to RK4's O(h^4) error.
    # Each route's global error is at most t (L h)^5 / (120 h) ||q(0)||_2,
    # with L = 2 + 4 rho_0^2 bounding the Jacobian of the right-hand side
    # (the linear part has symbol 2i sin k, and |q| <= rho_0 for all t)
    custom = (0.3, -0.2, 0.15)
    config = RunConfig(profile=InitialProfile(kind="custom_list",
                                              custom=custom),
                       v_list=(0.0, 0.5, -0.7), t_list=(5.013, 11.72, 20.137),
                       dt=0.05)
    spans = [b - a for a, b in zip((0.0,) + config.t_list, config.t_list)]
    steps = [span / round(span / config.dt)
             for span in spans + list(config.t_list)]
    assert max(abs(h - config.dt) for h in steps) > 1e-6  # really off-grid
    h = max(steps)
    rho0_sq = 1.0 - math.prod(1.0 - q * q for q in custom)
    lip = 2.0 + 4.0 * rho0_sq
    norm = math.sqrt(sum(q * q for q in custom))
    for rec in run_compare(config, compute_asym=False):
        bound = 2.0 * rec.t * lip ** 5 * h ** 4 / 120.0 * norm
        q, reason = oracle_row(config, rec.v, rec.t)
        assert rec.fail_reason is None and reason is None
        assert abs(rec.q_direct - q) <= bound


def test_selftest_green_and_audit():
    report = selftest()
    assert set(report) == {"pass", "checks"}
    names = [c["name"] for c in report["checks"]]
    assert report["pass"], [c for c in report["checks"] if not c["pass"]]
    for expected in ("gamma_identities", "model_modulus_sqrt_nu", "unitarity",
                     "phase_first_derivative", "phase_beta_identity",
                     "delta_product_identity", "rk4_order_low",
                     "rk4_order_high", "c_inf_drift_t50",
                     "realness_conjugate_pair"):
        assert expected in names
    rejected = [c for c in report["checks"]
                if c["name"].startswith("realness_rejected")]
    assert rejected and rejected[0]["pass"]
    assert rejected[0]["measured"] > 0.05


def test_selftest_tolerance_sensitivity():
    # the self-test's points: radii 0.3..0.85 and 1.15..2, angles k pi/10
    radii = [0.3 + 0.55 * (k / 9.0) for k in range(10)] \
        + [1.15 + 0.85 * (k / 9.0) for k in range(10)]
    points = [radius * np.exp(2j * math.pi * k / 20.0)
              for k, radius in enumerate(radii)]
    [tight] = hn.delta_product_checks(points)
    [loose] = hn.delta_product_checks(points, tol=1e-3)
    assert loose["measured"] > 100 * max(tight["measured"], 1e-15)
    # coarse quadrature breaks the 1e-9 identity
    assert loose["measured"] > 1e-8
