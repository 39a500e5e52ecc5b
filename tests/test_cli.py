import csv
import json
import math

import numpy as np
import pytest

import dmkdv.harness as harness
from dmkdv import SpillError, reflection_evaluator
from dmkdv.cli import main

TINY = {
    "profile": {"kind": "single_site", "amplitude": 0.2},
    "rays": [0.4],
    "times": [4.0],
    "dt": 0.02,
}


def write_config(tmp_path, data):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(data))
    return str(path)


def test_compare_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "cmp.csv"
    code = main(["compare", "--config", cfg, "--output", str(out),
                 "--plot-data", str(tmp_path / "plot")])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ("n,t,v,q_direct,q_asym,abs_err,scaled_err,"
                        "odd_pair_residual")
    assert len(lines) == 2
    assert (tmp_path / "plot_ray0.4.dat").exists()
    summary = capsys.readouterr().out.splitlines()[-1]
    assert summary.startswith(f"wrote 1 rows to {out} (")
    assert "s integrating, slowest row v=0.4 t=4 at " in summary


def test_simulate_and_asymptote_agree(tmp_path):
    cfg = write_config(tmp_path, TINY)
    sim = tmp_path / "sim.json"
    asym = tmp_path / "asym.json"
    assert main(["simulate", "--config", cfg, "--output", str(sim),
                 "--format", "json"]) == 0
    assert main(["asymptote", "--config", cfg, "--output", str(asym),
                 "--format", "json"]) == 0
    q_direct = json.loads(sim.read_text())[0]["q_direct"]
    q_asym = json.loads(asym.read_text())[0]["q_asym"]
    # t = 4 is early for the asymptotics; just require the same scale
    assert abs(q_direct - q_asym) < 0.5 * max(abs(q_direct), 0.05)


def test_scatter_subcommand(tmp_path, capsys):
    cfg = write_config(tmp_path, {**TINY, "grid_size": 64})
    out = tmp_path / "r.csv"
    assert main(["scatter", "--config", cfg, "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,re_r,im_r,abs_r"
    assert len(lines) == 65
    printed = capsys.readouterr().out
    assert "max|r|" in printed
    # the spectrum of the density and how close a(z)'s rounding came to
    # its guard: one term (a = 1) on one point, 34 eps of |a| = 1
    assert printed.splitlines()[0].endswith(
        "  spectrum M = 0  P = 1  conditioning = 7.55e-15 (bound 1e-08)")


def test_set_overrides(tmp_path):
    cfg = write_config(tmp_path, TINY)
    out = tmp_path / "o.csv"
    code = main(["compare", "--config", cfg, "--output", str(out),
                 "--set", "profile.amplitude=0.1", "--set", "times=[3.0]"])
    assert code == 0
    row = out.read_text().splitlines()[1]
    assert row.split(",")[1] == "3.0"


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    # selftest takes no configuration: a passed flag is a usage error
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--config", str(bad)])
    assert exc.value.code == 2

    cfg = write_config(tmp_path, {**TINY, "dt": -1})
    assert main(["compare", "--config", cfg]) == 2

    cfg = write_config(tmp_path, TINY)
    assert main(["compare", "--config", cfg,
                 "--output", str(tmp_path / "no/such/dir/out.csv")]) == 3

    missing = str(tmp_path / "missing.json")
    assert main(["compare", "--config", missing]) == 3

    out = str(tmp_path / "out.csv")
    assert main(["scatter", "--set", "grid_size=100", "--output", out]) == 2
    assert main(["asymptote", "--set", "v_max=2.5", "--set", "rays=[1.95]",
                 "--output", out]) == 2
    # an unknown key fails instead of leaving its default in place; the
    # retired window_margin and tolerances.* keys are unknown keys
    capsys.readouterr()
    for spec in ("time=[10]", "tolerances.quad=1", "profile.amp=0.2",
                 "output.fmt=json", "window_margin=-1000",
                 "tolerances.realness=NaN", "threads=2"):
        assert main(["compare", "--set", spec, "--output", out]) == 2
        key = spec.split("=")[0]
        assert capsys.readouterr().err == (
            f"configuration error: unknown configuration key {key!r}\n")
    for flags in (["--set", "sign_convention=uniform_phase"],
                  ["--output", out], ["--format", "csv"], ["--threads", "2"]):
        with pytest.raises(SystemExit) as exc:
            main(["selftest", *flags])
        assert exc.value.code == 2
    for bad in (["--set", "profile.kind=custom_list",
                 "--set", "profile.custom=[1.5]"],
                ["--set", "rays=[]"],
                # an integer key that is not whole, or overflows
                ["--set", "profile.center=2.7"],
                ["--set", "grid_size=128.5"], ["--set", "grid_size=1e999"]):
        assert main(["compare", *bad, "--output", out]) == 2
    # rows run in one process: there is no --threads
    with pytest.raises(SystemExit) as exc:
        main(["compare", "--threads", "2", "--output", out])
    assert exc.value.code == 2


def test_config_values_of_the_wrong_json_type(tmp_path, capsys):
    cfg = write_config(tmp_path, [1])
    out = str(tmp_path / "x.csv")
    for extra in ([], ["--output", out], ["--set", "dt=0.01"]):
        assert main(["compare", "--config", cfg, *extra]) == 2
    assert capsys.readouterr().err.count("must hold a JSON object") == 3
    # a path that is not a string would raise, or open a file descriptor
    cfg = write_config(tmp_path, TINY)
    for path in ("null", "1", '["a"]'):
        assert main(["simulate", "--config", cfg,
                     "--set", f"output.path={path}"]) == 2
    # a JSON string is not a list of times, however its characters read
    capsys.readouterr()
    assert main(["simulate", "--config", cfg, "--set", 'times="158"',
                 "--output", out]) == 2
    assert capsys.readouterr().err == ("configuration error: times must be "
                                       "a list of numbers, got '158'\n")


def test_non_finite_numbers_are_refused(tmp_path):
    out = str(tmp_path / "out.csv")
    # NaN slips past every comparison, so it is refused before any is made
    for bad in (["--set", "rays=[NaN]"], ["--set", "dt=Infinity"],
                ["--set", "times=[100,Infinity]"],
                ["--set", "profile.kind=gaussian",
                 "--set", "profile.width=NaN"]):
        assert main(["asymptote", *bad, "--output", out]) == 2


def test_repeated_time_is_refused(tmp_path, capsys):
    # a repeated time would write the same rows twice
    out = tmp_path / "out.csv"
    assert main(["simulate", "--set", "times=[4,4]",
                 "--output", str(out)]) == 2
    assert capsys.readouterr().err == (
        "configuration error: times must be a nonempty increasing list "
        "without repeats\n")
    assert not out.exists()


def test_simulate_fits_a_long_profile(tmp_path):
    # 200 sites of data at t = 4: the window follows the profile's support,
    # not its center, so the values fit in it
    out = tmp_path / "long.json"
    custom = json.dumps([0.01] * 200)
    assert main(["simulate", "--set", "profile.kind=custom_list",
                 "--set", f"profile.custom={custom}", "--set", "times=[4]",
                 "--set", "dt=0.05", "--output", str(out),
                 "--format", "json"]) == 0
    [row] = strict_json(out)
    assert math.isfinite(row["q_direct"])


def test_later_key_wins(tmp_path):
    cfg = write_config(tmp_path, {**TINY, "output.path": "unused.csv"})
    nested, flag = tmp_path / "nested.csv", tmp_path / "flag.csv"
    spec = "output=" + json.dumps({"path": str(nested)})
    assert main(["simulate", "--config", cfg, "--set", spec]) == 0
    assert nested.exists()
    assert main(["simulate", "--config", cfg, "--set", spec,
                 "--output", str(flag)]) == 0
    assert flag.exists() and not (tmp_path / "unused.csv").exists()


def test_scatter_reports_a_failed_check_on_one_line(tmp_path, capsys):
    # 30 sites of +-0.9: the computed r(z) leaves the unit disk
    out = tmp_path / "r.csv"
    custom = json.dumps([0.9, -0.9] * 15)
    assert main(["scatter", "--set", "profile.kind=custom_list",
                 "--set", f"profile.custom={custom}",
                 "--output", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("ReflectionTooLargeError: max |r| = 16.2")
    assert err.count("\n") == 1
    assert not out.exists()


def test_simulate_fits_a_long_support(tmp_path):
    # the window grows with the support: 1,300 sites once put the
    # spill-guarded outer 10% inside the light cone (SpillError)
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--set", "profile.kind=custom_list",
                 "--set", f"profile.custom={json.dumps([0.01] * 1300)}",
                 "--set", "times=[10]", "--set", "dt=0.05",
                 "--output", str(out)]) == 0
    [row] = list(csv.DictReader(out.read_text().splitlines()))
    assert row["t"] == "10.0" and math.isfinite(float(row["q_direct"]))


# 1,200 sites of 0.9: the coefficients of a and b overflow while they are
# built, which the build refuses before any value of r is computed
OVERFLOWING = ["--set", "profile.kind=custom_list",
               "--set", f"profile.custom={json.dumps([0.9] * 1200)}"]
OVERFLOW_REASON = ("ConditioningError: the coefficients of a(z) and b(z) "
                   "overflow on 1200 nonzero sites")


def test_scatter_fails_on_data_whose_polynomials_overflow(tmp_path, capsys):
    out = tmp_path / "r.csv"
    # and no numpy RuntimeWarning: pytest makes every warning an error
    code = main(["scatter", *OVERFLOWING, "--set", "grid_size=64",
                 "--output", str(out)])
    assert code == 1
    assert capsys.readouterr().err == OVERFLOW_REASON + "\n"
    assert not out.exists()


def test_overflowing_data_fails_each_asymptotic_row_at_its_first_sample(
        tmp_path, capsys, monkeypatch):
    sampled = []

    def counting_evaluator(poly):
        r_eval = reflection_evaluator(poly)

        def counting(z):
            sampled.append(np.size(z))
            return r_eval(z)
        return counting

    monkeypatch.setattr(harness, "reflection_evaluator", counting_evaluator)
    out = tmp_path / "asymptote.json"
    code = main(["asymptote", *OVERFLOWING, "--output", str(out),
                 "--format", "json"])
    assert code == 1
    rows = strict_json(out)
    assert len(rows) == 4 and all(row["q_asym"] is None for row in rows)
    assert capsys.readouterr().err.count(
        f"failed: {OVERFLOW_REASON}\n") == 4
    assert sampled == []  # the build failed once, so no row sampled r
    # compare integrates nothing: every one of its rows carries the
    # build's reason (simulate builds no r at all)
    monkeypatch.setattr(harness, "integrate", None)  # any call would fail
    assert main(["compare", *OVERFLOWING, "--output", str(out),
                 "--format", "json"]) == 1
    assert all(row["q_direct"] is None for row in strict_json(out))
    assert capsys.readouterr().err.count(
        f"failed: {OVERFLOW_REASON}\n") == 4


def strict_json(path):
    """Parsed JSON file; a bare NaN or Infinity in it fails the test."""
    def refuse(constant):
        raise AssertionError(f"bare {constant} in {path}")
    return json.loads(path.read_text(), parse_constant=refuse)


def test_failed_rows_write_null_in_every_json_table(tmp_path, monkeypatch):
    def failing(state, t_end, dt, **kw):
        raise SpillError("forced failure")

    monkeypatch.setattr(harness, "integrate", failing)
    cfg = write_config(tmp_path, TINY)
    for command in ("simulate", "compare"):
        out = tmp_path / f"{command}.json"
        assert main([command, "--config", cfg, "--output", str(out),
                     "--format", "json"]) == 1
        [row] = strict_json(out)
        assert row["q_direct"] is None

    # the second ray's asymptotic row fails at the merging points
    out = tmp_path / "asymptote.json"
    assert main(["asymptote", "--config", cfg, "--set", "v_max=1.95",
                 "--set", "rays=[0.5,1.94]", "--set", "times=[100]",
                 "--output", str(out), "--format", "json"]) == 1
    good, merging = strict_json(out)
    assert isinstance(good["q_asym"], float)
    assert merging["q_asym"] is None and merging["odd_pair_residual"] is None


def test_selftest_subcommand(tmp_path, capsys):
    code = main(["selftest"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["pass"] is True
    assert all({"name", "pass", "measured", "threshold"} <= set(c)
               for c in report["checks"])
