"""End-to-end experiment harness.

Runs the full chain for a sweep of rays and times: integrate the lattice
directly, once per profile through the sorted times, build the
reflection coefficient r(z) of the initial profile once per sweep,
evaluate the leading-order asymptotic value per row from it (sampling r
once per panel level of the row's arc quadrature, the first two levels
in one call), and record the
comparison: the measured values, from which the error columns are
derived.  Also hosts what the CLI writes and checks with:
write_table, the one writer of every output table (emit is its form for
comparison records), and the invariant checks, each written once at
module level and shared by selftest and the acceptance suite.  The
cross entries follow model.m1_entry alone; the realness audit rotates
them to show that the rejected form fails.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, replace

import numpy as np

from . import lattice, model, phase, scattering, weights
from .errors import ConfigError, DmkdvError
from .lattice import InitialProfile, integrate, staggered
from .phase import RayParams, stationary_points
from .scattering import reflection_evaluator

__all__ = [
    "RunConfig",
    "ComparisonRecord",
    "run_compare",
    "selftest",
    "emit",
    "write_table",
    "COMPARE_COLUMNS",
    "CSV_HEADER",
]

COMPARE_COLUMNS = ("n", "t", "v", "q_direct", "q_asym", "abs_err",
                   "scaled_err", "imag_residual")
CSV_HEADER = ",".join(COMPARE_COLUMNS)


def _text(value) -> str:
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
    return value


def _reals(values) -> tuple:
    return tuple(float(v) for v in values)


# JSON key -> (field, conversion); the profile.* keys fill InitialProfile
# and the others RunConfig.  int is checked not to truncate.
_KEYS = {
    "profile.kind": ("kind", _text),
    "profile.amplitude": ("amplitude", float),
    "profile.width": ("width", float),
    "profile.center": ("center", int),
    "profile.custom": ("custom", tuple),
    "rays": ("v_list", _reals),
    "times": ("t_list", _reals),
    "dt": ("dt", float),
    "grid_size": ("grid_size", int),
    "v_max": ("v_max", float),
    "threads": ("threads", int),
    "output.path": ("output_path", _text),
    "output.format": ("output_format", _text),
}


@dataclass(frozen=True)
class RunConfig:
    """Sweep definition; its JSON schema is _KEYS (see `from_dict`)."""

    profile: InitialProfile
    v_list: tuple = (0.5,)
    t_list: tuple = (100.0, 200.0, 400.0, 800.0)
    dt: float = 0.005
    grid_size: int = 256
    v_max: float = 1.8
    output_path: str = "compare.csv"
    output_format: str = "csv"
    threads: int = 1

    def __post_init__(self):
        if not all(map(math.isfinite, (self.dt, *self.v_list,
                                       *self.t_list))):
            raise ConfigError("dt, rays and times must be finite")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if not 0 < self.v_max < 2:
            raise ConfigError("v_max must lie in (0, 2)")
        if self.grid_size < 64 or self.grid_size & (self.grid_size - 1):
            raise ConfigError("grid_size must be a power of two >= 64")
        if len(self.v_list) == 0:
            raise ConfigError("rays must be a nonempty list")
        if any(abs(v) > self.v_max for v in self.v_list):
            raise ConfigError(f"every |v| must be <= v_max = {self.v_max}")
        if list(self.t_list) != sorted(self.t_list) or len(self.t_list) == 0:
            raise ConfigError("times must be a nonempty increasing list")
        if any(t <= 0 for t in self.t_list):
            raise ConfigError("times must be positive")
        if self.output_format not in ("csv", "json"):
            raise ConfigError("output format must be csv or json")
        if self.threads < 1:
            raise ConfigError("threads must be >= 1")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Build from a dict of the JSON keys of _KEYS, every one optional
        (defaults come from the dataclasses).  A nested key and its dotted
        form are the same key ({"profile": {"center": 3}} is
        {"profile.center": 3}), and a later key wins.  Every unknown key is
        named in one ConfigError.  profile.center, grid_size and threads
        must be whole numbers.
        """
        flat = _flatten(d)
        unknown = [key for key in flat if key not in _KEYS]
        if unknown:
            raise ConfigError("unknown configuration key "
                              + ", ".join(map(repr, unknown)))
        profile, kwargs = {}, {}
        try:
            for key, value in flat.items():
                field, convert = _KEYS[key]
                converted = convert(value)
                if convert is int and converted != value:
                    raise ConfigError(
                        f"{key} must be an integer, got {value!r}")
                target = profile if key.startswith("profile.") else kwargs
                target[field] = converted
            return cls(profile=InitialProfile(**profile), **kwargs)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(f"bad configuration: {exc}") from exc


def _flatten(section: dict, prefix: str = "") -> dict:
    """`section` with every nested object spread into dotted keys, in
    order; a dict under a key of _KEYS stays, for its conversion to
    refuse."""
    flat = {}
    for key, value in section.items():
        if isinstance(value, dict) and prefix + key not in _KEYS:
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[prefix + key] = value
    return flat


@dataclass(frozen=True, slots=True)
class ComparisonRecord:
    """One (n, t) comparison row; failed rows carry NaNs and a reason.

    Only measured values are stored; abs_err and scaled_err are derived
    from them on reading.  `wall_time` is the row's asymptotic time plus
    `integrate_time`, its equal share of the trajectory segment that
    ended at its t, so the rows' wall times add up to the sweep's time.
    """

    n: int
    t: float
    v: float
    q_direct: float
    q_asym: float
    imag_residual: float
    fail_reason: str | None = None
    wall_time: float = 0.0
    integrate_time: float = 0.0

    @property
    def abs_err(self) -> float:
        """|q_direct - q_asym|: NaN unless both were computed."""
        return abs(self.q_direct - self.q_asym)

    @property
    def scaled_err(self) -> float:
        """abs_err * t / log t; NaN for t <= 1, where t / log t is
        undefined (t = 1) or negative."""
        return (self.abs_err * self.t / math.log(self.t) if self.t > 1.0
                else math.nan)


def probe_site(v: float, t: float, v_max: float) -> int:
    """n = round(v t), nudged toward 0 when rounding overshoots v_max."""
    n = round(v * t)
    if abs(n) > v_max * t:
        n = int(math.floor(abs(v) * t)) * (1 if v >= 0 else -1)
    return n


def asymptotic_value(config: RunConfig, v: float, t: float,
                     check_realness: bool = True) -> model.AsymptoticResult:
    """Leading-order asymptotic value of q_n(t) at n = round(v t).

    The cross-sum functional R (leading_term) reconstructs the lattice
    field in a staggered, site-shifted gauge relative to the transfer
    recursions used for the scattering data: under our conventions

        q_n(t) = (-1)^n R(n+1, t; r_u),   u_k = (-1)^k q_k(0).

    The gauge is pinned by two independent oracles: direct integration,
    and the exact linearization q_n = q_0 (-1)^n J_n(2t) for small
    single-site data (Bessel asymptotics fix both the site shift and the
    sign alternation; see tests).  The ray n+1 may lie 1/t past v_max;
    stationary_points refuses it only near the merging points.  Builds
    r_u for this one value; a sweep builds it once and shares it between
    its rows.
    """
    return _asymptotic_row(config, _reflection(config.profile), v, t,
                           check_realness)


def _reflection(profile: InitialProfile):
    """r_u(z), u_k = (-1)^k q_k(0): the reflection coefficient that every
    asymptotic value of the profile is built from (see asymptotic_value)."""
    return reflection_evaluator(staggered(profile.support_state()))


def _asymptotic_row(config: RunConfig, r_eval, v: float, t: float,
                    check_realness: bool = True) -> model.AsymptoticResult:
    """asymptotic_value from a prebuilt r_u (see _reflection)."""
    n = probe_site(v, t, config.v_max)
    ray = RayParams(n=n + 1, t=t)
    stat = stationary_points(ray)
    coeffs = weights.coefficient_set(r_eval, stat)
    m1 = model.cross_solutions(coeffs)
    calibration = model.REALNESS_CALIBRATION if check_realness else None
    res = model.leading_term(ray, stat, coeffs, m1,
                             realness_calibration=calibration)
    return replace(res, n=n, q_asym=(-1) ** n * res.q_asym)


_NOT_INTEGRATED = (math.nan, None, 0.0)
_WINDOW_MARGIN = 150  # sites past 2.5 max(t) on either side, see _trajectory


def _trajectory(config: RunConfig) -> dict:
    """{(v, t): (q_direct, fail_reason, seconds)} for every row, from one
    integration through the sorted distinct times.

    The window is the profile's nonzero sites (its center for zero data)
    widened by ceil(2.5 max(t) + _WINDOW_MARGIN) on either side, so data
    of any length fits.  The light cone has speed 2, and the extra half-t
    keeps the outermost-10% spill-guard region strictly outside the
    cone, where only the (superexponentially small) tail and integrator
    front noise live.  `seconds` is the row's equal share of the segment
    that ended at its time.
    """
    support = config.profile.support_state()
    nonzero = np.flatnonzero(support.values)
    first, last = ((nonzero[0], nonzero[-1]) if nonzero.size else
                   (config.profile.center - support.n_min,) * 2)
    half = int(math.ceil(2.5 * max(config.t_list) + _WINDOW_MARGIN))
    started = time.perf_counter()
    state = lattice.LatticeState(
        n_min=support.n_min + int(first) - half,
        values=np.pad(support.values[first:last + 1], half))
    reason = None
    direct = {}
    for t in sorted(set(config.t_list)):
        if reason is None:
            try:
                state = integrate(state, t, config.dt)
            except DmkdvError as exc:
                reason = f"{type(exc).__name__}: {exc}"
        now = time.perf_counter()
        share = (now - started) / (len(config.v_list) * config.t_list.count(t))
        started = now
        for v in config.v_list:
            q = (state.value_at(probe_site(v, t, config.v_max))
                 if reason is None else math.nan)
            direct[v, t] = (q, reason, share)
    return direct


def _row_worker(job) -> ComparisonRecord:
    """One row from its job (config, v, t, direct, r_u): `direct` is the
    row's (q_direct, fail_reason, seconds) of the trajectory and r_u the
    sweep's reflection coefficient (None: no asymptotic value); a row the
    trajectory failed skips the asymptotic value."""
    started = time.perf_counter()
    config, v, t, (q_direct, reason, integrate_time), r_eval = job
    q_asym = imag_residual = math.nan
    if reason is None and r_eval is not None:
        try:
            result = _asymptotic_row(config, r_eval, v, t)
            q_asym = result.q_asym
            imag_residual = result.imag_residual
        except DmkdvError as exc:
            reason = f"{type(exc).__name__}: {exc}"
    if reason is not None:
        q_direct = q_asym = imag_residual = math.nan
    return ComparisonRecord(
        n=probe_site(v, t, config.v_max), t=t, v=v, q_direct=q_direct,
        q_asym=q_asym, imag_residual=imag_residual, fail_reason=reason,
        wall_time=time.perf_counter() - started + integrate_time,
        integrate_time=integrate_time)


def run_compare(config: RunConfig, compute_direct: bool = True,
                compute_asym: bool = True) -> list:
    """Full sweep: one record per (v, t), v-major, t increasing.

    The profile is integrated once, on one window that holds its support
    and the light cone up to max(t_list) (see _trajectory), and q_n is
    read at every ray's probe site at each stop.  When every time is a
    multiple of dt, each segment takes the per-row step, so q_direct is
    bitwise what a fresh integration from 0 gives.  A guard tripping in
    the segment ending at t_k fails every row at t >= t_k; earlier rows
    keep their values.  r(z) is built once per sweep and shared by its
    rows; each row samples r once per panel level for all four arcs of
    its quadrature, and its first sample holds the four stationary
    points, for nu_j and the cross entries alike, and the nodes of the
    first two levels (one call when the arcs settle at two panels).  An asymptotic failure fails its own row only.  With
    threads > 1 the asymptotic rows run in a process pool, whose workers
    receive the sweep's r(z) with their jobs and build none; assembly
    order is fixed regardless of parallelism.
    """
    direct = _trajectory(config) if compute_direct else {}
    r_eval = _reflection(config.profile) if compute_asym else None
    jobs = [(config, v, t, direct.get((v, t), _NOT_INTEGRATED), r_eval)
            for v in config.v_list for t in config.t_list]
    if compute_asym and config.threads > 1 and len(jobs) > 1:
        import concurrent.futures  # only pooled sweeps pay for its import
        with concurrent.futures.ProcessPoolExecutor(
                max_workers=config.threads) as pool:
            return list(pool.map(_row_worker, jobs))
    return [_row_worker(job) for job in jobs]


# ---------------------------------------------------------------------------
# emitters

def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))  # shortest round-trip decimal


def write_table(path: str, fmt: str, header: tuple, rows) -> str:
    """Write `rows`, sequences of numbers in `header` order, as CSV or
    JSON; returns the path.

    CSV is the header line, then integers as integers and floats as
    their shortest round-trip decimal (nan for a failed value).  JSON is
    a list of objects with NaN written as null.  Output is byte-identical
    for identical rows.  An empty table is refused before the file is
    created.
    """
    if not rows:
        raise ValueError("no rows to write; refusing to create the file")
    if fmt == "csv":
        lines = [",".join(header)]
        lines += [",".join(map(_fmt, row)) for row in rows]
        payload = "\n".join(lines) + "\n"
    elif fmt == "json":
        payload = json.dumps(
            [{name: None if isinstance(value, float) and math.isnan(value)
              else value for name, value in zip(header, row)}
             for row in rows], indent=2) + "\n"
    else:
        raise ValueError("format must be csv or json")
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(payload)
    return path


def emit(records, path: str, fmt: str = "csv",
         columns: tuple = COMPARE_COLUMNS) -> str:
    """Write the `columns` of comparison records by write_table; failed
    rows carry NaN columns (null in JSON)."""
    return write_table(path, fmt, columns,
                       [[getattr(rec, name) for name in columns]
                        for rec in records])


def emit_plot_data(records, path_stem: str) -> list:
    """Gnuplot-compatible two-column (t, abs_err) file per ray, named by
    the ray's v exactly as the CSV table prints it."""
    paths = []
    by_ray = {}
    for rec in records:
        by_ray.setdefault(rec.v, []).append(rec)
    for v, rows in by_ray.items():
        path = f"{path_stem}_ray{_fmt(v)}.dat"
        with open(path, "w", encoding="ascii", newline="\n") as fh:
            fh.write("# t abs_err\n")
            for rec in rows:
                fh.write(f"{_fmt(rec.t)} {_fmt(rec.abs_err)}\n")
        paths.append(path)
    return paths


# ---------------------------------------------------------------------------
# self-test

def _check(name: str, measured: float, threshold: float,
           larger_is_fail: bool = True) -> dict:
    ok = measured < threshold if larger_is_fail else measured >= threshold
    return {"name": name, "pass": bool(ok),
            "measured": float(measured), "threshold": float(threshold)}


def integrator_checks() -> list:
    """RK4 order and conservation on single-site 0.3 data.

    The order is log2 of the ratio of the errors at dt = 0.2 and 0.1 on
    sites -40..40 at t = 5, both against dt = 0.0125; it must lie in
    [3.7, 4.3).  The drift of c_inf over t = 50 at dt = 0.01 on sites
    -240..240 must stay below 1e-8.
    """
    profile = InitialProfile(kind="single_site", amplitude=0.3)
    state0 = profile.realize(-40, 40)
    ref = integrate(state0, 5.0, 0.0125)
    errs = []
    for dt in (0.2, 0.1):
        got = integrate(state0, 5.0, dt)
        errs.append(np.max(np.abs(got.values - ref.values)))
    order = math.log2(errs[0] / errs[1])
    drift_state0 = profile.realize(-240, 240)
    final = integrate(drift_state0, 50.0, 0.01)
    drift = abs(lattice.conserved_c_inf(final)
                - lattice.conserved_c_inf(drift_state0))
    return [_check("rk4_order_low", order, 3.7, larger_is_fail=False),
            _check("rk4_order_high", order, 4.3),
            _check("c_inf_drift_t50", drift, 1e-8)]


def unitarity_checks(state: lattice.LatticeState) -> list:
    """|a|^2 - |b|^2 = c_inf on the unit circle, within 1e-10.

    a and b are evaluated at 256 equally spaced points in one call.
    """
    z = np.exp(2j * math.pi * np.arange(256) / 256)
    a, b = scattering.scattering_polynomials(state)(z)
    defect = np.abs(np.abs(a) ** 2 - np.abs(b) ** 2
                    - lattice.conserved_c_inf(state))
    return [_check("unitarity", defect.max(), 1e-10)]


def realness_checks() -> list:
    """The realness audit on single-site 0.3 data at v = 0.5, t = 800,
    realness guard off: the imaginary residual over t^-1/2 must stay below
    0.05 for the cross entries of model.m1_entry, and reach 0.05 once the
    odd crosses are rotated by -i (e^(-i pi/4) for every j, the form the
    model rejects).  Both residuals come from one asymptotic value.
    """
    config = RunConfig(profile=InitialProfile(kind="single_site",
                                              amplitude=0.3))
    t = 800.0
    scale = t ** -0.5
    res = asymptotic_value(config, 0.5, t, check_realness=False)
    rotated = sum(rot * c for rot, c in zip((-1j, 1, -1j, 1),
                                            res.contributions))
    rejected = abs((rotated / res.delta_at_zero).imag)
    return [
        _check("realness_conjugate_pair", res.imag_residual / scale, 0.05),
        _check("realness_rejected_uniform_phase", rejected / scale, 0.05,
               larger_is_fail=False),
    ]


def gamma_checks() -> list:
    """Gamma(1) = 1, Gamma(1/2) = pi^(1/2) and |Gamma(i/4)|^2 =
    pi / ((1/4) sinh(pi/4)), within 1e-12."""
    worst = max(
        abs(model.complex_gamma(1.0) - 1.0),
        abs(model.complex_gamma(0.5) - math.sqrt(math.pi)),
        abs(abs(model.complex_gamma(0.25j)) ** 2
            - math.pi / (0.25 * math.sinh(math.pi * 0.25))),
    )
    return [_check("gamma_identities", worst, 1e-12)]


def modulus_checks(angle: float) -> list:
    """|(m1^j)_12| = nu^(1/2) within 1e-10 for j = 1..4 and nu = 0.001,
    0.01, 0.1, 0.5, at r(S_j) = (1 - e^(-2 pi nu))^(1/2) e^(i angle)."""
    worst = 0.0
    for nu in (0.001, 0.01, 0.1, 0.5):
        r_val = math.sqrt(1.0 - math.exp(-2.0 * math.pi * nu)) \
            * np.exp(1j * angle)
        for j in (1, 2, 3, 4):
            m1 = model.m1_entry(nu, r_val, j)
            worst = max(worst, abs(abs(m1) - math.sqrt(nu)))
    return [_check("model_modulus_sqrt_nu", worst, 1e-10)]


def phase_checks(rng: np.random.Generator) -> list:
    """phi'(S_j) = 0 within 1e-10 and phi''(S_j) beta_j^2 = (-1)^(j-1) i/2
    within 1e-12 at the stationary points of 100 rays drawn from `rng`,
    v then t per ray: v uniform in (-1.8, 1.8), t in (1, 1000)."""
    worst_d1 = worst_identity = 0.0
    for _ in range(100):
        v = rng.uniform(-1.8, 1.8)
        t = rng.uniform(1.0, 1000.0)
        ray = RayParams(n=probe_site(v, t, 1.8), t=t)
        stat = stationary_points(ray)
        for k in range(4):
            worst_d1 = max(worst_d1, abs(
                phase.phase_derivative(stat.S[k], ray)))
            worst_identity = max(worst_identity, abs(
                stat.phi_dd[k] * stat.beta[k] ** 2 - (-1) ** k * 0.5j))
    return [_check("phase_first_derivative", worst_d1, 1e-10),
            _check("phase_beta_identity", worst_identity, 1e-12)]


def delta_product_checks(points, tol: float = weights.DEFAULT_TOL) -> list:
    """delta(z) = prod_j delta_j(z) within 1e-9 at every z of `points`, on
    single-site 0.3 data and the ray n = 50, t = 100, with the arc
    quadrature at `tol`."""
    profile = InitialProfile(kind="single_site", amplitude=0.3)
    r_eval = reflection_evaluator(profile.support_state())
    stat = stationary_points(RayParams(n=50, t=100.0))
    worst = 0.0
    for z in points:
        d = weights.delta_at(r_eval, stat, z, tol=tol)
        prod = 1.0 + 0.0j
        for j in (1, 2, 3, 4):
            prod *= weights.delta_j_at(r_eval, stat, j, z, tol=tol)
        worst = max(worst, abs(d - prod))
    return [_check("delta_product_identity", worst, 1e-9)]


def selftest() -> dict:
    """Run the invariant suite and the realness audit.

    Returns {"pass": bool, "checks": [{"name", "pass", "measured",
    "threshold"}, ...]}; every check also records its wall time.  A
    generator seeded with 20240901 draws the unitarity data, then the
    phase-check rays.
    """
    rng = np.random.default_rng(20240901)
    radii = [0.3 + 0.55 * (k / 9.0) for k in range(10)] \
        + [1.15 + 0.85 * (k / 9.0) for k in range(10)]
    product_points = [radius * np.exp(2j * math.pi * k / 20.0)
                      for k, radius in enumerate(radii)]
    checks = []
    for fn in (gamma_checks,
               lambda: modulus_checks(0.3),
               lambda: unitarity_checks(lattice.LatticeState(
                   n_min=-8, values=rng.uniform(-0.5, 0.5, 16))),
               lambda: phase_checks(rng),
               lambda: delta_product_checks(product_points),
               integrator_checks,
               realness_checks):
        started = time.perf_counter()
        results = fn()
        elapsed = time.perf_counter() - started
        for res in results:
            res["seconds"] = round(elapsed / len(results), 4)
        checks += results

    return {"pass": all(c["pass"] for c in checks), "checks": checks}
