"""End-to-end experiment harness.

Runs the full chain for a sweep of rays and times: integrate the lattice
directly, once per profile through the sorted times (_trajectory, whose
states every row reads its q_n from), build the reflection coefficient
r_u of the initial profile and the spectrum of its density once per
sweep, from one build of its polynomials (reflection_u), evaluate the
leading-order asymptotic value per row from them
(asymptotic_value(r_eval, spectrum, n, t), the one route to the formula;
how a row samples r is stated in weights.coefficient_set), and record the
comparison: the measured values, from which the error columns are
derived.  Also hosts what the CLI writes and checks with:
write_table, the one writer of every output table (emit is its form for
comparison records), and the invariant checks, each written once at
module level and shared by selftest and the acceptance suite.  The
cross entries follow model.m1_entry alone; the realness audit forms the
even crosses rows omit, to show that the rejected form fails.
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
    "reflection_u",
    "asymptotic_value",
    "selftest",
    "emit",
    "write_table",
    "COMPARE_COLUMNS",
]

COMPARE_COLUMNS = ("n", "t", "v", "q_direct", "q_asym", "abs_err",
                   "scaled_err", "odd_pair_residual")


def _text(key: str, value) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _real(key: str, value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def _integer(key: str, value) -> int:
    # type(True) is bool, not int; 3.0 is 3, and 2.7 is not cut to 2
    if not (type(value) is int or _real(key, value).is_integer()):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _reals(key: str, values) -> tuple:
    if not isinstance(values, (list, tuple)):  # a string is not iterated
        raise ConfigError(f"{key} must be a list of numbers, got {values!r}")
    return tuple(_real(key, value) for value in values)


# JSON key -> (field, conversion); the profile.* keys fill InitialProfile
# and the others RunConfig.  A conversion refuses a value of the wrong
# JSON type with a ConfigError that names the key.
_KEYS = {
    "profile.kind": ("kind", _text),
    "profile.amplitude": ("amplitude", _real),
    "profile.width": ("width", _real),
    "profile.center": ("center", _integer),
    "profile.custom": ("custom", _reals),
    "rays": ("v_list", _reals),
    "times": ("t_list", _reals),
    "dt": ("dt", _real),
    "grid_size": ("grid_size", _integer),
    "v_max": ("v_max", _real),
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
    threads: int = 1  # not in _KEYS; rows run in one process

    def __post_init__(self):
        if not all(map(math.isfinite, (self.dt, *self.v_list,
                                       *self.t_list))):
            raise ConfigError("dt, rays and times must be finite")
        if self.dt <= 0:
            raise ConfigError("dt must be positive")
        if not 0 < self.v_max < 2:
            raise ConfigError("v_max must lie in (0, 2)")
        try:
            scattering.check_grid_size(self.grid_size)
        except ValueError as exc:
            raise ConfigError(f"grid_size: {exc}") from None
        if len(self.v_list) == 0:
            raise ConfigError("rays must be a nonempty list")
        if any(abs(v) > self.v_max for v in self.v_list):
            raise ConfigError(f"every |v| must be <= v_max = {self.v_max}")
        if not self.t_list or any(
                b <= a for a, b in zip(self.t_list, self.t_list[1:])):
            raise ConfigError("times must be a nonempty increasing list "
                              "without repeats")
        if any(t <= 0 for t in self.t_list):
            raise ConfigError("times must be positive")
        if self.output_format not in ("csv", "json"):
            raise ConfigError("output format must be csv or json")
        if self.threads != 1:
            raise ConfigError("threads must be 1: rows run in one process")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Build from a dict of the JSON keys of _KEYS, every one optional
        (defaults come from the dataclasses).  A nested key and its dotted
        form are the same key ({"profile": {"center": 3}} is
        {"profile.center": 3}), and a later key wins.  Every unknown key is
        named in one ConfigError.  Numbers are JSON numbers, not strings
        or booleans; rays, times and profile.custom are arrays of them,
        and profile.center and grid_size whole numbers.
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
                target = profile if key.startswith("profile.") else kwargs
                target[field] = convert(key, value)
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
    odd_pair_residual: float
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


def reflection_u(profile: InitialProfile) -> tuple:
    """(r_eval, spectrum) of u_k = (-1)^k q_k(0), from one build of its
    polynomials: every asymptotic value of the profile is built from the
    pair (see asymptotic_value).  The spectrum's guards fail the build."""
    poly = scattering.scattering_polynomials(
        staggered(profile.support_state()))
    return reflection_evaluator(poly), weights.density_spectrum(poly)


def asymptotic_value(r_eval, spectrum, n: int,
                     t: float) -> model.AsymptoticResult:
    """Leading-order asymptotic value of q_n(t) from r_eval and spectrum,
    the profile's reflection_u, built once and shared by every value of
    the profile.  r is sampled at one point; the arcs read the spectrum.

    The cross-sum functional R (leading_term) reconstructs the lattice
    field in a staggered, site-shifted gauge relative to the transfer
    recursions used for the scattering data: under our conventions

        q_n(t) = (-1)^n R(n+1, t; r_u),   u_k = (-1)^k q_k(0).

    The gauge is pinned by two independent oracles: direct integration,
    and the exact linearization q_n = sum_k q_k J_(k-n)(2t) for small
    data (Bessel asymptotics fix both the site shift and the sign
    alternation; see tests).  The ray n+1 may lie 1/t past v_max;
    stationary_points refuses it only near the merging points.  The
    odd-pair residual is returned as measured; a sweep's rows apply
    model.check_realness to it.
    """
    stat = stationary_points(RayParams(n=n + 1, t=t))
    coeffs = weights.coefficient_set(r_eval, spectrum, stat)
    m1 = model.cross_solutions(coeffs)
    res = model.leading_term(stat, coeffs, m1)
    return replace(res, q_asym=(-1) ** n * res.q_asym)


_WINDOW_MARGIN = 150  # sites past 2.5 max(t) on either side, see _trajectory


def _trajectory(config: RunConfig):
    """Yield (t, state, fail_reason, seconds) at each time, in increasing
    order: the sweep's one integration of the profile.

    The window is the profile's support_state, L sites, widened by
    ceil(2.5 max(t) + _WINDOW_MARGIN) + L // 8 on either side.  The light
    cone has speed 2, and the spill guard watches the outermost 10% of
    the window; the extra half-t and L // 8 keep that region about
    2 max(t) + 120 sites past the support for any L, strictly outside
    the cone, where only the (superexponentially small) tail and
    integrator front noise live.  `seconds` is the time of the segment
    that ended at t.  From the segment whose guard trips on, state is
    None and nothing more is integrated.
    """
    support = config.profile.support_state()
    half = (int(math.ceil(2.5 * max(config.t_list) + _WINDOW_MARGIN))
            + len(support.values) // 8)
    started = time.perf_counter()
    state = lattice.LatticeState(n_min=support.n_min - half,
                                 values=np.pad(support.values, half))
    reason = None
    for t in config.t_list:
        if reason is None:
            try:
                state = integrate(state, t, config.dt)
            except DmkdvError as exc:
                state, reason = None, exc.describe()
        yield t, state, reason, time.perf_counter() - started
        started = time.perf_counter()


def _row_worker(config: RunConfig, v: float, t: float, stop,
                reflection) -> ComparisonRecord:
    """One row: `stop` is (state, fail_reason, seconds) of its t (state
    None: not integrated) and reflection the sweep's reflection_u pair
    (None: no asymptotic value).  A failed row reads no value; the
    realness guard, model.check_realness, fails the row on its own."""
    started = time.perf_counter()
    state, reason, integrate_time = stop
    n = probe_site(v, t, config.v_max)
    q_direct = q_asym = odd_pair_residual = math.nan
    if reason is None and reflection is not None:
        try:
            result = asymptotic_value(*reflection, n, t)
            model.check_realness(result)
            q_asym = result.q_asym
            odd_pair_residual = result.odd_pair_residual
        except DmkdvError as exc:
            reason = exc.describe()
    if reason is None and state is not None:
        q_direct = state.value_at(n)
    return ComparisonRecord(
        n=n, t=t, v=v, q_direct=q_direct, q_asym=q_asym,
        odd_pair_residual=odd_pair_residual, fail_reason=reason,
        wall_time=time.perf_counter() - started + integrate_time,
        integrate_time=integrate_time)


def run_compare(config: RunConfig, compute_direct: bool = True,
                compute_asym: bool = True) -> list:
    """Full sweep: one record per (v, t), v-major, t increasing.

    The profile is integrated once, and each row reads q_n from the
    state at its t (see _trajectory).  When every time is a multiple of
    dt, each segment takes the per-row step, so q_direct is bitwise what
    a fresh integration from 0 gives.  A guard tripping in the segment
    ending at t_k fails every row at t >= t_k; earlier rows keep their
    values.  r(z) and the density's spectrum are built once per sweep
    (reflection_u) and shared by its rows; a failed build fails every
    row, and then nothing is integrated.  The rows run one after another
    in this process, and an asymptotic failure fails its own row only.
    """
    reflection = unbuilt = None
    if compute_asym:
        try:
            reflection = reflection_u(config.profile)
        except DmkdvError as exc:
            unbuilt = exc.describe()
    stops = dict.fromkeys(config.t_list, (None, unbuilt, 0.0))
    if compute_direct and unbuilt is None:
        for t, state, reason, seconds in _trajectory(config):
            stops[t] = (state, reason, seconds / len(config.v_list))
    return [_row_worker(config, v, t, stops[t], reflection)
            for v in config.v_list for t in config.t_list]


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
    the ray's v exactly as the CSV table prints it: rays are grouped by
    that name, so 0.0 and -0.0 get a file each."""
    paths = []
    by_ray = {}
    for rec in records:
        by_ray.setdefault(_fmt(rec.v), []).append(rec)
    for name, rows in by_ray.items():
        path = f"{path_stem}_ray{name}.dat"
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
    """The realness audit on single-site 0.3 data at n = 400, t = 800
    (asymptotic_value's ray 401), by the four-cross sum rows omit: the
    odd crosses as rows build them, plus the conjugates of their factors
    beta_j S_j^-2 (delta_j^0)^2 times model.m1_entry's even branch at
    r(S_2) = conj r(S_1), r(S_4) = -conj r(S_1).  The sum's imaginary
    residual over t^-1/2 must stay below 0.05, and reach 0.05 once the
    odd crosses are rotated by -i (e^(-i pi/4) for every j, the form the
    model rejects).  Both residuals come from one set of crosses.
    """
    profile = InitialProfile(kind="single_site", amplitude=0.3)
    t = 800.0
    scale = t ** -0.5
    stat = stationary_points(RayParams(n=401, t=t))
    coeffs = weights.coefficient_set(*reflection_u(profile), stat)
    # unit cross entries leave the factors beta_j S_j^-2 (delta_j^0)^2
    factors = model.leading_term(stat, coeffs, (1.0, 1.0)).contributions
    r2 = coeffs.r_at_S1.conjugate()
    odd = sum(f * m for f, m in zip(factors, model.cross_solutions(coeffs)))
    even = sum(f.conjugate() * model.m1_entry(coeffs.nu, r, j)
               for f, r, j in zip(factors, (r2, -r2), (2, 4)))
    pair, rejected = ((rotation * odd + even) / coeffs.delta_at_zero
                      for rotation in (1.0, -1j))
    return [
        _check("realness_conjugate_pair", abs(pair.imag) / scale, 0.05),
        _check("realness_rejected_uniform_phase", abs(rejected.imag) / scale,
               0.05, larger_is_fail=False),
    ]


def gamma_checks() -> list:
    """Gamma(1) = 1, Gamma(1/2) = pi^(1/2) and, on the line Re w = 1 that
    rows use, |Gamma(1 + i/4)|^2 = (pi/4) / sinh(pi/4), within 1e-12."""
    worst = max(
        abs(model.complex_gamma(1.0) - 1.0),
        abs(model.complex_gamma(0.5) - math.sqrt(math.pi)),
        abs(abs(model.complex_gamma(1.0 + 0.25j)) ** 2
            - 0.25 * math.pi / math.sinh(0.25 * math.pi)),
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
    within 1e-12, with phi'' = t(1 - 3 z^-4) + n z^-2 from phi itself, at
    the stationary points of 100 rays drawn from `rng`, v then t per ray:
    v uniform in (-1.8, 1.8), t in (1, 1000)."""
    worst_d1 = worst_identity = 0.0
    for _ in range(100):
        v = rng.uniform(-1.8, 1.8)
        t = rng.uniform(1.0, 1000.0)
        ray = RayParams(n=probe_site(v, t, 1.8), t=t)
        stat = stationary_points(ray)
        for k in range(4):
            s = stat.S[k]
            worst_d1 = max(worst_d1, abs(phase.phase_derivative(s, ray)))
            phi_dd = ray.t * (1.0 - 3.0 * s ** -4) + ray.n * s ** -2
            worst_identity = max(worst_identity, abs(
                phi_dd * stat.beta[k] ** 2 - (-1) ** k * 0.5j))
    return [_check("phase_first_derivative", worst_d1, 1e-10),
            _check("phase_beta_identity", worst_identity, 1e-12)]


# the self-test's product points: radii 0.3..0.85 and 1.15..2, angles k pi/10
PRODUCT_POINTS = tuple(
    radius * np.exp(2j * math.pi * k / 20.0)
    for k, radius in enumerate([0.3 + 0.55 * (i / 9.0) for i in range(10)]
                               + [1.15 + 0.85 * (i / 9.0) for i in range(10)]))


def delta_product_checks(points=PRODUCT_POINTS) -> list:
    """delta(z) = prod_j delta_j(z) within 1e-9 at every z of `points`, on
    single-site 0.3 data and the ray n = 50, t = 100, with the closed-form
    arc sums the rows use.  Each of the six arcs is summed at all the
    points by its own weights._cauchy_sums call: delta's two arcs
    S1 -> S2 and S3 -> S4, and the four arcs T_j -> S_j, signed
    (-1)^(j-1)."""
    profile = InitialProfile(kind="single_site", amplitude=0.3)
    spectrum = weights.density_spectrum(
        scattering.scattering_polynomials(profile.support_state()))
    stat = stationary_points(RayParams(n=50, t=100.0))
    S, T = stat.S, weights._T_ANCHORS
    delta = sum(weights._cauchy_sums(spectrum, S[k], S[k + 1], points)
                for k in (0, 2))
    factors = sum((-1) ** (j - 1) * weights._cauchy_sums(
        spectrum, T[j - 1], S[j - 1], points) for j in (1, 2, 3, 4))
    worst = np.abs(np.exp(-delta) - np.exp(factors)).max()
    return [_check("delta_product_identity", worst, 1e-9)]


def selftest() -> dict:
    """Run the invariant suite and the realness audit.

    Returns {"pass": bool, "checks": [{"name", "pass", "measured",
    "threshold"}, ...]}; every check also records its wall time.  A
    generator seeded with 20240901 draws the unitarity data, then the
    phase-check rays.
    """
    rng = np.random.default_rng(20240901)
    checks = []
    for fn in (gamma_checks,
               lambda: modulus_checks(0.3),
               lambda: unitarity_checks(lattice.LatticeState(
                   n_min=-8, values=rng.uniform(-0.5, 0.5, 16))),
               lambda: phase_checks(rng),
               delta_product_checks,
               integrator_checks,
               realness_checks):
        started = time.perf_counter()
        results = fn()
        elapsed = time.perf_counter() - started
        for res in results:
            res["seconds"] = round(elapsed / len(results), 4)
        checks += results

    return {"pass": all(c["pass"] for c in checks), "checks": checks}
