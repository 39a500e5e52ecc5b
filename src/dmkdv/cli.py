"""Command-line front end.

    dmkdv simulate  [--config cfg.json] [--set key=value ...]
    dmkdv scatter   ...
    dmkdv asymptote ...
    dmkdv compare   [--plot-data STEM] ...
    dmkdv selftest

The first four take their configuration from an optional JSON file
plus dotted --set overrides (e.g. --set profile.amplitude=0.2
--set output.format=json); an unknown key is a configuration error.
simulate, asymptote and compare are one row command that differ in
their columns and in the side of the sweep they skip.  selftest runs
fixed checks and takes no options.  Every table is written by
harness.write_table.  Exit codes: 0 success, 1 check/row failure (a
failed row or check prints one stderr line), 2 configuration error,
3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import scattering, weights
from .errors import ConfigError, DmkdvError
from .harness import (
    COMPARE_COLUMNS,
    RunConfig,
    emit,
    emit_plot_data,
    run_compare,
    selftest,
    write_table,
)
from .lattice import conserved_c_inf, rho_zero

# row subcommand -> (its columns, the side of run_compare it skips)
_ROW_COMMANDS = {
    "simulate": (("n", "t", "v", "q_direct"), {"compute_asym": False}),
    "asymptote": (("n", "t", "v", "q_asym", "odd_pair_residual"),
                  {"compute_direct": False}),
    "compare": (COMPARE_COLUMNS, {}),
}


def _load_config(args) -> RunConfig:
    """The JSON file's object, then each --set, then the flags, as dotted
    keys; a later key wins (see RunConfig.from_dict)."""
    data: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ConfigError(f"{args.config} must hold a JSON object")
    overrides = []
    for spec in args.set or ():
        if "=" not in spec:
            raise ConfigError(f"--set expects key=value, got {spec!r}")
        key, raw = spec.split("=", 1)
        try:
            overrides.append((key, json.loads(raw)))
        except json.JSONDecodeError:
            overrides.append((key, raw))
    overrides += [(key, value) for key, value in (
        ("output.path", args.output), ("output.format", args.format))
        if value is not None]
    for key, value in overrides:
        data.pop(key, None)  # re-inserted last, so that it wins
        data[key] = value
    return RunConfig.from_dict(data)


def _cmd_rows(command: str, config: RunConfig, plot_stem: str | None) -> int:
    """simulate, asymptote or compare: run the sweep, write its table;
    compare also writes --plot-data and its timing summary."""
    columns, skip = _ROW_COMMANDS[command]
    records = run_compare(config, **skip)
    emit(records, config.output_path, config.output_format, columns)
    summary = ""
    if command == "compare":
        for path in emit_plot_data(records, plot_stem) if plot_stem else ():
            print(f"plot data: {path}")
        slowest = max(records, key=lambda r: r.wall_time)
        summary = (f" ({sum(r.wall_time for r in records):.1f}s total, "
                   f"{sum(r.integrate_time for r in records):.1f}s "
                   f"integrating, slowest row v={slowest.v:g} "
                   f"t={slowest.t:g} at {slowest.wall_time:.1f}s)")
    print(f"wrote {len(records)} rows to {config.output_path}{summary}")
    failed = [r for r in records if r.fail_reason]
    for rec in failed:
        print(f"row v={rec.v:g} t={rec.t:g} failed: {rec.fail_reason}",
              file=sys.stderr)
    return 1 if failed else 0


def _cmd_scatter(config: RunConfig) -> int:
    """r on the grid and the density's spectrum, from one build; the
    summary gives the spectrum's M, P and conditioning ratio."""
    state = config.profile.support_state()
    poly = scattering.scattering_polynomials(state)
    theta, r = scattering.reflection_grid(poly, config.grid_size)
    spectrum = weights.density_spectrum(poly)
    rows = [(th, v.real, v.imag, abs(v)) for th, v in zip(theta, r)]
    write_table(config.output_path, config.output_format,
                ("theta", "re_r", "im_r", "abs_r"), rows)
    print(f"c_inf = {conserved_c_inf(state)!r}  rho0 = {rho_zero(state)!r}  "
          f"max|r| = {float(np.abs(r).max())!r}  "
          f"spectrum M = {spectrum.coeffs.size - 1}  P = {spectrum.grid}  "
          f"conditioning = {spectrum.conditioning:.2e} "
          f"(bound {weights.CONDITIONING_BOUND:g})")
    print(f"wrote {len(rows)} rows to {config.output_path}")
    return 0


def _cmd_selftest() -> int:
    report = selftest()
    print(json.dumps(report, indent=2))
    return 0 if report["pass"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="dmkdv",
        description="discrete defocusing mKdV lattice: simulation, "
                    "scattering, and long-time asymptotics")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("simulate", "scatter", "asymptote", "compare"):
        p = sub.add_parser(name)
        p.set_defaults(plot_stem=None)
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a configuration entry")
        p.add_argument("--output", default=None, help="output file path")
        p.add_argument("--format", choices=("csv", "json"), default=None)
        if name == "compare":
            p.add_argument("--plot-data", dest="plot_stem", default=None,
                           metavar="STEM",
                           help="write a two-column (t, abs_err) file per ray")
    sub.add_parser("selftest")  # fixed checks: no configuration
    args = parser.parse_args(argv)

    if args.command == "selftest":
        return _cmd_selftest()
    try:
        config = _load_config(args)
        if args.command == "scatter":
            return _cmd_scatter(config)
        return _cmd_rows(args.command, config, args.plot_stem)
    except (ConfigError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3
    except DmkdvError as exc:  # a check that failed outside the rows
        print(exc.describe(), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
