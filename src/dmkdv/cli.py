"""Command-line front end.

    dmkdv simulate  [--config cfg.json] [--set key=value ...]
    dmkdv scatter   ...
    dmkdv asymptote ...
    dmkdv compare   [--plot-data STEM] ...
    dmkdv selftest

The first four take their configuration from an optional JSON file
plus dotted --set overrides (e.g. --set profile.amplitude=0.2
--set output.format=json); an unknown key is a configuration error.
selftest runs fixed checks and takes no options.  Every table is written
by harness.write_table.  Exit codes: 0 success, 1 check/row failure,
2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import scattering
from .errors import ConfigError
from .harness import (
    RunConfig,
    emit,
    emit_plot_data,
    run_compare,
    selftest,
    write_table,
)
from .lattice import conserved_c_inf, rho_zero


def _apply_override(config: dict, spec: str) -> None:
    if "=" not in spec:
        raise ConfigError(f"--set expects key=value, got {spec!r}")
    key, raw = spec.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise ConfigError(f"cannot descend into {part!r} in {key!r}")
    node[parts[-1]] = value


def _load_config(args) -> RunConfig:
    data: dict = {}
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    for spec in args.set or ():
        _apply_override(data, spec)
    if args.threads is not None:
        data["threads"] = args.threads
    if args.output is not None:
        data.setdefault("output", {})["path"] = args.output
    if args.format is not None:
        data.setdefault("output", {})["format"] = args.format
    return RunConfig.from_dict(data)


def _cmd_simulate(config: RunConfig) -> int:
    records = run_compare(config, compute_asym=False)
    rows = [(r.n, r.t, r.v, r.q_direct) for r in records]
    write_table(config.output_path, config.output_format,
                ("n", "t", "v", "q_direct"), rows)
    print(f"wrote {len(rows)} rows to {config.output_path}")
    return 1 if any(r.fail_reason for r in records) else 0


def _cmd_asymptote(config: RunConfig) -> int:
    records = run_compare(config, compute_direct=False)
    rows = [(r.n, r.t, r.v, r.q_asym, r.imag_residual) for r in records]
    write_table(config.output_path, config.output_format,
                ("n", "t", "v", "q_asym", "imag_residual"), rows)
    print(f"wrote {len(rows)} rows to {config.output_path}")
    return 1 if any(r.fail_reason for r in records) else 0


def _cmd_scatter(config: RunConfig) -> int:
    state = config.profile.support_state()
    theta, r = scattering.reflection_grid(state, config.grid_size)
    rows = [(th, v.real, v.imag, abs(v)) for th, v in zip(theta, r)]
    write_table(config.output_path, config.output_format,
                ("theta", "re_r", "im_r", "abs_r"), rows)
    print(f"c_inf = {conserved_c_inf(state)!r}  rho0 = {rho_zero(state)!r}  "
          f"max|r| = {float(np.abs(r).max())!r}")
    print(f"wrote {len(rows)} rows to {config.output_path}")
    return 0


def _cmd_compare(config: RunConfig, plot_stem: str | None) -> int:
    records = run_compare(config)
    emit(records, config.output_path, config.output_format)
    if plot_stem:
        for path in emit_plot_data(records, plot_stem):
            print(f"plot data: {path}")
    failed = [r for r in records if r.fail_reason]
    total = sum(r.wall_time for r in records)
    integrating = sum(r.integrate_time for r in records)
    slowest = max(records, key=lambda r: r.wall_time)
    print(f"wrote {len(records)} rows to {config.output_path} "
          f"({total:.1f}s total, {integrating:.1f}s integrating, "
          f"slowest row v={slowest.v:g} t={slowest.t:g} "
          f"at {slowest.wall_time:.1f}s)")
    for rec in failed:
        print(f"row v={rec.v:g} t={rec.t:g} failed: {rec.fail_reason}",
              file=sys.stderr)
    return 1 if failed else 0


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
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE",
                       help="override a configuration entry")
        p.add_argument("--threads", type=int, default=None,
                       help="cap row-level parallelism")
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
        if args.command == "simulate":
            return _cmd_simulate(config)
        if args.command == "scatter":
            return _cmd_scatter(config)
        if args.command == "asymptote":
            return _cmd_asymptote(config)
        return _cmd_compare(config, args.plot_stem)
    except (ConfigError, json.JSONDecodeError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
