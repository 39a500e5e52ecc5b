"""Run one dmkdv benchmark workload and print its metrics.

    python3 bench/run.py --workload accept-sweep --seed 1 --seconds 10 --trace 0

Run from anywhere inside a checkout: the package is imported from the
checkout's ``src/``.  An untraced run (``--trace 0``) repeats the
workload's ``run_compare`` call until ``--seconds`` have passed (at least
once) and reports medians of the end-to-end metrics; a traced run
(``--trace 1``) makes one untraced and one traced call and reports the
per-layer metrics.  Every row is checked against ``reference.json``.
Human-readable lines go first; the last line of standard output is the
JSON result.  A result file with provenance, and for traced runs the
spans, are written under ``bench/out/``.  The exit code is 0 only when
every row passed.  See NOTES.md for why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5

# A fresh interpreter imports the package and builds the workload's config.
_SETUP_SNIPPET = (
    "import sys; sys.path[:0] = [sys.argv[1], sys.argv[2]]; "
    "import workloads; workloads.WORKLOADS[sys.argv[3]].config()"
)

END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not (SRC / "dmkdv" / "__init__.py").is_file():
        _fail(f"no dmkdv sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import dmkdv
    if Path(dmkdv.__file__).resolve().parent != SRC / "dmkdv":
        _fail(f"imported dmkdv from {dmkdv.__file__}, not from {SRC}")


def measure_setup(name: str, repeats: int = SETUP_REPEATS) -> list:
    """Wall seconds of fresh interpreters that import dmkdv and build the
    workload's RunConfig; one untimed start first writes bytecode caches."""
    cmd = [sys.executable, "-c", _SETUP_SNIPPET, str(SRC), str(BENCH_DIR),
           name]
    times = []
    for i in range(repeats + 1):
        start = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, timeout=120)
        if i:
            times.append(time.perf_counter() - start)
    return times


def timed_call(workload, expected: list, tol: float) -> dict:
    """One run_compare call: wall and CPU seconds, rows and failed rows."""
    from dmkdv.harness import run_compare
    from workloads import failed_rows
    config = workload.config()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    records = run_compare(config, compute_direct=workload.compute_direct)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    return {"wall_s": wall, "cpu_s": cpu, "rows": len(records),
            "failed": failed_rows(records, expected, tol),
            "records": records}


def run_untraced(workload, expected, tol, seconds: float) -> tuple:
    calls = []
    start = time.perf_counter()
    while not calls or time.perf_counter() - start < seconds:
        calls.append(timed_call(workload, expected, tol))
    metrics = {key: statistics.median(c[key] for c in calls)
               for key in ("wall_s", "cpu_s")}
    return metrics, calls


def run_traced(workload, expected, tol) -> tuple:
    import tracing
    untraced = timed_call(workload, expected, tol)
    tracer = tracing.Tracer()
    with tracing.install(tracer):
        traced = timed_call(workload, expected, tol)
    metrics = tracing.layer_metrics(tracer.spans)
    metrics["trace.overhead_s"] = traced["wall_s"] - untraced["wall_s"]
    metrics.update(tracing.kernel_probes())
    return metrics, [untraced, traced], tracer


def provenance(args, samples: dict) -> dict:
    cpu_model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), cpu_model)
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "dmkdv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, timeout=30,
            capture_output=True, text=True).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    import numpy
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "samples": samples,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0,
                        help="recorded only: the workloads are fixed")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="self-test size with its own reference rows")
    args = parser.parse_args(argv)

    _import_program()
    import workloads
    table = workloads.TOY if args.toy else workloads.WORKLOADS
    if args.workload not in table:
        _fail(f"unknown workload {args.workload!r}; "
              f"choose from {', '.join(table)}")
    workload = table[args.workload]
    reference = workloads.load_reference()
    expected = reference["rows"][
        workloads.reference_key(args.workload, args.toy)]
    tol = reference["tolerance"]

    tracer = None
    if args.trace:
        import tracing
        metrics, calls, tracer = run_traced(workload, expected, tol)
        units = tracing.LAYER_METRICS
        samples = {"calls": len(calls), "kernel_probe_repeats": 5}
    else:
        setup = measure_setup(args.workload)
        metrics, calls = run_untraced(workload, expected, tol, args.seconds)
        metrics["setup_s"] = statistics.median(setup)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        units = END_TO_END_UNITS
        samples = {"wall_s": len(calls), "cpu_s": len(calls),
                   "setup_s": len(setup)}

    attempted = sum(c["rows"] for c in calls)
    failed = sum(c["failed"] for c in calls)
    fail_frac = failed / attempted if attempted else 1.0
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units},
    }

    OUT_DIR.mkdir(exist_ok=True)
    stem = (f"{args.workload}{'-toy' if args.toy else ''}-seed{args.seed}"
            f"-trace{args.trace}-{time.strftime('%Y%m%dT%H%M%S')}"
            f"-{os.getpid()}")
    if tracer is not None:
        tracer.write(OUT_DIR / f"{stem}.spans.csv.gz")
    record = dict(result, fail_frac=fail_frac,
                  provenance=provenance(args, samples),
                  rows=[workloads.row_key(r) for r in calls[-1]["records"]],
                  calls=[{k: c[k] for k in ("wall_s", "cpu_s", "rows",
                                           "failed")} for c in calls])
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")

    print(f"workload {args.workload}: {attempted} rows attempted, "
          f"{failed} failed")
    print(f"fail_frac = {fail_frac:.6g} (fraction)")
    for name, entry in result["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
