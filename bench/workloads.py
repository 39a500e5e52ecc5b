"""Workload definitions and the correctness gate of the dmkdv benchmark.

Each workload is one call to ``dmkdv.harness.run_compare`` with
``threads=1``.  The inputs are fixed: the seed a run is given is recorded
but does not change them, so every row can be checked against a value
recorded once (``reference.json``).  ``TOY`` holds the same workloads at
a size the self-test can afford.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from dmkdv.harness import RunConfig
from dmkdv.lattice import InitialProfile

REFERENCE_PATH = Path(__file__).with_name("reference.json")


@dataclass(frozen=True)
class Workload:
    profile: InitialProfile
    rays: tuple
    times: tuple
    compute_direct: bool
    dt: float = 0.005

    def config(self) -> RunConfig:
        return RunConfig(profile=self.profile, v_list=self.rays,
                         t_list=self.times, dt=self.dt, threads=1)


_SINGLE = InitialProfile(kind="single_site", amplitude=0.3)
_FAN = (-1.5, -1.0, -0.5, 0.0, 0.5, 1.0, 1.5)

WORKLOADS = {
    "accept-sweep": Workload(_SINGLE, (0.5,), (100.0, 200.0, 400.0, 800.0),
                             compute_direct=True),
    "asym-fan": Workload(_SINGLE, _FAN, (100.0, 200.0, 400.0, 800.0),
                         compute_direct=False),
    "asym-gaussian": Workload(
        InitialProfile(kind="gaussian", amplitude=0.2, width=2.0),
        (0.5,), (200.0, 800.0), compute_direct=False),
}

TOY = {
    "accept-sweep": Workload(_SINGLE, (0.5,), (20.0, 40.0),
                             compute_direct=True, dt=0.01),
    "asym-fan": Workload(_SINGLE, (-1.0, 0.5), (50.0,),
                         compute_direct=False),
    "asym-gaussian": Workload(
        InitialProfile(kind="gaussian", amplitude=0.2, width=0.3),
        (0.5,), (100.0,), compute_direct=False),
}


def reference_key(name: str, toy: bool) -> str:
    return f"{name}@toy" if toy else name


def load_reference() -> dict:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def row_key(rec) -> list:
    """[n, t, v, q_direct, q_asym] with NaN written as None."""
    def value(x):
        return None if math.isnan(x) else float(x)
    return [int(rec.n), float(rec.t), float(rec.v),
            value(rec.q_direct), value(rec.q_asym)]


def failed_rows(records, expected: list, tol: float) -> int:
    """Rows that failed, that are missing or extra, or that differ from
    the reference by more than `tol` in q_direct or q_asym."""
    failed = abs(len(records) - len(expected))
    for rec, ref in zip(records, expected):
        got = row_key(rec)
        ok = rec.fail_reason is None and got[:3] == ref[:3]
        for have, want in zip(got[3:], ref[3:]):
            if want is None:
                ok = ok and have is None
            else:
                ok = ok and have is not None and abs(have - want) <= tol
        failed += not ok
    return failed
