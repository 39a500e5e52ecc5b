"""Spans around the calls ``dmkdv.harness`` makes into each layer.

The benchmark records spans from its own files: ``install`` replaces the
names the harness looks up (``integrate``, ``reflection_evaluator`` and
the evaluator it returns, ``stationary_points``,
``weights.coefficient_set``, ``model.cross_solutions``,
``model.leading_term`` and the per-row worker) with wrappers that time
each call, and puts the originals back on exit.  Spans stay in memory
until the run ends; every per-layer number is derived from them.
"""

from __future__ import annotations

import contextlib
import gzip
import statistics
import time

import dmkdv.harness as harness
import dmkdv.model as model
import dmkdv.weights as weights
from dmkdv import lattice, scattering
from dmkdv.lattice import InitialProfile

ROW = "harness.row"
INTEGRATE = "lattice.integrate"
R_EVAL = "scattering.r_eval"

LAYER_METRICS = {
    "lattice.calls": "count", "lattice.busy_s": "s",
    "lattice.steps": "count", "lattice.site_steps": "count",
    "lattice.us_per_step": "us", "lattice.ns_per_site_step": "ns",
    "scattering.evaluator_builds": "count", "scattering.r_evals": "count",
    "scattering.busy_s": "s", "scattering.us_per_r_eval": "us",
    "phase.calls": "count", "phase.busy_s": "s",
    "weights.calls": "count", "weights.busy_s": "s", "weights.self_s": "s",
    "weights.r_evals_per_row": "count/row",
    "model.busy_s": "s", "model.r_evals": "count",
    "harness.rows": "count", "harness.self_s": "s",
    "trace.overhead_s": "s",
    "lattice.us_per_step.n801": "us", "lattice.us_per_step.n4301": "us",
    "lattice.us_per_step.n8001": "us",
    "scattering.us_per_r_eval.single_site": "us",
    "scattering.us_per_r_eval.gaussian": "us",
}


class Tracer:
    """Collects spans as (name, start, end, parent, row, steps, sites).

    `parent` is the index of the enclosing span (-1 for none) and `row`
    the index of the enclosing row span.  Only integrate spans carry
    `steps` and `sites`; the others hold 0 there.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self._row = -1

    def wrap(self, name, fn, wrap_result=None):
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            if name == ROW:
                self._row = index
            steps = sites = 0
            if name == INTEGRATE:
                steps, sites = _integrate_work(*args, **kwargs)
            self._stack.append(index)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[index] = (name, start, end, parent, self._row,
                                     steps, sites)
            return wrap_result(result) if wrap_result else result
        return traced

    def write(self, path) -> None:
        """Spans as gzip CSV, times in seconds from the first span."""
        origin = self.spans[0][1] if self.spans else 0.0
        with gzip.open(path, "wt", encoding="ascii", newline="\n") as fh:
            fh.write("name,start_s,end_s,parent,row,steps,sites\n")
            for name, start, end, parent, row, steps, sites in self.spans:
                fh.write(f"{name},{start - origin:.9f},{end - origin:.9f},"
                         f"{parent},{row},{steps},{sites}\n")


def _integrate_work(initial, t_end, dt, **_):
    # same step count rule as lattice.integrate
    span = t_end - initial.t
    steps = max(1, int(round(abs(span) / dt))) if span != 0.0 else 0
    return steps, len(initial.values)


@contextlib.contextmanager
def install(tracer: Tracer):
    """Route the harness's layer calls through `tracer` while active."""
    def evaluator(r_eval):
        return tracer.wrap(R_EVAL, r_eval)

    targets = [
        (harness, "_row_worker", ROW, None),
        (harness, "integrate", INTEGRATE, None),
        (harness, "reflection_evaluator", "scattering.evaluator_build",
         evaluator),
        (harness, "stationary_points", "phase.stationary_points", None),
        (weights, "coefficient_set", "weights.coefficient_set", None),
        (model, "cross_solutions", "model.cross_solutions", None),
        (model, "leading_term", "model.leading_term", None),
    ]
    originals = [(module, attr, getattr(module, attr))
                 for module, attr, _, _ in targets]
    try:
        for module, attr, name, wrap_result in targets:
            setattr(module, attr,
                    tracer.wrap(name, getattr(module, attr), wrap_result))
        yield tracer
    finally:
        for module, attr, original in originals:
            setattr(module, attr, original)


def layer_metrics(spans) -> dict:
    """Counts, busy and self times per layer from a list of spans.

    Busy time is the sum of a layer's span durations; self time subtracts
    the time covered by the span's direct children.  Ratios with no work
    under them read 0.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, *_ in spans:
        if parent >= 0:
            child_time[parent] += end - start

    def total(pred, self_time=False):
        return sum(end - start - (child_time[i] if self_time else 0.0)
                   for i, (name, start, end, parent, *_) in enumerate(spans)
                   if pred(name, parent))

    def count(pred):
        return sum(1 for name, _, _, parent, *_ in spans
                   if pred(name, parent))

    def layer(prefix):
        return lambda name, parent: name.startswith(prefix + ".")

    def r_under(prefix):
        return lambda name, parent: (name == R_EVAL and parent >= 0 and
                                     spans[parent][0].startswith(prefix + "."))

    def ratio(num, den):
        return num / den if den else 0.0

    def is_r(name, parent):
        return name == R_EVAL

    integrate_spans = [s for s in spans if s[0] == INTEGRATE]
    steps = sum(s[5] for s in integrate_spans)
    site_steps = sum(s[5] * s[6] for s in integrate_spans)
    lattice_busy = total(layer("lattice"))
    rows = count(layer("harness"))
    r_evals = count(is_r)
    return {
        "lattice.calls": len(integrate_spans),
        "lattice.busy_s": lattice_busy,
        "lattice.steps": steps,
        "lattice.site_steps": site_steps,
        "lattice.us_per_step": ratio(lattice_busy * 1e6, steps),
        "lattice.ns_per_site_step": ratio(lattice_busy * 1e9, site_steps),
        "scattering.evaluator_builds": count(
            lambda name, parent: name == "scattering.evaluator_build"),
        "scattering.r_evals": r_evals,
        "scattering.busy_s": total(layer("scattering")),
        "scattering.us_per_r_eval": ratio(total(is_r) * 1e6, r_evals),
        "phase.calls": count(layer("phase")),
        "phase.busy_s": total(layer("phase")),
        "weights.calls": count(layer("weights")),
        "weights.busy_s": total(layer("weights")),
        "weights.self_s": total(layer("weights"), self_time=True),
        "weights.r_evals_per_row": ratio(count(r_under("weights")), rows),
        "model.busy_s": total(layer("model")),
        "model.r_evals": count(r_under("model")),
        "harness.rows": rows,
        "harness.self_s": total(layer("harness"), self_time=True),
    }


def _median_seconds(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def kernel_probes() -> dict:
    """Microsecond costs of one RK4 step and one r(z), measured through
    the public calls (ROADMAP item 1's fixed kernel sizes)."""
    out = {}
    steps = 400
    for sites in (801, 4301, 8001):
        half = sites // 2
        state = InitialProfile(kind="single_site", amplitude=0.3).realize(
            -half, half)
        seconds = _median_seconds(
            lambda: lattice.integrate(state, steps * 0.005, 0.005))
        out[f"lattice.us_per_step.n{sites}"] = seconds * 1e6 / steps
    profiles = {
        "single_site": (InitialProfile(kind="single_site", amplitude=0.3),
                        512),
        "gaussian": (InitialProfile(kind="gaussian", amplitude=0.2,
                                    width=2.0), 64),
    }
    for label, (profile, points) in profiles.items():
        state = lattice.staggered(profile.support_state())
        zs = [scattering.UnitCirclePoint.from_theta(0.1 + 6.2 * k / points)
              for k in range(points)]
        seconds = _median_seconds(
            lambda: [scattering.scattering_coefficients(state, z) for z in zs])
        out[f"scattering.us_per_r_eval.{label}"] = seconds * 1e6 / points
    return out
