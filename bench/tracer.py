"""In-memory span tracer that times calls into muskatss from outside it.

The package modules import each other by name (``from .residual import
residual_vector``), so a wrapper is installed on the name its caller
looks up -- ``muskatss.continuation.residual_vector``, not the defining
module -- and removed again by :meth:`Tracer.restore`.

A span is ``(id, name, start, end, parent, thread, info)``.  Each thread
keeps its own parent stack.  Jacobian columns run on pool threads whose
stacks start empty; those spans take the open ``fd_jacobian`` span as
their parent, so the residual work of a parallel Jacobian nests under it.
"""

from __future__ import annotations

import functools
import itertools
import json
import os
import statistics
import threading
import time
from collections import defaultdict

# name -> (unit, better); the order is the report order
PER_LAYER = {
    "residual.calls": ("count", "lower"),
    "residual.busy_s": ("s", "lower"),
    "residual.call_ms.p50": ("ms", "lower"),
    "residual.self_s": ("s", "lower"),
    "lm.iterations": ("count", "lower"),
    "lm.jacobians": ("count", "lower"),
    "lm.jacobian_s": ("s", "lower"),
    "lm.trial_evals": ("count", "lower"),
    "lm.rejected": ("count", "lower"),
    "lm.accept_ratio": ("ratio", "higher"),
    "lm.self_s": ("s", "lower"),
    "lm.jacobian_parallel_eff": ("ratio", "higher"),
    "quadrature.cumulative_calls": ("count", "lower"),
    "quadrature.cumulative_s": ("s", "lower"),
    "quadrature.panels": ("count", "lower"),
    "quadrature.panels_per_gap": ("ratio", "lower"),
    "quadrature.adaptive_calls": ("count", "lower"),
    "quadrature.adaptive_s": ("s", "lower"),
    "quadrature.adaptive_subdivisions": ("count", "lower"),
    "quadrature.self_s": ("s", "lower"),
    "grid_spline.fits": ("count", "lower"),
    "grid_spline.fit_s": ("s", "lower"),
    "grid_spline.evals": ("count", "lower"),
    "grid_spline.eval_points": ("count", "lower"),
    "grid_spline.eval_s": ("s", "lower"),
    "grid_spline.self_s": ("s", "lower"),
    "continuation.steps": ("count", "higher"),
    "continuation.step_s": ("s", "lower"),
    "continuation.retries": ("count", "lower"),
    "continuation.json_s": ("s", "lower"),
    "continuation.json_bytes": ("bytes", "lower"),
    "continuation.self_s": ("s", "lower"),
    "diagnostics.h1_calls": ("count", "lower"),
    "diagnostics.h1_s": ("s", "lower"),
    "diagnostics.figure_s": ("s", "lower"),
    "diagnostics.csv_bytes": ("bytes", "lower"),
    "diagnostics.self_s": ("s", "lower"),
    "cli.calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.count_mismatches": ("count", "lower"),
}

# counts that must repeat exactly for one seed; later changes may rest
# count claims only on these
EXACT_COUNTS = (
    "residual.calls",
    "lm.iterations",
    "lm.jacobians",
    "lm.trial_evals",
    "quadrature.cumulative_calls",
    "quadrature.panels",
    "quadrature.adaptive_calls",
    "quadrature.adaptive_subdivisions",
    "grid_spline.fits",
    "grid_spline.eval_points",
    "continuation.steps",
    "diagnostics.h1_calls",
    "cli.calls",
)

class Tracer:
    """Collects spans while ``enabled``; wrappers pass straight through otherwise."""

    def __init__(self):
        self.spans = []
        self.enabled = False
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fork = None
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr, name, info=None, fork=False):
        """Replace ``owner.attr`` by a timing wrapper recording spans ``name``.

        ``info(args, kwargs, result)`` gives the span's payload (a count,
        a size).  ``fork`` marks the span that pool threads attach to.
        """
        original = getattr(owner, attr)
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._fork
            sid = next(tracer._ids)
            stack.append(sid)
            if fork:
                outer_fork, tracer._fork = tracer._fork, sid
            payload = None
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
                if info is not None:
                    payload = info(args, kwargs, result)
                return result
            finally:
                t1 = time.perf_counter()
                stack.pop()
                if fork:
                    tracer._fork = outer_fork
                tracer.spans.append((sid, name, t0, t1, parent,
                                     threading.get_ident(), payload))

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def restore(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        """Write all spans as JSON: a field list plus one row per span.

        Times are integer nanoseconds from the first span's start; threads
        are numbered in order of appearance.
        """
        os.makedirs(os.path.dirname(path), exist_ok=True)
        t_base = min((s[2] for s in self.spans), default=0.0)
        threads = {}
        rows = [[sid, name, round((t0 - t_base) * 1e9), round((t1 - t_base) * 1e9), parent,
                 threads.setdefault(tid, len(threads)), payload]
                for sid, name, t0, t1, parent, tid, payload in self.spans]
        with open(path, "w") as fh:
            json.dump({"fields": ["id", "name", "start_ns", "end_ns", "parent",
                                  "thread", "info"], "spans": rows}, fh,
                      separators=(",", ":"))


def install(tracer: Tracer) -> None:
    """Wrap every call site of the measured layers (see the module docstring)."""
    from muskatss import cli, continuation, diagnostics, grid_spline, lm, quadrature, residual

    w = tracer.wrap
    w(continuation, "continue_branch", "continuation.continue_branch",
      info=lambda a, k, r: [a[1], len(r.steps)])
    w(continuation, "solve_profile", "continuation.solve_profile",
      info=lambda a, k, r: a[0])
    w(continuation, "residual_vector", "residual.residual_vector")
    w(continuation, "fit_spline", "grid_spline.fit_spline")
    w(continuation, "lm_solve", "lm.lm_solve", info=lambda a, k, r: r.iterations)
    w(lm, "fd_jacobian", "lm.fd_jacobian", fork=True)
    w(residual, "cumulative_gk15", "quadrature.cumulative_gk15",
      info=lambda a, k, r: len(a[1]) - 1)
    w(quadrature, "gk15_panels", "quadrature.gk15_panels", info=lambda a, k, r: len(a[1]))
    w(diagnostics, "gk15_adaptive", "quadrature.gk15_adaptive",
      info=lambda a, k, r: r.subdivisions)
    w(diagnostics, "cumulative_gk15", "quadrature.cumulative_gk15",
      info=lambda a, k, r: len(a[1]) - 1)
    w(diagnostics, "fit_spline", "grid_spline.fit_spline")
    w(diagnostics.FigureTable, "to_csv", "diagnostics.to_csv",
      info=lambda a, k, r: len(r))
    w(grid_spline.Profile, "eval", "grid_spline.eval",
      info=lambda a, k, r: int(r.size))
    w(grid_spline.Profile, "eval_deriv", "grid_spline.eval",
      info=lambda a, k, r: int(r.size))
    w(cli, "load_branch", "continuation.load_branch",
      info=lambda a, k, r: os.path.getsize(a[0]))
    for fn in ("h1_distance", "figure_data", "ds_derivative_check", "fit_loglog_slope"):
        w(cli, fn, f"diagnostics.{fn}")
    w(cli, "main", "cli.main")


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total, reach = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, reach), min(b, hi)
        if b > a:
            total += b - a
            reach = b
    return total


def layer_metrics(spans, threads: int) -> dict:
    """Per-layer totals over ``spans`` (counts, busy and self time, ratios).

    Self time of a span is its duration minus the part of it that its
    child spans cover (children on pool threads overlap, so the union is
    taken).  ``threads`` is the Jacobian worker count of the workload.
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for sp in spans:
        by_name[sp[1]].append(sp)
        if sp[4] is not None:
            children[sp[4]].append((sp[2], sp[3]))

    def busy(name):
        return sum(s[3] - s[2] for s in by_name[name])

    def info_sum(name):              # a call that raised carries no info
        return sum(s[6] for s in by_name[name] if s[6] is not None)

    self_s = defaultdict(float)
    for sid, name, t0, t1, *_ in spans:
        self_s[name.split(".", 1)[0]] += (t1 - t0) - _covered(children[sid], t0, t1)

    res = by_name["residual.residual_vector"]
    jac_ids = {s[0] for s in by_name["lm.fd_jacobian"]}
    solve_ids = {s[0] for s in by_name["lm.lm_solve"]}
    in_jac = sum(s[3] - s[2] for s in res if s[4] in jac_ids)
    evals = sum(1 for s in res if s[4] in solve_ids)
    trials = evals - len(solve_ids)          # the first evaluation is not a trial
    iterations = info_sum("lm.lm_solve")
    jac_wall = busy("lm.fd_jacobian")
    gaps = info_sum("quadrature.cumulative_gk15")
    panels = info_sum("quadrature.gk15_panels")

    branches = by_name["continuation.continue_branch"]
    steps = sum(s[6][1] for s in branches if s[6] is not None)
    ds_of = {s[0]: s[6][0] for s in branches if s[6] is not None}
    retries = 0
    for s in by_name["continuation.solve_profile"]:
        ds = ds_of.get(s[4])
        if ds is not None and s[6] is not None and abs(s[6] / ds - round(s[6] / ds)) > 1e-6:
            retries += 1              # the first half step of a retry
    durations = [(s[3] - s[2]) * 1e3 for s in res]

    return {
        "residual.calls": len(res),
        "residual.busy_s": busy("residual.residual_vector"),
        "residual.call_ms.p50": statistics.median(durations) if durations else 0.0,
        "residual.self_s": self_s["residual"],
        "lm.iterations": iterations,
        "lm.jacobians": len(jac_ids),
        "lm.jacobian_s": jac_wall,
        "lm.trial_evals": trials,
        "lm.rejected": trials - iterations,
        "lm.accept_ratio": iterations / trials if trials else 0.0,
        "lm.self_s": self_s["lm"],
        "lm.jacobian_parallel_eff": in_jac / (threads * jac_wall) if jac_wall else 0.0,
        "quadrature.cumulative_calls": len(by_name["quadrature.cumulative_gk15"]),
        "quadrature.cumulative_s": busy("quadrature.cumulative_gk15"),
        "quadrature.panels": panels,
        "quadrature.panels_per_gap": panels / gaps if gaps else 0.0,
        "quadrature.adaptive_calls": len(by_name["quadrature.gk15_adaptive"]),
        "quadrature.adaptive_s": busy("quadrature.gk15_adaptive"),
        "quadrature.adaptive_subdivisions": info_sum("quadrature.gk15_adaptive"),
        "quadrature.self_s": self_s["quadrature"],
        "grid_spline.fits": len(by_name["grid_spline.fit_spline"]),
        "grid_spline.fit_s": busy("grid_spline.fit_spline"),
        "grid_spline.evals": len(by_name["grid_spline.eval"]),
        "grid_spline.eval_points": info_sum("grid_spline.eval"),
        "grid_spline.eval_s": busy("grid_spline.eval"),
        "grid_spline.self_s": self_s["grid_spline"],
        "continuation.steps": steps,
        "continuation.step_s": busy("continuation.continue_branch") / steps if steps else 0.0,
        "continuation.retries": retries,
        "continuation.json_s": sum(
            (s[3] - s[2]) - _covered(children[s[0]], s[2], s[3])
            for s in by_name["continuation.load_branch"]),
        "continuation.json_bytes": info_sum("continuation.load_branch"),
        "continuation.self_s": self_s["continuation"],
        "diagnostics.h1_calls": len(by_name["diagnostics.h1_distance"]),
        "diagnostics.h1_s": busy("diagnostics.h1_distance"),
        "diagnostics.figure_s": busy("diagnostics.figure_data"),
        "diagnostics.csv_bytes": info_sum("diagnostics.to_csv"),
        "diagnostics.self_s": self_s["diagnostics"],
        "cli.calls": len(by_name["cli.main"]),
        "cli.self_s": self_s["cli"],
    }
