"""The benchmark's workloads: seeded inputs, one unit of work, output checks.

A *unit* is the fixed piece of work a run repeats; an *item* is what
``items_per_s`` counts.  Every unit of one workload object does the same
work on the same inputs, so its counts must repeat exactly.

``branch-ref``    ``continue_branch`` at the reference settings (N=129,
                  default ResidualConfig, LMConfig(threads=2)); one unit
                  is the first continuation step, s = ds.  An item is a
                  converged step.
``branch-coarse`` ``continue_branch`` at N=33, one thread, 20 steps
                  (to s = 20 ds, about 2).  An item is a converged step.
``validate``      8 synthetic N=129 branches (20 steps to s = 2), each the
                  kappa-arctan profile plus a seeded deviation
                  proportional to s^3 that vanishes at z = 0 and pi/2;
                  ``muskatss.cli.main`` runs ``validate`` and ``export``
                  of all three figures on each.  An item is one branch.

For the solve workloads the seed picks ds from ``DS_CHOICES``; all
choices take the same number of steps, so they cover nearly the same s
range at nearly the same cost.  For ``validate`` it sets the deviation
magnitudes.  The package only receives the generated inputs.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import time

import numpy as np

from muskatss import cli, continuation
from muskatss.analytic import kappa
from muskatss.continuation import Branch, BranchStep
from muskatss.diagnostics import figure_data, fit_loglog_slope, h1_distance
from muskatss.grid_spline import fit_spline, make_grid
from muskatss.lm import LMConfig, SolverReport
from muskatss.residual import ResidualConfig, residual_vector

NAMES = ("branch-ref", "branch-coarse", "validate")
DS_CHOICES = (0.096, 0.098, 0.1, 0.102, 0.104)
FIGURES = ("discrepancy", "normalized", "integrated")
# The signs of the three deviation modes set most of the adaptive
# quadrature work of a synthetic branch, so the validate branches take
# every sign pattern once and the seed sets only the magnitudes: every
# seed then costs nearly the same.
SIGN_PATTERNS = tuple(itertools.product((1.0, -1.0), repeat=3))

# size -> workload -> parameters; "tiny" is the self-test size
SIZES = {
    "full": {
        "branch-ref": {"N": 129, "steps": 1, "threads": 2},
        "branch-coarse": {"N": 33, "steps": 20, "threads": 1},
        "validate": {"N": 129, "steps": 20, "branches": 8},
    },
    "tiny": {
        "branch-ref": {"N": 17, "steps": 2, "threads": 2},
        "branch-coarse": {"N": 17, "steps": 2, "threads": 1},
        "validate": {"N": 17, "steps": 20, "branches": 1},
    },
}

# fitted small-s order of the H1 discrepancy must land here (branch-coarse)
ORDER_WINDOW_S = 0.5
ORDER_RANGE = (2.5, 3.5)
_REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


def pick_ds(seed: int) -> float:
    return float(DS_CHOICES[np.random.default_rng(seed).integers(len(DS_CHOICES))])


def load_reference(name: str, size: str) -> tuple[dict, float]:
    """Stored kappa-arctan H1 distances per ds (one per step) and their rtol."""
    with open(_REFERENCE) as fh:
        doc = json.load(fh)
    return doc["h1"][f"{name}/{size}"], doc["rtol"]


class SolveWorkload:
    """``continue_branch`` from s = ds over a fixed number of steps."""

    def __init__(self, name, seed, size, workdir=None, reference=None):
        p = SIZES[size][name]
        self.name = name
        self.size = size
        self.N = p["N"]
        self.nsteps = p["steps"]
        self.threads = p["threads"]
        self.ds = pick_ds(seed)
        self.s_max = self.nsteps * self.ds
        self.lm = LMConfig(threads=self.threads)
        self.res = ResidualConfig()
        self.reference = reference
        self.rtol = None
        self._stamps = []
        self._unstamped = None

    def setup(self):
        """Load the reference and make one residual call on the first guess."""
        if self.reference is None:
            table, self.rtol = load_reference(self.name, self.size)
            self.reference = table[repr(self.ds)]
        grid = make_grid(self.N)
        guess = fit_spline(grid, self.ds * (2.0 / np.pi) * grid.nodes, self.ds)
        residual_vector(guess, self.res)
        # per-step completion times: a plain timestamp per solve, not a span
        inner = self._unstamped = continuation.solve_profile

        def stamped(s, *args, **kwargs):
            out = inner(s, *args, **kwargs)
            self._stamps.append((s, time.perf_counter()))
            return out

        continuation.solve_profile = stamped

    def close(self):
        if self._unstamped is not None:
            continuation.solve_profile = self._unstamped
            self._unstamped = None

    def run_unit(self):
        """Returns (item latencies, output to check)."""
        self._stamps.clear()
        t0 = time.perf_counter()
        branch = continuation.continue_branch(self.s_max, self.ds, self.N, self.lm, self.res)
        done = {}
        for s, t in self._stamps:
            m = round(s / self.ds)
            if abs(s - m * self.ds) <= 1e-9:
                done[m] = t           # a retried step finishes at its last solve
        latencies, prev = [], t0
        for m in range(1, len(branch.steps) + 1):
            latencies.append(done[m] - prev)
            prev = done[m]
        return latencies, branch

    def check(self, branch) -> tuple[int, int, list]:
        """(attempted, failed, messages) for one unit's branch."""
        msgs = []
        bad = set(range(len(branch.steps), self.nsteps))
        if branch.failure is not None:
            msgs.append(f"branch truncated at s={branch.failure[0]}")
        h1 = []
        for i, st in enumerate(branch.steps):
            rep = st.report
            try:
                d = h1_distance(st.profile, "kappa_arctan").h1_distance
            except ValueError as exc:     # the profile misses s at pi/2
                d = float("nan")
                msgs.append(f"s={st.s:.4g}: {exc}")
            h1.append(d)
            ref = self.reference[i]
            if not (rep.converged and rep.residual_norm <= self.lm.tol_residual):
                bad.add(i)
                msgs.append(f"s={st.s:.4g}: converged={rep.converged} "
                            f"residual {rep.residual_norm:.3e}")
            elif not abs(d - ref) <= self.rtol * abs(ref):
                bad.add(i)
                msgs.append(f"s={st.s:.4g}: H1 {d!r} vs reference {ref!r}")
        if self.name == "branch-coarse" and self.nsteps == SIZES["full"][self.name]["steps"]:
            window = [i for i, st in enumerate(branch.steps) if st.s <= ORDER_WINDOW_S + 1e-12]
            try:
                order = fit_loglog_slope([branch.steps[i].s for i in window],
                                         [h1[i] for i in window])
            except ValueError:            # fewer than two steps, or a zero distance
                order = float("nan")
            if not ORDER_RANGE[0] <= order <= ORDER_RANGE[1]:
                bad.update(window)
                msgs.append(f"fitted order {order:.3f} outside {ORDER_RANGE}")
        return self.nsteps, len(bad), msgs


def synthetic_branch(rng, signs, N: int, nsteps: int, ds: float = 0.1) -> Branch:
    """kappa-arctan steps plus s^3 * sum_j a_j sin(2 j z), |a_j| seeded."""
    grid = make_grid(N)
    z = grid.nodes
    j = np.arange(1, 4)
    amp = 0.02 * rng.uniform(0.5, 1.5, size=3) * np.asarray(signs) / j ** 2
    shape = np.sin(2.0 * np.outer(z, j)) @ amp
    branch = Branch(ds=ds, N=N, lm=LMConfig(), res=ResidualConfig())
    for m in range(1, nsteps + 1):
        s = m * ds
        values = (2.0 * s / np.pi) * np.arctan(np.tan(z) / kappa(s)) + s ** 3 * shape
        values[0], values[-1] = 0.0, s
        report = SolverReport(solution=values[1:], residual_norm=0.0,
                              iterations=0, converged=True)
        branch.steps.append(BranchStep(s=s, profile=fit_spline(grid, values, s), report=report))
    return branch


def _quiet_cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


class ValidateWorkload:
    """``muskatss validate`` and ``export`` on seeded synthetic branch files."""

    threads = 1

    def __init__(self, name, seed, size, workdir):
        p = SIZES[size][name]
        self.name = name
        self.seed = seed
        self.N = p["N"]
        self.nsteps = p["steps"]
        self.nbranches = p["branches"]
        self.workdir = workdir
        self.paths = [os.path.join(workdir, f"branch{i}.json") for i in range(self.nbranches)]
        self._expected = None

    def close(self):
        pass

    def _csv(self, i, fig):
        return os.path.join(self.workdir, f"branch{i}-{fig}.csv")

    def setup(self):
        """Write the seeded branches as branch JSON and validate the first once."""
        rng = np.random.default_rng(self.seed)
        for path, signs in zip(self.paths, SIGN_PATTERNS):
            continuation.save_branch(synthetic_branch(rng, signs, self.N, self.nsteps), path)
        _quiet_cli(["validate", self.paths[0]])

    def run_unit(self):
        latencies, codes = [], []
        for i, path in enumerate(self.paths):
            t0 = time.perf_counter()
            rc = [_quiet_cli(["validate", path])]
            for fig in FIGURES:
                rc.append(_quiet_cli(["export", path, "--figure", fig, "-o", self._csv(i, fig)]))
            latencies.append(time.perf_counter() - t0)
            codes.append(rc)
        return latencies, codes

    def _expected_csv(self):
        """figure_data computed directly, with the CLI's default slope sets."""
        if self._expected is None:
            self._expected = []
            for path in self.paths:
                branch = continuation.load_branch(path)
                have = branch.s_values
                tables = {}
                for fig in FIGURES:
                    s_values = [s for s in cli.FIGURE_S_DEFAULTS[fig]
                                if any(abs(h - s) <= 1e-9 for h in have)]
                    tables[fig] = figure_data(branch, fig, s_values).to_csv()
                self._expected.append(tables)
        return self._expected

    def check(self, codes) -> tuple[int, int, list]:
        msgs, failed = [], 0
        for i, rc in enumerate(codes):
            ok = all(c == 0 for c in rc)
            if not ok:
                msgs.append(f"branch{i}: exit codes {rc}")
            for fig in FIGURES:
                try:
                    with open(self._csv(i, fig)) as fh:
                        same = fh.read() == self._expected_csv()[i][fig]
                except FileNotFoundError:
                    same = False
                if not same:
                    ok = False
                    msgs.append(f"branch{i}: {fig} CSV differs from figure_data")
            failed += not ok
        return len(codes), failed, msgs


def make(name: str, seed: int, size: str, workdir: str):
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {NAMES}")
    cls = ValidateWorkload if name == "validate" else SolveWorkload
    return cls(name, seed, size, workdir)
