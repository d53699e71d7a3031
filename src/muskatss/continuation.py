"""Single-slope solves and continuation of the solution branch in s.

The unknown vector is the nodal values k(z_1), ..., k(z_{N-1}); the value
at z = 0 is pinned by oddness.  The first continuation step starts from
the linear approximation ds*(2/pi)*z at the default damping; every later
step starts from the secant through the last two solutions,
2*x_{m-1} - x_{m-2} with x_0 = 0 the exact s = 0 solution, at the damping
the previous step ended with.  A half-step retry starts cold again: from
the previous solution shifted by (ds/2)*(2/pi)*z, at the default damping.
"""

from __future__ import annotations

import functools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .grid_spline import Grid, Profile, fit_spline, make_grid
from .lm import LMConfig, SolverError, SolverReport, lm_solve
from .quadrature import QuadratureError
from .residual import ResidualConfig, residual_jacobian, residual_vector

__all__ = [
    "Branch",
    "BranchStep",
    "solve_profile",
    "continue_branch",
    "branch_to_json",
    "branch_from_json",
    "save_branch",
    "load_branch",
    "make_configs",
    "SETTINGS",
]

FORMAT_VERSION = "1"
# slopes this close are one step's (Branch.step_at, export's slope sets)
S_MATCH_TOL = 1e-9

# Every solver setting, declared once: name -> (type, config), where config
# is "lm" (LMConfig) or "res" (ResidualConfig) and the name is the field.
# The names are the branch-JSON tolerance keys and the config-file keys;
# with '-' for '_' they are the solve and continue flags.  A setting left
# out keeps its dataclass default.  Branch files may carry other tolerance
# keys (older files store fd_step and eight settings that are constants
# now, such as the damping schedule); only these names are read.
SETTINGS = {
    "tol_residual": (float, "lm"),
    "tol_step": (float, "lm"),
    "max_iters": (int, "lm"),
    "outer_nodes": (int, "res"),
}


def make_configs(settings: dict) -> tuple[LMConfig, ResidualConfig]:
    """LM and residual configs from the SETTINGS names in a flat dict;
    other keys, such as a run's n or ds, are ignored."""
    fields = {"lm": {}, "res": {}}
    for name, (_, config) in SETTINGS.items():
        if name in settings:
            fields[config][name] = settings[name]
    return LMConfig(**fields["lm"]), ResidualConfig(**fields["res"])


def _tolerances(branch: Branch) -> dict:
    configs = {"lm": branch.lm, "res": branch.res}
    tol = {name: getattr(configs[config], name) for name, (_, config) in SETTINGS.items()}
    tol["outer_nodes"] = branch.res.resolve_outer_nodes(branch.N)
    return tol


def _finite(x, what: str) -> float:
    if type(x) not in (int, float) or not math.isfinite(x):
        raise ValueError(f"{what} must be a finite number, got {x!r}")
    return x


@dataclass(frozen=True)
class BranchStep:
    s: float
    profile: Profile
    report: SolverReport


@dataclass
class Branch:
    """Ordered continuation steps s = ds, 2 ds, ..., plus a failure record.

    ``failure`` is None when the branch reached its target; otherwise it
    is (s_failed, report) for the first step that did not converge, and
    ``steps`` holds everything before it.
    """

    steps: list = field(default_factory=list)
    ds: float = 0.1
    N: int = 129
    lm: LMConfig = field(default_factory=LMConfig)
    res: ResidualConfig = field(default_factory=ResidualConfig)
    failure: tuple | None = None

    @property
    def s_values(self):
        return [st.s for st in self.steps]

    def step_at(self, s: float) -> BranchStep:
        for st in self.steps:
            if abs(st.s - s) <= S_MATCH_TOL:
                return st
        raise KeyError(f"s={s} not present in branch (have {self.s_values})")


def _residual_closure(grid: Grid, s: float, res_cfg: ResidualConfig,
                      damping: float | None = None):
    """The collocation residual in the unknowns x = values[1:], with its
    exact Jacobian attached as ``r.jacobian``, its value-only evaluation,
    the same residual without keeping a Jacobian, as ``r.values_only``,
    and, when given, the damping lm_solve starts from as ``r.damping``."""
    def r(x, **kwargs):
        values = np.concatenate([[0.0], x])
        profile = fit_spline(grid, values, s)
        try:
            return residual_vector(profile, res_cfg, **kwargs).stacked()
        except QuadratureError:
            # lm_solve rejects a non-finite trial; a non-finite start
            # point or Jacobian becomes a SolverError (a failed step)
            return np.full(grid.N + 1, np.nan)

    def jacobian(x):
        return residual_jacobian(np.concatenate([[0.0], x]), res_cfg)[:, 1:]

    r.jacobian = jacobian
    r.values_only = functools.partial(r, jacobian=False)
    if damping is not None:
        r.damping = damping
    return r


def _linear_shift(grid: Grid) -> np.ndarray:
    """(2/pi)*z at the unknowns: the linear approximation per unit slope."""
    return (2.0 / np.pi) * grid.nodes[1:]


def solve_profile(s: float, N: int = 129,
                  lm_cfg: LMConfig | None = None,
                  res_cfg: ResidualConfig | None = None,
                  initial: np.ndarray | None = None,
                  damping: float | None = None) -> tuple[Profile, SolverReport]:
    """Solve the collocation system for one slope value.

    Cold starts use the linear approximation (2/pi)*s*z at lm_solve's
    default damping; continuation passes its predicted guess instead, and
    the damping to start Levenberg-Marquardt from.  s = 0 returns the
    exact zero profile without running the solver.  A negative or
    non-finite s raises ValueError.
    """
    if not (s >= 0 and math.isfinite(s)):
        raise ValueError(f"slope must be a finite nonnegative number, got {s}")
    lm_cfg = lm_cfg or LMConfig()
    res_cfg = res_cfg or ResidualConfig()
    grid = make_grid(N)
    if s == 0.0:
        profile = fit_spline(grid, np.zeros(N), 0.0)
        rv = residual_vector(profile, res_cfg)
        report = SolverReport(solution=np.zeros(N - 1), residual_norm=rv.max_norm(),
                              iterations=0, converged=True, lambda_history=[])
        return profile, report
    if initial is None:
        initial = s * _linear_shift(grid)
    report = lm_solve(_residual_closure(grid, s, res_cfg, damping), initial, lm_cfg)
    values = np.concatenate([[0.0], report.solution])
    return fit_spline(grid, values, s), report


def continue_branch(s_max: float, ds: float, N: int = 129,
                    lm: LMConfig | None = None,
                    res: ResidualConfig | None = None, *,
                    on_step=None) -> Branch:
    """March the branch from s = ds to s_max in increments of ds.

    Step 1 is a cold solve: the linear approximation at the default
    damping.  Step m > 1 starts from the secant 2*x_{m-1} - x_{m-2}
    (x_0 = 0) at the damping step m-1 ended with.  A failed step is
    retried once through two half steps (ds/2), each from the previous
    solution shifted by the linear approximation at the default damping,
    before the branch is truncated with a failure record.
    ``on_step(step, seconds)``, when given, is called after each converged
    step with its BranchStep and the wall seconds it took, a half-step
    retry included.
    """
    if not (s_max > 0 and ds > 0 and math.isfinite(s_max / ds)):
        raise ValueError(f"s_max and ds must be positive with a finite ratio, got {s_max}, {ds}")
    lm = lm or LMConfig()
    res = res or ResidualConfig()
    nsteps = round(s_max / ds)
    if nsteps < 1 or abs(nsteps * ds - s_max) > 1e-9 * max(1.0, abs(s_max)):
        raise ValueError(f"s_max={s_max} is not a positive multiple of ds={ds}")

    grid = make_grid(N)
    branch = Branch(ds=ds, N=N, lm=lm, res=res)
    shift = _linear_shift(grid)
    # x_0 = 0 is the exact s = 0 solution; with x_{-1} = -ds*shift, which
    # the odd-in-s branch has to first order, step 1's secant is ds*shift
    # bit for bit, the cold guess
    prev, prev2 = np.zeros(N - 1), -ds * shift
    damping = None
    for m in range(1, nsteps + 1):
        start = time.perf_counter()
        s_m = m * ds
        guess = 2.0 * prev - prev2
        profile, report = _solve_step(s_m, N, lm, res, guess, damping)
        if not report.converged:
            retry = _half_step_retry(s_m, ds, N, lm, res, prev, shift)
            if retry is None:
                branch.failure = (s_m, report)
                return branch
            profile, report = retry
        branch.steps.append(BranchStep(s=s_m, profile=profile, report=report))
        if on_step is not None:
            on_step(branch.steps[-1], time.perf_counter() - start)
        prev2, prev = prev, report.solution
        damping = report.lambda_history[-1]
    return branch


def _solve_step(s, N, lm, res, guess, damping):
    """(profile, report) of one step; a SolverError gives no profile and an
    unconverged report at the guess."""
    try:
        return solve_profile(s, N, lm, res, initial=guess, damping=damping)
    except SolverError:
        return None, SolverReport(solution=guess, residual_norm=np.inf,
                                  iterations=0, converged=False)


def _half_step_retry(s_m, ds, N, lm, res, prev, shift):
    half = 0.5 * ds
    r1 = _solve_step(s_m - half, N, lm, res, prev + half * shift, None)[1]
    if not r1.converged:
        return None
    p2, r2 = _solve_step(s_m, N, lm, res, r1.solution + half * shift, None)
    if not r2.converged:
        return None
    return p2, r2


def branch_to_json(branch: Branch) -> str:
    """Serialize a branch; floats keep full precision via repr round-trip."""
    doc = {
        "meta": {
            "version": FORMAT_VERSION,
            "N": branch.N,
            "ds": branch.ds,
            "tolerances": _tolerances(branch),
        },
        "steps": [
            {"s": st.s, "values": [float(v) for v in st.profile.values],
             **st.report.to_dict()}
            for st in branch.steps
        ],
    }
    if branch.failure is not None:
        s_fail, rep = branch.failure
        doc["failure"] = {"s": s_fail, "residual_norm": rep.residual_norm,
                          "iterations": rep.iterations}
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def branch_from_json(text: str) -> Branch:
    """Parse branch JSON; malformed or non-finite data raises ValueError,
    KeyError or TypeError."""
    doc = json.loads(text)
    meta = doc["meta"]
    N = meta["N"]
    if type(N) is not int:
        raise ValueError(f"N must be an integer, got {N!r}")
    tol = meta["tolerances"]
    lm, res = make_configs({name: tol[name] for name in SETTINGS})
    branch = Branch(ds=_finite(meta["ds"], "ds"), N=N, lm=lm, res=res)
    grid = None
    for st in doc["steps"]:
        s = _finite(st["s"], "s")
        values = np.array(st["values"], dtype=float)
        if values.shape != (N,):
            raise ValueError(f"step s={s}: expected {N} values, got shape {values.shape}")
        grid = grid or make_grid(N)
        profile = fit_spline(grid, values, s)
        report = SolverReport(
            solution=values[1:], residual_norm=st["residual_norm"],
            iterations=st["iterations"], converged=st["converged"],
            lambda_history=list(st.get("lambda_history", [])),
        )
        branch.steps.append(BranchStep(s=s, profile=profile, report=report))
    if "failure" in doc:
        f = doc["failure"]
        branch.failure = (f["s"], SolverReport(
            solution=np.array([]), residual_norm=f["residual_norm"],
            iterations=f["iterations"], converged=False))
    return branch


def save_branch(branch: Branch, path) -> None:
    with open(path, "w") as fh:
        fh.write(branch_to_json(branch))
        fh.write("\n")


def load_branch(path) -> Branch:
    with open(path) as fh:
        return branch_from_json(fh.read())
