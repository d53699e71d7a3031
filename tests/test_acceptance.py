"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

The heavy solves are shared through module-scoped fixtures: the 20-step
continuation run feeds criteria 5, 6, 7 and 9, so each criterion's own
incremental runtime stays well inside its stated budget.
"""

import time

import numpy as np
import pytest

pytestmark = pytest.mark.slow

from muskatss.analytic import (
    delta_brick,
    delta_shape_constant,
    j_brick,
    j_shape_constant,
)
from muskatss.continuation import continue_branch, solve_profile
from muskatss.diagnostics import ds_derivative_check, fit_loglog_slope, h1_distance
from muskatss.grid_spline import HALF_PI, fit_spline, make_grid
from muskatss.lm import LMConfig
from muskatss.quadrature import gk15_adaptive, trapezoid
from muskatss.residual import ResidualConfig, delta_tilde, residual_at, residual_vector

from conftest import random_odd_values

N = 129
LM = LMConfig(threads=2)
RES = ResidualConfig()


def report(num, label, passed, detail, elapsed=None):
    status = "PASS" if passed else "FAIL"
    suffix = f", {elapsed:.1f} s" if elapsed is not None else ""
    print(f"\nACCEPTANCE {num} [{label}]: {status} ({detail}{suffix})")
    return passed


@pytest.fixture(scope="module")
def grid():
    return make_grid(N)


@pytest.fixture(scope="module")
def branch2():
    """20-step continuation to s = 2 (shared by criteria 5, 6, 7, 9)."""
    t0 = time.time()
    branch = continue_branch(2.0, 0.1, N, LM, RES)
    branch._elapsed = time.time() - t0
    return branch


@pytest.fixture(scope="module")
def profile_005():
    t0 = time.time()
    profile, rep = solve_profile(0.05, N, LM, RES)
    assert rep.converged
    return profile, time.time() - t0


def test_criterion_1_zero_solution_exactness(grid):
    t0 = time.time()
    profile = fit_spline(grid, np.zeros(N), 0.0)
    rv = residual_vector(profile, RES)
    elapsed = time.time() - t0
    ok = rv.max_norm() < 1e-10 and elapsed < 1.0
    assert report(1, "zero-solution exactness", ok,
                  f"max|r| = {rv.max_norm():.2e}", elapsed)


def test_criterion_2_quadrature_oracle():
    t0 = time.time()
    worst = 0.0
    single_panel = True
    for k in range(14):
        res = gk15_adaptive(lambda x, k=k: x ** k, 0.0, 1.0)
        worst = max(worst, abs(res.value - 1.0 / (k + 1)))
        single_panel = single_panel and res.subdivisions == 1
    M = 101
    e1 = abs(trapezoid(np.sin, 0.0, np.pi, M) - 2.0)
    e2 = abs(trapezoid(np.sin, 0.0, np.pi, 2 * M) - 2.0)
    ratio = e1 / e2
    elapsed = time.time() - t0
    ok = worst < 1e-12 and single_panel and abs(ratio - 4.0) <= 0.2 and elapsed < 1.0
    assert report(2, "quadrature oracle", ok,
                  f"monomial err = {worst:.1e}, Richardson ratio = {ratio:.3f}", elapsed)


def test_criterion_3_sliding_average_closed_form(grid):
    t0 = time.time()
    profile = fit_spline(grid, np.sin(grid.nodes) * np.cos(grid.nodes), 0.0)
    val = delta_tilde(profile, 0.0, np.pi / 4.0, +1)
    err_cf = abs(val - np.log(2.0) / 2.0)
    z = 0.8
    err_coincide = abs(delta_tilde(profile, z, z + 5e-9, +1) - float(profile.eval(z)))
    err_end = abs(delta_tilde(profile, 0.4, HALF_PI - 1e-8, +1)
                  - float(profile.eval(HALF_PI)))
    elapsed = time.time() - t0
    ok = err_cf < 1e-8 and err_coincide < 1e-6 and err_end < 1e-6
    assert report(3, "sliding-average closed form", ok,
                  f"ln2/2 err = {err_cf:.1e}, limit errs = {err_coincide:.1e}/{err_end:.1e}",
                  elapsed)


def test_criterion_4_linear_ansatz_residual_order(grid):
    t0 = time.time()
    svals = [0.05, 0.1, 0.2, 0.4]
    maxres = []
    for s in svals:
        profile = fit_spline(grid, (2.0 / np.pi) * s * grid.nodes, s)
        rv = residual_vector(profile, RES)
        maxres.append(np.max(np.abs(rv.interior)))
    slope = fit_loglog_slope(svals, maxres)
    elapsed = time.time() - t0
    ok = 2.7 <= slope <= 3.3 and elapsed < 120.0
    assert report(4, "linear-ansatz residual order", ok,
                  f"slope = {slope:.3f}, max|r|(0.1) = {maxres[1]:.2e}", elapsed)


def test_criterion_5_cubic_discrepancy_order(branch2, profile_005):
    t0 = time.time()
    p005, solve_elapsed = profile_005
    svals = [0.05, 0.1, 0.2, 0.4]
    profiles = [p005] + [branch2.step_at(s).profile for s in svals[1:]]
    dists = [h1_distance(p, "kappa_arctan").h1_distance for p in profiles]
    order = fit_loglog_slope(svals, dists)
    elapsed = time.time() - t0 + solve_elapsed
    ok = 2.5 <= order <= 3.5 and elapsed < 600.0
    detail = ", ".join(f"{d:.2e}" for d in dists)
    assert report(5, "cubic discrepancy order", ok,
                  f"order = {order:.3f}, H1 = [{detail}]", elapsed)


def test_criterion_6_slope_derivative_estimate(branch2):
    t0 = time.time()
    dist = ds_derivative_check(branch2, 0.1)
    elapsed = time.time() - t0
    ok = dist <= 0.05
    assert report(6, "slope-derivative estimate", ok,
                  f"H1 distance = {dist:.4f} (bound 0.05)", elapsed)


def test_criterion_7_continuation_to_two(branch2):
    ok_steps = len(branch2.steps) == 20 and branch2.failure is None
    iters = [st.report.iterations for st in branch2.steps]
    ok_iters = all(i <= 10 for i in iters)
    ok_conv = all(st.report.converged for st in branch2.steps)
    ys = np.linspace(0.05, 40.0, 50)
    zs = np.arctan(ys)
    curves = np.array([st.profile.eval(zs) / st.s for st in branch2.steps])
    min_inc = float(np.min(np.diff(curves, axis=0)))
    ok_mono = min_inc > -1e-12
    elapsed = branch2._elapsed
    ok = ok_steps and ok_iters and ok_conv and ok_mono and elapsed < 1800.0
    assert report(7, "continuation to s=2", ok,
                  f"steps = {len(branch2.steps)}, max iters = {max(iters)}, "
                  f"min normalized increment = {min_inc:.2e}", elapsed)


def test_criterion_8_origin_oddness_cancellation(grid):
    t0 = time.time()
    rng = np.random.default_rng(2024)
    cfg = ResidualConfig(outer_nodes=400)
    worst = 0.0
    for _ in range(100):
        profile = fit_spline(grid, random_odd_values(grid, rng), 0.2)
        worst = max(worst, abs(residual_at(profile, 0.0, cfg)))
    elapsed = time.time() - t0
    ok = worst < 1e-10
    assert report(8, "origin oddness cancellation", ok,
                  f"worst |r(0)| over 100 odd profiles = {worst:.2e}", elapsed)


def test_criterion_9_refinement_stability(branch2):
    t0 = time.time()
    base = branch2.step_at(0.1).profile
    fine_cfg = ResidualConfig(outer_nodes=2 * RES.resolve_outer_nodes(N))
    fine, rep_fine = solve_profile(0.1, N, LM, fine_cfg)
    assert rep_fine.converged
    outer_change = float(np.max(np.abs(fine.values - base.values)))

    half = continue_branch(0.5, 0.05, N, LM, RES)
    assert half.failure is None
    k_half = half.step_at(0.5).profile.values
    k_full = branch2.step_at(0.5).profile.values
    ds_change = float(np.max(np.abs(k_half - k_full)))
    elapsed = time.time() - t0
    ok = outer_change < 1e-6 and ds_change < 10.0 * LM.tol_residual
    assert report(9, "refinement stability", ok,
                  f"outer-doubling change = {outer_change:.2e}, "
                  f"ds-halving change = {ds_change:.2e}", elapsed)


def test_criterion_10_brick_oracles():
    t0 = time.time()
    const = lambda t: 3.0 * np.ones_like(np.asarray(t, dtype=float))
    ident = lambda t: np.asarray(t, dtype=float)
    alpha, y = 0.8, 1.3
    errs = [
        abs(delta_brick(const, alpha, y)),
        abs(j_brick(const, alpha, y)),
    ]
    closed = [
        abs(delta_brick(ident, alpha, y) - (-2.0 * y * alpha)),
        abs(j_brick(ident, alpha, y) - alpha * alpha / 2.0),
    ]
    lat1 = np.geomspace(1e-2, 1e2, 25)
    lat2 = np.geomspace(1e-2, 1e2, 49)
    cd1, _ = delta_shape_constant(0.5, lat1, lat1)
    cd2, _ = delta_shape_constant(0.5, lat2, lat2)
    cj1, _ = j_shape_constant(0.5, lat1, lat1)
    cj2, _ = j_shape_constant(0.5, lat2, lat2)
    stable = (abs(cd2 - cd1) <= 0.05 * cd2 and abs(cj2 - cj1) <= 0.05 * cj2
              and np.isfinite(cd2) and np.isfinite(cj2))
    elapsed = time.time() - t0
    ok = max(errs) < 1e-12 and max(closed) < 1e-10 and stable
    assert report(10, "brick oracles", ok,
                  f"const = {max(errs):.1e}, closed-form = {max(closed):.1e}, "
                  f"C_delta = {cd2:.3f}, C_J = {cj2:.3f}", elapsed)
