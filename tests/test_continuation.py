import dataclasses
import json

import numpy as np
import pytest

from muskatss.continuation import (
    SETTINGS,
    Branch,
    branch_from_json,
    branch_to_json,
    continue_branch,
    load_branch,
    make_configs,
    save_branch,
    solve_profile,
)
from muskatss import cli, continuation, residual
from muskatss.grid_spline import make_grid
from muskatss.lm import _LAMBDA0, _LAMBDA_DOWN, _LAMBDA_UP, LMConfig, Problem, SolverReport, lm_solve
from muskatss.quadrature import QuadConfig, QuadratureError
from muskatss.residual import ResidualConfig

# small collocation system: fast enough for unit tests, still a real solve
SMALL_N = 17
SMALL_RES = ResidualConfig(outer_nodes=170)
SMALL_LM = LMConfig()


@pytest.fixture(scope="module")
def small_branch():
    return continue_branch(0.2, 0.1, SMALL_N, SMALL_LM, SMALL_RES)


class TestSolveProfile:
    def test_zero_slope_shortcut(self):
        profile, report = solve_profile(0.0, SMALL_N, SMALL_LM, SMALL_RES)
        assert report.converged and report.iterations == 0
        assert np.all(profile.values == 0.0)
        assert report.residual_norm < 1e-10

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            solve_profile(-0.1, SMALL_N)

    def test_small_solve_hits_boundary_condition(self):
        profile, report = solve_profile(0.1, SMALL_N, SMALL_LM, SMALL_RES)
        assert report.converged
        assert profile.values[-1] == pytest.approx(0.1, abs=1e-8)
        assert report.residual_norm <= 1e-8


class TestContinueBranch:
    def test_validation(self):
        with pytest.raises(ValueError):
            continue_branch(0.0, 0.1, SMALL_N)
        with pytest.raises(ValueError):
            continue_branch(0.3, 0.2, SMALL_N)

    def test_step_count_and_targets(self, small_branch):
        assert len(small_branch.steps) == 2
        assert small_branch.s_values == pytest.approx([0.1, 0.2])
        assert small_branch.failure is None
        for st in small_branch.steps:
            assert st.report.converged
            assert st.profile.values[0] == 0.0
            assert st.profile.values[-1] == pytest.approx(st.s, abs=1e-8)

    def test_initial_guess_rule_boundary_value(self, monkeypatch):
        # every guess continuation passes meets its step's boundary value
        # k(pi/2) = s to the solutions' own error: a secant through two
        # solutions each within tol_residual is within 3 tol_residual (at
        # most 6.0e-9 on the N=33 branch to s = 2)
        calls = record_steps(monkeypatch)
        branch = continue_branch(2.0, 0.1, 33)
        assert branch.failure is None and len(calls) == 20
        for s, guess, _, _ in calls:
            assert abs(guess[-1] - s) <= 3 * LMConfig().tol_residual

    def test_truncation_records_failure(self):
        # an unreachable tolerance forces non-convergence on step 1
        lm = LMConfig(max_iters=1, tol_residual=1e-300, tol_step=1e-300)
        branch = continue_branch(0.1, 0.1, SMALL_N, lm, SMALL_RES)
        assert branch.failure is not None
        assert branch.failure[0] == pytest.approx(0.1)
        assert branch.steps == []

    def test_raising_residual_truncates_with_failure(self, monkeypatch, small_branch):
        real = continuation.residual_vector

        def flaky(profile, cfg, **kwargs):
            if profile.s > 0.1 + 1e-9:
                raise QuadratureError("budget exhausted")
            return real(profile, cfg, **kwargs)

        monkeypatch.setattr(continuation, "residual_vector", flaky)
        branch = continue_branch(0.3, 0.1, SMALL_N, SMALL_LM, SMALL_RES)
        assert branch.s_values == [0.1]
        assert np.array_equal(branch.steps[0].profile.values,
                              small_branch.steps[0].profile.values)
        assert branch.failure is not None
        assert branch.failure[0] == pytest.approx(0.2)

    def test_raising_trial_is_rejected(self, monkeypatch):
        # the Jacobian calls no residual: 1 start point, then the first
        # trial step
        real = continuation.residual_vector
        calls = []

        def flaky(profile, cfg, **kwargs):
            calls.append(profile.s)
            if len(calls) == 2:
                raise QuadratureError("wild trial")
            return real(profile, cfg, **kwargs)

        monkeypatch.setattr(continuation, "residual_vector", flaky)
        branch = continue_branch(0.1, 0.1, SMALL_N, LMConfig(), SMALL_RES)
        assert branch.failure is None
        report = branch.steps[0].report
        assert report.converged
        # the rejected trial raised lambda once before the first acceptance
        assert report.lambda_history[1] == pytest.approx(_LAMBDA0 * _LAMBDA_UP * _LAMBDA_DOWN)

    def test_exact_and_fd_jacobian_take_the_same_path(self):
        grid = make_grid(SMALL_N)
        x0 = (2.0 / np.pi) * 0.1 * grid.nodes[1:]
        r, linearize = continuation._residual_closure(grid, 0.1, SMALL_RES)
        a = lm_solve(Problem(r, linearize), x0, SMALL_LM)
        b = lm_solve(r, x0, SMALL_LM)    # no linearize: lm_solve takes fd_jacobian
        assert a.converged and b.converged
        assert a.iterations == b.iterations
        assert np.max(np.abs(a.solution - b.solution)) <= 1e-9

    def test_non_finite_jacobian_truncates_with_failure(self, monkeypatch):
        nan_jacobian_above(monkeypatch, 0.0)
        branch = continue_branch(0.2, 0.1, SMALL_N, SMALL_LM, SMALL_RES)
        assert branch.steps == []
        assert branch.failure is not None
        assert branch.failure[0] == pytest.approx(0.1)

    def test_step_at_missing_raises(self, small_branch):
        with pytest.raises(KeyError):
            small_branch.step_at(0.7)


def nan_jacobian_above(monkeypatch, s_max):
    """Make every Jacobian continuation takes at a slope above ``s_max``
    non-finite."""
    real = continuation.residual_vector

    def residual_vector(profile, cfg, *, jacobian=False):
        rv = real(profile, cfg, jacobian=jacobian)
        if jacobian and profile.s > s_max:
            rv = dataclasses.replace(rv, jacobian=np.full_like(rv.jacobian, np.nan))
        return rv

    monkeypatch.setattr(continuation, "residual_vector", residual_vector)


def record_residual_calls(monkeypatch):
    """The ``jacobian`` keyword of every ``residual_vector`` call the
    solver makes, in order, with the slope of its profile."""
    real, calls = continuation.residual_vector, []

    def recording(profile, cfg, **kwargs):
        calls.append((profile.s, kwargs.get("jacobian", False)))
        return real(profile, cfg, **kwargs)

    monkeypatch.setattr(continuation, "residual_vector", recording)
    return calls


class TestValueOnlyTrial:
    """A trial step that the linear model says converges is evaluated
    value-only; it changes no number of the solve."""

    def test_coarse_branch_counts(self, monkeypatch):
        # the benchmark's branch-coarse setting: N=33 to s = 2
        calls = record_residual_calls(monkeypatch)
        passes = []
        real_pass = residual.Discretization._pass

        def counting(self, values, jacobian=True):
            passes.append(jacobian)
            return real_pass(self, values, jacobian)

        monkeypatch.setattr(residual.Discretization, "_pass", counting)
        branch = continue_branch(2.0, 0.1, 33)
        assert branch.failure is None
        assert [st.report.iterations for st in branch.steps] == [5] + [2] * 19
        assert len(calls) == 63
        values_only = [i for i, (_, jac) in enumerate(calls) if not jac]
        assert len(values_only) == 20
        # each the last evaluation of its step
        assert all(i + 1 == len(calls) or calls[i + 1][0] != calls[i][0] for i in values_only)
        # and the kernel ran no pass that residual_vector did not
        assert passes == [jac for _, jac in calls]

    def test_same_report_with_and_without_the_hint(self, monkeypatch):
        grid = make_grid(33)
        x0 = (2.0 / np.pi) * 0.5 * grid.nodes[1:]
        r, linearize = continuation._residual_closure(grid, 0.5, ResidualConfig())

        def forced(x):                   # every residual value-only
            return r(x), linearize(x)[1]

        def plain(x):                    # no value-only trial
            return linearize(x)[0]

        calls = record_residual_calls(monkeypatch)
        reports = []
        for name, f, lin in (("hint", r, linearize), ("forced", r, forced),
                             ("plain", plain, linearize)):
            calls.clear()
            reports.append(lm_solve(Problem(f, lin), x0))
            kinds = [jac for _, jac in calls]
            # forced: one value-only call per linearize, plus the hint's
            want = {"hint": 1, "forced": kinds.count(True) + 1, "plain": 0}[name]
            assert kinds.count(False) == want
        want = reports[0]
        assert want.converged and want.iterations > 1
        for got in reports[1:]:
            assert got.solution.tobytes() == want.solution.tobytes()
            assert got.iterations == want.iterations
            assert got.lambda_history == want.lambda_history
            assert got.residual_norm == want.residual_norm


@pytest.fixture(scope="module")
def coarse_branch():
    """The benchmark's branch-coarse setting: N=33 to s = 2."""
    return continue_branch(2.0, 0.1, 33)


def record_steps(monkeypatch, fail_call=None):
    """(s, guess, damping, report) of every ``_solve_step`` call, in order;
    call number ``fail_call`` (from 1) fails without solving."""
    real, calls = continuation._solve_step, []

    def solve_step(s, N, lm, res, guess, damping):
        if len(calls) + 1 == fail_call:
            out = None, SolverReport(solution=guess, residual_norm=np.inf,
                                     iterations=0, converged=False)
        else:
            out = real(s, N, lm, res, guess, damping)
        calls.append((s, guess.copy(), damping, out[1]))
        return out

    monkeypatch.setattr(continuation, "_solve_step", solve_step)
    return calls


class TestWarmStart:
    """Step 1 and the half steps of a retry start cold: from the linear
    shift at lm_solve's default damping, _LAMBDA0.  Every other step starts
    from the secant through the last two solutions, at the damping the step
    before it ended with."""

    def test_step_1_is_a_cold_solve(self, coarse_branch):
        profile, report = solve_profile(0.1, 33)
        first = coarse_branch.steps[0]
        assert first.profile.values.tobytes() == profile.values.tobytes()
        assert first.report.to_dict() == report.to_dict()

    def test_damping_carries_over(self, coarse_branch):
        reports = [st.report for st in coarse_branch.steps]
        assert reports[0].lambda_history[0] == _LAMBDA0
        for prev, report in zip(reports, reports[1:]):
            assert report.lambda_history[0] == prev.lambda_history[-1]

    def test_secant_guess(self, monkeypatch):
        calls = record_steps(monkeypatch)
        branch = continue_branch(0.3, 0.1, SMALL_N, SMALL_LM, SMALL_RES)
        assert branch.failure is None
        shift = (2.0 / np.pi) * make_grid(SMALL_N).nodes[1:]
        x = [np.zeros(SMALL_N - 1)] + [st.report.solution for st in branch.steps]
        assert [c[0] for c in calls] == pytest.approx([0.1, 0.2, 0.3])
        assert calls[0][1].tobytes() == (0.1 * shift).tobytes()
        for m in (2, 3):
            assert calls[m - 1][1].tobytes() == (2.0 * x[m - 1] - x[m - 2]).tobytes()
        assert [c[2] for c in calls] == [None] + [
            st.report.lambda_history[-1] for st in branch.steps[:2]]
        assert calls[0][3].lambda_history[0] == _LAMBDA0

    def test_half_step_retry_starts_cold(self, monkeypatch):
        # the full step to s = 0.2 fails; its half steps start from the
        # linear shift at _LAMBDA0, and step 3 from the secant through the
        # retry's solution
        calls = record_steps(monkeypatch, fail_call=2)
        branch = continue_branch(0.3, 0.1, SMALL_N, SMALL_LM, SMALL_RES)
        assert branch.failure is None
        shift = (2.0 / np.pi) * make_grid(SMALL_N).nodes[1:]
        x1, x2 = (st.report.solution for st in branch.steps[:2])
        assert [c[0] for c in calls] == pytest.approx([0.1, 0.2, 0.15, 0.2, 0.3])
        assert calls[1][2] == calls[0][3].lambda_history[-1] != _LAMBDA0
        half1, half2 = calls[2], calls[3]
        assert half1[1].tobytes() == (x1 + 0.05 * shift).tobytes()
        assert half2[1].tobytes() == (half1[3].solution + 0.05 * shift).tobytes()
        assert half1[2] is half2[2] is None
        assert half1[3].lambda_history[0] == half2[3].lambda_history[0] == _LAMBDA0
        assert half2[3] is branch.steps[1].report
        assert calls[4][1].tobytes() == (2.0 * x2 - x1).tobytes()
        assert calls[4][2] == half2[3].lambda_history[-1]

    def test_solve_is_a_three_argument_call(self, monkeypatch):
        # the warm start reaches lm_solve inside its first argument, so a
        # stand-in taking (r, x0, cfg), as bench/selftest.py's does, gets
        # the same branch
        plain = continue_branch(0.3, 0.1, SMALL_N, SMALL_LM, SMALL_RES)
        inner, calls = continuation.lm_solve, []

        def solve(r, x0, cfg=None):
            calls.append(r)
            return inner(r, x0, cfg)

        monkeypatch.setattr(continuation, "lm_solve", solve)
        branch = continue_branch(0.3, 0.1, SMALL_N, SMALL_LM, SMALL_RES)
        assert [p.damping for p in calls] == [None] + [
            st.report.lambda_history[-1] for st in plain.steps[:2]]
        assert branch_to_json(branch) == branch_to_json(plain)

    def test_agrees_with_the_cold_start_branch(self, coarse_branch):
        # every step re-solved from the previous solution shifted by
        # ds*(2/pi)*z at _LAMBDA0: both paths stop at max|r| <= 1e-8, so
        # they agree to about that stop's error
        shift = (2.0 / np.pi) * make_grid(33).nodes[1:]
        prev = np.zeros(32)
        for st in coarse_branch.steps:
            _, report = solve_profile(st.s, 33, initial=prev + 0.1 * shift)
            assert report.converged and report.lambda_history[0] == _LAMBDA0
            assert np.max(np.abs(report.solution - st.report.solution)) <= 2e-7
            prev = report.solution


class TestSerialization:
    def test_round_trip_bit_exact(self, small_branch):
        text = branch_to_json(small_branch)
        again = branch_to_json(branch_from_json(text))
        assert text == again

    def test_round_trip_preserves_values(self, small_branch):
        clone = branch_from_json(branch_to_json(small_branch))
        for a, b in zip(small_branch.steps, clone.steps):
            assert np.array_equal(a.profile.values, b.profile.values)
            assert a.report.iterations == b.report.iterations
            assert a.report.converged == b.report.converged
            assert a.report.lambda_history == b.report.lambda_history

    def test_schema_fields(self, small_branch):
        doc = json.loads(branch_to_json(small_branch))
        assert set(doc) >= {"meta", "steps"}
        assert set(doc["meta"]) == {"version", "N", "ds", "tolerances"}
        step = doc["steps"][0]
        assert set(step) >= {"s", "values", "residual_norm", "iterations"}
        assert len(step["values"]) == SMALL_N

    def test_every_setting_reaches_configs_and_json(self):
        assert make_configs({}) == (LMConfig(), ResidualConfig())
        values = {"tol_residual": 2e-8, "tol_step": 2e-10, "max_iters": 7, "outer_nodes": 77}
        assert set(values) == set(SETTINGS)
        lm, res = make_configs(values)
        assert lm != LMConfig() and res != ResidualConfig()
        text = branch_to_json(Branch(N=SMALL_N, lm=lm, res=res))
        assert json.loads(text)["meta"]["tolerances"] == values
        clone = branch_from_json(text)
        assert (clone.lm, clone.res) == (lm, res)

    def test_old_file_with_fd_step_loads(self):
        # fd_step, the damping schedule, the band half-width, the inner
        # tolerances, the end-region width and the series order were settings
        # once; files that store them load, and the stored values are ignored
        text = json.dumps({"meta": {"version": "1", "N": SMALL_N, "ds": 0.1, "tolerances": {
            "lambda0": 2e-3, "lambda_up": 5.0, "lambda_down": 0.2, "fd_step": 2e-6,
            "tol_residual": 1e-8, "tol_step": 1e-10, "max_iters": 50, "outer_nodes": 170,
            "inner_abs_tol": 1e-15, "inner_rel_tol": 1e-10, "split_halfwidth_z": 1.3,
            "split_halfwidth_end": 2.5, "series_order": 1}}, "steps": []})
        branch = branch_from_json(text)
        assert branch.lm == LMConfig()
        assert branch.res == ResidualConfig(outer_nodes=170)
        tol = json.loads(branch_to_json(branch))["meta"]["tolerances"]
        assert set(tol) == set(SETTINGS) and len(tol) == 4

    def test_inner_tolerance_floor(self):
        # the inner tolerance is a constant: no residual config takes one, and
        # a stored branch with a value however far below 1e-14 still loads
        for bad in (1e-15, 1e-300):
            with pytest.raises(TypeError):
                ResidualConfig(inner_quad=QuadConfig(abs_tol=bad))
            text = json.dumps({"meta": {"version": "1", "N": SMALL_N, "ds": 0.1, "tolerances": {
                "lambda0": 1e-3, "lambda_up": 10.0, "lambda_down": 0.1,
                "tol_residual": 1e-8, "tol_step": 1e-10, "max_iters": 50, "outer_nodes": 170,
                "inner_abs_tol": bad, "inner_rel_tol": 1e-10, "split_halfwidth_z": 2.0,
                "split_halfwidth_end": 2.0, "series_order": 2}}, "steps": []})
            assert branch_from_json(text).res == ResidualConfig(outer_nodes=170)

    def test_file_round_trip(self, small_branch, tmp_path):
        path = tmp_path / "branch.json"
        save_branch(small_branch, path)
        clone = load_branch(path)
        assert branch_to_json(clone) == branch_to_json(small_branch)


@pytest.fixture(scope="module")
def truncated_branch():
    """Two converged steps, then a step whose Jacobian is non-finite: the
    solver error leaves residual_norm = inf in the failure record."""
    with pytest.MonkeyPatch.context() as mp:
        nan_jacobian_above(mp, 0.22)
        return continue_branch(0.4, 0.1, SMALL_N, SMALL_LM, SMALL_RES)


class TestFailureRecord:
    def test_round_trip_bit_exact(self, truncated_branch):
        assert truncated_branch.s_values == pytest.approx([0.1, 0.2])
        s_fail, report = truncated_branch.failure
        assert s_fail == pytest.approx(0.3)
        assert report.residual_norm == np.inf and not report.converged
        text = branch_to_json(truncated_branch)
        assert json.loads(text)["failure"] == {"s": s_fail, "residual_norm": np.inf,
                                               "iterations": 0}
        clone = branch_from_json(text)
        assert branch_to_json(clone) == text
        assert clone.failure[0] == s_fail
        assert clone.failure[1].residual_norm == np.inf and not clone.failure[1].converged

    def test_validate_and_export_read_it(self, truncated_branch, tmp_path, capsys):
        path = str(tmp_path / "truncated.json")
        save_branch(truncated_branch, path)
        assert cli.main(["validate", path]) in (cli.EX_OK, cli.EX_SOFT)
        rows = capsys.readouterr().out.splitlines()[1:3]
        assert [float(row.split()[0]) for row in rows] == [0.1, 0.2]
        csv = tmp_path / "n.csv"
        assert cli.main(["export", path, "--figure", "normalized", "-o", str(csv)]) == cli.EX_OK
        assert csv.read_text().splitlines()[0] == "y,s=0.1,s=0.2"

    def test_failed_second_half_step(self, monkeypatch):
        # the full step fails, its first half step converges, the second
        # half fails: the record holds the full step's report
        real, calls = continuation._solve_step, []

        def solve_step(s, N, lm, res, guess, damping):
            calls.append(s)
            if len(calls) == 2:
                return real(s, N, lm, res, guess, damping)
            return None, SolverReport(solution=guess, residual_norm=0.5 / len(calls),
                                      iterations=len(calls), converged=False)

        monkeypatch.setattr(continuation, "_solve_step", solve_step)
        branch = continue_branch(0.2, 0.1, SMALL_N, SMALL_LM, SMALL_RES)
        assert calls == pytest.approx([0.1, 0.05, 0.1])
        assert branch.steps == []
        s_fail, report = branch.failure
        assert s_fail == pytest.approx(0.1)
        assert (report.residual_norm, report.iterations) == (0.5, 1)
        assert '"failure":{"iterations":1,"residual_norm":0.5,' in branch_to_json(branch)
