import numpy as np
import pytest

from muskatss.lm import (
    _LAMBDA0,
    _LAMBDA_DOWN,
    _LAMBDA_UP,
    LMConfig,
    SolverError,
    fd_jacobian,
    lm_solve,
)


class TestFDJacobian:
    def test_linear_map(self):
        rng = np.random.default_rng(2)
        A = rng.normal(size=(6, 4))
        b = rng.normal(size=6)
        r = lambda x: A @ x - b
        x = rng.normal(size=4)
        J = fd_jacobian(r, x, 1e-6)
        assert np.max(np.abs(J - A)) <= 1e-6 * (1 + np.max(np.abs(A)))

    def test_diagonal_squares(self):
        r = lambda x: np.array([x[0] ** 2, x[1] ** 2])
        J = fd_jacobian(r, np.array([1.0, 2.0]), 1e-6)
        assert J[0, 0] == pytest.approx(2.0, abs=1e-5)
        assert J[1, 1] == pytest.approx(4.0, abs=1e-5)
        assert abs(J[0, 1]) < 1e-9 and abs(J[1, 0]) < 1e-9

    def test_against_central_difference_on_collocation_system(self):
        # one-sided column agrees with a tighter centered estimate to O(step)
        from muskatss.continuation import _residual_closure
        from muskatss.grid_spline import make_grid
        from muskatss.residual import ResidualConfig

        g = make_grid(17)
        r = _residual_closure(g, 0.1, ResidualConfig(outer_nodes=170))
        x = (2.0 / np.pi) * 0.1 * g.nodes[1:]
        step = 1e-6
        J = fd_jacobian(r, x, step)
        j = 7
        h = step / 10 * max(abs(x[j]), 1.0)
        xp, xm = x.copy(), x.copy()
        xp[j] += h
        xm[j] -= h
        central = (r(xp) - r(xm)) / (2 * h)
        assert np.max(np.abs(J[:, j] - central)) < 50 * step

    def test_non_finite_names_component(self):
        def r(x):
            with np.errstate(invalid="ignore"):
                return np.array([np.sqrt(1.0 - x[1])])

        with pytest.raises(SolverError, match="component 1"):
            fd_jacobian(r, np.array([0.0, 1.0 - 5e-7]), 1e-6)


class TestLMSolve:
    def test_already_converged(self):
        r = lambda x: x - 1.0
        rep = lm_solve(r, np.array([1.0, 1.0]))
        assert rep.iterations == 0
        assert rep.converged

    def test_linear_system_fast(self):
        rng = np.random.default_rng(8)
        A = rng.normal(size=(5, 3)) + 2 * np.eye(5, 3)
        xstar = rng.normal(size=3)
        b = A @ xstar
        rep = lm_solve(lambda x: A @ x - b, np.zeros(3))
        assert rep.converged
        assert rep.iterations <= 3
        assert np.max(np.abs(rep.solution - xstar)) < 1e-7

    def test_rosenbrock_residuals(self):
        r = lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])
        rep = lm_solve(r, np.array([-1.2, 1.0]), LMConfig(max_iters=200))
        assert rep.converged
        assert np.max(np.abs(rep.solution - 1.0)) < 1e-8

    def test_monotone_residual_norms(self):
        r = lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])
        norms = []
        for k in range(1, 6):
            cfg = LMConfig(max_iters=k, tol_residual=1e-300, tol_step=1e-300)
            rep = lm_solve(r, np.array([-1.2, 1.0]), cfg)
            norms.append(np.linalg.norm(r(rep.solution)))
        assert all(b < a for a, b in zip(norms, norms[1:]))

    def test_uniform_residual_scaling_invariance(self):
        r = lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])
        r4 = lambda x: 4.0 * r(x)   # power-of-two scale: steps match bitwise
        cfg = LMConfig(max_iters=7, tol_residual=1e-300, tol_step=1e-300)
        rep1 = lm_solve(r, np.array([-1.2, 1.0]), cfg)
        rep2 = lm_solve(r4, np.array([-1.2, 1.0]), cfg)
        assert np.array_equal(rep1.solution, rep2.solution)

    def test_deterministic_reports(self):
        r = lambda x: np.array([np.exp(x[0]) - 2.0, x[1] ** 3 - 8.0, x[0] * x[1] - 1.5])
        a = lm_solve(r, np.array([0.0, 1.0]))
        b = lm_solve(r, np.array([0.0, 1.0]))
        assert np.array_equal(a.solution, b.solution)
        assert a.lambda_history == b.lambda_history

    def test_max_iters_reports_unconverged(self):
        r = lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])
        rep = lm_solve(r, np.array([-1.2, 1.0]), LMConfig(max_iters=2))
        assert not rep.converged
        assert rep.iterations == 2

    def test_rank_deficient_handled_by_damping(self):
        # duplicated residual rows make J^T J singular
        r = lambda x: np.array([x[0] - 1.0, x[0] - 1.0, 0.0 * x[1]])
        rep = lm_solve(r, np.array([3.0, 0.5]))
        assert abs(rep.solution[0] - 1.0) < 1e-8

    def test_lambda_history_tracks_accepted_steps(self):
        r = lambda x: np.array([x[0] ** 2 - 2.0])
        rep = lm_solve(r, np.array([2.0]))
        assert len(rep.lambda_history) == rep.iterations + 1

    def test_attached_jacobian_replaces_finite_differences(self):
        A = np.array([[2.0, 1.0], [0.5, 3.0], [1.0, -1.0]])
        b = np.array([1.0, 2.0, 0.5])
        calls = []

        def r(x):
            calls.append(x)
            return A @ x - b

        r.jacobian = lambda x: A
        rep = lm_solve(r, np.zeros(2))
        assert rep.converged
        # one residual per trial and one at the start: no Jacobian columns
        assert len(calls) == rep.iterations + 1

    def test_damping_hint_sets_the_start(self):
        # the Rosenbrock search from a hinted start: the same path as
        # lm_solve's own schedule begun at that lambda
        def r(x):
            return np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])

        cfg = LMConfig(max_iters=200)
        plain = lm_solve(r, np.array([-1.2, 1.0]), cfg)
        r.damping = _LAMBDA0
        same = lm_solve(r, np.array([-1.2, 1.0]), cfg)
        assert same.lambda_history == plain.lambda_history
        assert same.solution.tobytes() == plain.solution.tobytes()
        r.damping = 1e-6
        rep = lm_solve(r, np.array([-1.2, 1.0]), cfg)
        assert rep.converged
        assert rep.lambda_history[0] == 1e-6
        assert rep.lambda_history != plain.lambda_history

    def test_no_value_only_trial_before_an_accepted_step(self):
        # a linear residual, whose linear model is exact: at a tiny start
        # damping the first trial converges and is still evaluated by r;
        # from a start that needs two steps, the second one is value-only
        A, b = np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([1.0, 2.0])
        kinds = []

        def r(x):
            kinds.append("F")
            return A @ x - b

        def values_only(x):
            kinds.append("v")
            return A @ x - b

        r.jacobian = lambda x: A
        r.values_only = values_only
        for damping, want in ((1e-15, "FF"), (1e-6, "FFv")):
            kinds.clear()
            r.damping = damping
            rep = lm_solve(r, np.zeros(2))
            assert rep.converged
            assert "".join(kinds) == want

    def test_damping_hint_must_be_positive_and_finite(self):
        calls = []

        def r(x):
            calls.append(x)
            return x - 1.0

        for bad in (0.0, -1e-3, float("nan"), float("inf")):
            r.damping = bad
            with pytest.raises(ValueError, match=f"^damping must be positive and finite, got {bad}$"):
                lm_solve(r, np.zeros(2))
        assert calls == []     # rejected before the first evaluation

    def test_non_finite_attached_jacobian_raises(self):
        r = lambda x: x - 1.0
        r.jacobian = lambda x: np.full((2, 2), np.nan)
        with pytest.raises(SolverError, match="non-finite Jacobian"):
            lm_solve(r, np.zeros(2))

    def test_finite_difference_step_search_is_pinned(self):
        # Rosenbrock rejects trials on the way; every lambda and the solution
        # are pinned bit for bit
        r = lambda x: np.array([10.0 * (x[1] - x[0] ** 2), 1.0 - x[0]])
        rep = lm_solve(r, np.array([-1.2, 1.0]), LMConfig(max_iters=200))
        assert rep.converged
        assert rep.iterations == 24
        assert rep.lambda_history == [
            0.001, 0.001, 0.001, 0.010000000000000002, 0.010000000000000002,
            0.010000000000000002, 0.010000000000000002, 0.010000000000000002,
            0.010000000000000002, 0.10000000000000003, 0.10000000000000005,
            0.10000000000000005, 0.010000000000000005, 0.010000000000000007,
            0.010000000000000009, 0.010000000000000009, 0.0010000000000000009,
            0.0010000000000000009, 0.0010000000000000009, 0.0010000000000000009,
            0.0001000000000000001, 1.0000000000000011e-05, 1.0000000000000012e-06,
            1.0000000000000013e-07, 1.0000000000000013e-08,
        ]
        assert rep.solution.tolist() == [0.9999999999969167, 0.9999999999938621]

    def test_non_finite_finite_difference_jacobian_raises(self):
        # the difference quotient of the first column overflows to inf
        calls = []

        def r(x):
            calls.append(x)
            return np.array([1e308 * x[0] ** 3, x[1] - 2.0])

        with np.errstate(over="ignore"):
            with pytest.raises(SolverError, match="non-finite Jacobian"):
                lm_solve(r, np.ones(2))
        # the start point and one column each: no damping trial
        assert len(calls) == 3

    def test_config_validation(self):
        with pytest.raises(ValueError, match="^tol_residual .* got -1e-08$"):
            LMConfig(tol_residual=-1e-8)
        with pytest.raises(ValueError, match="^max_iters must be >= 1, got 0$"):
            LMConfig(max_iters=0)
        with pytest.raises(ValueError, match="^threads must be >= 1, got 0$"):
            LMConfig(threads=0)
        for bad in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"^tol_residual .* got {bad}$"):
                LMConfig(tol_residual=bad)
            with pytest.raises(ValueError, match=f"^tol_step .* got {bad}$"):
                LMConfig(tol_step=bad)


def failing_solve(monkeypatch, times, failure):
    """Make the first ``times`` calls of ``np.linalg.solve(a, b)`` return or
    raise ``failure(b)``; later calls are the real one.  Returns the calls."""
    real, calls = np.linalg.solve, []

    def solve(a, b):
        calls.append(1)
        return failure(b) if len(calls) <= times else real(a, b)

    monkeypatch.setattr(np.linalg, "solve", solve)
    return calls


def singular(b):
    raise np.linalg.LinAlgError("Singular matrix")


class TestLMExits:
    """The exits of the damping loop that a well-posed solve never takes."""

    @staticmethod
    def linear():
        A = np.array([[2.0, 1.0], [0.5, 3.0]])
        r = lambda x: A @ x - np.array([1.0, 2.0])
        r.jacobian = lambda x: A
        return r

    def test_singular_solves_raise_lambda_and_recover(self, monkeypatch):
        calls = failing_solve(monkeypatch, 3, singular)
        rep = lm_solve(self.linear(), np.zeros(2))
        assert rep.converged
        assert rep.lambda_history[1] == pytest.approx(_LAMBDA0 * _LAMBDA_UP ** 3 * _LAMBDA_DOWN)
        assert len(calls) > 3

    def test_stays_singular_raises(self, monkeypatch):
        calls = failing_solve(monkeypatch, 10 ** 6, singular)
        with pytest.raises(SolverError, match="stayed singular"):
            lm_solve(self.linear(), np.zeros(2))
        assert len(calls) == 11           # ten retries, then the error

    def test_non_finite_step_is_damped(self, monkeypatch):
        evals = []
        r = self.linear()
        counted = lambda x: evals.append(x) or r(x)
        counted.jacobian = r.jacobian
        failing_solve(monkeypatch, 2, lambda b: np.full_like(b, np.nan))
        rep = lm_solve(counted, np.zeros(2))
        assert rep.converged
        assert rep.lambda_history[1] == pytest.approx(_LAMBDA0 * _LAMBDA_UP ** 2 * _LAMBDA_DOWN)
        # a non-finite step is never evaluated
        assert all(np.all(np.isfinite(x)) for x in evals)

    def test_stall_at_a_nonzero_stationary_point(self):
        # r = (x - 1, 1e-3): at x = 1 the gradient is 0, so every step is 0
        # and no trial lowers the residual
        r = lambda x: np.array([x[0] - 1.0, 1e-3])
        rep = lm_solve(r, np.array([1.0]))
        assert not rep.converged
        assert rep.iterations == 0
        assert rep.residual_norm == 1e-3
        assert np.array_equal(rep.solution, [1.0])

    def test_no_acceptable_step_raises(self):
        # a Jacobian of the wrong sign: every trial raises the residual, and
        # tol_step is too small for the damped steps to stall
        r = lambda x: np.array([1.0 + abs(x[0])])
        r.jacobian = lambda x: np.array([[-1.0]])
        with pytest.raises(SolverError, match="no acceptable step"):
            lm_solve(r, np.zeros(1), LMConfig(tol_step=1e-300))
