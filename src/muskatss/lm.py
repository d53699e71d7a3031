"""Dense Levenberg-Marquardt for small nonlinear least-squares systems.

Damping uses Marquardt's diag(J^T J) scaling, which keeps steps invariant
under uniform rescaling of the residuals and copes with the size gap
between interior and boundary rows.  A ``Problem`` may give, with the
residual, its ``linearize`` (continuation's does) and the damping to
start from, which continuation carries over from the previous step.
Without ``linearize``, J is one-sided finite differences,
``fd_jacobian``, which also serves the tests as an oracle.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

__all__ = ["LMConfig", "Problem", "SolverReport", "SolverError", "fd_jacobian", "lm_solve"]


class SolverError(Exception):
    pass


# the damping schedule of lm_solve
_LAMBDA0 = 1e-3
_LAMBDA_UP = 10.0
_LAMBDA_DOWN = 0.1


@dataclass(frozen=True)
class LMConfig:
    """Stopping settings; threads is accepted and ignored (no parallel Jacobian)."""

    tol_residual: float = 1e-8   # max-norm of the residual vector
    tol_step: float = 1e-10      # max-norm of the accepted step
    max_iters: int = 50
    threads: int = 1

    def __post_init__(self):
        for name in ("tol_residual", "tol_step"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be positive and finite, got {value}")
        for name in ("max_iters", "threads"):
            value = getattr(self, name)
            if value < 1:
                raise ValueError(f"{name} must be >= 1, got {value}")


class Problem(NamedTuple):
    """The residual r(x); linearize(x), when given, returns (r(x), J at x)
    from one evaluation; damping, when given, is the lambda to start at."""

    r: Callable
    linearize: Callable | None = None
    damping: float | None = None


@dataclass
class SolverReport:
    solution: np.ndarray
    residual_norm: float          # max-norm at the solution
    iterations: int               # accepted steps
    converged: bool
    lambda_history: list = field(default_factory=list)

    def to_dict(self):
        return {
            "residual_norm": self.residual_norm,
            "iterations": self.iterations,
            "converged": self.converged,
            "lambda_history": list(self.lambda_history),
        }


def fd_jacobian(r, x: np.ndarray, step: float = 1e-6,
                r0: np.ndarray | None = None) -> np.ndarray:
    """One-sided finite-difference Jacobian of r at x.

    Column j is (r(x + h_j e_j) - r(x)) / h_j with h_j = step*max(|x_j|, 1).
    """
    x = np.asarray(x, dtype=float)
    if r0 is None:
        r0 = np.asarray(r(x), dtype=float)

    J = np.empty((len(r0), len(x)))
    for j in range(len(x)):
        h = step * max(abs(x[j]), 1.0)
        xp = x.copy()
        xp[j] += h
        rj = np.asarray(r(xp), dtype=float)
        if not np.all(np.isfinite(rj)):
            raise SolverError(f"non-finite residual when perturbing component {j}")
        J[:, j] = (rj - r0) / h
    return J


def lm_solve(r, x0: np.ndarray, cfg: LMConfig | None = None) -> SolverReport:
    """Minimize ||r(x)||_2 by damped Gauss-Newton steps; r is the residual
    function or a ``Problem`` that also gives ``linearize`` and ``damping``.

    A trial step solves (J^T J + lambda diag(J^T J)) dx = -J^T r and is
    accepted iff the 2-norm of the residual decreases; lambda starts at
    ``damping`` (ValueError, before r is evaluated, unless it is positive
    and finite), _LAMBDA0 when None, and is multiplied by _LAMBDA_DOWN on
    acceptance and by _LAMBDA_UP on rejection.  ``linearize``, when
    given, evaluates the start point and the trials.  A trial whose linear
    model converges, max|r + J dx| <= tol_residual, after the first
    accepted step is evaluated by r alone, as no Jacobian is likely to
    follow; if it is accepted and the solve goes on, ``linearize`` runs
    there again.  r must return linearize's values, so the iterates do not
    depend on that guess.  Without ``linearize``, r evaluates every point
    and J is ``fd_jacobian`` about it.  A J that is not finite raises
    SolverError.  Stops when the residual max-norm falls below
    tol_residual, the accepted step falls below tol_step (converged), a
    rejected step does (stalled), or after max_iters accepted steps.
    """
    r, linearize, damping = r if isinstance(r, Problem) else Problem(r)
    cfg = LMConfig() if cfg is None else cfg
    lam = _LAMBDA0 if damping is None else damping
    if not 0.0 < lam < math.inf:
        raise ValueError(f"damping must be positive and finite, got {lam}")

    def evaluate(x, last=False):
        """r at x and J there, None when it is still to be formed."""
        rx, J = (r(x), None) if linearize is None or last else linearize(x)
        return np.asarray(rx, dtype=float), J

    def report(converged):
        return SolverReport(solution=x, residual_norm=float(np.max(np.abs(rx))),
                            iterations=iterations, converged=bool(converged),
                            lambda_history=history)

    x = np.asarray(x0, dtype=float).copy()
    rx, J = evaluate(x)
    if not np.all(np.isfinite(rx)):
        raise SolverError("residual not finite at the initial point")
    history = [lam]
    iterations = 0
    converged = np.max(np.abs(rx)) <= cfg.tol_residual

    while not converged and iterations < cfg.max_iters:
        if J is None:
            J = fd_jacobian(r, x, r0=rx) if linearize is None else linearize(x)[1]
        J = np.asarray(J, dtype=float)
        if not np.all(np.isfinite(J)):
            raise SolverError("non-finite Jacobian")
        JtJ = J.T @ J
        g = J.T @ rx
        damp = np.diag(JtJ).copy()
        # guard against exactly-zero columns (flat directions)
        damp[damp == 0.0] = np.max(damp) if np.max(damp) > 0 else 1.0
        singular_retries = 0
        for _ in range(60):
            try:
                dx = np.linalg.solve(JtJ + lam * np.diag(damp), -g)
            except np.linalg.LinAlgError:
                singular_retries += 1
                if singular_retries > 10:
                    raise SolverError(
                        f"damped normal equations stayed singular (lambda={lam:.3e})"
                    )
                lam *= _LAMBDA_UP
                continue
            if np.all(np.isfinite(dx)):
                # a trial the linear model says converges is most likely
                # the last, so no Jacobian need come with its residual; not
                # so before the first accepted step, as a warm start's
                # small damping makes the model say so when it is not
                last = (iterations > 0
                        and np.max(np.abs(rx + J @ dx)) <= cfg.tol_residual)
                rn, Jn = evaluate(x + dx, last)
                if np.all(np.isfinite(rn)) and np.linalg.norm(rn) < np.linalg.norm(rx):
                    break
                if np.max(np.abs(dx)) <= cfg.tol_step:
                    return report(False)    # damped below resolution, residual nonzero
            lam *= _LAMBDA_UP
        else:
            raise SolverError(
                f"no acceptable step found after damping retries (lambda={lam:.3e})"
            )
        x = x + dx
        rx, J = rn, Jn
        lam = max(lam * _LAMBDA_DOWN, 1e-15)
        iterations += 1
        history.append(lam)
        converged = (np.max(np.abs(rx)) <= cfg.tol_residual
                     or np.max(np.abs(dx)) <= cfg.tol_step)

    return report(converged)
