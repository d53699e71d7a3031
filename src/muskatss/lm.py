"""Dense Levenberg-Marquardt for small nonlinear least-squares systems.

Damping uses Marquardt's diag(J^T J) scaling, which keeps steps invariant
under uniform rescaling of the residuals and copes with the size gap
between interior and boundary rows.  The Jacobian comes from the
residual itself when the callable carries one as ``r.jacobian(x)`` (the
collocation residual does); otherwise it is one-sided finite
differences, ``fd_jacobian``, which also serves the tests as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["LMConfig", "SolverReport", "SolverError", "fd_jacobian", "lm_solve"]


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
    """Minimize ||r(x)||_2 by damped Gauss-Newton steps.

    A trial step solves (J^T J + lambda diag(J^T J)) dx = -J^T r and is
    accepted iff the 2-norm of the residual decreases; lambda starts at
    _LAMBDA0 and is multiplied by _LAMBDA_DOWN on acceptance and by
    _LAMBDA_UP on rejection.  J is ``r.jacobian(x)`` when r has that
    attribute and ``fd_jacobian`` otherwise; either raises SolverError if
    not finite.  Stops when the residual max-norm falls below tol_residual,
    the accepted step falls below tol_step (converged), a rejected step
    does (stalled), or after max_iters accepted steps.
    """
    cfg = LMConfig() if cfg is None else cfg

    def jacobian(x):    # finite differences about the current rx
        return fd_jacobian(r, x, r0=rx)

    def report(converged):
        return SolverReport(solution=x, residual_norm=float(np.max(np.abs(rx))),
                            iterations=iterations, converged=bool(converged),
                            lambda_history=history)

    jacobian = getattr(r, "jacobian", jacobian)
    x = np.asarray(x0, dtype=float).copy()
    rx = np.asarray(r(x), dtype=float)
    if not np.all(np.isfinite(rx)):
        raise SolverError("residual not finite at the initial point")
    lam = _LAMBDA0
    history = [lam]
    iterations = 0
    converged = np.max(np.abs(rx)) <= cfg.tol_residual

    while not converged and iterations < cfg.max_iters:
        J = np.asarray(jacobian(x), dtype=float)
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
                rn = np.asarray(r(x + dx), dtype=float)
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
        rx = rn
        lam = max(lam * _LAMBDA_DOWN, 1e-15)
        iterations += 1
        history.append(lam)
        converged = (np.max(np.abs(rx)) <= cfg.tol_residual
                     or np.max(np.abs(dx)) <= cfg.tol_step)

    return report(converged)
