"""Dense Levenberg-Marquardt for small nonlinear least-squares systems.

Damping uses Marquardt's diag(J^T J) scaling, which keeps steps invariant
under uniform rescaling of the residuals and copes with the size gap
between interior and boundary rows.  The Jacobian is one-sided finite
differences; columns are independent and may be computed by a thread
pool without changing the result (assembly is by column index).
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

__all__ = ["LMConfig", "SolverReport", "SolverError", "fd_jacobian", "lm_solve"]


class SolverError(Exception):
    pass


@dataclass(frozen=True)
class LMConfig:
    lambda0: float = 1e-3
    lambda_up: float = 10.0
    lambda_down: float = 0.1
    fd_step: float = 1e-6
    tol_residual: float = 1e-8   # max-norm of the residual vector
    tol_step: float = 1e-10      # max-norm of the accepted step
    max_iters: int = 50
    threads: int = 1

    def __post_init__(self):
        if not all(0.0 < v < math.inf for v in (
                self.lambda0, self.lambda_up, self.lambda_down, self.fd_step,
                self.tol_residual, self.tol_step)):
            raise ValueError("all LM parameters must be positive and finite")
        if not (self.lambda_up > 1.0 > self.lambda_down):
            raise ValueError("need lambda_up > 1 > lambda_down")
        if self.max_iters < 1 or self.threads < 1:
            raise ValueError("max_iters and threads must be >= 1")


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


def fd_jacobian(r, x: np.ndarray, step: float, r0: np.ndarray | None = None,
                threads: int = 1) -> np.ndarray:
    """One-sided finite-difference Jacobian of r at x.

    Column j is (r(x + h_j e_j) - r(x)) / h_j with h_j = step*max(|x_j|, 1).
    """
    x = np.asarray(x, dtype=float)
    if r0 is None:
        r0 = np.asarray(r(x), dtype=float)

    def column(j):
        h = step * max(abs(x[j]), 1.0)
        xp = x.copy()
        xp[j] += h
        rj = np.asarray(r(xp), dtype=float)
        if not np.all(np.isfinite(rj)):
            raise SolverError(f"non-finite residual when perturbing component {j}")
        return (rj - r0) / h

    J = np.empty((len(r0), len(x)))
    if threads > 1 and len(x) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            for j, col in enumerate(pool.map(column, range(len(x)))):
                J[:, j] = col
    else:
        for j in range(len(x)):
            J[:, j] = column(j)
    return J


def lm_solve(r, x0: np.ndarray, cfg: LMConfig | None = None) -> SolverReport:
    """Minimize ||r(x)||_2 by damped Gauss-Newton steps.

    A trial step solves (J^T J + lambda diag(J^T J)) dx = -J^T r and is
    accepted iff the 2-norm of the residual decreases; lambda shrinks on
    acceptance and grows on rejection.  Stops when the residual max-norm
    falls below tol_residual, the accepted step falls below tol_step, or
    max_iters accepted steps have been taken (converged=False).
    """
    if cfg is None:
        cfg = LMConfig()
    x = np.asarray(x0, dtype=float).copy()
    rx = np.asarray(r(x), dtype=float)
    if not np.all(np.isfinite(rx)):
        raise SolverError("residual not finite at the initial point")
    lam = cfg.lambda0
    history = [lam]
    iterations = 0
    converged = np.max(np.abs(rx)) <= cfg.tol_residual

    while not converged and iterations < cfg.max_iters:
        J = fd_jacobian(r, x, cfg.fd_step, r0=rx, threads=cfg.threads)
        JtJ = J.T @ J
        g = J.T @ rx
        damp = np.diag(JtJ).copy()
        # guard against exactly-zero columns (flat directions)
        damp[damp == 0.0] = np.max(damp) if np.max(damp) > 0 else 1.0
        rnorm2 = np.linalg.norm(rx)
        accepted = False
        stalled = False
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
                lam *= cfg.lambda_up
                continue
            if not np.all(np.isfinite(dx)):
                lam *= cfg.lambda_up
                continue
            rn = np.asarray(r(x + dx), dtype=float)
            if np.all(np.isfinite(rn)) and np.linalg.norm(rn) < rnorm2:
                x = x + dx
                rx = rn
                lam = max(lam * cfg.lambda_down, 1e-15)
                accepted = True
                break
            if np.max(np.abs(dx)) <= cfg.tol_step:
                stalled = True    # damping pushed the step below resolution
                break
            lam *= cfg.lambda_up
        if not accepted:
            if stalled:
                break             # converged stays False: stuck at a nonzero residual
            raise SolverError(
                f"no acceptable step found after damping retries (lambda={lam:.3e})"
            )
        iterations += 1
        history.append(lam)
        if np.max(np.abs(rx)) <= cfg.tol_residual:
            converged = True
        elif np.max(np.abs(dx)) <= cfg.tol_step:
            converged = True

    return SolverReport(
        solution=x,
        residual_norm=float(np.max(np.abs(rx))),
        iterations=iterations,
        converged=bool(converged),
        lambda_history=history,
    )
