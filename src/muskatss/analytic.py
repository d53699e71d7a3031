"""Closed-form reference objects for the self-similar slope profiles.

This module collects everything that is known in closed form: the
dispersion constant ``kappa``, the arctan-shaped linear profile, the
cubic correction ``pi_s``, and the quadratic sliding-average bricks
``delta_alpha`` / ``J_alpha`` that encode the cancellations the solver
relies on.  Everything here is a pure function and doubles as a test
oracle for the residual machinery.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .quadrature import QuadratureError, gk15_adaptive

__all__ = [
    "BrickSample",
    "kappa",
    "linear_profile",
    "pi_s",
    "sliding_average",
    "delta_brick",
    "delta_brick_polarized",
    "j_brick",
    "delta_shape_constant",
    "j_shape_constant",
]

@dataclass(frozen=True)
class BrickSample:
    """One evaluation of an elementary brick: averaging length, point, value."""

    alpha: float
    y: float
    value: float

    def __post_init__(self):
        if not self.alpha > 0:
            raise ValueError(f"averaging length must be positive, got {self.alpha}")


def _require_slope(s: float) -> float:
    # negative slopes are handled by the odd symmetry of the profile
    # family and are never represented directly
    if not np.isfinite(s):
        raise ValueError(f"slope parameter must be finite, got {s}")
    if s < 0:
        raise ValueError(f"slope parameter must be nonnegative, got {s}")
    return float(s)


def kappa(s: float) -> float:
    """Dispersion constant (1 + s^2/3)^(-1) of the linearized equation."""
    s = _require_slope(s)
    return 1.0 / (1.0 + s * s / 3.0)


def linear_profile(s: float, y):
    """Arctan profile with far-field slope s: (2s/pi) * arctan((1 + s^2/3) y).

    Odd in y, strictly increasing for s > 0, tends to s as y -> +inf.
    """
    s = _require_slope(s)
    return (2.0 * s / np.pi) * np.arctan((1.0 + s * s / 3.0) * np.asarray(y, dtype=float))


def pi_s(s: float, y):
    """Cubic correction (L_s^2 - s^2) * L_s.

    Odd, vanishes linearly at the origin, decays like 1/y at infinity.
    """
    L = linear_profile(s, y)
    return (L * L - s * s) * L


def sliding_average(f, alpha: float, y: float, orientation: int = +1) -> float:
    """Mean of f over [y - alpha, y] (orientation +1) or [y, y + alpha] (-1).

    The +1 orientation is the trailing average whose square enters the
    slope equation; alpha -> 0 is defined by the continuous extension f(y).
    The integral is adaptive GK15 at the ``QuadConfig`` defaults, as for
    the residual module's sliding average.
    """
    if alpha < 0:
        raise ValueError(f"averaging length must be nonnegative, got {alpha}")
    if alpha == 0.0:
        return float(f(y))
    if orientation == +1:
        a, b = y - alpha, y
    elif orientation == -1:
        a, b = y, y + alpha
    else:
        raise ValueError(f"orientation must be +1 or -1, got {orientation}")
    try:
        res = gk15_adaptive(f, a, b)
    except QuadratureError as exc:
        raise QuadratureError(
            f"sliding average did not converge on [{a}, {b}]",
            value=exc.value,
            error_estimate=exc.error_estimate,
            interval=(a, b),
        ) from exc
    return res.value / alpha


def delta_brick(f, alpha: float, y: float) -> float:
    """Antisymmetric quadratic brick: (avg over [y-a, y])^2 - (avg over [y, y+a])^2.

    Vanishes for constants; equals -2*y*alpha for f(y) = y; odd in y
    whenever f is odd.
    """
    ap = sliding_average(f, alpha, y, +1)
    am = sliding_average(f, alpha, y, -1)
    return ap * ap - am * am


def delta_brick_polarized(f, g, alpha: float, y: float) -> float:
    """Bilinear polarization of :func:`delta_brick`.

    delta[f+g] = delta[f] + 2*delta[f, g] + delta[g].
    """
    fp = sliding_average(f, alpha, y, +1)
    fm = sliding_average(f, alpha, y, -1)
    gp = sliding_average(g, alpha, y, +1)
    gm = sliding_average(g, alpha, y, -1)
    return fp * gp - fm * gm


def j_brick(h, alpha: float, y: float) -> float:
    """Symmetric quadratic brick: (avg_+)^2 - 2 h(y)^2 + (avg_-)^2.

    Vanishes for constants; equals alpha^2/2 for h(y) = y; even in y
    whenever h is odd or even.
    """
    ap = sliding_average(h, alpha, y, +1)
    am = sliding_average(h, alpha, y, -1)
    hy = float(h(y))
    return ap * ap - 2.0 * hy * hy + am * am


def delta_shape_constant(s: float, alphas, ys) -> tuple[float, BrickSample]:
    """Fitted constant C in |delta_alpha[L_s]|/s^2 <= C * min(sqrt(a), 1/sqrt(a)).

    Returns the constant and the lattice sample that attains it.  The
    averages of the arctan profile are evaluated in closed form (the
    antiderivative of arctan is elementary), so the fit is cheap enough
    to run on dense lattices.
    """
    s = _require_slope(s)
    best, worst = 0.0, BrickSample(float(alphas[0]), float(ys[0]), 0.0)
    for a in alphas:
        shape = min(np.sqrt(a), 1.0 / np.sqrt(a))
        for y in ys:
            d = _delta_linear_exact(s, a, y)
            c = abs(d) / (s * s * shape) if s > 0 else 0.0
            if c > best:
                best, worst = c, BrickSample(float(a), float(y), float(d))
    return best, worst


def j_shape_constant(s: float, alphas, ys) -> tuple[float, BrickSample]:
    """Fitted constant C in |J_alpha[L_s]|/s^2 <= C * min(alpha, 1)."""
    s = _require_slope(s)
    best, worst = 0.0, BrickSample(float(alphas[0]), float(ys[0]), 0.0)
    for a in alphas:
        shape = min(a, 1.0)
        for y in ys:
            j = _j_linear_exact(s, a, y)
            c = abs(j) / (s * s * shape) if s > 0 else 0.0
            if c > best:
                best, worst = c, BrickSample(float(a), float(y), float(j))
    return best, worst


def _arctan_antideriv(s, y):
    """Antiderivative of linear_profile: (2s/pi) [y arctan(ky) - ln(1+(ky)^2)/(2k)]."""
    kb = 1.0 + s * s / 3.0
    return (2.0 * s / np.pi) * (y * np.arctan(kb * y) - np.log1p((kb * y) ** 2) / (2.0 * kb))


def _delta_linear_exact(s, alpha, y):
    ap = (_arctan_antideriv(s, y) - _arctan_antideriv(s, y - alpha)) / alpha
    am = (_arctan_antideriv(s, y + alpha) - _arctan_antideriv(s, y)) / alpha
    return ap * ap - am * am


def _j_linear_exact(s, alpha, y):
    ap = (_arctan_antideriv(s, y) - _arctan_antideriv(s, y - alpha)) / alpha
    am = (_arctan_antideriv(s, y + alpha) - _arctan_antideriv(s, y)) / alpha
    L = linear_profile(s, y)
    return ap * ap - 2.0 * L * L + am * am
