"""Numerical integration primitives.

Two rules cover everything the solver needs: a composite trapezoid on
uniform grids (used for the outer collocation integrals) and an adaptive
15-point Gauss-Kronrod rule (used for sliding averages, norms and
reference integrals).  A batched variant integrates many integrands at
once, and a cumulative variant computes antiderivative tables at many
points.

All adaptive rules are thin callers of one level-synchronous bisection
loop: each pass integrates every open panel, of every integral, in one
vectorized call, then closes or halves each one, within each integral's
bisection budget.  A panel whose
error estimate is already its roundoff floor (50*eps times the integral
of |f| over it) gains nothing from halving, since the floors of its
halves add up to the same amount; once the budget would run out such
panels are closed instead.  Only panels above their floor can exhaust
the budget, and a panel too narrow to halve ends the loop too: both
raise QuadratureError carrying the best estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "QuadConfig",
    "QuadResult",
    "QuadratureError",
    "trapezoid",
    "gk15_adaptive",
    "gk15_adaptive_many",
    "gk15_panels",
    "gk15_rule",
    "cumulative_gk15",
]


class QuadratureError(Exception):
    """Raised when a quadrature routine cannot reach its tolerance.

    Carries the best available estimate so callers can decide whether to
    accept a degraded value or abort.
    """

    def __init__(self, message, value=None, error_estimate=None, interval=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate
        self.interval = interval


@dataclass(frozen=True)
class QuadConfig:
    """Tolerances and subdivision budget for adaptive quadrature."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self):
        if not (self.abs_tol > 0 and self.rel_tol > 0):
            raise ValueError("quadrature tolerances must be positive")
        if self.max_subdivisions < 1:
            raise ValueError("max_subdivisions must be >= 1")


@dataclass(frozen=True)
class QuadResult:
    value: float
    error_estimate: float
    subdivisions: int


# Gauss-Kronrod 7/15 nodes and weights on [-1, 1], nonnegative abscissae.
# Embedded constants (16 significant digits) so results are bit-stable
# across platforms; the monomial oracle in the test suite checks them.
_XGK = np.array([
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993944,
    0.5860872354676911,
    0.4058451513773972,
    0.2077849550078985,
    0.0,
])
_WGK = np.array([
    0.02293532201052922,
    0.06309209262997855,
    0.1047900103222502,
    0.1406532597155259,
    0.1690047266392679,
    0.1903505780647854,
    0.2044329400752989,
    0.2094821410847278,
])
_WG = np.array([
    0.1294849661688697,
    0.2797053914892767,
    0.3818300505051189,
    0.4179591836734694,
])

# Full 15-node layout, ascending; Gauss-7 weights aligned to the shared nodes.
_NODES15 = np.concatenate([-_XGK[:-1], [0.0], _XGK[-2::-1]])
_W15 = np.concatenate([_WGK[:-1], [_WGK[-1]], _WGK[-2::-1]])
_W7 = np.zeros(15)
_W7[1::2] = np.concatenate([_WG[:-1], [_WG[-1]], _WG[-2::-1]])


def trapezoid(f, a: float, b: float, M: int) -> float:
    """Composite trapezoid of ``f`` on M uniformly spaced nodes in [a, b].

    Exact for affine integrands; second-order accurate otherwise.  Raises
    if any sample is non-finite, naming the offending node.
    """
    if M < 2:
        raise ValueError(f"trapezoid needs at least 2 nodes, got {M}")
    if a > b:
        raise ValueError(f"inverted interval [{a}, {b}]")
    x = np.linspace(a, b, M)
    fx = np.asarray(f(x), dtype=float)
    if fx.shape != x.shape:
        fx = np.array([f(xi) for xi in x], dtype=float)
    bad = ~np.isfinite(fx)
    if np.any(bad):
        i = int(np.argmax(bad))
        raise QuadratureError(
            f"non-finite sample {float(fx[i])} at node {i} (x={float(x[i])})",
            interval=(a, b),
        )
    h = (b - a) / (M - 1)
    return h * (np.sum(fx) - 0.5 * (fx[0] + fx[-1]))


def gk15_rule(a, b):
    """Nodes and Kronrod weights of one GK15 panel on each [a_i, b_i].

    Returns two arrays of shape (len(a), 15); row i integrates a smooth
    function over [a_i, b_i] as ``weights[i] @ f(nodes[i])``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    return mid[:, None] + half[:, None] * _NODES15[None, :], half[:, None] * _W15[None, :]


def gk15_panels(f, a, b):
    """Vectorized GK15 on a batch of panels [a_i, b_i].

    ``f`` should accept a flat array; one returning a scalar is called
    node by node instead.  Returns (values, error_estimates, floors),
    where each error estimate is at least its panel's roundoff floor
    ``50*eps*integral(|f|)``.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[:, None] + half[:, None] * _NODES15[None, :]
    fx = np.asarray(f(x.ravel()), dtype=float)
    if fx.shape != (x.size,):
        fx = np.array([f(xi) for xi in x.ravel()], dtype=float)
    fx = fx.reshape(x.shape)
    if not np.all(np.isfinite(fx)):
        i, j = np.unravel_index(int(np.argmax(~np.isfinite(fx))), fx.shape)
        raise QuadratureError(
            f"non-finite integrand at x={float(x[i, j])}",
            interval=(float(a[i]), float(b[i])),
        )
    k15 = half * (fx @ _W15)
    g7 = half * (fx @ _W7)
    width = b - a
    with np.errstate(invalid="ignore", divide="ignore"):
        fmean = np.where(width > 0, k15 / np.where(width > 0, width, 1.0), 0.0)
    resasc = half * (np.abs(fx - fmean[:, None]) @ _W15)
    resabs = half * (np.abs(fx) @ _W15)
    # QUADPACK-style rescaled estimate: conservative for smooth panels,
    # never larger than the crude oscillation bound resasc
    err = np.abs(k15 - g7)
    scale = np.ones_like(err)
    mask = (resasc != 0.0) & (err != 0.0)
    scale[mask] = np.minimum(1.0, (200.0 * err[mask] / resasc[mask]) ** 1.5)
    err = np.where(mask, resasc * scale, err)
    floor = 50.0 * np.finfo(float).eps * resabs
    return k15, np.maximum(err, floor), floor


def _bisect(f, a, b, integral, accept, max_bisections):
    """Level-synchronous adaptive GK15 over the panels [a_i, b_i].

    The loop of the module docstring.  Input panel i belongs to integral
    ``integral[i]`` (numbered from 0), and ``f(x, k)`` is integral k's
    integrand at the points x, with k the integral of each point.  Each
    integral has its own budget of ``max_bisections``.  ``accept(values,
    errors, widths, k, total_values, total_errors)`` picks the open panels
    to close, where k is each panel's integral and the totals, one per
    integral, sum its closed and open panels.  Returns the value and error
    sums per input panel and the number of bisections per integral.
    """
    count = int(integral.max()) + 1
    vals_done = np.zeros(len(a))
    errs_done = np.zeros(len(a))
    owner = np.arange(len(a))
    nsplit = np.zeros(count, dtype=int)
    while len(a):
        k = integral[owner]
        vals, errs, floor = gk15_panels(lambda x: f(x, k.repeat(15)), a, b)
        total_val = (np.bincount(integral, vals_done, count)
                     + np.bincount(k, vals, count))
        total_err = (np.bincount(integral, errs_done, count)
                     + np.bincount(k, errs, count))
        ok = accept(vals, errs, b - a, k, total_val, total_err)
        short = nsplit + np.bincount(k[~ok], minlength=count) > max_bisections
        ok |= short[k] & (errs <= floor)
        np.add.at(vals_done, owner[ok], vals[ok])
        np.add.at(errs_done, owner[ok], errs[ok])
        a, b, owner, k = a[~ok], b[~ok], owner[~ok], k[~ok]
        if len(a) == 0:
            break
        mid = 0.5 * (a + b)
        nsplit += np.bincount(k, minlength=count)
        over = nsplit > max_bisections
        stuck = (mid <= a) | (mid >= b)
        if over.any() or stuck.any():
            # report the failing integral numbered first, at its first open panel
            g = int(k[over[k] | stuck].min())
            i = int(np.argmax(k == g))
            reason = (f"more than {max_bisections} bisections needed"
                      if over[g] else "a panel cannot be bisected further")
            raise QuadratureError(
                f"{reason} on [{a[i]}, {b[i]}]",
                value=float(total_val[g]),
                error_estimate=float(total_err[g]),
                interval=(float(a[i]), float(b[i])),
            )
        a = np.concatenate([a, mid])
        b = np.concatenate([mid, b])
        owner = np.concatenate([owner, owner])
    return vals_done, errs_done, nsplit


def gk15_adaptive(f, a: float, b: float, cfg: QuadConfig | None = None) -> QuadResult:
    """Adaptive Gauss-Kronrod (7, 15) integration of ``f`` over [a, b].

    Globally adaptive: stops once the summed error estimate meets
    ``max(abs_tol, rel_tol*|I|)``; until then every panel whose error
    exceeds its width's share of that tolerance is halved, within
    ``max_subdivisions`` panels.  A tolerance below roundoff returns the
    roundoff-limited value, whose error estimate then exceeds the
    tolerance; an exhausted budget raises QuadratureError carrying the
    estimate.  The one-integral case of ``gk15_adaptive_many``.
    """
    return gk15_adaptive_many(lambda x, k: f(x), [a], [b], cfg)[0]


def gk15_adaptive_many(f, a, b, cfg: QuadConfig | None = None) -> list[QuadResult]:
    """``gk15_adaptive`` of integral k of ``f`` over [a[k], b[k]], for every k.

    ``f(x, k)`` evaluates integral k's integrand at the points x, where k
    holds the integral of each point.  All integrals share one bisection
    loop, so each level makes one call of ``f``; each keeps its own
    tolerance ``max(abs_tol, rel_tol*|I_k|)`` and its own budget of
    ``max_subdivisions`` panels, so each closes the panels it would close
    alone.  If any integral exhausts its budget, QuadratureError carries
    the estimate of the one numbered first.
    """
    if cfg is None:
        cfg = QuadConfig()
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if np.any(a > b):
        i = int(np.argmax(a > b))
        raise ValueError(f"inverted interval [{a[i]}, {b[i]}]")
    results = [QuadResult(0.0, 0.0, 1)] * len(a)
    todo = np.flatnonzero(a != b)
    if len(todo) == 0:
        return results
    span = b[todo] - a[todo]

    def accept(vals, errs, widths, k, total_val, total_err):
        goal = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total_val))
        return (total_err <= goal)[k] | (errs <= goal[k] * widths / span[k])

    val, err, nsplit = _bisect(lambda x, k: f(x, todo[k]), a[todo], b[todo],
                               np.arange(len(todo)), accept, cfg.max_subdivisions - 1)
    for j, i in enumerate(todo):
        results[i] = QuadResult(float(val[j]), float(err[j]), int(nsplit[j]) + 1)
    return results


# Bisections allowed per antiderivative table.  The solver's tables need a
# few hundred; an integrated figure over |y| <= 1e7 fits within it.
_CUMULATIVE_MAX_BISECTIONS = 10_000


def cumulative_gk15(f, points, tol: float = 1e-12):
    """Antiderivative table P(points[i]) = integral of f from points[0].

    ``points`` must be sorted ascending.  Each gap between consecutive
    points is integrated with the GK15 rule; panels whose error estimate
    exceeds ``tol`` are halved, level by level, within a fixed bisection
    budget.  Returns the cumulative sums at ``points`` (P(points[0]) = 0).
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 1 or len(points) < 1:
        raise ValueError("points must be a nonempty 1-D sorted array")
    if np.any(np.diff(points) < 0):
        raise ValueError("points must be sorted ascending")
    if len(points) == 1:
        return np.zeros(1)

    gap_vals, _, _ = _bisect(lambda x, k: f(x), points[:-1], points[1:],
                             np.zeros(len(points) - 1, dtype=int),
                             lambda vals, errs, *_: errs <= tol,
                             _CUMULATIVE_MAX_BISECTIONS)
    out = np.empty(len(points))
    out[0] = 0.0
    np.cumsum(gap_vals, out=out[1:])
    return out
