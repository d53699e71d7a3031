"""Compactified grid and odd quartic-spline profiles.

The solver works in the compactified variable z = arctan(y), so the half
line becomes [0, pi/2] and the unknown profile is represented by its
nodal values on a uniform grid there.  Derivatives come from a degree-4
interpolating spline fitted on [0, pi/2]; values on [-pi/2, 0) are
produced by odd reflection at evaluation time, which makes the odd
symmetry (and the evenness of the first derivative) exact in floating
point while keeping the spline space able to reproduce arbitrary
polynomials of degree <= 4 on the fitted interval.

The interpolant is linear in the nodal values, so ``SplineMaps`` also
gives it as matrices: dense value->derivative maps at fixed points, and
the local B-spline rows that act on the spline coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.interpolate import BSpline, make_interp_spline

__all__ = ["Grid", "Profile", "SplineMaps", "make_grid", "fit_spline", "HALF_PI"]

HALF_PI = 0.5 * np.pi


@dataclass(frozen=True)
class Grid:
    """Uniform nodes z_i = pi*i/(2(N-1)), i = 0..N-1, covering [0, pi/2]."""

    N: int
    nodes: np.ndarray

    @property
    def spacing(self) -> float:
        return HALF_PI / (self.N - 1)


def make_grid(N: int) -> Grid:
    if N < 2:
        raise ValueError(f"grid needs at least 2 nodes, got N={N}")
    nodes = HALF_PI * np.arange(N) / (N - 1)
    # the quotient rounds to 1 ulp below pi/2 for some N, where tan ~ 1e16
    nodes[-1] = HALF_PI
    return Grid(N=N, nodes=nodes)


@dataclass(frozen=True)
class Profile:
    """Nodal values of the compactified profile plus its quartic spline.

    ``values[0]`` is pinned to 0 (oddness).  ``s`` is the target
    far-field slope; for a converged solution ``values[-1] == s`` but
    trial profiles inside the solver may violate that, which is exactly
    what the boundary residual measures.
    """

    grid: Grid
    values: np.ndarray
    s: float
    spline: object = field(repr=False)

    def eval(self, z):
        """Profile value at z in [-pi/2, pi/2]; odd in z exactly."""
        self._check_domain(z)
        return self._ev(z, 0)

    def eval_deriv(self, z, order: int = 1):
        """Derivative at z; odd orders are even in z, even orders odd."""
        self._check_domain(z)
        return self._ev(z, order)

    def boundary_value(self) -> float:
        return float(self.values[-1])

    def _ev(self, z, nu):
        """Reflection evaluation without domain checks (solver-internal)."""
        z = np.asarray(z, dtype=float)
        az = np.abs(z)
        v = self.spline(az, nu=nu)
        if nu % 2 == 0:
            return np.where(z < 0, -v, v) if np.any(z < 0) else v
        return v

    @staticmethod
    def _check_domain(z):
        z = np.asarray(z)
        if np.any(z < -HALF_PI - 1e-12) or np.any(z > HALF_PI + 1e-12):
            bad = z[(z < -HALF_PI - 1e-12) | (z > HALF_PI + 1e-12)]
            raise ValueError(f"evaluation point {bad!r} outside [-pi/2, pi/2]")


def fit_spline(grid: Grid, values, s: float) -> Profile:
    """Interpolate nodal values on [0, pi/2] with a degree-4 spline.

    Requires values[0] == 0 (the odd reflection is continuous only
    then) and N >= 5 so the interpolation problem is square.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.N,):
        raise ValueError(f"expected {grid.N} nodal values, got shape {values.shape}")
    if values[0] != 0.0:
        raise ValueError(f"values[0] must be 0 (odd profile), got {values[0]}")
    if grid.N < 5:
        raise ValueError("degree-4 interpolation needs N >= 5")
    spline = make_interp_spline(grid.nodes, values, k=4)
    return Profile(grid=grid, values=values, s=float(s), spline=spline)


class SplineMaps:
    """The odd quartic interpolant of ``grid`` as linear maps of the values.

    ``coef`` maps nodal values to B-spline coefficients.  ``dense(pts, nu)``
    is the matrix E with ``E @ values`` equal to the nu-th derivative at
    ``pts`` (odd reflection included); ``local(pts, nu)`` gives the same
    rows on the coefficients as the k+1 basis values that can be nonzero
    at each point, and the index of the first of them.
    """

    def __init__(self, grid: Grid):
        self._cardinal = make_interp_spline(grid.nodes, np.eye(grid.N), k=4)
        self.coef = self._cardinal.c
        # at most k+1 consecutive basis functions are nonzero at a point, and
        # their indices differ mod k+1: column r sums the basis functions of
        # index r mod k+1, so at each point it holds one of them exactly
        k = self._cardinal.k
        self._basis = BSpline(self._cardinal.t,
                              (np.arange(grid.N)[:, None] % (k + 1) == np.arange(k + 1)) * 1.0, k)

    @staticmethod
    def _reflect(rows, pts, nu):
        if nu % 2 == 0:
            rows[pts < 0] *= -1.0
        return rows

    def dense(self, pts, nu: int = 0) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return self._reflect(self._cardinal(np.abs(pts), nu), pts, nu)

    def local(self, pts, nu: int = 0) -> tuple[np.ndarray, np.ndarray]:
        pts = np.asarray(pts, dtype=float)
        t, k = self._basis.t, self._basis.k
        n = len(t) - k - 1
        first = np.clip(np.searchsorted(t, np.abs(pts), side="right") - 1, k, n - 1) - k
        cols = (first[:, None] + np.arange(k + 1)) % (k + 1)
        rows = np.take_along_axis(self._basis(np.abs(pts), nu), cols, axis=1)
        return self._reflect(rows, pts, nu), first
