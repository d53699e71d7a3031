"""Compactified grid and odd quartic-spline profiles.

The solver works in the compactified variable z = arctan(y), so the half
line becomes [0, pi/2] and the unknown profile is represented by its
nodal values on a uniform grid there.  Derivatives come from a degree-4
interpolating spline fitted on [0, pi/2]; values on [-pi/2, 0) are
produced by odd reflection at evaluation time, which makes the odd
symmetry (and the evenness of the first derivative) exact in floating
point while keeping the spline space able to reproduce arbitrary
polynomials of degree <= 4 on the fitted interval.

The spline is plain numpy.  Its knots are where scipy's
``make_interp_spline(x, y, k=4)`` puts them: 0 and pi/2 five times each
and the midpoints between the grid nodes z_2..z_{N-3}.  Everything that
depends only on N is built once, in the cached ``SplineMaps`` of
``spline_maps(N)``: a vectorised Cox-de Boor evaluator of the B-splines
and their derivatives (de Boor, *A Practical Guide to Splines*, ch. X),
the N x N cardinal map from nodal values to B-spline coefficients (the
collocation matrix inverted once, by elimination without pivoting), and
the Taylor map from nodal values to the interpolant's Taylor coefficients
about each node; neither is built with BLAS, so a fit does not depend on
its thread count.  Fitting a profile is then one product with the Taylor
map, made on the profile's first evaluation, and evaluating it is a lookup
of the nearest node plus Horner's rule.  The same maps give the
interpolant as matrices of the values: dense value->derivative maps at
fixed points, and the local B-spline rows that act on the spline
coefficients.  scipy is not needed at run time; the tests use it as the
oracle of all of this.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

__all__ = ["Grid", "Profile", "QuarticSpline", "SplineMaps", "make_grid", "fit_spline",
           "spline_maps", "HALF_PI"]

HALF_PI = 0.5 * np.pi
K = 4  # spline degree


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
    what the boundary residual measures.  ``spline`` is fitted on first
    use, so a profile that is never evaluated costs no fit.
    """

    grid: Grid
    values: np.ndarray
    s: float

    @functools.cached_property
    def spline(self) -> QuarticSpline:
        """The quartic interpolant of ``values`` on [0, pi/2]."""
        return spline_maps(self.grid.N).fit(self.values)

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
        v = self.spline(np.abs(z), nu)
        if nu % 2 == 0:
            neg = z < 0
            if neg.any():
                return np.where(neg, -v, v)
        return v

    @staticmethod
    def _check_domain(z):
        # written as "not <=" so that NaN fails too (max propagates it)
        z = np.asarray(z)
        if z.size and not np.abs(z).max() <= HALF_PI + 1e-12:
            bad = z[~(np.abs(z) <= HALF_PI + 1e-12)]
            raise ValueError(f"evaluation point {bad!r} outside [-pi/2, pi/2]")


def fit_spline(grid: Grid, values, s: float) -> Profile:
    """Interpolate nodal values on [0, pi/2] with a degree-4 spline.

    Requires finite values, values[0] == 0 (the odd reflection is
    continuous only then) and N >= 5 so the interpolation problem is
    square.  The spline itself is fitted on the profile's first evaluation.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.N,):
        raise ValueError(f"expected {grid.N} nodal values, got shape {values.shape}")
    if values[0] != 0.0:
        raise ValueError(f"values[0] must be 0 (odd profile), got {values[0]}")
    if not np.isfinite(values).all():
        raise ValueError("Array must not contain infs or nans.")
    if grid.N < K + 1:
        raise ValueError("degree-4 interpolation needs N >= 5")
    return Profile(grid=grid, values=values, s=float(s))


class QuarticSpline:
    """A quartic spline on [0, pi/2] as one Taylor polynomial per grid node.

    ``spline(x, nu=0)`` is the nu-th derivative at x >= 0: the node nearest
    to x, then Horner's rule in x minus that node.  Each node's polynomial
    is that of the knot interval holding the node's cell; the end nodes'
    polynomials extend past 0 and pi/2.

    ``QuarticSpline.stack(splines)`` holds the splines of one grid side by
    side; ``stacked(x, nu, which)`` evaluates spline ``which[j]`` at x[j]
    with the same arithmetic as that spline alone.
    """

    def __init__(self, cuts: np.ndarray, centers: np.ndarray, taylor: np.ndarray):
        self._cuts = cuts              # bounds between the cells of consecutive centers
        self._centers = centers
        self._taylor = {0: taylor}     # nu -> (K+1-nu, splines*centers) Taylor coefficients

    @classmethod
    def stack(cls, splines) -> QuarticSpline:
        """The splines of one grid as one, told apart by ``which`` on evaluation."""
        first = splines[0]
        if not all(np.array_equal(sp._centers, first._centers) for sp in splines[1:]):
            raise ValueError("stacked splines must share one grid")
        return cls(first._cuts, first._centers,
                   np.concatenate([sp._taylor[0] for sp in splines], axis=1))

    def __call__(self, x, nu: int = 0, which=None):
        c = self._taylor.get(nu)
        if c is None:
            c = self._taylor[nu] = self._derivative(nu)
        x = np.asarray(x, dtype=float)
        i = self._cuts.searchsorted(x, side="right")
        dx = x - self._centers.take(i)
        if which is not None:
            i += len(self._centers) * np.asarray(which)
        c = c.take(i, axis=1)
        v = c[-1]
        for row in c[-2::-1]:
            v *= dx
            v += row
        return v

    def _derivative(self, nu: int) -> np.ndarray:
        if nu < 0:
            raise ValueError(f"derivative order must be >= 0, got {nu}")
        if nu > K:
            return np.zeros((1, self._taylor[0].shape[1]))
        scale = [math.perm(m, nu) for m in range(nu, K + 1)]
        return self._taylor[0][nu:] * np.array(scale)[:, None]


class SplineMaps:
    """The odd quartic interpolant of ``grid`` as linear maps of the values.

    ``coef`` maps nodal values to B-spline coefficients.  ``dense(pts, nu)``
    is the matrix E with ``E @ values`` equal to the nu-th derivative at
    ``pts`` (odd reflection included); ``on_coef(x, nu)`` gives the same
    rows on all the coefficients at x >= 0, and ``local(pts, nu)`` as the
    k+1 basis values that can be nonzero at each point, and the index of
    the first of them.  ``taylor`` maps
    nodal values to the Taylor coefficients of the interpolant about every
    node, K+1 blocks of N rows by order; ``fit`` applies it.
    ``spline_maps(N)`` caches one per N.
    """

    def __init__(self, grid: Grid):
        N, x = grid.N, grid.nodes
        if N < K + 1:
            raise ValueError("degree-4 interpolation needs N >= 5")
        self.t = np.concatenate([np.zeros(K + 1), 0.5 * (x[2:N - 3] + x[3:N - 2]),
                                 np.full(K + 1, HALF_PI)])
        self.coef = _inverse(self.on_coef(x, 0))
        # Taylor coefficients about each node, used on the cell of points
        # nearest to it: the interior knots are cell bounds, so each cell lies
        # within one polynomial piece, and |x - node| <= h/2 keeps Horner's
        # terms small
        self._nodes, self._cuts = x, 0.5 * (x[1:] + x[:-1])
        local = [self.basis(x, m) for m in range(K + 1)]
        self.taylor = np.concatenate([
            np.einsum("ik,ikn->in", rows, self.coef[first[:, None] + np.arange(K + 1)])
            / math.factorial(m) for m, (rows, first) in enumerate(local)])

    def basis(self, x, nu: int = 0) -> tuple[np.ndarray, np.ndarray]:
        """The nu-th derivatives at x >= 0 of the K+1 B-splines that can be
        nonzero there, and the index of the first: Cox-de Boor to degree
        K-nu, then nu differentiation steps."""
        t = self.t
        x = np.asarray(x, dtype=float)
        ell = np.clip(t.searchsorted(x, side="right") - 1, K, len(t) - K - 2)
        h = np.zeros((len(x), K + 1))
        h[:, 0] = 1.0
        for j in range(1, K + 1):
            prev = h[:, :j].copy()
            h[:, 0] = 0.0
            for n in range(1, j + 1):
                xb, xa = t[ell + n], t[ell + n - j]
                if j <= K - nu:
                    w = prev[:, n - 1] / (xb - xa)
                    h[:, n - 1] += w * (xb - x)
                    h[:, n] = w * (x - xa)
                else:
                    w = j * prev[:, n - 1] / (xb - xa)
                    h[:, n - 1] -= w
                    h[:, n] = w
        return h, ell - K

    def on_coef(self, x, nu):
        """The map from B-spline coefficients to the nu-th derivative at x >= 0."""
        rows, first = self.basis(x, nu)
        out = np.zeros((len(rows), len(self.t) - K - 1))
        np.put_along_axis(out, first[:, None] + np.arange(K + 1), rows, axis=1)
        return out

    def fit(self, values) -> QuarticSpline:
        """The interpolant of nodal values ``values``: one product with ``taylor``."""
        return QuarticSpline(self._cuts, self._nodes, (self.taylor @ values).reshape(K + 1, -1))

    @staticmethod
    def _reflect(rows, pts, nu):
        if nu % 2 == 0:
            rows[pts < 0] *= -1.0
        return rows

    def dense(self, pts, nu: int = 0) -> np.ndarray:
        pts = np.asarray(pts, dtype=float)
        return self._reflect(self.on_coef(np.abs(pts), nu) @ self.coef, pts, nu)

    def local(self, pts, nu: int = 0) -> tuple[np.ndarray, np.ndarray]:
        pts = np.asarray(pts, dtype=float)
        rows, first = self.basis(np.abs(pts), nu)
        return self._reflect(rows, pts, nu), first


def _inverse(A: np.ndarray) -> np.ndarray:
    """A^-1 by Gauss-Jordan elimination without pivoting, elementwise.

    No pivoting is needed for a totally positive matrix such as a B-spline
    collocation matrix (de Boor, *A Practical Guide to Splines*, ch. XIII).
    """
    n = len(A)
    M = np.hstack([A, np.eye(n)])
    for k in range(n):
        row = M[k] / M[k, k]
        M -= M[:, k, None] * row
        M[k] = row
    return M[:, n:]


@functools.lru_cache(maxsize=8)
def spline_maps(N: int) -> SplineMaps:
    """The cached ``SplineMaps`` of the N-node grid, built on first use."""
    return SplineMaps(make_grid(N))
