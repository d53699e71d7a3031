"""Pointwise evaluation of the compactified self-similar slope equation.

The equation at a point z in [0, pi/2] has five pieces: a local
transport term sin(z)cos(z)k'(z), two difference-quotient integrals in y
(denominators tan z - tan y and tan z + tan y), and two squared
difference-quotient integrals weighted by D/(1+D^2)^2 where D is the
sliding average of the profile between tan z and the (possibly
reflected) point tan y.  All all-pairs quantities reduce to differences
of a single antiderivative

    P(w) = integral_0^w sec^2(t) k(t) dt,

tabulated once per profile, so the outer trapezoid integration is fully
vectorized over (z, y).

Three regions need non-generic handling:

* y ~ z: the difference quotients are 0/0; they are replaced by local
  expansions about the midpoint m = (y+z)/2 (order 1 keeps the
  L'Hopital value, order 2 adds the quadratic correction).
* y ~ pi/2: the two first-derivative terms diverge like +-tan(y) and
  only their sum is bounded; they are combined over the common
  denominator tan^2 z - tan^2 y before evaluation, and at the endpoint
  y = pi/2 the integrand is replaced by its analytic limit.
* elsewhere: direct evaluation, with every tan difference rewritten as
  sin(z -+ y)/(cos z cos y) so no catastrophic cancellation occurs.

The mirror identities  (u(z)-u(y))/(tan z + tan y) = -DQ[u](-z, y)  and
P(-w) = P(w) (odd integrand) mean the "plus" quotients are singular only
near z = y = 0, where the same midpoint expansions apply; this makes the
oddness cancellation at z = 0 exact in floating point.

The integrand is one elementwise kernel, ``_integrand``, of the
value-dependent inputs k and u = k' cos^2 at z and y, D = P(y) - P(z),
k(pi/2) and the spline derivatives at the band midpoints; the geometry
(``_pair_geometry``) depends only on (N, ResidualConfig), and that of the
interior rows is cached and shared by the residual and its Jacobian.
Every input is linear in the nodal values, so the Jacobian
(``residual_jacobian``) is the kernel's elementwise partials, taken by
complex step through the same kernel, contracted with fixed value ->
input maps that a cached ``Discretization`` builds once per
(N, ResidualConfig).
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .grid_spline import HALF_PI, Profile, SplineMaps, make_grid
from .quadrature import (
    QuadConfig,
    QuadratureError,
    cumulative_gk15,
    gk15_adaptive,
    gk15_rule,
)

__all__ = [
    "Discretization",
    "ResidualConfig",
    "ResidualVector",
    "delta_tilde",
    "discretization",
    "residual_at",
    "residual_jacobian",
    "residual_vector",
]

# below this the antiderivative tables only bisect roundoff
INNER_ABS_TOL_FLOOR = 1e-14


@dataclass(frozen=True)
class ResidualConfig:
    """Discretization knobs for the residual evaluation.

    outer_nodes: trapezoid nodes for the y-integrals (None -> 10*N).
    inner_quad: tolerance for the sliding-average integrals.  The
        residual's antiderivative tables use min(abs_tol, 1e-12) and
        nothing else; rel_tol and max_subdivisions serve only delta_tilde.
        A new solve needs abs_tol >= INNER_ABS_TOL_FLOOR (solve_profile
        checks it); a loaded branch keeps the value it stores.
    split_halfwidth_z: half-width of the y ~ z region, in grid spacings.
    split_halfwidth_end: width of the y ~ pi/2 region, in grid spacings
        (inside it the paired form is mandatory; it is valid everywhere
        outside the diagonal band, so this only pins the region label).
    series_order: expansion order at the removable singularities (1 or 2).
    """

    outer_nodes: int | None = None
    inner_quad: QuadConfig = field(default_factory=lambda: QuadConfig(abs_tol=1e-10, rel_tol=1e-10))
    split_halfwidth_z: float = 2.0
    split_halfwidth_end: float = 2.0
    series_order: int = 2

    def __post_init__(self):
        if self.outer_nodes is not None and self.outer_nodes < 2:
            raise ValueError(f"outer_nodes must be >= 2, got {self.outer_nodes}")
        if not (self.split_halfwidth_z > 0 and self.split_halfwidth_end > 0):
            raise ValueError("singular-region halfwidths must be positive")
        if self.series_order not in (1, 2):
            raise ValueError(f"series_order must be 1 or 2, got {self.series_order}")

    def resolve_outer_nodes(self, N: int) -> int:
        return self.outer_nodes if self.outer_nodes is not None else 10 * N


@dataclass(frozen=True)
class ResidualVector:
    """Equation residuals at z_1..z_{N-1} plus the two boundary rows."""

    interior: np.ndarray
    bc0: float
    bc_end: float

    def stacked(self) -> np.ndarray:
        return np.concatenate([self.interior, [self.bc0, self.bc_end]])

    def max_norm(self) -> float:
        return float(np.max(np.abs(self.stacked())))


def delta_tilde(profile: Profile, z: float, y: float, sign: int,
                cfg: ResidualConfig | None = None) -> float:
    """Sliding average of the profile between tan z and +-tan y.

    sign=+1: integral_z^y sec^2(w) k(w) dw / (tan y - tan z); tends to
    k(z) as y -> z and to k(pi/2) as y -> pi/2.  sign=-1: the reflected
    average with denominator tan z + tan y, defined through the odd
    extension of the profile.
    """
    if cfg is None:
        cfg = ResidualConfig()
    if not (-HALF_PI <= z <= HALF_PI and 0.0 <= y <= HALF_PI):
        raise ValueError(f"(z, y) = ({z}, {y}) outside [-pi/2, pi/2] x [0, pi/2]")
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")

    ev = profile._ev
    if sign == +1:
        if abs(y - z) < 1e-8:
            return float(ev(z, 0))
        if y == HALF_PI or z == HALF_PI:
            return float(ev(HALF_PI, 0))
        # orientation flips in the integral and the denominator cancel
        lo, hi = min(z, y), max(z, y)
        denom = np.tan(hi) - np.tan(lo)
        orient = 1.0
    else:
        if y == HALF_PI:
            return -float(ev(HALF_PI, 0))
        if z + y < 1e-8 and z >= 0.0:
            return 0.0
        if z == HALF_PI:
            return float(ev(HALF_PI, 0))
        lo, hi = min(-y, z), max(-y, z)
        denom = np.tan(z) + np.tan(y)
        orient = 1.0 if z > -y else -1.0  # integral runs from -y to z

    def integrand(w):
        c = np.cos(w)
        return ev(w, 0) / (c * c)

    try:
        res = gk15_adaptive(integrand, lo, hi, cfg.inner_quad)
    except QuadratureError as exc:
        raise QuadratureError(
            f"sliding-average quadrature failed at (z={z}, y={y})",
            value=exc.value, error_estimate=exc.error_estimate,
            interval=(lo, hi),
        ) from exc
    return orient * res.value / denom


class _Series(NamedTuple):
    """Value-independent factors of the midpoint expansions at m, d = (z-y)/2."""

    m: np.ndarray
    c2: np.ndarray
    sec2: np.ndarray
    s2m: np.ndarray
    c2m: np.ndarray
    tanm: np.ndarray
    d2: np.ndarray


def _series_factors(m, d) -> _Series:
    c2 = np.cos(m) ** 2
    return _Series(m, c2, 1.0 / c2, np.sin(2 * m), np.cos(2 * m), np.tan(m), d * d)


@dataclass(frozen=True)
class _Geometry:
    """Value-independent arrays of the outer integrand at pairs (z, y).

    Either a grid (z arrays of shape (nz, 1), y arrays (ny,), pair arrays
    (nz, ny)) or one flat list of pairs; the kernel is elementwise, so
    both broadcast.  ``band`` and ``mirror`` hold the expansion factors at
    the ``near`` and ``near2`` pairs in row-major order; ``order`` is the
    expansion order.
    """

    cz: np.ndarray
    sz: np.ndarray
    x: np.ndarray
    cy: np.ndarray
    sy: np.ndarray
    sec2y: np.ndarray
    s_minus: np.ndarray
    s_plus: np.ndarray
    near: np.ndarray
    near2: np.ndarray
    paired: np.ndarray
    band: _Series
    mirror: _Series
    order: int

    @property
    def derivs(self) -> int:
        """Spline derivatives 0..derivs-1 that the expansions take."""
        return 3 if self.order == 1 else 5

    def rows(self, r: slice) -> tuple[_Geometry, slice, slice]:
        """The grid rows r, and the slices of the band and mirror pairs they hold."""
        def pairs_in(mask):
            first = np.concatenate([[0], np.cumsum(np.count_nonzero(mask, axis=1))])
            return slice(first[r.start], first[r.stop])

        b, m = pairs_in(self.near), pairs_in(self.near2)
        return _Geometry(self.cz[r], self.sz[r], self.x[r], self.cy, self.sy, self.sec2y,
                         self.s_minus[r], self.s_plus[r], self.near[r], self.near2[r],
                         self.paired[r], _Series(*(f[b] for f in self.band)),
                         _Series(*(f[m] for f in self.mirror)), self.order), b, m

    def pairs(self, i, j) -> _Geometry:
        """The flat list of grid pairs (i, j); it must hold every near and near2 pair."""
        return _Geometry(self.cz[i, 0], self.sz[i, 0], self.x[i, 0], self.cy[j], self.sy[j],
                         self.sec2y[j], self.s_minus[i, j], self.s_plus[i, j],
                         self.near[i, j], self.near2[i, j], self.paired[i, j],
                         self.band, self.mirror, self.order)


def _pair_geometry(z: np.ndarray, yi: np.ndarray, cfg: ResidualConfig,
                   spacing: float) -> _Geometry:
    """Geometry of the pairs z x yi (all z < pi/2, yi the outer nodes but pi/2)."""
    band = cfg.split_halfwidth_z * spacing
    z = z[:, None]
    cy = np.cos(yi)
    # diagonal band y ~ z; the sec^2 d^2 guard turns the expansion
    # off where tan varies too fast across the band (only possible
    # next to pi/2, where direct evaluation is accurate anyway)
    m = 0.5 * (yi + z)
    d = 0.5 * (z - yi)
    near = (np.abs(d) < 0.5 * band) & (d * d / np.cos(m) ** 2 < 0.01)
    # mirror band y ~ -z (active only near z = 0): the plus
    # quotients are the minus quotients of the reflected point -z
    m2 = 0.5 * (yi - z)
    d2 = 0.5 * (z + yi)
    near2 = (np.abs(d2) < 0.5 * band) & (d2 * d2 / np.cos(m2) ** 2 < 0.01)
    # the paired end-region form is valid everywhere outside the bands
    paired = (yi > HALF_PI - cfg.split_halfwidth_end * spacing) & ~(near | near2)
    return _Geometry(
        cz=np.cos(z), sz=np.sin(z), x=np.tan(z),
        cy=cy, sy=np.sin(yi), sec2y=1.0 / (cy * cy),
        s_minus=np.sin(z - yi), s_plus=np.sin(z + yi),
        near=near, near2=near2, paired=paired,
        band=_series_factors(m[near], d[near]),
        mirror=_series_factors(m2[near2], d2[near2]),
        order=cfg.series_order,
    )


def _series(g: _Series, k, order: int):
    """Local expansions of the three quotients about the midpoint m.

    ``k`` holds the spline derivatives k, k', ... at m.  Returns
    (dq_value, dq_deriv, avg): the quotients (k(z)-k(y))/(tan z - tan y),
    (u(z)-u(y))/(tan z - tan y) with u = k' cos^2, and
    (P(y)-P(z))/(tan y - tan z), all to O(d^2) or O(d^4) depending on
    the order, where d = (z - y)/2.
    """
    c2, sec2 = g.c2, g.sec2
    km, k1, k2 = k[0], k[1], k[2]
    u1 = k2 * c2 - k1 * g.s2m
    if order >= 2:
        d2, s2m = g.d2, g.s2m
        k3, k4 = k[3], k[4]
        den = 1.0 + (3 * sec2 - 2) * d2 / 3.0
        num_k = k1 + k3 * d2 / 6.0
        # third derivative of u = k' cos^2
        u3 = k4 * c2 - 3 * k3 * s2m - 6 * k2 * g.c2m + 4 * k1 * s2m
        num_u = u1 + u3 * d2 / 6.0
        # (P' = sec^2 k):  P''' / sec^2 = 2(3 sec^2 - 2) k + 4 tan k' + k''
        num_p = km + (2 * (3 * sec2 - 2) * km + 4 * g.tanm * k1 + k2) * d2 / 6.0
        return c2 * num_k / den, c2 * num_u / den, num_p / den
    return c2 * k1, c2 * u1, km


def _integrand(g: _Geometry, kz, uz, ky, uy, D, b, band, mirror):
    """The outer integrand: its values at the pairs of ``g`` and at y = pi/2.

    The inputs are the value-dependent quantities: k and u = k' cos^2 at
    z and at y, D = P(y) - P(z), b = k(pi/2), and the spline derivatives
    at the band and mirror midpoints.  Every output is an elementwise
    function of them, so complex inputs give complex-step derivatives.
    Returns (pairs, end): the integrand at each pair and, at each z, its
    analytic limit at the endpoint y = pi/2.
    """
    cz, sz, x = g.cz, g.sz, g.x
    cy, sy, sec2y = g.cy, g.sy, g.sec2y
    s_minus, s_plus = g.s_minus, g.s_plus
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        dq_k_m = (kz - ky) * cz * cy / s_minus
        dq_u_m = (uz - uy) * cz * cy / s_minus
        dq_k_p = (kz + ky) * cz * cy / s_plus
        dq_u_p = (uz - uy) * cz * cy / s_plus
        avg_p = -D * cz * cy / s_minus
        avg_m = -D * cz * cy / s_plus

    near, near2 = g.near, g.near2
    dqk, dqu, avg = _series(g.band, band, g.order)
    dq_k_m[near] = dqk
    dq_u_m[near] = dqu
    avg_p[near] = avg
    dqk, dqu, avg = _series(g.mirror, mirror, g.order)
    dq_k_p[near2] = dqk
    dq_u_p[near2] = -dqu
    avg_m[near2] = -avg

    Fp = 1.0 / (1.0 + avg_p * avg_p)
    Fm = 1.0 / (1.0 + avg_m * avg_m)
    Gp = avg_p * Fp * Fp
    Gm = avg_m * Fm * Fm

    # first-derivative terms: separately the two quotients diverge
    # like +-tan(y) toward pi/2, so inside the end region they are
    # combined over the common denominator tan^2 z - tan^2 y (an
    # algebraic identity; tan(y)*(Fp - Fm) gets the stable product
    # form, which stays finite as y -> pi/2)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t_fpfm = (-4.0 * sz * sy * sy * cz ** 3 * cy * cy * D * D * Fp * Fm
                  / (s_minus * s_minus * s_plus * s_plus))
        bracket = x * (Fp + Fm) + t_fpfm
        t2_paired = (uz - uy) * cz * cz * bracket / (s_minus * s_plus)
    t2 = np.where(g.paired,
                  t2_paired,
                  dq_u_m * sec2y * Fp + dq_u_p * sec2y * Fm)
    t35 = -2.0 * (dq_k_m * dq_k_m * Gp + dq_k_p * dq_k_p * Gm) * sec2y

    # endpoint y = pi/2: analytic limit of the paired integrand
    Fb = 1.0 / (1.0 + b * b)
    end = (-2.0 * x * uz * (1.0 - b * b) + 8.0 * b * b * kz) * Fb * Fb / np.pi
    return (t2 + t35) / np.pi, end


def _outer_nodes(N: int, cfg: ResidualConfig) -> tuple[np.ndarray, float]:
    """The outer trapezoid nodes but pi/2, and their spacing."""
    y = np.linspace(0.0, HALF_PI, cfg.resolve_outer_nodes(N))
    return y[:-1], y[1] - y[0]


@functools.lru_cache(maxsize=4)
def _interior_geometry(N: int, cfg: ResidualConfig) -> _Geometry:
    """Pair geometry of the interior rows z_1..z_{N-2} of make_grid(N).

    Shared by ``residual_vector`` and ``Discretization``; the kernel only
    reads it.
    """
    grid = make_grid(N)
    return _pair_geometry(grid.nodes[1:-1], _outer_nodes(N, cfg)[0], cfg, grid.spacing)


class _ResidualEngine:
    """Vectorized evaluation of the equation at many z for one profile."""

    def __init__(self, profile: Profile, cfg: ResidualConfig):
        self.profile = profile
        self.cfg = cfg
        self.yi, self.hy = _outer_nodes(profile.grid.N, cfg)

    def primitive(self, zpts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """P at the requested z points and at the outer nodes (except pi/2)."""
        ev = self.profile._ev
        pts = np.unique(np.concatenate([[0.0], zpts, self.yi]))
        tol = min(self.cfg.inner_quad.abs_tol, 1e-12)

        def integrand(w):
            c = np.cos(w)
            return ev(w, 0) / (c * c)

        P = cumulative_gk15(integrand, pts, tol=tol)
        Pz = P[np.searchsorted(pts, zpts)]
        Py = P[np.searchsorted(pts, self.yi)]
        return Pz, Py

    def integrand_matrix(self, z: np.ndarray, Pz: np.ndarray, Py: np.ndarray,
                         g: _Geometry) -> np.ndarray:
        """Outer-integrand values, shape (len(z), outer_nodes), all z < pi/2."""
        ev = self.profile._ev
        zc = z[:, None]
        pairs, end = _integrand(
            g, kz=ev(zc, 0), uz=ev(zc, 1) * g.cz * g.cz,
            ky=ev(self.yi, 0), uy=ev(self.yi, 1) * g.cy * g.cy,
            D=Py[None, :] - Pz[:, None], b=float(ev(HALF_PI, 0)),
            band=[ev(g.band.m, nu) for nu in range(g.derivs)],
            mirror=[ev(g.mirror.m, nu) for nu in range(g.derivs)],
        )
        rows = np.empty((len(z), len(self.yi) + 1))
        rows[:, :-1] = pairs
        rows[:, -1] = end[:, 0]
        return rows

    def evaluate(self, zpts: np.ndarray, geometry: _Geometry | None = None) -> np.ndarray:
        """Residual at each z in zpts (z = pi/2 rows are identically 0).

        ``geometry`` is the pair geometry of the z < pi/2 points, when the
        caller holds it; otherwise it is built here.
        """
        zpts = np.asarray(zpts, dtype=float)
        out = np.zeros(len(zpts))
        inner = zpts < HALF_PI
        if not np.any(inner):
            return out
        zin = zpts[inner]
        if geometry is None:
            geometry = _pair_geometry(zin, self.yi, self.cfg, self.profile.grid.spacing)
        Pz, Py = self.primitive(zin)
        rows = self.integrand_matrix(zin, Pz, Py, geometry)
        if not np.all(np.isfinite(rows)):
            i, j = np.unravel_index(int(np.argmax(~np.isfinite(rows))), rows.shape)
            y = np.append(self.yi, HALF_PI)
            raise QuadratureError(
                f"non-finite outer integrand at (z={zin[i]}, y={y[j]})",
                interval=(float(zin[i]), float(y[j])),
            )
        integral = self.hy * (np.sum(rows, axis=1) - 0.5 * (rows[:, 0] + rows[:, -1]))
        transport = np.sin(zin) * np.cos(zin) * self.profile._ev(zin, 1)
        out[inner] = transport + integral
        return out


# complex-step size: the derivative is exact to roundoff for any tiny step
_CSTEP = 1e-30
# pairs per block of the Jacobian's complex passes (bounds their memory)
_BLOCK_PAIRS = 1 << 15


class Discretization:
    """The value-independent part of ``residual_vector`` for one (N, cfg).

    Holds the pair geometry of the interior rows (z < pi/2), the same
    cached object ``residual_vector`` uses, and the linear
    maps from the nodal values to every input of the outer integrand:
    ``maps[name] @ values`` gives the input ``name`` (spline maps E_nu at
    the rows, the outer nodes and pi/2, and a value -> P map from one GK15
    panel per antiderivative-table gap, which is how the adaptive table
    closes nearly every gap), and ``band``/``mirror`` hold the local
    B-spline rows at the expansion midpoints.  ``discretization`` builds
    it once per (N, cfg).
    """

    def __init__(self, N: int, cfg: ResidualConfig):
        grid = make_grid(N)
        self.N = N
        z = grid.nodes[1:-1]
        yi, self.hy = _outer_nodes(N, cfg)
        self.geo = g = _interior_geometry(N, cfg)
        sm = SplineMaps(grid)
        self.coef = sm.coef
        pz = _primitive_map(sm, np.unique(np.concatenate([[0.0], z, yi])))
        dk_z = sm.dense(z, 1)
        self.maps = {
            "kz": sm.dense(z, 0), "uz": (g.cz * g.cz) * dk_z,
            "ky": sm.dense(yi, 0), "uy": (g.cy * g.cy)[:, None] * sm.dense(yi, 1),
            "Pz": pz(z), "Py": pz(yi), "b": sm.dense([HALF_PI], 0)[0],
        }
        self.transport = (np.sin(z) * np.cos(z))[:, None] * dk_z
        self.band = [sm.local(g.band.m, nu) for nu in range(g.derivs)]
        self.mirror = [sm.local(g.mirror.m, nu) for nu in range(g.derivs)]
        self.band_pairs = np.nonzero(g.near | g.near2)
        # trapezoid weights of the pair columns; the y = pi/2 column has 1/2
        self.w = np.ones(len(yi))
        self.w[0] = 0.5

    def _inputs(self, values: np.ndarray) -> dict:
        """The integrand inputs at nodal values ``values``, for the whole grid."""
        inp = {name: E @ values for name, E in self.maps.items()}
        c = self.coef @ values

        def at(local):
            return [np.einsum("ek,ek->e", rows, c[first[:, None] + np.arange(rows.shape[1])])
                    for rows, first in local]

        return {"kz": inp["kz"][:, None], "uz": inp["uz"][:, None],
                "ky": inp["ky"], "uy": inp["uy"], "b": inp["b"],
                "D": inp["Py"][None, :] - inp["Pz"][:, None],
                "band": at(self.band), "mirror": at(self.mirror)}

    def jacobian(self, values) -> np.ndarray:
        """Derivative of ``residual_vector(...).stacked()`` in the nodal values.

        Shape (N+1, N).  The partials of the integrand in each input come
        from complex steps through ``_integrand``, one input per pass, and
        are contracted with that input's map: row scalings for the z
        inputs, products with the y and P maps, and, on the band pairs
        alone, the local B-spline rows.
        """
        N, g, w, hy, maps = self.N, self.geo, self.w, self.hy, self.maps
        nz = g.s_minus.shape[0]
        inp = self._inputs(np.asarray(values, dtype=float).astype(complex))
        J = np.zeros((N + 1, N))
        J[:nz] = self.transport
        J[N - 1, 0] = 1.0             # bc0 = values[0]
        J[N, N - 1] = 1.0             # bc_end = values[-1] - s

        def partials(geo, args, *names):
            args = dict(args, **{name: args[name] + 1j * _CSTEP for name in names})
            pairs, end = _integrand(geo, **args)
            return pairs.imag / _CSTEP, end.imag[:, 0] / _CSTEP

        block = max(1, _BLOCK_PAIRS // len(w))
        for r0 in range(0, nz, block):
            r = slice(r0, min(r0 + block, nz))
            geo, b, m = g.rows(r)
            args = dict(inp, kz=inp["kz"][r], uz=inp["uz"][r], D=inp["D"][r],
                        band=[a[b] for a in inp["band"]],
                        mirror=[a[m] for a in inp["mirror"]])
            kz_p, kz_e = partials(geo, args, "kz")
            uz_p, uz_e = partials(geo, args, "uz")
            ky_p, b_e = partials(geo, args, "ky", "b")   # b enters only the end column
            uy_p, _ = partials(geo, args, "uy")
            D_p, _ = partials(geo, args, "D")
            J[r] += hy * (
                (kz_p @ w + 0.5 * kz_e)[:, None] * maps["kz"][r]
                + (uz_p @ w + 0.5 * uz_e)[:, None] * maps["uz"][r]
                + (ky_p * w) @ maps["ky"] + (uy_p * w) @ maps["uy"]
                + (D_p * w) @ maps["Py"] - (D_p @ w)[:, None] * maps["Pz"][r]
                + 0.5 * b_e[:, None] * maps["b"])

        # the expansion inputs, on the band pairs alone, in coefficient space
        i, j = self.band_pairs
        geo = g.pairs(i, j)
        args = dict(inp, kz=inp["kz"][i, 0], uz=inp["uz"][i, 0], ky=inp["ky"][j],
                    uy=inp["uy"][j], D=inp["D"][i, j])
        G = np.zeros((nz, len(self.coef)))
        for name, local, mask in (("band", self.band, geo.near),
                                  ("mirror", self.mirror, geo.near2)):
            weight = hy * w[j[mask]]
            for nu, (rows, first) in enumerate(local):
                pert = list(args[name])
                pert[nu] = pert[nu] + 1j * _CSTEP
                pairs, _ = _integrand(geo, **dict(args, **{name: pert}))
                part = (pairs.imag / _CSTEP)[mask] * weight
                cols = first[:, None] + np.arange(rows.shape[1])
                np.add.at(G, (i[mask][:, None], cols), part[:, None] * rows)
        J[:nz] += G @ self.coef
        return J


def _primitive_map(sm: SplineMaps, pts: np.ndarray):
    """Value -> P maps at points of ``pts``, from one GK15 panel per gap.

    P(w) = integral_0^w sec^2(t) k(t) dt, the antiderivative the residual
    tabulates on ``pts``; returns a function of the points wanted.
    """
    A = np.zeros((len(pts), sm.coef.shape[1]))
    for lo in range(0, len(pts) - 1, 256):      # 256 gaps at a time bound the memory
        hi = min(lo + 256, len(pts) - 1)
        nodes, wts = gk15_rule(pts[lo:hi], pts[lo + 1:hi + 1])
        E = sm.dense(nodes.ravel(), 0).reshape(*nodes.shape, -1)
        A[lo + 1:hi + 1] = np.einsum("gq,gqn->gn", wts / np.cos(nodes) ** 2, E)
    np.cumsum(A, axis=0, out=A)
    return lambda at: A[np.searchsorted(pts, at)]


@functools.lru_cache(maxsize=4)
def discretization(N: int, cfg: ResidualConfig) -> Discretization:
    """The cached ``Discretization`` of (N, cfg), built on first use."""
    return Discretization(N, cfg)


def residual_jacobian(values, cfg: ResidualConfig | None = None) -> np.ndarray:
    """Jacobian of ``residual_vector(...).stacked()`` in the nodal values.

    Shape (N+1, N) for N = len(values); it does not depend on s.  Each
    row is exact for the discretized residual up to roundoff and to the
    primitive P, which it takes from one GK15 panel per table gap.
    """
    if cfg is None:
        cfg = ResidualConfig()
    values = np.asarray(values, dtype=float)
    return discretization(len(values), cfg).jacobian(values)


def residual_at(profile: Profile, z: float, cfg: ResidualConfig | None = None) -> float:
    """Equation residual at a single z in [0, pi/2].

    At z = pi/2 every term of the equation degenerates (the transport
    term carries cos z and the integrand limits vanish pointwise), so
    the row is identically zero.
    """
    if cfg is None:
        cfg = ResidualConfig()
    if not 0.0 <= z <= HALF_PI:
        raise ValueError(f"z={z} outside [0, pi/2]")
    engine = _ResidualEngine(profile, cfg)
    return float(engine.evaluate(np.array([z]))[0])


def residual_vector(profile: Profile, cfg: ResidualConfig | None = None) -> ResidualVector:
    """Equation residuals at the interior collocation nodes plus boundary rows.

    Interior rows are z_i, i = 1..N-1 (the last, at pi/2, is identically
    zero because the equation degenerates there); the boundary rows are
    k(0) - 0 and k(pi/2) - s.
    """
    if cfg is None:
        cfg = ResidualConfig()
    interior = _ResidualEngine(profile, cfg).evaluate(
        profile.grid.nodes[1:], _interior_geometry(profile.grid.N, cfg))
    return ResidualVector(
        interior=interior,
        bc0=float(profile.values[0]),
        bc_end=float(profile.values[-1] - profile.s),
    )
