"""Pointwise evaluation of the compactified self-similar slope equation.

The equation at a point z in [0, pi/2] has five pieces: a local
transport term sin(z)cos(z)k'(z), two difference-quotient integrals in y
(denominators tan z - tan y and tan z + tan y), and two squared
difference-quotient integrals weighted by D/(1+D^2)^2 where D is the
sliding average of the profile between tan z and the (possibly
reflected) point tan y.  All all-pairs quantities reduce to differences
of a single antiderivative

    P(w) = integral_0^w sec^2(t) k(t) dt,

taken at the rows and the outer nodes, so the outer trapezoid integration
is fully vectorized over (z, y).

Three regions need non-generic handling:

* y ~ z: the difference quotients are 0/0; within two grid spacings
  (``_BAND_HALFWIDTH``) they are replaced by local expansions about the
  midpoint m = (y+z)/2, to O(d^4) in d = (z-y)/2.
* y ~ pi/2: the two first-derivative terms diverge like +-tan(y) and
  only their sum is bounded; within two grid spacings of pi/2
  (``_END_REGION_WIDTH``) they are combined over the common denominator
  tan^2 z - tan^2 y before evaluation, and at the endpoint y = pi/2 the
  integrand is replaced by its analytic limit.
* elsewhere: direct evaluation, with every tan difference rewritten as
  sin(z -+ y)/(cos z cos y) so no catastrophic cancellation occurs.

The mirror identities  (u(z)-u(y))/(tan z + tan y) = -DQ[u](-z, y)  and
P(-w) = P(w) (odd integrand) mean the "plus" quotients are singular only
near z = y = 0, where the same midpoint expansions apply; this makes the
oddness cancellation at z = 0 exact in floating point.

The integrand is one elementwise kernel, ``_integrand``, of the
value-dependent inputs k and u = k' cos^2 at z and y, D = P(y) - P(z),
k(pi/2) and the three expansion quotients at the band and mirror pairs.
The geometry (``_pair_geometry``) depends only on N and the outer nodes,
and so do the products of it the kernel needs: the generic quotients'
factors cos z cos y / sin(z -+ y) and the paired form's coefficients,
which are stored only at the paired end-region pairs and evaluated only
there.  Every input is linear in the nodal values, so a cached
``Discretization`` builds fixed value -> input maps once per (N,
ResidualConfig): P from one GK15 panel per gap, and the expansion
quotients as fixed weights on the spline coefficients (``_series``
applied to the B-spline rows at the midpoints).  ``residual_vector`` is
those maps and one kernel pass per block of rows; the Jacobian
(``residual_jacobian``) is the kernel's elementwise partials, from the
hand-derived gradient ``_integrand_partials`` in one real pass per block,
contracted with the same maps.  A complex step through ``_integrand`` is
the tests' check of that gradient.  ``residual_at`` runs the same kernel
on one row, with its inputs from the profile's spline (``_series`` of
its derivatives at the midpoints) and an adaptive antiderivative table at
1e-12.  ``delta_tilde`` is the sliding average itself, by adaptive GK15
at the ``QuadConfig`` defaults.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid_spline import HALF_PI, Profile, SplineMaps, make_grid, spline_maps
from .quadrature import QuadratureError, cumulative_gk15, gk15_adaptive, gk15_rule

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

# half-width of the y ~ z band of the midpoint expansions, in grid spacings
_BAND_HALFWIDTH = 2.0
# width of the y ~ pi/2 region, in grid spacings: inside it the paired form
# is mandatory; it is valid everywhere outside the diagonal band, so the
# width only pins the region label
_END_REGION_WIDTH = 2.0


@dataclass(frozen=True)
class ResidualConfig:
    """The discretization setting that moves the residual: outer_nodes, the
    trapezoid nodes of the y-integrals (None -> 10*N)."""

    outer_nodes: int | None = None

    def __post_init__(self):
        if self.outer_nodes is not None and self.outer_nodes < 2:
            raise ValueError(f"outer_nodes must be >= 2, got {self.outer_nodes}")

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


def delta_tilde(profile: Profile, z: float, y: float, sign: int) -> float:
    """Sliding average of the profile between tan z and +-tan y.

    sign=+1: integral_z^y sec^2(w) k(w) dw / (tan y - tan z); tends to
    k(z) as y -> z and to k(pi/2) as y -> pi/2.  sign=-1: the reflected
    average with denominator tan z + tan y, defined through the odd
    extension of the profile.  The integral is adaptive GK15 at the
    ``QuadConfig`` defaults.
    """
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
        res = gk15_adaptive(integrand, lo, hi)
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
    """Value-independent arrays of the outer integrand on a grid of pairs (z, y).

    z arrays have shape (nz, 1), y arrays (ny,) and pair arrays (nz, ny),
    so the elementwise kernel broadcasts them.  ``cm`` and ``cp`` are the
    generic quotients' factors cos z cos y / sin(z -+ y), zeroed on the
    ``near`` and ``near2`` pairs, where the expansions take over; ``band``
    and ``mirror`` hold the expansion factors there, in row-major order
    (a block's geometry has none: its kernel takes the quotients).  The
    paired end-region form is evaluated only at the flat indices ``pidx``
    of the ``paired`` pairs, from its coefficients there:
    ``pe`` = cos^2 z / (sin(z-y) sin(z+y)), ``pk`` the factor of
    D^2 Fp Fm in the bracket, and ``px`` = tan z.
    """

    cz: np.ndarray
    x: np.ndarray
    cy: np.ndarray
    sec2y: np.ndarray
    cm: np.ndarray
    cp: np.ndarray
    near: np.ndarray
    near2: np.ndarray
    paired: np.ndarray
    pidx: np.ndarray
    pe: np.ndarray
    pk: np.ndarray
    px: np.ndarray
    band: _Series | None = None
    mirror: _Series | None = None

    def blocks(self, size: int) -> list[tuple[slice, _Geometry, slice, slice]]:
        """Consecutive blocks of at most ``size`` grid rows: for each, its
        row slice, its geometry and the slices of the band and mirror pairs
        it holds."""
        def firsts(mask):
            return np.concatenate([[0], np.cumsum(np.count_nonzero(mask, axis=1))])

        nz, ny = self.cm.shape
        fb, fm, fp = firsts(self.near), firsts(self.near2), firsts(self.paired)
        out = []
        for r0 in range(0, nz, size):
            r = slice(r0, min(r0 + size, nz))
            b, m = slice(fb[r.start], fb[r.stop]), slice(fm[r.start], fm[r.stop])
            p = slice(fp[r.start], fp[r.stop])
            out.append((r, _Geometry(
                self.cz[r], self.x[r], self.cy, self.sec2y, self.cm[r], self.cp[r],
                self.near[r], self.near2[r], self.paired[r], self.pidx[p] - r.start * ny,
                self.pe[p], self.pk[p], self.px[p]), b, m))
        return out


def _pair_geometry(z: np.ndarray, yi: np.ndarray, spacing: float) -> _Geometry:
    """Geometry of the pairs z x yi (all z < pi/2, yi the outer nodes but pi/2)."""
    band = _BAND_HALFWIDTH * spacing
    z = z[:, None]
    cz, sz, x = np.cos(z), np.sin(z), np.tan(z)
    cy, sy = np.cos(yi), np.sin(yi)
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
    paired = (yi > HALF_PI - _END_REGION_WIDTH * spacing) & ~(near | near2)

    # every tan difference as sin(z -+ y)/(cos z cos y); the sines vanish
    # only on the bands, whose factors the expansions replace
    s_minus, s_plus = np.sin(z - yi), np.sin(z + yi)
    with np.errstate(divide="ignore"):
        cm = cz * cy / s_minus
        cp = cz * cy / s_plus
    cm[near] = 0.0
    cp[near2] = 0.0
    i, j = np.nonzero(paired)
    czp, sm, sp = cz[i, 0], s_minus[i, j], s_plus[i, j]
    return _Geometry(
        cz=cz, x=x, cy=cy, sec2y=1.0 / (cy * cy), cm=cm, cp=cp,
        near=near, near2=near2, paired=paired, pidx=np.flatnonzero(paired),
        pe=czp * czp / (sm * sp),
        pk=-4.0 * sz[i, 0] * sy[j] ** 2 * czp ** 3 * cy[j] ** 2 / (sm * sm * sp * sp),
        px=x[i, 0],
        band=_series_factors(m[near], d[near]),
        mirror=_series_factors(m2[near2], d2[near2]),
    )


# the expansions take the spline derivatives of orders 0.._SERIES_DERIVS-1
_SERIES_DERIVS = 5


def _series(g: _Series, k):
    """Local expansions of the three quotients about the midpoint m.

    ``k`` holds the spline derivatives of orders 0..4 at m.  Returns
    (dq_value, dq_deriv, avg): the quotients (k(z)-k(y))/(tan z - tan y),
    (u(z)-u(y))/(tan z - tan y) with u = k' cos^2, and
    (P(y)-P(z))/(tan y - tan z), all to O(d^4), where d = (z - y)/2.
    The series is linear in ``k``, so on B-spline rows it gives the
    quotients' weights on the spline coefficients.
    """
    c2, sec2, d2, s2m = g.c2, g.sec2, g.d2, g.s2m
    km, k1, k2, k3, k4 = k
    den = 1.0 + (3 * sec2 - 2) * d2 / 3.0
    num_k = k1 + k3 * d2 / 6.0
    # first and third derivatives of u = k' cos^2
    u1 = k2 * c2 - k1 * s2m
    u3 = k4 * c2 - 3 * k3 * s2m - 6 * k2 * g.c2m + 4 * k1 * s2m
    num_u = u1 + u3 * d2 / 6.0
    # (P' = sec^2 k):  P''' / sec^2 = 2(3 sec^2 - 2) k + 4 tan k' + k''
    num_p = km + (2 * (3 * sec2 - 2) * km + 4 * g.tanm * k1 + k2) * d2 / 6.0
    return c2 * num_k / den, c2 * num_u / den, num_p / den


def _quotients(g: _Geometry, kz, uz, ky, uy, D, band, mirror):
    """The difference du = uz - uy and the six quotients of the pairs of ``g``.

    Returns (du, dq_k_m, dq_u_m, avg_p, dq_k_p, dq_u_p, avg_m): the
    difference quotients of k and u over tan z - tan y and tan z + tan y,
    and the sliding averages -D/(tan z -+ tan y).  On the ``near`` pairs
    the first three quotients are ``band``, the expansion quotients
    (dq_k, dq_u, avg) of ``_series``; on the ``near2`` pairs the last three
    are (dq_k, -dq_u, -avg) of the expansion quotients ``mirror``.
    On the ``paired`` pairs dq_u_m and dq_u_p are 0, as the paired
    end-region form replaces their terms.
    """
    cm, cp = g.cm, g.cp
    du = uz - uy
    dq_k_m = (kz - ky) * cm
    dq_u_m = du * cm
    dq_k_p = (kz + ky) * cp
    dq_u_p = du * cp
    avg_p = -D * cm
    avg_m = -D * cp

    near, near2 = g.near, g.near2
    dqk, dqu, avg = band
    dq_k_m[near] = dqk
    dq_u_m[near] = dqu
    avg_p[near] = avg
    dqk, dqu, avg = mirror
    dq_k_p[near2] = dqk
    dq_u_p[near2] = -dqu
    avg_m[near2] = -avg
    dq_u_m.ravel()[g.pidx] = 0.0
    dq_u_p.ravel()[g.pidx] = 0.0
    return du, dq_k_m, dq_u_m, avg_p, dq_k_p, dq_u_p, avg_m


def _integrand(g: _Geometry, kz, uz, ky, uy, D, b, band, mirror):
    """The outer integrand: its values at the pairs of ``g`` and at y = pi/2.

    The inputs are the value-dependent quantities: k and u = k' cos^2 at
    z and at y, D = P(y) - P(z), b = k(pi/2), and the expansion quotients
    (dq_k, dq_u, avg) at the band and mirror pairs.  Every output is an
    elementwise function of them, so complex inputs give complex-step
    derivatives (the tests' check of ``_integrand_partials``).  Returns
    (pairs, end): the integrand at each pair and, at each z, its analytic
    limit at the endpoint y = pi/2.
    """
    du, dq_k_m, dq_u_m, avg_p, dq_k_p, dq_u_p, avg_m = _quotients(
        g, kz, uz, ky, uy, D, band, mirror)
    Fp = 1.0 / (1.0 + avg_p * avg_p)
    Fm = 1.0 / (1.0 + avg_m * avg_m)

    # first-derivative terms: separately the two quotients diverge like
    # +-tan(y) toward pi/2, so on the paired pairs they are combined over
    # the common denominator tan^2 z - tan^2 y instead (an algebraic
    # identity; tan(y)*(Fp - Fm) gets the stable product form
    # pk D^2 Fp Fm, which stays finite as y -> pi/2)
    pairs = (dq_u_m * Fp + dq_u_p * Fm
             - 2.0 * (dq_k_m * dq_k_m * avg_p * Fp * Fp + dq_k_p * dq_k_p * avg_m * Fm * Fm)
             ) * (g.sec2y / np.pi)
    p = g.pidx
    Fp, Fm, Dp = Fp.ravel()[p], Fm.ravel()[p], D.ravel()[p]
    pairs.ravel()[p] += (du.ravel()[p] * g.pe / np.pi
                         * (g.px * (Fp + Fm) + g.pk * Dp * Dp * Fp * Fm))

    # endpoint y = pi/2: analytic limit of the paired integrand
    Fb = 1.0 / (1.0 + b * b)
    end = (-2.0 * g.x * uz * (1.0 - b * b) + 8.0 * b * b * kz) * Fb * Fb / np.pi
    return pairs, end


class _Partials(NamedTuple):
    """Partials of ``_integrand`` (see ``_integrand_partials``)."""

    kz: np.ndarray
    ky: np.ndarray
    du: np.ndarray
    D: np.ndarray
    end_kz: np.ndarray
    end_uz: np.ndarray
    end_b: np.ndarray
    band: tuple
    mirror: tuple


def _integrand_partials(g: _Geometry, kz, uz, ky, uy, D, b, band, mirror) -> _Partials:
    """The partials of ``_integrand`` at real inputs, in one pass.

    At the pairs: in kz, ky, du = uz - uy (u enters only as that
    difference, so the uy partial is minus the du one) and D.  At the
    endpoint column, one per z: in kz, uz and b.  At the ``near`` and
    ``near2`` pairs, in order: in the three expansion quotients
    (dq_k, dq_u, avg) of ``band`` and of ``mirror``.  With F = 1/(1+a^2)
    and G = a F^2 the derivatives are written F' = -2aF.F and
    G' = F^2 (4F - 3) (as a^2 F = 1 - F), which stay finite wherever F
    and G do.
    """
    cm, cp, near, near2, p = g.cm, g.cp, g.near, g.near2, g.pidx
    du, dq_k_m, dq_u_m, avg_p, dq_k_p, dq_u_p, avg_m = _quotients(
        g, kz, uz, ky, uy, D, band, mirror)
    sec2y = g.sec2y / np.pi

    Fp = 1.0 / (1.0 + avg_p * avg_p)
    Fm = 1.0 / (1.0 + avg_m * avg_m)
    # p_*: the pair value's partial in each quotient; dq_u_* are 0 on the
    # paired pairs, so their terms drop out of p_avg_* there
    p_dq_u_m = sec2y * Fp
    p_dq_u_p = sec2y * Fm
    p_dq_k_m = -4.0 * dq_k_m * (avg_p * Fp * Fp) * sec2y
    p_dq_k_p = -4.0 * dq_k_p * (avg_m * Fm * Fm) * sec2y
    p_avg_p = (-2.0 * avg_p * Fp * dq_u_m * p_dq_u_m
               - 2.0 * dq_k_m * dq_k_m * Fp * Fp * (4.0 * Fp - 3.0) * sec2y)
    p_avg_m = (-2.0 * avg_m * Fm * dq_u_p * p_dq_u_p
               - 2.0 * dq_k_p * dq_k_p * Fm * Fm * (4.0 * Fm - 3.0) * sec2y)

    # through the generic quotients, whose factors cm, cp are 0 where the
    # band expansions replace them
    d_kz = p_dq_k_m * cm + p_dq_k_p * cp
    d_ky = p_dq_k_p * cp - p_dq_k_m * cm
    d_du = p_dq_u_m * cm + p_dq_u_p * cp
    d_D = -(p_avg_p * cm + p_avg_m * cp)

    # the paired form, on the paired pairs: its du partial replaces the
    # generic one; its D enters through Fp, Fm and pk D^2 Fp Fm, whose
    # D-derivative is 2 pk D Fp Fm (Fp + Fm - 1)
    Fp, Fm, Dp = Fp.ravel()[p], Fm.ravel()[p], D.ravel()[p]
    e, fpfm = g.pe / np.pi, Fp * Fm
    d_du.ravel()[p] = e * (g.px * (Fp + Fm) + g.pk * Dp * Dp * fpfm)
    d_D.ravel()[p] += du.ravel()[p] * e * (
        2.0 * g.px * (avg_p.ravel()[p] * Fp * Fp * cm.ravel()[p]
                      + avg_m.ravel()[p] * Fm * Fm * cp.ravel()[p])
        + 2.0 * g.pk * Dp * fpfm * (Fp + Fm - 1.0))

    # endpoint y = pi/2, with (1 - b^2) Fb^2 = (2Fb - 1) Fb and b^2 Fb^2 = (1 - Fb) Fb
    x = g.x
    Fb = 1.0 / (1.0 + b * b)
    end_kz = np.full(x.shape[0], 8.0 * (1.0 - Fb) * Fb / np.pi)
    end_uz = -2.0 * x * (2.0 * Fb - 1.0) * Fb / np.pi
    end_b = ((-2.0 * x * uz * (4.0 * Fb - 1.0) + 8.0 * kz * (1.0 - 2.0 * Fb))
             * (-2.0 * b * Fb * Fb) / np.pi)
    return _Partials(
        d_kz, d_ky, d_du, d_D, end_kz, end_uz[:, 0], end_b[:, 0],
        band=(p_dq_k_m[near], p_dq_u_m[near], p_avg_p[near]),
        mirror=(p_dq_k_p[near2], -p_dq_u_p[near2], -p_avg_m[near2]),
    )


def _outer_nodes(N: int, cfg: ResidualConfig) -> tuple[np.ndarray, float]:
    """The outer trapezoid nodes but pi/2, and their spacing."""
    y = np.linspace(0.0, HALF_PI, cfg.resolve_outer_nodes(N))
    return y[:-1], y[1] - y[0]


def _outer_integral(g: _Geometry, hy: float, z, yi, inputs: dict) -> np.ndarray:
    """Trapezoid in y of the outer integrand at the rows z of ``g``.

    ``inputs`` are the kernel's (see ``_integrand``); ``yi`` are the outer
    nodes but pi/2.  A non-finite integrand raises QuadratureError naming
    its (z, y), so numpy's overflow warnings on the way are not shown.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        pairs, end = _integrand(g, **inputs)
    if not (np.all(np.isfinite(pairs)) and np.all(np.isfinite(end))):
        bad = ~np.isfinite(np.column_stack([pairs, end]))
        i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        y = np.append(yi, HALF_PI)[j]
        raise QuadratureError(f"non-finite outer integrand at (z={z[i]}, y={y})",
                              interval=(float(z[i]), float(y)))
    return hy * (pairs.sum(axis=1) - 0.5 * pairs[:, 0] + 0.5 * end[:, 0])


# pairs per row block of a kernel pass (bounds its memory)
_BLOCK_PAIRS = 1 << 15


class Discretization:
    """The value-independent part of ``residual_vector`` for one (N, cfg).

    Holds the pair geometry of the interior rows (z < pi/2), cut into row
    blocks, and the linear maps from the nodal values to every input of
    the outer integrand: ``maps[name] @ values`` gives the input ``name``
    (spline maps E_nu at the rows, the outer nodes and pi/2, and a
    value -> P map from one GK15 panel per gap between consecutive rows and
    outer nodes).  The expansion quotients at the band and mirror pairs
    are fixed weights on the spline coefficients: ``band_weight`` (per
    quotient, pair and entry) on the five coefficients ``band_gather``
    whose B-splines can be nonzero at each pair's midpoint.  A residual
    is these maps and one kernel pass per block; a Jacobian is one pass
    of the kernel's partials per block.  Its band term, the partials in
    the quotients times the trapezoid weight ``band_column`` and the same
    weights, is scattered into coefficient space by ``band_index`` with
    one ``np.bincount``.  ``discretization`` builds it once per (N, cfg).
    """

    def __init__(self, N: int, cfg: ResidualConfig):
        grid = make_grid(N)
        self.N = N
        self.z = z = grid.nodes[1:-1]
        self.yi, self.hy = _outer_nodes(N, cfg)
        yi = self.yi
        self.geo = g = _pair_geometry(z, yi, grid.spacing)
        self.blocks = g.blocks(max(1, _BLOCK_PAIRS // len(yi)))
        sm = spline_maps(N)
        self.coef = sm.coef
        pz = _primitive_map(sm, np.unique(np.concatenate([[0.0], z, yi])))
        dk_z = sm.dense(z, 1)
        self.maps = {
            "kz": sm.dense(z, 0), "uz": (g.cz * g.cz) * dk_z,
            "ky": sm.dense(yi, 0), "uy": (g.cy * g.cy)[:, None] * sm.dense(yi, 1),
            "Pz": pz(z), "Py": pz(yi), "b": sm.dense([HALF_PI], 0)[0],
        }
        self.transport = (np.sin(z) * np.cos(z))[:, None] * dk_z
        # trapezoid weights of the pair columns; the y = pi/2 column has 1/2
        self.w = np.ones(len(yi))
        self.w[0] = 0.5

        # _series is linear in the spline derivatives, so on the B-spline
        # rows of each order at a pair's midpoint it gives each quotient's
        # weights on the coefficients first..first+4 of that pair
        weight, gather = [], []
        for f in (g.band, g.mirror):
            local = [sm.local(f.m, nu) for nu in range(_SERIES_DERIVS)]
            first = local[0][1]                 # the same for every order
            weight.append(_series(_Series(*(a[:, None] for a in f)), [r for r, _ in local]))
            gather.append(first[:, None] + np.arange(local[0][0].shape[1]))
        i, j = (np.concatenate(a) for a in zip(np.nonzero(g.near), np.nonzero(g.near2)))
        self.band_weight = np.concatenate(weight, axis=1)     # (quotient, pair, entry)
        self.band_gather = np.concatenate(gather)             # (pair, entry)
        self.band_column = self.hy * self.w[j]
        self.band_index = (i[:, None] * len(self.coef) + self.band_gather).ravel()
        self.n_band = np.count_nonzero(g.near)

    def _inputs(self, values: np.ndarray) -> dict:
        """The integrand inputs at nodal values ``values``, for the whole grid."""
        inp = {name: E @ values for name, E in self.maps.items()}
        quot = np.einsum("qek,ek->qe", self.band_weight, (self.coef @ values)[self.band_gather])
        return {"kz": inp["kz"][:, None], "uz": inp["uz"][:, None],
                "ky": inp["ky"], "uy": inp["uy"], "b": inp["b"],
                "D": inp["Py"][None, :] - inp["Pz"][:, None],
                "band": quot[:, :self.n_band], "mirror": quot[:, self.n_band:]}

    def _passes(self, values):
        """Per row block: (rows, band slice, mirror slice, geometry, kernel inputs)."""
        inp = self._inputs(np.asarray(values, dtype=float))
        for r, geo, b, m in self.blocks:
            yield r, b, m, geo, {
                "kz": inp["kz"][r], "uz": inp["uz"][r], "ky": inp["ky"], "uy": inp["uy"],
                "D": inp["D"][r], "b": inp["b"], "band": inp["band"][:, b],
                "mirror": inp["mirror"][:, m]}

    def residual(self, values) -> np.ndarray:
        """The interior rows of ``residual_vector`` at nodal values ``values``.

        Length N-1; the last row, at z = pi/2, is 0.  The transport term is
        one map of the values, the integral one kernel pass per row block.
        """
        out = np.zeros(self.N - 1)
        out[:len(self.z)] = self.transport @ values
        for r, _, _, geo, inputs in self._passes(values):
            out[r] += _outer_integral(geo, self.hy, self.z[r], self.yi, inputs)
        return out

    def jacobian(self, values) -> np.ndarray:
        """Derivative of ``residual_vector(...).stacked()`` in the nodal values.

        Shape (N+1, N).  One real pass of ``_integrand_partials`` per row
        block gives the integrand's partials, contracted with the input
        maps: row scalings for the z inputs and products with the y and P
        maps.  The band term is the partials in the expansion quotients
        times the trapezoid weights and the fixed quotient weights, summed
        into coefficient space with one ``np.bincount``.
        """
        N, w, hy, maps = self.N, self.w, self.hy, self.maps
        nz = len(self.z)
        J = np.zeros((N + 1, N))
        J[:nz] = self.transport
        J[N - 1, 0] = 1.0             # bc0 = values[0]
        J[N, N - 1] = 1.0             # bc_end = values[-1] - s

        quot = np.empty(self.band_weight.shape[:2])
        for r, b, m, geo, inputs in self._passes(values):
            with np.errstate(over="ignore", invalid="ignore"):   # lm_solve checks J
                p = _integrand_partials(geo, **inputs)
            J[r] += hy * (
                (p.kz @ w + 0.5 * p.end_kz)[:, None] * maps["kz"][r]
                + (p.du @ w + 0.5 * p.end_uz)[:, None] * maps["uz"][r]
                + (p.ky * w) @ maps["ky"] - (p.du * w) @ maps["uy"]
                + (p.D * w) @ maps["Py"] - (p.D @ w)[:, None] * maps["Pz"][r]
                + 0.5 * p.end_b[:, None] * maps["b"])
            quot[:, b] = p.band
            quot[:, self.n_band + m.start:self.n_band + m.stop] = p.mirror

        G = np.bincount(self.band_index,
                        np.einsum("qe,qek->ek", quot * self.band_column,
                                  self.band_weight).ravel(),
                        minlength=nz * len(self.coef))
        J[:nz] += G.reshape(nz, -1) @ self.coef
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

    Shape (N+1, N) for N = len(values); it does not depend on s, and each
    row is exact for the discretized residual up to roundoff.
    """
    if cfg is None:
        cfg = ResidualConfig()
    values = np.asarray(values, dtype=float)
    return discretization(len(values), cfg).jacobian(values)


def residual_at(profile: Profile, z: float, cfg: ResidualConfig | None = None) -> float:
    """Equation residual at a single z in [0, pi/2].

    The kernel of ``residual_vector`` on a one-row geometry, with its
    inputs from the profile's spline and an adaptive antiderivative table
    at tolerance 1e-12; at the grid nodes it agrees
    with ``residual_vector`` to quadrature accuracy.  At z = pi/2 every
    term of the equation degenerates (the transport term carries cos z and
    the integrand limits vanish pointwise), so the row is identically zero.
    """
    if cfg is None:
        cfg = ResidualConfig()
    if not 0.0 <= z <= HALF_PI:
        raise ValueError(f"z={z} outside [0, pi/2]")
    if z == HALF_PI:
        return 0.0
    ev = profile._ev
    yi, hy = _outer_nodes(profile.grid.N, cfg)
    zc = np.array([z])
    g = _pair_geometry(zc, yi, profile.grid.spacing)
    kz, dkz = ev(zc[:, None], 0), ev(zc[:, None], 1)

    def quotients(f: _Series):
        return _series(f, [ev(f.m, nu) for nu in range(_SERIES_DERIVS)])

    def integrand(w):
        c = np.cos(w)
        return ev(w, 0) / (c * c)

    pts = np.unique(np.concatenate([[0.0, z], yi]))
    P = cumulative_gk15(integrand, pts, tol=1e-12)
    inputs = {
        "kz": kz, "uz": dkz * g.cz * g.cz,
        "ky": ev(yi, 0), "uy": ev(yi, 1) * g.cy * g.cy,
        "D": (P[np.searchsorted(pts, yi)] - P[np.searchsorted(pts, z)])[None, :],
        "b": float(ev(HALF_PI, 0)),
        "band": quotients(g.band), "mirror": quotients(g.mirror),
    }
    integral = _outer_integral(g, hy, zc, yi, inputs)[0]
    return float(np.sin(z) * np.cos(z) * dkz[0, 0] + integral)


def residual_vector(profile: Profile, cfg: ResidualConfig | None = None) -> ResidualVector:
    """Equation residuals at the interior collocation nodes plus boundary rows.

    Interior rows are z_i, i = 1..N-1 (the last, at pi/2, is identically
    zero because the equation degenerates there); the boundary rows are
    k(0) - 0 and k(pi/2) - s.  The interior rows come from the profile's
    nodal values through the cached ``Discretization`` of (N, cfg).
    """
    if cfg is None:
        cfg = ResidualConfig()
    return ResidualVector(
        interior=discretization(profile.grid.N, cfg).residual(profile.values),
        bc0=float(profile.values[0]),
        bc_end=float(profile.values[-1] - profile.s),
    )
