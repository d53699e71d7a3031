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
  sin(+-z - y)/(cos z cos y) so no catastrophic cancellation occurs.

As k is odd and u = k' cos^2 and P are even, the "plus" quotients over
tan z + tan y at (z, y) are the "minus" quotients at the reflected row
(-z, y).  So each row has two halves, z and -z, with one formula, band
rule and expansion set, and the integrand is half 0's terms minus half
1's.  Half 1's band y ~ -z is met only near z = y = 0; expanding there
makes the oddness cancellation at z = 0 exact in floating point.

The integrand is one elementwise kernel, ``_integrand``, of the
value-dependent inputs k and u = k' cos^2 at z and y, D = P(y) - P(z),
k(pi/2) and the three expansion quotients at the near pairs of both
halves.  The geometry (``_pair_geometry``) depends only on N and the
outer nodes, and so do the products of it the kernel needs: the generic
quotients' factors cos z cos y / sin(+-z - y) and the paired form's
coefficients, which are stored only at the paired end-region pairs and
evaluated only there.  Every input is linear in the nodal values, so a
cached ``Discretization`` builds fixed value -> input maps once per (N,
ResidualConfig): P from a table with one GK15 panel per gap, and the
expansion quotients as fixed weights on the spline coefficients
(``_series`` applied to the B-spline rows at the midpoints).
``residual_vector`` is those maps and one kernel pass per block of rows;
the Jacobian (``residual_jacobian``) is the kernel's elementwise partials,
from the hand-derived gradient ``_integrand_partials`` in one real pass per
block, contracted with the same maps.  A complex step through
``_integrand`` is the tests' check of that gradient.  ``residual_at`` is
the one-row discretization of its z, sharing the outer-node maps and the
P table.  ``delta_tilde`` is the sliding average itself, by adaptive GK15.
"""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .grid_spline import HALF_PI, Profile, SplineMaps, make_grid, spline_maps
# cumulative_gk15 is unused here but stays importable: bench/tracer.py wraps it
from .quadrature import QuadratureError, cumulative_gk15, gk15_adaptive, gk15_rule  # noqa: F401

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
    k(z) as y -> z and to k(+-pi/2) as y or |z| -> pi/2.  sign=-1: the
    reflected average with denominator tan z + tan y, defined through the
    odd extension of the profile; k is odd and sec^2 even, so it is minus
    the plain average at -z.  The integral is adaptive GK15 at the
    ``QuadConfig`` defaults.
    """
    if not (-HALF_PI <= z <= HALF_PI and 0.0 <= y <= HALF_PI):
        raise ValueError(f"(z, y) = ({z}, {y}) outside [-pi/2, pi/2] x [0, pi/2]")
    if sign not in (+1, -1):
        raise ValueError(f"sign must be +1 or -1, got {sign}")
    if sign == -1:
        return -delta_tilde(profile, -z, y, +1)

    ev = profile._ev
    if abs(y - z) < 1e-8:
        return float(ev(z, 0))
    if y == HALF_PI:
        return float(ev(HALF_PI, 0))
    if abs(z) == HALF_PI:
        return float(ev(z, 0))
    # orientation flips in the integral and the denominator cancel
    lo, hi = min(z, y), max(z, y)

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
    return float(res.value / (np.tan(hi) - np.tan(lo)))


@dataclass(frozen=True)
class _Geometry:
    """Value-independent arrays of the outer integrand on a grid of pairs (z, y).

    z arrays have shape (nz, 1), y arrays (ny,) and pair arrays (nz, ny),
    so the elementwise kernel broadcasts them.  Per half h (the row z,
    then its reflection -z): ``c[h]`` = cos z cos y / sin(+-z - y), zeroed
    on the ``near[h]`` pairs, whose midpoints ``m`` and squared
    half-distances ``d2`` (half 0's first, row-major) feed the expansions.
    The paired end-region form is evaluated only at the flat indices
    ``pidx`` of the ``paired`` pairs, from its coefficients there: ``pe`` =
    cos^2 z / (sin(z-y) sin(z+y)), ``pk`` the factor of D^2 F0 F1 in the
    bracket, and ``px`` = tan z.
    """

    x: np.ndarray
    sec2y: np.ndarray
    c: tuple
    near: tuple
    paired: np.ndarray
    pidx: np.ndarray
    pe: np.ndarray
    pk: np.ndarray
    px: np.ndarray
    m: np.ndarray
    d2: np.ndarray


def _pair_geometry(z: np.ndarray, yi: np.ndarray, spacing: float) -> _Geometry:
    """Geometry of the pairs z x yi (all z < pi/2, yi the outer nodes but pi/2)."""
    band = _BAND_HALFWIDTH * spacing
    z = z[:, None]
    cz, sz, x = np.cos(z), np.sin(z), np.tan(z)
    cy, sy = np.cos(yi), np.sin(yi)
    czcy, per_half = cz * cy, []
    for zh in (z, -z):
        # band y ~ +-z (half 1's only near z = 0); the sec^2 d^2 guard turns
        # the expansion off where tan varies too fast across the band (only
        # next to pi/2, where direct evaluation is accurate anyway)
        mh, dh = 0.5 * (yi + zh), 0.5 * (zh - yi)
        dd = dh * dh
        nh = (np.abs(dh) < 0.5 * band) & (dd / np.cos(mh) ** 2 < 0.01)
        # tan(+-z) - tan y as sin(+-z - y)/(cos z cos y); the sine vanishes
        # only on the band, whose factors the expansions replace
        with np.errstate(divide="ignore"):
            ch = czcy / np.sin(zh - yi)
        ch[nh] = 0.0
        per_half.append((ch, nh, mh[nh], dd[nh]))
    c, near, m, d2 = zip(*per_half)
    # the paired end-region form is valid everywhere outside the bands
    paired = (yi > HALF_PI - _END_REGION_WIDTH * spacing) & ~(near[0] | near[1])
    i, j = np.nonzero(paired)
    czp, sm, sp = cz[i, 0], np.sin(z[i, 0] - yi[j]), np.sin(z[i, 0] + yi[j])
    return _Geometry(
        x=x, sec2y=1.0 / (cy * cy), c=c, near=near,
        paired=paired, pidx=np.flatnonzero(paired),
        pe=czp * czp / (sm * sp),
        pk=-4.0 * sz[i, 0] * sy[j] ** 2 * czp ** 3 * cy[j] ** 2 / (sm * sm * sp * sp),
        px=x[i, 0], m=np.concatenate(m), d2=np.concatenate(d2),
    )


# the expansions take the spline derivatives of orders 0.._SERIES_DERIVS-1
_SERIES_DERIVS = 5


def _series(m, d2, k) -> np.ndarray:
    """Local expansions of the three quotients about the midpoint m.

    ``k`` holds the spline derivatives of orders 0..4 at m, and d2 = d^2
    for d = (z - y)/2.  Returns the array (dq_value, dq_deriv, avg): the
    quotients of k(z) - k(y), u(z) - u(y) with u = k' cos^2, and
    P(y) - P(z) over tan z - tan y, tan z - tan y and tan y - tan z, all
    to O(d^4).  The series is linear in ``k``, so on B-spline rows it
    gives the quotients' weights on the spline coefficients.
    """
    c2 = np.cos(m) ** 2
    sec2, s2m = 1.0 / c2, np.sin(2 * m)
    km, k1, k2, k3, k4 = k
    den = 1.0 + (3 * sec2 - 2) * d2 / 3.0
    num_k = k1 + k3 * d2 / 6.0
    # first and third derivatives of u = k' cos^2
    u1 = k2 * c2 - k1 * s2m
    u3 = k4 * c2 - 3 * k3 * s2m - 6 * k2 * np.cos(2 * m) + 4 * k1 * s2m
    num_u = u1 + u3 * d2 / 6.0
    # (P' = sec^2 k):  P''' / sec^2 = 2(3 sec^2 - 2) k + 4 tan k' + k''
    num_p = km + (2 * (3 * sec2 - 2) * km + 4 * np.tan(m) * k1 + k2) * d2 / 6.0
    return np.array([c2 * num_k / den, c2 * num_u / den, num_p / den])


def _quotients(g: _Geometry, h: int, kz, du, ky, D, band):
    """Half h's quotients (dq_k, dq_u, avg) at the pairs of ``g``, and
    F = 1/(1 + avg^2).

    With x = +-z the row of half h (k odd, u = k' cos^2 and P even): the
    quotients of k(x) - k(y), u(x) - u(y) and -D over tan x - tan y.  On
    the ``near[h]`` pairs they are ``band``, the half's expansion
    quotients; on the ``paired`` pairs dq_u is 0, as the paired
    end-region form replaces its term.
    """
    c, near = g.c[h], g.near[h]
    dq_k = ((kz if h == 0 else -kz) - ky) * c
    dq_u = du * c
    avg = -D * c
    dq_k[near], dq_u[near], avg[near] = band
    dq_u.ravel()[g.pidx] = 0.0
    return dq_k, dq_u, avg, 1.0 / (1.0 + avg * avg)


def _halves(g: _Geometry, band):
    """``band`` (quotient, near entry) cut into half 0's and half 1's entries."""
    n0 = np.count_nonzero(g.near[0])
    return enumerate((band[:, :n0], band[:, n0:]))


def _half_terms(g: _Geometry, h: int, kz, du, ky, D, band):
    """Half h's terms t = dq_u F and v = dq_k^2 avg F^2 of the pair
    integrand, and F at the paired pairs."""
    dq_k, dq_u, avg, F = _quotients(g, h, kz, du, ky, D, band)
    return dq_u * F, dq_k * dq_k * avg * F * F, F.ravel()[g.pidx]


def _integrand(g: _Geometry, kz, uz, ky, uy, D, b, band):
    """The outer integrand: its values at the pairs of ``g`` and at y = pi/2.

    The inputs are the value-dependent quantities: k and u = k' cos^2 at
    z and at y, D = P(y) - P(z), b = k(pi/2), and the expansion quotients
    (dq_k, dq_u, avg) at the near pairs of both halves, half 0's first.
    Every output is an elementwise function of them, so complex inputs
    give complex-step derivatives (the tests' check of
    ``_integrand_partials``).  Returns (pairs, end): the integrand at each
    pair, (t0 - t1 - 2 (v0 - v1)) sec^2 y / pi in the halves' terms
    (``_half_terms``, formed one half after the other), and, at each z,
    its analytic limit at the endpoint y = pi/2.
    """
    du = uz - uy
    (t0, v0, F0), (t1, v1, F1) = (
        _half_terms(g, h, kz, du, ky, D, q) for h, q in _halves(g, band))

    # first-derivative terms: separately the two quotients diverge like
    # +-tan(y) toward pi/2, so on the paired pairs they are combined over
    # the common denominator tan^2 z - tan^2 y instead (an algebraic
    # identity; tan(y)*(F0 - F1) gets the stable product form
    # pk D^2 F0 F1, which stays finite as y -> pi/2)
    pairs = (t0 - t1 - 2.0 * (v0 - v1)) * (g.sec2y / np.pi)
    p, Dp = g.pidx, D.ravel()[g.pidx]
    pairs.ravel()[p] += (du.ravel()[p] * g.pe / np.pi
                         * (g.px * (F0 + F1) + g.pk * Dp * Dp * F0 * F1))

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
    band: np.ndarray


def _half_partials(g: _Geometry, h: int, kz, du, ky, D, band, sec2y):
    """Partials of half h's pair terms (t - 2 v) sec2y in its quotients
    (dq_k, dq_u, avg): times ``c[h]`` at every pair and as they are at the
    ``near[h]`` pairs; with F and avg F^2 c[h] at the paired pairs."""
    dq_k, dq_u, avg, F = _quotients(g, h, kz, du, ky, D, band)
    # dq_u is 0 on the paired pairs, so its term drops out of p_avg there
    p_dq_u = sec2y * F
    p_dq_k = -4.0 * dq_k * (avg * F * F) * sec2y
    p_avg = (-2.0 * avg * F * dq_u * p_dq_u
             - 2.0 * dq_k * dq_k * F * F * (4.0 * F - 3.0) * sec2y)
    c, near, p = g.c[h], g.near[h], g.pidx
    at_near = np.array([p_dq_k[near], p_dq_u[near], p_avg[near]])
    Fp = F.ravel()[p]
    Gp = avg.ravel()[p] * Fp * Fp * c.ravel()[p]
    for part in (p_dq_k, p_dq_u, p_avg):
        part *= c
    return p_dq_k, p_dq_u, p_avg, at_near, Fp, Gp


def _integrand_partials(g: _Geometry, kz, uz, ky, uy, D, b, band) -> _Partials:
    """The partials of ``_integrand`` at real inputs, in one pass.

    At the pairs: in kz, ky, du = uz - uy (u enters only as that
    difference, so the uy partial is minus the du one) and D.  At the
    endpoint column, one per z: in kz, uz and b.  At the near pairs of
    both halves, in the order of ``band``: in the three expansion
    quotients (dq_k, dq_u, avg).  The pair value is half 0's terms minus
    half 1's, and half h's quotients are c[h] times +-kz - ky, du and -D:
    the halves' partials (``_half_partials``) combine with those signs.
    With F = 1/(1+a^2) and G = a F^2 the derivatives are written
    F' = -2aF.F and G' = F^2 (4F - 3) (as a^2 F = 1 - F), which stay
    finite wherever F and G do.
    """
    du = uz - uy
    sec2y = g.sec2y / np.pi
    (k0, u0, a0, q0, F0, G0), (k1, u1, a1, q1, F1, G1) = (
        _half_partials(g, h, kz, du, ky, D, q, sec2y) for h, q in _halves(g, band))
    # through the generic quotients, whose factors c[h] are 0 where the
    # band expansions replace them
    d_kz, d_ky, d_du, d_D = k0 + k1, k1 - k0, u0 - u1, a1 - a0

    # the paired form, on the paired pairs: its du partial replaces the
    # generic one; its D enters through F0, F1 and pk D^2 F0 F1, whose
    # D-derivative is 2 pk D F0 F1 (F0 + F1 - 1)
    p, Dp = g.pidx, D.ravel()[g.pidx]
    e, f01 = g.pe / np.pi, F0 * F1
    d_du.ravel()[p] = e * (g.px * (F0 + F1) + g.pk * Dp * Dp * f01)
    d_D.ravel()[p] += du.ravel()[p] * e * (
        2.0 * g.px * (G0 + G1) + 2.0 * g.pk * Dp * f01 * (F0 + F1 - 1.0))

    # endpoint y = pi/2, with (1 - b^2) Fb^2 = (2Fb - 1) Fb and b^2 Fb^2 = (1 - Fb) Fb
    x = g.x
    Fb = 1.0 / (1.0 + b * b)
    end_kz = np.full(x.shape[0], 8.0 * (1.0 - Fb) * Fb / np.pi)
    end_uz = -2.0 * x * (2.0 * Fb - 1.0) * Fb / np.pi
    end_b = ((-2.0 * x * uz * (4.0 * Fb - 1.0) + 8.0 * kz * (1.0 - 2.0 * Fb))
             * (-2.0 * b * Fb * Fb) / np.pi)
    return _Partials(d_kz, d_ky, d_du, d_D, end_kz, end_uz[:, 0], end_b[:, 0],
                     band=np.concatenate([q0, -q1], axis=1))


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


# pairs per row block of a kernel pass: the block bounds the memory, and
# with it the working set of the kernel's temporaries
_BLOCK_PAIRS = 1 << 15


class Discretization:
    """The value-independent part of the residual for one (N, cfg) and its rows.

    Holds the rows z (the interior nodes but pi/2, or the one point of
    ``row``) in row ``blocks``, each with its pair geometry, and the linear
    maps from the nodal values to every input of the outer integrand:
    ``maps[name] @ values`` gives the input ``name`` (spline maps E_nu at the
    rows, the outer nodes and pi/2, and value -> P maps).  P is a table at
    0, the interior nodes and the outer nodes, from one GK15 panel per gap,
    plus panels up to a row that is not a table point (``_primitive``).  The
    expansion quotients at the near pairs are fixed weights ``band_weight``
    (per quotient, entry and coefficient) on the five coefficients
    ``band_gather`` whose B-splines can be nonzero at an entry's midpoint;
    each block's entries, half 0's then half 1's, are one slice.  A
    Jacobian's band term, the partials in the quotients times the trapezoid
    weight ``band_column`` and the same weights, is summed into coefficient
    space by ``band_index`` with one ``np.bincount``.
    """

    def __init__(self, N: int, cfg: ResidualConfig):
        grid = make_grid(N)
        self.N, self.spacing = N, grid.spacing
        self.yi, self.hy = _outer_nodes(N, cfg)
        yi, z = self.yi, grid.nodes[1:-1]
        self.sm = sm = spline_maps(N)
        self.coef = sm.coef
        self.pts = pts = np.unique(np.concatenate([[0.0], z, yi]))
        A = np.zeros((len(pts), N))
        for lo in range(0, len(pts) - 1, 256):      # 256 gaps at a time bound the memory
            hi = min(lo + 256, len(pts) - 1)
            A[lo + 1:hi + 1] = _panels(sm, pts[lo:hi], pts[lo + 1:hi + 1])
        self.P = np.cumsum(A, axis=0, out=A)
        self.maps = {"ky": sm.dense(yi, 0), "uy": np.cos(yi)[:, None] ** 2 * sm.dense(yi, 1),
                     "Py": self._primitive(yi), "b": sm.dense([HALF_PI], 0)[0]}
        # trapezoid weights of the pair columns; the y = pi/2 column has 1/2
        self.w = np.ones(len(yi))
        self.w[0] = 0.5
        self._set_rows(z)

    def row(self, z: float) -> Discretization:
        """The discretization of the one row z (0 <= z < pi/2), sharing the
        outer-node maps and the P table."""
        d = copy.copy(self)
        d._set_rows(np.array([z], dtype=float))
        return d

    def _primitive(self, at: np.ndarray) -> np.ndarray:
        """Value -> P maps at the points ``at``: the table's row at the table
        point a at or below each, plus GK15 panels from a up to a point that
        is not a table point.  A panel is no wider than its distance from the
        pole of sec^2 at pi/2: one panel below the last table point, halvings
        of the distance past it."""
        i = self.pts.searchsorted(at, side="right") - 1
        A = self.P[i]
        for n in np.flatnonzero(self.pts[i] < at):
            gap, rest = HALF_PI - self.pts[i[n]], HALF_PI - at[n]
            cuts = HALF_PI - gap * 0.5 ** np.arange(1 + int(np.log2(gap / rest)))
            A[n] += _panels(self.sm, cuts, np.append(cuts[1:], at[n])).sum(axis=0)
        return A

    def _set_rows(self, z: np.ndarray) -> None:
        """The row maps, transport term, blocks and band weights of rows z."""
        sm, yi = self.sm, self.yi
        self.z = z
        dk_z = sm.dense(z, 1)
        self.maps = {**self.maps, "kz": sm.dense(z, 0), "uz": np.cos(z)[:, None] ** 2 * dk_z,
                     "Pz": self._primitive(z)}
        self.transport = (np.sin(z) * np.cos(z))[:, None] * dk_z

        # per block: its rows, geometry and slice of the expansion entries
        size = max(1, _BLOCK_PAIRS // len(yi))
        self.blocks, entries, n = [], [], 0
        for r0 in range(0, len(z), size):
            r = slice(r0, min(r0 + size, len(z)))
            g = _pair_geometry(z[r], yi, self.spacing)
            _, i, j = np.nonzero(g.near)
            self.blocks.append((r, g, slice(n, n + len(i))))
            entries.append((r0 + i, j, g.m, g.d2))
            n += len(i)
        # _series is linear in the spline derivatives, so on the B-spline
        # rows of each order at an entry's midpoint it gives each quotient's
        # weights on the coefficients first..first+4 of that entry
        i, j, m, d2 = (np.concatenate(a) for a in zip(*entries))
        local = [sm.local(m, nu) for nu in range(_SERIES_DERIVS)]
        first = local[0][1]                     # the same for every order
        self.band_weight = _series(m[:, None], d2[:, None], [rows for rows, _ in local])
        self.band_gather = first[:, None] + np.arange(local[0][0].shape[1])
        self.band_column = self.hy * self.w[j]
        self.band_index = (i[:, None] * len(self.coef) + self.band_gather).ravel()

    def _inputs(self, values: np.ndarray) -> dict:
        """The integrand inputs at nodal values ``values``, for every row."""
        inp = {name: E @ values for name, E in self.maps.items()}
        return {"kz": inp["kz"][:, None], "uz": inp["uz"][:, None],
                "ky": inp["ky"], "uy": inp["uy"], "b": inp["b"],
                "D": inp["Py"][None, :] - inp["Pz"][:, None],
                "band": np.einsum("qek,ek->qe", self.band_weight,
                                  (self.coef @ values)[self.band_gather])}

    def _passes(self, values):
        """Per row block: (rows, entry slice, geometry, kernel inputs)."""
        inp = self._inputs(np.asarray(values, dtype=float))
        for r, geo, b in self.blocks:
            yield r, b, geo, {
                "kz": inp["kz"][r], "uz": inp["uz"][r], "ky": inp["ky"], "uy": inp["uy"],
                "D": inp["D"][r], "b": inp["b"], "band": inp["band"][:, b]}

    def residual(self, values) -> np.ndarray:
        """The residual at the rows z at nodal values ``values``: the transport
        term, one map of the values, plus one kernel pass per row block."""
        out = self.transport @ values
        for r, _, geo, inputs in self._passes(values):
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
        N, w, hy, maps, nz = self.N, self.w, self.hy, self.maps, len(self.z)
        J = np.zeros((N + 1, N))
        J[:nz] = self.transport
        J[N - 1, 0] = 1.0             # bc0 = values[0]
        J[N, N - 1] = 1.0             # bc_end = values[-1] - s

        quot = np.empty(self.band_weight.shape[:2])
        for r, b, geo, inputs in self._passes(values):
            with np.errstate(over="ignore", invalid="ignore"):   # lm_solve checks J
                p = _integrand_partials(geo, **inputs)
            J[r] += hy * (
                (p.kz @ w + 0.5 * p.end_kz)[:, None] * maps["kz"][r]
                + (p.du @ w + 0.5 * p.end_uz)[:, None] * maps["uz"][r]
                + (p.ky * w) @ maps["ky"] - (p.du * w) @ maps["uy"]
                + (p.D * w) @ maps["Py"] - (p.D @ w)[:, None] * maps["Pz"][r]
                + 0.5 * p.end_b[:, None] * maps["b"])
            quot[:, b] = p.band

        G = np.bincount(self.band_index,
                        np.einsum("qe,qek->ek", quot * self.band_column,
                                  self.band_weight).ravel(),
                        minlength=nz * len(self.coef))
        J[:nz] += G.reshape(nz, -1) @ self.coef
        return J


def _panels(sm: SplineMaps, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Value -> maps of the integrals of sec^2(t) k(t) over [lo_i, hi_i],
    one GK15 panel each."""
    nodes, wts = gk15_rule(lo, hi)
    E = sm.dense(nodes.ravel(), 0).reshape(*nodes.shape, sm.coef.shape[1])
    return np.einsum("gq,gqn->gn", wts / np.cos(nodes) ** 2, E)


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

    The one row z of the discretization (``Discretization.row``): the
    maps, band weights, kernel and trapezoid of ``residual_vector``, whose
    interior rows it is at the grid nodes.  At z = pi/2 every term of the
    equation degenerates (the transport term carries cos z and the
    integrand limits vanish pointwise), so the row is identically zero.
    """
    if cfg is None:
        cfg = ResidualConfig()
    if not 0.0 <= z <= HALF_PI:
        raise ValueError(f"z={z} outside [0, pi/2]")
    if z == HALF_PI:
        return 0.0
    return float(discretization(profile.grid.N, cfg).row(z).residual(profile.values)[0])


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
        interior=np.append(discretization(profile.grid.N, cfg).residual(profile.values), 0.0),
        bc0=float(profile.values[0]),
        bc_end=float(profile.values[-1] - profile.s),
    )
