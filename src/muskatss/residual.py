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
* y = pi/2: the two first-derivative terms diverge like +-tan(y) and
  only their sum is bounded, so at the endpoint the integrand is replaced
  by its analytic limit.  At an outer node y < pi/2 each term is at most
  about tan y <= 1/hy times their difference, and the trapezoid weight hy
  multiplies them, so the direct difference costs about one rounding
  error per row.
* elsewhere, up to the outer node next to pi/2: direct evaluation, with
  every tan difference rewritten as sin(+-z - y)/(cos z cos y) so no
  catastrophic cancellation occurs.

As k is odd and u = k' cos^2 and P are even, the "plus" quotients over
tan z + tan y at (z, y) are the "minus" quotients at the reflected row
(-z, y).  So each row has two halves, z and -z, with one formula, band
rule and expansion set, stacked on a leading axis of length 2, and the
integrand is half 0's terms minus half 1's.  Half 1's band y ~ -z is met
only near z = y = 0; expanding there makes the oddness cancellation at
z = 0 exact in floating point.

The integrand is one elementwise kernel, ``_integrand``, of the
value-dependent inputs k and u = k' cos^2 at z and y, D = P(y) - P(z),
k(pi/2) and the three expansion quotients at the near pairs of both
halves.  The geometry (``_pair_geometry``) depends only on N and the
outer nodes, and so do the products of it the kernel needs: the
quotients' factors cos z cos y / sin(+-z - y).  Every input is a fixed
linear map of the spline coefficients a = coef @ values, so a cached
``Discretization`` builds its weights once per (N, ResidualConfig): the
B-spline rows of k, u and P at the rows (dense) and at the outer nodes
(the K+1 local ones), P's from one table in B-spline coefficient space,
the integrals of sec^2 B_c with one GK15 panel per gap; k(pi/2) is a's
last entry.  The expansion quotients are fixed weights on a (``_series``
applied to the B-spline rows at the midpoints).  The outer rule is one
weight vector: the trapezoid weights times the column factor sec^2 y / pi
at the outer nodes but pi/2, and hy/2 at pi/2, whose analytic limit holds
the factor.  ``residual_vector`` is those weights, each applied once to
a, and one kernel pass (``_kernel``) per block of rows, in a reused
aligned workspace.  The pass builds the quotients of both halves once, in
one sweep, and forms from them both the integrand's values, in the
operations of ``_integrand``, and its elementwise partials, from a
hand-derived gradient.  The partials under the same outer weights, summed
through the same rows, are the Jacobian in coefficient space; one product
with the cardinal map takes it to the nodal values
(``residual_jacobian``).  So one pass per trial point gives the residual
and the Jacobian there, and the ``Discretization`` keeps the last one for
a Jacobian asked at the same values.  A complex step through
``_integrand`` is the tests' check of that gradient.  ``residual_at`` is
the one-row discretization of its z, sharing the outer-node rows and the
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
# the signs of the rows z and -z of the two halves, on the leading axis
_SIGNS = np.array([1.0, -1.0])[:, None, None]


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

    z arrays have shape (nz, 1) and y arrays (ny,); the pairs of both
    halves (the row z, then its reflection -z) are stacked on a leading
    axis, shape (2, nz, ny), so the elementwise kernel broadcasts them.
    ``c`` = cos z cos y / sin(+-z - y), zeroed on the near pairs, whose
    flat row-major indices in the stacked shape are ``flat`` (half 0's
    first) and whose midpoints ``m`` and squared half-distances ``d2``
    feed the expansions.
    """

    x: np.ndarray
    c: np.ndarray
    flat: np.ndarray
    m: np.ndarray
    d2: np.ndarray


def _pair_geometry(z: np.ndarray, yi: np.ndarray, spacing: float) -> _Geometry:
    """Geometry of the pairs z x yi (all z < pi/2, yi the outer nodes but pi/2)."""
    band = _BAND_HALFWIDTH * spacing
    z = z[:, None]
    cy = np.cos(yi)
    x = z * _SIGNS                          # the rows of the two halves
    # band y ~ +-z (half 1's only near z = 0); the sec^2 d^2 guard turns
    # the expansion off where tan varies too fast across the band (only
    # next to pi/2, where direct evaluation is accurate anyway)
    m, d = 0.5 * (yi + x), 0.5 * (x - yi)
    dd = d * d
    flat = np.flatnonzero((np.abs(d) < 0.5 * band) & (dd / np.cos(m) ** 2 < 0.01))
    # tan(+-z) - tan y as sin(+-z - y)/(cos z cos y); the sine vanishes, or
    # is subnormal, only on the bands, whose factors the expansions replace
    with np.errstate(divide="ignore", over="ignore"):
        c = np.cos(z) * cy / np.sin(x - yi)
    np.put(c, flat, 0.0)
    return _Geometry(x=np.tan(z), c=c, flat=flat, m=m.take(flat), d2=dd.take(flat))


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


def _quotients(g: _Geometry, kz, du, ky, D, band, out):
    """The quotients (dq_k, dq_u, avg) of both halves at the pairs of ``g``,
    and F = 1/(1 + avg^2), written to the four stacked arrays ``out``.

    With x = +-z the row of a half (k odd, u = k' cos^2 and P even): the
    quotients of k(x) - k(y), u(x) - u(y) and -D over tan x - tan y.  On
    the near pairs (``flat``) they are ``band``, the expansion quotients.
    """
    dq_k, dq_u, avg, F = out
    np.subtract(kz * _SIGNS, ky, out=dq_k)
    dq_k *= g.c
    np.multiply(du, g.c, out=dq_u)
    np.negative(D, out=avg)
    avg *= g.c
    for q, v in zip((dq_k, dq_u, avg), band):
        np.put(q, g.flat, v)
    np.multiply(avg, avg, out=F)
    F += 1.0
    np.divide(1.0, F, out=F)
    return out


def _end_values(g: _Geometry, kz, uz, b):
    """The integrand's analytic limit at the endpoint y = pi/2, where t0 and
    t1 diverge, at each z."""
    Fb = 1.0 / (1.0 + b * b)
    return (-2.0 * g.x * uz * (1.0 - b * b) + 8.0 * b * b * kz) * Fb * Fb / np.pi


def _integrand(g: _Geometry, kz, uz, ky, uy, D, b, band):
    """The outer integrand: its values at the pairs of ``g`` and at y = pi/2.

    The inputs are the value-dependent quantities: k and u = k' cos^2 at
    z and at y, D = P(y) - P(z), b = k(pi/2), and the expansion quotients
    (dq_k, dq_u, avg) at the near pairs of both halves, half 0's first.
    Every output is an elementwise function of them, so complex inputs
    give complex-step derivatives (the tests' check of ``_kernel``'s
    partials).  Returns (pairs, end): at each pair t0 - t1 - 2 (v0 - v1)
    from the halves' terms t = dq_u F and v = dq_k^2 avg F^2, the integrand
    without its column factor sec^2 y / pi (the outer weights hold it), and
    at each z the endpoint limit (``_end_values``), factor included.  It is
    ``_kernel`` without the partials, in new arrays of the inputs' dtype.
    """
    pairs, end, _ = _kernel(g, _fresh_work(g, kz, uz, ky, uy, D, b, band),
                            kz, uz, ky, uy, D, b, band, partials=False)
    return pairs, end


class _Partials(NamedTuple):
    """Partials of ``_integrand``'s values (see ``_kernel``)."""

    kz: np.ndarray
    ky: np.ndarray
    du: np.ndarray
    D: np.ndarray
    end_kz: np.ndarray
    end_uz: np.ndarray
    end_b: np.ndarray
    band: np.ndarray


# stacked arrays (2, rows, ny) of one row block that a kernel pass holds at once
_SLOTS = 6


def _fresh_work(g: _Geometry, *inputs) -> np.ndarray:
    """A new kernel workspace for ``g``, of the inputs' dtype."""
    return np.empty((_SLOTS, *g.c.shape), np.result_type(*inputs))


def _kernel(g: _Geometry, work, kz, uz, ky, uy, D, b, band, partials=True):
    """The values of ``_integrand`` and, at real inputs, their partials, in
    one sweep over the quotients of both halves, in the workspace ``work``.

    ``work`` holds ``_SLOTS`` stacked arrays of the pair shape (2, rows,
    ny).  du = uz - uy goes to slot 2's half 0, the quotients (dq_k, dq_u,
    avg, F) to slots 3, 0, 1 and 4, and the terms v and t to 2 and 5; the
    pair values end in slot 5's half 0.  The values are ``_integrand``'s,
    with each array's operations in the same order.

    Returns (pairs, end, partials), partials None unless ``partials``.  At
    the pairs: in kz, ky, du = uz - uy (u enters only as that difference,
    so the uy partial is minus the du one) and D; the last three are
    ``work[:3, 0]``.  At the endpoint column, one per z: in kz, uz and b.
    At the near pairs, in the order of ``band``: in the three expansion
    quotients (dq_k, dq_u, avg).  The pair value is half 0's terms minus
    half 1's, and the quotients are c times +-kz - ky, du and -D: the
    halves' partials combine with those signs.
    """
    du = np.subtract(uz, uy, out=work[2, 0])
    dq_k, dq_u, avg, F = _quotients(g, kz, du, ky, D, band,
                                    out=(work[3], work[0], work[1], work[4]))
    v = np.multiply(dq_k, dq_k, out=work[2])
    v *= avg
    v *= F
    v *= F
    t = np.multiply(dq_u, F, out=work[5])
    v[0] -= v[1]
    t[0] -= t[1]
    v[0] *= 2.0
    t[0] -= v[0]
    pairs, end = t[0], _end_values(g, kz, uz, b)
    if not partials:
        return pairs, end, None

    # each half's terms t - 2 v in its quotients, in place: with G = avg F
    # (|G| <= 1/2), in dq_u F, in dq_k -4 dq_k G F, and in avg
    # -2 F (G dq_u + dq_k^2 F (4F - 3)), from F' = -2 G F and
    # (avg F^2)' = F^2 (4F - 3) (as avg^2 F = 1 - F); they stay finite
    # wherever the terms do
    G = avg
    G *= F
    dq_u *= G
    p_avg = np.multiply(4.0, F, out=work[2])
    p_avg -= 3.0
    p_avg *= F
    p_avg *= dq_k
    p_avg *= dq_k
    p_avg += dq_u
    p_avg *= F
    p_avg *= -2.0
    p_dq_k = dq_k
    p_dq_k *= G
    p_dq_k *= F
    p_dq_k *= -4.0
    p_dq_u = F
    near = np.array([p_dq_k.take(g.flat), p_dq_u.take(g.flat), p_avg.take(g.flat)])
    half1 = near[:, g.flat.searchsorted(g.c[0].size):]
    np.negative(half1, out=half1)
    for part in (p_dq_k, p_dq_u, p_avg):
        part *= g.c
    # through the generic quotients, whose factors c are 0 where the band
    # expansions replace them
    d_ky = np.subtract(p_dq_k[1], p_dq_k[0], out=work[0, 0])
    d_du = np.subtract(p_dq_u[0], p_dq_u[1], out=work[1, 0])
    d_D = np.subtract(p_avg[1], p_avg[0], out=work[2, 0])
    d_kz = np.add(p_dq_k[0], p_dq_k[1], out=p_dq_k[0])

    # endpoint y = pi/2, with (1 - b^2) Fb^2 = (2Fb - 1) Fb and b^2 Fb^2 = (1 - Fb) Fb
    x = g.x
    Fb = 1.0 / (1.0 + b * b)
    end_kz = np.full(x.shape[0], 8.0 * (1.0 - Fb) * Fb / np.pi)
    end_uz = -2.0 * x * (2.0 * Fb - 1.0) * Fb / np.pi
    end_b = ((-2.0 * x * uz * (4.0 * Fb - 1.0) + 8.0 * kz * (1.0 - 2.0 * Fb))
             * (-2.0 * b * Fb * Fb) / np.pi)
    return pairs, end, _Partials(d_kz, d_ky, d_du, d_D, end_kz, end_uz[:, 0], end_b[:, 0],
                                 band=near)


def _outer_nodes(N: int, cfg: ResidualConfig) -> tuple[np.ndarray, float]:
    """The outer trapezoid nodes but pi/2, and their spacing."""
    y = np.linspace(0.0, HALF_PI, cfg.resolve_outer_nodes(N))
    return y[:-1], y[1] - y[0]


def _outer_integral(w, z, yi, pairs, end) -> np.ndarray:
    """The outer rule in y at the rows z: the weights ``w`` on the
    integrand's values ``pairs`` at the outer nodes ``yi`` but pi/2, and
    its last entry on ``end`` at pi/2 (see ``_integrand``).  A non-finite
    integrand raises QuadratureError naming its (z, y), so numpy's
    overflow warnings on the way are not shown.  Each row's sum takes no
    BLAS call, so it is the same in any row block at any thread count.
    """
    if not (np.all(np.isfinite(pairs)) and np.all(np.isfinite(end))):
        bad = ~np.isfinite(np.column_stack([pairs, end]))
        i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
        y = np.append(yi, HALF_PI)[j]
        raise QuadratureError(f"non-finite outer integrand at (z={z[i]}, y={y})",
                              interval=(float(z[i]), float(y)))
    return np.einsum("ij,j->i", pairs, w[:-1]) + w[-1] * end[:, 0]


# pairs of both halves per row block of a kernel pass, about: the rows are
# spread evenly over as many blocks as this needs.  The block bounds the
# memory, and with it the working set of the kernel's arrays
_BLOCK_PAIRS = 1 << 15
# outer nodes per chunk of the Jacobian's sums in coefficient space
_CHUNK = 48


def _aligned(rows: int, cols: int) -> np.ndarray:
    """An uninitialised float array of ``rows`` rows of at least ``cols``
    entries, each row starting on a 64-byte boundary."""
    cols = -(-cols // 8) * 8
    raw = np.empty(rows * cols * 8 + 64, np.uint8)
    start = -raw.ctypes.data % 64
    return raw[start:start + rows * cols * 8].view(np.float64).reshape(rows, cols)


class Discretization:
    """The value-independent part of the residual for one (N, cfg) and its rows.

    Holds the rows z (the interior nodes but pi/2, or the one point of
    ``row``) in row ``blocks``, each with its pair geometry, and fixed
    weights from the spline coefficients a = coef @ values to every input
    of the outer integrand.  ``P`` is a table in B-spline coefficient space
    at ``pts`` (0, the interior nodes and the outer nodes): the integrals
    of sec^2 B_c up to each point for every B-spline c, from one GK15 panel
    per gap.  ``z_rows`` holds the rows of k, u = k' cos^2 and P on all
    the coefficients at the rows, P's the table's rows plus panels up to a
    row that is not a table point (``_primitive``).  b = k(pi/2) is a's
    last entry: the last B-spline is the only one nonzero at pi/2.  At the
    outer nodes ``y_rows`` holds the rows of k, u and P on the K+1
    coefficients
    ``y_gather`` whose B-splines are nonzero there (local support), P's
    being the table's entries there.  Every B-spline c whose support ends
    at or below a node has all of its integral ``support_integral[c]``
    (the table's last row) in P there, which a cumulative sum over the
    coefficients adds.  The expansion quotients at the near pairs are
    fixed weights ``band_weight`` (per quotient, entry and coefficient) on
    the five coefficients ``band_gather`` whose B-splines can be nonzero at
    an entry's midpoint; each block's entries, half 0's then half 1's, are
    one slice.  The outer rule is the one weight vector ``w``: the
    trapezoid weight times the column factor sec^2 y / pi at each outer
    node but pi/2 (halved at y = 0), then hy/2 at pi/2.

    One pass (``_pass``) gives the residual and its Jacobian in coefficient
    space, C, at the same values, its kernel running in the workspace
    ``work``: ``_SLOTS``
    64-byte aligned stacked arrays (2, rows, ny) of the largest block,
    which every block and every pass reuses.  The Jacobian's y-terms are
    summed in coefficient space through the same local rows under the
    same weights: per chunk of ``_CHUNK`` consecutive outer nodes, one
    batched product of the partials in ky, du and D with the fixed
    ``chunk_weight`` onto the chunk's window of coefficients, whose second
    part sums the partials in D by first coefficient for the whole
    integrals.  The band term, the partials in the expansion quotients
    times their outer weight ``band_column`` and the quotient weights, is
    summed into coefficient space by ``band_index`` with one
    ``np.bincount``, and the z-terms through ``z_rows``.  ``residual``
    keeps the values and C of its last pass, and ``jacobian`` at those
    values takes C to the nodal values by one product with ``coef``, so a
    Levenberg-Marquardt step, whose Jacobian is taken at the trial point it
    has just evaluated, costs one pass.
    """

    def __init__(self, N: int, cfg: ResidualConfig):
        grid = make_grid(N)
        self.N, self.spacing = N, grid.spacing
        self.yi, self.hy = _outer_nodes(N, cfg)
        yi, z = self.yi, grid.nodes[1:-1]
        self.sm = sm = spline_maps(N)
        self.coef = sm.coef
        # the table points 0, z and yi, sorted, each once
        pts = np.sort(np.concatenate([[0.0], z, yi]))
        self.pts = pts = pts[np.append(True, pts[1:] > pts[:-1])]
        # the integrals of sec^2 B_c up to each table point, for every B-spline c
        P = np.zeros((len(pts), N))
        P[1:] = _coef_panels(sm, pts[:-1], pts[1:])
        self.P = np.cumsum(P, axis=0, out=P)
        self.support_integral = P[-1]
        # the outer rule: the trapezoid weights times the column factor
        # sec^2 y / pi the pair values leave out, then hy/2 at pi/2
        self.w = np.append(self.hy / (np.pi * np.cos(yi) ** 2), 0.5 * self.hy)
        self.w[0] *= 0.5
        # the rows of k, u = k' cos^2 and P on the K+1 B-splines nonzero at
        # each outer node
        B0, first = sm.local(yi, 0)
        self.y_gather = first[:, None] + np.arange(B0.shape[1])
        self.y_rows = np.array([B0, np.cos(yi)[:, None] ** 2 * sm.local(yi, 1)[0],
                                P[pts.searchsorted(yi)[:, None], self.y_gather]])
        self._chunk_weights()
        self._set_rows(z)

    def _chunk_weights(self) -> None:
        """The fixed weights of the Jacobian's y-terms in coefficient space.

        ``chunk_weight[q, c, l]`` takes the partial in ky, du or D (q = 0,
        1, 2) at the l-th outer node of chunk c to a window of coefficients
        from the chunk's first node's first nonzero B-spline: the window's
        first part holds the outer weight times the node's ``y_rows`` (the
        uy partial is minus the du one), and its second, for D only, sums
        the partials by their node's first nonzero B-spline.
        ``chunk_index`` places each window entry in a row of both parts,
        each N + window long (see ``_chunk_sums``).
        """
        first, w = self.y_gather[:, 0], self.w[:-1]
        n, K1 = self.y_gather.shape
        L = self.chunk = min(_CHUNK, n)
        chunk, pos = np.divmod(np.arange(n), L)
        rel = first - first[::L][chunk]                 # within the chunk's window
        band = rel.max() + K1
        W = self.chunk_weight = np.zeros((3, chunk[-1] + 1, L, band + rel.max() + 1))
        W[:, chunk[:, None], pos[:, None], rel[:, None] + np.arange(K1)] = (
            w[:, None] * self.y_rows * np.array([1.0, -1.0, 1.0])[:, None, None])
        W[2, chunk, pos, band + rel] = w
        k = np.arange(W.shape[3])
        self.chunk_index = first[::L, None] + np.where(k < band, k, self.N + len(k) + k - band)

    def row(self, z: float) -> Discretization:
        """The discretization of the one row z (0 <= z < pi/2), sharing the
        outer-node rows and the P table but not the kept pass or the
        workspace."""
        d = copy.copy(self)
        d._set_rows(np.array([z], dtype=float))
        return d

    def _primitive(self, at: np.ndarray) -> np.ndarray:
        """The rows of P on the coefficients at the points ``at``: the table's
        row at the table point a at or below each, plus GK15 panels from a
        up to a point that is not a table point.  A panel
        is no wider than its distance from the pole of sec^2 at pi/2: one
        panel below the last table point, halvings of the distance past it."""
        i = self.pts.searchsorted(at, side="right") - 1
        A = self.P[i]
        for n in np.flatnonzero(self.pts[i] < at):
            gap, rest = HALF_PI - self.pts[i[n]], HALF_PI - at[n]
            cuts = HALF_PI - gap * 0.5 ** np.arange(1 + int(np.log2(gap / rest)))
            A[n] += _coef_panels(self.sm, cuts, np.append(cuts[1:], at[n])).sum(axis=0)
        return A

    def _set_rows(self, z: np.ndarray) -> None:
        """The coefficient rows, blocks, band weights and workspace of rows z;
        no pass is kept for them yet."""
        sm, yi = self.sm, self.yi
        self.z, self._last = z, None
        self.z_rows = np.array([sm.on_coef(z, 0), np.cos(z)[:, None] ** 2 * sm.on_coef(z, 1),
                                self._primitive(z)])

        # per block: its rows, geometry and slice of the expansion entries
        nblocks = -(-2 * len(z) * len(yi) // _BLOCK_PAIRS)
        cuts = [len(z) * k // nblocks for k in range(nblocks + 1)]
        self.blocks, entries, n = [], [], 0
        for r0, r1 in zip(cuts[:-1], cuts[1:]):
            r = slice(r0, r1)
            g = _pair_geometry(z[r], yi, self.spacing)
            i, j = np.divmod(g.flat % g.c[0].size, len(yi))
            self.blocks.append((r, g, slice(n, n + len(i))))
            entries.append((r0 + i, j, g.m, g.d2))
            n += len(i)
        self.work = _aligned(_SLOTS, 2 * -(-len(z) // nblocks) * len(yi))
        # _series is linear in the spline derivatives, so on the B-spline
        # rows of each order at an entry's midpoint it gives each quotient's
        # weights on the coefficients first..first+4 of that entry
        i, j, m, d2 = (np.concatenate(a) for a in zip(*entries))
        local = [sm.local(m, nu) for nu in range(_SERIES_DERIVS)]
        first = local[0][1]                     # the same for every order
        self.band_weight = _series(m[:, None], d2[:, None], [rows for rows, _ in local])
        self.band_gather = first[:, None] + np.arange(local[0][0].shape[1])
        self.band_column = self.w[j]
        self.band_index = (i[:, None] * len(self.coef) + self.band_gather).ravel()

    def _passes(self, values):
        """Per row block: (rows, entry slice, geometry, kernel inputs), each
        input a fixed map of the spline coefficients a = coef @ values: dense
        rows at the rows, local weights at the outer nodes and for the
        expansion quotients, and b = a[-1]."""
        a = self.coef @ np.asarray(values, dtype=float)
        kz, uz, Pz = (self.z_rows @ a)[:, :, None]
        ky, uy, Py = np.einsum("qyk,yk->qy", self.y_rows, a[self.y_gather])
        # the whole integrals of the B-splines before each node's first
        whole = np.zeros(self.N + 1)
        np.cumsum(self.support_integral * a, out=whole[1:])
        Py += whole[self.y_gather[:, 0]]
        band = np.einsum("qek,ek->qe", self.band_weight, a[self.band_gather])
        b = a[-1]
        for r, geo, e in self.blocks:
            yield r, e, geo, {"kz": kz[r], "uz": uz[r], "ky": ky, "uy": uy,
                              "D": Py - Pz[r], "b": b, "band": band[:, e]}

    def _chunk_sums(self, X: np.ndarray) -> np.ndarray:
        """The partials ``X`` in ky, du and D (3, rows, ny) of a block summed
        into coefficient space with ``chunk_weight``: per row, the
        coefficients, and then the partials in D summed by the first
        nonzero B-spline of their node, each of N + window entries."""
        W, L = self.chunk_weight, self.chunk
        _, nr, ny = X.shape
        full = ny - ny % L
        out = np.empty((3, W.shape[1], nr, W.shape[3]))
        np.matmul(X[:, :, :full].reshape(3, nr, -1, L).transpose(0, 2, 1, 3),
                  W[:, :full // L], out=out[:, :full // L])
        if full < ny:
            np.matmul(X[:, :, full:], W[:, -1, :ny - full], out=out[:, -1])
        width = self.N + W.shape[3]
        out = out.sum(axis=0)
        at = self.chunk_index[:, None, :] + (2 * width * np.arange(nr))[:, None]
        return np.bincount(at.ravel(), out.ravel(), minlength=2 * width * nr).reshape(nr, 2, -1)

    def _pass(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The residual at the rows z and its Jacobian C in the spline
        coefficients, shape (rows, N), one ``_kernel`` pass per row block.

        The residual is the transport term sin z cos z k'(z) = tan z u(z)
        plus the outer rule ``w`` on the integrand's values.  C's z-terms
        are the partials' row sums under ``w``, taken per block, times
        ``z_rows`` after the last block, b's in column N-1.  Its y-terms
        (``_chunk_sums``) and the band term are added as sums in the same
        coefficients.
        """
        N, w, nz = self.N, self.w, len(self.z)
        out = np.empty(nz)
        sums = np.zeros((nz, 2, N + self.chunk_weight.shape[3]))
        quot = np.empty(self.band_weight.shape[:2])
        # the z-terms' row sums, in kz, uz, Pz (which D holds negated) and b
        zsums = np.empty((4, nz))
        ny = len(self.yi)
        for r, e, geo, inputs in self._passes(values):
            nr, tan_z = geo.x.shape[0], geo.x[:, 0]
            work = self.work[:, :2 * nr * ny].reshape(_SLOTS, 2, nr, ny)
            pairs, end, p = _kernel(geo, work, **inputs)
            out[r] = tan_z * inputs["uz"][:, 0] + _outer_integral(w, self.z[r], self.yi,
                                                                  pairs, end)
            zsums[:, r] = (p.kz @ w[:-1] + w[-1] * p.end_kz,
                           p.du @ w[:-1] + w[-1] * p.end_uz + tan_z,
                           -(p.D @ w[:-1]), w[-1] * p.end_b)
            sums[r] += self._chunk_sums(work[:3, 0])
            quot[:, e] = p.band

        C = sums[:, 0, :N] + np.bincount(
            self.band_index, np.einsum("qe,qek->ek", quot * self.band_column,
                                       self.band_weight).ravel(),
            minlength=nz * N).reshape(nz, N)
        # P holds all of B-spline c's integral at the nodes whose first
        # nonzero B-spline comes after c
        past = np.cumsum(sums[:, 1, N - 1:0:-1], axis=1)[:, ::-1]
        C[:, :-1] += past * self.support_integral[:-1]
        C += np.einsum("qi,qic->ic", zsums[:3], self.z_rows)
        C[:, -1] += zsums[3]          # b = a[-1]
        return out, C

    def residual(self, values) -> np.ndarray:
        """The residual at the rows z at nodal values ``values``.  The pass
        also gives the Jacobian there in coefficient space, which is kept
        for ``jacobian``."""
        values = np.array(values, dtype=float)
        self._last = None             # a pass that raises keeps no Jacobian
        # _outer_integral raises on a non-finite integrand and lm_solve
        # checks J, so numpy's overflow warnings on the way are not shown
        with np.errstate(over="ignore", invalid="ignore"):
            out, C = self._pass(values)
        self._last = (values, C)
        return out

    def jacobian(self, values) -> np.ndarray:
        """Derivative of ``residual_vector(...).stacked()`` in the nodal values,
        shape (N+1, N): the kept coefficient-space one when ``values`` are
        those of the last ``residual``, else a new pass's (which raises
        QuadratureError where ``residual`` does), times ``coef``, with the
        boundary rows.  ``lm_solve`` checks it is finite, so numpy's
        overflow warnings in the product are not shown."""
        last = self._last
        if last is None or not np.array_equal(last[0], values):
            self.residual(values)
            last = self._last
        J = np.zeros((self.N + 1, self.N))
        with np.errstate(over="ignore", invalid="ignore"):
            np.matmul(last[1], self.coef, out=J[:len(self.z)])
        J[-2, 0] = J[-1, -1] = 1.0    # bc0 = values[0], bc_end = values[-1] - s
        return J


def _coef_panels(sm: SplineMaps, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The integrals of sec^2(t) B_c(t) over [lo_i, hi_i] for every
    B-spline c, one GK15 panel each (0 <= lo_i)."""
    nodes, wts = gk15_rule(lo, hi)
    rows, first = sm.basis(nodes.ravel(), 0)
    N = sm.coef.shape[1]
    first += np.arange(len(lo)).repeat(nodes.shape[1]) * N
    at = first[:, None] + np.arange(rows.shape[1])
    w = (wts / np.cos(nodes) ** 2).reshape(-1, 1) * rows
    return np.bincount(at.ravel(), w.ravel(), minlength=len(lo) * N).reshape(len(lo), N)


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
    rows, band weights, kernel and outer weights of ``residual_vector``, whose
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
