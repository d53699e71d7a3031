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

The pair integrand is one elementwise kernel, ``_integrand``, of the
value-dependent inputs k, u = k' cos^2 and P at z and at y, and the three
expansion quotients at the near pairs of both halves.  The geometry
(``_pair_geometry``) depends only on N and the outer nodes, and so do the
products of it the kernel needs: the quotients' factors
cos z cos y / sin(+-z - y).  Every input is a fixed linear map of the
spline coefficients a = coef @ values, so a cached ``Discretization``
builds its weights once per (N, ResidualConfig): the B-spline rows of k, u
and P at the rows (dense) and at the outer nodes (the K+1 local ones),
P's from one table in B-spline coefficient space, the integrals of
sec^2 B_c with one GK15 panel per gap; k(pi/2) is a's last entry.  The
expansion quotients are fixed weights on a (``_series`` applied to the
B-spline rows at the midpoints).  The outer rule is one weight vector: the
trapezoid weights times the column factor sec^2 y / pi at the outer nodes
but pi/2, and hy/2 at pi/2, whose analytic limit (``_end_values``) holds
the factor.  ``residual_vector`` is those weights, each applied once to
a, the terms local to a row (the transport term and the endpoint limit)
formed once over all rows, and one kernel pass (``_kernel``) per block of
rows, in a reused aligned workspace.  The kernel builds the quotients of
both halves once, in one sweep, and forms from them the pair values, in
the operations of ``_integrand``, and their partials in the pair inputs,
from a hand-derived gradient.  The partials in the row-local terms
(``_end_partials``) and in the expansion quotients (``_band_partials``)
are formed once per pass.  The partials under the same outer weights,
summed through the same rows, are the Jacobian in coefficient space; one
product with the cardinal map takes it to the nodal values.  So one pass
(``Discretization.linearize``, ``residual_vector(..., jacobian=True)``)
gives the residual and the Jacobian at a point, and hands both back; the
``Discretization`` keeps no pass.  A value-only pass (``residual``, the
default of ``residual_vector``) forms no partials; its residual is the
full pass's, bit for bit.  A complex step through ``_integrand`` and
``_end_values`` is the tests' check of the gradient.  ``residual_at`` is
the one-row discretization of its z, sharing the outer-node rows and the
P table, by a value-only pass.  ``delta_tilde`` is the sliding average
itself, by adaptive GK15.
"""

from __future__ import annotations

import copy
import functools
import os
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
    """Equation residuals at z_1..z_{N-1} plus the two boundary rows, and,
    when asked for, the Jacobian of ``stacked()`` in the nodal values."""

    interior: np.ndarray
    bc0: float
    bc_end: float
    jacobian: np.ndarray | None = None

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

    The pairs of both halves (the row z, then its reflection -z) are
    stacked on a leading axis, shape (2, nz, ny), against which the
    kernel's inputs at the rows, (nz, 1), and at the outer nodes, (ny,),
    broadcast.
    ``c`` = cos z cos y / sin(+-z - y), zeroed on the near pairs, whose
    flat row-major indices in the stacked shape are ``flat`` (half 0's
    first) and whose midpoints ``m`` and squared half-distances ``d2``
    feed the expansions.
    """

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
    return _Geometry(c=c, flat=flat, m=m.take(flat), d2=dd.take(flat))


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


def _quotients(g: _Geometry, kz, du, ky, Pz, Py, band, out):
    """The quotients (dq_k, dq_u, avg) of both halves at the pairs of ``g``,
    and F = 1/(1 + avg^2), written to the four stacked arrays ``out``.

    With x = +-z the row of a half (k odd, u = k' cos^2 and P even): the
    quotients of k(x) - k(y), u(x) - u(y) and P(x) - P(y) = P(z) - P(y)
    over tan x - tan y.  On the near pairs (``flat``) they are ``band``, the
    expansion quotients.
    """
    dq_k, dq_u, avg, F = out
    # the (rows, 1) operands are copied in, not broadcast through the
    # subtraction, whose inner loop would then read them with stride 0
    np.copyto(dq_k, kz * _SIGNS)
    dq_k -= ky
    dq_k *= g.c
    np.multiply(du, g.c, out=dq_u)
    np.copyto(avg, Pz)
    avg -= Py
    avg *= g.c
    for q, v in zip((dq_k, dq_u, avg), band):
        np.put(q, g.flat, v)
    np.multiply(avg, avg, out=F)
    F += 1.0
    np.divide(1.0, F, out=F)
    return out


def _end_values(x, kz, uz, b):
    """The integrand's analytic limit at the endpoint y = pi/2, where its
    two first-derivative terms diverge, at the rows x = tan z, with k and u
    there and b = k(pi/2); the column factor included."""
    Fb = 1.0 / (1.0 + b * b)
    return (-2.0 * x * uz * (1.0 - b * b) + 8.0 * b * b * kz) * Fb * Fb / np.pi


def _end_partials(x, kz, uz, b):
    """The partials of ``_end_values`` in kz, uz and b, from
    (1 - b^2) Fb^2 = (2Fb - 1) Fb and b^2 Fb^2 = (1 - Fb) Fb."""
    Fb = 1.0 / (1.0 + b * b)
    return (8.0 * (1.0 - Fb) * Fb / np.pi, -2.0 * x * (2.0 * Fb - 1.0) * Fb / np.pi,
            ((-2.0 * x * uz * (4.0 * Fb - 1.0) + 8.0 * kz * (1.0 - 2.0 * Fb))
             * (-2.0 * b * Fb * Fb) / np.pi))


def _band_partials(band):
    """The partials of a half's value F (dq_u - 2 dq_k^2 avg F) in its three
    expansion quotients (dq_k, dq_u, avg) at the near pairs (see
    ``_kernel``); the pair value takes half 1's with a minus sign."""
    kn, un, an = band
    Fn = 1.0 / (1.0 + an * an)
    Gn = an * Fn
    return np.array([kn * Gn * Fn * -4.0, Fn,
                     (Gn * un + kn * kn * Fn * (4.0 * Fn - 3.0)) * Fn * -2.0])


def _integrand(g: _Geometry, kz, uz, Pz, ky, uy, Py, band):
    """The outer integrand's values at the pairs of ``g``.

    The inputs are the value-dependent quantities: k, u = k' cos^2 and P
    at z, shape (rows, 1), and at y, and the expansion quotients
    (dq_k, dq_u, avg) at the near pairs of both halves, half 0's first.
    Every value is an elementwise function of them, so complex inputs give
    complex-step derivatives (the tests' check of ``_kernel``'s partials).
    At each pair: half 0's value minus half 1's, each F (dq_u - 2 dq_k^2
    avg F), the integrand without its column factor sec^2 y / pi (the
    outer weights hold it).  It is ``_kernel`` without the partials, in a
    new array of the inputs' dtype.
    """
    return _kernel(g, _fresh_work(g, kz, uz, Pz, ky, uy, Py, band),
                   kz, uz, Pz, ky, uy, Py, band, partials=False)[0]


class _Partials(NamedTuple):
    """Partials of ``_integrand``'s values (see ``_kernel``)."""

    kz: np.ndarray
    ky: np.ndarray
    du: np.ndarray
    D: np.ndarray


# stacked arrays (2, rows, ny) of one row block that a kernel pass holds at once
_SLOTS = 6


def _fresh_work(g: _Geometry, *inputs) -> np.ndarray:
    """A new kernel workspace for ``g``, of the inputs' dtype."""
    return np.empty((_SLOTS, *g.c.shape), np.result_type(*inputs))


def _kernel(g: _Geometry, work, kz, uz, Pz, ky, uy, Py, band, partials=True):
    """The values of ``_integrand`` and, at real inputs, their partials, in
    one sweep over the quotients of both halves, in the workspace ``work``.

    ``work`` holds ``_SLOTS`` stacked arrays of the pair shape (2, rows,
    ny).  du = uz - uy goes to slot 2's half 0, the quotients (dq_k, dq_u,
    avg, F) to slots 3, 0, 1 and 4, G = avg F over avg, B = dq_k G to slot
    2 (a factor of the dq_k partial), and each half's value
    F (dq_u - 2 B dq_k) to slot 5, or over B without the partials; the pair
    values end in that slot's half 0.  The values are ``_integrand``'s, with
    each array's operations in the same order.

    Returns (pairs, partials), partials None unless ``partials``: at the
    pairs, in kz, ky, du = uz - uy (u enters only as that difference, so
    the uy partial is minus the du one) and D = Py - Pz (P enters only as
    that difference); the last three are ``work[:3, 0]``.  The pair value
    is half 0's value minus half 1's, and the quotients are c times
    +-kz - ky, du and -D: the halves' partials combine with those signs.
    On the near pairs the quotients are ``band``'s, whose partials
    ``_band_partials`` gives; the generic ones are 0 there.
    """
    du = work[2, 0]
    np.copyto(du, uz)               # not broadcast through the subtraction
    du -= uy
    dq_k, dq_u, avg, F = _quotients(g, kz, du, ky, Pz, Py, band,
                                    out=(work[3], work[0], work[1], work[4]))
    G = avg
    G *= F
    B = np.multiply(dq_k, G, out=work[2])
    v = np.multiply(B, dq_k, out=work[5] if partials else B)
    v *= -2.0
    v += dq_u
    v *= F
    v[0] -= v[1]
    if not partials:
        return v[0], None

    # each half's value in its quotients: in dq_u F, in dq_k -4 B F, and in
    # avg -2 F (G dq_u + dq_k^2 F (4F - 3)), from F' = -2 G F and
    # (avg F^2)' = F^2 (4F - 3) (as avg^2 F = 1 - F), with |G| <= 1/2; they
    # stay finite wherever the values do
    dq_u *= G
    Q = np.multiply(F, 4.0, out=G)
    Q -= 3.0
    Q *= F
    Q *= dq_k
    Q *= dq_k
    Q += dq_u
    # through the generic quotients, whose factors c are 0 where the band
    # expansions replace them; the constants apply to the halves' sums
    Fc = F
    Fc *= g.c
    Q *= Fc
    B *= Fc
    d_ky = np.subtract(B[0], B[1], out=work[0, 0])
    d_ky *= 4.0
    d_kz = np.add(B[0], B[1], out=work[3, 0])
    d_kz *= -4.0
    d_D = np.subtract(Q[0], Q[1], out=work[2, 0])
    d_D *= 2.0
    d_du = np.subtract(Fc[0], Fc[1], out=work[1, 0])
    return v[0], _Partials(d_kz, d_ky, d_du, d_D)


def _outer_nodes(N: int, cfg: ResidualConfig) -> tuple[np.ndarray, float]:
    """The outer trapezoid nodes but pi/2, and their spacing."""
    y = np.linspace(0.0, HALF_PI, cfg.resolve_outer_nodes(N))
    return y[:-1], y[1] - y[0]


def _outer_integral(w, z, yi, pairs, end) -> np.ndarray:
    """The outer rule in y at the rows z: the weights ``w`` on the
    integrand's values ``pairs`` at the outer nodes ``yi`` but pi/2, and
    its last entry on the endpoint limits ``end`` (``_end_values``).  A non-finite
    integrand raises QuadratureError naming its (z, y), so numpy's
    overflow warnings on the way are not shown.  Every weight is positive,
    so such a value makes its row's sum non-finite, and only those rows
    are searched; a row of finite values whose sum overflows is returned.
    Each row's sum takes no BLAS call, so it is the same in any row block
    at any thread count.
    """
    rows = np.einsum("ij,j->i", pairs, w[:-1]) + w[-1] * end
    odd = np.flatnonzero(~np.isfinite(rows))
    if odd.size:
        bad = ~np.isfinite(np.column_stack([pairs[odd], end[odd]]))
        if bad.any():
            i, j = np.unravel_index(int(np.argmax(bad)), bad.shape)
            i, y = odd[i], np.append(yi, HALF_PI)[j]
            raise QuadratureError(f"non-finite outer integrand at (z={z[i]}, y={y})",
                                  interval=(float(z[i]), float(y)))
    return rows


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
    ``row``) and their ``tan_z``, in row ``blocks``, each with its pair
    geometry, and fixed weights from the spline coefficients
    a = coef @ values to every input of the outer integrand.  ``P`` is a
    table in B-spline coefficient space at ``pts`` (0, the interior nodes
    and the outer nodes): the integrals of sec^2 B_c up to each point for
    every B-spline c, from one GK15 panel per gap.  ``z_rows`` holds the
    rows of k, u = k' cos^2 and P on all the coefficients at the rows, P's
    the table's rows plus panels up to a row that is not a table point
    (``_primitive``).  b = k(pi/2) is a's last entry: the last B-spline is
    the only one nonzero at pi/2.  At the outer nodes ``y_rows`` holds the
    rows of k, u and P on the K+1 coefficients ``y_gather`` whose
    B-splines are nonzero there (local support), P's being the table's
    entries there.  Every B-spline c whose support ends at or below a node
    has all of its integral ``support_integral[c]`` (the table's last row)
    in P there, which a cumulative sum over the coefficients adds.  The
    expansion quotients at the near pairs are fixed weights
    ``band_weight`` (per quotient, entry and coefficient) on the five
    coefficients ``band_gather`` whose B-splines can be nonzero at an
    entry's midpoint; each block's entries, half 0's then half 1's, are
    one slice.  The outer rule is the one weight vector ``w``: the
    trapezoid weight times the column factor sec^2 y / pi at each outer
    node but pi/2 (halved at y = 0), then hy/2 at pi/2.

    One pass (``_pass``) gives the residual and its Jacobian in coefficient
    space, C, at the same values (a value-only pass the residual alone, with
    no partials formed).  It forms the terms local to a row once over all
    rows: the transport term, the endpoint limit and, for C, that limit's
    partials and the partials in the expansion quotients.  Its kernel runs
    per block in the workspace ``work``: ``_SLOTS`` 64-byte aligned
    stacked arrays (2, rows, ny) of the largest block, which every block
    and every pass reuses.  The Jacobian's y-terms are summed in
    coefficient space through the same local rows under the same weights:
    per chunk of ``_CHUNK`` consecutive outer nodes, one batched product of
    the partials in ky, du and D with the fixed ``chunk_weight`` onto the
    chunk's window of coefficients, whose second part sums the partials in
    D by first coefficient for the whole integrals.  The band term, the
    partials in the expansion quotients times their column weight
    ``band_column`` (the outer weight, negated on half 1's entries) and
    the quotient weights, is summed into coefficient space by
    ``band_index`` with one ``np.bincount``, and the z-terms through
    ``z_rows``.  ``linearize`` returns the residual and C taken to the
    nodal values by one product with ``coef``; ``residual`` is a value-only
    pass.  Nothing of a pass is kept.  A discretization whose pair geometry
    and ``P`` table alone would not fit in physical memory raises
    MemoryError before any array is built.
    """

    def __init__(self, N: int, cfg: ResidualConfig):
        ny = cfg.resolve_outer_nodes(N)
        need = 8 * (2 * (N - 2) * ny + (N + ny) * N)     # bytes: geometry and P
        if need > _physical_memory():
            raise MemoryError(f"N={N} with {ny} outer nodes needs about "
                              f"{need / 2 ** 30:.3g} GiB for its discretization")
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
        outer-node rows and the P table but not the workspace."""
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
        """The coefficient rows, blocks, band weights and workspace of rows z."""
        sm, yi = self.sm, self.yi
        self.z, self.tan_z = z, np.tan(z)
        self.z_rows = np.array([sm.on_coef(z, 0), np.cos(z)[:, None] ** 2 * sm.on_coef(z, 1),
                                self._primitive(z)])

        # per block: its rows, geometry and slice of the expansion entries
        nblocks = -(-2 * len(z) * len(yi) // _BLOCK_PAIRS)
        cuts = [len(z) * k // nblocks for k in range(nblocks + 1)]
        self.blocks, entries, n = [], [], 0
        for r0, r1 in zip(cuts[:-1], cuts[1:]):
            r = slice(r0, r1)
            g = _pair_geometry(z[r], yi, self.spacing)
            half, at = np.divmod(g.flat, g.c[0].size)
            i, j = np.divmod(at, len(yi))
            self.blocks.append((r, g, slice(n, n + len(i))))
            entries.append((r0 + i, j, half, g.m, g.d2))
            n += len(i)
        self.work = _aligned(_SLOTS, 2 * -(-len(z) // nblocks) * len(yi))
        # _series is linear in the spline derivatives, so on the B-spline
        # rows of each order at an entry's midpoint it gives each quotient's
        # weights on the coefficients first..first+4 of that entry
        i, j, half, m, d2 = (np.concatenate(a) for a in zip(*entries))
        local = [sm.local(m, nu) for nu in range(_SERIES_DERIVS)]
        first = local[0][1]                     # the same for every order
        self.band_weight = _series(m[:, None], d2[:, None], [rows for rows, _ in local])
        self.band_gather = first[:, None] + np.arange(local[0][0].shape[1])
        self.band_column = _SIGNS[half, 0, 0] * self.w[j]     # half 1's enter negated
        self.band_index = (i[:, None] * len(self.coef) + self.band_gather).ravel()

    def _inputs(self, values):
        """The kernel's inputs, each a fixed map of the spline coefficients
        a = coef @ values: k, u and P at every row (dense rows) and at the
        outer nodes (local weights), the expansion quotients at every near
        pair (local weights), and b = a[-1]."""
        a = self.coef @ np.asarray(values, dtype=float)
        kz, uz, Pz = self.z_rows @ a
        ky, uy, Py = np.einsum("qyk,yk->qy", self.y_rows, a[self.y_gather])
        # the whole integrals of the B-splines before each node's first
        whole = np.zeros(self.N + 1)
        np.cumsum(self.support_integral * a, out=whole[1:])
        Py += whole[self.y_gather[:, 0]]
        band = np.einsum("qek,ek->qe", self.band_weight, a[self.band_gather])
        return kz, uz, Pz, ky, uy, Py, band, a[-1]

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

    def _pass(self, values: np.ndarray, jacobian: bool = True):
        """The residual at the rows z and, if ``jacobian``, its Jacobian C
        in the spline coefficients, shape (rows, N), else None, one
        ``_kernel`` pass per row block.

        The residual is the transport term sin z cos z k'(z) = tan z u(z)
        plus the outer rule ``w`` on the pair values and, at pi/2, on the
        endpoint limit, which is formed once over all rows, as are its
        partials and those in the expansion quotients.  C's z-terms are the
        pair partials' row sums under ``w``, taken per block, and the
        endpoint partials, times ``z_rows`` after the last block, b's in
        column N-1.  Its y-terms (``_chunk_sums``) and the band term are
        added as sums in the same coefficients.
        """
        N, w, nz, ny, tan_z = self.N, self.w, len(self.z), len(self.yi), self.tan_z
        kz, uz, Pz, ky, uy, Py, band, b = self._inputs(values)
        out = tan_z * uz                # the transport term; each block adds its integral
        end = _end_values(tan_z, kz, uz, b)
        if jacobian:
            sums = np.zeros((nz, 2, N + self.chunk_weight.shape[3]))
            # the z-terms' row sums, in kz, uz and Pz (which D holds negated)
            zsums = np.empty((3, nz))
        for r, geo, e in self.blocks:
            work = self.work[:, :2 * (r.stop - r.start) * ny].reshape(_SLOTS, 2, -1, ny)
            pairs, p = _kernel(geo, work, kz[r, None], uz[r, None], Pz[r, None], ky, uy, Py,
                               band[:, e], partials=jacobian)
            out[r] += _outer_integral(w, self.z[r], self.yi, pairs, end[r])
            if jacobian:
                zsums[:, r] = p.kz @ w[:-1], p.du @ w[:-1], -(p.D @ w[:-1])
                sums[r] += self._chunk_sums(work[:3, 0])
        if not jacobian:
            return out, None

        end_kz, end_uz, end_b = _end_partials(tan_z, kz, uz, b)
        zsums[0] += w[-1] * end_kz
        zsums[1] += w[-1] * end_uz
        zsums[1] += tan_z               # the transport term's
        C = sums[:, 0, :N] + np.bincount(
            self.band_index, np.einsum("qe,qek->ek", _band_partials(band) * self.band_column,
                                       self.band_weight).ravel(),
            minlength=nz * N).reshape(nz, N)
        # P holds all of B-spline c's integral at the nodes whose first
        # nonzero B-spline comes after c
        past = np.cumsum(sums[:, 1, N - 1:0:-1], axis=1)[:, ::-1]
        C[:, :-1] += past * self.support_integral[:-1]
        C += np.einsum("qi,qic->ic", zsums, self.z_rows)
        C[:, -1] += w[-1] * end_b          # b = a[-1]
        return out, C

    def residual(self, values) -> np.ndarray:
        """The residual at the rows z at nodal values ``values``, by a
        value-only pass: ``linearize``'s residual bit for bit, with no
        partials formed."""
        # _outer_integral raises on a non-finite integrand, so numpy's
        # overflow warnings on the way are not shown
        with np.errstate(over="ignore", invalid="ignore"):
            return self._pass(np.asarray(values, dtype=float), jacobian=False)[0]

    def linearize(self, values) -> tuple[np.ndarray, np.ndarray]:
        """The residual at the rows z and the derivative of
        ``residual_vector(...).stacked()`` in the nodal values, shape
        (N+1, N), from one pass: its coefficient-space Jacobian times
        ``coef``, with the boundary rows.  ``lm_solve`` checks J is finite,
        so numpy's overflow warnings are not shown here either."""
        J = np.zeros((self.N + 1, self.N))
        with np.errstate(over="ignore", invalid="ignore"):
            out, C = self._pass(np.asarray(values, dtype=float))
            np.matmul(C, self.coef, out=J[:len(self.z)])
        J[-2, 0] = J[-1, -1] = 1.0    # bc0 = values[0], bc_end = values[-1] - s
        return out, J


def _physical_memory() -> float:
    """The machine's physical memory in bytes; no bound where unknown."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return np.inf


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


def residual_at(profile: Profile, z: float, cfg: ResidualConfig | None = None) -> float:
    """Equation residual at a single z in [0, pi/2].

    The one row z of the discretization (``Discretization.row``): the
    rows, band weights, kernel and outer weights of ``residual_vector``, whose
    interior rows it is at the grid nodes, in a value-only pass.  At z = pi/2
    every term of the equation degenerates (the transport term carries cos z
    and the integrand limits vanish pointwise), so the row is identically
    zero.  The row at z = 0 is exactly 0 by oddness, but it is not the limit
    z -> 0+ of the rows next to it: the odd reflection gives k'' a jump at 0,
    so the two halves' band quotients at y = 0 see u'(0+-) = +-k''(0+).  For
    ``random_odd_values`` seed 1 (the tests' conftest), the row at z = 1e-300
    is 8.7e-5, 4.2e-7 and 1.7e-9 at N = 9, 33 and 129, falling like the
    interpolation error.
    """
    if cfg is None:
        cfg = ResidualConfig()
    if not 0.0 <= z <= HALF_PI:
        raise ValueError(f"z={z} outside [0, pi/2]")
    if z == HALF_PI:
        return 0.0
    d = discretization(profile.grid.N, cfg).row(z)
    return float(d.residual(profile.values)[0])


def residual_vector(profile: Profile, cfg: ResidualConfig | None = None, *,
                    jacobian: bool = False) -> ResidualVector:
    """Equation residuals at the interior collocation nodes plus boundary rows.

    Interior rows are z_i, i = 1..N-1 (the last, at pi/2, is identically
    zero because the equation degenerates there); the boundary rows are
    k(0) - 0 and k(pi/2) - s.  The interior rows come from the profile's
    nodal values through the cached ``Discretization`` of (N, cfg), by a
    value-only pass, or, with ``jacobian``, by ``linearize``, which also
    fills the ``jacobian`` field: shape (N+1, N), independent of s, each
    row exact for the discretized residual up to roundoff.  The rows are
    the same bit for bit either way.
    """
    if cfg is None:
        cfg = ResidualConfig()
    d = discretization(profile.grid.N, cfg)
    rows, J = d.linearize(profile.values) if jacobian else (d.residual(profile.values), None)
    return ResidualVector(
        interior=np.append(rows, 0.0),
        bc0=float(profile.values[0]),
        bc_end=float(profile.values[-1] - profile.s),
        jacobian=J,
    )
