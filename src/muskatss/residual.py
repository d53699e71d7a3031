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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grid_spline import HALF_PI, Profile
from .quadrature import (
    QuadConfig,
    QuadratureError,
    cumulative_gk15,
    gk15_adaptive,
)

__all__ = [
    "ResidualConfig",
    "ResidualVector",
    "delta_tilde",
    "residual_at",
    "residual_vector",
]


@dataclass(frozen=True)
class ResidualConfig:
    """Discretization knobs for the residual evaluation.

    outer_nodes: trapezoid nodes for the y-integrals (None -> 10*N).
    inner_quad: tolerance for the sliding-average integrals.  The
        residual's antiderivative tables use min(abs_tol, 1e-12) and
        nothing else; rel_tol and max_subdivisions serve only delta_tilde.
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


class _ResidualEngine:
    """Vectorized evaluation of the equation at many z for one profile."""

    def __init__(self, profile: Profile, cfg: ResidualConfig):
        self.profile = profile
        self.cfg = cfg
        N = profile.grid.N
        M = cfg.resolve_outer_nodes(N)
        self.y = np.linspace(0.0, HALF_PI, M)
        self.hy = self.y[1] - self.y[0]
        self.band = cfg.split_halfwidth_z * profile.grid.spacing
        self.end_band = cfg.split_halfwidth_end * profile.grid.spacing
        ev = profile._ev
        yi = self.y[:-1]
        self.yi = yi
        self.cy = np.cos(yi)
        self.sy = np.sin(yi)
        self.sec2y = 1.0 / (self.cy * self.cy)
        self.ky = ev(yi, 0)
        self.uy = ev(yi, 1) * self.cy * self.cy
        self.b_end = float(ev(HALF_PI, 0))

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

    def _series(self, m, d):
        """Local expansions of the three quotients about midpoint m.

        Returns (dq_value, dq_deriv, avg): the quotients
        (k(z)-k(y))/(tan z - tan y), (u(z)-u(y))/(tan z - tan y) with
        u = k' cos^2, and (P(y)-P(z))/(tan y - tan z), all to O(d^2) or
        O(d^4) depending on series_order, where d = (z - y)/2.
        """
        ev = self.profile._ev
        c2 = np.cos(m) ** 2
        sec2 = 1.0 / c2
        k1 = ev(m, 1)
        k2 = ev(m, 2)
        u1 = k2 * c2 - k1 * np.sin(2 * m)
        km = ev(m, 0)
        if self.cfg.series_order >= 2:
            d2 = d * d
            s2m = np.sin(2 * m)
            c2m = np.cos(2 * m)
            k3 = ev(m, 3)
            k4 = ev(m, 4)
            den = 1.0 + (3 * sec2 - 2) * d2 / 3.0
            num_k = k1 + k3 * d2 / 6.0
            # third derivative of u = k' cos^2
            u3 = k4 * c2 - 3 * k3 * s2m - 6 * k2 * c2m + 4 * k1 * s2m
            num_u = u1 + u3 * d2 / 6.0
            # (P' = sec^2 k):  P''' / sec^2 = 2(3 sec^2 - 2) k + 4 tan k' + k''
            num_p = km + (2 * (3 * sec2 - 2) * km + 4 * np.tan(m) * k1 + k2) * d2 / 6.0
            return c2 * num_k / den, c2 * num_u / den, num_p / den
        return c2 * k1, c2 * u1, km

    def integrand_matrix(self, z: np.ndarray, Pz: np.ndarray, Py: np.ndarray) -> np.ndarray:
        """Outer-integrand values, shape (len(z), outer_nodes), all z < pi/2."""
        ev = self.profile._ev
        yi, cy, sy, sec2y = self.yi, self.cy, self.sy, self.sec2y
        z = z[:, None]
        cz, sz = np.cos(z), np.sin(z)
        x = np.tan(z)
        kz = ev(z, 0)
        uz = ev(z, 1) * cz * cz
        b = self.b_end
        D = Py[None, :] - Pz[:, None]
        s_minus = np.sin(z - yi)
        s_plus = np.sin(z + yi)

        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dq_k_m = (kz - self.ky) * cz * cy / s_minus
            dq_u_m = (uz - self.uy) * cz * cy / s_minus
            dq_k_p = (kz + self.ky) * cz * cy / s_plus
            dq_u_p = (uz - self.uy) * cz * cy / s_plus
            avg_p = -D * cz * cy / s_minus
            avg_m = -D * cz * cy / s_plus

        # diagonal band y ~ z; the sec^2 d^2 guard turns the expansion
        # off where tan varies too fast across the band (only possible
        # next to pi/2, where direct evaluation is accurate anyway)
        m = 0.5 * (yi + z)
        d = 0.5 * (z - yi)
        near = (np.abs(d) < 0.5 * self.band) & (d * d / np.cos(m) ** 2 < 0.01)
        if np.any(near):
            dqk, dqu, avg = self._series(m[near], d[near])
            dq_k_m[near] = dqk
            dq_u_m[near] = dqu
            avg_p[near] = avg
        # mirror band y ~ -z (active only near z = 0): the plus
        # quotients are the minus quotients of the reflected point -z
        m2 = 0.5 * (yi - z)
        d2 = 0.5 * (z + yi)
        near2 = (np.abs(d2) < 0.5 * self.band) & (d2 * d2 / np.cos(m2) ** 2 < 0.01)
        if np.any(near2):
            dqk, dqu, avg = self._series(m2[near2], d2[near2])
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
            t2_paired = (uz - self.uy) * cz * cz * bracket / (s_minus * s_plus)
        paired = (yi > HALF_PI - self.end_band) & ~(near | near2)
        t2 = np.where(paired,
                      t2_paired,
                      dq_u_m * sec2y * Fp + dq_u_p * sec2y * Fm)
        t35 = -2.0 * (dq_k_m * dq_k_m * Gp + dq_k_p * dq_k_p * Gm) * sec2y

        rows = np.empty((z.shape[0], len(yi) + 1))
        rows[:, :-1] = (t2 + t35) / np.pi
        # endpoint y = pi/2: analytic limit of the paired integrand
        Fb = 1.0 / (1.0 + b * b)
        rows[:, -1] = ((-2.0 * x * uz * (1.0 - b * b) + 8.0 * b * b * kz)
                       * Fb * Fb / np.pi)[:, 0]
        return rows

    def evaluate(self, zpts: np.ndarray) -> np.ndarray:
        """Residual at each z in zpts (z = pi/2 rows are identically 0)."""
        zpts = np.asarray(zpts, dtype=float)
        out = np.zeros(len(zpts))
        inner = zpts < HALF_PI
        if not np.any(inner):
            return out
        zin = zpts[inner]
        Pz, Py = self.primitive(zin)
        rows = self.integrand_matrix(zin, Pz, Py)
        if not np.all(np.isfinite(rows)):
            i, j = np.unravel_index(int(np.argmax(~np.isfinite(rows))), rows.shape)
            raise QuadratureError(
                f"non-finite outer integrand at (z={zin[i]}, y={self.y[j]})",
                interval=(float(zin[i]), float(self.y[j])),
            )
        integral = self.hy * (np.sum(rows, axis=1) - 0.5 * (rows[:, 0] + rows[:, -1]))
        transport = np.sin(zin) * np.cos(zin) * self.profile._ev(zin, 1)
        out[inner] = transport + integral
        return out


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
    interior = _ResidualEngine(profile, cfg).evaluate(profile.grid.nodes[1:])
    return ResidualVector(
        interior=interior,
        bc0=float(profile.values[0]),
        bc_end=float(profile.values[-1] - profile.s),
    )
