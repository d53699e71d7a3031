"""Quantitative validation of the solution branch.

Distances are measured in the H^1 norm over the whole line, computed in
the compactified variable:

    ||f||^2 = 2 * int_0^{pi/2} [ f(z)^2 + (f'(z) cos^2 z)^2 ] sec^2 z dz

(the factor 2 accounts for oddness; f'(z) cos^2 z is the y-derivative).
The integrand stays bounded at pi/2 whenever the difference decays, but
a 1e-8 neighborhood of the endpoint is excluded from the quadrature and
replaced by the linearized tail, which is better behaved than asking an
adaptive rule to resolve sec^2 against a vanishing numerator.

Two references are offered: the plain arctan profile (the natural
comparison for the derivative estimate) and the kappa-corrected arctan
(the construction's actual center, the right choice for cubic-order
fits of the discrepancy).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import kappa
from .continuation import Branch
from .grid_spline import HALF_PI, Profile, QuarticSpline, fit_spline
from .quadrature import QuadConfig, cumulative_gk15, gk15_adaptive, gk15_adaptive_many

__all__ = [
    "H1Report",
    "FigureTable",
    "h1_norm",
    "h1_distance",
    "h1_distances",
    "h1_profile_distance",
    "ds_derivative_check",
    "figure_data",
    "fit_loglog_slope",
    "REFERENCES",
]

REFERENCES = ("theorem_arctan", "kappa_arctan")
_END_EXCLUSION = 1e-8
# largest |f(pi/2)| of a profile minus its reference: the H^1 integral converges
_MISMATCH_TOL = 1e-6
_H1_QUAD = QuadConfig(abs_tol=1e-12, rel_tol=1e-10, max_subdivisions=4000)


@dataclass(frozen=True)
class H1Report:
    s: float
    h1_distance: float
    linf_distance: float
    reference: str


@dataclass(frozen=True)
class FigureTable:
    """Sampled curves: an abscissa column plus one column per slope value."""

    abscissa_name: str
    abscissa: np.ndarray
    s_values: tuple
    columns: np.ndarray  # shape (len(abscissa), len(s_values))

    def to_csv(self) -> str:
        """Header and one row per abscissa, every value as ``%.15g``."""
        header = ",".join([self.abscissa_name] + [f"s={s:g}" for s in self.s_values])
        fmt = ",".join(["%.15g"] * (1 + len(self.s_values)))
        rows = np.column_stack([self.abscissa, self.columns]).tolist()
        return "\n".join([header] + [fmt % tuple(row) for row in rows]) + "\n"


def _h1_integrand(f, fprime):
    """The H^1 integrand in z of f; ``which``, if given, passes on to f and fprime."""

    def integrand(z, *which):
        c2 = np.cos(z) ** 2
        fv = f(z, *which)
        dv = fprime(z, *which) * c2
        return (fv * fv + dv * dv) / c2

    return integrand


def _h1_total(integral: float, end_slope: float) -> float:
    """The norm from the integral up to the excluded sliver and f'(pi/2)."""
    return float(np.sqrt(2.0 * (integral + end_slope ** 2 * _END_EXCLUSION)))


def h1_norm(f, fprime) -> float:
    """Full-line H^1 norm of an odd function given in compactified form.

    ``f(z)`` and ``fprime(z)`` (the z-derivative) must accept arrays on
    [0, pi/2].  The function must vanish at pi/2 for the norm to be
    finite; the excluded endpoint sliver, of width _END_EXCLUSION,
    contributes the linearized tail f'(pi/2)^2 * _END_EXCLUSION.
    """
    res = gk15_adaptive(_h1_integrand(f, fprime), 0.0, HALF_PI - _END_EXCLUSION, _H1_QUAD)
    return _h1_total(res.value, float(fprime(np.array([HALF_PI]))[0]))


def _reference_funcs(reference: str, s):
    """The references of the slopes ``s`` and their z-derivatives.

    Both are functions of (z, k): the reference of slope s[k] at z, with k
    an index or one index per point.
    """
    s = np.asarray(s, dtype=float)
    if reference == "theorem_arctan":
        slope = 2.0 * s / np.pi
        return (lambda z, k: slope[k] * z), (lambda z, k: slope[k] * np.ones_like(z))
    if reference == "kappa_arctan":
        kb = np.array([1.0 / kappa(x) for x in s])
        amp = 2.0 * s / np.pi

        def ref(z, k):
            return amp[k] * np.arctan(kb[k] * np.tan(z))

        def ref_deriv(z, k):
            c = np.cos(z)
            sn = np.sin(z)
            kbk = kb[k]
            return amp[k] * kbk / (c * c + (kbk * sn) ** 2)

        return ref, ref_deriv
    raise ValueError(f"unknown reference {reference!r}; expected one of {REFERENCES}")


def _h1_values(profiles: list, reference: str):
    """The H^1 distances of ``h1_distances`` without the sup norms, and the
    reference ref(z, k) they were taken from.

    The H^1 integrals run in one ``gk15_adaptive_many`` loop, each to its
    own tolerance and budget.  Raises for the first profile whose
    difference does not vanish at pi/2 (wrong reference or unconverged
    profile), since its H^1 integral diverges.
    """
    ref, ref_deriv = _reference_funcs(reference, [p.s for p in profiles])
    if not profiles:
        return [], ref
    end = np.array([HALF_PI])
    for k, p in enumerate(profiles):
        end_gap = abs(float((p.eval(end) - ref(end, k))[0]))
        if end_gap > _MISMATCH_TOL:
            raise ValueError(
                f"difference does not decay: |f(pi/2)| = {end_gap:.3e} "
                f"(reference mismatch for s={p.s})"
            )
    spline = QuarticSpline.stack([p.spline for p in profiles])

    def f(z, k):
        return spline(z, 0, k) - ref(z, k)

    def fprime(z, k):
        return spline(z, 1, k) - ref_deriv(z, k)

    cut = HALF_PI - _END_EXCLUSION
    results = gk15_adaptive_many(_h1_integrand(f, fprime), np.zeros(len(profiles)),
                                 np.full(len(profiles), cut), _H1_QUAD)
    return [_h1_total(r.value, float(fprime(end, k)[0])) for k, r in enumerate(results)], ref


def h1_distances(profiles, reference: str = "kappa_arctan") -> list[H1Report]:
    """H^1 and sup-norm distances between solved profiles and a reference.

    The profiles must share one grid.  The H^1 distances are
    ``_h1_values``' (which raises for a profile whose difference does not
    vanish at pi/2); the 2001-point sup norms run one profile at a time.
    """
    profiles = list(profiles)
    h1, ref = _h1_values(profiles, reference)
    zs = np.linspace(0.0, HALF_PI, 2001)
    return [H1Report(s=p.s, h1_distance=d, reference=reference,
                     linf_distance=float(np.max(np.abs(p.eval(zs) - ref(zs, k)))))
            for k, (p, d) in enumerate(zip(profiles, h1))]


def h1_distance(profile: Profile, reference: str = "kappa_arctan") -> H1Report:
    """``h1_distances`` of one profile."""
    return h1_distances([profile], reference)[0]


def h1_profile_distance(p1: Profile, p2: Profile) -> float:
    """H^1 distance between two profiles on the same domain."""

    def f(z):
        return p1.eval(z) - p2.eval(z)

    def fprime(z):
        return p1.eval_deriv(z) - p2.eval_deriv(z)

    return h1_norm(f, fprime)


def ds_derivative_check(branch: Branch, s: float) -> float:
    """H^1 distance of the branch difference quotient from (2/pi) arctan.

    Uses the steps at s and s + ds; the quotient approximates the
    s-derivative of the profile family, which the linear theory predicts
    to be (2/pi) arctan(y) up to O(s^2), while the quotient itself adds
    an O(ds) offset.
    """
    st1 = branch.step_at(s)
    st2 = branch.step_at(s + branch.ds)
    grid = st1.profile.grid
    quotient = (st2.profile.values - st1.profile.values) / branch.ds
    fd_profile = fit_spline(grid, quotient, s=1.0)
    slope = 2.0 / np.pi

    def f(z):
        return fd_profile.eval(z) - slope * z

    def fprime(z):
        return fd_profile.eval_deriv(z) - slope

    return h1_norm(f, fprime)


def figure_data(branch: Branch, which: str, s_values=None,
                y_range=None, samples: int = 401) -> FigureTable:
    """Sample the branch for one of the three standard figures.

    discrepancy: k(z) - (2/pi) s z against z on [0, pi/2].
    normalized:  k(y)/s against y (default range [0, 10]); tends to 1.
    integrated:  int_0^y k against y (default range [-50, 50]); even in y.
    """
    if not branch.steps:
        raise ValueError("branch is empty")
    if s_values is None:
        s_values = branch.s_values
    steps = [branch.step_at(s) for s in s_values]

    if which == "discrepancy":
        z = np.linspace(0.0, HALF_PI, samples)
        cols = np.column_stack([
            st.profile.eval(z) - (2.0 / np.pi) * st.s * z for st in steps
        ])
        return FigureTable("z", z, tuple(s_values), cols)

    if which == "normalized":
        lo, hi = y_range if y_range is not None else (0.0, 10.0)
        y = np.linspace(lo, hi, samples)
        z = np.arctan(y)
        cols = np.column_stack([st.profile.eval(z) / st.s for st in steps])
        return FigureTable("y", y, tuple(s_values), cols)

    if which == "integrated":
        lo, hi = y_range if y_range is not None else (-50.0, 50.0)
        y = np.linspace(lo, hi, samples)
        zabs = np.arctan(np.abs(y))
        order = np.argsort(zabs)
        cols = []
        for st in steps:
            sp = st.profile.spline

            def integrand(w):
                c = np.cos(w)
                return sp(w) / (c * c)

            pts = np.concatenate([[0.0], zabs[order]])
            prim = cumulative_gk15(integrand, pts, tol=1e-12)[1:]
            vals = np.empty_like(prim)
            vals[order] = prim
            cols.append(vals)  # even in y: I(-y) = I(y) for odd profiles
        return FigureTable("y", y, tuple(s_values), np.column_stack(cols))

    raise ValueError(f"unknown figure {which!r}; expected discrepancy|normalized|integrated")


def fit_loglog_slope(s_values, distances) -> float:
    """Least-squares slope of log(distance) against log(s)."""
    s = np.asarray(s_values, dtype=float)
    d = np.asarray(distances, dtype=float)
    if len(s) < 2:
        raise ValueError("need at least two points to fit an order")
    if np.any(d <= 0) or np.any(s <= 0):
        raise ValueError("order fit requires positive s and distances")
    return float(np.polyfit(np.log(s), np.log(d), 1)[0])
