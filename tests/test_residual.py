import functools
import warnings

import numpy as np
import pytest

from muskatss.grid_spline import HALF_PI, fit_spline, make_grid
from muskatss.lm import fd_jacobian
from muskatss import residual
from muskatss.quadrature import QuadratureError, cumulative_gk15, gk15_rule
from muskatss.residual import (
    _CHUNK,
    _SERIES_DERIVS,
    _SLOTS,
    Discretization,
    ResidualConfig,
    _band_partials,
    _coef_panels,
    _end_partials,
    _end_values,
    _integrand,
    _kernel,
    _outer_integral,
    _pair_geometry,
    _quotients,
    _series,
    delta_tilde,
    discretization,
    residual_at,
    residual_vector,
)

from conftest import random_odd_values


# the refinement cases: the reference settings, and 77 outer nodes with a
# diagonal band half-width of 1.3 grid spacings
BAND_CASES = pytest.mark.parametrize("cfg, band", [
    (ResidualConfig(), 2.0), (ResidualConfig(outer_nodes=77), 1.3),
], ids=["default", "nodes77"])


@pytest.fixture
def band_halfwidth(monkeypatch):
    """``set(width)`` makes ``residual._BAND_HALFWIDTH`` width for one test;
    a change clears the ``discretization`` cache, and so does the teardown."""
    changed = []

    def set_width(width):
        if width != residual._BAND_HALFWIDTH:
            monkeypatch.setattr(residual, "_BAND_HALFWIDTH", width)
            discretization.cache_clear()
            changed.append(width)

    yield set_width
    if changed:
        monkeypatch.undo()
        discretization.cache_clear()


def near_masks(geo):
    """The near pairs of each half of ``geo`` as boolean masks of the pair
    shape, from their flat indices."""
    mask = np.zeros(geo.c.shape, dtype=bool)
    mask.flat[geo.flat] = True
    return list(mask)


def half0_entries(geo):
    """The number of near pairs of half 0 of ``geo``: they come first."""
    return geo.flat.searchsorted(geo.c[0].size)


def block_inputs(d, values):
    """Per row block of ``d`` at ``values``: its rows, entry slice, geometry
    and the kernel's inputs there."""
    kz, uz, Pz, ky, uy, Py, band, _ = d._inputs(values)
    for r, geo, e in d.blocks:
        yield r, e, geo, {"kz": kz[r, None], "uz": uz[r, None], "Pz": Pz[r, None],
                          "ky": ky, "uy": uy, "Py": Py, "band": band[:, e]}


def end_inputs(d, values):
    """The inputs of ``_end_values`` at the rows of ``d``: x = tan z, k and
    u there, and b."""
    kz, uz, *_, b = d._inputs(values)
    return {"x": np.tan(d.z), "kz": kz, "uz": uz, "b": b}


def sincos_profile(N=129):
    g = make_grid(N)
    return fit_spline(g, np.sin(g.nodes) * np.cos(g.nodes), 0.0)


def sincos_average_exact(z, y):
    """Closed form of the sliding average for k = sin cos: sec^2 k = tan."""
    return np.log(np.cos(z) / np.cos(y)) / (np.tan(y) - np.tan(z))


class TestDeltaTilde:
    def test_log_closed_form(self):
        p = sincos_profile()
        val = delta_tilde(p, 0.0, np.pi / 4.0, +1)
        assert val == pytest.approx(np.log(2.0) / 2.0, abs=1e-8)

    def test_generic_point_closed_form(self):
        p = sincos_profile()
        z, y = 0.3, 1.1
        assert delta_tilde(p, z, y, +1) == pytest.approx(
            sincos_average_exact(z, y), abs=1e-9)
        # reversed orientation gives the same average
        assert delta_tilde(p, y, z, +1) == pytest.approx(
            sincos_average_exact(z, y), abs=1e-9)

    def test_coincidence_limit(self):
        p = sincos_profile()
        z = 0.8
        assert delta_tilde(p, z, z + 5e-9, +1) == pytest.approx(
            float(p.eval(z)), abs=1e-12)

    def test_endpoint_limit(self):
        p = sincos_profile()
        z = 0.4
        end = float(p.eval(HALF_PI))
        exact_near = sincos_average_exact(z, HALF_PI - 1e-6)
        near = delta_tilde(p, z, HALF_PI - 1e-6, +1)
        assert near == pytest.approx(exact_near, abs=1e-8)
        assert abs(near - end) < 1e-4          # slow log/tan approach
        assert delta_tilde(p, z, HALF_PI, +1) == end
        tight = delta_tilde(p, z, HALF_PI - 1e-8, +1)
        assert abs(tight - end) < 1e-6

    def test_reflection_symmetry(self):
        g = make_grid(65)
        rng = np.random.default_rng(5)
        p = fit_spline(g, random_odd_values(g, rng), 0.3)
        for _ in range(10):
            z = float(rng.uniform(0, HALF_PI * 0.99))
            y = float(rng.uniform(0, HALF_PI * 0.99))
            assert delta_tilde(p, z, y, -1) == -delta_tilde(p, -z, y, +1)

    def test_reflected_coincidence(self):
        # z = -y: the reflected interval is the single point z, where the
        # average is k(z); it once divided 0 by 0
        g = make_grid(65)
        p = fit_spline(g, random_odd_values(g, np.random.default_rng(7)), 0.3)
        for y in (0.0, 1e-9, 0.3, 1.0, HALF_PI - 0.1):
            val = delta_tilde(p, -y, y, -1)
            assert type(val) is float
            assert val == pytest.approx(float(p.eval(-y)), rel=1e-15, abs=1e-300)
            assert val == -delta_tilde(p, y, y, +1)
        for sign in (+1, -1):
            assert type(delta_tilde(p, 0.3, 1.1, sign)) is float

    def test_minus_sign_endpoint(self):
        p = sincos_profile()
        assert delta_tilde(p, 0.4, HALF_PI, -1) == -float(p.eval(HALF_PI))

    def test_row_endpoints_are_the_limit(self):
        # |z| = pi/2 is treated like y = pi/2: the average is the profile's
        # limit k(z) there; z = -pi/2 once raised QuadratureError
        p = sincos_profile()
        end = float(p.eval(HALF_PI))
        for y in (0.0, 0.7, HALF_PI - 0.1):
            assert delta_tilde(p, -HALF_PI, y, +1) == -end
            assert delta_tilde(p, HALF_PI, y, +1) == end
            assert delta_tilde(p, HALF_PI, y, -1) == end
            assert delta_tilde(p, -HALF_PI, y, -1) == -end

    def test_domain_validation(self):
        p = sincos_profile()
        with pytest.raises(ValueError):
            delta_tilde(p, 0.2, 2.0, +1)
        with pytest.raises(ValueError):
            delta_tilde(p, 0.2, 0.4, 0)


class TestResidualAt:
    def test_zero_profile(self):
        g = make_grid(65)
        p = fit_spline(g, np.zeros(65), 0.0)
        for z in (0.0, 0.3, 1.0, HALF_PI):
            assert abs(residual_at(p, z)) < 1e-10

    def test_origin_cancellation_random_odd(self):
        g = make_grid(65)
        rng = np.random.default_rng(11)
        cfg = ResidualConfig(outer_nodes=200)
        for _ in range(10):
            p = fit_spline(g, random_odd_values(g, rng), 0.2)
            assert abs(residual_at(p, 0.0, cfg)) < 1e-10

    @pytest.mark.parametrize("N", [9, 33])
    def test_subnormal_row(self, N):
        # cos z cos y / sin(z - y) overflows at the band pair y = 0, whose
        # factor the expansion replaces.  The row is the one at z = 1e-300,
        # not R(0) = 0: the odd reflection gives k'' a jump at 0
        g = make_grid(N)
        p = fit_spline(g, random_odd_values(g, np.random.default_rng(19)), 0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            r = residual_at(p, 1e-310)
        assert np.isfinite(r)
        assert abs(r - residual_at(p, 1e-300)) <= 1e-15

    def test_endpoint_row_degenerates(self):
        g = make_grid(65)
        rng = np.random.default_rng(13)
        p = fit_spline(g, random_odd_values(g, rng), 0.2)
        assert residual_at(p, HALF_PI) == 0.0

    def test_endpoint_node_is_exact_for_every_grid_size(self):
        # for some N the node formula rounds to 1 ulp below pi/2, where
        # tan z ~ 1.6e16 made the endpoint row non-finite
        for N in range(5, 65):
            g = make_grid(N)
            assert g.nodes[-1] == HALF_PI
            rv = residual_vector(fit_spline(g, (2.0 / np.pi) * 0.1 * g.nodes, 0.1))
            assert np.all(np.isfinite(rv.stacked())), N
            assert rv.interior[-1] == 0.0

    def test_linear_ansatz_is_cubically_small(self, linear_profile_01):
        r = residual_at(linear_profile_01, 0.7)
        assert abs(r) < 1e-3

    def test_seam_consistency(self, linear_profile_01, band_halfwidth):
        # shrinking the diagonal split band must not move the values
        rng = np.random.default_rng(17)
        zs = [float(rng.uniform(0.05, HALF_PI - 0.05)) for _ in range(5)]
        base = [residual_at(linear_profile_01, z) for z in zs]
        band_halfwidth(1.0)
        half = [residual_at(linear_profile_01, z) for z in zs]
        assert np.max(np.abs(np.subtract(base, half))) < 1e-7

    def test_domain_validation(self, linear_profile_01):
        with pytest.raises(ValueError):
            residual_at(linear_profile_01, -0.1)


class TestResidualVector:
    def test_zero_profile_all_rows(self):
        g = make_grid(65)
        p = fit_spline(g, np.zeros(65), 0.0)
        rv = residual_vector(p)
        assert rv.max_norm() < 1e-10
        assert len(rv.stacked()) == (65 - 1) + 2

    def test_boundary_rows_exact(self):
        g = make_grid(33)
        vals = np.sin(g.nodes) * 0.25 / np.sin(g.nodes[-1])
        vals[0] = 0.0
        s = vals[-1]
        p = fit_spline(g, vals, s)
        rv = residual_vector(p, ResidualConfig(outer_nodes=100))
        assert rv.bc0 == 0.0
        assert rv.bc_end == 0.0

    def test_boundary_row_measures_gap(self):
        g = make_grid(33)
        vals = (2.0 / np.pi) * 0.3 * g.nodes
        p = fit_spline(g, vals, 0.25)
        rv = residual_vector(p, ResidualConfig(outer_nodes=100))
        assert rv.bc_end == pytest.approx(0.05, abs=1e-15)

    @pytest.mark.parametrize("N", [17, 129])
    @pytest.mark.parametrize("s", [0.1, 2.0, 7.0])
    @pytest.mark.parametrize("per_N", [None, 40], ids=["default", "nodes40N"])
    def test_rows_next_to_the_endpoint(self, per_N, s, N):
        # toward pi/2 the two first-derivative terms diverge like +-tan y;
        # the kernel takes their direct difference up to the outer node next
        # to pi/2, and on the pairs within two grid spacings of pi/2 off the
        # bands, summed with the trapezoid weight, that is the form over the
        # common denominator tan^2 z - tan^2 y to about one rounding error
        cfg = ResidualConfig(outer_nodes=per_N and per_N * N)
        g = make_grid(N)
        values = perturbed_arctan(g, s)
        scale = np.max(np.abs(residual_vector(fit_spline(g, values, s), cfg).interior))
        d = discretization(N, cfg)
        for r, _, geo, inp in block_inputs(d, values):
            pairs = _integrand(geo, **inp) / (np.pi * np.cos(d.yi) ** 2)
            near0, near1 = near_masks(geo)
            region = (d.yi > HALF_PI - 2.0 * g.spacing) & ~(near0 | near1)
            assert np.count_nonzero(region, axis=1).min() > 0
            want = common_denominator_pairs(geo, d.z[r], d.yi, inp)
            diff = d.hy * np.where(region, pairs - want, 0.0).sum(axis=1)
            assert np.max(np.abs(diff)) <= 1e-13 * scale

    def test_outer_refinement_stability(self, linear_profile_01):
        r1 = residual_vector(linear_profile_01, ResidualConfig(outer_nodes=1290))
        r2 = residual_vector(linear_profile_01, ResidualConfig(outer_nodes=2580))
        assert np.max(np.abs(r1.stacked() - r2.stacked())) < 1e-6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ResidualConfig(outer_nodes=1)


def perturbed_arctan(grid, s):
    z = grid.nodes
    values = (2.0 * s / np.pi) * np.arctan(np.tan(z) / (1.0 + s * s / 3.0))
    values += 0.01 * s * np.sin(2.0 * z) + 0.003 * s * np.sin(5.0 * z)
    values[0], values[-1] = 0.0, s
    return values


def common_denominator_pairs(geo, z, yi, inp):
    """The pair integrand with its first-derivative terms over the common
    denominator tan^2 z - tan^2 y: du pe (px (F0 + F1) + pk D^2 F0 F1) / pi,
    with pe = cos^2 z / (sin(z - y) sin(z + y)) and px = tan z, where pk
    D^2 F0 F1 is tan y (F0 - F1) in a form that stays finite as y -> pi/2.
    The second-derivative terms are the kernel's, from its quotients."""
    kz, ky, Pz, Py, du = inp["kz"], inp["ky"], inp["Pz"], inp["Py"], inp["uz"] - inp["uy"]
    D = Py - Pz
    (k0, k1), _, (a0, a1), (F0, F1) = _quotients(geo, kz, du, ky, Pz, Py, inp["band"],
                                                 np.empty((4, *geo.c.shape)))
    z = z[:, None]
    cz, cy, sin_zy = np.cos(z), np.cos(yi), np.sin(z - yi) * np.sin(z + yi)
    pe = cz * cz / sin_zy
    pk = -4.0 * np.sin(z) * np.sin(yi) ** 2 * cz ** 3 * cy ** 2 / sin_zy ** 2
    first = du * pe * (np.tan(z) * (F0 + F1) + pk * D * D * F0 * F1)
    second = -2.0 * (k0 * k0 * a0 * F0 * F0 - k1 * k1 * a1 * F1 * F1) / (cy * cy)
    return (first + second) / np.pi


def scipy_evaluator(profile):
    """The profile's odd quartic spline from scipy's ``make_interp_spline``,
    independent of the package's own spline: ``ev(w, nu)``."""
    interpolate = pytest.importorskip("scipy.interpolate")
    spline = interpolate.make_interp_spline(profile.grid.nodes, profile.values, k=4)

    def ev(w, nu):
        w = np.asarray(w, dtype=float)
        v = spline(np.abs(w), nu)
        return np.where(w < 0, -v, v) if nu % 2 == 0 else v

    return ev


def oracle_quotients(ev, geo):
    """The expansion quotients at the near pairs of ``geo``, both halves,
    from the derivatives of the spline evaluator ``ev``."""
    return _series(geo.m, geo.d2, [ev(geo.m, nu) for nu in range(_SERIES_DERIVS)])


def reference_rows(profile, cfg, z):
    """The rows z (< pi/2) as the residual once computed them: scipy spline
    evaluation and an adaptive antiderivative table at 1e-12, through the
    same kernel on the same geometry; and the largest transport term."""
    g = profile.grid
    d = discretization(g.N, cfg)
    yi, ev = d.yi, scipy_evaluator(profile)
    geo = _pair_geometry(z, yi, g.spacing)
    pts = np.unique(np.concatenate([[0.0], z, yi]))
    P = cumulative_gk15(lambda w: ev(w, 0) / np.cos(w) ** 2, pts, tol=1e-12)
    kz, uz = ev(z, 0), ev(z, 1) * np.cos(z) ** 2
    pairs = _integrand(
        geo, kz=kz[:, None], uz=uz[:, None], Pz=P[np.searchsorted(pts, z)][:, None],
        ky=ev(yi, 0), uy=ev(yi, 1) * np.cos(yi) ** 2, Py=P[np.searchsorted(pts, yi)],
        band=oracle_quotients(ev, geo))
    end = _end_values(np.tan(z), kz, uz, float(ev(HALF_PI, 0)))
    rows = np.column_stack([pairs / (np.pi * np.cos(yi) ** 2), end])
    integral = d.hy * (rows.sum(axis=1) - 0.5 * (rows[:, 0] + rows[:, -1]))
    transport = np.sin(z) * np.cos(z) * ev(z, 1)
    return transport + integral, np.max(np.abs(transport))


class TestResidualOracle:
    @pytest.mark.parametrize("s", [0.1, 2.0, 7.0])
    @pytest.mark.parametrize("N", [17, 33, 129])
    @BAND_CASES
    def test_matches_spline_and_adaptive_table(self, cfg, band, N, s, band_halfwidth):
        band_halfwidth(band)
        g = make_grid(N)
        p = fit_spline(g, perturbed_arctan(g, s), s)
        want, scale = reference_rows(p, cfg, g.nodes[1:-1])
        got = residual_vector(p, cfg).interior
        assert np.max(np.abs(got[:-1] - want)) <= 1e-12 * scale
        # residual_at is the one-row discretization of its z: at a node,
        # that node's row up to the roundoff of one-row products
        nodes = range(1, N) if N < 129 else range(1, N, 9)
        at = np.array([residual_at(p, g.nodes[i], cfg) for i in nodes])
        assert np.max(np.abs(at - got[np.array(nodes) - 1])) <= 1e-13 * scale
        assert residual_at(p, HALF_PI, cfg) == got[-1] == 0.0
        # between the table points, P adds GK15 panels to the table's value;
        # the last points lie past the last table point, next to the pole of
        # sec^2 at pi/2, where the panels halve the distance to it
        hy = discretization(N, cfg).hy
        off = np.append(np.random.default_rng(N).uniform(0.0, HALF_PI, 4),
                        HALF_PI - np.array([0.5, 0.03, 1e-3]) * hy)
        want, _ = reference_rows(p, cfg, off)
        at = np.array([residual_at(p, z, cfg) for z in off])
        assert np.max(np.abs(at - want)) <= 1e-12 * scale

    def test_finite_next_to_the_endpoint(self):
        # the adaptive table the residual once used here stopped at its
        # bisection budget for z within about 1e-7 of pi/2
        g = make_grid(17)
        p = fit_spline(g, perturbed_arctan(g, 2.0), 2.0)
        near = [residual_at(p, HALF_PI - e) for e in (1e-6, 1e-9, 1e-12)]
        assert np.all(np.isfinite(near))
        # the row tends to a limit, linearly in pi/2 - z
        assert abs(near[2] - near[1]) <= 1e-2 * abs(near[1] - near[0])


class TestBandQuotients:
    @pytest.mark.parametrize("N", [17, 33, 129])
    @BAND_CASES
    def test_fixed_weights_match_the_series(self, cfg, band, N, band_halfwidth):
        # the quotients from the fixed weights on the spline coefficients
        # are the series of the scipy spline's derivatives at the midpoints;
        # the series' d^2 k'''' term carries the roundoff of the fourth
        # derivative, eps/h^4 times d^2 <= h^2, so the bound scales as 1/h^2
        band_halfwidth(band)
        g = make_grid(N)
        values = perturbed_arctan(g, 2.0)
        d = discretization(N, cfg)
        ev = scipy_evaluator(fit_spline(g, values, 2.0))
        # each block's entries are half 0's (the band y ~ z) then half 1's
        # (the band y ~ -z of the reflected row)
        parts = [([], []), ([], [])]        # per half: (fixed weights, oracle)
        for _, _, geo, inp in block_inputs(d, values):
            n0 = half0_entries(geo)
            want = oracle_quotients(ev, geo)
            for h, cut in enumerate((slice(None, n0), slice(n0, None))):
                parts[h][0].append(inp["band"][:, cut])
                parts[h][1].append(want[:, cut])
        for h, (mine, oracle) in enumerate(parts):
            mine, oracle = np.concatenate(mine, axis=1), np.concatenate(oracle, axis=1)
            assert mine.shape == oracle.shape and oracle.size > 0
            tol = 2e-15 / g.spacing ** 2 * np.max(np.abs(oracle))
            assert np.max(np.abs(mine - oracle)) <= tol, h


def band_sign_counts(d):
    """Checks that ``band_column`` is the outer weight w[j] of each near
    pair's node on half 0's entries and -w[j] on half 1's, block by block,
    from the near pairs' positions; returns the entries per half and block."""
    counts = []
    for _, geo, e in d.blocks:
        half, _, j = np.nonzero(np.stack(near_masks(geo)))
        assert np.array_equal(d.band_column[e], np.where(half == 0, d.w[j], -d.w[j]))
        counts.append(np.bincount(half, minlength=2))
    return np.array(counts)


class TestBandSigns:
    """Half 1's values enter the pair value with a minus sign, which the
    band term's column weights hold."""

    @pytest.mark.parametrize("N", [17, 33, 129])
    def test_half_1_entries_negated(self, N):
        d = discretization(N, ResidualConfig())
        assert np.all(band_sign_counts(d).sum(axis=0) > 0)
        # a row next to 0 has near pairs of both halves
        assert np.all(band_sign_counts(d.row(0.5 * d.spacing)).sum(axis=0) > 0)


class TestResidualJacobian:
    @pytest.mark.parametrize("s", [0.1, 2.0])
    @pytest.mark.parametrize("N, cols, cfg, band", [
        (17, None, ResidualConfig(), 2.0),
        (33, None, ResidualConfig(), 2.0),
        (129, [0, 1, 30, 64, 110, 127], ResidualConfig(), 2.0),
        (17, None, ResidualConfig(outer_nodes=77), 1.3),
        (33, None, ResidualConfig(outer_nodes=77), 1.3),
    ], ids=["17", "33", "129", "17-nodes77", "33-nodes77"])
    def test_matches_finite_differences(self, N, cols, cfg, band, s, band_halfwidth):
        band_halfwidth(band)
        g = make_grid(N)
        values = perturbed_arctan(g, s)
        cols = list(range(N - 1)) if cols is None else cols

        def r(xc):
            x = values.copy()
            x[1:][cols] = xc
            return residual_vector(fit_spline(g, x, s), cfg).stacked()

        exact = residual_vector(fit_spline(g, values, s), cfg, jacobian=True).jacobian
        assert exact.shape == (N + 1, N)
        fd = fd_jacobian(r, values[1:][cols], 1e-6)
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(exact[:, 1:][:, cols] - fd)) <= 1e-6 * scale

    def test_zero_and_boundary_rows(self):
        N = 17
        g = make_grid(N)
        p = fit_spline(g, perturbed_arctan(g, 0.5), 0.5)
        J = residual_vector(p, ResidualConfig(outer_nodes=77), jacobian=True).jacobian
        assert np.all(J[N - 2] == 0.0)                   # the z = pi/2 row
        assert np.array_equal(J[N - 1], np.eye(N)[0])    # bc0 = values[0]
        assert np.array_equal(J[N], np.eye(N)[-1])       # bc_end = values[-1] - s


def random_odd_profile(N, seed):
    g = make_grid(N)
    values = random_odd_values(g, np.random.default_rng(seed))
    return fit_spline(g, values, float(values[-1]) + 0.01)


class TestOnePass:
    """One kernel pass gives the residual and the Jacobian, and hands both
    back."""

    @pytest.mark.parametrize("N", [17, 33, 129])
    @BAND_CASES
    def test_residual_is_the_value_only_evaluation(self, cfg, band, N, band_halfwidth):
        # block by block, the trapezoid of _integrand's values, bit for bit
        band_halfwidth(band)
        for seed in range(3):
            p = random_odd_profile(N, seed)
            d = discretization(N, cfg)
            rows = np.empty(len(d.z))
            end = _end_values(**end_inputs(d, p.values))
            for r, _, geo, inp in block_inputs(d, p.values):
                rows[r] = np.tan(d.z[r]) * inp["uz"][:, 0] + _outer_integral(
                    d.w, d.z[r], d.yi, _integrand(geo, **inp), end[r])
            want = np.concatenate([rows, [0.0, p.values[0], p.values[-1] - p.s]])
            assert np.array_equal(residual_vector(p, cfg, jacobian=True).stacked(), want)

    @staticmethod
    def counting(d):
        """``d`` with its passes counted in the returned list."""
        calls, run = [], d._pass
        d._pass = lambda values, jacobian=True: calls.append(jacobian) or run(values, jacobian)
        return calls

    @pytest.mark.parametrize("N", [17, 129])
    def test_kept_jacobian_is_a_fresh_one(self, N):
        # the Jacobian the caller keeps is a fresh discretization's, from
        # the pass that gave the residual, and its own copy
        cfg = ResidualConfig()
        v = random_odd_profile(N, 1).values
        d = Discretization(N, cfg)
        passes = self.counting(d)
        out, J = d.linearize(v)
        assert passes == [True]
        assert out.tobytes() == d.residual(v).tobytes()
        fresh = Discretization(N, cfg).linearize(v)[1]
        assert np.array_equal(J, fresh)
        J[:] = 0.0
        assert np.array_equal(d.linearize(v)[1], fresh)


class TestValueOnly:
    """``residual`` is a pass without the partials: the same residual bytes
    as ``linearize``, and nothing kept for a later pass."""

    CFGS = pytest.mark.parametrize("cfg", [ResidualConfig(), ResidualConfig(outer_nodes=77)],
                                   ids=["default", "nodes77"])

    @pytest.mark.parametrize("N", [17, 33, 129])
    @CFGS
    def test_same_bytes_as_the_full_pass(self, cfg, N):
        d = discretization(N, cfg)
        for seed in range(3):
            p = random_odd_profile(N, seed)
            values_only = residual_vector(p, cfg).stacked()
            full = residual_vector(p, cfg, jacobian=True).stacked()
            assert values_only.tobytes() == full.tobytes()
            assert d.residual(p.values).tobytes() == d.linearize(p.values)[0].tobytes()

    @pytest.mark.parametrize("N", [17, 129])
    @CFGS
    def test_keeps_no_pass(self, cfg, N):
        v, v2 = (random_odd_profile(N, seed).values for seed in (1, 2))
        d = Discretization(N, cfg)
        passes = TestOnePass.counting(d)
        d.linearize(v)
        d.residual(v2)
        # a Jacobian at the value-only point runs its own full pass
        assert np.array_equal(d.linearize(v2)[1], Discretization(N, cfg).linearize(v2)[1])
        assert passes == [True, False, True]

    def test_residual_at_forms_no_partials(self, monkeypatch):
        p = random_odd_profile(33, 4)
        kinds, run = [], Discretization._pass

        def recording(self, values, jacobian=True):
            kinds.append(jacobian)
            return run(self, values, jacobian=jacobian)

        monkeypatch.setattr(Discretization, "_pass", recording)
        residual_at(p, 0.3)
        residual_at(p, 1e-300)
        residual_vector(p)
        assert kinds == [False, False, False]


class TestOuterIntegral:
    """Only the rows whose sum is not finite are searched for the pair
    that made them so."""

    @staticmethod
    def block():
        d = discretization(17, ResidualConfig(outer_nodes=77))
        v = random_odd_profile(17, 1).values
        (r, _, geo, inp), = block_inputs(d, v)
        return d, _integrand(geo, **inp), _end_values(**end_inputs(d, v))

    def test_names_the_first_non_finite_pair(self):
        d, pairs, end = self.block()
        pairs[2] = 1e308                     # finite, but the row sum overflows
        pairs[5, 7] = np.nan
        pairs[9, 3] = np.inf
        with pytest.raises(QuadratureError, match=rf"z={d.z[5]}, y={d.yi[7]}\)") as err:
            _outer_integral(d.w, d.z, d.yi, pairs, end)
        assert err.value.interval == (d.z[5], d.yi[7])

    def test_names_the_endpoint_column(self):
        d, pairs, end = self.block()
        end[4] = np.inf
        with pytest.raises(QuadratureError, match=rf"z={d.z[4]}, y={HALF_PI}\)"):
            _outer_integral(d.w, d.z, d.yi, pairs, end)

    def test_finite_pairs_whose_sum_overflows(self):
        d, pairs, end = self.block()
        want = _outer_integral(d.w, d.z, d.yi, pairs, end)
        pairs[3] = 1e308
        got = _outer_integral(d.w, d.z, d.yi, pairs, end)
        assert got[3] == np.inf
        assert np.array_equal(np.delete(got, 3), np.delete(want, 3))


def dense_jacobian(d, values):
    """The Jacobian with its y-terms contracted in value space: the pair
    partials times dense input maps at the outer nodes, built here, and the
    trapezoid weights times the column factor sec^2 y / pi, as the pass
    once summed them, and the z-terms times dense value maps at the rows."""
    N, hy, nz, yi, z = d.N, d.hy, len(d.z), d.yi, d.z
    Ey, Uy = d.sm.dense(yi, 0), np.cos(yi)[:, None] ** 2 * d.sm.dense(yi, 1)
    Py = d._primitive(yi) @ d.coef
    maps = {"kz": d.sm.dense(z, 0), "uz": np.cos(z)[:, None] ** 2 * d.sm.dense(z, 1),
            "Pz": d._primitive(z) @ d.coef, "b": d.sm.dense([HALF_PI], 0)[0]}
    col = 1.0 / (np.pi * np.cos(yi) ** 2)
    col[0] *= 0.5
    J = np.zeros((N + 1, N))
    J[:nz] = (np.sin(d.z) * np.cos(d.z))[:, None] * d.sm.dense(d.z, 1)     # transport
    J[N - 1, 0] = J[N, N - 1] = 1.0
    # the y = pi/2 column, with its trapezoid weight hy/2
    end_kz, end_uz, end_b = _end_partials(**end_inputs(d, values))
    J[:nz] += 0.5 * hy * (end_kz * maps["kz"] + end_uz[:, None] * maps["uz"]
                          + end_b[:, None] * maps["b"])
    quot = _band_partials(d._inputs(values)[6])
    for r, b, geo, inputs in block_inputs(d, values):
        p = kernel_partials(geo, inputs)
        # half 1's values enter the pair value with a minus sign
        sign = np.where(geo.flat < geo.c[0].size, 1.0, -1.0)
        quot[:, b] *= sign * hy * col[geo.flat % geo.c[0].size % len(yi)]
        J[r] += hy * (
            (p.kz @ col)[:, None] * maps["kz"][r] + (p.du @ col)[:, None] * maps["uz"][r]
            + (p.ky * col) @ Ey - (p.du * col) @ Uy
            + (p.D * col) @ Py - (p.D @ col)[:, None] * maps["Pz"][r])
    G = np.bincount(d.band_index, np.einsum("qe,qek->ek", quot, d.band_weight).ravel(),
                    minlength=nz * N)
    J[:nz] += G.reshape(nz, -1) @ d.coef
    return J


class TestCoefficientSpace:
    """The Jacobian's y-terms are summed in B-spline coefficient space."""

    @pytest.mark.parametrize("N", [17, 33, 129])
    @BAND_CASES
    def test_matches_the_dense_contraction(self, cfg, band, N, band_halfwidth):
        band_halfwidth(band)
        d = discretization(N, cfg)
        for seed in range(2):
            v = random_odd_profile(N, seed).values
            want = dense_jacobian(d, v)
            got = d.linearize(v)[1]
            assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("outer_nodes", [2 + _CHUNK // 2, 1 + 2 * _CHUNK],
                             ids=["one-short-chunk", "whole-chunks"])
    def test_chunk_edges(self, outer_nodes):
        # fewer outer nodes than a chunk holds, and a whole number of chunks
        N, cfg = 17, ResidualConfig(outer_nodes=outer_nodes)
        d = Discretization(N, cfg)
        v = random_odd_profile(N, 3).values
        want = dense_jacobian(d, v)
        assert np.max(np.abs(d.linearize(v)[1] - want)) <= 1e-14 * np.max(np.abs(want))
        row = d.row(0.4)
        want = dense_jacobian(row, v)
        assert np.max(np.abs(row.linearize(v)[1] - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.mark.parametrize("N", [33, 129])
    @pytest.mark.parametrize("cfg", [ResidualConfig(), ResidualConfig(outer_nodes=77)],
                             ids=["default", "nodes77"])
    def test_primitive_full_partial_zero(self, cfg, N):
        # the P table holds the integrals of sec^2 B_c up to each table
        # point: a column is 0 before its B-spline's support and the whole
        # integral past it, bit for bit; with the partial integrals of the
        # B-splines nonzero at an outer node, that is P's row there
        d = discretization(N, cfg)
        table = np.zeros((len(d.pts), N))
        table[1:] = _coef_panels(d.sm, d.pts[:-1], d.pts[1:])
        table = np.cumsum(table, axis=0)
        assert np.array_equal(d.P, table)
        rows, first = d.sm.local(d.yi, 0)
        at = d.pts.searchsorted(d.yi)
        assert np.array_equal(d.pts[at], d.yi)
        c = np.arange(N)
        before, after = c < first[:, None], c > first[:, None] + rows.shape[1] - 1
        full = d.support_integral
        partial = np.take_along_axis(d.P[at], first[:, None] + np.arange(rows.shape[1]), axis=1)
        assert np.array_equal(full, table[-1])
        assert np.all(np.where(before, table[at] == full, True))
        assert np.all(np.where(after, table[at] == 0.0, True))
        rebuilt = np.where(before, full, 0.0)
        np.put_along_axis(rebuilt, first[:, None] + np.arange(rows.shape[1]), partial, axis=1)
        Py = d._primitive(d.yi) @ d.coef
        assert np.max(np.abs(rebuilt @ d.coef - Py)) <= 1e-14 * np.max(np.abs(Py))
        # in value space: the dense spline map at the GK15 nodes of each gap,
        # weighted by sec^2 and summed, then summed over the gaps
        nodes, wts = gk15_rule(d.pts[:-1], d.pts[1:])
        E = d.sm.dense(nodes.ravel(), 0).reshape(*nodes.shape, N)
        value = np.zeros((len(d.pts), N))
        value[1:] = np.einsum("gq,gqn->gn", wts / np.cos(nodes) ** 2, E)
        value = np.cumsum(value, axis=0)
        for name, got, pts in (("Py", Py, d.yi), ("Pz", d.z_rows[2] @ d.coef, d.z)):
            want = value[d.pts.searchsorted(pts)]
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(got)), name


class TestOuterNodeInputs:
    """The inputs at the rows and the outer nodes are sums of B-spline rows
    on the spline coefficients; in value space they are the dense spline
    maps and the value -> P map there, and b, the last coefficient, is the
    last nodal value up to one rounding."""

    @pytest.mark.parametrize("N", [17, 33, 129])
    @pytest.mark.parametrize("cfg", [ResidualConfig(), ResidualConfig(outer_nodes=77)],
                             ids=["default", "nodes77"])
    @pytest.mark.parametrize("z", [None, 0.7345], ids=["rows", "off-table-row"])
    def test_match_the_value_maps(self, z, cfg, N):
        d = discretization(N, cfg)
        if z is not None:
            d = d.row(z)
        sm, yi, z = d.sm, d.yi, d.z
        maps = {"ky": sm.dense(yi, 0), "uy": np.cos(yi)[:, None] ** 2 * sm.dense(yi, 1),
                "Py": d._primitive(yi) @ d.coef, "kz": sm.dense(z, 0),
                "uz": np.cos(z)[:, None] ** 2 * sm.dense(z, 1), "Pz": d._primitive(z) @ d.coef}
        # the last coefficient is b = k(pi/2), through coef's last row: e_{N-1}
        # up to the rounding of B_{N-1}(pi/2) (1 - 2^-53 at N=129)
        last = d.coef[-1]
        assert np.flatnonzero(last).tolist() == [N - 1]
        assert abs(last[-1] - 1.0) <= np.finfo(float).eps
        for seed in range(2):
            v = random_odd_profile(N, seed).values
            kz, uz, Pz, ky, uy, Py, _, b = d._inputs(v)
            got = {"ky": ky, "uy": uy, "Py": Py, "kz": kz, "uz": uz, "Pz": Pz}
            for name, E in maps.items():
                # the roundoff of a sum is relative to its terms' size
                tol = 2e-15 * np.max(np.abs(E) @ np.abs(v))
                assert np.max(np.abs(got[name] - E @ v)) <= tol, name
            assert b == last[-1] * v[-1]


class TestWorkspace:
    """The kernel's buffers are reused; nothing of one pass shows in the next."""

    N, cfg = 33, ResidualConfig(outer_nodes=77)

    def fresh(self, values, z=None):
        d = Discretization(self.N, self.cfg)
        if z is not None:
            d = d.row(z)
        return d.linearize(values)

    def same(self, d, values, z=None):
        (out, J), want = d.linearize(values), self.fresh(values, z)
        return all(np.array_equal(a, b) for a, b in zip((d.residual(values), out, J),
                                                        (want[0], *want)))

    def test_aligned(self):
        d = Discretization(self.N, self.cfg)
        assert d.work.ctypes.data % 64 == 0 and d.work.strides[0] % 64 == 0

    def test_two_values(self):
        v, v2 = (random_odd_profile(self.N, seed).values for seed in (6, 7))
        d = Discretization(self.N, self.cfg)
        d.linearize(v)
        assert self.same(d, v2)
        assert self.same(d, v)

    def test_row_copy(self):
        v, v2 = (random_odd_profile(self.N, seed).values for seed in (6, 7))
        d = Discretization(self.N, self.cfg)
        d.linearize(v)
        row = d.row(0.7)
        assert not np.shares_memory(row.work, d.work)
        assert self.same(row, v, 0.7)
        assert self.same(d, v2)
        assert self.same(row, v2, 0.7)

    def test_pass_that_raises(self):
        v = random_odd_profile(self.N, 8).values
        d = Discretization(self.N, self.cfg)
        for run in (d.residual, d.linearize):
            with pytest.raises(QuadratureError):
                run(1e200 * v)           # the pair values overflow to inf and NaN
        assert self.same(d, v)


class TestWorkspaceBlocks(TestWorkspace):
    """The workspace checks on three row blocks of unequal rows, and the
    partition against one block."""

    @pytest.fixture(autouse=True)
    def three_blocks(self, monkeypatch):
        # 2 * 31 * 76 = 4712 pairs of both halves at N=33 with 77 outer
        # nodes: 3 blocks of 2048 at most, of 10, 10 and 11 rows
        monkeypatch.setattr(residual, "_BLOCK_PAIRS", 1 << 11)

    def test_rows_per_block(self):
        d = Discretization(self.N, self.cfg)
        assert [r.stop - r.start for r, _, _ in d.blocks] == [10, 10, 11]

    def test_band_signs(self):
        counts = band_sign_counts(Discretization(self.N, self.cfg))
        assert len(counts) == 3 and np.all(counts.sum(axis=0) > 0)
        assert np.count_nonzero(counts[:, 0]) == 3

    def test_matches_one_block(self, monkeypatch):
        v = random_odd_profile(self.N, 9).values
        d = Discretization(self.N, self.cfg)
        monkeypatch.setattr(residual, "_BLOCK_PAIRS", 1 << 30)
        one = Discretization(self.N, self.cfg)
        assert len(one.blocks) == 1
        assert d.residual(v).tobytes() == one.residual(v).tobytes()
        (out, J), (one_out, one_J) = d.linearize(v), one.linearize(v)
        assert out.tobytes() == one_out.tobytes()
        assert np.max(np.abs(J - one_J)) <= 1e-15 * np.max(np.abs(one_J))


def kernel_partials(g, inp):
    """``_kernel``'s partials at the inputs ``inp`` on the geometry ``g``."""
    return _kernel(g, np.empty((_SLOTS, *g.c.shape)), **inp)[1]


def kernel_inputs(N, cfg, s):
    """The interior-row geometry of (N, cfg), one block, the kernel's
    inputs there, and those of ``_end_values``."""
    d = discretization(N, cfg)
    values = perturbed_arctan(make_grid(N), s)
    (_, _, geo, inp), = block_inputs(d, values)
    return geo, inp, end_inputs(d, values)


class TestQuotients:
    @BAND_CASES
    @pytest.mark.parametrize("h", [0, 1])
    def test_generic_pairs_match_tan(self, h, cfg, band, band_halfwidth):
        # away from the bands each half's quotients
        # are the difference quotients written with np.tan: half 0's over
        # tan z - tan y, half 1's the plus quotients over tan z + tan y
        band_halfwidth(band)
        g, inp, _ = kernel_inputs(33, cfg, 2.0)
        kz, uz, ky, uy, Pz, Py = (inp[name] for name in ("kz", "uz", "ky", "uy", "Pz", "Py"))
        d = discretization(33, cfg)
        tz, ty = np.tan(d.z[:, None]), np.tan(d.yi)
        with np.errstate(divide="ignore", invalid="ignore"):    # 0/0 at y = z
            if h == 0:
                want = ((kz - ky) / (tz - ty), (uz - uy) / (tz - ty), (Pz - Py) / (tz - ty))
            else:
                want = ((kz + ky) / (tz + ty), -(uz - uy) / (tz + ty), -(Pz - Py) / (tz + ty))
        got = [q[h] for q in _quotients(g, kz, uz - uy, ky, Pz, Py, inp["band"],
                                        np.empty((4, *g.c.shape)))]
        near0, near1 = near_masks(g)
        generic = ~(near0 | near1)
        assert np.count_nonzero(generic) > 0.5 * generic.size
        for mine, oracle in zip(got, want):
            oracle = oracle[generic]
            assert np.max(np.abs(mine[generic] - oracle)) <= 1e-13 * np.max(np.abs(oracle))


class TestIntegrandPartials:
    @BAND_CASES
    def test_matches_complex_step(self, cfg, band, band_halfwidth):
        band_halfwidth(band)
        g, inp, end_inp = kernel_inputs(33, cfg, 2.0)
        p = kernel_partials(g, inp)
        step = 1e-30

        def cstep(f, inputs, name, q=None):
            args = {k: np.asarray(v, dtype=complex) for k, v in inputs.items()}
            if q is None:
                args[name] += 1j * step
            else:
                args[name][q] += 1j * step
            return f(**args).imag / step

        def close(got, want):
            assert want.size > 0
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        near = near_masks(g)
        kinds = {"generic": ~(near[0] | near[1]),
                 "half 0 band": near[0], "half 1 band": near[1]}
        # P enters as D = Py - Pz
        for name, want in (("kz", p.kz), ("ky", p.ky), ("uz", p.du), ("uy", -p.du),
                           ("Pz", -p.D), ("Py", p.D)):
            pairs = cstep(functools.partial(_integrand, g), inp, name)
            for kind, mask in kinds.items():
                assert np.any(mask), kind
                close(want[mask], pairs[mask])

        # the y = pi/2 column
        for name, want in zip(("kz", "uz", "b"), _end_partials(**end_inp)):
            close(np.broadcast_to(want, end_inp["x"].shape), cstep(_end_values, end_inp, name))

        # the three expansion quotients at the near pairs of each half (a
        # pair near z = y = 0 can be in both, so each half has its own step);
        # half 1's enter the pair value with a minus sign
        n0 = half0_entries(g)
        band_p = _band_partials(inp["band"])
        for h, cut in enumerate((slice(None, n0), slice(n0, None))):
            for q in range(3):
                pairs = cstep(functools.partial(_integrand, g), inp, "band", (q, cut))
                close(band_p[q, cut] * (1.0, -1.0)[h], pairs[near[h]])

    def test_finite_where_the_value_is_finite(self):
        # |avg| ~ 1e200 on the near pairs of both halves: F and G underflow
        # to 0, and G' written as F^2 - 4 a^2 F^3 would be inf * 0 = NaN there
        g, inp, end_inp = kernel_inputs(33, ResidualConfig(), 2.0)
        inp["band"] = inp["band"].copy()
        inp["band"][2] = 1e200
        with np.errstate(over="ignore"):
            pairs = _integrand(g, **inp)
            p = kernel_partials(g, inp)
            end = _end_values(**end_inp)
            band_p = _band_partials(inp["band"])
        assert np.all(np.isfinite(pairs)) and np.all(np.isfinite(end))
        for part in (p.kz, p.ky, p.du, p.D, *_end_partials(**end_inp), band_p):
            assert np.all(np.isfinite(part))
