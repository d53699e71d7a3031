import numpy as np
import pytest

from muskatss.grid_spline import HALF_PI, fit_spline, make_grid
from muskatss.lm import fd_jacobian
from muskatss import residual
from muskatss.quadrature import cumulative_gk15
from muskatss.residual import (
    _SERIES_DERIVS,
    ResidualConfig,
    _integrand,
    _integrand_partials,
    _series,
    delta_tilde,
    discretization,
    residual_at,
    residual_jacobian,
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
            lhs = delta_tilde(p, z, y, -1)
            rhs = -delta_tilde(p, -z, y, +1)
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_minus_sign_endpoint(self):
        p = sincos_profile()
        assert delta_tilde(p, 0.4, HALF_PI, -1) == -float(p.eval(HALF_PI))

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
    def test_end_region_seam(self, N, s, monkeypatch):
        # the paired end-region form is the direct form over a common
        # denominator, so moving the region's edge must not move the rows
        g = make_grid(N)
        p = fit_spline(g, perturbed_arctan(g, s), s)
        base = residual_vector(p).interior
        paired = {np.count_nonzero(discretization(N, ResidualConfig()).geo.paired)}
        try:
            for width in (0.5, 6.0, 20.0):
                monkeypatch.setattr(residual, "_END_REGION_WIDTH", width)
                discretization.cache_clear()
                other = residual_vector(p).interior
                paired.add(np.count_nonzero(discretization(N, ResidualConfig()).geo.paired))
                assert np.max(np.abs(other - base)) <= 1e-12 * np.max(np.abs(base))
        finally:
            monkeypatch.undo()
            discretization.cache_clear()
        assert len(paired) == 4        # each width moved the edge

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


def reference_interior(profile, cfg):
    """The interior rows as the residual once computed them: scipy spline
    evaluation and an adaptive antiderivative table at 1e-12, through the
    same kernel on the same geometry."""
    g, N = profile.grid, profile.grid.N
    d = discretization(N, cfg)
    geo, z, yi, ev = d.geo, g.nodes[1:-1], d.yi, scipy_evaluator(profile)
    pts = np.unique(np.concatenate([[0.0], z, yi]))
    P = cumulative_gk15(lambda w: ev(w, 0) / np.cos(w) ** 2, pts, tol=1e-12)
    pairs, end = _integrand(
        geo, kz=ev(z[:, None], 0), uz=ev(z[:, None], 1) * geo.cz ** 2,
        ky=ev(yi, 0), uy=ev(yi, 1) * geo.cy ** 2,
        D=P[np.searchsorted(pts, yi)][None, :] - P[np.searchsorted(pts, z)][:, None],
        b=float(ev(HALF_PI, 0)),
        band=[ev(geo.band.m, nu) for nu in range(_SERIES_DERIVS)],
        mirror=[ev(geo.mirror.m, nu) for nu in range(_SERIES_DERIVS)])
    rows = np.column_stack([pairs, end[:, 0]])
    integral = d.hy * (rows.sum(axis=1) - 0.5 * (rows[:, 0] + rows[:, -1]))
    transport = np.sin(z) * np.cos(z) * ev(z, 1)
    return np.append(transport + integral, 0.0), np.max(np.abs(transport))


class TestResidualOracle:
    @pytest.mark.parametrize("s", [0.1, 2.0, 7.0])
    @pytest.mark.parametrize("N", [17, 33, 129])
    @BAND_CASES
    def test_matches_spline_and_adaptive_table(self, cfg, band, N, s, band_halfwidth):
        band_halfwidth(band)
        g = make_grid(N)
        p = fit_spline(g, perturbed_arctan(g, s), s)
        want, scale = reference_interior(p, cfg)
        got = residual_vector(p, cfg).interior
        assert np.max(np.abs(got - want)) <= 1e-12 * scale
        # residual_at shares the kernel, on one row with the adaptive table
        nodes = range(1, N) if N < 129 else range(1, N, 9)
        at = np.array([residual_at(p, g.nodes[i], cfg) for i in nodes])
        assert np.max(np.abs(at - got[np.array(nodes) - 1])) <= 1e-12 * scale
        assert residual_at(p, HALF_PI, cfg) == got[-1] == 0.0


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

        exact = residual_jacobian(values, cfg)
        assert exact.shape == (N + 1, N)
        fd = fd_jacobian(r, values[1:][cols], 1e-6)
        scale = np.max(np.abs(exact))
        assert np.max(np.abs(exact[:, 1:][:, cols] - fd)) <= 1e-6 * scale

    def test_zero_and_boundary_rows(self):
        N = 17
        J = residual_jacobian(perturbed_arctan(make_grid(N), 0.5),
                              ResidualConfig(outer_nodes=77))
        assert np.all(J[N - 2] == 0.0)                   # the z = pi/2 row
        assert np.array_equal(J[N - 1], np.eye(N)[0])    # bc0 = values[0]
        assert np.array_equal(J[N], np.eye(N)[-1])       # bc_end = values[-1] - s


def kernel_inputs(N, cfg, s):
    """The interior-row geometry of (N, cfg) and the kernel's inputs there."""
    d = discretization(N, cfg)
    return d.geo, d._inputs(perturbed_arctan(make_grid(N), s))


class TestIntegrandPartials:
    @BAND_CASES
    def test_matches_complex_step(self, cfg, band, band_halfwidth):
        band_halfwidth(band)
        g, inp = kernel_inputs(33, cfg, 2.0)
        p = _integrand_partials(g, **inp)
        step = 1e-30
        cinp = {name: ([a.astype(complex) for a in v] if isinstance(v, list)
                       else np.asarray(v, dtype=complex)) for name, v in inp.items()}

        def cstep(name, nu=None):
            args = dict(cinp)
            if nu is None:
                args[name] = cinp[name] + 1j * step
            else:
                args[name] = [a + 1j * step * (mu == nu) for mu, a in enumerate(cinp[name])]
            pairs, end = _integrand(g, **args)
            return pairs.imag / step, end.imag[:, 0] / step

        def close(got, want):
            assert want.size > 0
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))

        band, mirror = g.near, g.near2
        kinds = {"generic": ~(band | mirror | g.paired), "paired": g.paired,
                 "band": band, "mirror": mirror}
        for name, want in (("kz", p.kz), ("ky", p.ky), ("uz", p.du), ("uy", -p.du),
                           ("D", p.D)):
            pairs, _ = cstep(name)
            for kind, mask in kinds.items():
                assert np.any(mask), kind
                close(want[mask], pairs[mask])

        # the y = pi/2 column
        for name, want in (("kz", p.end_kz), ("uz", p.end_uz), ("b", p.end_b)):
            close(want, cstep(name)[1])

        # the spline derivatives at the midpoints, through the series
        for name, mask, series, quot in (("band", band, g.band, p.band),
                                         ("mirror", mirror, g.mirror, p.mirror)):
            for nu in range(_SERIES_DERIVS):
                unit = [np.full(np.count_nonzero(mask), float(mu == nu))
                        for mu in range(_SERIES_DERIVS)]
                coefs = _series(series, unit)
                close(sum(q * c for q, c in zip(quot, coefs)), cstep(name, nu)[0][mask])

    def test_finite_where_the_value_is_finite(self):
        # |avg| ~ 1e200 on the band and mirror pairs: F and G underflow to 0,
        # and G' written as F^2 - 4 a^2 F^3 would be inf * 0 = NaN there
        g, inp = kernel_inputs(33, ResidualConfig(), 2.0)
        for name in ("band", "mirror"):
            inp[name] = [np.full_like(inp[name][0], 1e200)] + inp[name][1:]
        with np.errstate(over="ignore"):
            pairs, end = _integrand(g, **inp)
            p = _integrand_partials(g, **inp)
        assert np.all(np.isfinite(pairs)) and np.all(np.isfinite(end))
        for part in (p.kz, p.ky, p.du, p.D, p.end_kz, p.end_uz, p.end_b, *p.band, *p.mirror):
            assert np.all(np.isfinite(part))
