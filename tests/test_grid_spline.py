import numpy as np
import pytest

from muskatss.grid_spline import HALF_PI, SplineMaps, fit_spline, make_grid
from muskatss.residual import residual_vector


class TestGrid:
    def test_two_nodes(self):
        g = make_grid(2)
        assert np.allclose(g.nodes, [0.0, HALF_PI])

    def test_reference_node(self):
        g = make_grid(129)
        assert g.nodes[1] == pytest.approx(np.pi / 256.0, abs=1e-15)
        assert g.nodes[1] == pytest.approx(0.012271846, abs=1e-9)

    def test_endpoint(self):
        g = make_grid(129)
        assert g.nodes[-1] == pytest.approx(HALF_PI, abs=1e-15)
        assert np.allclose(np.diff(g.nodes), g.spacing)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            make_grid(1)


class TestFitSpline:
    def test_zero_values(self):
        g = make_grid(33)
        p = fit_spline(g, np.zeros(33), 0.0)
        z = np.linspace(-HALF_PI, HALF_PI, 101)
        assert np.all(p.eval(z) == 0.0)
        assert np.all(p.eval_deriv(z) == 0.0)

    def test_quartic_reproduction(self):
        g = make_grid(33)
        q = lambda z: z ** 4 - z ** 2
        p = fit_spline(g, q(g.nodes), 0.0)
        z = np.linspace(0.0, HALF_PI, 501)
        assert np.max(np.abs(p.eval(z) - q(z))) < 1e-12

    def test_general_quartic_relative(self):
        g = make_grid(65)
        q = lambda z: 0.3 * z ** 4 - 0.2 * z ** 3 + 0.5 * z ** 2 + 0.1 * z
        qp = lambda z: 1.2 * z ** 3 - 0.6 * z ** 2 + 1.0 * z + 0.1
        p = fit_spline(g, q(g.nodes), 0.0)
        z = np.linspace(0.0, HALF_PI, 501)
        scale = np.max(np.abs(q(z)))
        assert np.max(np.abs(p.eval(z) - q(z))) < 1e-11 * scale
        assert np.max(np.abs(p.eval_deriv(z) - qp(z))) < 1e-9

    def test_affine_values(self):
        g = make_grid(17)
        s = 0.4
        vals = (2.0 / np.pi) * s * g.nodes
        p = fit_spline(g, vals, s)
        z = np.linspace(0.0, HALF_PI, 101)
        assert np.allclose(p.eval(z), (2.0 / np.pi) * s * z, atol=1e-14)
        assert np.allclose(p.eval_deriv(z), (2.0 / np.pi) * s, atol=1e-13)

    def test_interpolates_nodes(self):
        g = make_grid(41)
        rng = np.random.default_rng(3)
        vals = rng.normal(size=41)
        vals[0] = 0.0
        p = fit_spline(g, vals, 0.0)
        assert np.max(np.abs(p.eval(g.nodes) - vals)) <= 1e-12 * np.max(np.abs(vals))

    def test_odd_symmetry_exact(self):
        g = make_grid(21)
        vals = np.sin(g.nodes) * (1 + 0.3 * g.nodes)
        vals[0] = 0.0
        p = fit_spline(g, vals, 0.0)
        z = np.linspace(0.0, HALF_PI, 301)
        assert np.max(np.abs(p.eval(-z) + p.eval(z))) == 0.0
        assert np.max(np.abs(p.eval_deriv(-z) - p.eval_deriv(z))) == 0.0

    def test_eval_at_zero(self):
        g = make_grid(9)
        vals = g.nodes.copy()
        p = fit_spline(g, vals, 1.0)
        assert p.eval(0.0) == 0.0

    def test_derivative_convergence_order(self):
        # spline derivative of sin(z) against cos(z) under grid doubling
        errs, hs = [], []
        for N in (17, 33, 65, 129):
            g = make_grid(N)
            p = fit_spline(g, np.sin(g.nodes), 1.0)
            z = np.linspace(0.0, HALF_PI, 1001)
            errs.append(np.max(np.abs(p.eval_deriv(z) - np.cos(z))))
            hs.append(g.spacing)
        order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
        assert order >= 3.0

    def test_domain_errors(self):
        g = make_grid(9)
        p = fit_spline(g, np.zeros(9), 0.0)
        with pytest.raises(ValueError):
            p.eval(2.0)
        with pytest.raises(ValueError):
            p.eval_deriv(-2.0)

    def test_input_validation(self):
        g = make_grid(9)
        with pytest.raises(ValueError):
            fit_spline(g, np.ones(9), 0.0)   # values[0] != 0
        with pytest.raises(ValueError):
            fit_spline(g, np.zeros(5), 0.0)  # wrong length
        with pytest.raises(ValueError):
            fit_spline(make_grid(4), np.zeros(4), 0.0)  # too few nodes

    def test_fitted_on_first_evaluation(self):
        g = make_grid(17)
        p = fit_spline(g, np.sin(g.nodes), 0.0)
        residual_vector(p)
        assert "spline" not in vars(p)   # an LM trial profile costs no fit
        p.eval(0.3)
        assert "spline" in vars(p)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_values(self, bad):
        # a branch file holding NaN or inf fails at load time, as it did with scipy's fit
        vals = np.zeros(9)
        vals[3] = bad
        with pytest.raises(ValueError, match="infs or nans"):
            fit_spline(make_grid(9), vals, 0.0)


class TestSplineMaps:
    @pytest.mark.parametrize("nu", range(5))
    def test_maps_reproduce_the_profile(self, nu):
        g = make_grid(17)
        rng = np.random.default_rng(nu)
        values = np.concatenate([[0.0], rng.normal(size=16)])
        profile = fit_spline(g, values, 0.0)
        pts = np.concatenate([rng.uniform(-HALF_PI, HALF_PI, 40), g.nodes, -g.nodes])
        want = profile.eval_deriv(pts, nu)
        maps = SplineMaps(g)
        rows, first = maps.local(pts, nu)
        coef = maps.coef @ values
        local = np.sum(rows * coef[first[:, None] + np.arange(rows.shape[1])], axis=1)
        tol = 1e-12 * np.max(np.abs(want))
        assert np.max(np.abs(maps.dense(pts, nu) @ values - want)) <= tol
        assert np.max(np.abs(local - want)) <= tol


# scipy is the oracle of the numpy spline: the tests depend on it, the package does not
@pytest.fixture(scope="module")
def interpolate():
    return pytest.importorskip("scipy.interpolate")


def random_odd_profile(N, rng):
    values = rng.normal(size=N)
    values[0] = 0.0
    return values


def probe_points(grid, t, rng):
    """Random points on both sides of 0, the nodes and the knots, mirrored."""
    pts = np.concatenate([rng.uniform(0.0, HALF_PI, 200), grid.nodes, t])
    return np.concatenate([pts, -pts])


def bound(want, grid, nu):
    """1e-14 h^-nu max|want|: the nu-th derivative's share of roundoff."""
    return 1e-14 * grid.spacing ** -nu * np.max(np.abs(want))


class TestAgainstScipy:
    """``make_interp_spline(k=4)`` on the same values, reflected as the profile is."""

    @pytest.mark.parametrize("N", [5, 17, 33, 129])
    def test_values_and_derivatives(self, interpolate, N):
        g = make_grid(N)
        rng = np.random.default_rng(N)
        for _ in range(3):
            values = random_odd_profile(N, rng)
            ref = interpolate.make_interp_spline(g.nodes, values, k=4)
            profile = fit_spline(g, values, 0.0)
            pts = probe_points(g, ref.t, rng)
            for nu in range(5):
                want = ref(np.abs(pts), nu)
                if nu % 2 == 0:
                    want = np.where(pts < 0, -want, want)
                got = profile.eval_deriv(pts, nu)
                assert np.max(np.abs(got - want)) <= bound(want, g, nu), nu

    @pytest.mark.parametrize("N", [5, 17, 33, 129])
    def test_maps(self, interpolate, N):
        g = make_grid(N)
        rng = np.random.default_rng(N + 1)
        maps = SplineMaps(g)
        cardinal = interpolate.make_interp_spline(g.nodes, np.eye(N), k=4)
        assert np.array_equal(maps.t, cardinal.t)
        assert np.max(np.abs(maps.coef - cardinal.c)) <= bound(cardinal.c, g, 0)
        # column r of the one-hot coefficients sums the basis functions of
        # index r mod 5, so at each point it holds one of the five nonzero ones
        basis = interpolate.BSpline(cardinal.t, (np.arange(N)[:, None] % 5 == np.arange(5)) * 1.0, 4)
        pts = probe_points(g, cardinal.t, rng)
        sign = np.where(pts < 0, -1.0, 1.0)[:, None]
        for nu in range(5):
            flip = sign if nu % 2 == 0 else 1.0
            want = flip * cardinal(np.abs(pts), nu)
            assert np.max(np.abs(maps.dense(pts, nu) - want)) <= bound(want, g, nu), nu
            rows, first = maps.local(pts, nu)
            want_first = np.clip(np.searchsorted(cardinal.t, np.abs(pts), side="right") - 1,
                                 4, N - 1) - 4
            cols = (want_first[:, None] + np.arange(5)) % 5
            want = flip * np.take_along_axis(basis(np.abs(pts), nu), cols, axis=1)
            assert np.array_equal(first, want_first)
            assert np.max(np.abs(rows - want)) <= bound(want, g, nu), nu
