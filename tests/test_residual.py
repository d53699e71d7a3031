import numpy as np
import pytest

from muskatss.grid_spline import HALF_PI, fit_spline, make_grid
from muskatss.quadrature import QuadConfig
from muskatss.residual import (
    ResidualConfig,
    delta_tilde,
    residual_at,
    residual_vector,
)

from conftest import random_odd_values


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

    def test_seam_consistency(self, linear_profile_01):
        # shrinking the diagonal split band must not move the values
        rng = np.random.default_rng(17)
        base = ResidualConfig()
        half = ResidualConfig(split_halfwidth_z=1.0)
        for _ in range(5):
            z = float(rng.uniform(0.05, HALF_PI - 0.05))
            a = residual_at(linear_profile_01, z, base)
            b = residual_at(linear_profile_01, z, half)
            assert abs(a - b) < 1e-7

    def test_series_order_consistency(self, linear_profile_01):
        first = ResidualConfig(series_order=1)
        second = ResidualConfig(series_order=2)
        z = 0.9
        a = residual_at(linear_profile_01, z, first)
        b = residual_at(linear_profile_01, z, second)
        assert abs(a - b) < 5e-7

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

    def test_outer_refinement_stability(self, linear_profile_01):
        r1 = residual_vector(linear_profile_01, ResidualConfig(outer_nodes=1290))
        r2 = residual_vector(linear_profile_01, ResidualConfig(outer_nodes=2580))
        assert np.max(np.abs(r1.stacked() - r2.stacked())) < 1e-6

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ResidualConfig(outer_nodes=1)
        with pytest.raises(ValueError):
            ResidualConfig(split_halfwidth_z=0.0)
        with pytest.raises(ValueError):
            ResidualConfig(series_order=3)
