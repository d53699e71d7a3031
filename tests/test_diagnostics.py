import numpy as np
import pytest

from muskatss.analytic import kappa, linear_profile
from muskatss.continuation import Branch, BranchStep
from muskatss import diagnostics
from muskatss.diagnostics import (
    REFERENCES,
    FigureTable,
    ds_derivative_check,
    figure_data,
    fit_loglog_slope,
    h1_distance,
    h1_distances,
    h1_norm,
    h1_profile_distance,
)
from muskatss.grid_spline import HALF_PI, fit_spline, make_grid
from muskatss.lm import SolverReport
from muskatss.quadrature import QuadConfig, QuadratureError, gk15_adaptive


def arctan_profile(s, N=129):
    """Profile whose nodal values sample the arctan reference exactly."""
    g = make_grid(N)
    kb = 1.0 / kappa(s)
    vals = (2.0 * s / np.pi) * np.arctan(kb * np.tan(g.nodes))
    vals[-1] = s
    vals[0] = 0.0
    return fit_spline(g, vals, s)


def synthetic_branch(s_values, ds, N=65):
    branch = Branch(ds=ds, N=N)
    for s in s_values:
        p = arctan_profile(s, N)
        branch.steps.append(BranchStep(
            s=s, profile=p,
            report=SolverReport(solution=p.values[1:], residual_norm=0.0,
                                iterations=0, converged=True)))
    return branch


class TestH1Norm:
    def test_exponential_closed_form(self):
        # f(y) = exp(-y): ||f||_{H1(0,inf)}^2 = 1, doubled over the line
        f = lambda z: np.exp(-np.tan(z))
        fp = lambda z: -np.exp(-np.tan(z)) / np.cos(z) ** 2
        assert h1_norm(f, fp) == pytest.approx(np.sqrt(2.0), abs=1e-8)

    def test_zero(self):
        zero = lambda z: np.zeros_like(z)
        assert h1_norm(zero, zero) == 0.0


class TestH1Distance:
    def test_self_distance_zero(self):
        p = arctan_profile(0.3)
        assert h1_profile_distance(p, p) == 0.0

    def test_matching_reference_is_spline_small(self):
        # nodal samples of the reference differ from it only by spline error
        p = arctan_profile(0.3)
        rep = h1_distance(p, "kappa_arctan")
        assert rep.h1_distance < 1e-6
        assert rep.reference == "kappa_arctan"
        assert rep.s == 0.3

    def test_reference_mismatch_raises(self):
        g = make_grid(33)
        vals = (2.0 / np.pi) * 0.3 * g.nodes
        p = fit_spline(g, vals, 0.25)      # boundary value 0.3 != target 0.25
        with pytest.raises(ValueError, match="decay"):
            h1_distance(p, "theorem_arctan")

    def test_unknown_reference(self):
        p = arctan_profile(0.1)
        with pytest.raises(ValueError, match="reference"):
            h1_distance(p, "something_else")

    def test_triangle_inequality(self):
        g = make_grid(65)
        rng = np.random.default_rng(23)
        profiles = []
        for _ in range(3):
            vals = np.sin(g.nodes) * rng.uniform(0.1, 0.4) + g.nodes * rng.uniform(0, 0.1)
            vals[0] = 0.0
            profiles.append(fit_spline(g, vals, vals[-1]))
        a, b, c = profiles
        dab = h1_profile_distance(a, b)
        dbc = h1_profile_distance(b, c)
        dac = h1_profile_distance(a, c)
        assert dac <= dab + dbc + 1e-10


def deviating_profiles(s_values, N=65):
    """kappa-arctan nodal values plus an s^3 deviation that vanishes at both ends."""
    g = make_grid(N)
    profiles = []
    for s in s_values:
        vals = ((2.0 * s / np.pi) * np.arctan(np.tan(g.nodes) / kappa(s))
                + 0.02 * s ** 3 * np.sin(2.0 * g.nodes))
        vals[0], vals[-1] = 0.0, s
        profiles.append(fit_spline(g, vals, s))
    return profiles


BRANCH_S = (0.1, 0.2, 0.4, 1.0, 2.0, 4.0, 7.0)


class TestH1Distances:
    """All profiles' H^1 integrals in one loop, each as if it ran alone."""

    @pytest.mark.parametrize("reference", REFERENCES)
    def test_matches_one_profile_at_a_time(self, reference):
        profiles = deviating_profiles(BRANCH_S)
        many = h1_distances(profiles, reference)
        assert len(many) == len(profiles)
        for rep, p in zip(many, profiles):
            one = h1_distance(p, reference)
            assert (rep.s, rep.reference, rep.linf_distance) == (one.s, one.reference,
                                                                  one.linf_distance)
            assert abs(rep.h1_distance - one.h1_distance) <= 1e-15 * one.h1_distance

    def test_budget_counted_per_integral(self, monkeypatch):
        profiles = deviating_profiles(BRANCH_S)
        full = h1_distances(profiles)

        def passes(p, budget):
            monkeypatch.setattr(diagnostics, "_H1_QUAD",
                                QuadConfig(abs_tol=1e-12, rel_tol=1e-10,
                                           max_subdivisions=budget))
            try:
                h1_distance(p)
            except QuadratureError:
                return False
            return True

        def smallest_budget(p):
            lo, hi = 1, 4000          # passes(p, hi), and passing is monotone
            while lo < hi:
                mid = (lo + hi) // 2
                lo, hi = (lo, mid) if passes(p, mid) else (mid + 1, hi)
            return lo

        need = [smallest_budget(p) for p in profiles]
        budget = max(need)
        # one budget shared by the batch would run out
        assert sum(need) > budget + len(need)
        monkeypatch.setattr(diagnostics, "_H1_QUAD",
                            QuadConfig(abs_tol=1e-12, rel_tol=1e-10, max_subdivisions=budget))
        assert h1_distances(profiles) == full
        monkeypatch.setattr(diagnostics, "_H1_QUAD",
                            QuadConfig(abs_tol=1e-12, rel_tol=1e-10,
                                       max_subdivisions=budget - 1))
        with pytest.raises(QuadratureError):
            h1_distances(profiles)

    def test_first_mismatched_step_raises(self):
        profiles = deviating_profiles(BRANCH_S)
        g = profiles[0].grid
        for i in (2, 5):
            p = profiles[i]
            profiles[i] = fit_spline(g, p.values, p.s + 1e-3 * i)
        with pytest.raises(ValueError) as alone:
            h1_distance(profiles[2], "theorem_arctan")
        with pytest.raises(ValueError) as batch:
            h1_distances(profiles, "theorem_arctan")
        assert "decay" in str(batch.value) and str(batch.value) == str(alone.value)

    def test_no_profiles(self):
        assert h1_distances([]) == []


class TestDsDerivativeCheck:
    def test_arctan_family_matches_independent_quadrature(self):
        # oracle value computed from closed forms in the y variable
        branch = synthetic_branch([0.1, 0.2], ds=0.1, N=129)
        got = ds_derivative_check(branch, 0.1)

        def fd_minus_ref(y):
            return ((linear_profile(0.2, y) - linear_profile(0.1, y)) / 0.1
                    - (2.0 / np.pi) * np.arctan(y))

        def fd_minus_ref_deriv(y):
            kb1, kb2 = 1.0 / kappa(0.1), 1.0 / kappa(0.2)
            d2 = (2.0 * 0.2 / np.pi) * kb2 / (1.0 + (kb2 * y) ** 2)
            d1 = (2.0 * 0.1 / np.pi) * kb1 / (1.0 + (kb1 * y) ** 2)
            return (d2 - d1) / 0.1 - (2.0 / np.pi) / (1.0 + y * y)

        def integrand(y):
            return fd_minus_ref(y) ** 2 + fd_minus_ref_deriv(y) ** 2

        val = gk15_adaptive(integrand, 0.0, 200.0).value
        tail = gk15_adaptive(integrand, 200.0, 2e4).value
        oracle = np.sqrt(2.0 * (val + tail))
        assert got == pytest.approx(oracle, abs=2e-4)

    def test_missing_step_raises(self):
        branch = synthetic_branch([0.1, 0.2], ds=0.1)
        with pytest.raises(KeyError):
            ds_derivative_check(branch, 0.2)   # needs 0.3 as well


class TestFigureData:
    def test_discrepancy_pinned_at_ends(self):
        branch = synthetic_branch([0.2], ds=0.2)
        table = figure_data(branch, "discrepancy", samples=101)
        assert table.abscissa_name == "z"
        assert table.columns[0, 0] == pytest.approx(0.0, abs=1e-14)
        assert table.columns[-1, 0] == pytest.approx(0.0, abs=1e-12)

    def test_normalized_tends_to_one(self):
        branch = synthetic_branch([0.1, 0.4], ds=0.1)
        table = figure_data(branch, "normalized", y_range=(0.0, 1e6), samples=11)
        assert np.all(np.abs(table.columns[-1] - 1.0) < 1e-4)

    def test_integrated_closed_form(self):
        # int_0^y of the arctan profile has an elementary antiderivative
        s = 0.3
        kb = 1.0 / kappa(s)
        branch = synthetic_branch([s], ds=s, N=257)
        table = figure_data(branch, "integrated", y_range=(-50.0, 50.0), samples=21)
        y = table.abscissa

        exact = (2.0 * s / np.pi) * (np.abs(y) * np.arctan(kb * np.abs(y))
                                     - np.log1p((kb * y) ** 2) / (2.0 * kb))
        assert np.max(np.abs(table.columns[:, 0] - exact)) < 1e-6

    def test_integrated_even_in_y(self):
        branch = synthetic_branch([0.2], ds=0.2)
        table = figure_data(branch, "integrated", y_range=(-10.0, 10.0), samples=21)
        col = table.columns[:, 0]
        assert np.allclose(col, col[::-1], atol=1e-12)

    def test_constant_slope_reference_integral(self):
        # integrating the constant far-field slope gives s*y
        s, y = 0.7, 12.0
        assert gk15_adaptive(lambda t: s * np.ones_like(t), 0.0, y).value == pytest.approx(s * y)

    def test_integrated_arctan_quadrature_vs_closed_form(self):
        s = 0.3
        kb = 1.0 / kappa(s)
        for y in (0.5, 5.0, 50.0):
            quad = gk15_adaptive(lambda t: linear_profile(s, t), 0.0, y).value
            exact = (2.0 * s / np.pi) * (y * np.arctan(kb * y)
                                         - np.log1p((kb * y) ** 2) / (2.0 * kb))
            assert quad == pytest.approx(exact, abs=1e-8)

    def test_missing_s_raises(self):
        branch = synthetic_branch([0.1], ds=0.1)
        with pytest.raises(KeyError):
            figure_data(branch, "normalized", s_values=[0.5])

    def test_empty_branch_raises(self):
        with pytest.raises(ValueError):
            figure_data(Branch(ds=0.1, N=65), "discrepancy")

    def test_csv_format(self):
        branch = synthetic_branch([0.1, 0.2], ds=0.1)
        text = figure_data(branch, "discrepancy", samples=5).to_csv()
        lines = text.strip().split("\n")
        assert lines[0] == "z,s=0.1,s=0.2"
        assert len(lines) == 6
        # 15 significant digits survive the round trip
        val = float(lines[2].split(",")[0])
        assert f"{val:.15g}" == lines[2].split(",")[0]

    def test_csv_bytes_of_special_values(self):
        # each row is one "%.15g" format string; its bytes are those of
        # formatting every value alone
        special = [np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -2.2250738585072e-308,
                   1e-300, -1e300, 1.7976931348623157e308, 1.0 / 3.0, -123456789.0]
        rng = np.random.default_rng(3)
        columns = rng.permutation(special * 2).reshape(-1, 2)
        abscissa = np.array(special)
        table = FigureTable("z", abscissa, (0.5, 2.0), columns)
        want = "z,s=0.5,s=2\n" + "".join(
            f"{a:.15g},{u:.15g},{v:.15g}\n" for a, (u, v) in zip(abscissa, columns))
        assert table.to_csv() == want
        tokens = set(want.replace("\n", ",").split(","))
        assert {"nan", "inf", "-inf", "0", "-0", "4.94065645841247e-324", "1e-300"} <= tokens


class TestOrderFit:
    def test_exact_power(self):
        s = np.array([0.05, 0.1, 0.2, 0.4])
        assert fit_loglog_slope(s, 2.7 * s ** 3) == pytest.approx(3.0, abs=1e-12)

    def test_needs_two_points(self):
        with pytest.raises(ValueError):
            fit_loglog_slope([0.1], [1.0])
