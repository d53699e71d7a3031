import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from muskatss.quadrature import (
    QuadConfig,
    QuadratureError,
    cumulative_gk15,
    gk15_adaptive,
    trapezoid,
)


class TestTrapezoid:
    def test_exact_on_affine(self):
        for M in (2, 3, 17, 100):
            assert trapezoid(lambda x: x, 0.0, 1.0, M) == pytest.approx(0.5, abs=1e-15)

    def test_exact_on_constants(self):
        assert trapezoid(lambda x: 7.0 * np.ones_like(x), 0.0, 1.0, 5) == pytest.approx(7.0)

    def test_second_order_richardson_ratio(self):
        # int_0^pi sin = 2 exactly; halving h divides the error by ~4
        M = 101
        e1 = abs(trapezoid(np.sin, 0.0, np.pi, M) - 2.0)
        e2 = abs(trapezoid(np.sin, 0.0, np.pi, 2 * M) - 2.0)
        ratio = e1 / e2
        expected = ((2 * M - 1) / (M - 1)) ** 2
        assert ratio == pytest.approx(expected, rel=0.05)
        assert 3.8 <= ratio <= 4.2

    def test_too_few_nodes(self):
        with pytest.raises(ValueError):
            trapezoid(np.sin, 0.0, 1.0, 1)

    def test_non_finite_sample_names_node(self):
        def f(x):
            x = np.asarray(x)
            return np.where(x > 0.5, np.inf, x)

        with pytest.raises(QuadratureError, match="node"):
            trapezoid(f, 0.0, 1.0, 11)


class TestGK15:
    def test_monomials_single_panel(self):
        # the embedded 7-point Gauss rule is exact through degree 13
        for k in range(14):
            res = gk15_adaptive(lambda x, k=k: x ** k, 0.0, 1.0)
            assert res.value == pytest.approx(1.0 / (k + 1), abs=1e-12)
            assert res.subdivisions == 1

    def test_arctan_kernel(self):
        res = gk15_adaptive(lambda x: 1.0 / (1.0 + x * x), 0.0, 1.0)
        assert res.value == pytest.approx(np.pi / 4.0, abs=1e-12)

    def test_sqrt_needs_subdivision(self):
        res = gk15_adaptive(np.sqrt, 0.0, 1.0, QuadConfig(abs_tol=1e-12, rel_tol=1e-12))
        assert res.value == pytest.approx(2.0 / 3.0, abs=1e-10)
        assert res.subdivisions > 1

    def test_budget_exhaustion_carries_estimate(self):
        cfg = QuadConfig(abs_tol=1e-15, rel_tol=1e-15, max_subdivisions=3)
        with pytest.raises(QuadratureError) as exc_info:
            gk15_adaptive(np.sqrt, 0.0, 1.0, cfg)
        assert exc_info.value.value == pytest.approx(2.0 / 3.0, abs=1e-4)
        assert exc_info.value.error_estimate > 0

    def test_linearity(self):
        f = np.exp
        g = np.cos
        a, b = 0.3, 1.7
        vf = gk15_adaptive(f, a, b).value
        vg = gk15_adaptive(g, a, b).value
        combo = gk15_adaptive(lambda x: 2.5 * f(x) - 1.25 * g(x), a, b)
        assert combo.value == pytest.approx(2.5 * vf - 1.25 * vg, abs=1e-10)

    def test_interval_additivity(self):
        f = lambda x: np.exp(-x) * np.sin(3 * x)
        whole = gk15_adaptive(f, 0.0, 2.0).value
        parts = gk15_adaptive(f, 0.0, 0.7).value + gk15_adaptive(f, 0.7, 2.0).value
        assert whole == pytest.approx(parts, abs=1e-10)

    def test_error_estimate_is_usually_an_upper_bound(self):
        # library of integrands with elementary antiderivatives
        cases = []
        rng = np.random.default_rng(42)
        for _ in range(40):
            a, b = np.sort(rng.uniform(-2.0, 2.0, size=2))
            if b - a < 1e-3:
                b = a + 1e-3
            k = rng.integers(1, 6)
            cases.append((lambda x, k=k: x ** k, (b ** (k + 1) - a ** (k + 1)) / (k + 1), a, b))
            cases.append((np.exp, np.exp(b) - np.exp(a), a, b))
            cases.append((lambda x: 1.0 / (1.0 + x * x), np.arctan(b) - np.arctan(a), a, b))
        violations = 0
        for f, exact, a, b in cases:
            res = gk15_adaptive(f, a, b)
            true_err = abs(res.value - exact)
            if true_err > res.error_estimate:
                violations += 1
                assert true_err <= 10.0 * max(res.error_estimate, 1e-16)
        assert violations <= 0.05 * len(cases)

    def test_inverted_interval_rejected(self):
        with pytest.raises(ValueError):
            gk15_adaptive(np.sin, 1.0, 0.0)

    def test_empty_interval(self):
        res = gk15_adaptive(np.sin, 0.5, 0.5)
        assert res.value == 0.0

    def test_tolerance_below_roundoff_stops_at_the_floor(self):
        # halving cannot push the summed error below 50*eps*int|f|, so the
        # rule returns the roundoff-limited value instead of failing
        cfg = QuadConfig(abs_tol=1e-300, rel_tol=1e-300)
        res = gk15_adaptive(np.exp, 0.0, 1.0, cfg)
        assert res.value == pytest.approx(np.e - 1.0, rel=1e-15)
        assert res.error_estimate == pytest.approx(
            50.0 * np.finfo(float).eps * (np.e - 1.0), rel=1e-6)
        assert res.subdivisions <= cfg.max_subdivisions

    def test_scalar_integrand(self):
        res = gk15_adaptive(lambda x: 3.0, 0.0, 2.0)
        assert res.value == pytest.approx(6.0, abs=1e-14)


class TestCumulative:
    @pytest.mark.parametrize("f, F, hi", [
        (np.cos, np.sin, 3.0),
        (lambda x: 1.0 / (1.0 + x * x), np.arctan, 3.0),
        (lambda x: 1.0 / np.cos(x) ** 2, np.tan, 1.5),
        (lambda x: np.exp(-x) * np.sin(2 * x),
         lambda x: -np.exp(-x) * (np.sin(2 * x) + 2 * np.cos(2 * x)) / 5.0, 3.0),
    ], ids=["cos", "lorentzian", "sec2", "damped-sine"])
    def test_closed_form_antiderivatives(self, f, F, hi):
        pts = np.sort(np.concatenate([[0.0, hi], np.random.default_rng(3).uniform(0, hi, 30)]))
        P = cumulative_gk15(f, pts, tol=1e-13)
        assert P[0] == 0.0
        np.testing.assert_allclose(P, F(pts) - F(pts[0]), rtol=1e-12, atol=1e-12)

    def test_matches_adaptive_rule(self):
        f = lambda x: np.exp(-x) * (1 + np.sin(2 * x))
        pts = np.sort(np.concatenate([[0.0], np.random.default_rng(1).uniform(0, 3, 20)]))
        P = cumulative_gk15(f, pts, tol=1e-13)
        for i in (5, 10, len(pts) - 1):
            ref = gk15_adaptive(f, pts[0], pts[i]).value
            assert P[i] == pytest.approx(ref, abs=1e-10)

    def test_steep_integrand_refines(self):
        # sec^2-type growth toward the right end, as in the sliding averages
        f = lambda x: 1.0 / np.cos(x) ** 2
        pts = np.array([0.0, 1.0, 1.5, np.pi / 2 - 1e-4])
        P = cumulative_gk15(f, pts, tol=1e-12)
        assert P[-1] == pytest.approx(np.tan(pts[-1]), rel=1e-12)

    def test_requires_sorted(self):
        with pytest.raises(ValueError):
            cumulative_gk15(np.sin, np.array([0.0, 2.0, 1.0]))


_SCALED_PROFILE_RUN = """
import resource, sys, time
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
import numpy as np
from muskatss import fit_spline, make_grid, residual_vector
from muskatss.quadrature import QuadratureError

g = make_grid(17)
for scale in (1e6, 1e100):
    p = fit_spline(g, scale * (2.0 / np.pi) * 0.1 * g.nodes, scale * 0.1)
    t0 = time.perf_counter()
    try:
        residual_vector(p)
    except QuadratureError:
        pass
    print(scale, time.perf_counter() - t0)
"""


def test_scaled_profiles_bounded_work():
    # a huge profile overflows the residual's kernel; evaluating it must
    # still end within a second and a 1 GiB cap, or raise QuadratureError
    src = Path(__file__).resolve().parents[1] / "src"
    out = subprocess.run([sys.executable, "-c", _SCALED_PROFILE_RUN], capture_output=True,
                         text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(src), "OPENBLAS_NUM_THREADS": "1"})
    assert out.returncode == 0, out.stderr
    times = [float(line.split()[1]) for line in out.stdout.splitlines()]
    assert len(times) == 2 and max(times) < 1.0, out.stdout
