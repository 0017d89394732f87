import math
import warnings

import numpy as np
import pytest

from casfric.errors import DomainError
from casfric.quadrature import (QuadratureSpec, default_spec,
                                integrate_finite, integrate_semi_infinite)

TIGHT = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10)


class TestFinite:
    def test_polynomial_exact(self):
        res = integrate_finite(lambda x: x, 0.0, 1.0)
        assert res.converged
        assert res.value == pytest.approx(0.5, abs=1e-14)

    def test_sine(self):
        res = integrate_finite(np.sin, 0.0, math.pi)
        assert res.converged
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_inverse_sqrt_endpoint_singularity(self):
        # oracle: antiderivative 2*sqrt(x) -> exactly 2 on [0, 1]
        res = integrate_finite(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0,
                               QuadratureSpec(abs_tol=1e-11, rel_tol=1e-9))
        assert res.converged
        assert abs(res.value - 2.0) < 1e-8

    def test_error_estimate_is_honest(self):
        res = integrate_finite(lambda x: np.exp(-x * x), -3.0, 3.0, TIGHT)
        exact = math.sqrt(math.pi) * math.erf(3.0)
        assert abs(res.value - exact) <= max(res.error_estimate, 1e-13)

    def test_flagged_nonconvergence(self):
        # 1/x is not integrable across 0; must flag, not lie
        def f(x):
            with np.errstate(divide="ignore"):
                return 1.0 / np.abs(x)

        res = integrate_finite(f, -1.0, 1.0,
                               QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10,
                                              max_subdivisions=200))
        assert not res.converged

    def test_infinite_total_not_converged(self):
        res = integrate_finite(lambda x: np.full_like(x, np.inf), 0.0, 1.0)
        assert not res.converged

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate_finite(np.sin, 1.0, 0.0)

    def test_split_points_help_sharp_peak(self):
        width = 1e-7
        center = 0.3333

        def peak(x):
            return width / ((x - center) ** 2 + width ** 2) / math.pi

        res = integrate_finite(peak, 0.0, 1.0, TIGHT, split_points=[center])
        exact = (math.atan((1 - center) / width) + math.atan(center / width)) / math.pi
        assert res.converged
        assert res.value == pytest.approx(exact, rel=1e-9)

    def test_determinism(self):
        def f(x):
            return np.sin(3.0 * x) / (1.0 + x * x)

        a = integrate_finite(f, 0.0, 7.0, TIGHT)
        b = integrate_finite(f, 0.0, 7.0, TIGHT)
        assert a.value == b.value
        assert a.error_estimate == b.error_estimate
        assert a.evaluations == b.evaluations

    def test_refinement_monotone_error(self):
        spec = lambda n: QuadratureSpec(abs_tol=1e-16, rel_tol=1e-16,
                                        max_subdivisions=n)
        errs = [integrate_finite(lambda x: np.exp(np.sin(5 * x)), 0.0, 4.0,
                                 spec(n)).error_estimate
                for n in (1, 2, 4, 8, 16, 32)]
        assert all(e2 <= e1 * (1 + 1e-12) for e1, e2 in zip(errs, errs[1:]))


class TestSemiInfinite:
    def test_cubic_exponential(self):
        res = integrate_semi_infinite(lambda u: u ** 3 * np.exp(-2.0 * u), 0.5)
        assert res.converged
        assert res.value == pytest.approx(3.0 / 8.0, abs=1e-10)

    def test_thermal_kernel(self):
        def f(x):
            x = np.asarray(x, dtype=float)
            ex = np.exp(-x)
            return x * x * ex / (1.0 - ex) ** 2

        res = integrate_semi_infinite(f, 1.0, TIGHT)
        assert res.converged
        assert abs(res.value - math.pi ** 2 / 3.0) < 1e-8

    def test_unit_exponential(self):
        res = integrate_semi_infinite(lambda x: np.exp(-x), 1.0)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_power_law_tail(self):
        # the mapped tail of a 1/x^4 decay vanishes smoothly at t = 1
        res = integrate_semi_infinite(lambda x: 1.0 / (1.0 + x) ** 4, 1.0, TIGHT)
        assert res.converged
        assert res.value == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_nondecaying_flagged(self):
        res = integrate_semi_infinite(lambda x: 1.0 / (1.0 + x), 1.0,
                                      QuadratureSpec(abs_tol=1e-8, rel_tol=1e-8,
                                                     max_subdivisions=2000))
        assert not res.converged

    def test_slow_power_law_tail(self):
        # 1/x^2 decay: the mapped tail is a smooth rational function of t
        res = integrate_semi_infinite(lambda x: 1.0 / (1.0 + x) ** 2, 1.0,
                                      QuadratureSpec(abs_tol=1e-14,
                                                     rel_tol=1e-13))
        assert res.converged
        assert abs(res.value - 1.0) < 1e-12

    @pytest.mark.parametrize("center", [50.0, 10.0],
                             ids=["beyond-head", "at-head-end"])
    def test_narrow_line_behind_split_point(self, center):
        # a 1e-6 wide line at 50 decay scales, where without the split the
        # subdivision budget runs out, and at 10, the default end of the head
        width = 1e-6

        def f(x):
            return np.exp(-x) + width / ((x - center) ** 2 + width ** 2) / math.pi

        exact = 1.0 + (0.5 + math.atan(center / width) / math.pi)
        res = integrate_semi_infinite(f, 1.0, TIGHT, split_points=[center])
        assert res.converged
        assert abs(res.value - exact) <= res.error_estimate

    def test_nondecaying_flagged_without_warning(self):
        for f in (np.ones_like, lambda x: 1.0 / np.sqrt(1.0 + x)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = integrate_semi_infinite(f, 1.0)
            assert not res.converged


def test_default_spec_env_override(monkeypatch):
    monkeypatch.setenv("CASFRIC_QUAD_TOL", "1e-6")
    spec = default_spec()
    assert spec.rel_tol == 1e-6
    assert spec.abs_tol == 1e-8
    monkeypatch.delenv("CASFRIC_QUAD_TOL")
    assert default_spec().rel_tol == 1e-8

