import dataclasses
import heapq
import math
import warnings

import numpy as np
import pytest

from casfric.errors import DomainError
from casfric.quadrature import (_GAUSS_IDX, _WG, _WGK, _XGK, IntegralResult,
                                QuadratureSpec, default_spec,
                                integrate_finite, integrate_semi_infinite)

TIGHT = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10)


def panel_by_panel(f, a, b, spec, split_points=()):
    """Oracle of the batched engine: the same G7/K15 rule and worst-first
    bisection with one integrand call per panel, as the engine was
    written before it evaluated a whole pass in one call."""

    def panel(lo, hi):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (lo + hi)
        y = np.asarray(f(mid + half * _XGK), dtype=float)
        k15 = half * float(np.dot(_WGK, y))
        g7 = half * float(np.dot(_WG, y[_GAUSS_IDX]))
        return k15, abs(k15 - g7)

    edges = [a] + sorted(s for s in set(map(float, split_points))
                         if a < s < b) + [b]
    heap, total, total_err, evals = [], 0.0, 0.0, 0
    for counter, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        val, err = panel(lo, hi)
        evals += 15
        total += val
        total_err += err
        heapq.heappush(heap, (-err, counter, lo, hi, val, err))
    counter = len(heap)
    n_panels = len(heap)
    stuck_err = 0.0
    while total_err > spec.target(total) and n_panels < spec.max_subdivisions:
        if not heap:
            break
        _, _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            stuck_err += err
            total_err = stuck_err + sum(item[5] for item in heap)
            if stuck_err > spec.target(total):
                break
            continue
        v1, e1 = panel(lo, mid)
        v2, e2 = panel(mid, hi)
        evals += 30
        total += (v1 + v2) - val
        total_err += (e1 + e2) - err
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, counter + 1, mid, hi, v2, e2))
        counter += 2
        n_panels += 1
    converged = math.isfinite(total) and total_err <= spec.target(total)
    return IntegralResult(total, total_err, evals, converged)


def fields(res):
    """Type and exact spelling of every field; nan-safe, unlike ==."""
    return [(type(v), repr(v)) for v in dataclasses.astuple(res)]


def assert_plain(res):
    """Every IntegralResult field is a plain Python scalar, so results
    serialize with json and compare without numpy."""
    assert [type(v) for v in dataclasses.astuple(res)] == [float, float, int,
                                                           bool]


def lorentz(center, width):
    def f(x):
        return width / ((x - center) ** 2 + width ** 2) / math.pi
    return f


def inverse_abs(x):
    with np.errstate(divide="ignore"):
        return 1.0 / np.abs(x)


# (integrand, a, b, spec, split points): the engine must reproduce the
# oracle field for field on each.
ORACLE_CASES = {
    "polynomial": (lambda x: x ** 3 - 2.0 * x, 0.0, 2.0, TIGHT, ()),
    "sharp-peak-split": (lorentz(0.3333, 1e-7), 0.0, 1.0, TIGHT, (0.3333,)),
    "many-bisections": (lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)), 0.0, 1.0,
                        QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14), ()),
    "budget-exhausted": (lambda x: np.exp(np.sin(5.0 * x)), 0.0, 4.0,
                         QuadratureSpec(abs_tol=1e-16, rel_tol=1e-16,
                                        max_subdivisions=3), ()),
    "non-finite": (inverse_abs, -1.0, 1.0, TIGHT, ()),
}


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


class TestBatchedPasses:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_panel_by_panel_oracle(self, case):
        f, a, b, spec, splits = ORACLE_CASES[case]
        res = integrate_finite(f, a, b, spec, split_points=splits)
        assert fields(res) == fields(panel_by_panel(f, a, b, spec, splits))
        assert_plain(res)

    def test_oracle_cases_reach_their_regime(self):
        runs = {case: integrate_finite(f, a, b, spec, split_points=splits)
                for case, (f, a, b, spec, splits) in ORACLE_CASES.items()}
        assert runs["polynomial"].evaluations == 15
        assert runs["sharp-peak-split"].converged
        assert runs["many-bisections"].evaluations > 30 * 40
        assert runs["budget-exhausted"].evaluations == 15 + 2 * 30
        assert not runs["budget-exhausted"].converged
        assert not runs["non-finite"].converged
        assert math.isnan(runs["non-finite"].error_estimate)

    @pytest.mark.parametrize("case", ["sharp-peak-split", "many-bisections",
                                      "budget-exhausted"])
    def test_one_call_per_pass(self, case):
        f, a, b, spec, splits = ORACLE_CASES[case]
        sizes = []

        def counted(x):
            sizes.append(x.shape)
            return f(x)

        res = integrate_finite(counted, a, b, spec, split_points=splits)
        n_initial = 1 + len(splits)
        bisections = (res.evaluations - 15 * n_initial) // 30
        assert sizes == [(15 * n_initial,)] + [(30,)] * bisections

    @pytest.mark.parametrize("bad", [lambda x: 1.0, lambda x: x[:-1]],
                             ids=["scalar", "wrong-length"])
    def test_integrand_must_match_its_input(self, bad):
        with pytest.raises(DomainError, match="matching its input"):
            integrate_finite(bad, 0.0, 1.0)

    def test_plain_types_from_numpy_endpoints(self):
        assert_plain(integrate_finite(np.sin, np.float64(0.0),
                                      np.float64(math.pi)))
        assert_plain(integrate_semi_infinite(lambda x: np.exp(-x),
                                             np.float64(1.0)))
        assert_plain(integrate_semi_infinite(lambda x: 1.0 / (1.0 + x), 1.0,
                                             QuadratureSpec(
                                                 max_subdivisions=50)))


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

