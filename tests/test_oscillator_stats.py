import math

import numpy as np
import pytest

from casfric import oscillator_stats as osc
from casfric.errors import DomainError, StabilityError
from casfric.quadrature import QuadratureSpec, integrate_finite

TIGHT = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11)


class TestGtilde:
    def test_static_limit(self):
        o = osc.OscillatorSpec(1.7, 2.3)
        assert osc.gtilde(o, 0.0) == pytest.approx(1.7, rel=1e-15)

    def test_half_at_eigenenergy(self):
        o = osc.OscillatorSpec(1.7, 2.3)
        assert osc.gtilde(o, 2.3) == pytest.approx(0.85, rel=1e-15)

    def test_hand_value(self):
        assert osc.gtilde(osc.OscillatorSpec(1.0, 2.0), 1.0) == \
            pytest.approx(0.8, rel=1e-15)

    def test_even(self):
        o = osc.OscillatorSpec(0.4, 1.1)
        assert osc.gtilde(o, 0.73) == osc.gtilde(o, -0.73)


class TestImaginaryTime:
    def test_equal_time_value(self):
        a, w, b = 0.7, 1.5, 2.0
        o = osc.OscillatorSpec(a, w)
        assert osc.g_imaginary_time(o, 0.0, b) == pytest.approx(
            0.5 * a * w / math.tanh(0.5 * b * w), rel=1e-14)

    def test_zero_temperature_limit(self):
        o = osc.OscillatorSpec(0.7, 1.5)
        assert osc.g_imaginary_time(o, 0.0, 2000.0) == pytest.approx(
            0.5 * 0.7 * 1.5, rel=1e-12)

    def test_symmetric_about_half_beta(self):
        o = osc.OscillatorSpec(1.0, 0.8)
        b = 3.0
        for lam in (0.2, 1.0, 1.4):
            assert osc.g_imaginary_time(o, lam, b) == pytest.approx(
                osc.g_imaginary_time(o, b - lam, b), rel=1e-13)

    def test_domain(self):
        o = osc.OscillatorSpec(1.0, 1.0)
        with pytest.raises(DomainError):
            osc.g_imaginary_time(o, -0.1, 1.0)
        with pytest.raises(DomainError):
            osc.g_imaginary_time(o, 1.1, 1.0)

    def test_forward_transform_pair(self):
        # integral over [0, beta] of g(lambda) cos(K lambda) equals the
        # closed-form polarizability at each thermal frequency
        rng = np.random.default_rng(101)
        for _ in range(30):
            a = rng.uniform(0.3, 3.0)
            w = rng.uniform(0.2, 5.0)
            b = rng.uniform(0.3, 10.0)
            n = int(rng.integers(0, 4))
            o = osc.OscillatorSpec(a, w)
            k = 2.0 * math.pi * n / b

            def f(lam):
                lam = np.atleast_1d(np.asarray(lam, dtype=float))
                return np.array([osc.g_imaginary_time(o, float(x), b)
                                 * math.cos(k * float(x)) for x in lam])

            res = integrate_finite(f, 0.0, b, TIGHT)
            assert res.value == pytest.approx(osc.gtilde(o, k), rel=1e-9)

    def test_inverse_transform_at_third_beta(self):
        # resum the thermal series with the quadratic tail closed in
        # Bernoulli form; the n^-4 remainder is summed directly
        rng = np.random.default_rng(202)
        for _ in range(100):
            a = rng.uniform(0.3, 3.0)
            w = rng.uniform(0.2, 5.0)
            b = rng.uniform(0.3, 10.0)
            o = osc.OscillatorSpec(a, w)
            lam = b / 3.0
            x = lam / b
            bern = x * x - x + 1.0 / 6.0
            total = a + 0.5 * a * w * w * b * b * bern
            n = np.arange(1, 4001)
            kn = 2.0 * math.pi * n / b
            total -= np.sum(2.0 * a * w ** 4 * np.cos(kn * lam)
                            / (kn ** 2 * (kn ** 2 + w ** 2)))
            inv = total / b
            direct = osc.g_imaginary_time(o, lam, b)
            assert inv == pytest.approx(direct, rel=1e-8)


class TestPairStatistics:
    def test_correlators_free(self):
        assert osc.pair_correlators(1.0, 2.0, 0.0, 1.0) == (1.0, 2.0, 0.0)

    def test_correlators_hand_value(self):
        b1, b2, b12 = osc.pair_correlators(1.0, 1.0, 0.5, 1.0)
        assert (b1, b2, b12) == pytest.approx((4 / 3, 4 / 3, 2 / 3), rel=1e-14)

    def test_cross_correlator_odd_in_phi(self):
        plus = osc.pair_correlators(1.0, 1.5, 0.4, 1.0)
        minus = osc.pair_correlators(1.0, 1.5, -0.4, 1.0)
        assert plus[0] == minus[0]
        assert plus[1] == minus[1]
        assert plus[2] == -minus[2]

    def test_instability_raises(self):
        with pytest.raises(StabilityError):
            osc.pair_correlators(1.0, 1.0, 1.0, 1.0)
        with pytest.raises(StabilityError):
            osc.sample_pair_correlators(2.0, 2.0, 0.5, 1.0, n_samples=10, seed=0)

    def test_fourth_moment_hand_value(self):
        t11, t12, total = osc.pair_fourth_moment(1.0, 1.0, 0.5, 1.0)
        assert (t11, t12, total) == pytest.approx(
            (16 / 9, 4 / 9, 20 / 9), rel=1e-14)

    def test_fourth_moment_free(self):
        t11, t12, total = osc.pair_fourth_moment(1.3, 0.7, 0.0, 1.0)
        assert t11 == pytest.approx(1.3 * 0.7, rel=1e-14)
        assert t12 == 0.0

    def test_fourth_moment_equals_d2_lnz(self):
        # the connected moment Z''/Z - (Z'/Z)^2 is the second derivative
        # of ln Z in the coupling; finite-difference oracle
        a1, a2, phi, b = 0.8, 1.1, 0.3, 1.0

        def lnz(p):
            return -0.5 * math.log(1.0 - a1 * a2 * p * p)

        h = 1e-5
        d2 = (lnz(phi + h) - 2.0 * lnz(phi) + lnz(phi - h)) / h ** 2
        total = osc.pair_fourth_moment(a1, a2, phi, b)[2]
        assert total == pytest.approx(d2, rel=1e-5)

    def test_monte_carlo_oracle(self):
        # seeded sampling of the coupled Gaussian weight, 3-sigma gate
        a1, a2, phi, b = 1.0, 1.0, 0.5, 1.0
        est = osc.sample_pair_correlators(a1, a2, phi, b,
                                          n_samples=1_000_000, seed=20240817)
        exact = osc.pair_correlators(a1, a2, phi, b)
        for key, target in (("s1s1", exact[0]), ("s2s2", exact[1]),
                            ("s1s2", exact[2])):
            mean, err = est[key]
            assert abs(mean - target) < 3.0 * err
        mean4, err4 = est["fourth"]
        assert abs(mean4 - osc.pair_fourth_moment(a1, a2, phi, b)[2]) < 3.0 * err4

    def test_wick_factorization(self):
        # <s1^2 s2^2> = <s1^2><s2^2> + 2<s1 s2>^2 for the Gaussian weight
        a1, a2, phi, b = 1.4, 0.8, 0.35, 1.0
        est = osc.sample_pair_correlators(a1, a2, phi, b,
                                          n_samples=500_000, seed=7)
        b1, b2, b12 = osc.pair_correlators(a1, a2, phi, b)
        mean4, err4 = est["fourth"]
        # connected estimator already removed one <s1 s2>^2
        assert abs(mean4 - (b1 * b2 + b12 * b12)) < 3.5 * err4

