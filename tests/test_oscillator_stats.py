import math
import tracemalloc

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

    @pytest.mark.parametrize("w, beta", [(1.5, 2.0), (2.0, 400.0)])
    def test_array_equals_scalar_calls(self, w, beta):
        # x = beta*w/2 is 1.5 and 400, where 1 - e^{-2x} rounds to 1
        o = osc.OscillatorSpec(0.7, w)
        lam = np.concatenate([[0.0, beta],
                              np.random.default_rng(3).uniform(0.0, beta, 60)])
        values = osc.g_imaginary_time(o, lam, beta)
        assert values.shape == lam.shape
        scalars = [osc.g_imaginary_time(o, float(x), beta) for x in lam]
        assert all(type(v) is float for v in scalars)
        np.testing.assert_allclose(values, scalars, rtol=1e-15, atol=0.0)

    def test_array_with_one_point_outside_raises(self):
        o = osc.OscillatorSpec(1.0, 1.0)
        for bad in (-1e-12, 1.0 + 1e-12, math.nan):
            with pytest.raises(DomainError):
                osc.g_imaginary_time(o, np.array([0.0, 0.5, bad, 1.0]), 1.0)
            with pytest.raises(DomainError):
                osc.g_imaginary_time(o, bad, 1.0)

    def test_batched_equals_one_oscillator_calls(self):
        # one call on an OscillatorSpec of arrays, x = 400 among them
        # (where 1 - e^{-2x} rounds to 1), gives each entry the bits of
        # the scalar call on its element
        rng = np.random.default_rng(7)
        alpha, w, betas = (np.array([0.7, 2.0, 0.3]), np.array([1.5, 2.0, 4.0]),
                           np.array([2.0, 400.0, 0.5]))
        job = rng.integers(0, 3, 90)
        lam = rng.uniform(0.0, 1.0, 90) * betas[job]
        values = osc.g_imaginary_time(osc.OscillatorSpec(alpha[job], w[job]),
                                      lam, betas[job])
        assert values.shape == lam.shape
        for v, t, j in zip(values, lam, job):
            alone = osc.g_imaginary_time(
                osc.OscillatorSpec(float(alpha[j]), float(w[j])), float(t),
                float(betas[j]))
            assert type(alone) is float
            assert np.float64(alone).tobytes() == v.tobytes()

    def test_batched_domain_is_per_job(self):
        o = osc.OscillatorSpec(np.ones(2), np.ones(2))
        with pytest.raises(DomainError, match=r"^lam must lie in \[0, beta\], got"):
            osc.g_imaginary_time(o, np.array([1.5, 1.5]), np.array([2.0, 1.0]))
        with pytest.raises(DomainError, match=r"^lam must lie in \[0, beta\], got"):
            osc.g_imaginary_time(o, 1.5, np.array([2.0, 1.0]))
        with pytest.raises(DomainError, match=r"^beta must be finite and > 0, got 0\.0"):
            osc.g_imaginary_time(o, np.array([0.5, 0.5]), np.array([2.0, 0.0]))
        with pytest.raises(DomainError, match="^alpha_static must be finite and > 0"):
            osc.OscillatorSpec(np.array([1.0, 0.0]), np.ones(2))
        with pytest.raises(DomainError, match="^eigen_energy_ev must be finite and"):
            osc.OscillatorSpec(np.ones(2), np.array([1.0, -1.0]))

    def test_list_fields_are_the_array_fields(self):
        alpha, w = [0.5, 1.5, 3.0], [0.2, 1.0, 4.0]
        listed = osc.OscillatorSpec(alpha, w)
        arrays = osc.OscillatorSpec(np.array(alpha), np.array(w))
        assert osc.gtilde(listed, 0.7).tobytes() \
            == osc.gtilde(arrays, 0.7).tobytes()
        assert osc.g_imaginary_time(listed, 0.3, 2.0).tobytes() \
            == osc.g_imaginary_time(arrays, 0.3, 2.0).tobytes()
        with pytest.raises(DomainError, match="^alpha_static must be finite and > 0"):
            osc.OscillatorSpec([1.0, 0.0], [1.0, 1.0])

    # x = beta*w0/2 from near 0 to past the float range of e^{-x}, and
    # lambda/beta.
    MP_XS = (1e-6, 1e-3, 1.0, 349.9, 350.1, 700.0, 1e4)
    MP_FRACTIONS = (0.0, 0.25, 0.5, 0.75, 1.0)

    @staticmethod
    def mp_correlator(o, lam, beta):
        """(alpha*w0/2)*cosh((beta/2 - lam)*w0)/sinh(beta*w0/2) to 30
        digits on the float inputs, rounded to a float."""
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            b, w = mpmath.mpf(beta), mpmath.mpf(o.eigen_energy_ev)
            return float(mpmath.mpf(o.alpha_static) * w / 2
                         * mpmath.cosh((b / 2 - mpmath.mpf(lam)) * w)
                         / mpmath.sinh(b * w / 2))

    def check_against_mp(self, got, o, lam, beta):
        """Relative error within 4*(1 + x) ulps: the exponent
        (beta/2 - lam)*w0 is rounded, an error that grows like x*eps.
        Where the exact value lies below the float range, 0."""
        exact = self.mp_correlator(o, lam, beta)
        if exact == 0.0:
            assert got == 0.0
            return True
        x = beta * o.eigen_energy_ev / 2.0
        assert abs(got - exact) <= 4.0 * (1.0 + x) * np.finfo(float).eps \
            * exact
        return False

    def test_matches_mpmath(self):
        o = osc.OscillatorSpec(0.7, 1.5)
        underflows = 0
        for x in self.MP_XS:
            beta = 2.0 * x / 1.5
            for f in self.MP_FRACTIONS:
                lam = f * beta
                got = osc.g_imaginary_time(o, lam, beta)
                underflows += self.check_against_mp(got, o, lam, beta)
        assert underflows == 3  # x = 1e4 at beta/4, beta/2, 3*beta/4

    def test_batched_matches_mpmath(self):
        n = len(self.MP_XS)
        o = osc.OscillatorSpec(0.3 + np.arange(n), 0.5 + 0.25 * np.arange(n))
        betas = 2.0 * np.array(self.MP_XS) / o.eigen_energy_ev
        job = np.repeat(np.arange(n), len(self.MP_FRACTIONS))
        lam = np.tile(self.MP_FRACTIONS, n) * betas[job]
        values = osc.g_imaginary_time(
            osc.OscillatorSpec(o.alpha_static[job], o.eigen_energy_ev[job]),
            lam, betas[job])
        underflows = sum(
            self.check_against_mp(
                float(v), osc.OscillatorSpec(float(o.alpha_static[j]),
                                             float(o.eigen_energy_ev[j])),
                float(t), float(betas[j]))
            for v, t, j in zip(values, lam, job))
        assert underflows == 3

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
        for a1, a2 in ((1.0, 2.0), (1e200, 1e200)):  # a1*a2 is past the floats
            assert osc.pair_correlators(a1, a2, 0.0) == (a1, a2, 0.0)

    def test_correlators_hand_value(self):
        b1, b2, b12 = osc.pair_correlators(1.0, 1.0, 0.5)
        assert (b1, b2, b12) == pytest.approx((4 / 3, 4 / 3, 2 / 3), rel=1e-14)

    def test_cross_correlator_odd_in_phi(self):
        plus = osc.pair_correlators(1.0, 1.5, 0.4)
        minus = osc.pair_correlators(1.0, 1.5, -0.4)
        assert plus[0] == minus[0]
        assert plus[1] == minus[1]
        assert plus[2] == -minus[2]

    def test_instability_raises(self):
        with pytest.raises(StabilityError):
            osc.pair_correlators(1.0, 1.0, 1.0)
        with pytest.raises(StabilityError):
            osc.sample_pair_correlators(2.0, 2.0, 0.5, n_samples=10, seed=0)

    def test_fourth_moment_hand_value(self):
        t11, t12, total = osc.pair_fourth_moment(1.0, 1.0, 0.5)
        assert (t11, t12, total) == pytest.approx(
            (16 / 9, 4 / 9, 20 / 9), rel=1e-14)

    def test_fourth_moment_free(self):
        t11, t12, total = osc.pair_fourth_moment(1.3, 0.7, 0.0)
        assert t11 == pytest.approx(1.3 * 0.7, rel=1e-14)
        assert t12 == 0.0
        with pytest.raises(DomainError, match="^a term of the fourth moment leaves"):
            osc.pair_fourth_moment(1e200, 1e200, 0.0)  # term11 is 1e400

    def test_fourth_moment_equals_d2_lnz(self):
        # the connected moment Z''/Z - (Z'/Z)^2 is the second derivative
        # of ln Z in the coupling; finite-difference oracle
        a1, a2, phi = 0.8, 1.1, 0.3

        def lnz(p):
            return -0.5 * math.log(1.0 - a1 * a2 * p * p)

        h = 1e-5
        d2 = (lnz(phi + h) - 2.0 * lnz(phi) + lnz(phi - h)) / h ** 2
        total = osc.pair_fourth_moment(a1, a2, phi)[2]
        assert total == pytest.approx(d2, rel=1e-5)

    def test_monte_carlo_oracle(self):
        # seeded sampling of the coupled Gaussian weight, 3-sigma gate
        a1, a2, phi = 1.0, 1.0, 0.5
        est = osc.sample_pair_correlators(a1, a2, phi,
                                          n_samples=1_000_000, seed=20240817)
        exact = osc.pair_correlators(a1, a2, phi)
        for key, target in (("s1s1", exact[0]), ("s2s2", exact[1]),
                            ("s1s2", exact[2])):
            mean, err = est[key]
            assert abs(mean - target) < 3.0 * err
        mean4, err4 = est["fourth"]
        assert abs(mean4 - osc.pair_fourth_moment(a1, a2, phi)[2]) < 3.0 * err4

    @pytest.mark.parametrize("args", [
        pytest.param((1.4, 0.8, 0.35, n, 7), id=str(n))
        for n in (10, osc._BLOCK_ROWS + 1, 1_000_000)] + [
        pytest.param((1.0, 1.0, 0.5, 1_000_000, 20240817), id="criterion-8b")])
    def test_streaming_matches_one_shot(self, args):
        est = osc.sample_pair_correlators(*args)
        ref = one_shot_pair_correlators(*args)
        assert est.keys() == ref.keys()
        for key, (mean, err) in ref.items():
            assert est[key][0] == pytest.approx(mean, rel=1e-12, abs=0.0)
            assert est[key][1] == pytest.approx(err, rel=1e-12, abs=0.0)

    def test_streaming_memory_does_not_grow_with_samples(self):
        tracemalloc.start()
        try:
            osc.sample_pair_correlators(1.0, 1.0, 0.5,
                                        n_samples=1_000_000, seed=20240817)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 12 * 2 ** 20

    def test_too_few_samples(self):
        with pytest.raises(DomainError):
            osc.sample_pair_correlators(1.0, 1.0, 0.5, n_samples=1, seed=0)

    @pytest.mark.parametrize("n_samples, seed", [
        (1e6, 0), (2.5, 0), ("10", 0), (10, -1), (10, 1.5), (10, None),
        (10, True)],
        ids=["float-count", "fractional-count", "text-count", "negative-seed",
             "fractional-seed", "no-seed", "bool-seed"])
    def test_count_and_seed_are_whole_numbers(self, n_samples, seed):
        with pytest.raises(DomainError):
            osc.sample_pair_correlators(1.0, 1.0, 0.5, n_samples=n_samples,
                                        seed=seed)

    def test_wick_factorization(self):
        # <s1^2 s2^2> = <s1^2><s2^2> + 2<s1 s2>^2 for the Gaussian weight
        a1, a2, phi = 1.4, 0.8, 0.35
        est = osc.sample_pair_correlators(a1, a2, phi,
                                          n_samples=500_000, seed=7)
        b1, b2, b12 = osc.pair_correlators(a1, a2, phi)
        mean4, err4 = est["fourth"]
        # connected estimator already removed one <s1 s2>^2
        assert abs(mean4 - (b1 * b2 + b12 * b12)) < 3.5 * err4



def one_shot_pair_correlators(alpha1, alpha2, phi, n_samples, seed):
    """Oracle: every sample held at once, moments by np.mean and np.std."""
    x = alpha1 * alpha2 * phi * phi
    cov = np.array([[alpha1, alpha1 * alpha2 * phi],
                    [alpha1 * alpha2 * phi, alpha2]]) / (1.0 - x)
    s = np.random.default_rng(seed).standard_normal((n_samples, 2)) \
        @ np.linalg.cholesky(cov).T

    def stat(v):
        return float(np.mean(v)), float(np.std(v, ddof=1) / math.sqrt(len(v)))

    prod = s[:, 0] * s[:, 1]
    s1s2 = stat(prod)
    fourth = stat(prod * prod)
    return {"s1s1": stat(s[:, 0] ** 2), "s2s2": stat(s[:, 1] ** 2),
            "s1s2": s1s2, "fourth": (fourth[0] - s1s2[0] ** 2, fourth[1])}
