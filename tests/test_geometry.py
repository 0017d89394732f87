import math

import numpy as np
import pytest

from casfric import geometry as geo
from casfric.errors import DomainError
from casfric.quadrature import QuadratureSpec, integrate_semi_infinite

TIGHT = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10)


def dipole_tensor(r):
    """-(3 x_i x_j / r**5 - delta_ij / r**3): the interaction whose
    gradient is the force tensor behind geo._g11."""
    r = np.asarray(r, dtype=float)
    rn = float(np.linalg.norm(r))
    return -(3.0 * np.outer(r, r) / rn ** 5 - np.eye(3) / rn ** 3)


class TestForceTensor:
    """geo._g11(x, y, z) = sum over (i, j) of (d psi_ij / dx)**2, the
    integrand of the real-space g_perp route."""

    def test_finite_difference_oracle(self):
        for r in ([1.0, 2.0, 3.0], [-0.4, 0.9, 0.5], [2.0, 0.0, 1.0]):
            r = np.array(r)
            dr = np.array([1e-6, 0.0, 0.0])
            t1 = (dipole_tensor(r + dr) - dipole_tensor(r - dr)) / 2e-6
            assert float(geo._g11(*r)) == pytest.approx(np.sum(t1 ** 2),
                                                        rel=1e-8)

    def test_scaling_degree(self):
        r = np.array([0.4, -0.9, 1.3])
        for s in (0.5, 2.0, 10.0):
            assert float(geo._g11(*(s * r))) == pytest.approx(
                float(geo._g11(*r)) / s ** 8, rel=1e-12)

    def test_g11_nonnegative(self):
        rng = np.random.default_rng(9)
        x, y = rng.uniform(-2.0, 2.0, (2, 20))
        g = geo._g11(x, y, 0.7)
        assert np.all(g >= 0.0)
        for i in range(20):
            assert g[i] == geo._g11(x[i], y[i], 0.7)


class TestCoulombKernel:
    """The transverse Fourier kernel (2 pi/q) e^{-q|z|} of the Coulomb
    potential, whose exponential z dependence makes every plate integral
    a 1-D exponential integral."""

    def test_fourier_pair_with_3d_kernel(self):
        # transforming the transverse kernel back over z must give the
        # full 1/k^2 kernel: integral of (2 pi/q) e^{-q|z|} cos(kz z) dz
        # equals 4 pi/(q^2 + kz^2); exponentially damped, so the
        # oscillation is harmless
        q, kz = 2.0, 1.3

        def f(z):
            z = np.asarray(z, dtype=float)
            return 2.0 * (2.0 * math.pi / q) * np.exp(-q * z) * np.cos(kz * z)

        res = integrate_semi_infinite(f, decay_scale=1.0 / q, spec=TIGHT)
        assert res.converged
        assert res.value == pytest.approx(4.0 * math.pi / (q * q + kz * kz),
                                          rel=1e-10)


class TestTransverseFactor:
    def test_analytic_value(self):
        assert geo.g_perp(1.0) == pytest.approx(15.0 * math.pi / 2.0, rel=1e-15)

    def test_scaling(self):
        assert geo.g_perp(2.0) == pytest.approx(15.0 * math.pi / 2.0 / 64.0,
                                                rel=1e-14)

    def test_kspace_route(self):
        for z in (0.5, 1.0, 3.0):
            res = geo.g_perp_kspace(z, TIGHT)
            assert res.converged
            assert res.value == pytest.approx(geo.g_perp(z), rel=1e-6)

    def test_realspace_route(self):
        # direct xy integration of the squared force tensor
        res = geo.g_perp_realspace(1.0, TIGHT)
        assert res.converged
        assert res.value == pytest.approx(geo.g_perp(1.0), rel=1e-6)

    def test_homogeneity_over_a_decade(self):
        base = geo.g_perp(0.5) * 0.5 ** 6
        for z in np.geomspace(0.5, 5.0, 7):
            assert geo.g_perp(z) * z ** 6 == pytest.approx(base, rel=1e-12)


class TestHalfPlaneAndPlate:
    def test_halfplane_value(self):
        assert geo.g_halfplane(1.0, 1.0) == pytest.approx(3.0 * math.pi / 2.0,
                                                          rel=1e-15)

    def test_halfplane_scaling(self):
        assert geo.g_halfplane(1.0, 2.0) == pytest.approx(
            geo.g_halfplane(1.0, 1.0) / 32.0, rel=1e-14)

    def test_halfplane_quadrature_route(self):
        res = geo.g_halfplane_quadrature(1.0, 2.0, TIGHT)
        assert res.converged
        assert res.value == pytest.approx(geo.g_halfplane(1.0, 2.0), rel=1e-8)

    def test_two_planes_value(self):
        assert geo.g_two_planes(1.0, 1.0, 1.0) == pytest.approx(
            3.0 * math.pi / 8.0, rel=1e-15)

    def test_two_planes_scaling(self):
        assert geo.g_two_planes(1.0, 1.0, 2.0) == pytest.approx(
            geo.g_two_planes(1.0, 1.0, 1.0) / 16.0, rel=1e-14)

    def test_two_planes_routes_agree(self):
        direct = geo.g_two_planes_quadrature(1.0, 1.0, 1.0, TIGHT)
        uspace = geo.g_two_planes_uspace(1.0, 1.0, 1.0, TIGHT)
        exact = geo.g_two_planes(1.0, 1.0, 1.0)
        assert direct.value == pytest.approx(exact, rel=1e-8)
        assert uspace.value == pytest.approx(exact, rel=1e-10)

    def test_mode_weight_integral(self):
        res = integrate_semi_infinite(
            lambda u: np.asarray(u) ** 3 * np.exp(-2.0 * np.asarray(u)),
            decay_scale=0.5, spec=TIGHT)
        assert abs(res.value - 0.375) < 1e-10

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            geo.g_perp(0.0)
        with pytest.raises(DomainError):
            geo.g_halfplane(1.0, -1.0)
        with pytest.raises(DomainError):
            geo.g_two_planes(0.0, 1.0, 1.0)
