import math

import numpy as np
import pytest

from casfric import geometry as geo
from casfric import validation
from casfric.errors import DomainError
from casfric.quadrature import (IntegralResult, QuadratureSpec,
                                integrate_semi_infinite)

TIGHT = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10)


# Two more independent routes to the closed forms, beside the quadrature
# routes of the package that criterion 3 runs.

def g11(x, y, z):
    """Sum over (i, j) of T_1ij**2 at separation (x, y, z), vectorized
    over broadcast x and y."""
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float),
                               np.asarray(y, dtype=float))
    r2 = x * x + y * y + z * z
    r = np.sqrt(r2)
    r5 = r2 * r2 * r
    r7 = r5 * r2
    out = np.zeros_like(x)
    coords = (x, y, np.full_like(x, z))
    for i in range(3):
        for j in range(3):
            t = 15.0 * coords[i] * coords[j] * x / r7
            t -= 3.0 * ((1.0 if i == j else 0.0) * x
                        + (1.0 if i == 0 else 0.0) * coords[j]
                        + (1.0 if j == 0 else 0.0) * coords[i]) / r5
            out += t * t
    return out


def g_perp_realspace(z, spec=None):
    """Second independent route to g_perp: direct xy-integration of the
    squared force tensor in polar coordinates.

    The angular integral is a low-order trigonometric polynomial, exact
    under a 64-point trapezoid; the radial integrand falls off as rho**-9,
    and its tail beyond 10 z is integrated on a map onto [0, 1).
    """
    n_ang = 64
    phi = 2.0 * math.pi * np.arange(n_ang) / n_ang
    w_ang = 2.0 * math.pi / n_ang

    def radial(rho):
        rho = np.atleast_1d(np.asarray(rho, dtype=float))[:, None]
        ring = g11(rho * np.cos(phi), rho * np.sin(phi), z)
        return w_ang * ring.sum(axis=1) * rho[:, 0]

    return integrate_semi_infinite(radial, decay_scale=z, spec=spec)


def g_two_planes_uspace(rho1, rho2, d, spec=None):
    """Transverse-mode route to g_two_planes: (pi*rho1*rho2/d**4) *
    integral of u**3 e^{-2u} du, the representation that lets a
    mode-dependent thermal kernel be folded into the same weight."""

    def integrand(u):
        u = np.asarray(u, dtype=float)
        return u ** 3 * np.exp(-2.0 * u)

    res = integrate_semi_infinite(integrand, decay_scale=0.5, spec=spec)
    scale = math.pi * rho1 * rho2 / d ** 4
    return IntegralResult(scale * res.value, scale * res.error_estimate,
                          res.evaluations, res.converged)


def dipole_tensor(r):
    """-(3 x_i x_j / r**5 - delta_ij / r**3): the interaction whose
    gradient is the force tensor behind g11."""
    r = np.asarray(r, dtype=float)
    rn = float(np.linalg.norm(r))
    return -(3.0 * np.outer(r, r) / rn ** 5 - np.eye(3) / rn ** 3)


class TestForceTensor:
    """g11(x, y, z) = sum over (i, j) of (d psi_ij / dx)**2, the
    integrand of the real-space g_perp route."""

    def test_finite_difference_oracle(self):
        for r in ([1.0, 2.0, 3.0], [-0.4, 0.9, 0.5], [2.0, 0.0, 1.0]):
            r = np.array(r)
            dr = np.array([1e-6, 0.0, 0.0])
            t1 = (dipole_tensor(r + dr) - dipole_tensor(r - dr)) / 2e-6
            assert float(g11(*r)) == pytest.approx(np.sum(t1 ** 2),
                                                        rel=1e-8)

    def test_scaling_degree(self):
        r = np.array([0.4, -0.9, 1.3])
        for s in (0.5, 2.0, 10.0):
            assert float(g11(*(s * r))) == pytest.approx(
                float(g11(*r)) / s ** 8, rel=1e-12)

    def test_g11_nonnegative(self):
        rng = np.random.default_rng(9)
        x, y = rng.uniform(-2.0, 2.0, (2, 20))
        g = g11(x, y, 0.7)
        assert np.all(g >= 0.0)
        for i in range(20):
            assert g[i] == g11(x[i], y[i], 0.7)


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
        res = g_perp_realspace(1.0, TIGHT)
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
        uspace = g_two_planes_uspace(1.0, 1.0, 1.0, TIGHT)
        exact = geo.g_two_planes(1.0, 1.0, 1.0)
        assert direct.value == pytest.approx(exact, rel=1e-8)
        assert uspace.value == pytest.approx(exact, rel=1e-10)

    def test_mode_weight_integral(self):
        res = integrate_semi_infinite(
            lambda u: np.asarray(u) ** 3 * np.exp(-2.0 * np.asarray(u)),
            decay_scale=0.5, spec=TIGHT)
        assert abs(res.value - 0.375) < 1e-10

    @pytest.mark.parametrize("call", [
        lambda: geo.g_perp(1e-80), lambda: geo.g_perp(1e60),
        lambda: geo.g_halfplane(1.0, 1e-70), lambda: geo.g_halfplane(1.0, 1e70),
        lambda: geo.g_two_planes(1.0, 1.0, 1e-100),
        lambda: geo.g_two_planes(1.0, 1.0, 1e100),
        lambda: geo.g_two_planes(1e200, 1e200, 1.0)],
        ids=["perp-tiny", "perp-huge", "halfplane-tiny", "halfplane-huge",
             "two-planes-tiny", "two-planes-huge", "two-planes-dense"])
    def test_closed_form_outside_float_range(self, call):
        # a length power that underflows to 0 or overflows, or a product
        # of densities that overflows: a typed error, not a Python one
        with pytest.raises(DomainError, match="^the geometric factor .* "
                                              "leaves the float range$"):
            call()

    @pytest.mark.parametrize("call", [
        lambda x: geo.g_perp(x), lambda x: geo.g_perp_kspace(x),
        lambda x: geo.g_halfplane(1.0, x), lambda x: geo.g_halfplane(x, 1.0),
        lambda x: geo.g_halfplane_quadrature(1.0, x),
        lambda x: geo.g_two_planes(1.0, 1.0, x),
        lambda x: geo.g_two_planes(1.0, x, 1.0),
        lambda x: geo.g_two_planes_quadrature(1.0, 1.0, x)],
        ids=["perp", "perp-kspace", "halfplane-z0", "halfplane-rho1",
             "halfplane-quadrature", "two-planes-d", "two-planes-rho2",
             "two-planes-quadrature"])
    @pytest.mark.parametrize("x", [math.inf, math.nan])
    def test_non_finite_rejected(self, call, x):
        with pytest.raises(DomainError, match="must be finite and > 0"):
            call(x)


# Criterion 3 names two routes for the transverse and plate-plate factors;
# validation runs one quadrature route each (3a, 3d).  The second route
# must agree with the value that record reports.

@pytest.fixture(scope="module")
def criterion_3():
    return {r.criterion: r for r in validation.check_geometry()}


def test_criterion_3_transverse_factor_two_routes(criterion_3):
    kspace = criterion_3["3a"].measured
    realspace = g_perp_realspace(1.0, TIGHT)
    assert realspace.converged
    assert realspace.value == pytest.approx(kspace, rel=1e-6)


def test_criterion_3_halfplane_and_plate_factors(criterion_3):
    quadrature = criterion_3["3d"].measured
    uspace = g_two_planes_uspace(1.0, 1.0, 1.5, TIGHT)
    assert uspace.converged
    assert uspace.value == pytest.approx(quadrature, rel=1e-6)
