"""Spatial kernels and geometric factors for plate friction.

The three volume-integrated factors of the squared dipole force tensor:

    g_perp(z)            ~ z**-6   (pair of particles, transverse average)
    g_halfplane(rho, z0) ~ z0**-5  (particle above a half-plane)
    g_two_planes(...)    ~ d**-4   (two half-planes, per unit area)

Each factor has an analytic form and at least one independent quadrature
route; the routes agree to 1e-6 relative and the tests enforce it.
Lengths are in nm and densities in nm^-3 throughout; the friction module
converts to SI exactly once.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .quadrature import IntegralResult, QuadratureSpec, \
    integrate_semi_infinite


def g_perp(z: float) -> float:
    """Transverse-integrated squared force tensor between two particles
    at perpendicular separation z: 15*pi/(2 z**6)."""
    if not z > 0.0:
        raise DomainError("z must be > 0")
    return 15.0 * math.pi / (2.0 * z ** 6)


def g_perp_kspace(z: float, spec: QuadratureSpec | None = None) -> IntegralResult:
    """Independent route to :func:`g_perp` via the transverse-mode integral
    4*pi * integral of q**5 exp(-2 q z) dq."""
    if not z > 0.0:
        raise DomainError("z must be > 0")

    def integrand(q):
        return 4.0 * math.pi * q ** 5 * np.exp(-2.0 * q * z)

    return integrate_semi_infinite(integrand, decay_scale=1.0 / (2.0 * z),
                                   spec=spec)


def _g11(x, y, z):
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


def g_perp_realspace(z: float, spec: QuadratureSpec | None = None) -> IntegralResult:
    """Second independent route to :func:`g_perp`: direct xy-integration of
    the squared force tensor in polar coordinates.

    The angular integral is a low-order trigonometric polynomial, exact
    under a 64-point trapezoid; the radial integrand falls off as rho**-9,
    and its tail beyond 10 z is integrated on a map onto [0, 1).
    """
    if not z > 0.0:
        raise DomainError("z must be > 0")
    n_ang = 64
    phi = 2.0 * math.pi * np.arange(n_ang) / n_ang
    w_ang = 2.0 * math.pi / n_ang

    def radial(rho):
        rho = np.atleast_1d(np.asarray(rho, dtype=float))[:, None]
        ring = _g11(rho * np.cos(phi), rho * np.sin(phi), z)
        return w_ang * ring.sum(axis=1) * rho[:, 0]

    return integrate_semi_infinite(radial, decay_scale=z, spec=spec)


def g_halfplane(rho1: float, z0: float) -> float:
    """Particle-above-half-plane factor 3*pi*rho1/(2 z0**5); rho1 is the
    particle density of the half-plane (nm^-3), z0 the gap (nm)."""
    if not (rho1 > 0.0 and z0 > 0.0):
        raise DomainError("rho1 and z0 must be > 0")
    return 3.0 * math.pi * rho1 / (2.0 * z0 ** 5)


def g_halfplane_quadrature(rho1: float, z0: float,
                           spec: QuadratureSpec | None = None) -> IntegralResult:
    """Quadrature route: rho1 * integral over z > z0 of g_perp(z)."""
    if not (rho1 > 0.0 and z0 > 0.0):
        raise DomainError("rho1 and z0 must be > 0")

    def integrand(t):
        z = z0 + np.asarray(t, dtype=float)
        return rho1 * 15.0 * math.pi / (2.0 * z ** 6)

    return integrate_semi_infinite(integrand, decay_scale=z0, spec=spec)


def g_two_planes(rho1: float, rho2: float, d: float) -> float:
    """Plate-plate factor per unit area, 3*pi*rho1*rho2/(8 d**4)."""
    if not (rho1 > 0.0 and rho2 > 0.0 and d > 0.0):
        raise DomainError("densities and d must be > 0")
    return 3.0 * math.pi * rho1 * rho2 / (8.0 * d ** 4)


def g_two_planes_quadrature(rho1: float, rho2: float, d: float,
                            spec: QuadratureSpec | None = None) -> IntegralResult:
    """Quadrature route: rho2 * integral over z > d of g_halfplane(rho1, z)."""
    if not (rho1 > 0.0 and rho2 > 0.0 and d > 0.0):
        raise DomainError("densities and d must be > 0")

    def integrand(t):
        z = d + np.asarray(t, dtype=float)
        return rho2 * 3.0 * math.pi * rho1 / (2.0 * z ** 5)

    return integrate_semi_infinite(integrand, decay_scale=d, spec=spec)


def g_two_planes_uspace(rho1: float, rho2: float, d: float,
                        spec: QuadratureSpec | None = None) -> IntegralResult:
    """Transverse-mode route: (pi*rho1*rho2/d**4) * integral of u**3 e^{-2u} du,
    the representation that lets a mode-dependent thermal kernel be folded
    into the same weight."""
    if not (rho1 > 0.0 and rho2 > 0.0 and d > 0.0):
        raise DomainError("densities and d must be > 0")

    def integrand(u):
        u = np.asarray(u, dtype=float)
        return u ** 3 * np.exp(-2.0 * u)

    res = integrate_semi_infinite(integrand, decay_scale=0.5, spec=spec)
    scale = math.pi * rho1 * rho2 / d ** 4
    return IntegralResult(scale * res.value, scale * res.error_estimate,
                          res.evaluations, res.converged)
