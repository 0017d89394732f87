"""Spatial kernels and geometric factors for plate friction.

The three volume-integrated factors of the squared dipole force tensor:

    g_perp(z)            ~ z**-6   (pair of particles, transverse average)
    g_halfplane(rho, z0) ~ z0**-5  (particle above a half-plane)
    g_two_planes(...)    ~ d**-4   (two half-planes, per unit area)

Each factor has an analytic form and an independent quadrature route,
which criterion 3 holds to 1e-6 relative.  The closed forms hold in any
length unit, with densities per that unit cubed.  Every friction route
takes its G from one of them, with the gap in m and densities in nm^-3
(meeting per-particle spectra in nm^3):

    dense   G = g_two_planes(1/(2 pi), 1/(2 pi), d)         (m^-4)
    dilute  G = g_two_planes(rho1, rho2, d)                  (m^-4)
    hybrid  G = 2 * g_halfplane(1/(2 pi), z0) * NM_TO_M**3   (m^-2)

A dense plate enters as a half-plane of density 1/(2 pi), its surface
response A standing for 2 pi rho alpha.  Lengths and densities must be
finite and > 0, each a DomainError naming it otherwise, and compute as
Python floats; a closed form that leaves the float range is a
DomainError.
"""

from __future__ import annotations

import math

import numpy as np

from . import units
from .quadrature import IntegralResult, QuadratureSpec, \
    integrate_semi_infinite


def g_perp(z: float) -> float:
    """Transverse-integrated squared force tensor between two particles
    at perpendicular separation z: 15*pi/(2 z**6)."""
    z = units._positive("z", z)
    return units._formed("the geometric factor 15*pi/(2 z**6)",
                         lambda: 15.0 * math.pi / (2.0 * z ** 6))


def g_perp_kspace(z: float, spec: QuadratureSpec | None = None) -> IntegralResult:
    """Independent route to :func:`g_perp` via the transverse-mode integral
    4*pi * integral of q**5 exp(-2 q z) dq."""
    z = units._positive("z", z)

    def integrand(q):
        return 4.0 * math.pi * q ** 5 * np.exp(-2.0 * q * z)

    return integrate_semi_infinite(integrand, decay_scale=1.0 / (2.0 * z),
                                   spec=spec)


def g_halfplane(rho1: float, z0: float) -> float:
    """Particle-above-half-plane factor 3*pi*rho1/(2 z0**5); rho1 is the
    particle density of the half-plane, z0 the gap."""
    rho1, z0 = units._positive("rho1", rho1), units._positive("z0", z0)
    return units._formed("the geometric factor 3*pi*rho1/(2 z0**5)",
                         lambda: 3.0 * math.pi * rho1 / (2.0 * z0 ** 5))


def g_halfplane_quadrature(rho1: float, z0: float,
                           spec: QuadratureSpec | None = None) -> IntegralResult:
    """Quadrature route: rho1 * integral over z > z0 of g_perp(z)."""
    rho1, z0 = units._positive("rho1", rho1), units._positive("z0", z0)

    def integrand(t):
        z = z0 + t
        return rho1 * 15.0 * math.pi / (2.0 * z ** 6)

    return integrate_semi_infinite(integrand, decay_scale=z0, spec=spec)


def g_two_planes(rho1: float, rho2: float, d: float) -> float:
    """Plate-plate factor per unit area, 3*pi*rho1*rho2/(8 d**4)."""
    rho1, rho2 = units._positive("rho1", rho1), units._positive("rho2", rho2)
    d = units._positive("d", d)
    return units._formed("the geometric factor 3*pi*rho1*rho2/(8 d**4)",
                         lambda: 3.0 * math.pi * rho1 * rho2 / (8.0 * d ** 4))


def g_two_planes_quadrature(rho1: float, rho2: float, d: float,
                            spec: QuadratureSpec | None = None) -> IntegralResult:
    """Quadrature route: rho2 * integral over z > d of g_halfplane(rho1, z)."""
    rho1, rho2 = units._positive("rho1", rho1), units._positive("rho2", rho2)
    d = units._positive("d", d)

    def integrand(t):
        z = d + t
        return rho2 * 3.0 * math.pi * rho1 / (2.0 * z ** 5)

    return integrate_semi_infinite(integrand, decay_scale=d, spec=spec)
