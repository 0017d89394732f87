"""Literature benchmark formulas for plate-plate friction.

Two published points of comparison for the thermal linear-in-velocity
force of :mod:`casfric.friction`:

  * Pendry's zero-temperature force, cubic in velocity, for a constant
    conductivity sigma (SI units): F_P = 5 hbar eps0^2 v^3 / (2^8 pi^2 sigma^2 d^6).
    The conductivity enters only through sigma/eps0, which for the damped
    free-electron model equals omega_p^2/nu.
  * The Volokitin-Persson evanescent-wave friction coefficient
    gamma ~ 0.3 (hbar/d^4) (k_B T / (4 pi hbar sigma_G))^2 with the
    Gaussian-units conductivity 4 pi sigma_G = omega_p^2/nu; their linear
    force gamma*v is directly comparable to ours and exceeds it by the
    fixed factor 0.3*4 = 1.2, consistent with the zeta(3) = 1.202...
    enhancement that the screened-denominator route supplies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import units
from .errors import DomainError


@dataclass(frozen=True)
class PendryInput:
    """Constant-conductivity plate pair: sigma/eps0 in 1/s, gap d in m,
    velocity v in m/s."""

    conductivity_over_eps0: float
    d_m: float
    v_m_per_s: float

    def __post_init__(self):
        if not (self.conductivity_over_eps0 > 0.0 and self.d_m > 0.0
                and self.v_m_per_s > 0.0):
            raise DomainError("all Pendry inputs must be > 0")


@dataclass(frozen=True)
class VPInput:
    """Volokitin-Persson metal pair: 4*pi*sigma (Gaussian) in 1/s, gap d
    in m, temperature in K, velocity in m/s."""

    four_pi_sigma: float
    d_m: float
    T_K: float
    v_m_per_s: float

    def __post_init__(self):
        if not (self.four_pi_sigma > 0.0 and self.d_m > 0.0
                and self.T_K > 0.0 and self.v_m_per_s > 0.0):
            raise DomainError("all VP inputs must be > 0")


def pendry_force(inp: PendryInput) -> float:
    """Zero-temperature constant-conductivity friction (Pa), cubic in v:
    F_P = 5 hbar v^3 / (2^8 pi^2 (sigma/eps0)^2 d^6)."""
    s = inp.conductivity_over_eps0
    return 5.0 * units.HBAR_JS * inp.v_m_per_s ** 3 / (
        256.0 * math.pi ** 2 * s * s * inp.d_m ** 6)


def ratio_to_pendry(temperature_k: float, v_m_per_s: float, d_m: float) -> float:
    """Ratio of the thermal linear force to Pendry's cubic force:

        F / F_P = (64 pi^2 / 5) * (k_B T / (hbar v / d))**2

    the squared ratio of thermal quanta to the motion-generated quanta
    hbar*v/d; conductivity cancels.
    """
    if not (temperature_k > 0.0 and v_m_per_s > 0.0 and d_m > 0.0):
        raise DomainError("all inputs must be > 0")
    kt = units.thermal_energy(temperature_k)
    motion_quantum = units.HBAR_EV_S * v_m_per_s / d_m
    return (64.0 * math.pi ** 2 / 5.0) * (kt / motion_quantum) ** 2


def vp_friction(inp: VPInput) -> tuple[float, float]:
    """Volokitin-Persson evanescent friction: (coefficient, force).

    coefficient ~ 0.3 (hbar/d^4) (k_B T / (4 pi hbar sigma))**2 in
    kg s^-1 m^-2; force = coefficient * v in Pa.  The 0.3 prefactor is
    the published approximation and is kept as quoted.
    """
    kt = units.thermal_energy(inp.T_K)
    energy_scale = units.HBAR_EV_S * inp.four_pi_sigma  # eV
    coeff = 0.3 * units.HBAR_JS / inp.d_m ** 4 * (kt / energy_scale) ** 2
    return coeff, coeff * inp.v_m_per_s

