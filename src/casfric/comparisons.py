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
    force gamma*v exceeds our bare (closed-form) force by the fixed factor
    0.3*4 = 1.2, the zeta(3) = 1.202... enhancement that the screened
    denominators supply: the dense ``keep`` force meets it within 0.3 %.
"""

from __future__ import annotations

import math

from . import units


def pendry_force(conductivity_over_eps0: float, d_m: float,
                 v_m_per_s: float) -> float:
    """Zero-temperature friction (Pa) of a constant-conductivity plate
    pair, sigma/eps0 in 1/s, gap in m, velocity in m/s; cubic in v:
    F_P = 5 hbar v^3 / (2^8 pi^2 (sigma/eps0)^2 d^6)."""
    s = units._positive("conductivity_over_eps0", conductivity_over_eps0)
    d_m = units._positive("d_m", d_m)
    v_m_per_s = units._positive("v_m_per_s", v_m_per_s)
    return units._formed("Pendry's force", lambda: 5.0 * units.HBAR_JS
                         * v_m_per_s ** 3 / (256.0 * math.pi ** 2 * s * s * d_m ** 6))


def ratio_to_pendry(temperature_k: float, v_m_per_s: float, d_m: float) -> float:
    """Ratio of the thermal linear force to Pendry's cubic force:

        F / F_P = (64 pi^2 / 5) * (k_B T / (hbar v / d))**2

    the squared ratio of thermal quanta to the motion-generated quanta
    hbar*v/d; conductivity cancels.
    """
    kt = units.thermal_energy(temperature_k)
    v_m_per_s = units._positive("v_m_per_s", v_m_per_s)
    d_m = units._positive("d_m", d_m)
    motion_quantum = units.HBAR_EV_S * v_m_per_s / d_m
    return units._formed("the ratio to Pendry's force",
                         lambda: (64.0 * math.pi ** 2 / 5.0) * (kt / motion_quantum) ** 2)


def vp_friction(four_pi_sigma: float, d_m: float, temperature_k: float,
                v_m_per_s: float) -> tuple[float, float]:
    """Volokitin-Persson evanescent friction of a metal pair: (coefficient,
    force), from 4*pi*sigma (Gaussian) in 1/s, gap in m, temperature in K
    and velocity in m/s.

    coefficient ~ 0.3 (hbar/d^4) (k_B T / (4 pi hbar sigma))**2 in
    kg s^-1 m^-2; force = coefficient * v in Pa.  The 0.3 prefactor is
    the published approximation and is kept as quoted.
    """
    four_pi_sigma = units._positive("four_pi_sigma", four_pi_sigma)
    d_m = units._positive("d_m", d_m)
    kt = units.thermal_energy(temperature_k)
    v_m_per_s = units._positive("v_m_per_s", v_m_per_s)
    energy_scale = units.HBAR_EV_S * four_pi_sigma  # eV
    coeff = units._formed("the Volokitin-Persson coefficient", lambda: 0.3
                          * units.HBAR_JS / d_m ** 4 * (kt / energy_scale) ** 2)
    return coeff, units._formed("the Volokitin-Persson force", lambda: coeff * v_m_per_s)

