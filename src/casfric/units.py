"""Physical constants and the package's unit conventions.

All internal energy arithmetic is done in eV: material inputs (plasma
energy, damping, k_B*T) are naturally quoted in eV and the material
factor of the plate-friction closed form is a pure energy ratio, so no
conversions appear in the hot path.  Lengths are accepted in nm at the
public API and converted to metres exactly once, when a force prefactor
is formed.  Joules enter only through hbar in that prefactor.
"""

from __future__ import annotations

import math

from .errors import DomainError

# CODATA values; truncation matches the precision used elsewhere in the
# package's reference figures.
HBAR_JS = 1.054571817e-34  # J s
BOLTZMANN_EV_PER_K = 8.617333262e-5  # eV / K
ELEMENTARY_CHARGE_C = 1.602176634e-19  # C

# hbar expressed in eV s; exact quotient of the two defining constants.
HBAR_EV_S = HBAR_JS / ELEMENTARY_CHARGE_C

NM_TO_M = 1e-9


def thermal_energy(temperature_k: float) -> float:
    """k_B*T in eV.

    Parameters
    ----------
    temperature_k : float
        Temperature in kelvin, > 0.
    """
    if not temperature_k > 0.0:
        raise DomainError(f"temperature must be > 0 K, got {temperature_k!r}")
    kt = BOLTZMANN_EV_PER_K * temperature_k
    if kt == 0.0:
        raise DomainError(f"temperature {temperature_k!r} K is out of range: "
                          "k_B*T underflows to 0")
    return kt


def _formed(name: str, formula) -> float:
    """``formula()``, which must stay inside the float range.  A result
    that overflows, and a division by a power that underflows to 0, are
    a DomainError naming ``name``."""
    try:
        out = formula()
    except (OverflowError, ZeroDivisionError):
        out = math.inf
    if not math.isfinite(out):
        raise DomainError(f"{name} leaves the float range")
    return out


def beta(temperature_k: float) -> float:
    """Inverse thermal energy 1/(k_B*T) in 1/eV."""
    out = 1.0 / thermal_energy(temperature_k)
    if math.isinf(out):
        raise DomainError(f"temperature {temperature_k!r} K is out of range: "
                          "1/(k_B*T) overflows")
    return out
