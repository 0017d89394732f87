"""Built-in material presets.

``gold``: the damped free-electron parameters used by the package's
reference figures (hbar*omega_p = 9.0 eV, hbar*nu = 35 meV).

``pendry97``: a constant-conductivity benchmark medium with
sigma/eps0 = omega_p^2/nu = 1.12e10 s^-1.  The split into plasma energy
and damping is not determined by the conductivity alone; the closed-form
force depends only on their ratio, so the plasma energy is pinned at
9.0 eV and the (enormous, far-from-small) damping follows.  The default
geometry/kinematics attached to each preset are the ones its published
figures quote.

``PRESETS`` maps each name to its preset; the CLI looks a config's
``"preset"`` up there and reports an unknown name at its field path.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import units
from .dielectric import Drude


@dataclass(frozen=True)
class Preset:
    name: str
    model: Drude
    d_nm: float
    v_m_per_s: float
    T_K: float


def conductivity(model: Drude) -> float:
    """omega_p^2/nu in 1/s for a damped free-electron model."""
    return units._formed("the conductivity omega_p**2/nu", lambda: (
        model.plasma_energy_ev ** 2 / (units.HBAR_EV_S * model.damping_ev)))


GOLD = Preset(name="gold",
              model=Drude(plasma_energy_ev=9.0, damping_ev=0.035),
              d_nm=10.0, v_m_per_s=100.0, T_K=300.0)

PENDRY97 = Preset(name="pendry97",
                  model=Drude(plasma_energy_ev=9.0, damping_ev=9.0 ** 2 / (
                      units.HBAR_EV_S * 1.12e10)),
                  d_nm=0.1, v_m_per_s=1.0, T_K=300.0)

PRESETS = {p.name: p for p in (GOLD, PENDRY97)}
