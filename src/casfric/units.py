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
import numbers
from dataclasses import fields

import numpy as np

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
        Temperature in kelvin, finite and > 0.
    """
    kt = BOLTZMANN_EV_PER_K * _positive("temperature_k", temperature_k)
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


def _real(name: str, value) -> float:
    """``value`` as a Python float, or a DomainError naming ``name`` unless
    it is one real number.  A float passes on its exact type, as it is; an
    integer past the float range is inf, which every caller refuses."""
    if type(value) is float:
        return value
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _positive(name: str, value, zero: bool = False) -> float:
    """``value`` as the Python float :func:`_real` makes of it, or a
    DomainError naming ``name`` unless it is finite and > 0, or >= 0 with
    ``zero``.  This is the one check of every bare number argument."""
    x = value if type(value) is float else _real(name, value)
    if 0.0 < x < math.inf or zero and x == 0.0:
        return x
    raise DomainError(f"{name} must be finite and {'>=' if zero else '>'} 0, "
                      f"got {value!r}")


def _positive_fields(obj, *names: str, zero: tuple = ()) -> None:
    """Store each named field of the frozen dataclass ``obj`` as the
    Python float :func:`_positive` makes of it, a field named in ``zero``
    allowed to be 0; a float field stays put."""
    for name in names:
        value = getattr(obj, name)
        x = _positive(name, value, name in zero)
        if x is not value:
            object.__setattr__(obj, name, x)


def _real_fields(obj, *names: str) -> None:
    """Store each named field of the frozen dataclass ``obj`` as the
    Python float :func:`_real` makes of it; a float field stays put."""
    for name in names:
        value = getattr(obj, name)
        if type(value) is not float:
            object.__setattr__(obj, name, _real(name, value))


def _whole(name: str, value, least: int) -> int:
    """``value`` as an int >= ``least``, or a DomainError naming ``name``:
    a bool, a float and anything else that is not an integer are refused."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value!r}")
    return int(value)


def _reals(obj) -> None:
    """Store each field of the frozen dataclass ``obj`` as a float, or as
    a float array where it has dimensions, so that a list computes as the
    array it holds.  A field that is not real numbers is a DomainError
    naming it."""
    for field in fields(obj):
        try:
            value = np.asarray(getattr(obj, field.name))
        except ValueError:  # a ragged list
            value = np.asarray(None)
        if value.dtype.kind not in "iuf":
            raise DomainError(f"{field.name} must be a real number or an "
                              "array of real numbers")
        object.__setattr__(obj, field.name, value.astype(float, copy=False)
                           if value.ndim else float(value))
