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


def _formed(name: str, formula):
    """``formula()``, a float or a float array, which must stay inside the
    float range.  A result that overflows, and a division by a power that
    underflows to 0, are a DomainError naming ``name``."""
    try:
        out = formula()
    except (OverflowError, ZeroDivisionError):
        out = math.inf
    if not (math.isfinite(out) if type(out) is float else np.isfinite(out).all()):
        raise DomainError(f"{name} leaves the float range")
    return out


def beta(temperature_k: float) -> float:
    """Inverse thermal energy 1/(k_B*T) in 1/eV."""
    out = 1.0 / thermal_energy(temperature_k)
    if math.isinf(out):
        raise DomainError(f"temperature {temperature_k!r} K is out of range: "
                          "1/(k_B*T) overflows")
    return out


def _real(name: str, value, array: bool = False):
    """``value`` as a Python float, or a DomainError naming ``name`` unless
    it is a finite real number; see :func:`_in_range`."""
    if type(value) is float and -math.inf < value < math.inf:
        return value
    return _in_range(name, value, array, -math.inf, False)


def _positive(name: str, value, zero: bool = False, array: bool = False):
    """``value`` as a Python float, or a DomainError naming ``name`` unless
    it is finite and > 0, or >= 0 with ``zero``; see :func:`_in_range`.
    This is the one check of every bare number argument."""
    if type(value) is float and (0.0 < value < math.inf or zero and value == 0.0):
        return value
    return _in_range(name, value, array, 0.0, zero)


def _in_range(name: str, value, array: bool, low: float, closed: bool):
    """``value`` as a Python float, or with ``array`` a list or array of
    real numbers as a float array (a 0-d one as a float), each element
    finite and > ``low``, or >= ``low`` when ``closed``.  Anything else is
    a DomainError of one form, naming ``name`` and the first element out
    of range.  An integer past the float range is inf."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        try:
            x = float(value)
        except OverflowError:
            x = math.inf
    else:
        try:
            x = np.asarray(value) if array else None
        except ValueError:  # a ragged list
            x = None
        if x is None or x.dtype.kind not in "iuf":
            raise DomainError(f"{name} must be a real number, got {value!r}")
        x = x.astype(float, copy=False) if x.ndim else float(x)
    ok = (x >= low if closed else x > low) & (x < math.inf)
    if ok if type(x) is float else ok.all():
        return x
    rule = ("finite" if low == -math.inf else
            f"finite and {'>=' if closed else '>'} {low:g}")
    bad = value if type(x) is float else float(x[~ok][0])
    raise DomainError(f"{name} must be {rule}, got {bad!r}")


def _positive_fields(obj, *names: str, zero: tuple = (),
                     array: bool = False) -> None:
    """Store each named field of the frozen dataclass ``obj`` as what
    :func:`_positive` makes of it, a field named in ``zero`` allowed to be
    0; a float field in range stays put."""
    for name in names:
        value = getattr(obj, name)
        x = _positive(name, value, name in zero, array)
        if x is not value:
            object.__setattr__(obj, name, x)


def _real_fields(obj, *names: str, array: bool = False) -> None:
    """Store each named field of the frozen dataclass ``obj`` as what
    :func:`_real` makes of it; a finite float field stays put."""
    for name in names:
        value = getattr(obj, name)
        x = _real(name, value, array)
        if x is not value:
            object.__setattr__(obj, name, x)


def _whole(name: str, value, least: int) -> int:
    """``value`` as an int >= ``least``, or a DomainError naming ``name``:
    a bool, a float and anything else that is not an integer are refused."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise DomainError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DomainError(f"{name} must be >= {least}, got {value!r}")
    return int(value)
