"""Material response: permittivity models and spectral densities.

Models are evaluated primarily on the imaginary frequency axis K = i*hbar*omega
(in eV), where the response is real, smooth and ideal for quadrature.  Dense
media enter every friction formula only through the electrostatic surface
response A = (eps-1)/(eps+1), one analytic function of the squared frequency
zeta: K**2 on the imaginary axis, -m**2 + i*gamma (see :func:`default_gamma`)
on the retarded branch that carries the spectrum over energies m = hbar*omega.

Normalization: the "dense" spectral density carried by this module is the
dimensionless surface-response spectrum (the density-scaled polarizability
spectrum 2*pi*rho*alpha_I(m**2)*m**2); particle number density cancels out of
all plate-plate results by construction.  Per-particle spectra (units nm^3),
needed only for genuinely dilute media, are the user's input via tabulated
files in the dilute/hybrid routes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import DeltaLineError, DomainError, UnsupportedModelError
from .quadrature import _WGK, _XGK


@dataclass(frozen=True)
class Vacuum:
    """eps = 1 everywhere."""


@dataclass(frozen=True)
class Drude:
    """Free-electron response.

    ``plasma_energy_ev`` is hbar*omega_p, ``damping_ev`` is hbar*nu.  With
    damping_ev = 0 it is the collisionless plasma response,
    eps = 1 - (omega_p/omega)**2.
    """

    plasma_energy_ev: float
    damping_ev: float

    def __post_init__(self):
        if not 0.0 < self.plasma_energy_ev < math.inf:
            raise DomainError("plasma_energy_ev must be finite and > 0")
        if not 0.0 <= self.damping_ev < math.inf:
            raise DomainError("damping_ev must be finite and >= 0")


@dataclass(frozen=True)
class Tabulated:
    """Spectral density sampled on a grid of excitation energies.

    ``m_ev`` strictly increasing, ``values`` >= 0.  Interpolation is linear
    in m and the density is taken to vanish outside the tabulated range.
    The value convention depends on the consuming route: dimensionless
    surface spectrum for dense plates, per-particle nm^3 for dilute media.
    """

    m_ev: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.m_ev, dtype=float)
        v = np.asarray(self.values, dtype=float)
        if m.ndim != 1 or m.shape != v.shape or m.size < 2:
            raise DomainError("tabulated model needs two same-length 1-D columns "
                              "with at least 2 samples")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(v))):
            raise DomainError("tabulated columns must be finite")
        if not np.all(np.diff(m) > 0.0):
            raise DomainError("tabulated m grid must be strictly increasing")
        if m[0] < 0.0:
            raise DomainError("tabulated m grid must be non-negative")
        if m[0] == 0.0 and v[0] != 0.0:
            raise DomainError("a tabulated density must vanish at m = 0")
        if np.any(v < 0.0):
            raise DomainError("tabulated spectral values must be >= 0")
        object.__setattr__(self, "m_ev", m)
        object.__setattr__(self, "values", v)


PermittivityModel = Union[Vacuum, Drude, Tabulated]


@dataclass(frozen=True)
class MediumSpec:
    """A material plus (optionally) its particle number density.

    The density is needed only when per-particle and density-scaled
    response are bridged explicitly (dilute media, hybrid probe limits).
    """

    model: PermittivityModel
    density_per_nm3: float | None = None

    def __post_init__(self):
        if self.density_per_nm3 is not None \
                and not 0.0 < self.density_per_nm3 < math.inf:
            raise DomainError("density_per_nm3 must be finite and > 0 when given")


def load_tabulated(path) -> Tabulated:
    """Read a two-column text file (m_eV, spectral_value); '#' comments.
    Errors name the file: a bad row as ``path:line``, a bad table as
    ``path``."""
    ms, vs = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise DomainError(f"{path}:{lineno}: expected two columns, got {raw!r}")
            try:
                m, v = float(parts[0]), float(parts[1])
            except ValueError:
                m = v = math.nan
            if not (math.isfinite(m) and math.isfinite(v)):
                raise DomainError(f"{path}:{lineno}: expected two finite numbers, "
                                  f"got {raw!r}")
            ms.append(m)
            vs.append(v)
    try:
        return Tabulated(np.array(ms), np.array(vs))
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from None


def _ep2(model) -> float:
    """Squared surface-oscillator energy e_p**2 = (hbar*omega_p)**2 / 2."""
    return 0.5 * model.plasma_energy_ev ** 2


# Most (zeta, column) pairs the tabulated kernel holds in one numpy block.
# Each temporary of a block is then 128 KiB and stays in cache, so the cost
# per energy does not grow with the number of energies evaluated together.
_BLOCK_PAIRS = 2 ** 13
# The differenced logarithms lose precision as |zeta| / m_top**2 grows
# (~1e-13 relative at 16, ~1e-12 at 100); past _FAR_RATIO the 15-point
# Kronrod rule per segment, >= 3 m_top from the poles, is exact to rounding.
_FAR_RATIO = 16.0


def _by_blocks(z: np.ndarray, width: int, kernel) -> np.ndarray:
    """kernel(z[rows, None]) over row blocks of at most _BLOCK_PAIRS
    (zeta, column) pairs, for a table with ``width`` columns."""
    out = np.empty(z.shape, dtype=complex)
    rows = max(1, _BLOCK_PAIRS // width)
    for lo in range(0, z.size, rows):
        out[lo:lo + rows] = kernel(z[lo:lo + rows, None])
    return out


def _tabulated_response(model: Tabulated, zeta: np.ndarray) -> np.ndarray:
    """f(zeta) = integral of S(m') * 2 m' / (zeta + m'**2) dm' for complex
    zeta off the negative real axis (gamma > 0 on the retarded branch keeps
    every logarithm off its cut).  Exact for the linear interpolant
    S = a + b*m': a*dlog(zeta + m'**2) + b*(2*dm' - 2*sqrt(zeta)*
    datan(m'/sqrt(zeta))) per segment, from logarithms taken once per
    node; zeta = 0 is the static limit."""
    m = model.m_ev
    dm = np.diff(m)
    b = np.diff(model.values) / dm
    a = model.values[:-1] - b * m[:-1]
    out = np.empty(zeta.shape, dtype=complex)
    static = zeta == 0.0
    far = np.abs(zeta) > _FAR_RATIO * m[-1] ** 2
    near = ~(static | far)
    if np.any(static):
        # A table starting at m = 0 vanishes there, so that segment has a = 0.
        with np.errstate(divide="ignore"):
            log_term = np.where(m[:-1] > 0.0, np.diff(np.log(m ** 2)), 0.0)
        out[static] = np.sum(a * log_term) + np.sum(b * 2.0 * dm)
    if np.any(far):
        x = (0.5 * (m[:-1] + m[1:]))[:, None] + (0.5 * dm)[:, None] * _XGK
        c = ((0.5 * dm)[:, None] * _WGK * 2.0 * x
             * (a[:, None] + b[:, None] * x)).ravel()
        x2 = x.ravel() ** 2
        out[far] = _by_blocks(zeta[far], x2.size,
                              lambda zc: np.sum(c / (zc + x2), axis=1))

    def exact(zc):
        s = np.sqrt(zc)
        log_term = np.diff(np.log(zc + m ** 2), axis=1)
        # principal complex arctangent of m/s, written with logarithms
        atan = 0.5j * np.diff(np.log(1.0 - 1j * (m / s))
                              - np.log(1.0 + 1j * (m / s)), axis=1)
        lin_term = 2.0 * dm - 2.0 * s * atan
        return np.sum(a * log_term, axis=1) + np.sum(b * lin_term, axis=1)

    out[near] = _by_blocks(zeta[near], m.size, exact)
    return out


def _surface_response(model: PermittivityModel, zeta: np.ndarray) -> np.ndarray:
    """A = (eps-1)/(eps+1) as one analytic function of the squared
    frequency, at an array of complex zeta: K**2 on the imaginary axis,
    -m**2 + i*gamma on the retarded branch."""
    if isinstance(model, Vacuum):
        return np.zeros(zeta.shape, dtype=complex)
    if isinstance(model, Drude):
        ep2 = _ep2(model)
        # principal sqrt: |K| on the imaginary axis, -> +i*m as gamma -> 0
        return ep2 / (zeta + ep2 + model.damping_ev * np.sqrt(zeta))
    if isinstance(model, Tabulated):
        return _tabulated_response(model, zeta)
    raise UnsupportedModelError(f"unknown model {model!r}")


def default_gamma(model: PermittivityModel) -> float:
    """Retarded-branch broadening when none is given, from the model alone
    (so A at one energy does not depend on the others evaluated with it):
    1e-6 * top of the grid for a table, 1e-6 * e_p for the line of an
    undamped Drude model, 0 (the exact limit) for a damped one."""
    if isinstance(model, Tabulated):
        return 1e-6 * float(model.m_ev[-1])
    if isinstance(model, Drude) and model.damping_ev == 0.0:
        return 1e-6 * math.sqrt(_ep2(model))
    return 0.0


def dense_alpha(model: PermittivityModel, k):
    """Surface response A(K) = (eps-1)/(eps+1) on the imaginary axis.

    This dimensionless quantity replaces the density-scaled polarizability
    2*pi*rho*alpha(K) in every dense-media formula; A in [0, 1) for the
    conducting models at K > 0, exactly 0 for vacuum, and -> 1 as K -> 0
    (perfect-conductor limit).  The real part of A(zeta) at zeta = K**2.
    """
    k_arr = np.abs(np.asarray(k, dtype=float))
    out = _surface_response(model, np.atleast_1d(k_arr ** 2).astype(complex)).real
    return float(out[0]) if k_arr.ndim == 0 else out


def dense_alpha_retarded(model: PermittivityModel, m, gamma: float | None = None):
    """A continued to the retarded branch, A(-m**2 + i*gamma).

    ``gamma`` defaults to :func:`default_gamma`.  ``gamma = 0`` is allowed
    for the closed-form models, where the damping itself supplies the
    imaginary part (i*sigma*m); a table needs gamma > 0.  Vectorized over m.
    """
    m_arr = np.asarray(m, dtype=float)
    if np.any(m_arr <= 0.0):
        raise DomainError("retarded evaluation requires m > 0")
    if gamma is None:
        gamma = default_gamma(model)
    if gamma < 0.0 or (gamma == 0.0 and isinstance(model, Tabulated)):
        raise DomainError("gamma must be >= 0, and > 0 for a table, whose "
                          "logarithms diverge at the grid nodes")
    out = _surface_response(model, np.atleast_1d(-m_arr ** 2 + 1j * gamma))
    return complex(out[0]) if m_arr.ndim == 0 else out


def eps_retarded(model: PermittivityModel, m: float, gamma: float | None = None) -> complex:
    """Permittivity approaching the real frequency axis from above,
    (1 + A) / (1 - A) with A = :func:`dense_alpha_retarded`.

    Evaluated at squared frequency -m**2 + i*gamma with m = hbar*omega > 0;
    the imaginary part is <= 0 in this convention, so the spectral density
    -Im[...]/pi is non-negative.
    """
    if not m > 0.0:
        raise DomainError("m must be > 0")
    a = dense_alpha_retarded(model, m, gamma)
    return (1.0 + a) / (1.0 - a)


@dataclass(frozen=True)
class SpectralDensity:
    """Continuous spectral density of a response function over
    m = hbar*omega.

    ``value(m)`` is vectorized; ``peak_hint`` marks the sharpest feature
    for quadrature splitting and ``support_max`` bounds the support (the
    top of a table, else infinite).  A discrete line has no such density:
    :func:`spectral_density` raises instead of returning one.
    """

    value: Callable
    peak_hint: float
    support_max: float = math.inf


def drude_spectral_value(model: Drude, m):
    """Closed-form surface spectrum of the damped free-electron model:
    (e_p**2/pi) * sigma*m / ((e_p**2 - m**2)**2 + (sigma*m)**2)."""
    ep2 = _ep2(model)
    sigma = model.damping_ev
    m_arr = np.asarray(m, dtype=float)
    num = (ep2 / math.pi) * sigma * m_arr
    den = (ep2 - m_arr ** 2) ** 2 + (sigma * m_arr) ** 2
    return num / den


def spectral_density(model: PermittivityModel) -> SpectralDensity:
    """Spectral density of the surface response A.

    Drude: closed form, sharply peaked at e_p = hbar*omega_p/sqrt(2) for
    small damping.  Tabulated: the interpolant itself.  Vacuum:
    identically zero.  An undamped Drude model carries its whole strength
    in one line at e_p, which contributes only through an exact
    two-frequency resonance, not a spectral overlap: DeltaLineError.
    """
    if isinstance(model, Vacuum):
        return SpectralDensity(value=lambda m: np.zeros_like(np.asarray(m, dtype=float)),
                               peak_hint=1.0)
    if isinstance(model, Drude) and model.damping_ev == 0.0:
        raise DeltaLineError(
            f"{model!r} has no continuous spectral density: its whole "
            f"strength is one discrete line at {math.sqrt(_ep2(model)):.6g} "
            "eV, which contributes only through an exact two-frequency "
            "resonance, not a spectral overlap")
    if isinstance(model, Drude):
        return SpectralDensity(value=lambda m: drude_spectral_value(model, m),
                               peak_hint=math.sqrt(_ep2(model)))
    if isinstance(model, Tabulated):
        m_grid = model.m_ev
        vals = model.values
        peak = float(m_grid[int(np.argmax(vals))])

        def interp(m):
            return np.interp(np.asarray(m, dtype=float), m_grid, vals,
                             left=0.0, right=0.0)

        return SpectralDensity(value=interp, peak_hint=peak,
                               support_max=float(m_grid[-1]))
    raise UnsupportedModelError(f"unknown model {model!r}")


def surface_plasmon_frequency(model: PermittivityModel) -> float:
    """Energy hbar*omega of surface charge waves on a plasma half-space,
    hbar*omega_p/sqrt(2): the pole of A where eps = -1."""
    if not (isinstance(model, Drude) and model.damping_ev == 0.0):
        raise UnsupportedModelError(
            "surface_plasmon_frequency is defined for an undamped Drude "
            f"model, got {model!r}")
    return model.plasma_energy_ev / math.sqrt(2.0)
