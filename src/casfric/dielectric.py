"""Material response: permittivity models and spectral densities.

Models are evaluated primarily on the imaginary frequency axis K = i*hbar*omega
(in eV), where the response is real, smooth and ideal for quadrature.  Dense
media enter every friction formula only through the electrostatic surface
response A(K) = (eps-1)/(eps+1); its spectral density over real excitation
energies m = hbar*omega is obtained on the retarded branch, approaching the
real axis from above (-m**2 + i*gamma, gamma -> 0+).

Normalization: the "dense" spectral density carried by this module is the
dimensionless surface-response spectrum (the density-scaled polarizability
spectrum 2*pi*rho*alpha_I(m**2)*m**2); particle number density cancels out of
all plate-plate results by construction.  Per-particle spectra (units nm^3),
needed only for genuinely dilute media, are the user's input via tabulated
files in the dilute/hybrid routes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .errors import DeltaLineError, DomainError, UnsupportedModelError


@dataclass(frozen=True)
class Vacuum:
    """eps = 1 everywhere."""


@dataclass(frozen=True)
class Plasma:
    """Collisionless free-electron response, eps = 1 - (omega_p/omega)**2.

    ``plasma_energy_ev`` is hbar*omega_p.
    """

    plasma_energy_ev: float

    def __post_init__(self):
        if not self.plasma_energy_ev > 0.0:
            raise DomainError("plasma_energy_ev must be > 0")


@dataclass(frozen=True)
class Drude:
    """Damped free-electron response.

    ``plasma_energy_ev`` is hbar*omega_p, ``damping_ev`` is hbar*nu.  With
    damping_ev = 0 this reduces exactly to :class:`Plasma`.
    """

    plasma_energy_ev: float
    damping_ev: float

    def __post_init__(self):
        if not self.plasma_energy_ev > 0.0:
            raise DomainError("plasma_energy_ev must be > 0")
        if self.damping_ev < 0.0:
            raise DomainError("damping_ev must be >= 0")


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


PermittivityModel = Union[Vacuum, Plasma, Drude, Tabulated]


@dataclass(frozen=True)
class MediumSpec:
    """A material plus (optionally) its particle number density.

    The density is needed only when per-particle and density-scaled
    response are bridged explicitly (dilute media, hybrid probe limits).
    """

    model: PermittivityModel
    density_per_nm3: float | None = None

    def __post_init__(self):
        if self.density_per_nm3 is not None and not self.density_per_nm3 > 0.0:
            raise DomainError("density_per_nm3 must be > 0 when given")


def load_tabulated(path) -> Tabulated:
    """Read a two-column text file (m_eV, spectral_value); '#' comments."""
    ms, vs = [], []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise DomainError(f"{path}:{lineno}: expected two columns, got {raw!r}")
            ms.append(float(parts[0]))
            vs.append(float(parts[1]))
    return Tabulated(np.array(ms), np.array(vs))


def _ep2(model) -> float:
    """Squared surface-oscillator energy e_p**2 = (hbar*omega_p)**2 / 2."""
    return 0.5 * model.plasma_energy_ev ** 2


def _tabulated_response(model: Tabulated, zeta):
    """f(zeta) = integral of S(m') * 2 m' / (zeta + m'**2) dm'.

    Piecewise-exact for the linear interpolant; ``zeta`` may be a
    non-negative real (imaginary-axis evaluation, zeta = K**2) or a
    complex number off the negative real axis (retarded branch).  On the
    retarded path zeta = -m**2 + i*gamma the principal branches below are
    continuous because every logarithm argument keeps a fixed-sign
    imaginary part.
    """
    m = model.m_ev
    v = model.values
    m1, m2 = m[:-1], m[1:]
    v1, v2 = v[:-1], v[1:]
    b = (v2 - v1) / (m2 - m1)
    a = v1 - b * m1

    if isinstance(zeta, complex) and zeta.imag != 0.0:
        s = cmath.sqrt(zeta)
        z1 = m1 / s
        z2 = m2 / s

        def atan_c(z):
            return 0.5j * (np.log(1.0 - 1j * z) - np.log(1.0 + 1j * z))

        log_term = np.log(zeta + m2 ** 2) - np.log(zeta + m1 ** 2)
        lin_term = 2.0 * (m2 - m1) - 2.0 * s * (atan_c(z2) - atan_c(z1))
        return complex(np.sum(a * log_term) + np.sum(b * lin_term))

    zr = float(np.real(zeta))
    if zr < 0.0:
        raise DomainError("real zeta must be >= 0 on the imaginary axis")
    if zr == 0.0:
        if m1[0] == 0.0 and a[0] != 0.0:
            raise DomainError("response at K=0 diverges for this table")
        with np.errstate(divide="ignore"):
            log_term = np.where(m1 > 0.0, np.log(m2 ** 2) - np.log(np.maximum(m1, 1e-300) ** 2), 0.0)
        return float(np.sum(a * log_term) + np.sum(b * 2.0 * (m2 - m1)))
    k = math.sqrt(zr)
    log_term = np.log((zr + m2 ** 2) / (zr + m1 ** 2))
    lin_term = 2.0 * (m2 - m1) - 2.0 * k * (np.arctan(m2 / k) - np.arctan(m1 / k))
    return float(np.sum(a * log_term) + np.sum(b * lin_term))


def eps_imaginary(model: PermittivityModel, k):
    """Permittivity on the imaginary frequency axis, eps(K) for K in eV.

    Even in K and >= 1 for every supported model.  For the free-electron
    models the K -> 0 limit diverges (perfect static screening); +inf is
    returned there.  Accepts scalars or arrays.
    """
    k_arr = np.abs(np.asarray(k, dtype=float))
    scalar = k_arr.ndim == 0
    k_arr = np.atleast_1d(k_arr)

    if isinstance(model, Vacuum):
        out = np.ones_like(k_arr)
    elif isinstance(model, Plasma):
        with np.errstate(divide="ignore"):
            out = 1.0 + 2.0 * _ep2(model) / k_arr ** 2
    elif isinstance(model, Drude):
        denom = k_arr ** 2 + model.damping_ev * k_arr
        with np.errstate(divide="ignore"):
            out = 1.0 + 2.0 * _ep2(model) / denom
    elif isinstance(model, Tabulated):
        a = np.array([_tabulated_response(model, float(kk) ** 2) for kk in k_arr])
        if np.any(a >= 1.0):
            raise DomainError("tabulated response reaches A >= 1; eps undefined")
        out = (1.0 + a) / (1.0 - a)
    else:
        raise UnsupportedModelError(f"unknown model {model!r}")
    return float(out[0]) if scalar else out


def default_gamma(model: PermittivityModel, m: float) -> float:
    """Default broadening for retarded-branch evaluation."""
    scale = m
    if isinstance(model, (Plasma, Drude)):
        scale = max(m, math.sqrt(_ep2(model)))
    elif isinstance(model, Tabulated):
        scale = max(m, float(model.m_ev[-1]))
    return 1e-6 * scale


def dense_alpha(model: PermittivityModel, k):
    """Surface response A(K) = (eps-1)/(eps+1) on the imaginary axis.

    This dimensionless quantity replaces the density-scaled polarizability
    2*pi*rho*alpha(K) in every dense-media formula; A in [0, 1) for the
    conducting models at K > 0, exactly 0 for vacuum, and -> 1 as K -> 0
    (perfect-conductor limit).
    """
    k_arr = np.abs(np.asarray(k, dtype=float))
    scalar = k_arr.ndim == 0
    k_arr = np.atleast_1d(k_arr)

    if isinstance(model, Vacuum):
        out = np.zeros_like(k_arr)
    elif isinstance(model, Plasma):
        ep2 = _ep2(model)
        out = ep2 / (k_arr ** 2 + ep2)
    elif isinstance(model, Drude):
        ep2 = _ep2(model)
        out = ep2 / (k_arr ** 2 + ep2 + model.damping_ev * k_arr)
    elif isinstance(model, Tabulated):
        out = np.array([_tabulated_response(model, float(kk) ** 2) for kk in k_arr])
    else:
        raise UnsupportedModelError(f"unknown model {model!r}")
    return float(out[0]) if scalar else out


def dense_alpha_retarded(model: PermittivityModel, m, gamma: float | None = None):
    """A continued to the retarded branch, A(-m**2 + i*gamma).

    ``gamma = 0`` is allowed for the closed-form models, where the damping
    itself supplies the imaginary part (i*sigma*m).  Vectorized over m.
    """
    m_arr = np.asarray(m, dtype=float)
    scalar = m_arr.ndim == 0
    m_arr = np.atleast_1d(m_arr)
    if np.any(m_arr <= 0.0):
        raise DomainError("retarded evaluation requires m > 0")
    if gamma is None:
        gamma = default_gamma(model, float(np.max(m_arr)))
    if gamma < 0.0:
        raise DomainError("gamma must be >= 0")

    if isinstance(model, Vacuum):
        out = np.zeros(m_arr.shape, dtype=complex)
    elif isinstance(model, (Plasma, Drude)):
        ep2 = _ep2(model)
        sigma = model.damping_ev if isinstance(model, Drude) else 0.0
        k2 = -m_arr ** 2 + 1j * gamma
        abs_k = np.sqrt(k2.astype(complex))  # principal branch -> +i*m as gamma -> 0
        out = ep2 / (k2 + ep2 + sigma * abs_k)
    elif isinstance(model, Tabulated):
        if gamma == 0.0:
            gamma = default_gamma(model, float(np.max(m_arr)))
        out = np.array([_tabulated_response(model, complex(-mm ** 2, gamma))
                        for mm in m_arr])
    else:
        raise UnsupportedModelError(f"unknown model {model!r}")
    return complex(out[0]) if scalar else out


def eps_retarded(model: PermittivityModel, m: float, gamma: float | None = None) -> complex:
    """Permittivity approaching the real frequency axis from above.

    Evaluated at squared frequency -m**2 + i*gamma with m = hbar*omega > 0;
    the imaginary part is <= 0 in this convention, so the spectral density
    -Im[...]/pi is non-negative.
    """
    if not m > 0.0:
        raise DomainError("m must be > 0")
    if gamma is None:
        gamma = default_gamma(model, m)

    if isinstance(model, Vacuum):
        return complex(1.0, 0.0)
    if isinstance(model, (Plasma, Drude)):
        ep2 = _ep2(model)
        sigma = model.damping_ev if isinstance(model, Drude) else 0.0
        k2 = complex(-m * m, gamma)
        abs_k = cmath.sqrt(k2)
        return 1.0 + 2.0 * ep2 / (k2 + sigma * abs_k)
    if isinstance(model, Tabulated):
        a = dense_alpha_retarded(model, m, gamma)
        return (1.0 + a) / (1.0 - a)
    raise UnsupportedModelError(f"unknown model {model!r}")


@dataclass(frozen=True)
class DeltaLine:
    """A discrete spectral line: position m0 (eV) and weight w such that the
    reconstructed response is A(K) = 2*m0*w / (K**2 + m0**2)."""

    position_ev: float
    weight: float


@dataclass(frozen=True)
class SpectralDensity:
    """Spectral density of a response function over m = hbar*omega.

    ``value(m)`` is the continuous part (vectorized); for the undamped
    plasma the whole strength sits in ``line`` and the continuous part is
    zero — consumers that need a continuum must check :meth:`continuous`.
    ``peak_hint`` marks the sharpest feature for quadrature splitting and
    ``support_max`` bounds the support for tabulated data (None = infinite).
    """

    value: Callable
    peak_hint: float
    line: DeltaLine | None = None
    support_max: float | None = None
    label: str = ""

    @property
    def continuous(self) -> bool:
        return self.line is None

    def require_continuous(self, context: str = "this operation"):
        if not self.continuous:
            raise DeltaLineError(
                f"{context} needs a continuous spectral density, but "
                f"{self.label or 'the model'} carries a discrete line at "
                f"{self.line.position_ev:.6g} eV; a single line would "
                "contribute only through an exact two-frequency resonance, "
                "not a spectral overlap")
        return self


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
    small damping.  Plasma: a pure line at e_p (flagged, not broadened).
    Tabulated: the interpolant itself.  Vacuum: identically zero.
    """
    if isinstance(model, Vacuum):
        return SpectralDensity(value=lambda m: np.zeros_like(np.asarray(m, dtype=float)),
                               peak_hint=1.0, label="vacuum")
    if isinstance(model, Plasma):
        ep = math.sqrt(_ep2(model))
        return SpectralDensity(
            value=lambda m: np.zeros_like(np.asarray(m, dtype=float)),
            peak_hint=ep,
            line=DeltaLine(position_ev=ep, weight=0.5 * ep),
            label="plasma line")
    if isinstance(model, Drude):
        if model.damping_ev == 0.0:
            return spectral_density(Plasma(model.plasma_energy_ev))
        ep = math.sqrt(_ep2(model))
        return SpectralDensity(value=lambda m: drude_spectral_value(model, m),
                               peak_hint=ep, label="drude")
    if isinstance(model, Tabulated):
        m_grid = model.m_ev
        vals = model.values
        peak = float(m_grid[int(np.argmax(vals))])

        def interp(m):
            return np.interp(np.asarray(m, dtype=float), m_grid, vals,
                             left=0.0, right=0.0)

        return SpectralDensity(value=interp, peak_hint=peak,
                               support_max=float(m_grid[-1]), label="tabulated")
    raise UnsupportedModelError(f"unknown model {model!r}")


def surface_plasmon_frequency(model: PermittivityModel) -> float:
    """Energy hbar*omega of surface charge waves on a plasma half-space,
    hbar*omega_p/sqrt(2): the pole of A where eps = -1."""
    if not isinstance(model, Plasma):
        raise UnsupportedModelError(
            "surface_plasmon_frequency is defined for the undamped plasma "
            f"model, got {type(model).__name__}")
    return model.plasma_energy_ev / math.sqrt(2.0)
