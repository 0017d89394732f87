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


# Most (zeta, column) pairs the tabulated kernel holds in one numpy block:
# (zeta, node) pairs of the exact form, whose work array holds 64 bytes a
# pair, and (zeta, Kronrod node) pairs, 16 bytes a temporary.  Blocks then
# stay in cache, so the cost per energy does not grow with the number of
# energies evaluated together.  On a 400-sample table 2**14 runs the exact
# form 10-20 % faster than 2**13, while 2**15 slows the Kronrod form ~2.5x.
_BLOCK_PAIRS = 2 ** 14
# Smallest positive normal double: floor of the squared distance |s -+ i m|**2.
_TINY = np.finfo(float).tiny


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
    zeta off the negative real axis, S the linear interpolant a + b*m' of
    each segment; zeta = 0 is the static limit.

    Exact form.  With s = sqrt(zeta) = x + i*y (principal root) and
    L+- = log(s +- i*m), the segment integrates to differences of
    a*log(zeta + m**2) + b*(2m - 2s*atan(m/s)), and

        log(zeta + m**2) = L+ + L-,    atan(m/s) = (i/2) * (L- - L+).

    Neither identity jumps a branch along the table: x > 0 off the cut
    (gamma > 0 on the retarded branch), so s +- i*m stay in the right
    half-plane.  Summed by parts over the nodes m_j, with the kinks
    kink_j = b_j - b_(j-1) (b = 0 outside the table) and d+- = y +- m_j,

        f = 2 sum_k b_k dm_k + S(m_top) (L+ + L-)(m_top) - S(m_0) (L+ + L-)(m_0)
            + sum_j kink_j [(d+ - i x) L+ - (d- - i x) L-],

    with L+- = log(x**2 + d+-**2) / 2 + i arctan2(d+-, x): two real
    logarithms and two arctangents per (zeta, node) pair.  The factor
    (d+- - i x) is as small as |s +- i m_j|, so a node on the pole adds
    r*log(r) -> 0 without cancellation, and flooring r**2 at _TINY (it
    underflows once gamma is below ~1e-150) changes nothing.  Each angle
    is split as copysign(pi/2, d) - atan(x/d), and the first parts are
    summed in closed form: pi*(S(m_0) - S(y)) plus the ends' share in
    Im f, -pi*x*S'(y) in Re f.  So the small Im f, which carries the
    spectrum, is not left over from sums of terms of size pi/2.  At the
    two ends S jumps to 0 and L- is singular; there y - m is formed from
    Re zeta + m**2, which is exact on the node for zeta = -m**2 + i*gamma.

    Kronrod form.  The exact form cancels once the pole is far from the
    table, where the 15-point Kronrod rule on every segment is exact to
    rounding.  Mirrored onto m' >= 0, the nearer pole is P = |y| + i x.
    Slide the widest segment along the table to the place nearest P; P is
    clear of the table when it lies outside the ellipse with foci at that
    segment's ends through half a width beyond them (Bernstein radius
    2 + sqrt(3)), i.e. when its distances to the foci sum to at least
    twice the width.  Every segment fits inside such a slid copy, so each
    sees the pole at least as far out.

    Each energy is reduced on its own row, so its value never depends on
    the other energies in the call."""
    m = model.m_ev
    v = model.values
    dm = m[1:] - m[:-1]
    b = (v[1:] - v[:-1]) / dm
    a = v[:-1] - b * m[:-1]
    out = np.empty(zeta.shape, dtype=complex)
    static = zeta == 0.0
    s = np.sqrt(zeta)
    y = np.abs(s.imag)
    width = dm.max()
    lo = np.minimum(np.maximum(y, m[0]), m[-1] - width) - y
    far = ((np.hypot(lo, s.real) + np.hypot(lo + width, s.real) >= 2.0 * width)
           & ~static)
    near = ~(static | far)
    if static.any():
        # A table starting at m = 0 vanishes there, so that segment has a = 0.
        with np.errstate(divide="ignore"):
            log_term = np.where(m[:-1] > 0.0, np.diff(np.log(m ** 2)), 0.0)
        out[static] = np.sum(a * log_term) + np.sum(b * 2.0 * dm)
    if far.any():
        x = (0.5 * (m[:-1] + m[1:]))[:, None] + (0.5 * dm)[:, None] * _XGK
        c = ((0.5 * dm)[:, None] * _WGK * 2.0 * x
             * (a[:, None] + b[:, None] * x)).ravel()
        x2 = x.ravel() ** 2
        out[far] = _by_blocks(zeta[far], x2.size,
                              lambda zc: np.sum(c / (zc + x2), axis=1))

    signed_m = np.array([m, -m])
    slope = np.concatenate(([0.0], b, [0.0]))    # S' right of each node
    kink = slope[1:] - slope[:-1]
    lin = 2.0 * np.sum(b * dm)
    # the ends of the table where S does not vanish, with their signs
    ends = [j for j in (0, m.size - 1) if v[j] != 0.0]
    end_m, end_w = m[ends], v[ends] * np.where(ends, 1.0, -1.0)

    def exact(zc):
        s = np.sqrt(zc)
        # f(conj zeta) = conj f(zeta): work at y = |Im s| >= 0, so d+ >= 0.
        x, y = s.real, np.abs(s.imag)
        d = y[:, :, None] + signed_m            # rows of y + m and y - m
        buf = np.empty((4,) + d.shape)
        log_r2, small, d_log, d_small = buf
        np.multiply(d, d, out=log_r2)
        log_r2 += (x * x + _TINY)[:, :, None]
        np.log(log_r2, out=log_r2)
        # arctan2(d, x) = copysign(pi/2, d) - small
        np.copysign(x[:, :, None], d, out=small)
        np.arctan2(small, np.abs(d), out=small)
        np.multiply(d, log_r2, out=d_log)
        np.multiply(d, small, out=d_small)
        # sum_j kink_j * (row for +m minus row for -m), per energy
        sums = np.vecdot(buf, kink)
        log_r2_k, small_k, d_log_k, d_small_k = sums[..., 0] - sums[..., 1]
        # S (L+ + L-) at the ends, where the jump of S to 0 makes L- singular:
        # on the retarded branch y - m there is (x**2 - (Re zeta + m**2)) /
        # (y + m), exact on the node when zeta = -m**2 + i*gamma.
        d_end = np.where(zc.real < 0.0, (x * x - (zc.real + end_m ** 2)) / (y + end_m),
                         y - end_m)
        log_r2_e = ((log_r2[:, 0, ends] + np.log(x * x + d_end ** 2 + _TINY))
                    * end_w).sum(axis=1)
        small_e = ((small[:, 0, ends]
                    + np.arctan2(np.copysign(x, d_end), np.abs(d_end))) * end_w).sum(axis=1)
        step_e = ((1.0 + np.copysign(1.0, d_end)) * end_w).sum(axis=1)
        x, y = x[:, 0], y[:, 0]
        # The copysign(pi/2, d) parts of the angles, summed over the nodes in
        # closed form from the value and slope of S at y.
        re = (0.5 * (d_log_k + log_r2_e) + lin
              - x * (np.pi * slope[np.searchsorted(m, y, side="right")] + small_k))
        im = (np.pi * (v[0] - np.interp(y, m, v) + 0.5 * step_e)
              - d_small_k - 0.5 * x * log_r2_k - small_e)
        return re + 1j * np.sign(s.imag[:, 0]) * im

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
