"""Material response: permittivity models and spectral densities.

Every route integrates spectral densities over real energies m = hbar*omega
(in eV).  Dense media enter every friction formula only through the
electrostatic surface response A = (eps-1)/(eps+1), formed on the retarded
branch zeta = -m**2 + i*gamma (see :func:`_broadening`) and nowhere else;
its static limit A(0) is each model's ``static_response``.

Normalization: the "dense" spectral density carried by this module is the
dimensionless surface-response spectrum (the density-scaled polarizability
spectrum 2*pi*rho*alpha_I(m**2)*m**2); particle number density cancels out of
all plate-plate results by construction.  Per-particle spectra (units nm^3),
needed only for genuinely dilute media, are the user's input via tabulated
files in the dilute/hybrid routes.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np

from .errors import DeltaLineError, DomainError, UnsupportedModelError
from .quadrature import _WGK, _XGK
from .units import _positive_fields, _real


@dataclass(frozen=True)
class Vacuum:
    """eps = 1 everywhere: A, and so ``static_response`` A(0), is 0."""

    static_response = 0.0


@dataclass(frozen=True)
class Drude:
    """Free-electron response; ``static_response`` A(0) is exactly 1.

    ``plasma_energy_ev`` is hbar*omega_p, ``damping_ev`` is hbar*nu.  With
    damping_ev = 0 it is the collisionless plasma response,
    eps = 1 - (omega_p/omega)**2.  Both energies, stored as Python floats,
    are at most 1e76 eV: every Drude spectrum and force stays in range.
    """

    static_response = 1.0

    plasma_energy_ev: float
    damping_ev: float

    def __post_init__(self):
        _positive_fields(self, "plasma_energy_ev", "damping_ev",
                         zero=("damping_ev",))
        if self.plasma_energy_ev > _M_FAR:
            raise DomainError(f"plasma_energy_ev must be finite and in (0, {_M_FAR:g}] eV")
        if self.damping_ev > _M_FAR:
            raise DomainError(f"damping_ev must be finite and in [0, {_M_FAR:g}] eV")


@dataclass(frozen=True, eq=False)
class Tabulated:
    """Spectral density sampled on a grid of excitation energies.

    ``m_ev`` strictly increasing to at most 1e76 eV, ``values`` >= 0.  Interpolation is linear
    in m and the density is taken to vanish outside the tabulated range.
    The value convention depends on the consuming route: dimensionless
    surface spectrum for dense plates, per-particle nm^3 for dilute media.
    The model computes on its own float copies of the two columns, which
    its fields show as read-only views, so the constants it builds from
    them on first use cannot go stale.  ``static_response`` is A(0).
    """

    m_ev: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        m = np.array(_real("m_ev", self.m_ev, array=True), dtype=float)
        v = np.array(_real("values", self.values, array=True), dtype=float)
        if m.ndim != 1 or m.shape != v.shape or m.size < 2:
            raise DomainError("tabulated model needs two same-length 1-D columns "
                              "with at least 2 samples")
        if not np.all(np.diff(m) > 0.0):
            raise DomainError("tabulated m grid must be strictly increasing")
        if m[0] < 0.0:
            raise DomainError("tabulated m grid must be non-negative")
        if m[-1] > _M_FAR:
            raise DomainError(f"tabulated m grid must end at or below {_M_FAR:g} eV")
        if m[0] == 0.0 and v[0] != 0.0:
            raise DomainError("a tabulated density must vanish at m = 0")
        if np.any(v < 0.0):
            raise DomainError("tabulated spectral values must be >= 0")
        # np.interp copies a read-only array on every call, so the model
        # computes on the writable copies and shows read-only views.
        object.__setattr__(self, "_columns", (m, v))
        for name, col in (("m_ev", m), ("values", v)):
            view = col.view()
            view.setflags(write=False)
            object.__setattr__(self, name, view)
        if not _broadening(self) > 0.0:
            raise DomainError("tabulated m grid ends too low: its broadening "
                              "1e-6*m_top is 0")

    @cached_property
    def _terms(self) -> "_TableTerms":
        """The constants of the table's surface response, built on its
        first response; the spectral routes never build them."""
        return _TableTerms(*self._columns)

    static_response = property(lambda self: self._terms.static)

    @cached_property
    def _density(self) -> "SpectralDensity":
        """The table's :func:`spectral_density`, built on its first use."""
        m_grid, vals = self._columns

        def interp(m):
            return np.interp(m, m_grid, vals, left=0.0, right=0.0)

        return SpectralDensity(value=interp,
                               peak_hint=float(m_grid[int(np.argmax(vals))]),
                               support_max=float(m_grid[-1]))


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
        if self.density_per_nm3 is not None:
            _positive_fields(self, "density_per_nm3")


# A row of commas and blanks alone, which numpy reads as a blank row once
# its commas are blanks, and the row loop as a row of no columns.
_COMMA_ROW = re.compile(r"^[^\S\n]*(?:,[^\S\n]*)+(?:#|$)", re.MULTILINE)


def load_tabulated(path) -> Tabulated:
    """Read a two-column text file (m_eV, spectral_value) in UTF-8, with
    or without a byte-order mark: whitespace or commas between numbers,
    '#' comments, blank lines.  Errors name the file: a bad row as
    ``path:line``, a bad table as ``path``."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        text = fh.read()
    # One numpy parse reads a well-formed table.  The closing row "0 0"
    # keeps loadtxt from warning on a file without data and turns a row
    # of any other width into a parse error.  The row loop decides every
    # other file, giving its arrays or its first bad row: a file with a
    # row numpy refuses (numpy does not read 1_000 or non-ASCII digits,
    # float() does), no data, a value not finite or a row of commas.
    lines = text.replace(",", " ").split("\n")
    lines.append("0 0")
    try:
        data = np.loadtxt(lines, comments="#", ndmin=2)
    except ValueError:
        data = None
    del lines    # before the columns are copied: it holds the most memory
    if data is not None and len(data) > 1 and np.isfinite(data).all() \
            and not ("," in text and _COMMA_ROW.search(text)):
        m, v = data[:-1, 0], data[:-1, 1]
    else:
        m, v = _read_rows(path, _file_lines(text))
    try:
        return Tabulated(m, v)
    except DomainError as exc:
        raise DomainError(f"{path}: {exc}") from None


def _file_lines(text):
    """The lines of ``text`` as iterating a text file gives them, split
    after each "\\n" alone, one at a time: a StringIO would first copy
    the text at four bytes a character."""
    start = 0
    while start < len(text):
        end = text.find("\n", start) + 1 or len(text)
        yield text[start:end]
        start = end


def _read_rows(path, lines) -> tuple:
    """The two columns of ``lines``, the file's lines with their "\\n",
    read row by row with float(); the first bad row, in file order,
    raises as ``path:line``."""
    ms, vs = [], []
    for lineno, raw in enumerate(lines, 1):
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
    return np.array(ms), np.array(vs)


def _ep2(model) -> float:
    """Squared surface-oscillator energy e_p**2 = (hbar*omega_p)**2 / 2."""
    return 0.5 * model.plasma_energy_ev ** 2


def _drude_constants(model: Drude) -> tuple:
    """e_p**2, the damping and (e_p**2/pi) * damping as 0-d arrays: numpy
    converts a Python float operand anew on every ufunc call, and an
    array once made it takes as it is."""
    ep2, sigma = _ep2(model), model.damping_ev
    return tuple(map(np.array, (ep2, sigma, (ep2 / math.pi) * sigma)))


# Most (energy, column) pairs the tabulated kernel holds in one numpy block:
# (energy, node) pairs of the exact form, whose work arrays hold 48 bytes a
# pair, and (energy, Kronrod node) pairs, 16 bytes a temporary.  Blocks then
# stay in cache, so the cost per energy does not grow with the number of
# energies evaluated together; the energies are split into equal blocks.
# On a 400-sample table 2**14 runs the exact form 5-20 % faster than 2**13,
# while 2**15 slows the Kronrod form ~2.5x.
_BLOCK_PAIRS = 2 ** 14
# Smallest positive normal double: floor of the squared distance |s -+ i m|**2.
_TINY = np.finfo(float).tiny
# Largest energy whose square is finite.
_M_MAX = math.sqrt(np.finfo(float).max)
# Largest |slope| * max(m_top, 1 eV) of a table whose surface response is
# formed, leaving room for pi*slope and the kinks.
_SLOPE_ROOM = np.finfo(float).max / 4.0
# Largest plasma energy and damping of a Drude model and top of a table's
# grid: it keeps (e_p**2/pi)*damping and every force finite.
_M_FAR = 1e76


def _by_blocks(width: int, kernel, *cols) -> np.ndarray:
    """kernel(*cols) over row blocks of at most _BLOCK_PAIRS (energy,
    column) pairs, for a table with ``width`` columns."""
    n = cols[0].size
    blocks = -(-n * width // _BLOCK_PAIRS)
    if blocks <= 1:
        return kernel(*cols)
    rows = -(-n // blocks)
    return np.concatenate([kernel(*(c[lo:lo + rows] for c in cols))
                           for lo in range(0, n, rows)])


class _TableTerms:
    """A table's constants of :func:`_tabulated_response`, built on its
    first response and kept on the table.  The exact form works on two
    halves of columns, y + m_j and then y - m_j over the nodes, each
    closed by the columns of m_0 and m_top once more; in the second half
    those two carry y - m_end formed beside the end.  ``kink`` weighs
    the node columns by +-kink_j, ``weight`` also the closing columns by
    S at the ends, with a minus at m_0."""

    def __init__(self, m: np.ndarray, v: np.ndarray):
        dm = m[1:] - m[:-1]
        dv = v[1:] - v[:-1]
        # Each constant formed from a slope b stays in the float range:
        # pi*b, the kinks (differences of two slopes) and b*m on the table.
        limit = _SLOPE_ROOM / max(1.0, float(m[-1]))
        if np.any(np.abs(dv) > limit * dm):
            slope = max(abs(p) / q for p, q in zip(dv.tolist(), dm.tolist()))
            raise DomainError(
                f"the tabulated density is too steep for its surface response: "
                f"its slope {slope:.6g} per eV, times max(m_top, 1 eV), exceeds "
                f"{_SLOPE_ROOM:.6g}, so the response's constants leave the "
                "float range")
        self.m, self.v = m, v
        self.b = dv / dm
        self.a = v[:-1] - self.b * m[:-1]
        self.width = float(dm.max())
        self.lin = float(2.0 * np.sum(self.b * dm))
        n = m.size
        slope = np.zeros(n + 1)    # S' right of each node
        slope[1:-1] = self.b
        self.pi_slope = np.pi * slope
        self.end_m = m[[0, -1]]
        # Each constant is one preallocated array, its halves and closing
        # columns written by slices.
        self.signed_m = np.empty(2 * n + 4)
        self.signed_m[:n] = m
        self.signed_m[n:n + 2] = self.end_m
        np.negative(self.signed_m[:n + 2], out=self.signed_m[n + 2:])
        self.kink = np.zeros((2, n + 2))
        np.subtract(slope[1:], slope[:-1], out=self.kink[0, :n])
        np.negative(self.kink[0, :n], out=self.kink[1, :n])
        self.weight = np.empty((2, n + 2))
        self.weight[:, :n] = self.kink[:, :n]
        self.weight[:, n] = -v[0]
        self.weight[:, n + 1] = v[-1]
        self.half_end_w = 0.5 * self.weight[0, n:]

    @cached_property
    def kronrod(self) -> tuple:
        """The 15-point Kronrod rule on every segment, as weights c and
        squared nodes x2: f(zeta) = sum of c / (zeta + x2)."""
        m, a, b = self.m, self.a, self.b
        half = 0.5 * (m[1:] - m[:-1])
        x = (0.5 * (m[:-1] + m[1:]))[:, None] + half[:, None] * _XGK
        c = (half[:, None] * _WGK * 2.0 * x * (a[:, None] + b[:, None] * x)).ravel()
        return c, x.ravel() ** 2

    def kronrod_sum(self, zeta: np.ndarray) -> np.ndarray:
        c, x2 = self.kronrod
        return np.sum(c / (zeta[:, None] + x2), axis=1)

    @cached_property
    def static(self) -> float:
        """f(0): a table starting at m = 0 vanishes there, so that
        segment has a = 0.  The logarithms are of m, not of m**2, which
        underflows to 0 on nodes below ~1.5e-162 eV.  A sum that leaves
        the float range is a DomainError, not an infinite A(0)."""
        m = self.m
        with np.errstate(divide="ignore", over="ignore"):
            lg = np.log(m)
            log_term = np.where(m[:-1] > 0.0, 2.0 * (lg[1:] - lg[:-1]), 0.0)
            static = float(np.sum(self.a * log_term)) + self.lin
        if not math.isfinite(static):
            raise DomainError(
                "the tabulated density's static response A(0), the integral "
                "of 2*S(m)/m, leaves the float range")
        return static

    def exact(self, s: np.ndarray, m: np.ndarray) -> np.ndarray:
        """The exact form at s = sqrt(zeta), zeta = -m**2 + i*gamma, one
        energy a row."""
        # f(conj zeta) = conj f(zeta): work at y = |Im s| >= 0, so y + m_j >= 0.
        x, y = s.real, np.abs(s.imag)
        xx = x * x
        d = y[:, None] + self.signed_m
        ends = d[:, -2:]
        # y - m at the ends, where the jump of S to 0 makes L- singular:
        # (x**2 + m**2 - m_end**2) / (y + m_end), with m - m_end exact
        # beside the end.  The node columns keep y - m_j, whose signs the
        # closed-form sums below follow.
        e, mc = self.end_m, m[:, None]
        ends[...] = (xx[:, None] + (mc - e) * (mc + e)) / (y[:, None] + e)
        buf = np.empty((2,) + d.shape)
        log_r2, small = buf
        np.multiply(d, d, out=log_r2)
        log_r2 += (xx + _TINY)[:, None]
        np.log(log_r2, out=log_r2)
        # arctan2(d, x) = copysign(pi/2, d) - arctan(x/d), d = +-0 included
        with np.errstate(divide="ignore"):
            np.divide(x[:, None], d, out=small)
        np.arctan(small, out=small)
        # The copysign(pi/2, d) parts of the angles, summed over the nodes in
        # closed form from the value and slope of S at y; at an end, half
        # the jump of S where y - m_end >= +0.
        jump = (1.0 + np.copysign(1.0, ends)) * self.half_end_w
        # Per energy and half of the columns, each on its own row: sums of
        # kink_j (log_r2, small), then, with d set to 1 in the ends' columns,
        # of kink_j (d log_r2, d small) over the nodes plus S (log_r2, small)
        # over the ends.
        halves = buf.reshape(2, s.size, 2, self.m.size + 2)
        by_kink = np.vecdot(halves, self.kink)
        d.reshape(halves.shape[1:])[..., -2:] = 1.0
        buf *= d
        by_weight = np.vecdot(halves, self.weight)
        by_kink = by_kink[..., 0] + by_kink[..., 1]
        by_weight = by_weight[..., 0] + by_weight[..., 1]
        out = np.empty(s.shape, dtype=complex)
        out.real = (0.5 * by_weight[0] + self.lin
                    - x * (self.pi_slope[np.searchsorted(self.m, y, side="right")]
                           + by_kink[1]))
        out.imag = np.sign(s.imag) * (
            np.pi * (self.v[0] - np.interp(y, self.m, self.v) + (jump[:, 0] + jump[:, 1]))
            - by_weight[1] - 0.5 * x * by_kink[0])
        return out


def _tabulated_response(model: Tabulated, zeta: np.ndarray, m) -> np.ndarray:
    """f(zeta) = integral of S(m') * 2 m' / (zeta + m'**2) dm' at
    zeta = -m**2 + i*gamma, gamma > 0, for the 1-d array of energies
    ``m``, S the linear interpolant a + b*m' of each segment.

    Exact form.  With s = sqrt(zeta) = x + i*y (principal root) and
    L+- = log(s +- i*m), the segment integrates to differences of
    a*log(zeta + m**2) + b*(2m - 2s*atan(m/s)), and

        log(zeta + m**2) = L+ + L-,    atan(m/s) = (i/2) * (L- - L+).

    Neither identity jumps a branch along the table: x > 0 as gamma > 0,
    so s +- i*m stay in the right half-plane.  Summed by parts over the
    nodes m_j, with the kinks kink_j = b_j - b_(j-1) (b = 0 outside the
    table) and d+- = y +- m_j,

        f = 2 sum_k b_k dm_k + S(m_top) (L+ + L-)(m_top) - S(m_0) (L+ + L-)(m_0)
            + sum_j kink_j [(d+ - i x) L+ - (d- - i x) L-],

    with L+- = log(x**2 + d+-**2) / 2 + i arctan2(d+-, x): one real
    logarithm and one arctangent per (zeta, node, sign).  The factor
    (d+- - i x) is as small as |s +- i m_j|, so a node on the pole adds
    r*log(r) -> 0 without cancellation, and flooring r**2 at _TINY (it
    underflows once gamma is below ~1e-150) changes nothing.  Each angle
    is split as copysign(pi/2, d) - atan(x/d), and the first parts are
    summed in closed form: pi*(S(m_0) - S(y)) plus the ends' share in
    Im f, -pi*x*S'(y) in Re f.  So the small Im f, which carries the
    spectrum, is not left over from sums of terms of size pi/2.  At the
    two ends S jumps to 0 and L- is singular; there y - m_end is formed
    from m**2 - m_end**2 = (m - m_end)(m + m_end), exact beside the end,
    not from the rounded Re zeta.  The per-table terms (slopes, kinks,
    ends) are built once, on the table's first response.

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
    terms = model._terms
    s = np.sqrt(zeta)
    x, y = s.real, np.abs(s.imag)
    width, nodes = terms.width, terms.m
    lo = np.minimum(np.maximum(y, nodes[0]), nodes[-1] - width) - y
    near = np.hypot(lo, x) + np.hypot(lo + width, x) < 2.0 * width
    if near.all():
        return _by_blocks(nodes.size, terms.exact, s, m)
    out = np.empty(zeta.shape, dtype=complex)
    far = ~near
    out[far] = _by_blocks(terms.kronrod[0].size, terms.kronrod_sum, zeta[far])
    if near.any():
        out[near] = _by_blocks(nodes.size, terms.exact, s[near], m[near])
    return out


def _broadening(model: PermittivityModel) -> float:
    """The retarded branch's broadening gamma, from the model alone (so A
    at one energy does not depend on the others evaluated with it):
    1e-6 * top of the grid for a table, 1e-6 * e_p for the line of an
    undamped Drude model, 0 (the exact limit) for a damped one."""
    if isinstance(model, Tabulated):
        return 1e-6 * float(model.m_ev[-1])
    if isinstance(model, Drude) and model.damping_ev == 0.0:
        return 1e-6 * math.sqrt(_ep2(model))
    return 0.0


def dense_alpha_retarded(model: PermittivityModel, m):
    """The surface response on the retarded branch, A(-m**2 + i*gamma), at
    the model's own broadening gamma (:func:`_broadening`).  Vectorized over
    m, which must be > 0 with m**2 inside the float range.
    """
    out = _alpha_retarded(model, _retarded_energies(m))
    return complex(out[0]) if np.ndim(m) == 0 else out


def _retarded_energies(m) -> np.ndarray:
    """m as a 1-d float array of energies on the retarded branch: each
    > 0 with m**2 inside the float range."""
    m_arr = np.atleast_1d(np.asarray(m, dtype=float))
    if m_arr.size and not (m_arr.min() > 0.0 and m_arr.max() <= _M_MAX):
        raise DomainError("retarded evaluation requires finite m > 0 with "
                          f"m**2 in the float range (m <= {_M_MAX:.6g} eV)")
    return m_arr


def _alpha_retarded(model: PermittivityModel, m: np.ndarray) -> np.ndarray:
    """:func:`dense_alpha_retarded` on a float array ``m``, without its
    check of the energies: an m whose square overflows gives an A that
    is not finite, but -0 for an undamped Drude model.

    A Drude model divides e_p**2 by (e_p**2 - m**2) + i*sigma*sqrt(m**2),
    or + i*gamma for an undamped line, formed from real arrays: at every
    energy :func:`dense_alpha_retarded` accepts, each bit is that of the
    complex form e_p**2 / (zeta + e_p**2 + sigma*sqrt(zeta)) at
    zeta = -m**2 + i*gamma (sqrt(zeta) is exactly i*sqrt(m**2) at gamma = 0)."""
    if isinstance(model, Drude):
        ep2, m2 = _ep2(model), m * m
        den = np.empty(m.shape, dtype=complex)
        np.subtract(ep2, m2, out=den.real)
        if model.damping_ev > 0.0:
            np.multiply(model.damping_ev, np.sqrt(m2), out=den.imag)
        else:
            den.imag = _broadening(model)
        return ep2 / den
    if isinstance(model, Tabulated):
        return _tabulated_response(model, 1j * _broadening(model) - m * m, m)
    if isinstance(model, Vacuum):
        return np.zeros(m.shape, dtype=complex)
    raise UnsupportedModelError(f"unknown model {model!r}")


def eps_retarded(model: PermittivityModel, m: float) -> complex:
    """Permittivity approaching the real frequency axis from above,
    (1 + A) / (1 - A) with A = :func:`dense_alpha_retarded`.

    Evaluated at squared frequency -m**2 + i*gamma with m = hbar*omega > 0;
    the imaginary part is <= 0 in this convention, so the spectral density
    -Im[...]/pi is non-negative.
    """
    a = dense_alpha_retarded(model, m)
    return (1.0 + a) / (1.0 - a)


@dataclass(frozen=True)
class SpectralDensity:
    """Continuous spectral density of a response function over
    m = hbar*omega.

    ``value(m)`` is vectorized; ``peak_hint`` marks the sharpest feature
    for quadrature splitting, 0 (the default) for none; ``support_max``
    bounds the support (the top of a table, else infinite).  A discrete
    line has no such density: :func:`spectral_density` raises instead.
    """

    value: Callable
    peak_hint: float = 0.0
    support_max: float = math.inf


def drude_spectral_value(model: Drude, m):
    """Closed-form surface spectrum of the damped free-electron model:
    (e_p**2/pi) * sigma*m / ((e_p**2 - m**2)**2 + (sigma*m)**2).

    Within a few ulp wherever m**2 is finite, but for the rounding of
    e_p**2 - m**2 beside e_p; past |m| = 1.34e154 eV, where m**2
    overflows, the value is 0.  Raises no floating-point warning at
    finite m."""
    with np.errstate(over="ignore"):
        return _drude_spectrum(_drude_constants(model), m)


def _drude_spectrum(constants: tuple, m):
    """:func:`drude_spectral_value` from the model's ``_drude_constants``,
    which a Drude spectral density forms once.

    One formula: with h = hypot(e_p**2 - m**2, sigma*m) the value is
    coef/h * m/h, taken left to right, since m/h first goes subnormal for
    tiny m at large e_p.  Its error is a few ulp plus the rounding of
    e_p**2 - m**2, which the denominator magnifies beside e_p, and grows
    past that only where coef/h*m is subnormal.  Past |m| = 1.34e154 eV,
    m**2 overflows (a warning the caller's errstate settles) and the
    value is 0 where it is ~coef/m**3; no route reads a Drude density
    there, as S1*S2 underflows."""
    ep2, sigma, coef = constants
    m = np.asarray(m, dtype=float)
    h = np.hypot(ep2 - m * m, sigma * m)
    return coef / h * m / h


def spectral_density(model: PermittivityModel) -> SpectralDensity:
    """Spectral density of the surface response A.

    Drude: closed form, sharply peaked at e_p = hbar*omega_p/sqrt(2) for
    small damping.  Tabulated: the interpolant itself, built once per
    table and kept on it.  Vacuum: identically zero, with no peak hint.
    An undamped Drude model carries its whole strength in one line at
    e_p, which contributes only through an exact two-frequency
    resonance, not a spectral overlap: DeltaLineError.
    """
    if isinstance(model, Vacuum):
        return SpectralDensity(value=lambda m: np.zeros_like(np.asarray(m, dtype=float)))
    if isinstance(model, Drude) and model.damping_ev == 0.0:
        raise DeltaLineError(
            f"{model!r} has no continuous spectral density: its whole "
            f"strength is one discrete line at {math.sqrt(_ep2(model)):.6g} "
            "eV, which contributes only through an exact two-frequency "
            "resonance, not a spectral overlap")
    if isinstance(model, Drude):
        constants = _drude_constants(model)
        return SpectralDensity(value=lambda m: _drude_spectrum(constants, m),
                               peak_hint=math.sqrt(_ep2(model)))
    if isinstance(model, Tabulated):
        return model._density
    raise UnsupportedModelError(f"unknown model {model!r}")


def surface_plasmon_frequency(model: PermittivityModel) -> float:
    """Energy hbar*omega of surface charge waves on a plasma half-space,
    hbar*omega_p/sqrt(2): the pole of A where eps = -1."""
    if not (isinstance(model, Drude) and model.damping_ev == 0.0):
        raise UnsupportedModelError(
            "surface_plasmon_frequency is defined for an undamped Drude "
            f"model, got {model!r}")
    return model.plasma_energy_ev / math.sqrt(2.0)
