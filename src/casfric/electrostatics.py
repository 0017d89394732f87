"""Electrostatics of a point charge outside two dielectric half-planes.

Half-plane 1 (permittivity eps1) fills z < 0, half-plane 2 (eps2) fills
z > d, vacuum in between; a unit charge sits at z0 < 0.  Working per
transverse mode q, the potential is a piecewise combination of e^{+qz}
and e^{-qz} whose coefficients follow from continuity of the potential
and of eps * d(potential)/dz at z = 0 and z = d.  The source height
enters every coefficient as the same factor e^{q z0}, which is divided
out, so z0 is not an input.

The coefficients are in closed form; the tests check them against a
generic 4x4 linear solve of the same boundary conditions.  The
closed-form functions broadcast: a ``LayeredConfig`` whose fields are
arrays describes that many configurations at once, and every result is
then an array of the broadcast shape (a float for scalar fields).  The
denominator of the transmitted amplitude, 1 - A1*A2*exp(-2qd) with
A = (eps-1)/(eps+1), is exactly the induced-correlation denominator of
the coupled half-plane correlators, which is what this module certifies.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .units import _positive_fields, _real_fields


@dataclass(frozen=True)
class LayeredConfig:
    """Fixed-mode configuration: permittivities, gap d (nm) and transverse
    wavenumber q (nm^-1).  Fields may be real scalars, arrays or lists
    that broadcast together; each check applies to every element."""

    eps1: float
    eps2: float
    d_nm: float
    q_per_nm: float

    def __post_init__(self):
        _real_fields(self, "eps1", "eps2", array=True)
        _positive_fields(self, "d_nm", "q_per_nm", array=True)
        if np.any(self.eps1 == -1.0) or np.any(self.eps2 == -1.0):
            raise DomainError("eps = -1 is the surface-mode pole; the "
                              "boundary system is singular there")
        if np.any(self.eps1 == 0.0):
            raise DomainError("eps1 = 0: the charge's own potential "
                              "1/eps1 in half-plane 1 is infinite")


@dataclass(frozen=True)
class BoundarySolution:
    """Coefficients of the piecewise potential (see module docstring);
    arrays when the config's fields are."""

    b: float
    c: float
    c1: float
    d: float


def _plain(x):
    """A 0-d result as a Python float, an array result unchanged."""
    return float(x) if np.ndim(x) == 0 else x


def _amplitudes(cfg: LayeredConfig):
    a1 = (cfg.eps1 - 1.0) / (cfg.eps1 + 1.0)
    a2 = (cfg.eps2 - 1.0) / (cfg.eps2 + 1.0)
    return a1, a2


def solve_layers(cfg: LayeredConfig) -> BoundarySolution:
    """Closed-form boundary coefficients.

    D = 4 / ((eps1+1)(eps2+1)(1 - A1 A2 e^{-2qd}))
    C = (1 + eps2) D / 2
    C1 = (1 - eps2) D e^{-2qd} / 2
    B = A1/eps1 - ((eps2-1)/(eps1+1)) D e^{-2qd}
    """
    a1, a2 = _amplitudes(cfg)
    x = np.exp(-2.0 * cfg.q_per_nm * cfg.d_nm)
    denom = (cfg.eps1 + 1.0) * (cfg.eps2 + 1.0) * (1.0 - a1 * a2 * x)
    if np.any(denom == 0.0):
        raise DomainError("singular boundary system (coupled surface mode)")
    d_coef = 4.0 / denom
    c = 0.5 * (1.0 + cfg.eps2) * d_coef
    c1 = 0.5 * (1.0 - cfg.eps2) * d_coef * x
    b = a1 / cfg.eps1 - (cfg.eps2 - 1.0) / (cfg.eps1 + 1.0) * d_coef * x
    return BoundarySolution(b=_plain(b), c=_plain(c), c1=_plain(c1),
                            d=_plain(d_coef))


def boundary_residuals(cfg: LayeredConfig, sol: BoundarySolution) -> np.ndarray:
    """Relative residuals of the four matching conditions (each scaled by
    the magnitude of its largest term), along the last axis: shape (4,)
    for a scalar config, (..., 4) for an array one."""
    e1, e2 = cfg.eps1, cfg.eps2
    em = np.exp(-cfg.q_per_nm * cfg.d_nm)
    ep = np.exp(+cfg.q_per_nm * cfg.d_nm)
    lhs = np.stack([1.0 / e1 + sol.b, e1 * (1.0 / e1 - sol.b),
                    sol.c * em + sol.c1 * ep, sol.c * em - sol.c1 * ep], axis=-1)
    rhs = np.stack([sol.c + sol.c1, sol.c - sol.c1, sol.d * em,
                    e2 * sol.d * em], axis=-1)
    scale = np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1e-300)
    return np.abs(lhs - rhs) / scale


def denominator_check(cfg: LayeredConfig):
    """(denominator extracted from the solved D, direct formula value).

    Both are 1 - A1*A2*exp(-2qd); their agreement certifies that the
    solved transmission carries exactly the induced-correlation
    denominator of the coupled-plane correlators.
    """
    sol = solve_layers(cfg)
    a1, a2 = _amplitudes(cfg)
    from_d = 4.0 / ((cfg.eps1 + 1.0) * (cfg.eps2 + 1.0) * sol.d)
    direct = 1.0 - a1 * a2 * np.exp(-2.0 * cfg.q_per_nm * cfg.d_nm)
    return _plain(from_d), _plain(direct)
