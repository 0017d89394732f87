"""Fixtures shared by the test modules."""

import math
import platform
from typing import NamedTuple

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from casfric import units
from casfric.dielectric import Drude, spectral_density
from casfric.quadrature import QuadratureSpec, integrate_finite

# numpy's x86-64 dispatch levels, highest first.
_X86_LEVELS = ("AVX512_SPR", "AVX512_ICL", "X86_V4", "X86_V3", "X86_V2")


@pytest.fixture(scope="session")
def dispatch_target():
    """The target a recorded bit pattern holds on: numpy's major.minor
    version, the machine, and on x86-64 the highest level numpy
    dispatches (None elsewhere).  On a CPU with AVX-512,
    NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4" lowers the
    level to X86_V3."""
    major, minor = np.__version__.split(".")[:2]
    level = next((name for name in _X86_LEVELS if __cpu_features__.get(name)),
                 None)
    return f"{major}.{minor}", platform.machine(), level


# Apery's constant, Li3(1).
ZETA3 = 1.2020569031595942


def _slope_and_cubic(model):
    """s and t of S(m) = s*m + t*m**3 + ... near m = 0.  A Drude surface
    spectrum (e**2/pi) gamma m / ((e**2 - m**2)**2 + (gamma m)**2),
    e**2 = e_p**2/2, gives them in closed form; a table is linear on its
    first segment, or 0 there if its grid starts above 0."""
    if isinstance(model, Drude):
        e2, gamma = 0.5 * model.plasma_energy_ev ** 2, model.damping_ev
        s = gamma / (math.pi * e2)
        return s, s * (2.0 * e2 - gamma * gamma) / e2 ** 2
    m, v = model.m_ev, model.values
    return (float(v[1] / m[1]) if m[0] == 0.0 else 0.0), 0.0


def _features(models):
    """Nodes of every table and the ladder e_sp + k*gamma, k = 0, +-1,
    +-3, of every Drude model: the points a tight quadrature splits at."""
    nodes = []
    for model in models:
        if isinstance(model, Drude):
            e, gamma = spectral_density(model).peak_hint, model.damping_ev
            nodes += [e + k * gamma for k in (-3, -1, 0, 1, 3)]
        else:
            nodes += model.m_ev.tolist()
    return [x for x in nodes if x > 0.0]


def _ln_m_quadrature(f, models, extra_splits=()):
    """Integral of f(m) dm over the common support of ``models`` as one
    integral in t = ln(m/hi), at QuadratureSpec(1e-300, 1e-13), split at their
    features and ``extra_splits``, with its relative error.  It runs to
    the lowest table top, or to 1e8 of the highest feature, past which a
    Drude integrand falls as m**-7 or faster; and from the highest first
    table node, or, where every density starts at m = 0, from lo = 1e-6
    of the lowest split, where f is constant to O(lo**2) (a table is
    linear on its first segment), so [0, lo] adds lo*f(lo)."""
    features = _features(models)
    nodes = features + list(extra_splits)
    tables = [model for model in models if not isinstance(model, Drude)]
    start = max([float(t.m_ev[0]) for t in tables] + [0.0])
    lo = start or 1e-6 * min(nodes)
    hi = min([float(t.m_ev[-1]) for t in tables] or [1e8 * max(features)])
    # t = ln(m/hi) stays small, so the rounding of a node in t moves m by
    # a few ulp only
    splits = [math.log(x / hi) for x in nodes if lo < x < hi]
    res = integrate_finite(lambda t: f(hi * np.exp(t)) * hi * np.exp(t),
                           math.log(lo / hi), 0.0,
                           QuadratureSpec(1e-300, 1e-13, 100_000),
                           split_points=splits)
    assert res.converged
    value = res.value + (0.0 if start else lo * float(f(np.array([lo]))[0]))
    return value, res.error_estimate / value


class OverlapLimits(NamedTuple):
    """The overlap H0 of two media (J s) and its limits; see
    ``overlap_limits``."""

    exact: float
    low_t: float
    keep_ratio: float
    classical: float
    small_support: float
    rel_err: float


def _overlap_limits(t_k, model1, model2):
    """H0 = (pi*beta*hbar/2) * integral of S1 S2/sinh(beta*m/2)**2 dm of
    two Drude or tabulated media, and its limits, with S = s*m + t*m**3
    + ... near m = 0 and A(0) = 2 * integral of S/m dm:

    * exact: 2 pi hbar k_B T * integral of S1 S2/m**2 * (x/sinh x)**2 dm,
      x = m/(2 k_B T), the same integral with the weight in [0, 1];
    * low_t: drop as T -> 0, (2 pi**3/3) hbar (k_B T)**2 s1 s2
      (1 + (4 pi**2/5) (k_B T)**2 (t1/s1 + t2/s2));
    * keep_ratio: keep/drop as T -> 0 for A1(0) = A2(0) = 1 (Drude
      pairs), Li3(1) = zeta(3);
    * classical: k_B T far above every feature, 2 pi hbar k_B T *
      integral of S1 S2/m**2 dm;
    * small_support: model1's support far below k_B T, where model2 is
      linear: pi hbar k_B T S2'(0) A1(0).

    The integrals are tight test-owned quadratures in ln m
    (``_ln_m_quadrature``); rel_err bounds the relative error of each."""
    kt = units.thermal_energy(t_k)
    pref = 2.0 * math.pi * units.HBAR_JS * kt
    d1, d2 = spectral_density(model1), spectral_density(model2)

    def weight(m):
        # (x/sinh x)**2 as (2x e^-x/(1 - e^-2x))**2, exact as x -> 0
        x = 0.5 * m / kt
        return (2.0 * x * np.exp(-x) / -np.expm1(-2.0 * x)) ** 2

    pair = (model1, model2)
    exact, exact_err = _ln_m_quadrature(
        lambda m: d1.value(m) / m * (d2.value(m) / m) * weight(m), pair,
        [kt * 2.0 ** k for k in range(-2, 7)])
    classical, classical_err = _ln_m_quadrature(
        lambda m: d1.value(m) / m * (d2.value(m) / m), pair)
    a1, a1_err = (1.0, 0.0) if isinstance(model1, Drude) else \
        _ln_m_quadrature(lambda m: 2.0 * d1.value(m) / m, (model1,))
    (s1, t1), (s2, t2) = _slope_and_cubic(model1), _slope_and_cubic(model2)
    low_t = (2.0 * math.pi ** 3 / 3.0) * units.HBAR_JS * kt * kt * s1 * s2 \
        * (1.0 + 0.8 * math.pi ** 2 * kt * kt * (t1 / s1 + t2 / s2)) \
        if s1 and s2 else 0.0
    return OverlapLimits(pref * exact, low_t, ZETA3, pref * classical,
                         0.5 * pref * s2 * a1,
                         max(exact_err, classical_err, a1_err, 1e-15))


@pytest.fixture(scope="session")
def overlap_limits():
    """``_overlap_limits``: the test-owned oracle of the overlap H0."""
    return _overlap_limits
