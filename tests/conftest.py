"""Fixtures shared by the test modules."""

import math
import platform
from typing import NamedTuple

import numpy as np
import pytest
from numpy._core._multiarray_umath import __cpu_features__

from casfric import units
from casfric.dielectric import Drude, spectral_density
from casfric.quadrature import (IntegralResult, QuadratureSpec,
                                integrate_finite)

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


def _curvature(model):
    """c of Re A(m) = A(0) + c*m**2 + ... on the retarded branch, as
    m -> 0.  A Drude model, A = e**2/(e**2 - m**2 + i gamma m), gives
    1/e**2 - gamma**2/e**4; a table the finite part of the integral of
    2 S/m**3, in closed form on each segment a + b*m, where a table
    starting at m = 0 (a = 0 there) gives -2 b/m_1 for its first.  It is
    not finite for a table whose nodes leave the float range."""
    if isinstance(model, Drude):
        e2, gamma = 0.5 * model.plasma_energy_ev ** 2, model.damping_ev
        return 1.0 / e2 - (gamma / e2) ** 2
    m, v = model.m_ev, model.values
    b = np.diff(v) / np.diff(m)
    a = v[:-1] - b * m[:-1]
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        inv_p, inv_q = 1.0 / m[:-1], 1.0 / m[1:]
        parts = a * (inv_p ** 2 - inv_q ** 2) + 2.0 * b * (inv_p - inv_q)
        if m[0] == 0.0:
            parts[0] = -2.0 * b[0] * inv_q[0]
        return float(np.sum(parts))


def _keep_low_t(kt, models, statics):
    """keep/drop as T -> 0, Li3(z0)/z0 at z0 = A1(0)*A2(0), and the
    relative (k_B T)**2 term after it.

    With A(m) = A(0) - i pi s m + c m**2 + ... for each medium, z = A1*A2
    has Re z = z0 + C m**2 and Im z = -pi B m, B = s1 A2(0) + s2 A1(0),
    C = c1 A2(0) + c2 A1(0) - pi**2 s1 s2.  Near the real axis,
    Im Li4(z)/Im z = L1(x) - (Im z)**2 L3(x)/6 + ..., x = Re z, with the
    derivatives of Li4: L1 = Li3/x, L2 = (Li2 - Li3)/x**2 and
    L3 = (Li1 - 3 Li2 + 2 Li3)/x**3.  So the screening is
    L1(z0) + (L2(z0) C - pi**2 B**2 L3(z0)/6) m**2 + ..., and the thermal
    weight of S1 S2 ~ s1 s2 m**2 averages m**2 to (4 pi**2/5) (k_B T)**2.
    Both are nan unless 0 < z0 <= 1 (keep raises past 1); at z0 = 1, Li1
    diverges and the term after the limit is not a power of T: inf."""
    mpmath = pytest.importorskip("mpmath")
    z0 = statics[0] * statics[1]
    if not 0.0 < z0 <= 1.0:
        return math.nan, math.nan
    (s1, _), (s2, _) = map(_slope_and_cubic, models)
    c1, c2 = map(_curvature, models)
    with mpmath.workdps(30):
        # in mpmath: the square of a steep slope can leave the float range
        s1, s2, c1, c2 = map(mpmath.mpf, (s1, s2, c1, c2))
        big_b = s1 * statics[1] + s2 * statics[0]
        big_c = c1 * statics[1] + c2 * statics[0] - mpmath.pi ** 2 * s1 * s2
        x = mpmath.mpf(z0)
        li2, li3 = mpmath.polylog(2, x), mpmath.polylog(3, x)
        ratio = li3 / x
        if z0 == 1.0:
            return float(ratio), math.inf
        second = (li2 - li3) / x ** 2
        third = (-mpmath.log(1 - x) - 3 * li2 + 2 * li3) / x ** 3
        term = (second * big_c - (mpmath.pi * big_b) ** 2 / 6 * third) \
            * 0.8 * mpmath.pi ** 2 * kt * kt / ratio
    return float(ratio), float(term)


def _split_quadrature(f, models, kt=None, spec=None, extra_splits=()):
    """Integral of f(m) dm by ``integrate_finite`` in m, at ``spec`` or
    else QuadratureSpec(1e-300, 1e-13, 100_000), over the common support
    of Drude or tabulated ``models``: from the highest first table node
    (or 0) to the lowest table top (or 1e8 of the highest Drude line,
    past which a Drude integrand falls as m**-4 or faster).  As QUADPACK's
    QAGP takes break points, it splits at every table node, at e_sp +-
    10^k * gamma, k = 0..6, of each Drude line, e_sp = e_p/sqrt(2), at
    k_B*T * 2^k, k = -2..6, at ``extra_splits``, and at every power of ten
    from the lower end (or the lowest of those points) to the upper.  It
    integrates f over its largest magnitude on those points, so that
    abs_tol reads in units of that peak, as in the route, and asserts
    that it converged: every check needs a converged oracle."""
    lines = [(model.plasma_energy_ev / math.sqrt(2.0), model.damping_ev)
             for model in models if isinstance(model, Drude)]
    tables = [model for model in models if not isinstance(model, Drude)]
    lo = max([float(t.m_ev[0]) for t in tables] + [0.0])
    hi = min([float(t.m_ev[-1]) for t in tables]
             or [1e8 * max(e for e, _ in lines)])
    points = [x for t in tables for x in t.m_ev.tolist()]
    points += [e + sign * 10.0 ** k * gamma for e, gamma in lines
               for k in range(7) for sign in (-1.0, 1.0)]
    points += [kt * 2.0 ** k for k in range(-2, 7)] if kt else []
    points = [x for x in (*points, *extra_splits) if lo < x < hi]
    low = lo or min(points, default=hi)
    points += [10.0 ** k for k in range(math.floor(math.log10(low)),
                                         math.ceil(math.log10(hi)))
               if lo < 10.0 ** k < hi]
    scale = float(np.max(np.abs(f(np.array(points))), initial=0.0)) or 1.0
    res = integrate_finite(lambda m: f(m) / scale, lo, hi,
                           spec or QuadratureSpec(1e-300, 1e-13, 100_000),
                           split_points=points)
    assert res.converged, res
    return IntegralResult(res.value * scale, res.error_estimate * scale,
                          res.evaluations, res.converged)


def _overlap_h0(t_k, model1, model2, spec=None, factor=None,
                extra_splits=()):
    """H0 = (pi*beta*hbar/2) * integral of S1 S2 factor/sinh(beta*m/2)**2
    dm of two Drude or tabulated media (factor 1 where None), as 2 pi hbar
    k_B T * integral of S1/m * S2/m * factor * (x/sinh x)**2 dm,
    x = m/(2 k_B T), a weight in [0, 1] at every T, by
    ``_split_quadrature`` -> an ``IntegralResult``."""
    kt = units.thermal_energy(t_k)
    pref = 2.0 * math.pi * units.HBAR_JS * kt
    d1, d2 = spectral_density(model1), spectral_density(model2)

    def integrand(m):
        # (x/sinh x)**2 as (2x e^-x/(1 - e^-2x))**2, exact as x -> 0
        x = 0.5 * m / kt
        out = pref * d1.value(m) / m * (d2.value(m) / m) \
            * (2.0 * x * np.exp(-x) / -np.expm1(-2.0 * x)) ** 2
        return out if factor is None else out * factor(m)

    return _split_quadrature(integrand, (model1, model2), kt, spec,
                             extra_splits)


def _static_response(model):
    """A(0) = 2 * integral of S/m dm of a damped Drude model or a table,
    by ``_split_quadrature``, with its relative error."""
    density = spectral_density(model)
    res = _split_quadrature(lambda m: 2.0 * density.value(m) / m, (model,))
    return res.value, res.error_estimate / res.value


class OverlapLimits(NamedTuple):
    """The overlap H0 of two media (J s) and its limits; see
    ``overlap_limits``."""

    exact: float
    low_t: float
    keep_ratio: float
    keep_next: float
    classical: float
    small_support: float
    rel_err: float
    keep_err: float


def _overlap_limits(t_k, model1, model2):
    """The overlap H0 of two Drude or tabulated media and its limits, with
    S = s*m + t*m**3 + ... near m = 0 and A(0) = 2 * integral of S/m dm:

    * exact: H0 itself, ``_overlap_h0``;
    * low_t: drop as T -> 0, (2 pi**3/3) hbar (k_B T)**2 s1 s2
      (1 + (4 pi**2/5) (k_B T)**2 (t1/s1 + t2/s2));
    * keep_ratio: keep/drop as T -> 0, Li3(z0)/z0 at z0 = A1(0)*A2(0),
      zeta(3) for a Drude pair, and keep_next the relative (k_B T)**2
      term after it (``_keep_low_t``); keep_err bounds the relative
      error of keep_ratio, which moves by at most 0.37 of the relative
      errors of A1(0) and A2(0) together;
    * classical: k_B T far above every feature, 2 pi hbar k_B T *
      integral of S1 S2/m**2 dm;
    * small_support: model1's support far below k_B T, where model2 is
      linear: pi hbar k_B T S2'(0) A1(0).

    The integrals run through ``_split_quadrature``; rel_err bounds the
    relative error of each."""
    kt = units.thermal_energy(t_k)
    pref = 2.0 * math.pi * units.HBAR_JS * kt
    d1, d2 = spectral_density(model1), spectral_density(model2)
    pair = (model1, model2)
    exact = _overlap_h0(t_k, model1, model2)
    classical = _split_quadrature(
        lambda m: pref * d1.value(m) / m * (d2.value(m) / m), pair)
    (a1, a1_err), (a2, a2_err) = (
        (1.0, 0.0) if isinstance(model, Drude) else _static_response(model)
        for model in pair)
    (s1, t1), (s2, t2) = _slope_and_cubic(model1), _slope_and_cubic(model2)
    low_t = (2.0 * math.pi ** 3 / 3.0) * units.HBAR_JS * kt * kt * s1 * s2 \
        * (1.0 + 0.8 * math.pi ** 2 * kt * kt * (t1 / s1 + t2 / s2)) \
        if s1 and s2 else 0.0
    keep_ratio, keep_next = _keep_low_t(kt, pair, (a1, a2))
    return OverlapLimits(exact.value, low_t, keep_ratio, keep_next,
                         classical.value, 0.5 * pref * s2 * a1,
                         max(exact.error_estimate / exact.value,
                             classical.error_estimate / classical.value,
                             a1_err, 1e-15),
                         max(a1_err, a2_err, 1e-15))


@pytest.fixture(scope="session")
def overlap_limits():
    """``_overlap_limits``: the test-owned oracle of the overlap H0."""
    return _overlap_limits


@pytest.fixture(scope="session")
def overlap_h0():
    """``_overlap_h0``: the test-owned oracle of the overlap H0."""
    return _overlap_h0


@pytest.fixture(scope="session")
def static_response_oracle():
    """``_static_response``: the test-owned oracle of A(0)."""
    return _static_response
