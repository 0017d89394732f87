"""Deterministic error-controlled integration engines.

Finite intervals use an adaptive Gauss-Kronrod 7/15 rule with worst-panel
bisection; the refinement order is a fixed function of the inputs, so
results are bit-identical run to run regardless of caller threading.
Semi-infinite integrals are handled by geometric segment doubling with a
tail extrapolation from the observed segment decay; thermal and
exponential-weight integrands converge in a handful of segments, while
power-law tails still shrink geometrically per doubling.

Integrands must be numpy-vectorized: ``f`` receives an ndarray of
abscissae and returns an ndarray of the same shape.
"""

from __future__ import annotations

import heapq
import math
import os
from dataclasses import dataclass
from typing import Callable, Iterable

import numpy as np

from .errors import ConfigError, DomainError

# 15-point Kronrod abscissae/weights on [-1, 1]; the embedded 7-point
# Gauss rule sits on the odd-index nodes.
_XGK = np.array([
    -0.9914553711208126, -0.9491079123427585, -0.8648644233597691,
    -0.7415311855993944, -0.5860872354676911, -0.4058451513773972,
    -0.2077849550078985, 0.0,
    0.2077849550078985, 0.4058451513773972, 0.5860872354676911,
    0.7415311855993944, 0.8648644233597691, 0.9491079123427585,
    0.9914553711208126,
])
_WGK = np.array([
    0.02293532201052922, 0.06309209262997855, 0.10479001032225018,
    0.14065325971552592, 0.16900472663926790, 0.19035057806478540,
    0.20443294007529889, 0.20948214108472783,
    0.20443294007529889, 0.19035057806478540, 0.16900472663926790,
    0.14065325971552592, 0.10479001032225018, 0.06309209262997855,
    0.02293532201052922,
])
_WG = np.array([
    0.12948496616886969, 0.27970539148927664, 0.38183005050511894,
    0.41795918367346939,
    0.38183005050511894, 0.27970539148927664, 0.12948496616886969,
])
_GAUSS_IDX = np.arange(1, 15, 2)

_ENV_TOL = "CASFRIC_QUAD_TOL"


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and effort budget for one integral."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 10_000

    def __post_init__(self):
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError("quadrature tolerances must be > 0")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")

    def target(self, value: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(value))


def default_spec() -> QuadratureSpec:
    """Default tolerances, honoring the CASFRIC_QUAD_TOL override.

    The environment variable, when set, is read as the relative
    tolerance; the absolute tolerance is set two decades tighter.  A
    value that is not a finite number > 0 is a configuration error.
    """
    env = os.environ.get(_ENV_TOL)
    if env is None:
        return QuadratureSpec()
    try:
        rel = float(env)
        if not (math.isfinite(rel) and rel > 0.0):
            raise ValueError(env)
        # DomainError is a ValueError too: the absolute tolerance of a
        # subnormal value underflows to 0.
        return QuadratureSpec(abs_tol=rel * 1e-2, rel_tol=rel)
    except ValueError:
        raise ConfigError([(_ENV_TOL, f"must be a finite number > 0, "
                                      f"got {env!r}")]) from None


@dataclass
class IntegralResult:
    """Value plus the bookkeeping every physics integral reports."""

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def _panel(f, a: float, b: float):
    """One G7/K15 evaluation on [a, b] -> (k15, |k15-g7|)."""
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    x = mid + half * _XGK
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise DomainError("integrand must return an array matching its input")
    k15 = half * float(np.dot(_WGK, y))
    g7 = half * float(np.dot(_WG, y[_GAUSS_IDX]))
    return k15, abs(k15 - g7)


def integrate_finite(f: Callable, a: float, b: float,
                     spec: QuadratureSpec | None = None,
                     split_points: Iterable[float] = ()) -> IntegralResult:
    """Adaptive integral of ``f`` over [a, b].

    Endpoints are never evaluated, so integrable endpoint singularities
    (1/sqrt(x) and friends) are admissible.  ``split_points`` seeds panel
    boundaries at known sharp features (peaks, resonances).

    Returns a flagged (converged=False) result rather than a silent wrong
    value when the subdivision budget is exhausted.
    """
    if spec is None:
        spec = default_spec()
    if not a < b:
        raise DomainError(f"require a < b, got a={a!r}, b={b!r}")

    edges = [a]
    for s in sorted(set(float(s) for s in split_points)):
        if a < s < b:
            edges.append(s)
    edges.append(b)

    heap = []
    counter = 0
    total = 0.0
    total_err = 0.0
    evals = 0
    for lo, hi in zip(edges[:-1], edges[1:]):
        val, err = _panel(f, lo, hi)
        evals += 15
        total += val
        total_err += err
        heapq.heappush(heap, (-err, counter, lo, hi, val, err))
        counter += 1

    n_panels = len(edges) - 1
    stuck_err = 0.0

    while total_err > spec.target(total) and n_panels < spec.max_subdivisions:
        if not heap:
            break
        neg_err, _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            # Panel no longer splittable in double precision; retire it
            # but keep its error on the books.
            stuck_err += err
            total_err = stuck_err + sum(item[5] for item in heap)
            if stuck_err > spec.target(total):
                break
            continue
        v1, e1 = _panel(f, lo, mid)
        v2, e2 = _panel(f, mid, hi)
        evals += 30
        total += (v1 + v2) - val
        total_err += (e1 + e2) - err
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2, e2))
        counter += 1
        n_panels += 1

    converged = math.isfinite(total) and total_err <= spec.target(total)
    return IntegralResult(total, total_err, evals, converged)


def integrate_semi_infinite(f: Callable, decay_scale: float,
                            spec: QuadratureSpec | None = None,
                            split_points: Iterable[float] = ()) -> IntegralResult:
    """Integral of ``f`` over [0, inf) for decaying integrands.

    ``decay_scale`` is the characteristic scale on which f falls off; the
    first segment spans ten such scales and subsequent segments double in
    width until their contribution is negligible.  The neglected tail is
    bounded by geometric extrapolation of the observed segment decay and
    folded into the error estimate; an integrand whose segments stop
    shrinking is flagged as non-convergent instead of silently truncated.
    """
    if spec is None:
        spec = default_spec()
    if not decay_scale > 0.0:
        raise DomainError("decay_scale must be > 0")

    splits = sorted(s for s in set(float(s) for s in split_points) if s > 0.0)
    seg_spec = QuadratureSpec(abs_tol=0.25 * spec.abs_tol,
                              rel_tol=0.25 * spec.rel_tol,
                              max_subdivisions=spec.max_subdivisions)

    total = 0.0
    total_err = 0.0
    evals = 0
    all_converged = True

    lo = 0.0
    width = 10.0 * decay_scale
    seg_values = []
    small_streak = 0
    tail_bound = math.inf
    max_segments = 48

    for _ in range(max_segments):
        hi = lo + width
        inner = [s for s in splits if lo < s < hi]
        res = integrate_finite(f, lo, hi, seg_spec, split_points=inner)
        evals += res.evaluations
        total += res.value
        total_err += res.error_estimate
        all_converged = all_converged and res.converged
        seg_values.append(res.value)

        target = spec.target(total)
        if abs(res.value) < 0.1 * target:
            small_streak += 1
        else:
            small_streak = 0
        if small_streak >= 2:
            # Tail bound from the observed geometric decay of segments.
            prev, last = seg_values[-2], seg_values[-1]
            ratio = abs(last) / abs(prev) if prev != 0.0 else 0.0
            ratio = min(ratio, 0.75)
            tail_bound = abs(last) * ratio / (1.0 - ratio)
            break
        lo = hi
        width *= 2.0
    else:
        return IntegralResult(total, total_err + abs(seg_values[-1]),
                              evals, False)

    total_err += tail_bound
    converged = all_converged and total_err <= spec.target(total)
    return IntegralResult(total, total_err, evals, converged)

