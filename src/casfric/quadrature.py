"""Deterministic error-controlled integration engines.

Finite intervals use an adaptive Gauss-Kronrod 7/15 rule with worst-panel
bisection; the refinement order is a fixed function of the inputs, so
results are bit-identical run to run regardless of caller threading.
Semi-infinite integrals are two calls of the same rule: a head interval
as it stands, and the tail mapped onto [0, 1), so the tail error is
measured like any other panel error.

Each pass of the rule is one integrand call: the first evaluates every
initial panel, each later one the two halves of the panel it bisects.
So ``f`` receives one 1-D ndarray of 15*k abscissae per call, k varying
between calls, and must return an ndarray of the same shape whose every
entry depends only on the abscissa at its position (elementwise).
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


def _panels(f, lo, hi):
    """G7/K15 on the panels [lo[i], hi[i]], all 15*len(lo) nodes in one
    call of ``f`` -> [(k15, |k15-g7|), ...] as Python floats."""
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    x = (mid[:, None] + half[:, None] * _XGK).ravel()
    y = np.asarray(f(x), dtype=float)
    if y.shape != x.shape:
        raise DomainError("integrand must return an array matching its input")
    # One dot per panel: a matrix product would sum in another order, and
    # a panel's sums would then depend on the panels evaluated with it.
    out = []
    for h, row in zip(half.tolist(), y.reshape(-1, 15)):
        k15 = h * float(np.dot(_WGK, row))
        g7 = h * float(np.dot(_WG, row[_GAUSS_IDX]))
        out.append((k15, abs(k15 - g7)))
    return out


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
    for lo, hi, (val, err) in zip(edges[:-1], edges[1:],
                                  _panels(f, edges[:-1], edges[1:])):
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
        (v1, e1), (v2, e2) = _panels(f, (lo, mid), (mid, hi))
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

    The head [0, L], L = max(10 ``decay_scale``, last split point), is
    integrated as it stands; the tail [L, inf) is mapped onto [0, 1) by
    x = L + s*t/(1-t), s = ``decay_scale`` (QUADPACK's QAGI).  Value, error
    and evaluations are the sums of the two.  A tail that does not decay is
    flagged non-convergent: its bisection runs towards t = 1 until the
    budget runs out or the map turns non-finite.
    """
    if spec is None:
        spec = default_spec()
    if not decay_scale > 0.0:
        raise DomainError("decay_scale must be > 0")

    # The map resolves x only to ulp(t)*s/(1-t)**2, too coarse for a narrow
    # feature far out, so split points stay in the head.
    splits = [10.0 * decay_scale] + [float(s) for s in split_points]
    head_end = max(splits)

    def tail(t):
        # Nodes of panels bisected towards t = 1 can round to 1, where the
        # map is infinite: the non-finite value flags the result.
        with np.errstate(divide="ignore", invalid="ignore"):
            w = 1.0 / (1.0 - t)
            return decay_scale * w * w * f(head_end + decay_scale * t * w)

    parts = (integrate_finite(f, 0.0, head_end, spec, split_points=splits),
             integrate_finite(tail, 0.0, 1.0, spec))
    total = sum(p.value for p in parts)
    total_err = sum(p.error_estimate for p in parts)
    converged = (all(p.converged for p in parts) and math.isfinite(total)
                 and total_err <= spec.target(total))
    return IntegralResult(total, total_err, sum(p.evaluations for p in parts),
                          converged)
