"""A deterministic error-controlled integration engine.

Finite intervals use an adaptive Gauss-Kronrod 7/15 rule with worst-panel
bisection; the refinement order is a fixed function of the inputs, so
results are bit-identical run to run regardless of caller threading.
A semi-infinite integral is one integral of the same rule on [-1, L]:
the head [0, L] as it stands and the tail [L, inf) mapped onto [-1, 0),
so the tail error is measured like any other panel error and one
target and one subdivision budget hold for the whole integral.

Bisection runs in passes.  Each pass sorts the panels worst first and
bisects the prefix that panel-by-panel worst-first bisection (QUADPACK's
rule) is certain to bisect before it could stop; the integrand is called
once for all initial panels, then once a pass for all halves.  An
integrand that needs other points evaluated beside the initial panels
(every overlap's tail point in ``friction.h0_overlap``) takes them in
that first call.
The result is that of panel-by-panel bisection but where a narrow peak,
found late, raises the target past a panel the same pass bisected, or
where the budget runs out first: ``evaluations``, the points evaluated,
is then no lower, and ``converged`` agrees.  So ``f`` receives one 1-D
ndarray of 15*k abscissae per call and must return an ndarray of the
same shape, elementwise.  A pass stops on the exactly rounded
(math.fsum) sums of value and error: once the error meets the target, a
sum is not finite or the budget is spent.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from operator import itemgetter, mul, sub
from typing import Callable, Iterable

import numpy as np

from .errors import DomainError
from .units import _formed, _positive, _positive_fields, _real, _whole

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


@dataclass(frozen=True)
class QuadratureSpec:
    """Tolerances and effort budget for one integral."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_subdivisions: int = 10_000

    def __post_init__(self):
        _positive_fields(self, "abs_tol", "rel_tol")
        object.__setattr__(self, "max_subdivisions",
                           _whole("max_subdivisions", self.max_subdivisions, 1))

    def target(self, value: float) -> float:
        return max(self.abs_tol, self.rel_tol * abs(value))


def default_spec() -> QuadratureSpec:
    """The tolerances of an integral called without a ``spec``."""
    return QuadratureSpec()


@dataclass
class IntegralResult:
    """Value plus the bookkeeping every physics integral reports."""

    value: float
    error_estimate: float
    evaluations: int
    converged: bool


def _panels(f, lo, hi):
    """G7/K15 on the panels [lo[i], hi[i]], their nodes mid + half*_XGK
    panel after panel in one call ``f(x)`` -> the panels as
    (|k15-g7|, lo, hi, k15), the rule's numbers Python floats."""
    # Python floats, rounded as numpy rounds: the rule below takes half.
    half = [0.5 * (q - p) for p, q in zip(lo, hi)]
    x = np.multiply.outer(half, _XGK)
    x += np.array([0.5 * (p + q) for p, q in zip(lo, hi)])[:, None]
    y = np.asarray(f(x.ravel()), dtype=float)
    if y.shape != (x.size,):
        raise DomainError("integrand must return an array matching its input")
    # vecdot sums each row as np.dot sums it alone; a matrix product would
    # sum in another order.  take() copies the Gauss columns in C order:
    # as a fancy index, Fortran-ordered, vecdot would sum them otherwise.
    # The rest is Python float arithmetic, so inf - inf is a silent nan
    # that flags the result.
    rows = y.reshape(-1, 15)
    k15 = list(map(mul, half, np.vecdot(rows, _WGK).tolist()))
    g7 = map(mul, half, np.vecdot(rows.take(_GAUSS_IDX, axis=1), _WG).tolist())
    return list(zip(map(abs, map(sub, k15, g7)), lo, hi, k15))


# A pass bisects no panel whose error is below this share of the worst.
# Such a panel lies many passes ahead, and by then the refinement may have
# found mass the coarse panels missed and raised the target past it.
_PASS_SHARE = 1e-2

_ERROR, _VALUE = itemgetter(0), itemgetter(3)


def _fsum(panels, field):
    """math.fsum of ``field`` of the panels, exactly rounded; the plain
    sum where fsum refuses (inf - inf, or an intermediate overflow)."""
    try:
        return math.fsum(map(field, panels))
    except (OverflowError, ValueError):
        return sum(map(field, panels))


def _edges(a, b, split_points):
    """Edges of the initial panels of [a, b], whose ends are finite real
    numbers (:func:`units._real`): a, inner split points, b."""
    if not (type(a) is type(b) is float and -math.inf < a < b < math.inf):
        try:
            a, b = _real("a", a), _real("b", b)
        except DomainError as exc:
            if math.inf in (abs(x) for x in (a, b) if isinstance(x, numbers.Real)):
                raise DomainError(f"{exc}; integrate_semi_infinite takes "
                                  "[0, inf)") from None
            raise
        if not a < b:
            raise DomainError(f"require a < b, got a={a!r}, b={b!r}")
    return [a, *sorted(s for s in set(_split_points(split_points))
                       if a < s < b), b]


def _split_points(points) -> list:
    """The finite split points as Python floats (:func:`units._real`); one
    that is not a real number is a DomainError naming split_points."""
    out = []
    for s in points:
        try:
            out.append(s if type(s) is float and abs(s) < math.inf
                       else _real("split_points", s))
        except DomainError:
            if not isinstance(s, numbers.Real) or isinstance(s, bool):
                raise
    return out


def _bisect(live, retired, spec):
    """One pass of worst-first bisection of one integral -> the lower and
    upper ends of the halves of the panels it takes off ``live`` (empty
    once done), and the sums of value and error it found before them.

    The pass sorts ``live`` worst first, oldest first among equal errors,
    and takes the prefix that panel-by-panel bisection is certain to
    split.  Each bisection takes one error off the books and adds two, so
    while the error less the errors sorted before a panel stays above the
    target, that bisection cannot stop before reaching it, unless the
    target moves.  The prefix also ends at the budget, below _PASS_SHARE
    of the worst error and at a panel too narrow to bisect.  A worst
    panel too narrow to bisect is retired, its value and error kept on
    the books.
    """
    while True:
        panels = live + retired if retired else live
        total = _fsum(panels, _VALUE)
        error = _fsum(panels, _ERROR)
        target = spec.target(total)
        room = spec.max_subdivisions - len(panels)
        if not (error > target and room > 0
                and math.isfinite(total) and math.isfinite(error)):
            return [], [], total, error
        live.sort(key=_ERROR, reverse=True)
        floor = _PASS_SHARE * live[0][0]
        lo, hi, books = [], [], error
        for err, p, q, _ in live:
            mid = 0.5 * (p + q)
            if (len(lo) == 2 * room or books <= target or err < floor
                    or not p < mid < q):
                break
            lo += (p, mid)
            hi += (mid, q)
            books -= err
        if lo:
            del live[:len(lo) // 2]
            return lo, hi, total, error
        retired.append(live.pop(0))
        if _fsum(retired, _ERROR) > target:
            return [], [], total, error


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
    spec = spec or default_spec()
    edges = _edges(a, b, split_points)
    lo, hi = edges[:-1], edges[1:]
    live, retired, evals = [], [], 0
    while lo:
        live += _panels(f, lo, hi)
        evals += 15 * len(lo)
        lo, hi, total, error = _bisect(live, retired, spec)
    return IntegralResult(total, error, evals,
                          math.isfinite(total) and error <= spec.target(total))


def integrate_semi_infinite(f: Callable, decay_scale: float,
                            spec: QuadratureSpec | None = None,
                            split_points: Iterable[float] = ()) -> IntegralResult:
    """Integral of ``f`` over [0, inf) for decaying integrands.

    One adaptive integral over [-1, L] with a split point at 0.  The head
    [0, L], L = max(10 ``decay_scale``, last split point), is integrated
    as it stands; the tail [L, inf) is mapped onto [-1, 0) by
    x = L - s*t/(1+t), s = ``decay_scale`` (QUADPACK's QAGI with t
    negated).  Split points <= 0 or not finite are dropped.  A tail that
    does not decay is flagged non-convergent: its bisection runs towards
    t = -1 until the budget runs out or the map turns non-finite.

    The head must hold the integrand's mass: else no node may land near
    it, and exp(-x) at ``decay_scale`` 1e6 gives 0 +- 0, converged.
    ``f`` is called under ``np.errstate(over="ignore", divide="ignore",
    invalid="ignore")``: a tail node may map to inf, and ``f`` may
    overflow there.
    """
    decay_scale = _positive("decay_scale", decay_scale)
    # The map resolves x only to ulp(t)*s/(1+t)**2, too coarse for a
    # narrow feature far out, so split points stay in the head.
    splits = [_formed("10*decay_scale", lambda: 10.0 * decay_scale)] + [
        s for s in _split_points(split_points) if s > 0.0]
    head_end = max(splits)

    def mapped(t):
        # Nodes of tail panels bisected towards t = -1 can round to -1,
        # where the map is infinite: the non-finite value flags the result.
        tail = t < 0.0
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            w = 1.0 / (1.0 + t)
            y = f(np.where(tail, head_end - decay_scale * t * w, t))
            return np.where(tail, decay_scale * w * w * y, y)

    return integrate_finite(mapped, -1.0, head_end, spec, [0.0] + splits)
