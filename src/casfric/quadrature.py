"""Deterministic error-controlled integration engines.

Finite intervals use an adaptive Gauss-Kronrod 7/15 rule with worst-panel
bisection; the refinement order is a fixed function of the inputs, so
results are bit-identical run to run regardless of caller threading.
A semi-infinite integral is one integral of the same rule on [-1, L]:
the head [0, L] as it stands and the tail [L, inf) mapped onto [-1, 0),
so the tail error is measured like any other panel error and one
target and one subdivision budget hold for the whole integral.

The integrand is called once for all initial panels, then each time
the loop pops a panel whose halves are not yet known.  That call holds
its halves and those of the next panels on the heap that the loop is
certain to bisect before it could stop (look-ahead).  The loop still
pops, sums and pushes one panel at a time in worst-first order, so
value, error and convergence do not depend on the look-ahead.
``evaluations`` counts the points evaluated.  It exceeds the count of
panel-by-panel bisection only where a guess goes unused: a narrow peak
found late can raise the target past a panel already evaluated ahead.
So ``f`` receives one 1-D ndarray of 15*k abscissae per call, k varying
between calls, and must return an ndarray of the same shape whose every
entry depends only on the abscissa at its position (elementwise).

Independent integrals run in lockstep in ``integrate_many`` and
``integrate_semi_infinite_many``.  Each keeps its own bisection as
above; each round, one call ``f(x, job)`` evaluates the panels that all
unfinished integrals request, ``job`` holding the integer index of the
integral each abscissa belongs to.  That ``f`` must be elementwise in
both arguments: entry i of its result depends only on ``x[i]`` and
``job[i]``.  Every result is then ``==`` the one its integral gets
alone.  The panel rule sums each panel on its own, so its sums do not
depend on the panels evaluated with it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable

import numpy as np

from .errors import DomainError

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
        if not (self.abs_tol > 0.0 and self.rel_tol > 0.0):
            raise DomainError("quadrature tolerances must be > 0")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be >= 1")

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
    # vecdot sums each row as np.dot sums it alone; a matrix product would
    # sum in another order.  take() copies the Gauss columns in C order:
    # as a fancy index, Fortran-ordered, vecdot would sum them otherwise.
    # The rest is Python float arithmetic, so inf - inf is a silent nan
    # that flags the result.
    rows = y.reshape(-1, 15)
    k15 = np.vecdot(rows, _WGK).tolist()
    g7 = np.vecdot(rows.take(_GAUSS_IDX, axis=1), _WG).tolist()
    return [(h * k, abs(h * k - h * g))
            for h, k, g in zip(half.tolist(), k15, g7)]


# The look-ahead stops at panels whose error is below this share of the
# error of the panel being bisected.  Those lie many passes ahead, and by
# then the refinement may have found mass the coarse panels missed and
# raised the target past them.
_LOOK_AHEAD_SHARE = 1e-2
# It also stops after walking this many heap panels.  Panels queued by an
# earlier pass head the pop order and are walked again at each pass, so a
# longer walk costs more time than the calls it saves.
_LOOK_AHEAD_WALK = 16


def _pop_order(heap):
    """The items of ``heap`` in the order heappop would return them,
    without popping: a frontier heap walks the tree of ``heap`` from its
    root, so taking k items costs O(k log k) whatever the heap size."""
    frontier = [(heap[0], 0)] if heap else []
    while frontier:
        item, i = heapq.heappop(frontier)
        yield item
        for child in (2 * i + 1, 2 * i + 2):
            if child < len(heap):
                heapq.heappush(frontier, (heap[child], child))


def _certain_bisections(heap, pending, books, stuck_err, target, floor,
                        room):
    """Up to ``room`` panels among the first _LOOK_AHEAD_WALK of ``heap``
    that worst-first bisection is certain to split at ``target``, in pop
    order, with errors no smaller than ``floor`` and not already in
    ``pending``.

    ``books`` is the error the loop holds once the panel it bisects now
    is taken off.  Each later pop takes one error off and each bisection
    adds two, so while ``books`` less the errors popped before a panel
    stays above ``target``, the loop cannot stop before reaching it.
    Unsplittable panels are skipped, unless retiring them could end the
    loop first.
    """
    out = []
    stuck = stuck_err
    for _, _, lo, hi, _, err in islice(_pop_order(heap), _LOOK_AHEAD_WALK):
        if books <= target or err < floor or len(out) >= room:
            break
        if not lo < 0.5 * (lo + hi) < hi:
            stuck += err
            if stuck > target:
                break
        elif (lo, hi) not in pending:
            out.append((lo, hi))
        books -= err
    return out


def _edges(a, b, split_points):
    """Initial panel edges of [a, b]: a, the split points inside, b."""
    if not a < b:
        raise DomainError(f"require a < b, got a={a!r}, b={b!r}")
    edges = [a]
    for s in sorted(set(float(s) for s in split_points)):
        if a < s < b:
            edges.append(s)
    edges.append(b)
    return edges


def _bisection(edges, spec):
    """Worst-first bisection of one integral as a generator.

    It yields the panels it needs, as lists ``(lo, hi)`` of their edges,
    is sent their ``[(k15, err), ...]`` and returns its IntegralResult.
    The panels of one yield are the initial panels, then the halves of
    the panel it bisects and of those looked ahead.
    """
    heap = []
    counter = 0
    total = 0.0
    total_err = 0.0
    evals = 0
    pairs = yield edges[:-1], edges[1:]
    for lo, hi, (val, err) in zip(edges[:-1], edges[1:], pairs):
        evals += 15
        total += val
        total_err += err
        heapq.heappush(heap, (-err, counter, lo, hi, val, err))
        counter += 1

    n_panels = len(edges) - 1
    stuck_err = 0.0
    # Halves of panels evaluated ahead of their bisection, keyed by (lo, hi).
    halves = {}

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
        if (lo, hi) not in halves:
            room = spec.max_subdivisions - n_panels - 1 - len(halves)
            batch = [(lo, hi)] + _certain_bisections(
                heap, halves, total_err - err, stuck_err, spec.target(total),
                _LOOK_AHEAD_SHARE * err, room)
            half_lo, half_hi = [], []
            for p, q in batch:
                m = 0.5 * (p + q)
                half_lo += (p, m)
                half_hi += (m, q)
            pairs = yield half_lo, half_hi
            evals += 15 * len(pairs)
            for i, key in enumerate(batch):
                halves[key] = pairs[2 * i:2 * i + 2]
        (v1, e1), (v2, e2) = halves.pop((lo, hi))
        total += (v1 + v2) - val
        total_err += (e1 + e2) - err
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        counter += 1
        heapq.heappush(heap, (-e2, counter, mid, hi, v2, e2))
        counter += 1
        n_panels += 1

    converged = math.isfinite(total) and total_err <= spec.target(total)
    return IntegralResult(total, total_err, evals, converged)


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
    # Every H0 route runs here: one bisection drives f directly, without
    # the owner array and concatenation of integrate_many.
    run = _bisection(_edges(a, b, split_points), spec)
    try:
        lo, hi = next(run)
        while True:
            lo, hi = run.send(_panels(f, lo, hi))
    except StopIteration as done:
        return done.value


def integrate_many(f: Callable, jobs: Iterable[tuple],
                   spec: QuadratureSpec | None = None) -> list[IntegralResult]:
    """Adaptive integrals of ``f`` over many intervals, in lockstep.

    Each job is ``(a, b, split_points)``, integrated to ``spec``.  Each
    integral runs the bisection of :func:`integrate_finite`, and its
    result is ``==`` that of ``integrate_finite`` on the same arguments.
    Each round, ``f(x, job)`` is called once with the abscissae that all
    unfinished integrals request, ``job`` holding the index of the job
    each abscissa belongs to.  Every job is checked before the first
    call.
    """
    if spec is None:
        spec = default_spec()
    runs = [_bisection(_edges(a, b, split_points), spec)
            for a, b, split_points in jobs]
    results = [None] * len(runs)
    wanted = {i: next(run) for i, run in enumerate(runs)}
    while wanted:
        lo = [p for req, _ in wanted.values() for p in req]
        hi = [q for _, req in wanted.values() for q in req]
        counts = [len(req) for req, _ in wanted.values()]
        owner = np.repeat(np.fromiter(wanted, dtype=np.intp, count=len(counts)),
                          [15 * n for n in counts])
        pairs = _panels(lambda x: f(x, owner), lo, hi)
        start = 0
        for i, n in zip(list(wanted), counts):
            try:
                wanted[i] = runs[i].send(pairs[start:start + n])
            except StopIteration as done:
                results[i] = done.value
                del wanted[i]
            start += n
    return results


def integrate_semi_infinite(f: Callable, decay_scale: float,
                            spec: QuadratureSpec | None = None,
                            split_points: Iterable[float] = ()) -> IntegralResult:
    """Integral of ``f`` over [0, inf) for decaying integrands.

    One adaptive integral over [-1, L] with a split point at 0.  The head
    [0, L], L = max(10 ``decay_scale``, last split point), is integrated
    as it stands; the tail [L, inf) is mapped onto [-1, 0) by
    x = L - s*t/(1+t), s = ``decay_scale`` (QUADPACK's QAGI with t
    negated).  Split points <= 0 are dropped.  A tail that does not decay
    is flagged non-convergent: its bisection runs towards t = -1 until
    the budget runs out or the map turns non-finite.
    """
    return integrate_semi_infinite_many(lambda x, job: f(x),
                                        [(decay_scale, split_points)], spec)[0]


def integrate_semi_infinite_many(f: Callable, jobs: Iterable[tuple],
                                 spec: QuadratureSpec | None = None
                                 ) -> list[IntegralResult]:
    """Integrals over [0, inf) of ``f(x, job)``, in lockstep.

    Each job is ``(decay_scale, split_points)`` and is integrated as by
    :func:`integrate_semi_infinite`, to ``==`` the same result: each is
    one job of :func:`integrate_many`.  ``f`` is called under
    ``np.errstate(divide="ignore", invalid="ignore")``: a tail node may
    map to inf.
    """
    finite_jobs, scales = [], []
    for decay_scale, split_points in jobs:
        if not decay_scale > 0.0:
            raise DomainError("decay_scale must be > 0")
        # The map resolves x only to ulp(t)*s/(1+t)**2, too coarse for a
        # narrow feature far out, so split points stay in the head.
        splits = [10.0 * decay_scale] + [s for s in map(float, split_points)
                                         if s > 0.0]
        finite_jobs.append((-1.0, max(splits), [0.0] + splits))
        scales.append(decay_scale)
    scales = np.array(scales)
    ends = np.array([head_end for _, head_end, _ in finite_jobs])

    def mapped(t, job):
        # Nodes of tail panels bisected towards t = -1 can round to -1,
        # where the map is infinite: the non-finite value flags the result.
        tail = t < 0.0
        s = scales[job]
        with np.errstate(divide="ignore", invalid="ignore"):
            w = 1.0 / (1.0 + t)
            y = f(np.where(tail, ends[job] - s * t * w, t), job)
            return np.where(tail, s * w * w * y, y)

    return integrate_many(mapped, finite_jobs, spec)
