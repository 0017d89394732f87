import dataclasses
import heapq
import math
import warnings

import numpy as np
import pytest

from casfric.errors import DomainError
from casfric.quadrature import (_GAUSS_IDX, _WG, _WGK, _XGK, IntegralResult,
                                QuadratureSpec, _panels, default_spec,
                                integrate_finite, integrate_many,
                                integrate_semi_infinite,
                                integrate_semi_infinite_many)

TIGHT = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10)


def panel_by_panel(f, a, b, spec, split_points=()):
    """Oracle of the batched engine: the same G7/K15 rule and worst-first
    bisection with one integrand call per panel and no look-ahead, as
    the engine was written before it evaluated several panels a call."""

    def panel(lo, hi):
        half = 0.5 * (hi - lo)
        mid = 0.5 * (lo + hi)
        y = np.asarray(f(mid + half * _XGK), dtype=float)
        k15 = half * float(np.dot(_WGK, y))
        g7 = half * float(np.dot(_WG, y[_GAUSS_IDX]))
        return k15, abs(k15 - g7)

    edges = [a] + sorted(s for s in set(map(float, split_points))
                         if a < s < b) + [b]
    heap, total, total_err, evals = [], 0.0, 0.0, 0
    for counter, (lo, hi) in enumerate(zip(edges[:-1], edges[1:])):
        val, err = panel(lo, hi)
        evals += 15
        total += val
        total_err += err
        heapq.heappush(heap, (-err, counter, lo, hi, val, err))
    counter = len(heap)
    n_panels = len(heap)
    stuck_err = 0.0
    while total_err > spec.target(total) and n_panels < spec.max_subdivisions:
        if not heap:
            break
        _, _, lo, hi, val, err = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if not (lo < mid < hi):
            stuck_err += err
            total_err = stuck_err + sum(item[5] for item in heap)
            if stuck_err > spec.target(total):
                break
            continue
        v1, e1 = panel(lo, mid)
        v2, e2 = panel(mid, hi)
        evals += 30
        total += (v1 + v2) - val
        total_err += (e1 + e2) - err
        heapq.heappush(heap, (-e1, counter, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, counter + 1, mid, hi, v2, e2))
        counter += 2
        n_panels += 1
    converged = math.isfinite(total) and total_err <= spec.target(total)
    return IntegralResult(total, total_err, evals, converged)


def fields(res):
    """Type and exact spelling of every field; nan-safe, unlike ==."""
    return [(type(v), repr(v)) for v in dataclasses.astuple(res)]


def assert_plain(res):
    """Every IntegralResult field is a plain Python scalar, so results
    serialize with json and compare without numpy."""
    assert [type(v) for v in dataclasses.astuple(res)] == [float, float, int,
                                                           bool]


def lorentz(center, width):
    def f(x):
        return width / ((x - center) ** 2 + width ** 2) / math.pi
    return f


def inverse_abs(x):
    with np.errstate(divide="ignore"):
        return 1.0 / np.abs(x)


# (integrand, a, b, spec, split points): the engine must reproduce the
# oracle field for field on each.
ORACLE_CASES = {
    "polynomial": (lambda x: x ** 3 - 2.0 * x, 0.0, 2.0, TIGHT, ()),
    "sharp-peak-split": (lorentz(0.3333, 1e-7), 0.0, 1.0, TIGHT, (0.3333,)),
    "many-bisections": (lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)), 0.0, 1.0,
                        QuadratureSpec(abs_tol=1e-14, rel_tol=1e-14), ()),
    "budget-exhausted": (lambda x: np.exp(np.sin(5.0 * x)), 0.0, 4.0,
                         QuadratureSpec(abs_tol=1e-16, rel_tol=1e-16,
                                        max_subdivisions=3), ()),
    "non-finite": (inverse_abs, -1.0, 1.0, TIGHT, ()),
    # A line on a bisection edge at rel_tol 1e-12: the running error sum
    # drifts from the sum of the panel errors by rounding, and the
    # look-ahead must follow the running sum.
    "peak-on-an-edge": (lambda x: np.exp(-x) + 1e-6 / ((x - 0.25) ** 2
                                                      + 1e-12),
                        0.0, 1.0, QuadratureSpec(abs_tol=1e-300,
                                                 rel_tol=1e-12), ()),
}


class TestFinite:
    def test_polynomial_exact(self):
        res = integrate_finite(lambda x: x, 0.0, 1.0)
        assert res.converged
        assert res.value == pytest.approx(0.5, abs=1e-14)

    def test_sine(self):
        res = integrate_finite(np.sin, 0.0, math.pi)
        assert res.converged
        assert res.value == pytest.approx(2.0, abs=1e-12)

    def test_inverse_sqrt_endpoint_singularity(self):
        # oracle: antiderivative 2*sqrt(x) -> exactly 2 on [0, 1]
        res = integrate_finite(lambda x: 1.0 / np.sqrt(x), 0.0, 1.0,
                               QuadratureSpec(abs_tol=1e-11, rel_tol=1e-9))
        assert res.converged
        assert abs(res.value - 2.0) < 1e-8

    def test_error_estimate_is_honest(self):
        res = integrate_finite(lambda x: np.exp(-x * x), -3.0, 3.0, TIGHT)
        exact = math.sqrt(math.pi) * math.erf(3.0)
        assert abs(res.value - exact) <= max(res.error_estimate, 1e-13)

    def test_flagged_nonconvergence(self):
        # 1/x is not integrable across 0; must flag, not lie
        def f(x):
            with np.errstate(divide="ignore"):
                return 1.0 / np.abs(x)

        res = integrate_finite(f, -1.0, 1.0,
                               QuadratureSpec(abs_tol=1e-10, rel_tol=1e-10,
                                              max_subdivisions=200))
        assert not res.converged

    def test_infinite_total_not_converged(self):
        res = integrate_finite(lambda x: np.full_like(x, np.inf), 0.0, 1.0)
        assert not res.converged

    def test_bad_interval(self):
        with pytest.raises(DomainError):
            integrate_finite(np.sin, 1.0, 0.0)

    def test_split_points_help_sharp_peak(self):
        width = 1e-7
        center = 0.3333

        def peak(x):
            return width / ((x - center) ** 2 + width ** 2) / math.pi

        res = integrate_finite(peak, 0.0, 1.0, TIGHT, split_points=[center])
        exact = (math.atan((1 - center) / width) + math.atan(center / width)) / math.pi
        assert res.converged
        assert res.value == pytest.approx(exact, rel=1e-9)

    def test_determinism(self):
        def f(x):
            return np.sin(3.0 * x) / (1.0 + x * x)

        a = integrate_finite(f, 0.0, 7.0, TIGHT)
        b = integrate_finite(f, 0.0, 7.0, TIGHT)
        assert a.value == b.value
        assert a.error_estimate == b.error_estimate
        assert a.evaluations == b.evaluations

    def test_refinement_monotone_error(self):
        spec = lambda n: QuadratureSpec(abs_tol=1e-16, rel_tol=1e-16,
                                        max_subdivisions=n)
        errs = [integrate_finite(lambda x: np.exp(np.sin(5 * x)), 0.0, 4.0,
                                 spec(n)).error_estimate
                for n in (1, 2, 4, 8, 16, 32)]
        assert all(e2 <= e1 * (1 + 1e-12) for e1, e2 in zip(errs, errs[1:]))


class TestBatchedPasses:
    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_matches_panel_by_panel_oracle(self, case):
        f, a, b, spec, splits = ORACLE_CASES[case]
        res = integrate_finite(f, a, b, spec, split_points=splits)
        assert fields(res) == fields(panel_by_panel(f, a, b, spec, splits))
        assert_plain(res)

    def test_oracle_cases_reach_their_regime(self):
        runs = {case: integrate_finite(f, a, b, spec, split_points=splits)
                for case, (f, a, b, spec, splits) in ORACLE_CASES.items()}
        assert runs["polynomial"].evaluations == 15
        assert runs["sharp-peak-split"].converged
        assert runs["many-bisections"].evaluations > 30 * 40
        assert runs["peak-on-an-edge"].converged
        assert runs["budget-exhausted"].evaluations == 15 + 2 * 30
        assert not runs["budget-exhausted"].converged
        assert not runs["non-finite"].converged
        assert math.isnan(runs["non-finite"].error_estimate)

    # Panels per integrand call: the initial panels, then each pass the
    # panel bisected together with the panels looked ahead.
    PANELS_PER_CALL = {
        "polynomial": [1],
        "sharp-peak-split": [2, 2] + [1] * 19 + [2] + [1] * 20 + [2],
        "many-bisections": [1] + [1] * 11 + [2] * 6 + [3] * 6 + [1] * 4,
        "budget-exhausted": [1, 1, 1],
        "non-finite": [1],
        "peak-on-an-edge": ([1, 1, 1, 2] + [1] * 14 + [2] + [1] * 13
                            + [2, 1, 2, 12, 4]),
    }

    @pytest.mark.parametrize("case", sorted(ORACLE_CASES))
    def test_calls_per_pass(self, case):
        f, a, b, spec, splits = ORACLE_CASES[case]
        sizes = []

        def counted(x):
            sizes.append(x.shape)
            return f(x)

        res = integrate_finite(counted, a, b, spec, split_points=splits)
        first, *rest = self.PANELS_PER_CALL[case]
        assert sizes == [(15 * first,)] + [(30 * k,) for k in rest]
        assert first == 1 + len(splits)
        assert res.evaluations == sum(n for n, in sizes)
        bisections = (res.evaluations - 15 * first) // 30
        if case == "many-bisections":
            assert len(rest) < bisections
        else:
            assert len(rest) <= bisections

    @pytest.mark.parametrize("bad", [lambda x: 1.0, lambda x: x[:-1]],
                             ids=["scalar", "wrong-length"])
    def test_integrand_must_match_its_input(self, bad):
        with pytest.raises(DomainError, match="matching its input"):
            integrate_finite(bad, 0.0, 1.0)

    def test_plain_types_from_numpy_endpoints(self):
        assert_plain(integrate_finite(np.sin, np.float64(0.0),
                                      np.float64(math.pi)))
        assert_plain(integrate_semi_infinite(lambda x: np.exp(-x),
                                             np.float64(1.0)))
        assert_plain(integrate_semi_infinite(lambda x: 1.0 / (1.0 + x), 1.0,
                                             QuadratureSpec(
                                                 max_subdivisions=50)))


def by_job(integrands):
    """One integrand ``f(x, job)`` that hands each job's abscissae to its
    own integrand of ``integrands``."""
    def f(x, job):
        out = np.empty_like(x)
        for j in np.unique(job).tolist():
            out[job == j] = integrands[j](x[job == j])
        return out
    return f


class TestLockstep:
    """Many integrals in lockstep: one integrand call per round, each
    integral as ``integrate_finite`` computes it alone."""

    CASES = sorted(ORACLE_CASES)

    def batches(self):
        """The cases grouped by spec, in order: one batch per spec."""
        groups = {}
        for case in self.CASES:
            groups.setdefault(ORACLE_CASES[case][3], []).append(case)
        return groups.items()

    @staticmethod
    def batch(f, spec, cases):
        return integrate_many(f, [(a, b, splits) for _, a, b, _, splits
                                  in map(ORACLE_CASES.get, cases)], spec)

    def test_matches_solo_and_panel_by_panel(self):
        assert max(len(cases) for _, cases in self.batches()) > 1
        for spec, cases in self.batches():
            fs = [ORACLE_CASES[c][0] for c in cases]
            for case, res in zip(cases, self.batch(by_job(fs), spec, cases)):
                f, a, b, _, splits = ORACLE_CASES[case]
                solo = integrate_finite(f, a, b, spec, split_points=splits)
                assert fields(res) == fields(solo), case
                assert fields(res) == fields(panel_by_panel(f, a, b, spec,
                                                            splits))
                assert_plain(res)

    def test_one_call_per_round(self):
        # Round r holds, of each integral still running, the panels of
        # its r-th call when integrated alone.
        for spec, cases in self.batches():
            solo = [TestBatchedPasses.PANELS_PER_CALL[c] for c in cases]
            f = by_job([ORACLE_CASES[c][0] for c in cases])
            rounds = []

            def counted(x, job):
                rounds.append(np.bincount(job, minlength=len(cases)))
                return f(x, job)

            self.batch(counted, spec, cases)
            assert len(rounds) == max(len(calls) for calls in solo)
            for j, (case, (first, *rest)) in enumerate(zip(cases, solo)):
                got = [int(r[j]) for r in rounds]
                want = [15 * first] + [30 * k for k in rest]
                assert got == want + [0] * (len(rounds) - len(want)), case

    @pytest.mark.parametrize("bad", [(1.0, 1.0, ()), (1.0, 0.0, ()),
                                     (0.0, math.nan, ())],
                             ids=["empty", "reversed", "nan"])
    def test_bad_job_raises_before_any_call(self, bad):
        calls = []
        with pytest.raises(DomainError, match="require a < b"):
            integrate_many(lambda x, job: calls.append(x) or x,
                           [(0.0, 1.0, ()), bad])
        assert calls == []

    def test_no_jobs(self):
        assert integrate_many(lambda x, job: x, []) == []

    def test_semi_infinite_batch_matches_solo(self):
        # decaying, power-law and non-decaying tails, and a line behind a
        # split point, in one batch
        width = 1e-6
        cases = [
            (lambda x: np.exp(-x), 1.0, ()),
            (lambda x: 1.0 / (1.0 + x) ** 4, 2.0, ()),
            (lambda x: 1.0 / (1.0 + x), 1.0, ()),
            (np.ones_like, 1.0, ()),
            (lambda x: np.exp(-x) + width / ((x - 50.0) ** 2 + width ** 2),
             1.0, (50.0,)),
        ]
        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10,
                              max_subdivisions=2000)
        calls = []

        def f(x, job):
            calls.append(x.size)
            return by_job([c[0] for c in cases])(x, job)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            batch = integrate_semi_infinite_many(
                f, [(scale, splits) for _, scale, splits in cases], spec)
        for (g, scale, splits), res in zip(cases, batch):
            solo = integrate_semi_infinite(g, scale, spec, split_points=splits)
            assert fields(res) == fields(solo)
        assert sum(calls) == sum(res.evaluations for res in batch)
        assert [res.converged for res in batch] == [True, True, False, False,
                                                    True]

    def test_semi_infinite_bad_scale_raises_before_any_call(self):
        calls = []
        with pytest.raises(DomainError, match="decay_scale"):
            integrate_semi_infinite_many(
                lambda x, job: calls.append(x) or x, [(1.0, ()), (0.0, ())])
        assert calls == []


def test_panels_match_per_row_dot():
    # The rule sums each panel's row as np.dot sums it alone, whatever
    # the number of rows evaluated with it.  Rows with inf on a Gauss
    # node (k15 = g7 = inf: a silent nan error), -inf on a Kronrod node
    # and nan are among them.
    rng = np.random.default_rng(5)
    for n in range(1, 65):
        rows = (rng.standard_normal((n, 15))
                * 10.0 ** rng.uniform(-3.0, 3.0, (n, 15)))
        specials = ((1, np.inf), (0, -np.inf), (7, np.nan))
        for row, kind in zip(rows, rng.integers(0, 6, n)):
            if kind < len(specials):
                row[specials[kind][0]] = specials[kind][1]
        lo = np.sort(rng.uniform(-5.0, 5.0, n))
        hi = lo + 10.0 ** rng.uniform(-6.0, 1.0, n)
        expected = []
        for p, q, row in zip(lo.tolist(), hi.tolist(), rows):
            h = 0.5 * (q - p)
            k15 = h * float(np.dot(_WGK, row))
            g7 = h * float(np.dot(_WG, row[_GAUSS_IDX]))
            expected.append((k15, abs(k15 - g7)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _panels(lambda x: rows.ravel(), lo, hi)
        assert repr(got) == repr(expected), n


def peaked(rng, log_widths=(-5.0, -1.0), log_heights=(-2.0, 2.0)):
    """exp(-x) plus one to three Lorentzian peaks in [0, 1] of seeded
    widths and heights, log-uniform over the given decades."""
    n = int(rng.integers(1, 4))
    centres = rng.uniform(0.0, 1.0, n)
    widths = 10.0 ** rng.uniform(*log_widths, n)
    heights = 10.0 ** rng.uniform(*log_heights, n)

    def f(x):
        out = np.exp(-x)
        for c, w, h in zip(centres, widths, heights):
            out = out + h * w / ((x - c) ** 2 + w * w)
        return out
    return f


def peaked_cases(seed, count, **ranges):
    """``count`` seeded (integrand, spec, split points) on [0, 1], with
    up to three random split points and rel_tol 1e-12 to 1e-6."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        f = peaked(rng, **ranges)
        splits = tuple(rng.uniform(0.0, 1.0, int(rng.integers(0, 4))))
        spec = QuadratureSpec(abs_tol=1e-300,
                              rel_tol=10.0 ** rng.uniform(-12.0, -6.0))
        yield f, spec, splits


class TestLookAhead:
    def test_peaked_integrands_match_oracle(self):
        for f, spec, splits in peaked_cases(11, 200):
            res = integrate_finite(f, 0.0, 1.0, spec, split_points=splits)
            assert fields(res) == fields(panel_by_panel(f, 0.0, 1.0, spec,
                                                        splits))

    def test_hidden_peaks_cost_points_not_results(self):
        # A peak 1e-8 wide can hide between the nodes of the coarse panels.
        # Once found, its mass raises the target, and a panel looked ahead
        # may then never be bisected: its halves are counted, never summed.
        wasted = 0
        for f, spec, splits in peaked_cases(4, 200, log_widths=(-8.0, -0.5),
                                            log_heights=(-4.0, 4.0)):
            points = []

            def counted(x):
                points.append(x.size)
                return f(x)

            res = integrate_finite(counted, 0.0, 1.0, spec, split_points=splits)
            oracle = panel_by_panel(f, 0.0, 1.0, spec, splits)
            assert fields(res)[:2] + fields(res)[3:] == \
                fields(oracle)[:2] + fields(oracle)[3:]
            assert res.evaluations == sum(points) >= oracle.evaluations
            wasted += res.evaluations > oracle.evaluations
        assert wasted > 0


ONE_UP = math.nextafter(1.0, 2.0)


class TestStuckPanel:
    """A panel one ulp wide cannot be bisected: the engine retires it
    with its error kept on the books."""

    def test_lone_stuck_panel_ends_the_loop(self):
        f = lambda x: np.where(x < 1.0, 1e10, 0.0)  # noqa: E731
        res = integrate_finite(f, 1.0, ONE_UP)
        assert (res.converged, res.evaluations) == (False, 15)
        assert fields(res) == fields(panel_by_panel(f, 1.0, ONE_UP,
                                                    default_spec()))

    @pytest.mark.parametrize("height, converged", [(5e4, True), (1e5, False)],
                             ids=["retired", "ends-the-loop"])
    def test_never_looked_ahead(self, height, converged):
        # A cusp at 0.37 drives the bisections; the step at 1 makes the
        # panel [1, ONE_UP] carry an error of about 1e-17 * height, below
        # the target 1e-12 ("retired", the loop goes on) or above it
        # ("ends-the-loop").  Either way it sits among the panels the
        # look-ahead scans and is never evaluated after the first call.
        def f(x):
            return np.sqrt(np.abs(x - 0.37)) + np.where(x < 1.0, height, 0.0)

        spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-300)
        calls = []

        def counted(x):
            calls.append(x)
            return f(x)

        res = integrate_finite(counted, 0.0, 2.0, spec,
                               split_points=(1.0, ONE_UP))
        assert res.converged is converged
        assert fields(res) == fields(panel_by_panel(f, 0.0, 2.0, spec,
                                                    (1.0, ONE_UP)))
        assert not any(np.any((x >= 1.0) & (x <= ONE_UP)) for x in calls[1:])


class TestSemiInfinite:
    def test_cubic_exponential(self):
        res = integrate_semi_infinite(lambda u: u ** 3 * np.exp(-2.0 * u), 0.5)
        assert res.converged
        assert res.value == pytest.approx(3.0 / 8.0, abs=1e-10)

    def test_thermal_kernel(self):
        def f(x):
            x = np.asarray(x, dtype=float)
            ex = np.exp(-x)
            return x * x * ex / (1.0 - ex) ** 2

        res = integrate_semi_infinite(f, 1.0, TIGHT)
        assert res.converged
        assert abs(res.value - math.pi ** 2 / 3.0) < 1e-8

    def test_unit_exponential(self):
        res = integrate_semi_infinite(lambda x: np.exp(-x), 1.0)
        assert res.converged
        assert res.value == pytest.approx(1.0, abs=1e-10)

    def test_power_law_tail(self):
        # the mapped tail of a 1/x^4 decay vanishes smoothly at t = 1
        res = integrate_semi_infinite(lambda x: 1.0 / (1.0 + x) ** 4, 1.0, TIGHT)
        assert res.converged
        assert res.value == pytest.approx(1.0 / 3.0, rel=1e-9)

    def test_nondecaying_flagged(self):
        res = integrate_semi_infinite(lambda x: 1.0 / (1.0 + x), 1.0,
                                      QuadratureSpec(abs_tol=1e-8, rel_tol=1e-8,
                                                     max_subdivisions=2000))
        assert not res.converged

    def test_slow_power_law_tail(self):
        # 1/x^2 decay: the mapped tail is a smooth rational function of t
        res = integrate_semi_infinite(lambda x: 1.0 / (1.0 + x) ** 2, 1.0,
                                      QuadratureSpec(abs_tol=1e-14,
                                                     rel_tol=1e-13))
        assert res.converged
        assert abs(res.value - 1.0) < 1e-12

    @pytest.mark.parametrize("center", [50.0, 10.0],
                             ids=["beyond-head", "at-head-end"])
    def test_narrow_line_behind_split_point(self, center):
        # a 1e-6 wide line at 50 decay scales, where without the split the
        # subdivision budget runs out, and at 10, the default end of the head
        width = 1e-6

        def f(x):
            return np.exp(-x) + width / ((x - center) ** 2 + width ** 2) / math.pi

        exact = 1.0 + (0.5 + math.atan(center / width) / math.pi)
        res = integrate_semi_infinite(f, 1.0, TIGHT, split_points=[center])
        assert res.converged
        assert abs(res.value - exact) <= res.error_estimate

    def test_nondecaying_flagged_without_warning(self):
        for f in (np.ones_like, lambda x: 1.0 / np.sqrt(1.0 + x)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                res = integrate_semi_infinite(f, 1.0)
            assert not res.converged



def closed_form_cases(seed, count):
    """``count`` seeded (integrand, exact integral over [0, inf), decay
    scale, split points, spec): c*exp(-a*x), (b + x)**-k and
    x**n * exp(-a*x) in turn, each with a decay scale off its natural one
    by up to ten times either way, up to two split points in the first
    20 decay scales and rel_tol 1e-12 to 1e-6."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        if i % 3 == 0:
            c, a = 10.0 ** rng.uniform(-3.0, 3.0, 2)
            f = lambda x, c=c, a=a: c * np.exp(-a * x)  # noqa: E731
            exact, scale = c / a, 1.0 / a
        elif i % 3 == 1:
            b, k = 10.0 ** rng.uniform(-1.0, 1.0), int(rng.integers(2, 7))
            f = lambda x, b=b, k=k: (b + x) ** -k  # noqa: E731
            exact, scale = b ** (1 - k) / (k - 1), b
        else:
            n, a = int(rng.integers(1, 6)), 10.0 ** rng.uniform(-1.0, 1.0)
            f = lambda x, n=n, a=a: x ** n * np.exp(-a * x)  # noqa: E731
            exact, scale = math.factorial(n) / a ** (n + 1), 1.0 / a
        scale *= 10.0 ** rng.uniform(-1.0, 1.0)
        splits = tuple(rng.uniform(0.0, 20.0 * scale, int(rng.integers(0, 3))))
        spec = QuadratureSpec(abs_tol=1e-300,
                              rel_tol=10.0 ** rng.uniform(-12.0, -6.0))
        yield f, exact, scale, splits, spec


def obeys_the_rule(res, spec):
    """The one convergence rule of every integral of the engine."""
    return res.converged is (math.isfinite(res.value)
                             and res.error_estimate <= spec.target(res.value))


class TestOneJob:
    """A semi-infinite integral is one bisection on [-1, L]: the head
    [0, L] as it stands, the tail mapped onto [-1, 0)."""

    def test_closed_forms(self):
        for f, exact, scale, splits, spec in closed_form_cases(3, 201):
            res = integrate_semi_infinite(f, scale, spec, split_points=splits)
            assert res.converged
            assert abs(res.value - exact) <= res.error_estimate
            assert obeys_the_rule(res, spec)

    def test_one_rule_for_every_result(self):
        # Converged or not: decaying and non-decaying integrands, and
        # narrow lines beyond the head behind a split point, whose error
        # estimate may be optimistic but whose flag follows the rule.
        rng = np.random.default_rng(8)
        cases = [(lambda x: 1.0 / (1.0 + x), 1.0, (), 2000),
                 (np.ones_like, 1.0, (), 2000),
                 (lambda x: 1.0 / np.sqrt(1.0 + x), 1.0, (), 50)]
        for width, centre in zip(10.0 ** rng.uniform(-6.0, -2.0, 20),
                                 rng.uniform(10.0, 100.0, 20)):
            cases.append((lorentz(centre, width), 1.0, (centre,), 10_000))
        converged = 0
        for f, scale, splits, budget in cases:
            spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10,
                                  max_subdivisions=budget)
            res = integrate_semi_infinite(f, scale, spec, split_points=splits)
            assert obeys_the_rule(res, spec)
            converged += res.converged
        assert 0 < converged < len(cases)

    @pytest.mark.parametrize("split", [-0.5, 0.0])
    def test_split_at_or_below_zero_changes_nothing(self, split):
        for f, _, scale, splits, spec in closed_form_cases(5, 30):
            plain = integrate_semi_infinite(f, scale, spec,
                                            split_points=splits)
            split_too = integrate_semi_infinite(f, scale, spec,
                                                split_points=splits + (split,))
            assert fields(split_too) == fields(plain)

def test_default_spec_ignores_environment(monkeypatch):
    monkeypatch.setenv("CASFRIC_QUAD_TOL", "1e-6")
    assert default_spec() == QuadratureSpec(abs_tol=1e-10, rel_tol=1e-8)

