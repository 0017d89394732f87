"""Acceptance suite: one test per numbered criterion, generated from
``casfric.validation.run_all``, the only implementation of the checks
(the CLI ``validate`` command prints the same records).  Each test
prints the check's line with its measured value and tolerance.

Criteria 4b/4c assert the published benchmark figures (1.6e3 Pa, 3.5e12 Pa)
at their stated 1%/2% windows.  Those two figures are mutually
inconsistent with the published force ratio (1.95e9): the three are
linked by the exact identity force = ratio * reference_force, which this
package satisfies to machine precision (criterion 4d), so no
implementation can hit all three quoted values.  The two tests are
strict expected failures: the faithful assertions stay in place and the
suite will flag any change in that status.
"""

import dataclasses
import math

import numpy as np
import pytest

from casfric import geometry, quadrature, units, validation
from casfric.dielectric import Drude, spectral_density
from casfric.oscillator_stats import OscillatorSpec, g_imaginary_time, gtilde
from casfric.presets import GOLD
from casfric.quadrature import (QuadratureSpec, integrate_finite,
                                integrate_semi_infinite)

CRITERIA = ("1a", "1b", "1c", "2", "3a", "3b", "3c", "3d", "4a", "4b", "4c",
            "4d", "5", "6a", "6b", "6c", "7a", "7b", "7c", "7d", "8a", "8b",
            "8c", "9a", "9b", "9c")

ROUTE_SPEC = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10)

KNOWN_INCONSISTENT = {
    "4b": "published figure 1.6e3 Pa is inconsistent with the exact formula "
          "chain (measured 1.664e3 Pa; the quoted trio violates "
          "force = ratio * F_P, see criterion 4d and notes)",
    "4c": "published figure 3.5e12 Pa is inconsistent with the exact formula "
          "chain (measured 3.242e12 Pa; the quoted trio violates "
          "force = ratio * F_P, see criterion 4d and notes)",
}


@pytest.fixture(scope="module")
def results():
    return validation.run_all()


def _check(results, criterion):
    return next(r for r in results if r.criterion == criterion)


def test_validation_runner_matches_expected_status(results):
    assert tuple(r.criterion for r in results) == CRITERIA
    failing = {r.criterion for r in results if not r.passed}
    assert failing == validation.EXPECTED_FAILURES == set(KNOWN_INCONSISTENT)


@pytest.mark.parametrize("criterion", [
    pytest.param(c, marks=pytest.mark.xfail(strict=True,
                                            reason=KNOWN_INCONSISTENT[c]))
    if c in KNOWN_INCONSISTENT else c
    for c in CRITERIA])
def test_criterion(results, criterion):
    check = _check(results, criterion)
    print(check.line())
    assert check.passed, check.line()


# Criterion 3 names two routes for the transverse and plate-plate factors;
# validation runs one quadrature route each (3a, 3d).  The second route
# must agree with the value that record reports.

def test_criterion_3_transverse_factor_two_routes(results):
    kspace = _check(results, "3a").measured
    realspace = geometry.g_perp_realspace(1.0, ROUTE_SPEC)
    assert realspace.converged
    assert realspace.value == pytest.approx(kspace, rel=1e-6)


def test_criterion_3_halfplane_and_plate_factors(results):
    quadrature = _check(results, "3d").measured
    uspace = geometry.g_two_planes_uspace(1.0, 1.0, 1.5, ROUTE_SPEC)
    assert uspace.converged
    assert uspace.value == pytest.approx(quadrature, rel=1e-6)


def test_fault_injection_flips_only_the_right_criteria(monkeypatch):
    gold = validation.GOLD
    monkeypatch.setattr(validation, "GOLD",
                        dataclasses.replace(gold, model=Drude(9.9, 0.035)))
    results = validation.run_all()
    # only the closed form's absolute target moves; ratios, identities and
    # power laws hold for any metal, and 4b/4c fail as they always do
    assert {r.criterion for r in results if not r.passed} == {"1a", "4b", "4c"}


def test_criterion_7_draws_match_per_config_draws():
    # the one-shot draw of criterion 7 takes, bit for bit, the values of
    # 1000 rounds of two permittivities then one q*d
    e1, e2, qd = validation._boundary_draws(np.random.default_rng(20240817))
    rng = np.random.default_rng(20240817)
    rounds = []
    for _ in range(1000):
        eps = rng.uniform(1.0, 100.0, 2)
        rounds.append((eps[0], eps[1], rng.uniform(0.01, 10.0)))
    old = np.array(rounds)
    for new, column in zip((e1, e2, qd), old.T):
        assert np.array_equal(new.view(np.int64), column.view(np.int64))


# Criteria 8a and 8c integrate their families in one batch each.  The
# oracles are the serial loops, one integral at a time, on the same split
# points: each batched integral must equal its serial one, and so must the
# reported worst case.

def serial_transforms():
    rng = np.random.default_rng(11)
    worst = 0.0
    spec = QuadratureSpec(abs_tol=1e-13, rel_tol=1e-11)
    results = []
    for _ in range(100):
        alpha = rng.uniform(0.3, 3.0)
        w = rng.uniform(0.2, 5.0)
        beta = rng.uniform(0.3, 10.0)
        n = int(rng.integers(0, 4))
        osc = OscillatorSpec(alpha, w)
        k = 2.0 * math.pi * n / beta

        def f(lam, _o=osc, _b=beta, _k=k):
            return g_imaginary_time(_o, lam, _b) * np.cos(_k * lam)

        res = integrate_finite(f, 0.0, beta, spec,
                               [beta / 4, beta / 2, 3 * beta / 4])
        results.append(res)
        worst = max(worst, validation._rel(res.value, gtilde(osc, k)))
    return results, worst


def serial_smoothings():
    gold = GOLD.model
    sd = spectral_density(gold)
    ep = math.sqrt(0.5) * gold.plasma_energy_ev
    sigma = gold.damping_ev
    beta = units.beta(300.0)
    grid = np.geomspace(0.05, 1.8 * ep, 20)
    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-10, max_subdivisions=40_000)
    worst = 0.0
    results = []
    for m in grid:
        m = float(m)
        w_scale = min(m * m, sigma * ep)
        vals = []
        for gam in (1e-3 * w_scale, 1e-4 * w_scale):
            def smoothed(mp, _m=m, _g=gam):
                mp = np.asarray(mp, dtype=float)
                w = mp * mp - _m * _m
                return (sd.value(mp) * 2.0 * mp * (_g / math.pi)
                        / (w * w + _g * _g))

            halfwidth = gam / (2.0 * m)
            splits = [m - 20 * halfwidth, m - 5 * halfwidth, m,
                      m + 5 * halfwidth, m + 20 * halfwidth, ep]
            # the line's ladder, out to 0 below and past e_p above
            d = 2.0 * halfwidth
            while True:
                splits += [m - d, m + d]
                if d >= m and m + d > ep:
                    break
                d *= 2.0
            # the surface-plasmon peak's ladder, inside (0, 2 e_p)
            d = sigma
            while d < ep:
                splits += [ep - d, ep + d]
                d *= 10.0
            res = integrate_semi_infinite(smoothed, decay_scale=ep, spec=spec,
                                          split_points=[s for s in splits if s > 0])
            results.append(res)
            vals.append(res.value)
        extrap = (10.0 * vals[1] - vals[0]) / 9.0
        coth = 1.0 / math.tanh(0.5 * beta * m)
        worst = max(worst, validation._rel(extrap * coth,
                                           float(sd.value(m)) * coth))
    return results, worst


def test_criterion_8a_batch_equals_serial_integrals(results):
    serial, worst = serial_transforms()
    batch = validation._transforms(validation._transform_draws())
    assert batch == serial
    assert _check(results, "8a").measured == worst


def test_criterion_8c_batch_equals_serial_integrals(results):
    serial, worst = serial_smoothings()
    batch = validation._fd_smoothings(validation._fd_jobs())
    assert batch == serial
    assert _check(results, "8c").measured == worst


@pytest.mark.parametrize("batch, calls, evaluations", [
    pytest.param(lambda: validation._transforms(validation._transform_draws()),
                 3, 13_200, id="8a"),
    pytest.param(lambda: validation._fd_smoothings(validation._fd_jobs()),
                 4, 43_425, id="8c"),
])
def test_batched_criteria_integrand_calls_and_evaluations(monkeypatch, batch,
                                                          calls, evaluations):
    # Machine-independent cost of the two batches: panels started at the
    # known features leave few bisection passes.
    sizes = []
    engine = quadrature.integrate_many

    def counting(f, jobs, spec=None):
        def f_counted(x, job):
            sizes.append(x.size)
            return f(x, job)
        return engine(f_counted, jobs, spec)

    monkeypatch.setattr(quadrature, "integrate_many", counting)
    monkeypatch.setattr(validation, "integrate_many", counting)
    results = batch()
    assert all(r.converged for r in results)
    assert len(sizes) == calls
    assert sum(sizes) == sum(r.evaluations for r in results) == evaluations
