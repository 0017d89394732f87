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

from casfric import units, validation
from casfric.dielectric import Drude, spectral_density
from casfric.oscillator_stats import OscillatorSpec, g_imaginary_time, gtilde
from casfric.presets import GOLD
from casfric.quadrature import (QuadratureSpec, integrate_finite,
                                integrate_semi_infinite)

CRITERIA = ("1a", "1b", "1c", "2", "3a", "3b", "3c", "3d", "4a", "4b", "4c",
            "4d", "5", "6a", "6b", "6c", "7a", "7b", "7c", "7d", "8a", "8b",
            "8c", "9a", "9b", "9c")

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


# Criterion 8a sums a Kronrod rule over all its draws at once, and 8c
# integrates its 40 smoothings one at a time.  The oracles are the serial
# adaptive integrals, one at a time, on the same split points: each 8a
# value must lie within its serial integral's error estimate, and each
# 8c integral must equal its serial one, as must the reported worst case.

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


def test_criterion_8a_rule_within_serial_error(results):
    # Each serial integral starts on the same four panels and bisects
    # only where its G7 estimate asks; the K15 rule on the quarters
    # already meets the closed form to rounding.  Its values lie within
    # the serial error estimates but for rounding (1.1e-16 past them at
    # most), far inside 8a's 1e-8 tolerance.
    serial, _ = serial_transforms()
    osc, _, ks = draws = validation._transform_draws()
    values = validation._transforms(draws).tolist()
    assert all(res.converged for res in serial)
    for value, res in zip(values, serial):
        assert abs(value - res.value) <= res.error_estimate + 1e-15
    worst = max(map(validation._rel, values, gtilde(osc, ks).tolist()))
    assert _check(results, "8a").measured == worst <= 1e-11


def test_criterion_8c_batch_equals_serial_integrals(results):
    serial, worst = serial_smoothings()
    batch = validation._fd_smoothings(validation._fd_jobs())
    assert batch == serial
    assert _check(results, "8c").measured == worst


@pytest.mark.parametrize("criterion", ["8a", "8c"])
def test_batched_criteria_integrand_calls_and_evaluations(monkeypatch,
                                                          criterion):
    # Machine-independent cost of criteria 8a and 8c.  8a evaluates its
    # 100 draws on 4 panels of 15 nodes in one call of the correlator.
    # 8c runs 40 integrals, which, started at the known features,
    # converge after few bisection passes.
    if criterion == "8a":
        sizes = []
        correlator = validation.g_imaginary_time

        def counted_correlator(osc, lam, beta):
            sizes.append(np.size(lam))
            return correlator(osc, lam, beta)

        monkeypatch.setattr(validation, "g_imaginary_time", counted_correlator)
        validation._transforms(validation._transform_draws())
        assert sizes == [6_000]
    else:
        runs = []
        engine = validation.integrate_semi_infinite

        def counted_engine(*args, **kwargs):
            runs.append(engine(*args, **kwargs))
            return runs[-1]

        monkeypatch.setattr(validation, "integrate_semi_infinite",
                            counted_engine)
        assert validation._fd_smoothings(validation._fd_jobs()) == runs
        assert len(runs) == 40 and all(r.converged for r in runs)
        assert sum(r.evaluations for r in runs) == 43_425
