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

import numpy as np
import pytest

from casfric import geometry, validation
from casfric.dielectric import Drude
from casfric.quadrature import QuadratureSpec

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
