import math

import numpy as np
import pytest

from casfric import electrostatics as el
from casfric.dielectric import Drude, surface_plasmon_frequency
from casfric.errors import DomainError


def solve_layers_linear(cfg):
    """Oracle route: assemble and solve the raw 4x4 boundary system.

    Unknowns ordered (B, C, C1, D); the e^{+-qd} factors are kept exactly
    as they appear in the matching conditions.
    """
    e1, e2 = cfg.eps1, cfg.eps2
    em = math.exp(-cfg.q_per_nm * cfg.d_nm)
    ep = math.exp(+cfg.q_per_nm * cfg.d_nm)
    mat = np.array([
        [1.0, -1.0, -1.0, 0.0],
        [-e1, -1.0, 1.0, 0.0],
        [0.0, em, ep, -em],
        [0.0, em, -ep, -e2 * em],
    ])
    rhs = np.array([-1.0 / e1, -1.0, 0.0, 0.0])
    b, c, c1, d_coef = np.linalg.solve(mat, rhs)
    return el.BoundarySolution(b=float(b), c=float(c), c1=float(c1),
                               d=float(d_coef))


def test_vacuum_limit_exact():
    sol = el.solve_layers(el.LayeredConfig(1.0, 1.0, 1.0, 1.0))
    assert sol.d == 1.0
    assert sol.b == 0.0
    assert sol.c == 1.0
    assert sol.c1 == 0.0


def test_conductor_limit_excludes_field():
    sol = el.solve_layers(el.LayeredConfig(1.0, 1e12, 1.0, 1.0))
    assert abs(sol.d) < 1e-11


def test_closed_form_matches_linear_solve():
    cfg = el.LayeredConfig(2.0, 3.0, 1.0, 1.0)
    closed = el.solve_layers(cfg)
    linear = solve_layers_linear(cfg)
    for attr in ("b", "c", "c1", "d"):
        assert getattr(closed, attr) == pytest.approx(getattr(linear, attr),
                                                      rel=1e-12, abs=1e-15)


def test_closed_vs_linear_random_configs():
    rng = np.random.default_rng(31)
    for _ in range(200):
        cfg = el.LayeredConfig(rng.uniform(1.0, 100.0),
                               rng.uniform(1.0, 100.0),
                               1.0, rng.uniform(0.01, 10.0))
        closed = el.solve_layers(cfg)
        linear = solve_layers_linear(cfg)
        for attr in ("b", "c", "c1", "d"):
            assert getattr(closed, attr) == pytest.approx(
                getattr(linear, attr), rel=1e-10, abs=1e-14)


def test_boundary_residuals_random():
    rng = np.random.default_rng(77)
    worst = 0.0
    for _ in range(1000):
        cfg = el.LayeredConfig(rng.uniform(1.0, 100.0),
                               rng.uniform(1.0, 100.0),
                               1.0, rng.uniform(0.01, 10.0))
        sol = el.solve_layers(cfg)
        worst = max(worst, float(el.boundary_residuals(cfg, sol).max()))
    assert worst < 1e-12


def test_denominator_check_hand_value():
    # eps = 3 gives A = 1/2; qd = 1/2 -> 1 - e^{-1}/4
    from_d, direct = el.denominator_check(el.LayeredConfig(3.0, 3.0, 0.5, 1.0))
    expected = 1.0 - 0.25 * math.exp(-1.0)
    assert from_d == pytest.approx(expected, rel=1e-13)
    assert direct == pytest.approx(expected, rel=1e-15)
    assert from_d == pytest.approx(direct, rel=1e-12)


def test_denominator_trivial_cases():
    from_d, direct = el.denominator_check(el.LayeredConfig(1.0, 1.0, 1.0, 1.0))
    assert from_d == direct == 1.0
    from_d, direct = el.denominator_check(el.LayeredConfig(50.0, 2.0, 30.0, 1.0))
    assert direct == pytest.approx(1.0, abs=1e-15)


def test_denominator_reciprocity():
    a = el.denominator_check(el.LayeredConfig(5.0, 9.0, 1.2, 0.8))[0]
    b = el.denominator_check(el.LayeredConfig(9.0, 5.0, 1.2, 0.8))[0]
    assert a == pytest.approx(b, rel=1e-14)


def test_surface_mode_pole_divergence():
    # at the surface-mode frequency eps -> -1: for decoupled planes the
    # reflected coefficients blow up, while a finite gap keeps the
    # transmission denominator finite
    plasma = Drude(9.0, 0.0)
    sp = surface_plasmon_frequency(plasma)
    ep2 = 0.5 * 9.0 ** 2    # the line's A in complex form, at gamma = 1e-10
    a = ep2 / (1e-10j - sp * sp + ep2)
    assert abs((1.0 + a) / (1.0 - a) + 1.0) < 1e-7

    mags = []
    for delta in (1e-2, 1e-4, 1e-6):
        cfg = el.LayeredConfig(-1.0 - delta, 2.0, 1.0, 20.0)
        sol = el.solve_layers(cfg)
        mags.append(abs(sol.b))
    assert mags[2] > mags[1] > mags[0] > 1.0

    # finite-gap denominator stays finite at the same eps
    cfg = el.LayeredConfig(-1.0 - 1e-6, 2.0, 0.05, 1.0)
    from_d, direct = el.denominator_check(cfg)
    assert math.isfinite(from_d) and abs(direct) > 1e-3


def random_configs(n):
    rng = np.random.default_rng(53)
    return (rng.uniform(1.0, 100.0, n), rng.uniform(1.0, 100.0, n),
            rng.uniform(0.3, 3.0, n), rng.uniform(0.01, 10.0, n))


def test_array_config_equals_scalar_calls():
    # one call over arrays of configs gives, element by element, the
    # values of the scalar calls
    fields = random_configs(200)
    cfg = el.LayeredConfig(*fields)
    sol = el.solve_layers(cfg)
    res = el.boundary_residuals(cfg, sol)
    from_d, direct = el.denominator_check(cfg)
    assert res.shape == (200, 4)
    for i, scalars in enumerate(zip(*(f.tolist() for f in fields))):
        one = el.LayeredConfig(*scalars)
        one_sol = el.solve_layers(one)
        for attr in ("b", "c", "c1", "d"):
            assert getattr(sol, attr)[i] == pytest.approx(
                getattr(one_sol, attr), rel=1e-15, abs=1e-300)
        assert res[i] == pytest.approx(el.boundary_residuals(one, one_sol),
                                       rel=1e-15, abs=1e-30)
        one_from_d, one_direct = el.denominator_check(one)
        assert from_d[i] == pytest.approx(one_from_d, rel=1e-15)
        assert direct[i] == pytest.approx(one_direct, rel=1e-15)


def test_scalar_config_gives_floats():
    cfg = el.LayeredConfig(2.0, 3.0, 1.0, 1.0)
    sol = el.solve_layers(cfg)
    assert all(type(getattr(sol, a)) is float for a in ("b", "c", "c1", "d"))
    assert all(type(x) is float for x in el.denominator_check(cfg))
    assert el.boundary_residuals(cfg, sol).shape == (4,)


@pytest.mark.parametrize("field, bad", [("eps1", -1.0), ("d_nm", 0.0),
                                        ("q_per_nm", -2.0)])
def test_array_config_rejects_one_bad_element(field, bad):
    fields = dict(zip(("eps1", "eps2", "d_nm", "q_per_nm"),
                      random_configs(5)))
    fields[field][3] = bad
    with pytest.raises(DomainError):
        el.LayeredConfig(**fields)


def test_list_config_equals_array_config():
    fields = [f.tolist() for f in random_configs(5)]
    listed = el.LayeredConfig(*fields)
    arrays = el.LayeredConfig(*map(np.array, fields))
    sol, want = el.solve_layers(listed), el.solve_layers(arrays)
    for attr in ("b", "c", "c1", "d"):
        assert getattr(sol, attr).tobytes() == getattr(want, attr).tobytes()
    assert el.boundary_residuals(listed, sol).tobytes() \
        == el.boundary_residuals(arrays, want).tobytes()
    assert [x.tobytes() for x in el.denominator_check(listed)] \
        == [x.tobytes() for x in el.denominator_check(arrays)]


def test_listed_pole_is_rejected():
    # a list once skipped the check: [-1.0] == -1.0 is False
    for eps in (-1.0, [-1.0]):
        with pytest.raises(DomainError, match="surface-mode pole"):
            el.LayeredConfig(eps, 3.0, 1.0, 1.0)


@pytest.mark.parametrize("value", ["2.0", "gold"], ids=["numeric-str", "str"])
def test_field_that_is_not_real_numbers_is_rejected(value):
    # the number table's string row is "1"; a float-looking string and a word
    # must be refused just the same, not parsed
    with pytest.raises(DomainError, match="d_nm must be a real number"):
        el.LayeredConfig(2.0, 3.0, value, 1.0)


def test_singular_boundary_system_raises():
    # A1 = A2 = 2 at eps = -3 and e^{-2qd} is exactly 0.25, so the
    # denominator 1 - A1*A2*e^{-2qd} is 0
    with pytest.raises(DomainError, match="singular boundary system"):
        el.solve_layers(el.LayeredConfig(-3.0, -3.0, 1.0, math.log(2.0)))
