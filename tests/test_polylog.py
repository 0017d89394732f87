import math

import numpy as np
import pytest

from casfric.polylog import LI4_REL_ERR, li4
from casfric.quadrature import QuadratureSpec, integrate_semi_infinite

mpmath = pytest.importorskip("mpmath")


def mp_li4(z):
    with mpmath.workdps(30):
        return complex(mpmath.polylog(4, mpmath.mpc(z.real, z.imag)))


def oracle_grid():
    """Seeded |z| in [1e-4, 1e5] at every argument, plus both switch
    radii, the unit circle and points within 1e-3 of z = 1."""
    rng = np.random.default_rng(20061)
    r = 10.0 ** rng.uniform(-4.0, 5.0, 1500)
    z = r * np.exp(1j * rng.uniform(-math.pi, math.pi, r.size))
    angles = np.linspace(-math.pi, math.pi, 25)[1:]
    rings = [rad * np.exp(1j * angles)
             for rad in (0.5, 0.5 * (1 + 1e-12), 1.0, 2.0 * (1 - 1e-12), 2.0)]
    near_one = 1.0 + 1e-3 * rng.uniform(0.0, 1.0, 40) \
        * np.exp(1j * rng.uniform(-math.pi, math.pi, 40))
    z = np.concatenate([z, *rings, near_one])
    # on the cut (1, inf) the side is picked by the sign of a zero Im z,
    # which mpmath does not see; covered by test_li4_real_values_and_shapes
    return z[~((z.imag == 0.0) & (z.real > 1.0))]


def test_li4_matches_mpmath_on_every_branch():
    z = oracle_grid()
    r = np.abs(z)
    assert np.any(r <= 0.5) and np.any(r >= 2.0)
    assert np.any((r > 0.5) & (r < 2.0) & (z.real < 0))
    assert np.any(np.abs(z - 1.0) < 1e-3)
    ref = np.array([mp_li4(c) for c in z])
    rel = np.abs(li4(z) - ref) / np.abs(ref)
    assert rel.max() <= LI4_REL_ERR


def test_li4_real_values_and_shapes():
    assert li4(0.0) == 0.0
    assert li4(1.0).real == pytest.approx(math.pi ** 4 / 90.0, rel=1e-15)
    assert li4(-1.0).real == pytest.approx(-7.0 * math.pi ** 4 / 720.0,
                                           rel=1e-15)
    for x in (1.5, 2.0, 40.0):
        above = mp_li4(complex(x, 1e-30))
        assert li4(complex(x, 0.0)) == pytest.approx(above, rel=1e-15)
        assert li4(complex(x, -0.0)) == pytest.approx(above.conjugate(),
                                                     rel=1e-15)
    grid = np.array([[0.25, -1.5j], [-3.0, 0.9 + 0.1j]])
    assert li4(grid).shape == (2, 2)
    assert np.isnan(li4(np.array([complex(np.nan, 0.0), 0.5]))[0])


@pytest.mark.parametrize("z", [0.3 + 0.2j, -0.8 + 0.05j, 0.95 + 1e-4j,
                               -30.0 + 4.0j, 2.0 + 1.5j, -3.2e4 + 41.0j])
def test_u_space_identity(z):
    """(8/3) int u^3 e^{-2u} |1 - z e^{-2u}|^{-2} du = Im Li4(z) / Im z."""

    def integrand(u):
        q = np.exp(-2.0 * u)
        return (8.0 / 3.0) * u ** 3 * q / np.abs(1.0 - z * q) ** 2

    # the near-pole of the last case sits at u = ln|z|/2 ~ 5.2, width ~1e-3
    pole = 0.5 * math.log(abs(z))
    res = integrate_semi_infinite(integrand, decay_scale=0.5,
                                  spec=QuadratureSpec(1e-14, 1e-12),
                                  split_points=[pole] if pole > 0 else ())
    assert res.converged
    closed = li4(np.array([z]))[0].imag / z.imag
    assert res.value == pytest.approx(closed, rel=1e-10)
