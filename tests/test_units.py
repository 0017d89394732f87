import re

import pytest

from casfric import units
from casfric.errors import DomainError


def test_thermal_energy_room_temperature():
    # 25.86 meV at 300 K (quoted to 4 figures; CODATA k_B gives 25.852)
    assert units.thermal_energy(300.0) == pytest.approx(0.02586, rel=5e-4)


def test_thermal_energy_linearity():
    assert units.thermal_energy(600.0) == pytest.approx(
        2.0 * units.thermal_energy(300.0), rel=1e-14)


def test_thermal_energy_unit_kelvin():
    assert units.thermal_energy(1.0) == pytest.approx(8.617333e-5, rel=1e-6)


def test_beta_room_temperature():
    # 1/0.02586 computed by hand
    assert units.beta(300.0) == pytest.approx(38.67, rel=1e-3)


def test_beta_unit_kelvin():
    assert units.beta(1.0) == pytest.approx(11604.5, rel=1e-4)


@pytest.mark.parametrize("t", [0.0, -1.0, -300.0])
def test_nonpositive_temperature_rejected(t):
    with pytest.raises(DomainError):
        units.thermal_energy(t)
    with pytest.raises(DomainError):
        units.beta(t)


@pytest.mark.parametrize("t, message", [
    (5e-324, "k_B*T underflows to 0"), (1e-310, "1/(k_B*T) overflows")],
    ids=["underflow", "subnormal"])
def test_temperature_below_the_float_range(t, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        units.beta(t)


@pytest.mark.parametrize("t", [1e-3, 0.5, 1.0, 77.0, 300.0, 1e4, 1e6])
def test_beta_inverse_identity(t):
    assert units.thermal_energy(t) * units.beta(t) == pytest.approx(1.0, abs=1e-15)


def test_constants_quoted_precision():
    assert units.HBAR_JS == pytest.approx(1.054571e-34, rel=1e-6)
    assert units.HBAR_JS == pytest.approx(1.054e-34, rel=1e-3)
    assert units.BOLTZMANN_EV_PER_K == pytest.approx(8.617333e-5, rel=1e-7)
    # hbar in eV s is the exact quotient with the elementary charge
    assert units.HBAR_EV_S == pytest.approx(6.582119569e-16, rel=1e-9)
