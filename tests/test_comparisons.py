import math

import pytest

from casfric import comparisons as cmp
from casfric import units
from casfric.dielectric import Drude, MediumSpec
from casfric.errors import DomainError
from casfric.friction import PlateSystem, friction_drude_closed_form
from casfric.presets import GOLD, PENDRY97, PRESETS, conductivity


class TestPendryForce:
    def test_benchmark_parameters(self):
        # sigma/eps0 = 1.12e10/s, d = 1e-10 m, v = 1 m/s; the exact
        # formula gives 1.664e3 Pa (the published rounded figure is 1.6e3)
        f = cmp.pendry_force(1.12e10, 1e-10, 1.0)
        assert f == pytest.approx(1663.68, rel=1e-4)
        assert f == pytest.approx(1.6e3, rel=0.05)

    def test_cubic_in_velocity(self):
        base = cmp.pendry_force(1.12e10, 1e-10, 1.0)
        doubled = cmp.pendry_force(1.12e10, 1e-10, 2.0)
        assert doubled == pytest.approx(8.0 * base, rel=1e-14)

    def test_inverse_square_in_conductivity(self):
        base = cmp.pendry_force(1.12e10, 1e-10, 1.0)
        doubled = cmp.pendry_force(2.24e10, 1e-10, 1.0)
        assert doubled == pytest.approx(base / 4.0, rel=1e-14)

    def test_gap_power(self):
        base = cmp.pendry_force(1.12e10, 1e-10, 1.0)
        wider = cmp.pendry_force(1.12e10, 2e-10, 1.0)
        assert wider == pytest.approx(base / 64.0, rel=1e-14)


class TestRatio:
    def test_gold_configuration(self):
        r = cmp.ratio_to_pendry(300.0, 100.0, 10e-9)
        assert r == pytest.approx(1.95e9, rel=5e-3)

    def test_unit_ratio_case(self):
        # k_B T equal to the motion quantum hbar v / d: ratio is the bare
        # prefactor 64 pi^2/5
        d = 1e-9
        v = units.thermal_energy(300.0) / units.HBAR_EV_S * d
        r = cmp.ratio_to_pendry(300.0, v, d)
        assert r == pytest.approx(64.0 * math.pi ** 2 / 5.0, rel=1e-12)

    def test_cross_module_identity(self):
        # ratio * F_P must equal the closed-form force for matched inputs
        pre = PENDRY97
        d_m = pre.d_nm * units.NM_TO_M
        fp = cmp.pendry_force(conductivity(pre.model), d_m, pre.v_m_per_s)
        ratio = cmp.ratio_to_pendry(pre.T_K, pre.v_m_per_s, d_m)
        med = MediumSpec(pre.model)
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            ours = friction_drude_closed_form(
                PlateSystem(med, med, pre.d_nm, pre.v_m_per_s, pre.T_K))
        assert ratio * fp == pytest.approx(ours.force, rel=1e-12)

    def test_same_ratio_for_gold_and_benchmark(self):
        # v/d matches between the two published configurations, so the
        # ratio carries over unchanged
        r_gold = cmp.ratio_to_pendry(300.0, 100.0, 10e-9)
        r_bench = cmp.ratio_to_pendry(300.0, 1.0, 1e-10)
        assert r_gold == pytest.approx(r_bench, rel=1e-14)


class TestVolokitinPersson:
    def test_gold_ratio(self):
        gold = GOLD
        d_m = gold.d_nm * units.NM_TO_M
        coeff, force = cmp.vp_friction(conductivity(gold.model), d_m,
                                       gold.T_K, gold.v_m_per_s)
        med = MediumSpec(gold.model)
        ours = friction_drude_closed_form(
            PlateSystem(med, med, gold.d_nm, gold.v_m_per_s, gold.T_K)).force
        assert force / ours == pytest.approx(1.2, rel=1e-10)
        assert force == pytest.approx(coeff * gold.v_m_per_s, rel=1e-15)

    def test_zero_velocity_would_vanish(self):
        coeff, force = cmp.vp_friction(3.5e18, 1e-8, 300.0, 1e-30)
        assert force == pytest.approx(coeff * 1e-30, rel=1e-15)

    def test_coefficient_gap_power(self):
        c1, _ = cmp.vp_friction(3.5e18, 1e-8, 300.0, 100.0)
        c2, _ = cmp.vp_friction(3.5e18, 2e-8, 300.0, 100.0)
        assert c1 / c2 == pytest.approx(16.0, rel=1e-12)


class TestZeta3:
    def test_partial_sum_first_term(self):
        # a single term of the series is 1
        assert sum(1.0 / n ** 3 for n in range(1, 2)) == 1.0

    def test_matches_dense_route_enhancement(self):
        # the screened/bare dense force ratio for a good metal is the
        # same zeta(3) series
        from casfric.friction import friction_dense
        med = MediumSpec(Drude(9.0, 0.035))
        sys_ = PlateSystem(med, med, 10.0, 100.0, 300.0)
        ratio = friction_dense(sys_, "keep").force / \
            friction_dense(sys_, "drop").force
        assert 1.0 <= ratio <= 1.25
        assert ratio == pytest.approx(1.2020569031595942, rel=2e-3)  # zeta(3)


class TestInputs:
    def test_validation(self):
        with pytest.raises(DomainError):
            cmp.pendry_force(0.0, 1e-10, 1.0)
        with pytest.raises(DomainError):
            cmp.vp_friction(1e10, 1e-8, -1.0, 1.0)
        with pytest.raises(DomainError):
            cmp.ratio_to_pendry(300.0, 0.0, 1e-9)

    @pytest.mark.parametrize("call, name", [
        (lambda: cmp.vp_friction(1.0, 1e-9, 1e308, 1.0),
         "the Volokitin-Persson coefficient"),
        (lambda: cmp.vp_friction(1e10, 1e-9, 300.0, 1e308),
         "the Volokitin-Persson force"),
    ], ids=["coefficient", "force"])
    def test_float_range(self, call, name):
        with pytest.raises(DomainError, match=f"^{name} leaves the float range$"):
            call()

    def test_presets(self):
        assert PRESETS["gold"].model.plasma_energy_ev == 9.0
        assert PRESETS["gold"].model.damping_ev == 0.035
        # gold conductivity scale ~ 3.5e18/s
        assert conductivity(GOLD.model) == pytest.approx(3.5e18, rel=0.01)
        assert conductivity(PENDRY97.model) == 1.12e10
