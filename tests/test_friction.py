import math

import numpy as np
import pytest

from casfric import friction as fr
from casfric import units
from casfric.dielectric import (Drude, MediumSpec, Plasma, Tabulated, Vacuum,
                                spectral_density)
from casfric.errors import (DeltaLineError, DomainError, UnsupportedModelError)
from casfric.quadrature import QuadratureSpec

GOLD = Drude(9.0, 0.035)
EP = math.sqrt(0.5) * 9.0
GOLD_MED = MediumSpec(GOLD)


def gold_system(d_nm=10.0, v=100.0, t=300.0):
    return fr.PlateSystem(GOLD_MED, GOLD_MED, d_nm, v, t)


def linear_table(slope, m_max=80.0, n=4000):
    m = np.linspace(0.0, m_max, n)
    return Tabulated(m, slope * m)


class TestClosedForm:
    def test_gold_reference_value(self):
        res = fr.friction_drude_closed_form(gold_system())
        assert res.force == pytest.approx(3.29e-11, rel=5e-3)
        assert res.force_units == "Pa"
        assert res.route == "drude-closed-form"

    def test_exact_formula(self):
        # hbar v (kT)^2 (hbar nu)^2 / (4 d^4 (hbar wp)^4)
        res = fr.friction_drude_closed_form(gold_system())
        kt = units.thermal_energy(300.0)
        expected = (units.HBAR_JS * 100.0 / (4.0 * (1e-8) ** 4)
                    * (kt * 0.035) ** 2 / 9.0 ** 4)
        assert res.force == pytest.approx(expected, rel=1e-13)

    def test_zero_damping_zero_force(self):
        med = MediumSpec(Drude(9.0, 0.0))
        res = fr.friction_drude_closed_form(
            fr.PlateSystem(med, med, 10.0, 100.0, 300.0))
        assert res.force == 0.0
        assert "zero damping" in res.note

    def test_mismatched_media_rejected(self):
        other = MediumSpec(Drude(8.0, 0.035))
        with pytest.raises(UnsupportedModelError):
            fr.friction_drude_closed_form(
                fr.PlateSystem(GOLD_MED, other, 10.0, 100.0, 300.0))
        with pytest.raises(UnsupportedModelError):
            fr.friction_drude_closed_form(
                fr.PlateSystem(MediumSpec(Vacuum()), MediumSpec(Vacuum()),
                               10.0, 100.0, 300.0))

    def test_large_damping_warns(self):
        med = MediumSpec(Drude(9.0, 5.0))
        with pytest.warns(UserWarning):
            fr.friction_drude_closed_form(
                fr.PlateSystem(med, med, 10.0, 100.0, 300.0))

    def test_g_h0_consistency(self):
        res = fr.friction_drude_closed_form(gold_system())
        assert res.force == pytest.approx(res.g * 100.0 * res.h0, rel=1e-14)


class TestDenseRoute:
    def test_drop_matches_closed_form(self):
        drop = fr.friction_dense(gold_system(), "drop")
        cf = fr.friction_drude_closed_form(gold_system())
        assert drop.converged
        assert drop.force == pytest.approx(cf.force, rel=1e-2)
        # the only differences are the exact spectral shape and quadrature
        assert drop.force == pytest.approx(cf.force, rel=1e-3)

    def test_keep_inside_zeta3_window(self):
        drop = fr.friction_dense(gold_system(), "drop")
        keep = fr.friction_dense(gold_system(), "keep")
        ratio = keep.force / drop.force
        assert keep.converged
        assert 1.0 <= ratio <= 1.25
        # for a good metal the enhancement is the zeta(3) series
        assert ratio == pytest.approx(1.2020569, rel=2e-3)

    def test_zero_velocity(self):
        res = fr.friction_dense(gold_system(v=0.0), "drop")
        assert res.force == 0.0

    def test_gap_power_law(self):
        f10 = fr.friction_dense(gold_system(d_nm=10.0), "drop")
        f20 = fr.friction_dense(gold_system(d_nm=20.0), "drop")
        assert f10.force / f20.force == pytest.approx(16.0, rel=1e-10)

    def test_vacuum_gives_zero(self):
        med = MediumSpec(Vacuum())
        res = fr.friction_dense(fr.PlateSystem(med, GOLD_MED, 10.0, 100.0, 300.0))
        assert res.force == 0.0
        assert res.converged

    def test_plasma_rejected_as_line(self):
        med = MediumSpec(Plasma(9.0))
        with pytest.raises(DeltaLineError):
            fr.friction_dense(fr.PlateSystem(med, med, 10.0, 100.0, 300.0))

    def test_density_bookkeeping_cancels(self):
        a = fr.friction_dense(fr.PlateSystem(
            MediumSpec(GOLD, 1.0), MediumSpec(GOLD, 2.0), 10.0, 100.0, 300.0))
        b = fr.friction_dense(fr.PlateSystem(
            MediumSpec(GOLD, 17.0), MediumSpec(GOLD, 0.3), 10.0, 100.0, 300.0))
        assert a.force == b.force

    def test_tight_tolerance_stays_finite(self):
        res = fr.friction_dense(gold_system(), "drop", spec=QuadratureSpec(
            abs_tol=1e-18, rel_tol=1e-16))
        assert res.converged
        assert res.force == pytest.approx(
            fr.friction_dense(gold_system()).force, rel=1e-8)

    def test_unreachable_tolerance_never_flags_inf_as_converged(self):
        res = fr.friction_dense(gold_system(), "drop", spec=QuadratureSpec(
            abs_tol=1e-302, rel_tol=1e-300))
        assert math.isfinite(res.force) or not res.converged

    def test_system_validation(self):
        with pytest.raises(DomainError):
            fr.PlateSystem(GOLD_MED, GOLD_MED, 0.0, 100.0, 300.0)
        with pytest.raises(DomainError):
            fr.PlateSystem(GOLD_MED, GOLD_MED, 10.0, -1.0, 300.0)
        with pytest.raises(DomainError):
            fr.PlateSystem(GOLD_MED, GOLD_MED, 10.0, 100.0, 0.0)


class TestH0Kernels:
    def test_zero_spectrum_gives_zero(self):
        s0 = spectral_density(Vacuum())
        s_gold = spectral_density(GOLD)
        res = fr.h0_dilute(s0, s_gold, 300.0)
        assert res.value == 0.0
        assert res.converged

    def test_linear_spectra_closed_form(self):
        # two linear densities D*m: H0 = (2 pi hbar / beta^2) D^2 pi^2/3
        slope = 2.75e-4
        sd = spectral_density(linear_table(slope))
        res = fr.h0_dilute(sd, sd, 300.0)
        beta = units.beta(300.0)
        expected = (2.0 * math.pi * units.HBAR_JS / beta ** 2
                    * slope ** 2 * math.pi ** 2 / 3.0)
        assert res.converged
        assert res.value == pytest.approx(expected, rel=1e-7)

    def test_gold_spectra_match_small_damping_closed_form(self):
        # feeding the full damped-metal surface spectra through the
        # generic kernel reproduces the linear-approximation closed form
        # to well under a percent at room temperature
        sd = spectral_density(GOLD)
        res = fr.h0_dilute(sd, sd, 300.0)
        beta = units.beta(300.0)
        closed = (2.0 * math.pi / 3.0) * units.HBAR_JS \
            * (0.035 / beta) ** 2 / EP ** 4
        assert res.value == pytest.approx(closed, rel=1e-2)

    def test_thermal_weight_finite_near_zero(self):
        w = fr._csch2_half(np.array([1e-20, 1.0, 2000.0]))
        assert w[0] == pytest.approx(4e40, rel=1e-12)
        assert w[1] == pytest.approx(math.sinh(0.5) ** -2, rel=1e-14)
        assert w[2] == 0.0

    def test_delta_line_rejected(self):
        line = spectral_density(Plasma(9.0))
        cont = spectral_density(GOLD)
        with pytest.raises(DeltaLineError):
            fr.h0_dilute(line, cont, 300.0)

    def test_h0_dense_at_u_constant_without_denominators(self):
        vals = [fr.h0_dense_at_u(GOLD, GOLD, 300.0, u, "drop").value
                for u in (0.2, 1.0, 4.0)]
        assert vals[0] == vals[1] == vals[2]

    def test_h0_dense_at_u_keep_decouples_at_large_u(self):
        drop = fr.h0_dense_at_u(GOLD, GOLD, 300.0, 1.0, "drop")
        keep_far = fr.h0_dense_at_u(GOLD, GOLD, 300.0, 30.0, "keep")
        assert keep_far.value == pytest.approx(drop.value, rel=1e-8)

    def test_h0_dense_at_u_keep_enhances_soft_modes(self):
        drop = fr.h0_dense_at_u(GOLD, GOLD, 300.0, 0.3, "drop")
        keep = fr.h0_dense_at_u(GOLD, GOLD, 300.0, 0.3, "keep")
        x = math.exp(-0.6)
        assert keep.value > drop.value
        assert keep.value == pytest.approx(drop.value / (1.0 - x) ** 2,
                                           rel=1e-2)

    def test_thermal_quenching_quadratic_in_t(self):
        sd = spectral_density(linear_table(1e-3))
        h_300 = fr.h0_dilute(sd, sd, 300.0).value
        h_30 = fr.h0_dilute(sd, sd, 30.0).value
        assert h_300 / h_30 == pytest.approx(100.0, rel=1e-6)


class TestDilute:
    def probe_table(self):
        # per-particle spectral density, nm^3 units
        return linear_table(5e-5, m_max=60.0)

    def test_zero_velocity(self):
        med = MediumSpec(self.probe_table(), density_per_nm3=0.01)
        res = fr.friction_dilute(fr.PlateSystem(med, med, 10.0, 0.0, 300.0))
        assert res.force == 0.0
        assert res.route == "dilute"

    def test_gap_power_law(self):
        med = MediumSpec(self.probe_table(), density_per_nm3=0.01)
        f1 = fr.friction_dilute(fr.PlateSystem(med, med, 10.0, 100.0, 300.0))
        f2 = fr.friction_dilute(fr.PlateSystem(med, med, 20.0, 100.0, 300.0))
        assert f1.force / f2.force == pytest.approx(16.0, rel=1e-12)

    def test_linear_in_each_density(self):
        tab = self.probe_table()
        base = fr.friction_dilute(fr.PlateSystem(
            MediumSpec(tab, 0.01), MediumSpec(tab, 0.01), 10.0, 100.0, 300.0))
        half = fr.friction_dilute(fr.PlateSystem(
            MediumSpec(tab, 0.005), MediumSpec(tab, 0.01), 10.0, 100.0, 300.0))
        assert half.force == pytest.approx(0.5 * base.force, rel=1e-12)
        tiny = fr.friction_dilute(fr.PlateSystem(
            MediumSpec(tab, 1e-9), MediumSpec(tab, 0.01), 10.0, 100.0, 300.0))
        assert tiny.force == pytest.approx(1e-7 * base.force, rel=1e-9)

    def test_requires_densities(self):
        tab = self.probe_table()
        with pytest.raises(DomainError):
            fr.friction_dilute(fr.PlateSystem(
                MediumSpec(tab), MediumSpec(tab, 0.01), 10.0, 100.0, 300.0))

    def test_free_electron_models_rejected(self):
        with pytest.raises(UnsupportedModelError):
            fr.friction_dilute(fr.PlateSystem(
                MediumSpec(GOLD, 0.01), MediumSpec(GOLD, 0.01),
                10.0, 100.0, 300.0))


class TestHybrid:
    def probe(self):
        return MediumSpec(linear_table(5e-5, m_max=60.0), density_per_nm3=0.01)

    def test_vacuum_plate_gives_zero(self):
        res = fr.friction_hybrid(self.probe(), Vacuum(), 1.0, 100.0, 300.0)
        assert res.force == 0.0
        assert res.force_units == "N"

    def test_linear_in_probe_strength(self):
        strong = MediumSpec(linear_table(1e-4, m_max=60.0))
        weak = MediumSpec(linear_table(5e-5, m_max=60.0))
        f_strong = fr.friction_hybrid(strong, GOLD, 1.0, 100.0, 300.0)
        f_weak = fr.friction_hybrid(weak, GOLD, 1.0, 100.0, 300.0)
        assert f_strong.force == pytest.approx(2.0 * f_weak.force, rel=1e-9)

    def test_gap_power_law(self):
        f1 = fr.friction_hybrid(self.probe(), GOLD, 1.0, 100.0, 300.0)
        f2 = fr.friction_hybrid(self.probe(), GOLD, 2.0, 100.0, 300.0)
        assert f1.force / f2.force == pytest.approx(32.0, rel=1e-10)

    def test_linear_in_velocity(self):
        f1 = fr.friction_hybrid(self.probe(), GOLD, 1.0, 50.0, 300.0)
        f2 = fr.friction_hybrid(self.probe(), GOLD, 1.0, 100.0, 300.0)
        assert f2.force == pytest.approx(2.0 * f1.force, rel=1e-14)

    def test_plasma_plate_rejected(self):
        with pytest.raises(DeltaLineError):
            fr.friction_hybrid(self.probe(), Plasma(9.0), 1.0, 100.0, 300.0)

    def test_dense_embedding_limit(self):
        # a dilute probe medium embedded in the dense pipeline via the
        # density bridge A1 = 2 pi rho1 alpha1 converges to the hybrid
        # kernel as rho1 -> 0: the dense kernel per 2 pi rho1 approaches
        # the hybrid one (which absorbs the factor 1/2 per plate density)
        probe_value = 5e-5
        m = np.linspace(0.0, 60.0, 4000)
        h_hybrid = fr.h0_overlap(
            lambda mm: probe_value * np.asarray(mm, dtype=float),
            lambda mm: 0.5 * spectral_density(GOLD).value(mm),
            300.0, peak_hints=(EP,), support_max=60.0).value
        ratios = []
        for rho1 in (1e-1, 1e-2, 1e-3):
            scaled = Tabulated(m, 2.0 * math.pi * rho1 * probe_value * m)
            h_dense = fr.h0_dense_at_u(scaled, GOLD, 300.0, 1.0, "keep").value
            ratios.append(h_dense / (2.0 * math.pi * rho1) / (2.0 * h_hybrid))
        # converges to 1 linearly in rho1
        assert abs(ratios[2] - 1.0) < abs(ratios[1] - 1.0) < abs(ratios[0] - 1.0)
        assert ratios[2] == pytest.approx(1.0, rel=1e-3)


class TestSpectralProducts:
    def test_channels_positive_and_decoupling(self):
        m = np.geomspace(0.01, 12.0, 50)
        s11, s22, s12 = fr.plane_spectral_products(GOLD, GOLD, m, u=1.0)
        assert np.all(s11 > 0)
        assert np.all(s22 > 0)
        s11_far, _, s12_far = fr.plane_spectral_products(GOLD, GOLD, m, u=40.0)
        bare = spectral_density(GOLD).value(m)
        assert np.allclose(s11_far, bare, rtol=1e-8)
        # cross channel carries the e^{-u} gap factor
        assert np.max(np.abs(s12_far)) < 10.0 * math.exp(-40.0)

    def test_equal_media_symmetric(self):
        m = np.array([0.5, 2.0])
        s11, s22, _ = fr.plane_spectral_products(GOLD, GOLD, m, u=0.7)
        assert np.allclose(s11, s22)
