import math

import numpy as np
import pytest

from casfric import dielectric as dl
from casfric.errors import DeltaLineError, DomainError, UnsupportedModelError
from casfric.quadrature import QuadratureSpec, integrate_semi_infinite

GOLD = dl.Drude(plasma_energy_ev=9.0, damping_ev=0.035)
EP = math.sqrt(0.5) * 9.0  # surface resonance energy, e_p = 6.3640 eV
EP2 = 40.5


class TestReflectionAndDenseAlpha:
    def test_vacuum_zero(self):
        assert dl.dense_alpha(dl.Vacuum(), 1.0) == 0.0

    def test_conductor_limit(self):
        assert dl.dense_alpha(GOLD, 0.0) == pytest.approx(1.0, abs=1e-15)
        assert dl.dense_alpha(dl.Plasma(9.0), 1e-9) == pytest.approx(1.0, rel=1e-12)

    def test_drude_closed_form(self):
        # e_p^2/(K^2 + e_p^2 + sigma K) by hand at K = 1
        assert dl.dense_alpha(GOLD, 1.0) == pytest.approx(
            40.5 / (1.0 + 40.5 + 0.035), rel=1e-14)

    def test_plasma_oscillator_form(self):
        # plasma response equals a single oscillator at the surface
        # resonance: A = e_p^2/(K^2 + e_p^2)
        for k in (0.1, 1.0, 7.0):
            assert dl.dense_alpha(dl.Plasma(9.0), k) == pytest.approx(
                EP2 / (k * k + EP2), rel=1e-14)

    def test_matches_eps_route(self):
        for m in (0.2, 1.0, 6.0):
            eps = dl.eps_retarded(GOLD, m)
            assert dl.dense_alpha_retarded(GOLD, m) == pytest.approx(
                (eps - 1.0) / (eps + 1.0), rel=1e-12)

    def test_drude_zero_damping_equals_plasma(self):
        nodamp = dl.Drude(9.0, 0.0)
        plasma = dl.Plasma(9.0)
        for k in (0.3, 1.0, 5.0, 40.0):
            assert dl.dense_alpha(nodamp, k) == dl.dense_alpha(plasma, k)
        assert dl.dense_alpha(plasma, 1.0) == pytest.approx(EP2 / 41.5,
                                                            rel=1e-14)

    def test_even_in_k(self):
        rng = np.random.default_rng(5)
        for k in rng.uniform(0.01, 30.0, 50):
            for model in (GOLD, dl.Plasma(9.0), dl.Vacuum()):
                assert dl.dense_alpha(model, k) == dl.dense_alpha(model, -k)

    def test_drude_to_plasma_continuity(self):
        # pointwise convergence, error linear in the damping
        plasma = dl.Plasma(9.0)
        for k in (0.5, 2.0, 11.0):
            vals = [dl.dense_alpha(dl.Drude(9.0, damp), k)
                    for damp in (1e-2, 1e-4, 1e-6)]
            target = dl.dense_alpha(plasma, k)
            errs = [abs(v - target) / target for v in vals]
            assert errs[2] < errs[1] < errs[0]
            assert errs[1] == pytest.approx(1e-2 * errs[0], rel=0.05)
            assert errs[2] < 5e-6


class TestRetarded:
    def test_vacuum(self):
        assert dl.eps_retarded(dl.Vacuum(), 2.0) == 1.0 + 0.0j

    def test_imag_sign_convention(self):
        for m in (0.1, 1.0, EP, 20.0):
            assert dl.eps_retarded(GOLD, m).imag <= 0.0

    def test_plasma_surface_pole(self):
        eps = dl.eps_retarded(dl.Plasma(9.0), EP, gamma=1e-10)
        assert eps == pytest.approx(-1.0 + 0.0j, abs=1e-8)

    def test_drude_peak_against_closed_spectrum(self):
        # |Im A| extracted at finite gamma converges to pi * closed-form
        # spectral density as gamma -> 0
        sd = dl.spectral_density(GOLD)
        m = EP
        vals = []
        for gamma in (1e-5 * EP, 1e-6 * EP):
            a = dl.dense_alpha_retarded(GOLD, m, gamma)
            vals.append(-a.imag / math.pi)
        extrap = (10.0 * vals[1] - vals[0]) / 9.0
        assert extrap == pytest.approx(float(sd.value(m)), rel=1e-6)

    def test_gamma_zero_closed_form(self):
        a = dl.dense_alpha_retarded(GOLD, 1.0, 0.0)
        assert a == pytest.approx(40.5 / (40.5 - 1.0 + 0.035j), rel=1e-14)

    def test_rejects_nonpositive_m(self):
        with pytest.raises(DomainError):
            dl.eps_retarded(GOLD, 0.0)


class TestSpectralDensity:
    def test_drude_peak_value(self):
        sd = dl.spectral_density(GOLD)
        assert float(sd.value(EP)) == pytest.approx(EP / (math.pi * 0.035),
                                                    rel=1e-12)

    def test_small_m_linear(self):
        sd = dl.spectral_density(GOLD)
        slope = 0.035 / (math.pi * EP2)
        for m in (1e-6, 1e-4):
            assert float(sd.value(m)) == pytest.approx(slope * m, rel=1e-6)

    def test_zero_at_origin(self):
        for model in (GOLD, dl.Vacuum()):
            sd = dl.spectral_density(model)
            assert float(sd.value(0.0)) == 0.0

    def test_plasma_is_delta_line(self):
        # the whole strength is one line at e_p, named in the error
        with pytest.raises(DeltaLineError, match=r"Plasma\(.*6\.36396 eV"):
            dl.spectral_density(dl.Plasma(9.0))

    def test_drude_zero_damping_is_line(self):
        with pytest.raises(DeltaLineError, match=r"Drude\(.*6\.36396 eV"):
            dl.spectral_density(dl.Drude(9.0, 0.0))

    def test_sum_rule(self):
        # integral of value(m)/m^2 over d(m^2) equals the static response
        sd = dl.spectral_density(GOLD)

        def integrand(m):
            m = np.asarray(m, dtype=float)
            return 2.0 * sd.value(m) / np.maximum(m, 1e-300)

        res = integrate_semi_infinite(integrand, decay_scale=EP,
                                      spec=QuadratureSpec(1e-12, 1e-10),
                                      split_points=[EP])
        assert res.converged
        assert res.value == pytest.approx(dl.dense_alpha(GOLD, 0.0), rel=1e-6)

    def test_spectral_reconstruction(self):
        # A(K) = integral of value(m) * 2m / (K^2 + m^2) dm at several K
        sd = dl.spectral_density(GOLD)
        for k in (0.1 * EP, EP, 10.0 * EP):
            def integrand(m, _k=k):
                m = np.asarray(m, dtype=float)
                return sd.value(m) * 2.0 * m / (_k * _k + m * m)

            res = integrate_semi_infinite(integrand, decay_scale=EP,
                                          spec=QuadratureSpec(1e-12, 1e-10),
                                          split_points=[EP])
            assert res.value == pytest.approx(dl.dense_alpha(GOLD, k), rel=1e-7)

    def test_surface_plasmon_frequency(self):
        assert dl.surface_plasmon_frequency(dl.Plasma(9.0)) == pytest.approx(
            6.364, abs=5e-4)
        assert dl.surface_plasmon_frequency(dl.Plasma(math.sqrt(2.0))) == \
            pytest.approx(1.0, rel=1e-14)
        with pytest.raises(UnsupportedModelError):
            dl.surface_plasmon_frequency(GOLD)
        with pytest.raises(DomainError):
            dl.Plasma(0.0)


class TestTabulated:
    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "table.txt"
        path.write_text("# test table\n0.5 0.1\n1.0, 0.3\n2.0 0.2\n")
        model = dl.load_tabulated(path)
        assert list(model.m_ev) == [0.5, 1.0, 2.0]
        sd = dl.spectral_density(model)
        assert float(sd.value(1.0)) == 0.3
        assert float(sd.value(0.75)) == pytest.approx(0.2)
        assert float(sd.value(3.0)) == 0.0  # zero beyond the table
        assert sd.support_max == 2.0
        assert sd.peak_hint == 1.0

    def test_validation(self):
        with pytest.raises(DomainError):
            dl.Tabulated(np.array([1.0, 1.0]), np.array([0.1, 0.2]))
        with pytest.raises(DomainError):
            dl.Tabulated(np.array([1.0, 2.0]), np.array([-0.1, 0.2]))
        with pytest.raises(DomainError):
            dl.Tabulated(np.array([0.0, 1.0]), np.array([0.5, 0.2]))

    def test_reconstruction_matches_drude(self):
        # table sampled from the closed-form spectrum must reproduce the
        # closed-form response on both axes
        m = np.linspace(1e-4, 400.0, 60000)
        sd = dl.spectral_density(GOLD)
        tab = dl.Tabulated(m, sd.value(m))
        for k in (0.5, 3.0, 12.0):
            assert dl.dense_alpha(tab, k) == pytest.approx(
                dl.dense_alpha(GOLD, k), rel=2e-5)
        a_tab = dl.dense_alpha_retarded(tab, 2.0, 1e-4)
        a_ref = dl.dense_alpha_retarded(GOLD, 2.0, 1e-4)
        assert a_tab.real == pytest.approx(a_ref.real, rel=1e-4)
        assert a_tab.imag == pytest.approx(a_ref.imag, rel=1e-3)

    def test_eps_from_table(self):
        m = np.linspace(1e-4, 400.0, 60000)
        tab = dl.Tabulated(m, dl.spectral_density(GOLD).value(m))
        assert dl.eps_retarded(tab, 2.0, 1e-4) == pytest.approx(
            dl.eps_retarded(GOLD, 2.0, 1e-4), rel=2e-4)

    @pytest.mark.parametrize("m, v", [
        ([0.0, 1.0, np.inf], [0.0, 0.1, 0.2]),
        ([0.0, 1.0, 2.0], [0.0, np.nan, 0.2]),
        ([0.0, 1.0, 2.0], [0.0, np.inf, 0.2])])
    def test_non_finite_entries_rejected(self, m, v):
        with pytest.raises(DomainError, match="finite"):
            dl.Tabulated(np.array(m), np.array(v))

    @pytest.mark.parametrize("row", ["1.0 abc", "nan 0.1", "1.5 inf"])
    def test_bad_number_names_the_line(self, tmp_path, row):
        path = tmp_path / "table.txt"
        path.write_text(f"0.5 0.1\n{row}\n2.0 0.2\n")
        with pytest.raises(DomainError, match=f"table.txt:2: expected two "
                                              "finite numbers"):
            dl.load_tabulated(path)


# 24 samples from m = 0; the oracle and broadening tests below use it.
_M = np.linspace(0.0, 4.0, 24)
TABLE = dl.Tabulated(_M, 0.1 * _M * np.exp(-((_M - 1.5) / 0.8) ** 2))


class TestSurfaceResponse:
    def test_table_against_mpmath(self):
        # per-segment quadrature of the piecewise-linear integrand
        # S(m') * 2 m' / (zeta + m'**2), split at the near-pole m' = m
        mpmath = pytest.importorskip("mpmath")

        def oracle(zeta, split=None):
            total = 0
            with mpmath.workdps(30):
                for m1, m2, v1, v2 in zip(TABLE.m_ev[:-1], TABLE.m_ev[1:],
                                          TABLE.values[:-1], TABLE.values[1:]):
                    m1, m2, v1, v2 = map(mpmath.mpf, (m1, m2, v1, v2))
                    slope = (v2 - v1) / (m2 - m1)
                    pts = [m1] + ([mpmath.mpf(split)] if split is not None
                                  and m1 < split < m2 else []) + [m2]
                    total += mpmath.quad(lambda x: (v1 + slope * (x - m1))
                                         * 2 * x / (zeta + x * x), pts)
                return complex(total)

        for k in (0.0, 1e-3, 1e-2, 0.1, 1.0, 10.0, 100.0):
            ref = oracle(mpmath.mpf(k) ** 2).real
            assert abs(dl.dense_alpha(TABLE, k) - ref) <= 1e-12 * abs(ref)
        for gamma in (1e-3, 0.1):
            for m in (0.05, 1.5, 3.99, 4.0, 6.0, 40.0):
                ref = oracle(mpmath.mpc(-mpmath.mpf(m) ** 2, gamma), split=m)
                got = dl.dense_alpha_retarded(TABLE, m, gamma)
                assert abs(got - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("model, m, beside", [(GOLD, 6.3, 100.0),
                                                  (TABLE, 1.0, 40.0)])
    def test_value_independent_of_other_energies(self, model, m, beside):
        alone = dl.dense_alpha_retarded(model, m)
        assert dl.dense_alpha_retarded(model, np.array([m, beside]))[0] == alone

    def test_blocks_match_single_points(self):
        # enough energies to span several blocks, near and far from the table
        m = np.linspace(0.01, 20.0, 6000)
        many = dl.dense_alpha_retarded(TABLE, m)
        for i in list(range(0, m.size, 397)) + [m.size - 1]:
            assert many[i] == dl.dense_alpha_retarded(TABLE, m[i])

    def test_table_needs_positive_gamma(self):
        with pytest.raises(DomainError):
            dl.dense_alpha_retarded(TABLE, 1.0, 0.0)
        with pytest.raises(DomainError):
            dl.eps_retarded(TABLE, 1.0, 0.0)

    def test_default_gamma_depends_on_model_only(self):
        assert dl.default_gamma(TABLE) == 1e-6 * 4.0
        assert dl.default_gamma(dl.Plasma(9.0)) == pytest.approx(1e-6 * EP,
                                                                 rel=1e-15)
        assert dl.default_gamma(dl.Drude(9.0, 0.0)) == \
            dl.default_gamma(dl.Plasma(9.0))
        assert dl.default_gamma(GOLD) == 0.0
        assert dl.default_gamma(dl.Vacuum()) == 0.0


def test_medium_spec_density_validation():
    with pytest.raises(DomainError):
        dl.MediumSpec(GOLD, density_per_nm3=0.0)
    with pytest.raises(DomainError):
        dl.MediumSpec(GOLD, density_per_nm3=math.inf)
    assert dl.MediumSpec(GOLD).density_per_nm3 is None


@pytest.mark.parametrize("make", [
    lambda: dl.Drude(math.nan, 0.035), lambda: dl.Drude(math.inf, 0.035),
    lambda: dl.Drude(9.0, math.nan), lambda: dl.Drude(9.0, math.inf),
    lambda: dl.Plasma(math.nan), lambda: dl.Plasma(math.inf)])
def test_free_electron_models_reject_non_finite(make):
    with pytest.raises(DomainError, match="finite"):
        make()
