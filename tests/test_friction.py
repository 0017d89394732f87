import dataclasses
import math
import warnings
import weakref

import numpy as np
import pytest

from casfric import friction as fr
from casfric import geometry as geo
from casfric import units
from casfric.dielectric import (Drude, MediumSpec, Tabulated, Vacuum,
                                dense_alpha, dense_alpha_retarded,
                                spectral_density)
from casfric.errors import (DeltaLineError, DomainError, UnsupportedModelError)
from casfric.polylog import LI4_REL_ERR
from casfric.quadrature import (IntegralResult, QuadratureSpec,
                                integrate_finite, integrate_semi_infinite)

GOLD = Drude(9.0, 0.035)
EP = math.sqrt(0.5) * 9.0
GOLD_MED = MediumSpec(GOLD)
PLASMA = Drude(9.0, 0.0)  # collisionless: one line at EP


def gold_system(d_nm=10.0, v=100.0, t=300.0):
    return fr.PlateSystem(GOLD_MED, GOLD_MED, d_nm, v, t)


def linear_table(slope, m_max=80.0, n=4000):
    m = np.linspace(0.0, m_max, n)
    return Tabulated(m, slope * m)


def bump_plate(n, centres=(1.2,)):
    """Surface spectrum of Lorentzians at ``centres`` (eV), 0.4 eV wide, on
    n samples over [0, 4] eV, scaled to a static response A(0) = 0.5; the
    density does not vanish at 4 eV."""
    m = np.linspace(0.0, 4.0, n)
    v = sum(1.0 / (1.0 + ((m - c) / 0.4) ** 2) for c in centres)
    v[0] = 0.0
    return Tabulated(m, v * 0.5 / float(dense_alpha(Tabulated(m, v), 0.0)))


def two_bump_plate(n):
    return bump_plate(n, (1.2, 2.0))


NEAR_GOLD = Drude(9.1, 0.036)
# The tolerance of the screened tabulated plates: one probe and one
# Kronrod pass.
TABLE_KEEP_SPEC = QuadratureSpec(abs_tol=1e-5, rel_tol=1e-3)


def table_system(plate, t_k=150.0):
    return fr.PlateSystem(MediumSpec(plate), MediumSpec(NEAR_GOLD), 10.0,
                          100.0, t_k)


def mode_factor(model1, model2, u):
    """The screening |1 - A1*A2*e^{-2u}|^{-2} of transverse mode u, on
    the retarded branch, elementwise in m."""
    x = math.exp(-2.0 * u)

    def factor(m):
        a1 = dense_alpha_retarded(model1, m)
        a2 = dense_alpha_retarded(model2, m)
        return 1.0 / np.abs(1.0 - a1 * a2 * x) ** 2

    return factor


def nested_keep_h0(model1, model2, t_k):
    """Oracle of the screened kernel: the transverse-mode integral
    (8/3) * int u^3 e^{-2u} H0(u) du done numerically over the
    mode-resolved kernel H0(u), the overlap times ``mode_factor``, inner
    rel_tol 1e-9 and outer 1e-7."""
    s1, s2 = spectral_density(model1), spectral_density(model2)
    scale = probe_then_integrate(s1, s2, t_k).value
    inner_spec = QuadratureSpec(rel_tol=1e-9)
    inner_converged = []

    def outer(u_vals):
        out = np.empty(len(u_vals))
        for i, u in enumerate(u_vals):
            inner = probe_then_integrate(s1, s2, t_k, inner_spec,
                                         mode_factor(model1, model2, u))
            inner_converged.append(inner.converged)
            out[i] = (8.0 / 3.0) * u ** 3 * math.exp(-2.0 * u) \
                * inner.value / scale
        return out

    res = integrate_semi_infinite(outer, decay_scale=0.5,
                                  spec=QuadratureSpec(rel_tol=1e-7))
    assert res.converged and all(inner_converged)
    return res.value * scale


# The probe of ``probe_then_integrate``: a geometric sweep of 97 points
# from 1e-9 to 1 of the cap, the tail-bound point just past the cap, and
# octave split points across the thermal window in units of k_B*T.
PROBE_UNIT = np.geomspace(1e-9, 1.0, 97)
PAST_CAP = 1.0 + 1e-9
OCTAVES = tuple(2.0 ** k for k in range(-1, 6))


def probe_then_integrate(s1, s2, temperature_k, spec=None, extra_factor=None,
                         extra_hints=()):
    """Oracle of ``h0_overlap``: the integrand, factor included, on the
    probe grid in one call, then the adaptive rule on panels built around
    the probed peak, the factor evaluated anew on every pass, and the
    tail bound; the integrand's products in the same order.
    ``extra_hints`` add split points to the two densities' peaks, as the
    line-bracketing oracles below pass them."""
    if spec is None:
        spec = QuadratureSpec()
    beta = units.beta(temperature_k)
    window = 40.0 / beta
    hints = [h for h in (s1.peak_hint, s2.peak_hint, *extra_hints) if h > 0.0]
    m_cap = min(max(window, *(10.0 * h for h in hints)),
                s1.support_max, s2.support_max)
    pref = 0.5 * math.pi * beta * units.HBAR_JS

    def integrand(m):
        out = pref * s1.value(m) * s2.value(m) * fr._csch2_half(beta * m)
        return out if extra_factor is None else out * extra_factor(m)

    grid = sorted([*(m_cap * PROBE_UNIT),
                   *(k / beta for k in range(1, 9) if k / beta < m_cap),
                   *(h for h in hints if h < m_cap)])
    vals = integrand(np.array(grid + [m_cap * PAST_CAP]))
    peak = int(np.argmax(np.abs(vals[:-1])))
    scale = float(abs(vals[peak]))
    assert 0.0 < scale < math.inf
    m_star = grid[peak]
    splits = [*hints, 0.1 * m_star, m_star, 10.0 * m_star, window,
              *(octave / beta for octave in OCTAVES)]
    res = integrate_finite(lambda m: integrand(m) / scale, 0.0, m_cap, spec,
                           split_points=splits)
    tail_bound = abs(float(vals[-1]) / scale) / beta * 2.0
    return IntegralResult(
        res.value * scale, (res.error_estimate + tail_bound) * scale,
        res.evaluations + len(vals),
        res.converged and (res.value == 0.0
                           or tail_bound <= spec.target(res.value)))


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

    def test_hot_plates_outside_thermal_regime(self):
        # k_B T / e_p = 0.041 for gold at 3000 K, past the 0.02 bound
        with pytest.warns(UserWarning, match="k_B\\*T"):
            res = fr.friction_drude_closed_form(gold_system(t=3000.0))
        assert "k_B*T exceeds 0.02" in res.note
        assert "outside its validity regime" in res.note

    def test_room_temperature_gold_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fr.friction_drude_closed_form(gold_system())
        assert res.note is None

    def test_g_h0_consistency(self):
        res = fr.friction_drude_closed_form(gold_system())
        assert res.force == pytest.approx(res.g * 100.0 * res.h0, rel=1e-14)

    @pytest.mark.parametrize("t_k, tol", [(30.0, 1e-4), (100.0, 1e-4),
                                          (300.0, 1e-3)])
    def test_leading_correction(self, t_k, tol):
        # The closed form falls short of the dense drop route by
        # (32 pi^2/5) (k_B T / e_p)^2 to leading order, e_p = hbar*omega_p
        # (with e_sp = e_p/sqrt(2) in its place the ratio would be 0.5).
        dense = fr.friction_dense(gold_system(t=t_k), "drop",
                                  QuadratureSpec(1e-300, 1e-12))
        closed = fr.friction_drude_closed_form(gold_system(t=t_k))
        assert dense.converged
        term = 32.0 * math.pi ** 2 / 5.0 \
            * (units.thermal_energy(t_k) / GOLD.plasma_energy_ev) ** 2
        assert abs((1.0 - closed.force / dense.force) / term - 1.0) <= tol


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
        med = MediumSpec(PLASMA)
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

    def test_keep_tight_tolerance_finite_but_not_converged(self):
        # the Li4 factor is good to LI4_REL_ERR, not to 1e-16
        res = fr.friction_dense(gold_system(), "keep", spec=QuadratureSpec(
            abs_tol=1e-18, rel_tol=1e-16))
        assert not res.converged
        assert res.quadrature_error >= LI4_REL_ERR
        assert res.force == pytest.approx(
            fr.friction_dense(gold_system(), "keep").force, rel=1e-8)

    def test_keep_unreachable_tolerance_not_converged(self):
        # integrated at the Li4 bound instead of exhausting the budget
        res = fr.friction_dense(gold_system(), "keep", spec=QuadratureSpec(
            abs_tol=1e-302, rel_tol=1e-300))
        assert not res.converged
        assert res.evaluations <= 2000
        at_bound = fr.friction_dense(gold_system(), "keep", spec=QuadratureSpec(
            abs_tol=1e-302, rel_tol=LI4_REL_ERR))
        assert res.h0 == at_bound.h0

    def test_keep_tolerance_at_li4_bound_not_converged(self):
        # the quadrature error comes on top of the Li4 bound
        res = fr.friction_dense(gold_system(), "keep", spec=QuadratureSpec(
            abs_tol=1e-302, rel_tol=1e-13))
        assert res.quadrature_error > 1e-13
        assert not res.converged

    @pytest.mark.parametrize("rel_tol", [1e-6, 1e-8, 1e-10, 1e-12, 2e-13])
    def test_keep_converged_meets_rel_tol(self, rel_tol):
        for model in (GOLD, Drude(5.0, 0.1)):
            res = fr.friction_dense(fr.PlateSystem(
                GOLD_MED, MediumSpec(model), 10.0, 100.0, 300.0), "keep",
                spec=QuadratureSpec(abs_tol=1e-302, rel_tol=rel_tol))
            assert res.quadrature_error <= rel_tol or not res.converged

    def test_unknown_denominators_rejected(self):
        with pytest.raises(DomainError):
            fr.friction_dense(gold_system(), "both")

    def test_system_validation(self):
        with pytest.raises(DomainError):
            fr.PlateSystem(GOLD_MED, GOLD_MED, 0.0, 100.0, 300.0)
        with pytest.raises(DomainError):
            fr.PlateSystem(GOLD_MED, GOLD_MED, 10.0, -1.0, 300.0)
        with pytest.raises(DomainError):
            fr.PlateSystem(GOLD_MED, GOLD_MED, 10.0, 100.0, 0.0)

    @pytest.mark.parametrize("d, v, t", [
        (math.nan, 100.0, 300.0), (math.inf, 100.0, 300.0),
        (10.0, math.nan, 300.0), (10.0, math.inf, 300.0),
        (10.0, 100.0, math.nan), (10.0, 100.0, math.inf)])
    def test_non_finite_system_rejected(self, d, v, t):
        with pytest.raises(DomainError, match="must be finite"):
            fr.PlateSystem(GOLD_MED, GOLD_MED, d, v, t)

    @pytest.mark.parametrize("d_nm", [1e308, 1e-300])
    @pytest.mark.parametrize("route", ["drop", "closed", "dilute"])
    def test_gap_outside_float_range_rejected(self, route, d_nm):
        if route == "dilute":
            tab = MediumSpec(linear_table(5e-5, m_max=60.0), 0.01)
            call = lambda: fr.friction_dilute(  # noqa: E731
                fr.PlateSystem(tab, tab, d_nm, 100.0, 300.0))
        elif route == "closed":
            call = lambda: fr.friction_drude_closed_form(  # noqa: E731
                gold_system(d_nm=d_nm))
        else:
            call = lambda: fr.friction_dense(gold_system(d_nm=d_nm))  # noqa: E731
        with pytest.raises(DomainError, match="float range"):
            call()


class TestNarrowLine:
    """A nearly undamped Drude pair at 3000 K, 10 nm, 100 m/s, ``drop``:
    the surface-plasmon line at e_sp = 3/sqrt(2) eV is 1e-6 eV wide, far
    narrower than any panel the probe builds.  The oracle splits the
    overlap integral at e_sp +- 10^k * gamma, k = 0..4."""

    MEDIUM = Drude(3.0, 1e-6)

    def system(self):
        med = MediumSpec(self.MEDIUM)
        return fr.PlateSystem(med, med, 10.0, 100.0, 3000.0)

    def oracle(self, spec=None):
        """(force, its claimed absolute error) of G*v*H0 with the line
        bracketed."""
        e_sp = self.MEDIUM.plasma_energy_ev / math.sqrt(2.0)
        gamma = self.MEDIUM.damping_ev
        s = spectral_density(self.MEDIUM)
        h0 = probe_then_integrate(s, s, 3000.0, spec, extra_hints=[
            e_sp + sign * 10.0 ** k * gamma for k in range(5)
            for sign in (-1.0, 1.0)])
        assert h0.converged
        g = geo.g_two_planes(fr._DENSE_DENSITY, fr._DENSE_DENSITY, 1e-8)
        return g * 100.0 * h0.value, g * 100.0 * h0.error_estimate

    def test_oracle(self):
        force, err = self.oracle()
        tight, tight_err = self.oracle(QuadratureSpec(1e-300, 1e-11))
        assert force == pytest.approx(74.84484, rel=1e-6)
        assert abs(force - tight) <= err + tight_err

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 2: the probe steps over the line; default spec: "
        "1.37e-6 Pa, converged, quadrature_error 0.995; tight spec: "
        "37.42 Pa, half the force, claimed 9.7e-11"))
    @pytest.mark.parametrize("spec", [None, QuadratureSpec(1e-300, 1e-10)],
                             ids=["default", "tight"])
    def test_converged_result_is_honest(self, spec):
        force, err = self.oracle()
        res = fr.friction_dense(self.system(), "drop", spec)
        if res.converged:
            assert abs(res.force - force) \
                <= res.quadrature_error * force + err


class TestNarrowCoupledLine:
    """The mode-resolved kernel ``h0_dense_at_u`` with ``keep`` against an
    oracle split around every line of the screened product: the surface
    plasmon e_sp and the coupled modes e_sp*sqrt(1 -+ e^{-u}), each
    bracketed at +- 10^k * gamma, k = 0..5."""

    @staticmethod
    def oracle(model, t_k, u):
        e_sp = model.plasma_energy_ev / math.sqrt(2.0)
        centres = [e_sp * math.sqrt(1.0 + sign * math.exp(-u))
                   for sign in (-1.0, 0.0, 1.0)]
        s = spectral_density(model)
        h0 = probe_then_integrate(
            s, s, t_k, QuadratureSpec(1e-300, 1e-11, 200_000),
            mode_factor(model, model, u), [
                c + sign * 10.0 ** k * model.damping_ev
                for c in centres for k in range(6) for sign in (-1.0, 1.0)])
        assert h0.converged
        return h0

    @pytest.mark.parametrize("model,t_k,u", [
        (Drude(3.0, 1e-6), 1000.0, 2.0),
        (Drude(3.0, 1e-6), 3000.0, 2.0),
        (GOLD, 300.0, 0.3),
    ], ids=["narrow-1000K", "narrow-3000K", "gold"])
    def test_claimed_error_is_honest(self, model, t_k, u):
        h0 = fr.h0_dense_at_u(model, model, t_k, u, "keep")
        oracle = self.oracle(model, t_k, u)
        assert h0.converged
        assert abs(h0.value - oracle.value) \
            <= h0.error_estimate + oracle.error_estimate


class TestScreenedClosedForm:
    """``denominators="keep"``: the closed-form transverse-mode average
    Im Li4(z)/Im z against the nested u-integral and its own limits."""

    @pytest.mark.parametrize("case", ["gold", "mixed-drude", "tabulated"])
    def test_keep_matches_nested_oracle(self, case):
        model1, model2, t_k = {
            "gold": (GOLD, GOLD, 300.0),
            "mixed-drude": (GOLD, Drude(5.0, 0.1), 300.0),
            "tabulated": (bump_plate(24), GOLD, 150.0),
        }[case]
        keep = fr.friction_dense(fr.PlateSystem(
            MediumSpec(model1), MediumSpec(model2), 10.0, 100.0, t_k), "keep")
        assert keep.converged
        assert keep.h0 == pytest.approx(nested_keep_h0(model1, model2, t_k),
                                        rel=1e-8)

    def test_evaluation_counts(self):
        drop = fr.friction_dense(gold_system(), "drop")
        assert drop.evaluations == fr.h0_dense_at_u(
            GOLD, GOLD, 300.0, 1.0, "drop").evaluations
        assert fr.friction_drude_closed_form(gold_system()).evaluations == 0
        gold = fr.friction_dense(gold_system(), "keep")
        assert 0 < gold.evaluations <= 1000  # nested u-integral: 119,238
        table = fr.friction_dense(fr.PlateSystem(
            MediumSpec(bump_plate(400)), GOLD_MED, 10.0, 100.0, 300.0), "keep")
        assert table.converged
        assert 0 < table.evaluations <= 2000

    def test_factor_at_zero_and_one(self):
        assert fr._screening_factor(np.array([0j]))[0] == 1.0
        assert fr._screening_factor(np.array([1 + 0j]))[0] == pytest.approx(
            1.2020569031595942, rel=1e-15)

    def test_factor_purely_imaginary_response(self):
        # equal Drude plates at the surface-plasmon energy: A is purely
        # imaginary, so z = A**2 is real and negative with Im z = 0
        a = dense_alpha_retarded(GOLD, np.array([
            spectral_density(GOLD).peak_hint]))
        z = a * a
        assert z.imag[0] == 0.0 and z.real[0] < -1e4
        mpmath = pytest.importorskip("mpmath")
        x = float(z.real[0])
        with mpmath.workdps(30):
            ref = float(mpmath.polylog(3, x) / x)
        assert fr._screening_factor(z)[0] == pytest.approx(ref, rel=1e-13)

    def test_factor_near_real_axis(self):
        mpmath = pytest.importorskip("mpmath")
        for x in (-3e4, -1.5, -1.0, -0.6, 0.3, 0.9, 0.999, 1.0):
            for d in (1e-3, 1e-8, 1e-14, 1e-25, 0.0):
                with mpmath.workdps(40):
                    if d == 0.0:
                        ref = mpmath.polylog(3, x) / x
                    else:
                        ref = mpmath.im(mpmath.polylog(
                            4, mpmath.mpc(x, x * d))) / (x * d)
                got = fr._screening_factor(np.array([complex(x, x * d)]))[0]
                assert got == pytest.approx(float(ref), rel=LI4_REL_ERR)

    def test_real_z_above_one_is_a_pole(self):
        z = np.array([1.0 + 1e-15, 1.5, 2.0, 1e3])
        for zz in (z + 0j, z - 0j, np.array([complex(x, -0.0) for x in z])):
            assert np.all(np.isinf(fr._screening_factor(zz)))

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    def test_pole_makes_keep_unconverged(self, monkeypatch):
        monkeypatch.setattr(fr, "dense_alpha_retarded",
                            lambda model, m: np.full(np.shape(m), 1.2 + 0j))
        res = fr.friction_dense(gold_system(), "keep")
        assert not res.converged
        assert not math.isfinite(res.force)


def kinked_table(a0=None):
    """The 400-sample kinked table m*exp(-(m-2)**2/0.1) on [0, 4] eV,
    static response A(0) = 1.121, or scaled to A(0) = ``a0``."""
    m = np.linspace(0.0, 4.0, 400)
    v = m * np.exp(-(m - 2.0) ** 2 / 0.1)
    if a0 is not None:
        v *= a0 / dense_alpha(Tabulated(m, v), 0.0)
    return Tabulated(m, v)


class TestStaticCoupling:
    """``keep`` needs z(0) = A1(0)*A2(0) <= 1: past it the screening has a
    non-integrable pole at u = ln(z(0))/2 and the kernel is infinite."""

    def test_static_alpha_is_dense_alpha_at_zero(self):
        for model in (GOLD, Drude(3.0, 1e-6), PLASMA, Vacuum(),
                      bump_plate(24), kinked_table()):
            assert fr._static_alpha(model) == dense_alpha(model, 0.0)

    def test_kinked_table_against_gold_raises(self):
        table = kinked_table()
        assert dense_alpha(table, 0.0) == pytest.approx(1.121, abs=5e-4)
        system = fr.PlateSystem(MediumSpec(table), GOLD_MED, 10.0, 100.0,
                                150.0)
        with pytest.raises(DomainError, match=(
                r"z\(0\) = 1\.121\d*: .* pole at u = ln\(z\(0\)\)/2 "
                r"= 0\.0571")):
            fr.friction_dense(system, "keep")
        assert fr.friction_dense(system, "drop").converged

    def test_z0_is_the_product(self):
        # A(0) = 1.2 is admissible against 0.8 (z(0) = 0.96), not 0.9
        def pair(a0):
            return fr.PlateSystem(MediumSpec(kinked_table(1.2)),
                                  MediumSpec(kinked_table(a0)), 10.0, 100.0,
                                  150.0)

        assert fr.friction_dense(pair(0.8), "keep").converged
        with pytest.raises(DomainError, match=r"z\(0\) = 1\.08"):
            fr.friction_dense(pair(0.9), "keep")

    def test_z0_of_one_is_allowed(self):
        # S = m/2 on [0, 1] eV: A(0) = 2 * int S/m dm = 1 exactly
        table = Tabulated(np.array([0.0, 1.0]), np.array([0.0, 0.5]))
        assert dense_alpha(table, 0.0) == 1.0
        res = fr.friction_dense(fr.PlateSystem(
            MediumSpec(table), GOLD_MED, 10.0, 100.0, 150.0), "keep")
        assert math.isfinite(res.force) and res.force > 0.0

    def test_kinked_half_converges(self):
        res = fr.friction_dense(fr.PlateSystem(
            MediumSpec(kinked_table(0.5)), GOLD_MED, 10.0, 100.0, 150.0),
            "keep")
        assert res.converged and res.force > 0.0


class TestH0Kernels:
    def test_zero_spectrum_gives_zero(self):
        s0 = spectral_density(Vacuum())
        s_gold = spectral_density(GOLD)
        res = fr.h0_overlap(s0, s_gold, 300.0)
        assert res.value == 0.0
        assert res.converged

    def test_linear_spectra_closed_form(self):
        # two linear densities D*m: H0 = (2 pi hbar / beta^2) D^2 pi^2/3
        slope = 2.75e-4
        sd = spectral_density(linear_table(slope))
        res = fr.h0_overlap(sd, sd, 300.0)
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
        res = fr.h0_overlap(sd, sd, 300.0)
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
        with pytest.raises(DeltaLineError, match="6.36396"):
            fr.h0_dense_at_u(PLASMA, GOLD, 300.0, 1.0)

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
        h_300 = fr.h0_overlap(sd, sd, 300.0).value
        h_30 = fr.h0_overlap(sd, sd, 30.0).value
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

    def test_reports_evaluations(self):
        sd = spectral_density(self.probe_table())
        med = MediumSpec(self.probe_table(), density_per_nm3=0.01)
        res = fr.friction_dilute(fr.PlateSystem(med, med, 10.0, 100.0, 300.0))
        assert res.evaluations == fr.h0_overlap(sd, sd, 300.0).evaluations > 0

    def test_geometric_factor_overflow_rejected(self):
        med = MediumSpec(self.probe_table(), density_per_nm3=1e200)
        with pytest.raises(DomainError, match="geometric factor"):
            fr.friction_dilute(fr.PlateSystem(med, med, 10.0, 100.0, 300.0))

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

    def test_reports_evaluations(self):
        res = fr.friction_hybrid(self.probe(), GOLD, 1.0, 100.0, 300.0)
        assert res.evaluations > 0

    @pytest.mark.parametrize("z0, v, t", [
        (math.inf, 100.0, 300.0), (1.0, math.nan, 300.0),
        (1.0, 100.0, math.inf), (1e-60, 100.0, 300.0)])
    def test_bad_numbers_rejected(self, z0, v, t):
        with pytest.raises(DomainError):
            fr.friction_hybrid(self.probe(), GOLD, z0, v, t)

    def test_plasma_plate_rejected(self):
        with pytest.raises(DeltaLineError):
            fr.friction_hybrid(self.probe(), PLASMA, 1.0, 100.0, 300.0)

    def test_dense_embedding_limit(self):
        # a dilute probe medium embedded in the dense pipeline via the
        # density bridge A1 = 2 pi rho1 alpha1 converges to the hybrid
        # kernel as rho1 -> 0: the dense kernel per 2 pi rho1 approaches
        # the hybrid one (which absorbs the factor 1/2 per plate density)
        probe_value = 5e-5
        m = np.linspace(0.0, 60.0, 4000)
        h_hybrid = fr.friction_hybrid(MediumSpec(Tabulated(m, probe_value * m)),
                                      GOLD, 1.0, 100.0, 300.0).h0
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


def _draw_route(rng, route):
    """A seeded system on one route: (call of gap and speed, gap)."""
    d1 = Drude(float(rng.uniform(3.0, 15.0)), float(rng.uniform(0.005, 0.2)))
    d2 = Drude(float(rng.uniform(3.0, 15.0)), float(rng.uniform(0.005, 0.2)))
    t_k = float(rng.uniform(50.0, 600.0))
    probe = linear_table(float(rng.uniform(1e-5, 1e-4)), m_max=60.0, n=400)
    if route == "hybrid":
        return lambda gap, v: fr.friction_hybrid(  # noqa: E731
            MediumSpec(probe), d1, gap, v, t_k)
    if route == "dilute":
        media = (MediumSpec(probe, float(rng.uniform(0.01, 0.1))),
                 MediumSpec(bump_plate(36), float(rng.uniform(0.01, 0.1))))
        return lambda gap, v: fr.friction_dilute(  # noqa: E731
            fr.PlateSystem(*media, gap, v, t_k))
    if route == "closed":
        return lambda gap, v: fr.friction_drude_closed_form(  # noqa: E731
            fr.PlateSystem(MediumSpec(d1), MediumSpec(d1), gap, v, t_k))
    return lambda gap, v: fr.friction_dense(  # noqa: E731
        fr.PlateSystem(MediumSpec(d1), MediumSpec(d2), gap, v, t_k), route)


@pytest.mark.filterwarnings("ignore:k_B")
@pytest.mark.parametrize("route", ["drop", "keep", "closed", "dilute",
                                   "hybrid"])
def test_force_factorizes(route):
    """F = g * v * H0 exactly, H0 the same for every gap, F exactly
    linear in v, on seeded draws of each route."""
    rng = np.random.default_rng(11)
    for _ in range(3):
        call = _draw_route(rng, route)
        gaps = rng.uniform(0.5, 50.0, 3)
        v = float(rng.uniform(1.0, 1000.0))
        results = [call(float(gap), v) for gap in gaps]
        for res in results:
            assert res.force == res.g * v * res.h0
            assert res.h0 == results[0].h0 and res.h0 > 0.0
        double = call(float(gaps[0]), 2.0 * v)
        assert double.force == 2.0 * results[0].force
        assert call(float(gaps[0]), 0.0).force == 0.0


def test_g_is_a_criterion_3_factor():
    """Each route's G is a closed form of ``geometry`` (checked against
    its quadrature routes by criterion 3), called with the gap in m: the
    dense plates are two half-planes of density 1/(2 pi) (the surface
    response is 2 pi rho alpha), the dilute plates those of their own
    densities; the hybrid probe sees one such half-plane at half weight,
    its spectrum's nm**3 converted to m**3."""
    rng = np.random.default_rng(23)
    probe = linear_table(5e-5, m_max=60.0, n=50)
    half = 1.0 / (2.0 * math.pi)
    for gap, rho1, rho2 in 10.0 ** rng.uniform([-1.0, -3.0, -3.0],
                                               [3.0, 0.0, 0.0], (20, 3)):
        gap, rho1, rho2 = float(gap), float(rho1), float(rho2)
        dense = fr.friction_dense(gold_system(d_nm=gap))
        dilute = fr.friction_dilute(fr.PlateSystem(
            MediumSpec(probe, rho1), MediumSpec(probe, rho2), gap, 100.0,
            300.0))
        hybrid = fr.friction_hybrid(MediumSpec(probe), GOLD, gap, 100.0,
                                    300.0)
        gap_m = gap * units.NM_TO_M
        assert dense.g == geo.g_two_planes(half, half, gap_m)
        assert dilute.g == geo.g_two_planes(rho1, rho2, gap_m)
        assert hybrid.g == (2.0 * geo.g_halfplane(half, gap_m)
                            * units.NM_TO_M ** 3)


@pytest.mark.filterwarnings("ignore:k_B")
@pytest.mark.parametrize("route", ["drop", "keep", "closed", "dilute",
                                   "hybrid"])
def test_result_fields_are_plain(route):
    """Every field is a plain Python scalar: the CLI writes results with
    json, which rejects numpy booleans that == comparisons accept."""
    res = _draw_route(np.random.default_rng(5), route)(10.0, 100.0)
    assert res.converged
    assert [type(getattr(res, name)) for name in (
        "force", "h0", "g", "quadrature_error", "converged",
        "evaluations")] == [float, float, float, float, bool, int]


@pytest.mark.parametrize("denominators, system, spec", [
    ("drop", gold_system(), None), ("keep", gold_system(), None),
    ("keep", table_system(two_bump_plate(36)), TABLE_KEEP_SPEC)],
    ids=["drop", "keep", "table-keep"])
def test_two_spectral_calls_per_force(monkeypatch, denominators, system,
                                      spec):
    """Each density is evaluated once by the probe (with the tail-bound
    point) and once by the single pass of the adaptive rule, on gold and
    on a 36-sample table against a near-gold plate at 150 K.  The
    screening of "keep" (both surface responses and Li4) is evaluated in
    one call, on the probe and that pass together, so what a call of it
    costs whatever its size is paid once per force."""
    densities, screening = [], []
    real = fr.spectral_density
    real_factor = fr._screening_factor

    def counted_density(model):
        sd = real(model)
        calls = []
        densities.append(calls)

        def value(m):
            calls.append(len(m))
            return sd.value(m)

        return dataclasses.replace(sd, value=value)

    def counted_factor(z):
        screening.append(len(z))
        return real_factor(z)

    monkeypatch.setattr(fr, "spectral_density", counted_density)
    monkeypatch.setattr(fr, "_screening_factor", counted_factor)
    res = fr.friction_dense(system, denominators, spec)
    assert res.converged
    assert [len(calls) for calls in densities] == [2, 2]
    assert [sum(calls) for calls in densities] == [res.evaluations] * 2
    assert screening == ([] if denominators == "drop" else [res.evaluations])


class TestOneScreeningCall:
    """``h0_overlap`` evaluates its factor once on the probe and the
    initial panels around the bare product's peak: the same result as
    probing and then integrating, and the same cost where the factor
    leaves the peak where it was."""

    @pytest.mark.parametrize("case", ["keep-gold", "keep-drude-pair",
                                      "keep-table", "keep-table-one-pass"])
    def test_matches_probe_then_integrate(self, monkeypatch, case):
        calls = []
        real = fr.h0_overlap

        def recorded(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(fr, "h0_overlap", recorded)
        if case == "keep-table":
            fr.friction_dense(_plates(bump_plate(24), GOLD, 150.0), "keep")
        elif case == "keep-table-one-pass":
            fr.friction_dense(table_system(two_bump_plate(36)), "keep",
                              TABLE_KEEP_SPEC)
        else:
            PINNED_CALLS[case]()
        (args,) = calls
        assert args[4] is not None  # the screening factor
        got, want = real(*args), probe_then_integrate(*args)
        assert want.converged
        assert (got.value, got.error_estimate, got.converged,
                got.evaluations) == (want.value, want.error_estimate,
                                     want.converged, want.evaluations)

    def test_factor_moves_the_peak(self):
        """A narrow factor at 8 k_B*T lifts the gold product there above
        its bare peak near 0: the panels are built around 8 k_B*T, and
        the nodes evaluated around the bare peak count as evaluations."""
        gold = spectral_density(GOLD)
        beta = units.beta(300.0)
        sizes = {"got": [], "want": []}

        def bump(name):
            def factor(m):
                sizes[name].append(len(m))
                return 1.0 + 1e3 * np.exp(-((m - 8.0 / beta) * 5.0 * beta) ** 2)
            return factor

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = fr.h0_overlap(gold, gold, 300.0, None, bump("got"))
        want = probe_then_integrate(gold, gold, 300.0, None, bump("want"))
        unused = sizes["got"][0] - sizes["want"][0]
        assert unused > 0 and unused % 15 == 0
        assert sizes["got"][1:] == sizes["want"][1:]
        assert want.converged
        assert (got.value, got.error_estimate, got.converged) == (
            want.value, want.error_estimate, want.converged)
        assert got.evaluations == want.evaluations + unused

    def test_screening_factor_is_elementwise(self):
        """Whether a call takes Li4 off the axis or its real-axis limit is
        decided per call; one call now spans the probe and the first
        panels, so the value at each z must not depend on the others."""
        m = np.geomspace(1e-3, 60.0, 40)
        z = np.concatenate((dense_alpha_retarded(GOLD, m)
                            * dense_alpha_retarded(SOFT, m),
                            [0.3 + 0.2j, -0.7 + 0.9j, 1.5j, -3.0 + 0.1j,
                             5.0 + 2.0j, 1e3 - 1e2j]))
        assert np.all(np.abs(z.imag) > fr._STEP * np.maximum(np.abs(z), 1.0))
        alone = fr._screening_factor(z).tobytes()
        for other in ([0.5 + 0j], [-2.0 + 1e-40j], [1.0, 3.0, -1e4],
                      dense_alpha_retarded(GOLD, np.linspace(1.0, 9.0, 200))
                      ** 2):
            other = np.asarray(other, dtype=complex)
            both = fr._screening_factor(np.concatenate((z, other)))
            assert both[:z.size].tobytes() == alone
            both = fr._screening_factor(np.concatenate((other, z)))
            assert both[other.size:].tobytes() == alone

    def test_table_response_is_elementwise(self):
        """A table's retarded response picks its exact or Kronrod form and
        its row blocks per call; the value at each m must not depend on
        the other energies of the call."""
        plate = two_bump_plate(36)
        m = np.geomspace(1e-3, 4.0, 30)  # all in the exact form's reach
        alone = dense_alpha_retarded(plate, m).tobytes()
        far = np.geomspace(1e3, 1e6, 5)
        many = np.linspace(0.01, 4.0, 600)  # past one row block
        for other in (far, many, np.concatenate((far, many))):
            both = dense_alpha_retarded(plate, np.concatenate((m, other)))
            assert both[:m.size].tobytes() == alone
            both = dense_alpha_retarded(plate, np.concatenate((other, m)))
            assert both[other.size:].tobytes() == alone


class TestTableTerms:
    """A table builds the constants of its surface response on its first
    response, keeps them, and frees them with itself."""

    def test_results_do_not_depend_on_built_terms(self):
        """A keep force and the spectra rows are the same, bit for bit, on
        a fresh table and on one whose terms an earlier call built."""
        built = two_bump_plate(36)
        dense_alpha_retarded(built, np.linspace(0.1, 6.0, 7))
        assert "_terms" in vars(built)
        m = np.geomspace(1e-3, 8.0, 50)
        for u in (0.1, 2.0):
            rows = [fr.plane_spectral_products(plate, NEAR_GOLD, m, u)
                    for plate in (two_bump_plate(36), built)]
            assert all(np.array_equal(a, b) for a, b in zip(*rows))
        keep = [fr.friction_dense(table_system(plate), "keep", TABLE_KEEP_SPEC)
                for plate in (two_bump_plate(36), built)]
        assert keep[0] == keep[1]

    def test_spectral_routes_never_build_terms(self):
        plate, probe = two_bump_plate(36), linear_table(5e-5, m_max=60.0, n=400)
        assert fr.friction_dense(table_system(plate)).converged
        assert fr.friction_dilute(fr.PlateSystem(
            MediumSpec(probe, 0.05), MediumSpec(plate, 0.05), 10.0, 100.0,
            300.0)).converged
        assert fr.friction_hybrid(MediumSpec(probe), plate, 10.0, 100.0,
                                  300.0).converged
        assert "_terms" not in vars(plate) and "_terms" not in vars(probe)

    def test_terms_freed_with_the_table(self):
        plate = two_bump_plate(36)
        fr.friction_dense(table_system(plate), "keep", TABLE_KEEP_SPEC)
        refs = weakref.ref(plate), weakref.ref(vars(plate)["_terms"])
        del plate
        assert [ref() for ref in refs] == [None, None]


def lorentz_table(n, centre, scale=1.0):
    """n samples over [0, 4] eV of a Lorentzian 0.4 eV wide at ``centre``
    (eV), height ``scale``, set to 0 at m = 0: plain arithmetic, no
    response of its own."""
    m = np.linspace(0.0, 4.0, n)
    v = scale / (1.0 + ((m - centre) / 0.4) ** 2)
    v[0] = 0.0
    return Tabulated(m, v)


def _plates(m1, m2, t_k, d_nm=10.0, densities=(None, None)):
    return fr.PlateSystem(MediumSpec(m1, densities[0]),
                          MediumSpec(m2, densities[1]), d_nm, 100.0, t_k)


SOFT, STIFF = Drude(5.0, 0.1), Drude(12.0, 0.01)

PINNED_CALLS = {
    "drop-gold": lambda: fr.friction_dense(_plates(GOLD, GOLD, 300.0), "drop"),
    "keep-gold": lambda: fr.friction_dense(_plates(GOLD, GOLD, 300.0), "keep"),
    "drop-drude-pair": lambda: fr.friction_dense(
        _plates(SOFT, STIFF, 77.0), "drop"),
    "keep-drude-pair": lambda: fr.friction_dense(
        _plates(SOFT, STIFF, 900.0, 3.0), "keep"),
    "drop-table-drude": lambda: fr.friction_dense(
        _plates(lorentz_table(36, 1.2), GOLD, 150.0), "drop"),
    "drop-table-drude-hot": lambda: fr.friction_dense(
        _plates(lorentz_table(400, 2.0), SOFT, 1000.0), "drop"),
    "drop-table-table": lambda: fr.friction_dense(
        _plates(lorentz_table(200, 1.2), lorentz_table(48, 2.0), 300.0),
        "drop"),
    "dilute": lambda: fr.friction_dilute(_plates(
        lorentz_table(100, 1.2, 5e-3), lorentz_table(300, 2.0, 2e-3), 300.0,
        densities=(0.05, 0.02))),
    "hybrid-drude": lambda: fr.friction_hybrid(
        MediumSpec(lorentz_table(100, 1.2, 5e-3)), STIFF, 10.0, 100.0, 300.0),
    "hybrid-table": lambda: fr.friction_hybrid(
        MediumSpec(lorentz_table(100, 1.2, 5e-3)), lorentz_table(48, 2.0),
        5.0, 100.0, 150.0),
}

# float.hex of force, H0 and quadrature_error, and evaluations, of each
# call above.  Changes that only make the engine cheaper keep every bit;
# a change that moves these numbers on purpose re-records this table and
# says so.  Recorded with numpy 2.4.6 (scipy-openblas 0.3.31) on an x86-64
# Intel Xeon with AVX-512: np.sinh and vecdot may round differently on
# another CPU or numpy build, and a mismatch there alone means re-recording
# the table on that machine, not a regression.
PINNED = {
    "drop-gold": ("0x1.21868926809dfp-35", "0x1.3ad9d72d46243p-143",
                  "0x1.2106da5318534p-33", 303),
    "keep-gold": ("0x1.5c0f5c092ce13p-35", "0x1.7a816b212f0b9p-143",
                  "0x1.211ca8b41a9cap-33", 303),
    "drop-drude-pair": ("0x1.c5d0b0da46542p-39", "0x1.ed82e946aaa2dp-147",
                        "0x1.21a544b52a349p-33", 318),
    "keep-drude-pair": ("0x1.1be22c4653f7bp-24", "0x1.40137b6a51379p-139",
                        "0x1.11ee10e5b4bd6p-33", 318),
    "drop-table-drude": ("0x1.0c7c95913ced6p-25", "0x1.23f8c4bbcf06bp-133",
                         "0x1.4c29134fe14cbp-27", 392),
    "drop-table-drude-hot": ("0x1.f60b0deb21337p-18",
                             "0x1.10fa9e5e65122p-125",
                             "0x1.5590e71f84f89p-27", 4188),
    "drop-table-table": ("0x1.35e9b4bec23a0p-11", "0x1.51058aec6c7dbp-119",
                         "0x1.2418f8a1b7694p-27", 1518),
    "dilute": ("0x1.19aab703b96e0p-31", "0x1.e4ecadfc5b768p-135",
               "0x1.235af9392a86dp-27", 1428),
    "hybrid-drude": ("0x1.365a66406109fp-91", "0x1.d1e6ee037a12dp-142",
                     "0x1.2c00303b1a6fep-27", 1052),
    "hybrid-table": ("0x1.fe3b05ba4cfa5p-75", "0x1.7efaa14d0acd0p-130",
                     "0x1.4ca0512ad3d73p-27", 738),
}


@pytest.mark.parametrize("case", sorted(PINNED))
def test_pinned_bits(case):
    res = PINNED_CALLS[case]()
    assert res.converged
    assert (res.force.hex(), res.h0.hex(), res.quadrature_error.hex(),
            res.evaluations) == PINNED[case]
