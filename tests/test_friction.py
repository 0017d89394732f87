import dataclasses
import math
import warnings
import weakref

import numpy as np
import pytest

from casfric import dielectric
from casfric import friction as fr
from casfric import geometry as geo
from casfric import units
from casfric.dielectric import (Drude, MediumSpec, Tabulated, Vacuum,
                                dense_alpha_retarded, spectral_density)
from casfric.errors import (DeltaLineError, DomainError, UnsupportedModelError)
from casfric.polylog import LI4_REL_ERR, li4
from casfric.quadrature import (IntegralResult, QuadratureSpec,
                                integrate_finite, integrate_semi_infinite)

GOLD = Drude(9.0, 0.035)
EP = math.sqrt(0.5) * 9.0
GOLD_MED = MediumSpec(GOLD)
PLASMA = Drude(9.0, 0.0)  # collisionless: one line at EP
# The range error of an overlap integrand at 300 K.
OUT_OF_RANGE_300K = (r"^the overlap integrand leaves the float range at "
                     r"T_K = 300\.0 K$")


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
    return Tabulated(m, v * 0.5 / Tabulated(m, v).static_response)


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


def nested_keep_h0(overlap_h0, model1, model2, t_k):
    """Oracle of the screened kernel: the transverse-mode integral
    (8/3) * int u^3 e^{-2u} H0(u) du done numerically over the
    mode-resolved kernel H0(u), the ``overlap_h0`` oracle times
    ``mode_factor``, inner rel_tol 1e-9 and outer 1e-7."""
    scale = overlap_h0(t_k, model1, model2).value
    inner_spec = QuadratureSpec(rel_tol=1e-9)

    def outer(u_vals):
        out = np.empty(len(u_vals))
        for i, u in enumerate(u_vals):
            inner = overlap_h0(t_k, model1, model2, inner_spec,
                               mode_factor(model1, model2, u))
            out[i] = (8.0 / 3.0) * u ** 3 * math.exp(-2.0 * u) \
                * inner.value / scale
        return out

    res = integrate_semi_infinite(outer, decay_scale=0.5,
                                  spec=QuadratureSpec(rel_tol=1e-7))
    assert res.converged
    return res.value * scale


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


@pytest.mark.parametrize("model", [GOLD, Drude(3.0, 0.5)],
                         ids=["gold", "drude-3-0.5"])
@pytest.mark.parametrize("t_k", [1e80, 1e120, 1e150, 1e200, 1e300, 1e308])
def test_high_temperature_limit(model, t_k, overlap_limits):
    """For k_B*T far above e_p, 1/sinh(beta*m/2)**2 -> 4/(beta*m)**2 across
    the spectrum, so H0 -> 2*pi*hbar*k_B*T * integral of S1*S2/m**2 dm, up
    to the temperature the float range allows; the first omitted term,
    of relative order (e_p/k_B T)**2, is below 1e-150 here.  The dense
    drop route meets it within the sum of the two error estimates."""
    limits = overlap_limits(t_k, model, model)
    res = fr.friction_dense(_plates(model, model, t_k), "drop")
    assert res.converged
    assert abs(res.h0 / limits.classical - 1.0) <= (res.quadrature_error
                                                   + limits.rel_err)


@pytest.mark.parametrize("top", [10.0 ** -k for k in range(100, 301, 25)])
def test_small_support_limit(top, overlap_limits):
    """A table whose support ends far below k_B*T, against gold, which is
    linear there: H0 -> pi*hbar*k_B*T * S_gold'(0) * A(0) of the table,
    for every scale of its grid down to 1e-300 eV; the first omitted
    terms, of relative order (top/k_B T)**2, are below 1e-190 here."""
    table = Tabulated(np.array([0.0, 0.5 * top, top]),
                      np.array([0.0, 1e-3, 0.0]))
    limits = overlap_limits(300.0, table, GOLD)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = fr.friction_dense(_plates(table, GOLD, 300.0), "drop")
    assert res.converged
    assert abs(res.h0 / limits.small_support - 1.0) <= (res.quadrature_error
                                                       + limits.rel_err)


def drude_pairs(rng, count):
    """``count`` Drude pairs drawn from ``rng``: plasma 3-15 eV, damping
    1e-3-0.3 eV (log-uniform)."""
    for _ in range(count):
        ep, gamma = rng.uniform(3.0, 15.0, 2), np.exp(
            rng.uniform(math.log(1e-3), math.log(0.3), 2))
        yield Drude(ep[0], gamma[0]), Drude(ep[1], gamma[1])


def test_drude_scale_covariance():
    """Scaling e_p, the damping and T of a Drude pair by 2**k scales every
    floating-point step of a route exactly.  So H0, quadrature_error,
    evaluations and converged of drop and keep, and the closed form's H0
    and note, are those of the unscaled pair, bit for bit.  The spec is
    relative only: the default abs_tol bounds an integral in eV, so it
    does not scale (ROADMAP item 3).  At the default spec, drop on
    Drude(3.7930080967868802, 0.005992837853670594) and
    Drude(5.7654718946724195, 0.016948616273108345) at 928.6036711832687 K
    takes 378 evaluations, and scaled by 2**-16 it stops a pass early, at
    318, with H0 2.3e-9 apart."""
    rng = np.random.default_rng(14)
    spec = QuadratureSpec(abs_tol=1e-300)

    def scaled(model, lam):
        return Drude(model.plasma_energy_ev * lam, model.damping_ev * lam)

    def routes(m1, m2, t_k):
        out = [dataclasses.astuple(fr.friction_dense(
            _plates(m1, m2, t_k), mode, spec))[2:]
            for mode in ("drop", "keep")]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)
            closed = fr.friction_drude_closed_form(_plates(m1, m1, t_k))
        return out + [(closed.h0, closed.note)]

    for m1, m2 in drude_pairs(rng, 60):
        t_k, lam = rng.uniform(30.0, 1000.0), 2.0 ** int(rng.integers(-20, 21))
        want = routes(m1, m2, t_k)
        got = routes(scaled(m1, lam), scaled(m2, lam), t_k * lam)
        assert repr(got) == repr(want), (m1, m2, t_k, lam)


@pytest.mark.parametrize("partner", ["drude", "table", "vacuum"])
def test_vacuum_scale_covariance(partner):
    """A vacuum medium states no spectral feature, so scaling its
    partner and T by 2**k leaves every step of the overlap scaled: drop
    and keep give H0 0.0, converged, in one number of evaluations for
    every k.  A fixed hint at 1 eV, which vacuum once stated, took 303,
    302 and 318 evaluations at k = 0, -10 and 10 against the table."""
    spec = QuadratureSpec(1e-300, 1e-8)
    models = {"drude": lambda lam: Drude(9.0 * lam, 0.035 * lam),
              "table": lambda lam: Tabulated(np.array([0.0, 1.0, 4.0]) * lam,
                                             np.array([0.0, 0.2, 0.0])),
              "vacuum": lambda lam: Vacuum()}
    counts = set()
    for k in (0, -10, 10, -20, 20):
        lam = 2.0 ** k
        for mode in ("drop", "keep"):
            res = fr.friction_dense(_plates(Vacuum(), models[partner](lam),
                                            300.0 * lam), mode, spec)
            assert res.h0 == 0.0 and res.converged, (k, mode)
            counts.add(res.evaluations)
    assert len(counts) == 1, counts


def lorentzian_columns(rng):
    """Columns of a seeded table: 50 to 800 samples over about 4 eV, one
    or two Lorentzians a tenth of the top wide, cut to 0 at m = 0."""
    n, top = int(rng.integers(50, 801)), rng.uniform(3.9, 4.1)
    centres = rng.uniform(0.15, 0.6, int(rng.integers(1, 3))) * top
    m = np.linspace(0.0, top, n)
    v = sum(1.0 / (1.0 + ((m - c) / (0.1 * top)) ** 2) for c in centres)
    v[0] = 0.0
    return m, v


def test_medium_swap_is_exact():
    """The overlap integrand (S1/d)*(S2/d) is symmetric bit for bit, and
    keep forms z = A1*A2 with the two models in one order, so exchanging
    the two media leaves H0, quadrature_error, evaluations and converged
    unchanged: drop and keep on 200 seeded Drude pairs, and drop and
    dilute on 60 seeded pairs of tables of 50 to 800 samples, one or two
    Lorentzians over about 4 eV, drop also against a Drude plate.  keep,
    whose cost grows with the table, runs on the first 8 of those pairs
    and their Drude partners, each table scaled to A(0) = 1/1.1, so that
    z(0) <= 1."""
    rng = np.random.default_rng(37)

    def table(scale):
        m, v = lorentzian_columns(rng)
        return Tabulated(m, scale * v)

    def swapped(route, m1, m2, t_k, densities=(None, None)):
        out = []
        for pair, rho in (((m1, m2), densities), ((m2, m1), densities[::-1])):
            res = route(_plates(*pair, t_k, densities=rho))
            out.append((res.h0, res.quadrature_error, res.evaluations,
                        res.converged))
        return out

    def drop(system):
        return fr.friction_dense(system, "drop")

    def keep(system):
        return fr.friction_dense(system, "keep")

    for m1, m2 in drude_pairs(rng, 200):
        t_k = rng.uniform(30.0, 1000.0)
        for route in (drop, keep):
            first, second = swapped(route, m1, m2, t_k)
            assert first == second, (route, m1, m2)

    def below_pole(plate):
        return Tabulated(plate.m_ev,
                         plate.values / (1.1 * plate.static_response))

    for i in range(60):
        t_k, drude = rng.uniform(30.0, 1000.0), next(drude_pairs(rng, 1))[0]
        plate1, plate2 = table(0.3), table(0.3)
        cases = [(drop, plate1, plate2, (None, None)),
                 (drop, plate1, drude, (None, None)),
                 (fr.friction_dilute, table(5e-3), table(5e-3), (0.05, 0.02))]
        if i < 8:
            plate1, plate2 = below_pole(plate1), below_pole(plate2)
            cases += [(keep, plate1, plate2, (None, None)),
                      (keep, plate1, drude, (None, None))]
        for route, m1, m2, rho in cases:
            first, second = swapped(route, m1, m2, t_k, rho)
            assert first == second, (route, m1, m2, t_k)


@pytest.mark.parametrize("t_k", [0.1, 0.03])
def test_low_temperature_limits(t_k, overlap_limits):
    """At the tight spec, drop lies within its claimed error (about 4e-14)
    of the limit with its correction: the correction is 3e-12 to 1.3e-10
    at 0.1 K, the next term below 1e-20.  keep/drop at the default spec
    lies within the two claimed errors (about 1.3e-10 each) of zeta(3):
    its own correction is of order (k_B T/e_p)**2, below 3e-11 here."""
    for m1, m2 in drude_pairs(np.random.default_rng(15), 6):
        limits = overlap_limits(t_k, m1, m2)
        drop_h0, ratio = limits.low_t, limits.keep_ratio
        system = _plates(m1, m2, t_k)
        tight = fr.friction_dense(system, "drop",
                                  QuadratureSpec(1e-300, 1e-12))
        assert tight.converged
        assert abs(tight.h0 - drop_h0) <= tight.quadrature_error * tight.h0
        drop, keep = (fr.friction_dense(system, mode)
                      for mode in ("drop", "keep"))
        assert keep.converged and drop.converged
        assert abs(keep.h0 / drop.h0 - ratio) <= (
            keep.quadrature_error + drop.quadrature_error) * ratio


def low_t_tables(kind):
    """kinked-0.5, whose density is flat to 1e-17 at m = 0, or four
    seeded ``lorentzian_columns`` tables, scaled to A(0) from 0.2 to 0.9."""
    if kind == "kinked-0.5":
        return [kinked_table(0.5)]
    rng = np.random.default_rng(15)
    tables = []
    for _ in range(4):
        m, v = lorentzian_columns(rng)
        a0 = rng.uniform(0.2, 0.9)
        tables.append(Tabulated(m, v * a0 / Tabulated(m, v).static_response))
    return tables


@pytest.mark.parametrize("t_k", [0.1, 0.03])
@pytest.mark.parametrize("kind", [
    "kinked-0.5",
    pytest.param("seeded", marks=pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 10: a table's response is taken at "
        "zeta = -m**2 + i*gamma, gamma = 1e-6*m_top; at thermal energies "
        "m << sqrt(gamma) that is A(i*gamma), not A(-m**2), so keep/drop "
        "misses the limit by 1.4e-3 to 3.8e-3 at 0.1 and 0.03 K alike, "
        "against claims of 3e-10; with gamma scaled by 1e-14 each case "
        "meets it")))])
def test_keep_low_temperature_limit_for_tables(kind, t_k, overlap_limits):
    """keep/drop of a table against gold tends to Li3(z0)/z0 as T -> 0,
    z0 = A1(0)*A2(0) = A_table(0): 1.0744263872 for kinked-0.5.  At the
    default spec each result lies within the two claimed errors (about
    1.3e-10 each), the oracle's, and the (k_B T)**2 term after the limit
    (1.4e-11 for kinked-0.5 at 0.1 K, which it meets to 1e-13)."""
    for table in low_t_tables(kind):
        limits = overlap_limits(t_k, table, GOLD)
        if kind == "kinked-0.5":
            assert limits.keep_ratio == pytest.approx(1.0744263872, abs=1e-10)
        system = _plates(table, GOLD, t_k)
        drop, keep = (fr.friction_dense(system, mode)
                      for mode in ("drop", "keep"))
        assert keep.converged and drop.converged
        ratio = limits.keep_ratio
        assert abs(keep.h0 / drop.h0 - ratio) <= (
            keep.quadrature_error + drop.quadrature_error + limits.keep_err
            + abs(limits.keep_next)) * ratio, table


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

    def test_unknown_route_rejected(self):
        with pytest.raises(DomainError, match=r"^unknown route 'bogus'$"):
            fr.h0_integrand("bogus", gold_system(), "drop", np.array([1.0]))

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
    narrower than any panel the probe builds.  The oracle, ``overlap_h0``,
    splits the overlap integral at e_sp +- 10^k * gamma, k = 0..6."""

    MEDIUM = Drude(3.0, 1e-6)

    def oracle(self, overlap_h0, spec=QuadratureSpec()):
        """(force, its claimed absolute error) of G*v*H0, line bracketed."""
        h0 = overlap_h0(3000.0, self.MEDIUM, self.MEDIUM, spec)
        g = geo.g_two_planes(fr._DENSE_DENSITY, fr._DENSE_DENSITY, 1e-8)
        return g * 100.0 * h0.value, g * 100.0 * h0.error_estimate

    def test_oracle(self, overlap_h0):
        force, err = self.oracle(overlap_h0)
        tight, tight_err = self.oracle(overlap_h0,
                                       QuadratureSpec(1e-300, 1e-11))
        assert force == pytest.approx(74.84484, rel=1e-6)
        assert abs(force - tight) <= err + tight_err

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
        "ROADMAP item 2: the probe steps over the line; default spec: "
        "37.42 Pa, converged, claimed 4.9e-10; tight spec: 37.42 Pa, "
        "claimed 9.7e-11; the oracle: 74.84484 Pa"))
    @pytest.mark.parametrize("spec", [None, QuadratureSpec(1e-300, 1e-10)],
                             ids=["default", "tight"])
    def test_converged_result_is_honest(self, overlap_h0, spec):
        force, err = self.oracle(overlap_h0)
        res = fr.friction_dense(_plates(self.MEDIUM, self.MEDIUM, 3000.0),
                                "drop", spec)
        if res.converged:
            assert abs(res.force - force) \
                <= res.quadrature_error * force + err


class TestNarrowCoupledLine:
    """The mode-resolved kernel ``h0_dense_at_u`` with ``keep`` against an
    oracle split around every line of the screened product: the surface
    plasmon e_sp, which ``overlap_h0`` brackets at +- 10^k * gamma,
    k = 0..6, and the coupled modes e_sp*sqrt(1 -+ e^{-u}), each bracketed
    at +- 10^k * gamma, k = 0..5."""

    @pytest.mark.parametrize("model,t_k,u", [
        (Drude(3.0, 1e-6), 1000.0, 2.0),
        (Drude(3.0, 1e-6), 3000.0, 2.0),
        (GOLD, 300.0, 0.3),
    ], ids=["narrow-1000K", "narrow-3000K", "gold"])
    def test_claimed_error_is_honest(self, overlap_h0, model, t_k, u):
        h0 = fr.h0_dense_at_u(model, model, t_k, u, "keep")
        e_sp = model.plasma_energy_ev / math.sqrt(2.0)
        centres = [e_sp * math.sqrt(1.0 + sign * math.exp(-u))
                   for sign in (-1.0, 1.0)]
        oracle = overlap_h0(
            t_k, model, model, QuadratureSpec(1e-300, 1e-11, 200_000),
            mode_factor(model, model, u), [
                c + sign * 10.0 ** k * model.damping_ev
                for c in centres for k in range(6) for sign in (-1.0, 1.0)])
        assert h0.converged
        assert abs(h0.value - oracle.value) \
            <= h0.error_estimate + oracle.error_estimate


class TestNarrowScreenedLine:
    """The screened force of a nearly undamped Drude pair (``keep``, 10 nm,
    100 m/s) against ``overlap_h0`` with the screening factor, split around
    the surface plasmon e_p/sqrt(2), bracketed at +- 10^k * gamma,
    k = 0..6, and the plasma energy e_p, bracketed at k = 0..5."""

    @pytest.mark.parametrize("t_k", [1000.0, 3000.0], ids=["1000K", "3000K"])
    def test_converged_result_is_honest(self, overlap_h0, t_k):
        model = Drude(3.0, 1e-6)
        res = fr.friction_dense(_plates(model, model, t_k), "keep")

        def screening(m):
            return fr._screening_factor(dense_alpha_retarded(model, m)
                                        * dense_alpha_retarded(model, m))

        oracle = overlap_h0(
            t_k, model, model, QuadratureSpec(1e-300, 1e-11, 200_000),
            screening, [model.plasma_energy_ev + sign * 10.0 ** k
                        * model.damping_ev
                        for k in range(6) for sign in (-1.0, 1.0)])
        assert res.converged
        assert abs(res.h0 - oracle.value) \
            <= res.quadrature_error * res.h0 + oracle.error_estimate


class TestScreenedClosedForm:
    """``denominators="keep"``: the closed-form transverse-mode average
    Im Li4(z)/Im z against the nested u-integral and its own limits."""

    @pytest.mark.parametrize("case", ["gold", "mixed-drude", "tabulated"])
    def test_keep_matches_nested_oracle(self, overlap_h0, case):
        model1, model2, t_k = {
            "gold": (GOLD, GOLD, 300.0),
            "mixed-drude": (GOLD, Drude(5.0, 0.1), 300.0),
            "tabulated": (bump_plate(24), GOLD, 150.0),
        }[case]
        keep = fr.friction_dense(fr.PlateSystem(
            MediumSpec(model1), MediumSpec(model2), 10.0, 100.0, t_k), "keep")
        assert keep.converged
        assert keep.h0 == pytest.approx(nested_keep_h0(overlap_h0, model1, model2,
                                                       t_k),
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

    def test_pole_makes_keep_raise(self, monkeypatch):
        # z = 1.44 on every node: the factor and the scale are inf, which
        # the overlap reports without a RuntimeWarning
        monkeypatch.setattr(fr, "_alpha_retarded",
                            lambda model, m: np.full(np.shape(m), 1.2 + 0j))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match=OUT_OF_RANGE_300K):
                fr.friction_dense(gold_system(), "keep")

    @pytest.mark.parametrize("case", ["table", "drude-pair"])
    def test_responses_once_a_pass_on_the_nodes(self, case, monkeypatch):
        """``keep`` forms A on the engine's nodes as they are: one
        ``_alpha_retarded`` call per medium in each pass (one screening
        call), in either order, and none through ``dense_alpha_retarded``,
        which checks its energies."""
        medium1, medium2, t_k = {
            "table": (MediumSpec(bump_plate(36)), MediumSpec(NEAR_GOLD), 150.0),
            "drude-pair": (GOLD_MED, MediumSpec(Drude(5.0, 0.1)), 300.0),
        }[case]
        calls, passes = [], []
        respond, screen = fr._alpha_retarded, fr._screening_factor

        def counted_response(model, m):
            calls.append((len(passes), id(model)))
            return respond(model, m)

        def counted_screening(z):
            passes.append(z.size)
            return screen(z)

        def refused(model, m):
            raise AssertionError("dense_alpha_retarded called")

        monkeypatch.setattr(fr, "_alpha_retarded", counted_response)
        monkeypatch.setattr(fr, "_screening_factor", counted_screening)
        monkeypatch.setattr(fr, "dense_alpha_retarded", refused)
        monkeypatch.setattr(dielectric, "dense_alpha_retarded", refused)
        # a tight tolerance, so that the engine bisects after its first pass
        fr.friction_dense(fr.PlateSystem(medium1, medium2, 10.0, 100.0, t_k),
                          "keep", QuadratureSpec(1e-300, 1e-12))
        assert len(passes) >= 2
        assert sorted(calls) == sorted((p, id(medium.model))
                                       for p in range(len(passes))
                                       for medium in (medium1, medium2))


def kinked_table(a0=None):
    """The 400-sample kinked table m*exp(-(m-2)**2/0.1) on [0, 4] eV,
    static response A(0) = 1.121, or scaled to A(0) = ``a0``."""
    m = np.linspace(0.0, 4.0, 400)
    v = m * np.exp(-(m - 2.0) ** 2 / 0.1)
    if a0 is not None:
        v *= a0 / Tabulated(m, v).static_response
    return Tabulated(m, v)


class TestStaticCoupling:
    """``keep`` needs z(0) = A1(0)*A2(0) <= 1: past it the screening has a
    non-integrable pole at u = ln(z(0))/2 and the kernel is infinite."""

    def test_static_response_is_the_sum_rule(self, static_response_oracle):
        # A(0) = 2 * integral of S/m dm by the test-owned split quadrature,
        # within its error, floored at 1e-15 as ``overlap_limits`` floors it.
        # A Drude model's A(0) is exactly 1, so those cases, lines down to
        # 1e-4 eV wide among them, check the oracle's own claim.
        for model in (GOLD, Drude(4.0, 0.2), Drude(3.0, 1e-3),
                      Drude(15.0, 0.005), Drude(3.0, 1e-4), Drude(3.0, 0.5),
                      bump_plate(24), kinked_table()):
            value, rel_err = static_response_oracle(model)
            assert abs(model.static_response - value) \
                <= max(rel_err, 1e-15) * value, model

    def test_kinked_table_against_gold_raises(self):
        table = kinked_table()
        assert table.static_response == pytest.approx(1.121, abs=5e-4)
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
        assert table.static_response == 1.0
        res = fr.friction_dense(fr.PlateSystem(
            MediumSpec(table), GOLD_MED, 10.0, 100.0, 150.0), "keep")
        assert math.isfinite(res.force) and res.force > 0.0

    def test_static_alpha_of_tiny_nodes(self):
        # m**2 underflowed to 0 on nodes below ~1.5e-162 eV: z(0) was nan
        # after "invalid value encountered in subtract"
        table = Tabulated(np.array([1e-171, 1e-170, 2e-170]),
                          np.array([0.0, 1e-3, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(table.static_response)

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

    def test_no_peak_hint_on_either_side(self):
        # vacuum and a table of zeros from m = 0 state no feature: with no
        # hint on either side the cap is the thermal window alone, where
        # max() of the window and no hints raised a TypeError
        zeros = Tabulated(np.array([0.0, 1.0]), np.zeros(2))
        s_zeros, s_vacuum = spectral_density(zeros), spectral_density(Vacuum())
        assert s_zeros.peak_hint == s_vacuum.peak_hint == 0.0
        for partner in (s_zeros, s_vacuum):
            res = fr.h0_overlap(s_zeros, partner, 300.0)
            assert (res.value, res.error_estimate, res.converged) == (
                0.0, 0.0, True)
        res = fr.friction_dilute(_plates(zeros, zeros, 300.0,
                                         densities=(1.0, 1.0)))
        assert (res.h0, res.converged) == (0.0, True)

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

    def test_peak_hint_far_below_k_t(self, overlap_limits):
        # the hint at 1e-200 eV is a probe and split point, where the
        # weight 1/sinh**2 overflowed.  Below k_B*T the integrand runs as
        # 1/m over 198 decades, which the default abs_tol passes unresolved
        # (ROADMAP item 3): at a relative tolerance only, the route meets
        # the oracle, with no warning.
        table = Tabulated(np.array([1e-200, 1.0]), np.array([1e-3, 0.0]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = fr.friction_dense(_plates(table, GOLD, 300.0), "drop",
                                    QuadratureSpec(1e-300, 1e-10))
        limits = overlap_limits(300.0, table, GOLD)
        assert res.converged
        assert abs(res.h0 / limits.exact - 1.0) <= (res.quadrature_error
                                                   + limits.rel_err)

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
    """The screened spectral product of one transverse mode u, integrated
    by ``h0_dense_at_u``."""

    def test_u_must_be_positive(self):
        with pytest.raises(DomainError, match="u must be > 0"):
            fr.h0_dense_at_u(GOLD, GOLD, 300.0, 0.0)


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
    one call, on that pass's 195 nodes and the tail-bound point, so what
    a call of it costs whatever its size is paid once per force, and
    never on the probe."""
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
    assert screening == ([] if denominators == "drop" else [196])


def counted_overlap(s1, s2, temperature_k, spec, extra_factor):
    """``h0_overlap`` on these arguments -> its result and the sizes of
    the calls of ``s1.value`` and of the factor."""
    density, screening = [], []

    def value(m):
        density.append(len(m))
        return s1.value(m)

    def factor(m):
        screening.append(len(m))
        return extra_factor(m)

    res = fr.h0_overlap(dataclasses.replace(s1, value=value), s2,
                        temperature_k, spec, factor)
    return res, density, screening


def one_factor_call_a_pass(res, density, screening):
    """The call structure of ``h0_overlap`` with a factor: the density
    once on the bare probe, then once a pass, and the factor with it on
    the same points, the first time that pass's nodes and the tail-bound
    point; each abscissa counted once in ``evaluations``."""
    probe, *passes = density
    assert screening == passes
    assert res.evaluations == sum(density)


# The tail-bound point of an overlap, in units of its cap.
PAST_CAP = 1.0 + 1e-9


def probe_then_integrate(s1, s2, temperature_k, spec, extra_factor):
    """The twin of ``h0_overlap`` that ``test_matches_probe_then_integrate``
    holds it to: the integrand, factor included, on a probe grid (97
    points from 1e-9 to 1 of the cap, and k/beta, k = 1..8) in one call,
    then the adaptive rule on panels built around that probed peak, the
    factor evaluated anew on every pass, and the tail bound.
    ``h0_overlap`` probes the bare product instead and takes its scale
    and tail value from the nodes of its first pass: the two agree to
    rounding, not bit for bit."""
    spec = spec or QuadratureSpec()
    beta = units.beta(temperature_k)
    window = 40.0 / beta
    hints = [h for h in (s1.peak_hint, s2.peak_hint) if h > 0.0]
    m_cap = min(max(window, 10.0 * s1.peak_hint, 10.0 * s2.peak_hint),
                s1.support_max, s2.support_max)
    pref = 0.5 * math.pi * beta * units.HBAR_JS
    half_beta = 0.5 * beta

    def integrand(m):
        # 1/sinh(x)**2 with x clipped below sinh's overflow, where the
        # weight has long underflowed to 0
        csch2 = np.sinh(np.minimum(half_beta * m, 700.0)) ** -2.0
        return pref * s1.value(m) * s2.value(m) * csch2 * extra_factor(m)

    grid = sorted([*(m_cap * np.geomspace(1e-9, 1.0, 97)),
                   *(k / beta for k in range(1, 9) if k / beta < m_cap),
                   *(h for h in hints if h < m_cap)])
    vals = integrand(np.array(grid + [m_cap * PAST_CAP]))
    peak = int(np.argmax(np.abs(vals[:-1])))
    scale = float(abs(vals[peak]))
    assert 0.0 < scale < math.inf
    m_star = grid[peak]
    splits = [*hints, 0.1 * m_star, m_star, 10.0 * m_star, window,
              *(2.0 ** k / beta for k in range(-1, 6))]
    res = integrate_finite(lambda m: integrand(m) / scale, 0.0, m_cap, spec,
                           split_points=splits)
    tail_bound = abs(float(vals[-1]) / scale) / beta * 2.0
    return IntegralResult(
        res.value * scale, (res.error_estimate + tail_bound) * scale,
        res.evaluations + len(vals),
        res.converged and (res.value == 0.0
                           or tail_bound <= spec.target(res.value)))


class TestOneScreeningCall:
    """``h0_overlap`` probes the bare product, builds its initial panels
    around its peak and calls its factor once per pass of the adaptive
    rule, with the densities, the first time on that pass's nodes and the
    tail-bound point, never on the probe.  The scale is the peak of the
    screened integrand on those nodes, the tail value the screened one at
    that point.  Where the factor leaves the peak where it was, the result
    is that of probing with the factor and then integrating, to
    rounding."""

    @staticmethod
    def overlap_args(monkeypatch, call):
        """The arguments of the one ``h0_overlap`` call of ``call()``."""
        calls = []
        real = fr.h0_overlap

        def recorded(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(fr, "h0_overlap", recorded)
        call()
        (args,) = calls
        assert args[4] is not None  # the screening factor
        return args

    @pytest.mark.parametrize("case", ["keep-gold", "keep-drude-pair",
                                      "keep-table", "keep-table-one-pass"])
    def test_matches_probe_then_integrate(self, monkeypatch, case):
        if case == "keep-table-one-pass":
            args = self.overlap_args(monkeypatch, lambda: fr.friction_dense(
                table_system(two_bump_plate(36)), "keep", TABLE_KEEP_SPEC))
        else:
            args = self.overlap_args(monkeypatch, PINNED_CALLS[case])
        got, density, screening = counted_overlap(*args)
        want = probe_then_integrate(*args)
        one_factor_call_a_pass(got, density, screening)
        assert want.converged
        assert (got.converged, got.evaluations) == (want.converged,
                                                    want.evaluations)
        assert abs(got.value - want.value) <= 1e-15 * abs(want.value)

    @pytest.mark.parametrize("case, passes, evaluations", [
        ("keep-gold", 1, 303), ("keep-table", 4, 392)])
    def test_one_call_per_pass(self, monkeypatch, case, passes, evaluations):
        res, density, screening = counted_overlap(
            *self.overlap_args(monkeypatch, PINNED_CALLS[case]))
        assert res.converged
        assert len(screening) == len(density) - 1 == passes
        one_factor_call_a_pass(res, density, screening)
        assert res.evaluations == evaluations

    @pytest.mark.parametrize("case", ["keep-gold", "keep-drude-pair",
                                      "keep-table", "keep-vacuum"])
    def test_first_factor_call_rides_in_the_first_pass(self, monkeypatch,
                                                       case):
        """Recorded through wrappers: the probe (the first call of a
        density) is bare and holds no tail point, since it ends at the
        cap; inside the engine's first integrand call the density and
        then the factor each receive exactly that call's nodes followed
        by the tail-bound point, the cap times 1 + 1e-9, bit for bit.
        Two vacua state no peak, so their cap is the thermal window."""
        calls = {**PINNED_CALLS, "keep-vacuum": lambda: fr.friction_dense(
            _plates(Vacuum(), Vacuum(), 300.0), "keep")}
        s1, s2, t_k, spec, factor = self.overlap_args(monkeypatch, calls[case])
        events = []

        def value(m):
            events.append(("density", m.copy()))
            return s1.value(m)

        def recorded_factor(m):
            events.append(("factor", m.copy()))
            return factor(m)

        real_integrate = fr.integrate_finite

        def integrate(f, *args, **kwargs):
            def recorded(x):
                events.append(("engine", x.copy()))
                return f(x)

            return real_integrate(recorded, *args, **kwargs)

        monkeypatch.setattr(fr, "integrate_finite", integrate)
        res = fr.h0_overlap(dataclasses.replace(s1, value=value), s2, t_k,
                            spec, recorded_factor)
        assert res.converged
        assert [kind for kind, _ in events[:4]] == [
            "density", "engine", "density", "factor"]
        probe, nodes, first_density, first_factor = (x for _, x in events[:4])
        m_cap = min(max(40.0 / units.beta(t_k), 10.0 * s1.peak_hint,
                        10.0 * s2.peak_hint), s1.support_max, s2.support_max)
        assert probe.max() == m_cap
        first = np.append(nodes, m_cap * PAST_CAP).tobytes()
        assert first_density.tobytes() == first_factor.tobytes() == first

    def test_factor_moves_the_peak(self, overlap_h0):
        """A narrow factor at 8 k_B*T lifts the gold product there above
        its bare peak near 0.  The panels stay around the bare peak, the
        factor is called once a pass on them, and the value stays within
        the two error estimates of ``overlap_h0`` with the factor, split
        at 8 k_B*T."""
        gold = spectral_density(GOLD)
        beta = units.beta(300.0)

        def bump(m):
            return 1.0 + 1e3 * np.exp(-((m - 8.0 / beta) * 5.0 * beta) ** 2)

        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got, density, screening = counted_overlap(gold, gold, 300.0, None,
                                                      bump)
        want = overlap_h0(300.0, GOLD, GOLD, QuadratureSpec(), bump)
        one_factor_call_a_pass(got, density, screening)
        assert got.evaluations == 573
        assert got.converged and want.converged
        assert abs(got.value - want.value) <= (got.error_estimate
                                               + want.error_estimate)

    def test_zero_scale_counts_every_point(self, monkeypatch):
        """A vacuum partner makes the screened first-pass nodes zero: the
        result returns early after that pass and counts every point the
        probe and that pass evaluated."""
        res, density, screening = counted_overlap(
            *self.overlap_args(monkeypatch, lambda: fr.friction_dense(
                _plates(GOLD, Vacuum(), 300.0), "keep")))
        assert (res.value, res.converged) == (0.0, True)
        assert (len(density), len(screening)) == (2, 1)
        one_factor_call_a_pass(res, density, screening)

    def test_non_finite_scale_counts_every_point(self):
        """A factor that is infinite below k_B*T, on nodes of the first
        pass, makes the scale infinite: the engine stops after that pass,
        with the density called on the probe and on that pass's points and
        the factor once on the same points, and the overlap raises its
        range error."""
        gold = spectral_density(GOLD)
        kt = 1.0 / units.beta(300.0)
        density, screening = [], []

        def value(m):
            density.append(len(m))
            return gold.value(m)

        def factor(m):
            screening.append(len(m))
            return np.where(m < kt, math.inf, 1.0)

        with pytest.raises(DomainError, match=OUT_OF_RANGE_300K):
            fr.h0_overlap(dataclasses.replace(gold, value=value), gold, 300.0,
                          None, factor)
        probe, first_pass = density
        assert screening == [first_pass]

    def test_screening_factor_is_elementwise(self):
        """Whether a call takes Li4 off the axis or its real-axis limit is
        decided per call; one call spans the first panels and the tail
        point, so the value at each z must not depend on the others."""
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

    def test_off_axis_factor_is_li4_over_im_z(self):
        """Off the axis the factor hands Li4 the |z| it has formed; its
        bits are those of li4, which forms |z| itself, over Im z."""
        rng = np.random.default_rng(34)
        z = 10.0 ** rng.uniform(-8.0, 8.0, 600) \
            * np.exp(1j * rng.uniform(0.1, 3.0, 600))
        z = np.concatenate((z, z.conj(), [0.5j, -0.5j, 2j, -2j, 0.5 + 0.5j,
                                          -2.0 + 2.0j, 1e8j, 1e-9j]))
        # every point clears the step of the largest |z|
        assert np.abs(z.imag).min() >= fr._STEP * np.abs(z).max()
        want = li4(z).imag / z.imag
        got = fr._screening_factor(z)
        assert got.tobytes() == want.tobytes()

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
        """A keep force and its integrand's columns are the same, bit for
        bit, on a fresh table and on one whose terms an earlier call
        built."""
        built = two_bump_plate(36)
        dense_alpha_retarded(built, np.linspace(0.1, 6.0, 7))
        assert "_terms" in vars(built)
        m = np.geomspace(1e-3, 8.0, 50)
        columns = [fr.h0_integrand("dense-full", table_system(plate), "keep", m)
                   for plate in (two_bump_plate(36), built)]
        assert columns[0].keys() == columns[1].keys()
        assert all(columns[0][key].tobytes() == columns[1][key].tobytes()
                   for key in columns[0])
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
    "keep-table": lambda: fr.friction_dense(
        _plates(bump_plate(24), GOLD, 150.0), "keep"),
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
# call above, by target (numpy major.minor, machine, x86-64 dispatch
# level; see conftest.dispatch_target).  Changes that only make the
# engine cheaper keep every bit; a change that moves these numbers on
# purpose re-records every set and says so.  Recorded with numpy 2.4.6
# (scipy-openblas 0.3.31) on an x86-64 Intel Xeon dispatching up to
# AVX512_SPR, the second set under NPY_DISABLE_CPU_FEATURES="AVX512_SPR
# AVX512_ICL X86_V4", which lowers the level to X86_V3: np.sinh, vecdot
# and complex products round differently without the AVX-512 kernels,
# which moves these forces by up to 2 ulp and their quadrature_error by up
# to 1.1e-6 relatively, and leaves every evaluation count as it is.
PINNED = {
    ("2.4", "x86_64", "AVX512_SPR"): {
        "dilute": ("0x1.19aab703b96e1p-31", "0x1.e4ecadfc5b76ap-135",
                   "0x1.235af93821e6bp-27", 1428),
        "drop-drude-pair": ("0x1.c5d0b0da46542p-39", "0x1.ed82e946aaa2dp-147",
                            "0x1.21a54736b4620p-33", 318),
        "drop-gold": ("0x1.21868926809dfp-35", "0x1.3ad9d72d46243p-143",
                      "0x1.2106e323262a9p-33", 303),
        "drop-table-drude": ("0x1.0c7c95913ced6p-25", "0x1.23f8c4bbcf06bp-133",
                             "0x1.4c2913a25f675p-27", 392),
        "drop-table-drude-hot": ("0x1.f60b0deb24e90p-18",
                                 "0x1.10fa9e5e67167p-125",
                                 "0x1.55a1735d30b02p-27", 4188),
        "drop-table-table": ("0x1.35e9b4bec23a2p-11", "0x1.51058aec6c7ddp-119",
                             "0x1.2418f8a237dbbp-27", 1518),
        "hybrid-drude": ("0x1.365a6640610a0p-91", "0x1.d1e6ee037a12ep-142",
                         "0x1.2c00301ebc1c1p-27", 1052),
        "hybrid-table": ("0x1.fe3b05ba4cfa7p-75", "0x1.7efaa14d0acd1p-130",
                         "0x1.4ca051234cef5p-27", 738),
        "keep-drude-pair": ("0x1.1be22c4653f7bp-24", "0x1.40137b6a51379p-139",
                            "0x1.11ee10a7d2218p-33", 318),
        "keep-gold": ("0x1.5c0f5c092ce14p-35", "0x1.7a816b212f0bap-143",
                      "0x1.211ca8562f340p-33", 303),
        "keep-table": ("0x1.6ed5f299147b3p-28", "0x1.8eec72f2f0891p-136",
                       "0x1.b5318affe2524p-30", 392),
    },
    ("2.4", "x86_64", "X86_V3"): {
        "dilute": ("0x1.19aab703b96e1p-31", "0x1.e4ecadfc5b76ap-135",
                   "0x1.235af9412d558p-27", 1428),
        "drop-drude-pair": ("0x1.c5d0b0da46542p-39", "0x1.ed82e946aaa2dp-147",
                            "0x1.21a5417ca470ap-33", 318),
        "drop-gold": ("0x1.21868926809dfp-35", "0x1.3ad9d72d46243p-143",
                      "0x1.2106e3231a6a2p-33", 303),
        "drop-table-drude": ("0x1.0c7c95913ced5p-25", "0x1.23f8c4bbcf06ap-133",
                             "0x1.4c29138aaa7fcp-27", 392),
        "drop-table-drude-hot": ("0x1.f60b0deb24e90p-18",
                                 "0x1.10fa9e5e67167p-125",
                                 "0x1.55a1734ab8926p-27", 4188),
        "drop-table-table": ("0x1.35e9b4bec23a2p-11", "0x1.51058aec6c7ddp-119",
                             "0x1.2418f893afb97p-27", 1518),
        "hybrid-drude": ("0x1.365a6640610a0p-91", "0x1.d1e6ee037a12ep-142",
                         "0x1.2c00301e6de1bp-27", 1052),
        "hybrid-table": ("0x1.fe3b05ba4cfa7p-75", "0x1.7efaa14d0acd1p-130",
                         "0x1.4ca05102246adp-27", 738),
        "keep-drude-pair": ("0x1.1be22c4653f7dp-24", "0x1.40137b6a5137bp-139",
                            "0x1.11ee08e6f1fc7p-33", 318),
        "keep-gold": ("0x1.5c0f5c092ce14p-35", "0x1.7a816b212f0bap-143",
                      "0x1.211c9f85e4a0dp-33", 303),
        "keep-table": ("0x1.6ed5f299147b3p-28", "0x1.8eec72f2f0891p-136",
                       "0x1.b5318c7812cd8p-30", 392),
    },
}
# On a target with no recorded set: force and H0 within PIN_ULPS ulp of
# the first set, quadrature_error within PIN_ERR_REL of it relatively.
PIN_ULPS, PIN_ERR_REL = 2 ** 16, 1e-2


def ulps_apart(a, b):
    return abs(a - b) / math.ulp(max(abs(a), abs(b)))


def assert_pinned(got, recorded, target):
    """``got``, a list of (force, H0, quadrature_error) hex and
    evaluations, is the list ``recorded`` holds for ``target``, bit for
    bit.  On a target with nothing recorded, the evaluations must match
    the first recorded list and the values lie within its bounds, and a
    warning says that only this was checked."""
    if target in recorded:
        assert got == recorded[target]
        return
    first = next(iter(recorded.values()))
    assert [row[3] for row in got] == [row[3] for row in first]
    for row, want in zip(got, first):
        force, h0, err = (float.fromhex(x) for x in row[:3])
        want_force, want_h0, want_err = (float.fromhex(x) for x in want[:3])
        assert ulps_apart(force, want_force) <= PIN_ULPS, (row, want)
        assert ulps_apart(h0, want_h0) <= PIN_ULPS, (row, want)
        assert abs(err / want_err - 1.0) <= PIN_ERR_REL, (row, want)
    warnings.warn(f"no bits recorded for target {target}: checked the "
                  f"evaluations exactly and force and H0 to {PIN_ULPS} ulp")


@pytest.mark.parametrize("case", sorted(PINNED_CALLS))
def test_pinned_bits(case, dispatch_target):
    res = PINNED_CALLS[case]()
    assert res.converged
    assert_pinned([(res.force.hex(), res.h0.hex(), res.quadrature_error.hex(),
                    res.evaluations)],
                  {target: [pins[case]] for target, pins in PINNED.items()},
                  dispatch_target)


def screened_drude_pairs():
    """Twelve seeded ``keep`` Drude pairs from the benchmark's ranges:
    plasma 3-15 eV, damping 5-200 meV (log-uniform), d 2-50 nm, with T
    geometric from 30 to 1000 K."""
    rng = np.random.default_rng(2030)
    lg = math.log(0.005), math.log(0.2)
    systems = []
    for t in np.geomspace(30.0, 1000.0, 12).tolist():
        ep1, ep2 = rng.uniform(3.0, 15.0, 2).tolist()
        g1, g2 = np.exp(rng.uniform(*lg, 2)).tolist()
        systems.append(_plates(Drude(ep1, g1), Drude(ep2, g2), t,
                               rng.uniform(2.0, 50.0)))
    return systems


# float.hex of force, H0 and quadrature_error, and evaluations, of
# ``screened_drude_pairs`` under keep, by target, recorded as PINNED is.
SCREENED_DRUDE_PINNED = {
    ("2.4", "x86_64", "AVX512_SPR"): [
        ("0x1.70ea6fca56bf7p-41", "0x1.23623ba4af69ap-149", "0x1.21f156d7ae947p-33", 318),
        ("0x1.6727302dc4f6dp-44", "0x1.c458da59bf740p-149", "0x1.21ec218b89173p-33", 318),
        ("0x1.ddc3ea4ed8f60p-51", "0x1.69ee5675145f9p-152", "0x1.21ef762e4c625p-33", 318),
        ("0x1.29c4735949a15p-50", "0x1.a9d0f5c2f69afp-150", "0x1.21e154a50513ep-33", 318),
        ("0x1.b103d85b6aa53p-35", "0x1.694625a73146ap-146", "0x1.21dca8149e66ep-33", 318),
        ("0x1.8f8fcca1b1ff4p-39", "0x1.2f393f06ac727p-142", "0x1.2173c2ae92a84p-33", 318),
        ("0x1.90f291f31926ep-42", "0x1.fcfa8c9af331ep-145", "0x1.20d683b5910acp-33", 318),
        ("0x1.59cbbd355f788p-39", "0x1.dc2aa588e87e3p-144", "0x1.1fadf139d568dp-33", 318),
        ("0x1.d79fcde8d1d07p-35", "0x1.b3cd0ccf1e22dp-141", "0x1.1bd6e4d52a648p-33", 318),
        ("0x1.52d0d6c1bf70cp-36", "0x1.50fec57684616p-143", "0x1.203acff9435a8p-33", 318),
        ("0x1.b6c7ec149a0b2p-38", "0x1.d207b6ae7a16ep-142", "0x1.1e4ce1557f02dp-33", 318),
        ("0x1.8db93ab153111p-39", "0x1.edc59d4011221p-140", "0x1.15e8b865114d4p-33", 318),
    ],
    ("2.4", "x86_64", "X86_V3"): [
        ("0x1.70ea6fca56bf6p-41", "0x1.23623ba4af699p-149", "0x1.21f15e6c0ee1fp-33", 318),
        ("0x1.6727302dc4f6dp-44", "0x1.c458da59bf740p-149", "0x1.21ec2437497c2p-33", 318),
        ("0x1.ddc3ea4ed8f60p-51", "0x1.69ee5675145f9p-152", "0x1.21ef85b78ae74p-33", 318),
        ("0x1.29c4735949a14p-50", "0x1.a9d0f5c2f69aep-150", "0x1.21e15fc389c46p-33", 318),
        ("0x1.b103d85b6aa53p-35", "0x1.694625a73146ap-146", "0x1.21dcbc9c76b93p-33", 318),
        ("0x1.8f8fcca1b1ff4p-39", "0x1.2f393f06ac727p-142", "0x1.2173bcb6a5600p-33", 318),
        ("0x1.90f291f31926ep-42", "0x1.fcfa8c9af331ep-145", "0x1.20d67fa489ac3p-33", 318),
        ("0x1.59cbbd355f786p-39", "0x1.dc2aa588e87e1p-144", "0x1.1fadf139dbb63p-33", 318),
        ("0x1.d79fcde8d1d07p-35", "0x1.b3cd0ccf1e22dp-141", "0x1.1bd6e4d53263ap-33", 318),
        ("0x1.52d0d6c1bf70dp-36", "0x1.50fec57684617p-143", "0x1.203acca4021d8p-33", 318),
        ("0x1.b6c7ec149a0b2p-38", "0x1.d207b6ae7a16ep-142", "0x1.1e4ce3c0ce924p-33", 318),
        ("0x1.8db93ab153111p-39", "0x1.edc59d4011221p-140", "0x1.15e8bf63c28a8p-33", 318),
    ],
}


def test_screened_drude_pinned_bits(dispatch_target):
    got = []
    for system in screened_drude_pairs():
        res = fr.friction_dense(system, "keep")
        assert res.converged
        got.append((res.force.hex(), res.h0.hex(), res.quadrature_error.hex(),
                    res.evaluations))
    assert_pinned(got, SCREENED_DRUDE_PINNED, dispatch_target)
