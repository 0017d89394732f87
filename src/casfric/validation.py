"""The package's acceptance suite: nine numbered criteria, each checked
at its pinned tolerance and reported with the measured value, the
expected value and the quadrature error estimate where one exists.

``run_all`` executes every check; the CLI ``validate`` command prints one
line per check and exits nonzero unless all pass.  Two benchmark-figure
checks (4b, 4c) are known to fail by 4%/7%: the three published figures
they come from are mutually inconsistent (the force, the force ratio and
the reference force are linked by an exact identity that the quoted
trio violates), and this package reproduces the exact formulas rather
than the rounded figures.  The identity itself is checked to machine
precision in 4d.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import comparisons, electrostatics, geometry, units
from .dielectric import (Drude, MediumSpec, dense_alpha_retarded,
                         drude_spectral_value, eps_retarded,
                         spectral_density, surface_plasmon_frequency)
from .friction import (PlateSystem, friction_dense,
                       friction_drude_closed_form)
from .oscillator_stats import (OscillatorSpec, g_imaginary_time, gtilde,
                               pair_correlators, pair_fourth_moment,
                               sample_pair_correlators)
from .presets import GOLD, PENDRY97, Preset, conductivity
from .quadrature import _WGK, _XGK, QuadratureSpec, integrate_semi_infinite


@dataclass
class CheckResult:
    criterion: str
    name: str
    passed: bool
    measured: float
    expected: float
    tolerance: str
    quadrature_error: float | None = None
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        qe = ("" if self.quadrature_error is None
              else f" quad_err={self.quadrature_error:.2e}")
        extra = f" [{self.detail}]" if self.detail else ""
        return (f"[{status}] {self.criterion:>3} {self.name}: "
                f"measured={self.measured:.6e} expected={self.expected:.6e} "
                f"tol={self.tolerance}{qe}{extra}")


def _rel(measured: float, expected: float) -> float:
    return abs(measured - expected) / abs(expected)


def _spread(scaled: list[float]) -> float:
    """The worst relative departure of ``scaled`` from its first entry."""
    return max(abs(s / scaled[0] - 1.0) for s in scaled)


def _pair(preset: Preset, **fields) -> PlateSystem:
    """Two plates of ``preset``'s medium at its gap, speed and
    temperature, with ``fields`` replaced."""
    med = MediumSpec(preset.model)
    return replace(PlateSystem(med, med, preset.d_nm, preset.v_m_per_s,
                               preset.T_K), **fields)


def check_gold_force() -> list[CheckResult]:
    """Criterion 1: gold plate-plate force through all three routes."""
    sys_gold = _pair(GOLD)
    out = []
    cf = friction_drude_closed_form(sys_gold)
    out.append(CheckResult("1a", "gold closed-form force (Pa)",
                           _rel(cf.force, 3.29e-11) <= 5e-3,
                           cf.force, 3.29e-11, "0.5%", 0.0))
    drop = friction_dense(sys_gold, "drop")
    out.append(CheckResult("1b", "dense route, bare spectral product, vs closed form",
                           drop.converged and _rel(drop.force, cf.force) <= 1e-2,
                           drop.force, cf.force, "1%", drop.quadrature_error))
    keep = friction_dense(sys_gold, "keep")
    ratio = keep.force / drop.force
    out.append(CheckResult("1c", "screened/bare force ratio in [1.00, 1.25]",
                           keep.converged and 1.0 <= ratio <= 1.25, ratio,
                           1.2020569, "[1.00, 1.25]", keep.quadrature_error,
                           detail="zeta(3) window"))
    return out


def check_thermal_integral() -> list[CheckResult]:
    """Criterion 2: integral of x^2 e^-x/(1-e^-x)^2 equals pi^2/3."""
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-11)

    def f(x):
        ex = np.exp(-x)
        return x * x * ex / (1.0 - ex) ** 2

    res = integrate_semi_infinite(f, decay_scale=1.0, spec=spec)
    target = math.pi ** 2 / 3.0
    return [CheckResult("2", "thermal integral = pi^2/3",
                        res.converged and abs(res.value - target) <= 1e-8,
                        res.value, target, "1e-8 abs", res.error_estimate)]


def check_geometry() -> list[CheckResult]:
    """Criterion 3: geometric identities, analytic vs quadrature routes."""
    out = []
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10)
    analytic = geometry.g_perp(1.0)
    kspace = geometry.g_perp_kspace(1.0, spec)
    out.append(CheckResult("3a", "transverse factor at 1 nm, k-space route",
                           kspace.converged
                           and _rel(kspace.value, analytic) <= 1e-6,
                           kspace.value, analytic, "1e-6 rel",
                           kspace.error_estimate))

    def u3(u):
        return u ** 3 * np.exp(-2.0 * u)

    res = integrate_semi_infinite(u3, decay_scale=0.5, spec=spec)
    out.append(CheckResult("3b", "mode-weight integral = 3/8",
                           abs(res.value - 0.375) <= 1e-10, res.value, 0.375,
                           "1e-10 abs", res.error_estimate))

    gh = geometry.g_halfplane(1.0, 2.0)
    ghq = geometry.g_halfplane_quadrature(1.0, 2.0, spec)
    out.append(CheckResult("3c", "half-plane factor vs quadrature",
                           _rel(ghq.value, gh) <= 1e-6, ghq.value, gh,
                           "1e-6 rel", ghq.error_estimate))
    g2 = geometry.g_two_planes(1.0, 1.0, 1.5)
    g2q = geometry.g_two_planes_quadrature(1.0, 1.0, 1.5, spec)
    out.append(CheckResult("3d", "plate-plate factor vs quadrature",
                           _rel(g2q.value, g2) <= 1e-6, g2q.value, g2,
                           "1e-6 rel", g2q.error_estimate))
    return out


def check_pendry() -> list[CheckResult]:
    """Criterion 4: constant-conductivity benchmark comparison."""
    out = []
    r = comparisons.ratio_to_pendry(300.0, 100.0, 10e-9)
    out.append(CheckResult("4a", "thermal/cubic force ratio",
                           _rel(r, 1.95e9) <= 5e-3, r, 1.95e9, "0.5%"))
    fp = comparisons.pendry_force(conductivity(PENDRY97.model),
                                  PENDRY97.d_nm * units.NM_TO_M,
                                  PENDRY97.v_m_per_s)
    out.append(CheckResult(
        "4b", "cubic-in-v benchmark force (Pa)",
        _rel(fp, 1.6e3) <= 1e-2, fp, 1.6e3, "1%",
        detail="known inconsistency: quoted trio violates F = ratio * F_P"))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        cf = friction_drude_closed_form(_pair(PENDRY97))
    out.append(CheckResult(
        "4c", "closed-form force at benchmark conductivity (Pa)",
        _rel(cf.force, 3.5e12) <= 2e-2, cf.force, 3.5e12, "2%",
        detail="known inconsistency: quoted trio violates F = ratio * F_P"))
    r_match = comparisons.ratio_to_pendry(PENDRY97.T_K, PENDRY97.v_m_per_s,
                                          PENDRY97.d_nm * units.NM_TO_M)
    ident = r_match * fp
    out.append(CheckResult("4d", "cross-module identity ratio*F_P = F",
                           _rel(ident, cf.force) <= 1e-12, ident, cf.force,
                           "1e-12 rel"))
    return out


def check_vp() -> list[CheckResult]:
    """Criterion 5: evanescent-wave benchmark ratio ~ 1.2."""
    gold = GOLD
    d_m = gold.d_nm * units.NM_TO_M
    _, fvp = comparisons.vp_friction(conductivity(gold.model), d_m,
                                     gold.T_K, gold.v_m_per_s)
    ours = friction_drude_closed_form(_pair(gold)).force
    ratio = fvp / ours
    return [CheckResult("5", "evanescent benchmark / our force",
                        abs(ratio - 1.2) <= 0.12, ratio, 1.2, "10%")]


def check_spectral() -> list[CheckResult]:
    """Criterion 6: sum rule, retarded extraction, small-m slope."""
    out = []
    gold = GOLD.model
    sd = spectral_density(gold)
    ep = math.sqrt(0.5) * gold.plasma_energy_ev
    spec = QuadratureSpec(abs_tol=1e-12, rel_tol=1e-10)

    def sumrule(m):
        return 2.0 * sd.value(m) / np.maximum(m, 1e-300)

    res = integrate_semi_infinite(sumrule, decay_scale=ep, spec=spec,
                                  split_points=[ep])
    target = gold.static_response
    out.append(CheckResult("6a", "spectral sum rule = static response",
                           res.converged and _rel(res.value, target) <= 1e-6,
                           res.value, target, "1e-6 rel", res.error_estimate))

    # The spectrum -Im A/pi on the retarded branch, at the model's broadening.
    worst = 0.0
    for m in (0.5, 2.0, ep, 8.0):
        extracted = -dense_alpha_retarded(gold, m).imag / math.pi
        worst = max(worst, _rel(extracted, float(drude_spectral_value(gold, m))))
    out.append(CheckResult("6b", "retarded extraction vs closed form (worst rel)",
                           worst <= 1e-6, worst, 0.0, "1e-6 rel"))

    m_small = 1e-5 * ep
    slope = float(sd.value(m_small)) / m_small
    target_slope = gold.damping_ev / (math.pi * ep ** 2)
    out.append(CheckResult("6c", "small-m spectral slope",
                           _rel(slope, target_slope) <= 1e-6, slope,
                           target_slope, "1e-6 rel"))
    return out


def _boundary_draws(rng: np.random.Generator):
    """Criterion 7's 1000 seeded configs as arrays (eps1, eps2, qd): the
    values, in the order, of 1000 rounds of ``uniform(1, 100, 2)`` then
    ``uniform(0.01, 10)``."""
    draws = rng.uniform((1.0, 1.0, 0.01), (100.0, 100.0, 10.0), size=(1000, 3))
    return draws[:, 0], draws[:, 1], draws[:, 2]


def check_boundary() -> list[CheckResult]:
    """Criterion 7: layered boundary solver."""
    out = []
    e1, e2, qd = _boundary_draws(np.random.default_rng(20240817))
    cfg = electrostatics.LayeredConfig(e1, e2, 1.0, qd)
    sol = electrostatics.solve_layers(cfg)
    worst = float(electrostatics.boundary_residuals(cfg, sol).max())
    from_d, direct = electrostatics.denominator_check(cfg)
    worst_den = float(np.max(np.abs(from_d - direct) / np.abs(direct)))
    out.append(CheckResult("7a", "boundary residuals, 1000 random configs (worst)",
                           worst < 1e-12, worst, 0.0, "<1e-12"))
    out.append(CheckResult("7b", "transmission denominator extraction (worst rel)",
                           worst_den <= 1e-12, worst_den, 0.0, "1e-12 rel"))

    vac = electrostatics.solve_layers(electrostatics.LayeredConfig(1.0, 1.0, 1.0, 1.0))
    exact = (vac.d == 1.0 and vac.b == 0.0)
    out.append(CheckResult("7c", "vacuum limit D=1, B=0 exact",
                           exact, vac.d, 1.0, "exact"))

    plasma = Drude(9.0, 0.0)
    sp = surface_plasmon_frequency(plasma)
    eps_sp = eps_retarded(plasma, sp)
    out.append(CheckResult("7d", "surface-mode pole eps(+sp) = -1",
                           abs(eps_sp + 1.0) <= 1e-6, eps_sp.real, -1.0,
                           "1e-6 abs"))
    return out


def _transform_draws():
    """Criterion 8a's 100 seeded draws as arrays: the oscillators, beta
    and K = 2 pi n/beta."""
    rng = np.random.default_rng(11)
    alpha, w, betas, n = np.array([(rng.uniform(0.3, 3.0), rng.uniform(0.2, 5.0),
                                    rng.uniform(0.3, 10.0), rng.integers(0, 4))
                                   for _ in range(100)]).T
    return OscillatorSpec(alpha, w), betas, 2.0 * math.pi * n / betas


def _transforms(draws):
    """The integrals of g(lambda) cos(K lambda) over [0, beta] of every
    draw, as an array, by the 15-point Kronrod rule on the four quarters
    of [0, beta]: the integrand is entire, so the rule meets the
    transform to rounding.  All nodes go to one call of the correlator;
    each draw's row is summed on its own."""
    osc, betas, ks = draws
    # Node j of quarter i lies at (2i + 1 + _XGK[j]) * beta/8, in (0, beta).
    half = betas / 8.0
    nodes = (np.arange(1.0, 8.0, 2.0)[:, None] + _XGK).ravel()
    lam = np.multiply.outer(half, nodes)
    col = OscillatorSpec(osc.alpha_static[:, None], osc.eigen_energy_ev[:, None])
    f = g_imaginary_time(col, lam, betas[:, None]) * np.cos(ks[:, None] * lam)
    return half * np.vecdot(f, np.tile(_WGK, 4))


def check_oscillators() -> list[CheckResult]:
    """Criterion 8: transform pair, Gaussian pair MC, FD identity."""
    out = []
    osc, _, ks = draws = _transform_draws()
    worst = max(map(_rel, _transforms(draws).tolist(), gtilde(osc, ks).tolist()))
    out.append(CheckResult("8a", "imaginary-time transform pair, 100 draws (worst rel)",
                           worst <= 1e-8, worst, 0.0, "1e-8 rel"))

    alpha1 = alpha2 = 1.0
    phi = 0.5
    est = sample_pair_correlators(alpha1, alpha2, phi,
                                  n_samples=1_000_000, seed=20240817)
    exact = pair_correlators(alpha1, alpha2, phi)
    exact4 = pair_fourth_moment(alpha1, alpha2, phi)[2]
    checks = [("s1s1", exact[0]), ("s2s2", exact[1]), ("s1s2", exact[2]),
              ("fourth", exact4)]
    worst_sigma = 0.0
    for key, target in checks:
        mean, err = est[key]
        worst_sigma = max(worst_sigma, abs(mean - target) / err)
    out.append(CheckResult("8b", "Gaussian pair moments vs seeded MC (worst #sigma)",
                           worst_sigma <= 3.0, worst_sigma, 0.0, "3 sigma",
                           detail="1e6 samples"))

    out.append(_fd_identity_check())
    return out


def _fd_jobs():
    """Criterion 8c's smoothings as (m, gamma, split points): each of the
    20 grid points m at two broadenings gamma, split at the features the
    integrand is known to have.  The line of half-width gamma/(2m) that
    the smoothing puts at m' = m is split at m, m +- 5 and 20 half-widths
    and on a ladder m +- 2**k (2 half-widths) until it reaches 0 below
    and passes e_p above; the surface-plasmon peak of width sigma at e_p
    on the ladder e_p +- 10**k sigma inside (0, 2 e_p).  Split points <= 0
    are dropped by the integration."""
    ep = math.sqrt(0.5) * GOLD.model.plasma_energy_ev
    sigma = GOLD.model.damping_ev
    plasmon = [ep]
    d = sigma
    while d < ep:
        plasmon += [ep - d, ep + d]
        d *= 10.0
    jobs = []
    for m in np.geomspace(0.05, 1.8 * ep, 20).tolist():
        # The smoothing error is linear in gamma with coefficient set by
        # the distance to the spectral edge (m**2) or the peak curvature
        # scale (sigma*e_p), whichever is tighter; two broadenings on
        # that scale plus linear extrapolation leave O(1e-8) residuals.
        w_scale = min(m * m, sigma * ep)
        for gam in (1e-3 * w_scale, 1e-4 * w_scale):
            halfwidth = gam / (2.0 * m)
            line = [m - 20 * halfwidth, m - 5 * halfwidth, m,
                    m + 5 * halfwidth, m + 20 * halfwidth]
            d = 2.0 * halfwidth
            while True:
                line += [m - d, m + d]
                if m - d <= 0.0 and m + d > ep:
                    break
                d *= 2.0
            jobs.append((m, gam, line + plasmon))
    return jobs


def _fd_smoothings(jobs):
    """The spectral density of gold smoothed by a Lorentzian of width
    gamma in m**2 at every grid point, over [0, inf), one integral each."""
    sd = spectral_density(GOLD.model)
    ep = math.sqrt(0.5) * GOLD.model.plasma_energy_ev

    def smoothed(m, g):
        def f(mp):
            w = mp * mp - m * m
            return sd.value(mp) * 2.0 * mp * (g / math.pi) / (w * w + g * g)
        return f

    spec = QuadratureSpec(abs_tol=1e-14, rel_tol=1e-10, max_subdivisions=40_000)
    return [integrate_semi_infinite(smoothed(m, g), ep, spec, splits)
            for m, g, splits in jobs]


def _fd_identity_check() -> CheckResult:
    """Fluctuation-dissipation: the response reconstructed from the
    spectral density, continued back to real frequencies and dressed with
    coth(beta*m/2), must reproduce the spectral correlation density."""
    sd = spectral_density(GOLD.model)
    beta = units.beta(300.0)
    jobs = _fd_jobs()
    res = _fd_smoothings(jobs)
    worst = 0.0
    for (m, _, _), coarse, fine in zip(jobs[::2], res[::2], res[1::2]):
        extrap = (10.0 * fine.value - coarse.value) / 9.0
        coth = 1.0 / math.tanh(0.5 * beta * m)
        lhs = extrap * coth
        rhs = float(sd.value(m)) * coth
        worst = max(worst, _rel(lhs, rhs))
    return CheckResult("8c", "fluctuation-dissipation identity, 20-point grid (worst rel)",
                       worst <= 1e-6, worst, 0.0, "1e-6 rel")


def check_scaling() -> list[CheckResult]:
    """Criterion 9: linearity in v, gap power law, temperature power law."""
    def force(**fields) -> float:
        return friction_dense(_pair(GOLD, **fields), "drop").force

    dev = abs(force() / force(v_m_per_s=50.0) - 2.0)
    d_dev = _spread([force(d_nm=d) * (d * units.NM_TO_M) ** 4
                     for d in (5.0, 10.0, 20.0, 50.0)])
    t_dev = _spread([force(T_K=t) / t ** 2 for t in (100.0, 300.0, 600.0)])
    return [CheckResult("9a", "force linear in v (doubling deviation)",
                        dev <= 2e-13, dev, 0.0, "exact"),
            CheckResult("9b", "force ~ d^-4 over [5, 50] nm (worst dev)",
                        d_dev <= 1e-2, d_dev, 0.0, "1%"),
            CheckResult("9c", "force ~ T^2 over [100, 600] K (worst dev)",
                        t_dev <= 1e-2, t_dev, 0.0, "1%")]


def run_all() -> list[CheckResult]:
    """Run all acceptance checks."""
    results = []
    results += check_gold_force()
    results += check_thermal_integral()
    results += check_geometry()
    results += check_pendry()
    results += check_vp()
    results += check_spectral()
    results += check_boundary()
    results += check_oscillators()
    results += check_scaling()
    return results


EXPECTED_FAILURES = {"4b", "4c"}
