"""Friction engines: thermal spectral-overlap kernels and forces.

Every route evaluates a force of the form F = G * v * H0, first order in
the relative velocity v:

  * ``friction_dense``   — two half-planes with permittivity models; the
    particle density cancels exactly and only the surface response
    A = (eps-1)/(eps+1) enters.  Force per unit area (Pa).
  * ``friction_drude_closed_form`` — the small-damping analytic limit for
    two equal damped free-electron plates (Pa).
  * ``friction_dilute``  — genuinely dilute media described by
    per-particle spectral densities (nm^3) plus number densities (Pa).
  * ``friction_hybrid``  — a single dilute particle above a dense
    half-plane (newtons on the particle).

The thermal overlap kernel is

    H0 = (pi*beta*hbar/2) * integral of S1(m) S2(m) / sinh(beta*m/2)**2 dm

over excitation energies m (eV).  For the dense route, the coupling of
the two surfaces across the gap can screen the spectral product by the
induced-correlation denominator 1 - A1*A2*exp(-2u) per transverse mode
u = q*d; ``denominators="keep"`` retains that screening as the
squared-modulus factor |1 - A1*A2*e^{-2u}|^{-2} on the bilinear spectral
product (raising the force by about zeta(3) = 1.202 for good metals,
through the geometric-series weight sum over n of n * (e^{-2u})^n),
while the default ``denominators="drop"`` treats the whole cross-gap
interaction as the perturbation, reducing the kernel to the bare product
of single-surface spectra — the election under which the closed form
below is exact.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Literal

import numpy as np

from . import units
from .dielectric import (Drude, MediumSpec, PermittivityModel, SpectralDensity,
                         Tabulated, Vacuum, dense_alpha_retarded,
                         spectral_density)
from .errors import DomainError, UnsupportedModelError
from .quadrature import (IntegralResult, QuadratureSpec, default_spec,
                         integrate_finite, integrate_semi_infinite)

DenominatorMode = Literal["drop", "keep"]

_OPPOSES = "opposes the relative velocity (x direction)"


@dataclass(frozen=True)
class PlateSystem:
    """Two half-plane media at gap d (nm), relative in-plane velocity v
    (m/s) and temperature T (K)."""

    medium1: MediumSpec
    medium2: MediumSpec
    d_nm: float
    v_m_per_s: float
    T_K: float

    def __post_init__(self):
        if not self.d_nm > 0.0:
            raise DomainError("d_nm must be > 0")
        if self.v_m_per_s < 0.0:
            raise DomainError("v_m_per_s must be >= 0 (magnitude)")
        if not self.T_K > 0.0:
            raise DomainError("T_K must be > 0")


@dataclass(frozen=True)
class FrictionResult:
    """Force magnitude with its intermediate factors.

    ``force`` is a magnitude (direction always opposes the velocity);
    units are Pa for the plate routes and N for the hybrid particle
    route, recorded in ``force_units``.  ``h0`` and ``g`` satisfy
    force = g * v * h0 in SI.  ``quadrature_error`` is the relative
    error estimate of the numeric route (0 for closed forms).
    """

    force: float
    force_units: str
    h0: float
    g: float
    quadrature_error: float
    route: str
    converged: bool = True
    direction: str = _OPPOSES
    note: str | None = None


def _csch2_half(x):
    """1/sinh(x/2)**2, vectorized and finite for every x > 0 (no
    cancellation as x -> 0).  The argument is clipped below the overflow
    of sinh, where the weight has long underflowed to 0."""
    return np.sinh(np.minimum(0.5 * np.asarray(x, dtype=float), 700.0)) ** -2.0


def _joint_support(*densities: SpectralDensity) -> float | None:
    """Upper end of the common support of the densities (None: unbounded)."""
    bounds = [s.support_max for s in densities if s.support_max is not None]
    return min(bounds) if bounds else None


def _retarded_gamma(model: PermittivityModel) -> float:
    """Broadening for the retarded-branch response of a route: tabulated
    data needs a small positive one (1e-6 of the top of its grid); the
    closed-form models take their own damping and get none."""
    return 1e-6 * float(model.m_ev[-1]) if isinstance(model, Tabulated) else 0.0


def h0_overlap(value1, value2, temperature_k: float,
               peak_hints=(), support_max: float | None = None,
               spec: QuadratureSpec | None = None,
               extra_factor=None) -> IntegralResult:
    """Thermal spectral-overlap integral shared by every H0 route.

    value1/value2 are vectorized spectral densities of m (any consistent
    normalization; the caller owns the bookkeeping).  ``extra_factor``,
    when given, multiplies the integrand (used for cross-gap screening).
    The integrand is rescaled by its probed peak before adaptive
    integration so that the tolerance spec stays meaningful for the
    physically tiny magnitudes involved (~hbar), and the integration is
    truncated where the exponential thermal envelope provably kills the
    integrand; the bound is checked, not assumed.
    """
    if spec is None:
        spec = default_spec()
    beta = units.beta(temperature_k)
    hints = [h for h in peak_hints if h is not None and h > 0.0]
    m_cap = max(40.0 / beta, *(10.0 * h for h in hints)) if hints \
        else 40.0 / beta
    if support_max is not None:
        m_cap = min(m_cap, support_max)

    pref = 0.5 * math.pi * beta * units.HBAR_JS

    def integrand(m):
        m = np.asarray(m, dtype=float)
        out = pref * value1(m) * value2(m) * _csch2_half(beta * m)
        if extra_factor is not None:
            out = out * extra_factor(m)
        return out

    # Deterministic probe of the integrand magnitude: geometric sweep of
    # the full range plus the thermal scale and the supplied peaks.  The
    # probe also locates the dominant feature so the adaptive rule starts
    # with panel edges bracketing it (a single wide panel would step
    # straight over a narrow thermal peak and "converge" on zero).
    probe_grid = np.array(sorted(
        list(m_cap * np.geomspace(1e-9, 1.0, 97))
        + [k / beta for k in range(1, 9) if k / beta < m_cap]
        + [h for h in hints if h < m_cap]))
    probe_vals = integrand(probe_grid)
    scale = float(np.max(np.abs(probe_vals)))
    if scale == 0.0 or not math.isfinite(scale):
        evals = len(probe_grid)
        if not math.isfinite(scale):
            return IntegralResult(math.nan, math.inf, evals, False)
        return IntegralResult(0.0, 0.0, evals, True)

    m_star = float(probe_grid[int(np.argmax(np.abs(probe_vals)))])
    splits = set(h for h in hints if h < m_cap)
    splits.update(s for s in (0.1 * m_star, m_star, 10.0 * m_star)
                  if s < m_cap)
    # Octave edges across the thermal window: every initial panel where
    # the weight still carries mass is at most an octave wide, so the
    # first Kronrod pass cannot step over the decay region.
    splits.update(s for s in (2.0 ** k / beta for k in range(-1, 6))
                  if s < m_cap)
    if 40.0 / beta < m_cap:
        splits.add(40.0 / beta)
    res = integrate_finite(lambda m: integrand(m) / scale, 0.0, m_cap, spec,
                           split_points=splits)

    # Tail bound beyond m_cap: the thermal weight is < 4*exp(-beta*m) and
    # the spectral product is bounded near the cap for every decaying
    # density handled here; float underflow makes this zero at practical
    # temperatures, but verify rather than assume.
    tail_height = float(integrand(np.array([m_cap * (1.0 + 1e-9)]))[0]) / scale
    tail_bound = abs(tail_height) / beta * 2.0
    err = res.error_estimate + tail_bound
    converged = res.converged and (res.value == 0.0
                                   or tail_bound <= spec.target(res.value))
    return IntegralResult(res.value * scale, err * scale,
                          res.evaluations + len(probe_grid) + 1, converged)


def h0_dilute(spec1: SpectralDensity, spec2: SpectralDensity,
              temperature_k: float,
              spec: QuadratureSpec | None = None) -> IntegralResult:
    """Thermal overlap kernel for two per-particle spectral densities.

    Both densities must be continuous: a discrete line would contribute
    only through an exact two-line resonance, which is rejected with an
    explanatory error instead of being faked by a broadened width.
    """
    spec1.require_continuous("the dilute overlap kernel")
    spec2.require_continuous("the dilute overlap kernel")
    return h0_overlap(spec1.value, spec2.value, temperature_k,
                      peak_hints=(spec1.peak_hint, spec2.peak_hint),
                      support_max=_joint_support(spec1, spec2), spec=spec)


def _pair_splits(model1, model2, u: float):
    """Inner-integral split hints: single-surface peaks plus the coupled
    surface-mode locations e_p*sqrt(1 -+ e^{-u}) of conducting media."""
    hints = []
    x = math.exp(-u)
    for model in (model1, model2):
        if isinstance(model, Drude):
            ep = math.sqrt(0.5) * model.plasma_energy_ev
            hints.append(ep)
            lo = ep * math.sqrt(max(1.0 - x, 0.0))
            hi = ep * math.sqrt(1.0 + x)
            if lo > 0.0:
                hints.append(lo)
            hints.append(hi)
    return hints


def h0_dense_at_u(model1: PermittivityModel, model2: PermittivityModel,
                  temperature_k: float, u: float,
                  denominators: DenominatorMode = "keep",
                  spec: QuadratureSpec | None = None) -> IntegralResult:
    """Mode-resolved dense overlap kernel H0(u) at one transverse mode
    u = q*d.

    With ``denominators="drop"`` the kernel is the bare product of the
    two single-surface spectra and does not vary with u; with ``"keep"``
    the product is screened by |1 - A1*A2*e^{-2u}|^{-2} evaluated on the
    retarded branch, which enhances soft modes (small u) and carries the
    coupled-surface resonances.  Units: J*s in the density-scaled
    normalization whose density factors cancel against the geometric
    factor of the plate force.
    """
    if not u > 0.0:
        raise DomainError("u must be > 0")
    s1 = spectral_density(model1).require_continuous("the dense kernel")
    s2 = spectral_density(model2).require_continuous("the dense kernel")
    if denominators == "drop":
        extra = None
        hints = [s1.peak_hint, s2.peak_hint]
    elif denominators == "keep":
        x = math.exp(-2.0 * u)
        g1, g2 = _retarded_gamma(model1), _retarded_gamma(model2)

        def extra(m):
            a1 = dense_alpha_retarded(model1, m, g1)
            a2 = dense_alpha_retarded(model2, m, g2)
            return 1.0 / np.abs(1.0 - a1 * a2 * x) ** 2

        hints = [s1.peak_hint, s2.peak_hint] + _pair_splits(model1, model2, u)
    else:
        raise DomainError(f"denominators must be 'drop' or 'keep', got {denominators!r}")

    return h0_overlap(s1.value, s2.value, temperature_k,
                      peak_hints=hints, support_max=_joint_support(s1, s2),
                      spec=spec, extra_factor=extra)


def plane_spectral_products(model1: PermittivityModel,
                            model2: PermittivityModel,
                            m, u: float):
    """Spectral products of the fully dressed coupled-plane correlators.

    Returns (s11, s22, s12) where s_ab = -Im[h_ab]/pi on the retarded
    branch, with h11 = A1/(1 - A1*A2*e^{-2u}) etc.  These are the
    channel-resolved spectra exposed for inspection/plotting; the
    friction integral uses the screened bilinear product (see module
    docstring) rather than resumming these dressed channels.
    """
    if not u > 0.0:
        raise DomainError("u must be > 0")
    m = np.asarray(m, dtype=float)
    a1 = dense_alpha_retarded(model1, m, _retarded_gamma(model1))
    a2 = dense_alpha_retarded(model2, m, _retarded_gamma(model2))
    x = math.exp(-2.0 * u)
    denom = 1.0 - a1 * a2 * x
    h11 = a1 / denom
    h22 = a2 / denom
    h12 = a1 * a2 * math.exp(-u) / denom
    return (-h11.imag / math.pi, -h22.imag / math.pi, -h12.imag / math.pi)


def _dense_h0(system: PlateSystem, denominators: DenominatorMode,
              spec: QuadratureSpec | None) -> IntegralResult:
    """Density-scaled H0 of the plate pair: for "drop" the transverse
    weight integrates to exactly one; for "keep" the nested integral
    (8/3) * int u**3 e^{-2u} H0(u) du is evaluated."""
    drop = h0_dense_at_u(system.medium1.model, system.medium2.model,
                         system.T_K, u=1.0, denominators="drop", spec=spec)
    if denominators == "drop":
        return drop
    if spec is None:
        spec = default_spec()
    if drop.value == 0.0:
        return drop
    inner_spec = QuadratureSpec(abs_tol=spec.abs_tol,
                                rel_tol=max(spec.rel_tol, 1e-9),
                                max_subdivisions=spec.max_subdivisions)
    evals = drop.evaluations
    inner_converged = True
    worst_inner_rel = 0.0
    scale = drop.value  # outer integrand expressed in units of the bare kernel

    def outer(u_vals):
        nonlocal evals, inner_converged, worst_inner_rel
        u_vals = np.atleast_1d(np.asarray(u_vals, dtype=float))
        out = np.empty_like(u_vals)
        for i, u in enumerate(u_vals):
            if u <= 0.0:
                out[i] = 0.0
                continue
            inner = h0_dense_at_u(system.medium1.model, system.medium2.model,
                                  system.T_K, float(u),
                                  denominators="keep", spec=inner_spec)
            evals += inner.evaluations
            inner_converged = inner_converged and inner.converged
            if inner.value != 0.0:
                worst_inner_rel = max(worst_inner_rel,
                                      inner.error_estimate / abs(inner.value))
            out[i] = (8.0 / 3.0) * u ** 3 * math.exp(-2.0 * u) \
                * inner.value / scale
        return out

    res = integrate_semi_infinite(outer, decay_scale=0.5, spec=QuadratureSpec(
        abs_tol=spec.abs_tol, rel_tol=max(spec.rel_tol, 1e-7),
        max_subdivisions=spec.max_subdivisions))
    value = res.value * scale
    err = (res.error_estimate + worst_inner_rel * abs(res.value)) * abs(scale)
    return IntegralResult(value, err, evals + res.evaluations,
                          res.converged and inner_converged)


def _rel_err(res: IntegralResult) -> float:
    return res.error_estimate / abs(res.value) if res.value != 0.0 else 0.0


def friction_dense(system: PlateSystem,
                   denominators: DenominatorMode = "drop",
                   spec: QuadratureSpec | None = None) -> FrictionResult:
    """Friction per unit area between two dense half-planes (Pa).

    Only the permittivities enter: the number densities cancel between
    the geometric factor and the density-scaled overlap kernel, so the
    result is invariant under any bookkeeping density.  Non-convergence
    of the nested quadrature is reported on the result, never silently.
    """
    h0 = _dense_h0(system, denominators, spec)
    d_m = system.d_nm * units.NM_TO_M
    g = 3.0 / (32.0 * math.pi * d_m ** 4)
    force = g * system.v_m_per_s * h0.value
    return FrictionResult(force=force, force_units="Pa", h0=h0.value, g=g,
                          quadrature_error=_rel_err(h0), route="dense-full",
                          converged=h0.converged,
                          note=f"denominators={denominators}")


def friction_drude_closed_form(system: PlateSystem) -> FrictionResult:
    """Small-damping closed form for two equal damped free-electron plates:

        F = (hbar * v / (4 d**4)) * (k_B T)**2 (hbar*nu)**2 / (hbar*omega_p)**4

    Exact consequence of the linear small-m spectral slope; valid while
    the damping is small against the surface resonance energy (warned
    otherwise, since the spectral weight then leaks out of the linear
    region).
    """
    m1, m2 = system.medium1.model, system.medium2.model
    if not (isinstance(m1, Drude) and isinstance(m2, Drude)):
        raise UnsupportedModelError("closed form requires Drude media")
    if (m1.plasma_energy_ev, m1.damping_ev) != (m2.plasma_energy_ev, m2.damping_ev):
        raise UnsupportedModelError("closed form requires identical media")

    ep2 = 0.5 * m1.plasma_energy_ev ** 2
    sigma = m1.damping_ev
    d_m = system.d_nm * units.NM_TO_M
    g = 3.0 / (32.0 * math.pi * d_m ** 4)
    note = None
    if sigma == 0.0:
        return FrictionResult(force=0.0, force_units="Pa", h0=0.0, g=g,
                              quadrature_error=0.0, route="drude-closed-form",
                              note="zero damping: no dissipation channel, "
                                   "the first-order force vanishes")
    if sigma > 0.1 * math.sqrt(ep2):
        note = ("damping is not small against the surface resonance "
                "energy; the closed form is outside its validity regime")
        warnings.warn(note, stacklevel=2)

    kt = units.thermal_energy(system.T_K)
    h0 = (2.0 * math.pi / 3.0) * units.HBAR_JS * (kt * sigma) ** 2 / ep2 ** 2
    force = g * system.v_m_per_s * h0
    return FrictionResult(force=force, force_units="Pa", h0=h0, g=g,
                          quadrature_error=0.0, route="drude-closed-form",
                          note=note)


def _per_particle_density(medium: MediumSpec, role: str) -> SpectralDensity:
    """Per-particle spectral density (nm^3) of a dilute medium.

    Only tabulated data can supply a genuine per-particle continuum: the
    free-electron models have no finite per-particle spectral density
    (the undamped line is discrete; the damped one diverges at zero
    frequency before screening).
    """
    model = medium.model
    if isinstance(model, Tabulated):
        return spectral_density(model)
    if isinstance(model, Vacuum):
        return spectral_density(model)
    raise UnsupportedModelError(
        f"{role} needs a per-particle spectral density; supply tabulated "
        "data (nm^3 per sample).  Free-electron models are only meaningful "
        "through the dense surface response")


def friction_dilute(system: PlateSystem,
                    spec: QuadratureSpec | None = None) -> FrictionResult:
    """Friction per unit area between two dilute half-planes (Pa).

    The media must carry number densities and per-particle (tabulated)
    spectral data; the force is additive over particle pairs, hence
    bilinear in the two densities.  Whether the dilute approximation is
    adequate at the given densities is the caller's responsibility.
    """
    for name, med in (("medium1", system.medium1), ("medium2", system.medium2)):
        if med.density_per_nm3 is None:
            raise DomainError(f"dilute route requires {name}.density_per_nm3")
    s1 = _per_particle_density(system.medium1, "dilute medium1")
    s2 = _per_particle_density(system.medium2, "dilute medium2")
    h0 = h0_dilute(s1, s2, system.T_K, spec=spec)

    rho1 = system.medium1.density_per_nm3
    rho2 = system.medium2.density_per_nm3
    d_m = system.d_nm * units.NM_TO_M
    # rho [nm^-3] times per-particle volume [nm^3] is dimensionless, so
    # the only length converted is the gap.
    g = 3.0 * math.pi * rho1 * rho2 / (8.0 * d_m ** 4)
    force = g * system.v_m_per_s * h0.value
    return FrictionResult(force=force, force_units="Pa", h0=h0.value, g=g,
                          quadrature_error=_rel_err(h0), route="dilute",
                          converged=h0.converged)


def friction_hybrid(probe: MediumSpec, plate: PermittivityModel,
                    z0_nm: float, v_m_per_s: float, temperature_k: float,
                    spec: QuadratureSpec | None = None) -> FrictionResult:
    """Friction force (N) on one dilute particle above a dense half-plane.

    The probe supplies a per-particle spectral density (nm^3); the plate
    enters through its surface response, whose density-scaled spectrum
    replaces the second per-particle density — the plate's own density
    cancels against the half-plane geometric factor, leaving

        F = (3 / (4 z0**5)) * v * (pi*beta*hbar/2)
            * integral of value_probe(m) S_plate(m) / sinh(beta*m/2)**2 dm.

    The kernel does not vary with the transverse mode in this limit, so
    no mode-resolved nesting is needed.
    """
    if not z0_nm > 0.0:
        raise DomainError("z0_nm must be > 0")
    if v_m_per_s < 0.0:
        raise DomainError("v_m_per_s must be >= 0")
    s_probe = _per_particle_density(probe, "the hybrid probe")
    s_plate = spectral_density(plate).require_continuous("the hybrid plate")

    def plate_half(m):
        return 0.5 * s_plate.value(m)

    h0 = h0_overlap(s_probe.value, plate_half, temperature_k,
                    peak_hints=(s_probe.peak_hint, s_plate.peak_hint),
                    support_max=_joint_support(s_probe, s_plate), spec=spec)
    # nm^3 from the probe spectrum against the nm^-5 gap power: net nm^-2,
    # converted to SI through the single z0 conversion below.
    z0_m = z0_nm * units.NM_TO_M
    nm3_to_m3 = units.NM_TO_M ** 3
    g = 3.0 / (2.0 * z0_m ** 5) * nm3_to_m3
    force = g * v_m_per_s * h0.value
    return FrictionResult(force=force, force_units="N", h0=h0.value, g=g,
                          quadrature_error=_rel_err(h0), route="hybrid",
                          converged=h0.converged)
