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
u = q*d.  ``denominators="keep"`` retains that screening as the
squared-modulus factor |1 - A1*A2*e^{-2u}|^{-2} on the bilinear spectral
product; its average over the transverse weight (8/3) u^3 e^{-2u} is the
closed form Im Li4(z)/Im z at z = A1*A2 (``_screening_factor``), so the
screened kernel is one overlap integral like the bare one.  For good
metals it raises the force by about zeta(3) = 1.202, the real-axis limit
Li3(z)/z at z -> 1.  The default ``denominators="drop"`` treats the whole
cross-gap interaction as the perturbation, reducing the kernel to the
bare product of single-surface spectra — the election under which the
closed form below is exact.

Every numeric route takes its H0 from one :func:`h0_overlap` call on two
:class:`~casfric.dielectric.SpectralDensity` objects, and every route
assembles its result as F = G * v * H0 in one place (``_result``), with
G a closed form of :mod:`~casfric.geometry`; the closed form passes its
H0 as an exact integral.  The screening of
"keep" (both surface responses and Li4) costs more per call than the
spectra it multiplies, so ``h0_overlap`` evaluates it in one call on
its probe and the first Kronrod pass together.  Undamped Drude media
have no continuous spectral density: they raise
:class:`~casfric.errors.DeltaLineError`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, replace
from typing import Literal

import numpy as np

from . import geometry, units
from .dielectric import (Drude, MediumSpec, PermittivityModel, SpectralDensity,
                         Tabulated, Vacuum, dense_alpha_retarded,
                         spectral_density)
from .errors import DomainError, UnsupportedModelError
from .polylog import LI4_REL_ERR, li4
from .quadrature import (IntegralResult, QuadratureSpec, default_spec,
                         initial_nodes, integrate_finite)

DenominatorMode = Literal["drop", "keep"]

_OPPOSES = "opposes the relative velocity (x direction)"

# Size, relative to max(|z|, 1), of the complex step that takes
# Im Li4(z)/Im z to its real-axis limit: far below any departure from
# the axis that changes the ratio in double precision.
_STEP = 1e-30

# Geometric probe sweep of h0_overlap in units of its cap, 1e-9 to 1.
_PROBE_UNIT = np.geomspace(1e-9, 1.0, 97)
# The point of its tail bound, just past the cap, in the same units.
_PAST_CAP = 1.0 + 1e-9
# Initial panel edges across the thermal window, in units of k_B*T.
_OCTAVES = tuple(2.0 ** k for k in range(-1, 6))
# Density (nm^-3) of the half-plane a dense plate enters as (see geometry).
_DENSE_DENSITY = 1.0 / (2.0 * math.pi)


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
        _check_motion("d_nm", self.d_nm, self.v_m_per_s, self.T_K)


def _check_motion(gap_name: str, gap_nm: float, v_m_per_s: float,
                  temperature_k: float) -> None:
    """A finite gap > 0, speed >= 0 and temperature > 0."""
    for name, x in ((gap_name, gap_nm), ("v_m_per_s", v_m_per_s),
                    ("T_K", temperature_k)):
        if not math.isfinite(x):
            raise DomainError(f"{name} must be finite, got {x!r}")
    if not gap_nm > 0.0:
        raise DomainError(f"{gap_name} must be > 0")
    if v_m_per_s < 0.0:
        raise DomainError("v_m_per_s must be >= 0 (magnitude)")
    if not temperature_k > 0.0:
        raise DomainError("T_K must be > 0")


@dataclass(frozen=True)
class FrictionResult:
    """Force magnitude with its intermediate factors.

    ``force`` is a magnitude (direction always opposes the velocity);
    units are Pa for the plate routes and N for the hybrid particle
    route, recorded in ``force_units``.  ``h0`` and ``g`` satisfy
    force = g * v * h0 in SI.  ``quadrature_error`` is the relative
    error estimate of the numeric route (0 for closed forms), and
    ``evaluations`` the number of integrand evaluations it took.
    """

    force: float
    force_units: str
    h0: float
    g: float
    quadrature_error: float
    route: str
    converged: bool = True
    evaluations: int = 0
    direction: str = _OPPOSES
    note: str | None = None


def _csch2_half(x):
    """1/sinh(x/2)**2, vectorized, with no cancellation as x -> 0.  It is
    finite for x above about 1.5e-154; below, sinh(x/2)**2 leaves the
    normal range and the weight overflows.  The argument is clipped below
    the overflow of sinh, where the weight has long underflowed to 0."""
    out = 0.5 * np.asarray(x, dtype=float)
    np.minimum(out, 700.0, out=out)
    np.sinh(out, out=out)
    out **= -2.0
    return out


def h0_overlap(s1: SpectralDensity, s2: SpectralDensity,
               temperature_k: float, spec: QuadratureSpec | None = None,
               extra_factor=None) -> IntegralResult:
    """Thermal spectral-overlap integral shared by every H0 route,

        (pi*beta*hbar/2) * integral of S1(m) S2(m) / sinh(beta*m/2)**2 dm,

    over the common support of the two densities (any consistent
    normalization; the caller owns the bookkeeping).  ``extra_factor``,
    when given, multiplies the integrand (cross-gap screening).  The
    integrand is rescaled by its probed peak before adaptive integration
    so that the tolerance spec stays meaningful for the physically tiny
    magnitudes involved (~hbar), and the integration is truncated where
    the exponential thermal envelope provably kills the integrand; the
    bound is checked, not assumed.

    ``extra_factor`` must be elementwise.  It is called once on the probe
    together with the nodes of the initial panels built around the peak
    of the bare product S1*S2/sinh**2 on the probe, and then once for
    each later pass of the adaptive rule.  Where the factor moves the
    probed peak to another point, the panels are built around that point
    instead, the factor is evaluated on them as on a later pass, and
    ``evaluations`` counts the unused nodes too.  Either way the result
    is that of probing with the factor and then integrating.
    """
    if spec is None:
        spec = default_spec()
    beta = units.beta(temperature_k)
    # The integral runs to the thermal window, and the Drude density forms
    # the fourth power of m, up to the probe point just past the window.
    window = 40.0 / beta
    edge = window * _PAST_CAP
    if (edge * edge) * (edge * edge) == math.inf:
        raise DomainError(f"temperature T_K = {temperature_k!r} K is out of "
                          "range: the fourth power of the thermal window "
                          "40*k_B*T leaves the float range")
    hints = [h for h in (s1.peak_hint, s2.peak_hint) if h > 0.0]
    m_cap = min(max(window, *(10.0 * h for h in hints)),
                s1.support_max, s2.support_max)

    pref = 0.5 * math.pi * beta * units.HBAR_JS

    def integrand(m, factor=None):
        # pref*S1*S2*csch2(*factor) in this order, each product in place
        out = pref * s1.value(m)
        out *= s2.value(m)
        out *= _csch2_half(beta * m)
        if factor is not None:
            out *= factor
        return out

    def splits(m_star):
        # Split points past the cap are dropped by the engine.  Octave
        # edges across the thermal window: every initial panel where the
        # weight still carries mass is at most an octave wide, so the
        # first Kronrod pass cannot step over the decay region.
        return [*hints, 0.1 * m_star, m_star, 10.0 * m_star, window,
                *(octave / beta for octave in _OCTAVES)]

    # Deterministic probe of the integrand magnitude: geometric sweep of
    # the full range plus the thermal scale and the supplied peaks.  The
    # probe also locates the dominant feature so the adaptive rule starts
    # with panel edges bracketing it (a single wide panel would step
    # straight over a narrow thermal peak and "converge" on zero).
    # The last point, just past the cap, is the height of the tail bound
    # below; it rides in the probe's integrand call but not in its maximum.
    extra = [k / beta for k in range(1, 9) if k / beta < m_cap]
    extra += [h for h in hints if h < m_cap]
    extra.append(m_cap * _PAST_CAP)
    probe_grid = np.concatenate((m_cap * _PROBE_UNIT, extra))
    probe_grid[:-1].sort()
    vals = integrand(probe_grid)
    evals = len(vals)
    # The factor on the nodes of the engine's first call, if the screened
    # probe peaks where the bare one does and the panels stay as built.
    first_pass = []
    if extra_factor is not None:
        grid, bare = probe_grid, np.abs(vals[:-1])
        guess = int(bare.argmax())
        if 0.0 < bare[guess] < math.inf:
            grid = np.concatenate((probe_grid, initial_nodes(
                0.0, m_cap, splits(float(probe_grid[guess])))))
        factor = extra_factor(grid)
        vals *= factor[:evals]
        first_pass.append(factor[evals:])
        evals = len(factor)
    tail_val = float(vals[-1])
    probe_abs = np.abs(vals[:-1])
    peak = int(probe_abs.argmax())
    scale = float(probe_abs[peak])
    if scale == 0.0 or not math.isfinite(scale):
        if not math.isfinite(scale):
            return IntegralResult(math.nan, math.inf, evals, False)
        return IntegralResult(0.0, 0.0, evals, True)
    if first_pass and peak == guess:
        evals -= len(first_pass[0])
    else:
        first_pass.clear()

    def scaled(m):
        factor = None
        if extra_factor is not None:
            factor = first_pass.pop() if first_pass else extra_factor(m)
        out = integrand(m, factor)
        out /= scale
        return out

    res = integrate_finite(scaled, 0.0, m_cap, spec,
                           split_points=splits(float(probe_grid[peak])))

    # Tail bound beyond m_cap: the thermal weight is < 4*exp(-beta*m) and
    # the spectral product is bounded near the cap for every decaying
    # density handled here; float underflow makes this zero at practical
    # temperatures, but verify rather than assume.
    tail_bound = abs(tail_val / scale) / beta * 2.0
    err = res.error_estimate + tail_bound
    converged = res.converged and (res.value == 0.0
                                   or tail_bound <= spec.target(res.value))
    return IntegralResult(res.value * scale, err * scale,
                          res.evaluations + evals, converged)


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
    factor of the plate force.  No force route integrates this over u:
    ``_screening_factor`` does that in closed form.  No check uses this
    kernel as an oracle either; the benchmark's tracer still wraps it.
    """
    if not u > 0.0:
        raise DomainError("u must be > 0")
    _check_denominators(denominators)
    extra = None
    if denominators == "keep":
        x = math.exp(-2.0 * u)

        def extra(m):
            a1 = dense_alpha_retarded(model1, m)
            a2 = dense_alpha_retarded(model2, m)
            return 1.0 / np.abs(1.0 - a1 * a2 * x) ** 2

    return h0_overlap(spectral_density(model1), spectral_density(model2),
                      temperature_k, spec, extra)


def _check_denominators(denominators) -> None:
    if denominators not in ("drop", "keep"):
        raise DomainError(
            f"denominators must be 'drop' or 'keep', got {denominators!r}")


def _screening_factor(z):
    """Cross-gap screening averaged over the transverse modes,

        (8/3) * integral over u > 0 of u^3 e^{-2u} |1 - z e^{-2u}|^{-2} du
            = Im Li4(z) / Im z,

    by partial fractions in e^{-2u}, for an array of z = A1*A2.  On the
    real axis up to z = 1 the ratio is its limit Li3(z)/z, taken by a
    complex step of relative size _STEP: 1 at z = 0 (vacuum), zeta(3) at
    z = 1.  A real z > 1 puts a non-integrable pole at u = ln(z)/2 and
    gives inf.
    """
    z = np.asarray(z, dtype=complex)
    step = _STEP * np.maximum(np.abs(z), 1.0)
    near_axis = np.abs(z.imag) < step
    if not near_axis.any():
        return li4(z).imag / z.imag
    pole = (z.imag == 0.0) & (z.real > 1.0)
    y = np.where((near_axis & (z.real <= 1.0)) | pole, step, z.imag)
    return np.where(pole, np.inf, li4(z.real + 1j * y).imag / y)


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
    a1 = dense_alpha_retarded(model1, m)
    a2 = dense_alpha_retarded(model2, m)
    x = math.exp(-2.0 * u)
    denom = 1.0 - a1 * a2 * x
    h11 = a1 / denom
    h22 = a2 / denom
    h12 = a1 * a2 * math.exp(-u) / denom
    return (-h11.imag / math.pi, -h22.imag / math.pi, -h12.imag / math.pi)


def _static_alpha(model: PermittivityModel) -> float:
    """A(0) as ``dense_alpha(model, 0.0)`` gives it: one closed-form sum
    for a table, exactly 1 for a Drude model and 0 for vacuum."""
    if isinstance(model, Tabulated):
        return model._terms.static()
    return 1.0 if isinstance(model, Drude) else 0.0


def _dense_h0(system: PlateSystem, denominators: DenominatorMode,
              spec: QuadratureSpec | None) -> IntegralResult:
    """Density-scaled H0 of the plate pair, one overlap integral over m.

    The transverse weight (8/3) u^3 e^{-2u} integrates to exactly one
    for "drop"; for "keep" its integral against the screening is the
    closed-form ``_screening_factor`` of z = A1*A2.  The relative error
    bound of Li4 is added to the quadrature error, so "keep" integrates
    at a relative tolerance no tighter than that bound and converges
    only where the sum meets the requested one.

    As m -> 0, z tends to the real z(0) = A1(0)*A2(0); past 1 the kernel
    is infinite, with the screening's pole at u = ln(z(0))/2: a
    ``DomainError``.  Only a table can push z(0) past 1.
    """
    _check_denominators(denominators)
    if spec is None:
        spec = default_spec()
    model1, model2 = system.medium1.model, system.medium2.model
    s1, s2 = spectral_density(model1), spectral_density(model2)
    if denominators == "drop":
        return h0_overlap(s1, s2, system.T_K, spec)
    z0 = _static_alpha(model1) * _static_alpha(model2)
    if z0 > 1.0:
        raise DomainError(
            f"denominators='keep' needs z(0) = A1(0)*A2(0) <= 1, got "
            f"z(0) = {z0:.6g}: the screening has a non-integrable pole "
            f"at u = ln(z(0))/2 = {0.5 * math.log(z0):.6g}")

    def screening(m):
        return _screening_factor(dense_alpha_retarded(model1, m)
                                 * dense_alpha_retarded(model2, m))

    res = h0_overlap(s1, s2, system.T_K,
                     replace(spec, rel_tol=max(spec.rel_tol, LI4_REL_ERR)),
                     screening)
    err = res.error_estimate + LI4_REL_ERR * abs(res.value)
    return IntegralResult(res.value, err, res.evaluations,
                          res.converged and err <= spec.rel_tol * abs(res.value))


def _result(route: str, g: float, v_m_per_s: float, h0: IntegralResult,
            force_units: str, note: str | None = None) -> FrictionResult:
    """F = g * v * H0, with the relative error, convergence and cost of H0."""
    value = h0.value
    force = g * v_m_per_s * value
    if math.isfinite(value) and not math.isfinite(force):
        raise DomainError(f"the {route} force leaves the float range")
    return FrictionResult(
        force=force, force_units=force_units, h0=value, g=g,
        quadrature_error=h0.error_estimate / abs(value) if value != 0.0 else 0.0,
        route=route, converged=h0.converged, evaluations=h0.evaluations,
        note=note)


def friction_dense(system: PlateSystem,
                   denominators: DenominatorMode = "drop",
                   spec: QuadratureSpec | None = None) -> FrictionResult:
    """Friction per unit area between two dense half-planes (Pa).

    Only the permittivities enter: the number densities cancel between
    the geometric factor and the density-scaled overlap kernel, so the
    result is invariant under any bookkeeping density.  Non-convergence
    of the quadrature is reported on the result, never silently.
    """
    g = geometry.g_two_planes(_DENSE_DENSITY, _DENSE_DENSITY,
                              system.d_nm * units.NM_TO_M)
    return _result("dense-full", g, system.v_m_per_s,
                   _dense_h0(system, denominators, spec), "Pa",
                   note=f"denominators={denominators}")


def friction_drude_closed_form(system: PlateSystem) -> FrictionResult:
    """Small-damping closed form for two equal damped free-electron plates:

        F = (hbar * v / (4 d**4)) * (k_B T)**2 (hbar*nu)**2 / (hbar*omega_p)**4

    Exact consequence of the linear small-m spectral slope; valid while
    the damping is small against the surface resonance energy e_p and
    k_B T is below 0.02 e_p, where the thermal window stays inside the
    linear region (the force is then within 1.3 % of the dense "drop"
    route; warned otherwise, since the error past that grows and depends
    on the damping).
    """
    m1, m2 = system.medium1.model, system.medium2.model
    if not (isinstance(m1, Drude) and isinstance(m2, Drude)):
        raise UnsupportedModelError("closed form requires Drude media")
    if (m1.plasma_energy_ev, m1.damping_ev) != (m2.plasma_energy_ev, m2.damping_ev):
        raise UnsupportedModelError("closed form requires identical media")

    ep2 = 0.5 * m1.plasma_energy_ev ** 2
    sigma = m1.damping_ev
    kt = units.thermal_energy(system.T_K)
    h0 = units._formed("the closed-form H0", lambda: (2.0 * math.pi / 3.0)
                       * units.HBAR_JS * (kt * sigma) ** 2 / ep2 ** 2)
    outside = []
    if sigma > 0.1 * math.sqrt(ep2):
        outside.append("damping is not small against the surface resonance "
                       "energy")
    if kt > 0.02 * math.sqrt(ep2):
        outside.append("k_B*T exceeds 0.02 of the surface resonance energy")
    note = None
    if sigma == 0.0:
        note = ("zero damping: no dissipation channel, the first-order "
                "force vanishes")
    elif outside:
        note = "; ".join(outside + ["the closed form is outside its "
                                    "validity regime"])
        warnings.warn(note, stacklevel=2)

    g = geometry.g_two_planes(_DENSE_DENSITY, _DENSE_DENSITY,
                              system.d_nm * units.NM_TO_M)
    return _result("drude-closed-form", g, system.v_m_per_s,
                   IntegralResult(h0, 0.0, 0, True), "Pa", note)


def _per_particle_density(medium: MediumSpec, role: str) -> SpectralDensity:
    """Per-particle spectral density (nm^3) of a dilute medium.

    Only tabulated data can supply a genuine per-particle continuum: the
    free-electron models have no finite per-particle spectral density
    (the undamped line is discrete; the damped one diverges at zero
    frequency before screening).
    """
    if isinstance(medium.model, (Tabulated, Vacuum)):
        return spectral_density(medium.model)
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
    g = geometry.g_two_planes(system.medium1.density_per_nm3,
                              system.medium2.density_per_nm3,
                              system.d_nm * units.NM_TO_M)
    return _result("dilute", g, system.v_m_per_s,
                   h0_overlap(s1, s2, system.T_K, spec), "Pa")


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
    _check_motion("z0_nm", z0_nm, v_m_per_s, temperature_k)
    s_probe = _per_particle_density(probe, "the hybrid probe")
    s_plate = spectral_density(plate)
    g = (2.0 * geometry.g_halfplane(_DENSE_DENSITY, z0_nm * units.NM_TO_M)
         * units.NM_TO_M ** 3)
    # H0 carries the plate spectrum at half weight; halving is exact.
    h0 = h0_overlap(s_probe, s_plate, temperature_k, spec)
    return _result("hybrid", g, v_m_per_s,
                   IntegralResult(0.5 * h0.value, 0.5 * h0.error_estimate,
                                  h0.evaluations, h0.converged), "N")
