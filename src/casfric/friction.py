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

over excitation energies m (eV), integrated as (2*pi*hbar/beta) times
the integral of (S1/d)(S2/d), d = sinh(beta*m/2)/(beta/2) >= m, so the
weight cannot overflow near m = 0.  For the dense route, the coupling of
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

Every numeric route takes its two densities, screening and weight from
one place (``_integrand``) and its H0 from one :func:`h0_overlap` call
on them; :func:`h0_integrand` shows that integrand at given energies.
Every route
assembles its result as F = G * v * H0 in one place (``_result``), with
G a closed form of :mod:`~casfric.geometry`; the closed form passes its
H0 as an exact integral.  Every route, "keep" included, takes its scale
and tail value from the engine's first pass; the screening of "keep"
(both surface responses and Li4), which costs more per point than the
spectra it multiplies, is evaluated once a Kronrod pass, on the nodes
alone, and never on the bare probe.  A medium enters only through its
model's spectral density, response and ``static_response`` A(0); only
the closed form and the per-particle routes test for Drude.  Undamped
Drude media have no continuous spectral density: they raise
:class:`~casfric.errors.DeltaLineError`.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, fields, replace
from typing import Literal

import numpy as np

from . import geometry, units
from .dielectric import (Drude, MediumSpec, PermittivityModel, SpectralDensity,
                         _alpha_retarded, _ep2, _retarded_energies,
                         dense_alpha_retarded, spectral_density)
from .errors import DomainError, UnsupportedModelError
from .polylog import LI4_REL_ERR, _li4, li4
from .quadrature import (IntegralResult, QuadratureSpec, default_spec,
                         integrate_finite)

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
        units._positive_fields(self, "d_nm", "v_m_per_s", "T_K",
                               zero=("v_m_per_s",))


@dataclass(frozen=True)
class FrictionResult:
    """Force magnitude with its intermediate factors.

    ``force`` is a magnitude (direction always opposes the velocity);
    units are Pa for the plate routes and N for the hybrid particle
    route, recorded in ``force_units``.  ``h0`` and ``g`` satisfy
    force = g * v * h0 in SI.  ``quadrature_error`` is the relative
    error estimate of the numeric route (0 for closed forms), and
    ``evaluations`` the number of integrand evaluations it took, each
    abscissa counted once, the points of the bare probe included.
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


def h0_overlap(s1: SpectralDensity, s2: SpectralDensity,
               temperature_k: float, spec: QuadratureSpec | None = None,
               extra_factor=None) -> IntegralResult:
    """Thermal spectral-overlap integral shared by every H0 route,

        (pi*beta*hbar/2) * integral of S1(m) S2(m) / sinh(beta*m/2)**2 dm
          = (2*pi*hbar/beta) * integral of (S1/d) * (S2/d) dm,

    with d = sinh(beta*m/2)/(beta/2) >= m, over the common support of the
    two densities (any consistent normalization; the caller owns the
    bookkeeping).  The second form is the integrand: each ratio is
    bounded by S/m and is 0 where sinh overflows, so no weight overflows
    where both densities vanish like m; 2*pi*hbar/beta multiplies H0 and
    its error once, after the engine.  ``extra_factor``, when given,
    multiplies the integrand (cross-gap screening).  The integrand is
    rescaled by its sampled peak (see below) before adaptive integration
    so that the tolerance spec stays meaningful for the physically tiny
    magnitudes involved (~hbar), and the integration is truncated where
    the exponential thermal envelope provably kills the integrand; the
    bound is checked, not assumed.

    Every route runs one flow.  A bare probe of (S1/d)*(S2/d) places the
    initial panels around its peak; it holds no tail point and sets no
    scale.  The engine's first integrand call evaluates the integrand,
    times ``extra_factor`` if given (which must be elementwise), on the
    nodes of those panels followed by the tail-bound point.  It takes the
    tail value from that last point and the scale from the peak |value|
    on the nodes; where that peak is 0 or not finite, it returns zeros
    and the engine stops after it.  Each later pass evaluates the
    integrand, and the factor, once on its nodes.  ``evaluations`` counts
    each abscissa once, the probe's included.  A zero scale gives an
    exact zero.  Overflow is found, not predicted: a density product or
    the factor can leave the float range, and beta*m/2 can underflow to
    0 (d = 0), so the probe and the engine run with numpy's
    floating-point warnings off, and a scale, H0 or error that is not
    finite raises a :class:`~casfric.errors.DomainError` naming T_K.
    """
    if spec is None:
        spec = default_spec()
    beta = units.beta(temperature_k)
    window = 40.0 / beta
    hints = [h for h in (s1.peak_hint, s2.peak_hint) if h > 0.0]
    m_cap = min(max(window, 10.0 * s1.peak_hint, 10.0 * s2.peak_hint),
                s1.support_max, s2.support_max)

    integrand = _over_d(s1.value, s2.value, beta)
    tail_val = scale = scale_arr = None

    def scaled(m):
        nonlocal tail_val, scale, scale_arr
        # The engine's first call also takes the tail point and settles
        # the scale; without one, a zero integrand ends the engine's run.
        first = scale is None
        if first:
            m = np.append(m, m_cap * _PAST_CAP)
        out = integrand(m)
        if extra_factor is not None:
            out *= extra_factor(m)
        if first:
            tail_val, out = float(out[-1]), out[:-1]
            scale = float(np.abs(out).max())
            scale_arr = np.array(scale)
            if not 0.0 < scale < math.inf:
                return np.zeros_like(out)
        out /= scale_arr
        return out

    # Deterministic probe of the bare integrand's magnitude: geometric
    # sweep of the full range plus the thermal scale and the supplied
    # peaks.  The probe locates the dominant feature so the adaptive rule
    # starts with panel edges bracketing it (a single wide panel would step
    # straight over a narrow thermal peak and "converge" on zero).
    extra = [k / beta for k in range(1, 9) if k / beta < m_cap]
    extra += [h for h in hints if h < m_cap]
    probe_grid = np.concatenate((m_cap * _PROBE_UNIT, extra))
    probe_grid.sort()
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        vals = integrand(probe_grid)
        # Split points past the cap are dropped by the engine.  Octave
        # edges across the thermal window: every initial panel where the
        # weight still carries mass is at most an octave wide, so the
        # first Kronrod pass cannot step over the decay region.
        m_star = float(probe_grid[int(np.abs(vals).argmax())])
        splits = [*hints, 0.1 * m_star, m_star, 10.0 * m_star, window,
                  *(octave / beta for octave in _OCTAVES)]
        res = integrate_finite(scaled, 0.0, m_cap, spec, split_points=splits)
    evals = vals.size + res.evaluations + 1  # the tail point counted once
    if scale == 0.0:
        return IntegralResult(0.0, 0.0, evals, True)

    # Tail bound beyond m_cap: the thermal weight decays as exp(-beta*m) and
    # the spectral product is bounded near the cap for every decaying
    # density handled here; float underflow makes this zero at practical
    # temperatures, but verify rather than assume.
    tail_bound = abs(tail_val / scale) / beta * 2.0
    err = res.error_estimate + tail_bound
    pref = 2.0 * math.pi * units.HBAR_JS / beta
    value, err = res.value * scale * pref, err * scale * pref
    if not all(map(math.isfinite, (scale, value, err))):
        raise DomainError(f"the overlap integrand leaves the float range at "
                          f"T_K = {temperature_k!r} K")
    converged = res.converged and (res.value == 0.0
                                   or tail_bound <= spec.target(res.value))
    return IntegralResult(value, err, evals, converged)


def _over_d(value1, value2, beta: float):
    """m -> (S1/d)*(S2/d) on a float array m, d = sinh(beta*m/2)/(beta/2),
    for two density callables; swapping them leaves every bit."""
    half_beta = np.array(0.5 * beta)  # 0-d: no conversion on every call

    def integrand(m):
        d = half_beta * m
        np.sinh(d, out=d)
        d /= half_beta
        out = value1(m) / d
        out *= value2(m) / d
        return out

    return integrand


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
    gives inf.  Where every z is clear of the axis, Li4 runs without an
    ``np.errstate`` of its own (``polylog._li4``): an infinite z there
    warns unless the caller settles it, as ``h0_overlap`` does.
    """
    z = np.asarray(z, dtype=complex)
    r = np.abs(z)
    # No point lies near the axis when the least |Im z| clears the step of
    # the largest |z|; only otherwise are the steps formed point by point.
    if (np.abs(z.imag).min(initial=math.inf)
            >= _STEP * max(r.max(initial=0.0), 1.0)):
        return _li4(z, r).imag / z.imag
    step = _STEP * np.maximum(r, 1.0)
    near_axis = np.abs(z.imag) < step
    pole = (z.imag == 0.0) & (z.real > 1.0)
    y = np.where((near_axis & (z.real <= 1.0)) | pole, step, z.imag)
    return np.where(pole, np.inf, li4(z.real + 1j * y).imag / y)


def _in_order(model1: PermittivityModel, model2: PermittivityModel) -> list:
    """The two models in the order of the screening's z = A1*A2: by type
    name, then by their dataclass fields read by name, a float as it is
    and a column as a list.  What a model caches beside its fields does
    not enter; equal keys keep the given order."""
    return sorted((model1, model2), key=lambda m: (
        type(m).__name__, [np.asarray(getattr(m, f.name)).tolist()
                           for f in fields(m)]))


def _integrand(route: str, medium1: MediumSpec, medium2: MediumSpec,
               denominators: DenominatorMode = "drop") -> tuple:
    """(S1, S2, factor, weight) of a route, whose H0 is weight times
    ``h0_overlap(S1, S2, T, spec, factor)``: per-particle densities on
    the dilute route; the probe's (medium1) and the plate's spectrum at
    half weight on the hybrid route, where halving is exact; else the
    surface spectra of the dense pair, whose transverse weight
    (8/3) u^3 e^{-2u} integrates to one under "drop" and, under "keep",
    against the screening to the factor ``_screening_factor`` of
    z = A1*A2.  As m -> 0, z tends to the real z(0) = A1(0)*A2(0), which
    only a table can push past 1: the kernel is then infinite, with the
    screening's pole at u = ln(z(0))/2, a ``DomainError``."""
    if route == "dilute":
        for name, med in (("medium1", medium1), ("medium2", medium2)):
            if med.density_per_nm3 is None:
                raise DomainError(f"dilute route requires {name}.density_per_nm3")
        return (_per_particle_density(medium1, "dilute medium1"),
                _per_particle_density(medium2, "dilute medium2"), None, 1.0)
    if route == "hybrid":
        return (_per_particle_density(medium1, "the hybrid probe"),
                spectral_density(medium2.model), None, 0.5)
    if route not in ("dense-full", "drude-closed-form"):
        raise DomainError(f"unknown route {route!r}")
    _check_denominators(denominators)
    model1, model2 = medium1.model, medium2.model
    s1, s2 = spectral_density(model1), spectral_density(model2)
    if denominators == "drop":
        return s1, s2, None, 1.0
    z0 = model1.static_response * model2.static_response
    if not z0 <= 1.0:
        raise DomainError(
            f"denominators='keep' needs z(0) = A1(0)*A2(0) <= 1, got "
            f"z(0) = {z0:.6g}: the screening has a non-integrable pole "
            f"at u = ln(z(0))/2 = {0.5 * math.log(z0):.6g}")

    # The engine's nodes lie in (0, m_cap*(1 + 1e-9)], so A is formed on
    # them unchecked.  A node whose square overflows (a cap past 1.34e154
    # eV) gives an A that is not finite, which the overlap reports as
    # leaving the float range.  A complex a*b and b*a can differ in the
    # last bit, so z is formed with the models in one order whichever
    # plate each is: swapping the plates leaves every bit.
    first, second = _in_order(model1, model2)

    def screening(m):
        return _screening_factor(_alpha_retarded(first, m)
                                 * _alpha_retarded(second, m))

    return s1, s2, screening, 1.0


def _h0(integrand: tuple, temperature_k: float,
        spec: QuadratureSpec | None) -> IntegralResult:
    """H0 of an ``_integrand``.  Its only factor is the screening of
    "keep", whose Li4 error bound is added to the quadrature error: "keep"
    integrates at a relative tolerance no tighter than that bound and
    converges only where the sum meets the requested one."""
    s1, s2, factor, weight = integrand
    if factor is None:
        res = h0_overlap(s1, s2, temperature_k, spec)
    else:
        if spec is None:
            spec = default_spec()
        inner = (spec if spec.rel_tol >= LI4_REL_ERR
                 else replace(spec, rel_tol=LI4_REL_ERR))
        res = h0_overlap(s1, s2, temperature_k, inner, factor)
        err = res.error_estimate + LI4_REL_ERR * abs(res.value)
        res = IntegralResult(res.value, err, res.evaluations, res.converged
                             and err <= spec.rel_tol * abs(res.value))
    return IntegralResult(weight * res.value, weight * res.error_estimate,
                          res.evaluations, res.converged)


def h0_integrand(route: str, system: PlateSystem,
                 denominators: DenominatorMode, m) -> dict:
    """A route's H0 integrand at energies m (eV), from the route's own
    ``_integrand``, as columns: ``m_ev``, the densities ``spectral1`` and
    ``spectral2``, ``thermal_weight`` (x/sinh x)**2 at x = beta*m/2, the
    ``screening`` factor (1 but under "keep") and ``h0_density``, in H0's
    units per eV, whose integral over m is H0.  "drude-closed-form" gives
    the "drop" columns its closed form approximates.  Each m must be > 0
    with m**2 in the float range; an H0 density that is not finite is a
    ``DomainError``."""
    s1, s2, factor, weight = _integrand(route, system.medium1,
                                        system.medium2, denominators)
    m = _retarded_energies(m)
    beta = units.beta(system.T_K)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        screening = np.ones_like(m) if factor is None else factor(m)
        density = (2.0 * math.pi * units.HBAR_JS / beta * weight
                   * _over_d(s1.value, s2.value, beta)(m) * screening)
        # (m/d)**2 = (x/sinh x)**2: the overlap integrand of S1 = S2 = m
        thermal = _over_d(np.positive, np.positive, beta)(m)
    if not np.isfinite(density).all():
        raise DomainError(f"the H0 density leaves the float range at "
                          f"T_K = {system.T_K!r} K on this m grid")
    return {"m_ev": m, "spectral1": s1.value(m), "spectral2": s2.value(m),
            "thermal_weight": thermal, "screening": screening,
            "h0_density": density}


def _result(route: str, g: float, v_m_per_s: float, h0: IntegralResult,
            force_units: str, note: str | None = None) -> FrictionResult:
    """F = g * v * H0, with the relative error, convergence and cost of H0."""
    value = h0.value
    force = g * v_m_per_s * value
    if not math.isfinite(force):
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
    integrand = _integrand("dense-full", system.medium1, system.medium2,
                           denominators)
    return _result("dense-full", g, system.v_m_per_s,
                   _h0(integrand, system.T_K, spec), "Pa",
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

    ep2, sigma = _ep2(m1), m1.damping_ev
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
    """Per-particle spectral density (nm^3) of a dilute medium.  A Drude
    model has none: its undamped line is discrete, and its damped density
    diverges at zero frequency before screening."""
    if not isinstance(medium.model, Drude):
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
    integrand = _integrand("dilute", system.medium1, system.medium2)
    g = geometry.g_two_planes(system.medium1.density_per_nm3,
                              system.medium2.density_per_nm3,
                              system.d_nm * units.NM_TO_M)
    return _result("dilute", g, system.v_m_per_s,
                   _h0(integrand, system.T_K, spec), "Pa")


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
    z0_nm = units._positive("z0_nm", z0_nm)
    v_m_per_s = units._positive("v_m_per_s", v_m_per_s, zero=True)
    temperature_k = units._positive("T_K", temperature_k)
    integrand = _integrand("hybrid", probe, MediumSpec(plate))
    g = (2.0 * geometry.g_halfplane(_DENSE_DENSITY, z0_nm * units.NM_TO_M)
         * units.NM_TO_M ** 3)
    return _result("hybrid", g, v_m_per_s,
                   _h0(integrand, temperature_k, spec), "N")
