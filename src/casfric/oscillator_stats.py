"""Harmonic-oscillator correlation machinery.

Imaginary-frequency polarizabilities, imaginary-time correlators and
their Matsubara convolution, the Gaussian statistics of a coupled pair
of oscillators, and the resonant two-oscillator kernel.  Everything
here is a pure function; the Monte-Carlo cross-check takes an explicit
seed.  The correlators of two coupled half-planes live on the retarded
branch, in ``friction.plane_spectral_products``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StabilityError
from .quadrature import IntegralResult, QuadratureSpec, matsubara_sum


@dataclass(frozen=True)
class OscillatorSpec:
    """A single isotropic harmonic dipole oscillator.

    ``alpha_static`` is the zero-frequency polarizability (nm^3 at the
    API, but any fixed volume unit propagates consistently);
    ``eigen_energy_ev`` is hbar*omega_0.
    """

    alpha_static: float
    eigen_energy_ev: float

    def __post_init__(self):
        if not self.alpha_static > 0.0:
            raise DomainError("alpha_static must be > 0")
        if not self.eigen_energy_ev > 0.0:
            raise DomainError("eigen_energy_ev must be > 0")


def gtilde(osc: OscillatorSpec, k) -> float:
    """Oscillator polarizability on the imaginary frequency axis:
    alpha * w0**2 / (K**2 + w0**2).  Even in K; equals alpha_static at 0."""
    w2 = osc.eigen_energy_ev ** 2
    k_arr = np.asarray(k, dtype=float)
    out = osc.alpha_static * w2 / (k_arr ** 2 + w2)
    return float(out) if out.ndim == 0 else out


def g_imaginary_time(osc: OscillatorSpec, lam: float, beta: float) -> float:
    """Imaginary-time correlator <s(lambda) s(0)> of one oscillator:

        g(lambda) = (alpha*w0/2) * cosh((beta/2 - lambda)*w0) / sinh(beta*w0/2)

    valid for 0 <= lambda <= beta (the periodic extension is not
    implemented).  At lambda = 0 this is (alpha*w0/2)*coth(beta*w0/2).
    """
    if not beta > 0.0:
        raise DomainError("beta must be > 0")
    if lam < 0.0 or lam > beta:
        raise DomainError(f"lambda must lie in [0, beta], got {lam!r}")
    w = osc.eigen_energy_ev
    x = beta * w / 2.0
    # cosh((beta/2 - lam)*w)/sinh(x) in overflow-safe form.
    y = (beta / 2.0 - lam) * w
    if x > 350.0:
        # exp-scaled: cosh(y)/sinh(x) ~ (e^{y-x} + e^{-y-x})
        return 0.5 * osc.alpha_static * w * (math.exp(y - x) + math.exp(-y - x))
    return 0.5 * osc.alpha_static * w * math.cosh(y) / math.sinh(x)


def pair_convolution(osc1: OscillatorSpec, osc2: OscillatorSpec,
                     k: float, beta: float,
                     spec: QuadratureSpec | None = None) -> IntegralResult:
    """Matsubara convolution of two oscillator polarizabilities:

        (1/beta) * sum over K0 of gtilde1(K0) * gtilde2(K - K0)

    with K0 = 2*pi*n/beta.  This is the transform of the product of the
    two imaginary-time correlators.
    """
    if not beta > 0.0:
        raise DomainError("beta must be > 0")
    w0 = 2.0 * math.pi / beta

    def term(n: int) -> float:
        k0 = w0 * n
        return gtilde(osc1, k0) * gtilde(osc2, k - k0)

    return matsubara_sum(term, beta, spec)


def _stability(alpha1: float, alpha2: float, phi: float) -> float:
    x = alpha1 * alpha2 * phi * phi
    if x >= 1.0:
        raise StabilityError(
            f"alpha1*alpha2*phi**2 = {x:.6g} >= 1: the coupled Gaussian "
            "pair is unstable (non-normalizable weight)")
    return x


def pair_free_energy(alpha1: float, alpha2: float, phi: float,
                     beta: float) -> float:
    """Interaction free energy of the coupled pair,
    F = ln(1 - alpha1*alpha2*phi**2) / (2*beta)  (negative: binding)."""
    if not beta > 0.0:
        raise DomainError("beta must be > 0")
    x = _stability(alpha1, alpha2, phi)
    return math.log1p(-x) / (2.0 * beta)


def pair_correlators(alpha1: float, alpha2: float, phi: float,
                     beta: float) -> tuple[float, float, float]:
    """Scaled second moments of the coupled pair:

        beta<s_a**2> = alpha_a / (1 - alpha1*alpha2*phi**2)
        beta<s1 s2>  = alpha1*alpha2*phi / (1 - alpha1*alpha2*phi**2)

    Returned as (beta<s1^2>, beta<s2^2>, beta<s1 s2>).  The cross term is
    odd in phi; only its square enters any downstream quantity.
    """
    x = _stability(alpha1, alpha2, phi)
    if not beta > 0.0:
        raise DomainError("beta must be > 0")
    denom = 1.0 - x
    return (alpha1 / denom, alpha2 / denom, alpha1 * alpha2 * phi / denom)


def pair_fourth_moment(alpha1: float, alpha2: float, phi: float,
                       beta: float) -> tuple[float, float, float]:
    """Connected fourth moment beta**2*(<s1 s2 s1 s2> - <s1 s2>**2),
    decomposed into its in-plane product term <s1^2><s2^2> and the
    cross-plane term <s1 s2>^2, returned as (term11, term12, sum)."""
    b1, b2, b12 = pair_correlators(alpha1, alpha2, phi, beta)
    term11 = b1 * b2
    term12 = b12 * b12
    return (term11, term12, term11 + term12)


def sample_pair_correlators(alpha1: float, alpha2: float, phi: float,
                            beta: float, n_samples: int, seed: int):
    """Monte-Carlo estimate of the pair moments from the bivariate
    Gaussian weight (sign convention of :func:`pair_correlators`).

    Returns a dict of estimates with standard errors:
    keys 's1s1', 's2s2', 's1s2', 'fourth' map to (mean, stderr) of the
    beta-scaled moments.
    """
    x = _stability(alpha1, alpha2, phi)
    if not beta > 0.0:
        raise DomainError("beta must be > 0")
    cov = np.array([[alpha1, alpha1 * alpha2 * phi],
                    [alpha1 * alpha2 * phi, alpha2]]) / (beta * (1.0 - x))
    chol = np.linalg.cholesky(cov)
    rng = np.random.default_rng(seed)
    z = rng.standard_normal((n_samples, 2))
    s = z @ chol.T

    def stat(v):
        return float(np.mean(v)), float(np.std(v, ddof=1) / math.sqrt(len(v)))

    s1s1 = stat(beta * s[:, 0] ** 2)
    s2s2 = stat(beta * s[:, 1] ** 2)
    s1s2 = stat(beta * s[:, 0] * s[:, 1])
    prod = beta * s[:, 0] * s[:, 1]
    fourth = stat(prod * prod)
    # connected part: subtract <s1 s2>^2 (propagating its error is
    # negligible next to the fourth-moment spread)
    fourth = (fourth[0] - s1s2[0] ** 2, fourth[1])
    return {"s1s1": s1s1, "s2s2": s2s2, "s1s2": s1s2, "fourth": fourth}


def resonant_kernel(alpha1: float, alpha2: float, m: float,
                    beta: float) -> float:
    """Resonant kernel of two equal-frequency discrete oscillators,
    (m / (2*sinh(beta*m/2)))**2 * alpha1 * alpha2.

    This is the weight that multiplies the frequency-matching delta in
    the discrete-line friction force; it is exposed for analysis only,
    since an exact line-line resonance is not numerically evaluable (the
    continuous-spectrum overlap kernels replace it everywhere else).
    """
    if not m > 0.0:
        raise DomainError("m must be > 0")
    if not beta > 0.0:
        raise DomainError("beta must be > 0")
    x = 0.5 * beta * m
    if x > 350.0:
        s = m * math.exp(-x)
    else:
        s = m / (2.0 * math.sinh(x))
    return s * s * alpha1 * alpha2
