"""Harmonic-oscillator correlation machinery.

Imaginary-frequency polarizabilities, imaginary-time correlators and the
Gaussian statistics of a coupled pair of oscillators: the transform
pair, the pair's beta-scaled moments and their Monte-Carlo cross-check
of acceptance criterion 8.  Those moments are the same at every beta,
so the pair functions take no beta.  Everything here is a pure
function; the Monte-Carlo cross-check takes an explicit seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StabilityError
from .units import _formed, _positive, _positive_fields, _real, _whole

# Rows of normals per block of sample_pair_correlators: the working set
# of a block (a few arrays of this length) stays within a few MiB.
_BLOCK_ROWS = 1 << 15


@dataclass(frozen=True)
class OscillatorSpec:
    """An isotropic harmonic dipole oscillator.

    ``alpha_static`` is the zero-frequency polarizability (nm^3 at the
    API, but any fixed volume unit propagates consistently);
    ``eigen_energy_ev`` is hbar*omega_0.  Fields may be real scalars,
    arrays or lists that broadcast together, one oscillator per element;
    each check applies to every element.
    """

    alpha_static: float
    eigen_energy_ev: float

    def __post_init__(self):
        _positive_fields(self, "alpha_static", "eigen_energy_ev", array=True)


@np.errstate(over="ignore", invalid="ignore")
def gtilde(osc: OscillatorSpec, k) -> float:
    """Oscillator polarizability on the imaginary frequency axis:
    alpha * w0**2 / (K**2 + w0**2).  Even in K; equals alpha_static at 0
    and is 0 where K**2 leaves the float range."""
    k = np.asarray(_real("k", k, array=True))
    w = osc.eigen_energy_ev
    out = _formed("alpha*w0**2/(K**2 + w0**2)",
                  lambda: osc.alpha_static * w ** 2 / (k ** 2 + w ** 2))
    return float(out) if out.ndim == 0 else out


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def g_imaginary_time(osc: OscillatorSpec, lam, beta):
    """Imaginary-time correlator <s(lambda) s(0)> of one oscillator:

        g(lambda) = (alpha*w0/2) * cosh((beta/2 - lambda)*w0) / sinh(beta*w0/2)

    valid for 0 <= lambda <= beta (the periodic extension is not
    implemented).  At lambda = 0 this is (alpha*w0/2)*coth(beta*w0/2).
    ``lam``, ``beta`` and the fields of ``osc`` may be scalars (float
    returned) or arrays that broadcast together (array returned), each
    entry bit for bit as its own scalar call.  There is no batched form:
    an ``OscillatorSpec`` of arrays is the batch.
    """
    b = np.asarray(_positive("beta", beta, array=True))
    lam = np.asarray(_positive("lam", lam, zero=True, array=True))
    outside = lam > b
    if outside.any():
        bad = np.broadcast_to(lam, outside.shape)[outside]
        raise DomainError(f"lam must lie in [0, beta], got {bad!r}")
    w = osc.eigen_energy_ev
    amp = 0.5 * osc.alpha_static * w
    x = b * w / 2.0
    y = (b / 2.0 - lam) * w
    # cosh(y)/sinh(x) = (e^{y-x} + e^{-y-x})/(1 - e^{-2x}): with |y| <= x
    # no exponent is positive, so only the amplitude, or its quotient by
    # 1 - e^{-2x} as x -> 0, can leave the float range.
    out = _formed("the imaginary-time correlator", lambda: amp * (
        np.exp(y - x) + np.exp(-y - x)) / -np.expm1(-2.0 * x))
    return float(out) if out.ndim == 0 else out


def _stability(alpha1: float, alpha2: float, phi: float) -> tuple:
    """(alpha1, alpha2, phi, alpha1*alpha2*phi**2) as Python floats, each
    alpha finite and > 0 and phi finite, for a stable pair: x < 1.  x is
    (alpha1*phi)*(alpha2*phi), never inf*0."""
    alpha1, alpha2 = _positive("alpha1", alpha1), _positive("alpha2", alpha2)
    phi = _real("phi", phi)
    x = (alpha1 * phi) * (alpha2 * phi)
    if x >= 1.0:
        raise StabilityError(
            f"alpha1*alpha2*phi**2 = {x:.6g} >= 1: the coupled Gaussian "
            "pair is unstable (non-normalizable weight)")
    return alpha1, alpha2, phi, x


def pair_correlators(alpha1: float, alpha2: float,
                     phi: float) -> tuple[float, float, float]:
    """Scaled second moments of the coupled pair, the same at every beta:

        beta<s_a**2> = alpha_a / (1 - alpha1*alpha2*phi**2)
        beta<s1 s2>  = alpha1*alpha2*phi / (1 - alpha1*alpha2*phi**2)

    Returned as (beta<s1^2>, beta<s2^2>, beta<s1 s2>).  The cross term is
    odd in phi; only its square enters any downstream quantity.  It is
    formed as (alpha1*phi)*alpha2, never inf*0.  A moment past the float
    range is a DomainError.
    """
    alpha1, alpha2, phi, x = _stability(alpha1, alpha2, phi)
    denom = 1.0 - x
    return _formed("a pair moment", lambda: (
        alpha1 / denom, alpha2 / denom, alpha1 * phi * alpha2 / denom))


def pair_fourth_moment(alpha1: float, alpha2: float,
                       phi: float) -> tuple[float, float, float]:
    """Connected fourth moment beta**2*(<s1 s2 s1 s2> - <s1 s2>**2),
    decomposed into its in-plane product term <s1^2><s2^2> and the
    cross-plane term <s1 s2>^2, returned as (term11, term12, sum).  A
    term past the float range is a DomainError."""
    b1, b2, b12 = pair_correlators(alpha1, alpha2, phi)
    return _formed("a term of the fourth moment", lambda: (
        b1 * b2, b12 * b12, b1 * b2 + b12 * b12))


@np.errstate(over="ignore", invalid="ignore")
def sample_pair_correlators(alpha1: float, alpha2: float, phi: float,
                            n_samples: int, seed: int):
    """Monte-Carlo estimate of the pair moments from the bivariate
    Gaussian weight (sign convention of :func:`pair_correlators`).

    Returns a dict of estimates with standard errors:
    keys 's1s1', 's2s2', 's1s2', 'fourth' map to (mean, stderr) of the
    beta-scaled moments, sampled from the beta-scaled covariance of
    :func:`pair_correlators`, so beta does not enter.  ``n_samples`` is
    an integer >= 2 and ``seed`` an integer >= 0.  The ``(n_samples, 2)``
    normals are drawn in blocks of ``_BLOCK_ROWS`` rows (the same stream
    as one draw), and each block adds to the sums of v - c and (v - c)**2
    of every sampled moment v, with c the first block's means (the
    shifted sums of Chan, Golub & LeVeque, 1983), so memory does not
    grow with ``n_samples``.  A sampled moment past the float range is a
    DomainError.
    """
    b1, b2, b12 = pair_correlators(alpha1, alpha2, phi)
    n_samples = _whole("n_samples", n_samples, 2)
    rng = np.random.default_rng(_whole("seed", seed, 0))
    chol = np.linalg.cholesky(np.array([[b1, b12], [b12, b2]]))
    # Block buffers, reused: the normals, the two coordinates and the four
    # sampled moments s1^2, s2^2, s1*s2, (s1*s2)^2.
    rows = min(_BLOCK_ROWS, n_samples)
    z_buf = np.empty((rows, 2))
    s_buf = np.empty((2, rows))
    v_buf = np.empty((4, rows))
    shift = None
    sums = np.zeros(4)
    squares = np.zeros(4)
    for lo in range(0, n_samples, _BLOCK_ROWS):
        nb = min(_BLOCK_ROWS, n_samples - lo)
        z, v = z_buf[:nb], v_buf[:, :nb]
        rng.standard_normal(out=z)
        s = np.matmul(chol, z.T, out=s_buf[:, :nb])
        np.multiply(s, s, out=v[:2])
        np.multiply(s[0], s[1], out=v[2])
        np.multiply(v[2], v[2], out=v[3])
        if shift is None:
            shift = v.mean(axis=1)[:, None]
        v -= shift
        # numpy's own loops, not BLAS: a threaded BLAS dot on rows this
        # long wakes worker threads that spin between blocks, doubling
        # the CPU time for a few percent of wall time.
        sums += np.einsum("ij->i", v)
        squares += np.einsum("ij,ij->i", v, v)
    mean = shift[:, 0] + sums / n_samples
    m2 = squares - sums * sums / n_samples
    stderr = np.sqrt(m2 / (n_samples - 1)) / math.sqrt(n_samples)
    s1s1, s2s2, s1s2, fourth = ((float(m), float(e)) for m, e in zip(mean, stderr))
    # connected part: subtract <s1 s2>^2 (propagating its error is
    # negligible next to the fourth-moment spread)
    moments = _formed("a sampled pair moment", lambda: (
        s1s1, s2s2, s1s2, (fourth[0] - s1s2[0] ** 2, fourth[1])))
    return dict(zip(("s1s1", "s2s2", "s1s2", "fourth"), moments))
