"""Complex tetralogarithm Li4(z) on its principal branch, vectorized.

Four expansions, each used where it converges fast and cancels no
digits (after Crandall, "Note on fast polylogarithm computation", 2006):

  * |z| <= 1/2: the defining series, sum of z**k / k**4;
  * |z| >= 2: the inversion formula
    Li4(z) = -Li4(1/z) - ln(-z)**4/24 - pi**2 ln(-z)**2/12 - 7 pi**4/360;
  * 1/2 < |z| < 2, Re z >= 0: the series in mu = ln z about z = 1,
    sum over k != 3 of zeta(4-k) mu**k/k!  +  mu**3/3! (H_3 - ln(-mu));
  * 1/2 < |z| < 2, Re z < 0: the series in w = ln(-z) about z = -1,
    -sum of eta(4-k) w**k/k!, with eta the Dirichlet eta function.

The series about z = -1 keeps Im Li4(z) to full relative precision near
the negative real axis.  There ln z has an imaginary part close to pi,
so the series in mu loses the small departure from the axis: at
z = -1 - 1e-14j its Im Li4(z)/Im z is 8 % off.

The coefficients are literals (40-digit values rounded to double), so
the module needs nothing beyond numpy.  Against mpmath the relative
error is below LI4_REL_ERR on every branch (tests/test_polylog.py).
"""

from __future__ import annotations

import math

import numpy as np

LI4_REL_ERR = 1e-13

# Series about z = 1: zeta(4-k)/k! for k = 0..4 (the k = 3 term is the
# logarithmic one), then for the odd k = 5, 7, ..., 25 (zeta vanishes
# at the negative even integers).
_ZETA_HEAD = (
    1.0823232337111381, 1.2020569031595942, 0.8224670334241132, 0.0,
    -0.020833333333333332,
)
_ZETA_ODD = (
    -0.0006944444444444445, 1.6534391534391535e-06,
    -1.0935444136502338e-08, 1.0438378493934049e-10,
    -1.2165942300622436e-12, 1.61300065283501e-14, -2.342881045287934e-16,
    3.643877167529437e-18, -5.977486811666558e-20, 1.0233713055515067e-21,
    -1.8145595613834747e-23,
)
_H3 = 11.0 / 6.0

# Series about z = -1: -eta(4-k)/k! for k = 0..4, then for the odd
# k = 5, 7, ..., 51.
_ETA_HEAD = (
    -0.9470328294972459, -0.9015426773696957, -0.4112335167120566,
    -0.11552453009332422, -0.020833333333333332,
)
_ETA_ODD = (
    -0.0020833333333333333, 2.48015873015873e-05, -6.889329805996473e-07,
    2.6617865159531827e-08, -1.244575897353675e-09, 6.605237673359367e-11,
    -3.838342016495222e-12, 2.388014901740416e-13, -1.5669563252707067e-14,
    1.0730815667186711e-15, -7.610812611989392e-17, 5.558334621172463e-18,
    -4.161406720903497e-19, 3.182691779725162e-20, -2.479630377006338e-21,
    1.9634651164555707e-22, -1.5771868151617354e-23,
    1.2831639512507319e-24, -1.055948606971994e-25, 8.779575014218737e-27,
    -7.368047318184002e-28, 6.236123641963677e-29, -5.3191574358527954e-30,
    4.569394014889192e-31,
)


def _with_odd_tail(head, odd):
    """Dense coefficients: ``head`` for k = 0..4, then odd[j] at k = 5 + 2j."""
    c = np.zeros(len(head) + 2 * len(odd) - 1)
    c[:len(head)] = head
    c[len(head)::2] = odd
    return c


_ZETA = _with_odd_tail(_ZETA_HEAD, _ZETA_ODD)
_ETA = _with_odd_tail(_ETA_HEAD, _ETA_ODD)
# 1/k**4 for k = 1..40: the tail at |z| = 1/2 is below 1e-18 of the sum.
_POWER = np.concatenate([[0.0], 1.0 / np.arange(1.0, 41.0) ** 4])
# Rows per matrix-vector product of a series: OpenBLAS hands a product of
# more than 4096 entries to its thread pool, whose idle threads then spin
# on the CPU through the rest of the caller's work.
_SERIES_ROWS = 64


def _series(coefs, x):
    """sum of coefs[k] * x**k over k, the powers by one cumulative
    product (repeated multiplication keeps a small Im x exact, where a
    polar-form power would not)."""
    n = len(coefs) - 1
    powers = np.cumprod(np.broadcast_to(x[:, None], (x.size, n)), axis=1)
    out = np.empty(x.size, dtype=powers.dtype)
    for lo in range(0, x.size, _SERIES_ROWS):
        out[lo:lo + _SERIES_ROWS] = powers[lo:lo + _SERIES_ROWS] @ coefs[1:]
    return coefs[0] + out


def _near_zero(z):
    return _series(_POWER, z)


def _beyond_two(z):
    lg = np.log(-z)
    return (-_series(_POWER, 1.0 / z) - lg ** 4 / 24.0
            - math.pi ** 2 * lg ** 2 / 12.0 - 7.0 * math.pi ** 4 / 360.0)


def _about_one(z):
    mu = np.log(z)
    log_mu = np.log(-np.where(mu == 0.0, 1.0, mu))  # mu**3 ln(-mu) -> 0 at z = 1
    return _series(_ZETA, mu) + mu ** 3 / 6.0 * (_H3 - log_mu)


def _about_minus_one(z):
    return _series(_ETA, np.log(-z))


def li4(z):
    """Li4(z) for an array (or scalar) of complex z.

    The branch cut runs along (1, inf); on it the sign of a zero
    imaginary part picks the side, as for ``np.log``.  A nan z, which
    no branch takes, gives nan.
    """
    z = np.asarray(z, dtype=complex)
    out = np.full_like(z, np.nan)
    r = np.abs(z)
    ring = (r > 0.5) & (r < 2.0)
    for where, branch in ((r <= 0.5, _near_zero), (r >= 2.0, _beyond_two),
                          (ring & (z.real >= 0.0), _about_one),
                          (ring & (z.real < 0.0), _about_minus_one)):
        if where.any():
            out[where] = branch(z[where])
    return out
