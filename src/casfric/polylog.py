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

Layout.  Every series is split into its even and odd powers,
E(x**2) + x * O(x**2), so one table of the powers of u = x**2 serves
them all.  Past x**4 the zeta and eta series have odd powers only (zeta
and eta vanish at the negative even integers), so their 11 and 24 odd
coefficients take rows u**2 to u**12 and u**2 to u**25.  Each point
picks its variable x (z, 1/z, ln z or ln(-z)) and its coefficient
columns; the powers u**k are products of earlier powers (no
``np.power``, no polar form), with u**k for k > 2 set to 0 where |u| is
too small for them to count.  The integer powers in the inversion
formula and the logarithmic term are products as well, and ln z is a
real logarithm of |z| plus an arctan2, one for the ring and the
inversion formula together; the even and odd sums are picked with one
flat index.  The logarithmic term of the series about z = 1 and the
inversion formula are each formed on their own points alone, taken by
``np.flatnonzero``, and skipped where a call has none.  So a call of any
size makes the same few dozen numpy calls.  ``_li4`` enters no
``np.errstate``: :func:`li4` enters one for it, and the screening of the
friction kernel runs it inside the one of its overlap integral.

Every complex product is formed out of place, its operands in a fixed
order.  With numpy 2.4 on an AVX-512 host, a*b and b*a differ in the
last bit on about a third of entries, so an in-place ``b *= a`` in
place of ``a * b`` changes the result; keeping the form of each product
also keeps the value at one z independent of the other points of its
call (tests/test_polylog.py checks both on pinned grids).

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


def _even_odd(head, odd, rows):
    """Columns (even, odd) of ``rows`` rows: the coefficients c_2j and
    c_(2j+1) of a series in x, ``head`` its c_0..c_4 and odd[j] its
    c_(5+2j) (its even coefficients past c_4 vanish)."""
    c = np.zeros(4 + 2 * len(odd))
    c[:5] = head
    c[5::2] = odd
    out = np.zeros((rows, 2))
    out[:c.size // 2] = c.reshape(-1, 2)
    return out


# Below this |x**2| the powers past x**4 change the series by less than
# 1e-18 of the terms kept; dropped, they do not reach the subnormal range,
# where each multiplication takes ~10x longer.
_TAIL = np.array(1e-9)

# The three series side by side, each as (even, odd) coefficient columns:
# 1/k**4 for k = 1..40 (the tail at |z| = 1/2 is below 1e-18 of the sum),
# then zeta, then eta.
_COEFS = np.zeros((26, 6))
_COEFS[1:21, 0] = 1.0 / np.arange(2.0, 41.0, 2.0) ** 4
_COEFS[:20, 1] = 1.0 / np.arange(1.0, 41.0, 2.0) ** 4
_COEFS[:, 2:4] = _even_odd(_ZETA_HEAD, _ZETA_ODD, 26)
_COEFS[:, 4:] = _even_odd(_ETA_HEAD, _ETA_ODD, 26)


# li4's constants as 0-d arrays: numpy converts a Python float operand
# anew on every ufunc call.  H_3 = 11/6 is the harmonic number of the
# series about z = 1; 2 pi**2, -24 and 7 pi**4/360 are the inversion
# formula's.
_ZERO, _HALF, _ONE, _TWO, _SIX, _M24 = map(np.array,
                                            (0.0, 0.5, 1.0, 2.0, 6.0, -24.0))
_H3 = np.array(11.0 / 6.0)
_TWO_PI2 = np.array(2.0 * math.pi ** 2)
_INV_TERM = np.array(7.0 * math.pi ** 4 / 360.0)


def _log(z, r):
    """Principal ln z from r = |z|, as a real logarithm and an arctan2:
    numpy's complex logarithm takes several times longer near |z| = 1."""
    out = np.empty(z.shape, dtype=complex)
    np.log(r, out=out.real)
    np.arctan2(z.imag, z.real, out=out.imag)
    return out


def _series(x):
    """Column j of sum over k of _COEFS[k, j] * u**k, u = x**2: the even
    or the odd coefficients of a series in x (an odd sum is then times x),
    and u.

    The powers of u are products of earlier powers, doubling how many are
    known with each product (repeated multiplication keeps a small Im x
    exact, where a polar-form power would not).  Past u**2 they are 0
    where |u| < _TAIL.  ``einsum`` sums each point's real and imaginary
    parts on their own, over k in order and without BLAS, so the value at
    one x does not depend on the other entries of ``x``.  A BLAS product
    blocks its rows by their count, and hands a large product to a thread
    pool that keeps spinning after it."""
    u = x * x
    powers = np.empty((_COEFS.shape[0], x.size), dtype=complex)
    powers[0] = 1.0
    powers[1] = np.where(np.abs(u) < _TAIL, _ZERO, u)
    k = 2
    while k < powers.shape[0]:
        j = min(k - 1, powers.shape[0] - k)
        np.multiply(powers[1:j + 1], powers[k - 1], out=powers[k:k + j])
        k += j
    powers[1] = u
    np.multiply(u, u, out=powers[2])
    sums = np.einsum("kic,kj->jic", powers.view(float).reshape(-1, x.size, 2),
                     _COEFS)
    return sums.view(complex)[..., 0], u


def li4(z):
    """Li4(z) for an array (or scalar) of complex z.

    The branch cut runs along (1, inf); on it the sign of a zero
    imaginary part picks the side, as for ``np.log``.  A nan z gives
    nan.
    """
    z = np.asarray(z, dtype=complex)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _li4(z, np.abs(z))


def _li4(z, r):
    """:func:`li4` of a complex array ``z`` whose moduli ``r`` =
    ``np.abs(z)`` the caller has formed already.  It enters no
    ``np.errstate`` of its own: at z = 0 the logarithm of |z| divides by
    zero, and an infinite z gives inf - inf, so a caller whose z may hold
    such points runs it under one (:func:`li4` does).  A finite z off 0
    raises no floating-point warning."""
    shape = z.shape
    z, r = z.ravel(), r.ravel()
    n = z.size
    far = r >= _TWO
    ring = (r > _HALF) ^ far
    neg = z.real < _ZERO
    # Each point's series variable and coefficients: z (or 1/z past
    # |z| = 2) with 1/k**4, or in the ring ln z with zeta, ln(-z) with eta.
    # One logarithm serves the ring and the inversion formula: of -z where
    # Re z < 0 or |z| >= 2, else of z.  The logarithms of the points that
    # do not use them may be infinite.
    lg = _log(np.where(neg | far, -z, z), r)
    x = np.reciprocal(z, out=z.copy(), where=far)
    np.copyto(x, lg, where=ring)
    kind = ring * (1 + neg)
    # Row 2*kind of the sums holds a point's even sum and the next row
    # its odd sum: one flat index picks the even sums, and the same
    # index n further on the odd ones.
    even = kind * (2 * n) + np.arange(n)
    sums, u = _series(x)
    sums = sums.ravel()
    out = sums.take(even) + x * sums[n:].take(even)
    # mu**3/6 (H_3 - ln(-mu)) of the series about z = 1, on its points
    # alone; 0 at z = 1
    about_one = np.flatnonzero(kind == 1)
    if about_one.size:
        mu = x[about_one]
        size = np.abs(mu)
        size = np.where(size == _ZERO, _ONE, size)
        out[about_one] += u[about_one] * mu / _SIX * (_H3 - _log(-mu, size))
    far = np.flatnonzero(far)
    if far.size:
        lg2 = lg[far] ** 2
        out[far] = (lg2 + _TWO_PI2) * lg2 / _M24 - _INV_TERM - out[far]
    return out.reshape(shape)
