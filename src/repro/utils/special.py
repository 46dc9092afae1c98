"""The binomial upper tail, for the significance tests of P3C and STATPC.

Both methods ask whether a region holds more objects than a uniform
null explains: under the null, the count in a region of relative volume
``p`` among ``n`` objects is Binomial(n, p), and the p-value of an
observed count ``c`` is the upper tail ``P(X >= c) = binomial_sf(c - 1,
n, p)``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from ..exceptions import ValidationError

__all__ = ["binomial_sf"]

_LN_2PI = math.log(2.0 * math.pi)

#: stop the continued fraction once a step changes it by < 1 ulp
_EPS = float(np.finfo(np.float64).eps)

#: Lentz's guard against a zero denominator
_TINY = 1e-300

#: Stirling-series errors of m! for m < 16, where the series is too short
_STIRLERR = [0.0] + [math.lgamma(m + 1.0) - (m + 0.5) * math.log(m) + m
                     - 0.5 * _LN_2PI for m in range(1, 16)]


def _stirlerr(m):
    """``log(m!) - log(sqrt(2 pi m) (m/e)^m)`` for an integer ``m >= 0``."""
    if m < 16:
        return _STIRLERR[m]
    mm = float(m) * m
    return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * mm))
                                 / mm) / mm) / mm) / m


def _bd0(x, mean):
    """``x log(x / mean) + mean - x`` without cancellation near
    ``x = mean`` (Loader 2000)."""
    if abs(x - mean) >= 0.1 * (x + mean):
        return x * math.log(x / mean) + mean - x
    v = (x - mean) / (x + mean)
    s = (x - mean) * v
    term = 2.0 * x * v
    v *= v
    j = 3
    while True:
        term *= v
        nxt = s + term / j
        if nxt == s:
            return s
        s = nxt
        j += 2


def _log_pmf(k, n, p, q):
    """``log P(X = k)`` for X ~ Binomial(n, p), ``0 <= k < n``.

    Loader's saddle-point form: every term stays small, so the result is
    accurate to about ``|log P| * eps`` where differences of ``lgamma``
    values near ``n log n`` would lose ``n log n * eps``.
    """
    if k == 0:
        return n * math.log1p(-p)
    lc = (_stirlerr(n) - _stirlerr(k) - _stirlerr(n - k)
          - _bd0(k, n * p) - _bd0(n - k, n * q))
    return lc - 0.5 * (_LN_2PI + math.log(k) + math.log1p(-k / n))


def _beta_cf(a, b, x):
    """Continued fraction of ``I_x(a, b)``, modified Lentz; it converges
    in O(sqrt(max(a, b))) steps for ``x < (a + 1) / (a + b + 2)``."""
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    d = 1.0 / (d if abs(d) > _TINY else _TINY)
    h = d
    for m in itertools.count(1):
        m2 = 2 * m
        for num in (m * (b - m) * x / ((qam + m2) * (a + m2)),
                    -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))):
            d = 1.0 + num * d
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = 1.0 + num / c
            if abs(c) < _TINY:
                c = _TINY
            step = d * c
            h *= step
        if abs(step - 1.0) <= _EPS:
            return h


def _sf(k, n, p):
    if k < 0:
        return 1.0
    if k >= n or p <= 0.0:
        return 0.0
    if p >= 1.0:
        return 1.0
    # I_p(k + 1, n - k) = front * cf / a, front = p^a q^b / B(a, b)
    # = (n - k) p P(X = k)
    a, b, q = k + 1.0, float(n - k), 1.0 - p
    log_front = math.log((n - k) * p) + _log_pmf(k, n, p, q)
    if p < (a + 1.0) / (a + b + 2.0):
        return math.exp(log_front + math.log(_beta_cf(a, b, p) / a))
    # symmetry I_p(a, b) = 1 - I_q(b, a): the lower tail converges there
    return 1.0 - math.exp(log_front + math.log(_beta_cf(b, a, q) / b))


def binomial_sf(k, n, p):
    """``P(X > k)`` for ``X ~ Binomial(n, p)``, elementwise over ``k``.

    The regularised incomplete beta ``I_p(k + 1, n - k)``: a Lentz
    continued fraction with the usual symmetry switch, times a prefactor
    built in log space, so tails down to the smallest float keep their
    relative precision. Exact at the edges: 1 for ``k < 0``, 0 for
    ``k >= n``, and the point masses of ``p`` in ``{0, 1}``. ``k`` is
    floored like a count; a scalar ``k`` gives a scalar.

    Each element is a scalar continued fraction of O(sqrt(n)) steps:
    the callers pass a handful of counts, for which Python floats beat
    NumPy's per-call dispatch.
    """
    n = int(n)
    p = float(p)
    if n < 0 or not 0.0 <= p <= 1.0:
        raise ValidationError(f"need n >= 0 and p in [0, 1], got n={n}, p={p}")
    k = np.floor(np.asarray(k, dtype=np.float64))
    out = np.array([_sf(int(kk), n, p) for kk in k.ravel().tolist()],
                   dtype=np.float64)
    return out.reshape(k.shape)[()]
