"""Moments of sign-randomized sums E|sum_n eps_n z_n|^{2q} for Rademacher
signs eps_n: exact values, and exhaustive enumeration over all sign vectors.

The exact route folds in one term at a time.  With
m[a, b] = E[X^a conj(X)^b] for a, b <= q, adding eps z to X gives
m'[a, b] = sum_{i + j even} binom(a, i) binom(b, j) z^i conj(z)^j m[a - i, b - j],
since E eps^{i+j} is 1 for even i + j and 0 otherwise.  Split by the parity
of i, that is m' = C m C^H + D m D^H, with C and D the lower-triangular
matrices binom(a, c) z^{a-c} at even and at odd a - c.  E|X|^{2q} = m[q, q].
"""
from __future__ import annotations

import math

import numpy as np

from .core import NonFiniteError, TermBudgetExceededError, validate_order
from .evaluate import _check_overflow, _power

_MAX_EXHAUSTIVE = 24
_SIGN_CHUNK = 1 << 16


def _as_complex(values, q: int) -> np.ndarray:
    z = np.asarray([complex(v) for v in values], dtype=np.complex128)
    if z.size == 0:
        raise NonFiniteError("need at least one coefficient")
    if not np.all(np.isfinite(z)):
        raise NonFiniteError("non-finite coefficient")
    _check_overflow(z, 2 * q)  # (sum |z_n|)^{2q} bounds every |sum eps_n z_n|^{2q}
    return z


def exact_even_moment(values, q: int) -> float:
    """E|sum_n eps_n z_n|^{2q} exactly, by the O(N q^3) moment fold."""
    q = validate_order(q)
    z = _as_complex(values, q)
    a = np.arange(q + 1)
    lag = np.subtract.outer(a, a)
    power = np.clip(lag, 0, None)
    binom = np.array([[math.comb(i, j) for j in a] for i in a], dtype=float)
    even = binom * (lag % 2 == 0)
    odd = binom - even
    m = np.zeros((q + 1, q + 1), dtype=np.complex128)
    m[0, 0] = 1.0
    for zn in z:
        # 0^0 = 1 under numpy power, so zero terms are handled exactly.
        zp = zn ** power
        c, d = even * zp, odd * zp
        m = c @ m @ c.conj().T + d @ m @ d.conj().T
    return float(m[q, q].real)


def _signed_sums(z: np.ndarray) -> np.ndarray:
    """All 2^len(z) sums sum_n eps_n z_n, by doubling one term at a time."""
    sums = np.zeros(1, dtype=np.complex128)
    for zn in z:
        sums = np.concatenate((sums + zn, sums - zn))
    return sums


def exhaustive_moment(values, q: int) -> float:
    """Average of |sum eps_n z_n|^{2q} over all 2^N sign vectors.

    Every sign vector splits into its first h = N // 2 signs and the rest,
    so the sums are L_a + R_b over the 2^h signed sums L of the first h
    terms and the 2^(N-h) signed sums R of the others, summed in row blocks
    of at most _SIGN_CHUNK entries.
    """
    q = validate_order(q)
    z = _as_complex(values, q)
    n = z.size
    if n > _MAX_EXHAUSTIVE:
        raise TermBudgetExceededError(f"2^{n} sign vectors exceed budget 2^{_MAX_EXHAUSTIVE}")
    left, right = _signed_sums(z[:n // 2]), _signed_sums(z[n // 2:])
    rows = max(1, _SIGN_CHUNK // right.size)
    partials = []
    for start in range(0, left.size, rows):
        s = left[start:start + rows, None] + right
        partials.append(float(np.sum(_power(s.real * s.real + s.imag * s.imag, q))))
    return math.fsum(partials) / (1 << n)
