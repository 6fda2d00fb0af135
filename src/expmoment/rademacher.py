"""Moments of sign-randomized sums E|sum_n eps_n z_n|^{2q} for Rademacher
signs eps_n: exact values, exhaustive enumeration over all sign vectors,
and reproducible Monte Carlo.

The exact route folds in one term at a time.  With
m[a, b] = E[X^a conj(X)^b] for a, b <= q, adding eps z to X gives
m'[a, b] = sum_{i + j even} binom(a, i) binom(b, j) z^i conj(z)^j m[a - i, b - j],
since E eps^{i+j} is 1 for even i + j and 0 otherwise.  Split by the parity
of i, that is m' = C m C^H + D m D^H, with C and D the lower-triangular
matrices binom(a, c) z^{a-c} at even and at odd a - c.  E|X|^{2q} = m[q, q].
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .core import NonFiniteError, TooManySignsError, validate_order

_MAX_EXHAUSTIVE = 24
_SIGN_CHUNK = 1 << 16


@dataclass(frozen=True)
class RademacherMoment:
    value: float
    method: str  # "exact_combinatorial" | "exhaustive" | "monte_carlo"
    samples: int | None = None
    std_error: float | None = None

    def __post_init__(self):
        if self.value < 0:
            raise NonFiniteError("moment must be >= 0")


def _as_complex(values) -> np.ndarray:
    z = np.asarray([complex(v) for v in values], dtype=np.complex128)
    if z.size == 0:
        raise NonFiniteError("need at least one coefficient")
    if not np.all(np.isfinite(z)):
        raise NonFiniteError("non-finite coefficient")
    return z


def exact_even_moment(values, q: int) -> float:
    """E|sum_n eps_n z_n|^{2q} exactly, by the O(N q^3) moment fold."""
    q = validate_order(q)
    z = _as_complex(values)
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


def exhaustive_moment(values, q: int) -> float:
    """Average of |sum eps_n z_n|^{2q} over all 2^N sign vectors."""
    q = validate_order(q)
    z = _as_complex(values)
    n = z.size
    if n > _MAX_EXHAUSTIVE:
        raise TooManySignsError(f"2^{n} sign vectors is too many (max N={_MAX_EXHAUSTIVE})")
    total = 1 << n
    bit = np.arange(n, dtype=np.uint32)
    partials = []
    for start in range(0, total, _SIGN_CHUNK):
        idx = np.arange(start, min(start + _SIGN_CHUNK, total), dtype=np.uint32)
        signs = 1.0 - 2.0 * ((idx[:, None] >> bit[None, :]) & 1)
        s = signs @ z
        partials.append(float(np.sum((s.real * s.real + s.imag * s.imag) ** q)))
    return math.fsum(partials) / total


def monte_carlo_moment(values, q: int, samples: int, seed: int) -> RademacherMoment:
    """Unbiased sample mean of |sum eps z|^{2q}, reproducible from the seed.

    Signs come from a counter-based Philox stream keyed by the seed, so the
    realization depends only on (seed, sample index).
    """
    q = validate_order(q)
    if samples < 1:
        raise NonFiniteError("samples must be >= 1")
    z = _as_complex(values)
    rng = Generator(Philox(key=seed))
    sums = []
    sq_sums = []
    done = 0
    while done < samples:
        m = min(_SIGN_CHUNK, samples - done)
        signs = rng.integers(0, 2, size=(m, z.size)).astype(np.float64) * 2.0 - 1.0
        s = signs @ z
        vals = (s.real * s.real + s.imag * s.imag) ** q
        sums.append(float(np.sum(vals)))
        sq_sums.append(float(np.sum(vals * vals)))
        done += m
    mean = math.fsum(sums) / samples
    if samples > 1:
        var = max(0.0, (math.fsum(sq_sums) - samples * mean * mean) / (samples - 1))
        std_error = math.sqrt(var / samples)
    else:
        std_error = None
    return RademacherMoment(max(0.0, mean), "monte_carlo", samples, std_error)
