"""Application to partial sums of zeta on the critical line: coefficients
b_m of the nu-th power of sum_{n<=N} n^{-1/2-it}, divisor functions d_nu,
the divisor-square sum, and the moment lower bound c log^{nu^2} N.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BudgetExceededError,
    Instance,
    OverflowRangeError,
    Window,
    validate_order,
)
from .quadrature import DEFAULT_CONFIG, QuadratureConfig
from .verify import (
    THEOREM_CONSTANT,
    VerificationReport,
    _raw_window_integral,
    inequality_holds,
)

DEFAULT_ENTRY_BUDGET = 10 ** 8
_BLOCK = 1 << 18  # output entries per block of the b_m convolution


@dataclass(frozen=True)
class CoefficientTable:
    """b_m = number of nu-tuples with entries <= N and product m, for m <= limit."""

    nu: int
    N: int
    limit: int
    b: np.ndarray  # int64, index m in 0..limit; b[0] unused

    def total(self) -> int:
        return int(self.b.sum())


@dataclass(frozen=True)
class DivisorTable:
    """d_nu(m) for m <= x: ordered factorizations of m into nu factors."""

    nu: int
    x: int
    d: np.ndarray  # int64, index m in 0..x; d[0] unused


def _as_int(name: str, value) -> int:
    """An int, a numpy integer or an integral float, as an int."""
    if isinstance(value, (int, np.integer)) or (
            isinstance(value, (float, np.floating)) and float(value).is_integer()):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def _max_divisor_count(x: int, nu: int) -> int:
    """max_{m<=x} d_nu(m), exact.

    d_nu depends only on the multiset of prime exponents, so every m has an
    m' = 2^{k1} 3^{k2} 5^{k3}... <= m with k1 >= k2 >= ... and the same
    d_nu: the search walks only those.
    """
    primes = []  # their product exceeds x, so walk never runs past the end
    candidate, primorial = 2, 1
    while primorial <= x:
        if all(candidate % p for p in primes):
            primes.append(candidate)
            primorial *= candidate
        candidate += 1

    def walk(m: int, i: int, kmax: int, count: int) -> int:
        best = count
        m, k = m * primes[i], 1
        while k <= kmax and m <= x:
            best = max(best, walk(m, i + 1, k,
                                  count * math.comb(k + nu - 1, nu - 1)))
            m, k = m * primes[i], k + 1
        return best

    return walk(1, 0, x.bit_length(), 1)


def _check_int64(x: int, nu: int) -> int:
    """max_{m<=x} d_nu(m); raise when it does not fit in int64."""
    top = _max_divisor_count(x, nu)
    if top > np.iinfo(np.int64).max:
        raise OverflowRangeError(
            f"max d_{nu}(m) over m <= {x} is {top:.3e}, beyond int64")
    return top


def _indicator_power(M: int, nu: int, limit: int) -> np.ndarray:
    """nu-fold Dirichlet convolution of the indicator of [1, M], at m <= limit.

    The r-fold convolution vanishes above M^r, so round r fills only
    min(limit, M^r) + 1 entries, _BLOCK of them at a time so that the
    strided writes new[m d] += cur[m] stay in cache.
    """
    cur = np.ones(min(M, limit) + 1, dtype=np.int64)
    cur[0] = 0
    for r in range(2, nu + 1):
        size, top = min(limit, M ** r), cur.size - 1
        new = np.zeros(size + 1, dtype=np.int64)
        for lo in range(0, size + 1, _BLOCK):
            hi = min(lo + _BLOCK, size + 1)
            for d in range(max(1, -(-lo // top)), min(M, hi - 1) + 1):
                m0, m1 = max(1, -(-lo // d)), min(top, (hi - 1) // d)
                new[m0 * d:m1 * d + 1:d] += cur[m0:m1 + 1]
        cur = new
    return cur


def power_coefficients(N: int, nu: int, limit: int | None = None) -> CoefficientTable:
    """nu-fold Dirichlet convolution of the indicator of [1, N], exact integers.

    A table truncated at limit < N^nu is exact for every m <= limit (all
    factors of a product <= limit are themselves <= limit).  Raises
    OverflowRangeError when b_m <= d_nu(m) cannot be bounded inside int64.
    """
    nu = validate_order(nu)
    N = _as_int("N", N)
    if N < 1:
        raise ValueError("N must be >= 1")
    if limit is not None:
        limit = _as_int("limit", limit)
        if limit < 1:
            raise ValueError(f"limit must be >= 1, got {limit}")
    full = N ** nu
    limit = full if limit is None else min(limit, full)
    if limit > DEFAULT_ENTRY_BUDGET:
        raise BudgetExceededError(
            f"table of {limit} entries exceeds budget {DEFAULT_ENTRY_BUDGET}")
    _check_int64(limit, nu)
    return CoefficientTable(nu, N, limit, _indicator_power(min(N, limit), nu, limit))


def _primes_upto(n: int) -> np.ndarray:
    """Primes <= n by the sieve of Eratosthenes over the odd numbers."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    odd = np.ones((n + 1) // 2, dtype=bool)  # odd[i] stands for 2 i + 1
    odd[0] = False
    for i in range(1, (math.isqrt(n) + 1) // 2):
        if odd[i]:
            odd[2 * i * (i + 1)::2 * i + 1] = False  # from (2 i + 1)^2
    return np.concatenate(([2], 2 * np.flatnonzero(odd) + 1))


def divisor_table(x: int, nu: int) -> DivisorTable:
    """Sieve d_nu(m) for m <= x, exact integers.

    d_nu is multiplicative with d_nu(p^k) = C(k + nu - 1, nu - 1).  Each
    prime p <= sqrt(x) raises the factor of the multiples of p^k from
    d_nu(p^{k-1}) to d_nu(p^k).  A prime p > sqrt(x) divides m <= x at most
    once, with cofactor j < sqrt(x), so one pass multiplies d[p j] by nu.
    Raises OverflowRangeError when max_{m<=x} d_nu(m) exceeds int64, and
    sieves in the narrowest of int16 / int32 / int64 that holds that max:
    every intermediate d[m] is d_nu of a divisor of m, since the divide is
    exact, so it never exceeds the max.  The table is returned as int64.
    """
    nu = validate_order(nu)
    x = _as_int("x", x)
    if x < 1:
        raise ValueError("x must be >= 1")
    if x > DEFAULT_ENTRY_BUDGET:
        raise BudgetExceededError(
            f"table of {x} entries exceeds budget {DEFAULT_ENTRY_BUDGET}")
    top = _check_int64(x, nu)
    d = np.ones(x + 1, dtype=next(t for t in (np.int16, np.int32, np.int64)
                                  if top <= np.iinfo(t).max))
    d[0] = 0
    root = math.isqrt(x)
    primes = _primes_upto(x)
    small = int(np.searchsorted(primes, root, side="right"))
    for p in primes[:small].tolist():
        pk, k = p, 1
        while pk <= x:
            old, new = math.comb(k + nu - 2, nu - 1), math.comb(k + nu - 1, nu - 1)
            if old != 1:
                d[pk::pk] //= old
            if new != old:
                d[pk::pk] *= new
            pk, k = pk * p, k + 1
    large = primes[small:]
    if nu > 1:  # for nu = 1 every factor is 1
        for j in range(1, x // (root + 1) + 1):
            count = int(np.searchsorted(large, x // j, side="right"))
            d[j * large[:count]] *= nu
    return DivisorTable(nu, x, d.astype(np.int64))


def _weighted_square_sums(arr: np.ndarray, uptos) -> list[float]:
    """sum_{1<=m<=upto} arr[m]^2 / m for each upto, in one pass over arr:
    the fsum of the whole 2^16-entry chunk partials below upto and of the
    sum of its own partial chunk, the same floats as for upto alone."""
    chunk, end = 1 << 16, max(uptos, default=0) + 1
    whole, tails = [], {}
    for start in range(1, end, chunk):
        m = np.arange(start, min(start + chunk, end), dtype=np.float64)
        v = arr[start:start + m.size].astype(np.float64)
        w = v * v / m
        for upto in uptos:
            if start <= upto < start + chunk - 1:
                tails[upto] = float(np.sum(w[:upto + 1 - start]))
        if m.size == chunk:
            whole.append(float(np.sum(w)))
    return [math.fsum(whole[:upto // chunk] + [tails.get(upto, 0.0)])
            for upto in uptos]


def _weighted_square_sum(arr: np.ndarray, upto: int) -> float:
    if upto < 0:
        raise ValueError(f"square sum needs an upper limit >= 0, got {upto}")
    return _weighted_square_sums(arr, [upto])[0]


def divisor_sum(x: int, nu: int, table: DivisorTable | None = None) -> float:
    """sum_{m<=x} d_nu(m)^2 / m, which grows like C_nu log^{nu^2} x."""
    if table is None:
        table = divisor_table(x, nu)
    if table.nu != nu:
        raise ValueError(f"divisor table is for nu = {table.nu}, not {nu}")
    if table.x < x:
        raise BudgetExceededError("divisor table does not cover the request")
    return _weighted_square_sum(table.d, x)


def coefficient_square_sum(table: CoefficientTable,
                           upto: int | None = None) -> float:
    """sum_{m<=upto} b_m^2 / m over the coefficient table."""
    if upto is None:
        upto = table.limit
    if upto > table.limit:
        raise BudgetExceededError("coefficient table does not cover the request")
    return _weighted_square_sum(table.b, upto)


def growth_fit(nu: int = 2, xs=None) -> dict:
    """Estimate the exponent nu^2 in divisor_sum(x) ~ c log^{nu^2} x.

    sum_m d_nu(m)^2 m^{-s} is zeta(s)^{nu^2} times a function holomorphic
    near s = 1, so divisor_sum(x) = P(log x) + O(x^{-delta}) with P a
    polynomial of degree nu^2.  With L = log x this gives
    log S = nu^2 log L + log c + c_1 / L + O(1 / L^2).  The least-squares
    fit of log S = slope log L + intercept + correction / L carries the
    first correction; a straight line in log L alone absorbs c_1 / L into
    its slope (3.18 against 4 for nu = 2 over [1e3, 1e7], where this fit
    gives 3.72).  That straight-line slope is kept as loglog_slope.
    Convergence stays slow for larger nu: nu = 3 up to x = 1e6 gives
    6.96 against 9 (straight line 5.49).

    Raises ValueError for fewer than 3 distinct xs, any x < 2, or an x that
    is not an integer (an integral float is accepted).
    """
    if xs is None:
        xs = np.unique(np.geomspace(1e3, 1e7, 15).astype(np.int64))
    xs = [_as_int("x", x) for x in xs]
    distinct = len(set(xs))
    if distinct < 3:
        raise ValueError(f"growth fit needs at least 3 distinct x, got {distinct}")
    if min(xs) < 2:
        raise ValueError(f"growth fit needs every x >= 2, got {min(xs)}")
    sums = _weighted_square_sums(divisor_table(max(xs), nu).d, xs)
    L = np.log(np.asarray(xs, dtype=np.float64))
    ly = np.log(np.asarray(sums))
    design = np.column_stack([np.log(L), np.ones_like(L), 1.0 / L])
    (slope, intercept, correction), *_ = np.linalg.lstsq(design, ly, rcond=None)
    loglog_slope, _ = np.polyfit(np.log(L), ly, 1)
    return {"nu": nu, "xs": xs, "sums": sums,
            "slope": float(slope), "intercept": float(intercept),
            "correction": float(correction),
            "loglog_slope": float(loglog_slope), "target": nu * nu}


def zeta_instance(N: int) -> Instance:
    """Amplitudes n^{-1/2} and frequencies log n for n = 1..N."""
    N = _as_int("N", N)
    if N < 1:
        raise ValueError("N must be >= 1")
    amps = tuple(1.0 / math.sqrt(n) for n in range(1, N + 1))
    phis = tuple(math.log(n) for n in range(1, N + 1))
    return Instance(amps, phis)


def corollary_lower_bound(N: int, nu: int, half_width: float,
                          config: QuadratureConfig = DEFAULT_CONFIG,
                          engine: str = "auto") -> VerificationReport:
    """(1/3) sum_{m<=N^nu} b_m^2/m <= (1/2T) integral |sum n^{-1/2-it}|^{2 nu} dt.

    The moment lower bound is applied at order q = nu to the nu-th power of
    the partial sum, whose squared-coefficient sum is exactly
    sum b_m^2/m.  The report also carries sum_{m<=N} b_m^2/m, which is
    sum_{m<=N} d_nu(m)^2/m and grows like log^{nu^2} N.
    """
    nu, N = validate_order(nu), _as_int("N", N)
    table = power_coefficients(N, nu)
    coeff_sum = coefficient_square_sum(table)
    lhs = THEOREM_CONSTANT * coeff_sum
    instance = zeta_instance(N)
    raw, meta = _raw_window_integral(instance, nu, Window(0.0, half_width),
                                     config, engine)
    rhs = raw / (2 * half_width)
    intermediate = coefficient_square_sum(table, N)
    meta.update({"N": N, "nu": nu, "T": half_width,
                 "coefficient_square_sum": coeff_sum,
                 "divisor_square_sum_upto_N": intermediate,
                 "log_power_target": math.log(N) ** (nu * nu) if N > 1 else 0.0,
                 "order_note": "moment bound applied at q = nu"})
    passed = inequality_holds(lhs, rhs) and meta.get("engines_agree", True)
    return VerificationReport("corollary", {"N": N, "nu": nu}, lhs, rhs,
                              rhs - lhs, passed, meta)
