"""Application to partial sums of zeta on the critical line: coefficients
b_m of the nu-th power of sum_{n<=N} n^{-1/2-it}, divisor functions d_nu,
the divisor-square sum, and the moment lower bound c log^{nu^2} N.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TERM_BUDGET,
    Instance,
    OverflowRangeError,
    TermBudgetExceededError,
    validate_order,
)
from .verify import THEOREM_CONSTANT, VerificationReport, _window_bound

_BLOCK = 1 << 18  # output entries per block of the b_m convolution
_WIDTHS = (np.dtype(np.int16), np.dtype(np.int32), np.dtype(np.int64))
_ODD_WHEEL = {3: 2, 5: 1, 7: 1, 11: 1, 13: 1}  # p: e
_ODD_PERIOD = math.prod(p ** e for p, e in _ODD_WHEEL.items())  # 45,045


@dataclass(frozen=True)
class CoefficientTable:
    """b_m = number of nu-tuples with entries <= N and product m, for m <= limit."""

    nu: int
    N: int
    limit: int
    b: np.ndarray  # m in 0..limit, b[0] unused; width by value (power_coefficients)


@dataclass(frozen=True)
class DivisorTable:
    """d_nu(m) for m <= x: ordered factorizations of m into nu factors."""

    nu: int
    x: int
    d: np.ndarray  # _table_dtype(x, nu), index m in 0..x; d[0] unused


def _as_int(name: str, value, minimum: int | None = None) -> int:
    """An int, a numpy integer or an integral float, as an int, refused
    below minimum when one is given."""
    if not (isinstance(value, (int, np.integer)) or (
            isinstance(value, (float, np.floating)) and float(value).is_integer())):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {int(value)}")
    return int(value)


def _max_divisor_count(x: int, nu: int) -> int:
    """max_{m<=x} d_nu(m), exact.

    d_nu depends only on the multiset of prime exponents, so every m has an
    m' = 2^{k1} 3^{k2} 5^{k3}... <= m with k1 >= k2 >= ... and the same
    d_nu: the search walks only those.
    """
    # The primes <= 4 b, b the bit length of x, multiply past 2^b > x, so
    # walk never runs past the end.
    primes = _primes_upto(4 * x.bit_length()).tolist()

    def walk(m: int, i: int, kmax: int, count: int) -> int:
        best = count
        m, k = m * primes[i], 1
        while k <= kmax and m <= x:
            best = max(best, walk(m, i + 1, k,
                                  count * math.comb(k + nu - 1, nu - 1)))
            m, k = m * primes[i], k + 1
        return best

    return walk(1, 0, x.bit_length(), 1)


def _table_dtype(x: int, nu: int) -> np.dtype:
    """Narrowest of int16 / int32 / int64 holding max_{m<=x} d_nu(m).  The one
    refusal of a table's size: x past DEFAULT_TERM_BUDGET entries, or that max
    past int64."""
    if x > DEFAULT_TERM_BUDGET:
        raise TermBudgetExceededError(
            f"table of {x} entries exceeds budget {DEFAULT_TERM_BUDGET}")
    top = _max_divisor_count(x, nu)
    if top > np.iinfo(np.int64).max:
        raise OverflowRangeError(
            f"max d_{nu}(m) over m <= {x} is {top:.3e}, beyond int64")
    return next(t for t in _WIDTHS if top <= np.iinfo(t).max)


def _convolve_round(cur: np.ndarray, M: int, size: int, dtype: np.dtype,
                    cap: np.dtype) -> np.ndarray | None:
    """new[m d] += cur[m] for d <= M and m d <= size, in dtype or else cap.

    Output blocks keep the strided writes in cache.  A block [lo, hi) takes
    only the d >= lo / top, each add writing at most (hi - lo) / d entries,
    so a block runs to max(_BLOCK, 4096 (lo // top)) entries: when the adds
    of fixed blocks would get short, the block grows and its first d still
    writes about 4096 entries, so the count of Python-level adds no longer
    grows like M times the block count.  Every
    entry is a sum of at most M non-negative terms, so M max(cur) bounds
    every partial sum: when that fits dtype, the round runs there unchecked.
    Otherwise, as an integer add wraps modulo 2^bits, a stored entry equals
    its true value when that fits and is below it otherwise.  A block is
    therefore exact when its int64 sum equals its exact tuple count
    sum_d (P[m1] - P[m0 - 1]), with P the int64 cumsum of cur; the first
    block that falls short returns None.  cap holds every entry, so a round
    in it needs no check: it runs there when dtype is cap or when P (8 bytes
    per entry of cur) would cost more than dtype saves, so no round takes
    more memory than one in cap.
    """
    top = cur.size - 1
    proven = M * int(cur.max()) <= np.iinfo(dtype).max
    checked = (not proven and dtype != cap
               and 8 * top <= (cap.itemsize - dtype.itemsize) * size)
    prefix = np.cumsum(cur, dtype=np.int64) if checked else None
    new = np.zeros(size + 1, dtype=dtype if proven or checked else cap)
    lo = 0
    while lo <= size:
        hi = min(lo + max(_BLOCK, 4096 * (lo // top)), size + 1)
        ds = range(max(1, -(-lo // top)), min(M, hi - 1) + 1)
        for d in ds:
            m0, m1 = max(1, -(-lo // d)), min(top, (hi - 1) // d)
            new[m0 * d:m1 * d + 1:d] += cur[m0:m1 + 1]
        if checked:
            d = np.arange(ds.start, ds.stop)
            m0, m1 = np.maximum(1, -(-lo // d)), np.minimum(top, (hi - 1) // d)
            count = sum((prefix[m1] - prefix[m0 - 1]).tolist())
            if int(new[lo:hi].sum(dtype=np.int64)) != count:
                return None
        lo = hi
    return new


def _indicator_power(M: int, nu: int, limit: int, cap: np.dtype) -> np.ndarray:
    """nu-fold Dirichlet convolution of the indicator of [1, M], at m <= limit.

    The r-fold convolution b_r vanishes above M^r, so round r fills only
    min(limit, M^r) + 1 entries.  It starts in round r-1's width, since
    b_r(m) >= b_{r-1}(m) (a tuple can take a trailing factor 1), runs there
    unchecked when M max(b_{r-1}) fits, and moves to the next width when a
    block wraps; cap = _table_dtype(limit, nu) holds every b_r <= d_nu and
    ends the search.
    """
    cur = np.ones(min(M, limit) + 1, dtype=np.int16)
    cur[0] = 0
    for r in range(2, nu + 1):
        size = min(limit, M ** r)
        for dtype in _WIDTHS[_WIDTHS.index(cur.dtype):]:
            new = _convolve_round(cur, M, size, dtype, cap)
            if new is not None:
                break
        cur = new
    return cur


def power_coefficients(N: int, nu: int, limit: int | None = None) -> CoefficientTable:
    """nu-fold Dirichlet convolution of the indicator of [1, N], exact integers.

    A table truncated at limit < N^nu is exact for every m <= limit (all
    factors of a product <= limit are themselves <= limit).  It is in the
    narrowest of int16 / int32 / int64 that its own values need, save the
    memory rule of _convolve_round.  _table_dtype(limit, nu) bounds that
    width, as b_m <= d_nu(m), and refuses limit past the table budget and
    the width past int64 before any round runs.
    """
    nu = validate_order(nu)
    N = _as_int("N", N, 1)
    full = N ** nu
    limit = full if limit is None else min(_as_int("limit", limit, 1), full)
    return CoefficientTable(nu, N, limit, _indicator_power(
        min(N, limit), nu, limit, _table_dtype(limit, nu)))


def _primes_upto(n: int) -> np.ndarray:
    """Primes <= n by the sieve of Eratosthenes."""
    sieve = np.ones(max(n + 1, 2), dtype=bool)
    sieve[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            sieve[p * p::p] = False
    return np.flatnonzero(sieve)


def _raise_odd_powers(o: np.ndarray, p: int, k: int, last: float,
                      nu: int) -> None:
    """For k <= j <= last and p^j < 2 o.size, raise the factor of the odd
    multiples of p^j in o (index i stands for 2i + 1) from d_nu(p^{j-1}) to
    d_nu(p^j).  The odd multiples of an odd p^j are o[(p^j - 1) / 2::p^j]."""
    pk = p ** k
    while pk // 2 < o.size and k <= last:
        old, new = math.comb(k + nu - 2, nu - 1), math.comb(k + nu - 1, nu - 1)
        if old != 1:
            o[pk // 2::pk] //= old
        if new != old:
            o[pk // 2::pk] *= new
        pk, k = pk * p, k + 1


def divisor_table(x: int, nu: int) -> DivisorTable:
    """Sieve d_nu(m) for m <= x, exact integers.

    d_nu is multiplicative with d_nu(p^k) = C(k + nu - 1, nu - 1).  Steps
    1-3 sieve only odd m, in the view o = d[1::2] (o[i] stands for 2i + 1),
    and step 4 fills the even m from them:

    1. Odd wheel.  Up to exponent e, the factor of odd m from each p^e of
       _ODD_WHEEL = 3^2 5 7 11 13 depends only on m mod 45,045, so on
       i mod 45,045.  It is built once over o[:45045] (m = 1..90,089) and
       copied forward over o.
    2. Small primes.  Each odd prime p <= sqrt(x) raises the factor of the
       odd multiples of p^k from d_nu(p^{k-1}) to d_nu(p^k), a wheel prime
       from its next power p^{e+1} on.  Now o[i] is d_nu of the largest
       divisor of 2i + 1 with every prime <= sqrt(x) or in the wheel.
    3. Large primes.  For nu >= 2 each of those primes adds a factor >= 2,
       so for odd m > sqrt(x), o == 1 exactly when m is a prime above
       sqrt(x) outside the wheel.  Such a p divides m <= x at most once,
       with cofactor j < sqrt(x), and step 2 left d[p j] = d_nu(j); so
       d[p j] = nu d[j], one constant scatter per odd j.  For nu = 1 every
       factor is 1.
    4. Evens.  m = 2^k o with o odd has d_nu(m) = d_nu(2^k) d_nu(o), so
       d[2^k::2^{k+1}] is C(k + nu - 1, nu - 1) times o[:n_k], written in
       place.  The product is d_nu(m) itself, so it fits the table's dtype.

    _table_dtype(x, nu) refuses x past the table budget and max_{m<=x} d_nu(m)
    past int64, else the sieve runs in that dtype: every intermediate d[m] is
    d_nu of a divisor of m (the divide is exact), so it never exceeds the max.
    """
    nu = validate_order(nu)
    x = _as_int("x", x, 1)
    d = np.empty(x + 1, dtype=_table_dtype(x, nu))
    d[0] = 0
    o = d[1::2]
    period = min(_ODD_PERIOD, o.size)
    o[:period] = 1
    for p, e in _ODD_WHEEL.items():
        _raise_odd_powers(o[:period], p, 1, e, nu)
    for start in range(period, o.size, period):
        n = min(period, o.size - start)
        o[start:start + n] = o[:n]
    root = math.isqrt(x)
    for p in _primes_upto(root)[1:].tolist():
        _raise_odd_powers(o, p, _ODD_WHEEL.get(p, 0) + 1, math.inf, nu)
    if nu > 1:
        first = (root + 1) // 2  # o[first] is the first odd m > sqrt(x)
        large = first + np.flatnonzero(o[first:] == 1)  # (p - 1) / 2
        js = np.arange(1, x // (root + 1) + 1, 2)
        counts = np.searchsorted(large, (x // js - 1) // 2, side="right")
        for j, count in zip(js.tolist(), counts.tolist()):
            o[j // 2::j][large[:count]] = nu * int(o[j // 2])
    for k in range(1, x.bit_length()):
        evens = d[1 << k::2 << k]
        np.multiply(o[:evens.size], math.comb(k + nu - 1, nu - 1), out=evens)
    return DivisorTable(nu, x, d)


def _weighted_square_sums(arr: np.ndarray, uptos) -> list[float]:
    """sum_{1<=m<=upto} arr[m]^2 / m for each upto: the fsum of the sums of the
    whole 2^16-entry chunks below upto, each taken once, and of the sum of its
    own partial chunk, the same floats as for upto alone.  Every chunk is
    squared and divided in place in the same two float64 buffers."""
    chunk, top = 1 << 16, max(uptos, default=0)
    base = np.arange(min(chunk, top + 1), dtype=np.float64)
    squares, ms = np.empty_like(base), np.empty_like(base)

    def chunk_sum(start: int, stop: int) -> float:
        v, m = squares[:stop - start], ms[:stop - start]
        np.copyto(v, arr[start:stop], casting="unsafe")
        np.multiply(v, v, out=v)
        np.add(base[:v.size], start, out=m)
        return float(np.sum(np.divide(v, m, out=v)))

    whole = [chunk_sum(start, start + chunk)
             for start in range(1, top + 2 - chunk, chunk)]
    return [math.fsum(whole[:upto // chunk]
                      + [chunk_sum(upto - upto % chunk + 1, upto + 1)])
            for upto in uptos]


def divisor_sum(x: int, nu: int) -> float:
    """sum_{m<=x} d_nu(m)^2 / m, which grows like C_nu log^{nu^2} x."""
    table = divisor_table(x, nu)
    return _weighted_square_sums(table.d, [table.x])[0]


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
        xs = sorted({int(v) for v in np.geomspace(1e3, 1e7, 15)})
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
    N = _as_int("N", N, 1)
    amps = tuple(1.0 / math.sqrt(n) for n in range(1, N + 1))
    phis = tuple(math.log(n) for n in range(1, N + 1))
    return Instance(amps, phis)


def corollary_lower_bound(N: int, nu: int, half_width: float,
                          engine: str = "auto") -> VerificationReport:
    """(1/3) sum_{m<=N^nu} b_m^2/m <= (1/2T) integral |sum n^{-1/2-it}|^{2 nu} dt.

    The moment lower bound is applied at order q = nu to the nu-th power of
    the partial sum, whose squared-coefficient sum is exactly
    sum b_m^2/m.  The report also carries sum_{m<=N} b_m^2/m, which is
    sum_{m<=N} d_nu(m)^2/m and grows like log^{nu^2} N.
    """
    nu, N = validate_order(nu), _as_int("N", N)
    table = power_coefficients(N, nu)
    coeff_sum, upto_n = _weighted_square_sums(table.b, [table.limit, N])
    return _window_bound("corollary", {"N": N, "nu": nu}, zeta_instance(N), nu,
                         half_width, THEOREM_CONSTANT * coeff_sum, engine,
                         N=N, nu=nu, T=half_width,
                         coefficient_square_sum=coeff_sum,
                         divisor_square_sum_upto_N=upto_n,
                         log_power_target=math.log(N) ** (nu * nu),
                         order_note="moment bound applied at q = nu")
