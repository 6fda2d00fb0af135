import collections
import functools
import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from expmoment import zeta
from expmoment.core import OverflowRangeError, TermBudgetExceededError
from expmoment.zeta import (
    _max_divisor_count,
    _primes_upto,
    _weighted_square_sums,
    corollary_lower_bound,
    divisor_sum,
    divisor_table,
    growth_fit,
    power_coefficients,
    zeta_instance,
)


def test_power_coefficients_hand_cases():
    table = power_coefficients(3, 2)
    assert table.b[4] == 1  # only 2*2 (1*4 and 4*1 need a factor > 3)
    assert table.b[6] == 2  # 2*3 and 3*2
    assert table.b[1] == 1


def test_power_coefficients_nu_one():
    table = power_coefficients(7, 1)
    assert table.b[1:8].tolist() == [1] * 7


def test_tuple_count_total():
    # limit=None is the full table; N^{nu-1} < limit < N^nu clips the last
    # convolution round to its support.
    for n, nu, limit in ((3, 2, None), (5, 2, None), (4, 3, None), (10, 2, None),
                         (7, 3, 100), (5, 4, 200), (12, 2, 50)):
        counts = collections.Counter(math.prod(t) for t in itertools.product(
            range(1, n + 1), repeat=nu))
        table = power_coefficients(n, nu, limit=limit)
        if limit is None:
            assert int(table.b.sum(dtype=np.int64)) == n ** nu
        assert table.b.tolist() == [0] + [counts[m]
                                          for m in range(1, table.limit + 1)]


def _naive_indicator_power(n, nu, limit):
    """The whole-table nu-fold Dirichlet convolution of the indicator of [1, n]."""
    size = n ** nu if limit is None else min(limit, n ** nu)
    cur = np.zeros(size + 1, dtype=np.int64)
    cur[1:min(n, size) + 1] = 1
    for _ in range(nu - 1):
        new = np.zeros(size + 1, dtype=np.int64)
        for d in range(1, min(n, size) + 1):
            new[d::d] += cur[1:size // d + 1]
        cur = new
    return cur


def _narrowest(top):
    """The first of int16 / int32 / int64 that holds top."""
    return next(t for t in (np.int16, np.int32, np.int64)
                if top <= np.iinfo(t).max)


def test_blocked_convolution_matches_whole_table(monkeypatch):
    # The default block holds 2^18 entries, so 70^3 = 343,000 spans two.
    table = power_coefficients(70, 3)
    assert table.b.size > zeta._BLOCK
    assert table.b.dtype == _narrowest(int(table.b.max()))
    assert np.array_equal(table.b, _naive_indicator_power(70, 3, None))
    monkeypatch.setattr(zeta, "_BLOCK", 64)
    for n, nu, limit in ((7, 3, 100), (5, 4, 200), (12, 2, 50), (30, 3, None),
                         (20, 4, None), (10, 10, 1000)):
        table = power_coefficients(n, nu, limit=limit)
        assert table.b.dtype == _narrowest(int(table.b.max()))
        assert np.array_equal(table.b, _naive_indicator_power(n, nu, limit))
    # The last case runs past int16: max b_m = b_720 = 288,540.
    assert table.b.dtype == np.int32


@pytest.mark.parametrize("n, nu, dtype", [
    (300, 3, np.int16),  # max b_m 1,530; max d_3(m <= 300^3) 34,020
    (4, 10, np.int32),   # max b_m 49,815; max d_10 2.0e9
    (3, 14, np.int32),   # max b_m 252,252; max d_14 8.4e11
])
def test_table_takes_the_width_of_its_own_values(n, nu, dtype):
    table = power_coefficients(n, nu)
    assert table.b.dtype == dtype == _narrowest(int(table.b.max()))
    # A wrapped entry is stored below its true value, so the right total
    # leaves none wrapped.
    assert int(table.b.sum(dtype=np.int64)) == n ** nu
    if n ** nu < 10 ** 6:
        assert np.array_equal(table.b, _naive_indicator_power(n, nu, None))


class _CountingSlices(np.ndarray):
    """An array that counts its slice reads: one per add in _convolve_round."""

    reads = 0

    def __getitem__(self, key):
        if isinstance(key, slice):
            _CountingSlices.reads += 1
        return super().__getitem__(key)


@pytest.mark.parametrize("n, nu, limit", [(200, 2, None), (40, 3, None),
                                          (12, 4, None), (50, 3, 20000)])
def test_growing_blocks_match_fixed_blocks(monkeypatch, n, nu, limit):
    # At 64 entries a block, every round here runs past lo = top, where the
    # blocks grow to 4096 (lo // top) entries.  The table must equal the one
    # from a single fixed block, the whole-table convolution and the tuple
    # counts, and the last round must take far fewer adds than fixed blocks.
    monkeypatch.setattr(zeta, "_BLOCK", 2 ** 40)
    fixed = power_coefficients(n, nu, limit=limit).b
    monkeypatch.setattr(zeta, "_BLOCK", 64)
    convolve = zeta._convolve_round
    adds = []

    def spy(cur, M, size, dtype, cap):
        _CountingSlices.reads = 0
        new = convolve(cur.view(_CountingSlices), M, size, dtype, cap)
        adds.append((cur.size - 1, M, size, _CountingSlices.reads))
        return new

    monkeypatch.setattr(zeta, "_convolve_round", spy)
    grown = power_coefficients(n, nu, limit=limit).b
    assert grown.dtype == fixed.dtype and np.array_equal(grown, fixed)
    assert np.array_equal(grown, _naive_indicator_power(n, nu, limit))
    size = grown.size - 1
    counts = collections.Counter(math.prod(t) for t in itertools.product(
        range(1, n + 1), repeat=nu) if math.prod(t) <= size)
    assert grown.tolist() == [0] + [counts[m] for m in range(1, size + 1)]
    top, M, size, reads = adds[-1]
    fixed_adds = sum(min(M, hi - 1) - max(1, -(-lo // top)) + 1
                     for lo in range(0, size + 1, 64)
                     for hi in [min(lo + 64, size + 1)])
    assert reads < fixed_adds / 4


def test_a_wrap_in_a_late_block_moves_the_round_up(monkeypatch):
    # b_8 for N = 6 first passes int16 at m = 4320, in block 67 of the last
    # round at 64 entries a block; that block must send the round to int32.
    monkeypatch.setattr(zeta, "_BLOCK", 64)
    attempts = []
    convolve = zeta._convolve_round

    def spy(cur, M, size, dtype, cap):
        new = convolve(cur, M, size, dtype, cap)
        attempts.append((size, dtype, new is None))
        return new

    monkeypatch.setattr(zeta, "_convolve_round", spy)
    table = power_coefficients(6, 8)
    naive = _naive_indicator_power(6, 8, None)
    assert np.flatnonzero(naive > np.iinfo(np.int16).max)[0] // 64 == 67
    assert attempts[-2:] == [(6 ** 8, np.int16, True), (6 ** 8, np.int32, False)]
    assert not any(wrapped for _, _, wrapped in attempts[:-2])
    assert table.b.dtype == np.int32
    assert np.array_equal(table.b, naive)


def test_total_sums_past_the_table_dtype():
    # 40^3 = 64,000 tuples in an int16 table: an int16 sum would wrap.
    table = power_coefficients(40, 3)
    assert table.b.dtype == np.int16
    assert int(table.b.sum(dtype=np.int64)) == 40 ** 3


def _peak_bytes(build):
    tracemalloc.start()
    try:
        build()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_tables_allocate_no_wide_copy():
    # Both tables here are int16 (2 bytes per entry); an int64 copy or an
    # int64 working array would add 8.
    assert _peak_bytes(lambda: divisor_table(10 ** 6, 2)) <= 5 * (10 ** 6 + 1)
    assert _peak_bytes(lambda: power_coefficients(100, 3)) <= 3 * (10 ** 6 + 1)
    # max d_4(m <= 30^4) is 107,520, but max b_m is 1,644: int16, not int32.
    assert _peak_bytes(lambda: power_coefficients(30, 4)) <= 3 * (30 ** 4 + 1)
    # Rounds 4 and 5 fill all 10^6 entries, so an int16 try there would add
    # an int64 prefix of 10^6 entries: they run in the int32 cap instead.
    assert _peak_bytes(lambda: power_coefficients(100, 5, 10 ** 6)) <= 9 * (10 ** 6 + 1)


_I16, _I32 = np.dtype(np.int16), np.dtype(np.int32)


def test_a_round_is_proven_or_checked_at_the_edge_of_its_width():
    # M max(cur) = 32,767 fits int16: the round runs there unchecked, even
    # where the memory rule would send a checked round to the int32 cap.
    new = zeta._convolve_round(np.array([0, 32767], _I16), 1, 1, _I16, _I32)
    assert new.dtype == _I16 and new.tolist() == [0, 32767]
    # 2 * 16,384 = 32,768 does not fit: the round is checked, and b[2] wraps.
    wraps = np.array([0, 16384, 16384], _I16)
    assert zeta._convolve_round(wraps, 2, 8, _I16, _I32) is None
    new = zeta._convolve_round(np.array([0, 16383, 16384], _I16), 2, 8, _I16, _I32)
    assert new.dtype == _I16
    assert new.tolist() == [0, 16383, 32767, 0, 16384, 0, 0, 0, 0]


def test_a_proven_round_allocates_no_prefix():
    # M max(cur) = 4: the round needs only its int16 output, no int64 prefix
    # of 8 bytes per entry of cur.
    top, M = 10 ** 5, 4
    cur = np.ones(top + 1, _I16)
    cur[0] = 0
    size = M * top
    assert _peak_bytes(lambda: zeta._convolve_round(cur, M, size, _I16, _I32)) <= (
        2 * (size + 1) + top)


@pytest.mark.parametrize("n, nu, limit, dtype", [
    (20, 5, 10 ** 5, np.int16),  # the memory rule sent these to the int32 cap
    (3, 7, None, np.int16),
    (2, 9, None, np.int16),
    (8, 7, 10 ** 6, np.int16),
    (4, 11, 10 ** 6, np.int32),  # and this one to the int64 cap
])
def test_proven_rounds_narrow_tables(n, nu, limit, dtype):
    table = power_coefficients(n, nu, limit)
    assert table.b.dtype == dtype == _narrowest(int(table.b.max()))
    assert np.array_equal(table.b, _naive_indicator_power(n, nu, limit))


def _allocating_square_sums(arr, uptos):
    """_weighted_square_sums with a fresh array per step of each chunk."""
    chunk = 1 << 16

    def chunk_sum(start, stop):
        v = arr[start:stop].astype(np.float64)
        return float(np.sum(v * v / np.arange(start, stop, dtype=np.float64)))

    whole = [chunk_sum(start, start + chunk)
             for start in range(1, max(uptos, default=0) + 2 - chunk, chunk)]
    return [math.fsum(whole[:upto // chunk]
                      + [chunk_sum(upto - upto % chunk + 1, upto + 1)])
            for upto in uptos]


@pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64])
def test_square_sums_in_reused_buffers_are_bit_identical(dtype):
    rng = np.random.default_rng(35)
    chunk = 1 << 16
    arr = rng.integers(0, np.iinfo(dtype).max, 3 * chunk + 10, dtype=dtype,
                       endpoint=True)
    uptos = [0, 1, chunk - 1, chunk, chunk + 1, 2 * chunk, 2 * chunk + 1,
             arr.size - 1, 5]
    assert _weighted_square_sums(arr, uptos) == _allocating_square_sums(arr, uptos)
    short = arr[:1001]  # a table shorter than one chunk
    assert _weighted_square_sums(short, [1000, 7, 0]) == _allocating_square_sums(
        short, [1000, 7, 0])


def test_square_sums_size_their_buffers_to_the_table():
    # Two float64 buffers and the arange of the table's 6,401 entries, not of
    # 2^16: the corollary's tables stay small.
    b = power_coefficients(80, 2).b
    assert _peak_bytes(lambda: _weighted_square_sums(b, [b.size - 1])) <= (
        3 * 8 * b.size + 4096)


def test_nonpositive_limit_is_invalid():
    for limit in (0, -3):
        with pytest.raises(ValueError, match=f"limit must be >= 1, got {limit}"):
            power_coefficients(5, 2, limit=limit)


def test_nonpositive_size_is_invalid():
    for build in (lambda: power_coefficients(0, 2), lambda: divisor_table(0, 2),
                  lambda: zeta_instance(0)):
        with pytest.raises(ValueError, match="must be >= 1, got 0"):
            build()


def test_divisor_table_integral_float_size():
    assert np.array_equal(divisor_table(1000.0, 2).d, divisor_table(1000, 2).d)
    assert divisor_table(np.int64(30), 2).x == 30
    for x in (1000.5, "1000", math.inf):
        with pytest.raises(ValueError, match="x must be an integer"):
            divisor_table(x, 2)


def test_power_coefficients_integral_float_sizes():
    table = power_coefficients(10, 3, limit=100.0)
    assert table.limit == 100
    assert np.array_equal(table.b, power_coefficients(10, 3, limit=100).b)
    assert power_coefficients(np.float64(10.0), 2).N == 10
    with pytest.raises(ValueError, match="limit must be an integer"):
        power_coefficients(10, 3, limit=100.5)
    with pytest.raises(ValueError, match="N must be an integer"):
        power_coefficients(10.5, 3)


def test_growth_fit_integral_float_xs():
    fit = growth_fit(2, xs=[1e3, np.int64(10 ** 4), 1e5])
    assert fit["xs"] == [1000, 10000, 100000]
    assert fit == growth_fit(2, xs=[1000, 10000, 100000])
    with pytest.raises(ValueError, match="x must be an integer"):
        growth_fit(2, xs=[1000.7, 1e4, 1e5])


def test_budget_exceeded():
    # 10^9 entries each, past the 10^8-entry cap: refused before allocating.
    with pytest.raises(TermBudgetExceededError):
        power_coefficients(10 ** 3, 3)
    with pytest.raises(TermBudgetExceededError):
        divisor_table(10 ** 9, 2)
    # One entry past it, and (10^4 + 1)^2 = 100,020,001 entries.
    with pytest.raises(TermBudgetExceededError, match="table of 100000001 entries"):
        divisor_table(10 ** 8 + 1, 1)
    with pytest.raises(TermBudgetExceededError, match="table of 100020001 entries"):
        power_coefficients(10 ** 4 + 1, 2)


def test_divisor_table_hand_cases():
    t2 = divisor_table(30, 2)
    assert t2.d[6] == 4
    assert t2.d[1] == 1
    for p in (2, 3, 5, 7, 11, 13):
        assert t2.d[p] == 2
    t3 = divisor_table(10, 3)
    assert t3.d[1] == 1
    assert t3.d[2] == 3  # (2,1,1) in 3 orders


def test_divisor_table_matches_brute_force():
    @functools.cache
    def d_nu_brute(m, nu):
        if nu == 1:
            return 1
        return sum(d_nu_brute(m // e, nu - 1) for e in range(1, m + 1)
                   if m % e == 0)

    # x on both sides of the squares 49 and 121: primes above sqrt(x) take
    # the sieve's large-prime pass.
    for nu in range(1, 6):
        for x in (1, 2, 3, 4, 40, 48, 49, 50, 120, 121):
            table = divisor_table(x, nu)
            assert table.d.dtype == _narrowest(_max_divisor_count(x, nu))
            assert table.d.tolist() == [0] + [d_nu_brute(m, nu)
                                              for m in range(1, x + 1)]


def _factor_divisor_count(m, nu):
    """d_nu(m) in Python integers from the factorisation of m."""
    count, p = 1, 2
    while p * p <= m:
        k = 0
        while m % p == 0:
            m, k = m // p, k + 1
        count *= math.comb(k + nu - 1, nu - 1)
        p += 1
    return count * (nu if m > 1 else 1)


def test_divisor_table_int64_guard():
    t0 = time.perf_counter()
    with pytest.raises(OverflowRangeError):
        divisor_table(720, 3000)
    with pytest.raises(OverflowRangeError):
        power_coefficients(720, 3000, limit=720)
    assert time.perf_counter() - t0 < 1.0
    table = divisor_table(10 ** 6, 3)
    assert int(table.d[1:].max()) == _max_divisor_count(10 ** 6, 3)
    # The largest nu whose table at x = 1000 fits: exact, no wrap.
    nu = 2
    while _max_divisor_count(1000, nu + 1) <= np.iinfo(np.int64).max:
        nu += 1
    edge = divisor_table(1000, nu)
    assert edge.d[1:].tolist() == [_factor_divisor_count(m, nu)
                                   for m in range(1, 1001)]
    with pytest.raises(OverflowRangeError):
        divisor_table(1000, nu + 1)


def test_divisor_table_working_dtypes():
    # The sieve works in, and returns, int16, int32 or int64 by max d_nu(m);
    # the sweep crosses both boundaries (d_10(720) = 393,250 > 2^15).
    tops, dtypes = [], set()
    nu = 1
    while _max_divisor_count(1000, nu) <= np.iinfo(np.int64).max:
        table = divisor_table(1000, nu)
        assert table.d.dtype == _narrowest(_max_divisor_count(1000, nu))
        dtypes.add(table.d.dtype)
        assert table.d[1:].tolist() == [_factor_divisor_count(m, nu)
                                        for m in range(1, 1001)]
        tops.append(_max_divisor_count(1000, nu))
        nu += 1
    assert _factor_divisor_count(720, 10) == 393250
    assert min(tops) <= np.iinfo(np.int16).max < max(tops)
    assert any(np.iinfo(np.int32).max < top for top in tops)
    assert dtypes == {np.dtype(np.int16), np.dtype(np.int32), np.dtype(np.int64)}


def _naive_divisor_tables(x, nus):
    """d_nu(m) for m <= x, one int64 row per nu: every prime p <= x divides
    the multiples of p^k by d_nu(p^{k-1}) and multiplies them by d_nu(p^k)."""
    def d_nu_of_power(k):  # d_nu(p^k), one row per nu
        return np.array([[math.comb(k + nu - 1, nu - 1)] for nu in nus])

    d = np.ones((len(nus), x + 1), dtype=np.int64)
    d[:, 0] = 0
    composite = np.zeros(x + 1, dtype=bool)
    for p in range(2, math.isqrt(x) + 1):
        if not composite[p]:
            composite[p * p::p] = True
    for p in (2 + np.flatnonzero(~composite[2:])).tolist():
        pk, k = p, 1
        while pk <= x:
            d[:, pk::pk] //= d_nu_of_power(k - 1)
            d[:, pk::pk] *= d_nu_of_power(k)
            pk, k = pk * p, k + 1
    return d


def _first_nu_past(x, dtype):
    nu = 2
    while _max_divisor_count(x, nu) <= np.iinfo(dtype).max:
        nu += 1
    return nu


def _assert_tables_match_naive(xs, nus):
    """Every divisor_table(x, nu) equals the plain sieve, values and the
    narrowest dtype holding its max, and the tables take all three widths."""
    dtypes = set()
    for nu, want in zip(nus, _naive_divisor_tables(max(xs), nus)):
        for x in xs:
            table = divisor_table(x, nu)
            assert table.d.dtype == _narrowest(int(want[1:x + 1].max()))
            assert np.array_equal(table.d, want[:x + 1])
            dtypes.add(table.d.dtype)
    assert dtypes == {np.dtype(np.int16), np.dtype(np.int32), np.dtype(np.int64)}


def test_divisor_table_across_the_wheel_period():
    # The odd wheel covers o[:45045], m = 1..90,089, and is copied forward
    # a period at a time.  At the period's last m, one entry either side of
    # it and past two periods, every table equals the plain sieve.
    period = 2 * 45045
    xs = (period - 1, period, period + 1, 2 * period + 1)
    _assert_tables_match_naive(xs, (1, 2, 3, _first_nu_past(xs[0], np.int16),
                                    _first_nu_past(xs[0], np.int32)))


def test_divisor_table_around_powers_of_two():
    # The evens are filled one power of two at a time: 2^k - 1, 2^k and
    # 2^k + 1 put the last of them on each side of a new k.
    xs = sorted({2 ** k + s for k in range(1, 18) for s in (-1, 0, 1)})
    _assert_tables_match_naive(xs, (1, 2, 3, _first_nu_past(xs[-1], np.int16),
                                    _first_nu_past(xs[-1], np.int32)))


def test_max_divisor_count_matches_scan():
    for x, nu in ((1, 3), (100, 2), (720, 3), (5000, 4)):
        assert _max_divisor_count(x, nu) == max(
            _factor_divisor_count(m, nu) for m in range(1, x + 1))
    # Far past any scan: a prime list too short would cut the walk short.
    for x, nu, top in ((10 ** 8, 2, 768), (10 ** 8, 3, 58_320),
                       (10 ** 18, 2, 103_680), (10 ** 30, 4, 1_068_708_659_200_000)):
        assert _max_divisor_count(x, nu) == top


def test_primes_upto_matches_trial_division():
    want = [p for p in range(2, 10 ** 4 + 1)
            if all(p % d for d in range(2, math.isqrt(p) + 1))]
    for n in [*range(2001), 10 ** 4]:
        assert _primes_upto(n).tolist() == [p for p in want if p <= n]


def test_divisor_multiplicative_spot_checks():
    table = divisor_table(1000, 2)
    for a, b in ((3, 8), (5, 9), (7, 11), (4, 25)):
        assert int(table.d[a * b]) == int(table.d[a]) * int(table.d[b])


def test_truncated_coefficients_match_divisors():
    # b_m = d_nu(m) for m <= N
    for n, nu in ((20, 2), (15, 3), (30, 1)):
        table = power_coefficients(n, nu, limit=n)
        dt = divisor_table(n, nu)
        assert table.b[1:n + 1].tolist() == dt.d[1:n + 1].tolist()


def test_divisor_sum_hand_value():
    assert divisor_sum(1, 2) == pytest.approx(1.0)
    expected = 1 + 4 / 2 + 4 / 3 + 9 / 4 + 4 / 5 + 16 / 6
    assert divisor_sum(6, 2) == pytest.approx(expected, rel=1e-14)


def test_divisor_sum_nondecreasing():
    vals = [divisor_sum(x, 2) for x in range(1, 501, 25)]
    assert all(lo <= hi for lo, hi in zip(vals, vals[1:]))


def test_square_sum_argument_errors():
    with pytest.raises(ValueError):
        divisor_sum(-5, 2)
    table = power_coefficients(10, 2)
    assert _weighted_square_sums(table.b, [0, 3, 0]) == [
        0.0, _weighted_square_sums(table.b, [3])[0], 0.0]


def test_one_pass_sums_equal_single_sums():
    # Unsorted, one duplicate, and on both sides of the 2^16 chunk edges:
    # each sum is the same floats as its own divisor_sum, bit for bit.
    xs = [131073, 65536, 1000, 65537, 131072, 1000]
    fit = growth_fit(2, xs)
    assert fit["sums"] == [divisor_sum(x, 2) for x in xs]
    # The values before the one-pass helper, to the last bit.
    assert fit["sums"] == [1236.1731776193803, 1016.7511722291158,
                           237.30033124448084, 1016.7512332633407,
                           1236.1730555499992, 237.30033124448084]
    table = power_coefficients(40, 2)
    assert _weighted_square_sums(table.b, [table.limit])[0] == 77.25176411351093
    # Whole chunks summed once serve every upto, as one call per upto does.
    chunk = 1 << 16
    uptos = [chunk - 1, chunk, chunk + 1, 2 * chunk, 3 * chunk + 5]
    d = divisor_table(max(uptos), 2).d
    assert _weighted_square_sums(d, uptos) == [
        _weighted_square_sums(d, [upto])[0] for upto in uptos]


def test_divisor_sums_are_pinned():
    # Pinned to the last bit, so that a change to the sieve cannot move them
    # silently.
    assert divisor_sum(10 ** 6, 2) == 2083.021405218094
    assert divisor_sum(10 ** 5, 3) == 78723.99408657236
    xs = [100, 193, 372, 719, 1389, 2682, 5179, 10000, 19306, 37275, 71968,
          138949, 268269, 517947, 1000000]
    assert growth_fit(2, xs)["sums"] == [
        76.87714630948298, 109.75512807105375, 152.2320192133453,
        205.25103414624243, 272.12811263284647, 352.7892807338741,
        449.95002870419887, 565.6464099580035, 701.6273634419947,
        860.5134902732228, 1044.4595797526663, 1256.0529093034775,
        1497.8662552898181, 1772.5847152327653, 2083.021405218094]


def test_coefficient_chain_inequality():
    # sum over m <= N^nu >= sum over m <= N, and the latter equals the
    # divisor-square sum
    for n, nu in ((10, 2), (6, 3)):
        table = power_coefficients(n, nu)
        full, trunc = _weighted_square_sums(table.b, [table.limit, n])
        assert full >= trunc
        assert trunc == pytest.approx(divisor_sum(n, nu), rel=1e-12)


def test_corollary_reads_divisor_sum_from_its_own_table(monkeypatch):
    # b_m = d_nu(m) for m <= N, so the b table's prefix sum is divisor_sum
    # bit for bit, and the corollary sieves no divisor table of its own.
    for n, nu in itertools.product((1, 2, 7, 30, 64), (1, 2, 3)):
        b = power_coefficients(n, nu).b
        assert _weighted_square_sums(b, [n])[0] == divisor_sum(n, nu)
    expected = divisor_sum(30, 2)

    def no_sieve(*args, **kwargs):
        raise AssertionError("corollary sieved a divisor table")
    monkeypatch.setattr(zeta, "divisor_table", no_sieve)
    rep = corollary_lower_bound(30, 2, 10.0)
    assert rep.method["divisor_square_sum_upto_N"] == expected


def test_zeta_instance():
    inst = zeta_instance(4)
    assert inst.amplitudes[0] == 1.0
    assert inst.amplitudes[3] == pytest.approx(0.5)
    assert inst.frequencies[1] == pytest.approx(math.log(2))


def test_zeta_sizes_take_integral_floats():
    assert zeta_instance(10.0) == zeta_instance(np.int64(10)) == zeta_instance(10)
    float_rep = corollary_lower_bound(10.0, 2, 1e3)
    int_rep = corollary_lower_bound(10, 2, 1e3)
    assert (float_rep.lhs, float_rep.rhs) == (int_rep.lhs, int_rep.rhs)
    assert float_rep.instance_summary == {"N": 10, "nu": 2}
    for build in (lambda: zeta_instance(10.5),
                  lambda: corollary_lower_bound(10.5, 2, 1e3)):
        with pytest.raises(ValueError, match="N must be an integer"):
            build()


def test_corollary_single_term():
    rep = corollary_lower_bound(1, 1, 10.0)
    assert rep.lhs == pytest.approx(1 / 3)
    assert rep.rhs == pytest.approx(1.0, rel=1e-9)
    assert rep.passed


def test_corollary_harmonic_number():
    rep = corollary_lower_bound(10, 1, 1e3)
    h10 = sum(1 / n for n in range(1, 11))
    assert rep.rhs == pytest.approx(h10, rel=0.01)
    assert rep.lhs == pytest.approx(h10 / 3, rel=1e-9)
    assert rep.passed


def test_corollary_n50_nu2():
    rep = corollary_lower_bound(50, 2, 1e4)
    assert rep.passed
    assert rep.margin > 0
    assert rep.method["divisor_square_sum_upto_N"] > 0


def test_growth_fit_structure():
    fit = growth_fit(2, xs=[10 ** 3, 10 ** 4, 10 ** 5])
    assert fit["target"] == 4
    assert len(fit["sums"]) == 3
    assert fit["slope"] > 0


def test_growth_fit_nu1_exact_exponent():
    # S(x) = log x + gamma + O(1/x) for nu = 1, so the exponent is exactly 1.
    fit = growth_fit(1)
    assert fit["slope"] == pytest.approx(1.0, abs=0.01)
    assert abs(fit["loglog_slope"] - 1.0) > abs(fit["slope"] - 1.0)


def test_growth_fit_rejects_unusable_xs():
    with pytest.raises(ValueError):
        growth_fit(2, xs=[10 ** 3, 10 ** 4])
    with pytest.raises(ValueError):
        growth_fit(2, xs=[10 ** 3, 10 ** 3, 10 ** 3, 10 ** 4])
    with pytest.raises(ValueError):
        growth_fit(2, xs=[1, 10, 100])
