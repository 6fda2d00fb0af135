import collections
import functools
import itertools
import math
import time

import numpy as np
import pytest

from expmoment import zeta
from expmoment.core import BudgetExceededError, OverflowRangeError
from expmoment.zeta import (
    _max_divisor_count,
    _weighted_square_sums,
    coefficient_square_sum,
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
            assert table.total() == n ** nu
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


def test_blocked_convolution_matches_whole_table(monkeypatch):
    # The default block holds 2^18 entries, so 70^3 = 343,000 spans two.
    table = power_coefficients(70, 3)
    assert table.b.size > zeta._BLOCK
    assert table.b.dtype == np.int64
    assert np.array_equal(table.b, _naive_indicator_power(70, 3, None))
    monkeypatch.setattr(zeta, "_BLOCK", 64)
    for n, nu, limit in ((7, 3, 100), (5, 4, 200), (12, 2, 50), (30, 3, None),
                         (20, 4, None)):
        table = power_coefficients(n, nu, limit=limit)
        assert table.b.dtype == np.int64
        assert np.array_equal(table.b, _naive_indicator_power(n, nu, limit))


def test_nonpositive_limit_is_invalid():
    for limit in (0, -3):
        with pytest.raises(ValueError, match="limit"):
            power_coefficients(5, 2, limit=limit)


def test_nonpositive_size_is_invalid():
    for build in (lambda: power_coefficients(0, 2), lambda: divisor_table(0, 2),
                  lambda: zeta_instance(0)):
        with pytest.raises(ValueError):
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
    with pytest.raises(BudgetExceededError):
        power_coefficients(10 ** 3, 3)
    with pytest.raises(BudgetExceededError):
        divisor_table(10 ** 9, 2)


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
            assert table.d.dtype == np.int64
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
    # The sieve works in int16, int32 or int64 by max d_nu(m); the sweep
    # crosses both boundaries (d_10(720) = 393,250 > 2^15) and the table is
    # int64 at every nu.
    tops = []
    nu = 1
    while _max_divisor_count(1000, nu) <= np.iinfo(np.int64).max:
        table = divisor_table(1000, nu)
        assert table.d.dtype == np.int64
        assert table.d[1:].tolist() == [_factor_divisor_count(m, nu)
                                        for m in range(1, 1001)]
        tops.append(_max_divisor_count(1000, nu))
        nu += 1
    assert _factor_divisor_count(720, 10) == 393250
    assert min(tops) <= np.iinfo(np.int16).max < max(tops)
    assert any(np.iinfo(np.int32).max < top for top in tops)


def test_max_divisor_count_matches_scan():
    for x, nu in ((1, 3), (100, 2), (720, 3), (5000, 4)):
        assert _max_divisor_count(x, nu) == max(
            _factor_divisor_count(m, nu) for m in range(1, x + 1))


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
    table = divisor_table(500, 2)
    vals = [divisor_sum(x, 2, table) for x in range(1, 501, 25)]
    assert all(lo <= hi for lo, hi in zip(vals, vals[1:]))


def test_square_sum_argument_errors():
    with pytest.raises(ValueError):
        divisor_sum(100, 3, divisor_table(100, 2))
    with pytest.raises(BudgetExceededError):
        divisor_sum(200, 2, divisor_table(100, 2))
    with pytest.raises(ValueError):
        divisor_sum(-5, 2, divisor_table(100, 2))
    assert divisor_sum(0, 2, divisor_table(100, 2)) == 0.0
    table = power_coefficients(10, 2)
    with pytest.raises(ValueError):
        coefficient_square_sum(table, -4)
    assert coefficient_square_sum(table, 0) == 0.0
    assert _weighted_square_sums(table.b, [0, 3, 0]) == [
        0.0, coefficient_square_sum(table, 3), 0.0]


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
    assert coefficient_square_sum(power_coefficients(40, 2)) == 77.25176411351093


def test_coefficient_chain_inequality():
    # sum over m <= N^nu >= sum over m <= N, and the latter equals the
    # divisor-square sum
    for n, nu in ((10, 2), (6, 3)):
        table = power_coefficients(n, nu)
        full = coefficient_square_sum(table)
        trunc = coefficient_square_sum(table, upto=n)
        assert full >= trunc
        assert trunc == pytest.approx(divisor_sum(n, nu), rel=1e-12)


def test_corollary_reads_divisor_sum_from_its_own_table(monkeypatch):
    # b_m = d_nu(m) for m <= N, so the b table's prefix sum is divisor_sum
    # bit for bit, and the corollary sieves no divisor table of its own.
    for n, nu in itertools.product((1, 2, 7, 30, 64), (1, 2, 3)):
        assert coefficient_square_sum(power_coefficients(n, nu), n) == divisor_sum(n, nu)
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
