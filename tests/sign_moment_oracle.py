"""A 40-digit series oracle for the sign moments E|sum_n eps_n z_n|^{2q}.

Write z_n = x_n + i y_n, U = sum eps_n x_n and V = sum eps_n y_n.  The signs
are independent, so E e^{sU + rV} = prod_n cosh(s x_n + r y_n) and
E[U^a V^b] = a! b! [s^a r^b] of that product.  Expanding
|X|^{2q} = (U^2 + V^2)^q then gives

    E|X|^{2q} = sum_k binom(q, k) (2k)! (2q - 2k)! [s^{2k} r^{2q-2k}] P(s, r),
    P(s, r) = prod_n cosh(s x_n + r y_n).

The product is truncated at total degree 2q, and cosh is even, so only
even total degrees occur.  Nothing here is shared with the E[X^a conj(X)^b]
fold of rademacher.exact_even_moment, and the work is O(N q^4) at any N.
"""
import math

import mpmath


def sign_moment(values, q: int) -> float:
    top = 2 * q
    with mpmath.workdps(40):
        series = {(0, 0): mpmath.mpf(1)}
        for v in values:
            x, y = mpmath.mpf(complex(v).real), mpmath.mpf(complex(v).imag)
            # cosh(s x + r y) = sum over even i + j of x^i y^j s^i r^j / (i! j!)
            factor = [(i, d - i, x ** i * y ** (d - i)
                       / (math.factorial(i) * math.factorial(d - i)))
                      for d in range(0, top + 1, 2) for i in range(d + 1)]
            product = {}
            for (a, b), p in series.items():
                for i, j, f in factor:
                    if f and a + b + i + j <= top:
                        product[a + i, b + j] = product.get((a + i, b + j), 0) + p * f
            series = product
        return float(mpmath.fsum(
            math.comb(q, k) * math.factorial(2 * k) * math.factorial(top - 2 * k)
            * series.get((2 * k, top - 2 * k), 0) for k in range(q + 1)))
