"""A 40-digit tuple-sum oracle for windowed and Fejer integrals of
|S|^{2q}, and the seeded cases it is evaluated on, shared by the spectral
and quadrature tests."""
import functools
import itertools

import mpmath
import numpy as np

from expmoment.core import coefficient_values, validate_instance
from expmoment.verify import random_dominated


def tuple_sum(source, q, T, shift, fejer):
    """The windowed or Fejer integral of |S|^{2q} at 40 digits, summed over
    all N^q x N^q index tuples (I, J) at omega = sum phi_I - sum phi_J."""
    with mpmath.workdps(40):
        c = [mpmath.mpc(v) for v in coefficient_values(source)]
        phi = [mpmath.mpf(p) for p in source.frequencies]
        T = mpmath.mpf(T)
        tuples = [(mpmath.fprod(c[i] for i in idx), mpmath.fsum(phi[i] for i in idx))
                  for idx in itertools.product(range(len(c)), repeat=q)]
        total = mpmath.mpc(0)
        for (ci, fi), (cj, fj) in itertools.product(tuples, tuples):
            om = fi - fj
            if fejer:
                k = T if om == 0 else 4 * mpmath.sin(om * T / 2) ** 2 / (T * om ** 2)
            else:
                k = 2 * T if om == 0 else 2 * mpmath.sin(om * T) / om
            total += ci * mpmath.conj(cj) * mpmath.expj(om * shift) * k
        assert abs(total.imag) <= mpmath.mpf(10) ** -30 * abs(total.real)
        return float(total.real)


@functools.lru_cache(maxsize=None)
def closed_form_cases():
    """24 seeded dominated sources (N = 1-3, q = 1-3; the last 12 on integer
    frequencies), each at three (T, shift).  Tuples (source, q, integer, T,
    shift, window integral, Fejer integral), the integrals from tuple_sum."""
    rng = np.random.default_rng(17)
    cases = []
    for case in range(24):
        n, q = 1 + case % 3, 1 + (case // 3) % 3
        integer = case >= 12
        phis = (rng.integers(-4, 5, n) if integer else rng.uniform(-4, 4, n))
        inst = validate_instance([float(a) for a in rng.uniform(0.2, 1, n)],
                                 [float(p) for p in phis])
        source = random_dominated(rng, inst)
        for T, shift in ((0.4, 0.9), (3.0, -1.7), (25.0, 2.3)):
            cases.append((source, q, integer, T, shift,
                          tuple_sum(source, q, T, shift, fejer=False),
                          tuple_sum(source, q, T, shift, fejer=True)))
    return tuple(cases)
