"""Scalar references for the vectorized engines: S(t) at one point with
compensated sums, and the Fejer kernel's Fourier transform (its convention
is stated on expmoment.core.KernelParams)."""
import math

import numpy as np

from expmoment.core import KernelParams, NonFiniteError, coefficient_values


def eval_sum(source, t: float) -> complex:
    """S(t) with compensated per-component accumulation."""
    if not math.isfinite(t):
        raise NonFiniteError(f"non-finite t {t!r}")
    coeffs = coefficient_values(source)
    phis = source.frequencies
    re_parts = []
    im_parts = []
    for c, phi in zip(coeffs, phis):
        co = math.cos(t * phi)
        si = math.sin(t * phi)
        re_parts.append(c.real * co - c.imag * si)
        im_parts.append(c.real * si + c.imag * co)
    return complex(math.fsum(re_parts), math.fsum(im_parts))


def kernel_hat(params: KernelParams, u):
    """Fourier transform 4 sin^2(uT/2)/(T u^2) = T sinc^2(uT/(2 pi)), elementwise.

    np.sinc is exact at u = 0, where the value is T.
    """
    return params.T * np.sinc(u * (params.T / (2 * math.pi))) ** 2
