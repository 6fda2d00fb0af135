"""The triangular (Fejer) kernel K_T and its Fourier transform.

Fourier convention: Khat(u) = integral K(t) e^{-iut} dt, which gives
Khat_T(u) = 4 sin^2(uT/2) / (T u^2) >= 0, with zeros at u = 2 pi k / T
and Khat_T(0) = T.  Stated here once to avoid 2*pi-convention drift.
(The half-angle matters: the frequently quoted (1/T)(sin Tu/u)^2 is the
same function with u rescaled and is not the transform under this
convention; positivity, the only property the majorization argument
needs, holds either way.)
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .core import NonFiniteError


@dataclass(frozen=True)
class KernelParams:
    """Half-width T >= 2^-1022 (normal, as for Window) and center shift H of
    the triangular kernel."""

    T: float
    H: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.T) and math.isfinite(self.H)):
            raise NonFiniteError("kernel parameters must be finite")
        if self.T < sys.float_info.min:
            raise NonFiniteError("kernel half-width T must be >= 2^-1022")


def kernel_value(params: KernelParams, t):
    """K_T(t - H) = max(0, 1 - |t - H|/T), elementwise on arrays."""
    return np.maximum(0.0, 1.0 - np.abs(t - params.H) / params.T)


def kernel_hat(params: KernelParams, u):
    """Fourier transform 4 sin^2(uT/2)/(T u^2) = T sinc^2(uT/(2 pi)), elementwise.

    np.sinc is exact at u = 0, where the value is T.
    """
    return params.T * np.sinc(u * (params.T / (2 * math.pi))) ** 2
