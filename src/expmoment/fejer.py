"""The triangular (Fejer) kernel K_T, its Fourier transform, and the
three-triangle covering of the window indicator.

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
from dataclasses import dataclass

import numpy as np

from .core import NonFiniteError


@dataclass(frozen=True)
class KernelParams:
    """Half-width T > 0 and center shift H of the triangular kernel."""

    T: float
    H: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.T) and math.isfinite(self.H)):
            raise NonFiniteError("kernel parameters must be finite")
        if self.T <= 0:
            raise NonFiniteError("kernel half-width T must be > 0")


def kernel_value(params: KernelParams, t):
    """K_T(t - H) = max(0, 1 - |t - H|/T), elementwise on arrays."""
    return np.maximum(0.0, 1.0 - np.abs(t - params.H) / params.T)


def kernel_hat(params: KernelParams, u):
    """Fourier transform 4 sin^2(uT/2)/(T u^2) = T sinc^2(uT/(2 pi)), elementwise.

    np.sinc is exact at u = 0, where the value is T.
    """
    return params.T * np.sinc(u * (params.T / (2 * math.pi))) ** 2


def covering_deficit(params: KernelParams, t: float) -> float:
    """[K_T(t-H) + K_T(t-H+T) + K_T(t-H-T)] - indicator(|t-H| <= T); >= 0."""
    shifted = t - params.H
    centered = KernelParams(params.T, 0.0)
    cover = (kernel_value(centered, shifted)
             + kernel_value(centered, shifted + params.T)
             + kernel_value(centered, shifted - params.T))
    indicator = 1.0 if abs(shifted) <= params.T else 0.0
    return cover - indicator
