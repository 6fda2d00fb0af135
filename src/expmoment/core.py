"""Domain types shared by every module: instances, complex coefficients,
windows and Fejer kernels, moment results, the size budget and the errors.

All types are immutable after construction and safe to share across threads.
"""
from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, field
from typing import Iterable


# --------------------------------------------------------------------------
# Errors
# --------------------------------------------------------------------------

class ExpMomentError(Exception):
    """Base class for every library error."""


class NegativeAmplitudeError(ExpMomentError):
    """An amplitude is negative: the lower-bound hypothesis is violated."""


class LengthMismatchError(ExpMomentError):
    pass


class NonFiniteError(ExpMomentError):
    pass


class EmptyInstanceError(ExpMomentError):
    pass


class DominationError(ExpMomentError):
    """|c_n| exceeds the dominating amplitude a_n."""


class OverflowRangeError(ExpMomentError):
    """A value would leave its number type: (sum a_n)^{2q} the double range
    (rescale the amplitudes), a phase t phi_n the double range (rescale the
    frequencies), or a divisor count the int64 range."""


class NotConvergedError(ExpMomentError):
    """Quadrature hit the panel cap; carries the best value and its error,
    or nan when it refused before evaluating."""

    def __init__(self, value: float, error_estimate: float):
        super().__init__(f"not converged: value={value!r} "
                         f"error_estimate={error_estimate!r}")
        self.value = value
        self.error_estimate = error_estimate


class TermBudgetExceededError(ExpMomentError):
    """A request past a size budget: spectral mode pairs, zeta table entries,
    plotdata grid points times terms, or exhaustive sign vectors."""


DEFAULT_TERM_BUDGET = 10 ** 8  # of every use above but the sign vectors


class BadGapError(ExpMomentError):
    pass


class DegenerateCosineError(ExpMomentError):
    pass


# --------------------------------------------------------------------------
# Types
# --------------------------------------------------------------------------

#: Relative tolerance for the |c_n| <= a_n domination check; absorbs
#: construction-time float noise.  Two ulps of 0 more absorb it at subnormal
#: a_n, where rounding is absolute.
DOMINATION_RTOL = 1e-12

#: Engines must agree this well whenever both ran; worse is a hard failure
#: regardless of the inequality itself.  The spectral engine also refuses a
#: value whose float-mode merging may have moved a phase by more.
ENGINE_AGREEMENT_RTOL = 1e-6


@dataclass(frozen=True)
class Instance:
    """Non-negative amplitudes a_1..a_N and real frequencies phi_1..phi_N.

    Frequencies need not be distinct or sorted; operations that require
    either validate locally.
    """

    amplitudes: tuple[float, ...]
    frequencies: tuple[float, ...]

    @property
    def size(self) -> int:
        return len(self.amplitudes)

    def energy(self) -> float:
        """Sum of squared amplitudes, compensated summation."""
        return math.fsum(a * a for a in self.amplitudes)

    def amplitude_sum(self) -> float:
        return math.fsum(self.amplitudes)

    @classmethod
    def from_json(cls, text: str) -> "Instance":
        try:
            obj = json.loads(text)
            amplitudes = obj["amplitudes"]
            frequencies = obj["frequencies"]
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise NonFiniteError(f"malformed instance JSON: {exc}") from exc
        return validate_instance(amplitudes, frequencies)


@dataclass(frozen=True)
class ComplexCoefficients:
    """Complex c_1..c_N dominated componentwise by an Instance's amplitudes."""

    values: tuple[complex, ...]
    dominating: Instance

    @property
    def size(self) -> int:
        return len(self.values)

    @property
    def frequencies(self) -> tuple[float, ...]:
        return self.dominating.frequencies

    def amplitude_sum(self) -> float:
        return math.fsum(abs(c) for c in self.values)


def _check_kernel(kind: str, width_name: str, shift: float, width: float) -> None:
    """Refuse a non-finite shift or width, or a width below 2^-1022."""
    if not (math.isfinite(shift) and math.isfinite(width)):
        raise NonFiniteError(f"{kind} parameters must be finite")
    if width < sys.float_info.min:
        raise NonFiniteError(f"{kind} {width_name} must be >= 2^-1022")


@dataclass(frozen=True)
class Window:
    """Integration window: |t - center| <= half_width, with half_width a
    normal double (>= 2^-1022): at subnormal ones T/2 and the engines'
    products with T lose relative precision."""

    center: float
    half_width: float

    def __post_init__(self):
        _check_kernel("window", "half_width", self.center, self.half_width)


@dataclass(frozen=True)
class KernelParams:
    """The triangular (Fejer) kernel K_T(t - H) = max(0, 1 - |t - H|/T), with
    half-width T >= 2^-1022 (normal, as for Window) and center shift H.

    Fourier convention: Khat(u) = integral K(t) e^{-iut} dt, which gives
    Khat_T(u) = 4 sin^2(uT/2) / (T u^2) >= 0, with zeros at u = 2 pi k / T
    and Khat_T(0) = T.  Stated here once to avoid 2*pi-convention drift.
    (The half-angle matters: the frequently quoted (1/T)(sin Tu/u)^2 is the
    same function with u rescaled and is not the transform under this
    convention; positivity, the only property the majorization argument
    needs, holds either way.)
    """

    T: float
    H: float = 0.0

    def __post_init__(self):
        _check_kernel("kernel", "half-width T", self.H, self.T)


@dataclass(frozen=True)
class MomentResult:
    """A windowed-moment value and its error estimate (metadata["error_kind"])."""

    value: float
    error_estimate: float
    metadata: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if self.value < 0 or self.error_estimate < 0:
            raise NonFiniteError("moment value and error estimate must be >= 0")


# --------------------------------------------------------------------------
# Construction / validation
# --------------------------------------------------------------------------

def validate_instance(amplitudes: Iterable[float],
                      frequencies: Iterable[float]) -> Instance:
    """Build an Instance, rejecting malformed input."""
    amps = tuple(float(a) for a in amplitudes)
    phis = tuple(float(p) for p in frequencies)
    if len(amps) == 0:
        raise EmptyInstanceError("instance needs at least one term")
    if len(amps) != len(phis):
        raise LengthMismatchError(
            f"{len(amps)} amplitudes vs {len(phis)} frequencies")
    for x in amps + phis:
        if not math.isfinite(x):
            raise NonFiniteError(f"non-finite entry {x!r}")
    for a in amps:
        if a < 0:
            raise NegativeAmplitudeError(f"amplitude {a!r} < 0")
    return Instance(amps, phis)


def validate_order(q: int) -> int:
    """Moment order q as an int; it must be a positive integer (the power is 2q)."""
    if not isinstance(q, numbers.Integral) or isinstance(q, bool) or q < 1:
        raise NonFiniteError(f"moment order must be a positive integer, got {q!r}")
    return int(q)


def dominated_coefficients(values: Iterable[complex],
                           dominating: Instance) -> ComplexCoefficients:
    """Build ComplexCoefficients, enforcing |c_n| <= a_n (1 + DOMINATION_RTOL)
    + 2 ulp(0)."""
    vals = tuple(complex(v) for v in values)
    if len(vals) != dominating.size:
        raise LengthMismatchError(
            f"{len(vals)} coefficients vs instance of size {dominating.size}")
    for v in vals:
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise NonFiniteError(f"non-finite coefficient {v!r}")
    for v, a in zip(vals, dominating.amplitudes):
        if abs(v) > a * (1.0 + DOMINATION_RTOL) + 2 * math.ulp(0.0):
            raise DominationError(f"|{v!r}| = {abs(v)!r} > amplitude {a!r}")
    return ComplexCoefficients(vals, dominating)


def coefficient_values(source) -> tuple[complex, ...]:
    """The c_n of either source type (a_n taken as real coefficients)."""
    if isinstance(source, ComplexCoefficients):
        return source.values
    return tuple(complex(a) for a in source.amplitudes)
