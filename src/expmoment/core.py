"""Domain types shared by every module: instances, complex coefficients,
windows, moment results, and the error taxonomy.

All types are immutable after construction and safe to share across threads.
"""
from __future__ import annotations

import cmath
import json
import math
import numbers
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
    (rescale the amplitudes), or a divisor count the int64 range."""


class NotConvergedError(ExpMomentError):
    """Quadrature refinement hit the panel cap; carries the best value."""

    def __init__(self, value: float, error_estimate: float, message: str = ""):
        super().__init__(message or f"not converged: value={value!r} "
                                    f"error_estimate={error_estimate!r}")
        self.value = value
        self.error_estimate = error_estimate


class TermBudgetExceededError(ExpMomentError):
    """The multi-index pair count exceeds the exact-engine budget."""


class TooManySignsError(ExpMomentError):
    pass


class NotIntegerError(ExpMomentError):
    pass


class BadGapError(ExpMomentError):
    pass


class DegenerateCosineError(ExpMomentError):
    pass


class BudgetExceededError(ExpMomentError):
    pass


# --------------------------------------------------------------------------
# Types
# --------------------------------------------------------------------------

#: Relative tolerance for the |c_n| <= a_n domination check; absorbs
#: construction-time float noise.
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

    def to_json(self) -> str:
        return json.dumps({"amplitudes": list(self.amplitudes),
                           "frequencies": list(self.frequencies)})

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


@dataclass(frozen=True)
class Window:
    """Integration window: |t - center| <= half_width."""

    center: float
    half_width: float

    def __post_init__(self):
        if not (math.isfinite(self.center) and math.isfinite(self.half_width)):
            raise NonFiniteError("window parameters must be finite")
        if self.half_width <= 0:
            raise NonFiniteError("window half_width must be > 0")


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
    """Build ComplexCoefficients, enforcing |c_n| <= a_n up to DOMINATION_RTOL."""
    vals = tuple(complex(v) for v in values)
    if len(vals) != dominating.size:
        raise LengthMismatchError(
            f"{len(vals)} coefficients vs instance of size {dominating.size}")
    for v in vals:
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise NonFiniteError(f"non-finite coefficient {v!r}")
    for v, a in zip(vals, dominating.amplitudes):
        if abs(v) > a * (1.0 + DOMINATION_RTOL):
            raise DominationError(f"|{v!r}| = {abs(v)!r} > amplitude {a!r}")
    return ComplexCoefficients(vals, dominating)


def coefficient_values(source) -> tuple[complex, ...]:
    """The c_n of either source type (a_n taken as real coefficients)."""
    if isinstance(source, ComplexCoefficients):
        return source.values
    return tuple(complex(a) for a in source.amplitudes)
