"""Exact spectral engine: |S(t)|^{2q} expanded into a finite combination
sum_j w_j e^{i omega_j t}.

S^q = sum_k A_k e^{i f_k t} is built by folding in one factor of
S = sum_n c_n e^{it phi_n} at a time: every mode (f, A) of S^{r-1} spawns
(f + phi_n, A c_n), and modes at the same frequency merge.  The squared
modulus is then the double sum over mode pairs (j, k) with frequency
omega = f_j - f_k and coefficient A_j conj(A_k).  Windowed integrals,
Fejer-weighted integrals, and the long-window limit have closed forms.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    ComplexCoefficients,
    Instance,
    ImaginaryResidueError,
    NotIntegerError,
    TermBudgetExceededError,
    Window,
    coefficient_values,
    source_frequencies,
    validate_order,
)
from .fejer import KernelParams

DEFAULT_TERM_BUDGET = 10 ** 8

# Mode pairs processed per numpy block.
_ROW_CHUNK = 4_000_000

# Bound on 2q max|phi| for exact integer-frequency expansion.
_EXACT_INTEGER_LIMIT = 2 ** 53


@dataclass(frozen=True)
class SpectralExpansion:
    """Merged term list (omega_j, w_j) with sum_j w_j e^{i omega_j t} = |S(t)|^{2q}."""

    omegas: np.ndarray
    coeffs: np.ndarray
    q: int
    source: Instance | ComplexCoefficients
    metadata: dict = field(default_factory=dict, compare=False)

    @property
    def term_count(self) -> int:
        return int(self.omegas.size)

    def coeff_scale(self) -> float:
        return float(np.abs(self.coeffs).sum())

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["omega", "coeff_re", "coeff_im"])
            for w, c in zip(self.omegas, self.coeffs):
                writer.writerow([repr(float(w)), repr(float(c.real)),
                                 repr(float(c.imag))])


def composition_count(n: int, q: int) -> int:
    return math.comb(n + q - 1, q)


def default_merge_tol(source, q: int) -> float:
    """Separates genuinely distinct float omegas from arithmetic noise."""
    return 1e-9 * max(1.0, q * max(abs(p) for p in source.frequencies))


def _merge(omegas: np.ndarray, coeffs: np.ndarray,
           tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Cluster omegas closer than tol (on the sorted sequence) and sum coeffs.

    With tol = 0 only equal omegas merge, and each keeps its exact value.
    """
    order = np.argsort(omegas, kind="stable")
    om = omegas[order]
    co = coeffs[order]
    if om.size == 0:
        return om, co
    breaks = np.flatnonzero(np.diff(om) > tol) + 1
    starts = np.concatenate(([0], breaks))
    merged_co = np.add.reduceat(co, starts)
    if tol == 0:
        return om[starts], merged_co
    counts = np.diff(np.concatenate((starts, [om.size])))
    merged_om = np.add.reduceat(om, starts) / counts
    return merged_om, merged_co


def _modes(values, q: int, phis: np.ndarray, merge_tol: float,
           term_budget: int) -> tuple[np.ndarray, np.ndarray]:
    """Merged one-sided modes (f_k, A_k) of (sum c_n e^{it phi_n})^q.

    Folds in one factor per round, (f, A) <- merge(f + phi, A c).  Integer
    phis merge at tol 0 and stay exact.  The r-fold sumset never shrinks
    as r grows, so the budget on the final mode pairs is checked every round.
    """
    coeffs = np.asarray(values, dtype=np.complex128)
    freqs = np.zeros(1, dtype=phis.dtype)
    amps = np.ones(1, dtype=np.complex128)
    for _ in range(q):
        freqs, amps = _merge((freqs[:, None] + phis[None, :]).ravel(),
                             (amps[:, None] * coeffs[None, :]).ravel(),
                             merge_tol)
        if freqs.size ** 2 > term_budget:
            raise TermBudgetExceededError(
                f"{freqs.size}^2 mode pairs exceed budget {term_budget}")
    return freqs, amps


def _expand(source, q: int, phis: np.ndarray, merge_tol: float,
            term_budget: int) -> SpectralExpansion:
    """All mode pairs (j, k) at omega = f_j - f_k, merged by omega.

    Integer phis keep every omega an exact integer until the final cast.
    """
    values = coefficient_values(source)
    freqs, amps = _modes(values, q, phis, merge_tol, term_budget)
    n_modes = freqs.size

    rows_per_chunk = max(1, _ROW_CHUNK // n_modes)
    parts_om, parts_co = [], []
    for start in range(0, n_modes, rows_per_chunk):
        stop = min(start + rows_per_chunk, n_modes)
        om = (freqs[start:stop, None] - freqs[None, :]).ravel()
        co = (amps[start:stop, None] * np.conj(amps)[None, :]).ravel()
        mo, mc = _merge(om, co, merge_tol)
        parts_om.append(mo)
        parts_co.append(mc)
    omegas, coeffs = _merge(np.concatenate(parts_om),
                            np.concatenate(parts_co), merge_tol)

    s0_direct = float(np.abs(np.sum(np.asarray(values,
                                               dtype=np.complex128))) ** (2 * q))
    total = complex(np.sum(coeffs))
    parseval = abs(total - s0_direct) / max(s0_direct, 1e-300)
    return SpectralExpansion(
        omegas.astype(np.float64, copy=False), coeffs, q, source,
        {"merge_tol": merge_tol, "raw_pairs": n_modes * n_modes,
         "parseval_rel_err": parseval, "exact_omegas": phis.dtype.kind == "i"})


def expand(source: Instance | ComplexCoefficients, q: int,
           merge_tol: float | None = None,
           term_budget: int = DEFAULT_TERM_BUDGET) -> SpectralExpansion:
    """Mode-pair expansion of |S(t)|^{2q}, merged by omega."""
    validate_order(q)
    if merge_tol is None:
        merge_tol = default_merge_tol(source, q)
    phis = np.asarray(source_frequencies(source), dtype=np.float64)
    return _expand(source, q, phis, merge_tol, term_budget)


def integer_mode(source: Instance | ComplexCoefficients, q: int) -> bool:
    """Whether every frequency is an integer with 2q max|phi| <= 2^53.

    Then every mode frequency and every pair difference is an integer that
    float64 holds exactly and int64 holds without overflow.
    """
    phis = source_frequencies(source)
    return (all(float(p).is_integer() for p in phis)
            and 2 * q * max(abs(p) for p in phis) <= _EXACT_INTEGER_LIMIT)


def rational_mode_expand(source: Instance | ComplexCoefficients, q: int,
                         term_budget: int = DEFAULT_TERM_BUDGET) -> SpectralExpansion:
    """Expansion with integer frequencies: omegas and merging are exact.

    Raises NotIntegerError unless integer_mode(source, q) holds.
    """
    validate_order(q)
    if not integer_mode(source, q):
        raise NotIntegerError(
            f"integer mode needs integer frequencies with 2q max|phi| <= 2^53, "
            f"got q = {q} and frequencies {source_frequencies(source)!r}")
    phis = np.asarray(source_frequencies(source), dtype=np.int64)
    return _expand(source, q, phis, 0.0, term_budget)


def _real_part(total: complex, scale: float, what: str) -> float:
    if abs(total.imag) > 1e-9 * max(scale, abs(total.real)):
        raise ImaginaryResidueError(
            f"{what}: imaginary residue {total.imag!r} vs scale {scale!r}")
    return total.real


def integral_exact(expansion: SpectralExpansion, window: Window) -> float:
    """Closed-form integral of |S|^{2q} over |t - center| <= T (not normalized).

    Each term integrates to coeff * e^{i omega center} * 2 sin(omega T)/omega,
    with 2T at omega = 0.
    """
    T, center = window.half_width, window.center
    weights = 2.0 * T * np.sinc(expansion.omegas * (T / math.pi))
    phases = np.exp(1j * expansion.omegas * center)
    total = complex(np.sum(expansion.coeffs * phases * weights))
    scale = expansion.coeff_scale() * 2.0 * T
    return _real_part(total, scale, "integral_exact")


def limit_moment(expansion: SpectralExpansion,
                 resonance_tol: float | None = None) -> float:
    """The T -> infinity windowed average: sum of coefficients at |omega| <= tol.

    For linearly independent frequencies this is the diagonal sum
    sum_k (q!/prod k_n!)^2 prod a_n^{2 k_n}.
    """
    if resonance_tol is None:
        resonance_tol = expansion.metadata.get("merge_tol", 0.0)
    mask = np.abs(expansion.omegas) <= resonance_tol
    total = complex(np.sum(expansion.coeffs[mask]))
    return _real_part(total, expansion.coeff_scale(), "limit_moment")


def resonance_gap(expansion: SpectralExpansion,
                  resonance_tol: float | None = None) -> float:
    """Smallest |omega| above the resonance tolerance (inf if none).

    Quantifies how large T must be before the finite-window average
    approaches limit_moment: the off-resonant error decays like 1/(T gap).
    """
    if resonance_tol is None:
        resonance_tol = expansion.metadata.get("merge_tol", 0.0)
    above = np.abs(expansion.omegas)[np.abs(expansion.omegas) > resonance_tol]
    return float(above.min()) if above.size else math.inf


def fejer_weighted_exact(expansion: SpectralExpansion,
                         params: KernelParams) -> float:
    """Exact value of integral K_T(t - H)|S(t)|^{2q} dt.

    Each term contributes coeff * e^{i omega H} * Khat_T(omega), with
    Khat_T(omega) = 4 sin^2(omega T/2)/(T omega^2) = T sinc^2(omega T/(2 pi)).
    """
    T, H = params.T, params.H
    weights = T * np.sinc(expansion.omegas * (T / (2 * math.pi))) ** 2
    phases = np.exp(1j * expansion.omegas * H)
    total = complex(np.sum(expansion.coeffs * phases * weights))
    scale = expansion.coeff_scale() * T
    return _real_part(total, scale, "fejer_weighted_exact")
