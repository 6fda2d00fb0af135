"""Exact spectral engine: |S(t)|^{2q} as a Hermitian form over the modes of S^q.

S^q = sum_k A_k e^{i f_k t} is built by folding in one factor of
S = sum_n c_n e^{it phi_n} at a time: every mode (f, A) of S^{r-1} spawns
(f + phi_n, A c_n), and modes at the same frequency merge.  Then
|S(t)|^{2q} = sum_{j,k} A_j conj(A_k) e^{i (f_j - f_k) t}, and every
closed form is sum_{j,k} b_j K(f_k - f_j) conj(b_k) with b = A e^{i f shift}:
only the kernel K changes.  K is even and the merged modes strictly increase,
so the form is K(0) sum_k |b_k|^2 + 2 Re sum_{j<k} b_j K(f_k - f_j) conj(b_k),
with K evaluated only at d = f_k - f_j > 0: 2 sin(T d)/d with K(0) = 2T for a
window, 4 sin^2(T d/2)/(T d^2) with K(0) = T for the Fejer kernel.  The
long-window limit keeps the diagonal alone, sum_k |A_k|^2.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    ENGINE_AGREEMENT_RTOL,
    BadGapError,
    ComplexCoefficients,
    Instance,
    NotIntegerError,
    TermBudgetExceededError,
    Window,
    coefficient_values,
    validate_order,
)
from .fejer import KernelParams

DEFAULT_TERM_BUDGET = 10 ** 8

# Kernel entries (mode pairs) evaluated per numpy block.
_ROW_CHUNK = 2 ** 16

# Bound on 2q max|phi| for exact integer-frequency expansion.
_EXACT_INTEGER_LIMIT = 2 ** 53


@dataclass(frozen=True)
class SpectralExpansion:
    """Merged one-sided modes of S^q: sum_k amps_k e^{i freqs_k t} = S(t)^q.

    freqs is sorted float64; it is exact when metadata["exact_omegas"].
    |S(t)|^{2q} is the Hermitian form of the amps at omega = f_j - f_k.
    """

    freqs: np.ndarray
    amps: np.ndarray
    metadata: dict = field(default_factory=dict, compare=False)


def _merge(omegas: np.ndarray, coeffs: np.ndarray,
           tol: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Cluster omegas closer than tol (on the sorted sequence) and sum coeffs.

    Returns the merged omegas (each cluster's first) and coeffs and the
    widest cluster's span.
    """
    order = np.argsort(omegas, kind="stable")
    om = omegas[order]
    co = coeffs[order]
    breaks = np.flatnonzero(np.diff(om) > tol) + 1
    starts = np.concatenate(([0], breaks))
    ends = np.concatenate((breaks, [om.size])) - 1
    width = float((om[ends] - om[starts]).max())
    return om[starts], np.add.reduceat(co, starts), width


def _modes(values, q: int, phis: np.ndarray,
           merge_tol: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Merged one-sided modes (f_k, A_k) of (sum c_n e^{it phi_n})^q.

    Folds in one factor per round, (f, A) <- merge(f + phi, A c).  The
    r-fold sumset never shrinks as r grows, so the budget on the final mode
    pairs is checked every round.  Also returns the merge width, the widest
    cluster summed over the rounds: it bounds how far merging moved a mode.
    """
    coeffs = np.asarray(values, dtype=np.complex128)
    freqs = np.zeros(1)
    amps = np.ones(1, dtype=np.complex128)
    width = 0.0
    for _ in range(q):
        freqs, amps, w = _merge((freqs[:, None] + phis[None, :]).ravel(),
                                (amps[:, None] * coeffs[None, :]).ravel(),
                                merge_tol)
        width += w
        if freqs.size ** 2 > DEFAULT_TERM_BUDGET:
            raise TermBudgetExceededError(
                f"{freqs.size}^2 mode pairs exceed budget {DEFAULT_TERM_BUDGET}")
    return freqs, amps, width


def _expand(source, q: int, exact: bool) -> SpectralExpansion:
    """The merged modes of S^q, with the Parseval residual |S(0)|^{2q}.

    Modes are float64.  Exact ones (integer_mode) are integers and merge only
    when equal.  Otherwise each is a recursive sum of q phis, off by at most
    gamma_{q-1} q max|phi|, gamma_n = n u / (1 - n u), u = eps/2 (Higham,
    Accuracy and Stability of Numerical Algorithms, section 4.2): two orders
    of the same phis differ by less than q eps q max|phi|, so modes merge
    within 4 q eps max(1, q max|phi|).
    """
    values = coefficient_values(source)
    phis = np.asarray(source.frequencies, dtype=np.float64)
    merge_tol = 0.0 if exact else (
        4 * q * np.finfo(np.float64).eps * max(1.0, q * float(np.abs(phis).max())))
    freqs, amps, width = _modes(values, q, phis, merge_tol)
    s0 = abs(complex(np.sum(values))) ** (2 * q)
    parseval = abs(abs(complex(np.sum(amps))) ** 2 - s0) / max(s0, 1e-300)
    return SpectralExpansion(
        freqs, amps,
        {"merge_width": width, "raw_pairs": freqs.size * freqs.size,
         "parseval_rel_err": parseval, "exact_omegas": exact})


def expand(source: Instance | ComplexCoefficients, q: int) -> SpectralExpansion:
    """Merged modes of S^q, whose Hermitian form is |S(t)|^{2q}.

    Exact modes whenever integer_mode(source, q) holds, rounding-merged
    modes otherwise; metadata["exact_omegas"] says which.
    """
    q = validate_order(q)
    return _expand(source, q, integer_mode(source, q))


def integer_mode(source: Instance | ComplexCoefficients, q: int) -> bool:
    """Whether every frequency is an integer with 2q max|phi| <= 2^53.

    Then every mode frequency and every pair difference is an integer of
    magnitude at most 2^53, which float64 holds exactly.
    """
    phis = source.frequencies
    return (all(float(p).is_integer() for p in phis)
            and 2 * q * max(abs(p) for p in phis) <= _EXACT_INTEGER_LIMIT)


def rational_mode_expand(source: Instance | ComplexCoefficients,
                         q: int) -> SpectralExpansion:
    """expand, but raises NotIntegerError unless integer_mode(source, q) holds."""
    q = validate_order(q)
    if not integer_mode(source, q):
        raise NotIntegerError(
            f"integer mode needs integer frequencies with 2q max|phi| <= 2^53, "
            f"got q = {q} and frequencies {source.frequencies!r}")
    return _expand(source, q, True)


def _form(expansion: SpectralExpansion, kernel, k0: float, shift: float,
          reach: float, what: str) -> float:
    """sum_{j,k} b_j K(f_k - f_j) conj(b_k) with b = A e^{i f shift}, k0 = K(0).

    Summed as k0 sum_k |b_k|^2 + 2 sum_{j<k} K(f_k - f_j) B_j . B_k, where
    B_j . B_k = Re(b_j conj(b_k)) over the two real columns B = (Re b, Im b),
    so K is never cast to complex.  _merge leaves freqs strictly increasing,
    so kernel only sees d = f_k - f_j > 0.  Row blocks hold at most
    _ROW_CHUNK pairs: the triangle inside the block, then the rectangle to
    its right.  Merging moved each mode by at most merge_width, so each
    pair's phase on the |t| <= reach that the kernel weighs by at most
    2 merge_width reach; merge_width reach > ENGINE_AGREEMENT_RTOL raises
    BadGapError.
    """
    width = expansion.metadata.get("merge_width", 0.0)
    if width * reach > ENGINE_AGREEMENT_RTOL:
        raise BadGapError(
            f"{what}: merging modes {width!r} apart moves phases at |t| <= {reach!r}")
    f = expansion.freqs
    b = expansion.amps * np.exp(1j * shift * f)
    B = np.stack((b.real, b.imag), axis=1)
    n = f.size
    rows = max(1, min(n, _ROW_CHUNK // n))
    upper = 0.0
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        j, k = np.triu_indices(stop - start, 1)
        j += start
        k += start
        upper += (kernel(f[k] - f[j])
                  * (b.real[j] * b.real[k] + b.imag[j] * b.imag[k])).sum()
        if stop < n:
            upper += np.vdot(B[start:stop],
                             kernel(f[stop:] - f[start:stop, None]) @ B[stop:])
    return float(k0 * (B * B).sum() + 2.0 * upper)


def integral_exact(expansion: SpectralExpansion, window: Window) -> float:
    """Closed-form integral of |S|^{2q} over |t - center| <= T (not normalized).

    Each mode pair integrates to A_j conj(A_k) e^{i omega center}
    2 sin(omega T)/omega at omega = f_j - f_k, with 2T at omega = 0.
    """
    T = window.half_width
    return _form(expansion, lambda d: 2.0 * np.sin(T * d) / d, 2.0 * T,
                 window.center, abs(window.center) + T, "integral_exact")


def limit_moment(expansion: SpectralExpansion) -> float:
    """The T -> infinity windowed average: sum_k |A_k|^2 over the merged modes.

    For linearly independent frequencies this is the diagonal sum
    sum_k (q!/prod k_n!)^2 prod a_n^{2 k_n}.
    """
    return float(np.vdot(expansion.amps, expansion.amps).real)


def fejer_weighted_exact(expansion: SpectralExpansion,
                         params: KernelParams) -> float:
    """Exact value of integral K_T(t - H)|S(t)|^{2q} dt.

    Each mode pair contributes A_j conj(A_k) e^{i omega H} Khat_T(omega), with
    Khat_T(omega) = 4 sin^2(omega T/2)/(T omega^2) = T sinc^2(omega T/(2 pi)).
    """
    T = params.T
    return _form(expansion, lambda d: (2.0 * np.sin(0.5 * T * d) / d) ** 2 / T, T,
                 params.H, abs(params.H) + T, "fejer_weighted_exact")
