"""Exact spectral engine: |S(t)|^{2q} as a Hermitian form over the modes of S^q.

S^q = sum_k A_k e^{i f_k t} is built by folding in one factor of
S = sum_n c_n e^{it phi_n} at a time: every mode (f, A) of S^{r-1} spawns
(f + phi_n, A c_n), and modes at the same frequency merge.  Then
|S(t)|^{2q} = sum_{j,k} A_j conj(A_k) e^{i (f_j - f_k) t}, and every
closed form is sum_{j,k} b_j K(f_k - f_j) conj(b_k) with b = A e^{i f shift}:
only the kernel K changes.  K is even and the merged modes strictly increase,
so the form is K(0) sum_k |b_k|^2 + 2 Re sum_{j<k} b_j K(f_k - f_j) conj(b_k),
with K evaluated only at d = f_k - f_j > 0: 2 sin(T d)/d with K(0) = 2T for a
window, 4 sin^2(T d/2)/(T d^2) with K(0) = T for the Fejer kernel.  Both
are 2 theta (sin(theta d)/(theta d))^p (theta = T, p = 1; theta = T/2,
p = 2), and sin(theta d) = s_k c_j - c_k s_j by angle addition from
s = sin(theta f) and c = cos(theta f), computed once per mode.  So past a
far threshold d_far the sum is p + 1 separable terms times the Cauchy
matrix 1/(f_k - f_j)^p: a subtraction, a reciprocal and a product with
2p + 2 per-mode columns (Greengard and Rokhlin, J. Comput. Phys. 73, 1987;
Dutt, Gu and Rokhlin, SIAM J. Numer. Anal. 33, 1996, sum such products
fast; this is their direct stage).  The pairs closer than d_far are summed
one by one: angle addition again, and sin(theta d) directly below a cut of
at most 0.018 (max|f| + 4/T).  _form states both bounds.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (
    DEFAULT_TERM_BUDGET,
    ENGINE_AGREEMENT_RTOL,
    BadGapError,
    ComplexCoefficients,
    Instance,
    KernelParams,
    TermBudgetExceededError,
    Window,
    coefficient_values,
    validate_order,
)
from .evaluate import _check_overflow, _check_phase_range

# Mode pairs per block of rows of the form, near band and far rectangle
# each: it bounds the form's temporaries, not its result.
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

    def amplitude_sum(self) -> float:
        return float(np.abs(self.amps).sum())


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
    within 4 q eps max(1, q max|phi|).  metadata["fold_error"] records that
    rounding bound, 0 for exact modes and at q = 1.  Refused first:
    (sum |c_n|)^{2q} past 1e300, and 2 q max|phi| past the double range.
    """
    _check_overflow(source, 2 * q)
    _check_phase_range(source.frequencies, q, 1.0)
    values = coefficient_values(source)
    phis = np.asarray(source.frequencies, dtype=np.float64)
    eps, phi_max = np.finfo(np.float64).eps, float(np.abs(phis).max())
    merge_tol = 0.0 if exact else 4 * q * eps * max(1.0, q * phi_max)
    nu = 0.0 if exact else (q - 1) * eps / 2
    freqs, amps, width = _modes(values, q, phis, merge_tol)
    s0 = abs(complex(np.sum(values))) ** (2 * q)
    parseval = abs(abs(complex(np.sum(amps))) ** 2 - s0) / max(s0, 1e-300)
    return SpectralExpansion(
        freqs, amps,
        {"merge_width": width, "fold_error": nu / (1 - nu) * q * phi_max,
         "raw_pairs": freqs.size * freqs.size,
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
    """expand under its own name: not an alias, so that a wrapper of one name
    does not catch the other's calls."""
    q = validate_order(q)
    return _expand(source, q, integer_mode(source, q))


def _far_columns(B: np.ndarray, s: np.ndarray, c: np.ndarray,
                 power: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-mode columns U, V with U_j . V_k = (s_k c_j - c_k s_j)^power B_j . B_k.

    The binomial expansion of the power splits it into power + 1 separable
    terms C(power, a) (-1)^a [c_j^(power-a) s_j^a] [s_k^(power-a) c_k^a], each
    times the two columns of B.
    """
    terms = range(power + 1)
    U = np.hstack([(math.comb(power, a) * (-1) ** a * c ** (power - a) * s ** a)[:, None]
                   * B for a in terms])
    V = np.hstack([(s ** (power - a) * c ** a)[:, None] * B for a in terms])
    return U, V


def _form(expansion: SpectralExpansion, theta: float, power: int,
          shift: float, reach: float, what: str) -> float:
    """sum_{j,k} b_j K(f_k - f_j) conj(b_k) with b = A e^{i f shift}.

    K(d) = k0 (sin(theta d)/(theta d))^power, k0 = K(0) = 2 theta: the
    window's 2 sin(T d)/d at theta = T, power 1, and the Fejer kernel's
    4 sin^2(T d/2)/(T d^2) at theta = T/2, power 2.
    Summed as k0 sum_k |b_k|^2 + 2 sum_{j<k} K(f_k - f_j) B_j . B_k, where
    B_j . B_k = Re(b_j conj(b_k)) over the two real columns B = (Re b, Im b),
    so K is never cast to complex.  _merge leaves freqs strictly increasing,
    so the pairs j < k are those with d = f_k - f_j > 0.  The rows go in
    blocks [start, stop) of at most _ROW_CHUNK // n rows, and each block's
    columns (start, n) split at the first column whose d from the block's
    last row passes d_far; as freqs increase and rounding is monotone,
    every row of the block is as far from it.

    The near band, columns (start, split), holds the d <= 0 triangle (d
    set to inf, so its kernel is exactly 0) and every close pair.  A pair
    there takes sin(theta d) by angle addition, s_k c_j - c_k s_j with
    s = sin(theta f) and c = cos(theta f) computed once per mode.  Each
    of s, c errs by at most u (theta |f| + 1), u = eps/2; as |s| + |c| <=
    sqrt 2 and the products and the difference add 3u, the numerator errs by
    at most 2 sqrt(2) u (theta max|f| + 1) + 3u <= e = 4u (theta max|f| + 2).
    That moves sinc(theta d) = sin(theta d)/(theta d) by y = e/(theta d),
    and K/k0 = sinc^power by at most y (power + y), as |sinc| <= 1.  That
    is at most 0.5e-13 + y^2 when y <= 1e-13/(2 power), that is when
    d >= cut = 4 power eps (max|f| + 2/theta)/1e-13.  A pair with
    0 < d < cut takes sin(theta d) directly.

    The far rectangle, columns [split, n), is the Cauchy-matrix product
    sum_j U_j . sum_k V_k / (f_k - f_j)^power over the c, s columns U and
    the s, c columns V of _far_columns: one subtraction into a reused
    buffer, a reciprocal, a square for Fejer, and a product with V.  Each
    rectangle's sum takes the factor k0/theta^power = 2/theta^(power-1),
    so no column outgrows B.  The same s, c give the same
    y (power + y), but the power + 1 terms can cancel: their sizes add up
    to at most (|s_k c_j| + |c_k s_j|)^power <= 1 times
    k0/(theta d)^power |B_j| |B_k|, and each carries at most 6 power
    roundings (the columns, 1/d^power, two products and the factor; the
    sums over k and the columns round as the near band's do), so a pair
    errs by at most 3 power eps/(theta d)^power of k0 more.  That is at
    most 4e-14 once theta d >= c_p = (3 power eps/4e-14)^(1/power): 0.017
    for the window, below theta cut >= 0.018, and 0.18 for Fejer.  So
    d_far = max(cut, c_p/theta), and every pair errs by less than 1e-13 of
    k0 |B_j| |B_k|.  A block with no column past d_far, as the last block
    and every form of at most 256 modes are, is all near band.

    Merging and the rounding of the folds moved each mode by at most
    merge_width + fold_error, so each pair's phase on the |t| <= reach that
    the kernel weighs by at most twice that times reach;
    (merge_width + fold_error) reach > ENGINE_AGREEMENT_RTOL raises BadGapError.
    As |form| <= k0 (sum |A_k|)^2, that past 1e300 is refused, as are phases
    past the double range.
    """
    f = expansion.freqs
    k0 = 2.0 * theta
    _check_overflow(expansion, 2, k0)
    _check_phase_range((f[0], f[-1]), 1, reach, "the mode frequencies of S^q")
    meta = expansion.metadata
    drift = meta.get("merge_width", 0.0) + meta.get("fold_error", 0.0)
    if drift * reach > ENGINE_AGREEMENT_RTOL:
        raise BadGapError(
            f"{what}: modes off by up to {float(drift)!r} (merging and fold "
            f"rounding) move phases at |t| <= {reach!r}")
    b = expansion.amps * np.exp(1j * shift * f)
    B = np.stack((b.real, b.imag), axis=1)
    n = f.size

    def kernel(x, d):  # K(d) from x = sin(theta d)
        k = 2.0 * x / d
        return k if power == 1 else k * k / k0

    s, c = np.sin(theta * f), np.cos(theta * f)
    eps = np.finfo(np.float64).eps
    cut = 4 * power * eps * (np.abs(f).max() + 2 / theta) / 1e-13
    rows = max(1, min(n, _ROW_CHUNK // n))
    if rows < n:  # the blocks before the last may have far columns
        d_far = max(cut, (3 * power * eps / 4e-14) ** (1 / power) / theta)
        U, V = _far_columns(B, s, c, power)
        scale = 2 / theta ** (power - 1)  # k0 / theta^power
        buf = np.empty(rows * n)
    upper = 0.0
    for start in range(0, n - 1, rows):
        stop = min(start + rows, n)
        split = n
        if stop < n and f[-1] - f[stop - 1] >= d_far:
            split = stop + int(np.searchsorted(f[stop:] - f[stop - 1], d_far))
            r = buf[:(stop - start) * (n - split)].reshape(stop - start, n - split)
            np.subtract(f[split:], f[start:stop, None], out=r)
            np.reciprocal(r, out=r)
            if power == 2:
                np.square(r, out=r)
            upper += scale * np.vdot(U[start:stop], r @ V[split:])
        d = f[start + 1:split] - f[start:stop, None]
        d[d <= 0] = np.inf
        x = s[start + 1:split] * c[start:stop, None] - c[start + 1:split] * s[start:stop, None]
        near = d < cut
        x[near] = np.sin(theta * d[near])
        upper += np.vdot(B[start:stop], kernel(x, d) @ B[start + 1:split])
    return float(k0 * (B * B).sum() + 2.0 * upper)


def integral_exact(expansion: SpectralExpansion, window: Window) -> float:
    """Closed-form integral of |S|^{2q} over |t - center| <= T (not normalized).

    Each mode pair integrates to A_j conj(A_k) e^{i omega center}
    2 sin(omega T)/omega at omega = f_j - f_k, with 2T at omega = 0.
    """
    T = window.half_width
    return _form(expansion, T, 1, window.center, abs(window.center) + T,
                 "integral_exact")


def fejer_weighted_exact(expansion: SpectralExpansion,
                         params: KernelParams) -> float:
    """Exact value of integral K_T(t - H)|S(t)|^{2q} dt.

    Each mode pair contributes A_j conj(A_k) e^{i omega H} Khat_T(omega), with
    Khat_T(omega) = 4 sin^2(omega T/2)/(T omega^2) = T sinc^2(omega T/(2 pi)).
    """
    T = params.T
    return _form(expansion, 0.5 * T, 2, params.H, abs(params.H) + T,
                 "fejer_weighted_exact")
