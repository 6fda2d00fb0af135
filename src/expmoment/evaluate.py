"""S(t) = sum c_n e^{it phi_n} and |S|^{2q} on arrays, and the engines' range checks."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import OverflowRangeError, coefficient_values


def _power(x, q: int):
    """x^q for x >= 0 (a float or an array) and q >= 1 by repeated squaring: only
    rounded products, so exact under x -> 2^k x, and no step computes past x^q."""
    result = x if q & 1 else None
    while q := q >> 1:
        x = x * x
        if q & 1:
            result = x if result is None else result * x
    return result


def _check_overflow(source, power: int, mass: float = 1.0) -> None:
    """Raise OverflowRangeError when (sum |c_n|)^power * max(1, mass) > 1e300.

    That bounds |S|^power times the kernel's mass, so every engine's values and
    sums stay in the double range (callers may rescale: everything is
    homogeneous).  A sum or power past the double range is inf, out of range.
    source has amplitude_sum(), or is the array of the c_n themselves.
    """
    try:
        total = (math.fsum(abs(complex(c)) for c in source)
                 if isinstance(source, np.ndarray) else source.amplitude_sum())
    except OverflowError:
        total = math.inf
    if _power(total, power) * max(1.0, mass) > 1e300:
        raise OverflowRangeError(
            f"(sum |c_n|)^{power} * max(1, mass {mass!r}) exceeds 1e300; "
            "rescale the amplitudes")


def _check_phase_range(frequencies, q: int, reach: float,
                       what: str | None = None) -> None:
    """Raise OverflowRangeError unless 2 q max|phi_n| max(reach, 1) is finite: the
    modes of S^q lie within q max|phi_n|, so it bounds their phases at |t| <=
    reach, their differences and every kernel argument.  what names
    frequencies that are not S's own, such as the modes of S^q at q = 1."""
    if not math.isfinite(2 * q * float(max(map(abs, frequencies))) * max(reach, 1.0)):
        where = f"at q = {q}" if what is None else f"for {what}"
        raise OverflowRangeError(f"2 q max(reach, 1) max|phi| is out of range {where}, "
                                 f"reach = {reach!r}; rescale the frequencies")


# --------------------------------------------------------------------------
# Vectorized kernels for the integration engines (numpy, internal).
# --------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Grid:
    """The points rows[i] + cols[j], laid out as a (rows, *cols) array; cols is
    an array or itself a Grid.

    Since e^{i(r+c)phi} = e^{ir phi} e^{ic phi}, S on a grid is the product
    (c e^{i rows phi}) @ e^{i cols phi}, and a nested grid's column factor is
    the outer product of its own two factors.  So S on Grid(rows, cols) costs
    N*(rows + cols) exponentials, and on Grid(coarse, Grid(fine, nodes))
    N*(coarse + fine + nodes), with no elementwise pass over every point.
    """
    rows: np.ndarray
    cols: np.ndarray | Grid

    @property
    def shape(self) -> tuple[int, ...]:
        return (self.rows.size, *self.cols.shape)

    @property
    def size(self) -> int:
        return self.rows.size * self.cols.size

    def points(self) -> np.ndarray:
        cols = self.cols.points() if isinstance(self.cols, Grid) else self.cols
        return np.add.outer(self.rows, cols)


def _phases(phis: np.ndarray, ts: np.ndarray | Grid) -> np.ndarray:
    """e^{i phi_n t} at every point t of ts, shaped (N, *ts.shape)."""
    if not isinstance(ts, Grid):
        return np.exp(1j * np.multiply.outer(phis, ts))
    rows, cols = _phases(phis, ts.rows), _phases(phis, ts.cols)
    return rows.reshape(rows.shape + (1,) * (cols.ndim - 1)) * cols[:, None]


def sum_on_array(source, ts: np.ndarray | Grid) -> np.ndarray:
    """S(t) on an array of points or on a Grid (shaped like its points())."""
    grid = ts if isinstance(ts, Grid) else Grid(np.ravel(ts), np.zeros(1))
    coeffs = np.asarray(coefficient_values(source), dtype=np.complex128)
    phis = np.asarray(source.frequencies, dtype=np.float64)
    left = np.exp(1j * np.multiply.outer(grid.rows, phis)) * coeffs
    s = left @ _phases(phis, grid.cols).reshape(phis.size, -1)
    return s.reshape(grid.shape if isinstance(ts, Grid) else np.shape(ts))


def power_on_array(source, ts: np.ndarray | Grid, q: int) -> np.ndarray:
    """|S(t)|^{2q} on an array of points or on a Grid."""
    s = sum_on_array(source, ts)
    return _power(s.real * s.real + s.imag * s.imag, q)

