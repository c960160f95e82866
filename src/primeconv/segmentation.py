"""Log-scale segmentation.

Integers are bucketed into cells by cell_index(n) = floor(log2(n) / delta) for
an exact rational precision delta. Cell boundaries ceil(2^(k*delta)) are
certified float products of directed-rounding integer intervals, with an
exact fallback at adaptive precision for every entry the float bound leaves
open, so cell_index is deterministic, non-decreasing, and exact.
"""

import functools
import math
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

_FRAC_BITS = 96  # fractional bits carried by default deltas


def _log2_bounds(n, bits):
    """(lo, hi) integers with lo <= 2^bits * log2(n) <= hi, hi - lo <= 1."""
    if n < 1:
        raise ValueError("log2 needs n >= 1")
    e = n.bit_length() - 1
    if n == (1 << e):
        return (e << bits, e << bits)
    work = bits + 64
    m = n << (work - e)  # mantissa scaled to [2^work, 2^(work+1))
    frac = 0
    for _ in range(bits):
        m = (m * m) >> work
        frac <<= 1
        if m >> (work + 1):
            frac |= 1
            m >>= 1
    lo = (e << bits) | frac
    return (lo, lo + 1)


@functools.cache
def _sqrt_chain(bits):
    """Directed bounds for 2^(2^-i), i = 1..bits, scaled by 2^bits."""
    lo = hi = 2 << bits
    chain = []
    for _ in range(bits):
        lo = math.isqrt(lo << bits)
        hi = math.isqrt(hi << bits) + 1
        chain.append((lo, hi))
    return chain


def _pow2_bounds(exponent, bits):
    """Directed bounds on 2^exponent * 2^bits for a non-negative Fraction."""
    den = exponent.denominator
    a, num = divmod(exponent.numerator, den)
    chain = _sqrt_chain(bits)
    lo = hi = 1 << bits
    for i in range(bits):
        num <<= 1
        if num >= den:
            num -= den
            slo, shi = chain[i]
            lo = (lo * slo) >> bits
            hi = ((hi * shi) >> bits) + 1
        if num == 0:
            break
    else:
        if num:  # truncated expansion: widen the upper bound by one tail ulp
            hi += (hi >> (bits - 2)) + 1
    return (lo << a, hi << a)


def _exact_ceil_pow2(exponent):
    """ceil(2^exponent) for a non-negative Fraction, exact."""
    num, den = exponent.numerator, exponent.denominator
    if num % den == 0:
        return 1 << (num // den)
    bits = 192
    for _ in range(8):
        lo, hi = _pow2_bounds(exponent, bits)
        clo = -(-lo >> bits)
        chi = -(-hi >> bits)
        if clo == chi:
            return clo
        bits *= 2
    raise RuntimeError(f"cannot resolve ceil(2^{exponent}) exactly")


_MAX_BOUNDARY_ENTRIES = 1 << 26
_FLOAT_SLACK = 2.0 ** -49  # relative error bound of a float boundary entry


def _float_powers(step, count, bits):
    """float64 of 2^(i x) for i < count from lower bounds on step^i, where
    step is a lower bound on 2^x scaled by 2^bits."""
    lo = 1 << bits
    out = []
    for _ in range(count):
        out.append(float(lo))
        lo = (lo * step) >> bits
    return np.array(out) * 2.0 ** -bits


def _boundary_list(delta, stop_above):
    """int64 array of ceil(2^(k*delta)), k = 0, 1, ..., to the first above
    stop_above. With k = q B + r and B about the square root of the length
    K, lower bounds at 320 bits on 2^(q B delta) and 2^(r delta) (2 sqrt(K)
    big-integer steps, each losing under 2^-300 relatively) round
    correctly to float64 factors A_q and C_r within 2^-53 + 2^-280 of the
    true powers. The IEEE product y_k = A_q C_r then lies within
    3 * 2^-53 + 2^-279 < 2^-51 of 2^(k delta), relatively, so y_k (1 -+
    2^-49), each rounded, bracket it. An entry whose ceiling is the same at
    both ends is certified; every other one, with every exact power of two
    (k delta an integer), is recomputed with _exact_ceil_pow2.
    """
    num, den = delta.numerator, delta.denominator
    # entry est is at least 2^bit_length(stop_above), above stop_above
    est = (max(stop_above, 2).bit_length() + 1) * den // num
    if est > _MAX_BOUNDARY_ENTRIES:
        raise ValueError(
            f"delta {delta} needs ~{est} boundary entries at bound "
            f"{stop_above}; too fine for table-based segmentation")
    bits = 320
    width = math.isqrt(est + 1) + 1
    rows = -(-(est + 1) // width)
    cols = _float_powers(_pow2_bounds(delta, bits)[0], width, bits)
    lead = _float_powers(_pow2_bounds(width * delta, bits)[0], rows, bits)
    out = np.empty(rows * width, dtype=np.int64)
    uncertain = []
    block = max(1, (1 << 13) // width)  # rows per block of float products
    for q in range(0, rows, block):
        y = np.multiply.outer(lead[q:q + block], cols).ravel()
        lo = np.ceil(y * (1 - _FLOAT_SLACK))
        out[q * width:q * width + y.size] = lo
        uncertain.append(q * width + np.flatnonzero(
            lo != np.ceil(y * (1 + _FLOAT_SLACK))))
    # 2^delta > 1 + 2^-26 under the entry guard, so the lower ends rise with
    # k, and the first one above stop_above bounds the cut
    end = min(int(np.searchsorted(out, stop_above, side="right")), len(out) - 1)
    for k in np.concatenate(uncertain).tolist():
        if k <= end:
            out[k] = _exact_ceil_pow2(Fraction(k * num, den))
    return out[:int(np.searchsorted(out[:end + 1], stop_above, side="right")) + 1]


def delta_default(n):
    """Default segmentation precision log2(n) / sqrt(n), as an exact Fraction
    with 96 fractional bits, so the value is deterministic."""
    if n < 2:
        raise ValueError("delta_default needs n >= 2")
    l_lo, _ = _log2_bounds(n, _FRAC_BITS)
    root = math.isqrt(n << (2 * _FRAC_BITS))
    base = (l_lo << _FRAC_BITS) // root
    return Fraction(base, 1 << _FRAC_BITS)


@dataclass(frozen=True, eq=False)
class SegParams:
    """Segmentation geometry for one target bound.

    n: target bound; delta: exact rational cell width in log2 scale;
    top_cell: cell_index(n); window: pairs error-window length S from the
    primorial cell scan of error_window_size, or None when the window was
    not requested.
    Boundaries cover every integer up to at least 2n + 2.
    """
    n: int
    delta: Fraction
    top_cell: int
    window: int | None
    bounds: np.ndarray = field(repr=False)  # uint64 cell floors

    def cell_top(self, k):
        """Largest integer with cell index <= k (0 when k < 0)."""
        return self.cell_floor(k + 1) - 1

    def cell_floor(self, k):
        """Smallest integer with cell index >= k, as a Python int."""
        if k <= 0:
            return 1
        if k < len(self.bounds):
            return int(self.bounds[k])
        return _exact_ceil_pow2(k * self.delta)


# the first 16 primes: their product exceeds 2^64, above every cell top
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)


def _max_squarefree_omega(x):
    """max r such that the product of the first r primes is <= x."""
    prod, r = 1, 0
    for p in _SMALL_PRIMES:
        if prod * p > x:
            return r
        prod *= p
        r += 1
    raise RuntimeError("primorial table exhausted")


def error_window_size(params):
    """Length S of the window (n, n+S] that can absorb misattributed mass.

    Safe over-approximation: every product d1*d2 > n whose cell_index(d1)
    plus the additive cell index of d2 (the sum of e * cell_index(p) over
    its prime powers p^e) is at most top_cell lands at or below n + S. A
    product in cell k > top_cell needs a square-free d2 with at least
    k - 1 - top_cell prime factors, and d2 <= cell_top(k) caps that count by
    the largest primorial below it. The scan over the cells past top_cell
    stops at the first cell that fails this test, and S ends at the cell
    before it. No later cell passes again: with delta <= 1, cell_top + 1 at
    most doubles from one cell to the next, so the primorial count rises by
    at most one per cell while k rises by one.
    """
    top = params.top_cell
    k = top + 1
    while k - 1 - _max_squarefree_omega(params.cell_top(k)) <= top:
        k += 1
    return params.cell_top(k - 1) - params.n


def make_params(n, delta, *, need_window=False):
    """Build SegParams for bound n at precision delta (exact Fraction in (0, 1])."""
    if n < 1:
        raise ValueError("segmentation needs n >= 1")
    delta = Fraction(delta)
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    bounds = _boundary_list(delta, 2 * n + 2).view(np.uint64)
    top = int(np.searchsorted(bounds, n, side="right")) - 1
    params = SegParams(n=n, delta=delta, top_cell=top, window=None,
                       bounds=bounds)
    if need_window:
        params = replace(params, window=error_window_size(params))
    return params


def cell_index(n, params):
    """floor(log2(n) / delta): the cell that n falls into."""
    if n < 1:
        raise ValueError("cell_index needs n >= 1")
    if n < params.bounds[-1]:
        return int(cell_index_vec(n, params))
    # beyond the precomputed table: search on exact boundaries
    k = len(params.bounds) - 1
    step = 1
    while params.cell_floor(k + step) <= n:
        k += step
        step *= 2
    while step > 1:
        step //= 2
        if params.cell_floor(k + step) <= n:
            k += step
    return k


def cell_index_vec(values, params):
    """Vectorized cell_index; values beyond the table clamp to the last cell.

    The clamp (= top_cell + cushion) exceeds top_cell, so clamped entries can
    never satisfy a `<= top_cell - something` test; callers only compare.
    """
    return np.searchsorted(params.bounds, values, side="right") - 1

