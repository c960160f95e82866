"""Log-scale segmentation.

Integers are bucketed into cells by cell_index(n) = floor(log2(n) / delta) for
an exact rational precision delta. Everything here is exact integer
arithmetic: cell boundaries ceil(2^(k*delta)) are computed with
directed-rounding interval arithmetic at adaptive precision, so cell_index is
deterministic, non-decreasing, and never at the mercy of floating point.
"""

import bisect
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


_sqrt_chain_cache = {}


def _sqrt_chain(bits, count):
    """Directed bounds for 2^(2^-i), i = 1..count, scaled by 2^bits."""
    cached = _sqrt_chain_cache.get(bits)
    if cached is not None and len(cached) >= count:
        return cached
    lo = hi = 2 << bits
    chain = []
    for _ in range(count):
        lo = _isqrt(lo << bits)
        hi = _isqrt(hi << bits) + 1
        chain.append((lo, hi))
    _sqrt_chain_cache[bits] = chain
    return chain


def _isqrt(x):
    import math
    return math.isqrt(x)


def _pow2_frac_bounds(num, den, bits):
    """Directed bounds on 2^(num/den) * 2^bits for 0 <= num < den."""
    if num == 0:
        return (1 << bits, 1 << bits)
    chain = _sqrt_chain(bits, bits)
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
    return (lo, hi)


def _pow2_bounds(exponent, bits):
    """Directed bounds on 2^exponent * 2^bits for a non-negative Fraction."""
    num, den = exponent.numerator, exponent.denominator
    a, rem = divmod(num, den)
    lo, hi = _pow2_frac_bounds(rem, den, bits)
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


def _boundary_list(delta, stop_above):
    """[ceil(2^(k*delta))] for k = 0, 1, ... until the value exceeds stop_above."""
    num, den = delta.numerator, delta.denominator
    est = (max(stop_above, 2).bit_length() + 1) * den // num
    if est > _MAX_BOUNDARY_ENTRIES:
        raise ValueError(
            f"delta {delta} needs ~{est} boundary entries at bound "
            f"{stop_above}; too fine for table-based segmentation")
    bits = 320
    step_lo, step_hi = _pow2_bounds(delta, bits)
    out = [1]
    lo = hi = 1 << bits
    k = 0
    while out[-1] <= stop_above:
        k += 1
        lo = (lo * step_lo) >> bits
        hi = ((hi * step_hi) >> bits) + 1
        if (k * num) % den == 0:
            exact = 1 << (k * num // den)
            out.append(exact)
            lo = hi = exact << bits
            continue
        clo = -(-lo >> bits)
        chi = -(-hi >> bits)
        if clo == chi:
            out.append(clo)
        else:
            out.append(_exact_ceil_pow2(Fraction(k * num, den)))
            lo, hi = _pow2_bounds(Fraction(k * num, den), bits)
    return out


def delta_default(n, scale=1):
    """Default segmentation precision scale * log2(n) / sqrt(n).

    Returned as an exact Fraction with 96 fractional bits before scaling, so
    the value is deterministic and scales exactly linearly in `scale`.
    """
    if n < 2:
        raise ValueError("delta_default needs n >= 2")
    l_lo, _ = _log2_bounds(n, _FRAC_BITS)
    root = _isqrt(n << (2 * _FRAC_BITS))
    base = (l_lo << _FRAC_BITS) // root
    return Fraction(scale) * Fraction(base, 1 << _FRAC_BITS)


@dataclass(frozen=True, eq=False)
class SegParams:
    """Segmentation geometry for one target bound.

    n: target bound; delta: exact rational cell width in log2 scale;
    top_cell: cell_index(n); window: pairs error-window length S from
    error_window_size, or None when the window was not requested.
    Boundaries cover every integer up to at least 2n + 2.
    """
    n: int
    delta: Fraction
    top_cell: int
    window: int | None
    bounds: list = field(repr=False)
    bounds_np: np.ndarray = field(repr=False)

    def cell_top(self, k):
        """Largest integer with cell index <= k (0 when k < 0)."""
        if k < 0:
            return 0
        if k + 1 < len(self.bounds):
            return self.bounds[k + 1] - 1
        return self._cell_floor_direct(k + 1) - 1

    def cell_floor(self, k):
        """Smallest integer with cell index >= k."""
        if k <= 0:
            return 1
        if k < len(self.bounds):
            return self.bounds[k]
        return self._cell_floor_direct(k)

    def _cell_floor_direct(self, k):
        return _exact_ceil_pow2(k * self.delta)


def window_valid(n, delta):
    """True when delta * log2(n) < 1/4 (decided exactly at the boundary's scale)."""
    num, den = delta.numerator, delta.denominator
    bits = 128
    l_lo, l_hi = _log2_bounds(n, bits)
    if 4 * num * l_hi < den << bits:
        return True
    return False


def window_size(n, delta):
    """The paper's closed-form window n * (2^(delta*(2+log2 n)/(1-delta)) - 1),
    exact from the bound and precision alone; error_window_size's scan limit."""
    delta = Fraction(delta)
    if not window_valid(n, delta):
        raise ValueError("error window needs delta * log2(n) < 1/4")
    num, den = delta.numerator, delta.denominator
    bits = 192
    for _ in range(8):
        l_lo, l_hi = _log2_bounds(n, bits)
        # n * (2^(delta*(2+log2 n)/(1-delta)) - 1) = 2^e - n
        # with e = (log2(n) + 2*delta) / (1 - delta)
        e_lo = Fraction(l_lo * den + (2 * num << bits), (den - num) << bits)
        e_hi = Fraction(l_hi * den + (2 * num << bits), (den - num) << bits)
        v_lo, _ = _pow2_bounds(e_lo, bits)
        _, v_hi = _pow2_bounds(e_hi, bits)
        s_lo = -(-v_lo >> bits) - n
        s_hi = -(-v_hi >> bits) - n
        if s_lo == s_hi:
            if s_lo > 1:
                return s_lo
            # n*(2^x - 1) < 1 leaves no integer in the window at all
            if s_lo <= 0 or v_hi < (n + 1) << bits:
                return 0
            if v_lo >= (n + 1) << bits:
                return 1
        bits *= 2
    raise RuntimeError("cannot resolve the window size exactly")


_SMALL_PRIMES = []


def _small_primes():
    if not _SMALL_PRIMES:
        sieve = np.ones(400, dtype=bool)
        sieve[:2] = False
        for i in range(2, 20):
            if sieve[i]:
                sieve[i * i::i] = False
        _SMALL_PRIMES.extend(int(i) for i in np.nonzero(sieve)[0])
    return _SMALL_PRIMES


def _max_squarefree_omega(x):
    """max r such that the product of the first r primes is <= x."""
    prod, r = 1, 0
    for p in _small_primes():
        if prod * p > x:
            return r
        prod *= p
        r += 1
    raise RuntimeError("primorial table exhausted")


def error_window_size(params):
    """Length S of the window (n, n+S] that can absorb misattributed mass.

    Safe over-approximation: every product d1*d2 > n with
    cell_index(d1) + factored_cell_index(d2) <= top_cell lands at or below
    n + S. The closed form window_size(n, delta) bounds a scan over the cells
    past top_cell: a product in cell k needs a square-free d2 with at least
    k - 1 - top_cell prime factors, and d2 <= cell_top(k) caps that count by
    the largest primorial below it, so S ends at the last cell that passes.
    """
    full = window_size(params.n, params.delta)
    top = params.top_cell
    k_last = top  # last cell whose pairs cannot all be excluded
    k = top + 1
    while params.cell_floor(k) <= params.n + full:
        if k - 1 - _max_squarefree_omega(params.cell_top(k)) <= top:
            k_last = k
        k += 1
    return min(full, max(0, params.cell_top(k_last) - params.n))


def make_params(n, delta, *, need_window=False):
    """Build SegParams for bound n at precision delta (exact Fraction in (0, 1])."""
    if n < 1:
        raise ValueError("segmentation needs n >= 1")
    delta = Fraction(delta)
    if not 0 < delta <= 1:
        raise ValueError("delta must lie in (0, 1]")
    bounds = _boundary_list(delta, 2 * n + 2)
    top = bisect.bisect_right(bounds, n) - 1
    params = SegParams(n=n, delta=delta, top_cell=top, window=None,
                       bounds=bounds, bounds_np=np.array(bounds, dtype=np.uint64))
    if need_window:
        params = replace(params, window=error_window_size(params))
    return params


def cell_index(n, params):
    """floor(log2(n) / delta): the cell that n falls into."""
    if n < 1:
        raise ValueError("cell_index needs n >= 1")
    bounds = params.bounds
    if n < bounds[-1]:
        return bisect.bisect_right(bounds, n) - 1
    # beyond the precomputed table: search on exact boundaries
    k = len(bounds) - 1
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
    return np.searchsorted(params.bounds_np, values, side="right") - 1


def factored_cell_index(factorization, params):
    """Sum of e * cell_index(p) over a factorization [(p, e), ...].

    Additive in the factorization, so it plays the role of cell_index under
    multiplication; empty factorization (n = 1) gives 0.
    """
    total = 0
    for p, e in factorization:
        if p < 2:
            raise ValueError("factor primes must be >= 2")
        total += e * cell_index(p, params)
    return total


def cell_counts(params):
    """Array of length top_cell + 1; entry k counts integers n with cell k."""
    top = params.top_cell
    return np.diff(params.bounds_np[:top + 2]).astype(np.uint64)


def prefix_cell_counts(params, k):
    """Number of integers n >= 1 with cell_index(n) <= k (telescoped)."""
    if k < 0:
        return 0
    return params.cell_top(k)
