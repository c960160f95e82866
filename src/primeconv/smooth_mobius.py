"""Smooth-Mobius segment arrays.

The cell array of the truncated Mobius function (optionally weighted by a
completely multiplicative function) is assembled from arrays counting products
of r distinct primes. Those satisfy a Newton-identities-style recurrence
against the arrays of r-th prime powers, which is solved per Fourier
coefficient as a power-series exponential. The primes are split into size
ranges so that each range needs only a few orders r. Every range works at one
shared power-of-two transform length, long enough for the product of all the
ranges' alternating sums, so the ranges multiply pointwise into one
accumulator that a single inverse transform ends; the exponentials run over
BLOCK Fourier columns at a time. `oracles.newton_direct` solves the same
recurrence in the time domain as the independent reference.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import modmath, segmentation


# Fourier columns per block of the power-series exponentials: bounds the
# (r_used + 1) x BLOCK stacks they work on, whatever the transform length
BLOCK = 1 << 12


@dataclass(frozen=True)
class PrimePartition:
    """One size range of primes: indices [lo, hi) into the prime array,
    truncation order r_used, and the transform length shared by all ranges."""
    lo: int
    hi: int
    r_used: int
    pad_length: int


def prime_cell_sums(primes, params, modulus, *, weight=None, power=1,
                    length=None):
    """Cell array of h(p^power) mod modulus scattered at power * cell_index(p).

    With the unit weight (None) this counts primes per cell (power=1) or
    marks r-th powers (power=r). Truncated to `length` (default top_cell + 1).
    """
    if length is None:
        length = params.top_cell + 1
    primes = np.asarray(primes, dtype=np.int64)
    cells = segmentation.cell_index_vec(primes.astype(np.uint64), params)
    idx = cells.astype(np.int64) * power
    keep = idx < length
    out = np.zeros(length, dtype=np.uint64)
    if weight is None:
        vals = np.ones(int(keep.sum()), dtype=np.uint64)
    else:
        vals = weight.prime_power_values(primes[keep], power, modulus)
    np.add.at(out, idx[keep], vals)
    return out % np.uint64(modulus)


def make_partitions(primes, params):
    """Split primes (<= smoothness bound) into log-size ranges.

    Range m covers log2(p) in [log2(n)/2^(m+1), log2(n)/2^m); the truncation
    order per range is the largest r with r * cell_index(p_min) <= top_cell
    (products of more primes from the range always land above the truncation),
    also capped by the number of primes in the range. Every range gets the
    same transform length, `transform_length(primes, params)`.
    """
    ranges = _size_ranges(primes, params)
    length = _shared_length(ranges)
    return [PrimePartition(lo, hi, r_used, length)
            for lo, hi, r_used, _ in ranges]


def transform_length(primes, params):
    """The power-of-two length of every transform of smooth_mobius_cells."""
    return _shared_length(_size_ranges(primes, params))


def _size_ranges(primes, params):
    """(lo, hi, r_used, kb_max) per size range, largest primes first."""
    n = params.n
    if len(primes) == 0:
        return []
    log2n = math.log2(n)
    m_max = max(1, int(math.log2(log2n)) if log2n > 1 else 1)
    edges = [2.0 ** (log2n / 2 ** m) for m in range(1, m_max + 1)]
    ranges = []
    hi = len(primes)
    for m in range(1, m_max + 1):
        if m == m_max:
            lo = 0
        else:
            lo = int(np.searchsorted(primes, edges[m], side="right"))
        if lo < hi:
            ranges.append(_size_range(primes, lo, hi, params))
        hi = lo
        if hi == 0:
            break
    return ranges


def _size_range(primes, lo, hi, params):
    kb_min = segmentation.cell_index(int(primes[lo]), params)
    if kb_min < 1:
        raise ValueError("delta must keep every prime above cell 0")
    r_used = min(params.top_cell // kb_min, hi - lo)
    kb_max = segmentation.cell_index(int(primes[hi - 1]), params)
    return lo, hi, r_used, kb_max


def _shared_length(ranges):
    """Smallest power of two above sum(r_used * kb_max): range i's
    alternating sum lives in cells [0, r_used * kb_max], so the product of
    all of them fits without wraparound."""
    need = 1 + sum(r_used * kb_max for _, _, r_used, kb_max in ranges)
    return 1 << (need - 1).bit_length()


def smooth_mobius_cells(primes, params, modulus, *, weight=None):
    """Cell array of the truncated-Mobius mass, weighted by h, modulo modulus.

    Entry k holds sum of h(n) * mu(n) over square-free n composed of the given
    primes with factored cell index k, truncated at top_cell. Per Fourier
    coefficient, the order-r product arrays are read off a power-series
    exponential of the prime-power transforms. `weight` is None or a unit
    weight for h = 1.
    """
    if 2 * params.delta > 1:
        raise ValueError("smooth Mobius cells need delta <= 1/2")
    top = params.top_cell
    primes = np.asarray(primes, dtype=np.int64)
    parts = make_partitions(primes, params)
    # one accumulator at the shared length, ended by one inverse transform
    ctx = modmath.get_context(modulus, parts[0].pad_length if parts else 1)
    acc = np.ones(ctx.length, dtype=np.uint64)
    for part in parts:
        _multiply_partition(acc, primes[part.lo:part.hi], part.r_used,
                            params, ctx, weight)
    out = np.zeros(top + 1, dtype=np.uint64)
    res = modmath.ntt_inverse(acc, ctx)[:top + 1]
    out[:len(res)] = res
    return out


def _multiply_partition(acc, sub, r_used, params, ctx, weight):
    """Multiply the transform `acc` by that of sum_r (-1)^r c_r, where c_r
    counts products of r distinct primes of `sub`, BLOCK columns at a time."""
    modulus, length = ctx.modulus, ctx.length
    p = np.uint64(modulus)
    if weight is None or weight.is_unit:
        # the order-r array of the unit weight dilates the order-1 array by r
        e1t = modmath.ntt_forward(
            prime_cell_sums(sub, params, modulus, length=length), ctx)

        def e_tilde(r, cols):
            return e1t[cols * r % length]
    else:
        ets = [modmath.ntt_forward(
            prime_cell_sums(sub, params, modulus, weight=weight, power=r,
                            length=length), ctx) for r in range(1, r_used + 1)]

        def e_tilde(r, cols):
            return ets[r - 1][cols]
    # exp(-sum_r e_r x^r / r) has coefficients (-1)^r c_r, so the
    # alternating sum is the plain sum of its coefficients
    neg_inv = [0] + [modulus - pow(r, -1, modulus) for r in range(1, r_used + 1)]
    for start in range(0, length, BLOCK):
        cols = np.arange(start, min(start + BLOCK, length))
        f = np.zeros((r_used + 1, len(cols)), dtype=np.uint64)
        for r in range(1, r_used + 1):
            f[r] = e_tilde(r, cols) * np.uint64(neg_inv[r]) % p
        c = modmath.power_series_exp(f, r_used + 1, modulus)
        acc[cols] = acc[cols] * (c.sum(axis=0) % p) % p
