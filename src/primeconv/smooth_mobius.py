"""Smooth-Mobius segment arrays.

The cell array of the truncated Mobius function (optionally weighted by a
completely multiplicative function) is assembled from arrays counting products
of r distinct primes. Those satisfy a Newton-identities-style recurrence
against the arrays of r-th prime powers, which is solved per Fourier
coefficient as a power-series exponential, with the primes split into size
ranges to keep transform padding small. `oracles.newton_direct` solves the
same recurrence in the time domain as the independent reference.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import modmath, segmentation


@dataclass(frozen=True)
class PrimePartition:
    """One size range of primes: indices [lo, hi) into the prime array,
    truncation order r_used, and the padded transform length."""
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
    also capped by the number of primes in the range.
    """
    n = params.n
    if len(primes) == 0:
        return []
    log2n = math.log2(n)
    m_max = max(1, int(math.log2(log2n)) if log2n > 1 else 1)
    edges = [2.0 ** (log2n / 2 ** m) for m in range(1, m_max + 1)]
    parts = []
    hi = len(primes)
    for m in range(1, m_max + 1):
        if m == m_max:
            lo = 0
        else:
            lo = int(np.searchsorted(primes, edges[m], side="right"))
        if lo < hi:
            parts.append(_make_partition(primes, lo, hi, params))
        hi = lo
        if hi == 0:
            break
    return parts


def _make_partition(primes, lo, hi, params):
    top = params.top_cell
    kb_min = segmentation.cell_index(int(primes[lo]), params)
    if kb_min < 1:
        raise ValueError("delta must keep every prime above cell 0")
    r_used = min(top // kb_min, hi - lo)
    kb_max = segmentation.cell_index(int(primes[hi - 1]), params)
    need = r_used * (kb_max + 1) + top + 1
    pad = 1
    while pad < need:
        pad *= 2
    return PrimePartition(lo=lo, hi=hi, r_used=r_used, pad_length=pad)


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
    pieces = [_partition_mobius(primes, part, params, modulus, weight)
              for part in make_partitions(primes, params)]
    if not pieces:
        out = np.zeros(top + 1, dtype=np.uint64)
        out[0] = 1
        return out
    # pairwise balanced merge, truncating every intermediate to top_cell + 1
    while len(pieces) > 1:
        merged = []
        for i in range(0, len(pieces) - 1, 2):
            conv = modmath.convolve_mod(pieces[i], pieces[i + 1], modulus)
            merged.append(conv[:top + 1])
        if len(pieces) % 2:
            merged.append(pieces[-1])
        pieces = merged
    out = np.zeros(top + 1, dtype=np.uint64)
    res = pieces[0][:top + 1]
    out[:len(res)] = res
    return out


def _partition_mobius(primes, part, params, modulus, weight):
    top = params.top_cell
    p = np.uint64(modulus)
    sub = primes[part.lo:part.hi]
    r_used = part.r_used
    length = part.pad_length
    ctx = modmath.get_context(modulus, length)
    if r_used == 0:
        out = np.zeros(top + 1, dtype=np.uint64)
        out[0] = 1
        return out
    # Fourier transforms of the order-r prime-power arrays
    e_tilde = np.empty((r_used + 1, length), dtype=np.uint64)
    e_tilde[0] = 0
    if weight is None or weight.is_unit:
        # the order-r array of the unit weight dilates the order-1 array by r
        base = prime_cell_sums(sub, params, modulus, length=length)
        e1t = modmath.ntt_forward(base, ctx)
        idx = np.arange(length, dtype=np.int64)
        for r in range(1, r_used + 1):
            e_tilde[r] = e1t[(idx * r) % length]
    else:
        for r in range(1, r_used + 1):
            arr = prime_cell_sums(sub, params, modulus, weight=weight,
                                  power=r, length=length)
            e_tilde[r] = modmath.ntt_forward(arr, ctx)
    # alternating signs folded into the series: f_r = (-1)^(r-1) e_r / r
    f = np.zeros_like(e_tilde)
    for r in range(1, r_used + 1):
        row = e_tilde[r] * np.uint64(pow(r, -1, modulus)) % p
        f[r] = row if r % 2 == 1 else (p - row) % p
    c = modmath.power_series_exp(f, r_used + 1, modulus)
    acc = np.zeros(length, dtype=np.uint64)
    for r in range(r_used + 1):
        acc = (acc + (c[r] if r % 2 == 0 else (p - c[r]) % p)) % p
    return modmath.ntt_inverse(acc, ctx)[:top + 1]
