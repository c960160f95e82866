"""Smooth-Mobius segment arrays.

The cell array of the truncated Mobius function weighted by a completely
multiplicative h (a counting.MultiplicativeWeight; h = 1 is power(0)) is a
product over size ranges of the primes of each range's alternating sum of
products-of-r-distinct-primes arrays. Every call takes a list of weights
and returns one row per weight. All ranges work at one shared power-of-two
transform length, so they multiply pointwise into one accumulator per
weight that one inverse transform ends. An untruncated range (r_used equal
to its prime count) is the direct product prod_p (1 - h(p) x^k_p),
multiplied in column by column. A truncated range solves a
Newton-identities-style recurrence against the r-th prime power arrays per
Fourier column, as a power-series exponential over BLOCK columns at a
time; the order-r array of h is the order-1 array of h^r dilated by r, so
each distinct h^r costs one forward transform, shared by all the weights
of a call. `oracles.newton_direct` solves the same recurrence in the time
domain as the independent reference.
"""

import math
from dataclasses import dataclass

import numpy as np

from . import modmath, segmentation


# Fourier columns per block of the power-series exponentials, summed over
# the weights of one pass: bounds the (r_used + 1) x BLOCK stacks they work
# on, whatever the transform length
BLOCK = 1 << 12

# bytes that one pass over a group of weights may hold (see _weight_groups)
_MEMORY_BUDGET = 128 << 20


@dataclass(frozen=True)
class PrimePartition:
    """One size range of primes: indices [lo, hi) into the prime array,
    truncation order r_used, and the transform length shared by all ranges."""
    lo: int
    hi: int
    r_used: int
    pad_length: int


def prime_cell_sums(primes, params, modulus, weight, r, length):
    """Cell array of h(p^r) mod modulus scattered at cell_index(p),
    truncated to `length`."""
    primes = np.asarray(primes, dtype=np.int64)
    cells = segmentation.cell_index_vec(primes.astype(np.uint64), params)
    keep = cells < length
    out = np.zeros(length, dtype=np.uint64)
    np.add.at(out, cells[keep],
              weight.prime_power_values(primes[keep], r, modulus))
    return modmath.mod(out, modulus, out=out)


def make_partitions(primes, params):
    """Split primes (<= smoothness bound) into log-size ranges.

    Range m covers log2(p) in [log2(n)/2^(m+1), log2(n)/2^m); the truncation
    order per range is the largest r with r * cell_index(p_min) <= top_cell
    (products of more primes from the range always land above the truncation),
    also capped by the number of primes in the range. Every range gets the
    same transform length, the smallest power of two that holds all of
    their products (see _shared_length).
    """
    ranges = _size_ranges(primes, params)
    length = _shared_length(ranges)
    return [PrimePartition(lo, hi, r_used, length)
            for lo, hi, r_used, _ in ranges]


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


def smooth_mobius_cells(primes, params, modulus, weights):
    """Cell arrays of the truncated-Mobius mass, one row per weight h of
    `weights`, modulo modulus.

    Entry k of a row holds sum of h(n) * mu(n) over square-free n composed
    of the given primes with factored cell index k, truncated at top_cell.
    The rows share each range's order-1 transforms.
    """
    if 2 * params.delta > 1:
        raise ValueError("smooth Mobius cells need delta <= 1/2")
    top = params.top_cell
    primes = np.asarray(primes, dtype=np.int64)
    parts = make_partitions(primes, params)
    ctx = modmath.get_context(modulus, parts[0].pad_length if parts else 1)
    out = np.zeros((len(weights), top + 1), dtype=np.uint64)
    for lo, hi in _weight_groups(weights, parts, ctx.length):
        # one accumulator per weight at the shared length, each ended by
        # one inverse transform
        acc = np.ones((hi - lo, ctx.length), dtype=np.uint64)
        for part in parts:
            sub = primes[part.lo:part.hi]
            if _truncated(part):
                _multiply_truncated(acc, sub, part.r_used, params, ctx,
                                    weights[lo:hi])
            else:
                _multiply_product(acc, sub, params, ctx, weights[lo:hi])
        for i, row in enumerate(acc):
            res = modmath.ntt_inverse(row, ctx)[:top + 1]
            out[lo + i, :len(res)] = res
    return out


def _truncated(part):
    return part.r_used < part.hi - part.lo


def _range_keys(weights, r_used):
    return {w.power_key(r) for w in weights for r in range(1, r_used + 1)}


def _weight_groups(weights, parts, length):
    """[lo, hi) runs of the weights that one pass holds at once: their
    length-L accumulators plus the order-1 transforms of one truncated range
    take at most half of _MEMORY_BUDGET, leaving the rest to one transform's
    temporaries and the column blocks. A run holds at least one weight."""
    r_max = max((part.r_used for part in parts if _truncated(part)),
                default=0)
    cap = _MEMORY_BUDGET // (2 * 8 * length)
    groups, lo, keys = [], 0, set()
    for i, w in enumerate(weights):
        own = _range_keys([w], r_max)
        if i > lo and i + 1 - lo + len(keys) + len(own - keys) > cap:
            groups.append((lo, i))
            lo, keys = i, set()
        keys |= own
    return groups + [(lo, len(weights))]


def transform_counters(primes, params, weights):
    """The --json counters of smooth_mobius_cells over `weights`:
    `transform_length`, [prime count, r_used] per range (`partitions`) and
    the forward transforms per NTT prime (`forward_transforms`)."""
    parts = make_partitions(primes, params)
    length = parts[0].pad_length if parts else 1
    forward = sum(len(_range_keys(weights[lo:hi], part.r_used))
                  for lo, hi in _weight_groups(weights, parts, length)
                  for part in parts if _truncated(part))
    return {"transform_length": length,
            "partitions": [[part.hi - part.lo, part.r_used] for part in parts],
            "forward_transforms": forward}


def _multiply_product(acc, sub, params, ctx, weights):
    """Multiply each row of `acc` by the transform of prod_p (1 - h(p) x^k_p)
    over a range whose r_used is its prime count: at column j that is
    prod_p (1 - h(p) w^(j k_p)) for the transform's root w, one power table
    of w^k_p and one multiplication per prime, with no forward transform."""
    modulus, p = ctx.modulus, np.uint64(ctx.modulus)
    cells = segmentation.cell_index_vec(sub.astype(np.uint64), params)
    hs = [w.prime_power_values(sub, 1, modulus) for w in weights]
    for t, k in enumerate(cells.tolist()):
        col_roots = modmath.power_table(pow(ctx.root, k, modulus), ctx.length,
                                        modulus)
        for row, h in zip(acc, hs):
            if h[t]:
                # p + 1 - x is 1 - x mod p, and below 2^32 for x < p
                row *= p + 1 - modmath.mod(h[t] * col_roots, modulus)
                modmath.mod(row, modulus, out=row)


def _multiply_truncated(acc, sub, r_used, params, ctx, weights):
    """Multiply each row of `acc` by the transform of sum_r (-1)^r c_r, where
    c_r counts products of r distinct primes of `sub` weighted by h.

    The order-r prime-power array sum_p h(p)^r x^(r k_p) is the order-1
    array of h^r dilated by r, so its transform is T1(h^r)[j r mod L]
    (exact, since L > r_used * kb_max). Each distinct h^r (see
    MultiplicativeWeight.power_key) costs one forward transform; the exponentials run over BLOCK columns of
    all the rows at a time."""
    modulus, length = ctx.modulus, ctx.length
    # t1[slot[r - 1][i]] is the order-1 transform of h_i^r
    first = {}
    for w in weights:
        for r in range(1, r_used + 1):
            first.setdefault(w.power_key(r), (w, r))
    t1 = None
    for i, (w, r) in enumerate(first.values()):
        row = modmath.ntt_forward(
            prime_cell_sums(sub, params, modulus, w, r, length), ctx)
        if t1 is None:
            # allocated after the first transform, whose temporaries are gone
            t1 = np.empty((len(first), length), dtype=np.uint64)
        t1[i] = row
        del row  # not held through the next transform
    index = {key: i for i, key in enumerate(first)}
    slot = [np.array([index[w.power_key(r)] for w in weights])[:, None]
            for r in range(1, r_used + 1)]
    # exp(-sum_r e_r x^r / r) has coefficients (-1)^r c_r, so the
    # alternating sum is the plain sum of its coefficients
    neg_inv = [0] + [modulus - pow(r, -1, modulus) for r in range(1, r_used + 1)]
    width = max(1, BLOCK // len(weights))
    for start in range(0, length, width):
        cols = np.arange(start, min(start + width, length))
        f = np.zeros((r_used + 1, len(weights), len(cols)), dtype=np.uint64)
        for r in range(1, r_used + 1):
            f[r] = t1[slot[r - 1], cols * r & (length - 1)]
            f[r] *= np.uint64(neg_inv[r])
        modmath.mod(f, modulus, out=f)
        c = modmath.power_series_exp(f, r_used + 1, modulus).sum(axis=0)
        block = acc[:, start:start + len(cols)]
        block *= modmath.mod(c, modulus, out=c)
        modmath.mod(block, modulus, out=block)
