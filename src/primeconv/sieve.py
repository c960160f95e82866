"""Prime generation, Mobius tabulation and interval screening.

screen_chunk is the one service over intervals: it sieves a stretch of
integers against the primes up to a bound and returns vectorized per-integer
summaries (smoothness, square-freeness, sign, cell-index sums), which the pair
correction consumes without ever materializing factorizations.
"""

import math

import numpy as np

from . import segmentation

_prime_cache = np.array([], dtype=np.int64)


def primes_up_to(limit):
    """Ascending array of all primes <= limit (cached, grow-only)."""
    global _prime_cache
    if limit < 2:
        return np.array([], dtype=np.int64)
    if len(_prime_cache) == 0 or _prime_cache[-1] < limit:
        span = max(int(limit), 1000)
        sieve = np.ones(span + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, math.isqrt(span) + 1):
            if sieve[p]:
                sieve[p * p::p] = False
        _prime_cache = np.nonzero(sieve)[0].astype(np.int64)
    cut = np.searchsorted(_prime_cache, limit, side="right")
    return _prime_cache[:cut]


class MuTable:
    """Mobius values mu(0..limit) as int8, with cached prefix sums."""

    def __init__(self, values, limit):
        self.values = values
        self.limit = limit
        self._prefix = None

    def prefix_sum(self, k):
        """Sum of mu(1..k)."""
        if self._prefix is None:
            self._prefix = np.cumsum(self.values.astype(np.int64))
        return int(self._prefix[k])


def mu_up_to(limit):
    """Sieve mu(n) for all n <= limit."""
    if limit < 1:
        raise ValueError("mu_up_to needs limit >= 1")
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    for p in primes_up_to(limit):
        p = int(p)
        mu[p::p] *= -1
        if p * p <= limit:
            mu[p * p::p * p] = 0
    return MuTable(mu, limit)


def prime_cell_indices(primes, params):
    """cell_index of each prime (int64 array aligned with `primes`)."""
    return segmentation.cell_index_vec(np.asarray(primes, dtype=np.uint64), params)


def screen_chunk(lo, hi, primes, prime_cells, *, want_excess=False):
    """Vectorized per-integer summary of (lo, hi] against primes <= bound.

    Returns (smooth, kh, sign, sqfree, excess):
      smooth: no prime factor above the sieving primes' bound
      kh: sum of e * cell_index(p) over sieved primes (complete iff smooth)
      sign: (-1)^(number of distinct sieved primes)
      sqfree: no sieved prime divides twice
      excess: product of p^(e-1) over sieved primes with e >= 2 (or None)

    Only `smooth` rows carry final values of kh/sign; an integer with a prime
    factor above the bound is not smooth, and every caller treats it as
    weight zero. The sieved part of each integer is built up by multiplying:
    it divides the integer, so it never overflows the integer's dtype.
    """
    size = hi - lo
    dtype = np.uint32 if hi < (1 << 32) else np.uint64
    part = np.ones(size, dtype=dtype)
    kh = np.zeros(size, dtype=np.int32)
    sign = np.ones(size, dtype=np.int8)
    sqfree = np.ones(size, dtype=bool)
    excess = np.ones(size, dtype=np.uint64) if want_excess else None
    for p, kb in zip(primes.tolist(), prime_cells.tolist()):
        first = (lo // p + 1) * p
        if first > hi:
            continue
        sl = slice(first - (lo + 1), None, p)
        part[sl] *= p
        kh[sl] += kb
        sign[sl] *= -1
        q = p * p
        while q <= hi:
            first_q = (lo // q + 1) * q
            if first_q > hi:
                break
            slq = slice(first_q - (lo + 1), None, q)
            if q == p * p:
                sqfree[slq] = False
            part[slq] *= p
            kh[slq] += kb
            if want_excess:
                excess[slq] *= p
            q *= p
    smooth = part == np.arange(lo + 1, hi + 1, dtype=dtype)
    return smooth, kh, sign, sqfree, excess
