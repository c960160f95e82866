"""Prime generation, Mobius tabulation and interval screening.

screen_chunk is the one service over intervals: it sieves a stretch of
integers against the primes up to a bound and returns vectorized per-integer
summaries (smoothness, square-freeness, sign, cell-index sums), which the pair
correction consumes without ever materializing factorizations. Each prime
power costs one strided add into one packed int32 per integer, and
smoothness is read off the cell sum alone.
"""

import functools
import math

import numpy as np

_prime_cache = np.array([], dtype=np.int64)

# no two consecutive primes below 4 * 10^18 lie more than 1476 apart
# (Oliveira e Silva, Herzog and Pardi, Math. Comp. 83 (2014)), so a sieve
# that runs this far past a limit finds a prime above it
_PRIME_GAP = 1476


def primes_up_to(limit):
    """Ascending array of all primes <= limit (cached, grow-only). A sieve
    runs _PRIME_GAP past its limit, so the cache ends with a prime above
    that limit and a later call at the same limit reads it. Reads the cache
    once, as another thread may store a shorter sieve meanwhile."""
    global _prime_cache
    if limit < 2:
        return np.array([], dtype=np.int64)
    primes = _prime_cache
    if len(primes) == 0 or primes[-1] < limit:
        span = max(int(limit), 1000) + _PRIME_GAP
        sieve = np.ones(span + 1, dtype=bool)
        sieve[:2] = False
        for p in range(2, math.isqrt(span) + 1):
            if sieve[p]:
                sieve[p * p::p] = False
        primes = np.nonzero(sieve)[0].astype(np.int64)
        if len(primes) > len(_prime_cache):
            _prime_cache = primes
    return primes[:np.searchsorted(primes, limit, side="right")]


class MuTable:
    """Mobius values mu(0..limit) as int8, with cached prefix sums."""

    def __init__(self, values):
        self.values = values

    @functools.cached_property
    def prefix(self):
        return np.cumsum(self.values, dtype=np.int64)

    def prefix_sum(self, k):
        """Sum of mu(1..k)."""
        return int(self.prefix[k])


def mu_up_to(limit):
    """Sieve mu(n) for all n <= limit by the primes p <= isqrt(limit) alone:
    prod[m] keeps the product of those that divide m, and a square-free m
    with prod[m] < m has one more prime factor, above isqrt(limit). The
    comparison runs in blocks, so the peak stays near 5 bytes per entry."""
    if not 1 <= limit < 1 << 31:
        raise ValueError("mu_up_to needs 1 <= limit < 2^31")
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    prod = np.ones(limit + 1, dtype=np.int32)
    for p in primes_up_to(math.isqrt(limit)).tolist():
        mu[p::p] *= -1
        prod[p::p] *= p
        mu[p * p::p * p] = 0
    for a in range(0, limit + 1, 1 << 16):
        m = np.arange(a, min(a + (1 << 16), limit + 1), dtype=np.int32)
        part = mu[a:a + len(m)]
        np.negative(part, out=part, where=prod[a:a + len(m)] < m)
    return MuTable(mu)


# bits of a packed screen entry that hold the cell sum; the bits above count
# the distinct sieved primes. Cell sums stay below 2^26 (checked per call),
# and a count of at most 15 (the omega of any 64-bit integer) keeps the
# entry below 2^31.
_SUM_BITS = 26


def screen_chunk(lo, hi, primes, prime_cells, *, want_excess=False,
                 excess_cap=(1 << 15) - 1):
    """Vectorized per-integer summary of (lo, hi] against primes <= bound.

    `primes` are all primes up to the bound, ascending, and `prime_cells`
    their cell indices. Returns (smooth, kh, sign, sqfree, excess):
      smooth: no prime factor above the sieving primes' bound
      kh: sum of e * cell_index(p) over sieved primes (complete iff smooth)
      sign: (-1)^(number of distinct sieved primes)
      sqfree: no sieved prime divides twice
      excess: min(c, product of p^(e-1) over sieved primes with e >= 2), for
        the cap c = excess_cap, in uint16 when c < 2^15 and uint32 otherwise
        (None unless want_excess)

    Only `smooth` rows carry final values of kh/sign; an integer with a prime
    factor above the bound is not smooth, and every caller treats it as
    weight zero. Each prime power adds into one packed int32 per entry: the
    low _SUM_BITS bits take the cell sum, the bits above count the distinct
    primes, whose parity is the sign. Smoothness is read off the cell sum
    with one threshold per bit length (see _smooth_rule).
    """
    lo, hi = int(lo), int(hi)
    size = hi - lo
    c2, length = _smooth_rule(hi, primes, prime_cells)
    packed = np.zeros(size, dtype=np.int32)
    sqfree = np.ones(size, dtype=bool)
    cap = int(excess_cap)
    excess = (np.ones(size, dtype=np.uint16 if cap < 1 << 15 else np.uint32)
              if want_excess else None)
    one = 1 << _SUM_BITS
    for p, kb in zip(primes.tolist(), prime_cells.tolist()):
        first = (lo // p + 1) * p
        if first > hi:
            continue
        packed[first - (lo + 1)::p] += kb + one
        q = p * p
        while q <= hi:
            first_q = (lo // q + 1) * q
            if first_q > hi:
                break
            slq = slice(first_q - (lo + 1), None, q)
            if q == p * p:
                sqfree[slq] = False
            packed[slq] += kb
            if want_excess and p >= cap:
                excess[slq] = cap
            elif want_excess:
                # an entry stays exact below cap or lies in [cap, 2 cap), as
                # excess * p >= cap iff excess >= ceil(cap / p); the last
                # pass below clamps it to cap
                view = excess[slq]
                np.minimum(view, -(-cap // p), out=view)
                view *= p
            q *= p
    if want_excess:
        np.minimum(excess, cap, out=excess)
    sign = np.empty(size, dtype=np.int8)
    np.right_shift(packed, _SUM_BITS, out=sign, casting="unsafe")
    sign &= 1
    sign *= -2
    sign += 1
    kh = np.bitwise_and(packed, one - 1, out=packed)
    # smooth iff kh >= (b - 1) * c2 - L, one threshold per bit length b
    smooth = np.empty(size, dtype=bool)
    for b in range((lo + 1).bit_length(), length + 1):
        a = max(lo, (1 << (b - 1)) - 1) - lo
        z = min(hi, (1 << b) - 1) - lo
        np.greater_equal(kh[a:z], (b - 1) * c2 - length, out=smooth[a:z])
    return smooth, kh, sign, sqfree, excess


def _smooth_rule(hi, primes, prime_cells):
    """(c2, L) for the smoothness rule of screen_chunk on (lo, hi].

    With c2 = cell_index(2) = floor(1/delta), L = hi.bit_length(), P the
    largest sieved prime and b the bit length of m: a smooth m has
    kh(m) > log2(m)/delta - Omega(m) >= (b - 1) * c2 - L, while an m with a
    prime factor above P has kh(m) <= (log2 m - log2(P + 1))/delta, which is
    below that threshold whenever c2 * (bit_length(P + 1) - 2) >= 2L. So
    smooth <=> kh >= (b - 1) * c2 - L. Raises ValueError when the gap
    condition fails or a cell sum (below L * (c2 + 1)) could reach 2^_SUM_BITS.
    """
    length = hi.bit_length()
    if len(primes) == 0 or int(primes[0]) != 2:
        raise ValueError("screen_chunk sieves by all primes up to a bound >= 2")
    c2 = int(prime_cells[0])
    if c2 * ((int(primes[-1]) + 1).bit_length() - 2) < 2 * length:
        raise ValueError(
            f"cell width 1/{c2} is too coarse to read smoothness off the cell "
            f"sum for primes up to {int(primes[-1])} below {hi}")
    if length * (c2 + 1) > 1 << _SUM_BITS:
        raise ValueError(f"cell sums below {hi} may not fit {_SUM_BITS} bits")
    return c2, length
