"""Brute-force reference implementations.

Everything here is definitional: sieves, trial division, exhaustive divisor
enumeration, the time-domain Newton recurrence. Deliberately independent of
the main pipeline (no imports from the other modules) so tests and fixtures
have a second route to every value.
Single-threaded; exactness over speed.
"""

import math
from fractions import Fraction

import numpy as np

_BLOCK = 1 << 22


def _prime_mask(limit):
    mask = np.ones(limit + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if mask[p]:
            mask[p * p::p] = False
    return mask


def pi_naive(n, checkpoints=None):
    """Prime count by plain sieve (segmented above 2^22).

    With `checkpoints` (a sorted iterable), returns the list of counts at
    each checkpoint instead; the largest must equal n.
    """
    if checkpoints is None:
        marks = None
    else:
        marks = list(checkpoints)
        if marks and marks[-1] != n:
            raise ValueError("last checkpoint must equal n")
    if n < 2:
        return 0 if marks is None else [0] * len(marks)
    if n <= _BLOCK:
        counts = np.cumsum(_prime_mask(n))
        if marks is None:
            return int(counts[n])
        return [int(counts[m]) if m >= 0 else 0 for m in marks]
    base = _prime_mask(math.isqrt(n))
    primes = np.nonzero(base)[0]
    total = 0
    out = []
    next_mark = 0
    lo = 1
    while lo < n:
        hi = min(lo + _BLOCK, n)
        block = np.ones(hi - lo, dtype=bool)  # positions lo+1 .. hi
        for p in primes:
            p = int(p)
            if p * p > hi:
                break
            first = max(p * p, (lo // p + 1) * p)
            if first > hi:
                continue
            block[first - lo - 1::p] = False
        if marks is None or not (next_mark < len(marks) and marks[next_mark] <= hi):
            total += int(block.sum())
        else:
            counts = total + np.cumsum(block)
            while next_mark < len(marks) and marks[next_mark] <= hi:
                m = marks[next_mark]
                out.append(int(counts[m - lo - 1]) if m > lo else total)
                next_mark += 1
            total = int(counts[-1])
        lo = hi
    return total if marks is None else out


def dirichlet_convolve_naive(f, g, n):
    """(f conv g)(k) = sum over d | k of f(d) g(k/d), for k = 1..n.

    f and g are indexed from 1 (index 0 ignored); returns an int64 array of
    length n + 1 with index 0 zero.
    """
    f = np.asarray(f, dtype=np.int64)
    g = np.asarray(g, dtype=np.int64)
    out = np.zeros(n + 1, dtype=np.int64)
    for d in range(1, n + 1):
        fd = int(f[d])
        if fd:
            out[d::d] += fd * g[1:n // d + 1]
    return out


def mu_naive(n):
    """mu(1..n) by sieve (int8 array indexed from 0)."""
    mu = np.ones(n + 1, dtype=np.int8)
    mu[0] = 0
    mask = _prime_mask(n) if n >= 2 else np.zeros(max(n + 1, 2), dtype=bool)
    for p in np.nonzero(mask)[0]:
        p = int(p)
        mu[p::p] *= -1
        if p * p <= n:
            mu[p * p::p * p] = 0
    return mu


def mu_smooth_naive(n, bound):
    """The truncated Mobius function: mu(k) when k is square-free with all
    prime factors <= bound, else 0; int8 array indexed from 0."""
    mu = mu_naive(n)
    if n < 2:
        return mu
    lpf = np.zeros(n + 1, dtype=np.int64)
    for p in np.nonzero(_prime_mask(n))[0]:
        lpf[p::p] = p  # later (larger) primes overwrite: largest prime factor
    out = np.where(lpf <= bound, mu, 0).astype(np.int8)
    out[1] = 1
    return out


def mertens_naive(n, checkpoints=None):
    if n < 1 and checkpoints is None:
        return 0
    sums = np.cumsum(mu_naive(max(n, 1)).astype(np.int64))
    if checkpoints is None:
        return int(sums[n])
    return [int(sums[m]) if m >= 1 else 0 for m in checkpoints]


def sqfree_naive(n, checkpoints=None):
    if n < 1 and checkpoints is None:
        return 0
    flags = np.ones(max(n, 1) + 1, dtype=bool)
    flags[0] = False
    d = 2
    while d * d <= n:
        flags[d * d::d * d] = False
        d += 1
    if checkpoints is None:
        return int(flags.sum())
    sums = np.cumsum(flags)
    return [int(sums[m]) if m >= 1 else 0 for m in checkpoints]


def totient_sum_naive(n, checkpoints=None):
    if n < 1:
        return 0 if checkpoints is None else [0 if m < 1 else m for m in checkpoints]
    phi = np.arange(n + 1, dtype=np.int64)
    for p in np.nonzero(_prime_mask(n))[0]:
        phi[p::p] -= phi[p::p] // p
    sums = np.cumsum(phi, dtype=np.int64)
    if checkpoints is None:
        return int(sums[n])
    return [int(sums[m]) if m >= 1 else 0 for m in checkpoints]


def sum_primes_naive(n, power=1):
    if n < 2:
        return 0
    primes = np.nonzero(_prime_mask(n))[0]
    if power == 0:
        return len(primes)
    return sum(int(p) ** power for p in primes)


def pi_mod_naive(n, modulus, residue):
    if n < 2:
        return 0
    primes = np.nonzero(_prime_mask(n))[0]
    if modulus == 1:
        return len(primes)
    return int(np.sum(primes % modulus == residue))


def factor_naive(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            e = 0
            while n % d == 0:
                n //= d
                e += 1
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


class OracleCells:
    """Independent cell indexing: floor(log2(n) / delta) for exact rational
    delta, decided by big-integer power comparisons (no shared code with the
    main boundary tables)."""

    def __init__(self, delta):
        delta = Fraction(delta)
        self.num = delta.numerator
        self.den = delta.denominator
        self._memo = {}

    def cell(self, n):
        """Largest k with 2^(k * delta) <= n."""
        if n < 1:
            raise ValueError("cell needs n >= 1")
        got = self._memo.get(n)
        if got is not None:
            return got
        npow = n ** self.den
        # predicate: 2^(k * num) <= n^den
        hi = 1
        while (1 << (hi * self.num)) <= npow:
            hi *= 2
        lo = hi // 2  # 2^(lo*num) <= npow < 2^(hi*num); lo = 0 handled below
        if hi == 1:
            lo = 0
        while lo + 1 < hi:
            mid = (lo + hi) // 2
            if (1 << (mid * self.num)) <= npow:
                lo = mid
            else:
                hi = mid
        if (1 << (hi * self.num)) <= npow:
            lo = hi
        self._memo[n] = lo
        return lo

    def cell_additive(self, n):
        """Sum of e * cell(p) over the factorization of n."""
        return sum(e * self.cell(p) for p, e in factor_naive(n)) if n > 1 else 0


def newton_direct(primes, n, delta, r_max):
    """[C_0, ..., C_r_max]: C_r[k] counts the products of r distinct primes
    from `primes` whose cell indices add up to k, for k <= cell(n).

    Time-domain Newton recurrence r * C_r = sum_j (-1)^(j-1) C_(r-j) conv E_j,
    where E_j holds the primes at j times their cell (the cell array of their
    j-th powers), each convolution truncated at cell(n). Exact int64.
    """
    cells = OracleCells(delta)
    top = cells.cell(n)
    e1 = np.zeros(top + 1, dtype=np.int64)
    for k in (cells.cell(int(p)) for p in primes):
        if k <= top:
            e1[k] += 1
    es = []
    for j in range(1, r_max + 1):
        ej = np.zeros(top + 1, dtype=np.int64)
        ej[::j] = e1[:top // j + 1]
        es.append(ej)
    cs = [np.zeros(top + 1, dtype=np.int64)]
    cs[0][0] = 1
    for r in range(1, r_max + 1):
        acc = np.zeros(top + 1, dtype=np.int64)
        for j in range(1, r + 1):
            term = np.convolve(cs[r - j], es[j - 1])[:top + 1]
            acc += term if j % 2 == 1 else -term
        q, rem = np.divmod(acc, r)
        if rem.any():
            raise ArithmeticError("product-count recurrence not divisible")
        cs.append(q)
    return cs


def _pairs_scan_top(n, delta):
    """Safe upper end of the window that can hold contributing pairs."""
    d = float(Fraction(delta))
    cells = OracleCells(delta)
    top = cells.cell(n)
    x = d * (top + 2) / (1.0 - d)
    stop = math.ceil(2.0 ** (x * (1 + 1e-12)) * (1 + 1e-9)) + 2
    return max(n + 1, stop)


def error_term_naive_pairs(n, delta, bound=None, *, h=None, residue=None):
    """Exhaustive pair enumeration: sum of h(m) * mu(d2) over all
    m = d1 * d2 > n with cell(d1) + cell_additive(d2) <= cell(n), d2
    square-free and smooth. h is a callable on the product m (default 1);
    residue = (mod, r) keeps only products m = r (mod mod)."""
    cells = OracleCells(delta)
    top = cells.cell(n)
    bound = math.isqrt(n) if bound is None else bound
    stop = _pairs_scan_top(n, delta)
    total = 0
    for m in range(n + 1, stop + 1):
        if residue is not None and m % residue[0] != residue[1]:
            continue
        count = 0
        for d2 in _divisors(m):
            w = _mu_smooth_value(d2, bound)
            if w == 0:
                continue
            d1 = m // d2
            if cells.cell(d1) + cells.cell_additive(d2) <= top:
                count += w
        total += count if h is None else count * h(m)
    return total


def _mu_smooth_value(k, bound):
    if k == 1:
        return 1
    sign = 1
    for p, e in factor_naive(k):
        if e > 1 or p > bound:
            return 0
        sign = -sign
    return sign


def _divisors(n):
    out = [1]
    for p, e in factor_naive(n):
        cur = list(out)
        pe = 1
        for _ in range(e):
            pe *= p
            out.extend(d * pe for d in cur)
    return out


def error_term_naive_triples(n, delta, trunc):
    """Exhaustive triple enumeration of d1*d2*d3 > n with all cell indices
    summing to at most cell(n), d2 and d3 square-free and <= trunc."""
    cells = OracleCells(delta)
    top = cells.cell(n)
    # beyond cell(n) + 2 no triple can qualify; bisect the last admissible m
    lo, hi = n, 4 * n + 4
    while cells.cell(hi) <= top + 2:
        hi *= 2
    while lo + 1 < hi:
        mid = (lo + hi) // 2
        if cells.cell(mid) <= top + 2:
            lo = mid
        else:
            hi = mid
    stop = lo
    total = 0
    mu = mu_naive(min(trunc, stop))
    for m in range(n + 1, stop + 1):
        for d2 in _divisors(m):
            if d2 > trunc or mu[d2] == 0:
                continue
            rest = m // d2
            for d3 in _divisors(rest):
                if d3 > trunc or mu[d3] == 0:
                    continue
                d1 = rest // d3
                if (cells.cell(d1) + cells.cell(d2) + cells.cell(d3)) <= top:
                    total += int(mu[d2]) * int(mu[d3])
    return total

