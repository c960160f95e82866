"""Exact correction of segmentation misattribution.

Array convolution over log-scale cells credits some products d1*d2 (or
d1*d2*d3) just past the target bound as if they were inside it. Every such
product lies in a short window (n, n+S].

The pair sum is aggregated divisor-major (see pairs_correction): each
admissible square-free smooth divisor d2 up to a split point contributes a
count of its cofactors inside an interval, read off the cell-boundary table;
larger d2 are reached as m/d1 for small cofactors d1 through stride slices of
the screened window. Its exact count is split by the class of the product
mod a modulus (one class for pi, all at once for residue classes); a
weighted count is kept per NTT prime. The triple sum (Mertens) is counted
in two halves split on d1*d2, with one interval count per pair in each: see
triples_correction.
"""

import math
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np

from . import segmentation, sieve


def triple_window(params):
    """Window length for triple corrections: only cell indices within two of
    the top cell can host a contributing triple."""
    return max(0, params.cell_top(params.top_cell + 2) - params.n)


def _chunk_ranges(lo, hi, chunk):
    start = lo
    while start < hi:
        stop = min(start + chunk, hi)
        yield start, stop
        start = stop


# peak bytes a correction job holds per chunk entry (tracemalloc, one
# worker): 17 with the unit weight and 26 with a power weight at 10^9, where
# a divisor job's interval blocks span a quarter of the chunk, and 11 and 14
# at 10^10; all workers' chunks share one budget
_JOB_BYTES = 32
_MEMORY_BUDGET = 512 << 20

# entries per block of a divisor job's interval arrays
_DIVISOR_BLOCK = 1 << 18


def _auto_chunk(total, chunk_size):
    if chunk_size:
        return chunk_size
    # capped: at 2^22 entries one job peaks near 90 MB (unit weight), and
    # longer chunks are slower, not faster: pairs_correction(10^11) took
    # 14.0 s with this cap (two workers) and 21.1 s with S/8 = 11.25M-entry
    # chunks, where the memory budget leaves one worker (single runs with
    # threads=2 on a 2-CPU VM)
    return min(1 << 22, max(1 << 20, (total >> 3) + 1))


def correction_plan(params, bound, chunk_size=None, threads=1, transforms=0):
    """(cap_x, chunk, chunks, workers) of pairs_correction: the divisor split
    cap_x, the chunk length, the number of chunk jobs over (0, cap_x] and
    (n, n + S], and the worker threads of a pool that runs them after
    `transforms` other jobs (a pipeline's transforms, queued first). Workers
    never exceed the jobs, and workers x chunk x _JOB_BYTES stays within
    _MEMORY_BUDGET, so the chunks held at once fit it; a transform job holds
    at most smooth_mobius._MEMORY_BUDGET. No jobs, no workers."""
    window = params.window
    cap_x = max(window, (params.n + window) // bound)
    chunk = _auto_chunk(window, chunk_size)
    chunks = -(-cap_x // chunk) + -(-window // chunk) if window > 0 else 0
    budget = max(1, _MEMORY_BUDGET // (chunk * _JOB_BYTES))
    return cap_x, chunk, chunks, min(threads, chunks + transforms, budget)


class JobPool:
    """Worker threads shared by the jobs of one call, or the calling thread
    alone for one worker. Jobs start in submission order; seconds[phase]
    sums the run time of that phase's jobs, so overlapping jobs count
    twice."""

    def __init__(self, workers):
        self.workers = workers
        self.seconds = {}
        self._lock = threading.Lock()
        self._executor = ThreadPoolExecutor(workers) if workers > 1 else None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self._executor is not None:
            self._executor.shutdown()

    def submit(self, phase, fn, *args):
        """A future of fn(*args); without worker threads it runs at once."""
        if self._executor is not None:
            return self._executor.submit(self._timed, phase, fn, args)
        future = Future()
        future.set_result(self._timed(phase, fn, args))
        return future

    def map(self, phase, fn, items):
        """[fn(item) for item in items], the jobs queued together."""
        jobs = [self.submit(phase, fn, item) for item in items]
        return [job.result() for job in jobs]

    def _timed(self, phase, fn, args):
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            with self._lock:
                self.seconds[phase] = (self.seconds.get(phase, 0.0)
                                       + time.perf_counter() - t0)


def pairs_correction(params, bound, *, weight=None, moduli=None, modulus=1,
                     chunk_size=None, pool=None):
    """Divisor-major evaluation of the pair error sum.

    Splits on the divisor value at cap_x = max(S, (n + S) // bound): divisors
    d2 <= cap_x come from a screen of (0, cap_x] and each contributes a
    cofactor-interval count in O(1); larger divisors are m/d1 for cofactors
    d1 <= (n + S) // (cap_x + 1) < bound and come from stride slices of the
    screened window itself. Such d1 have no prime factor above the bound, so
    m/d1 is bound-smooth exactly when m is, and no pair is lost. S is
    params.window. Each d1 reads mu(m/d1) over its stride slice with one
    table gather from small per-entry codes (see _PairTable).

    Without a weight, or with the unit weight, the sum is exact and split by
    the class of the product m mod `modulus`: a list of `modulus` ints whose
    entry c sums the products m = c, with 0 where gcd(c, modulus) > 1. The
    default modulus 1 gives the whole sum as a one-entry list. With any
    other weight h, the sum of h(m) over all products is returned as one
    residue per prime in `moduli`.

    Each chunk of (0, cap_x] and of (n, n + S] is one job whose partial sums
    are added up in chunk order. The jobs run as the "correction" phase of
    `pool`, a JobPool that other jobs may share (correction_plan sizes it),
    or on the calling thread without one.
    """
    n = params.n
    window = params.window
    unit = weight is None or weight.is_unit
    width = modulus if unit else len(moduli)
    cap_x, chunk, chunks, _ = correction_plan(params, bound, chunk_size)
    if not chunks:
        return [0] * width if unit else (0,) * width
    top = params.top_cell
    primes = sieve.primes_up_to(bound)
    pcells = sieve.prime_cell_indices(primes, params)
    d1_max = (n + window) // (cap_x + 1)
    coprime = [c for c in range(modulus) if math.gcd(c, modulus) == 1]
    inv_table = _inverse_table(modulus)

    def divisor_job(lo, hi):
        smooth, kh, sign, sqfree, _ = sieve.screen_chunk(lo, hi, primes, pcells)
        part = [0] * width
        # built for the whole chunk at once, the interval arrays raised a
        # job's peak from the 7 bytes per entry its screen keeps to 34 (at
        # 10^10): build them one block at a time
        for a in range(0, hi - lo, _DIVISOR_BLOCK):
            b = a + _DIVISOR_BLOCK
            idx = np.flatnonzero(smooth[a:b] & sqfree[a:b] & (kh[a:b] <= top)) + a
            sums = divisor_sums(idx + (lo + 1), kh[idx], sign[idx])
            part = [x + y for x, y in zip(part, sums)]
        return part

    def divisor_sums(d2, kd2, sd2):
        cap = params.bounds_np[(top - kd2) + 1].astype(np.int64) - 1
        upper = np.minimum((n + window) // d2, cap)
        lower = n // d2
        live = upper > lower
        if unit:
            # a d2 sharing a factor with the modulus reaches no coprime class
            inv = inv_table[d2 % modulus]
            live &= inv >= 0
            inv = inv[live]
        d2, upper, lower = d2[live], upper[live], lower[live]
        sg = sd2[live].astype(np.int64)
        if unit:
            # the cofactors k of d2 in class c are those with k = c / d2 (mod
            # modulus)
            part = [0] * width
            for c in coprime:
                t = c * inv % modulus
                part[c] = int(np.dot(sg, (upper - t) // modulus
                                     - (lower - t) // modulus))
            return part
        part = []
        for p in moduli:
            hv = weight.values_vec(d2, p)
            sv = np.where(sg > 0, hv, (p - hv) % np.uint64(p))
            pref = (weight.prefix_vec(upper.astype(np.uint64), p)
                    + np.uint64(p)
                    - weight.prefix_vec(lower.astype(np.uint64), p)) % np.uint64(p)
            part.append(int(np.sum((sv * pref % np.uint64(p)).astype(np.int64))))
        return part

    # large divisors: stride over the window for each small cofactor d1
    # coprime to the modulus; d1 < bound, so its screen row is complete
    d1s = np.arange(1, d1_max + 1, dtype=np.uint64)
    _, kd1s, sd1s, sq1s, _ = sieve.screen_chunk(0, d1_max, primes, pcells)
    kb1s = segmentation.cell_index_vec(d1s, params)
    keep = (kb1s <= top) & (np.gcd(d1s, np.uint64(modulus)) == 1)
    # m/d1 passes the cell test iff kh(m) - top <= slack(d1) = kd1 - kb1
    slack = kd1s.astype(np.int64) - kb1s
    lows = int(slack[keep].min(initial=0))
    band = int(slack[keep].max(initial=0)) - lows + 1
    table = _PairTable(sd1s * sq1s, d1_max, band)  # mu(1..d1_max)
    d1_info = [(d1, table.rows(d1, s - lows)) for d1, s in
               zip(d1s[keep].tolist(), slack[keep].tolist())]

    def window_job(lo, hi):
        part = [0] * width
        per_class = np.zeros(modulus, dtype=np.int64)
        smooth, kh, sign, sqfree, excess = sieve.screen_chunk(
            lo, hi, primes, pcells, want_excess=True, excess_cap=d1_max + 1)
        kh -= top + lows
        code = table.codes(smooth, kh, sign, excess)
        # the stride pass reads only the codes: free the screen's 9 B per entry
        del smooth, kh, sign, sqfree, excess
        lookup = np.zeros(table.shape, dtype=np.int8)
        for d1, (rows, block) in d1_info:
            low = max(lo, d1 * (cap_x + 1) - 1)
            first = (low // d1 + 1) * d1
            if first > hi:
                continue
            # mu(m/d1) for each m = first + j * d1, 0 when (d1, m/d1) is no pair
            lookup[rows] = block
            sg = lookup.take(code[first - (lo + 1)::d1])
            lookup[rows] = 0
            if unit:
                if modulus == 1:
                    per_class[0] += int(sg.sum(dtype=np.int64))
                    continue
                # sub-stride r holds the products of class first + r * d1
                tail = len(sg) % modulus
                cls = (first + d1 * np.arange(modulus)) % modulus
                per_class[cls] += sg[:len(sg) - tail].reshape(-1, modulus).sum(
                    axis=0, dtype=np.int64)
                per_class[cls[:tail]] += sg[len(sg) - tail:]
                continue
            j = np.flatnonzero(sg)
            m = (first + j * d1).astype(np.uint64)
            for i, p in enumerate(moduli):
                hv = weight.values_vec(m, p)  # h(d1) h(m/d1) = h(m)
                sv = np.where(sg[j] > 0, hv, (np.uint64(p) - hv) % np.uint64(p))
                part[i] += int(np.sum(sv.astype(np.int64)))
        return per_class.tolist() if unit else part

    jobs = [(divisor_job, lo, hi) for lo, hi in _chunk_ranges(0, cap_x, chunk)]
    jobs += [(window_job, lo, hi) for lo, hi in _chunk_ranges(n, n + window, chunk)]
    parts = (pool or JobPool(1)).map(
        "correction", lambda job: job[0](job[1], job[2]), jobs)
    sums = [sum(col) for col in zip(*parts)]
    if unit:
        # a product sharing a factor with the modulus is in no coprime class
        return [s if math.gcd(c, modulus) == 1 else 0 for c, s in enumerate(sums)]
    return tuple(s % p for s, p in zip(sums, moduli))


class _PairTable:
    """Sign lookup of the window stride pass.

    m/d1 is square-free exactly when the excess e(m) = prod p^(a-1) divides
    d1, and then m/d1 = rad(m) / (d1/e(m)), so mu(m/d1) = sign(m) *
    mu(d1/e(m)). A window entry's code packs e (capped at d1_max + 1), the
    cell excess u = kh - top - lows (clamped to 0..band, band being above
    every slack) and the sign bit as (e * (band + 1) + u) * 2 + bit, and a
    non-smooth m gets 0. For one d1 the table holds sign * mu(d1/e) in the
    rows of the divisors e of d1 and the columns u <= slack(d1) - lows, and
    0 elsewhere. A job sets one d1's rows at a time in one table of
    (d1_max + 2) x 2 (band + 1) bytes, which stays small at every delta.
    """

    def __init__(self, mu, d1_max, band):
        self.shape = (d1_max + 2, 2 * (band + 1))
        fits = (d1_max + 2) * 2 * (band + 1) <= 1 << 15
        self.dtype = np.int16 if fits else np.int32
        # the divisors e of each d1 with d1/e = k square-free, in d1 order
        k = np.flatnonzero(mu) + 1
        reps = d1_max // k
        e = (np.arange(int(reps.sum())) + 1
             - np.repeat(np.cumsum(reps) - reps, reps))
        k = np.repeat(k, reps)
        order = np.argsort(e * k, kind="stable")
        self.e, self.mu = e[order], mu[k[order] - 1]
        self.ends = np.cumsum(np.bincount(e * k, minlength=d1_max + 1))

    def rows(self, d1, width):
        """(rows, block): the divisor rows of d1 and their values, set in the
        columns u <= width for both sign bits."""
        a, b = self.ends[d1 - 1], self.ends[d1]
        cols = np.zeros(self.shape[1], dtype=np.int8)
        cols[0:2 * width + 2:2], cols[1:2 * width + 2:2] = 1, -1
        return self.e[a:b], np.multiply.outer(self.mu[a:b], cols)

    def codes(self, smooth, u, sign, excess):
        """Codes of a window chunk from its screen; u = kh - top - lows is an
        int32 array, overwritten."""
        np.clip(u, 0, self.shape[1] // 2 - 1, out=u)
        u <<= 1
        np.add(u, sign < 0, out=u)
        code = excess.astype(self.dtype)
        code *= self.shape[1]
        np.add(code, u, out=code, casting="unsafe")
        code *= smooth
        return code


def _inverse_table(m):
    """inv[x] = x^-1 mod m, or -1 when gcd(x, m) > 1."""
    inv = np.full(m, -1, dtype=np.int64)
    for x in range(m):
        if math.gcd(x, m) == 1:
            inv[x] = pow(x, -1, m)
    return inv


# entries per block of the triple correction; a half-B block holds at least
# one row, one entry per square-free d2 <= trunc
_TRIPLE_CHUNK = 1 << 15


def _triple_split(n_hi, squarefree, trunc):
    """Split point X of the triple sum. Half A walks about X ln(trunc) pairs
    (d1, d2) and half B about squarefree * n_hi / X pairs (d2, d3); a pair of
    half A costs about twice one of half B, and this X balances the two."""
    return max(1, math.isqrt(int(n_hi * squarefree / (2 * math.log(trunc + 1)))))


def triples_correction(params, trunc, mu_table):
    """Triple error sum: mu(d2) * mu(d3) over d1 * d2 * d3 in (n, n + W] with
    square-free d2, d3 <= trunc and cell indices summing to at most top_cell.

    Counted in two halves split at d1 * d2 = X. Half A walks the pairs
    (d1, d2) with d1 * d2 <= X and takes the Mobius mass of the admissible d3
    from prefix sums. Half B (d1 * d2 > X, so d3 <= (n + W) // (X + 1)) walks
    the pairs (d3, d2) and counts the admissible d1 in one interval each.
    """
    n = params.n
    n_hi = n + triple_window(params)
    if n_hi <= n:
        return 0
    top = params.top_cell
    mu = mu_table.values[:trunc + 1]
    vals = np.flatnonzero(mu).astype(np.int64)
    signs = mu[vals].astype(np.int64)
    bounds = params.bounds_np.astype(np.int64)
    kcells = np.searchsorted(bounds, vals, side="right") - 1
    x = min(_triple_split(n_hi, len(vals), trunc), n_hi)
    # cap[pad + r] = cell_top(r), the largest cofactor a cell budget r
    # admits (0 when r < 0); d1 <= n + W has cell <= top + 2 and d2, d3 <=
    # trunc have cell <= kcells[-1], so no budget below falls under -pad
    pad = top + 2 + 2 * int(kcells[-1])
    cap = np.concatenate([np.zeros(pad, dtype=np.int64), bounds[1:top + 2] - 1])
    total = 0

    # half A, d1 by row. Pairs with d1 * d2 * trunc <= n leave no d3 <= trunc
    # and are skipped; the rest have lo < trunc and hi <= n_hi // (n // trunc
    # + 1), so the prefix sums, held flat past trunc, need no clamp
    prefix = np.cumsum(mu, dtype=np.int64)
    flat = n_hi // (n // trunc + 1) - trunc + 1
    prefix = np.concatenate([prefix, np.full(max(flat, 0), prefix[-1])])
    d1_lo = 1
    while d1_lo <= x:
        # rows shorten as d1 grows: size the block by its first row
        longest = int(np.searchsorted(vals, x // d1_lo, side="right"))
        width = max(1, _TRIPLE_CHUNK // longest)
        d1 = np.arange(d1_lo, min(d1_lo + width, x + 1), dtype=np.int64)
        d1_lo += width
        first = np.searchsorted(vals, n // (trunc * d1), side="right")
        cols = np.maximum(np.searchsorted(vals, x // d1, side="right") - first, 0)
        ends = np.cumsum(cols)
        j = np.arange(int(ends[-1])) + np.repeat(first + cols - ends, cols)
        m = np.repeat(d1, cols) * vals[j]
        lo = n // m
        k1 = np.searchsorted(bounds, d1, side="right") - 1
        budget = np.repeat(pad + top - k1, cols) - kcells[j]
        hi = np.maximum(np.minimum(n_hi // m, cap[budget]), lo)
        total += int(np.dot(signs[j], prefix[hi] - prefix[lo]))

    # half B, d3 by row: d1 > X // d2
    d3_count = int(np.searchsorted(vals, n_hi // (x + 1), side="right"))
    floor_x = x // vals
    rows = max(1, _TRIPLE_CHUNK // len(vals))
    for a in range(0, d3_count, rows):
        b = min(a + rows, d3_count)
        q = vals[a:b, None] * vals
        upper = np.minimum(n_hi // q, cap[(pad + top - kcells[a:b, None]) - kcells])
        lower = np.maximum(n // q, floor_x)
        total += int(signs[a:b] @ (np.maximum(upper - lower, 0) @ signs))
    return total
