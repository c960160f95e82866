"""Exact correction of segmentation misattribution.

Array convolution over log-scale cells credits some products d1*d2 (or
d1*d2*d3) just past the target bound as if they were inside it. Every such
product lies in a short window (n, n+S].

The pair sum is aggregated divisor-major (see pairs_correction): each
admissible square-free smooth divisor d2 up to a split point X contributes a
count of its cofactors inside an interval, read off the cell-boundary table;
larger d2 are reached as m/d1 for small cofactors d1 through stride slices of
the screened window. X minimises a measured cost model of the two sides
(see _pair_split). Its exact count is split by the class of the product
mod a modulus (one class for pi, all at once for residue classes); a
weighted count is kept per NTT prime. The triple sum (Mertens) counts each
triple by its largest factor, in O(1) for each pair of the other two, about
2.2 (n+W)^(2/3) pairs in all: see triples_correction.
"""

import math
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from typing import NamedTuple

import numpy as np

from . import modmath, segmentation, sieve


def triple_window(params):
    """Window length for triple corrections: only cell indices within two of
    the top cell can host a contributing triple."""
    return max(0, params.cell_top(params.top_cell + 2) - params.n)


# peak bytes a correction job holds per chunk entry (tracemalloc, one
# worker): 15 with the unit weight and 23 with a power weight at 10^9, where
# a divisor job's interval blocks span a quarter of the chunk, and 11 and 13
# at 10^10; all workers' chunks share one budget
_JOB_BYTES = 32
_MEMORY_BUDGET = 512 << 20

# entries per block of a divisor job's interval arrays
_DIVISOR_BLOCK = 1 << 18

# cost model of the pair sum (see _pair_split), in ns: per entry of the
# divisor screen (0, X] with its interval counts, per gathered entry of the
# stride pass, and per (d1, window chunk) iteration on top of its gather.
# Measured on one thread (2-CPU VM, numpy 2.4): the divisor jobs took 43-47
# ns per entry of (0, X] at 10^9 and 10^10 (the screen 31 of them); a least-
# squares fit of the stride iterations of d1 >= 100, whose slices touch one
# cache line per entry, gave 5-8.5 ns per entry and 0-14 us per iteration at
# 10^10 (3-4.6 ns at 10^9, where a chunk's codes take 2 MB). Scanning X at
# 10^10, S/4 to S/8 ran within the noise of each other, S and S/12 slower.
_SCREEN_NS = 40.0
_GATHER_NS = 7.5
_STRIDE_NS = 8_000.0

# the largest stride cofactor d1_max the split allows: a window code fits
# int16 while (d1_max + 2) x 2 (band + 1) <= 2^15, and the slack band stayed
# below 8 at the default precision from 10^5 to 10^11
_MAX_COFACTORS = (1 << 15) // 16 - 2

# windows shorter than this run the whole call on one worker. Medians of
# 11-15 alternated in-process calls of pi, sum-primes (power 1) and pi-mod
# (modulus 4), one worker against a pool of two: one worker was faster or
# even from n = 1e5 to 3e6 (S = 4,826 to 130,977), the two split at 5e6 and
# 7e6 (S = 198,144 and 285,122), and the pool won all three at 1e7 (S =
# 471,755), in 10 of 11 pairs each
_POOL_WINDOW = 150_000

# longest stride-pass gather: take() copies its int16 indices to 8-byte intp
_GATHER_BLOCK = 1 << 16


def _auto_chunk(total):
    # capped: at 2^22 entries one job peaks near 90 MB (unit weight), and
    # longer chunks are slower, not faster: pairs_correction(10^11) took
    # 14.0 s with this cap (two workers) and 21.1 s with S/8 = 11.25M-entry
    # chunks, where the memory budget leaves one worker (single runs with
    # threads=2 on a 2-CPU VM)
    return min(1 << 22, max(1 << 20, (total >> 3) + 1))


def _pair_split(n, window, bound, window_chunks):
    """Divisor split X of the pair sum over (n, n + S], S = window.

    The divisor screen costs _SCREEN_NS per entry of (0, X]. The stride
    pass gathers about S ln(d1_max) entries at _GATHER_NS each and runs
    about d1_max iterations per window chunk at _STRIDE_NS each, with
    d1_max = (n + S) / X. The sum of the three is least where
    a X^2 - b X - c = 0 for a = _SCREEN_NS, b = _GATHER_NS * S and
    c = _STRIDE_NS * window_chunks * (n + S). X never falls below
    (n + S) // bound, which keeps every stride cofactor below the bound, nor
    so low that d1_max exceeds _MAX_COFACTORS."""
    a = _SCREEN_NS
    b = _GATHER_NS * window
    c = _STRIDE_NS * window_chunks * (n + window)
    x = (b + math.sqrt(b * b + 4 * a * c)) / (2 * a)
    return max(int(x), (n + window) // min(bound, _MAX_COFACTORS + 1))


class CorrectionPlan(NamedTuple):
    """The shape of one pairs_correction call: the divisor split X, the
    largest stride cofactor d1_max = (n + S) // (X + 1), the chunk length,
    the chunk jobs over (0, X] and (n, n + S], and the pool's workers."""
    split: int
    cofactors: int
    chunk: int
    chunks: int
    workers: int


def correction_plan(params, bound, threads=1, transforms=0):
    """The CorrectionPlan of pairs_correction over params.window = S, for a
    pool that runs its chunk jobs after `transforms` other jobs (a
    pipeline's transforms, queued first). X comes from _pair_split. Workers
    never exceed the jobs, and workers x chunk x _JOB_BYTES stays within
    _MEMORY_BUDGET, so the chunks held at once fit it; a transform job holds
    at most smooth_mobius._MEMORY_BUDGET. A window shorter than
    _POOL_WINDOW gets at most one worker. No jobs, no workers."""
    n, window = params.n, params.window
    chunk = _auto_chunk(window)
    window_chunks = -(-window // chunk)
    split = _pair_split(n, window, bound, window_chunks)
    chunks = -(-split // chunk) + window_chunks if window > 0 else 0
    budget = max(1, _MEMORY_BUDGET // (chunk * _JOB_BYTES))
    workers = min(threads, chunks + transforms, budget)
    if window < _POOL_WINDOW:
        workers = min(workers, 1)
    return CorrectionPlan(split, (n + window) // (split + 1), chunk, chunks,
                          workers)


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
                     pool=None):
    """Divisor-major evaluation of the pair error sum.

    Splits on the divisor value at X (correction_plan, which weighs the
    cost of the two sides): divisors d2 <= X come from a screen of (0, X]
    and each contributes a cofactor-interval count in O(1); larger divisors
    are m/d1 for cofactors d1 <= d1_max = (n + S) // (X + 1) < bound and
    come from stride slices of the screened window itself. Such d1 have no
    prime factor above the bound, so m/d1 is bound-smooth exactly when m
    is, and no pair is lost. S is params.window. Each d1 reads mu(m/d1) over
    its stride slice with one table gather from small per-entry codes (see
    _PairTable and _stride_cofactors).

    Without a weight, or with the unit weight, the sum is exact and split by
    the class of the product m mod `modulus`: a list of `modulus` ints whose
    entry c sums the products m = c, with 0 where gcd(c, modulus) > 1. The
    default modulus 1 gives the whole sum as a one-entry list. With any
    other weight h, the sum of h(m) over all products is returned as one
    residue per prime in `moduli`.

    Each chunk of (0, X] and of (n, n + S] is one job whose partial sums
    are added up in chunk order. The jobs run as the "correction" phase of
    `pool`, a JobPool that other jobs may share (correction_plan sizes it),
    or on the calling thread without one.
    """
    n = params.n
    window = params.window
    unit = weight is None or weight.is_unit
    width = modulus if unit else len(moduli)
    plan = correction_plan(params, bound)
    if not plan.chunks:
        return [0] * width if unit else (0,) * width
    top = params.top_cell
    split, chunk = plan.split, plan.chunk
    primes = sieve.primes_up_to(bound)
    pcells = segmentation.cell_index_vec(primes.astype(np.uint64), params)
    coprime = [c for c in range(modulus) if math.gcd(c, modulus) == 1]
    inv_table = _inverse_table(modulus)
    ramp = np.arange(modulus)

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
        cap = params.bounds[(top - kd2) + 1].astype(np.int64) - 1
        upper = np.minimum((n + window) // d2, cap)
        lower = n // d2
        # the cofactors of d2 are the k in (lower, upper]. Without this and the
        # window_job shortcut, 3 of 5 runs at 1e10 were 11-18% slower (2 CPUs)
        if unit and modulus == 1:
            return [int(np.dot(sd2.astype(np.int64),
                               np.maximum(upper - lower, 0)))]
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
            # h(d2) (H(upper) - H(lower)) mod p, signed by mu(d2)
            pref = weight.prefix_vec(upper.astype(np.uint64), p)
            pref += np.uint64(p)
            pref -= weight.prefix_vec(lower.astype(np.uint64), p)
            modmath.mod(pref, p, out=pref)
            pref *= weight.values_vec(d2, p)
            modmath.mod(pref, p, out=pref)
            part.append(int(np.dot(pref.astype(np.int64), sg)))
        return part

    # large divisors: stride over the window for each small cofactor d1
    table, lows, d1_info = _stride_cofactors(params, primes, pcells, plan,
                                             modulus)

    def window_job(lo, hi):
        part = [0] * width
        per_class = np.zeros(modulus, dtype=np.int64)
        smooth, kh, sign, sqfree, excess = sieve.screen_chunk(
            lo, hi, primes, pcells, want_excess=True,
            excess_cap=plan.cofactors + 1)
        kh -= top + lows
        code = table.codes(smooth, kh, sign, excess)
        # the stride pass reads only the codes: free the screen's 9 B per entry
        del smooth, kh, sign, sqfree, excess
        lookup = np.zeros(table.size, dtype=np.int8)
        for d1, start, cells, signs in d1_info:
            # the products m = d1 * k with k > X, from the first above lo
            if start > hi:
                break  # start grows with d1
            first = max(start, (lo // d1 + 1) * d1)
            if first > hi:
                continue
            # mu(m/d1) for each m = first + j * d1, 0 when (d1, m/d1) is no pair
            lookup[cells] = signs
            idx = code[first - (lo + 1)::d1]
            sg = np.empty(len(idx), dtype=np.int8)
            for a in range(0, len(idx), _GATHER_BLOCK):
                lookup.take(idx[a:a + _GATHER_BLOCK], out=sg[a:a + _GATHER_BLOCK])
            lookup[cells] = 0
            if unit:
                if modulus == 1:
                    per_class[0] += sg.sum(dtype=np.int64)
                    continue
                # sub-stride r holds the products of class first + r * d1
                tail = len(sg) % modulus
                cls = (first + d1 * ramp) % modulus
                per_class[cls] += sg[:len(sg) - tail].reshape(-1, modulus).sum(
                    axis=0, dtype=np.int64)
                per_class[cls[:tail]] += sg[len(sg) - tail:]
                continue
            j = np.flatnonzero(sg)
            m = (first + j * d1).astype(np.uint64)
            sj = sg[j].astype(np.int64)
            for i, p in enumerate(moduli):
                hv = weight.values_vec(m, p)  # h(d1) h(m/d1) = h(m)
                part[i] += int(np.dot(hv.astype(np.int64), sj))
        return per_class.tolist() if unit else part

    jobs = [(divisor_job, lo, min(lo + chunk, split))
            for lo in range(0, split, chunk)]
    jobs += [(window_job, lo, min(lo + chunk, n + window))
             for lo in range(n, n + window, chunk)]
    parts = (pool or JobPool(1)).map(
        "correction", lambda job: job[0](job[1], job[2]), jobs)
    sums = [sum(col) for col in zip(*parts)]
    if unit:
        # a product sharing a factor with the modulus is in no coprime class
        return [s if math.gcd(c, modulus) == 1 else 0 for c, s in enumerate(sums)]
    return tuple(s % p for s, p in zip(sums, moduli))


def _stride_cofactors(params, primes, pcells, plan, modulus):
    """(table, lows, info) of the window stride pass: the _PairTable of the
    cofactors d1 <= plan.cofactors, the least slack `lows`, and per d1
    coprime to the modulus whose cell passes the top, in ascending order,
    (d1, d1 * (X + 1), cells, signs) with the table entries that d1 sets.
    d1 < bound, so its screen row is complete."""
    top = params.top_cell
    d1_max = plan.cofactors
    d1s = np.arange(1, d1_max + 1, dtype=np.uint64)
    _, kd1s, sd1s, sq1s, _ = sieve.screen_chunk(0, d1_max, primes, pcells)
    kb1s = segmentation.cell_index_vec(d1s, params)
    keep = (kb1s <= top) & (np.gcd(d1s, np.uint64(modulus)) == 1)
    # m/d1 passes the cell test iff kh(m) - top <= slack(d1) = kd1 - kb1
    slack = kd1s.astype(np.int64) - kb1s
    lows = int(slack[keep].min(initial=0))
    band = int(slack[keep].max(initial=0)) - lows + 1
    table = _PairTable(sd1s * sq1s, d1_max, band)  # mu(1..d1_max)
    info = [(d1, d1 * (plan.split + 1)) + table.rows(d1, s - lows)
            for d1, s in zip(d1s[keep].tolist(), slack[keep].tolist())]
    return table, lows, info


class _PairTable:
    """Sign lookup of the window stride pass.

    m/d1 is square-free exactly when the excess e(m) = prod p^(a-1) divides
    d1, and then m/d1 = rad(m) / (d1/e(m)), so mu(m/d1) = sign(m) *
    mu(d1/e(m)). A window entry's code packs e (capped at d1_max + 1), the
    cell excess u = kh - top - lows (clamped to 0..band, band being above
    every slack) and the sign bit as (e * (band + 1) + u) * 2 + bit, and a
    non-smooth m gets 0. For one d1 the table holds sign * mu(d1/e) at the
    codes of the divisors e of d1 and the columns u <= slack(d1) - lows, and
    0 elsewhere. A job sets one d1's entries at a time in one flat table of
    (d1_max + 2) x 2 (band + 1) bytes, which stays small at every delta.
    """

    def __init__(self, mu, d1_max, band):
        self.shape = (d1_max + 2, 2 * (band + 1))
        self.size = self.shape[0] * self.shape[1]
        self.dtype = np.int16 if self.size <= 1 << 15 else np.int32
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
        """(cells, signs): the flat table entries of d1 and their values,
        the rows of its divisors e in the columns u <= width for both sign
        bits."""
        a, b = self.ends[d1 - 1], self.ends[d1]
        cols = np.arange(2 * width + 2)
        cells = (self.e[a:b, None] * self.shape[1] + cols).ravel()
        signs = np.multiply.outer(self.mu[a:b], 1 - 2 * (cols & 1)).ravel()
        return cells, signs.astype(np.int8)

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


# pairs per block of the triple correction, at least one row: 2^15 held
# 6.2 MB at 10^9 against 4.7 MB for 2^14 (tracemalloc) and ran no faster
_TRIPLE_BLOCK = 1 << 14


def _pair_blocks(first, cols):
    """(r, j) per block of about _TRIPLE_BLOCK pairs, cut from the cumulative
    row lengths: row r of the walk takes the columns j from first[r] on."""
    ends = np.cumsum(cols)
    cuts = np.unique(np.searchsorted(
        ends, np.arange(0, ends[-1], _TRIPLE_BLOCK), side="right"))
    for r0, r1 in zip(cuts, np.append(cuts[1:], len(cols))):
        c, e = cols[r0:r1], ends[r0:r1]
        yield (np.repeat(np.arange(r0, r1), c),
               np.arange(e[0] - c[0], e[-1]) + np.repeat(first[r0:r1] + c - e, c))


def triple_walks(params, trunc, mu_table):
    """(n + W, vals, walks, pairs): the square-free vals <= min(trunc,
    isqrt(n + W)), the (first, cols) of the two walks over them (see
    _pair_blocks) and the number of pairs they walk. Rows a = vals[r] take
    the columns b <= a with a^2 b <= n + W; rows d1 = r + 1 the columns e
    that leave room for a w > d1, w >= e, w <= trunc: d1 (d1 + 1) e <= n + W,
    d1 e^2 <= n + W and d1 e > n // trunc."""
    n = params.n
    n_hi = n + triple_window(params)
    mu = mu_table.values[:min(trunc, math.isqrt(n_hi)) + 1]
    vals = np.flatnonzero(mu).astype(np.int64)
    a = np.arange(len(vals))
    top_cols = np.minimum(a + 1, np.searchsorted(vals, n_hi // (vals * vals),
                                                 side="right"))
    d1 = np.arange(1, math.isqrt(n_hi) + 1, dtype=np.int64)
    first = np.searchsorted(vals, n // trunc // d1, side="right")
    # the float root may run one over isqrt: a spare column counts nothing
    root = np.sqrt(n_hi / d1).astype(np.int64) + 1
    last = np.searchsorted(vals, np.minimum(n_hi // (d1 * (d1 + 1)), root),
                           side="right")
    walks = [(np.zeros_like(a), top_cols), (first, np.maximum(last - first, 0))]
    return n_hi, vals, walks, sum(int(cols.sum()) for _, cols in walks)


def triples_correction(params, trunc, mu_table, plan=None):
    """Triple error sum: mu(d2) * mu(d3) over d1 * d2 * d3 in (n, n + W] with
    square-free d2, d3 <= trunc and cell indices summing to at most top_cell.

    Each triple is counted by its largest factor, in O(1) for each pair of
    the other two (triple_walks), up to the cap that the cell budget of the
    pair leaves: d1 >= d2, d3 in one interval, w = d2 > d1, w >= d3 and
    w = d3 > d1, w > d2 from the prefix sums of mu. `plan` is
    triple_walks(params, trunc, mu_table), built here when not given.
    """
    n = params.n
    n_hi, vals, walks, _ = plan or triple_walks(params, trunc, mu_table)
    top = params.top_cell
    signs = mu_table.values[vals].astype(np.int64)
    cells = segmentation.cell_index_vec(
        np.arange(1, math.isqrt(n_hi) + 1, dtype=np.uint64), params)
    kcells = cells[vals - 1]
    # cap[pad + r] = cell_top(r), the largest factor a cell budget r admits
    # (0 when r < 0); the other two factors have cells <= top + 2 and
    # kcells[-1], so no budget falls under -pad
    pad = top + 2 + 2 * int(kcells[-1])
    cap = np.concatenate([np.zeros(pad, dtype=np.int64),
                          params.bounds[1:top + 2].astype(np.int64) - 1])
    total = 0
    # d1 largest: rows a = vals[r], columns b = vals[j] <= a, d1 in
    # (max(n // q, a - 1), min(n_hi // q, cap)] for q = a b
    for r, j in _pair_blocks(*walks[0]):
        q = vals[r] * vals[j]
        lo = np.maximum(n // q, vals[r] - 1)
        hi = np.minimum(n_hi // q, cap[pad + top - kcells[r] - kcells[j]])
        # a pair a != b stands for (d2, d3) = (a, b) and (b, a)
        weight = signs[r] * signs[j] * (2 - (r == j))
        total += int(np.dot(weight, np.maximum(hi - lo, 0)))
    # d2 or d3 largest: rows d1 = r + 1, columns e = vals[j]
    prefix = mu_table.prefix
    cap = np.minimum(cap, trunc)
    for r, j in _pair_blocks(*walks[1]):
        d1, e = r + 1, vals[j]
        q = d1 * e
        hi = np.minimum(n_hi // q, cap[pad + top - cells[r] - kcells[j]])
        base = np.maximum(n // q, d1)
        # w = d3 > e = d2 and w = d2 >= e = d3 both run over (max(base, e),
        # hi]; w = d2 = d3 = e adds mu(e)^2 = 1 when base < e <= hi
        lo = np.minimum(np.maximum(base, e), hi)
        total += 2 * int(np.dot(signs[j], prefix[hi] - prefix[lo]))
        total += int(np.count_nonzero((base < e) & (e <= hi)))
    return total
