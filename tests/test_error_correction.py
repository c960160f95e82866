import math
import random
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from primeconv import error_correction as ec
from primeconv import counting, modmath, oracles, segmentation as seg, sieve

P1, P2 = modmath.NTT_PRIMES[:2]
# the completely multiplicative weight h(m) = m
WEIGHT_N = counting.MultiplicativeWeight.power(1)


def test_empty_window_gives_zero():
    params = seg.make_params(1000, Fraction(1, 20000), need_window=True)
    assert params.window == 0
    assert ec.pairs_correction(params, math.isqrt(1000)) == [0]
    assert oracles.error_term_naive_pairs(1000, Fraction(1, 20000)) == 0
    assert ec.triple_window(params) == 0
    assert ec.triples_correction(params, 31, sieve.mu_up_to(31)) == 0
    assert oracles.error_term_naive_triples(1000, Fraction(1, 20000), 31) == 0


def test_pairs_against_exhaustive_oracle():
    n, delta = 1000, Fraction(1, 50)
    params = seg.make_params(n, delta, need_window=True)
    bound = math.isqrt(n)
    assert ec.pairs_correction(params, bound) == [oracles.error_term_naive_pairs(n, delta)]


def test_pairs_against_oracle_random_configs():
    rng = random.Random(23)
    for _ in range(12):
        n = rng.randrange(100, 3000)
        den = rng.randrange(5 * n.bit_length(), 400)
        delta = Fraction(1, den)
        params = seg.make_params(n, delta, need_window=True)
        bound = math.isqrt(n)
        expect = oracles.error_term_naive_pairs(n, delta)
        assert ec.pairs_correction(params, bound) == [expect], (n, delta)


@pytest.mark.parametrize("n, den", [(32, 41), (850, 262), (942, 306),
                                    (1255, 199), (2018, 468)])
def test_pairs_short_window_cofactor_split(n, den):
    # windows shorter than about sqrt(n): a stride cofactor d1 above isqrt(n)
    # could carry a prime factor above the bound, so the divisor screen must
    # reach (n + S) // bound for every pair to be counted
    delta = Fraction(1, den)
    params = seg.make_params(n, delta, need_window=True)
    bound = math.isqrt(n)
    assert (n + params.window) // (params.window + 1) > bound
    expect = oracles.error_term_naive_pairs(n, delta)
    assert ec.pairs_correction(params, bound) == [expect]
    # the per-class and the weighted stride pass at the same large d1
    for q in (4, 5):
        assert ec.pairs_correction(params, bound, modulus=q) == _class_vector(
            n, delta, q), q
    expect = oracles.error_term_naive_pairs(n, delta, h=lambda m: m)
    assert ec.pairs_correction(params, bound, weight=WEIGHT_N,
                               moduli=[P1, P2]) == (expect % P1, expect % P2)


@pytest.mark.parametrize("n, scale", [
    (3_000, 1), (10_007, 1), (20_000, 1), (49_999, 1), (80_000, 1),
    (120_000, 1), (200_000, 1), (300_000, 1), (150_000, Fraction(1, 4)),
    (99_613, Fraction(3, 2))])
def test_pairs_match_oracle_at_the_pipeline_precision(n, scale):
    # the pipeline's own delta (and one fine and one coarse --delta-scale),
    # where the cost-balanced split puts X below S at the larger n
    delta = counting._pipeline_delta(n, counting.Config(delta_scale=scale))
    params = seg.make_params(n, delta, need_window=True)
    bound = math.isqrt(n)
    plan = ec.correction_plan(params, bound)
    assert plan.cofactors < bound
    assert ec.pairs_correction(params, bound) == [
        oracles.error_term_naive_pairs(n, delta)], (n, scale, plan)


def test_plan_keeps_cofactors_small_and_codes_int16():
    # at the default precision over the supported range: every stride
    # cofactor stays below the bound, X reaches (n + S) // isqrt(n), and the
    # window codes fit int16
    for n in [10 ** k for k in range(5, 12)] + [3 * 10 ** k for k in range(5, 11)]:
        params = seg.make_params(
            n, counting._pipeline_delta(n, counting.Config()), need_window=True)
        bound = math.isqrt(n)
        plan = ec.correction_plan(params, bound)
        window = params.window
        assert plan.split >= (n + window) // bound, n
        assert plan.cofactors == (n + window) // (plan.split + 1) < bound, n
        primes = sieve.primes_up_to(bound)
        table, _, info = ec._stride_cofactors(
            params, primes,
            seg.cell_index_vec(np.asarray(primes, dtype=np.uint64), params),
            plan, 1)
        assert table.dtype == np.int16, (n, table.shape)
        assert [d1 for d1, *_ in info] == sorted(d1 for d1, *_ in info)


def test_pair_split_balances_the_cost_model():
    # X minimises a X + b ln((n + S) / X) + c / X over the allowed range,
    # with the constants of _pair_split
    n, window, chunks = 10 ** 10, 27_669_229, 8
    x = ec._pair_split(n, window, 10 ** 5, chunks)

    def cost(x):
        return (ec._SCREEN_NS * x
                + ec._GATHER_NS * window * math.log((n + window) / x)
                + ec._STRIDE_NS * chunks * (n + window) / x)

    assert cost(x) <= min(cost(x * 0.9), cost(x * 1.1))
    assert window // 8 < x < window
    # a window much shorter than sqrt(n) keeps the bound's floor
    assert ec._pair_split(10 ** 10, 1000, 10 ** 5, 1) >= (10 ** 10 + 1000) // 10 ** 5


def test_excess_identity_of_the_stride_pass():
    # m/d1 is square-free iff the excess e(m) = prod p^(a-1) divides d1, and
    # then mu(m/d1) = sign(m) * mu(d1/e(m)), sign(m) = (-1)^omega(m)
    limit = 2 * 10 ** 5
    mu = oracles.mu_naive(limit).astype(np.int64)
    excess = np.ones(limit + 1, dtype=np.int64)
    sign = np.ones(limit + 1, dtype=np.int64)
    for m in range(2, limit + 1):
        for p, a in oracles.factor_naive(m):
            excess[m] *= p ** (a - 1)
            sign[m] = -sign[m]
    for d1 in range(1, 401):
        m = d1 * np.arange(1, limit // d1 + 1)
        quotient = mu[m // d1]
        e = excess[m]
        divides = d1 % e == 0
        assert np.array_equal(quotient != 0, divides), d1
        assert np.array_equal(quotient[divides],
                              sign[m[divides]] * mu[d1 // e[divides]]), d1


def test_pair_table_reads_mu_of_the_cofactor():
    # d1_max = 5476, as at 3e7 under delta-scale 1/300, where the codes need
    # int32: each lookup is mu(m/d1) for a smooth m that passes the cell
    # test kh(m) - top <= slack(d1), and 0 otherwise
    d1_max, lows, band = 5476, -3, 4
    params = seg.make_params(1 << 21, Fraction(1, 40))
    primes = sieve.primes_up_to(1000)
    lo, hi = 3 * 10 ** 5, 3 * 10 ** 5 + 20000
    smooth, kh, sign, _, excess = sieve.screen_chunk(
        lo, hi, primes,
        seg.cell_index_vec(np.asarray(primes, dtype=np.uint64), params),
        want_excess=True, excess_cap=d1_max + 1)
    top = int(np.median(kh[smooth]))
    mu = oracles.mu_naive(hi).astype(np.int64)
    table = ec._PairTable(mu[1:d1_max + 1], d1_max, band)
    code = table.codes(smooth, kh - (top + lows), sign, excess)
    assert code.dtype == np.int32
    lookup = np.zeros(table.size, dtype=np.int8)
    rng = random.Random(5)
    for d1 in list(range(1, 60)) + rng.sample(range(60, d1_max + 1), 200):
        slack = rng.randrange(lows, lows + band)
        cells, signs = table.rows(d1, slack - lows)
        lookup[cells] = signs
        first = (lo // d1 + 1) * d1
        got = lookup.take(code[first - (lo + 1)::d1])
        lookup[cells] = 0
        m = np.arange(first, hi + 1, d1)
        i = m - (lo + 1)
        live = smooth[i] & (kh[i] - top <= slack)
        assert np.array_equal(got, np.where(live, mu[m // d1], 0)), d1
    assert not lookup.any()


def test_pairs_excess_above_every_cofactor():
    # d1_max = 21 here, and the window holds m = 99,792 = 21 * 4752 =
    # 2^4 * 3^4 * 7 * 11, whose excess 2^3 * 3^3 = 216 divides no d1 and
    # whose cell excess kh(m) - top = -3 passes the cell test of d1 = 21
    # (slack -1): saturated at d1_max rather than d1_max + 1, its excess
    # would pass (21, 4752) as a pair
    n, delta = 99_613, Fraction(1, 299)
    params = seg.make_params(n, delta, need_window=True)
    bound = math.isqrt(n)
    plan = ec.correction_plan(params, bound)
    assert plan.cofactors == (n + params.window) // (plan.split + 1) == 21
    assert 4752 > plan.split
    assert n < 99_792 <= n + params.window
    assert ec.pairs_correction(params, bound) == [
        oracles.error_term_naive_pairs(n, delta)]


def test_pairs_identity_with_dirichlet_reference():
    # segmented sum minus true Dirichlet sum equals the window correction
    rng = random.Random(31)
    for _ in range(10):
        n = rng.randrange(64, 2000)
        delta = Fraction(1, rng.randrange(5 * n.bit_length(), 300))
        params = seg.make_params(n, delta, need_window=True)
        top = params.top_cell
        bound = math.isqrt(n)
        primes = [int(p) for p in sieve.primes_up_to(bound)]
        cells = [seg.cell_index(p, params) for p in primes]
        muhat = np.zeros(top + 1, dtype=np.int64)

        def walk(i, k, sign):
            muhat[k] += sign
            for j in range(i, len(primes)):
                nk = k + cells[j]
                if nk > top:
                    continue
                walk(j + 1, nk, -sign)

        walk(0, 0, 1)
        tops = np.array([params.cell_top(top - k) for k in range(top + 1)],
                        dtype=np.int64)
        segmented = int(np.sum(muhat * tops))
        mus = oracles.mu_smooth_naive(n, bound).astype(np.int64)
        ones = np.ones(n + 1, dtype=np.int64)
        dirichlet = int(oracles.dirichlet_convolve_naive(ones, mus, n)[1:].sum())
        (corr,) = ec.pairs_correction(params, bound)
        assert segmented - dirichlet == corr, (n, delta)


def test_pair_prune_soundness_exhaustive():
    # the premise of error_window_size: a square-free divisor with fewer
    # than cell(m) - top - 1 prime factors fails the cell test
    n, delta = 5000, Fraction(1, 100)
    params = seg.make_params(n, delta, need_window=True)
    top = params.top_cell
    bound = math.isqrt(n)
    for m in range(n + 1, n + params.window + 1):
        ps = [p for p, _ in oracles.factor_naive(m) if p <= bound]
        need = seg.cell_index(m, params) - top - 1
        for mask in range(1 << len(ps)):
            omega = bin(mask).count("1")
            d = 1
            kd = 0
            for i, p in enumerate(ps):
                if mask >> i & 1:
                    d *= p
                    kd += seg.cell_index(p, params)
            passes = seg.cell_index(m // d, params) + kd <= top
            if omega < need:
                assert not passes, (m, d)


_AUTO_CHUNK = ec._auto_chunk


def _fixed_chunk(monkeypatch, chunk):
    """Make every correction plan chunks of `chunk` entries, or of the
    adaptive length for None."""
    monkeypatch.setattr(ec, "_auto_chunk", _AUTO_CHUNK if chunk is None
                        else lambda total: chunk)


def test_pairs_deterministic_across_chunking(monkeypatch):
    n, delta = 50000, Fraction(1, 600)
    params = seg.make_params(n, delta, need_window=True)
    bound = math.isqrt(n)
    vals = set()
    for chunk in (None, 1 << 12, 1 << 14, 977):
        _fixed_chunk(monkeypatch, chunk)
        vals.add(tuple(ec.pairs_correction(params, bound)))
    assert len(vals) == 1


def test_auto_chunk_is_capped():
    for total in (0, 1, 10 ** 5, 3 * 10 ** 7, 9 * 10 ** 7, 10 ** 12):
        assert ec._auto_chunk(total) <= 1 << 22, total
    # the default windows: S / 8 + 1 at 10^10, the cap at 10^11
    assert ec._auto_chunk(27_669_229) == 3_458_654
    assert ec._auto_chunk(90_019_696) == 1 << 22



def test_correction_workers_fit_the_memory_budget(monkeypatch):
    # JobPool.map records the worker count instead of starting threads
    seen = []

    def record(pool, phase, fn, items):
        seen.append((len(items), pool.workers))
        return [[0]] * len(items)

    monkeypatch.setattr(ec.JobPool, "map", record)
    n = 10 ** 10
    params = seg.make_params(
        n, counting._pipeline_delta(n, counting.Config()), need_window=True)
    bound = math.isqrt(n)
    # 11 default chunks of 3,458,654 entries: the budget admits four workers
    # however many threads are asked for; 37 chunks of 2^20 admit sixteen
    for chunk, threads, jobs, workers in ((None, 64, 11, 4), (None, 2, 11, 2),
                                          (1 << 20, 64, 37, 16)):
        seen.clear()
        _fixed_chunk(monkeypatch, chunk)
        plan = ec.correction_plan(params, bound, threads)
        assert (plan.chunks, plan.workers) == (jobs, workers)
        with ec.JobPool(workers) as pool:
            assert ec.pairs_correction(params, bound, pool=pool) == [0]
        assert seen == [(jobs, workers)], (chunk, threads)
        size = ec._auto_chunk(params.window)
        assert workers * size * ec._JOB_BYTES <= ec._MEMORY_BUDGET
        assert workers == threads or (
            (workers + 1) * size * ec._JOB_BYTES > ec._MEMORY_BUDGET)



def _chunks_and_workers(*args):
    plan = ec.correction_plan(*args)
    return plan.chunks, plan.workers


def test_pool_runs_transforms_beside_a_short_correction(monkeypatch):
    # two one-chunk ranges and the transform jobs queued ahead of them: the
    # pool gives each job a worker, up to the threads asked for, once the
    # window reaches _POOL_WINDOW
    n, delta = 6 * 10 ** 6, Fraction(1, 200)
    params = seg.make_params(n, delta, need_window=True)
    bound = math.isqrt(n)
    plan = ec.correction_plan(params, bound)
    assert params.window >= ec._POOL_WINDOW
    assert plan.split <= plan.chunk and plan.chunks == 2
    assert _chunks_and_workers(params, bound, 2, 1) == (2, 2)
    assert _chunks_and_workers(params, bound, 8, 3) == (2, 5)
    # a shorter window runs everything on one worker
    short = seg.make_params(200_000, delta, need_window=True)
    assert short.window < ec._POOL_WINDOW
    assert _chunks_and_workers(short, 447, 8, 3) == (2, 1)
    # the memory budget still caps a pool that holds transforms: four
    # workers at the default chunks of 10^10
    big = seg.make_params(10 ** 10, counting._pipeline_delta(
        10 ** 10, counting.Config()), need_window=True)
    assert _chunks_and_workers(big, 10 ** 5, 64, 2) == (11, 4)
    # a shared pool returns each job's own value, whatever runs beside it,
    # and times the phases apart
    expect = ec.pairs_correction(params, bound)
    _fixed_chunk(monkeypatch, 977)
    with ec.JobPool(2) as pool:
        other = pool.submit("convolution", sum, [1, 2])
        got = ec.pairs_correction(params, bound, pool=pool)
        assert other.result() == 3
    assert got == expect
    assert set(pool.seconds) == {"convolution", "correction"}


def test_job_pool_keeps_order_and_every_duration():
    # more workers than cores and a short switch interval: a lost update of
    # the shared phase sums would leave them below the jobs' own durations
    inner = []

    def job(i):
        t0 = time.perf_counter()
        time.sleep(0.005)
        inner.append(time.perf_counter() - t0)
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ec.JobPool(8) as pool:
            other = pool.submit("a", job, -1)
            got = pool.map("b", job, range(200))
            assert other.result(timeout=60) == -1
    finally:
        sys.setswitchinterval(interval)
    assert got == list(range(200))
    assert set(pool.seconds) == {"a", "b"}
    assert pool.seconds["a"] + pool.seconds["b"] >= sum(inner)


def test_correction_jobs_fit_their_byte_budget():
    # correction_plan counts _JOB_BYTES per chunk entry and worker; one worker
    # runs every job here, so the peak is that of the largest job; at 3e8
    # the window spans four chunks of 2^20
    n = 3 * 10 ** 8
    params = seg.make_params(
        n, counting._pipeline_delta(n, counting.Config()), need_window=True)
    bound = math.isqrt(n)
    sieve.primes_up_to(bound)
    chunk = ec._auto_chunk(params.window)
    for kwargs in ({}, {"weight": counting.MultiplicativeWeight.power(1),
                        "moduli": modmath.NTT_PRIMES[:2]}):
        tracemalloc.start()
        try:
            ec.pairs_correction(params, bound, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < ec._JOB_BYTES * chunk, (list(kwargs), peak / chunk)

def _class_vector(n, delta, q):
    """The per-class correction mod q from the exhaustive oracle: entry c
    sums the products m = c (mod q), and non-coprime classes are 0."""
    return [oracles.error_term_naive_pairs(n, delta, residue=(q, c))
            if math.gcd(c, q) == 1 else 0 for c in range(q)]


def test_pairs_weighted_and_residue_modes():
    n, delta = 4000, Fraction(1, 200)
    params = seg.make_params(n, delta, need_window=True)
    bound = math.isqrt(n)

    got = ec.pairs_correction(params, bound, weight=WEIGHT_N, moduli=[P1, P2])
    expect = oracles.error_term_naive_pairs(n, delta, h=lambda m: m)
    assert got == (expect % P1, expect % P2)

    # the exact path splits the products by their class mod q
    for q in (1, 3, 4, 30):
        got = ec.pairs_correction(params, bound, modulus=q)
        expect = _class_vector(n, delta, q)
        assert len(got) == q
        for c in range(q):
            assert got[c] == expect[c], (q, c)
    # the unit weight takes the same path
    unit = counting.MultiplicativeWeight.power(0)
    assert (ec.pairs_correction(params, bound, weight=unit, moduli=[P1, P2],
                                modulus=4) == _class_vector(n, delta, 4))


def test_pairs_thread_count_and_chunking_neutral(monkeypatch):
    # chunks of 977 split both the divisor range and the window into at
    # least 4 jobs, so 2 and 3 workers each take several of them
    n, delta = 200_000, Fraction(1, 200)
    params = seg.make_params(n, delta, need_window=True)
    bound = math.isqrt(n)
    assert params.window >= 4 * 977
    assert max(params.window, (n + params.window) // bound) >= 4 * 977
    modes = [({"modulus": q}, _class_vector(n, delta, q)) for q in (1, 3, 4, 30)]
    expect = oracles.error_term_naive_pairs(n, delta, h=lambda m: m)
    modes.append(({"weight": WEIGHT_N, "moduli": [P1, P2]},
                  (expect % P1, expect % P2)))
    for kwargs, expect in modes:
        for threads in (1, 2, 3):
            for chunk in (None, 977, 1 << 12):
                _fixed_chunk(monkeypatch, chunk)
                with ec.JobPool(threads) as pool:
                    got = ec.pairs_correction(params, bound, pool=pool,
                                              **kwargs)
                assert got == expect, (kwargs, threads, chunk)
    # divisor blocks of 61 entries: every divisor chunk spans many blocks and
    # ends in a partial one
    monkeypatch.setattr(ec, "_DIVISOR_BLOCK", 61)
    for kwargs, expect in modes:
        for chunk in (None, 977):
            _fixed_chunk(monkeypatch, chunk)
            got = ec.pairs_correction(params, bound, **kwargs)
            assert got == expect, (kwargs, chunk)


def test_triples_against_exhaustive_oracle():
    n, delta = 500, Fraction(1, 20)
    trunc = math.isqrt(n)
    params = seg.make_params(n, delta)
    mu = sieve.mu_up_to(trunc)
    expect = oracles.error_term_naive_triples(n, delta, trunc)
    assert ec.triples_correction(params, trunc, mu) == expect


def test_triples_random_configs_and_fast_agreement():
    rng = random.Random(77)
    for _ in range(8):
        n = rng.randrange(100, 1500)
        delta = Fraction(1, rng.randrange(4 * n.bit_length(), 200))
        trunc = math.isqrt(n) + rng.randrange(0, 5)
        params = seg.make_params(n, delta)
        mu = sieve.mu_up_to(max(trunc, 1))
        expect = oracles.error_term_naive_triples(n, delta, trunc)
        assert ec.triples_correction(params, trunc, mu) == expect, (n, delta)


@pytest.mark.parametrize("seed", [1, 7, 10 ** 3, 10 ** 6])
def test_triples_random_truncations_match_oracle(seed):
    # from trunc = ceil(sqrt(n)) up to 4n: past isqrt(n + W) no pair gains a
    # column, while the largest factor w runs up to min(trunc, n + W)
    rng = random.Random(seed)
    for _ in range(6):
        n = rng.randrange(100, 1500)
        delta = Fraction(1, rng.randrange(4 * n.bit_length(), 200))
        root = math.isqrt(n) + 1
        trunc = rng.choice([root, rng.randrange(root, n), 4 * n])
        params = seg.make_params(n, delta)
        mu = sieve.mu_up_to(trunc)
        expect = oracles.error_term_naive_triples(n, delta, trunc)
        assert ec.triples_correction(params, trunc, mu) == expect, (n, delta, trunc)


@pytest.mark.parametrize("a, b, c", [(30, 30, 30), (30, 30, 29), (30, 30, 31),
                                     (29, 31, 31), (2, 101, 101)])
def test_triples_with_tied_factors_match_oracle(a, b, c):
    # n just below a * b * c puts that product in the window: a triple whose
    # largest factor is tied (d1 = d2 = d3, d1 = d2 or d2 = d3) must be
    # counted once, with each ordering of (d2, d3) once
    n, delta = a * b * c - 1, Fraction(1, 64)
    params = seg.make_params(n, delta)
    assert a * b * c <= n + ec.triple_window(params)
    cells = sum(seg.cell_index(d, params) for d in (a, b, c))
    assert cells <= params.top_cell  # the tied triple itself is counted
    for trunc in (math.isqrt(n) + 1, c, 4 * n):
        mu = sieve.mu_up_to(trunc)
        expect = oracles.error_term_naive_triples(n, delta, trunc)
        assert ec.triples_correction(params, trunc, mu) == expect, trunc


def test_triples_pinned_at_the_pipeline_delta():
    # values of the earlier two-half count, at sizes beyond the oracle
    for n, expect in ((10 ** 8, -111), (10 ** 9, -4334), (10 ** 10, 3721)):
        trunc = math.isqrt(n - 1) + 1
        params = seg.make_params(
            n, counting._pipeline_delta(n, counting.DEFAULT_CONFIG))
        assert ec.triples_correction(params, trunc, sieve.mu_up_to(trunc)) == expect


def test_triples_memory_stays_chunked():
    # blocks are cut from the cumulative row lengths: sized by their first
    # row, the d1-largest rows (which grow with a) fell into one block
    n = 10 ** 9
    trunc = math.isqrt(n) + 1
    params = seg.make_params(n, counting._pipeline_delta(n, counting.DEFAULT_CONFIG))
    mu = sieve.mu_up_to(trunc)
    tracemalloc.start()
    try:
        ec.triples_correction(params, trunc, mu)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 << 20, peak


def test_triples_identity_with_dirichlet_reference():
    rng = random.Random(3)
    for _ in range(6):
        n = rng.randrange(100, 2000)
        delta = Fraction(1, rng.randrange(4 * n.bit_length(), 200))
        trunc = math.isqrt(n)
        params = seg.make_params(n, delta)
        top = params.top_cell
        mu = sieve.mu_up_to(max(trunc, 1))
        cells = seg.cell_index_vec(np.arange(1, trunc + 1, dtype=np.uint64),
                                   params)
        mubar = np.zeros(top + 1, dtype=np.int64)
        for v in range(1, trunc + 1):
            mubar[cells[v - 1]] += mu.values[v]
        conv2 = np.convolve(mubar, mubar)[:top + 1]
        tops = np.array([params.cell_top(top - k) for k in range(top + 1)],
                        dtype=np.int64)
        segmented = int(np.sum(conv2 * tops))
        mut = np.zeros(n + 1, dtype=np.int64)
        mut[1:trunc + 1] = mu.values[1:trunc + 1]
        ones = np.ones(n + 1, dtype=np.int64)
        inner = oracles.dirichlet_convolve_naive(mut, mut, n)
        dirichlet = int(oracles.dirichlet_convolve_naive(inner, ones, n)[1:].sum())
        corr = ec.triples_correction(params, trunc, mu)
        assert segmented - dirichlet == corr, (n, delta)


def test_triple_window_cell_band():
    # all cell sums of divisor triples inside the window stay within two of
    # the element's own cell
    n, delta = 600, Fraction(1, 40)
    params = seg.make_params(n, delta)
    win = ec.triple_window(params)
    for m in range(n + 1, n + win + 1):
        kn = seg.cell_index(m, params)
        divisors = [d for d in range(1, m + 1) if m % d == 0]
        for d2 in divisors:
            for d3 in divisors:
                if (m // d2) % d3:
                    continue
                d1 = m // (d2 * d3)
                ks = (seg.cell_index(d1, params) + seg.cell_index(d2, params)
                      + seg.cell_index(d3, params))
                assert kn - 2 <= ks <= kn


def test_triples_symmetry_of_oracle():
    # the naive triple enumeration is symmetric in the two Mobius slots
    val = oracles.error_term_naive_triples(300, Fraction(1, 40), 17)
    # swapping d2/d3 is a relabeling of the same sum; value is an integer
    assert isinstance(val, int)
