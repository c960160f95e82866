import math
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from primeconv import oracles
from primeconv import segmentation as seg
from primeconv import sieve


def trial_factor(n):
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


def odd_sieve_count(limit):
    # independent second implementation: odd-only bitmap
    if limit < 2:
        return 0
    size = (limit - 1) // 2  # odd numbers 3, 5, ..., <= limit
    mask = bytearray([1]) * size
    i = 0
    while True:
        p = 2 * i + 3
        if p * p > limit:
            break
        if mask[i]:
            start = (p * p - 3) // 2
            for j in range(start, size, p):
                mask[j] = 0
        i += 1
    return 1 + sum(mask)


def test_primes_up_to_examples():
    assert sieve.primes_up_to(10).tolist() == [2, 3, 5, 7]
    assert sieve.primes_up_to(1).tolist() == []
    assert sieve.primes_up_to(2).tolist() == [2]


def test_primes_up_to_is_whole_under_threads(monkeypatch):
    # rounds of four threads that sieve at once from a cold cache, switching
    # every microsecond: a call must not slice a shorter sieve that another
    # thread stored after this call found the cache too short
    whole = sieve.primes_up_to(400_000).copy()
    rng = random.Random(11)
    bad = []

    def call(limit):
        got = sieve.primes_up_to(limit)
        cut = np.searchsorted(whole, limit, side="right")
        if not np.array_equal(got, whole[:cut]):
            bad.append((limit, len(got), int(cut)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(1000):
            monkeypatch.setattr(sieve, "_prime_cache",
                                np.array([], dtype=np.int64))
            threads = [threading.Thread(target=call, args=(
                int(10 ** rng.uniform(3, math.log10(4e5))),))
                for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert not bad, bad[:5]


def test_primes_up_to_reads_the_cache_at_a_composite_limit(monkeypatch):
    # 99,989 is the largest prime up to 99,990: a second call at 99,990
    # reads the primes the first one sieved
    monkeypatch.setattr(sieve, "_prime_cache", np.array([], dtype=np.int64))
    sieves = []
    nonzero = np.nonzero

    def counted(a):
        sieves.append(len(a))
        return nonzero(a)

    monkeypatch.setattr(np, "nonzero", counted)
    first = sieve.primes_up_to(99_990)
    assert len(sieves) == 1 and first[-1] == 99_989
    assert np.array_equal(sieve.primes_up_to(99_990), first)
    assert len(sieves) == 1


def test_primes_up_to_1e6_count_two_routes():
    primes = sieve.primes_up_to(10 ** 6)
    assert len(primes) == 78498
    assert odd_sieve_count(10 ** 6) == 78498
    rng = random.Random(4)
    for _ in range(50):
        p = int(primes[rng.randrange(len(primes))])
        assert trial_factor(p) == [(p, 1)]


def test_mu_table_examples():
    mu = sieve.mu_up_to(6)
    assert mu.values[1:7].tolist() == [1, -1, -1, 0, -1, 1]
    assert mu.values[4] == 0
    assert mu.prefix_sum(1) == 1
    big = sieve.mu_up_to(10 ** 5)
    for n in random.Random(9).sample(range(1, 10 ** 5), 60):
        fac = trial_factor(n)
        expect = 0 if any(e > 1 for _, e in fac) else (-1) ** len(fac)
        if n == 1:
            expect = 1
        assert big.values[n] == expect


def test_mu_matches_the_naive_sieve():
    # only the primes up to isqrt(limit) are sieved; a square-free m keeps one
    # prime factor above it exactly when their product falls short of m.
    # 121 = 11^2 and 10,403 = 101 * 103 sit where that rule turns
    for limit in [*range(1, 2001), 121, 10_403, 10 ** 5, 316_228]:
        assert np.array_equal(sieve.mu_up_to(limit).values,
                              oracles.mu_naive(limit)), limit
    with pytest.raises(ValueError):
        sieve.mu_up_to(1 << 31)
    with pytest.raises(ValueError):
        sieve.mu_up_to(0)


def test_mu_matches_factorizations():
    mu = sieve.mu_up_to(10 ** 5)
    for n in range(1, 10 ** 5, 211):
        fac = trial_factor(n)
        sq = all(e == 1 for _, e in fac)
        expect = (-1) ** len(fac) if sq else 0
        assert mu.values[n] == expect


def _check_screen(params, bound, lo, hi, step, cap=(1 << 15) - 1):
    primes = sieve.primes_up_to(bound)
    pcells = seg.cell_index_vec(np.asarray(primes, dtype=np.uint64), params)
    smooth, kh, sign, sqfree, excess = sieve.screen_chunk(
        lo, hi, primes, pcells, want_excess=True, excess_cap=cap)
    for idx in range(0, hi - lo, step):
        n = lo + 1 + idx
        fac = trial_factor(n)
        is_smooth = all(p <= bound for p, _ in fac)
        assert smooth[idx] == is_smooth
        assert sqfree[idx] == all(e == 1 for p, e in fac if p <= bound)
        small = [(p, e) for p, e in fac if p <= bound]
        assert sign[idx] == (-1) ** len(small)
        exp_excess = 1
        for p, e in small:
            exp_excess *= p ** (e - 1)
        assert excess[idx] == min(exp_excess, cap)
        if is_smooth:
            assert kh[idx] == sum(e * seg.cell_index(p, params) for p, e in fac)


def test_screen_chunk_summaries():
    _check_screen(seg.make_params(10 ** 4, Fraction(1, 40)), 100, 5000, 6000, 7)


@pytest.mark.parametrize("cap", [1, 2, 7, 363, 40_000])
def test_screen_chunk_excess_saturates_at_its_cap(cap):
    # the excess is min(cap, prod p^(e-1)): caps below a prime, between its
    # powers and past 2^15 (a uint32 excess); 2^16 = 65536 and 3^10 = 59049
    # lie in the range, so 2^15 and 3^9 exceed the smaller caps
    params = seg.make_params(1 << 17, Fraction(1, 40))
    _check_screen(params, 300, 59_000, 66_000, 1, cap)
    seven = sieve.primes_up_to(7)
    _, _, _, _, excess = sieve.screen_chunk(
        0, 10, seven,
        seg.cell_index_vec(np.asarray(seven, dtype=np.uint64), params),
        want_excess=True, excess_cap=cap)
    assert excess.dtype == (np.uint16 if cap < 1 << 15 else np.uint32)


def test_screen_chunk_at_top_of_32_bits():
    # the last uint32 entry, 2^32 - 1 = 3 * 5 * 17 * 257 * 65537, is smooth
    # for a bound of 65537, so its sieved part reaches the dtype limit; the
    # sampled entries end at it
    hi = (1 << 32) - 1
    _check_screen(seg.make_params(1 << 33, Fraction(1, 40)), 65537,
                  hi - 601, hi, 5)


def test_screen_chunk_above_32_bits():
    # entries past 2^32 take the uint64 path; a bound of 2^16 leaves 32 of
    # the 120 sampled entries smooth, so the cell sums are checked too
    lo = (1 << 32) + 1000
    _check_screen(seg.make_params(1 << 33, Fraction(1, 40)), 1 << 16,
                  lo, lo + 600, 5)


def test_screen_chunk_coarsest_window_delta_smallest_bound():
    # delta = 1/65 is the coarsest unit fraction with delta * log2(n) < 1/4
    # at 2^16; there the gap condition already fails for the primes up to 2
    # and holds for those up to 3, so smoothness is read off a 3-smooth test
    # with the least margin
    n = 1 << 16
    delta = Fraction(1, 65)
    assert delta * 16 < Fraction(1, 4) <= Fraction(1, 64) * 16
    params = seg.make_params(n, delta)
    lo, hi = n - 1500, n + 1500
    two = sieve.primes_up_to(2)
    with pytest.raises(ValueError):
        sieve.screen_chunk(
            lo, hi, two,
            seg.cell_index_vec(np.asarray(two, dtype=np.uint64), params))
    _check_screen(params, 3, lo, hi, 1)


def test_screen_chunk_square_of_prime_above_bound():
    # 1009^2: no sieved prime divides it, so its cell sum is 0, and it must
    # not pass as smooth
    q = 1009
    assert sieve.primes_up_to(q)[-2:].tolist() == [997, q]
    params = seg.make_params(1 << 21, Fraction(1, 40))
    lo = q * q - 100
    primes = sieve.primes_up_to(1000)
    smooth, kh, *_ = sieve.screen_chunk(
        lo, lo + 200, primes,
        seg.cell_index_vec(np.asarray(primes, dtype=np.uint64), params))
    assert kh[q * q - lo - 1] == 0 and not smooth[q * q - lo - 1]
    _check_screen(params, 1000, lo, lo + 200, 1)


def test_screen_chunk_around_primorial_above_32_bits():
    # 2 * 3 * ... * 29 > 2^32 has ten distinct primes: the packed count
    # reaches 10 there and the sign stays +1
    primorial = 6_469_693_230
    assert primorial > 1 << 32
    params = seg.make_params(1 << 33, Fraction(1, 40))
    lo = primorial - 40
    primes = sieve.primes_up_to(1000)
    smooth, _, sign, sqfree, _ = sieve.screen_chunk(
        lo, lo + 80, primes,
        seg.cell_index_vec(np.asarray(primes, dtype=np.uint64), params))
    assert smooth[39] and sqfree[39] and sign[39] == 1
    _check_screen(params, 1000, lo, lo + 80, 1)


def test_screen_chunk_divisor_range_from_zero():
    # (0, 5000] spans the bit lengths 1..13, each with its own threshold
    _check_screen(seg.make_params(10 ** 4, Fraction(1, 40)), 70, 0, 5000, 1)


def test_screen_chunk_refuses_coarse_cells():
    # cells of width 1/4 leave too small a gap between smooth and non-smooth
    # cell sums below 10^6 for the primes up to 100
    params = seg.make_params(10 ** 6, Fraction(1, 4))
    primes = sieve.primes_up_to(100)
    with pytest.raises(ValueError):
        sieve.screen_chunk(
            10 ** 6 - 100, 10 ** 6, primes,
            seg.cell_index_vec(np.asarray(primes, dtype=np.uint64), params))
    with pytest.raises(ValueError):
        sieve.screen_chunk(0, 10, primes[:0], primes[:0])


def test_screen_chunk_memory_per_entry():
    n = 10 ** 10
    params = seg.make_params(n, seg.delta_default(n))
    primes = sieve.primes_up_to(10 ** 5)
    pcells = seg.cell_index_vec(np.asarray(primes, dtype=np.uint64), params)
    size = 1 << 20
    # measured: 9.0 bytes per entry with the 16-bit excess (the packed int32,
    # the excess, the sign, square-free and smooth bytes) and 7.0 without
    for want_excess, limit in ((True, 10), (False, 8)):
        tracemalloc.start()
        try:
            result = sieve.screen_chunk(n, n + size, primes, pcells,
                                        want_excess=want_excess,
                                        excess_cap=363)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert result[0].sum() > 0
        assert peak < limit * size, (want_excess, peak / size)
