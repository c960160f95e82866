import math
import random
from fractions import Fraction

import numpy as np
import pytest

import primeconv
from primeconv import counting, error_correction, modmath, oracles
from primeconv import segmentation

FAST = counting.Config(cutoff=500)


def test_count_primes_small_values():
    assert primeconv.count_primes(0) == 0
    assert primeconv.count_primes(1) == 0
    assert primeconv.count_primes(2) == 1
    assert primeconv.count_primes(100) == 25


def test_count_primes_main_path_boundary_band():
    # straddle the cutoff with the real pipeline forced on
    for n in (500, 501, 997, 1024, 4096, 65537):
        assert primeconv.count_primes(n, FAST) == oracles.pi_naive(n), n


def test_count_primes_random_mid_range():
    rng = random.Random(2024)
    for _ in range(6):
        n = rng.randrange(10 ** 5, 4 * 10 ** 6)
        assert primeconv.count_primes(n) == oracles.pi_naive(n), n


def test_count_primes_rejects_out_of_range():
    with pytest.raises(ValueError):
        primeconv.count_primes(-1)
    with pytest.raises(ValueError):
        primeconv.count_primes(10 ** 12 + 1)


def test_crt_consistency_across_modulus_pairs():
    n = 2 * 10 ** 5 + 7
    base = primeconv.count_primes(n)
    for pair in ((modmath.NTT_PRIMES[0], modmath.NTT_PRIMES[2]),
                 (modmath.NTT_PRIMES[1], modmath.NTT_PRIMES[2])):
        cfg = counting.Config(moduli=pair)
        assert primeconv.count_primes(n, cfg) == base


def test_sum_over_primes_examples():
    assert primeconv.sum_over_primes(100, 0) == 25
    assert primeconv.sum_over_primes(10, 1) == 17
    assert primeconv.sum_over_primes(2, 2) == 4
    for ell in (0, 1, 2):
        got = primeconv.sum_over_primes(3000, ell, FAST)
        assert got == oracles.sum_primes_naive(3000, ell)


def test_sum_over_primes_range_guard():
    with pytest.raises(counting.ResultRangeError):
        primeconv.sum_over_primes(10 ** 8, 4)


def test_count_primes_mod_examples():
    assert primeconv.count_primes_mod(100, 4, 1) == 11
    assert primeconv.count_primes_mod(100, 4, 3) == 13
    assert 11 + 13 + 1 == primeconv.count_primes(100)
    assert primeconv.count_primes_mod(100, 1, 0) == 25
    with pytest.raises(ValueError):
        primeconv.count_primes_mod(100, 4, 2)


def test_count_primes_mod_main_path_all_residues():
    for m in (3, 4, 5, 7, 8, 12, 30):
        n = 1500 + 37 * m
        for r in range(1, m + 1):
            if math.gcd(r % m if m > 1 else 1, m) != 1:
                continue
            got = primeconv.count_primes_mod(n, m, r % m, FAST)
            assert got == oracles.pi_mod_naive(n, m, r % m), (n, m, r)


def test_count_primes_mod_cross_identity():
    # summing over coprime residues plus primes dividing m recovers pi
    n = 10 ** 5 + 11
    for m in (4, 7, 12, 30):
        total = sum(primeconv.count_primes_mod(n, m, r, FAST)
                    for r in range(m) if math.gcd(r, m) == 1)
        dividing = sum(1 for p in (2, 3, 5, 7, 11, 13, 29)
                       if m % p == 0 and p <= n)
        assert total + dividing == primeconv.count_primes(n, FAST), m


def test_count_primes_mod_needs_compatible_pool():
    # phi = 6 forces the pool pair whose orders include a factor of three
    got = primeconv.count_primes_mod(2 * 10 ** 5, 7, 3, FAST)
    assert got == oracles.pi_mod_naive(2 * 10 ** 5, 7, 3)
    cfg = counting.Config(cutoff=500,
                          moduli=(modmath.NTT_PRIMES[0], modmath.NTT_PRIMES[1]))
    with pytest.raises(counting.ModulusSupportError):
        primeconv.count_primes_mod(2 * 10 ** 5, 7, 3, cfg)


def test_mertens_examples_and_random():
    assert primeconv.mertens(1) == 1
    assert primeconv.mertens(0) == 0
    assert primeconv.mertens(10) == -1
    rng = random.Random(5)
    for _ in range(5):
        n = rng.randrange(600, 2 * 10 ** 5)
        assert primeconv.mertens(n, FAST) == oracles.mertens_naive(n), n


def test_mertens_multi_examples():
    vals = [b.value for b in primeconv.mertens_multi([10, 7, 5], 10)]
    assert vals == [-1, -2, -2]
    single = primeconv.mertens_multi([1000], 32, FAST)[0].value
    assert single == primeconv.mertens(1000, FAST)
    same = [b.value for b in primeconv.mertens_multi([500, 500, 500], 23, FAST)]
    assert len(set(same)) == 1
    with pytest.raises(ValueError):
        primeconv.mertens_multi([200], 10)


def test_count_squarefree_examples_and_consistency():
    assert primeconv.count_squarefree(1) == 1
    assert primeconv.count_squarefree(0) == 0
    assert primeconv.count_squarefree(20) == 13
    rng = random.Random(6)
    for _ in range(4):
        n = rng.randrange(600, 10 ** 6)
        got = primeconv.count_squarefree(n, FAST)
        # direct inclusion-exclusion over square divisors
        mu = oracles.mu_naive(math.isqrt(n)).astype(np.int64)
        direct = sum(int(mu[d]) * (n // (d * d))
                     for d in range(1, math.isqrt(n) + 1))
        assert got == direct == oracles.sqfree_naive(n), n
    # OEIS A071172; the default config hands thresholds above the cutoff to
    # mertens_multi, a cutoff above sqrt(n) answers from the sieve alone
    assert primeconv.count_squarefree(10 ** 11) == 60792710280
    assert primeconv.count_squarefree(
        10 ** 11, counting.Config(cutoff=10 ** 6)) == 60792710280


def test_totient_sum_examples_and_random():
    assert primeconv.totient_sum(1) == 1
    assert primeconv.totient_sum(0) == 0
    assert primeconv.totient_sum(10) == 32
    rng = random.Random(7)
    for _ in range(4):
        n = rng.randrange(600, 3 * 10 ** 5)
        assert primeconv.totient_sum(n, FAST) == oracles.totient_sum_naive(n), n


def test_delta_scale_is_neutral_for_values():
    n = 250_000
    base = primeconv.count_primes(n)
    for scale in (Fraction(1, 2), Fraction(3, 4), Fraction(13, 10), Fraction(3, 2)):
        cfg = counting.Config(delta_scale=scale)
        assert primeconv.count_primes(n, cfg) == base, scale


def test_shrunk_window_matches_closed_form_window():
    # at the engine's delta both windows take the screen route
    for n in (200_000, 10 ** 7):
        delta = counting._pipeline_delta(n, counting.Config())
        params = segmentation.make_params(n, delta, need_window=True)
        full = segmentation.window_size(n, delta)
        assert params.window < full
        bound = math.isqrt(n)
        assert (error_correction.pairs_correction(params, bound)
                == error_correction.pairs_correction(params, bound,
                                                     window=full)), n


def test_engine_window_lengths():
    for n, expect in ((10 ** 8, 1_859_138), (10 ** 9, 6_722_164),
                      (10 ** 10, 27_669_229)):
        delta = counting._pipeline_delta(n, counting.Config())
        params = segmentation.make_params(n, delta, need_window=True)
        assert params.window == expect, n
        assert params.window <= segmentation.window_size(n, delta)


def test_cache_hit_reports_only_its_own_phases():
    counting._char_pipeline_cache.clear()
    n = 2 * 10 ** 5 + 3
    first = counting.count_primes_mod_result(n, 4, 1)
    second = counting.count_primes_mod_result(n, 4, 3)
    assert "convolution" in first.timings
    assert set(second.timings) == {"correction", "combine"}
    assert first.value + second.value + 1 == primeconv.count_primes(n)


def test_result_bundles_carry_provenance():
    r = counting.count_primes_result(200_000)
    assert r.function == "pi" and r.value == oracles.pi_naive(200_000)
    assert r.delta is not None and r.window is not None and r.moduli is not None
    assert set(r.timings) >= {"params", "primes", "convolution", "correction"}
    r = counting.sum_over_primes_result(100, 2)
    assert r.extra["power"] == 2


def test_weight_prefix_vectors():
    w = counting.MultiplicativeWeight.power(2)
    p = modmath.DEFAULT_MODULI[0]
    xs = np.array([0, 1, 2, 3, 10, 10 ** 6, 2 ** 34], dtype=np.uint64)
    got = w.prefix_vec(xs, p)
    for x, g in zip(xs.tolist(), got.tolist()):
        expect = x * (x + 1) * (2 * x + 1) // 6 % p
        assert g == expect
    unit = counting.MultiplicativeWeight.power(0)
    assert unit.is_unit


def test_character_tables_orthogonal():
    for m in (3, 4, 5, 7, 8, 12, 30):
        pair = counting._select_moduli(
            math.prod((q - 1) * q ** (e - 1)
                      for q, e in counting._factor_small(m)),
            counting.Config())
        chars, group = counting._character_weights(m, pair)
        p = pair[0]
        # row orthogonality: sum over n of chi(n) conj-chi'(n) = phi * [k==k']
        for a in range(len(chars)):
            for b in range(len(chars)):
                s = 0
                for n in range(m):
                    if math.gcd(n, m) != 1:
                        continue
                    va = int(chars[a]._tables[p][n])
                    vb = int(chars[b]._tables[p][pow(n, -1, m)])
                    s = (s + va * vb) % p
                assert s == (group.phi % p if a == b else 0), (m, a, b)


def test_thread_count_neutral_for_values():
    n = 300_000
    vals = {primeconv.count_primes(n, counting.Config(threads=t))
            for t in (1, 2, 4)}
    assert len(vals) == 1


def test_sum_over_primes_range_guard_spares_the_sieve_path():
    # below the cutoff the direct sieve answers exactly, whatever the power
    assert primeconv.sum_over_primes(100, 9) == oracles.sum_primes_naive(100, 9)
