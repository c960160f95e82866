import dataclasses
import gc
import inspect
import math
import os
import random
import sys
import threading
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

import primeconv
from primeconv import counting, error_correction, modmath, oracles
from primeconv import segmentation, sieve


def test_count_primes_small_values():
    assert primeconv.count_primes(0) == 0
    assert primeconv.count_primes(1) == 0
    assert primeconv.count_primes(2) == 1
    assert primeconv.count_primes(100) == 25


def test_count_primes_main_path_boundary_band(cutoff):
    # straddle the cutoff with the real pipeline forced on
    cutoff(500)
    for n in (500, 501, 997, 1024, 4096, 65537):
        assert primeconv.count_primes(n) == oracles.pi_naive(n), n


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


def test_crt_consistency_across_modulus_pairs(monkeypatch):
    # pi(n) needs one prime here: rotating the pool order makes each pool
    # prime the single prime of one run
    n = 2 * 10 ** 5 + 7
    base = primeconv.count_primes(n)
    pool = modmath.NTT_PRIMES
    for i in range(len(pool)):
        monkeypatch.setattr(modmath, "NTT_PRIMES", pool[i:] + pool[:i])
        bundle = counting.count_primes_result(n)
        assert bundle.moduli == (pool[i],)
        assert bundle.value == base


def test_sum_over_primes_examples(cutoff):
    cutoff(500)
    assert primeconv.sum_over_primes(100, 0) == 25
    assert primeconv.sum_over_primes(10, 1) == 17
    assert primeconv.sum_over_primes(2, 2) == 4
    for ell in (0, 1, 2):
        got = primeconv.sum_over_primes(3000, ell)
        assert got == oracles.sum_primes_naive(3000, ell)


def test_sum_over_primes_range_guard():
    with pytest.raises(counting.ResultRangeError):
        primeconv.sum_over_primes(10 ** 8, 4)


def test_sum_over_primes_on_three_primes():
    # sum of p^3 up to 10^6 may reach about 10^23: all three pool primes
    bundle = counting.sum_over_primes_result(10 ** 6, 3)
    assert bundle.moduli == modmath.NTT_PRIMES
    assert bundle.value == oracles.sum_primes_naive(10 ** 6, 3)


def test_result_moduli_are_the_fewest_the_bound_needs(cutoff):
    # the bounds: pi(x) <= 13 x // (10 floor(ln x)), which lies above
    # Rosser-Schoenfeld's 1.25506 x / ln x; a sum of p^l is at most that
    # times x^l; |M(x)| <= x at the largest threshold of mertens_multi
    n = 200_000
    pool = modmath.NTT_PRIMES
    pi_bound = 13 * n // (10 * int(math.log(n)))

    def fewest(bound):
        k = next(k for k in range(1, len(pool) + 1)
                 if math.prod(pool[:k]) > 2 * bound)
        return pool[:k]

    cases = [
        (counting.count_primes_result(n), pi_bound, 1),
        (counting.sum_over_primes_result(n, 1), pi_bound * n, 2),
        (counting.sum_over_primes_result(n, 2), pi_bound * n ** 2, 2),
        (counting.sum_over_primes_result(n, 3), pi_bound * n ** 3, 3),
        (counting.count_primes_mod_result(n, 4, 3), pi_bound, 1),
        (counting.mertens_result(n), n, 1),
        (counting.totient_sum_result(n), n, 1)]
    # squarefree with cutoff 100 takes thresholds up to isqrt(n) = 447
    cutoff(100)
    cases.append((counting.count_squarefree_result(n), math.isqrt(n), 1))
    for bundle, bound, k in cases:
        assert bundle.moduli == fewest(bound), bundle.function
        assert len(bundle.moduli) == k, bundle.function


def test_count_primes_mod_examples():
    assert primeconv.count_primes_mod(100, 4, 1) == 11
    assert primeconv.count_primes_mod(100, 4, 3) == 13
    assert 11 + 13 + 1 == primeconv.count_primes(100)
    assert primeconv.count_primes_mod(100, 1, 0) == 25
    with pytest.raises(ValueError):
        primeconv.count_primes_mod(100, 4, 2)


def test_count_primes_mod_main_path_all_residues(cutoff):
    cutoff(500)
    for m in (3, 4, 5, 7, 8, 12, 30):
        n = 1500 + 37 * m
        for r in range(1, m + 1):
            if math.gcd(r % m if m > 1 else 1, m) != 1:
                continue
            got = primeconv.count_primes_mod(n, m, r % m)
            assert got == oracles.pi_mod_naive(n, m, r % m), (n, m, r)


def test_count_primes_mod_cross_identity(cutoff):
    # summing over coprime residues plus primes dividing m recovers pi
    cutoff(500)
    n = 10 ** 5 + 11
    for m in (4, 7, 12, 30):
        total = sum(primeconv.count_primes_mod(n, m, r)
                    for r in range(m) if math.gcd(r, m) == 1)
        dividing = sum(1 for p in (2, 3, 5, 7, 11, 13, 29)
                       if m % p == 0 and p <= n)
        assert total + dividing == primeconv.count_primes(n), m


def test_count_primes_mod_needs_compatible_pool(cutoff):
    cutoff(500)
    # lambda(7) = 6 forces the pool primes whose orders include a factor of
    # three
    got = primeconv.count_primes_mod(2 * 10 ** 5, 7, 3)
    assert got == oracles.pi_mod_naive(2 * 10 ** 5, 7, 3)
    # lambda(11) = 10 divides p - 1 for one pool prime only: enough where one
    # prime covers pi(n), and refused before any work where n needs two
    bundle = counting.count_primes_mod_result(2 * 10 ** 5, 11, 3)
    assert bundle.moduli == (modmath.NTT_PRIMES[0],)
    assert bundle.value == oracles.pi_mod_naive(2 * 10 ** 5, 11, 3)
    with pytest.raises(counting.ModulusSupportError):
        primeconv.count_primes_mod(10 ** 11, 11, 3)


def test_count_primes_mod_selects_primes_by_the_character_exponent():
    # (Z/63)* = C6 x C6: its 36 characters take sixth roots of unity, so
    # the pool primes need 6 | p - 1 (lambda(63) = 6), not 36 | p - 1
    n = 2 * 10 ** 5
    counts = {r: primeconv.count_primes_mod(n, 63, r)
              for r in range(63) if math.gcd(r, 63) == 1}
    assert len(counts) == 36
    for r, got in counts.items():
        assert got == oracles.pi_mod_naive(n, 63, r), r
    # the primes 3 and 7 divide 63
    assert sum(counts.values()) + 2 == primeconv.count_primes(n)


def test_mertens_examples_and_random(cutoff):
    cutoff(500)
    assert primeconv.mertens(1) == 1
    assert primeconv.mertens(0) == 0
    assert primeconv.mertens(10) == -1
    rng = random.Random(5)
    for _ in range(5):
        n = rng.randrange(600, 2 * 10 ** 5)
        assert primeconv.mertens(n) == oracles.mertens_naive(n), n


def test_mertens_multi_examples(cutoff):
    cutoff(500)
    vals = [b.value for b in primeconv.mertens_multi([10, 7, 5], 10)]
    assert vals == [-1, -2, -2]
    single = primeconv.mertens_multi([1000], 32)[0].value
    assert single == primeconv.mertens(1000)
    same = [b.value for b in primeconv.mertens_multi([500, 500, 500], 23)]
    assert len(set(same)) == 1
    with pytest.raises(ValueError):
        primeconv.mertens_multi([200], 10)


def test_mertens_multi_many_thresholds():
    # thresholds far below trunc^2 reach the triple walks with trunc >> sqrt(n)
    rng = random.Random(8)
    ns = [rng.randrange(10 ** 4 + 1, 10 ** 6 + 1) for _ in range(20)]
    got = [b.value for b in primeconv.mertens_multi(ns, 1000)]
    assert got == oracles.mertens_naive(max(ns), ns)


def test_mertens_bundles_carry_the_triple_pairs():
    # counting each triple by its largest factor walks about 2.2 (n + W)^(2/3)
    # pairs of the other two
    for n, expect in ((10 ** 8, 441_909), (10 ** 9, 2_128_743)):
        bundle = primeconv.mertens_result(n)
        pairs = bundle.extra["triple_pairs"]
        assert pairs == expect, (n, pairs)
        assert pairs <= 3 * (n + bundle.window) ** (2 / 3), (n, pairs)
    bundles = primeconv.mertens_multi([10 ** 6, 3 * 10 ** 5], 1000)
    assert [b.extra["triple_pairs"] for b in bundles] == [18_181, 9_036]


def test_mertens_multi_walks_the_triples_once_per_threshold(monkeypatch):
    built = []
    walks = error_correction.triple_walks

    def counted(params, trunc, mu_table):
        built.append(params.n)
        return walks(params, trunc, mu_table)

    monkeypatch.setattr(error_correction, "triple_walks", counted)
    ns = [10 ** 6, 500, 3 * 10 ** 5, 10 ** 6, 1000, 1001]
    bundles = primeconv.mertens_multi(ns, 1000)
    assert sorted(built) == [1001, 3 * 10 ** 5, 10 ** 6]
    assert [b.value for b in bundles] == [
        oracles.mertens_naive(n) for n in ns]
    # the walk handed in is the walk triples_correction builds itself
    params = segmentation.make_params(10 ** 6, bundles[0].delta)
    mu = sieve.mu_up_to(1000)
    assert (error_correction.triples_correction(params, 1000, mu)
            == error_correction.triples_correction(
                params, 1000, mu, walks(params, 1000, mu)))


def test_mertens_multi_sums_mu_once_per_call(monkeypatch):
    # every threshold's triple correction reads the one prefix array of the
    # MuTable that mertens_multi hands it
    sums = []  # lengths of the cumulative sums taken over mu values
    cumsum = np.cumsum

    def counted(a, *args, **kwargs):
        if np.asarray(a).dtype == np.int8:
            sums.append(len(a))
        return cumsum(a, *args, **kwargs)

    monkeypatch.setattr(np, "cumsum", counted)
    ns = [10 ** 6, 3 * 10 ** 5, 2 * 10 ** 5]
    bundles = primeconv.mertens_multi(ns, 1000)
    assert sums == [1001]
    assert [b.value for b in bundles] == [
        oracles.mertens_naive(n) for n in ns]
    # given a table whose prefix exists, triples_correction sums no mu
    mu = sieve.mu_up_to(1000)
    assert len(mu.prefix) == 1001
    sums.clear()
    params = segmentation.make_params(10 ** 6, bundles[0].delta)
    error_correction.triples_correction(params, 1000, mu)
    assert sums == []


def test_every_function_answers_without_the_oracles(monkeypatch):
    # below the cutoff the production sieves answer, so the oracles stay a
    # second route: a call that reached one would raise here
    ns = (0, 1, 2, 1000, 99_999)
    cases = [(primeconv.count_primes, (), oracles.pi_naive),
             (primeconv.sum_over_primes, (1,), oracles.sum_primes_naive),
             (primeconv.sum_over_primes, (16,), oracles.sum_primes_naive),
             (primeconv.count_primes_mod, (60, 7), oracles.pi_mod_naive),
             (primeconv.count_primes_mod, (1, 0), oracles.pi_mod_naive),
             (primeconv.mertens, (), oracles.mertens_naive),
             (lambda n: primeconv.mertens_multi([n], max(n, 1))[0].value, (),
              oracles.mertens_naive),
             (primeconv.count_squarefree, (), oracles.sqfree_naive),
             (primeconv.totient_sum, (), oracles.totient_sum_naive)]
    expect = [[oracle(n, *args) for n in ns] for _, args, oracle in cases]

    def refuse(*args, **kwargs):
        raise AssertionError("production code called an oracle")

    for name, obj in vars(oracles).items():
        if inspect.isfunction(obj) and obj.__module__ == oracles.__name__:
            monkeypatch.setattr(oracles, name, refuse)
    for (fn, args, _), values in zip(cases, expect):
        for n, value in zip(ns, values):
            assert fn(n, *args) == value, (fn.__name__, args, n)


def test_mertens_published_values():
    # OEIS A084237
    assert primeconv.mertens(10 ** 8) == 1928
    assert primeconv.mertens(10 ** 9) == -222


def test_count_squarefree_examples_and_consistency(cutoff):
    assert primeconv.count_squarefree(1) == 1
    assert primeconv.count_squarefree(0) == 0
    assert primeconv.count_squarefree(20) == 13
    # OEIS A071172; the default cutoff hands thresholds above it to
    # mertens_multi, a cutoff above sqrt(n) answers from the sieve alone
    assert primeconv.count_squarefree(10 ** 11) == 60792710280
    cutoff(10 ** 6)
    assert primeconv.count_squarefree(10 ** 11) == 60792710280
    rng = random.Random(6)
    # cutoff 10 sieves mu below icbrt(n) and hands the thresholds above it
    # to mertens_multi
    for k in (500, 10):
        cutoff(k)
        for _ in range(4):
            n = rng.randrange(600, 10 ** 6)
            got = primeconv.count_squarefree(n)
            # direct inclusion-exclusion over square divisors
            mu = oracles.mu_naive(math.isqrt(n)).astype(np.int64)
            direct = sum(int(mu[d]) * (n // (d * d))
                         for d in range(1, math.isqrt(n) + 1))
            assert got == direct == oracles.sqfree_naive(n), (n, k)


def test_squarefree_thresholds_take_the_pipeline_delta(monkeypatch):
    # the thresholds above the mu sieve reach mertens_multi at the pipeline
    # delta of the largest one, isqrt(10^11) = 316227, so delta_scale
    # reaches them too
    assert "delta" not in inspect.signature(primeconv.mertens_multi).parameters
    deltas = []
    make = segmentation.make_params

    def recorded(n, delta, *args, **kwargs):
        deltas.append(delta)
        return make(n, delta, *args, **kwargs)

    monkeypatch.setattr(segmentation, "make_params", recorded)
    for scale in (1, 2):
        cfg = counting.Config(delta_scale=scale)
        deltas.clear()
        assert primeconv.count_squarefree(10 ** 11, cfg) == 60792710280
        assert deltas == [counting._pipeline_delta(316227, cfg)], scale


def test_totient_sum_examples_and_random(cutoff):
    cutoff(500)
    assert primeconv.totient_sum(1) == 1
    assert primeconv.totient_sum(0) == 0
    assert primeconv.totient_sum(10) == 32
    rng = random.Random(7)
    for _ in range(4):
        n = rng.randrange(600, 3 * 10 ** 5)
        assert primeconv.totient_sum(n) == oracles.totient_sum_naive(n), n


def test_delta_scale_is_neutral_for_values():
    n = 250_000
    base = primeconv.count_primes(n)
    for scale in (Fraction(1, 2), Fraction(3, 4), Fraction(13, 10), Fraction(3, 2)):
        cfg = counting.Config(delta_scale=scale)
        assert primeconv.count_primes(n, cfg) == base, scale


@pytest.mark.slow
def test_fine_delta_scale_short_window_is_exact():
    # at scale 1/115 the window (2162) is shorter than sqrt(n), so stride
    # cofactors up to (n + S) // (S + 1) = 2774 would pass isqrt(n) = 2449
    cfg = counting.Config(delta_scale=Fraction(1, 115))
    assert primeconv.count_primes(6 * 10 ** 6, cfg) == 412849


def test_shrunk_window_matches_closed_form_window():
    # the primorial-bounded window and the wider window (n, 2n], inside the
    # boundary table, give one correction
    for n in (200_000, 10 ** 7):
        delta = counting._pipeline_delta(n, counting.Config())
        params = segmentation.make_params(n, delta, need_window=True)
        assert params.window < n
        bound = math.isqrt(n)
        assert (error_correction.pairs_correction(params, bound)
                == error_correction.pairs_correction(
                    dataclasses.replace(params, window=n), bound)), n


def test_engine_window_lengths():
    # the default precision, and two other delta scales
    for n, scale, expect in ((10 ** 8, 1, 1_859_138), (10 ** 9, 1, 6_722_164),
                             (10 ** 10, 1, 27_669_229),
                             (10 ** 11, 1, 90_019_696),
                             (10 ** 8, 2, 3_752_841),
                             (10 ** 9, Fraction(1, 2), 3_428_900)):
        delta = counting._pipeline_delta(
            n, counting.Config(delta_scale=scale))
        params = segmentation.make_params(n, delta, need_window=True)
        assert params.window == expect, (n, scale)


def test_coarse_delta_scale_is_exact(cutoff):
    # at delta scale 2 the window comes from the cell scan alone
    cutoff(1000)
    cfg = counting.Config(delta_scale=2)
    assert primeconv.count_primes(10 ** 6, cfg) == 78498
    for n in (10 ** 6, 10 ** 7):
        assert primeconv.count_primes(n, cfg) == oracles.pi_naive(n), n
        assert (primeconv.sum_over_primes(n, 1, cfg)
                == oracles.sum_primes_naive(n, 1)), n
        assert (primeconv.count_primes_mod(n, 4, 3, cfg)
                == oracles.pi_mod_naive(n, 4, 3)), n


def test_coarse_delta_grid_is_exact_or_refused(cutoff):
    # a coarse delta either answers exactly or is refused with ValueError
    # by a check the mathematics needs (the screen's gap condition, delta <=
    # 1/2 for the transforms, delta <= 1 for the segmentation); none of
    # these calls returns a wrong value
    calls = ((primeconv.count_primes, (), oracles.pi_naive),
             (primeconv.sum_over_primes, (1,), oracles.sum_primes_naive),
             (primeconv.count_primes_mod, (4, 3), oracles.pi_mod_naive))
    cutoff(2)  # n = 9 takes the pipeline
    exact = refused = 0
    for n in (9, 100, 5000, 60_000, 400_000):
        for scale in (Fraction(3, 2), 3, 8, 64):
            cfg = counting.Config(delta_scale=scale)
            for fn, args, oracle in calls:
                try:
                    got = fn(n, *args, cfg)
                except ValueError:
                    refused += 1
                    continue
                assert got == oracle(n, *args), (fn.__name__, n, scale)
                exact += 1
    assert exact >= refused > 0


def test_cache_hit_reports_the_pass_it_reads(monkeypatch):
    # every residue of one (n, modulus, Config) reads one cached pass, and
    # its bundle reports that pass's timings and counters
    counting._residue_pass.cache_clear()
    calls = []
    for module, name in ((error_correction, "pairs_correction"),
                         (modmath, "ntt_forward")):
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    n = 2 * 10 ** 5 + 3
    first = counting.count_primes_mod_result(n, 4, 1)
    assert calls.count("pairs_correction") == 1
    assert calls.count("ntt_forward") > 0
    ran = len(calls)
    second = counting.count_primes_mod_result(n, 4, 3)
    assert len(calls) == ran
    assert {"convolution", "correction", "combine"} <= set(first.timings)
    assert second.timings == first.timings
    for key in ("correction_chunks", "correction_workers",
                "forward_transforms"):
        assert second.extra[key] == first.extra[key], key
    assert second.extra == {**first.extra, "residue": 3}
    assert first.value == oracles.pi_mod_naive(n, 4, 1)
    assert second.value == oracles.pi_mod_naive(n, 4, 3)
    # another Config runs a pass of its own, to the same value
    third = counting.count_primes_mod_result(
        n, 4, 3, counting.Config(delta_scale=Fraction(3, 4)))
    assert calls.count("pairs_correction") == 2
    assert third.value == second.value


def test_residue_pass_keeps_no_character_tables():
    # the cached pass holds its class counts, not the phi x m character
    # tables that produced them (2.6 MB at m = 512 when they were kept)
    counting._residue_pass.cache_clear()
    n, m = 200_003, 512
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        first = primeconv.count_primes_mod(n, m, 1)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert held < 1 << 20, held
    counts = {r: primeconv.count_primes_mod(n, m, r)
              for r in range(1, m, 2)}
    assert counts[1] == first
    for r, got in counts.items():
        assert got == oracles.pi_mod_naive(n, m, r), r
    # 2, the one prime outside the odd classes, is the +1
    assert sum(counts.values()) + 1 == oracles.pi_naive(n)


def test_default_config_is_frozen():
    with pytest.raises(dataclasses.FrozenInstanceError):
        counting.DEFAULT_CONFIG.cutoff = 10


def test_residues_of_one_modulus_share_one_correction_pass(monkeypatch):
    counting._residue_pass.cache_clear()
    calls = []
    real = error_correction.pairs_correction

    def counted(*args, **kwargs):
        calls.append(kwargs.get("modulus"))
        return real(*args, **kwargs)

    monkeypatch.setattr(error_correction, "pairs_correction", counted)
    n = 2 * 10 ** 5 + 3
    residues = [r for r in range(30) if math.gcd(r, 30) == 1]
    assert len(residues) == 8
    for r in residues:
        assert primeconv.count_primes_mod(n, 30, r) == oracles.pi_mod_naive(n, 30, r), r
    assert calls == [30]


def test_char_cache_eviction_under_threads(cutoff, monkeypatch):
    # more keys than the cache holds, filled and evicted by racing threads
    counting._residue_pass.cache_clear()
    cutoff(500)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    ns = list(range(2000, 2012))
    expect = {n: oracles.pi_mod_naive(n, 4, 3) for n in ns}
    errors = []

    def worker(shift):
        for n in ns[shift:] + ns[:shift]:
            try:
                if primeconv.count_primes_mod(n, 4, 3) != expect[n]:
                    errors.append(n)
            except Exception as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=worker, args=(3 * i,))
                   for i in range(4)]
        for t in workers:
            t.start()
        for t in workers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in workers)
    assert not errors
    assert counting._residue_pass.cache_info().currsize <= 8


def test_invalid_config_fields_rejected():
    # n below the cutoff: the check comes before the sieve fallback; every
    # public function refuses a delta scale that is not positive
    invalid = (({"delta_scale": 0}, "delta scale"),
               ({"delta_scale": Fraction(-1, 3)}, "delta scale"))
    for fields, match in invalid:
        cfg = counting.Config(**fields)
        calls = [lambda: primeconv.count_primes(1000, cfg),
                 lambda: primeconv.sum_over_primes(1000, 2, cfg),
                 lambda: primeconv.count_primes_mod(1000, 4, 3, cfg),
                 lambda: primeconv.count_primes_mod(1000, 1, 0, cfg),
                 lambda: primeconv.mertens(1000, cfg),
                 lambda: primeconv.mertens_multi([1000], 40, cfg),
                 lambda: primeconv.count_squarefree(1000, cfg),
                 lambda: primeconv.totient_sum(1000, cfg)]
        for call in calls:
            with pytest.raises(ValueError, match=match):
                call()
    # the check does not depend on n: above the cutoff too
    with pytest.raises(ValueError, match="delta scale"):
        primeconv.count_primes(200_000, counting.Config(delta_scale=0))


def test_result_bundles_carry_provenance():
    r = counting.count_primes_result(200_000)
    assert r.function == "pi" and r.value == oracles.pi_naive(200_000)
    assert r.delta is not None and r.window is not None and r.moduli is not None
    assert set(r.timings) >= {"params", "primes", "convolution", "correction"}
    r = counting.sum_over_primes_result(100, 2)
    assert r.extra["power"] == 2


def test_weight_prefix_vectors():
    w = counting.MultiplicativeWeight.power(2)
    p = modmath.NTT_PRIMES[0]
    xs = np.array([0, 1, 2, 3, 10, 10 ** 6, 2 ** 34], dtype=np.uint64)
    got = w.prefix_vec(xs, p)
    for x, g in zip(xs.tolist(), got.tolist()):
        expect = x * (x + 1) * (2 * x + 1) // 6 % p
        assert g == expect
    unit = counting.MultiplicativeWeight.power(0)
    assert unit.is_unit
    # ell = 0 and ell = 1: H(x) = x and x(x + 1)/2
    for ell, closed in ((0, lambda x: x), (1, lambda x: x * (x + 1) // 2)):
        got = counting.MultiplicativeWeight.power(ell).prefix_vec(xs, p)
        assert got.tolist() == [closed(x) % p for x in xs.tolist()], ell


def _character_table(m):
    """The characters mod m, their pair and, per prime of the pair, their
    phi x m value table; phi comes from the factorization of m, and the
    bound 2^40 takes two pool primes."""
    phi = math.prod((q - 1) * q ** (e - 1) for q, e in modmath.factorize(m))
    pair = counting._select_moduli(2 ** 40, phi)
    chars = counting._character_weights(m, pair)
    assert len(chars) == phi
    n = np.arange(m)
    return chars, pair, {p: np.stack([w.values_vec(n, p) for w in chars])
                         for p in pair}


def test_character_tables_orthogonal():
    # 9 and 16 are prime powers with one and two cyclic factors; 144 = 16 * 9
    # combines them
    for m in (3, 4, 5, 7, 8, 9, 12, 16, 30, 144):
        chars, pair, tables = _character_table(m)
        phi, p = len(chars), pair[0]
        tab = tables[p]
        units = [n for n in range(m) if math.gcd(n, m) == 1]
        inverses = [pow(n, -1, m) for n in units]
        # row orthogonality: sum over n of chi(n) conj-chi'(n) = phi * [k==k']
        for a in range(phi):
            s = tab[a, units] * tab[:, inverses] % np.uint64(p)
            s = s.sum(axis=1) % np.uint64(p)
            expect = np.zeros(phi, dtype=np.uint64)
            expect[a] = phi % p
            assert np.array_equal(s, expect), (m, a)


def test_character_tables_are_characters_at_1024():
    m = 1024
    chars, pair, tables = _character_table(m)
    phi = len(chars)
    assert phi == 512
    rng = random.Random(1024)
    a = np.array([rng.randrange(m) for _ in range(200)])
    b = np.array([rng.randrange(m) for _ in range(200)])
    coprime = np.array([math.gcd(n, m) == 1 for n in range(m)])
    for p in pair:
        tab = tables[p]
        # completely multiplicative, also where a or b shares a factor with m
        assert np.array_equal(tab[:, a] * tab[:, b] % np.uint64(p),
                              tab[:, a * b % m])
        assert np.array_equal(tab != 0, np.broadcast_to(coprime, tab.shape))
        assert len(np.unique(tab, axis=0)) == phi
    # the principal character has ell = 0 too, but it is not the unit weight
    assert not chars[0].is_unit


def test_character_tables_peak_near_what_they_keep():
    # the exponents and their gather are built a block of characters at a
    # time, so no phi x phi array (phi = 1932 at m = 2303) rises above the
    # phi x m value and prefix tables; lambda(2303) = 966 divides p - 1 for
    # no pool prime, so the test takes the first prime above 2^31 that it
    # divides
    m, order = 2303, 966
    p = next(p for p in range(order * (2 ** 31 // order + 1) + 1, 2 ** 32, order)
             if modmath.factorize(p) == [(p, 1)])
    gc.collect()
    tracemalloc.start()
    try:
        chars = counting._character_weights(m, (p,))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(chars) == 1932
    assert held >= 2 * 1932 * m * 8  # the two tables
    assert peak <= 1.1 * held, (held, peak)


def test_thread_count_neutral_for_values(monkeypatch):
    # the pool takes its workers from os.cpu_count(). At 300,000 the window
    # (13,225 entries) lies below _POOL_WINDOW, so one worker runs every
    # job; at 4,000,000 (173,213 entries) each CPU past the first adds one,
    # up to the jobs (four CPUs give pi three workers). Chunks of 4096 split
    # either window into several jobs
    auto = error_correction._auto_chunk
    for n in (300_000, 4_000_000):
        calls = ((counting.count_primes_result, (), oracles.pi_naive(n)),
                 (counting.count_primes_mod_result, (4, 3),
                  oracles.pi_mod_naive(n, 4, 3)),
                 (counting.sum_over_primes_result, (1,),
                  oracles.sum_primes_naive(n, 1)))
        for fn, args, expect in calls:
            vals = set()
            for t in (1, 2, 4):
                monkeypatch.setattr(os, "cpu_count", lambda t=t: t)
                for chunk in (auto, lambda total: 4096):
                    monkeypatch.setattr(error_correction, "_auto_chunk", chunk)
                    counting._residue_pass.cache_clear()
                    bundle = fn(n, *args)
                    vals.add(bundle.value)
                    workers = bundle.extra["correction_workers"]
                    if t > 1 and bundle.window >= error_correction._POOL_WINDOW:
                        assert workers > 1, (fn.__name__, n, t)
                    else:
                        assert workers == 1, (fn.__name__, n, t)
            assert vals == {expect}, (fn.__name__, n)


def test_sum_over_primes_range_guard_spares_the_sieve_path():
    # below the cutoff the direct sieve answers exactly, whatever the power
    assert primeconv.sum_over_primes(100, 9) == oracles.sum_primes_naive(100, 9)
