import dataclasses
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from primeconv import counting, oracles
from primeconv import error_correction as ec
from primeconv import segmentation as seg


def test_delta_default_examples():
    assert seg.delta_default(2 ** 20) == Fraction(20, 1024)
    assert seg.delta_default(4) == 1
    with pytest.raises(ValueError):
        seg.delta_default(1)


def test_cell_index_examples():
    params = seg.make_params(16, Fraction(1))
    assert seg.cell_index(9, params) == 3
    assert seg.cell_index(3, params) == 1
    assert seg.cell_index(1, params) == 0
    for delta in (Fraction(1), Fraction(1, 3), Fraction(7, 100)):
        params = seg.make_params(50, delta)
        assert seg.cell_index(1, params) == 0
    with pytest.raises(ValueError):
        seg.cell_index(0, params)


def test_cell_index_matches_float_floor_on_clean_cases():
    rng = random.Random(31)
    for delta in (Fraction(1, 7), Fraction(3, 64), Fraction(1, 50)):
        params = seg.make_params(10 ** 6, delta)
        for _ in range(300):
            n = rng.randrange(1, 10 ** 6)
            expect = math.floor(math.log2(n) / float(delta) + 1e-12)
            got = seg.cell_index(n, params)
            assert abs(got - expect) <= 1  # float check only coarse
            # exact check: boundary property
            assert params.cell_floor(got) <= n < params.cell_floor(got + 1)


def test_factored_cell_index_examples():
    # the additive cell index of a factorization is sum(e * cell_index(p))
    params = seg.make_params(64, Fraction(1))
    assert 2 * seg.cell_index(3, params) == 2
    assert seg.cell_index(9, params) == 3  # differs from the additive value
    assert sum(seg.cell_index(p, params) for p in (2, 3, 7)) == 4
    assert seg.cell_index(42, params) == 5


def cell_counts(params):
    """Entry k counts the integers in cell k, for k <= top_cell."""
    return np.array([params.cell_top(k) - params.cell_top(k - 1)
                     for k in range(params.top_cell + 1)])


def test_cell_counts_power_of_two_delta():
    params = seg.make_params(256, Fraction(1))
    counts = cell_counts(params)
    assert counts.tolist() == [1, 2, 4, 8, 16, 32, 64, 128, 256][:params.top_cell + 1]


def test_cell_counts_half_delta_and_telescoping():
    params = seg.make_params(64, Fraction(1, 2))
    counts = cell_counts(params)
    assert counts[:5].tolist() == [1, 0, 1, 1, 2]
    # prefix sums telescope to ceil(2^(delta*(K+1))) - 1
    run = 0
    for k in range(params.top_cell + 1):
        run += int(counts[k])
        assert run == params.bounds[k + 1] - 1


def test_cell_counts_match_enumeration():
    for limit, delta in ((4000, Fraction(1, 3)), (4000, Fraction(2, 25)),
                         (4000, Fraction(1, 40)), (10 ** 6, Fraction(1, 48))):
        params = seg.make_params(limit, delta)
        counts = cell_counts(params)
        ns = np.arange(1, limit + 1, dtype=np.uint64)
        cells = seg.cell_index_vec(ns, params)
        enum = np.bincount(cells, minlength=params.top_cell + 1)
        for k in range(params.top_cell + 1):
            if params.bounds[k + 1] - 1 <= limit:
                assert counts[k] == enum[k]


def test_cell_index_non_decreasing_to_1e6():
    params = seg.make_params(10 ** 6, Fraction(1, 64))
    cells = seg.cell_index_vec(np.arange(1, 10 ** 6 + 1, dtype=np.uint64), params)
    assert np.all(np.diff(cells) >= 0)


def test_cell_index_subadditivity_random_pairs():
    rng = random.Random(77)
    delta = Fraction(3, 100)
    params = seg.make_params(10 ** 10, delta)
    for _ in range(10 ** 5):
        n1 = rng.randrange(1, 10 ** 5)
        n2 = rng.randrange(1, 10 ** 5)
        k1 = seg.cell_index(n1, params)
        k2 = seg.cell_index(n2, params)
        k12 = seg.cell_index(n1 * n2, params)
        assert k12 - 1 <= k1 + k2 <= k12


def test_factored_cell_bound_up_to_1e5():
    delta = Fraction(1, 16)
    params = seg.make_params(10 ** 5, delta)
    spf = np.zeros(10 ** 5 + 1, dtype=np.int64)
    for p in range(2, 317):
        if spf[p] == 0:
            sl = spf[p * p::p]
            sl[sl == 0] = p
            spf[p * p::p] = sl
    primes_left = spf == 0
    spf[primes_left] = np.arange(10 ** 5 + 1)[primes_left]
    for n in range(2, 10 ** 5 + 1):
        m, fac = n, {}
        while m > 1:
            p = int(spf[m])
            fac[p] = fac.get(p, 0) + 1
            m //= p
        kh = sum(e * seg.cell_index(p, params) for p, e in fac.items())
        kb = seg.cell_index(n, params)
        assert kb - math.log2(n) <= kh <= kb


def test_make_params_refuses_an_astronomic_table():
    # a table at this precision would be astronomically long; refused cleanly
    with pytest.raises(ValueError):
        seg.make_params(1000, Fraction(1, 10 ** 9))


def test_window_sweep_is_short_and_loses_no_pair():
    # seeded (n, delta): the window stays shorter than n and at or below the
    # oracle's scan top, and gives the pair sum of (n, 2n]
    rng = random.Random(28)
    for _ in range(100):
        n = int(10 ** rng.uniform(2, 5.5))
        delta = Fraction(rng.randrange(1, 11),
                         rng.randrange(4, 400) * n.bit_length())
        params = seg.make_params(n, delta, need_window=True)
        assert (n + params.window <= oracles._pairs_scan_top(n, delta)
                and params.window < n), (n, delta)
        bound = math.isqrt(n)
        assert (ec.pairs_correction(params, bound)
                == ec.pairs_correction(dataclasses.replace(params, window=n),
                                       bound)), (n, delta)


def test_window_covers_every_contributing_pair():
    # exhaustive: every pair d1*d2 > n with cell(d1)+additive(d2) <= top lands
    # inside (n, n + S]
    for n, delta in ((512, Fraction(1, 80)), (2000, Fraction(1, 200))):
        params = seg.make_params(n, delta, need_window=True)
        top = params.top_cell
        hi = n + params.window
        for m in range(n + 1, 4 * n):
            any_pair = False
            for d2 in range(1, m + 1):
                if m % d2:
                    continue
                fac = []
                x = d2
                f = 2
                while f * f <= x:
                    if x % f == 0:
                        e = 0
                        while x % f == 0:
                            x //= f
                            e += 1
                        fac.append((f, e))
                    f += 1
                if x > 1:
                    fac.append((x, 1))
                if any(e > 1 for _, e in fac):
                    continue
                kd = sum(e * seg.cell_index(p, params) for p, e in fac)
                if seg.cell_index(m // d2, params) + kd <= top:
                    any_pair = True
                    break
            if any_pair:
                assert m <= hi, (m, hi)


def test_shrunk_window_also_covers_pairs_and_is_smaller():
    # the window (n, 2n], inside the boundary table, holds every product the
    # knapsack window holds and more; both give one correction
    n, delta = 20000, Fraction(1, 1000)
    params = seg.make_params(n, delta, need_window=True)
    assert 0 < params.window < n
    bound = math.isqrt(n)
    assert (ec.pairs_correction(params, bound)
            == ec.pairs_correction(dataclasses.replace(params, window=n), bound))


def test_cell_tops_and_floors_consistent():
    params = seg.make_params(10 ** 4, Fraction(1, 30))
    for k in range(0, params.top_cell + 2):
        lo = params.cell_floor(k)
        assert seg.cell_index(lo, params) >= k
        if lo > 1:
            assert seg.cell_index(lo - 1, params) < k
    assert params.cell_top(-1) == 0
    # cell_top(k) counts the integers n >= 1 with cell_index(n) <= k
    assert params.cell_top(3) == params.bounds[4] - 1
    assert params.cell_top(3) == sum(
        1 for n in range(1, params.bounds[5]) if seg.cell_index(n, params) <= 3)


def test_delta_one_boundaries_exact_powers():
    params = seg.make_params(2 ** 12, Fraction(1))
    assert params.bounds[:13].tolist() == [2 ** k for k in range(13)]


def test_boundary_tables_match_the_oracle_cells():
    # every entry b = bounds[k] up to 10^6 is the least integer in cell k or
    # above, decided by the oracle's big-integer power comparisons
    for delta in (Fraction(1, 48), Fraction(3, 64), Fraction(2, 25),
                  Fraction(1, 1000)):
        params = seg.make_params(10 ** 6, delta)
        oracle = oracles.OracleCells(delta)
        for k, b in enumerate(params.bounds.tolist()):
            if b > 10 ** 6:
                break
            assert oracle.cell(b) >= k, (delta, k, b)
            assert b == 1 or oracle.cell(b - 1) < k, (delta, k, b)


def pipeline_delta(n, scale=1):
    return counting._pipeline_delta(n, counting.Config(delta_scale=scale))


def test_boundary_tables_pinned_at_pipeline_deltas():
    # (length, sum) of the tables to 2n + 2, read from the interval recurrence
    # that built every entry one big-integer step at a time
    cases = (
        (10 ** 9, pipeline_delta(10 ** 9), 32_682, 3_053_934_778_471),
        (10 ** 10, pipeline_delta(10 ** 10), 103_012, 86_882_900_419_665),
        (10 ** 11, pipeline_delta(10 ** 11), 324_883, 2_497_163_723_527_536),
        (10 ** 10, pipeline_delta(10 ** 10, Fraction(1, 2)), 206_022,
         173_735_795_427_550),
        (10 ** 10, pipeline_delta(10 ** 10, 3), 34_338, 28_967_635_571_457),
        # a fine unit-fraction width, coarser than the pipeline's at 10^11
        (10 ** 11, Fraction(1, 4642), 174_268, 1_339_639_620_347_098),
    )
    for n, delta, length, total in cases:
        params = seg.make_params(n, delta)
        bounds = params.bounds.tolist()
        assert (len(bounds), sum(bounds)) == (length, total), n
        assert params.bounds.dtype == np.uint64


def test_boundary_fallback_takes_exact_powers_and_few_others(monkeypatch):
    exponents = []
    exact = seg._exact_ceil_pow2

    def counted(exponent):
        exponents.append(exponent)
        return exact(exponent)

    monkeypatch.setattr(seg, "_exact_ceil_pow2", counted)
    # delta = 1/1000 puts the exact power 2^j at k = 1000 j; the float
    # bound never settles an integer, so each one takes the fallback
    bounds = seg._boundary_list(Fraction(1, 1000), 2 * 10 ** 6 + 2).tolist()
    for k in range(0, len(bounds), 1000):
        assert Fraction(k, 1000) in exponents, k
        assert bounds[k] == 1 << (k // 1000)
    for n in (10 ** 10, 10 ** 11):
        exponents.clear()
        seg.make_params(n, pipeline_delta(n))
        assert 0 < len(exponents) <= 100, (n, len(exponents))
