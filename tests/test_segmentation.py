import decimal
import math
import random
from fractions import Fraction

import numpy as np
import pytest

from primeconv import segmentation as seg


def test_delta_default_examples():
    assert seg.delta_default(2 ** 20) == Fraction(20, 1024)
    assert seg.delta_default(4) == 1
    for n in (100, 5000, 2 ** 20):
        assert seg.delta_default(n, scale=2) == 2 * seg.delta_default(n)
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
    params = seg.make_params(64, Fraction(1))
    assert seg.factored_cell_index([(3, 2)], params) == 2
    assert seg.cell_index(9, params) == 3  # differs from the additive value
    for p in (2, 3, 5, 7, 11, 13):
        assert seg.factored_cell_index([(p, 1)], params) == seg.cell_index(p, params)
    assert seg.factored_cell_index([(2, 1), (3, 1), (7, 1)], params) == 4
    assert seg.factored_cell_index([], params) == 0


def test_cell_counts_power_of_two_delta():
    params = seg.make_params(256, Fraction(1))
    counts = seg.cell_counts(params)
    assert counts.tolist() == [1, 2, 4, 8, 16, 32, 64, 128, 256][:params.top_cell + 1]


def test_cell_counts_half_delta_and_telescoping():
    params = seg.make_params(64, Fraction(1, 2))
    counts = seg.cell_counts(params)
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
        counts = seg.cell_counts(params)
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
        kh = seg.factored_cell_index(sorted(fac.items()), params)
        kb = seg.cell_index(n, params)
        assert kb - math.log2(n) <= kh <= kb


def test_window_size_examples():
    # formula value via decimal arithmetic as an independent check
    n, delta = 10 ** 6, Fraction(1, 10 ** 4)
    window = seg.window_size(n, delta)
    decimal.getcontext().prec = 60
    d = decimal.Decimal(delta.numerator) / decimal.Decimal(delta.denominator)
    log2n = decimal.Decimal(math.log2(n))  # float log is fine at this scale
    x = d * (2 + log2n) / (1 - d)
    val = (decimal.Decimal(2) ** x - 1) * n
    expect = int(val.to_integral_value(rounding=decimal.ROUND_CEILING))
    assert abs(window - expect) <= 1
    assert window >= expect  # never under-approximates


def test_window_zero_when_formula_below_one():
    assert seg.window_size(1000, Fraction(1, 10 ** 9)) == 0
    # a table at that precision would be astronomically long; refused cleanly
    with pytest.raises(ValueError):
        seg.make_params(1000, Fraction(1, 10 ** 9))


def test_window_monotone_in_delta():
    last = -1
    for num in range(1, 12):
        params = seg.make_params(10 ** 5, Fraction(num, 1000), need_window=True)
        assert params.window >= last
        last = params.window


def test_window_requires_fine_delta():
    params = seg.make_params(10 ** 6, Fraction(1, 10))
    with pytest.raises(ValueError):
        seg.error_window_size(params)


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
                kd = seg.factored_cell_index(fac, params)
                if seg.cell_index(m // d2, params) + kd <= top:
                    any_pair = True
                    break
            if any_pair:
                assert m <= hi, (m, hi)


def test_shrunk_window_also_covers_pairs_and_is_smaller():
    n, delta = 20000, Fraction(1, 1000)
    params = seg.make_params(n, delta, need_window=True)
    assert 0 <= params.window < seg.window_size(n, delta)
    # a square-free d2 with omega(d2) prime factors is at least the primorial
    assert seg._max_squarefree_omega(2 * 3 * 5 * 7) == 4
    assert seg._max_squarefree_omega(2 * 3 * 5 * 7 - 1) == 3


def test_cell_tops_and_floors_consistent():
    params = seg.make_params(10 ** 4, Fraction(1, 30))
    for k in range(0, params.top_cell + 2):
        lo = params.cell_floor(k)
        assert seg.cell_index(lo, params) >= k
        if lo > 1:
            assert seg.cell_index(lo - 1, params) < k
    assert params.cell_top(-1) == 0
    assert seg.prefix_cell_counts(params, -1) == 0
    assert seg.prefix_cell_counts(params, 3) == params.bounds[4] - 1


def test_delta_one_boundaries_exact_powers():
    params = seg.make_params(2 ** 12, Fraction(1))
    assert params.bounds[:13] == [2 ** k for k in range(13)]
