import math
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from primeconv import counting, modmath, oracles, segmentation as seg, sieve
from primeconv import smooth_mobius as sm

P1, P2 = modmath.NTT_PRIMES[:2]
UNIT = counting.MultiplicativeWeight.power(0)
# the completely multiplicative weight h(m) = m
WEIGHT_N = counting.MultiplicativeWeight.power(1)


def enum_mobius_cells(prime_list, cells, top, signs=None):
    """Reference: scatter mu over square-free products by additive cell index."""
    out = np.zeros(top + 1, dtype=np.int64)

    def walk(i, k, sign):
        out[k] += sign
        for j in range(i, len(prime_list)):
            nk = k + cells[j]
            if nk > top:
                continue
            walk(j + 1, nk, -sign)

    walk(0, 0, 1)
    return out


def enum_product_arrays(prime_list, cells, top, r_max):
    """Reference: per-order counts of square-free products, by cell."""
    out = [np.zeros(top + 1, dtype=np.int64) for _ in range(r_max + 1)]

    def walk(i, k, r):
        if r <= r_max:
            out[r][k] += 1
        for j in range(i, len(prime_list)):
            nk = k + cells[j]
            if nk > top or r + 1 > r_max:
                continue
            walk(j + 1, nk, r + 1)

    walk(0, 0, 0)
    return out


def dilate(e1, r):
    """Entry i of the order-1 array moved to index r*i, overflow dropped."""
    out = np.zeros_like(e1)
    out[::r] = e1[:(len(e1) - 1) // r + 1]
    return out


def cell_counts(primes, params):
    """The unit weight's order-1 array: primes per cell up to top_cell."""
    return sm.prime_cell_sums(primes, params, P1, UNIT, 1, params.top_cell + 1)


def test_prime_cell_sums_examples():
    params = seg.make_params(25, Fraction(1))
    arr = cell_counts([2, 3, 5], params)
    assert arr[:3].tolist() == [0, 2, 1]
    assert cell_counts([], params).sum() == 0
    arr = sm.prime_cell_sums([2, 3], params, P1, WEIGHT_N, 1, 5)
    assert arr[1] == 5
    # h(p^2) = p^2 stays at cell_index(p)
    arr = sm.prime_cell_sums([2, 3], params, 7, WEIGHT_N, 2, 5)
    assert arr[1] == (4 + 9) % 7
    # cells at or past the length are dropped
    assert sm.prime_cell_sums([2, 3, 5], params, P1, UNIT, 1, 2).tolist() == [0, 2]


def test_dilate_examples():
    # the unit weight's order-r prime-power array, which the Fourier path
    # reads off the order-1 transform, is the order-1 array dilated by r
    params = seg.make_params(25, Fraction(1))
    e1 = cell_counts([2, 3, 5], params)
    assert e1.tolist() == [0, 2, 1, 0, 0]
    assert dilate(e1, 2).tolist() == [0, 0, 2, 0, 1]
    assert dilate(e1, 1).tolist() == e1.tolist()
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randrange(50, 10 ** 4)
        params = seg.make_params(n, Fraction(1, rng.randrange(3, 100)))
        primes = sieve.primes_up_to(math.isqrt(n))
        e1 = cell_counts(primes, params)
        top = params.top_cell
        cells = np.array([seg.cell_index(int(p), params) for p in primes],
                         dtype=np.int64)
        for r in (2, 3, 5):
            # the r-th powers scattered at r * cell_index(p)
            er = np.bincount(r * cells[r * cells <= top], minlength=top + 1)
            assert np.array_equal(er, dilate(e1, r)), (n, r)


def test_dilation_reads_off_fourier_transform():
    # transform of the dilated array equals strided reads of the base transform
    rng = random.Random(3)
    length = 64
    ctx = modmath.get_context(P1, length)
    base = np.zeros(length, dtype=np.uint64)
    for _ in range(10):
        base[rng.randrange(length // 8)] += 1
    e1t = modmath.ntt_forward(base, ctx)
    for r in (2, 3, 5):
        er = dilate(base, r)
        ert = modmath.ntt_forward(er, ctx)
        idx = (np.arange(length, dtype=np.int64) * r) % length
        assert np.array_equal(ert, e1t[idx])


def test_newton_direct_example_and_identities():
    # primes {2,3,5} at unit precision: products of two cells land as expected
    top = seg.make_params(36, Fraction(1)).top_cell
    cs = oracles.newton_direct([2, 3, 5], 36, Fraction(1), 3)
    assert cs[0].tolist() == [1] + [0] * top
    assert cs[1][:4].tolist() == [0, 2, 1, 0]
    assert cs[2][:4].tolist() == [0, 0, 1, 2]
    # order-2 identity: 2*C2 = C1 conv C1 - E2, E2 = C1 dilated by 2
    lhs = 2 * cs[2]
    rhs = (np.convolve(cs[1], cs[1])[:top + 1] - dilate(cs[1], 2))
    assert np.array_equal(lhs, rhs)


def test_newton_direct_matches_enumeration_small_bounds():
    for bound in (10, 30, 100):
        for delta in (Fraction(1), Fraction(1, 2), Fraction(1, 10)):
            n = bound * bound
            params = seg.make_params(n, delta)
            top = params.top_cell
            primes = [int(p) for p in sieve.primes_up_to(bound)]
            cells = [seg.cell_index(p, params) for p in primes]
            r_max = min(len(primes), top)
            cs = oracles.newton_direct(primes, n, delta, r_max)
            ref = enum_product_arrays(primes, cells, top, r_max)
            for r in range(r_max + 1):
                assert np.array_equal(cs[r], ref[r]), (bound, delta, r)


def test_newton_residual_holds_arraywise():
    params = seg.make_params(10 ** 4, Fraction(1, 12))
    top = params.top_cell
    primes = [int(p) for p in sieve.primes_up_to(100)]
    r_max = 6
    e1 = cell_counts(primes, params).astype(np.int64)
    es = [dilate(e1, r) for r in range(1, r_max + 1)]
    cs = oracles.newton_direct(primes, 10 ** 4, Fraction(1, 12), r_max)
    for r in range(1, r_max + 1):
        acc = np.zeros(top + 1, dtype=np.int64)
        for j in range(1, r + 1):
            term = np.convolve(cs[r - j], es[j - 1])[:top + 1]
            acc += term if j % 2 == 1 else -term
        assert np.array_equal(acc, r * cs[r])


def test_smooth_mobius_cells_single_prime():
    params = seg.make_params(4, Fraction(1, 3))
    got = sm.smooth_mobius_cells(sieve.primes_up_to(2), params, P1, [UNIT])[0]
    expect = np.zeros(params.top_cell + 1, dtype=np.int64)
    expect[0] = 1
    expect[seg.cell_index(2, params)] -= 1
    assert np.array_equal(got, expect % P1)


def test_smooth_mobius_cells_n36_bruteforce():
    params = seg.make_params(36, Fraction(1, 10))
    primes = sieve.primes_up_to(6)
    got = sm.smooth_mobius_cells(primes, params, P1, [UNIT])[0]
    cells = [seg.cell_index(int(p), params) for p in primes]
    ref = enum_mobius_cells([int(p) for p in primes], cells, params.top_cell)
    assert np.array_equal(got, ref % P1)


def alternating_newton(primes, n, delta, params, modulus):
    """Reference: sum_r (-1)^r C_r from the time-domain recurrence."""
    r_cap = min(len(primes), params.top_cell // seg.cell_index(int(primes[0]), params))
    acc = np.zeros(params.top_cell + 1, dtype=np.int64)
    for r, c in enumerate(oracles.newton_direct(primes, n, delta, r_cap)):
        acc += c.astype(np.int64) if r % 2 == 0 else -c.astype(np.int64)
    return acc % modulus


def test_smooth_mobius_matches_newton_direct_random_configs():
    rng = random.Random(42)
    for _ in range(50):
        n = rng.randrange(16, 10 ** 4)
        den = rng.randrange(max(3, 2 * (n.bit_length())), 300)
        delta = Fraction(1, den)
        params = seg.make_params(n, delta)
        top = params.top_cell
        primes = sieve.primes_up_to(math.isqrt(n))
        for p in (P1, P2):
            got = sm.smooth_mobius_cells(primes, params, p, [UNIT])[0]
            if len(primes) == 0:
                expect = np.zeros(top + 1, dtype=np.uint64)
                expect[0] = 1
                assert np.array_equal(got, expect)
                continue
            expect = alternating_newton(primes, n, delta, params, p)
            assert np.array_equal(got, expect), (n, delta)


def test_partition_independence(monkeypatch):
    # the size-range split gives the array of one range over all primes
    rng = random.Random(5)
    for _ in range(10):
        n = rng.randrange(100, 10 ** 4)
        delta = Fraction(1, rng.randrange(3 * n.bit_length(), 200))
        params = seg.make_params(n, delta)
        primes = sieve.primes_up_to(math.isqrt(n))
        many = sm.smooth_mobius_cells(primes, params, P1, [UNIT])[0]
        assert len(sm.make_partitions(primes, params)) > 1
        whole = sm._size_range(primes, 0, len(primes), params)
        part = sm.PrimePartition(*whole[:3], sm._shared_length([whole]))
        with monkeypatch.context() as m:
            m.setattr(sm, "make_partitions", lambda *args: [part])
            one = sm.smooth_mobius_cells(primes, params, P1, [UNIT])[0]
        assert np.array_equal(one, many), (n, delta)


def test_cell_mass_matches_enumeration_across_deltas():
    # truncated-Mobius cell mass equals direct enumeration for 20+ deltas
    for n in (36, 100, 1024, 10 ** 4):
        bound = math.isqrt(n)
        primes = [int(p) for p in sieve.primes_up_to(bound)]
        lup = n.bit_length()
        for j in range(1, 22):
            delta = Fraction(j, 8 * lup * j + j * j)  # assorted valid deltas
            if delta > Fraction(1, 2):
                continue
            params = seg.make_params(n, delta)
            top = params.top_cell
            cells = [seg.cell_index(p, params) for p in primes]
            ref = enum_mobius_cells(primes, cells, top)
            got = sm.smooth_mobius_cells(primes, params, P2, [UNIT])[0]
            assert np.array_equal(got, ref % P2), (n, j)


def weighted_mobius_cells(primes, params):
    """Reference: scatter m * mu(m) over square-free products by cell."""
    top = params.top_cell
    cells = [seg.cell_index(p, params) for p in primes]
    ref = np.zeros(top + 1, dtype=np.int64)

    def walk(i, k, val, sign):
        ref[k] += sign * val
        for j in range(i, len(primes)):
            nk = k + cells[j]
            if nk > top:
                continue
            walk(j + 1, nk, val * primes[j], -sign)

    walk(0, 0, 1, 1)
    return ref


def test_generalized_weight_matches_weighted_bruteforce():
    rng = random.Random(12)
    for _ in range(8):
        n = rng.randrange(50, 10 ** 4)
        delta = Fraction(1, rng.randrange(3 * n.bit_length(), 150))
        params = seg.make_params(n, delta)
        primes = [int(p) for p in sieve.primes_up_to(math.isqrt(n))]
        ref = weighted_mobius_cells(primes, params)
        got = sm.smooth_mobius_cells(primes, params, P1, [WEIGHT_N])[0]
        assert np.array_equal(got, ref % P1), (n, delta)


@pytest.mark.parametrize("block", [5, 48])
def test_column_blocks_match_references(monkeypatch, block):
    # blocks of 48 never divide a power-of-two length, so the last is partial
    monkeypatch.setattr(sm, "BLOCK", block)
    rng = random.Random(block)
    for _ in range(6):
        n = rng.randrange(200, 10 ** 4)
        delta = Fraction(1, rng.randrange(3 * n.bit_length(), 200))
        params = seg.make_params(n, delta)
        primes = sieve.primes_up_to(math.isqrt(n))
        length = sm.make_partitions(primes, params)[0].pad_length
        assert length > 2 * block, (n, delta)
        for p in (P1, P2):
            got = sm.smooth_mobius_cells(primes, params, p, [UNIT])[0]
            expect = alternating_newton(primes, n, delta, params, p)
            assert np.array_equal(got, expect), (n, delta, p)
        got = sm.smooth_mobius_cells(primes, params, P1, [WEIGHT_N])[0]
        ref = weighted_mobius_cells([int(q) for q in primes], params)
        assert np.array_equal(got, ref % P1), (n, delta)


def test_partitions_share_the_smallest_sufficient_length():
    rng = random.Random(21)
    for _ in range(40):
        n = rng.randrange(50, 10 ** 9)
        delta = Fraction(1, rng.randrange(2 * n.bit_length(), 40 * n.bit_length()))
        params = seg.make_params(n, delta)
        primes = sieve.primes_up_to(math.isqrt(n))
        parts = sm.make_partitions(primes, params)
        length = sm.transform_counters(primes, params, [UNIT])["transform_length"]
        need = 1 + sum(part.r_used * seg.cell_index(int(primes[part.hi - 1]), params)
                       for part in parts)
        assert all(part.pad_length == length for part in parts), (n, delta)
        assert length >= need and length // 2 < need, (n, delta)
        assert length & (length - 1) == 0


def engine_setup(n):
    params = seg.make_params(n, counting._pipeline_delta(n, counting.DEFAULT_CONFIG))
    return params, sieve.primes_up_to(math.isqrt(n))


def traced_peak(call):
    tracemalloc.start()
    try:
        result = call()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


@pytest.mark.parametrize("weight", [UNIT, counting.MultiplicativeWeight.power(1),
                                    "chars4"],
                         ids=["unit", "power1", "chars4"])
def test_transform_memory_stays_blocked(weight):
    # one length-L accumulator per weight plus a partition's order-1
    # transforms and the NTT's temporaries, not (r_used + 1) x pad stacks:
    # L = 2^17 at 10^9
    params, primes = engine_setup(10 ** 9)
    if weight == "chars4":
        chars = counting._character_weights(4, modmath.NTT_PRIMES[:2])
        call = lambda: sm.smooth_mobius_cells(primes, params, P1, weights=chars)
    else:
        call = lambda: sm.smooth_mobius_cells(primes, params, P1, [weight])
    _, peak = traced_peak(call)
    assert peak < 24 << 20, peak
    assert peak < sm._MEMORY_BUDGET, peak


def test_large_character_group_runs_in_groups_under_the_budget(monkeypatch):
    # phi(1024) = 512 characters: with a budget that holds about a quarter
    # of them per pass, the passes stay under it and give the same rows
    params, primes = engine_setup(2 * 10 ** 5)
    chars = counting._character_weights(1024, modmath.NTT_PRIMES[:2])
    parts = sm.make_partitions(primes, params)
    length = parts[0].pad_length
    assert len(sm._weight_groups(chars, parts, length)) == 1
    whole = sm.smooth_mobius_cells(primes, params, P1, weights=chars)
    # the rows returned are not part of a pass
    budget = 2 * 8 * length * 256 + whole.nbytes
    monkeypatch.setattr(sm, "_MEMORY_BUDGET", budget)
    assert len(sm._weight_groups(chars, parts, length)) >= 4
    grouped, peak = traced_peak(
        lambda: sm.smooth_mobius_cells(primes, params, P1, weights=chars))
    assert np.array_equal(grouped, whole)
    assert peak < budget, (peak, budget)


def test_untruncated_ranges_are_direct_products(monkeypatch):
    # the larger primes form one range with r_used = its prime count, well
    # above top_cell // kb_min, next to a truncated range of the small ones
    rng = random.Random(31)
    for _ in range(8):
        n = rng.randrange(2000, 10 ** 4)
        delta = Fraction(1, rng.randrange(3 * n.bit_length(), 150))
        params = seg.make_params(n, delta)
        primes = sieve.primes_up_to(math.isqrt(n))
        split = len(primes) // 2
        small = sm._size_range(primes, 0, split, params)
        kb_max = seg.cell_index(int(primes[-1]), params)
        ranges = [small, (split, len(primes), len(primes) - split, kb_max)]
        big = sm.PrimePartition(*ranges[1][:3], 0)
        assert big.r_used > 3 and not sm._truncated(big)
        length = sm._shared_length(ranges)
        parts = [sm.PrimePartition(lo, hi, r, length) for lo, hi, r, _ in ranges]
        monkeypatch.setattr(sm, "make_partitions", lambda *args: parts)
        for p in (P1, P2):
            got = sm.smooth_mobius_cells(primes, params, p, [UNIT])[0]
            assert np.array_equal(
                got, alternating_newton(primes, n, delta, params, p)), (n, delta)
        ref = weighted_mobius_cells([int(q) for q in primes], params) % P1
        got = sm.smooth_mobius_cells(primes, params, P1, [WEIGHT_N])[0]
        assert np.array_equal(got, ref), (n, delta)


def character_mobius_cells(primes, params, weight, modulus):
    """Reference: scatter chi(m) * mu(m) over square-free products by cell."""
    top = params.top_cell
    cells = [seg.cell_index(q, params) for q in primes]
    vals = weight.values_vec(primes, modulus).tolist()
    ref = [0] * (top + 1)

    def walk(i, k, val):
        ref[k] = (ref[k] + val) % modulus
        for j in range(i, len(primes)):
            if cells[j] + k <= top and vals[j]:
                walk(j + 1, k + cells[j], -val * vals[j] % modulus)

    walk(0, 0, 1)
    return np.array(ref, dtype=np.uint64)


@pytest.mark.parametrize("m", [5, 16, 60])
def test_character_powers_by_dilation(m, cutoff):
    # characters of order 4 map to characters of order 2 and to their
    # conjugates under r = 2, 3, so the shared order-1 transforms are read
    # for other rows than their own
    n = 2 * 10 ** 5
    params, primes = engine_setup(n)
    assert max(part.r_used for part in sm.make_partitions(primes, params)
               if sm._truncated(part)) >= 3
    phi = math.prod((q - 1) * q ** (e - 1) for q, e in modmath.factorize(m))
    pair = counting._select_moduli(2 ** 40, phi)  # a bound that needs two
    chars = counting._character_weights(m, pair)
    assert any(len({w.power_key(r) for r in range(1, 5)}) == 4 for w in chars)
    rows = sm.smooth_mobius_cells(primes, params, pair[0], weights=chars)
    qs = [int(q) for q in primes]
    for k in (1, len(chars) - 1):
        ref = character_mobius_cells(qs, params, chars[k], pair[0])
        assert np.array_equal(rows[k], ref), (m, k)
    cutoff(1000)
    counting._residue_pass.cache_clear()
    for r in range(m):
        if math.gcd(r, m) == 1:
            got = counting.count_primes_mod(n + 1, m, r)
            assert got == oracles.pi_mod_naive(n + 1, m, r), (m, r)


def test_forward_transforms_per_modulus_at_1e9(monkeypatch):
    # two truncated ranges at 10^9: the unit weight makes one forward
    # transform each, power 1 one per order, and both characters mod 4
    # share two per range
    params, primes = engine_setup(10 ** 9)
    assert [part.r_used for part in sm.make_partitions(primes, params)
            if sm._truncated(part)] == [3, 7]
    calls = []
    real = modmath.ntt_forward

    def counted(values, ctx):
        calls.append(values.size)
        return real(values, ctx)

    monkeypatch.setattr(modmath, "ntt_forward", counted)
    chars = counting._character_weights(4, modmath.NTT_PRIMES[:2])
    cases = (([UNIT], 2), ([counting.MultiplicativeWeight.power(1)], 10),
             (chars, 4))
    for weights, expect in cases:
        calls.clear()
        sm.smooth_mobius_cells(primes, params, P1, weights=weights)
        assert len(calls) == expect
        assert sm.transform_counters(primes, params, weights)[
            "forward_transforms"] == expect
