import random

import numpy as np
import pytest

from primeconv import modmath, oracles


def is_probable_prime(n):
    # deterministic Miller-Rabin for n < 3.3e24
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def test_pool_primes_are_prime_with_wide_two_adic_subgroups():
    for p in modmath.NTT_PRIMES:
        assert is_probable_prime(p)
        assert (p - 1) % (1 << 27) == 0
    p1, p2 = modmath.NTT_PRIMES[:2]
    assert p1 != p2 and p1 * p2 > 2 ** 61


def test_primitive_roots_have_full_order():
    for p, g in modmath._PRIMITIVE_ROOTS.items():
        n = p - 1
        fac = []
        d, m = 2, n
        while d * d <= m:
            if m % d == 0:
                fac.append(d)
                while m % d == 0:
                    m //= d
            d += 1
        if m > 1:
            fac.append(m)
        assert all(pow(g, n // q, p) != 1 for q in fac)


def test_factorize_and_root_search_off_the_pool():
    for n in range(1, 3000):
        assert modmath.factorize(n) == oracles.factor_naive(n)
    # outside the pool the root is searched: 3 is the smallest for both
    for p in (7, 998244353):
        g = modmath.primitive_root(p)
        assert g == 3
        assert all(pow(g, (p - 1) // q, p) != 1
                   for q, _ in oracles.factor_naive(p - 1))


def test_mod_matches_remainder():
    # x - (x // p) * p is exact for every uint64 x, the largest included
    rng = np.random.default_rng(16)
    samples = rng.integers(0, 1 << 64, size=10 ** 5, dtype=np.uint64,
                           endpoint=False)
    for p in modmath.NTT_PRIMES:
        edges = np.array([0, 1, p - 1, (p - 1) ** 2, (1 << 64) - 1],
                         dtype=np.uint64)
        for x in (edges, samples, samples.reshape(100, -1)):
            expect = x % np.uint64(p)
            got = modmath.mod(x, p)
            assert got.dtype == np.uint64 and np.array_equal(got, expect), p
            y = x.copy()
            assert modmath.mod(y, p, out=y) is y and np.array_equal(y, expect)
        assert modmath.mod(edges, p).tolist() == [0, 1, p - 1, 1,
                                                  ((1 << 64) - 1) % p]


def test_context_invariants():
    ctx = modmath.get_context(modmath.NTT_PRIMES[0], 64)
    assert pow(ctx.root, 64, ctx.modulus) == 1
    assert pow(ctx.root, 32, ctx.modulus) == ctx.modulus - 1
    assert (ctx.modulus - 1) % ctx.length == 0


def test_forward_length_mismatch_rejected():
    ctx = modmath.get_context(modmath.NTT_PRIMES[0], 16)
    with pytest.raises(ValueError):
        modmath.ntt_forward(np.zeros(8, dtype=np.uint64), ctx)


def test_roundtrip_on_random_arrays():
    rng = random.Random(1234)
    for p in modmath.NTT_PRIMES[:2]:
        for length in (2, 4, 8, 32, 128, 1024):
            ctx = modmath.get_context(p, length)
            for _ in range(100):
                x = np.array([rng.randrange(p) for _ in range(length)],
                             dtype=np.uint64)
                back = modmath.ntt_inverse(modmath.ntt_forward(x, ctx), ctx)
                assert np.array_equal(back, x)


def test_forward_of_zero_and_delta_and_inverse_of_ones():
    p = modmath.NTT_PRIMES[0]
    ctx = modmath.get_context(p, 32)
    zero = np.zeros(32, dtype=np.uint64)
    assert np.array_equal(modmath.ntt_forward(zero, ctx), zero)
    delta0 = zero.copy()
    delta0[0] = 1
    assert np.array_equal(modmath.ntt_forward(delta0, ctx),
                          np.ones(32, dtype=np.uint64))
    assert np.array_equal(modmath.ntt_inverse(np.ones(32, dtype=np.uint64), ctx),
                          delta0)


def test_inverse_roundtrip_and_linearity():
    p = modmath.NTT_PRIMES[1]
    ctx = modmath.get_context(p, 16)
    x = np.arange(1, 17, dtype=np.uint64)
    assert np.array_equal(modmath.ntt_inverse(modmath.ntt_forward(x, ctx), ctx), x)
    c = np.uint64(12345)
    lhs = modmath.ntt_forward(x * c % np.uint64(p), ctx)
    rhs = modmath.ntt_forward(x, ctx) * c % np.uint64(p)
    assert np.array_equal(lhs, rhs)


def schoolbook(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] = (out[i + j] + x * y) % p
    return out


def test_convolution_matches_schoolbook_up_to_256():
    rng = random.Random(99)
    for p in modmath.NTT_PRIMES[:2]:
        for n in (1, 2, 3, 17, 64, 200, 256):
            a = [rng.randrange(p) for _ in range(n)]
            b = [rng.randrange(p) for _ in range(rng.randrange(1, n + 1))]
            got = modmath.convolve_mod(np.array(a, dtype=np.uint64),
                                       np.array(b, dtype=np.uint64), p)
            assert got.tolist() == schoolbook(a, b, p)


def test_convolution_examples():
    p = modmath.NTT_PRIMES[0]
    got = modmath.convolve_mod([1, 1, 0, 0], [1, 1, 0, 0], p)
    assert got.tolist() == [1, 2, 1, 0, 0, 0, 0]
    # shifted spikes add their positions
    d2 = np.zeros(4, dtype=np.uint64)
    d2[2] = 1
    d1 = np.zeros(4, dtype=np.uint64)
    d1[1] = 1
    out = modmath.convolve_mod(d2, d1, p)
    expect = np.zeros(7, dtype=np.uint64)
    expect[3] = 1
    assert np.array_equal(out, expect)
    # unit element
    a = np.array([5, 6, 7], dtype=np.uint64)
    e = np.array([1, 0, 0], dtype=np.uint64)
    assert modmath.convolve_mod(a, e, p)[:3].tolist() == [5, 6, 7]


def test_power_series_exp_basic():
    p = modmath.NTT_PRIMES[0]
    f = np.array([0, 1, 0, 0], dtype=np.uint64)
    got = modmath.power_series_exp(f, 4, p)
    inv2 = pow(2, -1, p)
    inv6 = pow(6, -1, p)
    assert got.tolist() == [1, 1, inv2, inv6]
    zero = np.zeros(5, dtype=np.uint64)
    assert modmath.power_series_exp(zero, 5, p).tolist() == [1, 0, 0, 0, 0]
    with pytest.raises(ValueError):
        modmath.power_series_exp(np.array([1, 2], dtype=np.uint64), 2, p)


def test_power_series_exp_matches_direct_recurrence():
    rng = random.Random(5)
    p = modmath.NTT_PRIMES[1]
    for _ in range(20):
        n = rng.randrange(2, 24)
        f = [0] + [rng.randrange(p) for _ in range(n - 1)]
        got = modmath.power_series_exp(np.array(f, dtype=np.uint64), n, p)
        # direct recurrence r*c_r = sum c_(r-j) e_j with e_j = j*f_j
        e = [j * f[j] % p for j in range(n)]
        c = [1] + [0] * (n - 1)
        for r in range(1, n):
            acc = sum(c[r - j] * e[j] for j in range(1, r + 1)) % p
            c[r] = acc * pow(r, -1, p) % p
        assert got.tolist() == c


def test_power_series_exp_batched_matches_columns():
    rng = random.Random(6)
    p = modmath.NTT_PRIMES[0]
    n, width = 9, 7
    f = np.array([[0] * width] +
                 [[rng.randrange(p) for _ in range(width)] for _ in range(n - 1)],
                 dtype=np.uint64)
    got = modmath.power_series_exp(f, n, p)
    for col in range(width):
        single = modmath.power_series_exp(f[:, col], n, p)
        assert np.array_equal(got[:, col], single)


def test_crt_combine_examples():
    # 23 is the unique solution mod 35; its centered representative is -12
    got = modmath.crt_combine([3, 2], [5, 7])
    assert got % 35 == 23 and got == -12
    assert -35 // 2 < got <= 35 // 2
    assert modmath.crt_combine([0, 0], [5, 7]) == 0
    p1, p2 = modmath.NTT_PRIMES[:2]
    assert modmath.crt_combine([p1 - 1, p2 - 1], [p1, p2]) == -1
    # three moduli, P = 105: 52 is kept, 53 lies above P // 2
    assert modmath.crt_combine([52 % 3, 52 % 5, 52 % 7], [3, 5, 7]) == 52
    assert modmath.crt_combine([53 % 3, 53 % 5, 53 % 7], [3, 5, 7]) == 53 - 105


def test_crt_combine_bijective_on_random_samples():
    rng = random.Random(2718)
    p1, p2 = modmath.NTT_PRIMES[:2]
    half = p1 * p2 // 2
    for _ in range(10000):
        x = rng.randrange(-half + 1, half + 1)
        assert modmath.crt_combine([x % p1, x % p2], [p1, p2]) == x
