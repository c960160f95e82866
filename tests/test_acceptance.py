"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Exactness criteria are zero-tolerance integer equalities against the
brute-force oracles; the scaling criterion asserts the fitted log-log slope
hard bound and reports the advisory bound. Stated time targets are measured
and reported, not asserted (hardware varies); values always are asserted.
"""

import dataclasses
import math
import multiprocessing
import random
import time
from fractions import Fraction

import numpy as np
import pytest

import fixtures
import primeconv
from primeconv import counting, error_correction as ec, modmath, oracles
from primeconv import segmentation as seg, sieve, smooth_mobius as sm

pytestmark = pytest.mark.slow


def _report(capsys, num, name, ok, detail=""):
    line = f"ACCEPTANCE {num} ({name}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line, flush=True)
    if capsys is not None:  # surface the line through pytest's capture
        with capsys.disabled():
            print(line, flush=True)
    assert ok, line


def _pi_batch(ns):
    return [primeconv.count_primes(n) for n in ns]


def _mertens_batch(ns):
    return [primeconv.mertens(n) for n in ns]


def _derived_batch(job):
    kind, payload = job
    if kind == "sum":
        ell, ns = payload
        return [primeconv.sum_over_primes(n, ell) for n in ns]
    if kind == "sqfree":
        return [primeconv.count_squarefree(n) for n in payload]
    if kind == "totient":
        return [primeconv.totient_sum(n) for n in payload]
    if kind == "pimod":
        m, pairs = payload
        return [primeconv.count_primes_mod(n, m, r) for n, r in pairs]
    raise AssertionError(kind)


def _pool_map(fn, jobs):
    ctx = multiprocessing.get_context("fork")
    with ctx.Pool(2) as pool:
        return pool.map(fn, jobs)


def test_criterion_1_pi_exactness(capsys):
    t0 = time.perf_counter()
    small = list(range(1, 10 ** 4 + 1))
    oracle_small = oracles.pi_naive(small[-1], small)
    bad = [n for n, e in zip(small, oracle_small)
           if primeconv.count_primes(n) != e]
    rng = random.Random(20260808)
    ns = sorted(rng.randrange(10 ** 4, 10 ** 8 + 1) for _ in range(1000))
    expected = oracles.pi_naive(ns[-1], ns)
    chunks = [ns[i::16] for i in range(16)]
    got_chunks = _pool_map(_pi_batch, chunks)
    got = {}
    for chunk, vals in zip(chunks, got_chunks):
        got.update(zip(chunk, vals))
    bad += [n for n, e in zip(ns, expected) if got[n] != e]
    dt = time.perf_counter() - t0
    _report(capsys, 1, "pi exactness 1..1e4 and 1000 random to 1e8", not bad,
            f"{dt:.0f}s, target 600s" + (f", first bad {bad[:3]}" if bad else ""))


def test_criterion_2_pi_1e9(capsys):
    t0 = time.perf_counter()
    got = primeconv.count_primes(10 ** 9)
    dt = time.perf_counter() - t0
    _report(capsys, 2, "pi(1e9) vs committed fixture", got == fixtures.PI_1E9,
            f"value {got}, {dt:.1f}s, target 120s")


def test_criterion_3_mertens_exactness(capsys):
    t0 = time.perf_counter()
    small = list(range(1, 10 ** 4 + 1))
    oracle_small = oracles.mertens_naive(small[-1], small)
    bad = [n for n, e in zip(small, oracle_small)
           if primeconv.mertens(n) != e]
    rng = random.Random(3141)
    ns = sorted(rng.randrange(1, 10 ** 7 + 1) for _ in range(200))
    expected = oracles.mertens_naive(ns[-1], ns)
    chunks = [ns[i::8] for i in range(8)]
    got_chunks = _pool_map(_mertens_batch, chunks)
    got = {}
    for chunk, vals in zip(chunks, got_chunks):
        got.update(zip(chunk, vals))
    bad += [n for n, e in zip(ns, expected) if got[n] != e]
    dt = time.perf_counter() - t0
    _report(capsys, 3, "mertens exactness 1..1e4 and 200 random to 1e7", not bad,
            f"{dt:.0f}s" + (f", first bad {bad[:3]}" if bad else ""))


def test_criterion_4_derived_functions(capsys):
    t0 = time.perf_counter()
    rng = random.Random(271828)
    failures = []

    small = list(range(1, 10 ** 4 + 1))
    ns100 = sorted(rng.randrange(10 ** 4, 10 ** 6 + 1) for _ in range(100))

    # prime-power sums, ell = 0, 1, 2
    jobs = [("sum", (ell, ns100)) for ell in (0, 1, 2)]
    # square-free counts and totient sums
    jobs.append(("sqfree", ns100))
    jobs.append(("totient", ns100))
    # residue classes: for each m all coprime residues at each random n
    mods = (3, 4, 5, 7, 8, 12, 30)

    def residue_pairs(m):
        return [(n, r % m) for n in ns100 for r in range(1, m + 1)
                if math.gcd(r % m, m) == 1]

    for m in mods:
        jobs.append(("pimod", (m, residue_pairs(m))))
    results = _pool_map(_derived_batch, jobs)

    for ell, got in zip((0, 1, 2), results[:3]):
        expect = [oracles.sum_primes_naive(n, ell) for n in ns100]
        if got != expect:
            failures.append(f"sum-primes ell={ell}")
    if results[3] != oracles.sqfree_naive(ns100[-1], ns100):
        failures.append("squarefree")
    if results[4] != oracles.totient_sum_naive(ns100[-1], ns100):
        failures.append("totient-sum")
    for m, got in zip(mods, results[5:]):
        expect = [oracles.pi_mod_naive(n, m, r) for n, r in residue_pairs(m)]
        if got != expect:
            failures.append(f"pi-mod m={m}")

    # the small sweep runs the public functions over 1..1e4 directly
    sq_small = oracles.sqfree_naive(small[-1], small)
    tot_small = oracles.totient_sum_naive(small[-1], small)
    sum_small = {ell: [0] for ell in (0, 1, 2)}
    primes_small = [int(p) for p in sieve.primes_up_to(10 ** 4)]
    for ell in (0, 1, 2):
        acc, vals, primes_iter = 0, [], iter(primes_small + [10 ** 9])
        nxt = next(primes_iter)
        for n in small:
            while nxt <= n:
                acc += nxt ** ell
                nxt = next(primes_iter)
            vals.append(acc)
        sum_small[ell] = vals
    step = 1  # exact sweep over the full small range
    for i, n in enumerate(small[::step]):
        if primeconv.count_squarefree(n) != sq_small[i]:
            failures.append(f"squarefree small {n}")
            break
        if primeconv.totient_sum(n) != tot_small[i]:
            failures.append(f"totient small {n}")
            break
        for ell in (0, 1, 2):
            if primeconv.sum_over_primes(n, ell) != sum_small[ell][i]:
                failures.append(f"sum-primes small {n} ell={ell}")
                break
    prime_arr = np.array(primes_small, dtype=np.int64)
    for m in mods:
        res_cum = {}
        for r in range(m):
            if math.gcd(r, m) == 1:
                mask = (prime_arr % m) == r
                res_cum[r] = np.cumsum(mask)
        idx = np.searchsorted(prime_arr, np.array(small), side="right")
        for r, cum in res_cum.items():
            table = np.concatenate([[0], cum])[idx]
            for i, n in enumerate(small):
                if primeconv.count_primes_mod(n, m, r) != int(table[i]):
                    failures.append(f"pi-mod small {n} m={m} r={r}")
                    break
    dt = time.perf_counter() - t0
    _report(capsys, 4, "derived functions vs oracles", not failures,
            f"{dt:.0f}s" + (f", {failures[:4]}" if failures else ""))


def _enum_mobius_cells(primes, cells, top):
    out = np.zeros(top + 1, dtype=np.int64)

    def walk(i, k, sign):
        out[k] += sign
        for j in range(i, len(primes)):
            nk = k + cells[j]
            if nk > top:
                continue
            walk(j + 1, nk, -sign)

    walk(0, 0, 1)
    return out


def test_criterion_5_identity_suite(capsys):
    t0 = time.perf_counter()
    n_max = 2000
    ones = np.ones(n_max + 1, dtype=np.int64)
    pi_table = np.concatenate([[0], np.cumsum(oracles._prime_mask(n_max))[1:]])
    bad = []
    # band by isqrt so each truncated-Mobius table serves a range of n
    dirichlet_prefix = {}
    for b in range(1, math.isqrt(n_max) + 1):
        mus = oracles.mu_smooth_naive(n_max, b).astype(np.int64)
        conv = oracles.dirichlet_convolve_naive(ones, mus, n_max)
        dirichlet_prefix[b] = np.cumsum(conv)
    for n in range(16, n_max + 1):
        b = math.isqrt(n)
        lhs = int(dirichlet_prefix[b][n])
        rhs = int(pi_table[n]) - int(pi_table[b]) + 1
        if lhs != rhs:
            bad.append(("pi-relation", n))
            break
    band_params = {}
    for n in range(16, n_max + 1):
        b = math.isqrt(n)
        primes = [int(p) for p in sieve.primes_up_to(b)]
        dirichlet = int(dirichlet_prefix[b][n])
        lbits = n.bit_length()
        for j in range(1, 11):
            delta = Fraction(j, 41 * lbits)
            key = (lbits, j)
            if key not in band_params:
                band_params[key] = seg.make_params((1 << lbits) - 1, delta)
            params = dataclasses.replace(
                band_params[key], n=n, window=None,
                top_cell=seg.cell_index(n, band_params[key]))
            top = params.top_cell
            cells = [seg.cell_index(p, params) for p in primes]
            muhat = _enum_mobius_cells(primes, cells, top)
            tops = (params.bounds[1:top + 2][::-1].astype(np.int64) - 1)
            segmented = int(np.sum(muhat * tops))
            # the window (n, 2n] lies inside the band's boundary table and
            # holds the scan's window
            (corr,) = ec.pairs_correction(
                dataclasses.replace(params, window=n), b)
            if segmented - dirichlet != corr:
                bad.append(("error-term", n, j))
            shrunk = seg.error_window_size(params)
            if shrunk > n or ec.pairs_correction(
                    dataclasses.replace(params, window=shrunk), b) != [corr]:
                bad.append(("shrunk-window", n, j))
        if bad:
            break
    dt = time.perf_counter() - t0
    _report(capsys, 5, "identity suite on [16, 2000] x 10 deltas", not bad,
            f"{dt:.0f}s" + (f", {bad[:2]}" if bad else ""))


def test_criterion_6_newton_suite(capsys):
    t0 = time.perf_counter()
    bad = []
    for bound in range(2, 101):
        primes = [int(p) for p in sieve.primes_up_to(bound)]
        if not primes:
            continue
        for delta in (Fraction(1), Fraction(1, 2), Fraction(1, 10)):
            n = bound * bound
            params = seg.make_params(n, delta)
            top = params.top_cell
            cells = [seg.cell_index(p, params) for p in primes]
            r_max = min(len(primes), top // max(1, cells[0]))
            cs = oracles.newton_direct(primes, n, delta, r_max)
            ref = [np.zeros(top + 1, dtype=np.int64) for _ in range(r_max + 1)]

            def walk(i, k, r):
                ref[r][k] += 1
                for j in range(i, len(primes)):
                    nk = k + cells[j]
                    if nk > top or r + 1 > r_max:
                        continue
                    walk(j + 1, nk, r + 1)

            walk(0, 0, 0)
            for r in range(r_max + 1):
                if not np.array_equal(cs[r], ref[r]):
                    bad.append((bound, float(delta), r))
    rng = random.Random(606)
    for _ in range(50):
        n = rng.randrange(16, 10 ** 4)
        delta = Fraction(1, rng.randrange(2 * n.bit_length(), 250))
        params = seg.make_params(n, delta)
        top = params.top_cell
        primes = sieve.primes_up_to(math.isqrt(n))
        for p in modmath.NTT_PRIMES[:2]:
            got = sm.smooth_mobius_cells(
                primes, params, p, [counting.MultiplicativeWeight.power(0)])[0]
            if len(primes):
                r_cap = min(len(primes),
                            top // seg.cell_index(int(primes[0]), params))
                cs = oracles.newton_direct(primes, n, delta, r_cap)
                acc = np.zeros(top + 1, dtype=np.int64)
                for r, c in enumerate(cs):
                    acc += c.astype(np.int64) if r % 2 == 0 else -c.astype(np.int64)
                if not np.array_equal(got, acc % p):
                    bad.append(("fourier", n, str(delta)))
    dt = time.perf_counter() - t0
    _report(capsys, 6, "newton product arrays and fourier path", not bad,
            f"{dt:.0f}s" + (f", {bad[:3]}" if bad else ""))


def test_criterion_7_delta_invariance(capsys, cutoff):
    t0 = time.perf_counter()
    rng = random.Random(1618)
    cfg_ns = sorted(rng.randrange(10 ** 3, 10 ** 6) for _ in range(20))
    pi_expect = oracles.pi_naive(cfg_ns[-1], cfg_ns)
    m_expect = oracles.mertens_naive(cfg_ns[-1], cfg_ns)
    # square-free counts send their thresholds in (500, isqrt(n)] to
    # mertens_multi, which takes the scaled pipeline delta
    sq_expect = oracles.sqfree_naive(cfg_ns[-1], cfg_ns)
    cutoff(500)
    bad = []
    for n, pe, me, se in zip(cfg_ns, pi_expect, m_expect, sq_expect):
        pis, ms, sqs = set(), set(), set()
        for j in range(10):
            scale = Fraction(1, 2) + Fraction(j, 9)
            cfg = counting.Config(delta_scale=scale)
            pis.add(primeconv.count_primes(n, cfg))
            ms.add(primeconv.mertens(n, cfg))
            sqs.add(primeconv.count_squarefree(n, cfg))
        if pis != {pe}:
            bad.append(("pi", n, sorted(pis)))
        if ms != {me}:
            bad.append(("mertens", n, sorted(ms)))
        if sqs != {se}:
            bad.append(("squarefree", n, sorted(sqs)))
    dt = time.perf_counter() - t0
    _report(capsys, 7, "delta invariance +-50% on 20 sizes", not bad,
            f"{dt:.0f}s" + (f", {bad[:2]}" if bad else ""))


def test_criterion_8_scaling_slope(capsys):
    t0 = time.perf_counter()
    rows = []
    for n in (10 ** 8, 10 ** 9, 10 ** 10):
        t1 = time.perf_counter()
        value = primeconv.count_primes(n)
        rows.append((n, value, time.perf_counter() - t1))
    assert rows[0][1] == 5761455
    assert rows[1][1] == fixtures.PI_1E9
    xs = [math.log(n) for n, _, _ in rows]
    ys = [math.log(t) for _, _, t in rows]
    xm, ym = sum(xs) / 3, sum(ys) / 3
    slope = (sum((x - xm) * (y - ym) for x, y in zip(xs, ys))
             / sum((x - xm) ** 2 for x in xs))
    dt = time.perf_counter() - t0
    times = ", ".join(f"{n:.0e}:{t:.1f}s" for n, _, t in rows)
    advisory = "advisory<=0.75 met" if slope <= 0.75 else "advisory 0.75 EXCEEDED"
    _report(capsys, 8, "runtime slope over 1e8..1e10", slope <= 0.9,
            f"slope {slope:.3f}, hard bound 0.9, {advisory}; {times}; {dt:.0f}s")


def test_criterion_9_transform_micro_suite(capsys):
    t0 = time.perf_counter()
    rng = random.Random(909)
    ok = True
    p1, p2 = modmath.NTT_PRIMES[:2]
    for p in (p1, p2):
        for length in (2, 8, 64, 256, 1024):
            ctx = modmath.get_context(p, length)
            for _ in range(100):
                x = np.array([rng.randrange(p) for _ in range(length)],
                             dtype=np.uint64)
                ok &= bool(np.array_equal(
                    modmath.ntt_inverse(modmath.ntt_forward(x, ctx), ctx), x))
    for p in (p1, p2):
        for n in (3, 50, 256):
            a = [rng.randrange(p) for _ in range(n)]
            b = [rng.randrange(p) for _ in range(n)]
            school = [0] * (2 * n - 1)
            for i, x in enumerate(a):
                for j, y in enumerate(b):
                    school[i + j] = (school[i + j] + x * y) % p
            ok &= modmath.convolve_mod(np.array(a, np.uint64),
                                       np.array(b, np.uint64), p).tolist() == school
    for _ in range(20):
        n = rng.randrange(2, 30)
        f = [0] + [rng.randrange(p1) for _ in range(n - 1)]
        got = modmath.power_series_exp(np.array(f, np.uint64), n, p1)
        e = [j * f[j] % p1 for j in range(n)]
        c = [1] + [0] * (n - 1)
        for r in range(1, n):
            acc = sum(c[r - j] * e[j] for j in range(1, r + 1)) % p1
            c[r] = acc * pow(r, -1, p1) % p1
        ok &= got.tolist() == c
    half = p1 * p2 // 2
    for _ in range(10 ** 4):
        x = rng.randrange(-half + 1, half + 1)
        ok &= modmath.crt_combine([x % p1, x % p2], [p1, p2]) == x
    dt = time.perf_counter() - t0
    _report(capsys, 9, "transform/CRT micro-suite", ok, f"{dt:.0f}s")


def test_criterion_10_mertens_scaling_slope(capsys):
    t0 = time.perf_counter()
    rows = []
    for n in (10 ** 8, 10 ** 9, 10 ** 10):
        t1 = time.perf_counter()
        value = primeconv.mertens(n)
        rows.append((n, value, time.perf_counter() - t1))
    # OEIS A084237
    assert [v for _, v, _ in rows] == [1928, -222, -33722]
    xs = [math.log(n) for n, _, _ in rows]
    ys = [math.log(t) for _, _, t in rows]
    xm, ym = sum(xs) / 3, sum(ys) / 3
    slope = (sum((x - xm) * (y - ym) for x, y in zip(xs, ys))
             / sum((x - xm) ** 2 for x in xs))
    dt = time.perf_counter() - t0
    times = ", ".join(f"{n:.0e}:{t:.1f}s" for n, _, t in rows)
    _report(capsys, 10, "mertens runtime slope over 1e8..1e10", slope <= 0.9,
            f"slope {slope:.3f}, hard bound 0.9; {times}; {dt:.0f}s")
