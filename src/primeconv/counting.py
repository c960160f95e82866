"""Public number-theoretic functions.

Each function runs the same three-phase pipeline: build the cell arrays
(weighted ones-array implicitly via prefix sums, truncated-Mobius array via
the Fourier Newton route), sum the truncated convolution with the prefix
trick, then remove the exact window correction and lift the per-modulus
residues through the CRT. Small inputs fall back to the direct sieves in
oracles, which are exact by construction.
"""

import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import error_correction, modmath, oracles, segmentation, sieve, smooth_mobius


class ResultRangeError(Exception):
    """The requested value may not fit the CRT reconstruction range."""


class ModulusSupportError(Exception):
    """No modulus pair in the pool supports the requested character group."""


@dataclass
class Config:
    """Run-time knobs shared by every public function."""
    delta_scale: Fraction = Fraction(1)
    cutoff: int = 100_000
    chunk_size: int | None = None
    threads: int = 0  # 0 = available parallelism
    moduli: tuple | None = None
    max_n: int = 10 ** 11
    max_character_modulus: int = 10_000

    def resolved_threads(self):
        return self.threads if self.threads > 0 else (os.cpu_count() or 1)

    def modulus_pair(self):
        return self.moduli if self.moduli is not None else modmath.DEFAULT_MODULI


DEFAULT_CONFIG = Config()

_char_pipeline_cache = {}


@dataclass
class ResultBundle:
    """A computed value plus the provenance needed to reproduce it."""
    function: str
    n: int
    value: int
    delta: Fraction | None
    window: int | None
    moduli: tuple | None
    timings: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)


class MultiplicativeWeight:
    """Completely multiplicative weight with O(1) prefix sums per modulus.

    Three kinds: the unit weight, n -> n^ell, and Dirichlet characters (whose
    values live in the NTT prime fields as roots of unity). The descriptor
    records which.
    """

    def __init__(self, kind, ell=0, char_mod=0, char_index=0, tables=None,
                 prefix_tables=None):
        self.kind = kind
        self.ell = ell
        self.char_mod = char_mod
        self.char_index = char_index
        self._tables = tables or {}
        self._prefix_tables = prefix_tables or {}

    @staticmethod
    def unit():
        return MultiplicativeWeight("unit")

    @staticmethod
    def power(ell):
        if ell < 0 or ell > 16:
            raise ValueError("power weight supports exponents 0..16")
        return MultiplicativeWeight("unit" if ell == 0 else "power", ell=ell)

    @property
    def is_unit(self):
        return self.kind == "unit"

    @property
    def descriptor(self):
        if self.kind == "unit":
            return "unit"
        if self.kind == "power":
            return f"n^{self.ell}"
        return f"character({self.char_mod},{self.char_index})"

    def value_at(self, n, modulus):
        if self.kind == "unit":
            return 1 % modulus
        if self.kind == "power":
            return pow(n % modulus, self.ell, modulus)
        return int(self._tables[modulus][n % self.char_mod])

    def values_vec(self, arr, modulus):
        arr = np.asarray(arr, dtype=np.uint64)
        p = np.uint64(modulus)
        if self.kind == "unit":
            return np.ones(len(arr), dtype=np.uint64)
        if self.kind == "power":
            return _pow_vec(arr % p, self.ell, modulus)
        return self._tables[modulus][(arr % np.uint64(self.char_mod)).astype(np.int64)]

    def prime_power_values(self, primes, r, modulus):
        """h(p^r) = h(p)^r for each prime (residues when modulus given)."""
        arr = np.asarray(primes, dtype=np.uint64)
        if modulus is None:
            if self.kind == "unit":
                return np.ones(len(arr), dtype=np.int64)
            if self.kind == "power":
                return arr.astype(np.int64) ** (self.ell * r)
            raise ValueError("character weights need a modulus")
        vals = self.values_vec(arr, modulus)
        return _pow_vec(vals, r, modulus)

    def prefix_vec(self, arr, modulus):
        """H(x) = sum_{1 <= i <= x} h(i) mod modulus, vectorized."""
        arr = np.asarray(arr, dtype=np.uint64)
        p = np.uint64(modulus)
        if self.kind == "unit":
            return arr % p
        if self.kind == "power":
            return _lagrange_prefix(arr, self.ell, modulus)
        m = np.uint64(self.char_mod)
        full, pre = self._prefix_tables[modulus]
        return ((arr // m) % p * np.uint64(full)
                + pre[(arr % m).astype(np.int64)]) % p

    def prefix_at(self, x, modulus):
        return int(self.prefix_vec(np.array([x], dtype=np.uint64), modulus)[0])


def _pow_vec(vals, e, modulus):
    p = np.uint64(modulus)
    out = np.ones(len(vals), dtype=np.uint64)
    base = vals % p
    while e:
        if e & 1:
            out = out * base % p
        e >>= 1
        if e:
            base = base * base % p
    return out


_lagrange_cache = {}


def _lagrange_prefix(xs, ell, modulus):
    """Power prefix sums via interpolation: H_ell has degree ell + 1, so it is
    determined by its values at 0..ell+1 and evaluated mod p anywhere."""
    k = ell + 2
    key = (ell, modulus)
    if key not in _lagrange_cache:
        ys = np.zeros(k, dtype=np.uint64)
        acc = 0
        for i in range(1, k):
            acc = (acc + pow(i, ell, modulus)) % modulus
            ys[i] = acc
        inv_den = np.zeros(k, dtype=np.uint64)
        for i in range(k):
            den = math.factorial(i) * math.factorial(k - 1 - i)
            if (k - 1 - i) % 2:
                den = -den
            inv_den[i] = pow(den % modulus, -1, modulus)
        _lagrange_cache[key] = (ys, inv_den)
    ys, inv_den = _lagrange_cache[key]
    p = np.uint64(modulus)
    xm = np.asarray(xs, dtype=np.uint64) % p
    pre = np.ones((k, len(xm)), dtype=np.uint64)
    for i in range(1, k):
        pre[i] = pre[i - 1] * ((xm + p - np.uint64(i - 1)) % p) % p
    suf = np.ones(len(xm), dtype=np.uint64)
    out = np.zeros(len(xm), dtype=np.uint64)
    for i in range(k - 1, -1, -1):
        term = ys[i] * inv_den[i] % p
        out = (out + pre[i] * suf % p * term) % p
        suf = suf * ((xm + p - np.uint64(i)) % p) % p
    return out


# --- Dirichlet characters -------------------------------------------------

def _odd_prime_power_generator(q, e):
    mod = q ** e
    phi = (q - 1) * q ** (e - 1)
    fac = _factor_small(phi)
    g = 2
    while True:
        if math.gcd(g, mod) == 1 and all(
                pow(g, phi // f, mod) != 1 for f, _ in fac):
            return g
        g += 1


def _factor_small(n):
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


class _UnitGroup:
    """Cyclic decomposition of (Z/m)* with a full discrete-log table."""

    def __init__(self, m):
        if m < 2:
            raise ValueError("unit group needs m >= 2")
        self.m = m
        comps = []  # (generator lifted mod m, component order)
        for q, e in _factor_small(m):
            qe = q ** e
            if q == 2:
                if e == 2:
                    comps.append((self._lift(3, qe, m), 2))
                elif e >= 3:
                    comps.append((self._lift(qe - 1, qe, m), 2))
                    comps.append((self._lift(5, qe, m), 1 << (e - 2)))
            else:
                g = _odd_prime_power_generator(q, e)
                comps.append((self._lift(g, qe, m), (q - 1) * q ** (e - 1)))
        self.orders = [o for _, o in comps]
        self.phi = math.prod(self.orders) if self.orders else 1
        # digits[n] = exponent tuple of n over the component generators
        elements = [1]
        digit_lists = [()]
        for g, o in comps:
            powers = [1]
            for _ in range(o - 1):
                powers.append(powers[-1] * g % m)
            elements = [el * pw % m for pw in powers for el in elements]
            digit_lists = [dg + (a,) for a in range(o) for dg in digit_lists]
        self.digits = dict(zip(elements, digit_lists))

    @staticmethod
    def _lift(g, qe, m):
        """Element congruent to g mod qe and to 1 mod m/qe."""
        rest = m // qe
        if rest == 1:
            return g % m
        inv = pow(qe, -1, rest)
        return (g + qe * (((1 - g) * inv) % rest)) % m


def _character_weights(m, moduli):
    """All phi(m) Dirichlet characters mod m as weights over the moduli."""
    group = _UnitGroup(m)
    orders = group.orders
    weights = []
    for k in range(group.phi):
        digits = []
        kk = k
        for o in orders:
            digits.append(kk % o)
            kk //= o
        tables = {}
        prefixes = {}
        for p in moduli:
            g = modmath._PRIMITIVE_ROOTS.get(p) or modmath._find_primitive_root(p)
            roots = [pow(g, (p - 1) // o, p) for o in orders]
            tab = np.zeros(m, dtype=np.uint64)
            for n, dg in group.digits.items():
                v = 1
                for ci in range(len(orders)):
                    v = v * pow(roots[ci], digits[ci] * dg[ci], p) % p
                tab[n % m] = v
            pre = np.zeros(m, dtype=np.uint64)
            acc = 0
            for n in range(1, m):
                acc = (acc + int(tab[n])) % p
                pre[n] = acc
            full = (acc + int(tab[0])) % p
            tables[p] = tab
            prefixes[p] = (full, pre)
        weights.append(MultiplicativeWeight(
            "character", char_mod=m, char_index=k,
            tables=tables, prefix_tables=prefixes))
    return weights, group


# --- pipeline helpers -----------------------------------------------------

def _pipeline_delta(n, config):
    c = Fraction(config.delta_scale)
    if c <= 0:
        raise ValueError("delta scale must be positive")
    lup = max(2, (n - 1).bit_length())
    base = segmentation.delta_default(n)
    cap = Fraction(4, 25 * lup)
    return c * min(base, cap)


def _check_supported(n, config):
    if n > config.max_n:
        raise ValueError(f"n = {n} exceeds the supported range {config.max_n}")


def _prefix_dot(arr, weights_mod, modulus):
    p = np.uint64(modulus)
    return int(np.sum(arr * weights_mod % p) % p)


def _celltops_desc(params):
    """cell_top(top - k) for k = 0..top as an array (exact integers)."""
    top = params.top_cell
    return params.bounds_np[1:top + 2][::-1] - 1


def _map_ordered(fn, items, threads):
    if threads > 1 and len(items) > 1:
        with ThreadPoolExecutor(max_workers=min(threads, len(items))) as ex:
            return list(ex.map(fn, items))
    return [fn(it) for it in items]


def _pi_pipeline(n, config, weight=None, char_weights=None, residue=None,
                 skip_correction=False):
    """Shared core: returns (per-modulus approx sums, window term, params,
    primes, timings). char_weights runs several weights over shared params."""
    timings = {}
    t0 = time.perf_counter()
    delta = _pipeline_delta(n, config)
    params = segmentation.make_params(n, delta, need_window=True)
    timings["params"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    bound = math.isqrt(n)
    primes = sieve.primes_up_to(bound)
    timings["primes"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    moduli = config.modulus_pair()
    weights = char_weights if char_weights is not None else [weight]
    celltops = _celltops_desc(params)
    threads = config.resolved_threads()

    def one_modulus(p):
        rows = []
        for w in weights:
            engine_w = None if (w is None or w.is_unit) else w
            mob = smooth_mobius.smooth_mobius_cells(primes, params, p,
                                                    weight=engine_w)
            if w is None or w.is_unit:
                wmod = celltops % np.uint64(p)
            else:
                wmod = w.prefix_vec(celltops, p)
            rows.append(_prefix_dot(mob, wmod, p))
        return rows

    approx = _map_ordered(one_modulus, list(moduli), threads)
    timings["convolution"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    if skip_correction:
        corr = None
    elif char_weights is not None or weight is None or weight.is_unit:
        corr = error_correction.pairs_correction(
            params, bound, residue=residue, chunk_size=config.chunk_size)
    else:
        corr = error_correction.pairs_correction(
            params, bound, weight=weight, moduli=moduli,
            chunk_size=config.chunk_size)
    timings["correction"] = time.perf_counter() - t0
    return approx, corr, params, primes, moduli, timings


def count_primes_result(n, config=None):
    """Exact number of primes <= n."""
    config = config or DEFAULT_CONFIG
    if n < 0:
        raise ValueError("n must be non-negative")
    _check_supported(n, config)
    if n < config.cutoff:
        t0 = time.perf_counter()
        value = oracles.pi_naive(n)
        return ResultBundle("pi", n, value, None, None, None,
                            {"sieve": time.perf_counter() - t0})
    approx, corr, params, primes, moduli, timings = _pi_pipeline(n, config)
    t0 = time.perf_counter()
    residues = []
    for (a,), p in zip(approx, moduli):
        residues.append((a - corr - 1 + len(primes)) % p)
    value = modmath.crt_combine(modmath.CrtPair(
        residues[0], moduli[0], residues[1], moduli[1]))
    timings["combine"] = time.perf_counter() - t0
    return ResultBundle("pi", n, value, params.delta, params.window,
                        tuple(moduli), timings)


def count_primes(n, config=None):
    return count_primes_result(n, config).value


def sum_over_primes_result(n, power=1, config=None):
    """Exact sum of p^power over primes p <= n."""
    config = config or DEFAULT_CONFIG
    if n < 0:
        raise ValueError("n must be non-negative")
    _check_supported(n, config)
    weight = MultiplicativeWeight.power(power)
    moduli = config.modulus_pair()
    if n < config.cutoff:
        t0 = time.perf_counter()
        value = oracles.sum_primes_naive(n, power)
        return ResultBundle("sum-primes", n, value, None, None, None,
                            {"sieve": time.perf_counter() - t0},
                            {"power": power})
    _check_sum_range(n, power, moduli)
    if weight.is_unit:
        bundle = count_primes_result(n, config)
        bundle.function = "sum-primes"
        bundle.extra["power"] = power
        return bundle
    approx, corr, params, primes, moduli, timings = _pi_pipeline(
        n, config, weight=weight)
    t0 = time.perf_counter()
    residues = []
    for (a,), err, p in zip(approx, corr, moduli):
        tail = int(np.sum(weight.values_vec(
            np.asarray(primes, dtype=np.uint64), p).astype(np.int64)) % p)
        residues.append((a - err - 1 + tail) % p)
    value = modmath.crt_combine(modmath.CrtPair(
        residues[0], moduli[0], residues[1], moduli[1]))
    timings["combine"] = time.perf_counter() - t0
    return ResultBundle("sum-primes", n, value, params.delta, params.window,
                        tuple(moduli), timings, {"power": power})


def sum_over_primes(n, power=1, config=None):
    return sum_over_primes_result(n, power, config).value


def _check_sum_range(n, power, moduli):
    if n < 17:
        return
    bound = (13 * n // (10 * max(1, int(math.log(n))))) * n ** power
    product = moduli[0] * moduli[1]
    if bound >= product // 2:
        raise ResultRangeError(
            f"sum of {power}-th prime powers up to {n} may exceed the "
            f"reconstruction range of the modulus pair")


def count_primes_mod_result(n, modulus, residue, config=None):
    """Exact number of primes p <= n with p = residue (mod modulus)."""
    config = config or DEFAULT_CONFIG
    if n < 0 or modulus < 1:
        raise ValueError("need n >= 0 and modulus >= 1")
    if modulus > config.max_character_modulus:
        raise ValueError(f"modulus {modulus} above configured bound")
    if math.gcd(modulus, residue) != 1:
        raise ValueError("residue must be coprime to the modulus")
    if modulus == 1:
        bundle = count_primes_result(n, config)
        bundle.function = "pi-mod"
        bundle.extra.update({"modulus": 1, "residue": 0})
        return bundle
    _check_supported(n, config)
    residue %= modulus
    if n < config.cutoff:
        t0 = time.perf_counter()
        value = oracles.pi_mod_naive(n, modulus, residue)
        return ResultBundle("pi-mod", n, value, None, None, None,
                            {"sieve": time.perf_counter() - t0},
                            {"modulus": modulus, "residue": residue})
    phi_m = 1
    for q, e in _factor_small(modulus):
        phi_m *= (q - 1) * q ** (e - 1)
    pair = _select_moduli(phi_m, config)
    # the character transforms do not depend on the residue; cache them so
    # looping over residues pays only one correction pass per residue
    key = (n, modulus, pair, str(config.delta_scale), config.cutoff,
           config.chunk_size)
    cached = _char_pipeline_cache.get(key)
    if cached is None:
        chars, _ = _character_weights(modulus, pair)
        cfg = Config(**{**config.__dict__, "moduli": pair})
        approx, _, params, primes, _, timings = _pi_pipeline(
            n, cfg, char_weights=chars, skip_correction=True)
        cached = (chars, approx, params, primes)
        _char_pipeline_cache[key] = cached
        while len(_char_pipeline_cache) > 8:
            _char_pipeline_cache.pop(next(iter(_char_pipeline_cache)))
    else:
        timings = {}
    chars, approx, params, primes = cached
    t0 = time.perf_counter()
    corr = error_correction.pairs_correction(
        params, math.isqrt(n), residue=(modulus, residue),
        chunk_size=config.chunk_size)
    timings["correction"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    r_inv = pow(residue, -1, modulus)
    small = int(np.sum(np.asarray(primes, dtype=np.int64) % modulus == residue))
    indicator = 1 if residue % modulus == 1 % modulus else 0
    residues = []
    for rows, p in zip(approx, pair):
        inv_phi = pow(phi_m, -1, p)
        s = 0
        for k, w in enumerate(chars):
            s = (s + int(w._tables[p][r_inv]) * rows[k]) % p
        residues.append((s * inv_phi - corr - indicator + small) % p)
    value = modmath.crt_combine(modmath.CrtPair(
        residues[0], pair[0], residues[1], pair[1]))
    timings["combine"] = time.perf_counter() - t0
    return ResultBundle("pi-mod", n, value, params.delta, params.window,
                        tuple(pair), timings,
                        {"modulus": modulus, "residue": residue})


def count_primes_mod(n, modulus, residue, config=None):
    return count_primes_mod_result(n, modulus, residue, config).value


def _select_moduli(phi_m, config):
    if config.moduli is not None:
        pair = config.moduli
        if any((p - 1) % phi_m for p in pair):
            raise ModulusSupportError(
                f"configured moduli do not admit characters of order {phi_m}")
        return pair
    pool = [p for p in modmath.NTT_PRIMES if (p - 1) % phi_m == 0]
    if len(pool) < 2:
        raise ModulusSupportError(
            f"no modulus pair supports characters of order {phi_m}")
    return tuple(pool[:2])


def mertens_result(n, config=None):
    """Exact Mertens function: sum of mu(k) for k <= n."""
    config = config or DEFAULT_CONFIG
    if n < 0:
        raise ValueError("n must be non-negative")
    _check_supported(n, config)
    if n < config.cutoff:
        t0 = time.perf_counter()
        value = oracles.mertens_naive(n)
        return ResultBundle("mertens", n, value, None, None, None,
                            {"sieve": time.perf_counter() - t0})
    trunc = math.isqrt(n)
    if trunc * trunc < n:
        trunc += 1
    values = mertens_multi([n], trunc, config)
    bundle = values[0]
    bundle.function = "mertens"
    return bundle


def mertens(n, config=None):
    return mertens_result(n, config).value


def mertens_multi(ns, trunc, config=None, delta=None):
    """Mertens values at several thresholds off one truncated convolution.

    Every threshold must satisfy n_i <= trunc^2; thresholds at or below the
    truncation come straight from the sieved prefix sums. Returns a
    ResultBundle per threshold, in input order.
    """
    config = config or DEFAULT_CONFIG
    if trunc < 1:
        raise ValueError("truncation must be >= 1")
    for n_i in ns:
        if n_i < 0 or n_i > trunc * trunc:
            raise ValueError(f"threshold {n_i} outside [0, trunc^2]")
    timings = {}
    t0 = time.perf_counter()
    mu = sieve.mu_up_to(trunc)
    m_trunc = mu.prefix_sum(trunc)
    timings["sieve"] = time.perf_counter() - t0
    big = sorted({n_i for n_i in ns if n_i > trunc})
    results = {n_i: None for n_i in ns}
    for n_i in ns:
        if n_i <= trunc:
            results[n_i] = ResultBundle(
                "mertens-multi", n_i, mu.prefix_sum(max(0, n_i)), None, None,
                None, dict(timings))
    if big:
        t0 = time.perf_counter()
        n_max = big[-1]
        if delta is None:
            delta = _pipeline_delta(n_max, config)
        params_max = segmentation.make_params(n_max, delta)
        moduli = config.modulus_pair()
        # cell array of mu up to the truncation, exact then per-modulus
        cells = segmentation.cell_index_vec(
            np.arange(1, trunc + 1, dtype=np.uint64), params_max)
        vals = mu.values[1:trunc + 1]
        width = params_max.top_cell + 1
        mubar = (np.bincount(cells[vals == 1], minlength=width)
                 - np.bincount(cells[vals == -1], minlength=width)).astype(np.int64)
        mubar = mubar[:width]
        conv2 = {}
        for p in moduli:
            arr = (mubar % p).astype(np.uint64)
            conv2[p] = modmath.convolve_mod(arr, arr, p)
        timings["convolution"] = time.perf_counter() - t0
        for n_i in big:
            t1 = time.perf_counter()
            sub = _reindexed(params_max, n_i)
            top = sub.top_cell
            tops = sub.bounds_np[1:top + 2][::-1] - 1
            residues = []
            corr = error_correction.triples_correction(sub, trunc, mu)
            for p in moduli:
                a = _prefix_dot(conv2[p][:top + 1], tops % np.uint64(p), p)
                residues.append((2 * m_trunc - a + corr) % p)
            value = modmath.crt_combine(modmath.CrtPair(
                residues[0], moduli[0], residues[1], moduli[1]))
            sub_t = dict(timings)
            sub_t["threshold"] = time.perf_counter() - t1
            results[n_i] = ResultBundle(
                "mertens-multi", n_i, value, delta,
                error_correction.triple_window(sub), tuple(moduli), sub_t,
                {"trunc": trunc})
    return [results[n_i] for n_i in ns]


def _reindexed(params, n_new):
    top = segmentation.cell_index(n_new, params)
    return segmentation.SegParams(
        n=n_new, delta=params.delta, top_cell=top, window=None,
        bounds=params.bounds, bounds_np=params.bounds_np)


def count_squarefree_result(n, config=None):
    """Exact count of square-free integers <= n."""
    config = config or DEFAULT_CONFIG
    if n < 0:
        raise ValueError("n must be non-negative")
    _check_supported(n, config)
    if n < config.cutoff:
        t0 = time.perf_counter()
        value = oracles.sqfree_naive(n)
        return ResultBundle("squarefree", n, value, None, None, None,
                            {"sieve": time.perf_counter() - t0})
    timings = {}
    t0 = time.perf_counter()
    d = _icbrt(n)
    limit = max(d, min(config.cutoff, math.isqrt(n)))
    mu = sieve.mu_up_to(limit)
    timings["sieve"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    ks = np.arange(1, d + 1, dtype=np.int64)
    quots = n // (ks * ks)
    total = int(np.sum(mu.values[1:d + 1].astype(np.int64) * quots))
    m_d = mu.prefix_sum(d)
    t_max = n // ((d + 1) * (d + 1))
    pending = {}
    for t in range(1, t_max + 1):
        th = math.isqrt(n // t)
        if th <= limit:
            total += mu.prefix_sum(th) - m_d
        else:
            pending[th] = pending.get(th, 0) + 1
    timings["thresholds"] = time.perf_counter() - t0
    if pending:
        t0 = time.perf_counter()
        delta = Fraction(1, max(d, 8 * max(2, (n - 1).bit_length())))
        # the smallest truncation with every threshold <= trunc^2: the
        # triple correction walks about trunc^2 pairs
        trunc = math.isqrt(max(pending)) + 1
        bundles = mertens_multi(sorted(pending), trunc, config, delta=delta)
        for bundle in bundles:
            total += (bundle.value - m_d) * pending[bundle.n]
        timings["mertens"] = time.perf_counter() - t0
    return ResultBundle("squarefree", n, total, None, None,
                        config.modulus_pair() if pending else None, timings)


def count_squarefree(n, config=None):
    return count_squarefree_result(n, config).value


def _icbrt(n):
    r = round(n ** (1 / 3)) if n > 0 else 0
    while (r + 1) ** 3 <= n:
        r += 1
    while r > 0 and r ** 3 > n:
        r -= 1
    return r


def totient_sum_result(n, config=None):
    """Exact totient summatory function: sum of phi(k) for k <= n."""
    config = config or DEFAULT_CONFIG
    if n < 0:
        raise ValueError("n must be non-negative")
    _check_supported(n, config)
    if n < config.cutoff:
        t0 = time.perf_counter()
        value = oracles.totient_sum_naive(n)
        return ResultBundle("totient-sum", n, value, None, None, None,
                            {"sieve": time.perf_counter() - t0})
    timings = {}
    t0 = time.perf_counter()
    limit = min(n, max(config.cutoff, math.isqrt(n)))
    mu = sieve.mu_up_to(limit)
    timings["sieve"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    total = 0
    pending = {}
    k = 1
    while k <= n:
        q = n // k
        k2 = n // q
        weight = (k + k2) * (k2 - k + 1) // 2
        if q <= limit:
            total += mu.prefix_sum(q) * weight
        else:
            pending[q] = weight
        k = k2 + 1
    timings["blocks"] = time.perf_counter() - t0
    if pending:
        t0 = time.perf_counter()
        trunc = math.isqrt(n)
        if trunc * trunc < n:
            trunc += 1
        bundles = mertens_multi(sorted(pending), trunc, config)
        for bundle in bundles:
            total += bundle.value * pending[bundle.n]
        timings["mertens"] = time.perf_counter() - t0
    return ResultBundle("totient-sum", n, total, None, None,
                        config.modulus_pair() if pending else None, timings)


def totient_sum(n, config=None):
    return totient_sum_result(n, config).value
