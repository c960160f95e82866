"""Public number-theoretic functions.

Each function runs the same three-phase pipeline: build the cell arrays
(weighted ones-array implicitly via prefix sums, truncated-Mobius array via
the Fourier Newton route), sum the truncated convolution with the prefix
trick, then remove the exact window correction and lift the per-modulus
residues through the CRT. The transforms of each NTT prime and the
correction's chunks run as one job list on one worker pool. Every weight is
a MultiplicativeWeight: n^ell (the unit weight is power(0)) or a Dirichlet
character. The NTT primes are as few as a proven bound on the result
allows (see _result_bound and _select_moduli). The correction window comes
from the cell scan of segmentation.error_window_size alone, which puts no
bound on delta * log2(n): every delta that the boundary table, the
transforms and the screen accept gives an exact value. Inputs below
Config.cutoff, a constant, are read off the prime and Mobius sieves of
`sieve`; inputs above MAX_N, or character moduli above
MAX_CHARACTER_MODULUS, are refused. Each call sizes its worker pool from
os.cpu_count().
"""

import functools
import math
import os
import time
from dataclasses import dataclass, field, replace
from fractions import Fraction
from typing import ClassVar

import numpy as np

from . import error_correction, modmath, segmentation, sieve, smooth_mobius


class ResultRangeError(Exception):
    """The requested value may not fit the CRT range of all the pool primes."""


class ModulusSupportError(Exception):
    """Too few pool primes support the requested character group to cover
    the result's range."""


@dataclass(frozen=True)
class Config:
    """Run-time settings shared by every public function.

    delta_scale, the one field, scales the segmentation precision; no value
    depends on it. Inputs below the class constant cutoff are read off the
    sieves of `sieve`. Neither the NTT primes, the chunk length nor the
    worker count is a setting: each call takes the fewest pool primes, in
    pool order, whose product covers its result's proven range (see
    _select_moduli), and chunks and workers sized from its window and
    os.cpu_count() (see error_correction.correction_plan). Frozen: it keys
    the pi-mod passes.
    """
    delta_scale: Fraction = Fraction(1)
    cutoff: ClassVar[int] = 100_000


DEFAULT_CONFIG = Config()

# the largest n and character modulus that any function accepts
MAX_N = 10 ** 11
MAX_CHARACTER_MODULUS = 10_000


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

    Two kinds: n -> n^ell (ell = 0 is the unit weight) and Dirichlet
    characters (whose values live in the NTT prime fields as roots of unity),
    which carry their (digit, order) pair per cyclic factor of (Z/m)*.
    """

    def __init__(self, kind, ell=0, char_mod=0, tables=None,
                 prefix_tables=None, char_digits=()):
        self.kind = kind
        self.ell = ell
        self.char_mod = char_mod
        self.char_digits = char_digits
        self._tables = tables or {}
        self._prefix_tables = prefix_tables or {}

    @staticmethod
    def power(ell):
        if ell < 0 or ell > 16:
            raise ValueError("power weight supports exponents 0..16")
        return MultiplicativeWeight("power", ell=ell)

    @property
    def is_unit(self):
        return self.kind == "power" and self.ell == 0

    def power_key(self, r):
        """Names the weight h^r: n^(ell r), or the character whose digits
        are r times these. Equal keys mean equal values at every prime."""
        if self.kind == "power":
            return ("power", self.ell * r)
        return ("character", self.char_mod,
                tuple(r * a % o for a, o in self.char_digits))

    def values_vec(self, arr, modulus):
        arr = np.asarray(arr, dtype=np.uint64)
        if self.kind == "power":
            return _pow_vec(arr, self.ell, modulus)
        return self._tables[modulus][
            modmath.mod(arr, self.char_mod).astype(np.int64)]

    def prime_power_values(self, primes, r, modulus):
        """h(p^r) = h(p)^r mod modulus for each prime."""
        return _pow_vec(self.values_vec(primes, modulus), r, modulus)

    def prefix_vec(self, arr, modulus):
        """H(x) = sum_{1 <= i <= x} h(i) mod modulus, vectorized."""
        arr = np.asarray(arr, dtype=np.uint64)
        if self.kind == "power":
            return _lagrange_prefix(arr, self.ell, modulus)
        m = np.uint64(self.char_mod)
        full, pre = self._prefix_tables[modulus]
        blocks = arr // m
        tail = pre[(arr - blocks * m).astype(np.int64)]
        out = modmath.mod(blocks, modulus, out=blocks)
        out *= np.uint64(full)
        out += tail
        return modmath.mod(out, modulus, out=out)


def _pow_vec(vals, e, modulus):
    out = np.ones(len(vals), dtype=np.uint64)
    base = modmath.mod(vals, modulus)
    while e:
        if e & 1:
            out *= base
            modmath.mod(out, modulus, out=out)
        e >>= 1
        if e:
            base *= base
            modmath.mod(base, modulus, out=base)
    return out


@functools.cache
def _lagrange_terms(ell, modulus):
    """H_ell(i) / prod_{j != i} (i - j) mod p for i = 0..ell+1: the weights
    of the interpolation nodes 0..ell+1 of H_ell."""
    k = ell + 2
    terms, acc = [], 0  # acc = H_ell(i)
    for i in range(k):
        den = (-1) ** (k - 1 - i) * math.factorial(i) * math.factorial(k - 1 - i)
        terms.append(acc * pow(den % modulus, -1, modulus) % modulus)
        acc = (acc + pow(i + 1, ell, modulus)) % modulus
    return terms


def _lagrange_prefix(xs, ell, modulus):
    """Power prefix sums via interpolation: H_ell has degree ell + 1, so it is
    determined by its values at 0..ell+1 and evaluated mod p anywhere."""
    k = ell + 2
    terms = _lagrange_terms(ell, modulus)
    xm = modmath.mod(np.asarray(xs, dtype=np.uint64), modulus)

    def minus(i):  # (x - i) mod p: x + p - i lies below 2p
        return modmath.mod(xm + np.uint64(modulus - i), modulus)

    pre = np.ones((k, len(xm)), dtype=np.uint64)
    for i in range(1, k):
        pre[i] = modmath.mod(pre[i - 1] * minus(i - 1), modulus)
    suf = np.ones(len(xm), dtype=np.uint64)
    out = np.zeros(len(xm), dtype=np.uint64)
    for i in range(k - 1, -1, -1):
        term = np.uint64(terms[i])
        out += modmath.mod(modmath.mod(pre[i] * suf, modulus) * term, modulus)
        modmath.mod(out, modulus, out=out)
        suf = modmath.mod(suf * minus(i), modulus)
    return out


# --- Dirichlet characters -------------------------------------------------

def _unit_group(m):
    """(generator lifted mod m, order) for each cyclic factor of (Z/m)*."""
    comps = []
    for q, e in modmath.factorize(m):
        qe = q ** e
        if q == 2 and e == 2:
            gens = [(3, 2)]
        elif q == 2:
            # (Z/2)* is trivial and (Z/2^e)* = <-1> x <5> for e >= 3
            gens = [(qe - 1, 2), (5, qe >> 2)] if e > 2 else []
        else:
            # a primitive root g mod q generates mod q^e unless
            # g^(q-1) = 1 mod q^2, and then g + q does
            g = modmath.primitive_root(q)
            if pow(g, q - 1, q * q) == 1:
                g += q
            gens = [(g, (q - 1) * q ** (e - 1))]
        comps += [(modmath.crt_combine([g, 1], [qe, m // qe]) % m, o)
                  for g, o in gens]
    return comps


def _character_weights(m, moduli):
    """The phi(m) Dirichlet characters mod m as weights over the moduli.

    Unit j is prod_i g_i^(a_ij) over the cyclic factors (g_i, o_i) of (Z/m)*,
    the first factor's digit varying fastest, and character k maps unit j to
    zeta^(sum_i a_ik a_ij E / o_i) for zeta a primitive E-th root of unity
    mod p, E = lcm(o_i). Each prime fills its phi x m value table from the
    powers of zeta, one gather per block of about 2^16 exponents, so no
    phi x phi array is held, and its prefix table with one cumsum; the
    weights hold row views of both.
    """
    comps = _unit_group(m)
    units = np.ones(1, dtype=np.int64)
    digits = np.zeros((0, 1), dtype=np.int64)
    for g, o in comps:
        powers = modmath.power_table(g, o, m).astype(np.int64)
        digits = np.vstack([np.tile(digits, o),
                            np.repeat(np.arange(o), len(units))])
        units = (np.outer(powers, units) % m).ravel()
    order = math.lcm(*(o for _, o in comps))
    zetas = {p: modmath.power_table(
        pow(modmath.primitive_root(p), (p - 1) // order, p), order, p)
        for p in moduli}
    tables = {p: np.zeros((len(units), m), dtype=np.uint64) for p in moduli}
    step = max(1, (1 << 16) // len(units))
    for k in range(0, len(units), step):
        exps = sum(np.outer(row[k:k + step] * (order // o), row)
                   for row, (_, o) in zip(digits, comps)) % order
        for p in moduli:
            tables[p][k:k + step, units] = zetas[p][exps]
    prefixes = {}
    for p, tab in tables.items():
        # entries are below 2^32, so no row sum reaches 2^64 while m < 2^32
        prefixes[p] = np.cumsum(tab, axis=1)
        prefixes[p] %= np.uint64(p)
    orders = [o for _, o in comps]
    return [MultiplicativeWeight(
        "character", char_mod=m,
        tables={p: tables[p][k] for p in moduli},
        prefix_tables={p: (int(prefixes[p][k, -1]), prefixes[p][k])
                       for p in moduli},
        char_digits=tuple(zip(digits[:, k].tolist(), orders)))
        for k in range(len(units))]


# --- pipeline helpers -----------------------------------------------------

def _pipeline_delta(n, config):
    lup = max(2, (n - 1).bit_length())
    base = segmentation.delta_default(n)
    cap = Fraction(4, 25 * lup)
    return Fraction(config.delta_scale) * min(base, cap)


def check_config(config):
    """Refuse a Config that no run could honour, whatever n is."""
    if Fraction(config.delta_scale) <= 0:
        raise ValueError("delta scale must be positive")


def check_arguments(function, n, config, *, power=1, modulus=1, residue=0):
    """Refuse arguments that `function` (a CLI name) never accepts, whichever
    route would answer: the pipeline, the direct sieves below the cutoff or
    the oracle subcommand. power and modulus/residue are read by sum-primes
    and pi-mod only."""
    check_config(config)
    if n < 0:
        raise ValueError("n must be non-negative")
    if n > MAX_N:
        raise ValueError(f"n = {n} exceeds the supported range {MAX_N}")
    if function == "sum-primes":
        MultiplicativeWeight.power(power)  # refuses exponents outside 0..16
    if function == "pi-mod":
        if modulus < 1:
            raise ValueError("modulus must be >= 1")
        if modulus > MAX_CHARACTER_MODULUS:
            raise ValueError(f"modulus {modulus} exceeds "
                             f"MAX_CHARACTER_MODULUS = {MAX_CHARACTER_MODULUS}")
        if math.gcd(modulus, residue) != 1:
            raise ValueError("residue must be coprime to the modulus")


def _prefix_dot(arr, weights_mod, modulus):
    # each reduced product is below 2^32: no sum of fewer than 2^32 wraps
    return int(np.sum(modmath.mod(arr * weights_mod, modulus))) % modulus


def _celltops_desc(params):
    """cell_top(top - k) for k = 0..top as an array (exact integers)."""
    top = params.top_cell
    return params.bounds[1:top + 2][::-1] - 1


def _pipeline(n, config, weights, moduli, **kwargs):
    """The transforms of `weights` over each prime of `moduli` and the pair
    correction at isqrt(n) (pairs_correction's keywords in kwargs), queued
    as one job list on one pool: the transform jobs go first, so that they
    run beside the correction's chunks. Returns the per-prime rows of
    approximate sums (one per weight), the correction, params, primes, the
    timings and, for --json, the correction's plan: its chunk jobs, the
    pool's workers, the divisor split X and the largest stride cofactor."""
    timings = {}
    t0 = time.perf_counter()
    delta = _pipeline_delta(n, config)
    params = segmentation.make_params(n, delta, need_window=True)
    timings["params"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    bound = math.isqrt(n)
    primes = sieve.primes_up_to(bound)
    timings["primes"] = time.perf_counter() - t0
    celltops = _celltops_desc(params)
    plan = error_correction.correction_plan(
        params, bound, os.cpu_count() or 1, len(moduli))

    def one_modulus(p):
        mob = smooth_mobius.smooth_mobius_cells(primes, params, p,
                                                weights=weights)
        return [_prefix_dot(row, w.prefix_vec(celltops, p), p)
                for row, w in zip(mob, weights)]

    with error_correction.JobPool(plan.workers) as pool:
        approx = [pool.submit("convolution", one_modulus, p) for p in moduli]
        corr = error_correction.pairs_correction(
            params, bound, moduli=moduli, pool=pool, **kwargs)
        approx = [job.result() for job in approx]
    # summed job durations: with several workers the phases overlap
    for phase in ("convolution", "correction"):
        timings[phase] = pool.seconds.get(phase, 0.0)
    counts = {"correction_chunks": plan.chunks,
              "correction_workers": plan.workers,
              "correction_split": plan.split,
              "stride_cofactors": plan.cofactors}
    return approx, corr, params, primes, timings, counts


def _sieved(n):
    # n <= 1, which has no pipeline cell width, lies below the cutoff
    return n < Config.cutoff


def _sieve_result(function, n, total, extra=None):
    """The bundle of total(primes up to n), for an input that _sieved keeps
    off the pipeline."""
    t0 = time.perf_counter()
    value = total(sieve.primes_up_to(n))
    return ResultBundle(function, n, value, None, None, None,
                        {"sieve": time.perf_counter() - t0}, extra or {})


def _prime_sum_result(function, n, weight, config, extra):
    """Sum of h(p) over primes p <= n through the main pipeline."""
    moduli = _select_moduli(_result_bound(function, n, weight.ell))
    approx, corr, params, primes, timings, counts = _pipeline(
        n, config, [weight], moduli, weight=weight)
    if weight.is_unit:
        corr = corr * len(moduli)  # the one exact class serves every modulus
    t0 = time.perf_counter()
    residues = []
    for (a,), err, p in zip(approx, corr, moduli):
        tail = int(np.sum(weight.values_vec(primes, p).astype(np.int64)) % p)
        residues.append((a - err - 1 + tail) % p)
    value = modmath.crt_combine(residues, moduli)
    timings["combine"] = time.perf_counter() - t0
    extra.update(smooth_mobius.transform_counters(primes, params, [weight]))
    extra.update(counts)
    return ResultBundle(function, n, value, params.delta, params.window,
                        moduli, timings, extra)


def count_primes_result(n, config=None):
    """Exact number of primes <= n."""
    config = config or DEFAULT_CONFIG
    check_arguments("pi", n, config)
    if _sieved(n):
        return _sieve_result("pi", n, len)
    return _prime_sum_result("pi", n, MultiplicativeWeight.power(0), config, {})


def count_primes(n, config=None):
    return count_primes_result(n, config).value


def sum_over_primes_result(n, power=1, config=None):
    """Exact sum of p^power over primes p <= n."""
    config = config or DEFAULT_CONFIG
    check_arguments("sum-primes", n, config, power=power)
    weight = MultiplicativeWeight.power(power)
    if _sieved(n):
        # Python ints: p^16 overflows int64 from p = 17
        return _sieve_result(
            "sum-primes", n, lambda ps: sum(p ** power for p in ps.tolist()),
            extra={"power": power})
    return _prime_sum_result("sum-primes", n, weight, config, {"power": power})


def sum_over_primes(n, power=1, config=None):
    return sum_over_primes_result(n, power, config).value


def _result_bound(function, n, power=0):
    """A proven bound on |value| of `function` (a CLI name) at n; for
    "mertens" n is the largest threshold of a mertens_multi call, which also
    serves squarefree and totient-sum."""
    if function == "mertens":
        return n  # |M(x)| <= x
    # pi(x) < 1.25506 x / ln x for x > 1 (Rosser and Schoenfeld, Illinois J.
    # Math. 6 (1962), Corollary 1), so pi(n) <= 13 n // (10 floor(ln n)); a
    # sum of p^power over primes <= n is at most pi(n) n^power, and pi-mod
    # counts a subset of the primes
    primes = 13 * n // (10 * max(1, int(math.log(max(n, 2)))))
    return primes * n ** power


def _select_moduli(bound, order=1):
    """The first pool primes, in modmath.NTT_PRIMES order, whose p - 1 the
    character order divides, as few as make their product exceed 2 * bound:
    crt_combine then returns every value in [-bound, bound] exactly. Raises
    ResultRangeError when even the whole pool cannot cover the bound, and
    ModulusSupportError when the primes that support the order cannot."""
    usable = tuple(p for p in modmath.NTT_PRIMES if (p - 1) % order == 0)
    for k in range(1, len(usable) + 1):
        if math.prod(usable[:k]) > 2 * bound:
            return usable[:k]
    if math.prod(modmath.NTT_PRIMES) <= 2 * bound:
        raise ResultRangeError(
            f"the result may reach {bound}, beyond the reconstruction range "
            f"of all {len(modmath.NTT_PRIMES)} pool primes")
    raise ModulusSupportError(
        f"the pool primes that support characters of order {order} cannot "
        f"reconstruct a result up to {bound}")


def count_primes_mod_result(n, modulus, residue, config=None):
    """Exact number of primes p <= n with p = residue (mod modulus)."""
    config = config or DEFAULT_CONFIG
    check_arguments("pi-mod", n, config, modulus=modulus, residue=residue)
    if modulus == 1:
        bundle = count_primes_result(n, config)
        bundle.function = "pi-mod"
        bundle.extra.update({"modulus": 1, "residue": 0})
        return bundle
    residue %= modulus
    if _sieved(n):
        return _sieve_result(
            "pi-mod", n,
            lambda ps: int(np.count_nonzero(ps % modulus == residue)),
            extra={"modulus": modulus, "residue": residue})
    counts, params, moduli, timings, extra = _residue_pass(n, modulus, config)
    return ResultBundle("pi-mod", n, counts[residue], params.delta,
                        params.window, moduli, dict(timings),
                        {"modulus": modulus, "residue": residue, **extra})


@functools.lru_cache(maxsize=8)
def _residue_pass(n, modulus, config):
    """({r: pi(n; modulus, r)} over r coprime to modulus > 1, params, moduli,
    timings, extra) from one run of the character transforms and one
    per-class correction pass: the residue enters only the combine. Every
    residue reports the timings and counters of the pass it reads."""
    # phi(m) characters whose values have order dividing lambda(m)
    orders = [o for _, o in _unit_group(modulus)]
    phi_m = math.prod(orders)
    moduli = _select_moduli(_result_bound("pi-mod", n), math.lcm(*orders))
    chars = _character_weights(modulus, moduli)
    approx, classes, params, primes, timings, extra = _pipeline(
        n, config, chars, moduli, modulus=modulus)
    extra.update(smooth_mobius.transform_counters(primes, params, chars))
    t0 = time.perf_counter()
    inv = error_correction._inverse_table(modulus)
    units = np.flatnonzero(inv >= 0)
    unit_inv = inv[units]
    # the character sum of class r, less the class's pair correction,
    # counts its primes in (isqrt(n), n] and, for r = 1, the integer 1
    fixed = (np.bincount(primes % modulus, minlength=modulus)[units]
             - np.array(classes, dtype=np.int64)[units] - (units == 1))
    residues = []
    for rows, p in zip(approx, moduli):
        s = np.zeros(len(units), dtype=np.uint64)
        for row, w in zip(rows, chars):
            # each term is below 2^32, so fewer than 2^32 of them never wrap
            s += modmath.mod(w.values_vec(unit_inv, p) * np.uint64(row), p)
        s = modmath.mod(modmath.mod(s, p) * np.uint64(pow(phi_m, -1, p)), p)
        residues.append((s.astype(np.int64) + fixed) % p)
    counts = {r: modmath.crt_combine(col, moduli) for r, col in
              zip(units.tolist(), zip(*(x.tolist() for x in residues)))}
    timings["combine"] = time.perf_counter() - t0
    return counts, params, moduli, timings, extra


def count_primes_mod(n, modulus, residue, config=None):
    return count_primes_mod_result(n, modulus, residue, config).value


def mertens_result(n, config=None):
    """Exact Mertens function: sum of mu(k) for k <= n."""
    config = config or DEFAULT_CONFIG
    check_arguments("mertens", n, config)
    # below the cutoff n is its own truncation: M(n) is read off the mu sieve
    trunc = max(n, 1) if _sieved(n) else math.isqrt(n - 1) + 1
    bundle = mertens_multi([n], trunc, config)[0]
    bundle.function = "mertens"
    return bundle


def mertens(n, config=None):
    return mertens_result(n, config).value


def mertens_multi(ns, trunc, config=None):
    """Mertens values at several thresholds off one truncated convolution.

    Every threshold must satisfy n_i <= trunc^2; thresholds at or below the
    truncation come straight from the sieved prefix sums. Returns a
    ResultBundle per threshold, in input order.
    """
    config = config or DEFAULT_CONFIG
    check_config(config)
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
        delta = _pipeline_delta(n_max, config)
        params_max = segmentation.make_params(n_max, delta)
        moduli = _select_moduli(_result_bound("mertens", n_max))
        # cell array of mu up to the truncation, exact then per-modulus
        cells = segmentation.cell_index_vec(
            np.arange(1, trunc + 1, dtype=np.uint64), params_max)
        width = params_max.top_cell + 1
        # float bin sums of mu(1..trunc) are exact: each is at most trunc
        mubar = np.bincount(cells, mu.values[1:], width)[:width].astype(np.int64)
        conv2 = {}
        for p in moduli:
            arr = (mubar % p).astype(np.uint64)
            conv2[p] = modmath.convolve_mod(arr, arr, p)
        timings["convolution"] = time.perf_counter() - t0
        for n_i in big:
            t1 = time.perf_counter()
            sub = replace(params_max, n=n_i, window=None,
                          top_cell=segmentation.cell_index(n_i, params_max))
            top = sub.top_cell
            tops = _celltops_desc(sub)
            residues = []
            plan = error_correction.triple_walks(sub, trunc, mu)
            corr = error_correction.triples_correction(sub, trunc, mu, plan)
            for p in moduli:
                a = _prefix_dot(conv2[p][:top + 1], modmath.mod(tops, p), p)
                residues.append((2 * m_trunc - a + corr) % p)
            value = modmath.crt_combine(residues, moduli)
            sub_t = {**timings, "threshold": time.perf_counter() - t1}
            results[n_i] = ResultBundle(
                "mertens-multi", n_i, value, delta,
                error_correction.triple_window(sub), moduli, sub_t,
                {"trunc": trunc, "triple_pairs": plan[-1]})
    return [results[n_i] for n_i in ns]


def _weighted_mertens(weights, config, timings):
    """(sum of w * M(x) over the thresholds x -> w of `weights`, the NTT
    primes used), recording the "sieve" and "mertens" phases in timings.
    One sieve of mu up to L = min(x_max, max(cutoff, isqrt(x_max))) serves
    the thresholds up to L; the rest share one mertens_multi call at the
    smallest truncation T with every threshold <= T^2 (the triple
    correction of a threshold x walks about 2.2 x^(2/3) pairs), whose
    primes are those of the largest threshold (None without the call)."""
    t0 = time.perf_counter()
    x_max = max(weights, default=1)
    limit = min(x_max, max(Config.cutoff, math.isqrt(x_max)))
    mu = sieve.mu_up_to(limit)
    timings["sieve"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    small = [x for x in weights if x <= limit]
    total = sum(m * weights[x] for x, m in zip(small, mu.prefix[small].tolist()))
    big = sorted(x for x in weights if x > limit)
    moduli = None
    if big:
        bundles = mertens_multi(big, math.isqrt(big[-1] - 1) + 1, config)
        total += sum(b.value * weights[b.n] for b in bundles)
        moduli = bundles[-1].moduli
    timings["mertens"] = time.perf_counter() - t0
    return total, moduli


def count_squarefree_result(n, config=None):
    """Exact count of square-free integers <= n: Q(n) = sum over k <= isqrt(n)
    of mu(k) floor(n / k^2), summed by parts as the sum over s <= isqrt(n)
    of M(s) (floor(n / s^2) - floor(n / (s + 1)^2))."""
    config = config or DEFAULT_CONFIG
    check_arguments("squarefree", n, config)
    timings = {}
    t0 = time.perf_counter()
    s = np.arange(1, math.isqrt(n) + 2, dtype=np.int64)
    q = n // (s * s)
    w = q[:-1] - q[1:]
    keep = np.flatnonzero(w)
    weights = dict(zip(s[keep].tolist(), w[keep].tolist()))
    timings["thresholds"] = time.perf_counter() - t0
    total, moduli = _weighted_mertens(weights, config, timings)
    return ResultBundle("squarefree", n, total, None, None, moduli, timings)


def count_squarefree(n, config=None):
    return count_squarefree_result(n, config).value


def totient_sum_result(n, config=None):
    """Exact totient summatory function: sum of phi(k) for k <= n."""
    config = config or DEFAULT_CONFIG
    check_arguments("totient-sum", n, config)
    timings = {}
    t0 = time.perf_counter()
    weights = {}
    k = 1
    while k <= n:
        q = n // k
        k2 = n // q
        weights[q] = (k + k2) * (k2 - k + 1) // 2
        k = k2 + 1
    timings["blocks"] = time.perf_counter() - t0
    total, moduli = _weighted_mertens(weights, config, timings)
    return ResultBundle("totient-sum", n, total, None, None, moduli, timings)


def totient_sum(n, config=None):
    return totient_sum_result(n, config).value
