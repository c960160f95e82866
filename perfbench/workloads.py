"""The benchmark's workloads: their inputs, how each call is made, and how
each answer is checked against values computed apart from the engine.

A workload is a list of `Query` objects built from the seed. Its checker
returns one verdict per query; a query whose call raised is given the value
None and is never counted correct. Sizes are parameters so that the self-test
can run the same checking code at small N.
"""

import contextlib
import io
import json
import math
import random
from collections import defaultdict
from dataclasses import dataclass

# Published values at powers of ten, keyed by the exponent.
# OEIS A006880: pi(10^k).
PI_POW10 = {1: 4, 2: 25, 3: 168, 4: 1229, 5: 9592, 6: 78498, 7: 664579,
            8: 5761455, 9: 50847534, 10: 455052511}
# OEIS A046731: sum of the primes below 10^k.
SUM_PRIMES_POW10 = {1: 17, 2: 1060, 3: 76127, 4: 5736396, 5: 454396537,
                    6: 37550402023, 7: 3203324994356, 8: 279209790387276,
                    9: 24739512092254535}
# OEIS A084237: Mertens function M(10^k).
MERTENS_POW10 = {1: -1, 2: 1, 3: 2, 4: -23, 5: -48, 6: 212, 7: 1037,
                 8: 1928, 9: -222}

# Above this size no oracle is run: such a query must have a published value.
ORACLE_LIMIT = 10 ** 8

CLI_FUNCTIONS = ("pi", "mertens", "sum-primes", "pi-mod", "squarefree",
                 "totient-sum")
# Moduli whose character group the default NTT primes support, all with
# phi(m) = 4: each pi-mod query runs four character pipelines, so its cost
# depends on N and not on which modulus the seed deals it.
SMALL_MODULI = (5, 8, 10, 12)
SMALL_POWERS = (0, 1, 2)


@dataclass(frozen=True)
class Query:
    fn: str
    n: int
    power: int = 1
    modulus: int = 1
    residue: int = 0

    def argv(self):
        args = ["--json", self.fn, str(self.n)]
        if self.fn == "sum-primes":
            args += ["--power", str(self.power)]
        if self.fn == "pi-mod":
            args += ["--modulus", str(self.modulus), "--residue", str(self.residue)]
        return args


# -- making the calls ----------------------------------------------------------

def call_library(primeconv, q):
    """One public library call; returns the integer answer."""
    if q.fn == "pi":
        return primeconv.count_primes(q.n)
    if q.fn == "pi-mod":
        return primeconv.count_primes_mod(q.n, q.modulus, q.residue)
    if q.fn == "sum-primes":
        return primeconv.sum_over_primes(q.n, q.power)
    if q.fn == "mertens":
        return primeconv.mertens(q.n)
    if q.fn == "squarefree":
        return primeconv.count_squarefree(q.n)
    if q.fn == "totient-sum":
        return primeconv.totient_sum(q.n)
    raise ValueError(f"unknown function {q.fn}")


def call_cli(primeconv, q):
    """One `primeconv --json ...` command run in-process through cli.main."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = primeconv.cli.main(q.argv())
    if code != 0:
        raise RuntimeError(f"primeconv {' '.join(q.argv())} exited {code}")
    return json.loads(out.getvalue())["result"]


# -- independent reference values ----------------------------------------------

def _pow10(n):
    k = round(math.log10(n)) if n > 0 else -1
    return k if k >= 1 and 10 ** k == n else None


def published(q):
    """The published value of q, or None when no table holds it."""
    k = _pow10(q.n)
    if k is None:
        return None
    if q.fn == "pi":
        return PI_POW10.get(k)
    if q.fn == "sum-primes" and q.power == 1:
        return SUM_PRIMES_POW10.get(k)
    if q.fn == "mertens":
        return MERTENS_POW10.get(k)
    return None


def reference(queries, oracles):
    """Expected value of every query, from the published tables or else from
    primeconv.oracles: one checkpointed sieve per function where the oracle
    takes checkpoints, one oracle call per query otherwise."""
    expected = [published(q) for q in queries]
    pending = defaultdict(list)
    for i, q in enumerate(queries):
        if expected[i] is None:
            if q.n > ORACLE_LIMIT:
                raise ValueError(f"no published value for {q} and N is "
                                 f"too large for the oracle")
            pending[q.fn].append(i)
    checkpointed = {"pi": oracles.pi_naive, "mertens": oracles.mertens_naive,
                    "squarefree": oracles.sqfree_naive,
                    "totient-sum": oracles.totient_sum_naive}
    for fn, idx in pending.items():
        if fn in checkpointed:
            marks = sorted({queries[i].n for i in idx})
            values = dict(zip(marks, checkpointed[fn](marks[-1], checkpoints=marks)))
            for i in idx:
                expected[i] = values[queries[i].n]
        elif fn == "sum-primes":
            for i in idx:
                expected[i] = oracles.sum_primes_naive(queries[i].n, queries[i].power)
        elif fn == "pi-mod":
            for i in idx:
                q = queries[i]
                expected[i] = oracles.pi_mod_naive(q.n, q.modulus, q.residue % q.modulus)
        else:
            raise ValueError(f"unknown function {fn}")
    return expected


def check_reference(queries, values, oracles):
    expected = reference(queries, oracles)
    return [v is not None and v == e for v, e in zip(values, expected)]


def check_residue_identity(queries, values, oracles):
    """pi-mod answers of one (N, m) must satisfy sum_r pi(N; m, r) plus the
    primes dividing m equals pi(N); every residue is required, and all of a
    group fail together because the identity cannot tell which one is wrong.
    Other queries are checked against `reference`."""
    verdicts = [None] * len(queries)
    groups = defaultdict(list)
    for i, q in enumerate(queries):
        if q.fn == "pi-mod":
            groups[(q.n, q.modulus)].append(i)
    for (n, m), idx in groups.items():
        residues = sorted(queries[i].residue % m for i in idx)
        coprime = [r for r in range(m) if math.gcd(r, m) == 1]
        dividing = sum(1 for p in range(2, m + 1) if m % p == 0 and p <= n
                       and all(p % d for d in range(2, math.isqrt(p) + 1)))
        pi_n = reference([Query("pi", n)], oracles)[0]
        vals = [values[i] for i in idx]
        ok = (residues == coprime and None not in vals
              and sum(vals) + dividing == pi_n)
        for i in idx:
            verdicts[i] = ok
    rest = [i for i, v in enumerate(verdicts) if v is None]
    for i, ok in zip(rest, check_reference([queries[i] for i in rest],
                                           [values[i] for i in rest], oracles)):
        verdicts[i] = ok
    return verdicts


# -- the workloads ---------------------------------------------------------------

def pi_queries(seed, n=10 ** 10):
    return [Query("pi", n)]


def residue_queries(seed, n=10 ** 9, modulus=4):
    return ([Query("pi-mod", n, modulus=modulus, residue=r)
             for r in range(modulus) if math.gcd(r, modulus) == 1]
            + [Query("sum-primes", n, power=1)])


def mertens_queries(seed, n=10 ** 9, totient_n=3 * 10 ** 6):
    return [Query("mertens", n), Query("totient-sum", totient_n)]


def many_small_queries(seed, per_function=40, lo_exp=3.0, hi_exp=6.0):
    """`per_function` CLI queries of every function, shuffled together.

    log10(N) is stratified: the range [lo_exp, hi_exp] is cut into
    `per_function` equal strata and each function draws one N from each, so
    every seed covers the range evenly and the mix costs about the same
    whatever the seed. Moduli and powers are dealt the same way: each run of
    len(SMALL_MODULI) strata (len(SMALL_POWERS) for powers) gets every value
    once, in a seeded order.
    """
    rng = random.Random(seed)
    width = (hi_exp - lo_exp) / per_function
    out = []
    for fn in CLI_FUNCTIONS:
        moduli, powers = [], []
        for i in range(per_function):
            n = int(round(10 ** (lo_exp + width * (i + rng.random()))))
            if fn == "sum-primes":
                if not powers:
                    powers = rng.sample(SMALL_POWERS, len(SMALL_POWERS))
                out.append(Query(fn, n, power=powers.pop()))
            elif fn == "pi-mod":
                if not moduli:
                    moduli = rng.sample(SMALL_MODULI, len(SMALL_MODULI))
                m = moduli.pop()
                r = rng.choice([r for r in range(m) if math.gcd(r, m) == 1])
                out.append(Query(fn, n, modulus=m, residue=r))
            else:
                out.append(Query(fn, n))
    rng.shuffle(out)
    return out


@dataclass(frozen=True)
class Workload:
    name: str
    queries: object  # (seed, **sizes) -> [Query]
    call: object     # (primeconv, Query) -> int
    check: object    # (queries, values, oracles) -> [bool]
    min_rounds: int = 1


WORKLOADS = {w.name: w for w in (
    Workload("pi-1e10", pi_queries, call_library, check_reference),
    Workload("residue-classes", residue_queries, call_library, check_residue_identity),
    Workload("mertens-family", mertens_queries, call_library, check_reference),
    # a round of the mix takes about 7 s; four make a run span about half a
    # minute, so a slow spell of a shared machine moves its medians less
    Workload("many-small", many_small_queries, call_cli, check_reference,
             min_rounds=4),
)}
