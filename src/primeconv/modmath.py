"""Modular arithmetic kernel: NTT contexts, exact convolution, power-series
exponentials and CRT recombination.

All transforms run over word-sized prime fields chosen so that products of two
residues fit in uint64, which lets every butterfly stay inside vectorized numpy
arithmetic. Arrays are reduced by mod(), which divides by multiply and
shift rather than by one hardware divide per entry, and sums below 2p by a
conditional subtraction. Final results are reconstructed by the CRT from as
many pool primes as their range needs.
"""

import functools

import numpy as np

# NTT-friendly primes with large power-of-two subgroups and known primitive
# roots, in the order callers take them; each p^2 fits in uint64, and all
# three together reconstruct values up to about 2^92 in size.
#   2013265921 = 15 * 2^27 + 1   (p - 1 divisible by 2^27, 3, 5)
#   2281701377 = 17 * 2^27 + 1   (p - 1 divisible by 2^27, 17)
#   3221225473 =  3 * 2^30 + 1   (p - 1 divisible by 2^30, 3)
NTT_PRIMES = (2013265921, 2281701377, 3221225473)
_PRIMITIVE_ROOTS = {2013265921: 31, 2281701377: 3, 3221225473: 5}


def mod(x, p, out=None):
    """x mod p for a uint64 array x of at least one dimension, exact for
    every entry, into `out` when given (which may be x itself).

    numpy's // by one uint64 scalar inverts the divisor once and divides
    each entry by a multiply and a shift (Granlund and Montgomery, "Division
    by invariant integers using multiplication", PLDI 1994), where % runs a
    hardware divide per entry: x - (x // p) * p took 1.2-3.3 ns per entry
    against 4.0-5.6 ns for x % p (2^12 to 2^21 entries, numpy 2.4, one
    thread of a 2-CPU VM)."""
    p = np.uint64(p)
    q = x // p
    q *= p
    return np.subtract(x, q, out=q if out is None else out)


def factorize(n):
    """Prime factorization [(p, e), ...] of n >= 1, primes ascending, by trial
    division: meant for arguments up to about 2^32."""
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


def primitive_root(p):
    """A primitive root of the prime p: the known one for the pool primes,
    else the smallest."""
    g = _PRIMITIVE_ROOTS.get(p)
    if g is not None:
        return g
    fac = factorize(p - 1)
    g = 2
    while any(pow(g, (p - 1) // q, p) == 1 for q, _ in fac):
        g += 1
    return g


def _bit_reversal(length):
    rev = np.zeros(1, dtype=np.int64)
    while len(rev) < length:
        rev = np.concatenate([2 * rev, 2 * rev + 1])
    return rev


def power_table(base, count, modulus):
    """[base^0, base^1, ..., base^(count-1)] mod modulus as uint64."""
    out = np.empty(max(count, 1), dtype=np.uint64)
    out[0] = 1
    filled = 1
    while filled < count:
        step = np.uint64(pow(base, filled, modulus))
        take = min(filled, count - filled)
        out[filled:filled + take] = mod(out[:take] * step, modulus)
        filled += take
    return out[:count]


class NttContext:
    """Immutable transform context for one (modulus, length) pair.

    length is a power of two dividing modulus - 1; root is a primitive
    length-th root of unity. Twiddle and permutation tables are precomputed so
    transforms are pure array passes.
    """

    __slots__ = ("modulus", "length", "root", "root_inv", "length_inv",
                 "_rev", "_tw_fwd", "_tw_inv")

    def __init__(self, modulus, length, root):
        if length < 1 or length & (length - 1):
            raise ValueError("transform length must be a power of two")
        if (modulus - 1) % length:
            raise ValueError("modulus - 1 must be divisible by length")
        if pow(root, length, modulus) != 1:
            raise ValueError("root is not a length-th root of unity")
        if length > 1 and pow(root, length // 2, modulus) != modulus - 1:
            raise ValueError("root is not primitive for this length")
        self.modulus = modulus
        self.length = length
        self.root = root
        self.root_inv = pow(root, -1, modulus)
        self.length_inv = pow(length, -1, modulus)
        self._rev = _bit_reversal(length)
        self._tw_fwd = self._stage_tables(root)
        self._tw_inv = self._stage_tables(self.root_inv)

    def _stage_tables(self, base):
        half = self.length // 2
        full = power_table(base, max(half, 1), self.modulus)
        tables = []
        m = 2
        while m <= self.length:
            tables.append(np.ascontiguousarray(full[::self.length // m][:m // 2]))
            m *= 2
        return tables

    def __repr__(self):
        return f"NttContext(modulus={self.modulus}, length={self.length})"


@functools.cache
def get_context(modulus, length):
    """Cached NttContext; root derived from the known primitive root."""
    g = primitive_root(modulus)
    root = pow(g, (modulus - 1) // length, modulus)
    return NttContext(modulus, length, root)


def _transform(values, ctx, tables):
    p = np.uint64(ctx.modulus)
    a = np.asarray(values, dtype=np.uint64)
    if a.shape[-1] != ctx.length:
        raise ValueError(f"expected length {ctx.length}, got {a.shape[-1]}")
    a = np.ascontiguousarray(a[..., ctx._rev])
    m = 2
    for tw in tables:
        half = m // 2
        v = a.reshape(a.shape[:-1] + (-1, m))
        lo, up = v[..., :half], v[..., half:]
        hi = mod(up * tw, p)
        # lo - hi + p and lo + hi lie in [0, 2p) (uint64 wraps in between):
        # one conditional subtraction reduces each, as min(x, x - p) does
        np.subtract(lo, hi, out=up)
        up += p
        np.minimum(up, up - p, out=up)
        lo += hi
        np.minimum(lo, lo - p, out=lo)
        m *= 2
    return a


def ntt_forward(values, ctx):
    """Evaluate the polynomial with given coefficients at powers of ctx.root.

    Index ell of the output holds the evaluation at root^ell. Bijective;
    ntt_inverse undoes it.
    """
    return _transform(values, ctx, ctx._tw_fwd)


def ntt_inverse(values, ctx):
    """Exact inverse of ntt_forward."""
    out = _transform(values, ctx, ctx._tw_inv)
    out *= np.uint64(ctx.length_inv)
    return mod(out, ctx.modulus, out=out)


def convolve_mod(a, b, modulus):
    """Linear (acyclic) convolution of a and b modulo modulus: exactly
    len(a) + len(b) - 1 entries, through the smallest cached context that
    holds them without cyclic wraparound."""
    a = np.asarray(a, dtype=np.uint64)
    b = np.asarray(b, dtype=np.uint64)
    out_len = len(a) + len(b) - 1
    ctx = get_context(modulus, 1 << (out_len - 1).bit_length())
    fa = np.zeros(ctx.length, dtype=np.uint64)
    mod(a, modulus, out=fa[:len(a)])
    fb = np.zeros(ctx.length, dtype=np.uint64)
    mod(b, modulus, out=fb[:len(b)])
    fa = ntt_forward(fa, ctx)
    fb = ntt_forward(fb, ctx)
    fa *= fb
    return ntt_inverse(mod(fa, modulus, out=fa), ctx)[:out_len]


def power_series_exp(f, n, modulus):
    """First n coefficients of exp(f(x)) over the prime field.

    f must have zero constant term; n must be below the modulus so the
    divisions by 1..n-1 are exact. Accepts a 1-D series or a 2-D stack of
    shape (terms, batch) holding one series per column, in which case the
    result has shape (n, batch).
    """
    f = np.asarray(f, dtype=np.uint64)
    if f.shape[0] == 0 or np.any(f[0] != 0):
        raise ValueError("series must have zero constant term")
    if n >= modulus:
        raise ValueError("series length must be below the modulus")
    p = np.uint64(modulus)
    terms, batch = f.shape[0], f.shape[1:]
    f = f.reshape(terms, -1)  # one column per series
    # e_r = r * f_r drives the quotient-free recurrence r*c_r = sum c_(r-j) e_j
    e = mod(mod(f, p) * np.arange(terms, dtype=np.uint64)[:, None], p)
    c = np.zeros((n, f.shape[1]), dtype=np.uint64)
    c[0] = 1
    for r in range(1, n):
        acc = np.zeros(f.shape[1], dtype=np.uint64)
        for j in range(1, min(r, terms - 1) + 1):
            acc += mod(c[r - j] * e[j], p)
            if j % 60 == 0:
                mod(acc, p, out=acc)
        mod(acc, p, out=acc)
        acc *= np.uint64(pow(r, -1, modulus))
        mod(acc, p, out=c[r])
    return c.reshape((n,) + batch)


def crt_combine(residues, moduli):
    """The value with the given residues modulo pairwise coprime moduli, as
    its representative in (-P/2, P/2], P = the product of the moduli.

    Garner's mixed-radix reconstruction, one modulus at a time."""
    x, product = 0, 1
    for r, m in zip(residues, moduli):
        x += product * ((r - x) * pow(product, -1, m) % m)
        product *= m
    if x > product // 2:
        x -= product
    return x
