"""Command-line frontend.

Subcommands mirror the library functions; plain mode prints exactly the
decimal result and a newline, json mode prints one object with the inputs,
result and timings. `oracle` runs the brute-force reference instead, and
`bench` emits per-size phase timings plus a fitted log-log slope.
"""

import argparse
import functools
import json as json_mod
import math
import resource
import statistics
import sys
import time
from fractions import Fraction

from . import counting, oracles

# cli name -> (counting result function, oracle, the arguments after n that
# both take), looked up by name at call time so that a replaced module
# attribute is the one called
_COMMANDS = {
    "pi": ("count_primes_result", "pi_naive", ()),
    "mertens": ("mertens_result", "mertens_naive", ()),
    "sum-primes": ("sum_over_primes_result", "sum_primes_naive", ("power",)),
    "pi-mod": ("count_primes_mod_result", "pi_mod_naive",
               ("modulus", "residue")),
    "squarefree": ("count_squarefree_result", "sqfree_naive", ()),
    "totient-sum": ("totient_sum_result", "totient_sum_naive", ()),
}
_FUNCTIONS = tuple(_COMMANDS)

# the arguments after n of every bench call, and the largest n that --verify
# checks against the oracle
_BENCH_ARGUMENTS = {"power": 1, "modulus": 3, "residue": 1}
_VERIFY_CUTOFF = 20_000_000


# built once per process, as parsing leaves it unchanged
@functools.cache
def _build_parser():
    parser = argparse.ArgumentParser(
        prog="primeconv",
        description="Exact prime counting and Mobius summation in about "
                    "square-root time via cell-array convolution.")
    parser.add_argument("--delta-scale",
                        default=counting.DEFAULT_CONFIG.delta_scale,
                        help="scale factor for the segmentation precision "
                             "(rational, default %(default)s)")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON object instead of the bare result")
    parser.add_argument("--verify", action="store_true",
                        help="also run the oracle for moderate n and compare")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _FUNCTIONS:
        p = sub.add_parser(name, help=f"compute {name}(N)")
        p.add_argument("n", type=int)
        if name == "sum-primes":
            p.add_argument("--power", type=int, default=1)
        if name == "pi-mod":
            p.add_argument("--modulus", type=int, required=True)
            p.add_argument("--residue", type=int, required=True)

    p = sub.add_parser("oracle", help="run the brute-force reference")
    p.add_argument("function", choices=_FUNCTIONS)
    p.add_argument("n", type=int)
    p.add_argument("--power", type=int, default=1)
    p.add_argument("--modulus", type=int, default=None)
    p.add_argument("--residue", type=int, default=None)

    p = sub.add_parser("bench", help="time a geometric schedule of sizes")
    p.add_argument("--from", dest="start", type=int, required=True)
    p.add_argument("--to", dest="stop", type=int, required=True)
    p.add_argument("--factor", type=int, default=10)
    p.add_argument("--fn", choices=_FUNCTIONS, default="pi")
    return parser


def _config_from(args):
    try:
        scale = Fraction(args.delta_scale)
    except (ValueError, ZeroDivisionError):
        raise ValueError(
            f"delta scale {args.delta_scale!r} is not a rational number") from None
    config = counting.Config(delta_scale=scale)
    counting.check_config(config)
    return config


def _run_function(name, n, values, config):
    """The library result of `name` at n, the arguments after n read from
    the mapping `values`."""
    result, _, extra = _COMMANDS[name]
    return getattr(counting, result)(n, *(values[a] for a in extra),
                                     config=config)


def _run_oracle(name, n, values, config):
    """The brute-force reference, after the same argument checks as the
    main commands."""
    _, oracle, extra = _COMMANDS[name]
    args = [values[a] for a in extra]
    if None in args:
        raise ValueError(f"{name} oracle needs "
                         + " and ".join(f"--{a}" for a in extra))
    counting.check_arguments(name, n, config, **dict(zip(extra, args)))
    return getattr(oracles, oracle)(n, *args)


def _emit(bundle, elapsed, as_json):
    if not as_json:
        print(bundle.value)
        return
    obj = {
        "function": bundle.function,
        "n": bundle.n,
        "result": bundle.value,
        "delta": float(bundle.delta) if bundle.delta is not None else None,
        "s": bundle.window,
        "time_ms": round(elapsed * 1000.0, 3),
        "moduli": list(bundle.moduli) if bundle.moduli else None,
        "timings_ms": {k: round(v * 1000.0, 3)
                       for k, v in bundle.timings.items()},
    }
    obj.update(bundle.extra)
    print(json_mod.dumps(obj))


def _bench(args, config, as_json):
    if args.start < 1 or args.factor < 2:
        # n *= factor must grow past --to, or the schedule never ends
        raise ValueError("bench needs --from >= 1 and --factor >= 2")
    rows = []
    n = args.start
    while n <= args.stop:
        t0 = time.perf_counter()
        bundle = _run_function(args.fn, n, _BENCH_ARGUMENTS, config)
        total = time.perf_counter() - t0
        rows.append({"n": n, "result": bundle.value, "total_s": total,
                     **{f"t_{ph}": t for ph, t in bundle.timings.items()},
                     "window": bundle.window, "peak_rss_mb":
                     resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024})
        n *= args.factor
    # the phases of every row, in the order they first appear (0 in a row
    # that did not run one), then the window S and the peak RSS so far
    cols = sorted(dict.fromkeys(c for row in rows for c in row),
                  key=lambda c: c in ("window", "peak_rss_mb"))
    rows = [{c: row.get(c, 0.0) for c in cols} for row in rows]
    slope = None
    if len(rows) >= 2:
        slope = statistics.linear_regression(
            [math.log(r["n"]) for r in rows],
            [math.log(max(r["total_s"], 1e-9)) for r in rows]).slope
    if as_json:
        print(json_mod.dumps({"function": args.fn, "rows": rows,
                              "slope": slope}))
        return 0
    print(",".join(cols))
    for row in rows:
        print(",".join(_fmt(row[c]) for c in cols))
    print(f"slope,{_fmt(slope)}")
    return 0


def _fmt(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.6f}"
    return str(v)


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        config = _config_from(args)
        if args.command == "bench":
            return _bench(args, config, args.json)
        if args.command == "oracle":
            t0 = time.perf_counter()
            value = _run_oracle(args.function, args.n, vars(args), config)
            elapsed = time.perf_counter() - t0
            bundle = counting.ResultBundle(f"oracle-{args.function}", args.n,
                                           value, None, None, None)
            _emit(bundle, elapsed, args.json)
            return 0
        t0 = time.perf_counter()
        bundle = _run_function(args.command, args.n, vars(args), config)
        elapsed = time.perf_counter() - t0
        if args.verify and args.n <= _VERIFY_CUTOFF:
            expected = _run_oracle(args.command, args.n, vars(args), config)
            if expected != bundle.value:
                print(f"verify mismatch: {args.command}({args.n}) = "
                      f"{bundle.value}, oracle says {expected}",
                      file=sys.stderr)
                return 4
        _emit(bundle, elapsed, args.json)
        return 0
    except (counting.ResultRangeError, counting.ModulusSupportError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return 2


def run():
    sys.exit(main())


if __name__ == "__main__":
    run()
