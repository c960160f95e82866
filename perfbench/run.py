"""Benchmark command: python3 perfbench/run.py --workload W --seed N
--seconds S --trace 0|1, from the root of a primeconv checkout.

Each round of a workload runs in a fresh interpreter (workload.py), so the
module caches start cold as they do for a CLI user and each round has its own
peak RSS. Rounds repeat the same seeded calls until S seconds have passed
and the workload's minimum number of rounds is reached; the figures are
medians over rounds. Set-up time is the median of several fresh
interpreters importing primeconv, half of them started before the rounds
and half after, so that it samples the whole run.

With --trace 1 the run makes one untraced round, one traced round and one
round that also runs tracemalloc. It reports the per-layer figures of the
traced round, the .peak_mb figures of the tracemalloc round, and the
difference of the traced and untraced wall times as trace.overhead_s.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the metric names and units come from
BENCHMARK.json. Raw per-round results and the spans of traced rounds are
written under perfbench/out/.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_PROBES = 4     # before the rounds, and as many again after them
RUN_LIMIT_S = 170.0   # every run ends well inside 180 s
PROBE = ("import time, primeconv, primeconv.cli, primeconv.oracles; "
         "print(primeconv.__file__, time.clock_gettime(time.CLOCK_MONOTONIC))")


class BenchError(Exception):
    pass


def _run_child(argv, deadline):
    """Run a fresh interpreter to its end; return (seconds from its start until
    it printed the path of the primeconv it imported, the rest of its
    standard output). The child stamps that line with CLOCK_MONOTONIC, which
    every process on the machine shares."""
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen([sys.executable] + argv, cwd=ROOT,
                            env={**os.environ, "PYTHONPATH": str(SRC)},
                            stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{argv} did not finish in time")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"{argv} exited {proc.returncode}")
    first, _, rest = out.partition("\n")
    path, ready = first.rsplit(" ", 1)
    if Path(path).resolve() != SRC / "primeconv" / "__init__.py":
        raise BenchError(f"imported primeconv from {path!r}, not from {SRC}")
    return float(ready) - t0, rest


def _round(workload, seed, trace, spans_path, deadline):
    argv = [str(BENCH_DIR / "workload.py"), "--workload", workload,
            "--seed", str(seed), "--trace", str(trace)]
    if spans_path:
        argv += ["--spans", str(spans_path)]
    _, out = _run_child(argv, deadline)
    return json.loads(out.strip().splitlines()[-1])


def _nearest_rank(values, q):
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def measure(workload, seed, seconds, trace):
    deadline = time.perf_counter() + RUN_LIMIT_S
    if not (SRC / "primeconv" / "__init__.py").is_file():
        raise BenchError(f"no primeconv sources under {SRC}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if workload not in {w["name"] for w in spec["workloads"]}:
        raise BenchError(f"unknown workload {workload}")
    min_rounds = WORKLOADS[workload].min_rounds
    OUT_DIR.mkdir(exist_ok=True)
    setups = [_run_child(["-c", PROBE], deadline)[0] for _ in range(SETUP_PROBES)]
    rounds = []
    if trace:
        spans_path = OUT_DIR / f"{workload}-seed{seed}.spans.json"
        rounds.append(_round(workload, seed, 0, None, deadline))
        rounds.append(_round(workload, seed, 1, spans_path, deadline))
        rounds.append(_round(workload, seed, 2, None, deadline))
    else:
        t0 = time.perf_counter()
        while True:
            t1 = time.perf_counter()
            rounds.append(_round(workload, seed, 0, None, deadline))
            last = time.perf_counter() - t1
            done = (len(rounds) >= min_rounds
                    and time.perf_counter() - t0 >= seconds)
            if done or time.perf_counter() + 1.5 * last > deadline:
                break
    setups += [_run_child(["-c", PROBE], deadline)[0] for _ in range(SETUP_PROBES)]
    attempted = sum(len(r["queries"]) for r in rounds)
    failed = sum(r["errors"] + r["wrong"] for r in rounds)
    correct = all(r["wrong"] == 0 for r in rounds)
    if trace:
        traced = rounds[1]
        values = dict(traced["metrics"])
        values.update((k, v) for k, v in rounds[2]["metrics"].items()
                      if k.endswith(".peak_mb"))
        values["trace.overhead_s"] = traced["wall_s"] - rounds[0]["wall_s"]
        # self times plus the time outside every span must add up to wall
        correct = correct and abs(traced["attribution_error_s"]) < 1e-6
        wanted = spec["per_layer"]
    else:
        latencies = [x for r in rounds for x in r["latencies_s"]]
        values = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(r["wall_s"] for r in rounds),
            "call_p50_ms": 1000.0 * statistics.median(latencies),
            "call_p95_ms": 1000.0 * _nearest_rank(latencies, 0.95),
            "peak_rss_mb": statistics.median(r["rss_mb"] for r in rounds),
        }
        wanted = spec["end_to_end"]
    with open(OUT_DIR / f"{workload}-seed{seed}-trace{trace}.json", "w") as fh:
        json.dump({"workload": workload, "seed": seed, "seconds": seconds,
                   "trace": trace, "setup_s": setups, "rounds": rounds}, fh)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in wanted}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
