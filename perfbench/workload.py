"""One round of one workload, in a fresh interpreter.

Started by run.py with PYTHONPATH pointing at the checkout's src/. Prints the
path of the imported primeconv package and the monotonic clock as soon as it
is ready, runs the workload's calls in the timed region, reads the peak RSS,
checks the answers, and prints one JSON object as its last line.
With --trace 1 the layer functions are wrapped while the calls run, and the
spans are written to --spans; --trace 2 also runs tracemalloc inside the
spans that report a peak (spans.PEAK_SPANS).
"""

import argparse
import json
import resource
import sys
import time
import traceback

import primeconv
import primeconv.cli
from primeconv import oracles

print(primeconv.__file__, time.clock_gettime(time.CLOCK_MONOTONIC), flush=True)

from workloads import WORKLOADS  # noqa: E402  (imported after the ready line)
import spans  # noqa: E402


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1, 2), default=0)
    parser.add_argument("--spans", default=None)
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    queries = workload.queries(args.seed)
    tracer = None
    if args.trace:
        tracer = spans.Tracer(memory=args.trace == 2)
        tracer.install()
        tracer.start()
    values, latencies, errors = [], [], 0
    t0 = time.perf_counter()
    for q in queries:
        t1 = time.perf_counter()
        try:
            value = workload.call(primeconv, q)
        except Exception:  # one failed call must not end the round
            traceback.print_exc(file=sys.stderr)
            value = None
            errors += 1
        latencies.append(time.perf_counter() - t1)
        values.append(value)
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.stop()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result = {"wall_s": wall, "latencies_s": latencies, "rss_mb": rss_mb,
              "errors": errors}
    if tracer is not None:
        tracer.uninstall()
        metrics = tracer.metrics()
        result["metrics"] = metrics
        layer_sum = sum(metrics[f"{layer}.self_s"] for layer in spans.LAYERS)
        result["attribution_error_s"] = (layer_sum + metrics["trace.outside_s"]
                                         - metrics["trace.wall_s"])
        if args.spans:
            tracer.dump(args.spans, {"workload": args.workload,
                                     "seed": args.seed})
    verdicts = workload.check(queries, values, oracles)
    result["wrong"] = sum(1 for v, ok in zip(values, verdicts)
                          if v is not None and not ok)
    result["queries"] = [[q.fn, q.n, q.power, q.modulus, q.residue, v, ok]
                         for q, v, ok in zip(queries, values, verdicts)]
    print(json.dumps(result))


if __name__ == "__main__":
    main()
