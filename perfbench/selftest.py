"""Fast self-test of the benchmark: python3 perfbench/selftest.py

Runs every workload's calls and checking code at small N, shows that a wrong
or missing answer is reported as failed, compares the published tables with
the oracles where the oracles are cheap, checks that traced self times add up
to the traced wall time and that traced counts repeat, and checks that the
benchmark refuses to run without the program's sources.
"""

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import primeconv  # noqa: E402
import primeconv.cli  # noqa: E402
from primeconv import oracles  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402

# each workload at a size where its calls and checks take well under a second
SMALL = {
    "pi-1e10": dict(n=10 ** 6),
    "residue-classes": dict(n=10 ** 6, modulus=4),
    "mertens-family": dict(n=10 ** 6, totient_n=3 * 10 ** 4),
    "many-small": dict(per_function=4, lo_exp=3.0, hi_exp=5.5),
}


def run_small(name, seed=7):
    workload = wl.WORKLOADS[name]
    queries = workload.queries(seed, **SMALL[name])
    values = [workload.call(primeconv, q) for q in queries]
    return workload, queries, values


class WorkloadChecks(unittest.TestCase):

    def test_every_workload_passes_its_checks(self):
        for name in wl.WORKLOADS:
            with self.subTest(workload=name):
                workload, queries, values = run_small(name)
                self.assertEqual(workload.check(queries, values, oracles),
                                 [True] * len(queries))

    def test_a_wrong_or_missing_answer_fails(self):
        for name in wl.WORKLOADS:
            workload, queries, values = run_small(name)
            for bad in (values[0] + 1, None):
                with self.subTest(workload=name, value=bad):
                    verdicts = workload.check(queries, [bad] + values[1:], oracles)
                    self.assertFalse(verdicts[0])

    def test_residue_identity_needs_every_residue(self):
        queries = wl.residue_queries(0, n=10 ** 5, modulus=5)[1:]
        values = [primeconv.count_primes_mod(q.n, q.modulus, q.residue)
                  if q.fn == "pi-mod" else primeconv.sum_over_primes(q.n, 1)
                  for q in queries]
        verdicts = wl.check_residue_identity(queries, values, oracles)
        self.assertEqual(verdicts, [False] * (len(queries) - 1) + [True])

    def test_many_small_mix(self):
        queries = wl.many_small_queries(1)
        self.assertEqual(queries, wl.many_small_queries(1))
        self.assertNotEqual(queries, wl.many_small_queries(2))
        self.assertGreaterEqual(len(queries), 200)
        self.assertEqual({q.fn for q in queries}, set(wl.CLI_FUNCTIONS))
        cutoff = primeconv.Config().cutoff
        self.assertTrue(any(q.n < cutoff for q in queries))
        self.assertTrue(any(q.n >= cutoff for q in queries))

    def test_published_tables_match_the_oracles(self):
        for k in range(1, 7):
            n = 10 ** k
            self.assertEqual(wl.PI_POW10[k], oracles.pi_naive(n))
            self.assertEqual(wl.SUM_PRIMES_POW10[k], oracles.sum_primes_naive(n, 1))
            self.assertEqual(wl.MERTENS_POW10[k], oracles.mertens_naive(n))


class TracerChecks(unittest.TestCase):

    def traced(self, memory=False):
        tracer = spans.Tracer(memory=memory)
        tracer.install()
        try:
            tracer.start()
            primeconv.count_primes(3 * 10 ** 5)
            primeconv.mertens(2 * 10 ** 5)
            wl.call_cli(primeconv, wl.Query("pi", 1000))
            tracer.stop()
        finally:
            tracer.uninstall()
        return tracer.metrics()

    def test_self_times_add_up_and_counts_repeat(self):
        first, second = self.traced(), self.traced(memory=True)
        layer_sum = sum(first[f"{layer}.self_s"] for layer in spans.LAYERS)
        self.assertAlmostEqual(layer_sum + first["trace.outside_s"],
                               first["trace.wall_s"], delta=1e-6)
        for key, value in first.items():
            if not (key.endswith("_s") or key.endswith(".s") or key.endswith("_mb")):
                self.assertEqual(value, second[key], key)
        self.assertGreater(first["modmath.ntt.calls"], 0)
        self.assertGreater(first["sieve.screen_chunk.window.elements"], 0)
        self.assertGreater(first["error_correction.triples_correction.pairs"], 0)
        self.assertGreater(second["error_correction.pairs_correction.peak_mb"], 0)
        self.assertEqual(first["counting.calls"], 3)

    def test_uninstall_restores_the_functions(self):
        before = primeconv.counting.count_primes_result
        self.traced()
        self.assertIs(primeconv.counting.count_primes_result, before)


class CommandChecks(unittest.TestCase):

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        tracer = spans.Tracer()
        tracer.t_start = tracer.t_end = 0.0
        layer = set(tracer.metrics()) | {"trace.overhead_s"}
        self.assertEqual({m["name"] for m in spec["per_layer"]}, layer)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(wl.WORKLOADS))

    def test_refuses_to_run_without_the_sources(self):
        out = BENCH_DIR / "out"
        out.mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=out) as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(BENCH_DIR, Path(tmp) / BENCH_DIR.name,
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = subprocess.run(
                [sys.executable, f"{BENCH_DIR.name}/run.py", "--workload",
                 "pi-1e10", "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
