"""The benchmark's self-test as a tier-1 test.

perfbench reads `primeconv.Config().cutoff` and wraps package functions by
name, so a rename in the package that breaks the benchmark fails here.
"""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parents[1] / "perfbench" / "selftest.py"


def test_perfbench_selftest_passes():
    run = subprocess.run([sys.executable, str(SELFTEST)], capture_output=True,
                         text=True, timeout=300)
    assert run.returncode == 0, run.stderr[-2000:]
