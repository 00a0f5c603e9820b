"""The benchmark's own self-tests, run as part of this suite.

`bench/tracer.py` wraps the public functions of `ammlab` from outside and
reads its per-layer counts (the product-sum D solves among them) off those
wrappers.  Its self-tests check that traced and untraced runs write the same
bytes, that traced counts repeat exactly, and that the tracer restores every
binding it patched; a change under `src/` that breaks any of that fails here
too.  They run in a fresh interpreter, as the benchmark runs them.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_self_tests_pass():
    done = subprocess.run(
        [sys.executable, "-m", "unittest", "discover", "-s", "bench", "-p", "test_*.py"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
