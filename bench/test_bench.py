"""Self-tests of the benchmark: deterministic trace counts, output identity.

Run from the repository root:

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import json
import shutil
import signal
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from ammlab import cli  # noqa: E402


class BenchmarkTest(unittest.TestCase):
    def setUp(self):
        previous = signal.signal(signal.SIGALRM, run._on_alarm)
        self.addCleanup(signal.signal, signal.SIGALRM, previous)
        self.workdir = Path(tempfile.mkdtemp())
        self.addCleanup(shutil.rmtree, self.workdir)

    def _jobs(self, workload: str):
        folder = self.workdir / workload
        folder.mkdir()
        # the first job of each workload keeps the test short
        return workloads.build_jobs(workload, 3, folder)[:1]

    def _traced(self, jobs):
        trace = tracer.Tracer()
        trace.install()
        try:
            results = run.run_pass(cli, jobs, run.TRACED_TIMEOUT_S, tracer=trace)
        finally:
            trace.uninstall()
        return results, trace.metrics(1, 0.0)

    def test_traced_counts_repeat_and_outputs_match_untraced(self):
        for workload in workloads.WORKLOADS:
            with self.subTest(workload=workload):
                jobs = self._jobs(workload)
                plain = run.run_pass(cli, jobs, run.JOB_TIMEOUT_S)
                first, counts = self._traced(jobs)
                second, again = self._traced(jobs)
                self.assertTrue(all(r.outcome.ok for r in plain))
                self.assertEqual(run.digest(plain), run.digest(first))
                self.assertEqual(run.digest(plain), run.digest(second))
                self.assertEqual({k: counts[k] for k in tracer.COUNT_METRICS},
                                 {k: again[k] for k in tracer.COUNT_METRICS})
                self.assertGreater(counts["cli.main.self_frac"], 0.0)

    def test_tracing_restores_every_binding(self):
        import ammlab.engine

        original = ammlab.engine.quote
        trace = tracer.Tracer()
        trace.install()
        self.assertIsNot(ammlab.engine.quote, original)
        trace.uninstall()
        self.assertIs(ammlab.engine.quote, original)

    def test_benchmark_json_names_every_reported_metric(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([m["name"] for m in spec["end_to_end"]],
                         [name for name, _ in run.END_TO_END])
        self.assertEqual([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
                         list(tracer.PER_LAYER))
        self.assertEqual([w["name"] for w in spec["workloads"]], list(workloads.WORKLOADS))

    def test_fails_without_the_program_sources(self):
        shutil.copytree(HERE, self.workdir / "bench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "arb-walk", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            cwd=self.workdir, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertEqual(done.stdout, "")


if __name__ == "__main__":
    unittest.main()
