"""Benchmark runner for ammlab: three CLI workloads, outside-in tracing.

Usage, from the repository root:

    python3 bench/run.py --workload arb-walk --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py): arb-walk, classify-sweep, ledger-crowd.  Each
job is one in-process call to `ammlab.cli.main` on files written before any
timing starts.  The load comes from this one process and thread, a closed
loop: the next job starts when the previous one returns.

--trace 0 runs the job list once, then keeps running its jobs in order until
--seconds have gone by, and reports the end-to-end metrics.  Each timing is
rescaled by a calibration loop timed around it (see CALIBRATION_REF_S), and
each job contributes the median of its runs.

    setup_s      median over fresh interpreters of start-up, `import ammlab`,
                 input generation and one warm-up job
    units_per_s  units completed per second of job time, over the jobs that
                 exited 0 (scenario events, or probe trials)
    job_p50_ms   median over the jobs that exited 0 of their time
    fail_ratio   failed jobs / attempted jobs (also `failed`/`attempted`)
    peak_rss_mb  ru_maxrss of this process

--trace 1 alternates untraced and traced passes for --seconds and reports
the per-layer metrics of tracer.PER_LAYER; tracing must not change a byte
of any job's output.

The last line of stdout is one JSON object with `correct`, `attempted`,
`failed` and `metrics`.  `correct` is false when a job fails (exits
non-zero, raises, overruns its time limit or fails its output check), or when
tracing changed an output.  After the measurement, each run also runs the
jobs of workloads.defect_jobs once and prints what they show, so the known
defects that the workloads avoid stay in view; those jobs are neither timed
nor counted.  Exits 2 without a result when the ammlab sources are missing.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 5
# Other load on a shared machine slows everything by up to half for tens of
# seconds at a time.  Every timing is therefore taken between two runs of a
# fixed calibration loop and rescaled to the speed at which that loop takes
# CALIBRATION_REF_S; the ratio of the two stays far steadier than either.
CALIBRATION_LOOPS = 10_000
CALIBRATION_REF_S = 0.002
# a job that has not returned by then is counted failed, so that a hang
# still ends the run in time (the arbitrageur's search can loop forever on a
# drained pool); tracing slows jobs down
JOB_TIMEOUT_S = 6.0
TRACED_TIMEOUT_S = 30.0
DEFECT_TIMEOUT_S = 2.0
END_TO_END = (
    ("setup_s", "s"),
    ("units_per_s", "units/s"),
    ("job_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


class JobTimeout(BaseException):
    """Raised inside a job that overran its time limit.  A BaseException, so
    the program's own `except` clauses cannot swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


def calibration() -> float:
    """Wall time of a fixed pure-Python loop of integer, float and dict work."""
    start = time.perf_counter()
    total, table = 0, {}
    for i in range(CALIBRATION_LOOPS):
        total += i * i % 7
        table[i & 1023] = total * 0.5
    return time.perf_counter() - start


def scale(seconds: float, before: float, after: float) -> float:
    """`seconds` at the reference speed, judged by the calibration loop
    timed just before and just after."""
    return seconds * CALIBRATION_REF_S / (0.5 * (before + after))


@dataclass
class Result:
    """One finished job; `record` fingerprints its exit status and output."""

    job: workloads.Job
    seconds: float
    outcome: workloads.Outcome
    record: bytes
    scaled: float = 0.0  # `seconds` at the reference speed


def run_job(cli, job: workloads.Job, timeout: float) -> Result:
    """Run one job under a time limit; check and fingerprint its output."""
    job.out.unlink(missing_ok=True)
    code = error = None
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        signal.setitimer(signal.ITIMER_REAL, timeout)
        start = time.perf_counter()
        try:
            code = cli.main(list(job.argv))
        except JobTimeout as overrun:
            error = overrun
        except Exception as raised:  # a crash is a failed job, not ours
            error = raised
        finally:
            seconds = time.perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0)
    outcome = workloads.check(job, code, error)
    output = job.out.read_bytes() if code == 0 and job.out.exists() else b""
    status = f"{code}" if error is None else type(error).__name__
    record = hashlib.sha256(f"{job.out.name} {status}\n".encode() + output).digest()
    return Result(job, seconds, outcome, record)


def run_pass(cli, jobs, timeout, tracer=None) -> list[Result]:
    """Run the jobs in order, up to and including the first that fails: a
    failure already makes the run incorrect, and a hang must not repeat."""
    results = []
    before = calibration()
    for job in jobs:
        result = run_job(cli, job, timeout)
        if tracer and result.outcome.reason == "timed out":
            tracer.clear()
        elif tracer:
            tracer.fold()
        after = calibration()
        result.scaled = scale(result.seconds, before, after)
        before = after
        results.append(result)
        if not result.outcome.ok:
            break
    return results


def digest(results) -> str:
    h = hashlib.sha256()
    for result in results:
        h.update(result.record)
    return h.hexdigest()


def typical(results) -> dict[str, float]:
    """Per job that exited 0, the median of its scaled times."""
    times: dict[str, list[float]] = {}
    for r in results:
        if r.outcome.units_done:
            times.setdefault(r.job.out.name, []).append(r.scaled)
    return {name: statistics.median(values) for name, values in times.items()}


def units_per_s(jobs, results) -> float:
    """Units completed per second of scaled job time."""
    typical_s = typical(results)
    done = [job for job in jobs if job.out.name in typical_s]
    seconds = sum(typical_s[job.out.name] for job in done)
    return sum(job.units for job in done) / seconds if seconds else 0.0


def setup(workload: str, seed: int, workdir: Path):
    """Import the program, write the inputs and run one warm-up job."""
    from ammlab import cli

    workdir.mkdir(parents=True)
    jobs = workloads.build_jobs(workload, seed, workdir)
    run_job(cli, jobs[0], JOB_TIMEOUT_S)
    return cli, jobs


def time_setups(args) -> list[float]:
    """Scaled wall time of SETUP_REPEATS fresh interpreters doing `setup`."""
    command = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
               "--workload", args.workload, "--seed", str(args.seed)]
    times = []
    before = calibration()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, timeout=120)
        seconds = time.perf_counter() - start
        if done.returncode != 0:
            raise RuntimeError(f"setup failed: {done.stderr.decode()[-2000:]}")
        after = calibration()
        times.append(scale(seconds, before, after))
        before = after
    return times


def job_p50_ms(results) -> float:
    """Median over the jobs that exited 0 of their typical scaled time."""
    typical_s = typical(results)
    return 1e3 * statistics.median(typical_s.values()) if typical_s else 0.0


def report(args, passes, jobs, rows, first_pass, results) -> int:
    """Print the human-readable summary; return the number of failed jobs."""
    counts: dict[tuple[str, str], int] = {}
    for r in results:
        if not r.outcome.ok:
            key = (r.job.pool, r.outcome.reason)
            counts[key] = counts.get(key, 0) + 1
    failed = sum(counts.values())
    print(f"workload {args.workload} seed {args.seed}: {passes:.3g} passes over "
          f"{len(jobs)} jobs, {len(results)} attempted, {failed} failed")
    for name, value, unit, n in rows:
        print(f"  {name:<40} {value:>14.6g} {unit:<8}" + (f" (n={n})" if n else ""))
    print(f"  output digest sha256:{digest(first_pass)}")
    for (pool, reason), n in sorted(counts.items()):
        print(f"  failure x{n}: {pool}: {reason}")
    return failed


def measure(args, cli, jobs) -> tuple[bool, list, dict]:
    """One pass over the job list, then further jobs in list order until
    --seconds have gone by."""
    setup_times = time_setups(args)
    start = time.perf_counter()
    results = run_pass(cli, jobs, JOB_TIMEOUT_S)
    following = itertools.cycle(jobs)
    while results[-1].outcome.ok and time.perf_counter() - start < args.seconds:
        results += run_pass(cli, [next(following)], JOB_TIMEOUT_S)
    passes = len(results) / len(jobs)
    failed = sum(1 for r in results if not r.outcome.ok)
    values = {
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "units_per_s": (units_per_s(jobs, results), len(results)),
        "job_p50_ms": (job_p50_ms(results), len(results)),
        "fail_ratio": (failed / len(results), len(results)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    units = {**dict(END_TO_END), "fail_ratio": "1"}
    rows = [(name, value, units[name], n) for name, (value, n) in values.items()]
    failed = report(args, passes, jobs, rows, results[:len(jobs)], results)
    metrics = {name: {"value": values[name][0], "unit": unit} for name, unit in END_TO_END}
    return failed == 0, results, metrics


def measure_traced(args, cli, jobs) -> tuple[bool, list, dict]:
    """Pairs of an untraced and a traced pass for --seconds, and at least
    one pair."""
    from tracer import PER_LAYER, Tracer

    tracer = Tracer()
    plain, traced = [], []
    same_output = True
    pairs = 0
    start = time.perf_counter()
    while not pairs or (same_output and plain[-1].outcome.ok and traced[-1].outcome.ok
                        and time.perf_counter() - start < args.seconds):
        before = run_pass(cli, jobs, JOB_TIMEOUT_S)
        tracer.install()
        try:
            after = run_pass(cli, jobs, TRACED_TIMEOUT_S, tracer=tracer)
        finally:
            tracer.uninstall()
        same_output &= digest(before) == digest(after)
        plain += before
        traced += after
        pairs += 1
    traced_rate = units_per_s(jobs, traced)
    overhead = units_per_s(jobs, plain) / traced_rate - 1.0 if traced_rate else 0.0
    values = tracer.metrics(pairs, overhead)
    print(f"outputs identical with tracing on and off: {same_output}")
    rows = [(name, values[name], unit, None) for name, unit, _ in PER_LAYER]
    results = plain + traced
    failed = report(args, 2 * pairs, jobs, rows, plain[:len(jobs)], results)
    metrics = {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
    return failed == 0 and same_output, results, metrics


def report_defects(cli, jobs) -> None:
    """Run each defect-reproducing job once and print how it ended."""
    counts: dict[tuple[str, str], int] = {}
    for job in jobs:
        outcome = run_job(cli, job, DEFECT_TIMEOUT_S).outcome
        key = (job.pool, outcome.reason or "passed")
        counts[key] = counts.get(key, 0) + 1
    for (pool, reason), n in sorted(counts.items()):
        print(f"  defect check, not counted: {n} of {len(jobs)} {pool}: {reason}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ammlab" / "cli.py").is_file():
        print(f"error: no ammlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if os.environ.get("PYTHONHASHSEED") != "0":
        # String hashes are salted per interpreter, and the cost of copying
        # large ledgers keyed by account name moves with the salt by several
        # percent; one fixed salt keeps runs comparable.
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})
    sys.path.insert(0, str(ROOT / "src"))
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = ROOT / ".bench-work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        cli, jobs = setup(args.workload, args.seed, workdir)
        if args.setup_only:
            return 0
        run = measure_traced if args.trace else measure
        correct, results, metrics = run(args, cli, jobs)
        report_defects(cli, workloads.defect_jobs(args.workload, args.seed, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            workdir.parent.rmdir()
    failed = sum(1 for r in results if not r.outcome.ok)
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
