"""Check the bench output digests on every supported interpreter.

    python3 tests/bench_digests.py

Runs `bench/run.py --workload W --seed 97 --seconds 0` for each workload
that BENCHMARK.json lists, under this interpreter and under each other
CPython 3.10 or later that `golden_cases.other_pythons` finds (the ones
`tests/test_golden.py` checks the golden digests on).  It prints the
`output digest` line of each run and compares it with the run of Python
3.11, or of this interpreter where no 3.11 is found, and exits 1 on any
mismatch or failed run.  The runs are one pass over each job list, one
interpreter and workload at a time.  It reads bench/ and writes nothing
there; bench/run.py keeps its scratch inputs under `.bench-work/`.  It
needs only the standard library and the sources under src/.  Its name
keeps pytest from collecting it.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from golden_cases import other_pythons  # noqa: E402  (needs the path above)

REFERENCE = "3.11"
SEED = 97  # the seed the benchmark holds out for claims


def version(python: str) -> str:
    done = subprocess.run([python, "-c", "import sys; print(sys.version.split()[0])"],
                          capture_output=True, text=True, timeout=60)
    return done.stdout.strip()


def bench_digest(python: str, workload: str) -> str:
    """The output digest of one pass of `workload`, or why there is none."""
    done = subprocess.run(
        [python, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", str(SEED),
         "--seconds", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    found = re.search(r"output digest (sha256:\w+)", done.stdout)
    if done.returncode != 0 or found is None:
        return f"failed: exit {done.returncode}: {done.stderr.strip()[-300:]}"
    return found[1]


def main() -> int:
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    pythons = {str(path): version(str(path)) for path in [Path(sys.executable), *other_pythons()]}
    reference = next((p for p, v in pythons.items() if v.startswith(REFERENCE + ".")), sys.executable)
    mismatches = 0
    for workload in workloads:
        want = bench_digest(reference, workload)
        print(f"{'reference':8} {workload} seed {SEED} Python {pythons[reference]} {want}")
        mismatches += want.startswith("failed")
        for python, release in pythons.items():
            if python == reference:
                continue
            found = bench_digest(python, workload)
            matched = found == want and not found.startswith("failed")
            mismatches += not matched
            print(f"{'ok' if matched else 'MISMATCH':8} {workload} seed {SEED} Python {release} {found}")
    runs = len(workloads) * len(pythons)
    print(f"{runs - mismatches} of {runs} bench runs match Python {pythons[reference]} "
          f"on {len(pythons)} interpreters")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
