"""Check every golden digest without pytest.

    python3 tests/golden_digests.py

Runs each case that tests/test_golden.py checks (inputs and pinned digests
in golden_cases.py) in process, prints its test, its digest and whether that
is the pinned one, and exits 1 on any mismatch.  It needs only the standard
library and the sources under src/, so that every supported interpreter can
be compared with the one the test suite runs on.  Its name keeps pytest from
collecting it.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from golden_cases import CASES, digest  # noqa: E402  (needs the path above)


def main() -> int:
    mismatches = 0
    for case in CASES:
        try:
            found = digest(case.output())
        except Exception as error:  # reported as a mismatch; the other cases still run
            found = f"failed: {type(error).__name__}: {error}"
        matched = found == case.digest
        mismatches += not matched
        print(f"{'ok' if matched else 'MISMATCH':8} {case.test}[{case.id}] {found}")
    version = sys.version.split()[0]
    print(f"{len(CASES) - mismatches} of {len(CASES)} golden digests match on Python {version}")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
