"""List the lines of the package that no tier-1 test reaches.

    python3 tests/line_reach.py [pytest arguments]

Runs the tier-1 suite (pytest on tests/) in this process under a
`sys.settrace` tracer that records every line run in src/ammlab, then
prints each executable line that never ran, as `module:line  source`, and
their count.  A line is executable when the compiler gives it bytecode.
Lines run only in a child process (the bench self-tests, the golden digests
on other interpreters) are not seen, so they are listed.  It needs the
standard library and pytest.  Tracing every line makes the suite several
times slower, so tier-1 does not run it; its name keeps pytest from
collecting it.  The exit status is pytest's.
"""

import sys
import threading
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "ammlab"


def executable_lines(path: Path) -> set[int]:
    """The lines that carry bytecode in the module and every code object
    it holds."""
    lines = set()
    pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        lines.update(line for _, _, line in code.co_lines() if line)  # None or 0: no source line
        pending.extend(const for const in code.co_consts if hasattr(const, "co_lines"))
    return lines


def reached_lines(argv: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest with `argv` under the tracer: its exit status and the
    lines run in each package file, by path."""
    reached = {str(path): set() for path in PACKAGE.glob("*.py")}

    def trace_calls(frame, event, arg):
        lines = reached.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def trace_lines(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return trace_lines

        return trace_lines

    threading.settrace(trace_calls)
    sys.settrace(trace_calls)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(status), reached


def main() -> int:
    argv = ["-q", "--continue-on-collection-errors", str(ROOT / "tests"), *sys.argv[1:]]
    status, reached = reached_lines(argv)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text(encoding="utf-8").splitlines()
        for line in sorted(executable_lines(path) - reached[str(path)]):
            print(f"{path.name}:{line}  {source[line - 1].strip()}")
            missed += 1
    print(f"{missed} executable lines of src/ammlab reached by no test")
    return status


if __name__ == "__main__":
    sys.exit(main())
