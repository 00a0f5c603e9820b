"""Golden outputs: the SHA-256 of what the command line writes, pinned.

The cases, their fixed inputs and the pinned digests are in
`golden_cases.py`, which needs no pytest; `golden_digests.py` runs the same
cases on any installed interpreter, and `test_every_other_python_matches`
runs it under each other CPython 3.10 or later that it finds.  A changed
digest is a changed output byte: a behaviour change that has to be made on
purpose and recorded.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from golden_cases import ARB_STEPS, CASES, DEMO, DEMOS, digest

GOLDEN_DIGESTS = Path(__file__).resolve().parent / "golden_digests.py"


def _cases(test: str):
    """Parametrize a test over the golden cases it checks."""
    chosen = [case for case in CASES if case.test == test]
    return pytest.mark.parametrize("case", chosen, ids=[case.id for case in chosen])


@_cases("test_classify")
def test_classify(case):
    assert digest(case.output()) == case.digest


@_cases("test_quote")
def test_quote(case):
    assert digest(case.output()) == case.digest


@_cases("test_curve_table")
def test_curve_table(case):
    assert digest(case.output()) == case.digest


@_cases("test_arbitrage_walk")
def test_arbitrage_walk(case):
    out = case.output()
    assert out.count("\n") == 1 + ARB_STEPS * (2 if case.id == "dodo-like" else 1)
    assert digest(out) == case.digest


@_cases("test_scripted_scenario")
def test_scripted_scenario(case):
    assert digest(case.output()) == case.digest


@_cases("test_demo")
def test_demo(case):
    assert digest(case.output()) == case.digest


@_cases("test_api")
def test_api(case):
    assert digest(case.output()) == case.digest


def test_every_demo_is_pinned():
    assert sorted(path.name for path in DEMOS.glob("*.py")) == sorted(DEMO)


def _other_pythons() -> list[Path]:
    """Each CPython 3.10 or later but the one running: pyenv's builds, as
    `$PYENV_ROOT/versions/<version>/bin/python` (`~/.pyenv` by default),
    then each `python3.<minor>` on PATH.  pyenv's shims are left out, as
    they may not resolve a version outside a project that pins one; so is
    a second name for a binary already found."""
    pyenv = Path(os.environ.get("PYENV_ROOT") or Path.home() / ".pyenv")
    named = [(path.parent.parent.name, path) for path in sorted(pyenv.glob("versions/*/bin/python"))]
    for directory in filter(None, os.environ.get("PATH", "").split(os.pathsep)):
        if Path(directory).resolve() != (pyenv / "shims").resolve():
            named += [(path.name[len("python"):], path)
                      for path in sorted(Path(directory).glob("python3.*"))]
    found, seen = [], {Path(sys.executable).resolve()}
    for version, path in named:
        release = re.fullmatch(r"3\.(\d+)(\.\w+)?", version)
        if release and int(release[1]) >= 10 and os.access(path, os.X_OK):
            if path.resolve() not in seen:
                seen.add(path.resolve())
                found.append(path)
    return found


@pytest.mark.parametrize("python", _other_pythons() or [None], ids=str)
def test_every_other_python_matches(python):
    """The same bytes on every supported interpreter: `golden_digests.py`
    matches every pinned digest under each other CPython found."""
    if python is None:
        pytest.skip("no other CPython 3.10 or later under $PYENV_ROOT/versions or on PATH")
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "PYTHONHOME")}
    done = subprocess.run([str(python), str(GOLDEN_DIGESTS)], capture_output=True, text=True,
                          env=env, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert f"{len(CASES)} of {len(CASES)} golden digests match" in done.stdout
