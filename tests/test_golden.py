"""Golden outputs: the SHA-256 of what the command line writes, pinned.

The cases, their fixed inputs and the pinned digests are in
`golden_cases.py`, which needs no pytest; `golden_digests.py` runs the same
cases on any installed interpreter.  A changed digest is a changed output
byte: a behaviour change that has to be made on purpose and recorded.
"""

import pytest

from golden_cases import ARB_STEPS, CASES, DEMO, DEMOS, digest


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
