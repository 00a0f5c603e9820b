"""Count the Python calls that a probe trial, a simulated event, a parsed
event, an endowment grant, a deposit and a withdrawal make, and the cyclic
collections that run inside a command.

    python3 tests/call_counts.py

Counts the `call` events that `sys.setprofile` reports: one for each Python
frame entered or generator resumed.  Calls into C (`c_call` events) are left
out.  Seven figures are printed, the first six as the mean over their runs:

* calls per probe trial: `probe.classify` on the six built-in pools at
  probe seeds 0 and 7, divided by the trials run (2 seeds x 7 probed
  dimensions x 128 trials per pool);
* calls per event: `run_scenario` on each arbitrage walk of
  `golden_cases.ARB_CASES`, divided by the walk's event count.  Parsing the
  scenario and its price series is not counted;
* calls per parsed event: `parse_scenario` on the same scripts, divided by
  their event counts;
* calls per endowment grant: `run_scenario` on a scenario of 1,000 accounts,
  each endowed with both tokens of uniswap-v2-like, and no events, divided
  by its 2,000 grants;
* calls per deposit and calls per withdrawal: the calls made inside
  `deposit_liquidity` and `withdraw_liquidity`, each call itself included,
  while `run_scenario` runs a fixed uniswap-v2-like script of 100
  proportional deposits and 100 partial withdrawals, one account providing
  all of them, divided by the deposits and the withdrawals;
* collections inside `cli.main`: the cyclic collections that a
  `gc.callbacks` counter sees while `main` runs `simulate` on each golden
  arbitrage walk, summed over the walks; each run follows a `gc.collect()`,
  and the parser is built first.

The counts do not depend on the machine, so they compare two versions of the
code where wall time cannot.  They count calls, not what a call costs, so
some gains do not show: a slot write through a member descriptor raises no
profile event, not even `c_call`, so `core._slot_builder` counts one call
per value built, whether it writes its slots through the descriptors or
through its twin class's `__init__`.  It needs only the standard library and the
sources under src/.  Its name keeps pytest from collecting it.
"""

import gc
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from golden_cases import ARB_CASES, BUILTINS  # noqa: E402  (needs the path above)

from ammlab import probe  # noqa: E402
from ammlab.cli import _build_parser, main as cli_main  # noqa: E402
from ammlab.engine import BUILTIN_POOLS, deposit_liquidity, withdraw_liquidity  # noqa: E402
from ammlab.sim import parse_price_series, parse_scenario, run_scenario  # noqa: E402

PROBE_SEEDS = (0, 7)
ENDOWED_ACCOUNTS = 1000
LP_ROUNDS = 100


def counted(function, *args) -> int:
    """The Python calls that `function(*args)` makes, itself included."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    sys.setprofile(profile)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return calls


def counted_inside(codes, function, *args) -> dict:
    """The Python calls made inside each outermost frame of a code object
    in `codes`, that frame included, while `function(*args)` runs, keyed
    by the code object."""
    calls = dict.fromkeys(codes, 0)
    inside = None  # (code, frame) of the counted frame on the stack

    def profile(frame, event, arg):
        nonlocal inside
        if event == "call":
            if inside is None and frame.f_code in calls:
                inside = (frame.f_code, frame)
            if inside is not None:
                calls[inside[0]] += 1
        elif event == "return" and inside is not None and frame is inside[1]:
            inside = None

    sys.setprofile(profile)
    try:
        function(*args)
    finally:
        sys.setprofile(None)
    return calls


def main() -> int:
    trials = len(PROBE_SEEDS) * len(probe.PROBED_DIMENSIONS) * probe.DEFAULT_TRIALS
    total_calls = 0
    for name in BUILTINS:
        calls = sum(counted(probe.classify, BUILTIN_POOLS[name], seed) for seed in PROBE_SEEDS)
        total_calls += calls
        print(f"{calls / trials:9.2f}  calls per probe trial  {name}")
    print(f"{total_calls / (trials * len(BUILTINS)):9.2f}  calls per probe trial  all pools")

    total_calls = total_events = 0
    for name, (scenario_text, prices_text) in sorted(ARB_CASES.items()):
        scenario = parse_scenario(scenario_text)
        prices = parse_price_series(prices_text)
        calls = counted(run_scenario, scenario, None, prices)
        events = len(scenario.events)
        total_calls += calls
        total_events += events
        print(f"{calls / events:9.2f}  calls per event        {name}")
    print(f"{total_calls / total_events:9.2f}  calls per event        all pools")

    total_calls = total_events = 0
    for name, (scenario_text, _) in sorted(ARB_CASES.items()):
        calls = counted(parse_scenario, scenario_text)
        events = len(parse_scenario(scenario_text).events)
        total_calls += calls
        total_events += events
        print(f"{calls / events:9.2f}  calls per parsed event {name}")
    print(f"{total_calls / total_events:9.2f}  calls per parsed event all pools")

    preamble = ["pool uniswap-v2-like"]
    for index in range(ENDOWED_ACCOUNTS):
        preamble += [f"account a{index} TOKEN0 1000", f"account a{index} TOKEN1 {index + 1}"]
    scenario = parse_scenario("\n".join(preamble) + "\n")
    calls = counted(run_scenario, scenario)
    print(f"{calls / len(scenario.endowments):9.3f}  calls per endowment grant")

    lines = ["pool uniswap-v2-like", "account lp TOKEN0 100000", "account lp TOKEN1 100000"]
    for index in range(LP_ROUNDS):
        amount = index % 7 + 1.0
        lines += [f"{2 * index + 1} deposit lp {amount} {amount}",
                  f"{2 * index + 2} withdraw lp {amount / 2}"]
    scenario = parse_scenario("\n".join(lines) + "\n")
    codes = (deposit_liquidity.__code__, withdraw_liquidity.__code__)
    calls = counted_inside(codes, run_scenario, scenario)
    print(f"{calls[codes[0]] / LP_ROUNDS:9.2f}  calls per deposit")
    print(f"{calls[codes[1]] / LP_ROUNDS:9.2f}  calls per withdrawal")

    collections = 0
    inside = False

    def count(phase, info):
        nonlocal collections
        if inside and phase == "start":
            collections += 1

    with tempfile.TemporaryDirectory() as workdir:
        runs = []
        for name, (scenario_text, prices_text) in sorted(ARB_CASES.items()):
            scenario_path, prices_path = Path(workdir, f"{name}.scenario"), Path(workdir, f"{name}.prices")
            scenario_path.write_text(scenario_text)
            prices_path.write_text(prices_text)
            runs.append(["simulate", "--scenario", str(scenario_path), "--prices", str(prices_path),
                         "--out", str(Path(workdir, f"{name}.csv"))])
        _build_parser()  # its first build is not part of a command
        gc.callbacks.append(count)
        try:
            for argv in runs:
                gc.collect()  # each run starts with the young generation empty
                inside = True
                try:
                    if cli_main(argv) != 0:
                        raise AssertionError(f"ammlab {' '.join(argv)} failed")
                finally:
                    inside = False
        finally:
            gc.callbacks.remove(count)
    print(f"{collections:9d}  collections inside cli.main, simulate of the golden walks")
    return 0


if __name__ == "__main__":
    sys.exit(main())
