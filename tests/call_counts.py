"""Count the Python calls that a probe trial and a simulated event make.

    python3 tests/call_counts.py

Counts the `call` events that `sys.setprofile` reports: one for each Python
frame entered or generator resumed.  Calls into C (`c_call` events) are left
out.  Two figures are printed, each as the mean over its runs:

* calls per probe trial: `probe.classify` on the six built-in pools at
  probe seeds 0 and 7, divided by the trials run (2 seeds x 7 probed
  dimensions x 128 trials per pool);
* calls per event: `run_scenario` on each arbitrage walk of
  `golden_cases.ARB_CASES`, divided by the walk's event count.  Parsing the
  scenario and its price series is not counted.

The counts do not depend on the machine, so they compare two versions of the
code where wall time cannot.  They count calls, not what a call costs, so
some gains do not show: a slot write through a member descriptor raises no
profile event, not even `c_call`, so `core._slot_builder` counts one call
per value built, whether it writes its slots through the descriptors or
through its twin class's `__init__`.  It needs only the standard library and the
sources under src/.  Its name keeps pytest from collecting it.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from golden_cases import ARB_CASES, BUILTINS  # noqa: E402  (needs the path above)

from ammlab import probe  # noqa: E402
from ammlab.engine import BUILTIN_POOLS  # noqa: E402
from ammlab.sim import parse_price_series, parse_scenario, run_scenario  # noqa: E402

PROBE_SEEDS = (0, 7)


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
