"""Outside-in tracing of the `ammlab` layers, and the per-layer metrics.

`Tracer.install` wraps every public function defined in each layer module
(`cli`, `sim`, `probe`, `engine`, `curves`, `core`) and rebinds the wrapper
at every `ammlab.*` attribute that holds the original, because the modules
import each other with `from .x import y`.  Private helpers stay unwrapped,
so their time is self time of the public function that called them.

Each call records one span - function, parent span, start, end, outcome and
one noted value - in flat arrays.  `fold` turns the spans of a job into
aggregates and clears them, so memory stays bounded by one job.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import sys
import time
from array import array
from types import FunctionType

LAYERS = ("cli", "sim", "probe", "engine", "curves", "core")

OK, AMM_ERROR, OTHER_ERROR = 0, 1, 2

_ENGINE_FNS = ("quote", "execute_swap", "deposit_liquidity", "withdraw_liquidity",
               "curve_buy", "curve_sell")
_CURVE_FNS = ("quote_exact_in", "quote_exact_out", "spot_price", "invariant_value",
              "solve_stableswap_d")
_LEDGER_FNS = ("ledger_transfer", "ledger_mint", "ledger_burn")


def _per_layer() -> tuple[tuple[str, str, str], ...]:
    """(name, unit, better) of every per-layer metric, in report order."""
    rows = [("cli.main.self_frac", "1", "lower")]
    rows += [(f"sim.arbitrage_step.{s}", u, "lower") for s, u in
             (("calls", "count"), ("p50_us", "us"), ("p99_us", "us"), ("self_frac", "1"))]
    rows += [("sim.quotes_per_arb_step", "count", "lower"),
             ("sim.arb_trade_ratio", "1", "higher"),
             ("sim.run_scenario.self_frac", "1", "lower"),
             ("sim.load_scenario.ms", "ms", "lower"),
             ("sim.metrics_to_csv.ms", "ms", "lower")]
    for fn in _ENGINE_FNS:
        rows += [(f"engine.{fn}.calls", "count", "lower"),
                 (f"engine.{fn}.p50_us", "us", "lower"),
                 (f"engine.{fn}.self_frac", "1", "lower")]
    rows += [("engine.quote.fail_ratio", "1", "lower"),
             ("engine.spot_calls_per_quote", "count", "lower"),
             ("engine.curve_quotes_per_swap", "count", "lower")]
    for fn in _CURVE_FNS:
        rows += [(f"curves.{fn}.calls", "count", "lower"),
                 (f"curves.{fn}.self_frac", "1", "lower")]
    rows += [("curves.quote_exact_in.p50_us", "us", "lower"),
             ("curves.quote_exact_out.p50_us", "us", "lower"),
             ("curves.d_solves_per_quote", "count", "lower")]
    rows += [("probe.run_dimension_probe.calls", "count", "lower"),
             ("probe.run_dimension_probe.p50_ms", "ms", "lower"),
             ("probe.run_dimension_probe.self_frac", "1", "lower"),
             ("probe.curve_calls_per_trial", "count", "lower")]
    for fn in _LEDGER_FNS:
        rows += [(f"core.{fn}.{s}", u, "lower") for s, u in
                 (("calls", "count"), ("p50_us", "us"), ("p99_us", "us"))]
    rows += [("core.self_frac", "1", "lower"),
             ("core.entries_copied_per_op", "count", "lower"),
             ("trace.overhead_frac", "1", "lower")]
    return tuple(rows)


PER_LAYER = _per_layer()

# functions whose span durations are kept for percentiles
_PERCENTILED = frozenset(
    name.rsplit(".", 1)[0] for name, _, _ in PER_LAYER
    if name.endswith(("p50_us", "p99_us", "p50_ms", ".ms"))
)

# metrics that count work; two traced runs at one seed must agree on them
COUNT_METRICS = tuple(
    name for name, _, _ in PER_LAYER
    if name.endswith(".calls") or "_per_" in name or name.endswith("_ratio")
)


def _ledger_size(args, kwargs, result) -> float:
    ledger = args[0] if args else kwargs["ledger"]
    return float(len(ledger.balances))


def _traded(args, kwargs, result) -> float:
    return 0.0 if result[2] is None else 1.0


def _trials(signature):
    def note(args, kwargs, result) -> float:
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return float(bound.arguments["trials"])
    return note


class Tracer:
    """Span recorder for one process: install, run and fold jobs, uninstall."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._stack = [-1]
        self.clear()
        # aggregates over folded jobs, per function name
        self.calls: dict[str, int] = {}
        self.self_time: dict[str, float] = {}
        self.durations: dict[str, array] = {}
        self.sums: dict[str, float] = {}  # named ratio numerators/denominators
        self.root_time = 0.0

    def clear(self) -> None:
        """Drop the spans recorded since the last fold, as after a timeout."""
        del self._stack[1:]
        self.fn = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.flag = array("b")
        self.value = array("d")

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        from ammlab.core import AmmError

        wrappers: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"ammlab.{layer}")
            for attr, fn in vars(module).items():
                if (isinstance(fn, FunctionType) and not attr.startswith("_")
                        and fn.__module__ == module.__name__):
                    note = None
                    if layer == "core" and attr in _LEDGER_FNS:
                        note = _ledger_size
                    elif attr == "arbitrage_step":
                        note = _traded
                    elif attr == "run_dimension_probe":
                        note = _trials(inspect.signature(fn))
                    wrapper = self._wrap(f"{layer}.{attr}", fn, note, AmmError)
                    wrappers[id(fn)] = (fn, wrapper)
        for name, module in list(sys.modules.items()):
            if name != "ammlab" and not name.startswith("ammlab."):
                continue
            for attr, value in list(vars(module).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    setattr(module, attr, entry[1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    def _wrap(self, name, fn, note, amm_error):
        ident = self._intern(name)
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(tracer.start)
            tracer.fn.append(ident)
            tracer.parent.append(stack[-1])
            tracer.flag.append(OK)
            tracer.value.append(0.0)
            tracer.end.append(0.0)
            stack.append(index)
            tracer.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except amm_error:
                tracer.flag[index] = AMM_ERROR
                raise
            except BaseException:
                tracer.flag[index] = OTHER_ERROR
                raise
            finally:
                tracer.end[index] = clock()
                stack.pop()
            if note is not None:
                tracer.value[index] = note(args, kwargs, result)
            return result

        return wrapper

    # -- folding ------------------------------------------------------------

    def _nearest(self, targets: set[int]) -> list[int]:
        """Per span, the index of its nearest ancestor-or-self in `targets`."""
        out = [-1] * len(self.fn)
        fn, parent = self.fn, self.parent
        for i in range(len(fn)):
            if fn[i] in targets:
                out[i] = i
            elif parent[i] >= 0:
                out[i] = out[parent[i]]
        return out

    def _add(self, key: str, amount: float) -> None:
        self.sums[key] = self.sums.get(key, 0.0) + amount

    def fold(self) -> None:
        """Fold the recorded spans into the aggregates and clear them."""
        n = len(self.fn)
        names = self.names
        ids = {name: self._intern(name) for name in (
            "sim.arbitrage_step", "engine.quote", "engine.execute_swap",
            "curves.spot_price", "curves.quote_exact_in", "curves.quote_exact_out",
            "curves.solve_stableswap_d", "probe.run_dimension_probe")}
        fn, parent, flag, value = self.fn, self.parent, self.flag, self.value
        duration = [self.end[i] - self.start[i] for i in range(n)]
        children = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                children[parent[i]] += duration[i]
            else:
                self.root_time += duration[i]
        for i in range(n):
            name = names[fn[i]]
            self.calls[name] = self.calls.get(name, 0) + 1
            self.self_time[name] = self.self_time.get(name, 0.0) + duration[i] - children[i]
            if name in _PERCENTILED:
                self.durations.setdefault(name, array("d")).append(duration[i])

        arb = self._nearest({ids["sim.arbitrage_step"]})
        swap = self._nearest({ids["engine.execute_swap"]})
        probe = self._nearest({ids["probe.run_dimension_probe"]})
        engine_quote = self._nearest({ids["engine.quote"]})
        curve_quote = self._nearest({ids["curves.quote_exact_in"], ids["curves.quote_exact_out"]})
        curve_quotes = {ids["curves.quote_exact_in"], ids["curves.quote_exact_out"]}
        solving_quotes: set[int] = set()
        for i in range(n):
            f = fn[i]
            name = names[f]
            if f == ids["engine.quote"]:
                if arb[i] >= 0:
                    self._add("quotes_in_arb", 1)
                if flag[i] == AMM_ERROR:
                    self._add("quote_errors", 1)
            elif f == ids["sim.arbitrage_step"]:
                self._add("arb_trades", value[i])
            elif f == ids["engine.execute_swap"] and flag[i] == OK:
                self._add("settled_swaps", 1)
            elif f == ids["probe.run_dimension_probe"]:
                self._add("probe_trials", value[i])
            elif f == ids["curves.solve_stableswap_d"]:
                owner = engine_quote[i] if engine_quote[i] >= 0 else curve_quote[i]
                if owner >= 0:
                    self._add("d_solves_in_quotes", 1)
                    solving_quotes.add(owner)
            if f == ids["curves.spot_price"] and parent[i] >= 0 and fn[parent[i]] == ids["engine.quote"]:
                self._add("spots_in_quotes", 1)
            if f in curve_quotes and swap[i] >= 0:
                self._add("curve_quotes_in_swaps", 1)
            if name.startswith("curves.") and probe[i] >= 0:
                self._add("curve_calls_in_probes", 1)
            if name.startswith("core.ledger_"):
                self._add("entries_copied", value[i])
        self._add("quotes_solving_d", len(solving_quotes))
        self.clear()

    # -- metrics ------------------------------------------------------------

    def metrics(self, passes: int, overhead_frac: float) -> dict[str, float]:
        """Per-layer metrics, keyed as PER_LAYER; call counts are per pass."""
        total = self.root_time or 1.0

        def calls(name):
            return self.calls.get(name, 0)

        def ratio(num, den):
            return num / den if den else 0.0

        def pct(name, q, scale):
            values = sorted(self.durations.get(name, ()))
            if not values:
                return 0.0
            if q == 50:
                return statistics.median(values) * scale
            return values[min(len(values) - 1, int(q / 100 * len(values)))] * scale

        s = self.sums.get
        ledger_calls = sum(calls(f"core.{fn}") for fn in _LEDGER_FNS)
        derived = {
            "sim.quotes_per_arb_step": ratio(s("quotes_in_arb", 0), calls("sim.arbitrage_step")),
            "sim.arb_trade_ratio": ratio(s("arb_trades", 0), calls("sim.arbitrage_step")),
            "sim.load_scenario.ms": pct("sim.load_scenario", 50, 1e3),
            "sim.metrics_to_csv.ms": pct("sim.metrics_to_csv", 50, 1e3),
            "engine.quote.fail_ratio": ratio(s("quote_errors", 0), calls("engine.quote")),
            "engine.spot_calls_per_quote": ratio(s("spots_in_quotes", 0), calls("engine.quote")),
            "engine.curve_quotes_per_swap": ratio(s("curve_quotes_in_swaps", 0),
                                                  s("settled_swaps", 0)),
            "curves.d_solves_per_quote": ratio(s("d_solves_in_quotes", 0),
                                               s("quotes_solving_d", 0)),
            "probe.curve_calls_per_trial": ratio(s("curve_calls_in_probes", 0),
                                                 s("probe_trials", 0)),
            "core.self_frac": sum(t for name, t in self.self_time.items()
                                  if name.startswith("core.")) / total,
            "core.entries_copied_per_op": ratio(s("entries_copied", 0), ledger_calls),
            "trace.overhead_frac": overhead_frac,
        }
        out = {}
        for name, _, _ in PER_LAYER:
            if name in derived:
                out[name] = derived[name]
                continue
            fn, stat = name.rsplit(".", 1)
            if stat == "calls":
                out[name] = calls(fn) / passes
            elif stat == "self_frac":
                out[name] = self.self_time.get(fn, 0.0) / total
            elif stat == "p50_us":
                out[name] = pct(fn, 50, 1e6)
            elif stat == "p99_us":
                out[name] = pct(fn, 99, 1e6)
            elif stat == "p50_ms":
                out[name] = pct(fn, 50, 1e3)
            else:
                raise KeyError(name)
        return out
