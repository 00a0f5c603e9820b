"""Tests for the command-line interface.

Exit codes: 0 success, 1 usage error, 2 engine/probe error.  Diagnostics go
to stderr; data goes to stdout or the --out file.
"""

import contextlib
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ammlab.cli import main
from ammlab.core import AmmError, ledger_mint
from ammlab.curves import CURVES
from ammlab.engine import BUILTIN_POOLS, EXACT_IN, TradeOrder, execute_swap, materialize_pool, parse_pool_spec
from ammlab.probe import MIN_TRIALS, classify
from ammlab.sim import metrics_to_csv, parse_price_series, parse_scenario, run_scenario

CP_ZERO_FEE = """
archetype = price-discovering-lp-based
curve = constant-product
tokens = T0, T1
reserves = 100, 100
fee = 0
"""


@pytest.fixture
def cp_path(tmp_path):
    path = tmp_path / "cp.pool"
    path.write_text(CP_ZERO_FEE)
    return str(path)


# ---------------------------------------------------------------------------
# quote
# ---------------------------------------------------------------------------


class TestQuote:
    def test_worked_example(self, cp_path, capsys):
        code = main(
            ["quote", "--pool", cp_path, "--in", "T0", "--out", "T1",
             "--amount", "10"]
        )
        captured = capsys.readouterr()
        assert code == 0
        assert "amount_out 9.090909" in captured.out
        for field in (
            "amount_in",
            "amount_out",
            "fee_paid",
            "surcharge_component",
            "spot_before",
            "spot_after",
            "mean_price",
        ):
            assert field in captured.out
        assert captured.err == ""

    @pytest.mark.parametrize(
        "extra, priced",
        [
            pytest.param(["--amount", "inf"], False, id="extra0"),
            pytest.param(["--amount", "nan"], False, id="extra1"),
            # the closed form prices an output below the reserves' float spacing
            pytest.param(["--amount", "1e-300", "--kind", "exact-out"], True, id="extra2"),
            # output within float spacing of the reserve
            pytest.param(["--amount", "1e300"], False, id="extra3"),
        ],
    )
    def test_unpriceable_amount_is_an_engine_error(self, extra, priced, capsys):
        code = main(
            ["quote", "--pool", "uniswap-v2-like", "--in", "TOKEN0", "--out", "TOKEN1"]
            + extra
        )
        captured = capsys.readouterr()
        if priced:
            assert code == 0
            assert captured.out.startswith("amount_in 0.000000\namount_out 0.000000\n")
            assert captured.err == ""
            return
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_builtin_pool_with_fee(self, capsys):
        code = main(
            ["quote", "--pool", "uniswap-v2-like", "--in", "TOKEN0",
             "--out", "TOKEN1", "--amount", "10"]
        )
        assert code == 0
        assert "amount_out 9.066109" in capsys.readouterr().out

    def test_exact_out_kind(self, cp_path, capsys):
        code = main(
            ["quote", "--pool", cp_path, "--in", "T1", "--out", "T0",
             "--amount", "10", "--kind", "exact-out"]
        )
        assert code == 0
        # constant product: receiving 10 T0 from (100,100) costs 100/9
        assert "amount_in 11.111111" in capsys.readouterr().out

    def test_unknown_token_is_an_engine_error(self, cp_path, capsys):
        code = main(
            ["quote", "--pool", cp_path, "--in", "WRONG", "--out", "T1",
             "--amount", "10"]
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "error" in captured.err.lower()
        assert captured.out == ""

    def test_missing_argument_is_a_usage_error(self, cp_path, capsys):
        code = main(["quote", "--pool", cp_path, "--in", "T0", "--out", "T1"])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.err != ""

    def test_unknown_subcommand_is_a_usage_error(self, capsys):
        assert main(["frobnicate"]) == 1

    def test_no_subcommand_is_a_usage_error(self, capsys):
        assert main([]) == 1

    def test_help_exits_cleanly(self, capsys):
        assert main(["--help"]) == 0
        assert "quote" in capsys.readouterr().out


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


class TestClassify:
    def test_csv_report(self, capsys):
        code = main(["classify", "--pool", "mstable-2021-like", "--seed", "7"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().splitlines()
        assert lines[0] == "dimension,characteristic,max_deviation,trials,tolerance"
        assert len(lines) == 13
        assert any("Translation Invariant" in line for line in lines)

    def test_byte_stable_across_runs(self, capsys):
        main(["classify", "--pool", "uniswap-v2-like", "--seed", "3"])
        first = capsys.readouterr().out
        main(["classify", "--pool", "uniswap-v2-like", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second

    def test_too_few_trials_is_an_engine_error(self, capsys):
        code = main(
            ["classify", "--pool", "uniswap-v2-like", "--seed", "0",
             "--trials", "99"]
        )
        assert code == 2

    def test_archetype_that_does_not_fit_the_curve_is_an_engine_error(
        self, tmp_path, capsys
    ):
        path = tmp_path / "adopting-cp.pool"
        path.write_text(
            CP_ZERO_FEE.replace("price-discovering", "price-adopting")
        )
        code = main(["classify", "--pool", str(path), "--seed", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        quoted = main(
            ["quote", "--pool", str(path), "--in", "T0", "--out", "T1",
             "--amount", "1"]
        )
        assert quoted == 2
        assert captured.err == capsys.readouterr().err
        assert "price-adoption curve" in captured.err

    def test_out_file(self, tmp_path, capsys):
        out = tmp_path / "report.csv"
        code = main(
            ["classify", "--pool", "mstable-2021-like", "--seed", "7",
             "--out", str(out)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert out.read_text().startswith("dimension,")


class TestOverflowingReserves:
    """Reserves whose conservation value or product-sum residual overflows a
    float, or whose product-sum offset divides by an underflowed product,
    are rejected with an AmmError message, never a traceback."""

    @pytest.mark.parametrize(
        "curve, reserves, argv",
        [
            ("constant-product-sum\nchi = 10", "1e160, 1e160",
             ["quote", "--in", "T0", "--out", "T1", "--amount", "1"]),
            ("constant-product-sum\nchi = 10", "1e-300, 1e300",
             ["classify", "--seed", "0", "--trials", "128"]),
            ("constant-product", "1e160, 1e160",
             ["quote", "--in", "T0", "--out", "T1", "--amount", "1e150"]),
        ],
        ids=["product-sum-quote", "product-sum-classify", "product-quote"],
    )
    def test_engine_error(self, tmp_path, capsys, curve, reserves, argv):
        path = tmp_path / "huge.pool"
        path.write_text(
            CP_ZERO_FEE.replace("constant-product", curve).replace("100, 100", reserves)
        )
        code = main(argv[:1] + ["--pool", str(path)] + argv[1:])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "overflow" in captured.err
        assert "Traceback" not in captured.err

    def test_underflowing_outside_reserves(self, tmp_path, capsys):
        """A four-token product-sum pool whose two untraded reserves
        multiply to less than the smallest float."""
        path = tmp_path / "tiny.pool"
        path.write_text(
            CP_ZERO_FEE.replace("constant-product", "constant-product-sum\nchi = 10")
            .replace("T0, T1", "A, B, C, D").replace("100, 100", "1e-200, 1e-200, 1, 1")
        )
        code = main(["quote", "--pool", str(path), "--in", "C", "--out", "D", "--amount", "0.1"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "underflow" in captured.err
        assert "Traceback" not in captured.err

    def test_exponential_overflow(self, tmp_path, capsys):
        # minting for 1e10 at kappa = 0.01 needs a supply of (1e10)**100
        path = tmp_path / "steep.pool"
        path.write_text(
            "archetype = price-discovering-supply-sovereign\ncurve = exponential\n"
            "tokens = RESERVE, ISSUED\nreserves = 100, 0\nkappa = 0.01\nc = 1\n"
        )
        code = main(["quote", "--pool", str(path), "--in", "RESERVE", "--out", "ISSUED",
                     "--amount", "1e10", "--kind", "exact-in"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "overflows a float" in captured.err
        assert "Traceback" not in captured.err


class TestUnresolvableSpread:
    def test_classify_refuses_reserves_600_decades_apart(self, tmp_path, capsys):
        """Decided: `classify` on reserves 1e-300, 1e300 exits 2.  The probe
        sizes its trades from the smallest reserve, and its spot of token 0,
        1e300 / 1e-300, is past the largest float: the conservation spots
        refuse it with DomainError rather than return inf.  Deviations
        measured on a 1e-300 scale would read float rounding of the 1e300
        reserve as a property of the design ('Non-incorporative', and
        'Path Dependent' at inf, where the spot was let through), so no
        verdict beats a wrong one."""
        path = tmp_path / "spread.pool"
        path.write_text(CP_ZERO_FEE.replace("100, 100", "1e-300, 1e300"))
        code = main(["classify", "--pool", str(path), "--seed", "0"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: spot price leaves the float range at reserves")

    def test_classify_past_the_zero_bid_reserve(self, tmp_path, capsys):
        """A price-adoption pool whose bid floors at zero at a token-0
        reserve of 2, just above its own: the probe's priming walks push the
        reserve past it, where both volumes' mean prices are 0."""
        path = tmp_path / "floor.pool"
        path.write_text(
            "archetype = price-adopting-lp-based\ncurve = price-adoption\n"
            "tokens = BASE, QUOTE\nreserves = 1.9999, 1\nfee = 0.003\nk = 1\n"
            "target_reserves = 1, 1\noracle_price = 1\n"
        )
        code = main(["classify", "--pool", str(path), "--seed", "0"])
        captured = capsys.readouterr()
        assert code in (0, 2)
        assert "Traceback" not in captured.err


# Specs whose opening state has a conservation value, a spot or a probe scale
# of 0, subnormal or past the float range, with a command that once failed on
# them: (curve, tokens, reserves, other keys, argv after --pool)
UNMEASURABLE = [
    # curve-table's smallest size, 1e-3 of reserve 0, underflows to 0
    pytest.param("constant-product", "T0, T1", "5e-324, 1.0382785733243097e-08", "",
                 ["curve-table", "--samples", "9"], id="curve-table-cp"),
    # the conservation value underflows to 0
    pytest.param("constant-product", "T0, T1, T2, T3",
                 "6.951768629143713e-19, 100, 2.760499852225275e-24, 1e-300", "fee = 0.9\n",
                 ["classify", "--seed", "1"], id="classify-cp4"),
    # the probe scale, the smallest reserve, is subnormal
    pytest.param("constant-sum", "T0, T1, T2", "0.0100765092960706, 5e-324, 998949505.5302217",
                 "", ["classify", "--seed", "14"], id="classify-cs3"),
    # the probe scale is 0
    pytest.param("constant-sum", "T0, T1", "0, 0.009892767663987164", "fee = 0.3\n",
                 ["classify", "--seed", "61"], id="classify-cs-zero"),
    pytest.param("geometric-mean", "T0, T1, T2", "6.666859060665274e-21, 7466660641.713132, 5e-324",
                 "weights = 0.14345385895149193, 0.3629661465893346, 0.49357999445917344\n"
                 "fee = 0.3\n", ["classify", "--seed", "1"], id="classify-gm3"),
]


def lp_spec(curve, tokens, reserves, keys):
    return (
        "archetype = price-discovering-lp-based\n"
        f"curve = {curve}\ntokens = {tokens}\nreserves = {reserves}\n{keys}"
    )


class TestUnmeasurableOpeningState:
    """Quotes and probes on the `UNMEASURABLE` specs once divided by 0 or
    took the log of 0 (a traceback, exit 1).  `materialize_pool`, through
    which every command opens its pool, refuses them with DomainError
    (`engine.check_opening`), so every command on them exits 2."""

    @pytest.mark.parametrize("curve, tokens, reserves, keys, argv", UNMEASURABLE)
    def test_exits_2_without_a_traceback(self, tmp_path, capsys, curve, tokens, reserves, keys, argv):
        path = tmp_path / "tiny.pool"
        path.write_text(lp_spec(curve, tokens, reserves, keys))
        code = main(argv[:1] + ["--pool", str(path)] + argv[1:])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err


class TestNonUtf8Input:
    """An input file that is not UTF-8 once escaped `main` as
    UnicodeDecodeError (a traceback, exit 1); every loader now refuses it
    with DomainError naming the file, so the command exits 2."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["quote", "--pool", "{bad}", "--in", "T0", "--out", "T1", "--amount", "1"],
            ["classify", "--pool", "{bad}", "--seed", "0"],
            ["curve-table", "--pool", "{bad}", "--samples", "3"],
            ["simulate", "--scenario", "{bad}"],
            ["simulate", "--scenario", "{scenario}", "--prices", "{bad}"],
            ["simulate", "--scenario", "{pooled}"],
        ],
        ids=["quote", "classify", "curve-table", "scenario", "prices", "scenario-pool"],
    )
    def test_exits_2_naming_the_file(self, tmp_path, cp_path, capsys, argv):
        bad = tmp_path / "latin1.txt"
        bad.write_bytes(b"pool = caf\xe9\n\xff\n")
        scenario, pooled = tmp_path / "scenario.txt", tmp_path / "pooled.txt"
        scenario.write_text(f"pool {cp_path}\naccount arb T0 10\n1 arb arb\n")
        pooled.write_text(f"pool {bad}\naccount arb T0 10\n1 arb arb\n")
        paths = {"bad": bad, "scenario": scenario, "pooled": pooled}
        code = main([arg.format(**paths) for arg in argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {str(bad)!r} is not UTF-8 text (byte 10)\n"


# (input files by name, argv with {name} for each file's path, the error line)
REFUSALS = [
    pytest.param(
        {"prices": "step,price\n0,1\n\n2,x\n"},
        ["simulate", "--scenario", "{scenario}", "--prices", "{prices}"],
        "price series line 4: cannot parse '2,x'", id="prices-blank-line-then-parse"),
    pytest.param({"s": "account arb T0\n"}, ["simulate", "--scenario", "{s}"],
                 "scenario line 1: expected account <name> <token> <amount>", id="account-arity"),
    pytest.param({"s": "account arb T0 ten\n"}, ["simulate", "--scenario", "{s}"],
                 "scenario line 1: bad amount 'ten'", id="account-amount"),
    pytest.param({"s": "pool {pool}\npool {pool}\n"}, ["simulate", "--scenario", "{s}"],
                 "scenario line 2: duplicate pool directive", id="duplicate-pool"),
    pytest.param({"s": "pool \n"}, ["simulate", "--scenario", "{s}"],
                 "scenario line 1: pool needs a source", id="empty-pool"),
    pytest.param({"s": "pool {pool}\n1\n"}, ["simulate", "--scenario", "{s}"],
                 "scenario line 2: step 1 has no verb", id="no-verb"),
    pytest.param({}, ["curve-table", "--pool", "{pool}", "--samples", "0"],
                 "samples must be >= 1: 0", id="no-samples"),
    pytest.param({"p": CP_ZERO_FEE.replace("fee = 0", "fee = abc")}, ["classify", "--pool", "{p}", "--seed", "0"],
                 "fee: not a number: 'abc'", id="spec-not-a-number"),
    pytest.param({"p": CP_ZERO_FEE + "garbage\n"}, ["curve-table", "--pool", "{p}", "--samples", "3"],
                 "line 7: expected `key = value`: 'garbage'", id="spec-no-equals"),
    pytest.param({"p": CP_ZERO_FEE + "fee = 0\n"}, ["classify", "--pool", "{p}", "--seed", "0"],
                 "line 7: duplicate key 'fee'", id="spec-duplicate-key"),
    pytest.param(
        {}, ["quote", "--pool", "{missing}", "--in", "T0", "--out", "T1", "--amount", "1"],
        "{missing!r} is neither a built-in pool name ['augur-like', 'bancor-like', 'curve-v1-like', "
        "'dodo-like', 'mstable-2021-like', 'uniswap-v2-like'] nor a readable file", id="no-such-pool"),
    # 1e-300 of T0 costs 1e-300 * 1e-300 of T1, which underflows to 0
    pytest.param(
        {"p": CP_ZERO_FEE.replace("100, 100", "1e300, 1")},
        ["quote", "--pool", "{p}", "--in", "T1", "--out", "T0", "--amount", "1e-300", "--kind", "exact-out"],
        "cannot price exact-out 1e-300: the input would be 0.0", id="unpriceable-input"),
    # a spec of the wrong shape is named by its shape, not by its opening
    # state, whose conservation value and probe scale leave the float range
    pytest.param(
        {"p": lp_spec("lmsr", "C, O0", "1, 0", "b = 1e-320\n")},
        ["quote", "--pool", "{p}", "--in", "C", "--out", "O0", "--amount", "1"],
        "an LMSR pool needs a collateral token and at least two outcomes", id="shape-first"),
]


@pytest.mark.parametrize("files, argv, message", REFUSALS)
def test_a_refused_input_exits_2_with_its_error_line(tmp_path, capsys, files, argv, message):
    """Each refusal of a spec, a scenario, a price series or an option
    reaches `main` as one `error:` line and exit 2."""
    paths = {"pool": tmp_path / "cp.pool", "scenario": tmp_path / "scenario.txt",
             "missing": str(tmp_path / "missing.pool")}
    paths["pool"].write_text(CP_ZERO_FEE)
    paths["scenario"].write_text(f"pool {paths['pool']}\naccount arb T0 10\n1 arb arb\n")
    for name, text in files.items():
        paths[name] = tmp_path / f"{name}.txt"
        paths[name].write_text(text.format(**paths))
    code = main([arg.format(**paths) for arg in argv])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message.format(**paths)}\n"


# ---------------------------------------------------------------------------
# python -m ammlab
# ---------------------------------------------------------------------------


def test_python_dash_m_runs_the_command_line(capsys):
    """`python -m ammlab` in a child process: its stdout is what `main`
    prints in process, and it exits 0, 1 on a usage error and 2 on an
    engine error, with no traceback."""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")}

    def run(*args):
        return subprocess.run([sys.executable, "-m", "ammlab", *args], capture_output=True,
                              text=True, env=env, timeout=120)

    args = ["quote", "--pool", "uniswap-v2-like", "--in", "TOKEN0", "--out", "TOKEN1", "--amount", "10"]
    done = run(*args)
    assert main(args) == 0
    assert (done.returncode, done.stdout, done.stderr) == (0, capsys.readouterr().out, "")
    done = run()
    assert done.returncode == 1
    assert done.stderr.startswith("usage: ammlab ") and "Traceback" not in done.stderr
    done = run(*args[:2], "no-such-pool", *args[3:])
    assert done.returncode == 2 and done.stdout == ""
    (line,) = done.stderr.splitlines()
    assert line.startswith("error: 'no-such-pool' is neither a built-in pool name")


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


class TestSimulate:
    def write_inputs(self, tmp_path, cp_path):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(
            f"pool {cp_path}\n"
            "account arb T0 100000\n"
            "account arb T1 100000\n"
            "1 arb arb\n"
        )
        prices = tmp_path / "prices.csv"
        prices.write_text("step,price\n0,1.0\n1,2.0\n")
        return str(scenario), str(prices)

    def test_metrics_csv_to_file(self, tmp_path, cp_path, capsys):
        scenario, prices = self.write_inputs(tmp_path, cp_path)
        out = tmp_path / "metrics.csv"
        code = main(
            ["simulate", "--scenario", scenario, "--prices", prices,
             "--out", str(out)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        expected = metrics_to_csv(
            run_scenario(
                parse_scenario(open(scenario).read()),
                price_series=parse_price_series(open(prices).read()),
            )
        )
        assert out.read_text() == expected

    def test_metrics_to_stdout_without_out(self, tmp_path, cp_path, capsys):
        scenario, prices = self.write_inputs(tmp_path, cp_path)
        code = main(["simulate", "--scenario", scenario, "--prices", prices])
        captured = capsys.readouterr()
        assert code == 0
        assert captured.out.startswith("step,event,spot,")

    def test_prices_are_optional(self, tmp_path, cp_path, capsys):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(
            f"pool {cp_path}\naccount alice T0 50\n1 trade alice T0 T1 10\n"
        )
        assert main(["simulate", "--scenario", str(scenario)]) == 0

    def test_failing_event_is_an_engine_error(self, tmp_path, cp_path, capsys):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(
            f"pool {cp_path}\naccount alice T0 5\n1 trade alice T0 T1 10\n"
        )
        code = main(["simulate", "--scenario", str(scenario)])
        captured = capsys.readouterr()
        assert code == 2
        assert "event" in captured.err

    @pytest.mark.parametrize("event", ["trade pool:TOKEN0/TOKEN1 TOKEN0 TOKEN1 5",
                                       "deposit pool:TOKEN0/TOKEN1 5 5"])
    def test_the_pools_own_account_is_refused(self, tmp_path, capsys, event):
        """Its transfers to the pool move no balance, so the pool state
        would move alone."""
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(
            "pool uniswap-v2-like\naccount pool:TOKEN0/TOKEN1 TOKEN0 5\n"
            f"account pool:TOKEN0/TOKEN1 TOKEN1 5\n1 {event}\n"
        )
        code = main(["simulate", "--scenario", str(scenario)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.endswith(
            "the pool's own account 'pool:TOKEN0/TOKEN1' cannot trade or provide liquidity\n")

    def test_deposit_after_a_drain_is_an_engine_error(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(
            "pool mstable-2021-like\n"
            "account t STABLE0 1000\naccount t STABLE1 1000\n"
            "1 trade t STABLE0 STABLE1 100.30090270812437\n"  # drains STABLE1
            "2 deposit t 1 1\n"
        )
        code = main(["simulate", "--scenario", str(scenario)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error:")
        assert "Traceback" not in captured.err

    def test_buying_an_outcome_priced_below_the_float_range(self, tmp_path, capsys):
        """The first buy leaves OUT1 1e8 / b shares behind, priced at 0 in
        floats; buying it must not print a traceback."""
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(
            "pool augur-like\naccount a CASH 1e9\n"
            "1 trade a CASH OUT0 1e8\n2 trade a CASH OUT1 1\n"
        )
        code = main(["simulate", "--scenario", str(scenario)])
        captured = capsys.readouterr()
        assert code in (0, 2)
        assert "Traceback" not in captured.err

    def test_the_last_trade_sells_a_whole_outcome_balance(self, tmp_path, capsys):
        """Two holders buy outcome 0, then each sells its whole balance; the
        last holds more than the pool's outstanding float sum by rounding,
        which the sale is priced at."""
        pool, ledgers = materialize_pool(BUILTIN_POOLS["augur-like"])
        for holder in "ab":  # the scenario's endowments
            ledgers["CASH"] = ledger_mint(ledgers["CASH"], holder, 100.0)
        buys = [("b", 3.0), ("a", 1.0), ("b", 10.0)]
        for holder, amount in buys:
            order = TradeOrder(holder, "CASH", "OUT0", amount, EXACT_IN)
            pool, _, ledgers = execute_swap(pool, order, ledgers)
        held = {holder: ledgers["OUT0"].balances[holder] for holder in "ab"}
        assert held["b"] > pool.reserves[1] - held["a"]
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(
            "pool augur-like\naccount a CASH 100\naccount b CASH 100\n"
            + "".join(f"{step} trade {h} CASH OUT0 {amount!r}\n" for step, (h, amount) in enumerate(buys, 1))
            + f"4 trade a OUT0 CASH {held['a']!r}\n5 trade b OUT0 CASH {held['b']!r}\n"
        )
        assert main(["simulate", "--scenario", str(scenario)]) == 0
        assert capsys.readouterr().err == ""

    def test_a_row_before_the_first_oracle_price_has_no_spot(self, tmp_path, capsys):
        """A price-adoption pool quotes no spot before it adopts a price:
        that row's spot cell is empty, the next one's is the adopted bid."""
        pool = tmp_path / "unpriced.pool"
        pool.write_text(
            "archetype = price-adopting-lp-based\ncurve = price-adoption\n"
            "tokens = BASE, QUOTE\nreserves = 100, 1000\nfee = 0.003\n"
            "k = 0.5\ntarget_reserves = 100, 1000\n"
        )
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(f"pool {pool}\n1 withdraw creator 1\n2 oracle 10\n")
        assert main(["simulate", "--scenario", str(scenario)]) == 0
        rows = [row.split(",") for row in capsys.readouterr().out.splitlines()[1:]]
        assert [row[:3] for row in rows] == [["1", "withdraw", ""], ["2", "oracle", "10.0"]]

    def test_zero_withdrawal_after_the_last_share(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.txt"
        scenario.write_text(
            "pool uniswap-v2-like\n1 withdraw creator 100\n2 withdraw creator 0\n"
        )
        code = main(["simulate", "--scenario", str(scenario)])
        captured = capsys.readouterr()
        assert code == 0
        rows = captured.out.splitlines()[1:]
        assert [row.split(",")[:2] for row in rows] == [["1", "withdraw"], ["2", "withdraw"]]


# ---------------------------------------------------------------------------
# curve-table
# ---------------------------------------------------------------------------


class TestCurveTable:
    def test_table_shape(self, cp_path, capsys):
        code = main(["curve-table", "--pool", cp_path, "--samples", "5"])
        captured = capsys.readouterr()
        assert code == 0
        lines = captured.out.strip().splitlines()
        assert lines[0] == "amount_in,amount_out,mean_price,spot_after"
        assert len(lines) == 6
        amounts = [float(line.split(",")[0]) for line in lines[1:]]
        assert amounts == sorted(amounts)
        assert amounts[0] < amounts[-1]

    def test_rows_match_engine_quotes(self, cp_path, capsys):
        main(["curve-table", "--pool", cp_path, "--samples", "3"])
        lines = capsys.readouterr().out.strip().splitlines()
        for line in lines[1:]:
            amount_in, amount_out, mean_price, spot_after = map(
                float, line.split(",")
            )
            assert amount_out == pytest.approx(
                100.0 * amount_in / (100.0 + amount_in), rel=1e-12
            )
            assert mean_price == pytest.approx(amount_out / amount_in, rel=1e-12)

    def test_out_file(self, tmp_path, cp_path, capsys):
        out = tmp_path / "table.csv"
        code = main(
            ["curve-table", "--pool", cp_path, "--samples", "4",
             "--out", str(out)]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert len(out.read_text().strip().splitlines()) == 5

    def test_works_on_every_builtin(self, capsys):
        from ammlab.engine import BUILTIN_POOLS

        for name in BUILTIN_POOLS:
            assert main(["curve-table", "--pool", name, "--samples", "3"]) == 0
            capsys.readouterr()


# ---------------------------------------------------------------------------
# the contract, fuzzed: exit 0, 1 or 2, and never a traceback
# ---------------------------------------------------------------------------


def _logs(lo: float, hi: float):
    return st.floats(lo, hi).map(math.exp)


# sizes from e^-60 to e^60 and, one draw in four, an edge of the float range
_EDGES = (0.0, 5e-324, 1e-300, 1e300, 1e308)
_SIZES = st.one_of(*[_logs(-60.0, 60.0)] * 3, st.sampled_from(_EDGES))


def _listed(values) -> str:
    return ", ".join(map(repr, values))


@st.composite
def pool_specs(draw) -> str:
    """The text of a pool spec for one of the eight curves, with the
    archetype and token count its curve needs and generated parameters."""
    curve = draw(st.sampled_from(sorted(c.spec_name for c in CURVES)))
    archetype = "price-discovering-lp-based"
    n = draw(st.integers(2, 4))
    keys = ""
    if curve == "geometric-mean":
        raw = draw(st.lists(st.floats(0.05, 1.0), min_size=n, max_size=n))
        keys = f"weights = {_listed(w / math.fsum(raw) for w in raw)}\n"
    elif curve == "constant-product-sum":
        keys = f"chi = {draw(st.one_of(st.just(0.0), _logs(-30.0, 30.0)))!r}\n"
    elif curve == "constant-power-sum":
        keys = f"t = {draw(st.floats(0.0, 0.99))!r}\n"
    reserves = draw(st.lists(_SIZES, min_size=n, max_size=n))
    if curve == "lmsr":
        n += 1
        b = draw(_logs(-20.0, 20.0))
        keys = f"b = {b!r}\n"
        # the creation subsidy b*ln(outcomes), or more, or any size
        subsidy = draw(st.one_of(st.floats(1.0, 4.0).map(lambda f: f * b * math.log(n - 1)), _SIZES))
        reserves = [subsidy] + [0.0] * (n - 1)
    elif curve == "price-adoption":
        archetype, n = "price-adopting-lp-based", 2
        # at its target, as a pool opens, or anywhere
        targets = draw(st.one_of(st.just(reserves[:2]), st.lists(_SIZES, min_size=2, max_size=2)))
        keys = (
            f"k = {draw(st.floats(0.0, 1.0))!r}\ntarget_reserves = {_listed(targets)}\n"
            f"oracle_price = {draw(_logs(-60.0, 60.0))!r}\n"
        )
        reserves = reserves[:2]
    elif curve == "exponential":
        archetype, n = "price-discovering-supply-sovereign", 2
        keys = f"kappa = {draw(_logs(-3.0, 3.0))!r}\nc = {draw(_logs(-30.0, 30.0))!r}\n"
        reserves = [reserves[0], 0.0]
    fee = draw(st.sampled_from((0.0, 0.003, 0.3, 0.9)))
    return (
        f"archetype = {archetype}\ncurve = {curve}\n"
        f"tokens = {', '.join(f'T{i}' for i in range(n))}\n"
        f"reserves = {_listed(reserves)}\nfee = {fee!r}\n{keys}"
    )


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


# (spec, seed, amount) that once escaped `main` with ZeroDivisionError
FUZZ_FOUND = [
    # the probe's scale and deficiency reference of an unfunded pool are 0
    (lp_spec("constant-sum", "T0, T1", "0.0, 0.0", ""), 0, 1.0),
    ("archetype = price-adopting-lp-based\ncurve = price-adoption\ntokens = T0, T1\n"
     "reserves = 0.0, 0.0\nfee = 0.9\nk = 0.38094576384788803\n"
     "target_reserves = 1.0, 5e-324\noracle_price = 4.834308339132578e+21\n", 66, 1.0),
    # the geometric-mean spot's denominator underflows to 0
    (lp_spec("geometric-mean", "T0, T1", "5e-324, 1.0",
             "weights = 0.7394849928659522, 0.26051500713404785\n"), 70, 1.0),
    # the product of the arbitrage target's level underflows to 0
    (lp_spec("constant-product-sum", "T0, T1", "1e-300, 1e-300", "fee = 0.003\nchi = 0.0\n"),
     0, 1e-300),
    # the arbitrageur's reference net of the fee underflows to 0
    (lp_spec("constant-power-sum", "T0, T1", "2.972062911366752e+20, 1e-300",
             "fee = 0.9\nt = 1e-06\n"), 0, 5e-324),
]


def _examples(test):
    for case in reversed(UNMEASURABLE):
        curve, tokens, reserves, keys, argv = case.values
        seed = int(argv[-1]) if argv[0] == "classify" else 0
        test = example(spec=lp_spec(curve, tokens, reserves, keys), seed=seed, amount=1.0)(test)
    for spec, seed, amount in reversed(FUZZ_FOUND):
        test = example(spec=spec, seed=seed, amount=amount)(test)
    return test


@_examples
@settings(max_examples=200, deadline=None, derandomize=True)
@given(spec=pool_specs(), seed=st.integers(0, 99), amount=_SIZES)
def test_no_command_prints_a_traceback(spec, seed, amount):
    """Every command on a generated spec exits 0 or, refused, 2 with an
    error line and no output.  The command lines are well formed, so exit
    1, kept for a bad command line, fails too, as does a non-`AmmError`
    escaping `main`."""
    with tempfile.TemporaryDirectory() as scratch:
        pool, scenario, prices = (Path(scratch) / name for name in ("fuzz.pool", "s.txt", "p.csv"))
        pool.write_text(spec)
        scenario.write_text(
            f"pool {pool}\naccount arb T0 {2.0 * amount!r}\naccount arb T1 {2.0 * amount!r}\n"
            f"1 trade arb T0 T1 {amount!r}\n2 arb arb\n3 trade arb T1 T0 {0.5 * amount!r}\n"
        )
        prices.write_text(f"step,price\n0,{amount!r}\n")
        for argv in (
            ["quote", "--pool", str(pool), "--in", "T0", "--out", "T1", "--amount", repr(amount)],
            ["classify", "--pool", str(pool), "--seed", str(seed), "--trials", "100"],
            ["curve-table", "--pool", str(pool), "--samples", "9"],
            ["simulate", "--scenario", str(scenario), "--prices", str(prices)],
        ):
            code, out, err = _run(argv)
            assert code in (0, 2), (argv[0], spec, code, err)
            if code == 2:
                assert out == "", (argv[0], spec)
                assert err.startswith("error: ") and "Traceback" not in err, (argv[0], spec, err)


# specs that `materialize_pool` refuses and `classify` once classified, with
# the refusal every command now gives
ADMISSION_GAPS = [
    pytest.param(lp_spec("lmsr", "C, O0, O1", "0, 0, 0", "b = 10\n"),
                 "collateral subsidy 0.0 is below the worst-case resolution liability "
                 "b*ln(2) = 6.931471805599453", id="lmsr-underfunded"),
    pytest.param(lp_spec("lmsr", "C, O0, O1", "100, 1, 0", "b = 10\n"),
                 "LMSR pools start with zero outstanding shares", id="lmsr-outstanding-shares"),
    pytest.param("archetype = price-discovering-supply-sovereign\ncurve = exponential\n"
                 "tokens = R, S\nreserves = 100, 5\nkappa = 2\nc = 1\n",
                 "supply-sovereign reserves are (bonded_reserve, 0)", id="bonding-second-reserve"),
]


@pytest.mark.parametrize("spec, message", ADMISSION_GAPS)
@pytest.mark.parametrize("command", [
    ["classify", "--seed", "0"], ["quote", "--in", "R", "--out", "S", "--amount", "1"],
], ids=["classify", "quote"])
def test_classify_and_quote_refuse_alike(tmp_path, capsys, spec, message, command):
    """The probe opens its pool through `materialize_pool`, as `quote` does,
    so both refuse these specs with the same error line and exit 2."""
    path = tmp_path / "gap.pool"
    path.write_text(spec)
    code = main(command[:1] + ["--pool", str(path)] + command[1:])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _gap_examples(test):
    for case in reversed(ADMISSION_GAPS):
        test = example(spec=case.values[0])(test)
    return test


@_gap_examples
@settings(max_examples=300, deadline=None, derandomize=True)
@given(spec=pool_specs())
def test_classify_refuses_what_materialize_pool_refuses(spec):
    """Wherever `materialize_pool` refuses a generated spec, `classify`
    raises the same exception type with the same message."""
    try:
        config = parse_pool_spec(spec)
    except AmmError:  # no config for either to open
        return
    try:
        materialize_pool(config)
    except AmmError as error:
        refused = error
    else:
        return
    with pytest.raises(AmmError) as raised:
        classify(config, trials=MIN_TRIALS)
    assert type(raised.value) is type(refused)
    assert str(raised.value) == str(refused)
