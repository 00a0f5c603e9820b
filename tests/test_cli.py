"""Tests for the command-line interface.

Exit codes: 0 success, 1 usage error, 2 engine/probe error.  Diagnostics go
to stderr; data goes to stdout or the --out file.
"""

import pytest

from ammlab.cli import main
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
