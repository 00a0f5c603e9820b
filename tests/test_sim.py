"""Tests for the scenario simulator and the arbitrageur agent.

Closed forms used as oracles: a zero-fee constant-product arb lands reserves
on (sqrt(k/p), sqrt(k*p)); the price-doubling divergence loss is
2*sqrt(2)/3 - 1; the no-trade fee band is verified by brute-force grids.
"""

import math
import random
from dataclasses import FrozenInstanceError, fields, replace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ammlab import (
    DomainError,
    TradeOrder,
    UnsupportedOperation,
    balance_of,
    execute_swap,
    load_pool,
    quote,
)
from ammlab import curves, engine, sim
from ammlab.core import AmmError
from ammlab.engine import (
    EXACT_IN,
    EXACT_OUT,
    PricingFamily,
    Quote,
    materialize_pool,
    parse_pool_spec,
    set_oracle_price,
)
from ammlab.core import ledger_mint, new_ledger
from ammlab.sim import (
    ARB_FLOOR,
    Metrics,
    PriceSeries,
    Scenario,
    ScenarioError,
    arbitrage_step,
    load_price_series,
    load_scenario,
    metrics_to_csv,
    parse_price_series,
    parse_scenario,
    run_scenario,
)

CP_ZERO_FEE = """
archetype = price-discovering-lp-based
curve = constant-product
tokens = T0, T1
reserves = 100, 100
fee = 0
"""

CP_FEE = """
archetype = price-discovering-lp-based
curve = constant-product
tokens = T0, T1
reserves = 100, 100
fee = 0.003
"""


def cp_pool(tmp_path, text=CP_ZERO_FEE, name="cp.pool"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def fund(ledgers, token, account, amount):
    ledgers[token] = ledger_mint(ledgers[token], account, amount)
    return ledgers


# ---------------------------------------------------------------------------
# price series parsing
# ---------------------------------------------------------------------------


class TestPriceSeries:
    def test_two_entry_file(self):
        series = parse_price_series("step,price\n0,100.0\n1,101.5\n")
        assert series.entries == ((0, 100.0), (1, 101.5))

    def test_header_only_is_a_valid_empty_series(self):
        assert parse_price_series("step,price\n").entries == ()

    def test_reference_is_carried_forward_between_steps(self):
        series = parse_price_series("step,price\n2,10.0\n5,20.0\n")
        assert series.at(1) is None
        assert series.at(2) == 10.0
        assert series.at(4) == 10.0
        assert series.at(5) == 20.0
        assert series.at(99) == 20.0

    def test_non_monotonic_steps_rejected_with_line_number(self):
        with pytest.raises(DomainError, match="line 3"):
            parse_price_series("step,price\n3,1.0\n3,2.0\n")

    def test_malformed_line_rejected_with_line_number(self):
        with pytest.raises(DomainError, match="line 2"):
            parse_price_series("step,price\nnot-a-row\n")

    def test_non_positive_price_rejected(self):
        with pytest.raises(DomainError, match="line 2"):
            parse_price_series("step,price\n0,0.0\n")

    def test_missing_header_rejected(self):
        with pytest.raises(DomainError, match="line 1"):
            parse_price_series("0,1.0\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "prices.csv"
        path.write_text("step,price\n0,1.0\n7,1.5\n")
        assert load_price_series(str(path)).entries == ((0, 1.0), (7, 1.5))


# ---------------------------------------------------------------------------
# scenario parsing
# ---------------------------------------------------------------------------


SCENARIO_TEXT = """
# exercise a built-in pool
pool uniswap-v2-like
account alice TOKEN0 1000
account alice TOKEN1 1000
account bob TOKEN1 5000
seed 42

1 trade alice TOKEN0 TOKEN1 10
2 arb bob

3 deposit alice 5 5
4 withdraw alice 2
"""


class TestParseScenario:
    def test_full_scenario_parses(self):
        scenario = parse_scenario(SCENARIO_TEXT)
        assert scenario.pool_source == "uniswap-v2-like"
        assert ("alice", "TOKEN0", 1000.0) in scenario.endowments
        assert ("bob", "TOKEN1", 5000.0) in scenario.endowments
        assert [e.verb for e in scenario.events] == [
            "trade",
            "arb",
            "deposit",
            "withdraw",
        ]
        assert [e.step for e in scenario.events] == [1, 2, 3, 4]

    def test_seed_directive_is_checked_then_ignored(self):
        bare = "pool uniswap-v2-like\n1 arb creator\n"
        assert parse_scenario(bare + "seed 42\n") == parse_scenario(bare)
        for bad in ("seed 1\nseed 1\n", "seed 1.5\n", "seed\n"):
            with pytest.raises(DomainError, match="seed"):
                parse_scenario(bare + bad)

    def test_missing_pool_rejected(self):
        with pytest.raises(DomainError, match="pool"):
            parse_scenario("account alice TOKEN0 5\n")

    def test_unknown_verb_rejected_with_line_number(self):
        with pytest.raises(DomainError, match="line 2"):
            parse_scenario("pool uniswap-v2-like\n1 stake alice 5\n")

    def test_steps_must_strictly_increase(self):
        text = "pool uniswap-v2-like\naccount a TOKEN0 1\n1 arb a\n1 arb a\n"
        with pytest.raises(DomainError, match="line 4"):
            parse_scenario(text)

    def test_undeclared_account_rejected(self):
        with pytest.raises(DomainError, match="mallory"):
            parse_scenario("pool uniswap-v2-like\n1 arb mallory\n")

    def test_bad_amount_rejected(self):
        text = "pool uniswap-v2-like\naccount a TOKEN0 1\n1 trade a TOKEN0 TOKEN1 ten\n"
        with pytest.raises(DomainError, match="line 3"):
            parse_scenario(text)

    def test_wrong_argument_count_rejected(self):
        text = "pool uniswap-v2-like\naccount a TOKEN0 1\n1 trade a TOKEN0\n"
        with pytest.raises(DomainError, match="line 3"):
            parse_scenario(text)

    @pytest.mark.parametrize("events, message", [
        ("1 stake creator 5", "scenario line 2: unknown verb 'stake'"),
        ("1 trade creator TOKEN0", "scenario line 2: wrong argument count for 'trade'"),
        ("1 deposit creator", "scenario line 2: wrong argument count for 'deposit'"),
        ("1 withdraw creator 1 2", "scenario line 2: wrong argument count for 'withdraw'"),
        ("1 trade creator TOKEN0 TOKEN1 ten", "scenario line 2: bad amount 'ten'"),
        ("1 deposit creator 1 nan", "scenario line 2: bad amount 'nan'"),
        ("1 withdraw creator x", "scenario line 2: bad share amount 'x'"),
        ("1 oracle abc", "scenario line 2: bad price 'abc'"),
        ("1 oracle 0", "scenario line 2: price must be > 0"),
        ("1 arb mallory", "scenario line 2: undeclared account 'mallory'"),
        ("1 arb creator\n1 arb creator", "scenario line 3: steps must strictly increase"),
        # a line's head is the text before its first space, so a tab joins
        ("1\tarb creator", "scenario line 2: expected a directive or a step number, got '1\\tarb'"),
        ("account\ta TOKEN0 1", "scenario line 2: expected a directive or a step number, "
                                "got 'account\\ta'"),
        # int() takes the whitespace after a number; a step head does not
        ("1\t arb creator", "scenario line 2: expected a directive or a step number, got '1\\t'"),
        ("1\u3000 arb creator", "scenario line 2: expected a directive or a step number, "
                                 "got '1\\u3000'"),
        ("account a TOKEN0 -inf", "scenario line 2: bad amount '-inf'"),
        ("account a TOKEN0 nan", "scenario line 2: bad amount 'nan'"),
        ("account a TOKEN0 -1", "scenario line 2: negative endowment"),
        ("seed 1 2", "scenario line 2: bad seed '1 2'"),
        ("2 arb cre#ator", "scenario line 2: undeclared account 'cre'"),
    ])
    def test_each_parse_error_names_its_line_and_cause(self, events, message):
        with pytest.raises(DomainError) as info:
            parse_scenario(f"pool uniswap-v2-like\n{events}\n")
        assert str(info.value) == message

    def test_each_verb_lists_the_positions_of_its_account_kinds(self):
        for kinds, accounts, _ in sim._VERBS.values():
            assert accounts == tuple(k for k, kind in enumerate(kinds) if kind == "account")

    def test_comments_and_a_negative_zero_endowment_are_accepted(self):
        scenario = parse_scenario(
            "pool uniswap-v2-like\n# a comment line\naccount a TOKEN0 -0.0\n"
            "1 arb a  # a trailing comment\n"
        )
        assert scenario.endowments == (("a", "TOKEN0", -0.0),)
        assert [(e.step, e.verb, e.args, e.line) for e in scenario.events] == [
            (1, "arb", ("a",), 4)
        ]

    def test_events_are_the_constructors_frozen_values(self):
        event = parse_scenario("pool uniswap-v2-like\n1 trade creator TOKEN0 TOKEN1 5\n").events[0]
        constructed = sim.ScenarioEvent(1, "trade", ("creator", "TOKEN0", "TOKEN1", "5"), 2)
        assert event == constructed and repr(event) == repr(constructed)
        with pytest.raises(FrozenInstanceError):
            event.step = 2

    def test_creator_account_is_implicitly_declared(self):
        scenario = parse_scenario("pool uniswap-v2-like\n1 arb creator\n")
        assert scenario.events[0].args == ("creator",)

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "scenario.txt"
        path.write_text("pool uniswap-v2-like\naccount a TOKEN1 9\n1 arb a\n")
        assert load_scenario(str(path)).pool_source == "uniswap-v2-like"


# ---------------------------------------------------------------------------
# arbitrageur
# ---------------------------------------------------------------------------


class TestArbitrage:
    def make_cp(self, tmp_path, text=CP_ZERO_FEE):
        pool, ledgers = load_pool(cp_pool(tmp_path, text))
        fund(ledgers, "T0", "arb", 1e9)
        fund(ledgers, "T1", "arb", 1e9)
        return pool, ledgers

    def test_zero_fee_arb_hits_closed_form(self, tmp_path):
        pool, ledgers = self.make_cp(tmp_path)
        pool2, ledgers2, receipt = arbitrage_step(pool, 4.0, "arb", ledgers)
        assert receipt is not None
        assert math.isclose(pool2.reserves[0], 50.0, rel_tol=1e-6)
        assert math.isclose(pool2.reserves[1], 200.0, rel_tol=1e-6)
        spot = pool2.reserves[1] / pool2.reserves[0]
        assert abs(spot - 4.0) / 4.0 <= 1e-6

    def test_arb_profit_is_positive_at_reference_marks(self, tmp_path):
        pool, ledgers = self.make_cp(tmp_path)
        _, _, receipt = arbitrage_step(pool, 4.0, "arb", ledgers)
        deltas = receipt.trader_deltas
        profit = deltas.get("T0", 0.0) * 4.0 + deltas.get("T1", 0.0)
        # closed form: buys 50 T0 for 100 T1, worth 100 at the reference
        assert math.isclose(profit, 100.0, rel_tol=1e-6)

    def test_no_trade_when_spot_equals_reference(self, tmp_path):
        pool, ledgers = self.make_cp(tmp_path)
        pool2, ledgers2, receipt = arbitrage_step(pool, 1.0, "arb", ledgers)
        assert receipt is None
        assert pool2.reserves == pool.reserves

    def test_two_token_product_sum_step_runs_no_newton(self, monkeypatch):
        """A two-token product-sum pool reads D in closed form: with the
        Newton solve allowed no iteration, a step that declines and one
        that trades both run."""
        monkeypatch.setattr(curves, "NEWTON_MAX_ITER", 0)
        monkeypatch.setattr(curves, "BISECT_MAX_ITER", 0)
        pool, ledgers = load_pool("curve-v1-like")
        fund(ledgers, "STABLE0", "arb", 1e9)
        fund(ledgers, "STABLE1", "arb", 1e9)
        _, _, receipt = arbitrage_step(pool, 1.001, "arb", ledgers)
        assert receipt is None
        _, _, receipt = arbitrage_step(pool, 1.05, "arb", ledgers)
        assert receipt is not None

    def test_no_trade_inside_the_fee_band(self, tmp_path):
        pool, ledgers = self.make_cp(tmp_path, CP_FEE)
        _, _, receipt = arbitrage_step(pool, 1.002, "arb", ledgers)
        assert receipt is None

    def test_fee_band_verified_by_brute_force_grid(self, tmp_path):
        pool, _ = self.make_cp(tmp_path, CP_FEE)
        reference = 1.002
        for n in range(1, 400):
            x = 50.0 * n / 400.0
            buy = quote(
                pool, TradeOrder("arb", "T1", "T0", x, EXACT_OUT)
            )
            assert x * reference - buy.amount_in <= 0.0
            sell = quote(pool, TradeOrder("arb", "T0", "T1", x, EXACT_IN))
            assert sell.amount_out - x * reference <= 0.0

    def test_fee_arb_executes_outside_the_band(self, tmp_path):
        pool, ledgers = self.make_cp(tmp_path, CP_FEE)
        pool2, _, receipt = arbitrage_step(pool, 1.5, "arb", ledgers)
        assert receipt is not None
        spot = pool2.reserves[1] / pool2.reserves[0]
        assert abs(spot - 1.5) / max(spot, 1.5) <= 0.003 + 1e-6

    def test_sell_direction_also_converges(self, tmp_path):
        pool, ledgers = self.make_cp(tmp_path)
        pool2, _, receipt = arbitrage_step(pool, 0.25, "arb", ledgers)
        assert receipt is not None
        assert math.isclose(pool2.reserves[0], 200.0, rel_tol=1e-6)
        assert math.isclose(pool2.reserves[1], 50.0, rel_tol=1e-6)

    def test_supply_sovereign_arb(self):
        pool, ledgers = load_pool("bancor-like")
        fund(ledgers, "RESERVE", "arb", 1e9)
        # marginal price starts at 2*S/c = 20; push it to the reference 30
        pool2, _, receipt = arbitrage_step(pool, 30.0, "arb", ledgers)
        assert receipt is not None
        assert math.isclose(pool2.circulating_supply, 15.0, rel_tol=1e-6)
        assert math.isclose(pool2.reserves[0], 225.0, rel_tol=1e-6)

    def test_an_underfunded_buy_spends_what_the_arbitrageur_holds(self):
        """The best buy at 4.0 costs about 100 TOKEN1; holding 1 of each
        token, the arbitrageur buys with all of its TOKEN1 instead."""
        pool, ledgers = load_pool("uniswap-v2-like")
        fund(ledgers, "TOKEN0", "arb", 1.0)
        fund(ledgers, "TOKEN1", "arb", 1.0)
        _, ledgers2, receipt = arbitrage_step(pool, 4.0, "arb", ledgers)
        assert receipt is not None
        assert receipt.quote.amount_in == 1.0
        assert balance_of(ledgers2["TOKEN1"], "arb") == 0.0
        deltas = receipt.trader_deltas
        assert deltas["TOKEN0"] * 4.0 + deltas["TOKEN1"] > 0.0

    def test_a_sale_is_capped_by_the_issued_tokens_held(self):
        pool, ledgers = load_pool("bancor-like")
        fund(ledgers, "RESERVE", "arb", 1e9)
        pool2, _, receipt = arbitrage_step(pool, 1.0, "arb", ledgers)
        assert receipt is None
        assert pool2 is pool
        fund(ledgers, "ISSUED", "arb", 2.0)
        _, ledgers2, receipt = arbitrage_step(pool, 1.0, "arb", ledgers)
        assert receipt.quote.amount_in == 2.0
        assert balance_of(ledgers2["ISSUED"], "arb") == 0.0

    def test_arb_fills_an_empty_bonding_curve(self, tmp_path):
        """At zero supply the curve has no marginal price; the step still
        bonds up to where 2*S/c meets the reference: S = 10, reserve 100."""
        path = tmp_path / "empty.pool"
        path.write_text(
            "archetype = price-discovering-supply-sovereign\n"
            "curve = exponential\n"
            "tokens = RESERVE, ISSUED\n"
            "reserves = 0, 0\n"
            "fee = 0\n"
            "kappa = 2\n"
            "c = 1\n"
        )
        pool, ledgers = load_pool(str(path))
        fund(ledgers, "RESERVE", "arb", 1e9)
        pool2, _, receipt = arbitrage_step(pool, 20.0, "arb", ledgers)
        assert receipt is not None
        assert math.isclose(pool2.circulating_supply, 10.0, rel_tol=1e-9)
        assert math.isclose(pool2.reserves[0], 100.0, rel_tol=1e-9)

    def test_lmsr_pool_rejected(self):
        pool, ledgers = load_pool("augur-like")
        with pytest.raises(UnsupportedOperation):
            arbitrage_step(pool, 0.5, "arb", ledgers)

    def test_search_ends_on_a_drained_stable_pool(self):
        """The first arb steps of the seed-8 criterion-08 walk drain
        mstable-2021-like's risky reserve to about 1e-7 of itself, where a
        search by tolerance once never ended.  The flat marginal takes each
        step to its cap: the three steps end, and leave both reserves
        positive."""
        pool, ledgers = load_pool("mstable-2021-like")
        for token in pool.tokens:
            fund(ledgers, token, "arb", 1e12)
        rng, level = random.Random(8), 1.0
        for _ in range(3):
            level *= math.exp(rng.uniform(-0.08, 0.08))
            pool, ledgers, _ = arbitrage_step(pool, level, "arb", ledgers)
            assert min(pool.reserves) > 0.0
        assert min(pool.reserves) < 1e-6

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(
        r0=st.floats(min_value=10.0, max_value=1e6),
        r1=st.floats(min_value=10.0, max_value=1e6),
        ratio=st.floats(min_value=0.2, max_value=5.0),
        fee=st.sampled_from([0.0, 0.003]),
    )
    def test_arb_always_lands_inside_the_fee_band(self, r0, r1, ratio, fee):
        text = (
            "archetype = price-discovering-lp-based\n"
            "curve = constant-product\n"
            "tokens = T0, T1\n"
            f"reserves = {r0!r}, {r1!r}\n"
            f"fee = {fee!r}\n"
        )
        pool, ledgers = materialize_pool(parse_pool_spec(text))
        fund(ledgers, "T0", "arb", 1e18)
        fund(ledgers, "T1", "arb", 1e18)
        reference = (r1 / r0) * ratio
        pool2, _, receipt = arbitrage_step(pool, reference, "arb", ledgers)
        spot = pool2.reserves[1] / pool2.reserves[0]
        deviation = abs(spot - reference) / max(spot, reference)
        assert deviation <= fee + 1e-6
        if receipt is not None:
            deltas = receipt.trader_deltas
            profit = deltas.get("T0", 0.0) * reference + deltas.get("T1", 0.0)
            assert profit > -1e-9 * max(r0 * reference, r1)


# ---------------------------------------------------------------------------
# the first-order arbitrage step against a golden-section search
# ---------------------------------------------------------------------------

TWO_TOKEN_BUILTINS = (
    "uniswap-v2-like",
    "curve-v1-like",
    "mstable-2021-like",
    "dodo-like",
    "bancor-like",
)


def spec_pool(curve, tokens, reserves, fee, **keys):
    """The text of a pool specification on `curve`."""
    archetype = {
        "exponential": "price-discovering-supply-sovereign",
        "price-adoption": "price-adopting-lp-based",
    }.get(curve, "price-discovering-lp-based")
    lines = [
        f"archetype = {archetype}", f"curve = {curve}",
        f"tokens = {tokens}", f"reserves = {reserves}", f"fee = {fee}",
    ]
    return "\n".join(lines + [f"{key} = {value}" for key, value in keys.items()]) + "\n"


# two-token pools on the curves and parameters no built-in uses
SPEC_POOLS = {
    "geometric-mean-20-80": spec_pool("geometric-mean", "T0, T1", "100, 400", 0.003, weights="0.2, 0.8"),
    "power-sum-0.5": spec_pool("constant-power-sum", "T0, T1", "100, 100", 0.003, t=0.5),
    "exponential-0.5": spec_pool("exponential", "RESERVE, ISSUED", "100, 0", 0.003, kappa=0.5, c=1),
    "exponential-1": spec_pool("exponential", "RESERVE, ISSUED", "100, 0", 0.003, kappa=1, c=1),
}
ARB_POOLS = TWO_TOKEN_BUILTINS + tuple(SPEC_POOLS)


def open_pool(name):
    """A built-in pool or one of SPEC_POOLS, and its ledgers."""
    if name in SPEC_POOLS:
        return materialize_pool(parse_pool_spec(SPEC_POOLS[name]))
    return load_pool(name)


# The search the arbitrageur ran before it solved the first-order condition:
# a doubling-expanded bracket refined by golden section.  It needs no
# derivative and no convexity beyond unimodality, which makes it the oracle.
_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_SEARCH_TOL = 1e-9
_MAX_EXPANSIONS = 200


def _golden_max(profit, lo, hi, tol):
    """Maximize a unimodal function on [lo, hi]; returns (argmax, max).

    The tolerance is floored at a few ulps of `hi`: a bracket that narrow
    cannot shrink further in floating point, and a smaller tolerance would
    never be met.
    """
    tol = max(tol, 4.0 * math.ulp(hi))
    a, b = lo, hi
    c = b - _INVPHI * (b - a)
    d = a + _INVPHI * (b - a)
    fc, fd = profit(c), profit(d)
    while b - a > tol:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = profit(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = profit(d)
    x = (a + b) / 2.0
    return x, profit(x)


def _best_size(profit, cap, tol, start):
    """Expand a bracket by doubling, then refine with golden section."""
    if not cap > 0.0:
        return 0.0, -math.inf
    hi = min(cap, max(tol, start))
    best = profit(hi)
    for _ in range(_MAX_EXPANSIONS):
        if hi >= cap:
            break
        grown = min(cap, hi * 2.0)
        value = profit(grown)
        if value < best and value != -math.inf:
            hi = grown  # keep one step past the peak inside the bracket
            break
        if value == -math.inf:
            break
        hi, best = grown, value
    return _golden_max(profit, 0.0, hi, tol)


def arb_scale(pool):
    """The size scale the arbitrageur measures its trades against."""
    family = PricingFamily.of(pool.curve, pool.oracle_price)
    held = family.view(pool)[family.risky]
    return max(held, 1.0) if family.risky >= family.issued_from else held


def arb_caps(pool):
    """The arbitrageur's (buy, sell) limits on the risky amount it trades:
    all but `ARB_FLOOR` of the risky reserve a buy pays out, or the burn
    that leaves that fraction of the issued supply and of the reserve, which
    falls as the supply to the power kappa.  A buy of an issued leg is
    bounded only by what the arbitrageur holds, and a sale into a held pool
    by the numeraire it pays out, not by a risky amount."""
    family = PricingFamily.of(pool.curve, pool.oracle_price)
    held = family.view(pool)[family.risky]
    if family.risky >= family.issued_from:
        return math.inf, held * (1.0 - ARB_FLOOR ** (1.0 / max(1.0, pool.curve.kappa)))
    return held * (1.0 - ARB_FLOOR), math.inf


def quote_priced_arbitrage(pool, reference_price, arb_account, ledgers):
    """The golden-section arbitrage search with every candidate size priced
    by a full `quote`, within the caps and what the arbitrageur holds of the
    token it pays: the reference the first-order step is held to."""
    family = PricingFamily.of(pool.curve, pool.oracle_price)
    risky = family.risky
    risky_token = pool.tokens[risky]
    numeraire_token = pool.tokens[1 - risky]
    buy_cap, sell_cap = arb_caps(pool)
    budget = balance_of(ledgers[numeraire_token], arb_account)
    if not budget > 0.0:
        buy_cap = 0.0
    tol = _SEARCH_TOL * arb_scale(pool)

    def buy_profit(amount):
        if not amount > 0.0:
            return 0.0
        order = TradeOrder(arb_account, numeraire_token, risky_token, amount, EXACT_OUT)
        try:
            return amount * reference_price - quote(pool, order).amount_in
        except AmmError:
            return -math.inf

    def sell_profit(amount):
        if not amount > 0.0:
            return 0.0
        order = TradeOrder(arb_account, risky_token, numeraire_token, amount, EXACT_IN)
        try:
            return quote(pool, order).amount_out - amount * reference_price
        except AmmError:
            return -math.inf

    start = 1e-6 * arb_scale(pool)
    buy_size, buy_value = _best_size(buy_profit, buy_cap, tol, start)
    sell_size, sell_value = _best_size(sell_profit, sell_cap, tol, start)
    if max(buy_value, sell_value) <= 0.0:
        return pool, ledgers, None
    if buy_value >= sell_value:
        order = TradeOrder(arb_account, numeraire_token, risky_token, buy_size, EXACT_OUT)
        if quote(pool, order).amount_in > budget:
            # the profit grows up to the best buy, so the best one the
            # arbitrageur can pay for spends all it holds
            order = TradeOrder(arb_account, numeraire_token, risky_token, budget, EXACT_IN)
    else:
        order = TradeOrder(arb_account, risky_token, numeraire_token, sell_size, EXACT_IN)
    pool, receipt, ledgers = execute_swap(pool, order, ledgers)
    return pool, ledgers, receipt


def profit_bound(pool, reference):
    """How far the first-order step's profit may fall short of the oracle's:
    1e-9 of the arbitrage scale, but no less than the float resolution the
    profit is computed at, a few ulps of the largest reserve at the
    reference.  A drained leg makes the scale far smaller than that."""
    state = PricingFamily.of(pool.curve, pool.oracle_price).view(pool)
    return max(1e-9 * arb_scale(pool), 4.0 * math.ulp(max(state)) * max(1.0, reference))


def marked_profit(pool, receipt, reference):
    """What a receipt's trader deltas are worth at reference marks."""
    if receipt is None:
        return 0.0
    risky = PricingFamily.of(pool.curve, pool.oracle_price).risky
    deltas = receipt.trader_deltas
    return (deltas.get(pool.tokens[risky], 0.0) * reference
            + deltas.get(pool.tokens[1 - risky], 0.0))


def fee_band(pool, reference):
    """(buy, sell) fee-adjusted marginals of the risky leg over the
    reference: the step is done when buy >= 1 >= sell."""
    family = PricingFamily.of(pool.curve, pool.oracle_price)
    state, risky, keep = family.view(pool), family.risky, 1.0 - pool.fee.trade_fee
    cost = 1.0 / family.spot_between(state, 1 - risky, risky)
    proceeds = family.spot_between(state, risky, 1 - risky)
    return cost / keep / reference, proceeds * keep / reference


ARB_MOVES = st.lists(
    st.tuples(st.floats(-3.0, 3.0), st.floats(-1.0, 1.0)), min_size=1, max_size=4
)


def arb_walk(name, moves):
    """Each reference level of a walk from the pool's opening spot, with the
    pool and ledgers it finds (a dodo oracle moves first); the arbitrageur
    holds 1e18 of both tokens."""
    pool, ledgers = open_pool(name)
    family = PricingFamily.of(pool.curve, pool.oracle_price)
    for token in pool.tokens:
        fund(ledgers, token, "arb", 1e18)
    level = family.spot(family.view(pool))
    for log_move, oracle_move in moves:
        if pool.oracle_price is not None:
            pool = set_oracle_price(pool, pool.oracle_price * math.exp(oracle_move))
        level *= math.exp(log_move)
        pool, ledgers = yield pool, ledgers, level


class TestSearchPricing:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(name=st.sampled_from(ARB_POOLS), moves=ARB_MOVES)
    def test_receipts_match_the_quote_priced_search(self, name, moves):
        """The first-order step's marked profit is at least the golden-section
        oracle's less 1e-9 of the pool's scale, and it trades wherever the
        oracle earns more than that."""
        walk = arb_walk(name, moves)
        pool, ledgers, level = next(walk)
        while True:
            bound = profit_bound(pool, level)
            _, _, expected = quote_priced_arbitrage(pool, level, "arb", ledgers)
            after, ledgers, receipt = arbitrage_step(pool, level, "arb", ledgers)
            oracle = marked_profit(pool, expected, level)
            assert marked_profit(pool, receipt, level) >= oracle - bound
            if oracle > bound:
                assert receipt is not None
            try:
                pool, ledgers, level = walk.send((after, ledgers))
            except StopIteration:
                break

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(name=st.sampled_from(ARB_POOLS), moves=ARB_MOVES)
    # 1e-9 outside the band: a cost that is a difference of two powers
    # rounded the step's profit away, and it declined
    @example(name="bancor-like", moves=[(3.0, 0.0), (1e-9, 0.0)])
    def test_every_two_token_builtin_ends_in_its_fee_band(self, name, moves):
        """After a trade the fee-adjusted marginal is inside the no-trade band,
        unless the trade stopped at a limit: the reserve it was paid from
        nearly drained, the size cap, or all the arbitrageur held of the
        token it pays (reached only where the marginal never meets the
        reference: exponential at kappa 0.5); after a decline it was already
        inside the band."""
        opening = open_pool(name)[0]
        walk = arb_walk(name, moves)
        pool, ledgers, level = next(walk)
        while True:
            buy, sell = fee_band(pool, level)
            after, ledgers, receipt = arbitrage_step(pool, level, "arb", ledgers)
            family = PricingFamily.of(after.curve, after.oracle_price)
            buying = buy < 1.0
            paying = family.risky if buying else 1 - family.risky
            limited = family.view(after)[paying] <= 1e-6 * family.view(opening)[paying]
            spent = pool.tokens[1 - family.risky if buying else family.risky]
            limited |= balance_of(ledgers[spent], "arb") == 0.0
            if receipt is not None:
                q = receipt.quote
                size = q.amount_out if buying else q.amount_in
                limited |= size >= arb_caps(pool)[not buying] * (1.0 - 1e-12)
                buy, sell = fee_band(after, level)
            assert (buy >= 1.0 - 1e-9 and sell <= 1.0 + 1e-9) or limited
            try:
                pool, ledgers, level = walk.send((after, ledgers))
            except StopIteration:
                break

    def test_a_drained_pool_is_sold_back_into_its_band(self):
        """Two buys at e times par leave curve-v1-like about 1e-16 of its
        risky reserve.  A sale capped at 1e15 times that reserve (0.1 units)
        left the pool about 10% outside its band back at par; the cap is
        1e15 times the largest reserve."""
        walk = arb_walk("curve-v1-like", [(1.0, 0.0), (0.0, 0.0), (-1.0, 0.0)])
        pool, ledgers, level = next(walk)
        while True:
            pool, ledgers, _ = arbitrage_step(pool, level, "arb", ledgers)
            try:
                pool, ledgers, level = walk.send((pool, ledgers))
            except StopIteration:
                break
        buy, sell = fee_band(pool, level)
        assert buy >= 1.0 - 1e-9 and sell <= 1.0 + 1e-9

    def test_the_search_does_not_quote(self, monkeypatch):
        """Neither the search nor the settlement quotes: a step that trades
        settles the trade step it priced, and calls neither `quote` nor
        `execute_swap`."""
        calls = []

        def counted(name, real):
            def call(*args):
                calls.append(name)
                return real(*args)
            return call

        for module in (engine, sim):
            for name in ("quote", "execute_swap"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
        pool, ledgers = load_pool("uniswap-v2-like")
        fund(ledgers, "TOKEN0", "arb", 1e9)
        fund(ledgers, "TOKEN1", "arb", 1e9)
        traded = []
        for reference in (4.0, 4.0, 0.5, 0.5):  # a repeat finds the pool in its band
            pool, ledgers, receipt = arbitrage_step(pool, reference, "arb", ledgers)
            traded.append(receipt is not None)
            assert calls == []
        assert traded == [True, False, True, False]


# ---------------------------------------------------------------------------
# closed-form arbitrage sizes against the size solve
# ---------------------------------------------------------------------------


def settled_step(pool, reference, ledgers):
    """What `arbitrage_step` returns at `reference`, and the order it
    settled, or None; a step returns a receipt exactly when it settles."""
    placed = []
    settle = sim._settle_trade

    def recorded(pool, order, *rest):
        placed.append(order)
        return settle(pool, order, *rest)

    with mock.patch.object(sim, "_settle_trade", recorded):
        step = arbitrage_step(pool, reference, "arb", ledgers)
    assert len(placed) == (step[2] is not None)
    return step, placed[0] if placed else None


def placed_order(pool, reference, ledgers):
    """The order `arbitrage_step` settles at `reference`, or None."""
    return settled_step(pool, reference, ledgers)[1]


class TestClosedFormSize:
    @pytest.mark.parametrize(
        "name,reference",
        [
            ("uniswap-v2-like", 1.5),
            ("uniswap-v2-like", 0.6),
            ("curve-v1-like", 1.05),
            ("curve-v1-like", 0.95),
            ("bancor-like", 30.0),
            ("bancor-like", 15.0),
            ("geometric-mean-20-80", 1.5),
            ("geometric-mean-20-80", 0.6),
            ("power-sum-0.5", 1.5),
            ("power-sum-0.5", 0.6),
            ("dodo-like", 12.0),
            ("dodo-like", 8.0),
            # a flat marginal takes all but the floor of the risky reserve,
            # and a sale past the depletion edge prices that edge, once
            ("mstable-2021-like", 1.05),
            ("mstable-2021-like", 0.95),
            ("curve-v1-like", 1e-6),
        ],
    )
    def test_a_trading_step_prices_two_trades(self, monkeypatch, name, reference):
        """One trade step prices the closed-form size, and that trade
        settles as priced: no size is searched for, and no order is quoted
        again (a second trade step, until the step settled its own)."""
        steps = []
        trade = PricingFamily.trade

        def counted(family, *args):
            steps.append(args)
            return trade(family, *args)

        pool, ledgers = open_pool(name)
        for token in pool.tokens:
            fund(ledgers, token, "arb", 1e9)
        monkeypatch.setattr(PricingFamily, "trade", counted)
        _, _, receipt = arbitrage_step(pool, reference, "arb", ledgers)
        assert receipt is not None
        assert len(steps) == 1

    @pytest.mark.parametrize(
        "name,reference", [("uniswap-v2-like", 4.0), ("curve-v1-like", 1e-6), ("bancor-like", 40.0)]
    )
    def test_an_underfunded_step_prices_at_most_two_trades(self, monkeypatch, name, reference):
        """Holding 1 of each token, the arbitrageur cannot pay for the best
        trade (a buy, or a sale past the depletion edge): the step prices it
        again as a spend of all it holds, and prices nothing more."""
        steps = []
        trade = PricingFamily.trade

        def counted(family, *args):
            steps.append(args)
            return trade(family, *args)

        pool, ledgers = open_pool(name)
        for token in pool.tokens:
            fund(ledgers, token, "arb", 1.0)
        monkeypatch.setattr(PricingFamily, "trade", counted)
        _, _, receipt = arbitrage_step(pool, reference, "arb", ledgers)
        assert receipt.quote.amount_in == 1.0
        assert len(steps) <= 2

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        curve=st.sampled_from([
            "constant-product", "constant-product-sum", "geometric-mean",
            "constant-power-sum", "price-adoption", "exponential",
        ]),
        reserves=st.tuples(st.floats(1e-2, 1e6), st.floats(1e-2, 1e6)),
        chi=st.sampled_from([0.0, 0.01, 0.5, 2.0, 10.0, 100.0, 1000.0]),
        shape=st.floats(0.05, 0.95),
        kappa=st.one_of(st.floats(0.2, 0.9), st.floats(1.1, 4.0)),
        c=st.floats(0.1, 10.0),
        fee=st.sampled_from([0.0, 0.003, 0.01]),
        move=st.floats(0.03, 3.0),
        up=st.booleans(),
    )
    def test_the_closed_form_size_meets_the_first_order_condition(
        self, curve, reserves, chi, shape, kappa, c, fee, move, up
    ):
        """After the step's trade, the marginal read on the curve without
        the fee the reserves keep meets the reference (a buy's cost is
        ref * keep, a sale's proceeds ref / keep) to 32 times the resolution
        of the floats the trade settles: one ulp of the price, plus what the
        marginal moves over one ulp of the size and over one ulp of each
        reserve.  A nearly drained reserve is resolved only to an ulp of what
        it held, which moves a power-sum marginal at small t by 1e-9.  The
        exception is a binding limit: the floor, the 1e18 the arbitrageur
        holds, or a sale past the depletion edge, which leaves `ARB_FLOOR`
        of the numeraire.  `shape` is
        geometric mean's first weight, power-sum's t and price adoption's
        k.  Exponential curves with kappa < 1, whose marginal moves away
        from the reference, buy with all the arbitrageur holds or sell down
        to the floor of the supply."""
        if curve == "exponential":
            spec = spec_pool(curve, "T0, T1", f"{reserves[0]!r}, 0", fee, kappa=repr(kappa), c=repr(c))
        elif curve == "price-adoption":
            spec = spec_pool(curve, "T0, T1", f"{reserves[0]!r}, {reserves[1]!r}", fee, k=repr(shape),
                             target_reserves=f"{reserves[0]!r}, {reserves[1]!r}", oracle_price=repr(c))
        else:
            keys = {"constant-product-sum": {"chi": repr(chi)},
                    "geometric-mean": {"weights": f"{shape!r}, {1.0 - shape!r}"},
                    "constant-power-sum": {"t": repr(shape)}}.get(curve, {})
            spec = spec_pool(curve, "T0, T1", f"{reserves[0]!r}, {reserves[1]!r}", fee, **keys)
        pool, ledgers = materialize_pool(parse_pool_spec(spec))
        fund(ledgers, "T0", "arb", 1e18)
        fund(ledgers, "T1", "arb", 1e18)
        family = PricingFamily.of(pool.curve, pool.oracle_price)
        state = family.view(pool)
        reference = family.spot(state) * math.exp(move if up else -move)
        order = placed_order(pool, reference, ledgers)
        if order is None:
            return
        i = pool.tokens.index(order.token_in)
        buying = i != family.risky
        buy_cap, sell_cap = arb_caps(pool)
        cap = buy_cap if buying else min(sell_cap, 1e18)  # a sale is capped by what it holds
        # the size cap, or the budget: a buy that costs more spends all it holds
        capped = order.amount >= cap * (1.0 - 1e-12) or buying and order.kind == EXACT_IN
        if curve == "exponential" and kappa < 1.0:
            assert capped
            return

        def curve_state(amount):
            """The curve state after the order for `amount`, without the
            fee the reserves keep."""
            _, _, fee_paid, after = family.trade(state, i, 1 - i, order.kind, amount, fee)
            if family.fee_in_reserves:
                after = list(after)
                after[1 - i if i >= family.issued_from else i] -= fee_paid
            return tuple(after)

        after = curve_state(order.amount)
        if capped or after[1 - i] <= ARB_FLOOR * state[1 - i] * (1.0 + 1e-6):
            return
        keep = 1.0 - fee
        price = 1.0 / (reference * keep) if buying else reference / keep
        marginal = family.spot_between(after, i, 1 - i)
        # the size is in units of the risky reserve
        step = math.ulp(max(state[family.risky], after[family.risky]))
        bumped = [curve_state(order.amount + step)]
        for leg in (0, 1):
            moved = list(after)
            moved[leg] += math.ulp(max(state[leg], after[leg]))
            bumped.append(tuple(moved))
        resolution = math.ulp(price) + sum(
            abs(family.spot_between(other, i, 1 - i) - marginal) for other in bumped
        )
        assert abs(marginal - price) <= 32.0 * resolution


class TestSizeEdges:
    def test_a_buy_where_every_size_earns_spends_the_budget(self):
        """On the kappa-0.5 spec pool the marginal cost falls as the supply
        grows, so once a buy earns every size does.  The first earning step
        of a rising walk spends all the arbitrageur holds, 1e18, and mints
        what that buys, not a multiple of the supply (a cap of 1e15 times
        the supply once minted that, then 1e30 times, then spent all 1e18);
        with nothing left to pay, the later steps decline."""
        walk = arb_walk("exponential-0.5", [(1.0, 0.0)] * 3)
        pool, ledgers, level = next(walk)
        pool, ledgers, receipt = arbitrage_step(pool, level, "arb", ledgers)
        assert receipt.quote.amount_in == 1e18
        assert balance_of(ledgers["RESERVE"], "arb") == 0.0
        # S = (c * R)**(1 / kappa) at the reserve the budget bonds, net of the fee
        assert math.isclose(pool.circulating_supply, (100.0 + 1e18 * 0.997) ** 2, rel_tol=1e-12)
        for _ in range(2):
            pool, ledgers, level = walk.send((pool, ledgers))
            assert arbitrage_step(pool, level, "arb", ledgers)[2] is None

    @pytest.mark.parametrize("nudge", [1.0 - 1e-15, 1.0 + 1e-15])
    @pytest.mark.parametrize(
        "name",
        ["uniswap-v2-like", "curve-v1-like", "dodo-like", "bancor-like",
         "geometric-mean-20-80", "power-sum-0.5"],
    )
    def test_a_step_on_the_fee_band_edge_takes_no_cap(self, name, nudge):
        """At a reference on either edge of the fee band, nudged by 1e-15,
        the residual at size 0 is just negative or just not: the step
        trades at most `ARB_FLOOR` of the risky reserve, or declines.  A state
        behind the trade by rounding is not a marginal moving away."""
        pool, ledgers = open_pool(name)
        for token in pool.tokens:
            fund(ledgers, token, "arb", 1e9)
        family = PricingFamily.of(pool.curve, pool.oracle_price)
        state, risky, keep = family.view(pool), family.risky, 1.0 - pool.fee.trade_fee
        cost = 1.0 / family.spot_between(state, 1 - risky, risky)
        proceeds = family.spot_between(state, risky, 1 - risky)
        for edge in (cost / keep, proceeds * keep):
            _, _, receipt = arbitrage_step(pool, edge * nudge, "arb", ledgers)
            if receipt is not None:
                assert abs(receipt.trader_deltas[pool.tokens[risky]]) <= ARB_FLOOR * state[risky]

    @pytest.mark.parametrize("fall", [1e-6, 1e-100])
    @pytest.mark.parametrize("name", ["curve-v1-like", "power-sum-0.5", "dodo-like"])
    def test_a_sale_past_the_edge_leaves_the_numeraire(self, name, fall):
        """A reference far below the pool's bid: product-sum at chi 10 has
        no state there, and price adoption's and power-sum's leave less than
        `ARB_FLOOR` of the numeraire, or none.  The sale takes all but that
        floor of it, never all of it, and so does a second step at the same
        reference."""
        pool, ledgers = open_pool(name)
        for token in pool.tokens:
            fund(ledgers, token, "arb", 1e9)
        family = PricingFamily.of(pool.curve, pool.oracle_price)
        state, numeraire = family.view(pool), 1 - family.risky
        reference = family.spot(state) * fall
        after, ledgers, receipt = arbitrage_step(pool, reference, "arb", ledgers)
        assert receipt is not None
        left = family.view(after)[numeraire]
        assert math.isclose(left, ARB_FLOOR * state[numeraire], rel_tol=1e-6)
        again = arbitrage_step(after, reference, "arb", ledgers)[0]
        assert family.view(again)[numeraire] > 0.0

    @pytest.mark.parametrize("fall", [1e-6, 1e-9, 1e-12, 1e-20])
    def test_a_burn_past_the_edge_leaves_the_floor_of_both_legs(self, fall):
        """On bancor-like (kappa 2) a burn shrinks the reserve as the square
        of the supply, so a sale at a reference far below the spot leaves
        `ARB_FLOOR` of the reserve and more than that of the supply.  The
        floor of the supply alone left R * 1e-18 of the reserve, which
        rounds to a half-empty state the curve refuses: the step declined a
        trade that earns, or at 1e-6 left 1e-12 of the reserve."""
        pool, ledgers = open_pool("bancor-like")
        fund(ledgers, "ISSUED", "arb", 1e9)
        family = pool.family
        state = family.view(pool)
        after, _, receipt = arbitrage_step(pool, family.spot(state) * fall, "arb", ledgers)
        assert receipt is not None
        reserve, supply = family.view(after)
        assert math.isclose(reserve, ARB_FLOOR * state[0], rel_tol=1e-6)
        assert supply > ARB_FLOOR * state[1]


# ---------------------------------------------------------------------------
# settlement of the trade the step priced
# ---------------------------------------------------------------------------


def float_bits(values):
    return [float.hex(v) for v in values]


class TestSettlement:
    def test_a_step_settles_what_execute_swap_settles(self):
        """On seeded walks over the two-token built-ins, the pool, ledgers and
        receipt of every step are those of `execute_swap` on the order it
        settled, to the bit; a step that declines returns what it was given.
        The arbitrageur's holdings put it, somewhere on the walks, on every
        path: buys cut to an exact-in spend of its whole budget, sales
        capped at what it holds, bancor sales of the issued leg, and
        declines."""
        seen = set()
        for seed, name in enumerate(TWO_TOKEN_BUILTINS):
            rng = random.Random(seed)
            for budget, stock in ((1e18, 1e18), (1.0, 1e18), (1e18, 1.0)):
                pool, ledgers = load_pool(name)
                family = PricingFamily.of(pool.curve, pool.oracle_price)
                risky = pool.tokens[family.risky]
                fund(ledgers, pool.tokens[1 - family.risky], "arb", budget)
                fund(ledgers, risky, "arb", stock)
                level = family.spot(family.view(pool))
                for _ in range(12):
                    if pool.oracle_price is not None:
                        pool = set_oracle_price(pool, pool.oracle_price * math.exp(rng.uniform(-0.5, 0.5)))
                    level *= math.exp(rng.uniform(-1.0, 1.0))
                    step, order = settled_step(pool, level, ledgers)
                    if order is None:
                        assert step == (pool, ledgers, None)
                        seen.add("declined")
                        continue
                    held = balance_of(ledgers[order.token_in], "arb")
                    if order.token_out == risky and order.kind == EXACT_IN:
                        seen.add("budget-limited buy")
                        assert order.amount == held
                    elif order.token_in == risky and order.amount == held:
                        seen.add("capped sale")
                    if order.token_in == risky and family.issued_from == 1:
                        seen.add("issued-leg sale")
                    expected = execute_swap(pool, order, ledgers)
                    after, settled, receipt = step
                    assert after == expected[0]
                    assert float_bits(after.reserves) == float_bits(expected[0].reserves)
                    assert settled == expected[2]
                    assert float_bits(getattr(receipt.quote, f.name) for f in fields(Quote)) == (
                        float_bits(getattr(expected[1].quote, f.name) for f in fields(Quote))
                    )
                    assert float_bits(receipt.reserves_after) == float_bits(expected[1].reserves_after)
                    assert receipt.trader_deltas == expected[1].trader_deltas
                    pool, ledgers = after, settled
        assert seen == {"declined", "budget-limited buy", "capped sale", "issued-leg sale"}


# ---------------------------------------------------------------------------
# scenario runs
# ---------------------------------------------------------------------------


class TestRunScenario:
    def test_each_rows_reference_is_the_series_price_at_its_step(self):
        """Parsed steps strictly increase, and the reference is carried
        forward from the series' latest entry at or before each step."""
        rng = random.Random(5)
        steps = sorted(rng.sample(range(1, 200), 60))
        series = parse_price_series("step,price\n" + "".join(
            f"{step},{rng.uniform(0.5, 2.0)!r}\n" for step in sorted(rng.sample(range(10, 220), 25))
        ))
        scenario = parse_scenario(
            "pool uniswap-v2-like\naccount t TOKEN0 1000\naccount t TOKEN1 1000\n"
            # an arb needs a reference; a zero deposit does not
            + "".join(f"{step} arb t\n" if series.at(step) else f"{step} deposit t 0 0\n" for step in steps)
        )
        metrics = run_scenario(scenario, price_series=series)
        assert [record.step for record in metrics.records] == steps
        assert [record.reference for record in metrics.records] == [series.at(s) for s in steps]
        assert metrics.records[0].reference is None  # before the first entry

    def test_a_hand_built_scenario_whose_steps_go_back_reads_the_series_at_each(self):
        series = parse_price_series("step,price\n1,1.5\n3,0.5\n")
        steps = (0, 5, 2, 2, 6, 3)
        events = tuple(
            sim.ScenarioEvent(step, "deposit", ("creator", "0", "0"), line)
            for line, step in enumerate(steps, 1)
        )
        metrics = run_scenario(Scenario("uniswap-v2-like", (), events), price_series=series)
        references = [record.reference for record in metrics.records]
        assert references == [series.at(step) for step in steps] == [None, 0.5, 1.5, 1.5, 0.5, 0.5]
        assert [record.reference for record in run_scenario(Scenario(
            "uniswap-v2-like", (), events)).records] == [None] * len(steps)

    def test_trade_and_arb_events_call_the_public_functions(self, monkeypatch):
        """A scenario's trade and arb events go through the public
        `execute_swap` and `arbitrage_step`, one call per event, so that
        what wraps those functions sees every scenario trade."""
        calls = []
        for name in ("execute_swap", "arbitrage_step"):
            def counted(*args, _name=name, _public=getattr(sim, name)):
                calls.append(_name)
                return _public(*args)

            monkeypatch.setattr(sim, name, counted)
        scenario = parse_scenario(
            "pool uniswap-v2-like\naccount t TOKEN0 100\naccount t TOKEN1 100\n"
            "1 trade t TOKEN0 TOKEN1 5\n2 arb t\n3 withdraw creator 1\n"
            "4 trade t TOKEN1 TOKEN0 2\n5 arb t\n6 arb t\n"
        )
        metrics = run_scenario(scenario, price_series=parse_price_series("step,price\n1,1.2\n"))
        assert len(metrics.records) == 6
        assert calls == [
            "execute_swap", "arbitrage_step", "execute_swap", "arbitrage_step", "arbitrage_step",
        ]

    @pytest.mark.parametrize("pool, events, public_states", [
        ("uniswap-v2-like", "1 trade t TOKEN0 TOKEN1 5\n2 arb t\n3 arb t\n"
         "4 trade t TOKEN1 TOKEN0 2\n5 arb t\n", 0),
        ("curve-v1-like", "1 trade t STABLE0 STABLE1 5\n2 arb t\n3 arb t\n"
         "4 trade t STABLE1 STABLE0 2\n5 arb t\n", 0),
        ("uniswap-v2-like", "1 deposit t 1 1\n2 trade t TOKEN0 TOKEN1 5\n3 arb t\n"
         "4 withdraw t 0.5\n5 arb t\n", 2),
        ("dodo-like", "1 oracle 11\n2 trade t BASE QUOTE 1\n3 arb t\n4 oracle 9\n5 arb t\n", 2),
    ], ids=["uniswap", "curve", "uniswap-lp", "dodo-oracle"])
    def test_trades_and_arbs_build_no_quote_and_bind_no_family(
        self, monkeypatch, pool, events, public_states
    ):
        """A trade or arb event builds no `Quote`, as nothing reads its
        receipt, and its successor state keeps the pool's bound family.
        Only a state built through the public constructor looks its family
        up: the pool `load_pool` opens, and one per deposit, withdrawal and
        oracle event.  Counted by patching, on runs that trade every time."""
        counts = {"Quote": 0, "of": 0}
        real_quote, real_of = engine.Quote, PricingFamily.of

        def counted_quote(*args):
            counts["Quote"] += 1
            return real_quote(*args)

        def counted_of(*args):
            counts["of"] += 1
            return real_of(*args)

        opened = load_pool(pool)[0]
        preamble = f"pool {pool}\n" + "".join(f"account t {token} 100\n" for token in opened.tokens)
        spot = opened.family.spot(opened.reserves)
        series = parse_price_series(f"step,price\n1,{1.3 * spot}\n3,{0.8 * spot}\n5,{1.1 * spot}\n")
        monkeypatch.setattr(engine, "Quote", counted_quote)
        monkeypatch.setattr(PricingFamily, "of", staticmethod(counted_of))
        run_scenario(parse_scenario(preamble), price_series=series)
        opening = counts["of"]
        assert opening > 0
        metrics = run_scenario(parse_scenario(preamble + events), price_series=series)
        assert counts == {"Quote": 0, "of": 2 * opening + public_states}
        # every arb event traded: the spot moved
        spots = [record.spot for record in metrics.records]
        for index, record in enumerate(metrics.records):
            if record.event == "arb":
                assert spots[index] != spots[index - 1]
        with pytest.raises(FrozenInstanceError):
            metrics.records[-1].spot = 0.0

    def test_parsed_events_are_typed_once(self, monkeypatch):
        """Parsing and running an N-event script types each event once: the
        parser keeps what it typed, and `run_scenario` types only an event
        that lacks it.  A parsed event passed through `dataclasses.replace`,
        or one built by hand, is typed when it runs: it gives the same
        metrics, and a bad one still fails as a ScenarioError caused by
        DomainError."""
        calls = []
        typed = sim._typed

        def counted(*args):
            calls.append(args)
            return typed(*args)

        monkeypatch.setattr(sim, "_typed", counted)
        series = parse_price_series("step,price\n1,1.2\n")
        scenario = parse_scenario(
            "pool uniswap-v2-like\naccount t TOKEN0 100\naccount t TOKEN1 100\n"
            "1 deposit t 1 1\n2 trade t TOKEN0 TOKEN1 5\n3 arb t\n4 withdraw creator 1\n"
        )
        metrics = run_scenario(scenario, price_series=series)
        assert len(calls) == len(scenario.events) == 4
        replaced = replace(scenario, events=tuple(replace(e) for e in scenario.events))
        assert replaced == scenario
        assert run_scenario(replaced, price_series=series) == metrics
        assert len(calls) == 8
        trade = scenario.events[1]
        for bad in (
            replace(trade, verb="stake"),
            replace(trade, args=("t", "TOKEN0", "TOKEN1", "ten")),
            sim.ScenarioEvent(2, "trade", ("t", "TOKEN0", "TOKEN1"), 5),
        ):
            with pytest.raises(ScenarioError) as info:
                run_scenario(replace(scenario, events=(bad,)))
            assert isinstance(info.value.__cause__, DomainError)

    def test_zero_events_yield_empty_metrics(self):
        scenario = parse_scenario("pool uniswap-v2-like\n")
        metrics = run_scenario(scenario)
        assert metrics.records == ()

    def test_deposit_only_scenario_has_zero_divergence(self, tmp_path):
        text = (
            f"pool {cp_pool(tmp_path)}\n"
            "account alice T0 100\n"
            "account alice T1 100\n"
            "1 deposit alice 10 10\n"
        )
        series = parse_price_series("step,price\n0,1.0\n")
        metrics = run_scenario(parse_scenario(text), price_series=series)
        (record,) = metrics.records
        assert record.lp_value == pytest.approx(220.0, rel=1e-12)
        assert record.divergence_loss == pytest.approx(0.0, abs=1e-12)

    def test_price_doubling_divergence_loss(self, tmp_path):
        text = (
            f"pool {cp_pool(tmp_path)}\n"
            "account arb T0 100000\n"
            "account arb T1 100000\n"
            "1 arb arb\n"
        )
        series = parse_price_series("step,price\n0,1.0\n1,2.0\n")
        metrics = run_scenario(parse_scenario(text), price_series=series)
        (record,) = metrics.records
        expected = 2.0 * math.sqrt(2.0) / 3.0 - 1.0
        assert record.divergence_loss == pytest.approx(expected, abs=1e-9)
        assert record.reference == 2.0
        assert record.tracking_error <= 1e-6
        assert record.invariant == pytest.approx(10000.0, rel=1e-9)

    def test_trade_event_moves_reserves_and_accrues_fees(self):
        text = (
            "pool uniswap-v2-like\n"
            "account alice TOKEN0 50\n"
            "3 trade alice TOKEN0 TOKEN1 10\n"
        )
        series = parse_price_series("step,price\n0,1.0\n")
        metrics = run_scenario(parse_scenario(text), price_series=series)
        (record,) = metrics.records
        assert record.step == 3
        assert record.event == "trade"
        # worked example: 10 in at fee 0.003 -> 9.06610893880149 out
        assert record.spot == pytest.approx(
            (100.0 - 9.06610893880149) / 110.0, rel=1e-12
        )
        assert record.fees_cum == pytest.approx(0.03, rel=1e-12)

    def test_oracle_event_updates_adopted_price(self):
        text = (
            "pool dodo-like\n"
            "account alice BASE 100\n"
            "1 oracle 12.0\n"
            "2 trade alice BASE QUOTE 1\n"
        )
        metrics = run_scenario(parse_scenario(text))
        first, second = metrics.records
        assert first.event == "oracle"
        assert first.spot == pytest.approx(12.0, rel=1e-12)
        assert second.invariant is None

    def test_resolution_scenario(self):
        text = (
            "pool augur-like\n"
            "account alice CASH 50\n"
            "1 trade alice CASH OUT0 20\n"
            "2 resolve OUT0\n"
        )
        metrics = run_scenario(parse_scenario(text))
        assert [r.event for r in metrics.records] == ["trade", "resolve"]
        assert metrics.records[0].spot is not None
        assert metrics.records[1].spot is None  # market closed

    def test_failing_event_reports_index_and_partial_metrics(self):
        text = (
            "pool uniswap-v2-like\n"
            "account alice TOKEN0 15\n"
            "1 trade alice TOKEN0 TOKEN1 10\n"
            "2 trade alice TOKEN0 TOKEN1 10\n"
        )
        with pytest.raises(ScenarioError) as exc_info:
            run_scenario(parse_scenario(text))
        error = exc_info.value
        assert error.event_index == 1
        assert len(error.metrics.records) == 1

    def test_arb_without_reference_fails_with_event_index(self):
        text = "pool uniswap-v2-like\naccount a TOKEN1 10\n1 arb a\n"
        with pytest.raises(ScenarioError) as exc_info:
            run_scenario(parse_scenario(text))
        assert exc_info.value.event_index == 0

    def test_unknown_token_fails_at_the_event(self):
        text = (
            "pool uniswap-v2-like\n"
            "account alice TOKEN0 5\n"
            "1 trade alice TOKEN0 WRONG 1\n"
        )
        with pytest.raises(ScenarioError) as exc_info:
            run_scenario(parse_scenario(text))
        assert exc_info.value.event_index == 0

    def test_endowments_and_ledgers_mint_as_one_at_a_time(self, monkeypatch):
        seen = []
        swap = sim.execute_swap

        def record(pool, order, ledgers):
            seen.append(ledgers)
            return swap(pool, order, ledgers)

        monkeypatch.setattr(sim, "execute_swap", record)
        text = (
            "pool uniswap-v2-like\n"
            "account alice TOKEN0 0.1\n"
            "account bob TOKEN1 3\n"
            "account alice TOKEN0 0.2\n"
            "account carol EXTRA 0\n"
            "account carol EXTRA 7.5\n"
            "account creator TOKEN1 1e-17\n"
            "1 trade alice TOKEN0 TOKEN1 0.25\n"
        )
        extra = {
            "TOKEN0": new_ledger("TOKEN0", {"bob": 0.3, "zed": 0.0, "alice": 1e16}),
            "EXTRA": new_ledger("EXTRA", {"dave": 2.0}),
        }
        run_scenario(parse_scenario(text), ledgers=extra)

        _, expected = load_pool("uniswap-v2-like")
        grants = [(t, a, v) for t, ledger in extra.items() for a, v in ledger.balances.items()]
        grants += [(t, a, v) for a, t, v in parse_scenario(text).endowments]
        for token, account, amount in grants:
            base = expected.setdefault(token, new_ledger(token))
            if amount > 0.0:
                expected[token] = ledger_mint(base, account, amount)

        def bits(ledgers):
            return [
                (t, [(a, v.hex()) for a, v in led.balances.items()], led.total_supply.hex())
                for t, led in ledgers.items()
            ]

        assert bits(seen[0]) == bits(expected)

    @pytest.mark.parametrize("endowments, message", [
        ((("a", "TOKEN0", math.inf),), "amount must be finite"),
        ((("a", "WRONG", 1.0),), "endowment for unknown token 'WRONG'"),
        ((("a", "TOKEN1", math.inf), ("b", "WRONG", 1.0)), "amount must be finite"),
        ((("b", "WRONG", 1.0), ("a", "TOKEN1", math.inf)), "unknown token 'WRONG'"),
    ], ids=["inf", "unknown", "inf-then-unknown", "unknown-then-inf"])
    def test_bad_endowments_fail_in_script_order(self, endowments, message):
        scenario = Scenario("uniswap-v2-like", endowments, ())
        with pytest.raises(DomainError, match=message):
            run_scenario(scenario)

    @pytest.mark.parametrize("pool, verb, args", [
        ("uniswap-v2-like", "trade", ("creator", "TOKEN0", "TOKEN1", "ten")),
        ("uniswap-v2-like", "trade", ("creator", "TOKEN0")),
        ("uniswap-v2-like", "deposit", ("creator", "x", "1")),
        ("uniswap-v2-like", "withdraw", ("creator", "inf")),
        ("dodo-like", "oracle", ("-1",)),
        ("augur-like", "resolve", ()),
        ("augur-like", "stake", ("0",)),
    ])
    def test_hand_built_events_pass_the_script_checks(self, pool, verb, args):
        scenario = Scenario(pool, (), (sim.ScenarioEvent(1, verb, args, 1),))
        with pytest.raises(ScenarioError) as info:
            run_scenario(scenario)
        assert isinstance(info.value.__cause__, DomainError)
        assert info.value.metrics.records == ()

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(
        name=st.sampled_from(sorted(engine.BUILTIN_POOLS)),
        events=st.lists(
            st.tuples(
                st.sampled_from(sorted(sim.EVENT_VERBS)),
                st.integers(0, 3),
                st.integers(0, 3),
                st.sampled_from(["0", "1", "all", "1e9"]),
            ),
            max_size=12,
        ),
    )
    @example(name="curve-v1-like", events=[("withdraw", 0, 0, "all"), ("withdraw", 0, 0, "0")])
    def test_random_scripts_raise_only_amm_errors(self, name, events):
        """A script on a built-in pool runs or fails with an AmmError: zero,
        partial and full withdrawals, trades that drain or overdraw, and
        verbs the pool does not support."""
        pool, _ = load_pool(name)
        tokens, n = pool.tokens, len(pool.tokens)
        lines = [f"pool {name}"] + [f"account a {token} 1000" for token in tokens]
        for step, (verb, i, j, size) in enumerate(events, start=1):
            amount = repr(pool.lp_share_supply) if size == "all" else size
            args = {
                "trade": f"a {tokens[i % n]} {tokens[(i + 1 + j % (n - 1)) % n]} {amount}",
                "deposit": " ".join(
                    ["a", *(repr(r * float(amount) / 100.0) for r in pool.reserves)]
                ),
                "withdraw": f"creator {amount}",  # the creator holds the opening shares
                "oracle": repr(2.0 ** (j - 1)),
                "arb": "a",
                "resolve": str(i) if j % 2 else tokens[i % n],
            }[verb]
            lines.append(f"{step} {verb} {args}")
        series = parse_price_series("step,price\n0,1.0\n4,3.0\n8,0.5\n")
        try:
            run_scenario(parse_scenario("\n".join(lines) + "\n"), price_series=series)
        except AmmError:
            pass

    @pytest.mark.parametrize("series", [None, "step,price\n1,5.0\n"], ids=["no-series", "series"])
    def test_prediction_market_fees_are_collateral_at_par(self, tmp_path, series):
        """The reference prices outcome 0 (the family's spot), so the
        collateral a prediction market collects in fees is marked at par:
        10 CASH at fee 0.01 is 0.1 with or without a reference."""
        spec = (
            "archetype = price-discovering-lp-based\n"
            "curve = lmsr\n"
            "tokens = CASH, OUT0, OUT1\n"
            "reserves = 70, 0, 0\n"
            "fee = 0.01\n"
            "b = 100\n"
        )
        text = (
            f"pool {cp_pool(tmp_path, spec, 'lmsr.pool')}\n"
            "account alice CASH 10\n"
            "1 trade alice CASH OUT0 10\n"
        )
        prices = None if series is None else parse_price_series(series)
        metrics = run_scenario(parse_scenario(text), price_series=prices)
        row = metrics_to_csv(metrics).strip().splitlines()[1].split(",")
        assert row[8] == "0.09999999999999964"

    def test_fixed_seed_reproduces_bit_identical_metrics(self, tmp_path):
        text = (
            f"pool {cp_pool(tmp_path, CP_FEE)}\n"
            "account arb T0 100000\n"
            "account arb T1 100000\n"
            "account alice T0 500\n"
            "1 trade alice T0 T1 25\n"
            "2 arb arb\n"
            "4 trade alice T0 T1 10\n"
            "5 arb arb\n"
        )
        series = parse_price_series("step,price\n0,1.0\n2,1.4\n5,0.9\n")
        first = run_scenario(parse_scenario(text), price_series=series)
        second = run_scenario(parse_scenario(text), price_series=series)
        assert first == second

    def test_accounting_closure_marked_at_reference(self, tmp_path):
        pool, ledgers = load_pool(cp_pool(tmp_path))
        fund(ledgers, "T0", "alice", 1000.0)
        fund(ledgers, "T1", "alice", 1000.0)
        fund(ledgers, "T0", "arb", 1000.0)
        fund(ledgers, "T1", "arb", 1000.0)
        reference = 1.7

        def total() -> float:
            value = 0.0
            for account in ("alice", "arb", pool.account):
                value += balance_of(ledgers["T0"], account) * reference
                value += balance_of(ledgers["T1"], account)
            return value

        start = total()
        pool, receipt, ledgers = execute_swap(
            pool, TradeOrder("alice", "T0", "T1", 30.0, EXACT_IN), ledgers
        )
        assert abs(total() - start) / start <= 1e-6
        pool, ledgers, _ = arbitrage_step(pool, reference, "arb", ledgers)
        assert abs(total() - start) / start <= 1e-6
        pool, receipt, ledgers = execute_swap(
            pool, TradeOrder("alice", "T1", "T0", 5.0, EXACT_OUT), ledgers
        )
        assert abs(total() - start) / start <= 1e-6


# ---------------------------------------------------------------------------
# metrics rendering
# ---------------------------------------------------------------------------


class TestMetricsCsv:
    HEADER = (
        "step,event,spot,reference,tracking_error,"
        "invariant,lp_value,divergence_loss,fees_cum"
    )

    def test_header_and_row_count(self, tmp_path):
        text = (
            f"pool {cp_pool(tmp_path)}\n"
            "account alice T0 50\n"
            "1 trade alice T0 T1 10\n"
            "2 trade alice T0 T1 10\n"
        )
        metrics = run_scenario(parse_scenario(text))
        lines = metrics_to_csv(metrics).strip().splitlines()
        assert lines[0] == self.HEADER
        assert len(lines) == 3

    def test_undefined_cells_are_empty(self, tmp_path):
        text = (
            f"pool {cp_pool(tmp_path)}\n"
            "account alice T0 50\n"
            "1 trade alice T0 T1 10\n"
        )
        metrics = run_scenario(parse_scenario(text))  # no price series
        row = metrics_to_csv(metrics).strip().splitlines()[1].split(",")
        assert row[0] == "1"
        assert row[1] == "trade"
        assert row[3] == ""  # reference
        assert row[4] == ""  # tracking error
        assert row[6] == ""  # lp value needs a reference mark
        assert row[7] == ""  # divergence likewise

    def test_float_cells_round_trip_through_repr(self, tmp_path):
        text = (
            f"pool {cp_pool(tmp_path)}\n"
            "account alice T0 50\n"
            "1 trade alice T0 T1 10\n"
        )
        series = parse_price_series("step,price\n0,1.25\n")
        metrics = run_scenario(parse_scenario(text), price_series=series)
        row = metrics_to_csv(metrics).strip().splitlines()[1].split(",")
        (record,) = metrics.records
        assert float(row[2]) == record.spot
        assert float(row[5]) == record.invariant
        assert float(row[8]) == record.fees_cum
