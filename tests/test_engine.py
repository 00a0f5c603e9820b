"""Pool orchestration tests: fees, settlement, LP accounting, mint/burn.

Engine-level oracles:

    fee-on-input quoting   (100,100) fee 0.003 exact-in 10:
                           effective 9.97, out = 100 - 10000/109.97
                           = 9.06610893880149
    exact-out gross-up     dx = dx_curve / (1 - fee)
    first LP mint          deposit (100,400) -> sqrt(100*400) = 200 shares
    proportional mint      (10,40) on (100,400)@200 -> 20 shares
    pro-rata withdrawal    100 of 200 shares on (100,400) -> (50,200)
    bonding bootstrap      kappa=2, c=1: spend 100 from empty -> 10 minted
    LMSR subsidy           3 outcomes, b=100 -> creation collateral b*ln(3)

The curves layer is validated independently in test_curves.py, so engine
tests may use curves functions as oracles for the pure pricing component.
"""

import dataclasses
import math
import random
from types import MappingProxyType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ammlab.core import (
    AmmError,
    DepletionError,
    DomainError,
    InsufficientBalance,
    SolverError,
    UnsupportedOperation,
    balance_of,
    ledger_mint,
    new_ledger,
)
from ammlab import curves
from ammlab.curves import (
    CURVES,
    ConstantPowerSum,
    ConstantProduct,
    ConstantProductSum,
    ConstantSum,
    Exponential,
    GeometricMean,
    Lmsr,
    PriceAdoption,
    quote_exact_in,
)
from ammlab.engine import (
    BOOTSTRAP_ACCOUNT,
    BUILTIN_POOLS,
    PRICE_ADOPTING_LP_BASED,
    PRICE_DISCOVERING_LP_BASED,
    PRICE_DISCOVERING_SUPPLY_SOVEREIGN,
    PoolConfig,
    PoolState,
    PricingFamily,
    TradeOrder,
    TradeReceipt,
    create_pool,
    curve_buy,
    curve_sell,
    deposit_liquidity,
    execute_swap,
    load_pool,
    materialize_pool,
    parse_pool_spec,
    quote,
    resolve_prediction,
    set_oracle_price,
    withdraw_liquidity,
)

REL = 1e-9


def funded_ledgers(tokens, account, amount):
    return {t: new_ledger(t, {account: amount}) for t in tokens}


def make_cp_pool(fee=0.0, reserves=(100.0, 100.0)):
    config = PoolConfig(
        archetype=PRICE_DISCOVERING_LP_BASED,
        tokens=("T0", "T1"),
        curve=ConstantProduct(),
        fee_rate=fee,
    )
    ledgers = funded_ledgers(("T0", "T1"), "creator", 1e6)
    return create_pool(config, reserves, "creator", ledgers)


def make_pmm_pool(oracle=10.0, reserves=(100.0, 1000.0)):
    config = PoolConfig(
        archetype=PRICE_ADOPTING_LP_BASED,
        tokens=("BASE", "QUOTE"),
        curve=PriceAdoption(k=0.5, target_reserves=(100.0, 1000.0)),
        fee_rate=0.0,
        oracle_price=oracle,
    )
    ledgers = funded_ledgers(("BASE", "QUOTE"), "creator", 1e6)
    return create_pool(config, reserves, "creator", ledgers)


def make_sovereign_pool(fee=0.0, kappa=2.0, c=1.0):
    config = PoolConfig(
        archetype=PRICE_DISCOVERING_SUPPLY_SOVEREIGN,
        tokens=("RESERVE", "ISSUED"),
        curve=Exponential(kappa=kappa, c=c),
        fee_rate=fee,
    )
    ledgers = funded_ledgers(("RESERVE", "ISSUED"), "creator", 0.0)
    return create_pool(config, (0.0, 0.0), "creator", ledgers)


def make_lmsr_pool(b=100.0, n_outcomes=3):
    tokens = ("CASH",) + tuple(f"OUT{i}" for i in range(n_outcomes))
    config = PoolConfig(
        archetype=PRICE_DISCOVERING_LP_BASED,
        tokens=tokens,
        curve=Lmsr(b=b),
        fee_rate=0.0,
    )
    subsidy = b * math.log(n_outcomes)
    deposit = (subsidy,) + (0.0,) * n_outcomes
    ledgers = {tokens[0]: new_ledger(tokens[0], {"creator": 1e6})}
    return create_pool(config, deposit, "creator", ledgers)


# ---------------------------------------------------------------------------
# pool creation
# ---------------------------------------------------------------------------


class TestCreatePool:
    def test_first_lp_mint_is_geometric_mean(self):
        pool, ledgers = make_cp_pool(reserves=(100.0, 400.0))
        assert math.isclose(pool.lp_share_supply, 200.0, rel_tol=REL)
        assert math.isclose(pool.lp_shares["creator"], 200.0, rel_tol=REL)

    def test_deposit_moves_into_pool_account(self):
        pool, ledgers = make_cp_pool(reserves=(100.0, 400.0))
        assert balance_of(ledgers["T0"], pool.account) == 100.0
        assert balance_of(ledgers["T1"], pool.account) == 400.0
        assert balance_of(ledgers["T0"], "creator") == 1e6 - 100.0
        assert pool.reserves == (100.0, 400.0)

    def test_sovereign_starts_empty(self):
        pool, ledgers = make_sovereign_pool()
        assert pool.reserves[0] == 0.0
        assert pool.circulating_supply == 0.0
        assert ledgers["ISSUED"].total_supply == 0.0

    def test_zero_deposit_lp_pool_rejected(self):
        config = PoolConfig(
            archetype=PRICE_DISCOVERING_LP_BASED,
            tokens=("T0", "T1"),
            curve=ConstantProduct(),
            fee_rate=0.0,
        )
        ledgers = funded_ledgers(("T0", "T1"), "creator", 1e6)
        with pytest.raises(DomainError):
            create_pool(config, (0.0, 100.0), "creator", ledgers)

    @pytest.mark.parametrize("archetype, curve, message", [
        (PRICE_DISCOVERING_LP_BASED, GeometricMean(weights=(0.5, 0.5)),
         "2 weights for 3 tokens"),
        (PRICE_ADOPTING_LP_BASED, PriceAdoption(k=0.5, target_reserves=(1.0, 1.0)),
         "price adoption is a two-token mechanism"),
    ])
    def test_curve_rejects_its_token_count(self, archetype, curve, message):
        tokens = ("T0", "T1", "T2")
        config = PoolConfig(archetype=archetype, tokens=tokens, curve=curve, fee_rate=0.0)
        ledgers = funded_ledgers(tokens, "creator", 1e6)
        with pytest.raises(DomainError, match=message):
            create_pool(config, (100.0, 100.0, 100.0), "creator", ledgers)

    def test_archetype_curve_mismatch_rejected(self):
        bad = [
            (PRICE_DISCOVERING_LP_BASED, Exponential(kappa=2.0, c=1.0)),
            (PRICE_DISCOVERING_LP_BASED, PriceAdoption(k=0.5, target_reserves=(1.0, 1.0))),
            (PRICE_ADOPTING_LP_BASED, ConstantProduct()),
            (PRICE_DISCOVERING_SUPPLY_SOVEREIGN, ConstantSum()),
            (PRICE_DISCOVERING_LP_BASED, object()),  # not a curve spec at all
        ]
        for archetype, curve in bad:
            config = PoolConfig(
                archetype=archetype, tokens=("T0", "T1"), curve=curve, fee_rate=0.0
            )
            ledgers = funded_ledgers(("T0", "T1"), "creator", 1e6)
            with pytest.raises(DomainError):
                create_pool(config, (100.0, 100.0), "creator", ledgers)

    def test_unknown_archetype_rejected(self):
        with pytest.raises(DomainError):
            PoolConfig(
                archetype="mystery", tokens=("T0", "T1"),
                curve=ConstantProduct(), fee_rate=0.0,
            )

    @pytest.mark.parametrize("changes, message", [
        ({"archetype": "mystery"}, r"unknown archetype 'mystery'; expected one of \["),
        ({"tokens": ("T0",)}, "a pool needs at least two tokens"),
        ({"tokens": ("T0", "T1", "T0")}, r"duplicate token ids: \('T0', 'T1', 'T0'\)"),
        ({"tokens": ("T0", "")}, "token ids must be non-empty"),
        ({"reserves": (1.0, 2.0, 3.0)}, "3 reserves for 2 tokens"),
        ({"reserves": (1.0, -1.0)}, r"reserves out of range: \(1.0, -1.0\)"),
        ({"reserves": (math.inf, 1.0)}, r"reserves out of range: \(inf, 1.0\)"),
        ({"reserves": (1.0, math.nan)}, r"reserves out of range: \(1.0, nan\)"),
        ({"oracle_price": 0.0}, "oracle price must be positive and finite: 0.0"),
        ({"oracle_price": -2.0}, "oracle price must be positive and finite: -2.0"),
        ({"oracle_price": math.inf}, "oracle price must be positive and finite: inf"),
        ({"oracle_price": math.nan}, "oracle price must be positive and finite: nan"),
    ])
    def test_config_refusals(self, changes, message):
        spec = dict(
            archetype=PRICE_DISCOVERING_LP_BASED, tokens=("T0", "T1"),
            curve=ConstantProduct(), fee_rate=0.0,
        )
        spec.update(changes)
        with pytest.raises(DomainError, match=message):
            PoolConfig(**spec)

    def test_lmsr_creation_charges_subsidy(self):
        pool, ledgers = make_lmsr_pool(b=100.0, n_outcomes=3)
        subsidy = 100.0 * math.log(3.0)
        assert math.isclose(pool.reserves[0], subsidy, rel_tol=REL)
        assert pool.reserves[1:] == (0.0, 0.0, 0.0)
        assert math.isclose(
            balance_of(ledgers["CASH"], pool.account), subsidy, rel_tol=REL
        )
        assert pool.lp_share_supply == 0.0

    def test_lmsr_underfunded_subsidy_rejected(self):
        tokens = ("CASH", "OUT0", "OUT1")
        config = PoolConfig(
            archetype=PRICE_DISCOVERING_LP_BASED,
            tokens=tokens,
            curve=Lmsr(b=100.0),
            fee_rate=0.0,
        )
        ledgers = funded_ledgers(tokens, "creator", 1e6)
        with pytest.raises(DomainError):
            create_pool(config, (50.0, 0.0, 0.0), "creator", ledgers)

    def test_lmsr_subsidy_slack_is_relative(self):
        """At b = 1e-10 an unfunded market was admitted, and its resolution
        after one 1e-9 buy could not pay out; at b = 1e6 a subsidy short of
        the liability by 1e-10 of it opens."""
        tokens = ("CASH", "OUT0", "OUT1")
        ledgers = funded_ledgers(tokens, "creator", 1e9)
        tiny = PoolConfig(archetype=PRICE_DISCOVERING_LP_BASED, tokens=tokens, curve=Lmsr(b=1e-10))
        with pytest.raises(DomainError) as raised:
            create_pool(tiny, (0.0, 0.0, 0.0), "creator", ledgers)
        assert str(raised.value) == (
            "collateral subsidy 0.0 is below the worst-case resolution liability "
            f"b*ln(2) = {1e-10 * math.log(2)}")
        large = dataclasses.replace(tiny, curve=Lmsr(b=1e6))
        subsidy = 1e6 * math.log(2) * (1.0 - 1e-10)
        pool, _ = create_pool(large, (subsidy, 0.0, 0.0), "creator", ledgers)
        assert pool.reserves == (subsidy, 0.0, 0.0)


# ---------------------------------------------------------------------------
# quoting with fees
# ---------------------------------------------------------------------------


class TestQuote:
    def test_fee_on_input_worked_example(self):
        pool, _ = make_cp_pool(fee=0.003)
        order = TradeOrder("alice", "T0", "T1", 10.0, "exact-in")
        q = quote(pool, order)
        assert math.isclose(q.amount_out, 9.06610893880149, rel_tol=REL)
        assert math.isclose(q.fee_paid, 0.03, rel_tol=REL)
        assert math.isclose(q.amount_in, 10.0, rel_tol=REL)
        assert math.isclose(q.mean_price, q.amount_out / 10.0, rel_tol=REL)

    def test_two_token_product_sum_quote_runs_no_newton(self, monkeypatch):
        """A two-token product-sum quote reads D in closed form: with the
        Newton solve allowed no iteration, it still prices, and a
        three-token state's D cannot be had."""
        monkeypatch.setattr(curves, "NEWTON_MAX_ITER", 0)
        pool, _ = load_pool("curve-v1-like")
        q = quote(pool, TradeOrder("alice", "STABLE0", "STABLE1", 10.0, "exact-in"))
        assert 0.0 < q.amount_out < 10.0
        with pytest.raises(SolverError):
            curves.solve_stableswap_d((110.0, 100.0, 90.0), pool.curve.chi)

    def test_zero_fee_matches_curve_layer(self):
        pool, _ = make_cp_pool(fee=0.0)
        order = TradeOrder("alice", "T0", "T1", 10.0, "exact-in")
        q = quote(pool, order)
        direct = quote_exact_in(ConstantProduct(), (100.0, 100.0), 0, 1, 10.0)
        assert math.isclose(q.amount_out, direct, rel_tol=1e-12)
        assert q.fee_paid == 0.0

    def test_exact_out_grosses_up_fee(self):
        pool, _ = make_cp_pool(fee=0.003)
        order = TradeOrder("alice", "T0", "T1", 10.0, "exact-out")
        q = quote(pool, order)
        dx_curve = 10000.0 / 90.0 - 100.0
        assert math.isclose(q.amount_in, dx_curve / 0.997, rel_tol=REL)
        assert math.isclose(q.amount_out, 10.0, rel_tol=REL)
        assert math.isclose(q.fee_paid, q.amount_in - dx_curve, rel_tol=REL)

    def test_exact_in_and_exact_out_invert(self):
        pool, _ = make_cp_pool(fee=0.003)
        q_in = quote(pool, TradeOrder("a", "T0", "T1", 7.0, "exact-in"))
        q_out = quote(pool, TradeOrder("a", "T0", "T1", q_in.amount_out, "exact-out"))
        assert math.isclose(q_out.amount_in, 7.0, rel_tol=1e-9)

    def test_unknown_token_rejected(self):
        pool, _ = make_cp_pool()
        with pytest.raises(DomainError):
            quote(pool, TradeOrder("a", "T0", "TX", 1.0, "exact-in"))

    def test_bad_order_kind_rejected(self):
        pool, _ = make_cp_pool()
        with pytest.raises(DomainError):
            quote(pool, TradeOrder("a", "T0", "T1", 1.0, "both"))

    def test_non_positive_amount_rejected(self):
        pool, _ = make_cp_pool()
        with pytest.raises(DomainError):
            quote(pool, TradeOrder("a", "T0", "T1", 0.0, "exact-in"))
        with pytest.raises(DomainError):
            quote(pool, TradeOrder("a", "T0", "T1", -1.0, "exact-in"))

    def test_spot_moves_against_the_trade(self):
        pool, _ = make_cp_pool()
        q = quote(pool, TradeOrder("a", "T0", "T1", 10.0, "exact-in"))
        assert math.isclose(q.spot_before, 1.0, rel_tol=REL)
        assert q.spot_after < q.spot_before
        assert q.spot_after < q.mean_price < q.spot_before

    def test_pmm_tiny_order_mean_price_near_oracle(self):
        pool, _ = make_pmm_pool(oracle=10.0)
        q = quote(pool, TradeOrder("a", "BASE", "QUOTE", 1e-8, "exact-in"))
        assert math.isclose(q.mean_price, 10.0, rel_tol=1e-6)

    def test_pmm_missing_oracle_rejected(self):
        pool, _ = make_pmm_pool(oracle=None)
        with pytest.raises(DomainError):
            quote(pool, TradeOrder("a", "BASE", "QUOTE", 1.0, "exact-in"))

    def test_pmm_surcharge_component_on_deficit_buy(self):
        # drain 20 BASE first so the pool is short of its target
        pool, ledgers = make_pmm_pool(oracle=10.0)
        ledgers = {**ledgers, "QUOTE": new_ledger("QUOTE", {"a": 1e6})}
        pool, _, ledgers = execute_swap(
            pool, TradeOrder("a", "QUOTE", "BASE", 20.0, "exact-out"), ledgers
        )
        q = quote(pool, TradeOrder("a", "QUOTE", "BASE", 50.0, "exact-in"))
        flat = 50.0 / 10.0
        assert q.surcharge_component > 0.0
        assert math.isclose(q.surcharge_component, flat - q.amount_out, rel_tol=REL)

    def test_surcharge_component_zero_for_discovery_pools(self):
        pool, _ = make_cp_pool()
        q = quote(pool, TradeOrder("a", "T0", "T1", 10.0, "exact-in"))
        assert q.surcharge_component == 0.0

    def test_lmsr_buy_quote_matches_curve_layer(self):
        pool, _ = make_lmsr_pool(b=100.0, n_outcomes=3)
        q = quote(pool, TradeOrder("a", "CASH", "OUT0", 10.0, "exact-in"))
        direct = quote_exact_in(Lmsr(b=100.0), (0.0, 0.0, 0.0), None, 0, 10.0)
        assert math.isclose(q.amount_out, direct, rel_tol=1e-9)

    def test_lmsr_outcome_to_outcome_rejected(self):
        pool, _ = make_lmsr_pool()
        with pytest.raises(UnsupportedOperation):
            quote(pool, TradeOrder("a", "OUT0", "OUT1", 1.0, "exact-in"))

    @pytest.mark.parametrize("name", sorted(BUILTIN_POOLS))
    @pytest.mark.parametrize(
        "amount,kind",
        [
            (math.inf, "exact-in"),
            (math.inf, "exact-out"),
            (math.nan, "exact-in"),
            (1e-300, "exact-out"),
        ],
    )
    def test_unpriceable_order_is_an_engine_error(self, name, amount, kind):
        """A non-finite amount is refused everywhere.  An output of 1e-300
        is priced at the spot by every pool's closed-form quotes, as a
        trade that small must be; the bonding pool's ratio move from its
        own (reserve, supply) point no longer rounds its cost to zero."""
        pool, _ = load_pool(name)
        order = TradeOrder("a", pool.tokens[0], pool.tokens[1], amount, kind)
        if amount == 1e-300:
            q = quote(pool, order)
            assert math.isclose(q.amount_in, amount / q.spot_before / (1.0 - pool.fee.trade_fee),
                                rel_tol=1e-15)
            return
        with pytest.raises(AmmError):
            quote(pool, order)


# ---------------------------------------------------------------------------
# swap settlement
# ---------------------------------------------------------------------------


class TestPoolStateFamily:
    """Each pool state binds its pricing family once, when it is built."""

    def test_replace_rebinds_the_level(self):
        """A replaced curve-v1-like state quotes exactly like a pool built
        at its reserves: every price reads the level D of the reserves it
        prices, so a copy made with new reserves cannot price on the old
        state's D."""
        pool, _ = load_pool("curve-v1-like")
        reserves = (130.0, 80.0)
        moved = dataclasses.replace(pool, reserves=reserves)
        built, _ = materialize_pool(dataclasses.replace(BUILTIN_POOLS["curve-v1-like"], reserves=reserves))
        for order in (
            TradeOrder("a", "STABLE0", "STABLE1", 10.0, "exact-in"),
            TradeOrder("a", "STABLE1", "STABLE0", 10.0, "exact-out"),
        ):
            got, expected = quote(moved, order), quote(built, order)
            assert [getattr(got, f.name).hex() for f in dataclasses.fields(got)] == [
                getattr(expected, f.name).hex() for f in dataclasses.fields(expected)
            ]

    def test_equality_and_repr_ignore_the_family(self):
        first, _ = load_pool("curve-v1-like")
        second, _ = load_pool("curve-v1-like")
        assert first.family is not second.family
        assert first == second
        assert "family" not in repr(first)
        assert first != dataclasses.replace(first, reserves=(100.0, 90.0))

    def test_the_family_is_not_an_option(self):
        pool, _ = load_pool("uniswap-v2-like")
        with pytest.raises(ValueError):
            dataclasses.replace(pool, family=pool.family)
        values = {f.name: getattr(pool, f.name) for f in dataclasses.fields(pool) if f.init}
        with pytest.raises(TypeError):
            PoolState(**values, family=pool.family)
        assert PoolState(**values) == pool

    @pytest.mark.parametrize("name", sorted(BUILTIN_POOLS))
    def test_an_opened_pool_is_the_one_the_constructor_builds(self, name):
        """`materialize_pool` checks a config's shape once and then builds
        the pool state slot by slot: that state is the one the constructor
        builds from the same values, whose plain dict of LP shares it makes
        read-only."""
        pool, _ = load_pool(name)
        values = {f.name: getattr(pool, f.name) for f in dataclasses.fields(pool) if f.init}
        built = PoolState(**{**values, "lp_shares": dict(pool.lp_shares)})
        assert built == pool and repr(built) == repr(pool)
        assert type(built.lp_shares) is type(pool.lp_shares) is MappingProxyType
        assert type(built.family) is type(pool.family)
        assert (built.family.curve, built.family.price) == (pool.family.curve, pool.family.price)
        with pytest.raises(TypeError):
            pool.lp_shares["someone"] = 1.0

    @pytest.mark.parametrize("name", sorted(BUILTIN_POOLS))
    def test_an_opened_pool_looks_its_family_up_once(self, name, monkeypatch):
        """`materialize_pool` opens the pool through the family that
        `check_opening` bound and checked, and the pool state keeps it."""
        bound = []

        def counted(curve, price=None):
            bound.append(real(curve, price))
            return bound[-1]

        real = PricingFamily.of
        monkeypatch.setattr(PricingFamily, "of", staticmethod(counted))
        pool, _ = materialize_pool(BUILTIN_POOLS[name])
        assert bound == [pool.family]

    # (pool, changes that leave the state mis-shaped, the shape's refusal)
    MIS_SHAPED = [
        ("dodo-like", {"tokens": ("BASE", "QUOTE", "X"), "reserves": (100.0, 1000.0, 5.0),
                       "accumulated_fees": (0.0,) * 3}, "price adoption is a two-token mechanism"),
        ("uniswap-v2-like", {"archetype": PRICE_ADOPTING_LP_BASED},
         "price-adopting pools need a price-adoption curve"),
        ("augur-like", {"tokens": ("CASH", "OUT0"), "reserves": (1.0, 0.0)},
         "an LMSR pool needs a collateral token and at least two outcomes"),
        ("bancor-like", {"tokens": ("R", "I", "X"), "reserves": (1.0, 0.0, 0.0)},
         "supply-sovereign pools hold (reserve, issued) tokens"),
    ]

    @pytest.mark.parametrize("name, changes, message", MIS_SHAPED, ids=[c[0] for c in MIS_SHAPED])
    def test_a_mis_shaped_state_is_refused_where_it_is_built(self, name, changes, message):
        """Every state checks its shape against its family when it is
        built, so no quote, swap or arbitrage step ever sees a pool of the
        wrong shape: dodo-like with a third token once quoted BASE for
        9.945 X out of a reserve of 5."""
        pool, _ = load_pool(name)
        values = {f.name: getattr(pool, f.name) for f in dataclasses.fields(pool) if f.init}
        with pytest.raises(DomainError) as by_replace:
            dataclasses.replace(pool, **changes)
        with pytest.raises(DomainError) as by_constructor:
            PoolState(**{**values, **changes})
        assert str(by_replace.value) == str(by_constructor.value) == message


class TestExecuteSwap:
    def test_ledger_deltas_equal_and_opposite(self):
        pool, ledgers = make_cp_pool(fee=0.003)
        ledgers = {**ledgers, "T0": new_ledger("T0", {"alice": 100.0, pool.account: 100.0})}
        before_t0 = dict(ledgers["T0"].balances)
        before_t1 = dict(ledgers["T1"].balances)
        pool2, receipt, ledgers2 = execute_swap(
            pool, TradeOrder("alice", "T0", "T1", 10.0, "exact-in"), ledgers
        )
        d_alice_t0 = balance_of(ledgers2["T0"], "alice") - before_t0.get("alice", 0.0)
        d_pool_t0 = balance_of(ledgers2["T0"], pool.account) - before_t0[pool.account]
        d_alice_t1 = balance_of(ledgers2["T1"], "alice") - before_t1.get("alice", 0.0)
        d_pool_t1 = balance_of(ledgers2["T1"], pool.account) - before_t1[pool.account]
        assert math.isclose(d_alice_t0, -10.0, rel_tol=REL)
        assert math.isclose(d_pool_t0, 10.0, rel_tol=REL)
        assert math.isclose(d_alice_t1, receipt.quote.amount_out, rel_tol=REL)
        assert math.isclose(d_pool_t1, -receipt.quote.amount_out, rel_tol=REL)

    def test_reserves_track_pool_balances(self):
        pool, ledgers = make_cp_pool(fee=0.003)
        ledgers = {**ledgers, "T0": new_ledger("T0", {"alice": 100.0, pool.account: 100.0})}
        pool2, receipt, ledgers2 = execute_swap(
            pool, TradeOrder("alice", "T0", "T1", 10.0, "exact-in"), ledgers
        )
        assert math.isclose(pool2.reserves[0], 110.0, rel_tol=REL)
        assert math.isclose(
            pool2.reserves[1], 100.0 - receipt.quote.amount_out, rel_tol=REL
        )
        for i, token in enumerate(pool2.tokens):
            assert math.isclose(
                pool2.reserves[i],
                balance_of(ledgers2[token], pool2.account),
                rel_tol=REL,
            )

    def test_fee_accumulates(self):
        pool, ledgers = make_cp_pool(fee=0.003)
        ledgers = {**ledgers, "T0": new_ledger("T0", {"alice": 100.0, pool.account: 100.0})}
        pool2, receipt, _ = execute_swap(
            pool, TradeOrder("alice", "T0", "T1", 10.0, "exact-in"), ledgers
        )
        assert math.isclose(pool2.accumulated_fees[0], 0.03, rel_tol=REL)
        assert pool2.accumulated_fees[1] == 0.0

    def test_a_missing_ledger_starts_empty(self):
        """Settlement reads each leg's ledger from the mapping; a token the
        mapping lacks starts from an empty ledger, which a mint credits and
        a payer's transfer finds empty."""
        pool, ledgers = load_pool("bancor-like")
        reserve = ledger_mint(ledgers["RESERVE"], "alice", 10.0)
        pool2, receipt, updated = execute_swap(
            pool, TradeOrder("alice", "RESERVE", "ISSUED", 5.0, "exact-in"), {"RESERVE": reserve}
        )
        assert list(updated) == ["RESERVE", "ISSUED"]
        minted = receipt.quote.amount_out
        assert minted > 0.0
        assert dict(updated["ISSUED"].balances) == {"alice": minted}
        assert balance_of(updated["RESERVE"], "alice") == 5.0

        pool, ledgers = load_pool("uniswap-v2-like")
        with pytest.raises(InsufficientBalance) as info:
            execute_swap(
                pool, TradeOrder("bob", "TOKEN0", "TOKEN1", 1.0, "exact-in"),
                {"TOKEN1": ledgers["TOKEN1"]},
            )
        assert str(info.value) == "'bob' holds 0.0 TOKEN0, cannot transfer 1.0"

    def test_insufficient_balance_changes_nothing(self):
        pool, ledgers = make_cp_pool()
        ledgers = {**ledgers, "T0": new_ledger("T0", {"alice": 1.0, pool.account: 100.0})}
        snapshot = {t: dict(l.balances) for t, l in ledgers.items()}
        with pytest.raises(InsufficientBalance):
            execute_swap(pool, TradeOrder("alice", "T0", "T1", 10.0, "exact-in"), ledgers)
        assert {t: dict(l.balances) for t, l in ledgers.items()} == snapshot
        assert pool.reserves == (100.0, 100.0)

    def test_zero_fee_round_trip_restores_reserves(self):
        pool, ledgers = make_cp_pool(fee=0.0)
        ledgers = {**ledgers, "T0": new_ledger("T0", {"alice": 100.0, pool.account: 100.0})}
        ledgers = {**ledgers, "T1": new_ledger("T1", {"alice": 100.0, pool.account: 100.0})}
        pool2, receipt, ledgers = execute_swap(
            pool, TradeOrder("alice", "T0", "T1", 10.0, "exact-in"), ledgers
        )
        pool3, _, ledgers = execute_swap(
            pool2,
            TradeOrder("alice", "T1", "T0", receipt.quote.amount_out, "exact-in"),
            ledgers,
        )
        assert math.isclose(pool3.reserves[0], 100.0, rel_tol=REL)
        assert math.isclose(pool3.reserves[1], 100.0, rel_tol=REL)

    def test_lmsr_buy_mints_shares(self):
        pool, ledgers = make_lmsr_pool()
        ledgers = {**ledgers, "CASH": new_ledger("CASH", {
            "alice": 100.0, pool.account: pool.reserves[0]})}
        pool2, receipt, ledgers2 = execute_swap(
            pool, TradeOrder("alice", "CASH", "OUT0", 10.0, "exact-in"), ledgers
        )
        shares = receipt.quote.amount_out
        assert math.isclose(balance_of(ledgers2["OUT0"], "alice"), shares, rel_tol=REL)
        assert math.isclose(ledgers2["OUT0"].total_supply, shares, rel_tol=REL)
        assert math.isclose(pool2.reserves[1], shares, rel_tol=REL)
        assert math.isclose(pool2.reserves[0], pool.reserves[0] + 10.0, rel_tol=REL)

    def test_lmsr_sell_burns_shares(self):
        pool, ledgers = make_lmsr_pool()
        ledgers = {**ledgers, "CASH": new_ledger("CASH", {
            "alice": 100.0, pool.account: pool.reserves[0]})}
        pool, receipt, ledgers = execute_swap(
            pool, TradeOrder("alice", "CASH", "OUT0", 10.0, "exact-in"), ledgers
        )
        shares = receipt.quote.amount_out
        pool2, receipt2, ledgers2 = execute_swap(
            pool, TradeOrder("alice", "OUT0", "CASH", shares, "exact-in"), ledgers
        )
        assert math.isclose(receipt2.quote.amount_out, 10.0, rel_tol=1e-9)
        assert abs(ledgers2["OUT0"].total_supply) <= 1e-9
        assert abs(pool2.reserves[1]) <= 1e-9

    @pytest.mark.parametrize(
        "token_in, token_out, amount, kind",
        [
            # the bid integrates to exactly the 1000 QUOTE in reserve
            ("BASE", "QUOTE", 1000.0, "exact-in"),
            ("QUOTE", "BASE", 100.0, "exact-out"),
            ("BASE", "QUOTE", 1000.0, "exact-out"),
        ],
    )
    def test_price_adoption_is_never_drained(self, token_in, token_out, amount, kind):
        """A price-adoption pool refuses a trade that would leave either
        reserve at 0, as a conservation curve that is not drainable does."""
        pool, ledgers = load_pool("dodo-like")
        ledgers = {t: ledger_mint(ledgers[t], "alice", 1e6) for t in pool.tokens}
        with pytest.raises(DepletionError):
            execute_swap(pool, TradeOrder("alice", token_in, token_out, amount, kind), ledgers)
        assert pool.reserves == (100.0, 1000.0)

    def test_receipt_mirrors_quote(self):
        pool, ledgers = make_cp_pool(fee=0.003)
        ledgers = {**ledgers, "T0": new_ledger("T0", {"alice": 100.0, pool.account: 100.0})}
        expected = quote(pool, TradeOrder("alice", "T0", "T1", 10.0, "exact-in"))
        _, receipt, _ = execute_swap(
            pool, TradeOrder("alice", "T0", "T1", 10.0, "exact-in"), ledgers
        )
        assert receipt.quote == expected
        assert receipt.trader_deltas["T0"] == -expected.amount_in
        assert receipt.trader_deltas["T1"] == expected.amount_out


def hex_fields(value):
    return [getattr(value, f.name).hex() for f in dataclasses.fields(value)]


class TestReceipts:
    """A swap's receipt prices its quote when first read; it must read as
    the receipt built eagerly from `quote` on the same order, to the bit."""

    # each built-in pool in both directions, but for selling outcome shares
    # of a fresh prediction market, which has none outstanding
    @pytest.mark.parametrize("name, legs", [
        (name, legs) for name in sorted(BUILTIN_POOLS) for legs in ((0, 1), (1, 0))
        if legs == (0, 1) or name != "augur-like"
    ])
    @pytest.mark.parametrize("kind", ["exact-in", "exact-out"])
    def test_a_receipt_reads_as_the_eager_one(self, name, legs, kind):
        pool, ledgers = load_pool(name)
        token_in, token_out = (pool.tokens[k] for k in legs)
        ledgers[token_in] = ledger_mint(ledgers[token_in], "alice", 1000.0)
        order = TradeOrder("alice", token_in, token_out, 3.0, kind)
        priced = quote(pool, order)
        after, receipt, _ = execute_swap(pool, order, ledgers)
        eager = TradeReceipt(
            priced, after.reserves, {token_in: -priced.amount_in, token_out: priced.amount_out}
        )
        assert hex_fields(receipt.quote) == hex_fields(priced)
        assert [(t, d.hex()) for t, d in receipt.trader_deltas.items()] == [
            (t, d.hex()) for t, d in eager.trader_deltas.items()
        ]
        assert [r.hex() for r in receipt.reserves_after] == [r.hex() for r in after.reserves]
        assert receipt == eager and eager == receipt
        # a receipt read first through its repr or equality prices the same
        unread = execute_swap(pool, order, ledgers)[1]
        assert repr(unread) == repr(eager)
        assert execute_swap(pool, order, ledgers)[1] == receipt
        with pytest.raises(AttributeError):
            receipt.quote = priced
        with pytest.raises(dataclasses.FrozenInstanceError):
            after.reserves = pool.reserves

    def test_the_constructor_normalises(self):
        pool, ledgers = load_pool("uniswap-v2-like")
        priced = quote(pool, TradeOrder("alice", "TOKEN0", "TOKEN1", 1.0, "exact-in"))
        receipt = TradeReceipt(priced, [1.0, 2.0], {"TOKEN0": -1.0})
        assert receipt.reserves_after == (1.0, 2.0)
        assert dict(receipt.trader_deltas) == {"TOKEN0": -1.0}
        with pytest.raises(TypeError):
            receipt.trader_deltas["TOKEN0"] = 0.0
        assert receipt != TradeReceipt(priced, (1.0, 2.0), {"TOKEN0": -2.0})
        # against a value that is not a receipt, equality is left to the other side
        assert receipt.__eq__(priced) is NotImplemented
        assert receipt != priced and receipt != None  # noqa: E711


# ---------------------------------------------------------------------------
# LP accounting
# ---------------------------------------------------------------------------


class TestLiquidity:
    def test_proportional_deposit_mints_proportionally(self):
        pool, ledgers = make_cp_pool(reserves=(100.0, 400.0))
        ledgers["T0"] = new_ledger("T0", {"bob": 100.0, pool.account: 100.0})
        ledgers["T1"] = new_ledger("T1", {"bob": 100.0, pool.account: 400.0})
        pool2, minted, ledgers2 = deposit_liquidity(pool, "bob", (10.0, 40.0), ledgers)
        assert math.isclose(minted, 20.0, rel_tol=REL)
        assert math.isclose(pool2.lp_share_supply, 220.0, rel_tol=REL)
        assert math.isclose(pool2.lp_shares["bob"], 20.0, rel_tol=REL)
        assert pool2.reserves == (110.0, 440.0)

    def test_non_proportional_deposit_rejected(self):
        pool, ledgers = make_cp_pool(reserves=(100.0, 400.0))
        ledgers["T0"] = new_ledger("T0", {"bob": 100.0, pool.account: 100.0})
        ledgers["T1"] = new_ledger("T1", {"bob": 100.0, pool.account: 400.0})
        with pytest.raises(DomainError):
            deposit_liquidity(pool, "bob", (10.0, 39.0), ledgers)

    @pytest.mark.parametrize("off, accepted", [(1e-10, True), (1e-8, False)])
    def test_proportionality_is_held_to_one_part_in_a_billion(self, off, accepted):
        """`engine.PROPORTIONAL_TOL` (1e-9): a deposit off-proportion by
        1e-10 relative mints pro rata, one off by 1e-8 is refused."""
        pool, ledgers = make_cp_pool(reserves=(100.0, 400.0))
        ledgers["T0"] = new_ledger("T0", {"bob": 100.0, pool.account: 100.0})
        ledgers["T1"] = new_ledger("T1", {"bob": 100.0, pool.account: 400.0})
        deposit = (10.0, 40.0 * (1.0 + off))
        if not accepted:
            with pytest.raises(DomainError, match="not proportional"):
                deposit_liquidity(pool, "bob", deposit, ledgers)
            return
        after, minted, _ = deposit_liquidity(pool, "bob", deposit, ledgers)
        assert minted == pool.lp_share_supply * 0.1
        assert after.reserves == (110.0, 400.0 + deposit[1])

    def test_deposit_into_an_emptied_reserve(self):
        """An empty leg takes nothing: a deposit proportional on the other
        legs mints pro rata, and one that funds the empty leg is refused."""
        pool, ledgers = load_pool("mstable-2021-like")
        ledgers["STABLE0"] = ledger_mint(ledgers["STABLE0"], "t", 1000.0)
        ledgers["STABLE1"] = ledger_mint(ledgers["STABLE1"], "t", 1000.0)
        order = TradeOrder("t", "STABLE0", "STABLE1", 100.30090270812437, "exact-in")
        pool, _, ledgers = execute_swap(pool, order, ledgers)
        assert pool.reserves[1] == 0.0
        with pytest.raises(DomainError, match="not proportional"):
            deposit_liquidity(pool, "t", (1.0, 1.0), ledgers)
        ratio = 1.0 / pool.reserves[0]
        pool2, minted, _ = deposit_liquidity(pool, "t", (1.0, 0.0), ledgers)
        assert math.isclose(minted, pool.lp_share_supply * ratio, rel_tol=REL)
        assert pool2.reserves == (pool.reserves[0] + 1.0, 0.0)

    def test_first_deposit_after_a_full_withdrawal(self):
        """A pool whose shares were all withdrawn opens again on the next
        deposit, which must fund every token and mints their geometric mean."""
        pool, ledgers = load_pool("uniswap-v2-like")
        pool, _, ledgers = withdraw_liquidity(pool, "creator", 100.0, ledgers)
        assert pool.lp_share_supply == 0.0 and pool.reserves == (0.0, 0.0)
        with pytest.raises(DomainError, match="the first deposit must fund every token"):
            deposit_liquidity(pool, "creator", (5.0, 0.0), ledgers)
        pool, minted, ledgers = deposit_liquidity(pool, "creator", (5.0, 5.0), ledgers)
        assert minted == 5.0
        assert pool.lp_share_supply == 5.0 and pool.reserves == (5.0, 5.0)
        priced = quote(pool, TradeOrder("creator", "TOKEN0", "TOKEN1", 1.0, "exact-in"))
        assert math.isclose(priced.amount_out, 5.0 * 0.997 / (5.0 + 0.997), rel_tol=REL)

    def test_zero_deposit_mints_zero(self):
        pool, ledgers = make_cp_pool(reserves=(100.0, 400.0))
        pool2, minted, _ = deposit_liquidity(pool, "bob", (0.0, 0.0), ledgers)
        assert minted == 0.0
        assert pool2.reserves == pool.reserves

    def test_pro_rata_withdrawal(self):
        pool, ledgers = make_cp_pool(reserves=(100.0, 400.0))
        pool2, amounts, ledgers2 = withdraw_liquidity(pool, "creator", 100.0, ledgers)
        assert math.isclose(amounts[0], 50.0, rel_tol=REL)
        assert math.isclose(amounts[1], 200.0, rel_tol=REL)
        assert math.isclose(pool2.lp_share_supply, 100.0, rel_tol=REL)
        assert math.isclose(pool2.reserves[0], 50.0, rel_tol=REL)

    def test_withdraw_zero_pays_zero(self):
        pool, ledgers = make_cp_pool()
        _, amounts, _ = withdraw_liquidity(pool, "creator", 0.0, ledgers)
        assert amounts == (0.0, 0.0)

    def test_withdraw_more_than_held_rejected(self):
        pool, ledgers = make_cp_pool()
        with pytest.raises(InsufficientBalance):
            withdraw_liquidity(pool, "creator", pool.lp_share_supply + 1.0, ledgers)

    def test_immediate_round_trip_returns_deposit(self):
        pool, ledgers = make_cp_pool(reserves=(123.0, 456.0))
        pool2, amounts, ledgers2 = withdraw_liquidity(
            pool, "creator", pool.lp_share_supply, ledgers
        )
        assert math.isclose(amounts[0], 123.0, rel_tol=REL)
        assert math.isclose(amounts[1], 456.0, rel_tol=REL)
        assert math.isclose(balance_of(ledgers2["T0"], "creator"), 1e6, rel_tol=REL)

    def test_full_withdrawal_after_trades_drains_pool(self):
        pool, ledgers = make_cp_pool(fee=0.003)
        ledgers["T0"] = new_ledger("T0", {"alice": 500.0, pool.account: 100.0})
        ledgers["T1"] = new_ledger("T1", {"alice": 500.0, pool.account: 100.0})
        for amount, tin, tout in [(10.0, "T0", "T1"), (5.0, "T1", "T0"), (2.5, "T0", "T1")]:
            pool, _, ledgers = execute_swap(
                pool, TradeOrder("alice", tin, tout, amount, "exact-in"), ledgers
            )
        reserves_before = pool.reserves
        pool2, amounts, ledgers2 = withdraw_liquidity(
            pool, "creator", pool.lp_share_supply, ledgers
        )
        for got, want in zip(amounts, reserves_before):
            assert math.isclose(got, want, rel_tol=REL)
        assert all(abs(r) <= 1e-9 for r in pool2.reserves)

    def test_fees_accrue_to_lp_value(self):
        # a round trip at fee > 0 leaves both reserves above their start
        pool, ledgers = make_cp_pool(fee=0.01)
        ledgers["T0"] = new_ledger("T0", {"alice": 500.0, pool.account: 100.0})
        ledgers["T1"] = new_ledger("T1", {"alice": 500.0, pool.account: 100.0})
        pool, receipt, ledgers = execute_swap(
            pool, TradeOrder("alice", "T0", "T1", 10.0, "exact-in"), ledgers
        )
        pool, _, ledgers = execute_swap(
            pool,
            TradeOrder("alice", "T1", "T0", 100.0 - pool.reserves[1], "exact-in"),
            ledgers,
        )
        assert math.isclose(pool.reserves[1], 100.0, rel_tol=REL)
        assert pool.reserves[0] > 100.0

    def test_unsupported_for_sovereign_and_lmsr(self):
        sov, sov_ledgers = make_sovereign_pool()
        with pytest.raises(UnsupportedOperation):
            deposit_liquidity(sov, "bob", (1.0, 0.0), sov_ledgers)
        lmsr, lmsr_ledgers = make_lmsr_pool()
        with pytest.raises(UnsupportedOperation):
            withdraw_liquidity(lmsr, "creator", 1.0, lmsr_ledgers)


# ---------------------------------------------------------------------------
# supply-sovereign mint/burn
# ---------------------------------------------------------------------------


class TestSupplySovereign:
    def test_bootstrap_buy_mints_closed_form(self):
        pool, ledgers = make_sovereign_pool(kappa=2.0, c=1.0)
        ledgers["RESERVE"] = new_ledger("RESERVE", {"alice": 100.0})
        pool2, minted, ledgers2 = curve_buy(pool, "alice", 100.0, ledgers)
        assert math.isclose(minted, 10.0, rel_tol=REL)
        assert math.isclose(pool2.circulating_supply, 10.0, rel_tol=REL)
        assert math.isclose(pool2.reserves[0], 100.0, rel_tol=REL)
        assert math.isclose(balance_of(ledgers2["ISSUED"], "alice"), 10.0, rel_tol=REL)

    def test_full_sell_returns_everything(self):
        pool, ledgers = make_sovereign_pool(kappa=2.0, c=1.0)
        ledgers["RESERVE"] = new_ledger("RESERVE", {"alice": 100.0})
        pool, minted, ledgers = curve_buy(pool, "alice", 100.0, ledgers)
        pool2, payout, ledgers2 = curve_sell(pool, "alice", minted, ledgers)
        assert math.isclose(payout, 100.0, rel_tol=REL)
        assert abs(pool2.reserves[0]) <= 1e-6 * 100.0
        assert pool2.circulating_supply == 0.0
        assert math.isclose(balance_of(ledgers2["RESERVE"], "alice"), 100.0, rel_tol=REL)

    def test_buy_zero_mints_zero(self):
        pool, ledgers = make_sovereign_pool()
        pool2, minted, _ = curve_buy(pool, "alice", 0.0, ledgers)
        assert minted == 0.0
        assert pool2.reserves == pool.reserves

    def test_fee_excluded_from_bonding(self):
        pool, ledgers = make_sovereign_pool(fee=0.003, kappa=2.0, c=1.0)
        ledgers["RESERVE"] = new_ledger("RESERVE", {"alice": 100.0})
        pool2, minted, ledgers2 = curve_buy(pool, "alice", 100.0, ledgers)
        assert math.isclose(minted, math.sqrt(99.7), rel_tol=REL)
        assert math.isclose(pool2.reserves[0], 99.7, rel_tol=REL)
        assert math.isclose(pool2.accumulated_fees[0], 0.3, rel_tol=REL)
        # pool ledger balance carries bonded reserve plus retained fees
        assert math.isclose(
            balance_of(ledgers2["RESERVE"], pool2.account), 100.0, rel_tol=REL
        )
        # solvency identity on the bonded portion stays exact
        assert math.isclose(
            pool2.reserves[0], pool2.circulating_supply**2.0 / 1.0, rel_tol=REL
        )

    def test_sell_fee_comes_out_of_payout(self):
        pool, ledgers = make_sovereign_pool(fee=0.01, kappa=2.0, c=1.0)
        ledgers["RESERVE"] = new_ledger("RESERVE", {"alice": 100.0})
        pool, minted, ledgers = curve_buy(pool, "alice", 100.0, ledgers)
        pool2, payout, ledgers2 = curve_sell(pool, "alice", minted, ledgers)
        raw = 99.0  # the whole bonded reserve
        assert math.isclose(payout, raw * 0.99, rel_tol=REL)
        assert abs(pool2.reserves[0]) <= 1e-9
        assert math.isclose(pool2.accumulated_fees[0], 1.0 + raw * 0.01, rel_tol=REL)

    def test_sell_beyond_balance_rejected(self):
        pool, ledgers = make_sovereign_pool()
        ledgers["RESERVE"] = new_ledger("RESERVE", {"alice": 100.0, "bob": 100.0})
        pool, minted, ledgers = curve_buy(pool, "alice", 100.0, ledgers)
        pool, _, ledgers = curve_buy(pool, "bob", 100.0, ledgers)  # so alice oversells within the supply
        with pytest.raises(InsufficientBalance):
            curve_sell(pool, "alice", minted + 1.0, ledgers)

    def test_execute_swap_delegates_to_mint_and_burn(self):
        pool, ledgers = make_sovereign_pool(kappa=2.0, c=1.0)
        ledgers["RESERVE"] = new_ledger("RESERVE", {"alice": 200.0})
        pool2, receipt, ledgers2 = execute_swap(
            pool, TradeOrder("alice", "RESERVE", "ISSUED", 100.0, "exact-in"), ledgers
        )
        assert math.isclose(receipt.quote.amount_out, 10.0, rel_tol=REL)
        pool3, receipt2, _ = execute_swap(
            pool2, TradeOrder("alice", "ISSUED", "RESERVE", 10.0, "exact-in"), ledgers2
        )
        assert math.isclose(receipt2.quote.amount_out, 100.0, rel_tol=REL)

    def test_curve_ops_on_wrong_archetype_rejected(self):
        pool, ledgers = make_cp_pool()
        with pytest.raises(UnsupportedOperation):
            curve_buy(pool, "alice", 1.0, ledgers)
        with pytest.raises(UnsupportedOperation):
            curve_sell(pool, "alice", 1.0, ledgers)

    @given(
        spends=st.lists(st.floats(min_value=0.1, max_value=50.0), min_size=1, max_size=8),
        kappa=st.sampled_from([1.5, 2.0, 3.0]),
    )
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_solvency_identity_over_random_histories(self, spends, kappa):
        pool, ledgers = make_sovereign_pool(kappa=kappa, c=1.0)
        ledgers["RESERVE"] = new_ledger("RESERVE", {"alice": 1e6})
        for i, spend in enumerate(spends):
            pool, minted, ledgers = curve_buy(pool, "alice", spend, ledgers)
            if i % 2 == 1 and pool.circulating_supply > 0.0:
                pool, _, ledgers = curve_sell(
                    pool, "alice", 0.5 * pool.circulating_supply, ledgers
                )
            if pool.circulating_supply > 0.0:
                implied = pool.circulating_supply**kappa / 1.0
                assert math.isclose(pool.reserves[0], implied, rel_tol=1e-9)
        # the whole supply can always be sold back
        held = balance_of(ledgers["ISSUED"], "alice")
        if held > 0.0:
            pool, payout, ledgers = curve_sell(pool, "alice", held, ledgers)
            assert pool.circulating_supply <= 1e-12
            assert abs(pool.reserves[0]) <= 1e-6 * 1e6


    def test_a_near_total_sale_leaves_no_half_empty_state(self):
        """On bancor-like, a sale of all but 1e-10 of the supply pays out
        R * (1 - 1e-20), which rounds to all of R, and would leave the last
        1e-9 of the supply behind no reserve: a state that no quote prices,
        buys included.  The sale is refused, and the pool still trades."""
        pool, ledgers = load_pool("bancor-like")
        sold = pool.circulating_supply * (1.0 - 1e-10)
        with pytest.raises(DepletionError, match="half-empty"):
            curve_sell(pool, BOOTSTRAP_ACCOUNT, sold, ledgers)
        ledgers["RESERVE"] = ledger_mint(ledgers["RESERVE"], "alice", 1.0)
        assert curve_buy(pool, "alice", 1.0, ledgers)[1] > 0.0

    @given(
        kappa=st.floats(min_value=0.2, max_value=40.0),
        kept=st.one_of(st.just(-math.inf), st.floats(min_value=-15.0, max_value=-0.01)),
        kind=st.sampled_from(["exact-in", "exact-out"]),
        fee=st.sampled_from([0.0, 0.003]),
    )
    @settings(max_examples=300, deadline=None, derandomize=True)
    def test_a_sale_empties_both_legs_or_neither(self, kappa, kept, kind, fee):
        """A sale by the lone holder of all but 10**kept of the supply (exact
        in), or of the reserve (exact out), down to 1e-15 of it: it is
        refused with DepletionError, returns the pool to the origin, or
        leaves both legs positive, where a buy still prices."""
        spec = (
            "archetype = price-discovering-supply-sovereign\ncurve = exponential\n"
            f"tokens = RESERVE, ISSUED\nreserves = 100, 0\nfee = {fee!r}\n"
            f"kappa = {kappa!r}\nc = 1\n"
        )
        pool, ledgers = materialize_pool(parse_pool_spec(spec))
        sold = 1.0 - 10.0**kept
        try:
            if kind == "exact-in":
                pool, _, ledgers = curve_sell(
                    pool, BOOTSTRAP_ACCOUNT, pool.circulating_supply * sold, ledgers
                )
            else:
                order = TradeOrder(
                    BOOTSTRAP_ACCOUNT, "ISSUED", "RESERVE", pool.reserves[0] * sold * (1.0 - fee), kind
                )
                pool, _, ledgers = execute_swap(pool, order, ledgers)
        except DepletionError:
            return
        reserve, supply = pool.reserves[0], pool.circulating_supply
        assert (reserve > 0.0) == (supply > 0.0)
        ledgers["RESERVE"] = ledger_mint(ledgers["RESERVE"], "alice", 1.0)
        assert curve_buy(pool, "alice", 1.0, ledgers)[1] > 0.0

    @pytest.mark.parametrize("size", [1e-9, 1e-6, 1.0])
    def test_a_buy_sold_back_pays_what_it_cost(self, size):
        # a cost read as a difference of two powers paid 1.8e-5 too much at 1e-9
        pool, ledgers = load_pool("bancor-like")
        ledgers["RESERVE"] = ledger_mint(ledgers["RESERVE"], "alice", size)
        pool, minted, ledgers = curve_buy(pool, "alice", size, ledgers)
        _, paid, _ = curve_sell(pool, "alice", minted, ledgers)
        assert abs(paid - size) <= 4.0 * math.ulp(size)

    def test_a_long_history_stays_on_its_curve(self):
        """3,000 buys and sales of up to 99.9% of a lone holder's balance,
        from an empty pool.  At fee 0 the pool account holds exactly the
        bonded reserve after every event; the reserve stays within 1e-6 of
        S**kappa / c, which a reserve and supply moved by separate float
        sums missed by up to 0.97 at kappa 3; the last full exit empties
        the pool."""
        for kappa in (0.5, 2.0, 3.0):
            for fee in (0.0, 0.003, 0.9):
                rng = random.Random(19)
                pool, ledgers = make_sovereign_pool(fee=fee, kappa=kappa, c=2.0)
                ledgers["RESERVE"] = new_ledger("RESERVE", {"alice": 1e12})
                for _ in range(3000):
                    held = balance_of(ledgers["ISSUED"], "alice")
                    if held > 0.0 and rng.random() < 0.5:
                        sold = held * rng.uniform(0.01, 0.999)
                        pool, _, ledgers = curve_sell(pool, "alice", sold, ledgers)
                    else:
                        spent = math.exp(rng.uniform(math.log(0.1), math.log(1000.0)))
                        pool, _, ledgers = curve_buy(pool, "alice", spent, ledgers)
                    reserve, supply = pool.reserves[0], pool.circulating_supply
                    if fee == 0.0:
                        assert balance_of(ledgers["RESERVE"], pool.account) == reserve
                    assert abs(reserve - supply**kappa / 2.0) <= 1e-6 * reserve
                held = balance_of(ledgers["ISSUED"], "alice")
                pool, _, ledgers = curve_sell(pool, "alice", held, ledgers)
                assert pool.reserves[0] == 0.0 and pool.circulating_supply == 0.0

    @pytest.mark.parametrize("fee", [0.0, 0.003])
    @pytest.mark.parametrize("kind", ["exact-in", "exact-out"])
    def test_swap_settles_the_quote_it_returns(self, kind, fee):
        # ledgers and the supply tracker move by exactly the receipt's
        # amounts, bit for bit, in both directions
        pool, ledgers = make_sovereign_pool(fee=fee, kappa=3.0, c=1.0)
        ledgers["RESERVE"] = new_ledger("RESERVE", {"alice": 1e12})
        pool, _, ledgers = curve_buy(pool, "alice", 100.0, ledgers)
        rng = random.Random(5)
        for _ in range(200):
            buying = rng.random() < 0.5
            token_in, token_out = ("RESERVE", "ISSUED") if buying else ("ISSUED", "RESERVE")
            sized = token_in if kind == "exact-in" else token_out
            held = pool.circulating_supply if sized == "ISSUED" else pool.reserves[0]
            size = rng.uniform(0.01, 0.1) * held
            order = TradeOrder("alice", token_in, token_out, size, kind)
            before = {t: balance_of(ledgers[t], "alice") for t in ("RESERVE", "ISSUED")}
            supply = pool.circulating_supply
            issued = ledgers["ISSUED"].total_supply
            pool, receipt, ledgers = execute_swap(pool, order, ledgers)
            q = receipt.quote
            assert receipt.trader_deltas == {token_in: -q.amount_in, token_out: q.amount_out}
            assert balance_of(ledgers[token_in], "alice") == before[token_in] - q.amount_in
            assert balance_of(ledgers[token_out], "alice") == before[token_out] + q.amount_out
            if buying:
                assert pool.circulating_supply == supply + q.amount_out
                assert ledgers["ISSUED"].total_supply == issued + q.amount_out
            else:
                assert pool.circulating_supply == supply - q.amount_in
                assert ledgers["ISSUED"].total_supply == issued - q.amount_in


# ---------------------------------------------------------------------------
# sales of issued legs: one trade path, and every holder sells out
# ---------------------------------------------------------------------------


HOLDERS = tuple(f"h{k}" for k in range(5))


def issuing_pool(name):
    """(pool, ledgers, reserve token, issued token) of a built-in issuing
    pool that nobody holds yet: the bonding curve unprimed, so that its
    holders own the whole supply; five holders funded in the reserve."""
    config = BUILTIN_POOLS[name]
    if name == "bancor-like":
        config = dataclasses.replace(config, reserves=(0.0, 0.0))
    pool, ledgers = materialize_pool(config)
    cash, issued = pool.tokens[0], pool.tokens[1]
    for holder in HOLDERS:
        ledgers[cash] = ledger_mint(ledgers[cash], holder, 1e6)
    return pool, ledgers, cash, issued


class TestIssuedLegSales:
    """A pool's outstanding amount is a running float sum and the ledger's
    supply the exact sum of its balances; `execute_swap` prices a sale
    within float dust of the outstanding amount at that amount, so that
    the two never strand a holder."""

    @pytest.mark.parametrize("name", ["bancor-like", "augur-like"])
    def test_every_holder_sells_out(self, name):
        """5 holders, 20 seeded buys, then a sale of every whole balance,
        all through `execute_swap`, 200 times: each exit settles, and the
        pool ends with nothing outstanding."""
        rng = random.Random(f"sell-out-{name}")
        for _ in range(200):
            pool, ledgers, cash, issued = issuing_pool(name)
            for _ in range(20):
                order = TradeOrder(rng.choice(HOLDERS), cash, issued, rng.uniform(0.1, 50.0), "exact-in")
                pool, _, ledgers = execute_swap(pool, order, ledgers)
            for holder in HOLDERS:
                held = balance_of(ledgers[issued], holder)
                if held > 0.0:
                    order = TradeOrder(holder, issued, cash, held, "exact-in")
                    pool, receipt, ledgers = execute_swap(pool, order, ledgers)
                    assert receipt.quote.amount_in == held
                    assert balance_of(ledgers[issued], holder) == 0.0
            assert ledgers[issued].total_supply == 0.0
            if name == "bancor-like":
                assert pool.reserves == (0.0, 0.0) and pool.circulating_supply == 0.0
            else:
                assert pool.reserves[1] == 0.0

    def dusty(self, excess):
        """A bonding pool at supply S whose one holder holds S * (1 +
        excess), as rounding could leave it, and that holding."""
        pool, ledgers, cash, issued = issuing_pool("bancor-like")
        pool, _, ledgers = execute_swap(pool, TradeOrder("h0", cash, issued, 100.0, "exact-in"), ledgers)
        held = pool.circulating_supply * (1.0 + excess)
        ledgers[issued] = new_ledger(issued, {"h0": held})
        return pool, ledgers, TradeOrder("h0", issued, cash, held, "exact-in")

    def test_a_sale_past_the_supply_by_dust_burns_it_all(self):
        pool, ledgers, order = self.dusty(5e-10)
        after, receipt, ledgers = execute_swap(pool, order, ledgers)
        assert after.reserves == (0.0, 0.0) and after.circulating_supply == 0.0
        assert receipt.quote.amount_in == order.amount
        assert receipt.trader_deltas == {"ISSUED": -order.amount, "RESERVE": pool.reserves[0]}
        assert ledgers["ISSUED"].total_supply == 0.0
        # a quote reads no ledgers: it prices the order as given
        with pytest.raises(DepletionError):
            quote(pool, order)

    def test_a_sale_past_the_supply_by_more_than_dust_is_refused(self):
        pool, ledgers, order = self.dusty(2e-9)
        with pytest.raises(DepletionError):
            execute_swap(pool, order, ledgers)

    def test_a_whole_ledger_far_below_the_supply_sells_as_given(self):
        """Ledgers that leave out the bootstrap holder's supply: the one
        holder in them sells what it holds, not the pool's whole supply."""
        pool, ledgers = materialize_pool(BUILTIN_POOLS["bancor-like"])  # supply 10, held by bootstrap
        ledgers = {"RESERVE": ledger_mint(ledgers["RESERVE"], "h0", 1.0), "ISSUED": new_ledger("ISSUED")}
        pool, minted, ledgers = curve_buy(pool, "h0", 1.0, ledgers)
        order = TradeOrder("h0", "ISSUED", "RESERVE", minted, "exact-in")
        expected = quote(pool, order)
        after, payout, ledgers = curve_sell(pool, "h0", minted, ledgers)
        assert payout == expected.amount_out <= 1.0  # what the buy cost, not the reserve
        assert after.circulating_supply == pool.circulating_supply - minted

    def test_curve_buy_and_sell_settle_through_execute_swap(self):
        pool, ledgers, cash, issued = issuing_pool("bancor-like")
        for amount, token_in, token_out in ((40.0, cash, issued), (3.0, issued, cash)):
            order = TradeOrder("h0", token_in, token_out, amount, "exact-in")
            swapped, receipt, swapped_ledgers = execute_swap(pool, order, ledgers)
            trade = curve_buy if token_in == cash else curve_sell
            bonded, paid_out, bonded_ledgers = trade(pool, "h0", amount, ledgers)
            assert (bonded, bonded_ledgers) == (swapped, swapped_ledgers)
            assert paid_out == receipt.quote.amount_out
            pool, ledgers = bonded, bonded_ledgers


def _own_account_calls() -> dict:
    """Each entry point, called by the pool's own account on a built-in
    pool and its ledgers, in which that account holds the pool's reserves:
    name -> (pool, ledgers, call)."""
    from ammlab.sim import arbitrage_step

    cp, cp_ledgers = materialize_pool(BUILTIN_POOLS["uniswap-v2-like"])
    bond, bond_ledgers = materialize_pool(BUILTIN_POOLS["bancor-like"])
    swap = TradeOrder(cp.account, "TOKEN0", "TOKEN1", 10.0, "exact-in")
    return {
        "quote": (cp, cp_ledgers, lambda: quote(cp, swap)),
        "execute_swap": (cp, cp_ledgers, lambda: execute_swap(cp, swap, cp_ledgers)),
        "arbitrage_step": (cp, cp_ledgers, lambda: arbitrage_step(cp, 2.0, cp.account, cp_ledgers)),
        "deposit_liquidity": (cp, cp_ledgers,
                              lambda: deposit_liquidity(cp, cp.account, (10.0, 10.0), cp_ledgers)),
        "curve_buy": (bond, bond_ledgers, lambda: curve_buy(bond, bond.account, 10.0, bond_ledgers)),
        "curve_sell": (bond, bond_ledgers, lambda: curve_sell(bond, bond.account, 1.0, bond_ledgers)),
    }


@pytest.mark.parametrize("name", ["quote", "execute_swap", "arbitrage_step", "deposit_liquidity",
                                  "curve_buy", "curve_sell"])
def test_the_pools_own_account_neither_trades_nor_provides_liquidity(name):
    """Its transfers to and from the pool move no balance, so a trade or a
    deposit would move the pool state alone: a uniswap-v2-like swap of 10
    left reserves (110, 90.93) against balances (100, 100)."""
    pool, ledgers, call = _own_account_calls()[name]
    balances = {token: dict(ledger.balances) for token, ledger in ledgers.items()}
    with pytest.raises(DomainError) as raised:
        call()
    assert str(raised.value) == (
        f"the pool's own account {pool.account!r} cannot trade or provide liquidity")
    assert {token: dict(ledger.balances) for token, ledger in ledgers.items()} == balances


# ---------------------------------------------------------------------------
# oracle adoption
# ---------------------------------------------------------------------------


class TestOracle:
    def test_set_oracle_price_updates_quotes(self):
        pool, _ = make_pmm_pool(oracle=None)
        pool = set_oracle_price(pool, 10.0)
        q = quote(pool, TradeOrder("a", "BASE", "QUOTE", 1e-8, "exact-in"))
        assert math.isclose(q.mean_price, 10.0, rel_tol=1e-6)
        pool = set_oracle_price(pool, 20.0)
        q = quote(pool, TradeOrder("a", "BASE", "QUOTE", 1e-8, "exact-in"))
        assert math.isclose(q.mean_price, 20.0, rel_tol=1e-6)

    def test_reserves_unchanged_by_oracle_update(self):
        pool, _ = make_pmm_pool(oracle=10.0)
        pool2 = set_oracle_price(pool, 12.0)
        assert pool2.reserves == pool.reserves

    def test_the_adopting_state_is_the_constructors_and_binds_its_price(self):
        pool, _ = make_pmm_pool(oracle=10.0)
        adopted = set_oracle_price(pool, 12.0)
        values = {f.name: getattr(pool, f.name) for f in dataclasses.fields(pool) if f.init}
        built = PoolState(**{**values, "oracle_price": 12.0})
        assert adopted == built and repr(adopted) == repr(built)
        assert type(adopted.family) is type(built.family)
        assert adopted.family.curve is pool.curve
        assert adopted.family.price == 12.0
        assert pool.family.price == 10.0
        order = TradeOrder("a", "BASE", "QUOTE", 1.0, "exact-in")
        assert quote(adopted, order) == quote(built, order)

    def test_wrong_archetype_rejected(self):
        pool, _ = make_cp_pool()
        with pytest.raises(UnsupportedOperation):
            set_oracle_price(pool, 10.0)

    def test_non_positive_price_rejected(self):
        pool, _ = make_pmm_pool()
        with pytest.raises(DomainError):
            set_oracle_price(pool, 0.0)
        with pytest.raises(DomainError):
            set_oracle_price(pool, -1.0)

    @pytest.mark.parametrize("price", [math.inf, math.nan])
    def test_non_finite_price_rejected(self, price):
        pool, _ = make_pmm_pool()
        with pytest.raises(DomainError):
            set_oracle_price(pool, price)
        with pytest.raises(DomainError):
            make_pmm_pool(oracle=price)


# ---------------------------------------------------------------------------
# prediction resolution
# ---------------------------------------------------------------------------


class TestResolvePrediction:
    def _pool_with_positions(self):
        pool, ledgers = make_lmsr_pool()
        ledgers["CASH"] = new_ledger(
            "CASH", {"alice": 100.0, "bob": 100.0, pool.account: pool.reserves[0]}
        )
        pool, r1, ledgers = execute_swap(
            pool, TradeOrder("alice", "CASH", "OUT0", 20.0, "exact-in"), ledgers
        )
        pool, r2, ledgers = execute_swap(
            pool, TradeOrder("bob", "CASH", "OUT1", 15.0, "exact-in"), ledgers
        )
        return pool, ledgers, r1.quote.amount_out, r2.quote.amount_out

    def test_winning_shares_redeem_one_to_one(self):
        pool, ledgers, alice_shares, _ = self._pool_with_positions()
        cash_before = balance_of(ledgers["CASH"], "alice")
        pool2, ledgers2 = resolve_prediction(pool, 0, ledgers)
        assert math.isclose(
            balance_of(ledgers2["CASH"], "alice") - cash_before,
            alice_shares,
            rel_tol=REL,
        )
        assert balance_of(ledgers2["OUT0"], "alice") == 0.0
        assert pool2.closed

    def test_losing_shares_redeem_nothing(self):
        pool, ledgers, _, _ = self._pool_with_positions()
        cash_before = balance_of(ledgers["CASH"], "bob")
        _, ledgers2 = resolve_prediction(pool, 0, ledgers)
        assert balance_of(ledgers2["CASH"], "bob") == cash_before

    def test_collateral_never_runs_out(self):
        pool, ledgers, alice_shares, _ = self._pool_with_positions()
        assert pool.reserves[0] >= alice_shares - 1e-9
        pool2, ledgers2 = resolve_prediction(pool, 0, ledgers)
        assert balance_of(ledgers2["CASH"], pool2.account) >= -1e-12

    def test_remainder_swept_to_creator(self):
        pool, ledgers, alice_shares, _ = self._pool_with_positions()
        creator_before = balance_of(ledgers["CASH"], "creator")
        pool2, ledgers2 = resolve_prediction(pool, 0, ledgers)
        swept = balance_of(ledgers2["CASH"], "creator") - creator_before
        assert math.isclose(swept, pool.reserves[0] - alice_shares, rel_tol=1e-9)
        assert balance_of(ledgers2["CASH"], pool2.account) == 0.0

    def test_double_resolution_rejected(self):
        pool, ledgers, _, _ = self._pool_with_positions()
        pool2, ledgers2 = resolve_prediction(pool, 0, ledgers)
        with pytest.raises(UnsupportedOperation):
            resolve_prediction(pool2, 0, ledgers2)

    def test_trading_after_close_rejected(self):
        pool, ledgers, _, _ = self._pool_with_positions()
        pool2, ledgers2 = resolve_prediction(pool, 0, ledgers)
        with pytest.raises(UnsupportedOperation):
            quote(pool2, TradeOrder("alice", "CASH", "OUT0", 1.0, "exact-in"))

    def test_unknown_outcome_rejected(self):
        pool, ledgers, _, _ = self._pool_with_positions()
        with pytest.raises(DomainError):
            resolve_prediction(pool, 3, ledgers)

    def test_non_lmsr_pool_rejected(self):
        pool, ledgers = make_cp_pool()
        with pytest.raises(UnsupportedOperation):
            resolve_prediction(pool, 0, ledgers)

    def test_a_winning_holder_at_balance_zero_is_passed_over(self):
        pool, ledgers, alice_shares, _ = self._pool_with_positions()
        ledgers["OUT0"] = new_ledger("OUT0", {**ledgers["OUT0"].balances, "carol": 0.0})
        assert "carol" in ledgers["OUT0"].balances
        pool2, ledgers2 = resolve_prediction(pool, 0, ledgers)
        assert "carol" not in ledgers2["CASH"].balances
        assert math.isclose(balance_of(ledgers2["CASH"], "alice"), 80.0 + alice_shares, rel_tol=REL)
        assert pool2.closed

    def test_winning_shares_the_pool_account_holds_are_not_redeemed(self):
        """The pool pays no collateral to itself: shares sent to its account
        stay there, and its leftover collateral still goes to the creator."""
        pool, ledgers, alice_shares, _ = self._pool_with_positions()
        ledgers["OUT0"] = ledger_mint(ledgers["OUT0"], pool.account, 5.0)
        pool2, ledgers2 = resolve_prediction(pool, 0, ledgers)
        assert balance_of(ledgers2["OUT0"], pool.account) == 5.0
        assert balance_of(ledgers2["OUT0"], "alice") == 0.0
        assert balance_of(ledgers2["CASH"], pool.account) == 0.0
        assert pool2.closed


# ---------------------------------------------------------------------------
# pool specification files and built-ins
# ---------------------------------------------------------------------------


class TestPoolSpecFiles:
    CP_TEXT = """
archetype = price-discovering-lp-based
curve = constant-product
tokens = T0, T1
reserves = 100, 100
fee = 0.003
"""

    def test_parse_round_trip(self):
        config = parse_pool_spec(self.CP_TEXT)
        assert config.archetype == PRICE_DISCOVERING_LP_BASED
        assert config.tokens == ("T0", "T1")
        assert config.curve == ConstantProduct()
        assert config.reserves == (100.0, 100.0)
        assert config.fee_rate == 0.003

    def test_unknown_key_rejected(self):
        with pytest.raises(DomainError):
            parse_pool_spec(self.CP_TEXT + "mystery = 1\n")

    def test_unknown_curve_rejected(self):
        with pytest.raises(DomainError):
            parse_pool_spec(self.CP_TEXT.replace("constant-product", "hyperbolic"))

    def test_missing_required_key_rejected(self):
        text = "\n".join(
            line for line in self.CP_TEXT.splitlines() if not line.startswith("tokens")
        )
        with pytest.raises(DomainError):
            parse_pool_spec(text)

    def test_length_mismatch_rejected(self):
        with pytest.raises(DomainError):
            parse_pool_spec(self.CP_TEXT.replace("reserves = 100, 100", "reserves = 100"))

    def test_comments_and_blank_lines_ignored(self):
        config = parse_pool_spec("# a comment\n\n" + self.CP_TEXT)
        assert config.curve == ConstantProduct()

    def test_curve_parameters_parsed(self):
        text = """
archetype = price-adopting-lp-based
curve = price-adoption
tokens = BASE, QUOTE
reserves = 100, 1000
target_reserves = 100, 1000
fee = 0
k = 0.5
oracle_price = 10
"""
        config = parse_pool_spec(text)
        assert config.curve == PriceAdoption(k=0.5, target_reserves=(100.0, 1000.0))
        assert config.oracle_price == 10.0

    # one case per curve; the keys after the common ones are the curve's
    CURVE_CASES = {
        "constant-product": ("", ConstantProduct()),
        "geometric-mean": ("weights = 0.25, 0.75\n", GeometricMean(weights=(0.25, 0.75))),
        "constant-sum": ("", ConstantSum()),
        "constant-product-sum": ("chi = 10\n", ConstantProductSum(chi=10.0)),
        "constant-power-sum": ("t = 0.5\n", ConstantPowerSum(t=0.5)),
        "lmsr": ("b = 100\n", Lmsr(b=100.0)),
        "price-adoption": (
            "k = 0.5\ntarget_reserves = 100, 1000\n",
            PriceAdoption(k=0.5, target_reserves=(100.0, 1000.0)),
        ),
        "exponential": ("kappa = 2\nc = 1\n", Exponential(kappa=2.0, c=1.0)),
    }

    def _spec(self, curve_name: str, params: str) -> str:
        return self.CP_TEXT.replace("constant-product", curve_name) + params

    def test_every_curve_has_a_case(self):
        assert sorted(self.CURVE_CASES) == sorted(c.spec_name for c in CURVES)

    @pytest.mark.parametrize("curve_name", sorted(CURVE_CASES))
    def test_every_curve_parses(self, curve_name):
        params, expected = self.CURVE_CASES[curve_name]
        assert parse_pool_spec(self._spec(curve_name, params)).curve == expected

    @pytest.mark.parametrize(
        "curve_name", sorted(name for name, (params, _) in CURVE_CASES.items() if params)
    )
    def test_first_missing_curve_key_is_named(self, curve_name):
        params, _ = self.CURVE_CASES[curve_name]
        keys = [line.split("=")[0].strip() for line in params.splitlines()]
        with pytest.raises(DomainError, match=f"requires key '{keys[0]}'"):
            parse_pool_spec(self._spec(curve_name, ""))

    @pytest.mark.parametrize("curve_name", sorted(CURVE_CASES))
    def test_keys_of_other_curves_rejected(self, curve_name):
        params, _ = self.CURVE_CASES[curve_name]
        stray = "b = 5\n" if curve_name != "lmsr" else "chi = 5\n"
        with pytest.raises(DomainError, match="do not apply to curve"):
            parse_pool_spec(self._spec(curve_name, params + stray))

    def test_load_pool_from_file(self, tmp_path):
        path = tmp_path / "pool.txt"
        path.write_text(self.CP_TEXT)
        pool, ledgers = load_pool(str(path))
        assert pool.reserves == (100.0, 100.0)
        q = quote(pool, TradeOrder("a", "T0", "T1", 10.0, "exact-in"))
        assert q.amount_out > 0.0


class TestBuiltinPools:
    def test_six_builtins_present(self):
        assert set(BUILTIN_POOLS) == {
            "uniswap-v2-like",
            "curve-v1-like",
            "mstable-2021-like",
            "dodo-like",
            "bancor-like",
            "augur-like",
        }

    def test_every_builtin_materializes_and_quotes(self):
        for name in BUILTIN_POOLS:
            pool, ledgers = load_pool(name)
            order = TradeOrder("probe", pool.tokens[0], pool.tokens[1], 1e-3, "exact-in")
            if pool.archetype == PRICE_DISCOVERING_SUPPLY_SOVEREIGN:
                q = quote(pool, order)
                assert q.amount_out > 0.0
            elif isinstance(pool.curve, Lmsr):
                q = quote(pool, order)
                assert q.amount_out > 0.0
            else:
                q = quote(pool, order)
                assert q.amount_out > 0.0

    def test_bancor_like_is_primed(self):
        pool, ledgers = load_pool("bancor-like")
        assert math.isclose(pool.reserves[0], 100.0, rel_tol=REL)
        assert math.isclose(pool.circulating_supply, 10.0, rel_tol=REL)
        assert pool.fee.trade_fee == 0.0
        # priming mints the supply to a funded bootstrap account
        issued = pool.tokens[1]
        assert math.isclose(ledgers[issued].total_supply, 10.0, rel_tol=REL)

    def test_augur_like_carries_its_subsidy(self):
        pool, ledgers = load_pool("augur-like")
        assert isinstance(pool.curve, Lmsr)
        assert len(pool.tokens) == 4  # collateral + three outcomes
        assert math.isclose(pool.reserves[0], 100.0 * math.log(3.0), rel_tol=1e-6)
        assert pool.fee.trade_fee == 0.0

    def test_dodo_like_has_oracle_preset(self):
        pool, _ = load_pool("dodo-like")
        assert pool.oracle_price == 10.0
        assert pool.curve == PriceAdoption(k=0.5, target_reserves=(100.0, 1000.0))

    def test_fee_bearing_builtins(self):
        for name in ("uniswap-v2-like", "curve-v1-like", "mstable-2021-like", "dodo-like"):
            pool, _ = load_pool(name)
            assert pool.fee.trade_fee == 0.003
