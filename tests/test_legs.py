"""The pricing family calls the curves' closed forms directly.

`PricingFamily.trade` and `spot_between` skip the public curve functions
(`quote_exact_in`, `quote_exact_out`, `spot_price`) and the leg check they
run on every call; legs are checked where they enter instead.  These tests
show that this is safe: the family prices exactly what the public functions
composed by hand price, every pool that passed `family.check` gives the
curve legs it accepts, bad legs and amounts still raise what they raised,
and a probe calls no public curve function.
"""

import dataclasses
import importlib
import itertools
import math
import random

import pytest

import ammlab
from ammlab import curves
from ammlab.core import (
    AmmError,
    DepletionError,
    DomainError,
    InsufficientBalance,
    UnsupportedOperation,
    new_ledger,
)
from ammlab.curves import (
    CURVES,
    ConstantPowerSum,
    ConstantProduct,
    ConstantProductSum,
    ConstantSum,
    CurveSpec,
    Exponential,
    GeometricMean,
    Lmsr,
    PriceAdoption,
    bonding_trade,
    invariant_value,
    lmsr_trade_cost,
    pmm_trade_cost,
    quote_exact_in,
    quote_exact_out,
    solve_stableswap_d,
    spot_price,
)
from ammlab.engine import (
    BUILTIN_POOLS,
    EXACT_IN,
    EXACT_OUT,
    PRICE_ADOPTING_LP_BASED,
    AdoptionFamily,
    BondingFamily,
    PricingFamily,
    ScoringFamily,
    TradeOrder,
    create_pool,
    curve_buy,
    curve_sell,
    deposit_liquidity,
    execute_swap,
    materialize_pool,
    parse_pool_spec,
    quote,
    withdraw_liquidity,
)
from ammlab.probe import PROBED_DIMENSIONS, run_dimension_probe
from ammlab.sim import arbitrage_step

# ---------------------------------------------------------------------------
# (a) the family path equals the public functions composed by hand
# ---------------------------------------------------------------------------


def public_trade(family, state, i, j, kind, amount, fee):
    """The family's trade step as the public curve functions compose it."""
    view, leg_in, leg_out = family.curve_args(state, i, j)
    curve, price = family.curve, family.price
    keep = 1.0 - fee
    if i >= family.issued_from:  # the fee comes out of the payout
        if kind == EXACT_IN:
            amount_in = amount
            gross = quote_exact_in(curve, view, leg_in, leg_out, amount, price)
            amount_out = gross * keep
        else:
            amount_out = amount
            gross = amount / keep
            amount_in = quote_exact_out(curve, view, leg_in, leg_out, gross, price)
        fee_paid = gross - amount_out
    elif kind == EXACT_IN:
        amount_in = amount
        net = amount * keep
        amount_out = quote_exact_in(curve, view, leg_in, leg_out, net, price)
        fee_paid = amount_in - net
    else:
        amount_out = amount
        net = quote_exact_out(curve, view, leg_in, leg_out, amount, price)
        amount_in = net / keep
        fee_paid = amount_in - net
    outside = 0.0 if family.fee_in_reserves else fee_paid
    after = list(state)
    after[i] += -amount_in if i >= family.issued_from else amount_in - outside
    after[j] += amount_out if j >= family.issued_from else -(amount_out + outside)
    return amount_in, amount_out, fee_paid, tuple(after)


def public_spot(family, state, i, j):
    view, leg_in, leg_out = family.curve_args(state, i, j)
    return spot_price(family.curve, view, leg_in, leg_out, family.price)


def _logu(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def seeded_family(rng, curve_class):
    """(family, state, legs) of one seeded state of a curve class: its
    family and every pair of legs it trades, so that an issued leg pays its
    fee out of the payout one way and on the input the other."""
    n = rng.choice([2, 3])
    reserves = tuple(_logu(rng, 1e-3, 1e6) for _ in range(n))
    price = None
    if curve_class is ConstantProduct:
        curve = ConstantProduct()
    elif curve_class is GeometricMean:
        w = [rng.uniform(0.1, 1.0) for _ in range(n)]
        curve = GeometricMean(weights=tuple(x / sum(w) for x in w))
    elif curve_class is ConstantSum:
        curve = ConstantSum()
    elif curve_class is ConstantProductSum:
        curve = ConstantProductSum(chi=rng.choice([0.0, 0.1, 2.0, 10.0, 1000.0]))
    elif curve_class is ConstantPowerSum:
        curve = ConstantPowerSum(t=rng.uniform(0.0, 0.9))
    elif curve_class is PriceAdoption:
        t0 = _logu(rng, 1.0, 1e4)
        curve = PriceAdoption(k=rng.choice([0.0, 0.5, 1.0]), target_reserves=(t0, 10.0 * t0))
        reserves = (t0 * rng.uniform(0.2, 1.8), 10.0 * t0 * rng.uniform(0.2, 1.8))
        price = _logu(rng, 0.1, 100.0)
    elif curve_class is Lmsr:
        curve = Lmsr(b=_logu(rng, 1.0, 1e3))
        shares = tuple(_logu(rng, 1e-3, 1e3) * rng.choice([0.0, 1.0]) for _ in range(n))
        reserves = (_logu(rng, 1.0, 1e4),) + shares
    else:
        curve = Exponential(kappa=rng.choice([0.5, 1.0, 2.0, 3.0]), c=_logu(rng, 0.1, 10.0))
        supply = _logu(rng, 1e-2, 1e3)
        reserves = (supply**curve.kappa / curve.c, supply)
    family = PricingFamily.of(curve, price)
    if isinstance(family, ScoringFamily):
        k = rng.randrange(1, len(reserves))
        legs = [(0, k), (k, 0)]
    else:
        legs = [(i, j) for i in range(len(reserves)) for j in range(len(reserves)) if i != j]
    return family, reserves, legs


def outcome(call):
    """A call's result, or the type and message of the AmmError it raised."""
    try:
        return call()
    except AmmError as error:
        return type(error), str(error)


def float_bits(value):
    if isinstance(value, tuple) and value and isinstance(value[0], type):
        return value  # a raised error
    if isinstance(value, tuple):
        return tuple(float_bits(v) for v in value)
    return float(value).hex()


class TestFamilyEqualsThePublicFunctions:
    @pytest.mark.parametrize("curve_class", CURVES, ids=lambda c: c.spec_name)
    def test_trade_and_spot(self, curve_class):
        rng = random.Random(f"legs-{curve_class.spec_name}")
        priced = raised = 0
        for _ in range(60):
            family, state, legs = seeded_family(rng, curve_class)
            for i, j in legs:
                for kind in (EXACT_IN, EXACT_OUT):
                    for fee in (0.0, 0.003, 0.3):
                        amount = rng.choice([
                            _logu(rng, 1e-9, 10.0) * max(state[i], state[j], 1.0),
                            _logu(rng, 1e-9, 1.0) * state[j] if state[j] > 0.0 else 1.0,
                            0.0, -1.0, math.nan,
                        ])
                        got = outcome(lambda: family.trade(state, i, j, kind, amount, fee))
                        want = outcome(lambda: public_trade(family, state, i, j, kind, amount, fee))
                        assert float_bits(got) == float_bits(want), (family.curve, state, i, j, kind, amount, fee)
                        raised += isinstance(want[0], type)
                        priced += not isinstance(want[0], type)
                got = outcome(lambda: family.spot_between(state, i, j))
                want = outcome(lambda: public_spot(family, state, i, j))
                assert float_bits(got) == float_bits(want)
            risky = family.risky
            got = outcome(lambda: family.spot(state))
            assert float_bits(got) == float_bits(outcome(lambda: public_spot(family, state, risky, 1 - risky)))
        # both the priced and the refused trades were compared
        assert priced > 100 and raised > 10


# ---------------------------------------------------------------------------
# (b) a pool that passed family.check gives legs its curve accepts
# ---------------------------------------------------------------------------

_MORE_SPECS = {
    "geometric-mean": """archetype = price-discovering-lp-based
curve = geometric-mean
tokens = A, B, C
reserves = 100, 200, 300
weights = 0.2, 0.3, 0.5
""",
    "power-sum": """archetype = price-discovering-lp-based
curve = constant-power-sum
tokens = A, B
reserves = 100, 50
t = 0.5
""",
}

POOL_CONFIGS = {**BUILTIN_POOLS, **{n: parse_pool_spec(t) for n, t in _MORE_SPECS.items()}}


def test_pool_configs_cover_every_curve():
    assert {type(c.curve) for c in POOL_CONFIGS.values()} == set(CURVES)


@pytest.mark.parametrize("name", sorted(POOL_CONFIGS))
def test_checked_pools_give_legs_the_curve_accepts(name):
    config = POOL_CONFIGS[name]
    pool, _ = materialize_pool(config)  # create_pool ran family.check
    family = PricingFamily.of(pool.curve, pool.oracle_price)
    opening = family.view(pool)
    traded = family.trade(opening, 0, 1, EXACT_IN, 1.0, pool.fee.trade_fee)[3]
    n = len(pool.tokens)
    checked = 0
    for state in (opening, traded):
        for i in range(n):
            for j in range(n):
                if i == j:
                    continue
                try:
                    args = family.curve_args(state, i, j)
                except UnsupportedOperation:  # outcome for outcome: the family trades neither
                    assert isinstance(family, ScoringFamily) and 0 not in (i, j)
                    continue
                family.curve.check_legs(*args)
                checked += 1
    assert checked >= 4


def test_only_the_scoring_rule_maps_legs():
    """Price adoption hands its state and legs over unchanged: its curve
    refuses a missing adopted price itself (the rows below)."""
    assert PricingFamily.maps_legs is False
    assert AdoptionFamily.maps_legs is False
    assert BondingFamily.maps_legs is False
    assert ScoringFamily.maps_legs is True


# ---------------------------------------------------------------------------
# (c) bad legs and amounts still raise what they raised
# ---------------------------------------------------------------------------

CP = ConstantProduct()
PMM = PriceAdoption(k=0.5, target_reserves=(100.0, 1000.0))
LMSR = Lmsr(b=100.0)
EXP = Exponential(kappa=2.0, c=1.0)


def _pool(name, **changes):
    config = dataclasses.replace(BUILTIN_POOLS[name], **changes)
    return materialize_pool(config)[0]


def _order(token_in, token_out, amount=1.0, kind=EXACT_IN):
    return TradeOrder("creator", token_in, token_out, amount, kind)


_BAD_PUBLIC = [
    (lambda: quote_exact_in(CP, (1.0, 1.0), 0, 0, 1.0), DomainError,
     "token_in and token_out must differ"),
    (lambda: quote_exact_in(CP, (1.0, 1.0), 0, 2, 1.0), DomainError,
     "token index out of range for 2 reserves: (0, 2)"),
    (lambda: quote_exact_out(CP, (1.0, 1.0), None, 1, 1.0), DomainError,
     "collateral leg (None) is only defined for LMSR curves"),
    (lambda: spot_price(CP, (1.0, 1.0), 1, None), DomainError,
     "collateral leg (None) is only defined for LMSR curves"),
    (lambda: quote_exact_in(CP, (1.0, 1.0), 0, 1, -1.0), DomainError,
     "input amount must be non-negative: -1.0"),
    (lambda: quote_exact_in(CP, (1.0, 1.0), 0, 1, math.nan), DomainError,
     "input amount must be non-negative: nan"),
    (lambda: quote_exact_out(CP, (1.0, 1.0), 0, 1, -2.0), DomainError,
     "output amount must be non-negative: -2.0"),
    (lambda: quote_exact_in(PMM, (1.0, 1.0, 1.0), 0, 1, 1.0, 10.0), DomainError,
     "price adoption trades token 0 against token 1"),
    (lambda: spot_price(PMM, (1.0, 1.0), 0, 0, 10.0), DomainError,
     "price adoption trades token 0 against token 1"),
    (lambda: quote_exact_in(LMSR, (0.0, 0.0), 0, 1, 1.0), UnsupportedOperation,
     "LMSR trades one outcome against collateral"),
    (lambda: quote_exact_out(LMSR, (0.0, 0.0), None, 5, 1.0), DomainError,
     "outcome index out of range: 5"),
    (lambda: spot_price(LMSR, (0.0, 0.0), None, None), UnsupportedOperation,
     "LMSR trades one outcome against collateral"),
    (lambda: quote_exact_in(EXP, (1.0, 1.0), 0, 2, 1.0), DomainError,
     "token index out of range for 2 reserves: (0, 2)"),
    (lambda: quote_exact_in(EXP, (1.0, 1.0, 1.0), 0, 1, 1.0), DomainError,
     "exponential curve state is (reserve_balance, supply)"),
    # each argument refusal of the curve functions
    (lambda: quote_exact_in(ConstantSum(), (-1.0, 1.0), 0, 1, 1.0), DomainError,
     "reserves must be finite and non-negative: (-1.0, 1.0)"),
    (lambda: quote_exact_in(CP, (1.0, 1.0), 0, 1, math.inf), DomainError,
     "input inf overflows the conservation value at reserves (1.0, 1.0)"),
    (lambda: GeometricMean(weights=(1.0,)), DomainError, "geometric mean needs at least two weights"),
    (lambda: lmsr_trade_cost(0.0, (0.0, 0.0), (1.0, 0.0)), DomainError, "b must be > 0: 0.0"),
    (lambda: lmsr_trade_cost(1.0, (0.0, 0.0), (1.0,)), DomainError, "1 deltas for 2 outcomes"),
    (lambda: quote_exact_in(Lmsr(b=1.0), (0.0, 1.7e308), None, 0, 1e308), DomainError,
     "the shares that 1e+308 collateral buys overflow a float"),
    (lambda: spot_price(PMM, (100.0, 1000.0), 0, 1, -1.0), DomainError,
     "adopted price must be positive and finite: -1.0"),
    (lambda: spot_price(PMM, (100.0, 1000.0), 0, 1, math.inf), DomainError,
     "adopted price must be positive and finite: inf"),
    (lambda: spot_price(PMM, (100.0, 1000.0), 0, 1, None), DomainError,
     "no oracle price set; call set_oracle_price first"),
    (lambda: pmm_trade_cost(0.5, (100.0, 1000.0), (100.0, 1000.0), 10.0, 0, 1, -1.0), DomainError,
     "input amount must be non-negative: -1.0"),
    # pmm_trade_cost runs quote_exact_in's checks: these three were priced
    # as a token-0 buy (0.4994, 0.4994) and on the first two reserves (49.375)
    (lambda: pmm_trade_cost(0.5, (100.0, 1000.0), (100.0, 1000.0), 10.0, 1, 1, 5.0), DomainError,
     "price adoption trades token 0 against token 1"),
    (lambda: pmm_trade_cost(0.5, (100.0, 1000.0), (100.0, 1000.0), 10.0, None, 7, 5.0), DomainError,
     "price adoption trades token 0 against token 1"),
    (lambda: pmm_trade_cost(0.5, (100.0, 1000.0), (100.0, 1000.0, 5.0), 10.0, 0, 1, 5.0), DomainError,
     "price adoption trades token 0 against token 1"),
    # non-finite inputs, each of which priced nan or inf or raised ValueError
    (lambda: spot_price(LMSR, (0.0, math.inf), 0, None), DomainError,
     "reserves must be finite and non-negative: (0.0, inf)"),
    (lambda: quote_exact_in(LMSR, (0.0, math.inf), None, 0, 1.0), DomainError,
     "reserves must be finite and non-negative: (0.0, inf)"),
    (lambda: invariant_value(LMSR, (0.0, math.inf)), DomainError,
     "reserves must be finite and non-negative: (0.0, inf)"),
    (lambda: lmsr_trade_cost(100.0, (0.0, 0.0), (math.inf, 0.0)), DomainError,
     "b, shares and deltas must be finite: 100.0, (0.0, 0.0), (inf, 0.0)"),
    (lambda: quote_exact_out(PMM, (math.nan, 1.0), 0, 1, 1e-300, 10.0), DomainError,
     "reserves must be finite and non-negative: (nan, 1.0)"),
    (lambda: bonding_trade(2.0, 1.0, 1e-300, math.nan), DomainError,
     "supply and its change must be finite: 1e-300, nan"),
    (lambda: quote_exact_out(LMSR, (0.0, 0.0), None, 0, math.inf), DomainError,
     "the quote for inf leaves the float range at (0.0, 0.0)"),
    (lambda: quote_exact_in(Lmsr(b=1e-300), (1e300, 0.0), 0, None, 1e300), DomainError,
     "the quote for 1e+300 leaves the float range at (1e+300, 0.0)"),
    (lambda: bonding_trade(2.0, 1.0, -1.0, 1.0), DomainError, "supply must be non-negative: -1.0"),
    (lambda: invariant_value(EXP, (0.0, 0.0)), DomainError, "reserve out of range: 0.0"),
    (lambda: spot_price(Exponential(kappa=1e-3, c=1.0), (1e-300, 1e30), 1, 0), DomainError,
     "spot price leaves the float range at (1e-300, 1e+30)"),
    (lambda: solve_stableswap_d((1.0, 1.0), -1.0), DomainError, "chi must be >= 0: -1.0"),
]

_BAD_ENGINE = [
    (lambda: quote(_pool("uniswap-v2-like"), _order("TOKEN0", "NOPE")), DomainError,
     "unknown token 'NOPE'; pool holds ('TOKEN0', 'TOKEN1')"),
    (lambda: quote(_pool("uniswap-v2-like"), _order("TOKEN0", "TOKEN0")), DomainError,
     "token_in and token_out must differ"),
    (lambda: quote(_pool("uniswap-v2-like"), _order("TOKEN0", "TOKEN1", -1.0)), DomainError,
     "order amount must be positive and finite: -1.0"),
    (lambda: quote(_pool("uniswap-v2-like"), _order("TOKEN0", "TOKEN1", math.nan)), DomainError,
     "order amount must be positive and finite: nan"),
    (lambda: quote(_pool("uniswap-v2-like"), _order("TOKEN0", "TOKEN1", kind="exact")),
     DomainError, "order kind must be exact-in or exact-out: 'exact'"),
    (lambda: quote(_pool("augur-like"), _order("OUT0", "OUT1")), UnsupportedOperation,
     "LMSR trades one outcome against collateral"),
    # a price-adoption pool before its first oracle price: the curve refuses
    # every price it is asked for
    (lambda: quote(_pool("dodo-like", oracle_price=None), _order("BASE", "QUOTE")),
     DomainError, "no oracle price set; call set_oracle_price first"),
    (lambda: execute_swap(_pool("dodo-like", oracle_price=None), _order("BASE", "QUOTE"), {}),
     DomainError, "no oracle price set; call set_oracle_price first"),
    (lambda: arbitrage_step(_pool("dodo-like", oracle_price=None), 10.0, "arb", {
        token: new_ledger(token, {"arb": 1.0}) for token in ("BASE", "QUOTE")}),
     DomainError, "no oracle price set; call set_oracle_price first"),
    (lambda: execute_swap(_pool("augur-like"), _order("OUT1", "OUT2"), {}),
     UnsupportedOperation, "LMSR trades one outcome against collateral"),
    (lambda: execute_swap(_pool("uniswap-v2-like"), _order("TOKEN1", "TOKEN1"), {}),
     DomainError, "token_in and token_out must differ"),
    (lambda: execute_swap(_pool("uniswap-v2-like"), _order("TOKEN1", "TOKEN0", math.inf), {}),
     DomainError, "order amount must be positive and finite: inf"),
    (lambda: arbitrage_step(_pool("augur-like"), 1.0, "arb", {}), UnsupportedOperation,
     "arbitrage needs a two-token pool, not a prediction market"),
    (lambda: arbitrage_step(_pool("uniswap-v2-like"), -1.0, "arb", {}), DomainError,
     "reference price must be > 0: -1.0"),
    (lambda: arbitrage_step(_pool("uniswap-v2-like"), math.nan, "arb", {}), DomainError,
     "reference price must be > 0: nan"),
    (lambda: arbitrage_step(dataclasses.replace(_pool("uniswap-v2-like"), closed=True), 1.0, "arb", {}),
     UnsupportedOperation, "pool is closed"),
    # a pool built by hand, past create_pool, is refused where it is built:
    # the trade steps check no legs
    (lambda: arbitrage_step(
        dataclasses.replace(_pool("dodo-like"), tokens=("A", "B", "C"), reserves=(1.0, 1.0, 1.0)),
        1.0, "arb", {}), DomainError, "price adoption is a two-token mechanism"),
    (lambda: arbitrage_step(
        dataclasses.replace(_pool("uniswap-v2-like"), archetype=PRICE_ADOPTING_LP_BASED),
        1.0, "arb", {}), DomainError, "price-adopting pools need a price-adoption curve"),
    # each refusal of pool creation, liquidity and bonding trades
    (lambda: create_pool(BUILTIN_POOLS["uniswap-v2-like"], (1.0,), "creator", {}), DomainError,
     "1 deposit amounts for 2 tokens"),
    (lambda: create_pool(BUILTIN_POOLS["uniswap-v2-like"], (1.0, -1.0), "creator", {}),
     DomainError, "deposit amounts out of range: (1.0, -1.0)"),
    (lambda: create_pool(BUILTIN_POOLS["bancor-like"], (1.0, 0.0), "creator", {}), DomainError,
     "supply-sovereign pools start with zero supply"),
    (lambda: materialize_pool(dataclasses.replace(BUILTIN_POOLS["uniswap-v2-like"], reserves=())),
     DomainError, "pool configuration carries no reserves"),
    (lambda: deposit_liquidity(dataclasses.replace(_pool("uniswap-v2-like"), closed=True), "creator", (1.0, 1.0), {}),
     UnsupportedOperation, "pool is closed"),
    (lambda: deposit_liquidity(_pool("uniswap-v2-like"), "creator", (1.0,), {}), DomainError,
     "1 deposit amounts for 2 tokens"),
    (lambda: deposit_liquidity(_pool("uniswap-v2-like"), "creator", (1.0, math.nan), {}),
     DomainError, "deposit amounts out of range: (1.0, nan)"),
    (lambda: withdraw_liquidity(_pool("uniswap-v2-like"), "creator", -1.0, {}), DomainError,
     "share amount must be non-negative: -1.0"),
    (lambda: curve_buy(_pool("bancor-like"), "x", -1.0, {}), DomainError,
     "amount must be non-negative: -1.0"),
    # a sale is refused where every swap refuses it: a holder of more issued
    # tokens than circulate (10.0), past the dust, by the curve
    (lambda: curve_sell(_pool("bancor-like"), "x", 20.0, {"ISSUED": new_ledger("ISSUED", {"x": 20.0})}),
     DepletionError, "a move of -20.0 exceeds 10.0"),
    (lambda: execute_swap(_pool("bancor-like"), TradeOrder("x", "ISSUED", "RESERVE", 20.0, EXACT_IN),
                          {"ISSUED": new_ledger("ISSUED", {"x": 20.0})}),
     DepletionError, "a move of -20.0 exceeds 10.0"),
    (lambda: curve_sell(_pool("bancor-like"), "x", math.inf, {}), DomainError,
     "order amount must be positive and finite: inf"),
    (lambda: run_dimension_probe(BUILTIN_POOLS["dodo-like"], "Fee Structure"), DomainError,
     "unknown taxonomy dimension: 'Fee Structure'"),
    (lambda: run_dimension_probe(
        dataclasses.replace(BUILTIN_POOLS["dodo-like"], oracle_price=None), PROBED_DIMENSIONS[0]),
     DomainError, "probing a price-adopting pool requires an oracle price"),
    (lambda: run_dimension_probe(
        dataclasses.replace(BUILTIN_POOLS["bancor-like"], reserves=(0.0, 0.0)), PROBED_DIMENSIONS[0]),
     DomainError, "probing an unfunded pool needs a normal scale: 0.0 at (0.0, 0.0)"),
    (lambda: run_dimension_probe(
        dataclasses.replace(BUILTIN_POOLS["augur-like"], tokens=("CASH", "OUT0"), reserves=(1.0, 0.0)),
        PROBED_DIMENSIONS[0]),
     DomainError, "an LMSR pool needs a collateral token and at least two outcomes"),
    # past the seller's balance but within the supply: the ledger refuses the burn
    (lambda: curve_sell(_pool("bancor-like"), "x", 8.0, {"ISSUED": new_ledger("ISSUED", {"x": 5.0})}),
     InsufficientBalance, "'x' holds 5.0 ISSUED, cannot burn 8.0"),
]


@pytest.mark.parametrize("call, error, message", _BAD_PUBLIC + _BAD_ENGINE,
                         ids=[f"case-{n}" for n in range(len(_BAD_PUBLIC + _BAD_ENGINE))])
def test_bad_legs_and_amounts_raise_what_they_raised(call, error, message):
    with pytest.raises(AmmError) as raised:
        call()
    assert type(raised.value) is error
    assert str(raised.value) == message


# ---------------------------------------------------------------------------
# (d) a probe calls no public curve function, and checks its legs once
# ---------------------------------------------------------------------------


MODULES = ("cli", "core", "curves", "engine", "probe", "sim")


def count_curve_calls(monkeypatch) -> dict:
    """Counts, from here on, of the public curve functions' calls (wherever
    the package binds them) and of every curve's `check_legs`; a call made
    inside another counted call of its kind (a curve's `check_legs` calling
    the base class's) is not counted again."""
    counts = {"public": 0, "check_legs": 0}
    depth = {"public": 0, "check_legs": 0}

    def counted(key, real):
        def call(*args, **kwargs):
            counts[key] += depth[key] == 0
            depth[key] += 1
            try:
                return real(*args, **kwargs)
            finally:
                depth[key] -= 1
        return call

    modules = [ammlab] + [importlib.import_module(f"ammlab.{name}") for name in MODULES]
    for name in ("quote_exact_in", "quote_exact_out", "spot_price"):
        real = getattr(curves, name)
        for module in modules:
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counted("public", real))
    for cls in (CurveSpec, *CURVES):
        if "check_legs" in vars(cls):
            monkeypatch.setattr(cls, "check_legs", counted("check_legs", vars(cls)["check_legs"]))
    return counts


@pytest.mark.parametrize("name", sorted(POOL_CONFIGS))
def test_a_probe_calls_no_public_curve_function(monkeypatch, name):
    counts = count_curve_calls(monkeypatch)
    for dimension in PROBED_DIMENSIONS:
        before = counts["check_legs"]
        run_dimension_probe(POOL_CONFIGS[name], dimension, seed=3, trials=128)
        assert counts["check_legs"] - before <= 1
    assert counts["public"] == 0


def test_the_counters_see_the_public_functions(monkeypatch):
    counts = count_curve_calls(monkeypatch)
    curves.quote_exact_in(CP, (1.0, 1.0), 0, 1, 0.5)
    ammlab.spot_price(CP, (1.0, 1.0), 0, 1)
    assert counts == {"public": 2, "check_legs": 2}


# ---------------------------------------------------------------------------
# (e) every public curve function gives a finite float or raises AmmError
# ---------------------------------------------------------------------------

EDGES = (0.0, 1.0, 100.0, 1e-300, 1e300, math.inf, math.nan, -1.0)

# one spec of each curve, and LMSR at a b so small that shares / b overflows
EDGE_SPECS = (
    ConstantProduct(), GeometricMean(weights=(0.5, 0.5)), ConstantSum(),
    ConstantProductSum(chi=10.0), ConstantPowerSum(t=0.5), PMM, LMSR, Lmsr(b=1e-300), EXP,
)


def edge_calls():
    """Each public curve function at every pair of edge values as reserves
    and every edge value as an amount (and as an adopted price, b, kappa, c
    and chi)."""
    pairs = list(itertools.product(EDGES, repeat=2))
    for spec in EDGE_SPECS:
        legs = [(None, 0), (0, None)] if isinstance(spec, Lmsr) else [(0, 1), (1, 0)]
        prices = EDGES if spec is PMM else (None,)
        for reserves in pairs:
            yield invariant_value, spec, reserves
            for (i, j), price in itertools.product(legs, prices):
                yield spot_price, spec, reserves, i, j, price
                for amount in EDGES:
                    yield quote_exact_in, spec, reserves, i, j, amount, price
                    yield quote_exact_out, spec, reserves, i, j, amount, price
                    if spec is PMM:
                        yield pmm_trade_cost, PMM.k, PMM.target_reserves, reserves, price, i, j, amount
    for b, q, dq in itertools.product(EDGES, pairs, pairs):
        yield lmsr_trade_cost, b, q, dq
    for kappa_c, supply, change in itertools.product(pairs, EDGES, EDGES):
        yield bonding_trade, *kappa_c, supply, change
    for reserves, chi in itertools.product(pairs, EDGES):
        yield solve_stableswap_d, reserves, chi


def test_public_curve_functions_give_a_finite_float_or_an_engine_error():
    breaches, priced = [], 0
    for function, *args in edge_calls():
        try:
            value = function(*args)
        except AmmError:
            continue
        except Exception as error:  # any other error is a breach
            breaches.append((function.__name__, args, type(error).__name__))
            continue
        if type(value) is float and math.isfinite(value):
            priced += 1
        else:
            breaches.append((function.__name__, args, value))
    assert not breaches, breaches[:10]
    assert priced > 1000  # the grid prices as well as refuses
