"""Ledger and domain-type tests.

Every balance is binary64; equality checks are relative-tolerance
comparisons. The load-bearing invariant: for any sequence of
transfer/mint/burn, the sum of balances equals total_supply.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import random
import tracemalloc
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ammlab import engine, sim
from ammlab.core import (
    DomainError,
    FeeParams,
    InsufficientBalance,
    Ledger,
    balance_of,
    ledger_burn,
    ledger_mint,
    ledger_mint_many,
    _slot_builder,
    ledger_transfer,
    new_ledger,
)

REL = 1e-9
amounts = st.floats(min_value=0.0, max_value=1e6, allow_nan=False, allow_infinity=False)


def _bits(ledger: Ledger):
    """Token, balances in insertion order and supply, floats as exact hex."""
    balances = [(account, value.hex()) for account, value in ledger.balances.items()]
    return ledger.token, balances, ledger.total_supply.hex()


def _supply_ok(ledger: Ledger) -> bool:
    total = sum(ledger.balances.values())
    return math.isclose(total, ledger.total_supply, rel_tol=REL, abs_tol=1e-12)


# ---------------------------------------------------------------------------
# transfer
# ---------------------------------------------------------------------------


class TestLedgerTransfer:
    def test_worked_example(self):
        """1 WETH moves trader -> pool: {1, 10} becomes {0, 11}."""
        led = new_ledger("WETH", {"trader": 1.0, "pool": 10.0})
        out = ledger_transfer(led, "trader", "pool", 1.0)
        assert balance_of(out, "trader") == 0.0
        assert balance_of(out, "pool") == 11.0
        assert out.total_supply == led.total_supply

    def test_zero_transfer_is_noop(self):
        led = new_ledger("USDC", {"a": 5.0, "b": 2.0})
        out = ledger_transfer(led, "a", "b", 0.0)
        assert out.balances == led.balances
        assert out.total_supply == led.total_supply

    def test_insufficient_balance_rejected(self):
        led = new_ledger("USDC", {"a": 1.0})
        with pytest.raises(InsufficientBalance):
            ledger_transfer(led, "a", "b", 5.0)
        # input snapshot untouched (atomicity)
        assert balance_of(led, "a") == 1.0

    def test_negative_amount_rejected(self):
        led = new_ledger("USDC", {"a": 1.0})
        with pytest.raises(DomainError):
            ledger_transfer(led, "a", "b", -0.5)

    def test_transfer_to_unknown_account_creates_it(self):
        led = new_ledger("USDC", {"a": 3.0})
        out = ledger_transfer(led, "a", "fresh", 2.0)
        assert balance_of(out, "fresh") == 2.0
        assert _supply_ok(out)

    def test_self_transfer_leaves_the_ledger_unchanged(self):
        """`(held - x) + x` need not round back to `held`; a self-transfer
        writes nothing, so the balances still sum to the supply bit for bit."""
        held, amount = 3.0689956139328145, 0.30666932314854667
        assert (held - amount) + amount != held
        led = new_ledger("USDC", {"a": held, "b": 1.0})
        out = ledger_transfer(led, "a", "a", amount)
        assert _bits(out) == _bits(led)
        assert sum(out.balances.values()) == out.total_supply
        with pytest.raises(InsufficientBalance):
            ledger_transfer(led, "a", "a", 2.0 * held)

    def test_input_ledger_is_unchanged(self):
        """Ledgers are immutable snapshots; operations return new ones."""
        led = new_ledger("USDC", {"a": 3.0, "b": 1.0})
        ledger_transfer(led, "a", "b", 1.0)
        assert balance_of(led, "a") == 3.0
        assert balance_of(led, "b") == 1.0


# ---------------------------------------------------------------------------
# mint / burn
# ---------------------------------------------------------------------------


class TestMintBurn:
    def test_mint_to_empty_account(self):
        led = new_ledger("TOK", {})
        out = ledger_mint(led, "fresh", 10.0)
        assert balance_of(out, "fresh") == 10.0
        assert out.total_supply == 10.0

    def test_burn_entire_balance(self):
        led = new_ledger("TOK", {"a": 7.0, "b": 3.0})
        out = ledger_burn(led, "a", 7.0)
        assert balance_of(out, "a") == 0.0
        assert out.total_supply == 3.0

    def test_mint_zero_is_noop(self):
        led = new_ledger("TOK", {"a": 1.0})
        out = ledger_mint(led, "a", 0.0)
        assert out.balances == led.balances
        assert out.total_supply == led.total_supply

    def test_burn_beyond_balance_rejected(self):
        led = new_ledger("TOK", {"a": 1.0})
        with pytest.raises(InsufficientBalance):
            ledger_burn(led, "a", 2.0)

    def test_negative_mint_rejected(self):
        led = new_ledger("TOK", {})
        with pytest.raises(DomainError):
            ledger_mint(led, "a", -1.0)

    def test_mint_many_with_only_zero_grants_returns_the_input(self):
        led = new_ledger("TOK", {"a": 1.0})
        assert ledger_mint_many(led, [("a", 0.0), ("b", 0.0)]) is led
        assert ledger_mint_many(led, []) is led

    @given(
        start=st.dictionaries(st.sampled_from(["a", "b", "c", "pool"]), amounts, max_size=4),
        grants=st.lists(
            st.tuples(
                st.sampled_from(["a", "b", "c", "d", "pool"]),
                st.one_of(st.just(0.0), amounts, st.floats(min_value=0.0, max_value=1e300)),
            ),
            max_size=30,
        ),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_mint_many_is_bitwise_a_fold_of_mint(self, start, grants):
        led = new_ledger("TOK", start)
        folded = reduce(lambda acc, grant: ledger_mint(acc, *grant), grants, led)
        assert _bits(ledger_mint_many(led, grants)) == _bits(folded)


class TestSnapshots:
    @pytest.mark.parametrize("operation", [
        lambda led: ledger_transfer(led, "a", "b", 1.0),
        lambda led: ledger_mint(led, "c", 2.0),
        lambda led: ledger_mint_many(led, [("a", 1.0), ("c", 2.0)]),
        lambda led: ledger_burn(led, "a", 1.0),
    ], ids=["transfer", "mint", "mint_many", "burn"])
    def test_operations_leave_their_input_unchanged(self, operation):
        led = new_ledger("TOK", {"a": 3.0, "b": 1.0})
        before = _bits(led)
        out = operation(led)
        assert _bits(led) == before
        assert _bits(out) != before
        for snapshot in (led, out):
            with pytest.raises(TypeError):
                snapshot.balances["a"] = 0.0
        assert _bits(led) == before
        assert led == new_ledger("TOK", {"a": 3.0, "b": 1.0}) != out

    def test_a_ledger_prints_and_compares_as_its_balances(self):
        """A snapshot with recent writes prints its balances in credit order;
        against a value that is not a ledger, equality is left to the other
        side."""
        led = ledger_mint(new_ledger("TOK", {"a": 3.0}), "b", 0.5)
        assert repr(led) == "Ledger(token='TOK', balances={'a': 3.0, 'b': 0.5}, total_supply=3.5)"
        assert repr(led.balances) == "balances({'a': 3.0, 'b': 0.5})"
        assert led.__eq__({"a": 3.0, "b": 0.5}) is NotImplemented
        assert led != {"a": 3.0, "b": 0.5} and led != None  # noqa: E711

    def test_a_supply_past_the_float_range_reads_inf(self):
        """Two balances of 1e308 are each finite, their sum is not."""
        led = ledger_mint(new_ledger("TOK", {"a": 1e308}), "b", 1e308)
        assert led.total_supply == math.inf


# accounts of the plain-dict model test: the first 400 start funded, so the
# recent writes outgrow the square root of the base and get folded into it
_account = st.integers(0, 449).map(lambda i: f"acct{i}")
_fraction = st.floats(min_value=0.0, max_value=1.25)  # of the source balance
_model_op = st.one_of(
    st.tuples(st.just("transfer"), _account, _account, _fraction),
    st.tuples(st.just("burn"), _account, _fraction),
    st.tuples(st.just("mint"), _account, amounts),
    st.tuples(
        st.just("mint_many"),
        st.lists(st.tuples(_account, st.one_of(st.just(0.0), amounts)), max_size=40),
    ),
)


def _matches(ledger: Ledger, model: dict, supply: float) -> None:
    """The ledger reads exactly as the plain dict `model` with `supply`."""
    assert [(a, v.hex()) for a, v in ledger.balances.items()] == [
        (a, v.hex()) for a, v in model.items()
    ]
    assert len(ledger.balances) == len(model)
    for account in ("acct0", "acct399", "acct400", "acct449", "nobody"):
        assert (account in ledger.balances) == (account in model)
        assert ledger.balances.get(account) == model.get(account)
        assert balance_of(ledger, account) == model.get(account, 0.0)
    assert ledger.total_supply.hex() == supply.hex()


class TestAgainstPlainDicts:
    @given(ops=st.lists(st.tuples(st.integers(0, 3), _model_op), min_size=40, max_size=100))
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_operations_match_copies_of_a_dict(self, ops):
        """Each operation, applied to the latest snapshot or one up to three
        back, reads as the same writes on a copy of a plain dict would."""
        start = {f"acct{i}": (i % 7) * 1.25 + i / 400 for i in range(400)}
        history = [(new_ledger("TOK", start), start, math.fsum(start.values()))]
        for back, (kind, *args) in ops:
            led, model, supply = history[max(0, len(history) - 1 - back)]
            model = dict(model)
            if kind in ("transfer", "burn"):
                src, fraction = args[0], args[-1]
                held = model.get(src, 0.0)
                amount = held * fraction
                try:
                    led = (
                        ledger_transfer(led, src, args[1], amount)
                        if kind == "transfer" else ledger_burn(led, src, amount)
                    )
                except InsufficientBalance:
                    assert amount > held
                    continue
                assert amount <= held
                if amount > 0.0 and kind == "burn":
                    model[src] = held - amount
                elif amount > 0.0 and src != args[1]:
                    model[src] = held - amount
                    model[args[1]] = model.get(args[1], 0.0) + amount
            else:
                grants = [tuple(args)] if kind == "mint" else args[0]
                led = ledger_mint(led, *args) if kind == "mint" else ledger_mint_many(led, grants)
                for to, amount in grants:
                    if amount > 0.0:
                        model[to] = model.get(to, 0.0) + amount
            supply = math.fsum(model.values())  # the exact sum, rounded once
            _matches(led, model, supply)
            history.append((led, model, supply))
        for led, model, supply in history:  # no later operation changed one
            _matches(led, model, supply)


class TestOperationCost:
    def test_transfers_copy_far_less_than_the_balance_map(self):
        """1,000 transfers on a 3,000-account ledger allocate less than a
        tenth of what 1,000 copies of its balance map would."""
        accounts = [f"acct{i}" for i in range(3000)]
        plain = dict.fromkeys(accounts, 1.0)
        led = new_ledger("TOK", plain)
        rng = random.Random(7)
        moves = [(rng.choice(accounts), rng.choice(accounts)) for _ in range(1000)]
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            copied = plain.copy()
            one_copy = tracemalloc.get_traced_memory()[1] - before
            del copied
            allocated = 0
            for src, dst in moves:
                before = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                led = ledger_transfer(led, src, dst, 1e-3)
                allocated += tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert allocated < 100 * one_copy, (allocated, one_copy)


class TestNonFiniteAmounts:
    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
    def test_new_ledger_rejects(self, value):
        with pytest.raises(DomainError):
            new_ledger("TOK", {"a": value})

    @pytest.mark.parametrize("value", [math.inf, math.nan, -1.0])
    @pytest.mark.parametrize("operation", ["transfer", "mint", "burn", "mint_many"])
    def test_operations_reject(self, operation, value):
        """Every operation refuses with the one message, whether it calls
        `_require_amount` or spells its check out inline."""
        led = new_ledger("TOK", {"a": 1.0})
        with pytest.raises(DomainError, match="^amount must be finite and non-negative: "):
            if operation == "transfer":
                ledger_transfer(led, "a", "b", value)
            elif operation == "mint":
                ledger_mint(led, "a", value)
            elif operation == "mint_many":
                ledger_mint_many(led, [("a", 1.0), ("b", value)])
            else:
                ledger_burn(led, "a", value)

    @pytest.mark.parametrize("accounts", [1, 16])
    def test_mint_many_refused_midway_leaves_its_input(self, accounts):
        """A grant refused after an accepted one leaves the input's balances
        as they were, whether the first grant was written into a folded base
        (few accounts) or into a copy of the recent writes (many)."""
        led = ledger_mint(new_ledger("TOK", {f"a{i}": 1.0 for i in range(accounts)}), "a0", 1.0)
        before = dict(led.balances)
        with pytest.raises(DomainError, match="^amount must be finite and non-negative: "):
            ledger_mint_many(led, [("a0", 1.0), ("b", -1.0)])
        assert dict(led.balances) == before


# ---------------------------------------------------------------------------
# fee parameters
# ---------------------------------------------------------------------------


class TestFeeParams:
    def test_defaults_are_zero(self):
        fees = FeeParams()
        assert fees.trade_fee == 0.0

    @pytest.mark.parametrize("fee", [-0.1, 1.0, 1.5])
    def test_trade_fee_domain(self, fee):
        with pytest.raises(DomainError):
            FeeParams(trade_fee=fee)

    def test_boundary_values_accepted(self):
        FeeParams(trade_fee=0.0)
        FeeParams(trade_fee=0.999)


# ---------------------------------------------------------------------------
# conservation property
# ---------------------------------------------------------------------------


class TestLedgerConservation:
    @given(
        start=st.dictionaries(st.sampled_from(["a", "b", "c", "pool"]), amounts, max_size=4),
        ops=st.lists(
            st.tuples(
                st.sampled_from(["transfer", "mint", "burn"]),
                st.sampled_from(["a", "b", "c", "pool"]),
                st.sampled_from(["a", "b", "c", "pool"]),
                amounts,
            ),
            max_size=30,
        ),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_supply_equals_balance_sum(self, start, ops):
        """Sum of balances tracks total_supply through arbitrary op mixes."""
        led = new_ledger("TOK", start)
        for kind, src, dst, amt in ops:
            try:
                if kind == "transfer":
                    led = ledger_transfer(led, src, dst, amt)
                elif kind == "mint":
                    led = ledger_mint(led, dst, amt)
                else:
                    led = ledger_burn(led, src, amt)
            except InsufficientBalance:
                continue
            assert _supply_ok(led)
            assert all(v >= 0.0 for v in led.balances.values())

    @pytest.mark.parametrize("start, mint", [
        ({"b": 0.001}, True),
        ({"a": 32768.0, "b": 0.001}, False),
    ], ids=["mint-then-burn", "burn"])
    def test_supply_survives_cancellation(self, start, mint):
        """`a` ends with nothing and `b` with 0.001, but a running float sum
        of the supply would read 0.001 + 32768 - 32768 = 0.000999999996565748,
        3.4e-9 off the balances; the supply read from the balances is 0.001."""
        led = new_ledger("TOK", start)
        if mint:
            led = ledger_mint(led, "a", 32768.0)
        led = ledger_burn(led, "a", 32768.0)
        assert dict(led.balances) == {"a": 0.0, "b": 0.001}
        assert _supply_ok(led)
        assert led.total_supply == 0.001

    @given(x=amounts, y=amounts, amt=amounts)
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_failed_transfer_leaves_no_trace(self, x, y, amt):
        led = new_ledger("TOK", {"a": x, "b": y})
        before = dict(led.balances)
        try:
            led2 = ledger_transfer(led, "a", "b", amt)
        except InsufficientBalance:
            assert led.balances == before
        else:
            assert math.isclose(
                led2.total_supply, led.total_supply, rel_tol=REL, abs_tol=1e-12
            )


@dataclasses.dataclass(frozen=True, slots=True)
class _Normalised:
    items: tuple
    label: str = "x"
    size: int = dataclasses.field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "items", tuple(self.items))
        object.__setattr__(self, "size", len(self.items))


class TestSlotBuilder:
    def test_builds_what_the_constructor_stores(self):
        build = _slot_builder(_Normalised)
        built, constructed = build((1, 2), "y", 2), _Normalised([1, 2], "y")
        assert built == constructed and repr(built) == repr(constructed)
        assert hash(built) == hash(constructed)
        assert (built.items, built.label, built.size) == ((1, 2), "y", 2)
        assert type(built) is _Normalised

    def test_neither_normalises_nor_checks(self):
        # the caller hands it canonical values; it runs no __post_init__
        assert _slot_builder(_Normalised)([1], "y", 7).items == [1]
        with pytest.raises(TypeError):
            _slot_builder(_Normalised)((1,), "y")

    def test_a_built_value_is_frozen(self):
        built = _slot_builder(_Normalised)((1,), "y", 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            built.label = "z"
        assert dataclasses.replace(built, items=[3]).items == (3,)
        with pytest.raises(dataclasses.FrozenInstanceError):
            del built.label

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value)),
    ], ids=["copy", "deepcopy", "pickle"])
    def test_a_built_value_copies_as_a_constructed_one(self, clone):
        cloned = clone(_slot_builder(_Normalised)((1, 2), "y", 2))
        assert type(cloned) is _Normalised
        assert cloned == _Normalised((1, 2), "y") and cloned.size == 2

    def test_refuses_a_class_it_cannot_mirror(self):
        @dataclasses.dataclass(frozen=True)
        class Unslotted:
            items: tuple

        @dataclasses.dataclass(frozen=True, slots=True)
        class Derived(_Normalised):
            extra: int = 0

        for cls in (Unslotted, Derived):
            with pytest.raises(TypeError, match=cls.__name__):
                _slot_builder(cls)

    def test_package_builders_build_their_class(self):
        config = engine.BUILTIN_POOLS["uniswap-v2-like"]
        ledgers = {t: new_ledger(t, {"c": 1e6}) for t in config.tokens}
        pool, _ = engine.create_pool(config, config.reserves, "c", ledgers)
        cases = [
            (engine._pool_state, engine.PoolState,
             [getattr(pool, f.name) for f in dataclasses.fields(pool)]),
            (sim._event, sim.ScenarioEvent, (3, "trade", ("a", "T0", "T1", "1"), 7, None)),
            (sim._record, sim.MetricsRecord, (4, "arb", 1.5, 1.25, 0.2, 100.0, None, -0.5, 0.0)),
            (sim._order, engine.TradeOrder, ("a", "T0", "T1", 2.0, "exact-in")),
        ]
        for build, cls, values in cases:
            built = build(*values)
            fields = dataclasses.fields(cls)
            constructed = cls(*(v for v, f in zip(values, fields) if f.init))
            assert type(built) is cls
            assert built == constructed and repr(built) == repr(constructed)
