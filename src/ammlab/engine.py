"""Pool orchestration: fees, settlement, LP accounting, oracle adoption.

Three archetypes share one pool abstraction:

  price-discovering-lp-based        conservation-function curves and LMSR
  price-adopting-lp-based           the price-adoption (oracle + surcharge) curve
  price-discovering-supply-sovereign  the exponential bonding curve

Each curve belongs to one of four pricing families, and the family table
below (`PricingFamily` and its subclasses, looked up from the curve's
`family`) is the only place in the package that knows the difference: the
engine, the simulator and the taxonomy probe all read it.  Each pool state
binds its family once, when it is built (`PoolState.family`).  A family
owns the state view of a pool, its canonical risky leg, the fee-aware trade
step, settlement against the ledgers, the archetype check, the spot,
invariant and deficiency observations that the simulator and the probe
read, and the moves only the probe makes (deeper liquidity, walks toward
the price bounds, basket costs, mean prices; its buys and sales of the
risky leg call the trade step itself):

  family        curves                     state view            fee paid on         fee kept
  conservation  constant product, geometric reserves              the input           in the reserves
                mean, constant sum, product-
                sum, power-sum
  adoption      price adoption             (r0, r1) + oracle     the input           in the reserves
  scoring rule  LMSR                       (collateral, *shares) buys: the input;    in the collateral
                                                                 sells: the payout   reserve
  bonding       exponential                (reserve, supply)     buys: the input;    outside the bonded
                                                                 sells: the payout   reserve

Every fee is also booked in `accumulated_fees` on the side that paid it.
A bonding reserve moves by what the curve prices, so at fee 0 the pool
account holds exactly reserves[0]; it stays S**kappa / c only to the
rounding of the trades that moved it (within 1e-6 of it over 3,000 trades).

Other conventions chosen here (the pricing layer itself lives in curves.py):

  * The first liquidity provider mints the geometric mean of the deposit,
    and so does a deposit into a pool emptied of shares, by the same
    opening rule (`PricingFamily.open`); other deposits must be
    reserve-proportional (1e-9 relative), an empty reserve taking nothing,
    and mint pro rata. Withdrawals pay a pro-rata slice of every reserve.
  * LMSR pools hold tokens = (collateral, outcome_0, ..., outcome_{n-1}) and
    reserves = (collateral_held, outstanding_0, ..., outstanding_{n-1}).
    Creation requires a collateral subsidy of at least C(0) = b*ln(n), the
    worst-case resolution liability, to 1e-9 of it; outcome shares are
    minted and burned by the pool, and deposit/withdraw are not supported
    after creation.
  * Resolution pays 1 collateral per winning share, burns the redeemed
    shares, sweeps leftover collateral to the creator, and closes the pool.
  * A quote that cannot be priced (a non-finite amount, or an input that is
    not a positive float) raises DomainError.

All operations are pure: they return new PoolState / ledger values and on
failure raise without having changed anything the caller holds.

Adding a curve: write its spec class in curves.py, a `CurveSpec` subclass
declared with `@_curve(spec_name, label, family)` whose methods price it and
whose dataclass fields are its specification keys, and export it from the
package.  The spec parser, the family table, the simulator and the probe
pick it up from there.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType
from typing import Mapping, Sequence

from .core import (
    AccountId,
    DepletionError,
    DomainError,
    FeeParams,
    InsufficientBalance,
    Ledger,
    TokenId,
    UnsupportedOperation,
    _read_text,
    _slot_builder,
    balance_of,
    ledger_burn,
    ledger_mint,
    ledger_transfer,
    new_ledger,
)
from .curves import (
    BONDING,
    CONSERVATION,
    CURVES,
    PRICE_ADOPTION,
    SCORING_RULE,
    CurveSpec,
    lmsr_trade_cost,
)

PRICE_DISCOVERING_LP_BASED = "price-discovering-lp-based"
PRICE_ADOPTING_LP_BASED = "price-adopting-lp-based"
PRICE_DISCOVERING_SUPPLY_SOVEREIGN = "price-discovering-supply-sovereign"

# what each archetype's pools must be priced by
_ARCHETYPE_CURVES = {
    PRICE_DISCOVERING_LP_BASED: (
        "price-discovering LP pools need a conservation-function or LMSR curve"
    ),
    PRICE_ADOPTING_LP_BASED: "price-adopting pools need a price-adoption curve",
    PRICE_DISCOVERING_SUPPLY_SOVEREIGN: "supply-sovereign pools need an exponential curve",
}

ARCHETYPES = frozenset(_ARCHETYPE_CURVES)

EXACT_IN = "exact-in"
EXACT_OUT = "exact-out"

PROPORTIONAL_TOL = 1e-9

Ledgers = Mapping[TokenId, Ledger]


# ---------------------------------------------------------------------------
# domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PoolConfig:
    """Static pool description, the parsed form of a pool specification file."""

    archetype: str
    tokens: tuple[TokenId, ...]
    curve: CurveSpec
    fee_rate: float = 0.0
    reserves: tuple[float, ...] = ()
    oracle_price: float | None = None

    def __post_init__(self) -> None:
        if self.archetype not in ARCHETYPES:
            raise DomainError(
                f"unknown archetype {self.archetype!r}; expected one of "
                f"{sorted(ARCHETYPES)}"
            )
        object.__setattr__(self, "tokens", tuple(str(t) for t in self.tokens))
        if len(self.tokens) < 2:
            raise DomainError("a pool needs at least two tokens")
        if len(set(self.tokens)) != len(self.tokens):
            raise DomainError(f"duplicate token ids: {self.tokens}")
        if any(not t for t in self.tokens):
            raise DomainError("token ids must be non-empty")
        object.__setattr__(self, "reserves", tuple(float(r) for r in self.reserves))
        if self.reserves and len(self.reserves) != len(self.tokens):
            raise DomainError(
                f"{len(self.reserves)} reserves for {len(self.tokens)} tokens"
            )
        if any(r < 0.0 or not math.isfinite(r) for r in self.reserves):
            raise DomainError(f"reserves out of range: {self.reserves}")
        FeeParams(trade_fee=self.fee_rate)  # validates the rate
        if self.oracle_price is not None and not 0.0 < self.oracle_price < math.inf:
            raise DomainError(
                f"oracle price must be positive and finite: {self.oracle_price}"
            )


@dataclass(frozen=True, slots=True)
class PoolState:
    archetype: str
    tokens: tuple[TokenId, ...]
    curve: CurveSpec
    reserves: tuple[float, ...]
    fee: FeeParams
    lp_share_supply: float
    lp_shares: Mapping[AccountId, float]
    circulating_supply: float
    oracle_price: float | None
    accumulated_fees: tuple[float, ...]
    account: AccountId
    creator: AccountId
    closed: bool = False
    # the pricing family, bound to the curve and the oracle price when the
    # state is built; derived, so `replace` and every constructor rebuild it
    # and check the pool's shape against it
    family: PricingFamily = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        object.__setattr__(self, "reserves", tuple(self.reserves))
        object.__setattr__(
            self, "accumulated_fees", tuple(self.accumulated_fees)
        )
        if not isinstance(self.lp_shares, MappingProxyType):
            object.__setattr__(
                self, "lp_shares", MappingProxyType(dict(self.lp_shares))
            )
        family = PricingFamily.of(self.curve, self.oracle_price)
        family.check(self.archetype, len(self.tokens))
        object.__setattr__(self, "family", family)


# a trade's successor state (`PricingFamily.apply`), an LP deposit's or
# withdrawal's (`_lp_moved`), and an adopted price's: each keeps the
# archetype, tokens and curve of a pool whose shape was checked when it was
# built; and a new pool's (`_open_pool`), whose config's shape was checked
# just before
_pool_state = _slot_builder(PoolState)


@dataclass(frozen=True, slots=True)
class TradeOrder:
    trader: AccountId
    token_in: TokenId
    token_out: TokenId
    amount: float
    kind: str  # "exact-in" | "exact-out"


@dataclass(frozen=True, slots=True)
class Quote:
    amount_in: float
    amount_out: float
    fee_paid: float
    surcharge_component: float
    spot_before: float
    spot_after: float
    mean_price: float


class TradeReceipt:
    """What a swap settled: its `quote`, the pool's `reserves_after` and
    the trader's `trader_deltas` (what was paid, negative, and what was
    received, by token).

    A receipt that `execute_swap` or the arbitrage step returns keeps the
    trade it settled (the pool before it, the order, its legs and the
    priced trade step) and works out `quote` and `trader_deltas` from it
    the first time either is read: to the same bits as pricing them at
    settlement, which a caller that discards the receipt never pays for.
    Such a receipt keeps the pool state before the trade alive until it is
    read.  Equality and the repr compare and print the three values; the
    attributes are read-only.
    """

    __slots__ = ("_quote", "_reserves", "_deltas", "_settled")

    def __init__(
        self,
        quote: Quote,
        reserves_after: Sequence[float],
        trader_deltas: Mapping[TokenId, float],
    ):
        self._quote = quote
        self._reserves = tuple(reserves_after)
        if not isinstance(trader_deltas, MappingProxyType):
            trader_deltas = MappingProxyType(dict(trader_deltas))
        self._deltas = trader_deltas
        self._settled = None

    @property
    def quote(self) -> Quote:
        settled = self._settled
        if settled is not None:
            self._price(*settled)
        return self._quote

    @property
    def reserves_after(self) -> tuple[float, ...]:
        return self._reserves

    @property
    def trader_deltas(self) -> Mapping[TokenId, float]:
        settled = self._settled
        if settled is not None:
            self._price(*settled)
        return self._deltas

    def _price(self, pool: PoolState, order: TradeOrder, i: int, j: int, trade: Trade) -> None:
        # the settled trade is dropped only once both values are written
        self._quote = _quoted(pool, order, i, j, trade)
        self._deltas = MappingProxyType({order.token_in: -trade[0], order.token_out: trade[1]})
        self._settled = None

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.quote, self._reserves, self.trader_deltas) == (
            other.quote, other._reserves, other.trader_deltas
        )

    def __repr__(self) -> str:
        return (
            f"{type(self).__qualname__}(quote={self.quote!r}, "
            f"reserves_after={self._reserves!r}, trader_deltas={self.trader_deltas!r})"
        )


# ---------------------------------------------------------------------------
# pricing families
# ---------------------------------------------------------------------------


State = tuple[float, ...]


class PricingFamily:
    """How one pricing family prices, settles and observes a pool.

    The base class is the conservation family; each other family overrides
    what differs.  A family is bound to a curve spec (and, for price
    adoption, the adopted price) and works on a state view: a tuple indexed
    like the pool's tokens.  Legs from `issued_from` up are tokens the pool
    mints and burns instead of holding; a trader who pays in one of them pays
    the fee out of the payout, everyone else pays it on the input.  A trade
    step names what the curve takes in (`took`) and pays out (`gave`), and
    the fee is the gap between that and what the trader pays or gets on the
    side that carries it.  The fee stays in the reserves unless
    `fee_in_reserves` is False, when the reserves move by `took` and `gave`
    alone, and is booked in `accumulated_fees` on the side that paid it
    either way.

    Each pool state binds its family once, when it is built, and every
    quote, settlement, arbitrage step and metrics row reads that family;
    the taxonomy probe runs its experiments through the family's probe
    moves.  A family prices any state it is given: every price reads the
    conservation value of the state it prices.

    `trade` and `spot_between` call the curve spec's closed forms directly,
    not the public curve functions, which check the legs and the amount on
    every call.  `trade` checks the amount by the same rules.  Only the
    scoring rule overrides `curve_args` (`maps_legs`, worked out when the
    class is made) and passes a state and its legs through it first: its
    curve prices the outcome legs alone and takes the collateral leg as
    None.  Every other family hands the state and its legs over unchanged;
    a price-adoption curve refuses a missing adopted price itself, on every
    price it gives.  `spot` and `invariant` call the curve spec too.  Legs are
    checked where they enter: a pool state runs `check` when it is built,
    by its constructor or by `dataclasses.replace`, `_validate_order`
    checks an order's tokens, and the probe runs the curve's `check_legs`
    once on the legs of its opening state.  A pool that passed `check` has
    legs the curve accepts for every pair of its tokens the family trades.
    An exponential quote refuses a nan, negative or half-empty state itself,
    and a trade that would leave a half-empty state.
    """

    __slots__ = ("curve", "price")

    archetype = PRICE_DISCOVERING_LP_BASED
    # canonical risky leg, the one a portfolio mark values at the reference
    # price, and the numeraire, leg 1 - risky, that it is priced in
    risky, numeraire = 0, 1
    issued_from: float = math.inf
    maps_legs = False  # whether the class overrides `curve_args`; see __init_subclass__
    fee_in_reserves = True
    lp_error: str | None = None  # why the pool takes no deposits
    arb_error: str | None = None  # why the pool cannot be arbitraged

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls.maps_legs = cls.curve_args is not PricingFamily.curve_args

    @staticmethod
    def of(curve: CurveSpec, price: float | None = None) -> PricingFamily:
        """The family that prices `curve`, bound to it and the adopted price."""
        try:
            family_class = _FAMILIES[curve.family]
        except AttributeError:
            raise DomainError(f"unknown curve spec: {curve!r}") from None
        # the only constructor: every quote builds one, and skipping a
        # Python-level __init__ keeps that cheap
        family = object.__new__(family_class)
        family.curve = curve
        family.price = price
        return family

    # -- state view and creation --------------------------------------------

    def view(self, pool: PoolState) -> State:
        return pool.reserves

    def stored(self, pool: PoolState, state: State) -> tuple:
        """(reserves, circulating supply) that hold `state`, the inverse of
        view."""
        return state, pool.circulating_supply

    def curve_args(self, state: State, i: int, j: int) -> tuple:
        """(curve-layer reserves, leg in, leg out) of a trade from i to j."""
        return state, i, j

    def check(self, archetype: str, n_tokens: int) -> None:
        if archetype != self.archetype:
            raise DomainError(_ARCHETYPE_CURVES[archetype])
        self.curve.check_tokens(n_tokens)

    def open(self, deposit: State, creator: AccountId) -> tuple:
        """(reserves, LP share supply, LP shares) of a new pool; the share
        supply is also what a deposit into a pool with no shares mints."""
        if any(not a > 0.0 for a in deposit):
            raise DomainError(
                f"LP-based pools need strictly positive initial deposits: {deposit}"
            )
        lp_supply = math.prod(deposit) ** (1.0 / len(deposit))
        return deposit, lp_supply, {creator: lp_supply}

    def opening(self, reserves: State) -> tuple[State, float]:
        """(state, scale) of a pool opened at the configured reserves: the
        state a probe starts from, and the characteristic size its trades
        are drawn from and its deviations measured against, here the
        smallest reserve."""
        return reserves, min(reserves)

    def materialize(self, config: PoolConfig, creator: AccountId) -> tuple:
        """A live pool at the configured reserves, and its ledgers, for a
        config whose shape this family has checked (`materialize_pool`)."""
        ledgers = {
            token: new_ledger(token, {creator: amount} if amount > 0.0 else {})
            for token, amount in zip(config.tokens, config.reserves)
        }
        return _open_pool(self, config, config.reserves, creator, ledgers)

    # -- trading ------------------------------------------------------------

    def trade(
        self, state: State, i: int, j: int, kind: str, amount: float, fee: float
    ) -> tuple[float, float, float, State]:
        """Trade token i for token j: (amount_in, amount_out, fee_paid, state
        after).  `amount` is the exact input or output, fee included.

        Each order kind names what the curve takes in, `took`, and what it
        pays out, `gave`, and calls the curve's closed form once (see the
        class docstring) for the one it does not know.  An issued leg in
        (`payout`) pays the fee out of the payout: exact in, the curve takes
        the whole amount and the trader gets `gave * keep`; exact out, the
        curve gives `amount / keep` for `took`.  Every other trade pays it
        on the input: exact in, the curve takes `amount * keep`; exact out,
        the trader pays `took / keep`.  The fee is the gap on the side that
        paid it.  The reserves move by what the trader pays and gets or,
        where the fee stays outside them, by `took` and `gave`; issued legs
        burn and mint."""
        view, leg_in, leg_out = state, i, j
        if self.maps_legs:
            view, leg_in, leg_out = self.curve_args(state, i, j)
        keep, issued_from = 1.0 - fee, self.issued_from
        payout = i >= issued_from
        if kind == EXACT_IN:
            took = amount if payout else amount * keep
            if not took >= 0.0:
                raise DomainError(f"input amount must be non-negative: {took}")
            gave = self.curve.quote_in(view, leg_in, leg_out, took, self.price) if took else 0.0
            amount_in, amount_out = amount, gave * keep if payout else gave
        else:
            gave = amount / keep if payout else amount
            if not gave >= 0.0:
                raise DomainError(f"output amount must be non-negative: {gave}")
            took = self.curve.quote_out(view, leg_in, leg_out, gave, self.price) if gave else 0.0
            amount_in, amount_out = took if payout else took / keep, amount
        fee_paid = gave - amount_out if payout else amount_in - took
        if self.fee_in_reserves:
            took, gave = amount_in, amount_out
        moved_in = state[i] - took if payout else state[i] + took
        moved_out = state[j] + gave if j >= issued_from else state[j] - gave
        if len(state) == 2:
            return amount_in, amount_out, fee_paid, (
                (moved_in, moved_out) if i == 0 else (moved_out, moved_in))
        after = list(state)
        after[i], after[j] = moved_in, moved_out
        return amount_in, amount_out, fee_paid, tuple(after)

    def surcharge(self, i: int, kind: str, paid: float, got: float, fee: float) -> float:
        return 0.0

    def settle(self, pool: PoolState, trader: AccountId, i: int, j: int,
               paid: float, received: float, ledgers: Ledgers) -> dict:
        """Take `paid` of token i from the trader and give `received` of
        token j, burning and minting the issued legs.  A token missing from
        `ledgers` starts from an empty ledger."""
        token_in, token_out = pool.tokens[i], pool.tokens[j]
        updated = dict(ledgers)
        led_in = updated.get(token_in)
        if led_in is None:
            led_in = new_ledger(token_in)
        if i >= self.issued_from:
            updated[token_in] = ledger_burn(led_in, trader, paid)
        else:
            updated[token_in] = ledger_transfer(led_in, trader, pool.account, paid)
        led_out = updated.get(token_out)
        if led_out is None:
            led_out = new_ledger(token_out)
        if j >= self.issued_from:
            updated[token_out] = ledger_mint(led_out, trader, received)
        else:
            updated[token_out] = ledger_transfer(led_out, pool.account, trader, received)
        return updated

    def apply(self, pool: PoolState, i: int, j: int, after: State, fee: float) -> PoolState:
        """The pool at `after`, the state a trade of token i for token j
        reaches, its fee `fee` booked on the side that paid it.

        This runs on every swap, so the successor is built slot by slot
        (`core._slot_builder`), not through the constructor: the reserves
        `stored` gives and the fees are tuples, and the tokens, fee, LP
        shares and the bound family are `pool`'s own, already in the form
        the constructor gives them; the family is not looked up again."""
        fees = list(pool.accumulated_fees)
        fees[j if i >= self.issued_from else i] += fee
        reserves, supply = self.stored(pool, after)
        return _pool_state(
            pool.archetype, pool.tokens, pool.curve, reserves, pool.fee,
            pool.lp_share_supply, pool.lp_shares, supply, pool.oracle_price,
            tuple(fees), pool.account, pool.creator, pool.closed, pool.family,
        )

    # -- observations -------------------------------------------------------

    def spot_between(self, state: State, i: int, j: int) -> float:
        """Instantaneous units of token j per unit of token i."""
        if self.maps_legs:
            state, i, j = self.curve_args(state, i, j)
        return self.curve.spot(state, i, j, self.price)

    def state_at_spot(self, state: State, i: int, j: int, price: float) -> State | None:
        """The curve state on the conservation level of `state` at which
        `spot_between(., i, j)` is `price`, or None where none lies inside
        the curve's domain (see `CurveSpec`).  Only the arbitrage step asks,
        and it trades no family that maps legs: a scoring rule's curve,
        which would take them mapped, has no such state and gives None."""
        return self.curve.state_at_spot(state, i, j, price, self.price)

    def spot(self, state: State) -> float:
        """Spot of the risky leg in the numeraire."""
        return self.spot_between(state, self.risky, self.numeraire)

    def spots(self, state: State) -> tuple[float, ...]:
        """Every spot the probe watches; by default the risky leg's."""
        return (self.spot(state),)

    def invariant(self, state: State) -> float | None:
        return self.curve.invariant(state)

    def deficiency(self, state: State) -> float:
        """The value path deficiency tracks; trades never lower it."""
        return self.invariant(state)

    def deficiency_ref(self, state0: State) -> float:
        """Scale that deficiency changes are measured against."""
        return self.deficiency(state0)

    def surcharged(self) -> bool:
        """Whether quotes carry an imbalance surcharge (risk management)."""
        return False

    # -- probe moves --------------------------------------------------------
    # The taxonomy probe displaces the risky leg by calling `trade` itself:
    # a buy is an exact-out purchase of it with the numeraire, a sale an
    # exact-in sale of it, so a displacement multiset reaches the same
    # terminal risky balance in any order.

    def check_probe(self) -> None:
        """Refuse, with DomainError, a pool that no probe can start from."""

    def path_base(self, state0: State) -> State:
        """The state the path independence probe starts from."""
        return state0

    def mean_price(self, state: State, volume: float) -> float:
        """Mean price of `volume` risky units: bought where the pool issues
        the leg (a sale needs that much outstanding), sold where it holds
        the leg."""
        risky, numeraire = self.risky, self.numeraire
        if risky >= self.issued_from:
            return self.trade(state, numeraire, risky, EXACT_OUT, volume, 0.0)[0] / volume
        return self.trade(state, risky, numeraire, EXACT_IN, volume, 0.0)[1] / volume

    def basket_cost(self, state: State, amount: float) -> float:
        """Cost of `amount` units of every leg, in the numeraire."""
        numeraire = self.numeraire
        total = 1.0  # one unit of the numeraire itself
        for i in range(len(state)):
            if i != numeraire:
                total += self.spot_between(state, i, numeraire)
        return amount * total

    def deepened(self, factor: float) -> PricingFamily:
        """The family of a pool `factor` times as deep; the probe opens it
        at `factor` times its opening state."""
        return self

    def walk_up(self, state: State, fraction: float) -> State:
        """A walk toward the risky leg's upper price bound."""
        return self.trade(state, 1, 0, EXACT_OUT, fraction * state[0], 0.0)[3]

    def walk_down(self, state: State, fraction: float) -> State:
        """A walk toward the risky leg's lower price bound."""
        return self.trade(state, 0, 1, EXACT_OUT, fraction * state[1], 0.0)[3]


class AdoptionFamily(PricingFamily):
    """Price adoption: reserves (r0, r1) priced around the adopted price."""

    __slots__ = ()
    archetype = PRICE_ADOPTING_LP_BASED

    def opening(self, reserves):
        return reserves, min(self.curve.target_reserves)

    def surcharge(self, i, kind, paid, got, fee):
        # counterfactual at k = 0: trade at the flat adopted price
        p = self.price
        if kind == EXACT_IN:
            effective = paid * (1.0 - fee)
            flat_out = effective * p if i == 0 else effective / p
            return max(0.0, flat_out - got)
        flat_in = got / p if i == 0 else got * p
        return max(0.0, (paid * (1.0 - fee)) - flat_in)

    def spots(self, state):
        """(bid, ask) for token 0, both in token 1; none before a price is
        adopted."""
        if self.price is None:
            return ()
        return (self.spot_between(state, 0, 1), 1.0 / self.spot_between(state, 1, 0))

    def invariant(self, state):
        return None  # price adoption has no conservation function

    def deficiency(self, state):
        return state[1] + self.price * state[0]

    def surcharged(self):
        return self.curve.k > 0.0

    def check_probe(self):
        if self.price is None:
            raise DomainError("probing a price-adopting pool requires an oracle price")

    def basket_cost(self, state, amount):
        return amount * (1.0 + self.curve.mid(state[0], self.price))

    def deepened(self, factor):
        targets = tuple(factor * t for t in self.curve.target_reserves)
        return PricingFamily.of(replace(self.curve, target_reserves=targets), self.price)

    def walk_down(self, state, fraction):
        curve = self.curve
        if curve.k > 0.0:
            # walk toward the reserve level where the bid floors at zero
            span = curve.zero_bid_reserve() - state[0]
            if span > 0.0:
                try:
                    return self.trade(state, 0, 1, EXACT_IN, fraction * span, 0.0)[3]
                except DepletionError:
                    pass  # the quote reserve runs out first; drain that instead
        return super().walk_down(state, fraction)


class ScoringFamily(PricingFamily):
    """Market scoring rule: state (collateral, *outstanding shares); the
    pool issues the outcome shares and keeps fees in the collateral."""

    __slots__ = ()
    risky, numeraire = 1, 0  # outcome 0, in the collateral
    issued_from = 1
    lp_error = "LMSR pools are funded by the creation subsidy only"
    arb_error = "arbitrage needs a two-token pool, not a prediction market"

    def curve_args(self, state, i, j):
        if i != 0 and j != 0:
            raise UnsupportedOperation("LMSR trades one outcome against collateral")
        if i == 0:
            return state[1:], None, j - 1
        return state[1:], i - 1, None

    def open(self, deposit, creator):
        n = len(deposit)
        subsidy = deposit[0]
        liability = self.curve.b * math.log(n - 1)
        if subsidy < liability * (1.0 - 1e-9):
            raise DomainError(
                f"collateral subsidy {subsidy} is below the worst-case "
                f"resolution liability b*ln({n - 1}) = {liability}"
            )
        if any(a != 0.0 for a in deposit[1:]):
            raise DomainError("LMSR pools start with zero outstanding shares")
        return (subsidy,) + (0.0,) * (n - 1), 0.0, {}

    def opening(self, reserves):
        return reserves, self.curve.b  # (collateral held, *outstanding shares)

    def invariant(self, state):
        return self.curve.invariant(state[1:])

    def deficiency(self, state):
        return state[0] - self.curve.invariant(state[1:])

    def deficiency_ref(self, state0):
        return self.curve.b

    def path_base(self, state0):
        # sell headroom for outcome 0 in every permutation of a displacement set
        return self.trade(state0, 0, 1, EXACT_OUT, self.curve.b, 0.0)[3]

    def basket_cost(self, state, amount):
        return lmsr_trade_cost(self.curve.b, state[1:], (amount,) * (len(state) - 1))

    def deepened(self, factor):
        return PricingFamily.of(replace(self.curve, b=factor * self.curve.b))

    def walk_up(self, state, fraction):
        qty = 2.0 * self.curve.b / (1.0 - fraction) * fraction
        return self.trade(state, 0, 1, EXACT_OUT, qty, 0.0)[3]

    def walk_down(self, state, fraction):
        # buy every other outcome at once
        b = self.curve.b
        qty = 2.0 * b / (1.0 - fraction) * fraction
        dq = (0.0,) + (qty,) * (len(state) - 2)
        cost = lmsr_trade_cost(b, state[1:], dq)
        return (state[0] + cost, *(v + d for v, d in zip(state[1:], dq)))


class BondingFamily(PricingFamily):
    """Bonding curve: state (bonded reserve, circulating supply); the pool
    issues token 1 and keeps fees outside the bonded reserve."""

    __slots__ = ()
    archetype = PRICE_DISCOVERING_SUPPLY_SOVEREIGN
    risky = issued_from = 1
    numeraire = 0
    fee_in_reserves = False
    lp_error = "supply-sovereign pools have no LP shares"

    def view(self, pool):
        return (pool.reserves[0], pool.circulating_supply)

    def stored(self, pool, state):
        # a sale leaves the reserve less the curve's payout, at most all of it
        reserve, supply = state
        return (reserve, 0.0), supply

    def open(self, deposit, creator):
        if any(a != 0.0 for a in deposit):
            raise DomainError("supply-sovereign pools start with zero supply")
        return (0.0, 0.0), 0.0, {}

    def primed(self, bonded: float) -> State:
        """The (reserve, supply) state whose bonded reserve is `bonded`."""
        return (bonded, self.curve.supply_at(bonded))

    def opening(self, reserves):
        state = self.primed(reserves[0])  # primed to the configured bonded reserve
        return state, state[1]

    def materialize(self, config, creator):
        if any(r != 0.0 for r in config.reserves[1:]):
            raise DomainError("supply-sovereign reserves are (bonded_reserve, 0)")
        pool, ledgers = _open_pool(self, config, (0.0, 0.0), creator, {})
        r0, supply = self.primed(config.reserves[0])
        if r0 > 0.0:
            reserve_token, issued_token = config.tokens
            ledgers[reserve_token] = ledger_mint(ledgers[reserve_token], pool.account, r0)
            ledgers[issued_token] = ledger_mint(ledgers[issued_token], BOOTSTRAP_ACCOUNT, supply)
            # the pool at (r0, supply), as a fee-free buy of the supply leaves it
            pool = self.apply(pool, 0, 1, (r0, supply), 0.0)
        return pool, ledgers

    def deficiency(self, state):
        return state[0] - state[1] ** self.curve.kappa / self.curve.c

    def deficiency_ref(self, state0):
        return state0[0]

    def walk_up(self, state, fraction):
        target = state[1] / (1.0 - fraction)
        return self.trade(state, 0, 1, EXACT_OUT, target - state[1], 0.0)[3]

    def walk_down(self, state, fraction):
        return self.trade(state, 1, 0, EXACT_IN, fraction * state[1], 0.0)[3]


_FAMILIES = {
    CONSERVATION: PricingFamily,
    PRICE_ADOPTION: AdoptionFamily,
    SCORING_RULE: ScoringFamily,
    BONDING: BondingFamily,
}


def check_opening(config: PoolConfig) -> PricingFamily:
    """The config's family, bound to its curve and oracle price, once it
    has refused, with DomainError, a config whose shape the family refuses
    (`PricingFamily.check`), then a configured opening state that no quote
    or probe can measure: one whose conservation value, spots or probe
    scale (`PricingFamily.opening`) is 0, subnormal or past the float
    range.  `materialize_pool` runs it on every config it is given and
    opens the pool through the family it returns, and every command opens
    its pool through `materialize_pool`.  A spot of 0 is a price bound,
    the bid of a price-adoption pool floored at zero, and passes; the
    origin of a bonding curve, or a pool whose reserves are not funded
    yet, has nothing to measure, and a price-adoption pool no spots before
    it adopts a price."""
    family = PricingFamily.of(config.curve, config.oracle_price)
    family.check(config.archetype, len(config.tokens))
    state, scale = family.opening(config.reserves)
    if any(state):
        value, spots = family.invariant(state), family.spots(state)
        measured = [scale, *(spot for spot in spots if spot != 0.0)] + ([] if value is None else [value])
        if not all(sys.float_info.min <= x < math.inf for x in measured):
            raise DomainError(
                f"the opening state {state} leaves the normal float range: conservation "
                f"value {value}, spots {spots}, probe scale {scale}"
            )
    return family


def _require_family(pool: PoolState, family: type, message: str) -> None:
    if not isinstance(pool.family, family):
        raise UnsupportedOperation(message)


# ---------------------------------------------------------------------------
# creation
# ---------------------------------------------------------------------------


def _ledger_for(ledgers: Ledgers, token: TokenId) -> Ledger:
    found = ledgers.get(token)
    return found if found is not None else new_ledger(token)


def create_pool(
    config: PoolConfig,
    initial_deposit: Sequence[float],
    creator: AccountId,
    ledgers: Ledgers,
) -> tuple[PoolState, dict[TokenId, Ledger]]:
    """Open a pool, settling the creator's initial deposit against ledgers.
    A config of the wrong shape for its family is refused first."""
    family = PricingFamily.of(config.curve, config.oracle_price)
    family.check(config.archetype, len(config.tokens))
    return _open_pool(family, config, initial_deposit, creator, ledgers)


def _open_pool(family: PricingFamily, config: PoolConfig, initial_deposit: Sequence[float],
               creator: AccountId, ledgers: Ledgers) -> tuple[PoolState, dict[TokenId, Ledger]]:
    """`create_pool` for a config whose shape `family`, its family, has
    checked: the state is built slot by slot (`_pool_state`), not checked
    again."""
    tokens = config.tokens
    n = len(tokens)
    deposit = _deposit_amounts(initial_deposit, n)
    account = "pool:" + "/".join(tokens)
    reserves, lp_supply, lp_shares = family.open(deposit, creator)
    pool = _pool_state(
        config.archetype, tokens, config.curve, reserves, FeeParams(trade_fee=config.fee_rate),
        lp_supply, MappingProxyType(lp_shares), 0.0, config.oracle_price, (0.0,) * n,
        account, creator, False, family,
    )
    return pool, _moved(ledgers, tokens, creator, account, deposit)


def _deposit_amounts(amounts: Sequence[float], n: int) -> State:
    """The amounts of a deposit into a pool of n tokens, as floats, once
    each is checked to be non-negative and finite."""
    deposit = tuple(float(a) for a in amounts)
    if len(deposit) != n:
        raise DomainError(f"{len(deposit)} deposit amounts for {n} tokens")
    if any(a < 0.0 or not math.isfinite(a) for a in deposit):
        raise DomainError(f"deposit amounts out of range: {deposit}")
    return deposit


def _moved(ledgers: Ledgers, tokens: Sequence[TokenId], src: AccountId, dst: AccountId,
           amounts: Sequence[float]) -> dict[TokenId, Ledger]:
    """The ledgers once each amount moves from src to dst in its token: a
    pool's opening deposit, an LP deposit or an LP withdrawal."""
    updated = dict(ledgers)
    for t, amount in zip(tokens, amounts):
        updated[t] = ledger_transfer(_ledger_for(updated, t), src, dst, amount)
    return updated


# ---------------------------------------------------------------------------
# quoting and settlement
# ---------------------------------------------------------------------------


def _token_index(pool: PoolState, token: TokenId) -> int:
    try:
        return pool.tokens.index(token)
    except ValueError:
        raise DomainError(f"unknown token {token!r}; pool holds {pool.tokens}") from None


def _require_outsider(pool: PoolState, account: AccountId) -> None:
    """Refuse the pool's own account as a trader or liquidity provider: its
    transfers to and from the pool move no balance, yet the pool would."""
    if account == pool.account:
        raise DomainError(f"the pool's own account {account!r} cannot trade or provide liquidity")


def _validate_order(pool: PoolState, order: TradeOrder) -> tuple[int, int]:
    _require_outsider(pool, order.trader)
    if order.kind not in (EXACT_IN, EXACT_OUT):
        raise DomainError(f"order kind must be exact-in or exact-out: {order.kind!r}")
    if not 0.0 < order.amount < math.inf:
        raise DomainError(f"order amount must be positive and finite: {order.amount}")
    i = _token_index(pool, order.token_in)
    j = _token_index(pool, order.token_out)
    if i == j:
        raise DomainError("token_in and token_out must differ")
    return i, j


def _safe_spot(family: PricingFamily, state: State, i: int, j: int) -> float:
    try:
        return family.spot_between(state, i, j)
    except DomainError:
        return math.nan


Trade = tuple[float, float, float, State]  # a trade step: (paid, got, fee, state after)


def _priced(pool: PoolState, order: TradeOrder, ledgers: Ledgers | None = None) -> tuple[int, int, Trade]:
    """(leg in, leg out, trade step) of an order, priced by the pool's
    family; raises where the order cannot be priced.

    Given the ledgers, an exact-in sale of an issued leg i is priced at
    state[i], what the pool has outstanding, where it is within float dust
    (1e-9 relative) of that amount and either exceeds it or is the whole
    ledger supply: the outstanding amount is a running float sum and the
    ledger's supply the exact sum of its balances, so the two drift apart
    by rounding, and no holder is refused for the drift while the last one
    empties the pool.  The trader still pays the whole order."""
    if pool.closed:
        raise UnsupportedOperation("pool is closed")
    i, j = _validate_order(pool, order)
    family = pool.family
    state, amount = family.view(pool), order.amount
    if i >= family.issued_from and order.kind == EXACT_IN and ledgers is not None:
        outstanding = state[i]
        if abs(amount - outstanding) <= 1e-9 * max(1.0, outstanding) and (
                amount > outstanding or amount == _ledger_for(ledgers, pool.tokens[i]).total_supply):
            amount = outstanding
    trade = family.trade(state, i, j, order.kind, amount, pool.fee.trade_fee)
    if amount != order.amount:
        trade = (order.amount, *trade[1:])
    if not 0.0 < trade[0] < math.inf:
        raise DomainError(
            f"cannot price {order.kind} {order.amount}: the input would be {trade[0]}"
        )
    return i, j, trade


def _quoted(pool: PoolState, order: TradeOrder, i: int, j: int, trade: Trade) -> Quote:
    """The Quote of `trade`, which the pool's family priced for `order`."""
    paid, got, fee_paid, after = trade
    family = pool.family
    return Quote(  # positional: this runs on every swap
        paid,
        got,
        fee_paid,
        family.surcharge(i, order.kind, paid, got, pool.fee.trade_fee),
        _safe_spot(family, family.view(pool), i, j),
        _safe_spot(family, after, i, j),
        got / paid,
    )


def _settle_trade(
    pool: PoolState, order: TradeOrder, i: int, j: int, trade: Trade, ledgers: Ledgers
) -> tuple[PoolState, TradeReceipt, dict[TokenId, Ledger]]:
    """Settle `trade`, the trade step that the pool's family priced for
    `order` from leg i to leg j: move tokens and advance the pool state
    atomically, without pricing the order again.  The receipt keeps the
    trade and prices its quote only when it is read."""
    paid, got, fee_paid, after = trade
    family = pool.family
    updated = family.settle(pool, order.trader, i, j, paid, got, ledgers)
    settled = family.apply(pool, i, j, after, fee_paid)
    receipt = object.__new__(TradeReceipt)  # priced when first read
    receipt._reserves, receipt._settled = settled.reserves, (pool, order, i, j, trade)
    return settled, receipt, updated


def quote(pool: PoolState, order: TradeOrder) -> Quote:
    """Price an order against the pool without changing any state.  A
    quote reads no ledgers, so it prices a sale of an issued leg as given,
    not as `execute_swap` settles one within float dust of the pool's
    outstanding amount."""
    i, j, trade = _priced(pool, order)
    return _quoted(pool, order, i, j, trade)


def execute_swap(
    pool: PoolState, order: TradeOrder, ledgers: Ledgers
) -> tuple[PoolState, TradeReceipt, dict[TokenId, Ledger]]:
    """Quote the order, move tokens, and advance the pool state atomically.

    The order is priced once, by the pool's family, and that trade step is
    what settles.  An exact-in sale of an issued leg (a bonding curve's
    token, an LMSR outcome) within float dust of what the pool has
    outstanding is priced at that amount (`_priced`), so every holder
    can sell out; the trader burns, and the receipt's `amount_in` is, the
    whole order."""
    i, j, trade = _priced(pool, order, ledgers)
    return _settle_trade(pool, order, i, j, trade, ledgers)


# ---------------------------------------------------------------------------
# LP accounting
# ---------------------------------------------------------------------------


def _require_lp_pool(pool: PoolState) -> None:
    reason = pool.family.lp_error
    if reason is not None:
        raise UnsupportedOperation(reason)


def deposit_liquidity(
    pool: PoolState, provider: AccountId, amounts: Sequence[float], ledgers: Ledgers
) -> tuple[PoolState, float, dict[TokenId, Ledger]]:
    """Add reserve-proportional liquidity, minting LP shares pro rata; a
    deposit into a pool with no shares outstanding mints by the opening
    rule (`PricingFamily.open`)."""
    _require_outsider(pool, provider)
    _require_lp_pool(pool)
    if pool.closed:
        raise UnsupportedOperation("pool is closed")
    deposit = _deposit_amounts(amounts, len(pool.tokens))
    if all(a == 0.0 for a in deposit):
        return pool, 0.0, dict(ledgers)

    if pool.lp_share_supply == 0.0:
        minted = pool.family.open(deposit, provider)[1]
    else:
        # an empty leg takes nothing, and the others set the ratio
        ratios = [a / r for a, r in zip(deposit, pool.reserves) if r > 0.0]
        ratio = ratios[0] if ratios else 0.0
        if any(a > 0.0 and r == 0.0 for a, r in zip(deposit, pool.reserves)) or any(
            abs(x - ratio) > PROPORTIONAL_TOL * max(ratio, x) for x in ratios
        ):
            raise DomainError(
                f"deposit {deposit} is not proportional to reserves {pool.reserves}"
            )
        minted = pool.lp_share_supply * ratio

    updated = _moved(ledgers, pool.tokens, provider, pool.account, deposit)
    reserves = tuple(r + a for r, a in zip(pool.reserves, deposit))
    return _lp_moved(pool, reserves, provider, minted), minted, updated


def withdraw_liquidity(
    pool: PoolState, provider: AccountId, shares: float, ledgers: Ledgers
) -> tuple[PoolState, tuple[float, ...], dict[TokenId, Ledger]]:
    """Burn LP shares for a pro-rata slice of every reserve."""
    _require_lp_pool(pool)
    if not shares >= 0.0:
        raise DomainError(f"share amount must be non-negative: {shares}")
    if shares == 0.0:
        return pool, (0.0,) * len(pool.tokens), dict(ledgers)
    held = pool.lp_shares.get(provider, 0.0)
    if shares > held:
        raise InsufficientBalance(
            f"{provider!r} holds {held} LP shares, cannot burn {shares}"
        )
    fraction = shares / pool.lp_share_supply
    amounts = tuple(fraction * r for r in pool.reserves)
    updated = _moved(ledgers, pool.tokens, pool.account, provider, amounts)
    reserves = tuple(r - a for r, a in zip(pool.reserves, amounts))
    return _lp_moved(pool, reserves, provider, -shares), amounts, updated


def _lp_moved(pool: PoolState, reserves: State, provider: AccountId, minted: float) -> PoolState:
    """The pool at `reserves` once `minted` LP shares, negative for a burn,
    are added to the provider's holding and the share supply; a holding
    that falls to 0 is dropped."""
    shares = pool.lp_shares.copy()
    held = shares.get(provider, 0.0) + minted
    if held > 0.0:
        shares[provider] = held
    else:
        shares.pop(provider, None)
    return _pool_state(
        pool.archetype, pool.tokens, pool.curve, reserves, pool.fee,
        pool.lp_share_supply + minted, MappingProxyType(shares), pool.circulating_supply,
        pool.oracle_price, pool.accumulated_fees, pool.account, pool.creator, pool.closed,
        pool.family,
    )


# ---------------------------------------------------------------------------
# supply-sovereign mint/burn
# ---------------------------------------------------------------------------

_NOT_SOVEREIGN = "curve buy/sell applies only to supply-sovereign pools"


def _bond(
    pool: PoolState, trader: AccountId, i: int, amount: float, ledgers: Ledgers
) -> tuple[PoolState, float, dict[TokenId, Ledger]]:
    """An `execute_swap` of `amount` of token i (0 buys, 1 sells), exact
    in: (pool after, what it paid out, ledgers after)."""
    _require_family(pool, BondingFamily, _NOT_SOVEREIGN)
    if not amount >= 0.0:
        raise DomainError(f"amount must be non-negative: {amount}")
    if amount == 0.0:
        return pool, 0.0, dict(ledgers)
    order = TradeOrder(trader, pool.tokens[i], pool.tokens[1 - i], amount, EXACT_IN)
    pool, receipt, updated = execute_swap(pool, order, ledgers)
    return pool, receipt.trader_deltas[order.token_out], updated


def curve_buy(
    pool: PoolState, buyer: AccountId, reserve_in: float, ledgers: Ledgers
) -> tuple[PoolState, float, dict[TokenId, Ledger]]:
    """Bond reserve tokens into the pool, minting issued tokens to the buyer."""
    return _bond(pool, buyer, 0, reserve_in, ledgers)


def curve_sell(
    pool: PoolState, seller: AccountId, tokens_in: float, ledgers: Ledgers
) -> tuple[PoolState, float, dict[TokenId, Ledger]]:
    """Burn issued tokens, paying out unbonded reserve minus the fee."""
    return _bond(pool, seller, 1, tokens_in, ledgers)


# ---------------------------------------------------------------------------
# oracle adoption and prediction resolution
# ---------------------------------------------------------------------------


def set_oracle_price(pool: PoolState, price: float) -> PoolState:
    """Adopt a new external price; reserves are untouched."""
    _require_family(pool, AdoptionFamily, "only price-adopting pools take oracle prices")
    if not 0.0 < price < math.inf:
        raise DomainError(f"oracle price must be positive and finite: {price}")
    return _pool_state(
        pool.archetype, pool.tokens, pool.curve, pool.reserves, pool.fee,
        pool.lp_share_supply, pool.lp_shares, pool.circulating_supply, price,
        pool.accumulated_fees, pool.account, pool.creator, pool.closed,
        PricingFamily.of(pool.curve, price),
    )


def resolve_prediction(
    pool: PoolState, winning_outcome: int, ledgers: Ledgers
) -> tuple[PoolState, dict[TokenId, Ledger]]:
    """Settle an LMSR market: 1 collateral per winning share, then close."""
    _require_family(pool, ScoringFamily, "only LMSR pools resolve to an outcome")
    if pool.closed:
        raise UnsupportedOperation("market already resolved")
    n_outcomes = len(pool.tokens) - 1
    if not 0 <= winning_outcome < n_outcomes:
        raise DomainError(
            f"outcome index {winning_outcome} out of range for {n_outcomes} outcomes"
        )
    collateral_token = pool.tokens[0]
    winning_token = pool.tokens[1 + winning_outcome]
    cash = _ledger_for(ledgers, collateral_token)
    win = _ledger_for(ledgers, winning_token)
    for holder, held in sorted(win.balances.items()):
        if holder == pool.account:
            continue
        cash = ledger_transfer(cash, pool.account, holder, held)
        win = ledger_burn(win, holder, held)
    leftover = balance_of(cash, pool.account)
    if leftover > 0.0:
        cash = ledger_transfer(cash, pool.account, pool.creator, leftover)
    pool2 = replace(pool, reserves=(0.0,) * len(pool.tokens), closed=True)
    return pool2, {**ledgers, collateral_token: cash, winning_token: win}


# ---------------------------------------------------------------------------
# pool specification files and built-in pools
# ---------------------------------------------------------------------------

_CURVE_CLASSES = {curve.spec_name: curve for curve in CURVES}

#: specification keys of each curve, from its spec dataclass fields
_CURVE_PARAMS = {
    name: tuple(f.name for f in fields(curve)) for name, curve in _CURVE_CLASSES.items()
}

_ALL_CURVE_PARAMS = frozenset(p for params in _CURVE_PARAMS.values() for p in params)

_POOL_KEYS = (
    frozenset({"archetype", "curve", "tokens", "reserves", "fee", "oracle_price"})
    | _ALL_CURVE_PARAMS
)


def _parse_float(key: str, value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise DomainError(f"{key}: not a number: {value!r}") from None


def _parse_floats(key: str, value: str) -> tuple[float, ...]:
    return tuple(_parse_float(key, part.strip()) for part in value.split(","))


def parse_pool_spec(text: str) -> PoolConfig:
    """Parse `key = value` pool-specification text into a PoolConfig."""
    entries: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DomainError(f"line {lineno}: expected `key = value`: {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key in entries:
            raise DomainError(f"line {lineno}: duplicate key {key!r}")
        entries[key] = value

    unknown = sorted(set(entries) - _POOL_KEYS)
    if unknown:
        raise DomainError(f"unknown keys: {', '.join(unknown)}")
    for required in ("archetype", "curve", "tokens", "reserves"):
        if required not in entries:
            raise DomainError(f"missing required key {required!r}")

    curve_name = entries["curve"]
    if curve_name not in _CURVE_PARAMS:
        raise DomainError(
            f"unknown curve {curve_name!r}; expected one of "
            f"{sorted(_CURVE_PARAMS)}"
        )
    needed = _CURVE_PARAMS[curve_name]
    for param in needed:
        if param not in entries:
            raise DomainError(f"curve {curve_name!r} requires key {param!r}")
    stray = sorted(set(entries) & (_ALL_CURVE_PARAMS - set(needed)))
    if stray:
        raise DomainError(
            f"keys {', '.join(stray)} do not apply to curve {curve_name!r}"
        )

    curve_class = _CURVE_CLASSES[curve_name]
    curve = curve_class(
        **{
            f.name: (_parse_floats if f.type.startswith("tuple") else _parse_float)(
                f.name, entries[f.name]
            )
            for f in fields(curve_class)
        }
    )

    tokens = tuple(tok.strip() for tok in entries["tokens"].split(","))
    oracle = entries.get("oracle_price")
    return PoolConfig(
        archetype=entries["archetype"],
        tokens=tokens,
        curve=curve,
        fee_rate=_parse_float("fee", entries.get("fee", "0")),
        reserves=_parse_floats("reserves", entries["reserves"]),
        oracle_price=_parse_float("oracle_price", oracle) if oracle is not None else None,
    )


_BUILTIN_POOL_TEXT = {
    "uniswap-v2-like": """
archetype = price-discovering-lp-based
curve = constant-product
tokens = TOKEN0, TOKEN1
reserves = 100, 100
fee = 0.003
""",
    "curve-v1-like": """
archetype = price-discovering-lp-based
curve = constant-product-sum
tokens = STABLE0, STABLE1
reserves = 100, 100
fee = 0.003
chi = 10
""",
    "mstable-2021-like": """
archetype = price-discovering-lp-based
curve = constant-sum
tokens = STABLE0, STABLE1
reserves = 100, 100
fee = 0.003
""",
    "dodo-like": """
archetype = price-adopting-lp-based
curve = price-adoption
tokens = BASE, QUOTE
reserves = 100, 1000
fee = 0.003
k = 0.5
target_reserves = 100, 1000
oracle_price = 10
""",
    "bancor-like": """
archetype = price-discovering-supply-sovereign
curve = exponential
tokens = RESERVE, ISSUED
reserves = 100, 0
fee = 0
kappa = 2
c = 1
""",
    "augur-like": """
archetype = price-discovering-lp-based
curve = lmsr
tokens = CASH, OUT0, OUT1, OUT2
# the collateral entry is the creation subsidy b*ln(3)
reserves = 109.86122886681098, 0, 0, 0
fee = 0
b = 100
""",
}

BUILTIN_POOLS: Mapping[str, PoolConfig] = MappingProxyType(
    {name: parse_pool_spec(text) for name, text in _BUILTIN_POOL_TEXT.items()}
)

BOOTSTRAP_ACCOUNT = "bootstrap"


def materialize_pool(
    config: PoolConfig, creator: AccountId = "creator"
) -> tuple[PoolState, dict[TokenId, Ledger]]:
    """Stand up a live pool at the reserves a PoolConfig describes.

    LP-based pools mint the deposit to the creator and open normally.
    Supply-sovereign pools open empty and are then primed to the configured
    bonded reserve by minting the implied supply to a bootstrap account.
    The config's shape is checked once, by `check_opening`, before any
    deposit is; the pool is then opened through the family that
    `check_opening` bound and its state built without checking it again.
    """
    if not config.reserves:
        raise DomainError("pool configuration carries no reserves")
    return check_opening(config).materialize(config, creator)


def load_pool_config(source: str) -> PoolConfig:
    """Resolve a built-in name or a specification file path to a PoolConfig."""
    if source in BUILTIN_POOLS:
        return BUILTIN_POOLS[source]
    if os.path.exists(source):
        return parse_pool_spec(_read_text(source))
    raise DomainError(
        f"{source!r} is neither a built-in pool name {sorted(BUILTIN_POOLS)} "
        "nor a readable file"
    )


def load_pool(
    source: str, creator: AccountId = "creator"
) -> tuple[PoolState, dict[TokenId, Ledger]]:
    """Materialize a pool from a built-in name or a specification file path."""
    return materialize_pool(load_pool_config(source), creator)
