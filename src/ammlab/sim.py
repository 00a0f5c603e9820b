"""Scenario simulator: reference price series, scripted events, arbitrageur.

A scenario is a small text file: a preamble naming the pool and funding
accounts, followed by one event per step.  Steps are strictly increasing;
the reference price for a step is the latest series entry at or before it
(undefined before the first entry).

The arbitrageur is curve-agnostic.  Optimal arbitrage moves the pool until
its fee-adjusted marginal price meets the reference (Angeris & Chitra,
"Improved Price Oracles: Constant Function Market Makers", 2020), so it
sizes its trade there, within its caps and its balance of the token it
pays, and trades only when the marked profit is strictly positive.  Every
two-token curve inverts its spot in closed form, so the size is read off
the state at which the marginal meets the reference, with no search; a
marginal that never meets it earns up to the caps.  After an arb step on a
two-token pool the spot price therefore sits within the no-trade fee band
around the reference, unless a cap binds:
|spot - reference| / max(spot, reference) <= fee.

Metrics mark portfolios to the reference: the pricing family's risky leg
(token0 for conservation and price-adoption pools, the issued token for
supply-sovereign pools, outcome 0 for prediction markets) is valued at
the reference price and everything else at par.  Cells that need an
undefined reference are left empty.
Divergence loss compares the pool's current holdings to a buy-and-hold
baseline that grows with deposits and shrinks pro rata with withdrawals,
so a deposit-only scenario reports exactly zero.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, fields
from operator import attrgetter

from .core import (
    AmmError,
    DomainError,
    UnsupportedOperation,
    balance_of,
    ledger_mint_many,
    new_ledger,
)
from .engine import (
    EXACT_IN,
    EXACT_OUT,
    Ledgers,
    PoolState,
    TradeOrder,
    TradeReceipt,
    _settle_trade,
    deposit_liquidity,
    execute_swap,
    load_pool,
    resolve_prediction,
    set_oracle_price,
    withdraw_liquidity,
)

PRICE_HEADER = "step,price"

CREATOR_ACCOUNT = "creator"


# ---------------------------------------------------------------------------
# reference price series
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class PriceSeries:
    """Step-indexed reference prices; values carry forward between steps."""

    entries: tuple[tuple[int, float], ...]

    def at(self, step: int) -> float | None:
        """Latest price at or before `step`, or None before the first entry."""
        index = bisect_right(self.entries, step, key=lambda e: e[0])
        return None if index == 0 else self.entries[index - 1][1]


def parse_price_series(text: str) -> PriceSeries:
    """Parse `step,price` CSV text; steps strictly increasing, prices > 0."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != PRICE_HEADER:
        raise DomainError(f"price series line 1: expected header {PRICE_HEADER!r}")
    entries: list[tuple[int, float]] = []
    for number, raw in enumerate(lines[1:], start=2):
        line = raw.strip()
        if not line:
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise DomainError(f"price series line {number}: expected step,price")
        try:
            step = int(parts[0])
            price = float(parts[1])
        except ValueError:
            raise DomainError(
                f"price series line {number}: cannot parse {line!r}"
            ) from None
        if not (math.isfinite(price) and price > 0.0):
            raise DomainError(f"price series line {number}: price must be > 0")
        if entries and step <= entries[-1][0]:
            raise DomainError(
                f"price series line {number}: steps must strictly increase"
            )
        entries.append((step, price))
    return PriceSeries(entries=tuple(entries))


def load_price_series(path: str) -> PriceSeries:
    with open(path, encoding="utf-8") as handle:
        return parse_price_series(handle.read())


# ---------------------------------------------------------------------------
# scenario scripts
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ScenarioEvent:
    step: int
    verb: str
    args: tuple[str, ...]
    line: int


@dataclass(frozen=True, slots=True)
class Scenario:
    pool_source: str
    endowments: tuple[tuple[str, str, float], ...]
    events: tuple[ScenarioEvent, ...]


def _parse_float(token: str, line: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise DomainError(f"scenario line {line}: bad {what} {token!r}") from None
    if not math.isfinite(value):
        raise DomainError(f"scenario line {line}: bad {what} {token!r}")
    if what == "price" and not value > 0.0:
        raise DomainError(f"scenario line {line}: price must be > 0")
    return value


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario script: `pool`, `account` and `seed` directives,
    then one `<step> <verb> <args>` line per event, each verb taking the
    arguments its entry in `_VERBS` lists."""
    pool_source: str | None = None
    seed_seen = False
    endowments: list[tuple[str, str, float]] = []
    accounts: set[str] = {CREATOR_ACCOUNT}
    events: list[ScenarioEvent] = []

    for number, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(" ")

        if head == "pool":
            if pool_source is not None:
                raise DomainError(f"scenario line {number}: duplicate pool directive")
            if not rest.strip():
                raise DomainError(f"scenario line {number}: pool needs a source")
            pool_source = rest.strip()
            continue
        if head == "account":
            parts = rest.split()
            if len(parts) != 3:
                raise DomainError(
                    f"scenario line {number}: expected account <name> <token> <amount>"
                )
            amount = _parse_float(parts[2], number, "amount")
            if amount < 0.0:
                raise DomainError(f"scenario line {number}: negative endowment")
            endowments.append((parts[0], parts[1], amount))
            accounts.add(parts[0])
            continue
        if head == "seed":  # checked, then ignored: the simulator draws no random numbers
            if seed_seen:
                raise DomainError(f"scenario line {number}: duplicate seed directive")
            try:
                int(rest.strip())
            except ValueError:
                raise DomainError(
                    f"scenario line {number}: bad seed {rest.strip()!r}"
                ) from None
            seed_seen = True
            continue

        try:
            step = int(head)
        except ValueError:
            raise DomainError(
                f"scenario line {number}: expected a directive or a step number, "
                f"got {head!r}"
            ) from None
        parts = rest.split()
        if not parts:
            raise DomainError(f"scenario line {number}: step {step} has no verb")
        event = ScenarioEvent(step=step, verb=parts[0], args=tuple(parts[1:]), line=number)
        _typed(event)
        if events and step <= events[-1].step:
            raise DomainError(
                f"scenario line {number}: steps must strictly increase"
            )
        for kind, name in zip(_VERBS[event.verb][0], event.args):
            if kind == "account" and name not in accounts:
                raise DomainError(f"scenario line {number}: undeclared account {name!r}")
        events.append(event)

    if pool_source is None:
        raise DomainError("scenario has no pool directive")
    return Scenario(
        pool_source=pool_source,
        endowments=tuple(endowments),
        events=tuple(events),
    )


def load_scenario(path: str) -> Scenario:
    with open(path, encoding="utf-8") as handle:
        return parse_scenario(handle.read())


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class MetricsRecord:
    """One row of observations, taken after the event executed."""

    step: int
    event: str
    spot: float | None
    reference: float | None
    tracking_error: float | None
    invariant: float | None
    lp_value: float | None
    divergence_loss: float | None
    fees_cum: float | None


METRICS_HEADER = tuple(f.name for f in fields(MetricsRecord))
_VALUES = attrgetter(*METRICS_HEADER[2:])  # every cell after step and event


@dataclass(frozen=True, slots=True)
class Metrics:
    records: tuple[MetricsRecord, ...]


def metrics_to_csv(metrics: Metrics) -> str:
    """Render metrics as CSV; undefined cells are empty strings."""
    lines = [",".join(METRICS_HEADER)]
    for record in metrics.records:
        cells = [str(record.step), record.event]
        for value in _VALUES(record):
            cells.append("" if value is None else repr(value))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


class ScenarioError(AmmError):
    """An event failed; carries the failing index and the metrics so far."""

    def __init__(self, message: str, event_index: int, metrics: Metrics) -> None:
        super().__init__(message)
        self.event_index = event_index
        self.metrics = metrics


# ---------------------------------------------------------------------------
# arbitrageur
# ---------------------------------------------------------------------------


def arbitrage_step(
    pool: PoolState,
    reference_price: float,
    arb_account: str,
    ledgers: Ledgers,
) -> tuple[PoolState, Ledgers, TradeReceipt | None]:
    """Trade the pool toward the reference price if profitable.

    Values the risky asset at `reference_price` and the other token at par.
    Buying the risky leg pays while its fee-adjusted marginal cost is below
    the reference, selling while its fee-adjusted marginal proceeds are
    above it; the step sizes the one profitable trade where that marginal
    meets the reference, within the caps and what `arb_account` holds of
    the token it pays, and executes it only when the marked profit is
    strictly positive.  Works on any two-token pool; prediction markets
    have no single risky asset and are rejected.

    Once the residual at size 0 shows that a direction earns, the size is
    read off the curve state at which the marginal meets the reference
    (`PricingFamily.state_at_spot`), in closed form.  Where the curve has
    no such state inside its domain (a flat marginal, or one that meets the
    reference only past a reserve's depletion), or the state lies behind
    the trade and the marginal moves away from the reference, every size up
    to the cap earns, and the step takes the cap.  A sale that would drain
    the numeraire takes all but 1e-9 of it, as a buy takes all but 1e-9 of
    the risky reserve.

    Every candidate is priced by the pool's family, which the pool state
    bound once, when it was built; the trade the step chose settles as
    priced, so no order is quoted again.
    """
    if pool.closed:
        raise UnsupportedOperation("pool is closed")
    family = pool.family
    if family.arb_error is not None:
        raise UnsupportedOperation(family.arb_error)
    # the two legs traded below are ones the curve prices on any pool that
    # passes the check create_pool ran; a pool built by hand is checked here,
    # once, as the trade steps check no legs
    family.check(pool.archetype, len(pool.tokens))
    if not (math.isfinite(reference_price) and reference_price > 0.0):
        raise DomainError(f"reference price must be > 0: {reference_price}")

    risky = family.risky
    numeraire = 1 - risky
    state = family.view(pool)
    fee = pool.fee.trade_fee
    keep = 1.0 - fee
    held = state[risky]
    issued = risky >= family.issued_from
    if issued:  # minting is unbounded, burning stops at the supply
        buy_cap, sell_cap = 1e15 * max(held, 1.0), held * (1.0 - 1e-12)
    else:  # buying and selling stop short of the reserve paid out (`sized`)
        buy_cap, sell_cap = held * (1.0 - 1e-9), 1e15 * max(state)

    def holding(leg: int) -> float:
        ledger = ledgers.get(pool.tokens[leg])
        return 0.0 if ledger is None else balance_of(ledger, arb_account)

    budget = holding(numeraire)
    sell_cap = min(sell_cap, holding(risky))

    def priced(i: int, kind: str, amount: float):
        """The trade step's (paid, got, fee, state after) for paying leg i,
        or None where `quote` would refuse the order."""
        try:
            trade = family.trade(state, i, 1 - i, kind, amount, fee)
        except AmmError:
            return None
        return trade if 0.0 < trade[0] < math.inf else None

    def sized(buying: bool, cap: float):
        """The priced trade, within `cap`, that meets the first-order
        condition in this direction, or None when none earns."""
        if not cap > 0.0:
            return None
        i = numeraire if buying else risky
        try:
            spot = family.spot_between(state, i, 1 - i)
        except AmmError:  # no marginal: a bonding curve at zero supply
            spot = math.nan
        # the first-order residual at size 0, negative where a trade earns;
        # a buy's 1 - spot*ref*keep has the sign and root of cost - ref*keep.
        # A nan goes on: a bonding curve at zero supply has a state at which
        # its marginal meets the price
        if (1.0 - spot * reference_price * keep if buying else reference_price - spot * keep) >= 0.0:
            return None
        kind = EXACT_OUT if buying else EXACT_IN
        # the marginal at which the residual is zero
        price = 1.0 / (reference_price * keep) if buying else reference_price / keep
        target = family.state_at_spot(state, i, 1 - i, price)
        size = cap  # no such state inside the domain: every size earns
        if target is not None:
            # the risky amount the trader gets: minted on an issued leg,
            # paid out of a held one; a sale pays its fee on the input
            # unless the leg is issued
            gets = target[risky] - state[risky] if issued else state[risky] - target[risky]
            size = min(cap, gets if buying else -gets if issued else -gets / keep)
            if not size > 0.0:
                # a state behind the trade: the marginal moves away from the
                # price (exponential at kappa < 1), and the cap earns most.
                # A residual just negative by rounding at the fee band's edge
                # can put an increasing marginal's state there too; its cap
                # trade loses, and the profit check below declines it
                size = cap
        trade = priced(i, kind, size)
        if not (buying or issued) and (trade is None or trade[3][numeraire] < 1e-9 * state[numeraire]):
            # a sale takes all but 1e-9 of the numeraire, as a buy all
            # but 1e-9 of the risky reserve
            edge = priced(i, EXACT_OUT, state[numeraire] * (1.0 - 1e-9))
            trade = edge and priced(i, kind, edge[0])
        return trade

    for buying, cap in ((True, buy_cap if budget > 0.0 else 0.0), (False, sell_cap)):
        trade = sized(buying, cap)
        if trade is not None:
            break
    else:
        return pool, ledgers, None
    i = numeraire if buying else risky
    kind, size = (EXACT_OUT, trade[1]) if buying else (EXACT_IN, trade[0])
    if buying and trade[0] > budget:
        kind, size = EXACT_IN, budget  # the best buy costs more than is held
        trade = priced(i, kind, size)
        if trade is None:
            return pool, ledgers, None
    paid, got = trade[0], trade[1]
    if not (got * reference_price - paid if buying else got - paid * reference_price) > 0.0:
        return pool, ledgers, None
    order = TradeOrder(arb_account, pool.tokens[i], pool.tokens[1 - i], size, kind)
    pool, receipt, ledgers = _settle_trade(pool, order, i, 1 - i, trade, ledgers)
    return pool, ledgers, receipt


# ---------------------------------------------------------------------------
# scenario execution
# ---------------------------------------------------------------------------


def _trade(pool, working, hold, reference, event, *order):
    pool, _, working = execute_swap(pool, TradeOrder(*order, EXACT_IN), working)
    return pool, working, hold


def _deposit(pool, working, hold, reference, event, account, *amounts):
    pool, _, working = deposit_liquidity(pool, account, amounts, working)
    return pool, working, [h + a for h, a in zip(hold, amounts)]


def _withdraw(pool, working, hold, reference, event, account, shares):
    supply_before = pool.lp_share_supply
    pool, _, working = withdraw_liquidity(pool, account, shares, working)
    if shares:  # a zero withdrawal keeps the baseline, even once the supply is 0
        hold = [h * (1.0 - shares / supply_before) for h in hold]
    return pool, working, hold


def _oracle(pool, working, hold, reference, event, price):
    return set_oracle_price(pool, price), working, hold


def _arb(pool, working, hold, reference, event, account):
    if reference is None:
        raise DomainError(
            f"arb event needs a reference price; none is defined at step {event.step}"
        )
    pool, working, _ = arbitrage_step(pool, reference, account, working)
    return pool, working, hold


def _resolve(pool, working, hold, reference, event, outcome):
    try:
        outcome = int(outcome)
    except ValueError:  # an outcome token's name
        if outcome not in pool.tokens[1:]:
            raise DomainError(f"scenario line {event.line}: unknown outcome {outcome!r}") from None
        outcome = pool.tokens.index(outcome) - 1
    pool, working = resolve_prediction(pool, outcome, working)
    return pool, working, hold


# each verb's argument kinds in script order (a trailing ... repeats the
# kind before it) and its handler, which takes the pool, the ledgers, the
# hold baseline, the reference price, the event and the typed arguments,
# and returns the pool, the ledgers and the baseline after the event.  Each
# pool state binds its pricing family once, when it is built, so no handler
# passes a family on
_VERBS = {
    "trade": (("account", "token", "token", "amount"), _trade),
    "deposit": (("account", "amount", ...), _deposit),
    "withdraw": (("account", "share amount"), _withdraw),
    "oracle": (("price",), _oracle),
    "arb": (("account",), _arb),
    "resolve": (("outcome",), _resolve),
}

EVENT_VERBS = frozenset(_VERBS)


def _typed(event: ScenarioEvent):
    """(handler, typed arguments) of an event, its string arguments checked
    against its verb's entry in `_VERBS`; DomainError naming the line if not."""
    args, line = event.args, event.line
    entry = _VERBS.get(event.verb)
    if entry is None:
        raise DomainError(f"scenario line {line}: unknown verb {event.verb!r}")
    kinds, handler = entry
    if kinds[-1] is ...:
        kinds = kinds[:-1] + kinds[-2:-1] * (len(args) - len(kinds) + 1)
    if len(args) != len(kinds):
        raise DomainError(f"scenario line {line}: wrong argument count for {event.verb!r}")
    values = list(args)  # names stay strings, an outcome's for the pool to resolve
    for index, kind in enumerate(kinds):
        if kind not in ("account", "token", "outcome"):
            values[index] = _parse_float(args[index], line, kind)
    return handler, values


def _observed(observe, state) -> float | None:
    try:
        return observe(state)
    except AmmError:
        return None


def _mark(marked: int, amounts, reference: float | None) -> float | None:
    """Value a token vector, leg `marked` at the reference and the rest at
    par; None when that needs an undefined reference."""
    value = 0.0
    for index, amount in enumerate(amounts):
        if index == marked and amount != 0.0:
            if reference is None:
                return None
            value += amount * reference
        elif index != marked:
            value += amount
    return value


def _observe(
    pool: PoolState, event: ScenarioEvent, reference: float | None, hold: list[float]
) -> MetricsRecord:
    """The metrics row after an event, read through the pool's family."""
    closed = pool.closed
    family = pool.family
    spot = invariant = None
    if not closed:
        state = family.view(pool)
        spot = _observed(family.spot, state)
        invariant = _observed(family.invariant, state)
    tracking = None
    if spot is not None and reference is not None:
        tracking = abs(spot - reference) / reference
    risky = family.risky
    lp_value = None
    divergence = None
    if family.lp_error is None and not closed:
        lp_value = _mark(risky, pool.reserves, reference)
        hold_value = _mark(risky, hold, reference)
        if lp_value is not None and hold_value:
            divergence = lp_value / hold_value - 1.0
    fees_cum = _mark(risky, pool.accumulated_fees, reference)
    return MetricsRecord(
        step=event.step,
        event=event.verb,
        spot=spot,
        reference=reference,
        tracking_error=tracking,
        invariant=invariant,
        lp_value=lp_value,
        divergence_loss=divergence,
        fees_cum=fees_cum,
    )


def run_scenario(
    scenario: Scenario,
    ledgers: Ledgers | None = None,
    price_series: PriceSeries | None = None,
) -> Metrics:
    """Execute a scenario and return per-event metrics.

    The pool and its funding come from `load_pool` on the scenario's pool
    source; endowments from the preamble are minted on top, as are any
    balances in the optional `ledgers` argument.  A failing event raises
    ScenarioError carrying the event index and the metrics gathered so far.
    """
    pool, working = load_pool(scenario.pool_source)
    working = dict(working)
    # grants per token, in the order a one-at-a-time mint would apply them
    grants: dict[str, list[tuple[str, float]]] = {}
    for token, extra in (ledgers or {}).items():
        working.setdefault(token, new_ledger(token))
        grants.setdefault(token, []).extend(
            (account, amount) for account, amount in extra.balances.items() if amount > 0.0
        )
    unknown = None
    for account, token, amount in scenario.endowments:
        if token not in working:
            unknown = token  # raised after the grants before it are checked
            break
        if amount > 0.0:
            grants.setdefault(token, []).append((account, amount))
    for token, batch in grants.items():
        working[token] = ledger_mint_many(working[token], batch)
    if unknown is not None:
        raise DomainError(f"endowment for unknown token {unknown!r}")

    hold = list(pool.reserves)
    records: list[MetricsRecord] = []
    for index, event in enumerate(scenario.events):
        reference = (
            price_series.at(event.step) if price_series is not None else None
        )
        try:
            handler, values = _typed(event)
            pool, working, hold = handler(pool, working, hold, reference, event, *values)
        except AmmError as error:
            raise ScenarioError(
                f"event {index} (scenario line {event.line}): {error}",
                index,
                Metrics(records=tuple(records)),
            ) from error
        records.append(_observe(pool, event, reference, hold))
    return Metrics(records=tuple(records))
