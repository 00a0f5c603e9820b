"""Scenario simulator: reference price series, scripted events, arbitrageur.

A scenario is a small text file: a preamble naming the pool and funding
accounts, followed by one event per step.  Steps are strictly increasing;
the reference price for a step is the latest series entry at or before it
(undefined before the first entry).

The arbitrageur is curve-agnostic.  Optimal arbitrage moves the pool until
its fee-adjusted marginal price meets the reference (Angeris & Chitra,
"Improved Price Oracles: Constant Function Market Makers", 2020), so it
sizes its trade there, within its caps and its balance of the token it
pays, and trades only when the marked profit is strictly positive.  A curve
that inverts its spot in closed form gives that size directly; on the
others one root solve finds it.  After
an arb step on a two-token pool the spot price therefore sits within the
no-trade fee band around the reference:
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
from .curves import _solve_increasing
from .engine import (
    EXACT_IN,
    EXACT_OUT,
    Ledgers,
    PoolState,
    PricingFamily,
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

# arbitrage sizes solved for where the curve has no closed form, in units
# of the pool's scale: the bracket starts at _START and grows by _GROWTH
# until the first-order condition holds, and a limit of the trade step is
# resolved to _RESOLUTION
_START = 1e-6
_GROWTH = 16.0
_RESOLUTION = 1e-15


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


def _solve_size(g, cap: float, scale: float) -> float:
    """Trade size at which the increasing residual g crosses zero; 0 when
    `cap` is 0 or g(0) >= 0, so that no size earns anything.  The
    arbitrageur's fallback where the curve gives no closed-form size.

    The bracket grows from _START * scale by _GROWTH until g is no longer
    negative, then one root solve finds the crossing.  g is nan where the
    trade step cannot price a size (or, at 0, where the pool has no marginal
    price: a bonding curve at zero supply).  A profit still growing where g
    turns nan is taken at the largest size the step prices, to within
    _RESOLUTION * scale; no size below the bracket's start is tried.
    """
    if not cap > 0.0:
        return 0.0
    lo, g_lo = 0.0, g(0.0)
    if g_lo >= 0.0:
        return 0.0
    hi = min(cap, _START * scale)
    g_hi = g(hi)
    while g_hi < 0.0 and lo < hi < cap:
        lo, g_lo = hi, g_hi
        hi = min(cap, hi * _GROWTH)
        g_hi = g(hi)
    if g_hi < 0.0:
        return hi
    if not g_lo < 0.0:  # g(0) is nan, and no size tried was found to earn
        return 0.0
    while not g_hi >= 0.0:  # nan: narrow onto the largest priceable size
        mid = 0.5 * (lo + hi)
        if lo == 0.0 or hi - lo <= _RESOLUTION * scale or not lo < mid < hi:
            return lo
        g_mid = g(mid)
        if g_mid < 0.0:
            lo, g_lo = mid, g_mid
        else:
            hi, g_hi = mid, g_mid
    known = {lo: g_lo, hi: g_hi}  # the solve opens by evaluating both ends
    return _solve_increasing(lambda a: known.pop(a) if a in known else g(a), None, lo, hi)


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
    (`PricingFamily.state_at_spot`), in closed form.  `_solve_size` finds
    it instead where the curve gives no such state, the state lies on the
    wrong side of the pool (a residual that is not increasing), or the size
    cannot be priced.

    The step binds the pool state's level once; every candidate is priced
    on it, and the trade it chose settles as priced, so no order is quoted
    again.
    """
    pool, ledgers, receipt, _ = _arbitrage(pool, None, reference_price, arb_account, ledgers)
    return pool, ledgers, receipt


def _arbitrage(
    pool: PoolState,
    family: PricingFamily | None,
    reference_price: float,
    arb_account: str,
    ledgers: Ledgers,
) -> tuple[PoolState, Ledgers, TradeReceipt | None, PricingFamily]:
    """`arbitrage_step`, given the pool's family bound to the level of its
    state, or None to bind it here; also returns the family bound to the
    state the step leaves, for whoever prices that state next."""
    if pool.closed:
        raise UnsupportedOperation("pool is closed")
    if family is None:
        family = PricingFamily.of(pool.curve, pool.oracle_price)
    if family.arb_error is not None:
        raise UnsupportedOperation(family.arb_error)
    if not (math.isfinite(reference_price) and reference_price > 0.0):
        raise DomainError(f"reference price must be > 0: {reference_price}")

    risky = family.risky
    numeraire = 1 - risky
    state = family.view(pool)
    if family.level is None:
        # every trade step prices `state`, and every residual's spot a
        # curve state on its level: one level serves them all
        family = family.on_level(state)
    fee = pool.fee.trade_fee
    keep = 1.0 - fee
    held = state[risky]
    issued = risky >= family.issued_from
    if issued:  # minting is unbounded, burning stops at the supply
        scale = max(held, 1.0)
        buy_cap, sell_cap = 1e15 * scale, held * (1.0 - 1e-12)
    else:  # buying stops short of the reserve, selling is unbounded
        scale = held
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

    def residual(buying: bool, amount: float) -> float:
        """First-order residual of buying (exact out) or selling (exact in)
        `amount` of the risky leg: increasing, negative while a larger trade
        earns more, nan where the trade cannot be priced.  The marginal is
        read on the curve, without the fee the reserves keep; a buy's
        1 - spot*ref*keep has the sign and root of cost - ref*keep."""
        i = numeraire if buying else risky
        curve_state = state
        if amount > 0.0:
            trade = priced(i, EXACT_OUT if buying else EXACT_IN, amount)
            if trade is None:
                return math.nan
            _, _, fee_paid, curve_state = trade
            if family.fee_in_reserves:
                curve_state = list(curve_state)
                curve_state[1 - i if i >= family.issued_from else i] -= fee_paid
        try:
            spot = family.spot_between(curve_state, i, 1 - i)
        except AmmError:
            return math.nan
        return 1.0 - spot * reference_price * keep if buying else reference_price - spot * keep

    def sized(buying: bool, cap: float):
        """(size, its priced trade or None) of the trade that meets the
        first-order condition in this direction; size 0 when none earns."""
        g0 = residual(buying, 0.0) if cap > 0.0 else 0.0
        if g0 >= 0.0:
            return 0.0, None
        if g0 < 0.0:  # not nan
            i = numeraire if buying else risky
            # the marginal at which the residual is zero
            price = 1.0 / (reference_price * keep) if buying else reference_price / keep
            target = family.state_at_spot(state, i, 1 - i, price)
            if target is not None:
                # the risky amount the trader gets: minted on an issued leg,
                # paid out of a held one; a sale pays its fee on the input
                # unless the leg is issued
                gets = target[risky] - state[risky] if issued else state[risky] - target[risky]
                size = gets if buying else -gets if issued else -gets / keep
                if size > 0.0:
                    size = min(size, cap)
                    trade = priced(i, EXACT_OUT if buying else EXACT_IN, size)
                    if trade is not None:
                        return size, trade
        return _solve_size(lambda a: g0 if a == 0.0 else residual(buying, a), cap, scale), None

    for buying, cap in ((True, buy_cap if budget > 0.0 else 0.0), (False, sell_cap)):
        size, trade = sized(buying, cap)
        if size > 0.0:
            break
    else:
        return pool, ledgers, None, family
    i = numeraire if buying else risky
    kind = EXACT_OUT if buying else EXACT_IN
    if trade is None:
        trade = priced(i, kind, size)
    if buying and trade is not None and trade[0] > budget:
        kind, size = EXACT_IN, budget  # the best buy costs more than is held
        trade = priced(i, kind, size)
    if trade is None:
        return pool, ledgers, None, family
    paid, got = trade[0], trade[1]
    if not (got * reference_price - paid if buying else got - paid * reference_price) > 0.0:
        return pool, ledgers, None, family
    order = TradeOrder(arb_account, pool.tokens[i], pool.tokens[1 - i], size, kind)
    pool, receipt, ledgers, family = _settle_trade(pool, family, order, i, 1 - i, trade, ledgers)
    return pool, ledgers, receipt, family


# ---------------------------------------------------------------------------
# scenario execution
# ---------------------------------------------------------------------------


def _trade(pool, family, working, hold, reference, event, *order):
    pool, _, working = execute_swap(pool, TradeOrder(*order, EXACT_IN), working)
    return pool, None, working, hold


def _deposit(pool, family, working, hold, reference, event, account, *amounts):
    pool, _, working = deposit_liquidity(pool, account, amounts, working)
    return pool, None, working, [h + a for h, a in zip(hold, amounts)]


def _withdraw(pool, family, working, hold, reference, event, account, shares):
    supply_before = pool.lp_share_supply
    pool, _, working = withdraw_liquidity(pool, account, shares, working)
    if shares:  # a zero withdrawal keeps the baseline, even once the supply is 0
        hold = [h * (1.0 - shares / supply_before) for h in hold]
    return pool, None, working, hold


def _oracle(pool, family, working, hold, reference, event, price):
    return set_oracle_price(pool, price), None, working, hold


def _arb(pool, family, working, hold, reference, event, account):
    if reference is None:
        raise DomainError(
            f"arb event needs a reference price; none is defined at step {event.step}"
        )
    pool, working, _, family = _arbitrage(pool, family, reference, account, working)
    return pool, family, working, hold


def _resolve(pool, family, working, hold, reference, event, outcome):
    try:
        outcome = int(outcome)
    except ValueError:  # an outcome token's name
        if outcome not in pool.tokens[1:]:
            raise DomainError(f"scenario line {event.line}: unknown outcome {outcome!r}") from None
        outcome = pool.tokens.index(outcome) - 1
    pool, working = resolve_prediction(pool, outcome, working)
    return pool, None, working, hold


# each verb's argument kinds in script order (a trailing ... repeats the
# kind before it) and its handler, which takes the pool, its family bound
# to the level of its state (or None), the ledgers, the hold baseline, the
# reference price, the event and the typed arguments, and returns the pool,
# its family bound to the state the event left (or None to bind it later),
# the ledgers and the baseline after the event
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
    pool: PoolState,
    family: PricingFamily | None,
    event: ScenarioEvent,
    reference: float | None,
    hold: list[float],
) -> tuple[MetricsRecord, PricingFamily]:
    """The metrics row after an event, and the pool's family bound to the
    level of its state; `family` is that family when the event handed it
    on, else None and it is bound here."""
    closed = pool.closed
    if family is None:
        family = PricingFamily.of(pool.curve, pool.oracle_price)
        if not closed:  # the spot reads the invariant's level
            family = family.on_level(family.view(pool))
    spot = invariant = None
    if not closed:
        state = family.view(pool)
        spot = _observed(family.spot, state)
        invariant = _observed(family.invariant, state) if family.level is None else family.level
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
    record = MetricsRecord(
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
    return record, family


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
    # the pool's family bound to the level of its state, handed from event
    # to event so that each state's level is bound once; None until bound
    family = None
    records: list[MetricsRecord] = []
    for index, event in enumerate(scenario.events):
        reference = (
            price_series.at(event.step) if price_series is not None else None
        )
        try:
            handler, values = _typed(event)
            pool, family, working, hold = handler(
                pool, family, working, hold, reference, event, *values
            )
        except AmmError as error:
            raise ScenarioError(
                f"event {index} (scenario line {event.line}): {error}",
                index,
                Metrics(records=tuple(records)),
            ) from error
        record, family = _observe(pool, family, event, reference, hold)
        records.append(record)
    return Metrics(records=tuple(records))
