"""Scenario simulator: reference price series, scripted events, arbitrageur.

A scenario is a small text file: a preamble naming the pool and funding
accounts, followed by one event per step.  Steps are strictly increasing;
the reference price for a step is the latest series entry at or before it
(undefined before the first entry).

The arbitrageur is curve-agnostic.  Optimal arbitrage moves the pool until
its fee-adjusted marginal price meets the reference (Angeris & Chitra,
"Improved Price Oracles: Constant Function Market Makers", 2020), so it
sizes its trade there, within one depletion floor (`ARB_FLOOR`) and its
balance of the token it pays, and trades only when the marked profit is
strictly positive.  Every two-token curve inverts its spot in closed form,
so the size is read off the state at which the marginal meets the
reference, with no search; a marginal that never meets it earns up to the
floor.  After an arb step on a two-token pool the spot price therefore
sits within the no-trade fee band around the reference, unless the floor
or the balance binds:
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
from dataclasses import dataclass, field, fields
from operator import attrgetter

from .core import (
    AmmError,
    DomainError,
    UnsupportedOperation,
    _read_text,
    _slot_builder,
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
        # (step, inf) sorts after every entry at `step`, before any later one
        index = bisect_right(self.entries, (step, math.inf))
        return None if index == 0 else self.entries[index - 1][1]


def parse_price_series(text: str) -> PriceSeries:
    """Parse `step,price` CSV text; steps strictly increasing, prices > 0."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != PRICE_HEADER:
        raise DomainError(f"price series line 1: expected header {PRICE_HEADER!r}")
    entries: list[tuple[int, float]] = []
    last = -math.inf  # the step of the last entry
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
        if not 0.0 < price < math.inf:
            raise DomainError(f"price series line {number}: price must be > 0")
        if step <= last:
            raise DomainError(f"price series line {number}: steps must strictly increase")
        entries.append((step, price))
        last = step
    return PriceSeries(entries=tuple(entries))


def load_price_series(path: str) -> PriceSeries:
    return parse_price_series(_read_text(path))


# ---------------------------------------------------------------------------
# scenario scripts
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class ScenarioEvent:
    """One event of a scenario: its step, verb, string arguments and script
    line.

    The private `_call` slot holds the (handler, typed arguments) that
    `parse_scenario` checked the event into, so that `run_scenario` types a
    parsed event once.  It takes no part in equality, hashing or repr, and
    the constructor and `dataclasses.replace` leave it None: an event built
    by hand, or replaced, is typed when it runs."""

    step: int
    verb: str
    args: tuple[str, ...]
    line: int
    _call: tuple | None = field(default=None, init=False, compare=False, repr=False)


# The simulator's events, metrics rows and orders, one per script line or
# event, are built slot by slot (see `core._slot_builder`) from values
# already in the form their constructors store: a parsed step, verb,
# argument tuple, line and typed call; the observed floats; typed scenario
# arguments or a pool's tokens, and a float size.
_event = _slot_builder(ScenarioEvent)


@dataclass(frozen=True, slots=True)
class Scenario:
    pool_source: str
    endowments: tuple[tuple[str, str, float], ...]
    events: tuple[ScenarioEvent, ...]


def parse_scenario(text: str) -> Scenario:
    """Parse a scenario script: `pool`, `account` and `seed` directives,
    then one `<step> <verb> <args>` line per event, each verb taking the
    arguments its entry in `_VERBS` lists."""
    pool_source: str | None = None
    seed_seen = False
    endowments: list[tuple[str, str, float]] = []
    accounts: set[str] = {CREATOR_ACCOUNT}
    events: list[ScenarioEvent] = []
    last = -math.inf  # the step of the last event

    for number, raw in enumerate(text.splitlines(), start=1):
        line = (raw[: raw.index("#")] if "#" in raw else raw).strip()
        if not line:
            continue
        # the text before the first space: a tab does not end a head
        head, _, rest = line.partition(" ")

        if head == "account":
            parts = rest.split()
            if len(parts) != 3:
                raise DomainError(
                    f"scenario line {number}: expected account <name> <token> <amount>"
                )
            try:
                amount = float(parts[2])
            except ValueError:
                amount = math.nan  # a bad amount, as a non-finite one is
            if not 0.0 <= amount < math.inf:
                problem = "negative endowment" if -math.inf < amount else f"bad amount {parts[2]!r}"
                raise DomainError(f"scenario line {number}: {problem}")
            endowments.append((parts[0], parts[1], amount))
            accounts.add(parts[0])
            continue
        if head == "pool":
            if pool_source is not None:
                raise DomainError(f"scenario line {number}: duplicate pool directive")
            if not rest.strip():
                raise DomainError(f"scenario line {number}: pool needs a source")
            pool_source = rest.strip()
            continue
        if head == "seed":  # checked, then ignored: the simulator draws no random numbers
            if seed_seen:
                raise DomainError(f"scenario line {number}: duplicate seed directive")
            try:
                int(rest.strip())
            except ValueError:
                raise DomainError(f"scenario line {number}: bad seed {rest.strip()!r}") from None
            seed_seen = True
            continue

        try:
            step = int(head)
        except ValueError:
            step = None
        if step is None or head[-1].isspace():  # int() also takes trailing whitespace
            raise DomainError(
                f"scenario line {number}: expected a directive or a step number, "
                f"got {head!r}"
            )
        parts = rest.split()
        if not parts:
            raise DomainError(f"scenario line {number}: step {step} has no verb")
        verb, args = parts[0], tuple(parts[1:])
        call = _typed(verb, args, number)
        if step <= last:
            raise DomainError(f"scenario line {number}: steps must strictly increase")
        for position in _VERBS[verb][1]:
            if args[position] not in accounts:
                raise DomainError(f"scenario line {number}: undeclared account {args[position]!r}")
        events.append(_event(step, verb, args, number, call))
        last = step

    if pool_source is None:
        raise DomainError("scenario has no pool directive")
    return Scenario(pool_source, tuple(endowments), tuple(events))


def load_scenario(path: str) -> Scenario:
    return parse_scenario(_read_text(path))


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
_record = _slot_builder(MetricsRecord)  # see `_event`
_VALUES = attrgetter(*METRICS_HEADER[2:])  # every cell after step and event


@dataclass(frozen=True, slots=True)
class Metrics:
    records: tuple[MetricsRecord, ...]


def metrics_to_csv(metrics: Metrics) -> str:
    """Render metrics as CSV; undefined cells are empty strings."""
    lines = [",".join(METRICS_HEADER)]
    for record in metrics.records:
        spot, ref, tracking, invariant, lp, loss, fees = _VALUES(record)
        lines.append(
            f"{record.step},{record.event},{'' if spot is None else repr(spot)},"
            f"{'' if ref is None else repr(ref)},{'' if tracking is None else repr(tracking)},"
            f"{'' if invariant is None else repr(invariant)},{'' if lp is None else repr(lp)},"
            f"{'' if loss is None else repr(loss)},{'' if fees is None else repr(fees)}"
        )
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

_order = _slot_builder(TradeOrder)  # see `_event`

#: the fraction of a leg that an arbitrage step which shrinks it leaves
#: behind: the held risky reserve that a buy pays out, the numeraire that a
#: sale into a held pool pays out, the issued supply that a sale burns and
#: the reserve that burn pays out
ARB_FLOOR = 1e-9


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
    meets the reference, within the floor and what `arb_account` holds of
    the token it pays, and executes it only when the marked profit is
    strictly positive.  Works on any two-token pool; prediction markets
    have no single risky asset and are rejected.

    Once the residual at size 0 shows that a direction earns, the size is
    read off the curve state at which the marginal meets the reference
    (`PricingFamily.state_at_spot`), in closed form.  Where the curve has
    no such state inside its domain (a flat marginal, or one that meets the
    reference only past a reserve's depletion), or the state lies behind
    the trade and the marginal moves away from the reference, every size
    earns.  One rule bounds every size: a trade that shrinks a leg leaves
    `ARB_FLOOR` of it, so a buy takes at most all but that fraction of the
    held risky reserve, a sale into a held pool pays out at most all but
    that fraction of the numeraire (priced once, at that edge), and a sale
    of an issued leg burns at most what leaves that fraction of the supply
    and of the reserve behind it.  A
    buy of an issued leg shrinks no leg: where every size earns, it spends
    all the arbitrageur holds.  A trade that costs more than the
    arbitrageur holds of the token it pays spends all of it instead, so a
    step prices at most two trade steps.

    Every candidate is priced by the pool's family, which the pool state
    bound once, when it was built; the trade the step chose settles as
    priced, so no order is quoted again.
    """
    if arb_account == pool.account:
        raise DomainError(f"the pool's own account {arb_account!r} cannot trade or provide liquidity")
    if pool.closed:
        raise UnsupportedOperation("pool is closed")
    family = pool.family
    if family.arb_error is not None:
        raise UnsupportedOperation(family.arb_error)
    if not (math.isfinite(reference_price) and reference_price > 0.0):
        raise DomainError(f"reference price must be > 0: {reference_price}")

    risky = family.risky
    state = family.view(pool)
    fee = pool.fee.trade_fee
    keep = 1.0 - fee

    for buying in (True, False):
        i = 1 - risky if buying else risky  # the leg the trade pays, and the balance of it
        budget = balance_of(ledgers[pool.tokens[i]], arb_account) if pool.tokens[i] in ledgers else 0.0
        if not budget > 0.0:
            continue
        try:
            spot = family.spot_between(state, i, 1 - i)
        except AmmError:  # no marginal: a bonding curve at zero supply
            spot = math.nan
        # the first-order residual at size 0, negative where a trade earns;
        # a buy's 1 - spot*ref*keep has the sign and root of cost - ref*keep.
        # A nan goes on: a bonding curve at zero supply has a state at which
        # its marginal meets the price
        if not (1.0 - spot * reference_price * keep if buying else reference_price - spot * keep) >= 0.0:
            break
    else:
        return pool, ledgers, None
    j = 1 - i
    # the marginal at which the residual is zero, and the state there; a net
    # reference that underflows to 0 prices at inf, as a subnormal one does
    net = reference_price * keep
    price = (1.0 / net if net else math.inf) if buying else reference_price / keep
    target = family.state_at_spot(state, i, j, price)
    # what the trade moves to reach the target: nan where there is none,
    # and not positive for a state behind the trade (exponential at kappa
    # < 1, or rounding at the fee band's edge, whose trade the profit check
    # below declines): there every size earns, up to the floor
    if j >= family.issued_from:  # a mint, which shrinks no leg
        minted = math.nan if target is None else target[j] - state[j]
        kind, size = (EXACT_OUT, minted) if minted > 0.0 else (EXACT_IN, budget)
    elif i >= family.issued_from:  # a burn, which shrinks the supply and the reserve
        # on r(S) = S**kappa / c the reserve falls as the supply to the power
        # kappa: the floor of the leg that falls faster bounds the burn
        edge = state[i] * (1.0 - ARB_FLOOR ** (1.0 / max(1.0, family.curve.kappa)))
        burned = math.nan if target is None else state[i] - target[i]
        kind, size = EXACT_IN, min(budget, burned if 0.0 < burned < edge else edge)
    else:  # leg j pays out of the pool's reserve; a sale pays its fee on the input
        edge = state[j] * (1.0 - ARB_FLOOR)
        out = math.nan if target is None else state[j] - target[j]
        if not 0.0 < out <= edge:
            kind, size = EXACT_OUT, edge
        elif buying:
            kind, size = EXACT_OUT, out
        else:
            kind, size = EXACT_IN, min(budget, (target[i] - state[i]) / keep)

    # the trade step's (paid, got, fee, state after), declined where `quote`
    # would refuse the order; a trade that costs more than is held is
    # priced again as a spend of all of it
    for kind, size in ((kind, size), (EXACT_IN, budget)):
        try:
            trade = family.trade(state, i, j, kind, size, fee)
        except AmmError:
            return pool, ledgers, None
        if not 0.0 < trade[0] < math.inf:
            return pool, ledgers, None
        if trade[0] <= budget:
            break
    paid, got = trade[0], trade[1]
    if not (got * reference_price - paid if buying else got - paid * reference_price) > 0.0:
        return pool, ledgers, None
    order = _order(arb_account, pool.tokens[i], pool.tokens[j], size, kind)
    pool, receipt, ledgers = _settle_trade(pool, order, i, j, trade, ledgers)
    return pool, ledgers, receipt


# ---------------------------------------------------------------------------
# scenario execution
# ---------------------------------------------------------------------------


def _trade(pool, working, hold, reference, event, *order):
    pool, _, working = execute_swap(pool, _order(*order, EXACT_IN), working)
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
# kind before it), the positions of its account arguments, and its handler,
# which takes the pool, the ledgers, the hold baseline, the reference price,
# the event and the typed arguments, and returns the pool, the ledgers and
# the baseline after the event.  Each pool state binds its pricing family
# once, when it is built, so no handler passes a family on
_VERBS = {
    "trade": (("account", "token", "token", "amount"), (0,), _trade),
    "deposit": (("account", "amount", ...), (0,), _deposit),
    "withdraw": (("account", "share amount"), (0,), _withdraw),
    "oracle": (("price",), (), _oracle),
    "arb": (("account",), (0,), _arb),
    "resolve": (("outcome",), (), _resolve),
}

EVENT_VERBS = frozenset(_VERBS)


def _typed(verb: str, args: tuple[str, ...], line: int):
    """(handler, typed arguments) of an event, its string arguments checked
    against its verb's entry in `_VERBS`; DomainError naming the line if not."""
    entry = _VERBS.get(verb)
    if entry is None:
        raise DomainError(f"scenario line {line}: unknown verb {verb!r}")
    kinds, _, handler = entry
    if kinds[-1] is ...:
        kinds = kinds[:-1] + kinds[-2:-1] * (len(args) - len(kinds) + 1)
    if len(args) != len(kinds):
        raise DomainError(f"scenario line {line}: wrong argument count for {verb!r}")
    values = list(args)  # names stay strings, an outcome's for the pool to resolve
    for index, kind in enumerate(kinds):
        if kind in ("account", "token", "outcome"):
            continue
        try:
            value = float(args[index])
        except ValueError:
            value = math.nan  # a bad number, as a non-finite one is
        if not -math.inf < value < math.inf:
            raise DomainError(f"scenario line {line}: bad {kind} {args[index]!r}")
        if kind == "price" and not value > 0.0:
            raise DomainError(f"scenario line {line}: price must be > 0")
        values[index] = value
    return handler, values


def _mark(marked: int, amounts, reference: float | None) -> float | None:
    """Value a token vector, leg `marked` at the reference and the rest at
    par; None when that needs an undefined reference.  The legs are summed
    left to right; a zero marked leg is added as it is, a signed zero that
    moves no running value (which starts at 0.0 and is never -0.0)."""
    risky = amounts[marked]
    if risky != 0.0:
        if reference is None:
            return None
        risky *= reference
    value, index = 0.0, 0
    for amount in amounts:
        value += risky if index == marked else amount
        index += 1
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
        try:
            spot = family.spot(state)
        except AmmError:
            pass
        try:
            invariant = family.invariant(state)
        except AmmError:
            pass
    tracking = None
    if spot is not None and reference is not None:
        tracking = abs(spot - reference) / reference
    risky = family.risky
    lp_value = divergence = None
    if family.lp_error is None and not closed:
        lp_value = _mark(risky, pool.reserves, reference)
        hold_value = _mark(risky, hold, reference)
        if lp_value is not None and hold_value:
            divergence = lp_value / hold_value - 1.0
    fees_cum = _mark(risky, pool.accumulated_fees, reference)
    return _record(
        event.step, event.verb, spot, reference, tracking, invariant, lp_value, divergence, fees_cum
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
    grants: dict[str, list[tuple[str, float]]] = {token: [] for token in working}
    for token, extra in (ledgers or {}).items():
        working.setdefault(token, new_ledger(token))
        grants.setdefault(token, []).extend(
            (account, amount) for account, amount in extra.balances.items() if amount > 0.0
        )
    unknown = None
    for account, token, amount in scenario.endowments:
        batch = grants.get(token)
        if batch is None:
            unknown = token  # raised after the grants before it are checked
            break
        if amount > 0.0:
            batch.append((account, amount))
    for token, batch in grants.items():
        working[token] = ledger_mint_many(working[token], batch)
    if unknown is not None:
        raise DomainError(f"endowment for unknown token {unknown!r}")

    hold = list(pool.reserves)
    records: list[MetricsRecord] = []
    # the reference carried forward, as `PriceSeries.at` gives it: entries[:ahead]
    # lie at or before the last step seen, and the sentinel lies past every step
    entries = (*(price_series.entries if price_series is not None else ()), (math.inf, None))
    ahead, reference = 0, None
    for index, event in enumerate(scenario.events):
        step = event.step
        if ahead and entries[ahead - 1][0] > step:  # a hand-built scenario went back
            ahead, reference = 0, None
        while entries[ahead][0] <= step:
            reference = entries[ahead][1]
            ahead += 1
        try:
            # a parsed event carries its typed call; one built by hand is typed here
            handler, values = event._call or _typed(event.verb, event.args, event.line)
            pool, working, hold = handler(pool, working, hold, reference, event, *values)
        except AmmError as error:
            raise ScenarioError(
                f"event {index} (scenario line {event.line}): {error}",
                index,
                Metrics(records=tuple(records)),
            ) from error
        records.append(_observe(pool, event, reference, hold))
    return Metrics(records=tuple(records))
