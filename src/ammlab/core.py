"""Domain primitives: token ledgers, fee parameters, and the error taxonomy.

Amounts and prices are plain binary64 floats; this is a research simulator,
not an on-chain contract, so exactness lives in relative-tolerance checks,
each declared where it is used, rather than fixed-point arithmetic.
Operations that would produce a negative amount reject instead of clamping,
so invariant breaches surface as errors.

Ledgers are immutable snapshots: every operation returns a new `Ledger` and
never touches its input, which makes copies safe to hand to concurrent
executors and makes atomicity trivial (a failed operation is just a raised
exception with the old snapshot still in hand).  Snapshots share their
balances: each holds a base dict and a small dict of recent writes, and no
snapshot ever writes a dict it holds, so an operation copies the recent
writes, not the whole map, and folds them into a new base only once they
outgrow the square root of the base (see the note above `ledger_transfer`).
An operation thus costs O(sqrt(accounts)) amortized, not the O(accounts) of
a full copy.  `Ledger.balances` is a read-only view of the two dicts, in
plain-dict order.  `ledger_mint_many` mints any number of grants into one
new snapshot.  `Ledger.total_supply` is the sum of the balances, taken
exactly and rounded once when read: a running float sum of mints and burns
drifts from the balances, each rounded on its own, after cancellation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator, Mapping

# identifiers are plain strings: token symbols ("WETH") and opaque account
# ids; pools are accounts too
TokenId = str
AccountId = str


# ---------------------------------------------------------------------------
# building immutable values
# ---------------------------------------------------------------------------

# A frozen dataclass's constructor sets every field through
# `object.__setattr__`, and a `__post_init__` that normalises its input
# costs more on top: a `PoolState` takes about 2.5 times as long to build
# that way as through `_slot_builder` (4.5 against 1.8 us on a shared
# two-core Xeon).  So the values built once per simulated event, or per
# scenario line, do not go through it: where every input is already in the
# form the constructor would store, they are built by `_slot_builder`.  The public constructors
# and `dataclasses.replace` keep normalising and checking outside input.
# `Ledger`, built on every ledger operation, is a plain slotted class with
# read-only properties for the same reason.


def _slot_builder(cls: type) -> Callable:
    """A function that builds a `cls`, a frozen slotted dataclass, from one
    positional value per field in field order, `init=False` fields
    included.

    It writes each slot through its member descriptor and runs neither
    `__init__` nor `__post_init__`, so it neither normalises nor checks:
    each value must already be what the constructor would store.  The
    value built is frozen as any other, and its fields compare, print and
    refuse assignment as the constructor's do.  The writes are generated
    unrolled, as `dataclasses` generates `__init__`: a loop over the
    setters costs half as much again."""
    setters = [cls.__dict__[f.name].__set__ for f in fields(cls)]
    params = ", ".join(f"v{k}" for k in range(len(setters)))
    writes = "".join(f"    set{k}(built, v{k})\n" for k in range(len(setters)))
    scope = {f"set{k}": setter for k, setter in enumerate(setters)}
    scope.update(new=object.__new__, cls=cls)
    exec(f"def build({params}):\n    built = new(cls)\n{writes}    return built\n", scope)
    build = scope["build"]
    build.__qualname__ = build.__name__ = f"build_{cls.__name__}"
    return build


# ---------------------------------------------------------------------------
# error taxonomy
# ---------------------------------------------------------------------------


class AmmError(Exception):
    """Base class for every engine-raised error."""


class DomainError(AmmError):
    """A parameter or amount is outside its legal domain."""


class InsufficientBalance(AmmError):
    """A transfer or burn exceeds the source account's balance."""


class DepletionError(AmmError):
    """A trade would drain more of a reserve than the pool can pay out."""


class UnsupportedOperation(AmmError):
    """The operation is not defined for this curve or archetype."""


class SolverError(AmmError):
    """The product-sum level solve (`curves.solve_stableswap_d`), the one
    root solve left, failed to converge; carries the final residual.  Only
    a pool of three or more tokens runs it: two-token D is a closed form."""

    def __init__(self, message: str, residual: float = float("nan")):
        super().__init__(message)
        self.residual = residual


# ---------------------------------------------------------------------------
# fee parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class FeeParams:
    trade_fee: float = 0.0  # in [0, 1); the pricing family picks the side it is charged on

    def __post_init__(self) -> None:
        if not 0.0 <= self.trade_fee < 1.0:
            raise DomainError(f"trade_fee must be in [0, 1): {self.trade_fee}")


# ---------------------------------------------------------------------------
# per-token ledger
# ---------------------------------------------------------------------------

# the recent writes of a snapshot that has none; like every dict a snapshot
# holds, it is never written (operations write into copies)
_NO_WRITES: dict[AccountId, float] = {}


class Ledger:
    """Account book for one token; sum of balances equals total_supply.

    `total_supply` is that sum, taken exactly (`math.fsum`) and rounded
    once, so it is worked out on read in O(accounts) and never drifts from
    the balances.  An account's balance is its entry in `_recent` if it has
    one, else its entry in `_base`; `_size` counts the accounts.  Snapshots share both
    dicts and never write either, and `len(_recent) ** 2 <= len(_base)`
    holds for every snapshot an operation returns.  The public attributes
    are read-only.  Build one with `new_ledger`.
    """

    # plain slots and read-only properties (see the note above `_slot_builder`)
    __slots__ = ("_token", "_base", "_recent", "_size")

    def __init__(
        self,
        token: TokenId,
        base: dict[AccountId, float],
        recent: dict[AccountId, float],
        size: int,
    ):
        self._token = token
        self._base = base
        self._recent = recent
        self._size = size

    @property
    def token(self) -> TokenId:
        return self._token

    @property
    def total_supply(self) -> float:
        try:
            return math.fsum(self.balances.values())
        except OverflowError:  # finite balances whose sum is past the float range
            return math.inf

    @property
    def balances(self) -> Mapping[AccountId, float]:
        """Read-only view of every balance, in the order accounts were first
        credited (the order of a plain dict written the same way)."""
        return _Balances(self._base, self._recent, self._size)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Ledger):
            return NotImplemented
        return self._token == other._token and self.balances == other.balances

    def __repr__(self) -> str:
        return (
            f"Ledger(token={self._token!r}, balances={dict(self.balances)!r}, "
            f"total_supply={self.total_supply!r})"
        )


class _Balances(Mapping[AccountId, float]):
    """`Ledger.balances`: base entries in base order, each overridden by its
    recent write, then the accounts first written since the base was made."""

    __slots__ = ("_base", "_recent", "_size")

    def __init__(
        self, base: dict[AccountId, float], recent: dict[AccountId, float], size: int
    ):
        self._base, self._recent, self._size = base, recent, size

    def __getitem__(self, account: AccountId) -> float:
        held = self._recent.get(account)
        return self._base[account] if held is None else held

    def __len__(self) -> int:
        return self._size

    def __iter__(self) -> Iterator[AccountId]:
        base = self._base
        yield from base
        yield from (account for account in self._recent if account not in base)

    def __repr__(self) -> str:
        return f"balances({dict(self)!r})"


def new_ledger(token: TokenId, balances: Mapping[AccountId, float] | None = None) -> Ledger:
    """Build a ledger snapshot of the given initial balances."""
    balances = dict(balances or {})
    for account, value in balances.items():
        if not 0.0 <= value < math.inf:
            raise DomainError(f"balance for {account!r} must be finite and >= 0: {value}")
    return Ledger(token, balances, _NO_WRITES, len(balances))


def balance_of(ledger: Ledger, account: AccountId) -> float:
    held = ledger._recent.get(account)
    return ledger._base.get(account, 0.0) if held is None else held


def _require_amount(amount: float) -> None:
    if not 0.0 <= amount < math.inf:  # also rejects NaN
        raise DomainError(f"amount must be finite and non-negative: {amount}")


# The operations below read the two dicts directly: on a ledger of a few
# accounts a call to `balance_of` costs more than the read.  Each refuses a
# negative, infinite or nan amount with `_require_amount`'s DomainError and
# returns its input as is for an amount of zero; `ledger_transfer`, which
# every settled trade calls, spells that check out inline for the same
# reason.  Each writes its entries into a copy of the recent writes or, when
# that copy could outgrow the square root of the base (the test
# `(len(recent) + writes) ** 2 > len(base)`), into a new base that folds the
# recent writes in.  A fold copies O(accounts) once every O(sqrt(accounts))
# writes, so an operation costs O(sqrt(accounts)) amortized; a ledger of a
# few accounts folds on every operation, which is one small dict copy.


def ledger_transfer(ledger: Ledger, src: AccountId, dst: AccountId, amount: float) -> Ledger:
    """Move `amount` from src to dst; total supply is untouched."""
    if not 0.0 <= amount < math.inf:  # also rejects NaN
        raise DomainError(f"amount must be finite and non-negative: {amount}")
    if amount == 0.0:
        return ledger
    base, recent = ledger._base, ledger._recent
    held = recent.get(src)
    if held is None:
        held = base.get(src, 0.0)
    if held < amount:
        raise InsufficientBalance(
            f"{src!r} holds {held} {ledger._token}, cannot transfer {amount}"
        )
    if src == dst:  # (held - amount) + amount need not round back to held
        return ledger
    size = ledger._size
    got = recent.get(dst)
    if got is None:
        got = base.get(dst)
        if got is None:
            got, size = 0.0, size + 1
    if (len(recent) + 2) ** 2 > len(base):
        base = written = {**base, **recent}
        recent = _NO_WRITES
    else:
        recent = written = recent.copy()
    written[src] = held - amount
    written[dst] = got + amount
    return Ledger(ledger._token, base, recent, size)


def ledger_mint(ledger: Ledger, to: AccountId, amount: float) -> Ledger:
    """Create `amount` new tokens in `to`; supply grows by what `to` is
    credited, which is `amount` up to the rounding of its new balance."""
    return ledger_mint_many(ledger, ((to, amount),))


def ledger_mint_many(ledger: Ledger, grants: Iterable[tuple[AccountId, float]]) -> Ledger:
    """Mint each `(to, amount)` grant in order into one new snapshot.

    Balances are summed in grant order, so the result is bitwise the fold
    of `ledger_mint` over the grants; the input is returned as is
    when every amount is zero.
    """
    base, recent, size = ledger._base, ledger._recent, ledger._size
    written = None
    for to, amount in grants:
        _require_amount(amount)
        if amount == 0.0:
            continue
        if written is None:
            if (len(recent) + 1) ** 2 > len(base):
                base = written = {**base, **recent}
                recent = _NO_WRITES
            else:
                recent = written = recent.copy()
        held = written.get(to)
        if held is None:
            held = base.get(to)
            if held is None:
                held, size = 0.0, size + 1
        written[to] = held + amount
    if written is None:
        return ledger
    if len(recent) ** 2 > len(base):  # more grants than the first test allowed for
        base, recent = {**base, **recent}, _NO_WRITES
    return Ledger(ledger._token, base, recent, size)


def ledger_burn(ledger: Ledger, src: AccountId, amount: float) -> Ledger:
    """Destroy `amount` tokens held by `src`; supply shrinks by what `src`
    is debited, which is `amount` up to the rounding of its new balance."""
    _require_amount(amount)
    if amount == 0.0:
        return ledger
    base, recent = ledger._base, ledger._recent
    held = recent.get(src)
    if held is None:
        held = base.get(src, 0.0)
    if held < amount:
        raise InsufficientBalance(f"{src!r} holds {held} {ledger._token}, cannot burn {amount}")
    if (len(recent) + 1) ** 2 > len(base):
        base = written = {**base, **recent}
        recent = _NO_WRITES
    else:
        recent = written = recent.copy()
    written[src] = held - amount
    return Ledger(ledger._token, base, recent, ledger._size)
