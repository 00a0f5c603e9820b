"""Domain primitives: token ledgers, fee parameters, and the error taxonomy.

Amounts and prices are plain binary64 floats; this is a research simulator,
not an on-chain contract, so exactness lives in relative-tolerance checks,
each declared where it is used, rather than fixed-point arithmetic.
Operations that would produce a negative amount reject instead of clamping,
so invariant breaches surface as errors.

Ledgers are immutable snapshots: every operation returns a new `Ledger` and
never touches its input, which makes copies safe to hand to concurrent
executors and makes atomicity trivial (a failed operation is just a raised
exception with the old snapshot still in hand).  Each operation still copies
the balance map, so it costs O(accounts), but through the proxy's `.copy()`,
which copies the underlying dict directly (`dict(proxy)` would go key by key,
about 15x slower at 3,000 accounts).  `ledger_mint_many` mints any number of
grants on one copy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Iterable, Mapping

# identifiers are plain strings: token symbols ("WETH") and opaque account
# ids; pools are accounts too
TokenId = str
AccountId = str


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


@dataclass(frozen=True, slots=True)
class Ledger:
    """Account book for one token; sum of balances equals total_supply."""

    token: TokenId
    balances: Mapping[AccountId, float]
    total_supply: float


def new_ledger(token: TokenId, balances: Mapping[AccountId, float] | None = None) -> Ledger:
    """Build a ledger snapshot; total supply is the sum of initial balances."""
    balances = dict(balances or {})
    for account, value in balances.items():
        if not 0.0 <= value < math.inf:
            raise DomainError(f"balance for {account!r} must be finite and >= 0: {value}")
    return Ledger(
        token=token,
        balances=MappingProxyType(balances),
        total_supply=float(sum(balances.values())),
    )


def balance_of(ledger: Ledger, account: AccountId) -> float:
    return ledger.balances.get(account, 0.0)


def _require_amount(amount: float) -> None:
    if not 0.0 <= amount < math.inf:  # also rejects NaN
        raise DomainError(f"amount must be finite and non-negative: {amount}")


def ledger_transfer(ledger: Ledger, src: AccountId, dst: AccountId, amount: float) -> Ledger:
    """Move `amount` from src to dst; total supply is untouched."""
    _require_amount(amount)
    if amount == 0.0:
        return ledger
    held = balance_of(ledger, src)
    if held < amount:
        raise InsufficientBalance(
            f"{src!r} holds {held} {ledger.token}, cannot transfer {amount}"
        )
    balances = ledger.balances.copy()
    balances[src] = held - amount
    balances[dst] = balances.get(dst, 0.0) + amount
    return Ledger(ledger.token, MappingProxyType(balances), ledger.total_supply)


def ledger_mint(ledger: Ledger, to: AccountId, amount: float) -> Ledger:
    """Create `amount` new tokens in `to`; supply grows by exactly that."""
    return ledger_mint_many(ledger, ((to, amount),))


def ledger_mint_many(ledger: Ledger, grants: Iterable[tuple[AccountId, float]]) -> Ledger:
    """Mint each `(to, amount)` grant in order on one copy of the balances.

    Balances and supply are summed in grant order, so the result is bitwise
    the fold of `ledger_mint` over the grants; the input is returned as is
    when every amount is zero.
    """
    balances = None
    supply = ledger.total_supply
    for to, amount in grants:
        _require_amount(amount)
        if amount == 0.0:
            continue
        if balances is None:
            balances = ledger.balances.copy()
        balances[to] = balances.get(to, 0.0) + amount
        supply += amount
    if balances is None:
        return ledger
    return Ledger(ledger.token, MappingProxyType(balances), supply)


def ledger_burn(ledger: Ledger, src: AccountId, amount: float) -> Ledger:
    """Destroy `amount` tokens held by `src`; supply shrinks by exactly that."""
    _require_amount(amount)
    if amount == 0.0:
        return ledger
    held = balance_of(ledger, src)
    if held < amount:
        raise InsufficientBalance(f"{src!r} holds {held} {ledger.token}, cannot burn {amount}")
    balances = ledger.balances.copy()
    balances[src] = held - amount
    return Ledger(ledger.token, MappingProxyType(balances), ledger.total_supply - amount)
