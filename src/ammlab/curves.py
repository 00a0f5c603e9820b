"""The eight price-discovery rules behind one quoting interface.

Conservation-function curves (constant product, geometric mean, constant sum,
constant product-sum, constant power-sum) price trades by holding their
conservation value fixed:

    constant product      c = prod(r_i)
    geometric mean        c = prod(r_i ** w_i),  w_i > 0, sum w_i = 1
    constant sum          c = sum(r_i)
    constant product-sum  chi*D^(n-1)*sum(x) + prod(x) = chi*D^n + (D/n)^n
    constant power-sum    c = sum(r_i ** (1 - t)),  0 <= t < 1

plus three non-conservation mechanisms:

    LMSR            cost C(q) = b * ln(sum(exp(q_j / b))); prices are softmax
    price adoption  marginal P = p * (1 + k * (t0 - r0) / t0), integrated over
                    the token-0 reserve trajectory and clamped so imbalance is
                    only ever surcharged, never subsidized: buyers of token 0
                    pay max(p, P), sellers receive max(0, min(p, P))
    exponential     bonding curve r(S) = S**kappa / c over (reserve, supply)

Every quote is a closed form, so none runs a root solve or carries a
solver's tolerance: a conservation curve moves the two traded reserves
along its level set (a hyperbola for constant product and product-sum,
one power of each reserve for geometric mean and power-sum), LMSR inverts
its cost function in log space, and price adoption inverts its piecewise
quadratic integrals.  `state_at_spot`, the inverse of the spot, sizes an
arbitrage trade the same way on every two-token curve.  The product-sum
level D is a closed form too for two tokens, the root of a quadratic, and
at chi = 0; the one root solve left is D for three or more at chi > 0
(`solve_stableswap_d`): Newton in ln D from the larger one-term root, then
one multiplicative step in D.

Token legs are integer indices into the reserves vector. Two conventions:
LMSR uses ``None`` for the collateral leg (reserves are outstanding share
quantities), and the exponential curve expects ``reserves = (reserve_balance,
circulating_supply)`` with index 0 the reserve token and 1 the issued token.

Each curve is one `CurveSpec` subclass that owns its pricing; the
conservation curves share their quotes through `_Conservation`.  The
module-level functions check their arguments and delegate to the spec.
Each spec class is declared with ``@_curve(spec_name, label, family)``: its
``curve =`` value in a pool specification file, its Price Discovery taxonomy
label, and the pricing family the engine prices it with.  Its dataclass
fields are its specification keys.  The declaration lists the class in
``CURVES``; the spec parser, the engine and the probe read everything else
from there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .core import DepletionError, DomainError, SolverError, UnsupportedOperation

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 64

WEIGHT_SUM_TOL = 1e-9

# pricing families (see engine.py)
CONSERVATION = "conservation"
PRICE_ADOPTION = "price-adoption"
SCORING_RULE = "scoring-rule"
BONDING = "bonding"

#: every curve spec class, in specification-file order
CURVES: list[type] = []


def _curve(spec_name: str, label: str, family: str):
    """Name a curve spec class and list it in CURVES."""

    def declare(cls: type) -> type:
        cls.spec_name, cls.label, cls.family = spec_name, label, family
        CURVES.append(cls)
        return cls

    return declare


# ---------------------------------------------------------------------------
# argument checks
# ---------------------------------------------------------------------------


# The reserve checks loop instead of calling any(): they run several times
# in every quote.


def _require_positive(reserves: Sequence[float]) -> None:
    for r in reserves:
        if not r > 0.0:
            raise DomainError(f"reserves must be strictly positive: {tuple(reserves)}")


def _require_nonnegative(reserves: Sequence[float]) -> None:
    for r in reserves:
        if r < 0.0:
            raise DomainError(f"reserves must be non-negative: {tuple(reserves)}")


def _check_pair(reserves: Sequence[float], i: int, j: int) -> None:
    n = len(reserves)
    if not (0 <= i < n and 0 <= j < n):
        raise DomainError(f"token index out of range for {n} reserves: ({i}, {j})")
    if i == j:
        raise DomainError("token_in and token_out must differ")


# ---------------------------------------------------------------------------
# curve specifications
# ---------------------------------------------------------------------------


class CurveSpec:
    """A curve specification and its pricing rule: `invariant(reserves)`,
    `spot(reserves, i, j, adopted_price)` and `quote_in` / `quote_out(reserves,
    i, j, amount, adopted_price)`, which take legs that passed `check_legs`
    and a positive amount; each quote is a closed form.

    The caller guarantees both.  The public functions below (`spot_price`,
    `quote_exact_in`, `quote_exact_out`) check them on every call.  The
    engine's pricing family (`engine.PricingFamily`) calls these methods
    directly: it checks an amount by the same rules as the public functions,
    and its legs where they enter (an order's tokens, the arbitrage step's
    pool, a probe's opening state), not on every trade.

    `state_at_spot(reserves, i, j, price, adopted_price)` inverts the spot:
    the reserves on the conservation level of `reserves` at which `spot(i ->
    j)` is `price`, with only legs i and j moved, each in closed form (price
    adoption has no level: token 1 moves by the integral the trade pays).
    It is None where no such state lies inside the domain: the spot is flat
    (the base class, constant sum, a flat piece), or it reaches the price
    only past a reserve's depletion or the float range.  The arbitrageur
    reads its trade size off this state; a curve it trades must give it.
    """

    __slots__ = ()

    def check_legs(self, reserves, token_in: int | None, token_out: int | None) -> None:
        """Reject a trade leg this curve cannot price at reserves shaped
        like `reserves`."""
        if token_in is None or token_out is None:
            raise DomainError("collateral leg (None) is only defined for LMSR curves")
        _check_pair(reserves, token_in, token_out)

    def check_tokens(self, n_tokens: int) -> None:
        """Reject a pool of n_tokens tokens that this curve cannot price."""

    def state_at_spot(self, reserves, token_in, token_out, price, adopted_price=None):
        """The reserves at which the spot is `price` (see the class docstring)."""
        return None


def _moved(reserves, token_in: int, token_out: int, r_in: float, r_out: float):
    """`reserves` with legs token_in and token_out at r_in and r_out, or None
    unless both are positive and finite."""
    if not (0.0 < r_in < math.inf and 0.0 < r_out < math.inf):
        return None
    moved = list(reserves)
    moved[token_in], moved[token_out] = r_in, r_out
    return tuple(moved)


def _scaled(reserves, token_in: int, token_out: int, g_in: float, g_out: float):
    """`reserves` with legs token_in and token_out scaled by e^g_in and
    e^g_out, each free of cancellation however far it moves, or None where
    either leaves the positive floats."""
    try:
        return _moved(
            reserves, token_in, token_out,
            reserves[token_in] * math.exp(g_in), reserves[token_out] * math.exp(g_out),
        )
    except OverflowError:
        return None


def _grown(x: float, g: float) -> float:
    """x * expm1(g) for x > 0 and g >= 0: x grown by the factor e^g, free of
    cancellation for small g and of expm1's overflow for large g where the
    product is still a float; inf past that."""
    if g < 700.0:
        return x * math.expm1(g)
    g += math.log(x)  # the log of the product: e^g alone overflows
    return math.exp(g) if g < 709.78 else math.inf


class _Conservation(CurveSpec):
    """A curve that prices trades by holding its conservation value fixed.

    Subclasses give `value(reserves)`, the conservation value of reserves
    that passed `require_reserves`; `marginal(reserves, i, j)`, the spot;
    `out_given_in(reserves, i, j, dx, value)` and `in_given_out(reserves, i,
    j, dy, value)`, the closed forms of a trade that moves legs i and j
    along the level set of `reserves`, handed the value that the quote
    computed to check it for overflow; and `drainable`, whether a trade may
    empty a reserve.  The shared methods check the reserves, the overflows
    and the depletion around them.
    """

    __slots__ = ()

    drainable = False
    require_reserves = staticmethod(_require_positive)

    def invariant(self, reserves: Sequence[float]) -> float:
        self.require_reserves(reserves)
        return self._finite_value(reserves)

    def _finite_value(self, reserves: Sequence[float]) -> float:
        """The conservation value of reserves that passed `require_reserves`,
        or DomainError where it overflows."""
        try:
            c = self.value(reserves)
        except OverflowError:
            c = math.inf
        if not math.isfinite(c):
            raise DomainError(f"conservation value overflows at reserves {tuple(reserves)}")
        return c

    def spot(self, reserves, token_in, token_out, adopted_price=None):
        self.require_reserves(reserves)
        price = self.marginal(reserves, token_in, token_out)
        if not 0.0 < price < math.inf:
            raise DomainError(f"spot price leaves the float range at reserves {tuple(reserves)}")
        return price

    def quote_in(self, reserves, i, j, dx, adopted_price=None):
        self.require_reserves(reserves)
        value = self._finite_value(reserves)
        out = self.out_given_in(reserves, i, j, dx, value) if reserves[i] + dx < math.inf else math.nan
        if out != out:  # nan: the post-trade reserve or a term of the form overflowed
            raise DomainError(f"input {dx} overflows the conservation value at reserves {tuple(reserves)}")
        r_j = reserves[j]
        if out > r_j:
            raise DepletionError(f"input {dx} would drain more than the {r_j} units in reserve")
        if out == r_j and not self.drainable:  # what stays is below the float spacing of r_j
            raise DepletionError(f"input {dx} would deplete reserve {j}")
        return out

    def quote_out(self, reserves, i, j, dy, adopted_price=None):
        self.require_reserves(reserves)
        r_j = reserves[j]
        if dy > r_j or (dy == r_j and not self.drainable):
            raise DepletionError(f"requested {dy} exceeds the {r_j} units available")
        paid = self.in_given_out(reserves, i, j, dy, self._finite_value(reserves))
        if not reserves[i] + paid < math.inf:
            raise DomainError(f"the input for {dy} overflows at reserves {tuple(reserves)}")
        return paid


def _hyperbola_out(b: float, x_i: float, x_j: float, dx: float) -> float:
    """Leg j's output for dx of leg i on (b + x_i) * (b + x_j) = m, ordered
    so that no intermediate overflows: the factor dx / (b + x_i + dx) is at
    most 1."""
    return (b + x_j) * (dx / (b + x_i + dx))


class _Hyperbola(_Conservation):
    """A conservation curve whose level set in the two traded legs, the
    other reserves held, is the hyperbola (b + x_i) * (b + x_j) = m for the
    offset b = `offset(reserves, i, j, value)`, where `value`, the
    conservation value of `reserves`, is None where the caller has not
    computed it: constant product (b = 0) and constant product-sum.  Its
    spot is (b + x_j) / (b + x_i), and its quotes and the inverse of its
    spot are closed forms in b.

    Where b overflows to inf (product-sum, when the reserves outside the
    trade multiply to a tiny float), the hyperbola is priced by its limit,
    the line x_i + x_j = const: a spot of 1, an output of dx for dx, an
    input of dy for dy, and no state at any other spot."""

    __slots__ = ()

    def marginal(self, reserves, i, j):
        b = self.offset(reserves, i, j, None)
        if b == math.inf:
            return 1.0
        return (b + reserves[j]) / (b + reserves[i])

    def out_given_in(self, reserves, i, j, dx, value):
        b = self.offset(reserves, i, j, value)
        return dx if b == math.inf else _hyperbola_out(b, reserves[i], reserves[j], dx)

    def in_given_out(self, reserves, i, j, dy, value):
        b = self.offset(reserves, i, j, value)
        if b == math.inf:
            return dy
        return dy * (b + reserves[i]) / (b + reserves[j] - dy)

    def state_at_spot(self, reserves, token_in, token_out, price, adopted_price=None):
        b = self.offset(reserves, token_in, token_out, None)
        if b == math.inf:
            return None
        x_in, x_out = reserves[token_in], reserves[token_out]
        moved_in = math.sqrt((b + x_in) * (b + x_out) / price) - b
        if not moved_in > 0.0:  # where the level's product underflows to 0
            return None
        # x_out follows from the move of x_in along the hyperbola, which keeps
        # the state on the level to the rounding of the reserves, not of b
        moved_out = x_out - _hyperbola_out(b, x_in, x_out, moved_in - x_in)
        return _moved(reserves, token_in, token_out, moved_in, moved_out)


@_curve("constant-product", "Constant-product", CONSERVATION)
@dataclass(frozen=True, slots=True)
class ConstantProduct(_Hyperbola):
    def value(self, reserves):
        return math.prod(reserves)

    def offset(self, reserves, i, j, value):
        return 0.0


@_curve("geometric-mean", "Geometric Mean", CONSERVATION)
@dataclass(frozen=True, slots=True)
class GeometricMean(_Conservation):
    weights: tuple[float, ...]  # one weight per token, positive, summing to 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.weights) < 2:
            raise DomainError("geometric mean needs at least two weights")
        if any(not (w > 0.0 and math.isfinite(w)) for w in self.weights):
            raise DomainError(f"weights must be positive and finite: {self.weights}")
        if abs(math.fsum(self.weights) - 1.0) > WEIGHT_SUM_TOL:
            raise DomainError(f"weights must sum to 1: {self.weights}")

    def check_tokens(self, n_tokens: int, legs: str = "tokens") -> None:
        if len(self.weights) != n_tokens:
            raise DomainError(f"{len(self.weights)} weights for {n_tokens} {legs}")

    def require_reserves(self, reserves):
        self.check_tokens(len(reserves), "reserves")
        _require_positive(reserves)

    def value(self, reserves):
        return math.prod(r**w for r, w in zip(reserves, self.weights))

    # x_i^w_i * x_j^w_j is held, so the two legs move by reciprocal powers:
    # x_j' / x_j = (x_i / x_i')^(w_i / w_j)

    def out_given_in(self, reserves, i, j, dx, value):
        w = self.weights
        return -reserves[j] * math.expm1(-w[i] / w[j] * math.log1p(dx / reserves[i]))

    def in_given_out(self, reserves, i, j, dy, value):
        w = self.weights
        return _grown(reserves[i], -w[j] / w[i] * math.log1p(-dy / reserves[j]))

    def marginal(self, reserves, i, j):
        below = self.weights[j] * reserves[i]  # 0 where a subnormal reserve underflows
        return (self.weights[i] * reserves[j]) / below if below else math.inf

    def state_at_spot(self, reserves, token_in, token_out, price, adopted_price=None):
        # holding x_i^w_i * x_j^w_j moves log x_i and log x_j in the ratio
        # w_j : -w_i, and the spot by the difference of the two moves
        w_i, w_j = self.weights[token_in], self.weights[token_out]
        log_spot = math.log(w_i / w_j) + math.log(reserves[token_out]) - math.log(reserves[token_in])
        gap = (log_spot - math.log(price)) / (w_i + w_j)
        return _scaled(reserves, token_in, token_out, w_j * gap, -w_i * gap)


@_curve("constant-sum", "Constant-sum", CONSERVATION)
@dataclass(frozen=True, slots=True)
class ConstantSum(_Conservation):
    drainable = True
    require_reserves = staticmethod(_require_nonnegative)

    def value(self, reserves):
        return math.fsum(reserves)

    def out_given_in(self, reserves, i, j, dx, value):
        return dx

    def in_given_out(self, reserves, i, j, dy, value):
        return dy

    def marginal(self, reserves, i, j):
        return 1.0


@_curve("constant-product-sum", "Constant-product-sum", CONSERVATION)
@dataclass(frozen=True, slots=True)
class ConstantProductSum(_Hyperbola):
    chi: float  # leverage factor, finite, >= 0; 0 -> constant product, large -> sum

    def __post_init__(self) -> None:
        if not (self.chi >= 0.0 and math.isfinite(self.chi)):
            raise DomainError(f"chi must be finite and >= 0: {self.chi}")

    def value(self, reserves):
        if len(reserves) == 2:
            return _two_token_d(reserves, self.chi)
        return solve_stableswap_d(reserves, self.chi)

    def offset(self, reserves, i, j, value):
        # with the other reserves' product q held, the invariant at D holds
        # where (b + x_i) * (b + x_j) is constant, b = chi*D^(n-1) / q
        d = self.value(reserves) if value is None else value
        n = len(reserves)
        if n == 2:
            return self.chi * d
        others = math.prod(r for k, r in enumerate(reserves) if k != i and k != j)
        if others == 0.0:
            raise DomainError(f"the reserves outside the trade underflow to 0: {tuple(reserves)}")
        return self.chi * d ** (n - 1) / others


@_curve("constant-power-sum", "Constant-power-sum", CONSERVATION)
@dataclass(frozen=True, slots=True)
class ConstantPowerSum(_Conservation):
    t: float  # curvature in [0, 1); 0 degenerates to constant sum

    def __post_init__(self) -> None:
        if not 0.0 <= self.t < 1.0:
            raise DomainError(f"t must be in [0, 1): {self.t}")

    def value(self, reserves):
        return math.fsum(r ** (1.0 - self.t) for r in reserves)

    # x_i^e + x_j^e is held (e = 1 - t): what leg i's term gains, leg j's
    # term loses, each change taken relative to the term it changes

    def out_given_in(self, reserves, i, j, dx, value):
        e = 1.0 - self.t
        x_i, x_j = reserves[i], reserves[j]
        taken = _grown(x_i**e, e * math.log1p(dx / x_i)) / x_j**e
        if not taken < 1.0:  # leg j's whole term or more: at or past its reserve
            return x_j * taken
        return -x_j * math.expm1(math.log1p(-taken) / e)

    def in_given_out(self, reserves, i, j, dy, value):
        e = 1.0 - self.t
        x_i, x_j = reserves[i], reserves[j]
        lost = -(x_j**e) * math.expm1(e * math.log1p(-dy / x_j))
        return _grown(x_i, math.log1p(lost / x_i**e) / e)

    def marginal(self, reserves, i, j):
        return (reserves[j] / reserves[i]) ** self.t

    def state_at_spot(self, reserves, token_in, token_out, price, adopted_price=None):
        # the spot fixes the ratio x_j / x_i = price^(1/t), and the held
        # x_i^e + x_j^e = m its scale: x_i'^e = m / (1 + price^(e/t)) and
        # x_j'^e = m / (1 + price^(-e/t)), in softplus form so that no power
        # overflows.  At t = 0 the spot is 1 everywhere
        t = self.t
        if t == 0.0:
            return None
        e = 1.0 - t
        now = e * (math.log(reserves[token_out]) - math.log(reserves[token_in]))
        then = e / t * math.log(price)
        g_in = (_softplus(now) - _softplus(then)) / e
        g_out = (_softplus(-now) - _softplus(-then)) / e
        return _scaled(reserves, token_in, token_out, g_in, g_out)


# ---------------------------------------------------------------------------
# LMSR
# ---------------------------------------------------------------------------


def _lmsr_weights(b: float, q: Sequence[float], top: float | None = None) -> tuple[float, float]:
    """(top, sum of e^((q_i - top)/b)): the cost's weights with their top,
    max q unless given, shifted out for stability.  The loop adds left to
    right on every Python, as `sum()` does on 3.11; from 3.12 `sum()`
    compensates its rounding, and on 3.12.1 it differs from this loop in
    the last place on about a fifth of random weight vectors."""
    m = max(q) if top is None else top
    z = 0.0
    for qi in q:
        z += math.exp((qi - m) / b)
    return m, z


def _lmsr_cost(b: float, q: Sequence[float]) -> float:
    m, z = _lmsr_weights(b, q)
    return m + b * math.log(z)


def _lmsr_price(b: float, q: Sequence[float], j: int) -> float:
    # `_lmsr_weights`' loop, inlined: this runs on every LMSR spot and trade
    m = max(q)
    z = 0.0
    for qi in q:
        z += math.exp((qi - m) / b)
    return math.exp((q[j] - m) / b) / z


def lmsr_trade_cost(b: float, q: Sequence[float], dq: Sequence[float]) -> float:
    """C(q + dq) - C(q); positive means the trader pays collateral.

    A delta on one outcome is that outcome's closed-form buy or sale; a
    delta on several is the difference of two costs, exact to the float
    spacing of C(q) rather than of the delta."""
    if not b > 0.0:
        raise DomainError(f"b must be > 0: {b}")
    if len(q) != len(dq):
        raise DomainError(f"{len(dq)} deltas for {len(q)} outcomes")
    after = [qi + di for qi, di in zip(q, dq)]
    if any(v < 0.0 for v in after):
        raise DomainError(f"share quantities cannot go negative: {after}")
    moved = [j for j, d in enumerate(dq) if d != 0.0]
    if not moved:
        return 0.0
    if len(moved) == 1:
        j = moved[0]
        return _lmsr_buy(b, q, j, dq[j]) if dq[j] > 0.0 else -_lmsr_sale(b, q, j, -dq[j])
    return _lmsr_cost(b, after) - _lmsr_cost(b, q)


def _softplus(x: float) -> float:
    """log(1 + e^x), free of overflow for large x."""
    return x + math.log1p(math.exp(-x)) if x > 0.0 else math.log1p(math.exp(x))


def _log_expm1(y: float) -> float:
    """log(e^y - 1) for y >= 0, free of expm1's overflow; -inf at 0."""
    if y > 50.0:
        return y + math.log1p(-math.exp(-y))
    grown = math.expm1(y)
    return math.log(grown) if grown > 0.0 else -math.inf


def _lmsr_log_odds(b: float, q: Sequence[float], j: int) -> float:
    """log((1 - p_j) / p_j): the other outcomes' weight over outcome j's,
    summed directly and shifted by the largest of them, so that it is
    finite however far outcome j leads or trails.  log p_j is
    -softplus of it."""
    top, z = _lmsr_weights(b, [qi for k, qi in enumerate(q) if k != j])
    return (top - q[j]) / b + math.log(z)


# One outcome's trade against collateral moves C(q) by b*log1p(p_j*expm1(ds/b))
# for ds shares of it (Hanson's scoring rule), which no float spacing of C(q)
# limits, unlike the difference of two costs.


def _lmsr_sale(b: float, q: Sequence[float], j: int, s: float) -> float:
    """C(q) - C(q - s*e_j), what s shares of outcome j (0 <= s <= q_j) sell
    for: -b*log1p(p_j*expm1(-s/b)).  Where 1 + p_j*expm1(-s/b), which is
    (1 - p_j) + p_j*e^(-s/b), falls below 1/2 and cancels, it is read with
    1 - p_j summed directly: b*(softplus(d) - logaddexp(d, -s/b)) for d the
    log odds of the other outcomes."""
    y = s / b
    x = _lmsr_price(b, q, j) * math.expm1(-y)
    if x > -0.5:
        return -b * math.log1p(x)
    d = _lmsr_log_odds(b, q, j)
    top = max(d, -y)
    return b * (_softplus(d) - top - math.log1p(math.exp(-abs(d + y))))


def _lmsr_buy(b: float, q: Sequence[float], j: int, s: float) -> float:
    """C(q + s*e_j) - C(q), what s > 0 shares of outcome j cost:
    b*log1p(p_j*expm1(s/b)); in log space, b*softplus(log p_j + log
    expm1(s/b)), where expm1 would overflow or p_j is not a normal float."""
    y = s / b
    if y <= 700.0:
        p = _lmsr_price(b, q, j)
        if p >= 1e-300:
            return b * math.log1p(p * math.expm1(y))
    return b * _softplus(_log_expm1(y) - _softplus(_lmsr_log_odds(b, q, j)))


def _lmsr_outcome_leg(
    q: Sequence[float], token_in: int | None, token_out: int | None
) -> tuple[int, bool]:
    """Resolve (outcome index, trader_is_buying) for a collateral trade."""
    if (token_in is None) == (token_out is None):
        raise UnsupportedOperation("LMSR trades one outcome against collateral")
    j = token_out if token_in is None else token_in
    if not 0 <= j < len(q):
        raise DomainError(f"outcome index out of range: {j}")
    return j, token_in is None


@_curve("lmsr", "Logarithmic Market Scoring", SCORING_RULE)
@dataclass(frozen=True, slots=True)
class Lmsr(CurveSpec):
    b: float  # liquidity parameter, finite, > 0

    def __post_init__(self) -> None:
        if not (self.b > 0.0 and math.isfinite(self.b)):
            raise DomainError(f"b must be finite and > 0: {self.b}")

    def check_legs(self, q, token_in, token_out):
        """Legs are resolved by `_lmsr_outcome_leg` in each method."""

    def invariant(self, reserves):
        for q in reserves:
            if q < 0.0:
                raise DomainError(f"share quantities must be non-negative: {tuple(reserves)}")
        return _lmsr_cost(self.b, reserves)

    def spot(self, q, token_in, token_out, adopted_price=None):
        j, buying = _lmsr_outcome_leg(q, token_in, token_out)
        price = _lmsr_price(self.b, q, j)
        # selling outcome j yields `price` collateral per share; buying inverts it
        if not buying:
            return price
        shares = 1.0 / price if price > 0.0 else math.inf
        if shares == math.inf:
            raise DomainError(f"outcome {j} costs {price} per share: its inverse is not finite")
        return shares

    def quote_in(self, q, token_in, token_out, dx, adopted_price=None):
        j, buying = _lmsr_outcome_leg(q, token_in, token_out)
        b = self.b
        if not buying:
            # exact shares in, collateral out
            if dx > q[j]:
                raise DepletionError(f"only {q[j]} outstanding shares of outcome {j}")
            return _lmsr_sale(b, q, j, dx)
        # exact collateral in: C(q + s*e_j) - C(q) = dx at s = b*log1p(expm1(
        # dx/b) / p_j), taken as b*softplus(log(expm1(dx/b)) - log(p_j)) so
        # that neither expm1 nor the price leaves the float range
        top, z = _lmsr_weights(b, q)  # log(p_j), finite where p_j underflows
        x = _log_expm1(dx / b) - (q[j] - top) / b + math.log(z)
        shares = b * _softplus(x)
        if shares == math.inf:
            raise DomainError(f"the shares that {dx} collateral buys overflow a float")
        return shares

    def quote_out(self, q, token_in, token_out, dy, adopted_price=None):
        j, buying = _lmsr_outcome_leg(q, token_in, token_out)
        b = self.b
        if buying:  # exact shares out
            return _lmsr_buy(b, q, j, dy)
        # exact collateral out: shares in, at most the whole position
        max_payout = _lmsr_sale(b, q, j, q[j])
        if dy > max_payout:
            raise DepletionError(
                f"outcome {j} can pay out at most {max_payout} collateral"
            )
        if dy == max_payout:
            return q[j]
        # C(q) - C(q - s*e_j) = dy at s = -b*log1p(expm1(-dy/b) / p_j), at
        # most the whole position where rounding puts it past that
        y = dy / b
        price = _lmsr_price(b, q, j)
        if price <= math.exp(-y):
            ratio = math.expm1(-y) / price
            shares = -b * math.log1p(ratio) if ratio > -1.0 else q[j]
        else:
            # a leading outcome, where 1 + ratio cancels: with the others'
            # price 1 - p_j summed directly, s = dy + b*log(p_j) -
            # b*log1p(-(1 - p_j)*e^(dy/b))
            top, z = _lmsr_weights(b, q)
            rest = _lmsr_weights(b, [qi for k, qi in enumerate(q) if k != j], top)[1] / z
            tail = math.exp(math.log(rest) + y) if rest > 0.0 else 0.0
            shares = dy + b * (math.log1p(-rest) - math.log1p(-tail)) if tail < 1.0 else q[j]
        return min(q[j], shares)


# ---------------------------------------------------------------------------
# price adoption
# ---------------------------------------------------------------------------


def _require_adopted_price(adopted_price: float | None) -> float:
    if adopted_price is None:
        raise DomainError("no oracle price set; call set_oracle_price first")
    if not adopted_price > 0.0:
        raise DomainError(f"adopted price must be positive: {adopted_price}")
    return adopted_price


@_curve("price-adoption", "Price Adoption", PRICE_ADOPTION)
@dataclass(frozen=True, slots=True)
class PriceAdoption(CurveSpec):
    """The marginal price is affine in the token-0 reserve, so both trade
    directions integrate in closed form (width times the price at the
    midpoint, piece by piece), and a quote that fixes the token-1 side
    inverts that integral in closed form: linearly on the at-par piece, by
    the quadratic formula on the affine one (`_affine_width`).  A quote
    that would leave either reserve at 0 raises DepletionError."""

    k: float  # surcharge magnitude, in [0, 1]
    target_reserves: tuple[float, ...]  # (t0, t1); t0 drives the imbalance term

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "target_reserves", tuple(float(t) for t in self.target_reserves)
        )
        if not 0.0 <= self.k <= 1.0:
            raise DomainError(f"k must be in [0, 1]: {self.k}")
        self.check_tokens(len(self.target_reserves))
        if any(not (t > 0.0 and math.isfinite(t)) for t in self.target_reserves):
            raise DomainError(
                f"target reserves must be positive and finite: {self.target_reserves}"
            )

    def check_tokens(self, n_tokens: int) -> None:
        if n_tokens != 2:
            raise DomainError("price adoption is a two-token mechanism")

    def check_legs(self, reserves, token_in, token_out):
        if len(reserves) != 2 or {token_in, token_out} != {0, 1}:
            raise DomainError("price adoption trades token 0 against token 1")

    def mid(self, r0: float, p: float) -> float:
        """Price of token 0 in token 1 at token-0 reserve r0, before the ask
        and bid clamps."""
        t0 = self.target_reserves[0]
        return p * (1.0 + self.k * (t0 - r0) / t0)

    def zero_bid_reserve(self) -> float:
        """Token-0 reserve at which the bid floors at zero (inf when k = 0)."""
        return self.target_reserves[0] * (1.0 + 1.0 / self.k) if self.k > 0.0 else math.inf

    # Each integral below is piecewise: a piece's width times the price at
    # its midpoint, the exact integral of an affine price.

    def _ask_cost(self, p: float, r0: float, width: float) -> float:
        """The ask's integral as the token-0 reserve falls by `width` from
        r0: at par down to t0, then surcharged."""
        t0 = self.target_reserves[0]
        par = min(width, max(r0 - t0, 0.0))
        ramp = width - par
        return p * par + ramp * self.mid(min(r0, t0) - 0.5 * ramp, p)

    def _bid_payout(self, p: float, r0: float, width: float) -> float:
        """The bid's integral as the token-0 reserve rises by `width` from
        r0: at par up to t0, then discounted until the bid floors at zero."""
        t0 = self.target_reserves[0]
        par = min(width, max(t0 - r0, 0.0))
        bottom = max(r0, t0)
        ramp = min(width - par, max(self.zero_bid_reserve() - bottom, 0.0))
        if not ramp > 0.0:  # no discounted piece; mid(bottom) may not be finite
            return p * par
        return p * par + ramp * self.mid(bottom + 0.5 * ramp, p)

    def _affine_width(self, p: float, start: float, amount: float, sign: float) -> float:
        """The reserve width d over which the price, starting at mid(start)
        = m and moving at sign * slope per unit, integrates to `amount`:
        m*d + sign*slope*d^2/2 = amount.  The quadratic formula's root
        2A / (m + sqrt(m^2 + 2*sign*slope*A)) is free of cancellation, and
        is divided through by m so that m^2 cannot overflow."""
        m = self.mid(start, p)
        width = amount / m  # at the starting price
        grow = 2.0 * sign * p * self.k / self.target_reserves[0] / m * width
        return 2.0 * width / (1.0 + math.sqrt(max(0.0, 1.0 + grow)))

    def invariant(self, reserves):
        raise UnsupportedOperation("price adoption has no conservation function")

    def state_at_spot(self, reserves, token_in, token_out, price, adopted_price=None):
        # off the at-par piece the bid (token 0 in) and the ask (token 0 out)
        # are mid(r0), affine in r0, which meets each price once; at par, or
        # at k = 0, they are flat.  Token 1 moves by the integral the trade
        # pays up to there, or, for a state behind the trade (rounding at
        # the fee band's edge), by the affine piece's integral
        p = _require_adopted_price(adopted_price)
        quoted = price if token_in == 0 else 1.0 / price  # mid(r0) at the state
        if self.k == 0.0 or (quoted >= p if token_in == 0 else quoted <= p):
            return None
        r0, r1 = reserves
        moved = self.target_reserves[0] * (1.0 + (1.0 - quoted / p) / self.k)
        d = moved - r0
        if token_in == 0 and d > 0.0:
            flow = self._bid_payout(p, r0, d)
        elif token_in == 1 and d < 0.0:
            flow = -self._ask_cost(p, r0, -d)
        else:
            flow = d * self.mid(r0 + 0.5 * d, p)
        return _moved(reserves, 0, 1, moved, r1 - flow)

    def spot(self, reserves, token_in, token_out, adopted_price=None):
        p = _require_adopted_price(adopted_price)
        mid = self.mid(reserves[0], p)
        if token_out == 0:  # the ask, charged for token 0: never below p
            return 1.0 / max(p, mid)
        return max(0.0, min(p, mid))  # the bid, paid for token 0: never above p

    def quote_in(self, reserves, token_in, token_out, dx, adopted_price=None):
        p = _require_adopted_price(adopted_price)
        r0, r1 = reserves[0], reserves[1]
        if token_in == 0:
            # trader sells token 0: reserve walks r0 -> r0 + dx at the bid
            out = self._bid_payout(p, r0, dx)
            if out >= r1:
                raise DepletionError(f"payout {out} would drain the {r1} units in reserve")
            return out

        # trader buys token 0 with dx of token 1: invert the ask integral
        full_cost = self._ask_cost(p, r0, r0)
        if dx >= full_cost:
            raise DepletionError(
                f"input {dx} would buy the whole reserve, which costs {full_cost}"
            )

        t0 = self.target_reserves[0]
        par = p * (r0 - t0) if r0 > t0 else 0.0  # at par down to t0
        if dx <= par:
            return dx / p
        top = min(r0, t0)  # then surcharged below t0, the ask rising from its top
        out = (r0 - top) + self._affine_width(p, top, dx - par, 1.0)
        if out >= r0:  # rounding reaches the whole reserve below its cost
            raise DepletionError(f"input {dx} would drain the {r0} units in reserve")
        return out

    def quote_out(self, reserves, token_in, token_out, dy, adopted_price=None):
        p = _require_adopted_price(adopted_price)
        r0, r1 = reserves[0], reserves[1]

        if token_out == 0:
            # exact token 0 out: pay the ask integral over the displacement
            if dy >= r0:
                raise DepletionError(f"requested {dy} would drain the {r0} units available")
            cost = self._ask_cost(p, r0, dy)
            if cost == math.inf:
                raise DomainError(f"the cost of {dy} units of token 0 overflows a float")
            return cost

        # exact token 1 out: invert the bid integral for the token-0 input
        if dy >= r1:
            raise DepletionError(f"requested {dy} would drain the {r1} units available")
        u_zero = self.zero_bid_reserve()
        max_payout = self._bid_payout(p, r0, max(u_zero - r0, 0.0)) if math.isfinite(u_zero) else math.inf
        if dy > max_payout:
            raise DepletionError(
                f"bid price floors at zero after {max_payout} units of payout"
            )

        t0 = self.target_reserves[0]
        par = p * (t0 - r0) if r0 < t0 else 0.0  # at par up to t0
        if dy <= par:
            return dy / p
        bottom = max(r0, t0)  # then discounted above t0, the bid falling from its bottom
        return (bottom - r0) + self._affine_width(p, bottom, dy - par, -1.0)


def pmm_trade_cost(
    k: float,
    target_reserves: Sequence[float],
    current_reserves: Sequence[float],
    adopted_price: float,
    token_in: int | None,
    token_out: int | None,
    dx: float,
) -> float:
    """Output amount for an exact-in trade on `PriceAdoption(k, target_reserves)`."""
    if not dx >= 0.0:
        raise DomainError(f"input amount must be non-negative: {dx}")
    return PriceAdoption(k, target_reserves).quote_in(current_reserves, token_in, token_out, dx, adopted_price)


# ---------------------------------------------------------------------------
# exponential bonding
# ---------------------------------------------------------------------------


def _ratio_move(scale: float, power: float, base: float, move: float) -> float:
    """scale * ((1 + move / base)**power - 1) with no two powers cancelling:
    expm1 of a log1p up to growth by e, the power past it (one rounding,
    where the log's grows with the move), `_grown` past a float (so a tiny
    scale is no 0 * inf), and below half the log of base + move, which is
    exact (Sterbenz).  -scale where the move empties base; DepletionError
    past it."""
    left = base + move
    if 2.0 * left < base:
        if left < 0.0:
            raise DepletionError(f"a move of {move} exceeds {base}")
        g = power * math.log(left / base) if left else -math.inf
    else:
        g = power * math.log1p(move / base)
        if g > 1.0:
            try:
                moved = scale * ((left / base) ** power - 1.0)
            except OverflowError:
                moved = math.inf
            if moved < math.inf:
                return moved
    moved = _grown(scale, g)
    if moved == math.inf:
        raise DomainError(f"a bonding trade of {move} from {base} overflows a float")
    return moved


def bonding_trade(kappa: float, c: float, supply: float, d_supply: float) -> float:
    """Reserve delta |r(S + dS) - r(S)| on the bonding curve r(S) = S**kappa /
    c, read down from the larger supply h as r(h) * (1 - (1 - |dS| / h)**kappa)
    (`_ratio_move`): a mint and the burn that undoes it are one expression."""
    Exponential(kappa=kappa, c=c)  # checks kappa and c
    if supply < 0.0:
        raise DomainError(f"supply must be non-negative: {supply}")
    s_new = supply + d_supply
    if s_new < 0.0:
        raise DomainError(f"cannot burn below zero supply: {supply} + {d_supply}")
    high = max(supply, s_new)
    try:
        bonded = high**kappa / c
    except OverflowError:
        bonded = math.inf
    if bonded == math.inf:
        raise DomainError(f"the reserve at supply {high} overflows a float")
    return -_ratio_move(bonded, kappa, high, -abs(d_supply)) if high else 0.0


def _bonded(r: float, supply: float, amount: float) -> float:
    """`amount`, the quote of a bonding trade that reaches the state (r,
    supply); DepletionError where that state is half empty, one leg rounded
    to 0 beside a positive one: a sale whose payout rounds to all of the
    reserve, or whose burn rounds to all of the supply, before the other
    leg empties."""
    if (r > 0.0) != (supply > 0.0):
        raise DepletionError(f"the trade would leave the half-empty state {(r, supply)}")
    return amount


def _split_bonding_state(reserves: Sequence[float]) -> tuple[float, float]:
    """(reserve, supply): both zero or both positive."""
    if len(reserves) != 2:
        raise DomainError("exponential curve state is (reserve_balance, supply)")
    r, supply = reserves
    if not (0.0 <= r < math.inf and 0.0 <= supply < math.inf):
        raise DomainError(f"reserve and supply must be finite and non-negative: {tuple(reserves)}")
    if (r > 0.0) != (supply > 0.0):
        raise DomainError(f"state {tuple(reserves)} is half empty: its spot leaves the float range")
    return r, supply


@_curve("exponential", "Exponential Function", BONDING)
@dataclass(frozen=True, slots=True)
class Exponential(CurveSpec):
    """The bonding curve r(S) = S**kappa / c over (reserve, supply).

    Every price is a ratio move (`_ratio_move`) from the state's own point
    (R, S), as in the Bancor formula: a buy of dx mints S * ((1 + dx / R)**(1
    / kappa) - 1), a sale of dS pays R * (1 - (1 - dS / S)**kappa), all of R
    for the whole supply, and the spot is kappa * R / S.  Prices read c only
    at zero supply, so a state's reserve is S**kappa / c only to the
    rounding of the trades that reached it.  A quote refuses a trade that
    would leave a half-empty state (`_bonded`); a sale of the whole supply
    returns to the origin."""

    kappa: float  # curvature, finite, > 0
    c: float  # invariant constant, finite, > 0

    def __post_init__(self) -> None:
        if not (self.kappa > 0.0 and math.isfinite(self.kappa)):
            raise DomainError(f"kappa must be finite and > 0: {self.kappa}")
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise DomainError(f"c must be finite and > 0: {self.c}")

    def supply_at(self, reserve: float) -> float:
        """The supply S at which the bonded reserve r(S) is `reserve`."""
        try:
            supply = (self.c * reserve) ** (1.0 / self.kappa)
        except OverflowError:
            supply = math.inf
        if supply == math.inf:
            raise DomainError(f"the supply bonding a reserve of {reserve} overflows a float")
        return supply

    def check_legs(self, reserves, token_in, token_out):
        """The legs, and the state (`_split_bonding_state`), whose legs must
        each name a point of r(S) within the float range."""
        CurveSpec.check_legs(self, reserves, token_in, token_out)
        r, supply = _split_bonding_state(reserves)
        self.supply_at(r)
        bonding_trade(self.kappa, self.c, 0.0, supply)

    def invariant(self, reserves):
        r, supply = _split_bonding_state(reserves)
        if r == 0.0:
            raise DomainError(f"reserve out of range: {r}")
        try:
            value = supply**self.kappa / r
        except OverflowError:
            value = math.inf
        if value == math.inf:
            raise DomainError(f"S**kappa / r overflows a float at {tuple(reserves)}")
        return value

    def spot(self, reserves, token_in, token_out, adopted_price=None):
        r, supply = _split_bonding_state(reserves)
        if supply == 0.0:
            raise DomainError("spot price undefined at zero supply")
        marginal = self.kappa * r  # dr/dS, times S
        price = marginal / supply if token_in == 1 else supply / marginal if marginal else math.inf
        if not 0.0 < price < math.inf:
            raise DomainError(f"spot price leaves the float range at {tuple(reserves)}")
        return price

    def state_at_spot(self, reserves, token_in, token_out, price, adopted_price=None):
        # along R * (S' / S)**kappa the marginal kappa * R' / S' takes each value
        # once unless kappa is 1; at zero supply the curve is r(S), through (1 / c, 1)
        if self.kappa == 1.0:
            return None
        r, supply = reserves if reserves[1] else (1.0 / self.c, 1.0)
        marginal = price if token_in == 1 else 1.0 / price
        try:
            g = math.log(marginal * supply / (self.kappa * r)) / (self.kappa - 1.0)
        except (ValueError, ZeroDivisionError):  # past the float range, or half empty
            return None
        return _scaled((r, supply), 0, 1, self.kappa * g, g)

    def quote_in(self, reserves, token_in, token_out, dx, adopted_price=None):
        r, supply = _split_bonding_state(reserves)
        if token_in == 1:  # burn issued tokens, pay out reserve
            out = -_ratio_move(r, self.kappa, supply, -dx)
            return _bonded(r - out, supply - dx, out)
        out = _ratio_move(supply, 1.0 / self.kappa, r, dx) if supply else self.supply_at(dx)
        return _bonded(r + dx, supply + out, out)

    def quote_out(self, reserves, token_in, token_out, dy, adopted_price=None):
        r, supply = _split_bonding_state(reserves)
        if token_out == 0:  # exact reserve out: the issued tokens it unbonds
            burned = -_ratio_move(supply, 1.0 / self.kappa, r, -dy)
            return _bonded(r - dy, supply - burned, burned)
        paid = _ratio_move(r, self.kappa, supply, dy) if supply else bonding_trade(self.kappa, self.c, 0.0, dy)
        return _bonded(r + paid, supply + dy, paid)


# ---------------------------------------------------------------------------
# StableSwap D
# ---------------------------------------------------------------------------


def _two_token_d(reserves: Sequence[float], chi: float) -> float:
    """D of the two-token product-sum invariant at positive reserves (x, y):
    the positive root of (chi + 1/4)*D^2 - chi*s*D - x*y = 0, s = x + y,

        D = s * (chi + sqrt(chi^2 + (4*chi + 1)*t)) / (2*chi + 1/2)

    for t = (x/s)*(y/s), in which no term cancels.  Numerator and
    denominator are divided through by chi + 1, so that no power of chi
    overflows.  Reserves at which (1 + chi) * s**2 overflows a float raise
    DomainError, as for more tokens."""
    x, y = reserves
    s = x + y
    if not (1.0 + chi) * (s * s) < math.inf:
        raise DomainError(f"reserves overflow the product-sum invariant: {tuple(reserves)}")
    t = (x / s) * (y / s)
    e = 1.0 / (chi + 1.0)
    a = chi * e
    return s * (a + math.sqrt(a * a + (4.0 * a + e) * e * t)) / (2.0 * a + 0.5 * e)


def solve_stableswap_d(reserves: Sequence[float], chi: float) -> float:
    """Total-coins parameter D of the constant product-sum invariant.

    Two tokens: the closed form (`_two_token_d`).  Three or more at chi = 0:
    n*P^(1/n), for P = prod(x) taken as below.  At chi > 0 the invariant
    divided by D^n is, in u = ln D,

        h(u) = e^(ln chi + ln s - u) + e^(ln P - n*u) - c = 0,

    for s = sum(x), P = prod(x) and c = chi + n^-n; ln P is taken from the
    reserves' binary mantissas and exponents, so P neither overflows nor
    underflows.  h is convex and decreasing, so Newton rises monotonically
    to its root from the larger one-term root, max(ln chi + ln s - ln c,
    (ln P - ln c)/n), at most ln 2 left of it.  It stops once a step moves
    u by at most 1e-12, a relative move of D, or no longer raises u; past
    64 iterations it raises SolverError.  One multiplicative step, D *= 1 +
    (t1 + t2 - c)/(t1 + n*t2) with t1 = chi*s/D and t2 = P/D^n formed from
    D itself, then leaves D exact to rounding, which exp(u) is not.
    Reserves whose residual terms (up to (1 + chi) * sum(x)**n) overflow a
    float raise DomainError.
    """
    _require_positive(reserves)
    if not chi >= 0.0:
        raise DomainError(f"chi must be >= 0: {chi}")
    n = len(reserves)
    if n == 2:
        return _two_token_d(reserves, chi)
    try:
        s = math.fsum(reserves)
        largest = (1.0 + chi) * s**n  # D <= s bounds every residual term
    except OverflowError:
        largest = math.inf
    if largest == math.inf:
        raise DomainError(f"reserves overflow the product-sum invariant: {tuple(reserves)}")
    # P = mantissa * 2**exponent: the n mantissas' product lies in [2^-n, 1)
    mantissa, exponent = 1.0, 0
    for x in reserves:
        m, e = math.frexp(x)
        mantissa *= m
        exponent += e
    if chi == 0.0:
        # n * P^(1/n), with the exponent's multiple of n taken out of the root
        whole, rest = divmod(exponent, n)
        return n * math.ldexp(math.ldexp(mantissa, rest) ** (1.0 / n), whole)
    log_p = math.log(mantissa) + exponent * math.log(2.0)
    log_chi_s = math.log(chi) + math.log(s)
    c = chi + n**-n
    log_c = math.log(c)
    u = max(log_chi_s - log_c, (log_p - log_c) / n)
    for _ in range(NEWTON_MAX_ITER):
        t1, t2 = math.exp(log_chi_s - u), math.exp(log_p - n * u)
        step = (t1 + t2 - c) / (t1 + n * t2)
        u += step
        if step <= NEWTON_TOL:
            break
    else:
        residual = math.exp(log_chi_s - u) + math.exp(log_p - n * u) - c
        raise SolverError("D solve did not converge", residual=residual)
    d = math.exp(u)
    m, e = math.frexp(d)
    t1, t2 = chi * (s / d), math.ldexp(mantissa / m**n, exponent - n * e)
    return d * (1.0 + (t1 + t2 - c) / (t1 + n * t2))


# ---------------------------------------------------------------------------
# the public curve functions
# ---------------------------------------------------------------------------


def invariant_value(spec: CurveSpec, reserves: Sequence[float]) -> float:
    """Conservation value at the given reserves.

    Constant product-sum reports D; LMSR reports the cost-function value C(q);
    the exponential curve reports S**kappa / r over (reserve, supply).
    Price adoption has no conservation function.
    """
    return spec.invariant(reserves)


def spot_price(
    spec: CurveSpec,
    reserves: Sequence[float],
    token_in: int | None,
    token_out: int | None,
    adopted_price: float | None = None,
) -> float:
    """Instantaneous units of token_out per unit of token_in."""
    spec.check_legs(reserves, token_in, token_out)
    return spec.spot(reserves, token_in, token_out, adopted_price)


def quote_exact_in(
    spec: CurveSpec,
    reserves: Sequence[float],
    token_in: int | None,
    token_out: int | None,
    dx: float,
    adopted_price: float | None = None,
) -> float:
    """Output amount for an exact input of dx (no fees at this layer)."""
    if not dx >= 0.0:
        raise DomainError(f"input amount must be non-negative: {dx}")
    if dx == 0.0:
        return 0.0
    spec.check_legs(reserves, token_in, token_out)
    return spec.quote_in(reserves, token_in, token_out, dx, adopted_price)


def quote_exact_out(
    spec: CurveSpec,
    reserves: Sequence[float],
    token_in: int | None,
    token_out: int | None,
    dy: float,
    adopted_price: float | None = None,
) -> float:
    """Input amount required to receive exactly dy (no fees at this layer)."""
    if not dy >= 0.0:
        raise DomainError(f"output amount must be non-negative: {dy}")
    if dy == 0.0:
        return 0.0
    spec.check_legs(reserves, token_in, token_out)
    return spec.quote_out(reserves, token_in, token_out, dy, adopted_price)
