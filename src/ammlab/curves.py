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

All quoting goes through one Newton-with-bisection-bracket scalar solver
(step tolerance 1e-12 * max(1, |x|), 64 iterations, pure bisection as
fallback); the closed-form quotes live in the tests as independent oracles.
The one closed form here is the inverse of the spot, `state_at_spot`, which
sizes an arbitrage trade without a root solve where a curve has one.

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
from typing import Callable, Sequence

from .core import DepletionError, DomainError, SolverError, UnsupportedOperation

NEWTON_TOL = 1e-12
NEWTON_MAX_ITER = 64
BISECT_MAX_ITER = 200

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
# scalar solver: Newton inside a maintained bisection bracket
# ---------------------------------------------------------------------------


def _solve_increasing(
    f: Callable[[float], float],
    fprime: Callable[[float], float] | None,
    lo: float,
    hi: float,
) -> float:
    """Root of an increasing f with f(lo) <= 0 <= f(hi).

    Newton steps that leave the bracket (or hit a flat derivative) fall back
    to bisection; the bracket shrinks monotonically either way.  Without a
    derivative (`fprime` None) each step takes the slope of the secant
    through the previous point, one evaluation of f per step.
    """
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo > 0.0 or fhi < 0.0:
        raise SolverError("root not bracketed", residual=min(abs(flo), abs(fhi)))

    # secant start: near-exact for the (piecewise) linear residuals
    x = lo + (hi - lo) * (-flo) / (fhi - flo)
    if not lo < x < hi:
        x = 0.5 * (lo + hi)
    # the secant's previous point: the bracket end nearer the root
    px, pfx = (lo, flo) if -flo <= fhi else (hi, fhi)

    for _ in range(NEWTON_MAX_ITER):
        fx = f(x)
        if fx == 0.0:
            return x
        if fx > 0.0:
            hi = x
        else:
            lo = x
        if fprime is None:
            d = (fx - pfx) / (x - px)
            px, pfx = x, fx
        else:
            d = fprime(x)
        if d > 0.0 and math.isfinite(d):
            x_new = x - fx / d
        else:
            x_new = 0.5 * (lo + hi)
        if not lo < x_new < hi:
            x_new = 0.5 * (lo + hi)
        if abs(x_new - x) <= NEWTON_TOL * max(1.0, abs(x_new)):
            return x_new
        x = x_new

    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if fm == 0.0:
            return mid
        if fm > 0.0:
            hi = mid
        else:
            lo = mid
        if hi - lo <= NEWTON_TOL * max(1.0, abs(mid)):
            return 0.5 * (lo + hi)

    raise SolverError("scalar solve did not converge", residual=f(0.5 * (lo + hi)))


def _bracket_above(f: Callable[[float], float], lo: float, hi: float) -> float:
    """Double hi's distance from lo until f(hi) >= 0; the upper end of a
    bracket for `_solve_increasing`."""
    for _ in range(200):
        if f(hi) >= 0.0:
            return hi
        hi = lo + 2.0 * (hi - lo)
    raise SolverError("could not bracket the required input", residual=f(hi))


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
    i, j, amount, adopted_price, level)`, which take legs that passed
    `check_legs` and a positive amount.

    `level`, when given, is the conservation value of `reserves`, which a
    conservation curve then reads instead of computing (constant
    product-sum: one D solve per state, not per call); `spot_at` is `spot`
    at a known level, and the other curves ignore it.  A level holds only
    for reserves on it: the state it was computed at, states that fee-free
    trades reach from there, and a trade's reserves without the fee they
    keep.  A fee kept in the reserves moves them off it.

    `state_at_spot(reserves, i, j, price, level)` inverts the spot: the
    reserves on the level of `reserves` at which `spot(i -> j)` is `price`,
    with only legs i and j moved.  It is None where the curve has no closed
    form for that state (the base class) or the state leaves its domain;
    callers then solve for it.
    """

    __slots__ = ()

    def check_legs(self, reserves, token_in: int | None, token_out: int | None) -> None:
        """Reject a trade leg this curve cannot price."""
        if token_in is None or token_out is None:
            raise DomainError("collateral leg (None) is only defined for LMSR curves")
        _check_pair(reserves, token_in, token_out)

    def check_tokens(self, n_tokens: int) -> None:
        """Reject a pool of n_tokens tokens that this curve cannot price."""

    def spot_at(self, reserves, token_in, token_out, level, adopted_price=None):
        """`spot` at reserves whose conservation value is `level`; only a
        curve whose spot reads that value overrides it."""
        return self.spot(reserves, token_in, token_out, adopted_price)

    def state_at_spot(self, reserves, token_in, token_out, price, level=None):
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


class _Conservation(CurveSpec):
    """A curve that prices trades by holding its conservation value fixed.

    Subclasses give `value(reserves)`, the conservation value of reserves
    that passed `require_reserves`; `residual(original, updated, j, c0)`, the
    pair (f, f') where f(x) is the value of `updated` with x at slot j, minus
    c0 (`original` is the pre-trade state, `updated` the known post-trade
    values); `spot`; and `drainable`, whether a trade may empty a reserve.
    """

    __slots__ = ()

    drainable = False
    require_reserves = staticmethod(_require_positive)

    def invariant(self, reserves: Sequence[float]) -> float:
        self.require_reserves(reserves)
        try:
            c = self.value(reserves)
        except OverflowError:
            c = math.inf
        if not math.isfinite(c):
            raise DomainError(
                f"conservation value overflows at reserves {tuple(reserves)}"
            )
        return c

    def quote_in(self, reserves, i, j, dx, adopted_price=None, level=None):
        if level is None:
            c0 = self.invariant(reserves)
        else:
            self.require_reserves(reserves)
            c0 = level
        updated = list(reserves)
        updated[i] = reserves[i] + dx
        try:
            f, fp = self.residual(reserves, updated, j, c0)
            f0 = f(0.0)
        except OverflowError:  # math.fsum of the known reserves
            f0 = math.nan
        if f0 != f0:  # nan: a known term overflowed
            raise DomainError(
                f"input {dx} overflows the conservation value at reserves {tuple(reserves)}"
            )
        r_j = reserves[j]
        if f0 > 0.0:
            raise DepletionError(
                f"input {dx} would drain more than the {r_j} units in reserve"
            )
        if f0 == 0.0:
            if self.drainable:
                return r_j
            raise DepletionError(f"trade would deplete reserve {j}")
        x_star = _solve_increasing(f, fp, 0.0, r_j)
        out = r_j - x_star
        if out == r_j and not self.drainable:  # x_star is below the float spacing of r_j
            raise DepletionError(f"input {dx} would deplete reserve {j}")
        return out

    def quote_out(self, reserves, i, j, dy, adopted_price=None, level=None):
        self.require_reserves(reserves)
        r_j = reserves[j]
        if dy > r_j or (dy == r_j and not self.drainable):
            raise DepletionError(f"requested {dy} exceeds the {r_j} units available")
        c0 = self.invariant(reserves) if level is None else level
        updated = list(reserves)
        updated[j] = r_j - dy
        f, fp = self.residual(reserves, updated, i, c0)
        lo = reserves[i]
        x_star = _solve_increasing(f, fp, lo, _bracket_above(f, lo, lo + dy))
        return x_star - lo


@_curve("constant-product", "Constant-product", CONSERVATION)
@dataclass(frozen=True, slots=True)
class ConstantProduct(_Conservation):
    def value(self, reserves):
        return math.prod(reserves)

    def residual(self, original, updated, j, c0):
        known = math.prod(v for idx, v in enumerate(updated) if idx != j)
        return (lambda x: known * x - c0), (lambda x: known)

    def spot(self, reserves, token_in, token_out, adopted_price=None):
        _require_positive(reserves)
        return reserves[token_out] / reserves[token_in]

    def state_at_spot(self, reserves, token_in, token_out, price, level=None):
        # r_out / r_in = price on the hyperbola r_in * r_out = k
        k = reserves[token_in] * reserves[token_out]
        return _moved(reserves, token_in, token_out, math.sqrt(k / price), math.sqrt(k * price))


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
        if abs(sum(self.weights) - 1.0) > WEIGHT_SUM_TOL:
            raise DomainError(f"weights must sum to 1: {self.weights}")

    def check_tokens(self, n_tokens: int, legs: str = "tokens") -> None:
        if len(self.weights) != n_tokens:
            raise DomainError(f"{len(self.weights)} weights for {n_tokens} {legs}")

    def value(self, reserves):
        self.check_tokens(len(reserves), "reserves")
        return math.prod(r**w for r, w in zip(reserves, self.weights))

    def residual(self, original, updated, j, c0):
        w = self.weights
        known = math.prod(
            v ** w[idx] for idx, v in enumerate(updated) if idx != j
        )
        wj = w[j]
        return (
            lambda x: known * x**wj - c0,
            lambda x: wj * known * x ** (wj - 1.0),
        )

    def spot(self, reserves, token_in, token_out, adopted_price=None):
        self.check_tokens(len(reserves), "reserves")
        _require_positive(reserves)
        return (self.weights[token_in] * reserves[token_out]) / (
            self.weights[token_out] * reserves[token_in]
        )


@_curve("constant-sum", "Constant-sum", CONSERVATION)
@dataclass(frozen=True, slots=True)
class ConstantSum(_Conservation):
    drainable = True
    require_reserves = staticmethod(_require_nonnegative)

    def value(self, reserves):
        return math.fsum(reserves)

    def residual(self, original, updated, j, c0):
        known = math.fsum(v for idx, v in enumerate(updated) if idx != j)
        return (lambda x: known + x - c0), (lambda x: 1.0)

    def spot(self, reserves, token_in, token_out, adopted_price=None):
        return 1.0


@_curve("constant-product-sum", "Constant-product-sum", CONSERVATION)
@dataclass(frozen=True, slots=True)
class ConstantProductSum(_Conservation):
    chi: float  # leverage factor, finite, >= 0; 0 -> constant product, large -> sum

    def __post_init__(self) -> None:
        if not (self.chi >= 0.0 and math.isfinite(self.chi)):
            raise DomainError(f"chi must be finite and >= 0: {self.chi}")

    def value(self, reserves):
        return solve_stableswap_d(reserves, self.chi)

    def residual(self, original, updated, j, c0):
        # c0 here is D of the pre-trade state; quote at that fixed D.  The
        # right side is the pre-trade left side (same level set), which
        # avoids the D -> (D/n)**n round trip that loses precision on the
        # chi = 0 product limit.
        n = len(updated)
        a = self.chi * c0 ** (n - 1)
        rhs = a * math.fsum(original) + math.prod(original)
        s_known = math.fsum(v for idx, v in enumerate(updated) if idx != j)
        p_known = math.prod(v for idx, v in enumerate(updated) if idx != j)
        return (
            lambda x: a * (s_known + x) + p_known * x - rhs,
            lambda x: a + p_known,
        )

    def spot(self, reserves, token_in, token_out, adopted_price=None):
        return self.spot_at(reserves, token_in, token_out, self.invariant(reserves))

    def spot_at(self, reserves, token_in, token_out, level, adopted_price=None):
        # closed form at a known D: the ratio of the invariant's partials
        _require_positive(reserves)
        a = self.chi * level ** (len(reserves) - 1)
        p = math.prod(reserves)
        return (a + p / reserves[token_in]) / (a + p / reserves[token_out])

    def state_at_spot(self, reserves, token_in, token_out, price, level=None):
        # With the other reserves fixed at product q, the level set is the
        # hyperbola (b + x_in) * (b + x_out) = m, b = chi * D^(n-1) / q, on
        # which spot_at is (b + x_out) / (b + x_in): no D solve at a known D.
        if level is None:
            level = self.invariant(reserves)
        others = math.prod(r for idx, r in enumerate(reserves) if idx not in (token_in, token_out))
        b = self.chi * level ** (len(reserves) - 1) / others
        x_in, x_out = reserves[token_in], reserves[token_out]
        moved_in = math.sqrt((b + x_in) * (b + x_out) / price) - b
        # x_out follows from the move of x_in along the hyperbola, which keeps
        # the state on the level to the rounding of the reserves, not of b
        moved_out = x_out - (b + x_out) * (moved_in - x_in) / (b + moved_in)
        return _moved(reserves, token_in, token_out, moved_in, moved_out)


@_curve("constant-power-sum", "Constant-power-sum", CONSERVATION)
@dataclass(frozen=True, slots=True)
class ConstantPowerSum(_Conservation):
    t: float  # curvature in [0, 1); 0 degenerates to constant sum

    def __post_init__(self) -> None:
        if not 0.0 <= self.t < 1.0:
            raise DomainError(f"t must be in [0, 1): {self.t}")

    def value(self, reserves):
        return math.fsum(r ** (1.0 - self.t) for r in reserves)

    def residual(self, original, updated, j, c0):
        e = 1.0 - self.t
        s_known = math.fsum(
            v**e for idx, v in enumerate(updated) if idx != j
        )
        return (
            lambda x: s_known + x**e - c0,
            lambda x: e * x ** (e - 1.0) if x > 0.0 else math.inf,
        )

    def spot(self, reserves, token_in, token_out, adopted_price=None):
        _require_positive(reserves)
        return (reserves[token_out] / reserves[token_in]) ** self.t


# ---------------------------------------------------------------------------
# LMSR
# ---------------------------------------------------------------------------


def _lmsr_cost(b: float, q: Sequence[float]) -> float:
    # b*ln(sum e^(q/b)) with the max shifted out for stability
    m = max(q)
    return m + b * math.log(sum(math.exp((qi - m) / b) for qi in q))


def _lmsr_price(b: float, q: Sequence[float], j: int) -> float:
    m = max(q)
    z = sum(math.exp((qi - m) / b) for qi in q)
    return math.exp((q[j] - m) / b) / z


def lmsr_trade_cost(b: float, q: Sequence[float], dq: Sequence[float]) -> float:
    """C(q + dq) - C(q); positive means the trader pays collateral."""
    if not b > 0.0:
        raise DomainError(f"b must be > 0: {b}")
    if len(q) != len(dq):
        raise DomainError(f"{len(dq)} deltas for {len(q)} outcomes")
    after = [qi + di for qi, di in zip(q, dq)]
    if any(v < 0.0 for v in after):
        raise DomainError(f"share quantities cannot go negative: {after}")
    if all(d == 0.0 for d in dq):
        return 0.0
    return _lmsr_cost(b, after) - _lmsr_cost(b, q)


def _lmsr_leg_cost(b: float, q: Sequence[float], j: int, ds: float) -> float:
    """C(q + ds*e_j) - C(q) for a nonzero ds that keeps q_j >= 0, which the
    LMSR quotes below have already checked."""
    after = list(q)
    after[j] += ds
    return _lmsr_cost(b, after) - _lmsr_cost(b, q)


def _lmsr_shares(b: float, q: Sequence[float], j: int, sign: int, amount: float, hi: float) -> float:
    """Shares s in [0, hi] of outcome j that buy (sign 1) or sell (sign -1)
    for exactly `amount` collateral: sign*(C(q + sign*s*e_j) - C(q)) = amount."""
    base = _lmsr_cost(b, q)

    def f(s: float) -> float:
        after = list(q)
        after[j] += sign * s
        return sign * (_lmsr_cost(b, after) - base) - amount

    def fp(s: float) -> float:
        after = list(q)
        after[j] += sign * s
        return _lmsr_price(b, after, j)

    return _solve_increasing(f, fp, 0.0, hi)


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
        if any(q < 0.0 for q in reserves):
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

    def quote_in(self, q, token_in, token_out, dx, adopted_price=None, level=None):
        j, buying = _lmsr_outcome_leg(q, token_in, token_out)
        b = self.b
        if not buying:
            # exact shares in, collateral out
            if dx > q[j]:
                raise DepletionError(f"only {q[j]} outstanding shares of outcome {j}")
            return -_lmsr_leg_cost(b, q, j, -dx)
        # exact collateral in: invert C(q + s*e_j) - C(q) = dx for s
        price = _lmsr_price(b, q, j)
        hi = dx / price * (1.0 + 1e-9) + 1e-12 if price > 0.0 else math.inf
        if not hi < math.inf:
            # the price is too small to divide by: s shares cost at least
            # q_j + s - C(q), and C(q) <= max(q) + b*ln(n)
            hi = dx + (max(q) - q[j]) + b * math.log(len(q))
        return _lmsr_shares(b, q, j, 1, dx, hi)

    def quote_out(self, q, token_in, token_out, dy, adopted_price=None, level=None):
        j, buying = _lmsr_outcome_leg(q, token_in, token_out)
        b = self.b
        if buying:
            # exact shares out: direct cost difference
            return _lmsr_leg_cost(b, q, j, dy)
        # exact collateral out: solve C(q) - C(q - s*e_j) = dy for shares in
        depleted = list(q)
        depleted[j] = 0.0
        max_payout = _lmsr_cost(b, q) - _lmsr_cost(b, depleted)
        if dy > max_payout:
            raise DepletionError(
                f"outcome {j} can pay out at most {max_payout} collateral"
            )
        if dy == max_payout:
            return q[j]
        return _lmsr_shares(b, q, j, -1, dy, q[j])


# ---------------------------------------------------------------------------
# price adoption
# ---------------------------------------------------------------------------


def _require_adopted_price(adopted_price: float | None) -> float:
    if adopted_price is None:
        raise DomainError("price adoption requires an adopted price")
    if not adopted_price > 0.0:
        raise DomainError(f"adopted price must be positive: {adopted_price}")
    return adopted_price


@_curve("price-adoption", "Price Adoption", PRICE_ADOPTION)
@dataclass(frozen=True, slots=True)
class PriceAdoption(CurveSpec):
    """The marginal price is affine in the token-0 reserve, so both trade
    directions integrate in closed form (width times the price at the
    midpoint, piece by piece); a quote that fixes the token-1 side
    inverts the integral with the shared scalar solver."""

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

    def _ask(self, r0: float, p: float) -> float:
        # charged when the trader buys token 0: never below the adopted price
        return max(p, self.mid(r0, p))

    def _bid(self, r0: float, p: float) -> float:
        # paid when the trader sells token 0: never above the adopted price
        return max(0.0, min(p, self.mid(r0, p)))

    def _ask_integral(self, p: float, x: float, y: float) -> float:
        """Integral of the ask price over the token-0 reserve interval [x, y]."""
        lo, hi = min(x, y), max(x, y)
        t0 = self.target_reserves[0]
        total = 0.0
        if lo < t0:  # surcharged leg
            seg_hi = min(hi, t0)
            total += (seg_hi - lo) * self.mid(0.5 * (lo + seg_hi), p)
        if hi > t0:  # at-par leg
            total += p * (hi - max(lo, t0))
        return total

    def _bid_integral(self, p: float, x: float, y: float) -> float:
        """Integral of the bid price over the token-0 reserve interval [x, y]."""
        lo, hi = min(x, y), max(x, y)
        t0 = self.target_reserves[0]
        total = 0.0
        if lo < t0:  # at-par leg
            total += p * (min(hi, t0) - lo)
        if hi > t0:  # discounted leg, clamped at a zero price
            seg_lo = max(lo, t0)
            seg_hi = min(hi, self.zero_bid_reserve())
            if seg_hi > seg_lo:
                total += (seg_hi - seg_lo) * self.mid(0.5 * (seg_lo + seg_hi), p)
        return total

    def invariant(self, reserves):
        raise UnsupportedOperation("price adoption has no conservation function")

    def spot(self, reserves, token_in, token_out, adopted_price=None):
        p = _require_adopted_price(adopted_price)
        if token_out == 0:
            return 1.0 / self._ask(reserves[0], p)
        return self._bid(reserves[0], p)

    def quote_in(self, reserves, token_in, token_out, dx, adopted_price=None, level=None):
        p = _require_adopted_price(adopted_price)
        r0, r1 = reserves[0], reserves[1]
        if token_in == 0:
            # trader sells token 0: reserve walks r0 -> r0 + dx at the bid
            out = self._bid_integral(p, r0, r0 + dx)
            if out > r1:
                raise DepletionError(f"payout {out} exceeds the {r1} units in reserve")
            return out

        # trader buys token 0 with dx of token 1: invert the ask integral
        full_cost = self._ask_integral(p, 0.0, r0)
        if dx > full_cost:
            raise DepletionError(
                f"input {dx} exceeds the {full_cost} cost of the whole reserve"
            )
        if dx == full_cost:
            return r0

        def f(delta: float) -> float:
            return self._ask_integral(p, r0 - delta, r0) - dx

        def fp(delta: float) -> float:
            return self._ask(r0 - delta, p)

        return _solve_increasing(f, fp, 0.0, r0)

    def quote_out(self, reserves, token_in, token_out, dy, adopted_price=None, level=None):
        p = _require_adopted_price(adopted_price)
        r0, r1 = reserves[0], reserves[1]

        if token_out == 0:
            # exact token 0 out: pay the ask integral over the displacement
            if dy > r0:
                raise DepletionError(f"requested {dy} exceeds the {r0} units available")
            return self._ask_integral(p, r0 - dy, r0)

        # exact token 1 out: solve the bid integral for the token-0 input
        if dy > r1:
            raise DepletionError(f"requested {dy} exceeds the {r1} units available")
        u_zero = self.zero_bid_reserve()
        max_payout = self._bid_integral(p, r0, u_zero) if math.isfinite(u_zero) else math.inf
        if dy > max_payout:
            raise DepletionError(
                f"bid price floors at zero after {max_payout} units of payout"
            )

        def f(delta: float) -> float:
            return self._bid_integral(p, r0, r0 + delta) - dy

        def fp(delta: float) -> float:
            return self._bid(r0 + delta, p)

        return _solve_increasing(f, fp, 0.0, _bracket_above(f, 0.0, dy / p))


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


def bonding_trade(kappa: float, c: float, supply: float, d_supply: float) -> float:
    """Reserve delta |r(S + dS) - r(S)| on the bonding curve r(S) = S**kappa / c."""
    if not kappa > 0.0:
        raise DomainError(f"kappa must be > 0: {kappa}")
    if not c > 0.0:
        raise DomainError(f"c must be > 0: {c}")
    if supply < 0.0:
        raise DomainError(f"supply must be non-negative: {supply}")
    s_new = supply + d_supply
    if s_new < 0.0:
        raise DomainError(f"cannot burn below zero supply: {supply} + {d_supply}")
    try:
        delta = abs(s_new**kappa - supply**kappa) / c
    except OverflowError:
        delta = math.inf
    if delta == math.inf:
        raise DomainError(f"the reserve at supply {max(supply, s_new)} overflows a float")
    return delta


def _split_bonding_state(
    reserves: Sequence[float], *, require_reserve: bool = False
) -> tuple[float, float]:
    if len(reserves) != 2:
        raise DomainError("exponential curve state is (reserve_balance, supply)")
    r, supply = reserves
    if r < 0.0 or (require_reserve and r == 0.0):
        raise DomainError(f"reserve out of range: {r}")
    if supply < 0.0:
        raise DomainError(f"supply must be non-negative: {supply}")
    return r, supply


@_curve("exponential", "Exponential Function", BONDING)
@dataclass(frozen=True, slots=True)
class Exponential(CurveSpec):
    kappa: float  # curvature, finite, > 0
    c: float  # invariant constant, finite, > 0

    def __post_init__(self) -> None:
        if not (self.kappa > 0.0 and math.isfinite(self.kappa)):
            raise DomainError(f"kappa must be finite and > 0: {self.kappa}")
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise DomainError(f"c must be finite and > 0: {self.c}")

    # Each power below raises OverflowError or divides to inf past the float
    # range; both become a DomainError.

    def supply_at(self, reserve: float) -> float:
        """The supply S at which the bonded reserve r(S) is `reserve`."""
        try:
            supply = (self.c * reserve) ** (1.0 / self.kappa)
        except OverflowError:
            supply = math.inf
        if supply == math.inf:
            raise DomainError(f"the supply bonding a reserve of {reserve} overflows a float")
        return supply

    def invariant(self, reserves):
        r, supply = _split_bonding_state(reserves, require_reserve=True)
        try:
            value = supply**self.kappa / r
        except OverflowError:
            value = math.inf
        if value == math.inf:
            raise DomainError(f"S**kappa / r overflows a float at {tuple(reserves)}")
        return value

    def spot(self, reserves, token_in, token_out, adopted_price=None):
        r, supply = _split_bonding_state(reserves)
        if supply <= 0.0:
            raise DomainError("spot price undefined at zero supply")
        try:
            marginal = self.kappa * supply ** (self.kappa - 1.0) / self.c  # dr/dS
        except OverflowError:
            marginal = math.inf
        price = marginal if token_in == 1 else 1.0 / marginal if marginal else math.inf
        if not 0.0 < price < math.inf:
            raise DomainError(f"spot price leaves the float range at supply {supply}")
        return price

    def state_at_spot(self, reserves, token_in, token_out, price, level=None):
        # the marginal kappa * S^(kappa-1) / c takes each value once, unless
        # kappa is 1 and it is constant; the reserve is r(S) at that supply
        if self.kappa == 1.0:
            return None
        marginal = price if token_in == 1 else 1.0 / price
        try:
            supply = (self.c * marginal / self.kappa) ** (1.0 / (self.kappa - 1.0))
            reserve = supply**self.kappa / self.c
        except (OverflowError, ZeroDivisionError):
            return None
        return _moved(reserves, 0, 1, reserve, supply)

    def quote_in(self, reserves, token_in, token_out, dx, adopted_price=None, level=None):
        r, supply = _split_bonding_state(reserves)
        if token_in == 0:  # bond reserve, mint issued tokens
            return self.supply_at(r + dx) - supply
        payout = bonding_trade(self.kappa, self.c, supply, -dx)
        if payout > r * (1.0 + 1e-9):
            raise DepletionError(f"payout {payout} exceeds bonded reserve {r}")
        return min(payout, r)

    def quote_out(self, reserves, token_in, token_out, dy, adopted_price=None, level=None):
        r, supply = _split_bonding_state(reserves)
        if token_out == 1:  # exact issued tokens out: direct bonding cost
            return bonding_trade(self.kappa, self.c, supply, dy)
        if dy > r:
            raise DepletionError(f"requested {dy} exceeds bonded reserve {r}")
        return supply - self.supply_at(r - dy)


# ---------------------------------------------------------------------------
# StableSwap D
# ---------------------------------------------------------------------------


def solve_stableswap_d(reserves: Sequence[float], chi: float) -> float:
    """Total-coins parameter D of the constant product-sum invariant.

    Newton from D0 = sum(reserves), 64 iterations at 1e-12 relative, falling
    back to bisection on the AM-GM bracket [n*(prod x)^(1/n), sum x].
    Reserves whose residual terms (up to (1 + chi) * sum(x)**n) overflow a
    float raise DomainError.
    """
    _require_positive(reserves)
    if not chi >= 0.0:
        raise DomainError(f"chi must be >= 0: {chi}")
    n = len(reserves)
    try:
        s = math.fsum(reserves)
        largest = (1.0 + chi) * s**n  # D <= s bounds every residual term
    except OverflowError:
        largest = math.inf
    if largest == math.inf:
        raise DomainError(f"reserves overflow the product-sum invariant: {tuple(reserves)}")
    prod = math.prod(reserves)
    if chi == 0.0:
        return n * prod ** (1.0 / n)

    def g(d: float) -> float:
        return chi * d ** (n - 1) * s + prod - chi * d**n - (d / n) ** n

    def gp(d: float) -> float:
        return (
            chi * (n - 1) * d ** (n - 2) * s
            - chi * n * d ** (n - 1)
            - (d / n) ** (n - 1)
        )

    # g >= 0 at the geometric-mean end and <= 0 at the arithmetic-sum end
    lo = n * prod ** (1.0 / n)
    hi = s
    d = s
    for _ in range(NEWTON_MAX_ITER):
        gd = g(d)
        if gd == 0.0:
            return d
        if gd >= 0.0:
            lo = max(lo, d)
        else:
            hi = min(hi, d)
        slope = gp(d)
        if slope != 0.0 and math.isfinite(slope):
            d_new = d - gd / slope
        else:
            d_new = 0.5 * (lo + hi)
        if not lo <= d_new <= hi:
            d_new = 0.5 * (lo + hi)
        if abs(d_new - d) <= NEWTON_TOL * max(1.0, abs(d_new)):
            return d_new
        d = d_new

    for _ in range(BISECT_MAX_ITER):
        mid = 0.5 * (lo + hi)
        if g(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
        if hi - lo <= NEWTON_TOL * max(1.0, mid):
            return 0.5 * (lo + hi)
    raise SolverError("D solve did not converge", residual=g(0.5 * (lo + hi)))


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
    level: float | None = None,
) -> float:
    """Instantaneous units of token_out per unit of token_in; `level`, when
    given, is the conservation value of reserves (see CurveSpec)."""
    spec.check_legs(reserves, token_in, token_out)
    if level is None:
        return spec.spot(reserves, token_in, token_out, adopted_price)
    return spec.spot_at(reserves, token_in, token_out, level, adopted_price)


def quote_exact_in(
    spec: CurveSpec,
    reserves: Sequence[float],
    token_in: int | None,
    token_out: int | None,
    dx: float,
    adopted_price: float | None = None,
    level: float | None = None,
) -> float:
    """Output amount for an exact input of dx (no fees at this layer);
    `level` as in `spot_price`."""
    if not dx >= 0.0:
        raise DomainError(f"input amount must be non-negative: {dx}")
    if dx == 0.0:
        return 0.0
    spec.check_legs(reserves, token_in, token_out)
    return spec.quote_in(reserves, token_in, token_out, dx, adopted_price, level)


def quote_exact_out(
    spec: CurveSpec,
    reserves: Sequence[float],
    token_in: int | None,
    token_out: int | None,
    dy: float,
    adopted_price: float | None = None,
    level: float | None = None,
) -> float:
    """Input amount required to receive exactly dy (no fees at this layer);
    `level` as in `spot_price`."""
    if not dy >= 0.0:
        raise DomainError(f"output amount must be non-negative: {dy}")
    if dy == 0.0:
        return 0.0
    spec.check_legs(reserves, token_in, token_out)
    return spec.quote_out(reserves, token_in, token_out, dy, adopted_price, level)
