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
fallback); the closed forms live in the tests as independent oracles.

Token legs are integer indices into the reserves vector. Two conventions:
LMSR uses ``None`` for the collateral leg (reserves are outstanding share
quantities), and the exponential curve expects ``reserves = (reserve_balance,
circulating_supply)`` with index 0 the reserve token and 1 the issued token.

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
from typing import Callable, Sequence, Union

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
# curve specifications
# ---------------------------------------------------------------------------


@_curve("constant-product", "Constant-product", CONSERVATION)
@dataclass(frozen=True, slots=True)
class ConstantProduct:
    pass


@_curve("geometric-mean", "Geometric Mean", CONSERVATION)
@dataclass(frozen=True, slots=True)
class GeometricMean:
    weights: tuple[float, ...]  # one weight per token, positive, summing to 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.weights) < 2:
            raise DomainError("geometric mean needs at least two weights")
        if any(not (w > 0.0 and math.isfinite(w)) for w in self.weights):
            raise DomainError(f"weights must be positive and finite: {self.weights}")
        if abs(sum(self.weights) - 1.0) > WEIGHT_SUM_TOL:
            raise DomainError(f"weights must sum to 1: {self.weights}")


@_curve("constant-sum", "Constant-sum", CONSERVATION)
@dataclass(frozen=True, slots=True)
class ConstantSum:
    pass


@_curve("constant-product-sum", "Constant-product-sum", CONSERVATION)
@dataclass(frozen=True, slots=True)
class ConstantProductSum:
    chi: float  # leverage factor, finite, >= 0; 0 -> constant product, large -> sum

    def __post_init__(self) -> None:
        if not (self.chi >= 0.0 and math.isfinite(self.chi)):
            raise DomainError(f"chi must be finite and >= 0: {self.chi}")


@_curve("constant-power-sum", "Constant-power-sum", CONSERVATION)
@dataclass(frozen=True, slots=True)
class ConstantPowerSum:
    t: float  # curvature in [0, 1); 0 degenerates to constant sum

    def __post_init__(self) -> None:
        if not 0.0 <= self.t < 1.0:
            raise DomainError(f"t must be in [0, 1): {self.t}")


@_curve("lmsr", "Logarithmic Market Scoring", SCORING_RULE)
@dataclass(frozen=True, slots=True)
class Lmsr:
    b: float  # liquidity parameter, finite, > 0

    def __post_init__(self) -> None:
        if not (self.b > 0.0 and math.isfinite(self.b)):
            raise DomainError(f"b must be finite and > 0: {self.b}")


@_curve("price-adoption", "Price Adoption", PRICE_ADOPTION)
@dataclass(frozen=True, slots=True)
class PriceAdoption:
    k: float  # surcharge magnitude, in [0, 1]
    target_reserves: tuple[float, ...]  # (t0, t1); t0 drives the imbalance term

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "target_reserves", tuple(float(t) for t in self.target_reserves)
        )
        if not 0.0 <= self.k <= 1.0:
            raise DomainError(f"k must be in [0, 1]: {self.k}")
        if len(self.target_reserves) != 2:
            raise DomainError("price adoption is a two-token mechanism")
        if any(not (t > 0.0 and math.isfinite(t)) for t in self.target_reserves):
            raise DomainError(
                f"target reserves must be positive and finite: {self.target_reserves}"
            )


@_curve("exponential", "Exponential Function", BONDING)
@dataclass(frozen=True, slots=True)
class Exponential:
    kappa: float  # curvature, finite, > 0
    c: float  # invariant constant, finite, > 0

    def __post_init__(self) -> None:
        if not (self.kappa > 0.0 and math.isfinite(self.kappa)):
            raise DomainError(f"kappa must be finite and > 0: {self.kappa}")
        if not (self.c > 0.0 and math.isfinite(self.c)):
            raise DomainError(f"c must be finite and > 0: {self.c}")


CurveSpec = Union[
    ConstantProduct,
    GeometricMean,
    ConstantSum,
    ConstantProductSum,
    ConstantPowerSum,
    Lmsr,
    PriceAdoption,
    Exponential,
]

#: curves whose conservation value defines quoting (and path deficiency)
CONSERVATION_CURVES = tuple(c for c in CURVES if c.family == CONSERVATION)


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
# invariant values
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


def _lmsr_cost(b: float, q: Sequence[float]) -> float:
    # b*ln(sum e^(q/b)) with the max shifted out for stability
    m = max(q)
    return m + b * math.log(sum(math.exp((qi - m) / b) for qi in q))


def _lmsr_price(b: float, q: Sequence[float], j: int) -> float:
    m = max(q)
    z = sum(math.exp((qi - m) / b) for qi in q)
    return math.exp((q[j] - m) / b) / z


def invariant_value(spec: CurveSpec, reserves: Sequence[float]) -> float:
    """Conservation value at the given reserves.

    Constant product-sum reports D; LMSR reports the cost-function value C(q);
    the exponential curve reports S**kappa / r over (reserve, supply).
    Price adoption has no conservation function.
    """
    if isinstance(spec, ConstantProduct):
        _require_positive(reserves)
        return math.prod(reserves)
    if isinstance(spec, GeometricMean):
        _check_weights(spec, reserves)
        _require_positive(reserves)
        return math.prod(r**w for r, w in zip(reserves, spec.weights))
    if isinstance(spec, ConstantSum):
        _require_nonnegative(reserves)
        return math.fsum(reserves)
    if isinstance(spec, ConstantProductSum):
        return solve_stableswap_d(reserves, spec.chi)
    if isinstance(spec, ConstantPowerSum):
        _require_positive(reserves)
        return math.fsum(r ** (1.0 - spec.t) for r in reserves)
    if isinstance(spec, Lmsr):
        if any(q < 0.0 for q in reserves):
            raise DomainError(f"share quantities must be non-negative: {tuple(reserves)}")
        return _lmsr_cost(spec.b, reserves)
    if isinstance(spec, Exponential):
        r, supply = _split_bonding_state(reserves, require_reserve=True)
        return supply**spec.kappa / r
    if isinstance(spec, PriceAdoption):
        raise UnsupportedOperation("price adoption has no conservation function")
    raise DomainError(f"unknown curve spec: {spec!r}")


def _check_weights(spec: GeometricMean, reserves: Sequence[float]) -> None:
    if len(spec.weights) != len(reserves):
        raise DomainError(
            f"{len(spec.weights)} weights for {len(reserves)} reserves"
        )


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


# ---------------------------------------------------------------------------
# spot prices
# ---------------------------------------------------------------------------


def _check_pair(reserves: Sequence[float], i: int, j: int) -> None:
    n = len(reserves)
    if not (0 <= i < n and 0 <= j < n):
        raise DomainError(f"token index out of range for {n} reserves: ({i}, {j})")
    if i == j:
        raise DomainError("token_in and token_out must differ")


def _pmm_mid(k: float, t0: float, r0: float, p: float) -> float:
    return p * (1.0 + k * (t0 - r0) / t0)


def _pmm_ask(k: float, t0: float, r0: float, p: float) -> float:
    # charged when the trader buys token 0: never below the adopted price
    return max(p, _pmm_mid(k, t0, r0, p))


def _pmm_bid(k: float, t0: float, r0: float, p: float) -> float:
    # paid when the trader sells token 0: never above the adopted price
    return max(0.0, min(p, _pmm_mid(k, t0, r0, p)))


def _require_adopted_price(adopted_price: float | None) -> float:
    if adopted_price is None:
        raise DomainError("price adoption requires an adopted price")
    if not adopted_price > 0.0:
        raise DomainError(f"adopted price must be positive: {adopted_price}")
    return adopted_price


def spot_price(
    spec: CurveSpec,
    reserves: Sequence[float],
    token_in: int | None,
    token_out: int | None,
    adopted_price: float | None = None,
) -> float:
    """Instantaneous units of token_out per unit of token_in."""
    if isinstance(spec, Lmsr):
        return _lmsr_spot(spec, reserves, token_in, token_out)
    if token_in is None or token_out is None:
        raise DomainError("collateral leg (None) is only defined for LMSR curves")
    _check_pair(reserves, token_in, token_out)

    if isinstance(spec, ConstantProduct):
        _require_positive(reserves)
        return reserves[token_out] / reserves[token_in]
    if isinstance(spec, GeometricMean):
        _check_weights(spec, reserves)
        _require_positive(reserves)
        return (spec.weights[token_in] * reserves[token_out]) / (
            spec.weights[token_out] * reserves[token_in]
        )
    if isinstance(spec, ConstantSum):
        return 1.0
    if isinstance(spec, ConstantProductSum):
        _require_positive(reserves)
        n = len(reserves)
        d = solve_stableswap_d(reserves, spec.chi)
        a = spec.chi * d ** (n - 1)
        p = math.prod(reserves)
        return (a + p / reserves[token_in]) / (a + p / reserves[token_out])
    if isinstance(spec, ConstantPowerSum):
        _require_positive(reserves)
        return (reserves[token_out] / reserves[token_in]) ** spec.t
    if isinstance(spec, PriceAdoption):
        p = _require_adopted_price(adopted_price)
        r0 = reserves[0]
        t0 = spec.target_reserves[0]
        if token_out == 0:
            return 1.0 / _pmm_ask(spec.k, t0, r0, p)
        return _pmm_bid(spec.k, t0, r0, p)
    if isinstance(spec, Exponential):
        r, supply = _split_bonding_state(reserves)
        if supply <= 0.0:
            raise DomainError("spot price undefined at zero supply")
        marginal = spec.kappa * supply ** (spec.kappa - 1.0) / spec.c  # dr/dS
        return marginal if token_in == 1 else 1.0 / marginal
    raise DomainError(f"unknown curve spec: {spec!r}")


def _lmsr_spot(
    spec: Lmsr, q: Sequence[float], token_in: int | None, token_out: int | None
) -> float:
    j, buying = _lmsr_outcome_leg(q, token_in, token_out)
    price = _lmsr_price(spec.b, q, j)
    # selling outcome j yields `price` collateral per share; buying inverts it
    return 1.0 / price if buying else price


# ---------------------------------------------------------------------------
# conservation-curve residuals
# ---------------------------------------------------------------------------


def _residual_in_out(
    spec: CurveSpec, original: Sequence[float], updated: Sequence[float],
    j: int, c0: float
) -> tuple[Callable[[float], float], Callable[[float], float], bool]:
    """Residual f(x) = I(reserves with x at slot j) - c0 plus its derivative.

    `original` is the pre-trade state and `updated` already carries the
    known post-trade values at every other slot. Returns (f, f',
    zero_reachable) where zero_reachable marks curves that may legally
    deplete slot j.
    """
    if isinstance(spec, ConstantProduct):
        known = math.prod(v for idx, v in enumerate(updated) if idx != j)
        return (lambda x: known * x - c0), (lambda x: known), False
    if isinstance(spec, GeometricMean):
        w = spec.weights
        known = math.prod(
            v ** w[idx] for idx, v in enumerate(updated) if idx != j
        )
        wj = w[j]
        return (
            lambda x: known * x**wj - c0,
            lambda x: wj * known * x ** (wj - 1.0),
            False,
        )
    if isinstance(spec, ConstantSum):
        known = math.fsum(v for idx, v in enumerate(updated) if idx != j)
        return (lambda x: known + x - c0), (lambda x: 1.0), True
    if isinstance(spec, ConstantProductSum):
        # c0 here is D of the pre-trade state; quote at that fixed D.  The
        # right side is the pre-trade left side (same level set), which
        # avoids the D -> (D/n)**n round trip that loses precision on the
        # chi = 0 product limit.
        n = len(updated)
        a = spec.chi * c0 ** (n - 1)
        rhs = a * math.fsum(original) + math.prod(original)
        s_known = math.fsum(v for idx, v in enumerate(updated) if idx != j)
        p_known = math.prod(v for idx, v in enumerate(updated) if idx != j)
        return (
            lambda x: a * (s_known + x) + p_known * x - rhs,
            lambda x: a + p_known,
            False,
        )
    if isinstance(spec, ConstantPowerSum):
        e = 1.0 - spec.t
        s_known = math.fsum(
            v**e for idx, v in enumerate(updated) if idx != j
        )
        return (
            lambda x: s_known + x**e - c0,
            lambda x: e * x ** (e - 1.0) if x > 0.0 else math.inf,
            False,
        )
    raise DomainError(f"not a conservation curve: {spec!r}")


def _conservation_quote_in(
    spec: CurveSpec, reserves: Sequence[float], i: int, j: int, dx: float
) -> float:
    _require_positive_for_quote(spec, reserves)
    c0 = invariant_value(spec, reserves)
    updated = list(reserves)
    updated[i] = reserves[i] + dx
    f, fp, zero_ok = _residual_in_out(spec, reserves, updated, j, c0)
    r_j = reserves[j]
    f0 = f(0.0)
    if f0 > 0.0:
        raise DepletionError(
            f"input {dx} would drain more than the {r_j} units in reserve"
        )
    if f0 == 0.0:
        if zero_ok:
            return r_j
        raise DepletionError(f"trade would deplete reserve {j}")
    x_star = _solve_increasing(f, fp, 0.0, r_j)
    out = r_j - x_star
    if out == r_j and not zero_ok:  # x_star is below the float spacing of r_j
        raise DepletionError(f"input {dx} would deplete reserve {j}")
    return out


def _conservation_quote_out(
    spec: CurveSpec, reserves: Sequence[float], i: int, j: int, dy: float
) -> float:
    _require_positive_for_quote(spec, reserves)
    r_j = reserves[j]
    zero_ok = isinstance(spec, ConstantSum)
    if dy > r_j or (dy == r_j and not zero_ok):
        raise DepletionError(f"requested {dy} exceeds the {r_j} units available")
    c0 = invariant_value(spec, reserves)
    updated = list(reserves)
    updated[j] = r_j - dy
    f, fp, _ = _residual_in_out(spec, reserves, updated, i, c0)
    lo = reserves[i]
    x_star = _solve_increasing(f, fp, lo, _bracket_above(f, lo, lo + dy))
    return x_star - lo


def _require_positive_for_quote(spec: CurveSpec, reserves: Sequence[float]) -> None:
    if isinstance(spec, ConstantSum):
        _require_nonnegative(reserves)
    else:
        _require_positive(reserves)


# ---------------------------------------------------------------------------
# quoting
# ---------------------------------------------------------------------------


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

    if isinstance(spec, Lmsr):
        return _lmsr_quote_in(spec, reserves, token_in, token_out, dx)
    if token_in is None or token_out is None:
        raise DomainError("collateral leg (None) is only defined for LMSR curves")
    _check_pair(reserves, token_in, token_out)

    if isinstance(spec, PriceAdoption):
        p = _require_adopted_price(adopted_price)
        return pmm_trade_cost(
            spec.k, spec.target_reserves, reserves, p, token_in, token_out, dx
        )
    if isinstance(spec, Exponential):
        r, supply = _split_bonding_state(reserves)
        if token_in == 0:  # bond reserve, mint issued tokens
            return (spec.c * (r + dx)) ** (1.0 / spec.kappa) - supply
        payout = bonding_trade(spec.kappa, spec.c, supply, -dx)
        if payout > r * (1.0 + 1e-9):
            raise DepletionError(f"payout {payout} exceeds bonded reserve {r}")
        return min(payout, r)
    return _conservation_quote_in(spec, reserves, token_in, token_out, dx)


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

    if isinstance(spec, Lmsr):
        return _lmsr_quote_out(spec, reserves, token_in, token_out, dy)
    if token_in is None or token_out is None:
        raise DomainError("collateral leg (None) is only defined for LMSR curves")
    _check_pair(reserves, token_in, token_out)

    if isinstance(spec, PriceAdoption):
        p = _require_adopted_price(adopted_price)
        return _pmm_quote_out(spec, reserves, p, token_in, token_out, dy)
    if isinstance(spec, Exponential):
        r, supply = _split_bonding_state(reserves)
        if token_out == 1:  # exact issued tokens out: direct bonding cost
            return bonding_trade(spec.kappa, spec.c, supply, dy)
        if dy > r:
            raise DepletionError(f"requested {dy} exceeds bonded reserve {r}")
        s_new = (spec.c * (r - dy)) ** (1.0 / spec.kappa)
        return supply - s_new
    return _conservation_quote_out(spec, reserves, token_in, token_out, dy)


# ---------------------------------------------------------------------------
# LMSR trades
# ---------------------------------------------------------------------------


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


def _lmsr_quote_in(
    spec: Lmsr,
    q: Sequence[float],
    token_in: int | None,
    token_out: int | None,
    dx: float,
) -> float:
    j, buying = _lmsr_outcome_leg(q, token_in, token_out)
    b = spec.b
    if not buying:
        # exact shares in, collateral out
        if dx > q[j]:
            raise DepletionError(f"only {q[j]} outstanding shares of outcome {j}")
        return -_lmsr_leg_cost(b, q, j, -dx)
    # exact collateral in: invert C(q + s*e_j) - C(q) = dx for s
    base = _lmsr_cost(b, q)
    price_now = _lmsr_price(b, q, j)
    hi = dx / price_now * (1.0 + 1e-9) + 1e-12

    def f(s: float) -> float:
        after = list(q)
        after[j] += s
        return _lmsr_cost(b, after) - base - dx

    def fp(s: float) -> float:
        after = list(q)
        after[j] += s
        return _lmsr_price(b, after, j)

    return _solve_increasing(f, fp, 0.0, hi)


def _lmsr_quote_out(
    spec: Lmsr,
    q: Sequence[float],
    token_in: int | None,
    token_out: int | None,
    dy: float,
) -> float:
    j, buying = _lmsr_outcome_leg(q, token_in, token_out)
    b = spec.b
    if buying:
        # exact shares out: direct cost difference
        return _lmsr_leg_cost(b, q, j, dy)
    # exact collateral out: solve C(q) - C(q - s*e_j) = dy for shares in
    base = _lmsr_cost(b, q)
    depleted = list(q)
    depleted[j] = 0.0
    max_payout = base - _lmsr_cost(b, depleted)
    if dy > max_payout:
        raise DepletionError(
            f"outcome {j} can pay out at most {max_payout} collateral"
        )
    if dy == max_payout:
        return q[j]

    def f(s: float) -> float:
        after = list(q)
        after[j] -= s
        return (base - _lmsr_cost(b, after)) - dy

    def fp(s: float) -> float:
        after = list(q)
        after[j] -= s
        return _lmsr_price(b, after, j)

    return _solve_increasing(f, fp, 0.0, q[j])


# ---------------------------------------------------------------------------
# price-adoption trades
# ---------------------------------------------------------------------------


def _affine_strip(price_at_mid: Callable[[float], float], x: float, y: float) -> float:
    # exact integral of an affine price over [x, y]: width * midpoint value
    return (y - x) * price_at_mid(0.5 * (x + y))


def _pmm_ask_integral(k: float, t0: float, p: float, x: float, y: float) -> float:
    """Integral of the ask price over the token-0 reserve interval [x, y]."""
    lo, hi = min(x, y), max(x, y)
    mid = lambda u: _pmm_mid(k, t0, u, p)
    total = 0.0
    if lo < t0:  # surcharged leg
        total += _affine_strip(mid, lo, min(hi, t0))
    if hi > t0:  # at-par leg
        total += p * (hi - max(lo, t0))
    return total


def _pmm_bid_integral(k: float, t0: float, p: float, x: float, y: float) -> float:
    """Integral of the bid price over the token-0 reserve interval [x, y]."""
    lo, hi = min(x, y), max(x, y)
    total = 0.0
    if lo < t0:  # at-par leg
        total += p * (min(hi, t0) - lo)
    if hi > t0:  # discounted leg, clamped at a zero price
        u_zero = t0 * (1.0 + 1.0 / k) if k > 0.0 else math.inf
        seg_lo = max(lo, t0)
        seg_hi = min(hi, u_zero)
        if seg_hi > seg_lo:
            mid = lambda u: _pmm_mid(k, t0, u, p)
            total += _affine_strip(mid, seg_lo, seg_hi)
    return total


def pmm_trade_cost(
    k: float,
    target_reserves: Sequence[float],
    current_reserves: Sequence[float],
    adopted_price: float,
    token_in: int | None,
    token_out: int | None,
    dx: float,
) -> float:
    """Output amount for an exact-in price-adoption trade.

    The marginal price is affine in the token-0 reserve, so both directions
    integrate in closed form; buying token 0 inverts the integral for the
    reserve displacement with the shared scalar solver.
    """
    if not dx >= 0.0:
        raise DomainError(f"input amount must be non-negative: {dx}")
    if token_in not in (0, 1) or token_out not in (0, 1) or token_in == token_out:
        raise DomainError("price adoption trades token 0 against token 1")
    p = _require_adopted_price(adopted_price)
    if not 0.0 <= k <= 1.0:
        raise DomainError(f"k must be in [0, 1]: {k}")
    t0 = target_reserves[0]
    r0, r1 = current_reserves[0], current_reserves[1]
    if t0 <= 0.0:
        raise DomainError(f"target reserve must be positive: {t0}")
    if dx == 0.0:
        return 0.0

    if token_in == 0:
        # trader sells token 0: reserve walks r0 -> r0 + dx at the bid
        out = _pmm_bid_integral(k, t0, p, r0, r0 + dx)
        if out > r1:
            raise DepletionError(f"payout {out} exceeds the {r1} units in reserve")
        return out

    # trader buys token 0 with dx of token 1: invert the ask integral
    full_cost = _pmm_ask_integral(k, t0, p, 0.0, r0)
    if dx > full_cost:
        raise DepletionError(
            f"input {dx} exceeds the {full_cost} cost of the whole reserve"
        )
    if dx == full_cost:
        return r0

    def f(delta: float) -> float:
        return _pmm_ask_integral(k, t0, p, r0 - delta, r0) - dx

    def fp(delta: float) -> float:
        return _pmm_ask(k, t0, r0 - delta, p)

    return _solve_increasing(f, fp, 0.0, r0)


def _pmm_quote_out(
    spec: PriceAdoption,
    reserves: Sequence[float],
    p: float,
    token_in: int,
    token_out: int,
    dy: float,
) -> float:
    k = spec.k
    t0 = spec.target_reserves[0]
    r0, r1 = reserves[0], reserves[1]

    if token_out == 0:
        # exact token 0 out: pay the ask integral over the displacement
        if dy > r0:
            raise DepletionError(f"requested {dy} exceeds the {r0} units available")
        return _pmm_ask_integral(k, t0, p, r0 - dy, r0)

    # exact token 1 out: solve the bid integral for the token-0 input
    if dy > r1:
        raise DepletionError(f"requested {dy} exceeds the {r1} units available")
    u_zero = t0 * (1.0 + 1.0 / k) if k > 0.0 else math.inf
    max_payout = _pmm_bid_integral(k, t0, p, r0, u_zero) if math.isfinite(u_zero) else math.inf
    if dy > max_payout:
        raise DepletionError(
            f"bid price floors at zero after {max_payout} units of payout"
        )

    def f(delta: float) -> float:
        return _pmm_bid_integral(k, t0, p, r0, r0 + delta) - dy

    def fp(delta: float) -> float:
        return _pmm_bid(k, t0, r0 + delta, p)

    return _solve_increasing(f, fp, 0.0, _bracket_above(f, 0.0, dy / p))


# ---------------------------------------------------------------------------
# StableSwap D and the bonding closed form
# ---------------------------------------------------------------------------


def solve_stableswap_d(reserves: Sequence[float], chi: float) -> float:
    """Total-coins parameter D of the constant product-sum invariant.

    Newton from D0 = sum(reserves), 64 iterations at 1e-12 relative, falling
    back to bisection on the AM-GM bracket [n*(prod x)^(1/n), sum x].
    """
    _require_positive(reserves)
    if not chi >= 0.0:
        raise DomainError(f"chi must be >= 0: {chi}")
    n = len(reserves)
    s = math.fsum(reserves)
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
    return abs(s_new**kappa - supply**kappa) / c
