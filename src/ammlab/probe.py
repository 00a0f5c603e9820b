"""Behavioral classification of pool specs along twelve design dimensions.

Seven dimensions are measured by black-box trading experiments against the
pool's pricing rule; five are read directly off the pool spec.  Probed
dimensions canonicalize every experiment to signed displacements of the
canonical risky leg of the pool's pricing family (engine.PricingFamily):

* conservation curves and price adoption displace token 0 against token 1
  (buys are exact-out, sells exact-in, so a displacement multiset reaches the
  same terminal token-0 balance in any order);
* the market-scoring rule displaces outstanding shares of outcome 0;
* the bonding rule displaces circulating supply.

Buys and sells are the family's own trade step, the one engine.quote uses, so
the probe charges fees on the side the family charges them and keeps them
where the family keeps them; its spots and deficiency values are the family's
observations too.  That step calls the curve's closed forms directly, never
the checked public curve functions: the legs every probe trade and spot reads
are checked once, when `run_dimension_probe` builds the probe.  The
per-family harnesses below add only the moves the probe alone needs
(ten-times liquidity, walks toward the price bounds, basket costs, mean
prices).

All mechanism probes run fee-free: they characterize the pricing rule, not the
fee plumbing.  The one exception is path deficiency, which runs at the spec's
own fee rate because the strict form of the property only appears when fees
are retained.  Every price reads the conservation value of the state it
prices, so the sale back after a path-deficiency buy is priced on the level
that the buy's fee moved, which the deficiency values measure.  Every probe
is deterministic for a fixed (pool spec, dimension, seed, trials) tuple: the
generator is seeded from the seed and the dimension's position, never from
object hashes.

Deviations are reported relative to the pool's characteristic scale (smallest
initial reserve, liquidity parameter b, or circulating supply), trade sizes
are drawn log-uniformly from [1e-4, 1e-1] of that scale, and verdicts require
clear separation: at most 1e-6 to call a dimension invariant, at least 1e-3 to
call it variant, with the gap reported as Indeterminate.
"""

from __future__ import annotations

import dataclasses
import math
import random
from dataclasses import dataclass
from typing import Sequence

from .core import DepletionError, DomainError
from .curves import lmsr_trade_cost
from .engine import (
    EXACT_IN,
    EXACT_OUT,
    PRICE_ADOPTING_LP_BASED,
    PRICE_DISCOVERING_LP_BASED,
    PRICE_DISCOVERING_SUPPLY_SOVEREIGN,
    AdoptionFamily,
    BondingFamily,
    PoolConfig,
    PricingFamily,
    ScoringFamily,
)

# the taxonomy's dimensions; `_DECIDERS` below gives their row order and how
# each is decided
DIM_INFORMATION = "Information Incorporation"
DIM_SENSITIVITY = "Liquidity Sensitivity"
DIM_DEFICIENCY = "Path Deficiency"
DIM_INDEPENDENCE = "Path Independence"
DIM_BOUNDING = "Price Bounding"
DIM_DISCOVERY = "Price Discovery"
DIM_PRICE_SOURCE = "Token Price Source"
DIM_TRANSLATION = "Translation Invariance"
DIM_VOLUME = "Volume Dependency"
DIM_TOKENS = "Number of Tokens per Liquidity Pool"
DIM_RISK = "Risk Management"
DIM_LIQUIDITY_SOURCE = "Source of Liquidity"

INDETERMINATE = "Indeterminate"

TOL_INVARIANT = 1e-6
TOL_VARIANT = 1e-3
TOL_DEFICIENCY = 1e-9

DEFAULT_TRIALS = 128
MIN_TRIALS = 100

# log-uniform trade-size bands, relative to the pool's characteristic scale,
# each as the logs of its bounds: trade sizes, priming walks, and the smaller
# of the two volumes whose mean prices the volume probe compares
_SIZES = (math.log(1e-4), math.log(1e-1))
_WALKS = (math.log(1e-3), math.log(1e-2))
_VOLUMES = (math.log(1e-4), math.log(1e-1 / 10.0))


@dataclass(frozen=True, slots=True)
class DimensionVerdict:
    """Outcome of classifying one dimension.

    Probed dimensions carry the binding deviation statistic, the trial count,
    and the tolerance it was judged against; dimensions read off the spec
    carry None evidence and zero trials.
    """

    dimension: str
    characteristic: str
    max_deviation: float | None
    trials: int
    tolerance: float | None


CSV_HEADER = tuple(f.name for f in dataclasses.fields(DimensionVerdict))


@dataclass(frozen=True, slots=True)
class TaxonomyReport:
    """Verdicts for every dimension, in the published taxonomy row order."""

    pool: str
    verdicts: tuple[DimensionVerdict, ...]


# ---------------------------------------------------------------------------
# per-family probe harnesses
# ---------------------------------------------------------------------------


def _draw(rng: random.Random, band: tuple[float, float], scale: float) -> float:
    return scale * math.exp(rng.uniform(*band))


def _shift(before: Sequence[float], after: Sequence[float]) -> float:
    return max(
        abs(b - a) / abs(a) if a != 0.0 else abs(b - a) for a, b in zip(before, after)
    )


class _Probe:
    """Displaces the family's canonical risky leg through its trade step.

    A buy is an exact-out purchase of the risky leg with the numeraire, a
    sell an exact-in sale of it, so a displacement multiset reaches the same
    terminal risky balance in any order.  Subclasses add the probe-only
    moves of one family.
    """

    def __init__(self, family: PricingFamily, state0: tuple[float, ...], scale: float):
        self.family = family
        self.state0 = state0
        self.scale = scale

    def buy(self, state, qty: float, fee: float = 0.0):
        risky = self.family.risky
        return self.family.trade(state, 1 - risky, risky, EXACT_OUT, qty, fee)[3]

    def sell(self, state, qty: float):
        risky = self.family.risky
        return self.family.trade(state, risky, 1 - risky, EXACT_IN, qty, 0.0)[3]

    def can_sell(self, state, qty: float) -> bool:
        return True

    def path_base(self):
        return self.state0

    def mean_price(self, state, volume: float) -> float:
        """Mean price of `volume` risky units: bought where the pool issues
        the leg (a sale needs that much outstanding), sold where it holds
        the leg."""
        family, risky = self.family, self.family.risky
        if risky >= family.issued_from:
            return family.trade(state, 1 - risky, risky, EXACT_OUT, volume, 0.0)[0] / volume
        return family.trade(state, risky, 1 - risky, EXACT_IN, volume, 0.0)[1] / volume


class _ConservationProbe(_Probe):
    """Displaces token 0 against token 1 on a conservation curve."""

    def __init__(self, family: PricingFamily, reserves: tuple[float, ...]):
        super().__init__(family, reserves, min(reserves))

    def basket_cost(self, state, amount: float) -> float:
        total = 1.0  # one unit of the numeraire token 1
        for i in range(len(state)):
            if i != 1:
                total += self.family.spot_between(state, i, 1)
        return amount * total

    def tenx(self):
        return _ConservationProbe(self.family, tuple(10.0 * r for r in self.state0))

    def walk_up(self, state, fraction: float):
        return self.buy(state, fraction * state[0])

    def walk_down(self, state, fraction: float):
        return self.family.trade(state, 0, 1, EXACT_OUT, fraction * state[1], 0.0)[3]


class _AdoptionProbe(_ConservationProbe):
    """Displaces token 0 against token 1 under an adopted external price."""

    def __init__(self, family: PricingFamily, reserves: tuple[float, ...]):
        if family.price is None:
            raise DomainError("probing a price-adopting pool requires an oracle price")
        _Probe.__init__(
            self, family, (reserves[0], reserves[1]), min(family.curve.target_reserves)
        )

    def basket_cost(self, state, amount: float) -> float:
        return amount * (1.0 + self.family.curve.mid(state[0], self.family.price))

    def tenx(self):
        curve = self.family.curve
        scaled = dataclasses.replace(
            curve, target_reserves=tuple(10.0 * t for t in curve.target_reserves)
        )
        return _AdoptionProbe(
            PricingFamily.of(scaled, self.family.price),
            tuple(10.0 * r for r in self.state0),
        )

    def walk_down(self, state, fraction: float):
        curve = self.family.curve
        if curve.k > 0.0:
            # walk toward the reserve level where the bid floors at zero
            span = curve.zero_bid_reserve() - state[0]
            if span > 0.0:
                try:
                    return self.sell(state, fraction * span)
                except DepletionError:
                    pass  # the quote reserve runs out first; drain that instead
        return super().walk_down(state, fraction)


class _ScoringProbe(_Probe):
    """Displaces outstanding shares of outcome 0 against collateral."""

    def __init__(self, family: PricingFamily, reserves: tuple[float, ...]):
        # state: (collateral held, *outstanding shares)
        super().__init__(family, reserves, family.curve.b)

    def can_sell(self, state, qty: float) -> bool:
        return state[1] >= qty

    def path_base(self):
        # sell headroom for outcome 0 in every permutation of a displacement set
        return self.buy(self.state0, self.family.curve.b)

    def basket_cost(self, state, amount: float) -> float:
        n = len(self.state0) - 1
        return lmsr_trade_cost(self.family.curve.b, state[1:], (amount,) * n)

    def tenx(self):
        scaled = dataclasses.replace(self.family.curve, b=10.0 * self.family.curve.b)
        return _ScoringProbe(
            PricingFamily.of(scaled), tuple(10.0 * v for v in self.state0)
        )

    def walk_up(self, state, fraction: float):
        return self.buy(state, 2.0 * self.family.curve.b / (1.0 - fraction) * fraction)

    def walk_down(self, state, fraction: float):
        # buy every other outcome at once
        b = self.family.curve.b
        qty = 2.0 * b / (1.0 - fraction) * fraction
        dq = (0.0,) + (qty,) * (len(self.state0) - 2)
        cost = lmsr_trade_cost(b, state[1:], dq)
        return (state[0] + cost, *(v + d for v, d in zip(state[1:], dq)))


class _BondingProbe(_Probe):
    """Displaces circulating supply against the bonded reserve."""

    def __init__(self, family: PricingFamily, reserves: tuple[float, ...]):
        bonded = reserves[0]
        if not bonded > 0.0:
            raise DomainError(
                f"probing a bonding pool requires a positive reserve: {bonded}"
            )
        state0 = family.primed(bonded)
        super().__init__(family, state0, state0[1])

    def can_sell(self, state, qty: float) -> bool:
        return state[1] > qty

    def basket_cost(self, state, amount: float) -> float:
        return amount * (1.0 + self.family.spot(state))

    def tenx(self):
        return _BondingProbe(self.family, (10.0 * self.state0[0],))

    def walk_up(self, state, fraction: float):
        target = state[1] / (1.0 - fraction)
        return self.buy(state, target - state[1])

    def walk_down(self, state, fraction: float):
        return self.sell(state, fraction * state[1])


_PROBES = {
    PricingFamily: _ConservationProbe,
    AdoptionFamily: _AdoptionProbe,
    ScoringFamily: _ScoringProbe,
    BondingFamily: _BondingProbe,
}


def _prime(probe, rng: random.Random):
    """Walk to a randomized nearby state without drifting far from start."""
    state = probe.state0
    for _ in range(rng.randint(1, 4)):
        qty = _draw(rng, _WALKS, probe.scale)
        if rng.random() < 0.5 and probe.can_sell(state, qty):
            state = probe.sell(state, qty)
        else:
            state = probe.buy(state, qty)
    return state


# ---------------------------------------------------------------------------
# probe procedures
# ---------------------------------------------------------------------------


def _classify_variant(deviation: float, variant: str, invariant: str) -> str:
    if deviation > TOL_VARIANT:
        return variant
    if deviation < TOL_INVARIANT:
        return invariant
    return INDETERMINATE


def _probe_information(probe, rng, trials, fee):
    spots = probe.family.spots
    worst = 0.0
    for _ in range(trials):
        state = _prime(probe, rng)
        qty = _draw(rng, _SIZES, probe.scale)
        worst = max(worst, _shift(spots(state), spots(probe.buy(state, qty))))
    return _classify_variant(worst, "Incorporative", "Non-incorporative"), worst


def _probe_sensitivity(probe, rng, trials, fee):
    big = probe.tenx()
    spots, spots_big = probe.family.spots, big.family.spots
    opening, opening_big = spots(probe.state0), spots_big(big.state0)
    worst = 0.0
    for _ in range(trials):
        qty = _draw(rng, _SIZES, probe.scale)
        impact_base = _shift(opening, spots(probe.buy(probe.state0, qty)))
        impact_big = _shift(opening_big, spots_big(big.buy(big.state0, qty)))
        worst = max(worst, abs(impact_base - impact_big))
    return _classify_variant(worst, "Sensitive", "Insensitive"), worst


def _probe_deficiency(probe, rng, trials, fee):
    family = probe.family
    deficiency = family.deficiency
    ref = family.deficiency_ref(probe.state0)
    risky = family.risky
    floor = math.inf
    for _ in range(trials):
        state = _prime(probe, rng)
        qty = _draw(rng, _WALKS, probe.scale)
        bought = probe.buy(state, qty, fee)
        sold = family.trade(bought, risky, 1 - risky, EXACT_IN, qty, fee)[3]
        w0 = deficiency(state)
        w1 = deficiency(bought)
        w2 = deficiency(sold)
        floor = min(floor, (w1 - w0) / ref, (w2 - w1) / ref)
    if floor > TOL_DEFICIENCY:
        label = "Strictly Deficient"
    elif floor >= -TOL_DEFICIENCY:
        label = "Deficient"
    else:
        label = INDETERMINATE
    return label, floor


def _probe_independence(probe, rng, trials, fee):
    base = probe.path_base()
    worst = 0.0
    for _ in range(trials):
        ops = [
            (rng.random() < 0.5, _draw(rng, _SIZES, probe.scale))
            for _ in range(rng.randint(4, 8))
        ]
        shuffled = list(ops)
        rng.shuffle(shuffled)
        terminals = []
        for order in (ops, shuffled):
            state = base
            for is_buy, qty in order:
                state = probe.buy(state, qty) if is_buy else probe.sell(state, qty)
            terminals.append(state)
        a, b = terminals
        worst = max(worst, max(abs(x - y) for x, y in zip(a, b)) / probe.scale)
    return _classify_variant(worst, "Path Dependent", "Path Independent"), worst


def _probe_bounding(probe, rng, trials, fee):
    spots = probe.family.spots
    start = spots(probe.state0)
    up = down = 0.0
    for _ in range(trials):
        fraction = rng.uniform(0.90, 0.99)
        up = max(up, _shift(start, spots(probe.walk_up(probe.state0, fraction))))
        down = max(down, _shift(start, spots(probe.walk_down(probe.state0, fraction))))
    responds_up, flat_up = up > TOL_VARIANT, up < TOL_INVARIANT
    responds_dn, flat_dn = down > TOL_VARIANT, down < TOL_INVARIANT
    if responds_up and responds_dn:
        label = "Bounded from Above and Below"
    elif flat_up and flat_dn:
        label = "Bounded from Below"
    elif responds_up and flat_dn:
        label = "Bounded from Above"
    elif responds_dn and flat_up:
        label = "Bounded from Below"
    else:
        label = INDETERMINATE
    return label, max(up, down)


def _probe_translation(probe, rng, trials, fee):
    amount = 0.01 * probe.scale
    reference = probe.basket_cost(probe.state0, amount)
    worst = 0.0
    for _ in range(trials):
        state = _prime(probe, rng)
        cost = probe.basket_cost(state, amount)
        worst = max(worst, abs(cost - reference) / abs(reference))
    return (
        _classify_variant(worst, "Non-translation Invariant", "Translation Invariant"),
        worst,
    )


def _probe_volume(probe, rng, trials, fee):
    worst = 0.0
    for _ in range(trials):
        state = _prime(probe, rng)
        volume = _draw(rng, _VOLUMES, probe.scale)
        small = probe.mean_price(state, volume)
        large = probe.mean_price(state, 10.0 * volume)
        worst = max(worst, abs(small - large) / abs(small))
    return _classify_variant(worst, "Volume-dependent", "Volume-independent"), worst


# ---------------------------------------------------------------------------
# the taxonomy table
# ---------------------------------------------------------------------------

# (Token Price Source, Source of Liquidity) per archetype
_ARCHETYPE_SOURCES = {
    PRICE_DISCOVERING_LP_BASED: ("Internal", "External"),
    PRICE_ADOPTING_LP_BASED: ("External", "External"),
    PRICE_DISCOVERING_SUPPLY_SOVEREIGN: ("Internal", "Internal"),
}

# How each dimension is decided, in the published taxonomy row order: a probe
# procedure, called as (probe, rng, trials, the spec's fee rate) and judged
# against the tolerance beside it, or a reader of the pool spec, beside None.
# Only the path deficiency probe charges the fee; the others run fee-free.
_DECIDERS = {
    DIM_INFORMATION: (_probe_information, TOL_VARIANT),
    DIM_SENSITIVITY: (_probe_sensitivity, TOL_VARIANT),
    DIM_DEFICIENCY: (_probe_deficiency, TOL_DEFICIENCY),
    DIM_INDEPENDENCE: (_probe_independence, TOL_VARIANT),
    DIM_BOUNDING: (_probe_bounding, TOL_VARIANT),
    DIM_DISCOVERY: (lambda config: config.curve.label, None),
    DIM_PRICE_SOURCE: (lambda config: _ARCHETYPE_SOURCES[config.archetype][0], None),
    DIM_TRANSLATION: (_probe_translation, TOL_VARIANT),
    DIM_VOLUME: (_probe_volume, TOL_VARIANT),
    DIM_TOKENS: (lambda config: "Two" if len(config.tokens) == 2 else "Three or More", None),
    DIM_RISK: (
        lambda config: "Imbalance Surcharges"
        if PricingFamily.of(config.curve).surcharged()
        else "No Risk Management",
        None,
    ),
    DIM_LIQUIDITY_SOURCE: (lambda config: _ARCHETYPE_SOURCES[config.archetype][1], None),
}

DIMENSION_ORDER = tuple(_DECIDERS)
PROBED_DIMENSIONS = tuple(d for d, (_, tol) in _DECIDERS.items() if tol is not None)
STATIC_DIMENSIONS = tuple(d for d, (_, tol) in _DECIDERS.items() if tol is None)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def run_dimension_probe(
    config: PoolConfig,
    dimension: str,
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
) -> DimensionVerdict:
    """Measure one probeable dimension of a pool spec."""
    if dimension not in _DECIDERS:
        raise DomainError(f"unknown taxonomy dimension: {dimension!r}")
    procedure, tolerance = _DECIDERS[dimension]
    if tolerance is None:
        raise DomainError(
            f"dimension {dimension!r} is read off the pool spec, not probed"
        )
    if trials < MIN_TRIALS:
        raise DomainError(f"at least {MIN_TRIALS} trials required: {trials}")

    if not config.reserves:
        raise DomainError("probing requires a pool spec with initial reserves")
    family = PricingFamily.of(config.curve, config.oracle_price)
    family.check(config.archetype, len(config.tokens))
    probe = _PROBES[type(family)](family, config.reserves)
    # every trade and spot of the probe reads the risky leg and the numeraire
    # of states shaped like the opening one: their legs are checked here, once
    risky = family.risky
    family.curve.check_legs(*family.curve_args(probe.state0, risky, 1 - risky))
    rng = random.Random(seed * 7919 + DIMENSION_ORDER.index(dimension))
    label, deviation = procedure(probe, rng, trials, config.fee_rate)
    return DimensionVerdict(dimension, label, deviation, trials, tolerance)


def classify(
    config: PoolConfig,
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
    pool_name: str | None = None,
) -> TaxonomyReport:
    """Classify a pool spec along every taxonomy dimension."""
    verdicts = tuple(
        run_dimension_probe(config, dimension, seed, trials)
        if tolerance is not None
        else DimensionVerdict(dimension, decide(config), None, 0, None)
        for dimension, (decide, tolerance) in _DECIDERS.items()
    )
    name = pool_name or f"{config.archetype}:{type(config.curve).__name__}"
    return TaxonomyReport(pool=name, verdicts=verdicts)


def report_to_csv(report: TaxonomyReport) -> str:
    """Render a report as CSV, one row per dimension in taxonomy order."""
    lines = [",".join(CSV_HEADER)]
    for v in report.verdicts:
        lines.append(
            ",".join(
                (
                    v.dimension,
                    v.characteristic,
                    "" if v.max_deviation is None else repr(v.max_deviation),
                    str(v.trials),
                    "" if v.tolerance is None else repr(v.tolerance),
                )
            )
        )
    return "\n".join(lines) + "\n"
