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

Every move is the family's own.  Each procedure binds the family's trade
step (`PricingFamily.trade`, the one engine.quote uses) and its risky and
numeraire legs once, and calls it directly for every buy and sale, so the
probe charges fees on the side the family charges them and keeps them where
the family keeps them, and its spots and deficiency values are the family's
observations.  The moves only the probe makes (deeper liquidity, walks toward
the price bounds, basket costs, mean prices) are in the family table too
(`PricingFamily`'s probe moves); this module holds the experiments alone.

`classify` is one probe session: it opens its pool once, through
`engine.materialize_pool` as every other command does, and runs all seven
probes from that one (family, opening state, scale).  `run_dimension_probe`
opens the pool the same way for its one dimension.  So the probe refuses
exactly the specs the engine refuses, with the same error, and then the few
that only a probe cannot start from (`PricingFamily.check_probe`, and a
probe scale outside the normal float range).  The trade step calls the
curve's closed forms directly, never the checked public curve functions:
the legs every probe trade and spot reads are checked once, when the pool
is opened.

All mechanism probes run fee-free: they characterize the pricing rule, not the
fee plumbing.  The one exception is path deficiency, which runs at the spec's
own fee rate because the strict form of the property only appears when fees
are retained.  Every price reads the conservation value of the state it
prices, so the sale back after a path-deficiency buy is priced on the level
that the buy's fee moved, which the deficiency values measure.  Every probe
is deterministic for a fixed (pool spec, dimension, seed, trials) tuple: the
generator is seeded from the seed and the dimension's position, never from
object hashes.  Every draw is read straight off the generator's `random()`
and `getrandbits()` by the formulas of `Random.uniform`, `Random.randint`
and `Random.shuffle`, consuming the stream as they do: the same draws, bit
for bit, at fewer Python calls per trial.

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
import sys
from dataclasses import dataclass
from typing import Sequence

from .core import DomainError
from .engine import (
    EXACT_IN,
    EXACT_OUT,
    PRICE_ADOPTING_LP_BASED,
    PRICE_DISCOVERING_LP_BASED,
    PRICE_DISCOVERING_SUPPLY_SOVEREIGN,
    PoolConfig,
    PricingFamily,
    materialize_pool,
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
# draws and priming walks
# ---------------------------------------------------------------------------


def _draw(rng: random.Random, band: tuple[float, float], scale: float) -> float:
    # `rng.uniform(lo, hi)`'s own formula, read off `rng.random()`: the same
    # draws from the same stream, bit for bit.  The probes read their counts
    # and shuffles off `rng.getrandbits()` by the formulas of `Random.randint`
    # and `Random.shuffle`, whose `Random._randbelow(n)` draws n.bit_length()
    # bits until they fall below n.
    lo, hi = band
    return scale * math.exp(lo + (hi - lo) * rng.random())


def _shift(before: Sequence[float], after: Sequence[float]) -> float:
    # the largest relative move, taken as `max()` takes it: the first leg's,
    # then each strictly greater one, so a nan keeps its place
    worst = None
    for a, b in zip(before, after):
        move = abs(b - a) / abs(a) if a != 0.0 else abs(b - a)
        if worst is None or move > worst:
            worst = move
    return worst


def _prime(family: PricingFamily, state0, scale: float, rng: random.Random):
    """Walk to a randomized nearby state without drifting far from start."""
    # `rng.randint(1, 4)`: 1 + `_randbelow(4)`
    steps = rng.getrandbits(3)
    while steps >= 4:
        steps = rng.getrandbits(3)
    lo, hi = _WALKS
    rand = rng.random
    trade, risky, numeraire = family.trade, family.risky, family.numeraire
    state = state0
    for _ in range(1 + steps):
        qty = scale * math.exp(lo + (hi - lo) * rand())  # `_draw(rng, _WALKS, scale)`
        # a sale where the pool holds the risky leg or has more than qty of it out
        if rand() < 0.5 and (risky < family.issued_from or state[risky] > qty):
            state = trade(state, risky, numeraire, EXACT_IN, qty, 0.0)[3]
        else:
            state = trade(state, numeraire, risky, EXACT_OUT, qty, 0.0)[3]
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


def _probe_information(family, state0, scale, rng, trials, fee):
    spots, trade, risky, numeraire = family.spots, family.trade, family.risky, family.numeraire
    worst = 0.0
    for _ in range(trials):
        state = _prime(family, state0, scale, rng)
        after = trade(state, numeraire, risky, EXACT_OUT, _draw(rng, _SIZES, scale), 0.0)[3]
        worst = max(worst, _shift(spots(state), spots(after)))
    return _classify_variant(worst, "Incorporative", "Non-incorporative"), worst


def _probe_sensitivity(family, state0, scale, rng, trials, fee):
    big = family.deepened(10.0)
    big0 = big.opening(tuple(10.0 * v for v in state0))[0]
    spots, spots_big = family.spots, big.spots
    trade, trade_big, risky, numeraire = family.trade, big.trade, family.risky, family.numeraire
    opening, opening_big = spots(state0), spots_big(big0)
    worst = 0.0
    for _ in range(trials):
        qty = _draw(rng, _SIZES, scale)
        base = spots(trade(state0, numeraire, risky, EXACT_OUT, qty, 0.0)[3])
        deep = spots_big(trade_big(big0, numeraire, risky, EXACT_OUT, qty, 0.0)[3])
        worst = max(worst, abs(_shift(opening, base) - _shift(opening_big, deep)))
    return _classify_variant(worst, "Sensitive", "Insensitive"), worst


def _probe_deficiency(family, state0, scale, rng, trials, fee):
    deficiency, trade = family.deficiency, family.trade
    risky, numeraire = family.risky, family.numeraire
    ref = family.deficiency_ref(state0)
    floor = math.inf
    for _ in range(trials):
        state = _prime(family, state0, scale, rng)
        qty = _draw(rng, _WALKS, scale)
        bought = trade(state, numeraire, risky, EXACT_OUT, qty, fee)[3]
        sold = trade(bought, risky, numeraire, EXACT_IN, qty, fee)[3]
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


def _probe_independence(family, state0, scale, rng, trials, fee):
    base = family.path_base(state0)
    trade, risky, numeraire = family.trade, family.risky, family.numeraire
    buy, sell = (numeraire, risky, EXACT_OUT), (risky, numeraire, EXACT_IN)
    lo, hi = _SIZES
    rand, getrandbits = rng.random, rng.getrandbits
    worst = 0.0
    for _ in range(trials):
        # `rng.randint(4, 8)`: 4 + `_randbelow(5)`
        count = getrandbits(3)
        while count >= 5:
            count = getrandbits(3)
        # each a side, then a size: `_draw(rng, _SIZES, scale)`
        ops = [(buy if rand() < 0.5 else sell, scale * math.exp(lo + (hi - lo) * rand()))
               for _ in range(4 + count)]
        # `rng.shuffle(shuffled)`: from the last item down, swap item i with
        # item `_randbelow(i + 1)`
        shuffled = list(ops)
        for i in range(len(shuffled) - 1, 0, -1):
            bits = (i + 1).bit_length()
            j = getrandbits(bits)
            while j > i:
                j = getrandbits(bits)
            shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
        terminals = []
        for order in (ops, shuffled):
            state = base
            for (i, j, kind), qty in order:
                state = trade(state, i, j, kind, qty, 0.0)[3]
            terminals.append(state)
        # the largest leg gap, taken as `max()` takes it (see `_shift`)
        gap = None
        for x, y in zip(*terminals):
            leg = abs(x - y)
            if gap is None or leg > gap:
                gap = leg
        gap /= scale
        if gap > worst:  # `max(worst, gap)`, nan and all
            worst = gap
    return _classify_variant(worst, "Path Dependent", "Path Independent"), worst


def _probe_bounding(family, state0, scale, rng, trials, fee):
    spots = family.spots
    start = spots(state0)
    rand = rng.random
    up = down = 0.0
    for _ in range(trials):
        fraction = 0.90 + (0.99 - 0.90) * rand()  # `rng.uniform(0.90, 0.99)`
        up = max(up, _shift(start, spots(family.walk_up(state0, fraction))))
        down = max(down, _shift(start, spots(family.walk_down(state0, fraction))))
    responds_up, flat_up = up > TOL_VARIANT, up < TOL_INVARIANT
    responds_dn, flat_dn = down > TOL_VARIANT, down < TOL_INVARIANT
    if responds_up and responds_dn:
        label = "Bounded from Above and Below"
    elif flat_up and (flat_dn or responds_dn):
        label = "Bounded from Below"
    elif responds_up and flat_dn:
        label = "Bounded from Above"
    else:
        label = INDETERMINATE
    return label, max(up, down)


def _probe_translation(family, state0, scale, rng, trials, fee):
    amount = 0.01 * scale
    reference = family.basket_cost(state0, amount)
    worst = 0.0
    for _ in range(trials):
        state = _prime(family, state0, scale, rng)
        cost = family.basket_cost(state, amount)
        worst = max(worst, abs(cost - reference) / abs(reference))
    return (
        _classify_variant(worst, "Non-translation Invariant", "Translation Invariant"),
        worst,
    )


def _probe_volume(family, state0, scale, rng, trials, fee):
    worst = 0.0
    for _ in range(trials):
        state = _prime(family, state0, scale, rng)
        volume = _draw(rng, _VOLUMES, scale)
        small = family.mean_price(state, volume)
        large = family.mean_price(state, 10.0 * volume)
        if small == 0.0:  # past a price bound, such as a bid floored at zero
            if large != 0.0:
                raise DomainError(f"mean price 0 for {volume} units, {large} for ten times that")
            continue  # both volumes trade at 0: no deviation
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
# procedure, called as (family, opening state, scale, rng, trials, the spec's
# fee rate) and judged against the tolerance beside it, or a reader of the
# pool spec and the family that opened it, beside None.
# Only the path deficiency probe charges the fee; the others run fee-free.
_DECIDERS = {
    DIM_INFORMATION: (_probe_information, TOL_VARIANT),
    DIM_SENSITIVITY: (_probe_sensitivity, TOL_VARIANT),
    DIM_DEFICIENCY: (_probe_deficiency, TOL_DEFICIENCY),
    DIM_INDEPENDENCE: (_probe_independence, TOL_VARIANT),
    DIM_BOUNDING: (_probe_bounding, TOL_VARIANT),
    DIM_DISCOVERY: (lambda config, family: config.curve.label, None),
    DIM_PRICE_SOURCE: (lambda config, family: _ARCHETYPE_SOURCES[config.archetype][0], None),
    DIM_TRANSLATION: (_probe_translation, TOL_VARIANT),
    DIM_VOLUME: (_probe_volume, TOL_VARIANT),
    DIM_TOKENS: (lambda config, family: "Two" if len(config.tokens) == 2 else "Three or More", None),
    DIM_RISK: (
        lambda config, family: "Imbalance Surcharges" if family.surcharged() else "No Risk Management",
        None,
    ),
    DIM_LIQUIDITY_SOURCE: (lambda config, family: _ARCHETYPE_SOURCES[config.archetype][1], None),
}

DIMENSION_ORDER = tuple(_DECIDERS)
PROBED_DIMENSIONS = tuple(d for d, (_, tol) in _DECIDERS.items() if tol is not None)
STATIC_DIMENSIONS = tuple(d for d, (_, tol) in _DECIDERS.items() if tol is None)


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def _opened(config: PoolConfig, trials: int) -> tuple:
    """(family, opening state, scale) that every probe of `config` starts
    from, or the refusal: too few trials, then the pool's."""
    if trials < MIN_TRIALS:
        raise DomainError(f"at least {MIN_TRIALS} trials required: {trials}")
    # the pool every other command would open, or its refusal
    family = materialize_pool(config)[0].family
    family.check_probe()
    state0, scale = family.opening(config.reserves)
    # every trade and spot of the probe reads the risky leg and the numeraire
    # of states shaped like the opening one: their legs are checked here, once
    family.curve.check_legs(*family.curve_args(state0, family.risky, family.numeraire))
    # a bonding pool opens at reserve 0, but the probe has nothing to measure
    # there, nor anywhere its trades are not of a normal size
    if not sys.float_info.min <= scale < math.inf:
        raise DomainError(f"probing an unfunded pool needs a normal scale: {scale} at {state0}")
    return family, state0, scale


def _measured(opened, config, dimension, seed, trials) -> DimensionVerdict:
    """The verdict on a probed dimension, from the pool `_opened` opened."""
    procedure, tolerance = _DECIDERS[dimension]
    rng = random.Random(seed * 7919 + DIMENSION_ORDER.index(dimension))
    label, deviation = procedure(*opened, rng, trials, config.fee_rate)
    return DimensionVerdict(dimension, label, deviation, trials, tolerance)


def run_dimension_probe(
    config: PoolConfig,
    dimension: str,
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
) -> DimensionVerdict:
    """Measure one probeable dimension of a pool spec."""
    if dimension not in _DECIDERS:
        raise DomainError(f"unknown taxonomy dimension: {dimension!r}")
    if _DECIDERS[dimension][1] is None:
        raise DomainError(f"dimension {dimension!r} is read off the pool spec, not probed")
    return _measured(_opened(config, trials), config, dimension, seed, trials)


def classify(
    config: PoolConfig,
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
    pool_name: str | None = None,
) -> TaxonomyReport:
    """Classify a pool spec along every taxonomy dimension: one opened pool
    for every probe, each verdict what `run_dimension_probe` gives."""
    opened = _opened(config, trials)
    verdicts = tuple(
        _measured(opened, config, dimension, seed, trials)
        if tolerance is not None
        else DimensionVerdict(dimension, decide(config, opened[0]), None, 0, None)
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
