"""Tests for the behavioral taxonomy probe.

Golden classifications for the six built-in pool specs were worked out by hand
from the pricing rules themselves (see the curve-level oracles in
test_curves.py); the probe must recover each one from black-box trading alone.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ammlab import AmmError, DomainError
from ammlab import probe as probe_module
from ammlab.curves import PriceAdoption
from ammlab.engine import (
    BUILTIN_POOLS,
    EXACT_IN,
    EXACT_OUT,
    PRICE_ADOPTING_LP_BASED,
    PoolConfig,
    PricingFamily,
    materialize_pool,
    parse_pool_spec,
)
from ammlab.probe import (
    _SIZES,
    _VOLUMES,
    _WALKS,
    DIMENSION_ORDER,
    MIN_TRIALS,
    PROBED_DIMENSIONS,
    STATIC_DIMENSIONS,
    TOL_INVARIANT,
    TOL_VARIANT,
    DimensionVerdict,
    TaxonomyReport,
    _draw,
    _prime,
    _probe_bounding,
    _probe_independence,
    _probe_volume,
    _shift,
    classify,
    report_to_csv,
    run_dimension_probe,
)

SEED = 7
TRIALS = 128

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

# Expected characteristic per built-in pool, in DIMENSION_ORDER.  Cells whose
# published classification is ambiguous for these archetypes (price bounding of
# the prediction-market and bonding-curve pools) are None and left unasserted.
GOLDEN = {
    "uniswap-v2-like": (
        "Incorporative",
        "Sensitive",
        "Strictly Deficient",
        "Path Independent",
        "Bounded from Above and Below",
        "Constant-product",
        "Internal",
        "Non-translation Invariant",
        "Volume-dependent",
        "Two",
        "No Risk Management",
        "External",
    ),
    "curve-v1-like": (
        "Incorporative",
        "Sensitive",
        "Strictly Deficient",
        "Path Independent",
        "Bounded from Above and Below",
        "Constant-product-sum",
        "Internal",
        "Non-translation Invariant",
        "Volume-dependent",
        "Two",
        "No Risk Management",
        "External",
    ),
    "mstable-2021-like": (
        "Non-incorporative",
        "Insensitive",
        "Strictly Deficient",
        "Path Independent",
        "Bounded from Below",
        "Constant-sum",
        "Internal",
        "Translation Invariant",
        "Volume-independent",
        "Two",
        "No Risk Management",
        "External",
    ),
    "dodo-like": (
        "Incorporative",
        "Sensitive",
        "Strictly Deficient",
        "Path Dependent",
        "Bounded from Above and Below",
        "Price Adoption",
        "External",
        "Non-translation Invariant",
        "Volume-dependent",
        "Two",
        "Imbalance Surcharges",
        "External",
    ),
    "bancor-like": (
        "Incorporative",
        "Sensitive",
        "Deficient",
        "Path Independent",
        None,
        "Exponential Function",
        "Internal",
        "Non-translation Invariant",
        "Volume-dependent",
        "Two",
        "No Risk Management",
        "Internal",
    ),
    "augur-like": (
        "Incorporative",
        "Sensitive",
        "Deficient",
        "Path Independent",
        None,
        "Logarithmic Market Scoring",
        "Internal",
        "Translation Invariant",
        "Volume-dependent",
        "Three or More",
        "No Risk Management",
        "External",
    ),
}


def classify_builtin(name, *, seed=SEED, trials=TRIALS):
    return classify(BUILTIN_POOLS[name], seed=seed, trials=trials, pool_name=name)


def verdict_map(report):
    return {v.dimension: v for v in report.verdicts}


# ---------------------------------------------------------------------------
# Report structure
# ---------------------------------------------------------------------------


class TestReportStructure:
    def test_dimension_order_is_the_published_taxonomy_order(self):
        assert DIMENSION_ORDER == (
            DIM_INFORMATION,
            DIM_SENSITIVITY,
            DIM_DEFICIENCY,
            DIM_INDEPENDENCE,
            DIM_BOUNDING,
            DIM_DISCOVERY,
            DIM_PRICE_SOURCE,
            DIM_TRANSLATION,
            DIM_VOLUME,
            DIM_TOKENS,
            DIM_RISK,
            DIM_LIQUIDITY_SOURCE,
        )

    def test_probed_and_static_partition_the_order(self):
        assert set(PROBED_DIMENSIONS) | set(STATIC_DIMENSIONS) == set(DIMENSION_ORDER)
        assert not set(PROBED_DIMENSIONS) & set(STATIC_DIMENSIONS)
        assert len(PROBED_DIMENSIONS) == 7
        assert len(STATIC_DIMENSIONS) == 5
        assert (PROBED_DIMENSIONS, STATIC_DIMENSIONS) == tuple(
            tuple(d for d in DIMENSION_ORDER if d in group)
            for group in (PROBED_DIMENSIONS, STATIC_DIMENSIONS)
        )

    def test_report_rows_follow_dimension_order(self):
        report = classify_builtin("uniswap-v2-like")
        assert tuple(v.dimension for v in report.verdicts) == DIMENSION_ORDER

    def test_probed_rows_carry_evidence(self):
        report = classify_builtin("uniswap-v2-like")
        for verdict in report.verdicts:
            if verdict.dimension in PROBED_DIMENSIONS:
                assert verdict.trials >= 100
                assert verdict.max_deviation is not None
                assert verdict.tolerance is not None
            else:
                assert verdict.trials == 0
                assert verdict.max_deviation is None
                assert verdict.tolerance is None

    def test_report_records_pool_name(self):
        report = classify_builtin("dodo-like")
        assert report.pool == "dodo-like"


# ---------------------------------------------------------------------------
# Golden classifications for the built-in pools
# ---------------------------------------------------------------------------


class TestGoldenClassifications:
    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_builtin_classification_matches_golden_table(self, name):
        report = classify_builtin(name)
        got = {v.dimension: v.characteristic for v in report.verdicts}
        for dimension, expected in zip(DIMENSION_ORDER, GOLDEN[name]):
            if expected is None:
                continue
            assert got[dimension] == expected, (
                f"{name}: {dimension} -> {got[dimension]!r}, expected {expected!r}"
            )

    def test_unusual_bounding_cells_still_get_a_verdict(self):
        for name in ("bancor-like", "augur-like"):
            report = classify_builtin(name)
            verdict = verdict_map(report)[DIM_BOUNDING]
            assert verdict.characteristic in (
                "Bounded from Above",
                "Bounded from Above and Below",
                "Bounded from Below",
            )


# ---------------------------------------------------------------------------
# Determinism and seed stability
# ---------------------------------------------------------------------------


class TestDeterminism:
    def test_same_seed_reproduces_the_exact_report(self):
        first = classify_builtin("curve-v1-like")
        second = classify_builtin("curve-v1-like")
        assert first == second
        assert report_to_csv(first) == report_to_csv(second)

    def test_verdicts_stable_across_seeds(self):
        for seed in (0, 1, 99):
            report = classify_builtin("uniswap-v2-like", seed=seed)
            got = tuple(v.characteristic for v in report.verdicts)
            expected = GOLDEN["uniswap-v2-like"]
            assert got == expected

    def test_single_dimension_probe_is_deterministic(self):
        config = BUILTIN_POOLS["uniswap-v2-like"]
        a = run_dimension_probe(config, DIM_INDEPENDENCE, seed=3, trials=128)
        b = run_dimension_probe(config, DIM_INDEPENDENCE, seed=3, trials=128)
        assert a == b


UNDERFUNDED_LMSR = """
archetype = price-discovering-lp-based
curve = lmsr
tokens = C, O0, O1
reserves = 0, 0, 0
b = 10
"""


class TestProbeSession:
    """`classify` opens its pool once and runs every probe from it: each
    verdict is the one `run_dimension_probe` gives alone, and each refusal
    the one it gives."""

    @pytest.mark.parametrize("seed", [0, 7])
    @pytest.mark.parametrize("name", sorted(BUILTIN_POOLS))
    def test_classify_gives_each_probes_verdict(self, name, seed):
        config = BUILTIN_POOLS[name]
        report = classify(config, seed=seed, trials=TRIALS)
        probed = [v for v in report.verdicts if v.dimension in PROBED_DIMENSIONS]
        assert tuple(v.dimension for v in probed) == PROBED_DIMENSIONS
        for verdict in probed:
            alone = run_dimension_probe(config, verdict.dimension, seed=seed, trials=TRIALS)
            assert alone.characteristic == verdict.characteristic
            assert alone.max_deviation.hex() == verdict.max_deviation.hex()
            assert (alone.trials, alone.tolerance) == (verdict.trials, verdict.tolerance)

    def test_classify_opens_its_pool_once(self, monkeypatch):
        opened = []

        def counted(config, *args):
            opened.append(config)
            return materialize_pool(config, *args)

        monkeypatch.setattr(probe_module, "materialize_pool", counted)
        config = BUILTIN_POOLS["uniswap-v2-like"]
        classify(config, seed=0, trials=TRIALS)
        assert opened == [config]

    def test_classify_looks_its_family_up_once(self, monkeypatch):
        """The probes and the Risk Management row read the family the
        session opened; a constant-product pool is not deepened by a new
        family either."""
        bound = []

        def counted(curve, price=None):
            bound.append(curve)
            return real(curve, price)

        real = PricingFamily.of
        monkeypatch.setattr(PricingFamily, "of", staticmethod(counted))
        config = BUILTIN_POOLS["uniswap-v2-like"]
        report = classify(config, seed=0, trials=TRIALS)
        assert bound == [config.curve]
        assert verdict_map(report)[DIM_RISK].characteristic == "No Risk Management"

    @pytest.mark.parametrize("config, trials", [
        pytest.param(parse_pool_spec(UNDERFUNDED_LMSR), TRIALS, id="refused-by-the-engine"),
        pytest.param(dataclasses.replace(BUILTIN_POOLS["dodo-like"], oracle_price=None), TRIALS,
                     id="refused-by-the-probe"),
        pytest.param(parse_pool_spec(UNDERFUNDED_LMSR), MIN_TRIALS - 1, id="too-few-trials"),
    ])
    def test_classify_refuses_as_each_probe_does(self, config, trials):
        with pytest.raises(AmmError) as whole:
            classify(config, seed=0, trials=trials)
        for dimension in PROBED_DIMENSIONS:
            with pytest.raises(AmmError) as alone:
                run_dimension_probe(config, dimension, seed=0, trials=trials)
            assert type(alone.value) is type(whole.value)
            assert str(alone.value) == str(whole.value)

    def test_a_probe_refuses_the_dimension_then_the_trials_then_the_pool(self):
        refused = parse_pool_spec(UNDERFUNDED_LMSR)
        with pytest.raises(DomainError, match="unknown taxonomy dimension"):
            run_dimension_probe(refused, "Fee Structure", seed=0, trials=MIN_TRIALS - 1)
        with pytest.raises(DomainError, match="read off the pool spec"):
            run_dimension_probe(refused, DIM_TOKENS, seed=0, trials=MIN_TRIALS - 1)
        with pytest.raises(DomainError, match="trials required"):
            run_dimension_probe(refused, DIM_INFORMATION, seed=0, trials=MIN_TRIALS - 1)
        with pytest.raises(DomainError, match="collateral subsidy"):
            run_dimension_probe(refused, DIM_INFORMATION, seed=0, trials=MIN_TRIALS)


# ---------------------------------------------------------------------------
# Tolerance separation: verdict evidence must sit far from the thresholds
# ---------------------------------------------------------------------------


class TestToleranceSeparation:
    def probe(self, name, dimension):
        return run_dimension_probe(
            BUILTIN_POOLS[name], dimension, seed=SEED, trials=TRIALS
        )

    def test_variant_evidence_is_at_least_ten_times_tolerance(self):
        cases = [
            ("uniswap-v2-like", DIM_INFORMATION),
            ("uniswap-v2-like", DIM_SENSITIVITY),
            ("uniswap-v2-like", DIM_TRANSLATION),
            ("uniswap-v2-like", DIM_VOLUME),
            ("dodo-like", DIM_INDEPENDENCE),
        ]
        for name, dimension in cases:
            verdict = self.probe(name, dimension)
            assert verdict.max_deviation >= 10.0 * TOL_VARIANT, (name, dimension)

    def test_invariant_evidence_is_at_most_a_tenth_of_tolerance(self):
        cases = [
            ("mstable-2021-like", DIM_INFORMATION),
            ("mstable-2021-like", DIM_SENSITIVITY),
            ("mstable-2021-like", DIM_TRANSLATION),
            ("mstable-2021-like", DIM_VOLUME),
            ("uniswap-v2-like", DIM_INDEPENDENCE),
            ("augur-like", DIM_TRANSLATION),
        ]
        for name, dimension in cases:
            verdict = self.probe(name, dimension)
            assert verdict.max_deviation <= TOL_INVARIANT / 10.0, (name, dimension)

    def test_thresholds_have_the_published_values(self):
        assert TOL_INVARIANT == 1e-6
        assert TOL_VARIANT == 1e-3

    def test_lmsr_translation_identity_is_exact_to_float_dust(self):
        verdict = self.probe("augur-like", DIM_TRANSLATION)
        assert verdict.max_deviation <= 1e-12


# ---------------------------------------------------------------------------
# Path deficiency details
# ---------------------------------------------------------------------------


class TestPathDeficiency:
    def test_fee_bearing_conservation_pool_is_strictly_deficient(self):
        verdict = run_dimension_probe(
            BUILTIN_POOLS["uniswap-v2-like"], DIM_DEFICIENCY, seed=SEED, trials=TRIALS
        )
        assert verdict.characteristic == "Strictly Deficient"
        # Every trade must grow the invariant by a detectable margin.
        assert verdict.max_deviation > 1e-9

    def test_zero_fee_pools_are_deficient_but_not_strictly(self):
        for name in ("bancor-like", "augur-like"):
            verdict = run_dimension_probe(
                BUILTIN_POOLS[name], DIM_DEFICIENCY, seed=SEED, trials=TRIALS
            )
            assert verdict.characteristic == "Deficient", name
            assert abs(verdict.max_deviation) <= 1e-9, name

    def test_fee_zeroed_copy_of_constant_product_is_not_strict(self):
        base = BUILTIN_POOLS["uniswap-v2-like"]
        import dataclasses

        free = dataclasses.replace(base, fee_rate=0.0)
        verdict = run_dimension_probe(free, DIM_DEFICIENCY, seed=SEED, trials=TRIALS)
        assert verdict.characteristic == "Deficient"


# ---------------------------------------------------------------------------
# Error contracts
# ---------------------------------------------------------------------------


class TestErrors:
    def test_static_dimension_cannot_be_probed(self):
        for dimension in STATIC_DIMENSIONS:
            with pytest.raises(DomainError):
                run_dimension_probe(
                    BUILTIN_POOLS["uniswap-v2-like"], dimension, seed=0, trials=128
                )

    def test_unknown_dimension_rejected(self):
        with pytest.raises(DomainError):
            run_dimension_probe(
                BUILTIN_POOLS["uniswap-v2-like"], "Fee Structure", seed=0, trials=128
            )

    def test_too_few_trials_rejected(self):
        with pytest.raises(DomainError):
            run_dimension_probe(
                BUILTIN_POOLS["uniswap-v2-like"], DIM_INDEPENDENCE, seed=0, trials=99
            )

    def test_adopting_pool_without_oracle_price_rejected(self):
        import dataclasses

        config = dataclasses.replace(
            BUILTIN_POOLS["dodo-like"], oracle_price=None
        )
        with pytest.raises(DomainError):
            run_dimension_probe(config, DIM_INFORMATION, seed=0, trials=128)


# ---------------------------------------------------------------------------
# CSV rendering
# ---------------------------------------------------------------------------


class TestCsv:
    def test_header_and_row_count(self):
        report = classify_builtin("uniswap-v2-like")
        lines = report_to_csv(report).strip().splitlines()
        assert lines[0] == "dimension,characteristic,max_deviation,trials,tolerance"
        assert len(lines) == 1 + len(DIMENSION_ORDER)

    def test_rows_in_taxonomy_order_with_expected_cells(self):
        report = classify_builtin("mstable-2021-like")
        lines = report_to_csv(report).strip().splitlines()[1:]
        for line, dimension, expected in zip(
            lines, DIMENSION_ORDER, GOLDEN["mstable-2021-like"]
        ):
            cells = line.split(",")
            assert cells[0] == dimension
            assert cells[1] == expected

    def test_static_rows_have_empty_evidence_fields(self):
        report = classify_builtin("bancor-like")
        lines = report_to_csv(report).strip().splitlines()[1:]
        by_dim = {line.split(",")[0]: line.split(",") for line in lines}
        for dimension in STATIC_DIMENSIONS:
            cells = by_dim[dimension]
            assert cells[2] == ""
            assert cells[3] == "0"
            assert cells[4] == ""

    def test_probed_rows_round_trip_through_float_repr(self):
        report = classify_builtin("uniswap-v2-like")
        lines = report_to_csv(report).strip().splitlines()[1:]
        by_dim = {line.split(",")[0]: line.split(",") for line in lines}
        verdicts = verdict_map(report)
        for dimension in PROBED_DIMENSIONS:
            cells = by_dim[dimension]
            assert float(cells[2]) == verdicts[dimension].max_deviation
            assert int(cells[3]) == verdicts[dimension].trials
            assert float(cells[4]) == verdicts[dimension].tolerance


# ---------------------------------------------------------------------------
# Static dimensions read off the pool spec
# ---------------------------------------------------------------------------


class TestStaticDimensions:
    @pytest.mark.parametrize(
        "name,label",
        [
            ("uniswap-v2-like", "Constant-product"),
            ("curve-v1-like", "Constant-product-sum"),
            ("mstable-2021-like", "Constant-sum"),
            ("dodo-like", "Price Adoption"),
            ("bancor-like", "Exponential Function"),
            ("augur-like", "Logarithmic Market Scoring"),
        ],
    )
    def test_price_discovery_labels(self, name, label):
        report = classify_builtin(name)
        assert verdict_map(report)[DIM_DISCOVERY].characteristic == label

    def test_price_source_follows_archetype(self):
        assert (
            verdict_map(classify_builtin("dodo-like"))[DIM_PRICE_SOURCE].characteristic
            == "External"
        )
        assert (
            verdict_map(classify_builtin("bancor-like"))[
                DIM_PRICE_SOURCE
            ].characteristic
            == "Internal"
        )

    def test_token_count_threshold(self):
        assert (
            verdict_map(classify_builtin("augur-like"))[DIM_TOKENS].characteristic
            == "Three or More"
        )
        assert (
            verdict_map(classify_builtin("uniswap-v2-like"))[DIM_TOKENS].characteristic
            == "Two"
        )

    def test_risk_management_flags_imbalance_surcharges(self):
        assert (
            verdict_map(classify_builtin("dodo-like"))[DIM_RISK].characteristic
            == "Imbalance Surcharges"
        )
        assert (
            verdict_map(classify_builtin("curve-v1-like"))[DIM_RISK].characteristic
            == "No Risk Management"
        )

    def test_source_of_liquidity(self):
        assert (
            verdict_map(classify_builtin("bancor-like"))[
                DIM_LIQUIDITY_SOURCE
            ].characteristic
            == "Internal"
        )
        assert (
            verdict_map(classify_builtin("augur-like"))[
                DIM_LIQUIDITY_SOURCE
            ].characteristic
            == "External"
        )


# ---------------------------------------------------------------------------
# Robustness: price-adoption pools near the zero-bid reserve
# ---------------------------------------------------------------------------

# dodo-style, with the bid flooring at zero at a token-0 reserve of 2: the
# probe's priming walks push the reserve past it, where every sale pays 0
ZERO_BID_SPEC = """
archetype = price-adopting-lp-based
curve = price-adoption
tokens = BASE, QUOTE
reserves = 1.9999, 1
fee = 0.003
k = 1
target_reserves = 1, 1
oracle_price = 1
"""


class _FlooredFamily:
    """A family whose smaller volume trades at 0 and whose larger one does
    not, and whose trade step leaves the state as it is."""

    risky, numeraire, issued_from = 0, 1, math.inf

    def trade(self, state, i, j, kind, amount, fee):
        return amount, amount, 0.0, state

    def mean_price(self, state, volume):
        return 0.0 if volume < 1e-2 else 1.0


class TestZeroBid:
    def test_volume_probe_reads_zero_prices_as_no_deviation(self):
        verdict = run_dimension_probe(parse_pool_spec(ZERO_BID_SPEC), DIM_VOLUME, seed=0)
        assert verdict.characteristic == "Volume-dependent"
        assert math.isfinite(verdict.max_deviation)

    def test_a_zero_small_volume_price_against_a_nonzero_large_one_is_refused(self):
        with pytest.raises(DomainError, match="mean price 0"):
            _probe_volume(_FlooredFamily(), (1.0, 1.0), 1.0, random.Random(0), MIN_TRIALS, 0.0)


class _RecordingFamily:
    """A family whose moves leave the state as it is and are recorded, in
    the order the probe makes them.  It holds its risky leg 0, so every sale
    can go ahead; a buy is an exact-out trade into the leg, a sale an
    exact-in trade out of it, both fee-free."""

    risky, numeraire, issued_from = 0, 1, math.inf

    def __init__(self):
        self.moves = []

    def trade(self, state, i, j, kind, amount, fee):
        side = "buy" if (i, j, kind) == (1, 0, EXACT_OUT) else "sell"
        assert side == "buy" or (i, j, kind) == (0, 1, EXACT_IN)
        assert fee == 0.0
        self.moves.append((side, amount))
        return amount, amount, 0.0, state

    def path_base(self, state0):
        return state0

    def spots(self, state):
        return (1.0,)

    def walk_up(self, state, fraction):
        self.moves.append(("up", fraction))
        return state

    def walk_down(self, state, fraction):
        self.moves.append(("down", fraction))
        return state


class TestDrawStream:
    def test_draw_is_uniform_of_the_same_stream(self):
        """`_draw` inlines `Random.uniform`: the same sizes, bit for bit,
        and the generator left in the same state."""
        for seed in range(5):
            for band in (_SIZES, _WALKS, _VOLUMES):
                for scale in (1.0, 0.37, 2.5e6):
                    drawn, reference = random.Random(seed), random.Random(seed)
                    for _ in range(200):
                        got = _draw(drawn, band, scale)
                        assert got == scale * math.exp(reference.uniform(*band))
                    assert drawn.getstate() == reference.getstate()

    def test_priming_walks_draw_randint_of_the_same_stream(self):
        """`_prime` draws its step count as `Random.randint(1, 4)` and each
        step's size and side as the walk band's `uniform` and `random()`."""
        counts = set()
        for seed in range(200):
            family, reference = _RecordingFamily(), random.Random(seed)
            rng = random.Random(seed)
            _prime(family, (1.0, 1.0), 2.5, rng)
            steps = reference.randint(1, 4)
            expected = []
            for _ in range(steps):
                qty = 2.5 * math.exp(reference.uniform(*_WALKS))
                expected.append(("sell" if reference.random() < 0.5 else "buy", qty))
            assert family.moves == expected
            assert rng.getstate() == reference.getstate()
            counts.add(steps)
        assert counts == {1, 2, 3, 4}

    def test_path_orders_draw_randint_and_shuffle_of_the_same_stream(self):
        """`_probe_independence` draws its trade count as
        `Random.randint(4, 8)` and its second order as `Random.shuffle`."""
        lengths = set()
        for seed in range(200):
            family, reference = _RecordingFamily(), random.Random(seed)
            rng = random.Random(seed)
            _probe_independence(family, (1.0, 1.0), 0.37, rng, 1, 0.0)
            ops = []
            for _ in range(reference.randint(4, 8)):
                side = "buy" if reference.random() < 0.5 else "sell"
                ops.append((side, 0.37 * math.exp(reference.uniform(*_SIZES))))
            shuffled = list(ops)
            reference.shuffle(shuffled)
            assert family.moves == ops + shuffled
            assert rng.getstate() == reference.getstate()
            lengths.add(len(ops))
        assert lengths == {4, 5, 6, 7, 8}

    def test_bounding_fraction_is_uniform_of_the_same_stream(self):
        for seed in range(200):
            family, reference = _RecordingFamily(), random.Random(seed)
            rng = random.Random(seed)
            _probe_bounding(family, (1.0, 1.0), 1.0, rng, 3, 0.0)
            expected = []
            for _ in range(3):
                fraction = reference.uniform(0.90, 0.99)
                expected += [("up", fraction), ("down", fraction)]
            assert family.moves == expected
            assert rng.getstate() == reference.getstate()

    @pytest.mark.parametrize(
        "before,after",
        [
            ((math.nan, 1.0), (1.0, 2.0)),  # a nan first stays the maximum
            ((1.0, math.nan), (2.0, 1.0)),  # a nan later is passed over
            ((1.0, 2.0), (math.nan, 2.5)),
            ((0.0,), (0.5,)),  # a zero base reads the absolute move
            ((0.0, 4.0), (0.25, 5.0)),
            ((2.0, 0.5), (3.0, 0.25)),  # bid and ask, the bid's move binding
            ((2.0, 0.5), (2.5, 1.0)),  # bid and ask, the ask's move binding
            ((1.0,), (1.0,)),
        ],
    )
    def test_shift_takes_the_maximum_as_max_does(self, before, after):
        expected = max(
            abs(b - a) / abs(a) if a != 0.0 else abs(b - a) for a, b in zip(before, after)
        )
        assert repr(_shift(before, after)) == repr(expected)


def _adoption_config(k, t0, t1, side, r1, price, fee):
    """A price-adoption pool whose token-0 reserve lies `side` of the way
    from its target to the zero-bid reserve (past it where side > 1); at
    k = 0, where the bid never floors, `side` times the target."""
    curve = PriceAdoption(k=k, target_reserves=(t0, t1))
    zero_bid = curve.zero_bid_reserve()
    r0 = t0 + side * (zero_bid - t0) if math.isfinite(zero_bid) else side * t0
    return PoolConfig(
        archetype=PRICE_ADOPTING_LP_BASED, tokens=("BASE", "QUOTE"), curve=curve,
        fee_rate=fee, reserves=(r0, r1), oracle_price=price,
    )


_POSITIVE = st.floats(1e-3, 1e3)


class TestProbeRobustness:
    @given(
        k=st.floats(0.0, 1.0),
        t0=_POSITIVE,
        t1=_POSITIVE,
        side=st.floats(0.0, 2.0),
        r1=_POSITIVE,
        price=_POSITIVE,
        fee=st.sampled_from((0.0, 0.003, 0.3)),
    )
    @example(k=1.0, t0=1.0, t1=1.0, side=0.9999, r1=1.0, price=1.0, fee=0.003)
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_every_probe_gives_a_verdict_or_an_engine_error(
        self, k, t0, t1, side, r1, price, fee
    ):
        config = _adoption_config(k, t0, t1, side, r1, price, fee)
        for dimension in PROBED_DIMENSIONS:
            try:
                verdict = run_dimension_probe(config, dimension, seed=0, trials=MIN_TRIALS)
            except AmmError:
                continue
            assert verdict.dimension == dimension and verdict.trials == MIN_TRIALS
