"""Tests for the behavioral taxonomy probe.

Golden classifications for the six built-in pool specs were worked out by hand
from the pricing rules themselves (see the curve-level oracles in
test_curves.py); the probe must recover each one from black-box trading alone.
"""

import math

import pytest

from ammlab import DomainError
from ammlab.engine import BUILTIN_POOLS
from ammlab.probe import (
    DIMENSION_ORDER,
    PROBED_DIMENSIONS,
    STATIC_DIMENSIONS,
    TOL_INVARIANT,
    TOL_VARIANT,
    DimensionVerdict,
    TaxonomyReport,
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
