"""Pricing-curve tests.

Each quoting rule the package solves numerically is checked here against an
independently derived closed form ("one code path, many oracles"):

    constant product   dy = r_out - (r_in * r_out) / (r_in + dx)
    geometric mean     x_out' = (c0 / prod_known(r^w))^(1/w_out)
    constant sum       dy = dx
    product-sum        D from an independent pure-bisection solver
    power sum          x_out' = (c0 - sum_known(r^(1-t)))^(1/(1-t))
    LMSR               share buy inverted in closed log form
    price adoption     piecewise-quadratic integrals done by hand
    bonding            r(S) = S^kappa / c evaluated directly
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ammlab.core import DepletionError, DomainError, UnsupportedOperation
from ammlab.curves import (
    CURVES,
    ConstantPowerSum,
    ConstantProduct,
    ConstantProductSum,
    ConstantSum,
    Exponential,
    GeometricMean,
    Lmsr,
    PriceAdoption,
    bonding_trade,
    invariant_value,
    lmsr_trade_cost,
    pmm_trade_cost,
    quote_exact_in,
    quote_exact_out,
    solve_stableswap_d,
    spot_price,
    _Conservation,
)

REL = 1e-9

CP = ConstantProduct()
CS = ConstantSum()


def close(a, b, rel=REL, abs_=1e-12):
    return math.isclose(a, b, rel_tol=rel, abs_tol=abs_)


# --- independent oracles ----------------------------------------------------


def cp_out(r_in, r_out, dx):
    return r_out - (r_in * r_out) / (r_in + dx)


def gm_out(weights, r_in, r_out, i, j, dx):
    c0 = r_in ** weights[i] * r_out ** weights[j]
    return r_out - (c0 / (r_in + dx) ** weights[i]) ** (1.0 / weights[j])


def bisect_d(reserves, chi, iters=200):
    """Pure-bisection StableSwap solver; bracket from AM-GM bounds."""
    n = len(reserves)
    s = sum(reserves)
    p = math.prod(reserves)
    if chi == 0.0:
        return n * p ** (1.0 / n)

    def g(d):
        return chi * d ** (n - 1) * s + p - chi * d**n - (d / n) ** n

    lo, hi = n * p ** (1.0 / n), s
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if g(mid) >= 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def lmsr_buy_closed(b, q, j, spend):
    """Shares received for `spend` collateral, inverted in closed form."""
    c_target = invariant_value(Lmsr(b=b), q) + spend
    rest = sum(math.exp(qi / b) for i, qi in enumerate(q) if i != j)
    return b * math.log(math.exp(c_target / b) - rest) - q[j]


# ---------------------------------------------------------------------------
# invariant_value
# ---------------------------------------------------------------------------


class TestInvariantValue:
    def test_constant_product(self):
        assert invariant_value(CP, (100.0, 100.0)) == 10000.0

    def test_lmsr_cost_at_origin(self):
        # C(0,0) = b ln 2
        assert close(invariant_value(Lmsr(b=100.0), (0.0, 0.0)), 100.0 * math.log(2.0))

    def test_geometric_mean_equal_weights(self):
        spec = GeometricMean(weights=(0.5, 0.5))
        assert close(invariant_value(spec, (100.0, 100.0)), 100.0)

    def test_constant_sum(self):
        assert invariant_value(CS, (3.0, 7.0, 5.0)) == 15.0

    def test_power_sum(self):
        # 9^0.5 + 16^0.5 = 7
        assert close(invariant_value(ConstantPowerSum(t=0.5), (9.0, 16.0)), 7.0)

    def test_product_sum_returns_d(self):
        spec = ConstantProductSum(chi=7.0)
        assert close(invariant_value(spec, (100.0, 100.0)), 200.0)

    def test_exponential_is_solvency_constant(self):
        # reserves convention: (reserve balance, circulating supply)
        spec = Exponential(kappa=2.0, c=1.0)
        assert close(invariant_value(spec, (100.0, 10.0)), 1.0)

    def test_price_adoption_unsupported(self):
        spec = PriceAdoption(k=0.5, target_reserves=(100.0, 1000.0))
        with pytest.raises(UnsupportedOperation):
            invariant_value(spec, (100.0, 1000.0))

    def test_nonpositive_reserve_rejected(self):
        with pytest.raises(DomainError):
            invariant_value(CP, (0.0, 100.0))


# ---------------------------------------------------------------------------
# spot_price
# ---------------------------------------------------------------------------


class TestSpotPrice:
    def test_constant_product_ratio(self):
        assert spot_price(CP, (100.0, 200.0), 0, 1) == 2.0

    def test_geometric_mean_worked_example(self):
        spec = GeometricMean(weights=(0.8, 0.2))
        assert close(spot_price(spec, (80.0, 20.0), 0, 1), 1.0)

    def test_geometric_mean_general(self):
        # dy/dx = (w_in r_out) / (w_out r_in)
        spec = GeometricMean(weights=(0.6, 0.4))
        assert close(spot_price(spec, (120.0, 30.0), 0, 1), (0.6 * 30.0) / (0.4 * 120.0))

    def test_constant_sum_unity(self):
        assert spot_price(CS, (17.0, 3.0), 0, 1) == 1.0

    def test_lmsr_symmetric_outcome_price(self):
        # price of an outcome in collateral units, collateral leg = None
        assert close(spot_price(Lmsr(b=100.0), (0.0, 0.0), 0, None), 0.5)

    def test_lmsr_prices_follow_softmax(self):
        b, q = 50.0, (30.0, 10.0, 0.0)
        z = sum(math.exp(qi / b) for qi in q)
        for j in range(3):
            assert close(spot_price(Lmsr(b=b), q, j, None), math.exp(q[j] / b) / z)

    @pytest.mark.parametrize("legs", [(None, None), (0, 1)], ids=["no-outcome", "two-outcomes"])
    def test_lmsr_spot_needs_exactly_one_collateral_leg(self, legs):
        # the same leg rule as the LMSR quotes
        with pytest.raises(UnsupportedOperation, match="one outcome against collateral"):
            spot_price(Lmsr(b=100.0), (0.0, 0.0), *legs)
        with pytest.raises(UnsupportedOperation, match="one outcome against collateral"):
            quote_exact_in(Lmsr(b=100.0), (0.0, 0.0), *legs, 1.0)

    def test_lmsr_spot_outcome_index_out_of_range(self):
        with pytest.raises(DomainError, match="out of range"):
            spot_price(Lmsr(b=100.0), (0.0, 0.0), 2, None)

    def test_power_sum_ratio(self):
        spec = ConstantPowerSum(t=0.5)
        assert close(spot_price(spec, (100.0, 25.0), 0, 1), 0.5)

    def test_product_sum_limits(self):
        r = (100.0, 50.0)
        assert close(spot_price(ConstantProductSum(chi=0.0), r, 0, 1), 0.5)
        assert close(spot_price(ConstantProductSum(chi=1e6), r, 0, 1), 1.0, rel=1e-4)

    def test_exponential_marginal(self):
        # issued -> reserve: dr/dS = kappa S^(kappa-1) / c
        spec = Exponential(kappa=2.0, c=1.0)
        assert close(spot_price(spec, (100.0, 10.0), 1, 0), 20.0)
        assert close(spot_price(spec, (100.0, 10.0), 0, 1), 1.0 / 20.0)

    def test_price_adoption_directional(self):
        """Deficit pool: buying the scarce token costs a surcharge, selling
        it in pays the plain adopted price."""
        spec = PriceAdoption(k=0.5, target_reserves=(100.0, 1000.0))
        r = (80.0, 800.0)
        # offered price of token 0 is p(1 + k*(t0-r0)/t0) = 11; quoting the
        # buy-base direction returns base-per-quote, i.e. 1/11
        assert close(spot_price(spec, r, 1, 0, adopted_price=10.0), 1.0 / 11.0)
        assert close(spot_price(spec, r, 0, 1, adopted_price=10.0), 10.0)

    def test_price_adoption_surplus_side(self):
        spec = PriceAdoption(k=0.5, target_reserves=(100.0, 1000.0))
        r = (120.0, 800.0)
        # surplus of token 0: selling it in gets the discounted 9.0
        assert close(spot_price(spec, r, 0, 1, adopted_price=10.0), 9.0)
        assert close(spot_price(spec, r, 1, 0, adopted_price=10.0), 1.0 / 10.0)

    def test_price_adoption_requires_oracle(self):
        spec = PriceAdoption(k=0.5, target_reserves=(100.0, 1000.0))
        with pytest.raises(DomainError):
            spot_price(spec, (100.0, 1000.0), 0, 1)

    @pytest.mark.parametrize(
        "price_leg",
        [
            lambda spec, r: spot_price(spec, r, 2, 0, adopted_price=10.0),
            lambda spec, r: quote_exact_in(spec, r, 2, 1, 1.0, adopted_price=10.0),
            lambda spec, r: quote_exact_out(spec, r, 2, 1, 1.0, adopted_price=10.0),
        ],
        ids=["spot", "exact-in", "exact-out"],
    )
    def test_price_adoption_prices_only_token_0_against_token_1(self, price_leg):
        """A third reserve is no leg of price adoption, in any direction."""
        spec = PriceAdoption(k=0.5, target_reserves=(100.0, 1000.0))
        with pytest.raises(DomainError, match="token 0 against token 1"):
            price_leg(spec, (100.0, 1000.0, 5.0))


# ---------------------------------------------------------------------------
# quote_exact_in
# ---------------------------------------------------------------------------


class TestQuoteExactIn:
    def test_constant_product_worked_example(self):
        dy = quote_exact_in(CP, (100.0, 100.0), 0, 1, 10.0)
        assert close(dy, 100.0 - 10000.0 / 110.0)

    @pytest.mark.parametrize(
        "spec, reserves, dx",
        [
            (CS, (1.0, 1.0, 1e308), 1e308),
            (ConstantPowerSum(t=0.0), (1.0, 1.0, 1e308), 1e308),
            (ConstantProductSum(chi=1.0), (1e100, 1e100, 1e100), 1e300),
            (CP, (1e200, 1e-200, 1e200), 1e200),
        ],
        ids=["sum", "power-sum", "product-sum", "product"],
    )
    def test_overflowing_residual_rejected(self, spec, reserves, dx):
        # the conservation value is finite, but the known reserves of the
        # post-trade state overflow: math.fsum raised OverflowError, and an
        # infinite product gave a wrong quote (7.5e-201 for the product case,
        # whose closed form is 5e-201)
        with pytest.raises(DomainError, match="overflows the conservation value"):
            quote_exact_in(spec, reserves, 0, 1, dx)

    def test_constant_product_overflowing_value_rejected(self):
        # c = 1e320 is past the largest float.  The closed form, written as
        # r_out * dx / (r_in + dx), still gives 9.999e149 here; a quote
        # solved from c = inf gave 9.095e147.
        reserves = (1e160, 1e160)
        assert close(1e160 * (1e150 / (1e160 + 1e150)), 9.999999999e149)
        with pytest.raises(DomainError, match="overflows"):
            invariant_value(CP, reserves)
        with pytest.raises(DomainError, match="overflows"):
            quote_exact_in(CP, reserves, 0, 1, 1e150)
        with pytest.raises(DomainError, match="overflows"):
            quote_exact_out(CP, reserves, 0, 1, 1e150)
        # a sum that overflows is rejected the same way
        with pytest.raises(DomainError, match="overflows"):
            quote_exact_in(CS, (1e308, 1e308), 0, 1, 1.0)

    def test_constant_sum_one_to_one(self):
        assert close(quote_exact_in(CS, (100.0, 100.0), 0, 1, 10.0), 10.0)

    def test_product_sum_chi_zero_matches_constant_product(self):
        spec = ConstantProductSum(chi=0.0)
        for r, dx in [((100.0, 100.0), 10.0), ((250.0, 40.0), 3.0), ((5.0, 900.0), 1.0)]:
            assert close(quote_exact_in(spec, r, 0, 1, dx), cp_out(r[0], r[1], dx))

    def test_product_sum_chi_large_matches_constant_sum(self):
        spec = ConstantProductSum(chi=1e6)
        dy = quote_exact_in(spec, (100.0, 100.0), 0, 1, 10.0)
        assert close(dy, 10.0, rel=1e-4)

    def test_geometric_mean_against_closed_form(self):
        spec = GeometricMean(weights=(0.3, 0.7))
        r = (200.0, 50.0)
        assert close(quote_exact_in(spec, r, 0, 1, 7.0), gm_out((0.3, 0.7), r[0], r[1], 0, 1, 7.0))

    def test_lmsr_buy_worked_example(self):
        # spending b*ln((e^0.1 + 1)/2) collateral on outcome 0 yields 10 shares
        spend = 100.0 * math.log((math.exp(0.1) + 1.0) / 2.0)
        shares = quote_exact_in(Lmsr(b=100.0), (0.0, 0.0), None, 0, spend)
        assert close(shares, 10.0)

    def test_lmsr_buy_of_an_outcome_priced_below_the_float_range(self):
        """Outcome 1 trails by 1000*b, so its price exp(-1000) underflows to
        0; the buy still matches the log-space closed form
        b*softplus(log(expm1(m/b)) - log p_j)."""
        b, q, spend = 1.0, (1000.0, 0.0), 1.0
        shares = quote_exact_in(Lmsr(b=b), q, None, 1, spend)
        log_price = (q[1] - q[0]) / b - math.log1p(math.exp((q[1] - q[0]) / b))
        x = math.log(math.expm1(spend / b)) - log_price
        assert close(shares, b * (x + math.log1p(math.exp(-x))), rel=1e-12)
        with pytest.raises(DomainError, match="not finite"):
            spot_price(Lmsr(b=b), q, None, 1)

    def test_lmsr_sell_is_cost_difference(self):
        spend = 100.0 * math.log((math.exp(0.1) + 1.0) / 2.0)
        payout = quote_exact_in(Lmsr(b=100.0), (10.0, 0.0), 0, None, 10.0)
        assert close(payout, spend)

    def test_price_adoption_k_zero_is_flat(self):
        spec = PriceAdoption(k=0.0, target_reserves=(100.0, 1000.0))
        assert close(quote_exact_in(spec, (80.0, 800.0), 1, 0, 10.0, adopted_price=10.0), 1.0)
        assert close(quote_exact_in(spec, (80.0, 800.0), 0, 1, 1.0, adopted_price=10.0), 10.0)

    def test_price_adoption_buy_integral(self):
        # ask(u) = 10 + 0.05 (100 - u); buying 10 base from r0 = 80 costs
        # 10*10 + 0.05*(20*10 + 10^2/2) = 112.5
        spec = PriceAdoption(k=0.5, target_reserves=(100.0, 1000.0))
        dy = quote_exact_in(spec, (80.0, 800.0), 1, 0, 112.5, adopted_price=10.0)
        assert close(dy, 10.0)

    def test_price_adoption_sell_across_target(self):
        # selling 40 base from r0 = 80: par leg 20*10, then discounted leg
        # integral of 10 - 0.05 (u - 100) over [100, 120] = 200 - 10 = 190
        spec = PriceAdoption(k=0.5, target_reserves=(100.0, 1000.0))
        dy = quote_exact_in(spec, (80.0, 800.0), 0, 1, 40.0, adopted_price=10.0)
        assert close(dy, 390.0)

    def test_price_adoption_buy_across_target(self):
        # buying 40 base from r0 = 120: par leg 20*10, surcharge leg
        # integral of 10 + 0.05 (100 - u) over [80, 100] = 210; total 410
        spec = PriceAdoption(k=0.5, target_reserves=(100.0, 1000.0))
        dy = quote_exact_in(spec, (120.0, 800.0), 1, 0, 410.0, adopted_price=10.0)
        assert close(dy, 40.0)

    def test_exponential_buy_and_sell(self):
        spec = Exponential(kappa=2.0, c=1.0)
        # spending 21 reserve at S=10 mints exactly 1 (121 - 100 = 21)
        assert close(quote_exact_in(spec, (100.0, 10.0), 0, 1, 21.0), 1.0)
        # selling the whole supply drains the reserve
        assert close(quote_exact_in(spec, (100.0, 10.0), 1, 0, 10.0), 100.0)

    def test_constant_sum_legal_depletion(self):
        assert close(quote_exact_in(CS, (100.0, 100.0), 0, 1, 100.0), 100.0)

    def test_constant_sum_depletion_error(self):
        with pytest.raises(DepletionError):
            quote_exact_in(CS, (100.0, 100.0), 0, 1, 150.0)

    def test_negative_input_rejected(self):
        with pytest.raises(DomainError):
            quote_exact_in(CP, (100.0, 100.0), 0, 1, -1.0)


# ---------------------------------------------------------------------------
# quote_exact_out
# ---------------------------------------------------------------------------


class TestQuoteExactOut:
    def test_constant_product_inverse_of_worked_example(self):
        dy = 100.0 - 10000.0 / 110.0
        assert close(quote_exact_out(CP, (100.0, 100.0), 0, 1, dy), 10.0)

    def test_constant_sum(self):
        assert close(quote_exact_out(CS, (100.0, 100.0), 0, 1, 10.0), 10.0)

    def test_zero_out_costs_zero(self):
        assert quote_exact_out(CP, (100.0, 100.0), 0, 1, 0.0) == 0.0

    def test_depletion_rejected(self):
        with pytest.raises(DepletionError):
            quote_exact_out(CP, (100.0, 100.0), 0, 1, 100.0)

    def test_price_adoption_buy_quadratic(self):
        spec = PriceAdoption(k=0.5, target_reserves=(100.0, 1000.0))
        dx = quote_exact_out(spec, (80.0, 800.0), 1, 0, 10.0, adopted_price=10.0)
        assert close(dx, 112.5)

    def test_lmsr_buy_exact_out_is_direct_cost(self):
        b, q = 100.0, (0.0, 0.0)
        cost = quote_exact_out(Lmsr(b=b), q, None, 0, 10.0)
        assert close(cost, 100.0 * math.log((math.exp(0.1) + 1.0) / 2.0))

    @pytest.mark.parametrize("q, j, dy", [
        ((10.0, 0.0), 0, 1.0),
        ((30.0, 5.0, 60.0), 2, 15.0),
        ((400.0, 0.0, 0.0), 0, 250.0),
    ])
    def test_lmsr_sell_exact_out_round_trips_through_the_cost(self, q, j, dy):
        shares = quote_exact_out(Lmsr(b=100.0), q, j, None, dy)
        dq = [0.0] * len(q)
        dq[j] = -shares
        assert 0.0 < shares <= q[j]
        assert close(-lmsr_trade_cost(100.0, q, dq), dy)

    def test_lmsr_sell_exact_out_stops_at_the_whole_position(self):
        q, j = (30.0, 5.0, 60.0), 2
        max_payout = -lmsr_trade_cost(100.0, q, (0.0, 0.0, -q[j]))
        assert quote_exact_out(Lmsr(b=100.0), q, j, None, max_payout) == q[j]
        with pytest.raises(DepletionError):
            quote_exact_out(Lmsr(b=100.0), q, j, None, max_payout * (1.0 + 1e-9))


# ---------------------------------------------------------------------------
# solve_stableswap_d
# ---------------------------------------------------------------------------


class TestStableswapD:
    @pytest.mark.parametrize("chi", [0.0, 1.0, 10.0, 1e6])
    def test_symmetric_reserves(self, chi):
        assert close(solve_stableswap_d((100.0, 100.0), chi), 200.0)

    def test_chi_zero_constant_product_limit(self):
        assert close(solve_stableswap_d((100.0, 50.0), 0.0), 2.0 * math.sqrt(5000.0))

    def test_chi_huge_constant_sum_limit(self):
        assert close(solve_stableswap_d((100.0, 50.0), 1e6), 150.0, rel=1e-4)

    def test_three_token_symmetric(self):
        assert close(solve_stableswap_d((100.0, 100.0, 100.0), 10.0), 300.0)

    @pytest.mark.parametrize("reserves", [(1e160, 1e160), (1e-300, 1e300), (1e308, 1e308)])
    def test_overflowing_reserves_rejected(self, reserves):
        # the residual's d**n would raise OverflowError
        spec = ConstantProductSum(chi=10.0)
        with pytest.raises(DomainError, match="overflow"):
            solve_stableswap_d(reserves, 10.0)
        with pytest.raises(DomainError, match="overflow"):
            spot_price(spec, reserves, 0, 1)
        with pytest.raises(DomainError, match="overflow"):
            quote_exact_in(spec, reserves, 0, 1, 1.0)

    def test_largest_accepted_reserves(self):
        assert close(solve_stableswap_d((1e150, 1e150), 10.0), 2e150)

    def test_matches_bisection_oracle(self):
        rng = random.Random(7)
        for _ in range(50):
            n = rng.choice([2, 3])
            reserves = tuple(rng.uniform(1.0, 1e4) for _ in range(n))
            chi = rng.choice([0.0, 0.01, 1.0, 10.0, 100.0])
            got = solve_stableswap_d(reserves, chi)
            want = bisect_d(reserves, chi)
            assert close(got, want, rel=1e-10)


# ---------------------------------------------------------------------------
# lmsr_trade_cost
# ---------------------------------------------------------------------------


class TestLmsrTradeCost:
    def test_worked_example(self):
        cost = lmsr_trade_cost(100.0, (0.0, 0.0), (10.0, 0.0))
        assert close(cost, 100.0 * math.log((math.exp(0.1) + 1.0) / 2.0))

    def test_zero_trade(self):
        assert lmsr_trade_cost(100.0, (5.0, 3.0), (0.0, 0.0)) == 0.0

    def test_negative_resulting_quantity_rejected(self):
        with pytest.raises(DomainError):
            lmsr_trade_cost(100.0, (5.0, 3.0), (-6.0, 0.0))

    @given(
        a=st.floats(min_value=0.0, max_value=500.0),
        q0=st.floats(min_value=0.0, max_value=300.0),
        q1=st.floats(min_value=0.0, max_value=300.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_translation_identity(self, a, q0, q1):
        """Buying the same amount of every outcome costs exactly that amount."""
        cost = lmsr_trade_cost(100.0, (q0, q1), (a, a))
        assert math.isclose(cost, a, rel_tol=REL, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# pmm_trade_cost
# ---------------------------------------------------------------------------


class TestPmmTradeCost:
    SPEC = dict(k=0.5, target_reserves=(100.0, 1000.0), adopted_price=10.0)

    def test_k_zero_flat_pricing(self):
        out = pmm_trade_cost(0.0, (100.0, 1000.0), (80.0, 800.0), 10.0, 1, 0, 10.0)
        assert close(out, 1.0)

    def test_buy_output_from_hand_integral(self):
        out = pmm_trade_cost(0.5, (100.0, 1000.0), (80.0, 800.0), 10.0, 1, 0, 112.5)
        assert close(out, 10.0)

    def test_sell_output_from_hand_integral(self):
        out = pmm_trade_cost(0.5, (100.0, 1000.0), (80.0, 800.0), 10.0, 0, 1, 40.0)
        assert close(out, 390.0)

    def test_full_extraction_is_legal_then_errors(self):
        # cost of all 80 base from r0=80: integral of ask over [0, 80]
        full = 10.0 * 80.0 + 0.05 * (20.0 * 80.0 + 80.0**2 / 2.0)
        out = pmm_trade_cost(0.5, (100.0, 1000.0), (80.0, 800.0), 10.0, 1, 0, full)
        assert close(out, 80.0)
        with pytest.raises(DepletionError):
            pmm_trade_cost(0.5, (100.0, 1000.0), (80.0, 800.0), 10.0, 1, 0, full + 1.0)


# ---------------------------------------------------------------------------
# bonding_trade
# ---------------------------------------------------------------------------


class TestBondingTrade:
    def test_mint_step(self):
        assert close(bonding_trade(2.0, 1.0, 10.0, 1.0), 21.0)

    def test_mint_from_zero(self):
        assert close(bonding_trade(2.0, 1.0, 0.0, 10.0), 100.0)

    def test_zero_trade(self):
        assert bonding_trade(2.0, 1.0, 10.0, 0.0) == 0.0

    def test_burn_below_zero_rejected(self):
        with pytest.raises(DomainError):
            bonding_trade(2.0, 1.0, 10.0, -11.0)

    def test_overflow_is_a_domain_error(self):
        with pytest.raises(DomainError, match="overflows"):
            bonding_trade(2.0, 1.0, 1e200, 1.0)
        with pytest.raises(DomainError, match="overflows"):
            bonding_trade(1.0, 1e-300, 1e100, 1e100)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: invariant_value(Exponential(kappa=2.0, c=1.0), (1.0, 1e200)),
            lambda: invariant_value(Exponential(kappa=1.0, c=1.0), (1e-300, 1e100)),
            lambda: spot_price(Exponential(kappa=3.0, c=1.0), (1.0, 1e200), 0, 1),
            lambda: spot_price(Exponential(kappa=3.0, c=1.0), (1.0, 1e-200), 0, 1),
            lambda: quote_exact_in(Exponential(kappa=2.0, c=1.0), (1.0, 1e200), 1, 0, 1.0),
            lambda: quote_exact_in(Exponential(kappa=0.01, c=1.0), (100.0, 1e200), 0, 1, 1e10),
            lambda: quote_exact_out(Exponential(kappa=2.0, c=1.0), (1.0, 1e200), 0, 1, 1.0),
            lambda: quote_exact_out(Exponential(kappa=0.01, c=1.0), (1e10, 1e200), 1, 0, 1.0),
        ],
        ids=["invariant", "invariant-quotient", "spot", "spot-underflow", "sell",
             "buy", "mint", "burn"],
    )
    def test_exponential_overflow_is_a_domain_error(self, call):
        # each of these raised OverflowError (or ZeroDivisionError, for the
        # marginal that underflows to zero) instead of an AmmError
        with pytest.raises(DomainError, match="overflows|leaves the float range"):
            call()

    @given(
        s=st.floats(min_value=0.0, max_value=1e3),
        d=st.floats(min_value=0.0, max_value=1e3),
        kappa=st.sampled_from([1.5, 2.0, 3.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip_uses_one_closed_form(self, s, d, kappa):
        # mint cost and the burn payout that undoes it come from the same
        # closed form; only (s+d)-d rounding can separate them
        up = bonding_trade(kappa, 2.0, s, d)
        down = bonding_trade(kappa, 2.0, s + d, -d)
        assert math.isclose(up, down, rel_tol=1e-12, abs_tol=1e-9)


# ---------------------------------------------------------------------------
# cross-curve properties
# ---------------------------------------------------------------------------

CONSERVATION_CASES = [
    ConstantProduct(),
    GeometricMean(weights=(0.25, 0.75)),
    ConstantSum(),
    ConstantProductSum(chi=10.0),
    ConstantPowerSum(t=0.4),
]


def _random_state(rng):
    return (rng.uniform(10.0, 1e4), rng.uniform(10.0, 1e4))


class TestConservation:
    @pytest.mark.parametrize("spec", CONSERVATION_CASES, ids=lambda s: type(s).__name__)
    def test_zero_fee_trades_preserve_invariant(self, spec):
        rng = random.Random(42)
        for _ in range(300):
            r = _random_state(rng)
            i, j = rng.choice([(0, 1), (1, 0)])
            dx = rng.uniform(1e-4, 0.1) * min(r)
            dy = quote_exact_in(spec, r, i, j, dx)
            after = list(r)
            after[i] += dx
            after[j] -= dy
            assert close(invariant_value(spec, after), invariant_value(spec, r))


class TestInverseConsistency:
    @pytest.mark.parametrize("spec", CONSERVATION_CASES, ids=lambda s: type(s).__name__)
    def test_exact_out_inverts_exact_in(self, spec):
        rng = random.Random(1234)
        for _ in range(100):
            r = _random_state(rng)
            dx = rng.uniform(1e-4, 0.1) * min(r)
            dy = quote_exact_in(spec, r, 0, 1, dx)
            back = quote_exact_out(spec, r, 0, 1, dy)
            assert close(back, dx)

    def test_pmm_exact_out_inverts_exact_in(self):
        spec = PriceAdoption(k=0.5, target_reserves=(100.0, 1000.0))
        rng = random.Random(5)
        for _ in range(100):
            r = (rng.uniform(50.0, 150.0), rng.uniform(500.0, 1500.0))
            dx = rng.uniform(0.01, 10.0)
            for i, j in [(0, 1), (1, 0)]:
                dy = quote_exact_in(spec, r, i, j, dx, adopted_price=10.0)
                back = quote_exact_out(spec, r, i, j, dy, adopted_price=10.0)
                assert close(back, dx)


class TestSpotConsistency:
    def test_marginal_quote_matches_spot(self):
        """quote(eps)/eps agrees with spot_price to 1e-4 at eps = 1e-6*reserve."""
        rng = random.Random(99)
        for spec in CONSERVATION_CASES:
            for _ in range(20):
                r = _random_state(rng)
                eps = 1e-6 * min(r)
                ratio = quote_exact_in(spec, r, 0, 1, eps) / eps
                spot = spot_price(spec, r, 0, 1)
                assert close(ratio, spot, rel=1e-4)

    def test_lmsr_marginal(self):
        b, q = 75.0, (12.0, 40.0, 3.0)
        eps = 1e-6 * b
        payout = quote_exact_in(Lmsr(b=b), q, 0, None, eps)
        assert close(payout / eps, spot_price(Lmsr(b=b), q, 0, None), rel=1e-4)

    def test_pmm_marginal_both_sides(self):
        spec = PriceAdoption(k=0.5, target_reserves=(100.0, 1000.0))
        r = (80.0, 800.0)
        eps = 1e-6 * 100.0
        sell = quote_exact_in(spec, r, 0, 1, eps, adopted_price=10.0)
        assert close(sell / eps, spot_price(spec, r, 0, 1, adopted_price=10.0), rel=1e-4)
        buy = quote_exact_in(spec, r, 1, 0, eps, adopted_price=10.0)
        assert close(buy / eps, spot_price(spec, r, 1, 0, adopted_price=10.0), rel=1e-4)


class TestLimitEquivalences:
    def test_geometric_mean_equal_weights_is_constant_product(self):
        spec = GeometricMean(weights=(0.5, 0.5))
        rng = random.Random(3)
        for _ in range(50):
            r = _random_state(rng)
            dx = rng.uniform(1e-3, 0.1) * min(r)
            assert close(
                quote_exact_in(spec, r, 0, 1, dx), quote_exact_in(CP, r, 0, 1, dx)
            )

    def test_power_sum_small_t_approaches_constant_sum(self):
        spec = ConstantPowerSum(t=1e-9)
        dy = quote_exact_in(spec, (100.0, 60.0), 0, 1, 5.0)
        assert close(dy, 5.0, rel=1e-6)


@dataclass(frozen=True, slots=True)
class ScaledProduct(_Conservation):
    """A ninth conservation curve, defined here alone: c = scale * prod(r_i).
    It prices like constant product, whatever the scale."""

    scale: float

    def value(self, reserves):
        return self.scale * math.prod(reserves)

    def residual(self, original, updated, j, c0):
        known = self.scale * math.prod(v for i, v in enumerate(updated) if i != j)
        return (lambda x: known * x - c0), (lambda x: known)

    def spot(self, reserves, token_in, token_out, adopted_price=None):
        return reserves[token_out] / reserves[token_in]


class TestNinthCurve:
    """A curve needs only its class: the public functions price it."""

    SPEC = ScaledProduct(scale=3.0)

    def test_quotes_and_spot_match_the_closed_form(self):
        r = (100.0, 250.0)
        assert close(invariant_value(self.SPEC, r), 3.0 * 25000.0)
        assert close(spot_price(self.SPEC, r, 0, 1), 2.5)
        assert close(quote_exact_in(self.SPEC, r, 0, 1, 10.0), cp_out(100.0, 250.0, 10.0))
        # exact out: dx = r_in * dy / (r_out - dy)
        assert close(quote_exact_out(self.SPEC, r, 0, 1, 50.0), 100.0 * 50.0 / 200.0)
        assert close(quote_exact_out(self.SPEC, r, 1, 0, 20.0), 250.0 * 20.0 / 80.0)

    def test_shared_checks_apply(self):
        with pytest.raises(DepletionError):
            quote_exact_out(self.SPEC, (100.0, 250.0), 0, 1, 250.0)
        with pytest.raises(DomainError):
            quote_exact_in(self.SPEC, (0.0, 250.0), 0, 1, 1.0)
        with pytest.raises(DomainError):
            spot_price(self.SPEC, (100.0, 250.0), None, 1)
        assert ScaledProduct not in CURVES


class TestKnownLevel:
    """Pricing at a known conservation level agrees with pricing that solves
    for it, on every state that fee-free trades reach from the state the
    level was computed at."""

    @given(
        n=st.sampled_from([2, 3]),
        chi=st.sampled_from([0.0, 0.01, 0.5, 2.0, 10.0, 1000.0]),
        reserves=st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=3, max_size=3),
        trades=st.lists(
            st.tuples(
                st.integers(0, 2),
                st.integers(0, 1),
                st.booleans(),
                st.floats(min_value=1e-4, max_value=0.5),
            ),
            max_size=8,
        ),
    )
    @settings(derandomize=True, max_examples=150, deadline=None)
    def test_product_sum_at_its_level(self, n, chi, reserves, trades):
        spec = ConstantProductSum(chi=chi)
        state = tuple(reserves[:n])
        level = invariant_value(spec, state)
        for first, offset, exact_in, fraction in [(0, 0, True, 0.01), *trades]:
            i, j = first % n, (first + 1 + offset % (n - 1)) % n
            spot = spot_price(spec, state, i, j)
            assert math.isclose(spot_price(spec, state, i, j, level=level), spot, rel_tol=1e-12)
            # a quote is a difference of reserves (out = r_j - x*), so its
            # rounding is relative to the reserve it moves, not to itself
            quote_fn = quote_exact_in if exact_in else quote_exact_out
            amount = fraction * state[i if exact_in else j]
            try:
                want = quote_fn(spec, state, i, j, amount)
            except DepletionError:  # a near-sum pool runs dry: so must the bound quote
                with pytest.raises(DepletionError):
                    quote_fn(spec, state, i, j, amount, level=level)
                continue
            got = quote_fn(spec, state, i, j, amount, level=level)
            if exact_in:
                paid, received, moved = amount, got, state[j]
            else:
                paid, received, moved = got, amount, state[i]
            assert abs(got - want) <= 1e-12 * max(abs(want), moved)
            after = list(state)
            after[i] += paid
            after[j] -= received
            state = tuple(after)

    def test_a_level_keeps_the_reserve_checks(self):
        spec = ConstantProductSum(chi=10.0)
        with pytest.raises(DomainError, match="strictly positive"):
            quote_exact_in(spec, (0.0, 100.0), 0, 1, 1.0, level=200.0)
        with pytest.raises(DomainError, match="strictly positive"):
            quote_exact_out(spec, (0.0, 100.0), 0, 1, 1.0, level=200.0)
        with pytest.raises(DomainError, match="strictly positive"):
            spot_price(spec, (0.0, 100.0), 0, 1, level=200.0)

    @pytest.mark.parametrize("spec", CONSERVATION_CASES, ids=lambda s: type(s).__name__)
    def test_the_computed_level_changes_nothing(self, spec):
        r = (120.0, 80.0)
        level = invariant_value(spec, r)
        assert quote_exact_in(spec, r, 0, 1, 5.0, level=level) == quote_exact_in(spec, r, 0, 1, 5.0)
        assert quote_exact_out(spec, r, 0, 1, 5.0, level=level) == quote_exact_out(spec, r, 0, 1, 5.0)
        assert spot_price(spec, r, 0, 1, level=level) == spot_price(spec, r, 0, 1)

    def test_curves_without_a_level_ignore_it(self):
        lmsr = Lmsr(b=100.0)
        assert quote_exact_in(lmsr, (0.0, 0.0), None, 0, 5.0, level=1.0) == quote_exact_in(
            lmsr, (0.0, 0.0), None, 0, 5.0
        )
        assert spot_price(lmsr, (10.0, 0.0), 0, None, level=1.0) == spot_price(
            lmsr, (10.0, 0.0), 0, None
        )
        assert spot_price(ScaledProduct(scale=3.0), (100.0, 250.0), 0, 1, level=1.0) == 2.5


class TestStateAtSpot:
    """`state_at_spot` inverts the spot: at the state it returns the spot is
    the asked price, the conservation value is the level it started on, and
    only the two traded legs moved."""

    @given(
        curve=st.sampled_from(["product", "product-sum"]),
        n=st.sampled_from([2, 3]),
        chi=st.sampled_from([0.0, 0.01, 0.5, 2.0, 10.0, 1000.0]),
        reserves=st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=3, max_size=3),
        legs=st.sampled_from([(0, 1), (1, 0), (2, 0), (1, 2)]),
        log_move=st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_conservation_curves(self, curve, n, chi, reserves, legs, log_move):
        spec = ConstantProduct() if curve == "product" else ConstantProductSum(chi=chi)
        state = tuple(reserves[:n])
        i, j = (leg % n for leg in legs)
        if i == j:
            j = (i + 1) % n
        level = invariant_value(spec, state)
        price = spot_price(spec, state, i, j) * math.exp(log_move)
        target = spec.state_at_spot(state, i, j, price, level)
        if target is None:
            # only where the crossing leaves the positive quadrant: with the
            # leg the move empties drained to 1e-9 of itself, the spot is
            # still short of the price
            assert curve == "product-sum" and chi > 0.0
            drained, paying = (i, j) if log_move > 0.0 else (j, i)
            out = state[drained] * (1.0 - 1e-9)
            edge = list(state)
            edge[paying] += quote_exact_out(spec, state, paying, drained, out)
            edge[drained] -= out
            assert (spot_price(spec, edge, i, j) - price) * log_move <= 0.0
            return
        assert all(target[k] == state[k] for k in range(n) if k not in (i, j))
        assert math.isclose(spot_price(spec, target, i, j), price, rel_tol=1e-9)
        assert math.isclose(invariant_value(spec, target), level, rel_tol=1e-10)

    @given(
        kappa=st.one_of(st.floats(0.2, 0.9), st.floats(1.1, 4.0)),
        c=st.floats(0.1, 10.0),
        supply=st.floats(1e-2, 1e4),
        sell=st.booleans(),
        log_move=st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_exponential(self, kappa, c, supply, sell, log_move):
        spec = Exponential(kappa=kappa, c=c)
        state = (supply**kappa / c, supply)
        i, j = (1, 0) if sell else (0, 1)
        price = spot_price(spec, state, i, j) * math.exp(log_move)
        target = spec.state_at_spot(state, i, j, price)
        assert math.isclose(spot_price(spec, target, i, j), price, rel_tol=1e-9)
        assert math.isclose(invariant_value(spec, target), c, rel_tol=1e-12)

    @pytest.mark.parametrize(
        "spec,reserves,legs,price",
        [
            (GeometricMean(weights=(0.2, 0.8)), (100.0, 100.0), (0, 1), 2.0),
            (CS, (100.0, 100.0), (0, 1), 2.0),
            (ConstantPowerSum(t=0.5), (100.0, 100.0), (0, 1), 2.0),
            (PriceAdoption(k=0.5, target_reserves=(100.0, 1000.0)), (100.0, 1000.0), (0, 1), 5.0),
            (Lmsr(b=100.0), (0.0, 0.0), (None, 0), 2.0),
            (Exponential(kappa=1.0, c=2.0), (5.0, 10.0), (0, 1), 3.0),
            # chi 10 at (100, 100): the spot stays below about 1.1 however far it moves
            (ConstantProductSum(chi=10.0), (100.0, 100.0), (0, 1), 2.0),
        ],
        ids=["geometric-mean", "sum", "power-sum", "adoption", "lmsr", "kappa-1", "past-the-edge"],
    )
    def test_no_closed_form_state(self, spec, reserves, legs, price):
        assert spec.state_at_spot(reserves, *legs, price) is None


class TestLmsrPriceLaws:
    @given(
        q0=st.floats(min_value=0.0, max_value=400.0),
        q1=st.floats(min_value=0.0, max_value=400.0),
        q2=st.floats(min_value=0.0, max_value=400.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_prices_sum_to_one(self, q0, q1, q2):
        spec = Lmsr(b=100.0)
        prices = [spot_price(spec, (q0, q1, q2), j, None) for j in range(3)]
        assert all(0.0 < p < 1.0 for p in prices)
        assert abs(sum(prices) - 1.0) <= 1e-12

    def test_buy_inversion_matches_closed_form(self):
        rng = random.Random(11)
        for _ in range(100):
            b = rng.uniform(10.0, 500.0)
            q = (rng.uniform(0.0, 300.0), rng.uniform(0.0, 300.0))
            spend = rng.uniform(1e-3, 50.0)
            got = quote_exact_in(Lmsr(b=b), q, None, 0, spend)
            assert close(got, lmsr_buy_closed(b, q, 0, spend))


class TestCurveSpecDomains:
    @pytest.mark.parametrize(
        "build",
        [
            lambda: GeometricMean(weights=(math.nan, 0.5)),
            lambda: GeometricMean(weights=(math.inf, 0.5)),
            lambda: ConstantProductSum(chi=math.inf),
            lambda: ConstantProductSum(chi=math.nan),
            lambda: ConstantPowerSum(t=math.nan),
            lambda: Lmsr(b=math.inf),
            lambda: Lmsr(b=math.nan),
            lambda: PriceAdoption(k=math.nan, target_reserves=(1.0, 1.0)),
            lambda: PriceAdoption(k=0.5, target_reserves=(math.inf, 1.0)),
            lambda: PriceAdoption(k=0.5, target_reserves=(1.0, math.nan)),
            lambda: Exponential(kappa=math.inf, c=1.0),
            lambda: Exponential(kappa=2.0, c=math.inf),
            lambda: Exponential(kappa=math.nan, c=1.0),
        ],
    )
    def test_non_finite_parameters_rejected(self, build):
        with pytest.raises(DomainError):
            build()

    def test_curve_table_names_are_unique(self):
        assert len({c.spec_name for c in CURVES}) == len(CURVES)
        assert len({c.label for c in CURVES}) == len(CURVES)

    def test_weights_must_sum_to_one(self):
        with pytest.raises(DomainError):
            GeometricMean(weights=(0.5, 0.6))

    def test_weights_must_be_positive(self):
        with pytest.raises(DomainError):
            GeometricMean(weights=(1.2, -0.2))

    def test_one_weight_per_reserve(self):
        spec = GeometricMean(weights=(0.5, 0.5))
        for call in (
            lambda r: invariant_value(spec, r),
            lambda r: spot_price(spec, r, 0, 1),
            lambda r: quote_exact_in(spec, r, 0, 1, 1.0),
        ):
            with pytest.raises(DomainError, match="2 weights for 3 reserves"):
                call((100.0, 100.0, 100.0))

    def test_chi_nonnegative(self):
        with pytest.raises(DomainError):
            ConstantProductSum(chi=-1.0)

    def test_power_sum_t_domain(self):
        with pytest.raises(DomainError):
            ConstantPowerSum(t=1.0)
        with pytest.raises(DomainError):
            ConstantPowerSum(t=-0.1)

    def test_lmsr_b_positive(self):
        with pytest.raises(DomainError):
            Lmsr(b=0.0)

    def test_pmm_k_domain(self):
        with pytest.raises(DomainError):
            PriceAdoption(k=1.5, target_reserves=(1.0, 1.0))

    def test_exponential_domains(self):
        with pytest.raises(DomainError):
            Exponential(kappa=0.0, c=1.0)
        with pytest.raises(DomainError):
            Exponential(kappa=2.0, c=0.0)
