"""Pricing-curve tests.

Every quote is a closed form.  The hand-derived formulas below, once
independent oracles for a root solver, now restate the production formulas
in another arrangement (`cp_out` is constant product's exact-in, `gm_out`
geometric mean's): they catch a wrong formula, not its rounding.

    constant product   dy = r_out - (r_in * r_out) / (r_in + dx)
    geometric mean     x_out' = (c0 / prod_known(r^w))^(1/w_out)
    constant sum       dy = dx
    product-sum        D from an independent pure-bisection solver
    power sum          x_out' = (c0 - sum_known(r^(1-t)))^(1/(1-t))
    LMSR               share buy inverted in closed log form
    price adoption     piecewise-quadratic integrals done by hand
    bonding            r(S) = S^kappa / c evaluated directly

The independent check of each closed form is `TestExactOracle`: the same
quote evaluated exactly, with `fractions.Fraction` or `decimal` at 50
digits, on fixed-seed float inputs."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ammlab import curves
from ammlab.core import DepletionError, DomainError, SolverError, UnsupportedOperation
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


def exact_d(reserves, chi):
    """D at 60 digits from the float inputs: for two tokens the positive
    root of (chi + 1/4)*D^2 - chi*s*D - x*y = 0 by the quadratic formula,
    for more bisection on the AM-GM bracket down to 2^-220 of it."""
    with localcontext() as ctx:
        ctx.prec = 60
        x = [Decimal(r) for r in reserves]
        n, c, s, p = len(x), Decimal(chi), sum(x), math.prod(x)
        if n == 2:
            a = c + Decimal("0.25")
            return (c * s + (c * c * s * s + 4 * a * p).sqrt()) / (2 * a)
        lo, hi = n * p ** (Decimal(1) / n), s
        if chi == 0.0:
            return lo
        for _ in range(220):
            mid = (lo + hi) / 2
            if c * mid ** (n - 1) * s + p - c * mid**n - (mid / n) ** n >= 0:
                lo = mid
            else:
                hi = mid
        return (lo + hi) / 2


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

    def test_lmsr_negative_shares_rejected(self):
        with pytest.raises(DomainError, match=r"^reserves must be finite and non-negative: \(0\.0, -1\.0\)$"):
            invariant_value(Lmsr(b=100.0), (0.0, -1.0))

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

    @pytest.mark.parametrize(
        "spec",
        [CP, GeometricMean(weights=(0.5, 0.5)), ConstantPowerSum(t=0.5)],
        ids=lambda s: type(s).__name__,
    )
    @pytest.mark.parametrize("legs", [(0, 1), (1, 0)], ids=["to-inf", "to-zero"])
    def test_conservation_spot_past_the_float_range_is_a_domain_error(self, spec, legs):
        # 1e300 / 1e-300 was returned as inf one way and 0.0 the other
        with pytest.raises(DomainError, match="spot price leaves the float range"):
            spot_price(spec, (1e-300, 1e300), *legs)

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
        "spec, reserves, dx, out",
        [
            (CS, (1.0, 1.0, 1e308), 1e308, DepletionError),
            (ConstantPowerSum(t=0.0), (1.0, 1.0, 1e308), 1e308, DepletionError),
            (ConstantProductSum(chi=1.0), (1e100, 1e100, 1e100), 1e300, DepletionError),
            (CP, (1e200, 1e-200, 1e200), 1e200, 5e-201),
        ],
        ids=["sum", "power-sum", "product-sum", "product"],
    )
    def test_overflowing_residual_rejected(self, spec, reserves, dx, out):
        """The conservation value is finite, but the known reserves of the
        post-trade state overflow a float.  A solved residual summed or
        multiplied them: math.fsum raised OverflowError, and an infinite
        product gave 7.5e-201 for the product case.  The closed forms never
        form those terms: the product case pays its exact 5e-201, and the
        others ask for more of token 1 than the pool holds."""
        if out is DepletionError:
            with pytest.raises(DepletionError, match="drain more"):
                quote_exact_in(spec, reserves, 0, 1, dx)
        else:
            assert quote_exact_in(spec, reserves, 0, 1, dx) == out

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

    @pytest.mark.parametrize(
        "b, q, j, sold, paid",
        [
            # the difference of two costs paid -3.64e-12 and 1.137e-13 here
            (26540.62049289867, (0.0, 0.0, 1.2016504291695096), 2, 8.325743341137915e-12,
             2.7753315489018929536e-12),
            (20.767627074713978, (631.9097580522166, 0.44203954594367206, 0.0), 1, 0.4,
             2.4693045908746939552e-14),
        ],
    )
    def test_lmsr_small_sale_below_the_spacing_of_the_cost(self, b, q, j, sold, paid):
        # paid: -b*ln(1 + p_j*(e^(-sold/b) - 1)) at 60 digits
        assert close(quote_exact_in(Lmsr(b=b), q, j, None, sold), paid, rel=1e-15)

    def test_lmsr_trades_past_the_float_range_of_expm1(self):
        # a buy of 1000*b shares and a sale of a leading outcome's 800*b:
        # each moves C(q) by about the shares, less the outcome's log odds
        spec = Lmsr(b=1.0)
        assert close(quote_exact_out(spec, (0.0, 0.0), None, 0, 1000.0), 1000.0 - math.log(2.0))
        assert close(quote_exact_in(spec, (800.0, 0.0), 0, None, 800.0), 800.0 - math.log(2.0))
        # an outcome trailing by 800*b, priced below the float range
        assert close(quote_exact_out(spec, (800.0, 0.0), None, 1, 801.0), math.log1p(math.e))

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

    def test_price_adoption_sale_past_the_zero_bid_pays_nothing(self):
        # the bid is zero from 1.5e-10 up; at 1e300 its unclamped affine
        # price is past the float range, and nothing of it may leak in
        spec = PriceAdoption(k=1.0, target_reserves=(1e-10, 1.0))
        assert quote_exact_in(spec, (1e300, 1.0), 0, 1, 1.0, adopted_price=1.0) == 0.0

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

    def test_price_adoption_cost_past_the_float_range_is_a_domain_error(self):
        # 1e300 units at par for 1e300 each: the cost was returned as inf
        spec = PriceAdoption(k=0.5, target_reserves=(1.0, 1.0))
        with pytest.raises(DomainError, match="overflows a float"):
            quote_exact_out(spec, (2e300, 1.0), 1, 0, 1e300, adopted_price=1e300)

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
        # the most the position pays is what selling all of it pays
        q, j = (30.0, 5.0, 60.0), 2
        max_payout = quote_exact_in(Lmsr(b=100.0), q, j, None, q[j])
        assert close(max_payout, -lmsr_trade_cost(100.0, q, (0.0, 0.0, -q[j])))
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

    @given(
        log_x=st.floats(-20.0, 20.0),
        log_imbalance=st.floats(-15.0, 15.0),
        log_chi=st.one_of(st.none(), st.floats(-10.0, 10.0)),
    )
    @settings(derandomize=True, max_examples=500, deadline=None)
    def test_two_tokens_in_closed_form(self, log_x, log_imbalance, log_chi):
        """Two-token D against its 60-digit root, chi = 0 where log_chi is
        None: bound 1e-15; worst 4.3e-16 over 20,000 seeded states."""
        reserves = (math.exp(log_x), math.exp(log_x + log_imbalance))
        chi = 0.0 if log_chi is None else math.exp(log_chi)
        assert _rel_err(solve_stableswap_d(reserves, chi), exact_d(reserves, chi)) <= 1e-15

    def test_three_tokens_to_rounding(self):
        """Newton stops relative to D, however small D is: bound 2e-15;
        worst 1.3e-15 over 3,000 states of this seed (reserves e^-25 to e^5)."""
        rng = random.Random(11)
        worst = 0.0
        for _ in range(300):
            reserves = tuple(math.exp(rng.uniform(-25.0, 5.0)) for _ in range(3))
            chi = rng.choice([0.0, 0.001, 0.1, 1.0, 10.0, 1000.0])
            worst = max(worst, _rel_err(solve_stableswap_d(reserves, chi), exact_d(reserves, chi)))
        assert worst <= 2e-15

    @pytest.mark.parametrize("reserves", [(3e-9, 1e-15), (3e-9, 1e-15, 1e-12)])
    def test_d_far_below_one(self, reserves):
        """A Newton stop absolute below D = 1 left these 8.5e-5 and 8.0e-6
        off; both are now exact to rounding."""
        assert _rel_err(solve_stableswap_d(reserves, 0.001), exact_d(reserves, 0.001)) <= 1e-15

    @given(
        n=st.integers(3, 8),
        log_chi=st.floats(math.log(1e-13), math.log(1e-9)),
        log_x=st.lists(st.floats(-20.0, 20.0), min_size=8, max_size=8),
    )
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_small_chi_far_apart_reserves(self, n, log_chi, log_x):
        """Small chi and reserves far apart, where Newton on the invariant's
        polynomial from D = sum(x) crawled and then bisected (4.45e-13 off
        on 800 states): bound 1e-15; worst 3.7e-16 over those 800."""
        reserves = tuple(math.exp(v) for v in log_x[:n])
        chi = math.exp(log_chi)
        assert _rel_err(solve_stableswap_d(reserves, chi), exact_d(reserves, chi)) <= 1e-15

    @pytest.mark.parametrize("reserves", [(1e-120,) * 3, (1e-110,) * 4, (1e100,) * 3])
    def test_chi_zero_where_the_product_leaves_the_float_range(self, reserves):
        """chi = 0 once took n*prod(x)^(1/n): the product underflows to 0
        at the first two (D = 0.0), and the third's root of 1e300 lost
        1.3e-14 to the rounding of 1/n.  P now comes from the reserves'
        mantissas and exponents, as for chi > 0, and the root from P's
        mantissa alone."""
        assert _rel_err(solve_stableswap_d(reserves, 0.0), exact_d(reserves, 0.0)) <= 1e-15

    @given(n=st.integers(3, 8), spread=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8))
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_chi_zero_to_rounding(self, n, spread):
        """chi = 0 over reserves from e^-700 up to the overflow guard:
        bound 1e-15; worst 2.4e-16 over 20,000 seeded states of 3 to 8
        reserves from e^-744."""
        top = math.log(1.79e308) / n - math.log(n)
        reserves = tuple(math.exp(-700.0 + f * (top + 700.0)) for f in spread[:n])
        try:
            d = solve_stableswap_d(reserves, 0.0)
        except DomainError:  # rounded past the overflow guard
            return
        assert _rel_err(d, exact_d(reserves, 0.0)) <= 1e-15

    @given(
        n=st.integers(3, 8),
        log_chi=st.floats(math.log(1e-300), math.log(1e300)),
        spread=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8),
    )
    @settings(derandomize=True, max_examples=1000, deadline=None)
    def test_converges_within_seven_steps(self, n, log_chi, spread):
        """Newton in ln D needs at most 7 steps from its start: the most
        taken over 60,000 seeded states of 3 to 12 tokens, chi from 5e-324
        to 1.7e308 and reserves from 5e-324 up to where the overflow guard
        refuses them.  Bound: with the cap at 7, no admitted state of chi
        1e-300 to 1e300 raises SolverError."""
        chi = math.exp(log_chi)
        top = (math.log(1.79e308) - math.log1p(chi)) / n - math.log(n)
        reserves = tuple(math.exp(-690.0 + f * (top + 690.0)) for f in spread[:n])
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(curves, "NEWTON_MAX_ITER", 7)
            try:
                d = solve_stableswap_d(reserves, chi)
            except DomainError:  # rounded past the overflow guard
                return
        assert 0.0 < d <= math.fsum(reserves) * (1.0 + 1e-15)

    def test_two_tokens_run_no_newton(self, monkeypatch):
        """With Newton allowed no iteration, two-token D is
        still the closed form, and so are the quotes and the spot that
        read it; only three or more tokens raise SolverError."""
        want = solve_stableswap_d((100.0, 50.0), 10.0)
        monkeypatch.setattr(curves, "NEWTON_MAX_ITER", 0)
        spec = ConstantProductSum(chi=10.0)
        assert solve_stableswap_d((100.0, 50.0), 10.0) == invariant_value(spec, (100.0, 50.0)) == want
        assert spot_price(spec, (100.0, 50.0), 0, 1) > 0.0
        assert quote_exact_in(spec, (100.0, 50.0), 0, 1, 5.0) > 0.0
        assert quote_exact_out(spec, (100.0, 50.0), 0, 1, 5.0) > 0.0
        with pytest.raises(SolverError):
            solve_stableswap_d((100.0, 50.0, 20.0), 10.0)

    def test_product_sum_keeps_the_reserve_checks(self):
        spec = ConstantProductSum(chi=10.0)
        with pytest.raises(DomainError, match="strictly positive"):
            quote_exact_in(spec, (0.0, 100.0), 0, 1, 1.0)
        with pytest.raises(DomainError, match="strictly positive"):
            quote_exact_out(spec, (0.0, 100.0), 0, 1, 1.0)
        with pytest.raises(DomainError, match="strictly positive"):
            spot_price(spec, (0.0, 100.0), 0, 1)

    def test_underflowing_outside_reserves_rejected(self):
        """The offset divides by the product of the reserves outside the
        trade; where that product underflows to 0 the state is refused."""
        spec = ConstantProductSum(chi=10.0)
        reserves = (1e-200, 1e-200, 1.0, 1.0)
        for call in (
            lambda: spot_price(spec, reserves, 2, 3),
            lambda: quote_exact_in(spec, reserves, 2, 3, 0.1),
            lambda: quote_exact_out(spec, reserves, 2, 3, 0.1),
        ):
            with pytest.raises(DomainError, match="underflow"):
                call()

    @pytest.mark.parametrize("tiny", [1e-160, 1e-150])
    def test_an_overflowing_offset_prices_the_constant_sum_limit(self, tiny):
        """At 1e-160 the reserves outside the trade multiply to a subnormal
        and the offset b overflows to inf; the curve is then priced as the
        line it tends to, as at 1e-150, where b is finite but dwarfs the
        traded reserves.  The depletion checks still apply."""
        spec = ConstantProductSum(chi=10.0)
        reserves = (tiny, tiny, 1.0, 1.0)
        assert math.isinf(spec.offset(reserves, 2, 3, None)) == (tiny == 1e-160)
        assert spot_price(spec, reserves, 2, 3) == 1.0
        assert quote_exact_in(spec, reserves, 2, 3, 0.1) == 0.1
        assert quote_exact_out(spec, reserves, 2, 3, 0.1) == 0.1
        assert spec.state_at_spot(reserves, 2, 3, 2.0) is None
        with pytest.raises(DepletionError):
            quote_exact_in(spec, reserves, 2, 3, 1.0)
        with pytest.raises(DepletionError):
            quote_exact_out(spec, reserves, 2, 3, 1.5)


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

    @pytest.mark.parametrize(
        "b,q,dq",
        [
            # a sale of 8.3e-12 shares, which the difference of two costs of
            # about 29,000 read as +3.64e-12, a payment
            (26540.62049289867, (0.0, 0.0, 1.2016504291695096), (0.0, 0.0, -8.325743341137915e-12)),
            # a sale worth 2.5e-14 that the difference read as 1.1e-13
            (20.767627074713978, (631.9097580522166, 0.44203954594367206, 0.0), (0.0, -0.4, 0.0)),
            (100.0, (5.0, 3.0, 0.0), (0.0, 0.0, 1e-12)),
        ],
        ids=["tiny-sale", "trailing-sale", "tiny-buy"],
    )
    def test_one_outcome_is_its_closed_form(self, b, q, dq):
        """A delta on one outcome is priced as its buy or sale, to 1e-14 of
        the exact C(q + dq) - C(q) at 50 digits."""
        j = next(k for k, d in enumerate(dq) if d)
        with localcontext() as ctx:
            ctx.prec = 50
            weights = [(Decimal(qi) / Decimal(b)).exp() for qi in q]
            exact = _lmsr_move(b, weights, j, dq[j])
        assert _rel_err(lmsr_trade_cost(b, q, dq), exact) <= 1e-14

    def test_a_basket_is_a_difference_of_costs(self):
        """A delta on several outcomes stays C(q + dq) - C(q), exact to a
        few dozen ulps of C(q): 1e-13 of each of three outcomes at b 100
        costs 3e-13, read as about 9.9e-14.  Translation invariance
        (criterion 05, the probe's basket) is measured on this form, not
        assumed, so a uniform basket is not special-cased."""
        b, q, dq = 100.0, (0.0, 0.0, 0.0), (1e-13,) * 3
        cost = lmsr_trade_cost(b, q, dq)
        assert cost != 3e-13
        assert abs(cost - 3e-13) <= 32.0 * math.ulp(b * math.log(3.0))

    @given(
        a=st.floats(min_value=0.0, max_value=500.0),
        q0=st.floats(min_value=0.0, max_value=300.0),
        q1=st.floats(min_value=0.0, max_value=300.0),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
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

    def test_extraction_short_of_the_whole_reserve_is_legal_then_errors(self):
        # cost of all 80 base from r0=80: integral of ask over [0, 80]; a
        # price-adoption pool is never drained, so that cost and more is
        # refused, and one unit less buys all but 1/15 of a unit (the ask
        # at an empty reserve is 10 * (1 + 0.5) = 15)
        full = 10.0 * 80.0 + 0.05 * (20.0 * 80.0 + 80.0**2 / 2.0)
        out = pmm_trade_cost(0.5, (100.0, 1000.0), (80.0, 800.0), 10.0, 1, 0, full - 1.0)
        assert close(out, 80.0 - 1.0 / 15.0, rel=1e-4) and out < 80.0
        for dx in (full, full + 1.0):
            with pytest.raises(DepletionError):
                pmm_trade_cost(0.5, (100.0, 1000.0), (80.0, 800.0), 10.0, 1, 0, dx)
        # from r0=10, whose 10 base cost 147.5, one float less rounds to all 10
        with pytest.raises(DepletionError):
            pmm_trade_cost(0.5, (100.0, 1000.0), (10.0, 800.0), 10.0, 1, 0, math.nextafter(147.5, 0.0))


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

    def test_a_small_trade_is_priced_to_its_own_size(self):
        # a difference of two powers read 2.6000009e-08, 3.6e-7 off
        exact = (13 + Fraction(1e-9)) ** 2 - 13**2
        assert _rel_err(bonding_trade(2.0, 1.0, 13.0, 1e-9), exact) <= 1e-15

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
            # on the curve: the reserve 1e-600 that the supply bonds underflows to 0
            lambda: spot_price(Exponential(kappa=3.0, c=1.0), (0.0, 1e-200), 0, 1),
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
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_round_trip_uses_one_closed_form(self, s, d, kappa):
        # mint cost and the burn payout that undoes it are one expression:
        # both read r(s + d) down by d
        up = bonding_trade(kappa, 2.0, s, d)
        down = bonding_trade(kappa, 2.0, s + d, -d)
        assert up == down


class TestExponentialOffTheCurve:
    """A (reserve, supply) state is priced at its own point, on the curve
    R * (S' / S)**kappa through it, whether or not its reserve is S**kappa /
    c: its two legs read one point of one curve.  c is read only at zero
    supply.  A nan, negative or half-empty state has no price."""

    SPEC = Exponential(kappa=2.0, c=1.0)

    @pytest.mark.parametrize(
        "call,exact",
        [
            # was -4.95: 100 read through supply_at, a supply of 5 through bonding_trade
            (lambda spec: quote_exact_out(spec, (100.0, 5.0), 1, 0, 1.0),
             5 * (1 - Decimal("0.99").sqrt())),
            (lambda spec: quote_exact_out(spec, (100.0, 5.0), 0, 1, 1.0), Decimal(44)),
            (lambda spec: quote_exact_in(spec, (100.0, 5.0), 0, 1, 1.0),
             5 * (Decimal("1.01").sqrt() - 1)),
            (lambda spec: quote_exact_in(spec, (100.0, 5.0), 1, 0, 1.0), Decimal(36)),
            (lambda spec: spot_price(spec, (100.0, 5.0), 1, 0), Decimal(40)),
            (lambda spec: spot_price(spec, (1.0, 5.0), 0, 1), Decimal("2.5")),
        ],
        ids=["burn", "mint", "buy", "sell", "spot-sell", "spot-buy"],
    )
    def test_priced_at_its_own_point(self, call, exact):
        with localcontext() as ctx:
            ctx.prec = 50
            assert _rel_err(call(self.SPEC), exact) <= 1e-15

    def test_c_is_read_only_at_zero_supply(self):
        # every price of a state with supply is the same bits under any c
        rng = random.Random(19)
        for _ in range(200):
            kappa = rng.choice([0.5, 1.0, 2.0, 3.0])
            state = (_log_uniform(rng, 1e-3, 1e6), _log_uniform(rng, 1e-3, 1e6))
            a = Exponential(kappa=kappa, c=1.0)
            b = Exponential(kappa=kappa, c=_log_uniform(rng, 0.1, 10.0))
            amount = _log_uniform(rng, 1e-9, 0.9) * min(state)
            for legs in ((0, 1), (1, 0)):
                assert spot_price(a, state, *legs) == spot_price(b, state, *legs)
                assert quote_exact_in(a, state, *legs, amount) == quote_exact_in(b, state, *legs, amount)
                assert quote_exact_out(a, state, *legs, amount) == quote_exact_out(b, state, *legs, amount)
            if kappa != 1.0:
                price = spot_price(a, state, 0, 1) * 2.0
                assert a.state_at_spot(state, 0, 1, price) == b.state_at_spot(state, 0, 1, price)
        assert quote_exact_in(Exponential(kappa=2.0, c=4.0), (0.0, 0.0), 0, 1, 1.0) == 2.0

    @pytest.mark.parametrize(
        "call",
        [
            lambda spec: spot_price(spec, (math.nan, 5.0), 0, 1),
            lambda spec: spot_price(spec, (25.0, math.nan), 0, 1),
            lambda spec: quote_exact_in(spec, (-1.0, 5.0), 0, 1, 1.0),
            lambda spec: quote_exact_in(spec, (25.0, -5.0), 1, 0, 1.0),
            # half empty: a reserve behind no supply, or a supply behind no reserve
            lambda spec: quote_exact_in(spec, (25.0, 0.0), 0, 1, 1.0),
            lambda spec: quote_exact_out(spec, (25.0, 0.0), 1, 0, 1.0),
            lambda spec: quote_exact_in(spec, (0.0, 5.0), 1, 0, 1.0),
            lambda spec: spot_price(spec, (0.0, 5.0), 1, 0),
        ],
    )
    def test_refused(self, call):
        with pytest.raises(DomainError):
            call(self.SPEC)

    def test_on_the_curve_to_rounding(self):
        spec = Exponential(kappa=3.0, c=7.0)
        rng = random.Random(12)
        for _ in range(200):
            supply = _log_uniform(rng, 1e-3, 1e6)
            reserve = _log_uniform(rng, 1e-3, 1e6)
            for state in ((supply**3.0 / 7.0, supply), (supply**3.0 / 7.0 * (1 + 1e-12), supply),
                          (reserve, spec.supply_at(reserve))):
                assert quote_exact_out(spec, state, 1, 0, 0.5 * state[0]) > 0.0
                assert spot_price(spec, state, 1, 0) > 0.0
        assert quote_exact_in(spec, (0.0, 0.0), 0, 1, 1.0 / 7.0) == pytest.approx(1.0, rel=1e-15)


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

    def marginal(self, reserves, i, j):
        return reserves[j] / reserves[i]

    def out_given_in(self, reserves, i, j, dx, value):
        return reserves[j] * dx / (reserves[i] + dx)

    def in_given_out(self, reserves, i, j, dy, value):
        return reserves[i] * dy / (reserves[j] - dy)


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
    """A fee-free trade keeps the state on the conservation level computed
    where it started: the value computed afresh at every state that trades
    reach is that level, to the rounding of the reserves.  So a price that
    reads the value of the state it prices agrees with one read at the
    opening level."""

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
            quote_fn = quote_exact_in if exact_in else quote_exact_out
            amount = fraction * state[i if exact_in else j]
            try:
                got = quote_fn(spec, state, i, j, amount)
            except DepletionError:  # a near-sum pool runs dry
                continue
            paid, received = (amount, got) if exact_in else (got, amount)
            after = list(state)
            after[i] += paid
            after[j] -= received
            state = tuple(after)
            assert math.isclose(invariant_value(spec, state), level, rel_tol=1e-12)

    @pytest.mark.parametrize("spec", CONSERVATION_CASES, ids=lambda s: type(s).__name__)
    def test_the_computed_level_changes_nothing(self, spec):
        """Neither trade direction moves the level the value reads."""
        r = (120.0, 80.0)
        level = invariant_value(spec, r)
        got = quote_exact_in(spec, r, 0, 1, 5.0)
        assert math.isclose(invariant_value(spec, (125.0, 80.0 - got)), level, rel_tol=1e-14)
        paid = quote_exact_out(spec, r, 0, 1, 5.0)
        assert math.isclose(invariant_value(spec, (120.0 + paid, 75.0)), level, rel_tol=1e-14)


class TestStateAtSpot:
    """`state_at_spot` inverts the spot: at the state it returns the spot is
    the asked price, the conservation value is the level it started on, and
    only the two traded legs moved.  It is None only where no such state
    lies inside the curve's domain."""

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
        target = spec.state_at_spot(state, i, j, price)
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

    @given(
        curve=st.sampled_from(["geometric-mean", "power-sum"]),
        n=st.sampled_from([2, 3]),
        shape=st.floats(min_value=0.05, max_value=0.95),
        reserves=st.lists(st.floats(min_value=1e-3, max_value=1e6), min_size=3, max_size=3),
        legs=st.sampled_from([(0, 1), (1, 0), (2, 0), (1, 2)]),
        log_move=st.floats(min_value=-5.0, max_value=5.0),
    )
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_geometric_mean_and_power_sum(self, curve, n, shape, reserves, legs, log_move):
        """`shape` is the first weight of a geometric mean (the rest share
        what is left) or a power-sum's t."""
        if curve == "geometric-mean":
            spec = GeometricMean(weights=(shape,) + ((1.0 - shape) / (n - 1),) * (n - 1))
        else:
            spec = ConstantPowerSum(t=shape)
        state = tuple(reserves[:n])
        i, j = (leg % n for leg in legs)
        if i == j:
            j = (i + 1) % n
        level = invariant_value(spec, state)
        price = spot_price(spec, state, i, j) * math.exp(log_move)
        target = spec.state_at_spot(state, i, j, price)
        assert all(target[k] == state[k] for k in range(n) if k not in (i, j))
        assert math.isclose(spot_price(spec, target, i, j), price, rel_tol=1e-9)
        assert math.isclose(invariant_value(spec, target), level, rel_tol=1e-10)

    @given(
        k=st.floats(min_value=0.05, max_value=1.0),
        t0=st.floats(min_value=1.0, max_value=1e4),
        p=st.floats(min_value=0.01, max_value=100.0),
        imbalance=st.floats(min_value=0.2, max_value=1.8),
        sell=st.booleans(),
        log_move=st.floats(min_value=0.01, max_value=3.0),
    )
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_price_adoption(self, k, t0, p, imbalance, sell, log_move):
        """Price adoption has no level: its state is the one the trade that
        moves the spot to the price reaches, so token 1 moves by the quote
        of token 0's move.  A sale moves the bid down and a buy moves the
        ask up; None only where that trade drains a reserve."""
        spec = PriceAdoption(k=k, target_reserves=(t0, 10.0 * t0))
        state = (t0 * imbalance, p * t0)
        i, j = (0, 1) if sell else (1, 0)
        # the spot the trade moves away from: the bid, or one over the ask
        price = spot_price(spec, state, i, j, adopted_price=p) * math.exp(-log_move)
        target = spec.state_at_spot(state, i, j, price, adopted_price=p)
        if target is None:
            if sell:  # the bid's integral up to its price pays more than token 1 holds
                moved = t0 * (1.0 + (1.0 - price / p) / k)
                with pytest.raises(DepletionError):
                    quote_exact_in(spec, state, 0, 1, moved - state[0], adopted_price=p)
            else:  # the ask reaches the price only past an empty reserve
                assert 1.0 / price > p * (1.0 + k)
            return
        assert math.isclose(spot_price(spec, target, i, j, adopted_price=p), price, rel_tol=1e-9)
        if sell:
            paid = quote_exact_in(spec, state, 0, 1, target[0] - state[0], adopted_price=p)
            assert math.isclose(target[1], state[1] - paid, rel_tol=1e-12)
        else:
            cost = quote_exact_out(spec, state, 1, 0, state[0] - target[0], adopted_price=p)
            assert math.isclose(target[1], state[1] + cost, rel_tol=1e-12)

    def test_price_adoption_behind_the_trade(self):
        """A state already past the target (here a sale's bid of 9 at token
        0 of 130, where mid(120) is 9) moves token 0 back to the target and
        token 1 by the affine piece's integral: 10 units at mid(125) = 8.75."""
        spec = PriceAdoption(k=0.5, target_reserves=(100.0, 1000.0))
        target = spec.state_at_spot((130.0, 1000.0), 0, 1, 9.0, adopted_price=10.0)
        assert target == (120.0, 1087.5)
        assert spot_price(spec, target, 0, 1, adopted_price=10.0) == 9.0

    @pytest.mark.parametrize(
        "spec,reserves,legs,price",
        [
            # the target's x_0 would be 1e300 * e^354, past the float range
            (GeometricMean(weights=(0.5, 0.5)), (1e300, 1e300), (0, 1), 1e-308),
            (CS, (100.0, 100.0), (0, 1), 2.0),
            # t = 0 is constant sum: the spot is 1 everywhere
            (ConstantPowerSum(t=0.0), (100.0, 100.0), (0, 1), 2.0),
            # k = 0: the bid is the adopted price 10 everywhere
            (PriceAdoption(k=0.0, target_reserves=(100.0, 1000.0)), (100.0, 1000.0), (0, 1), 5.0),
            (Lmsr(b=100.0), (0.0, 0.0), (None, 0), 2.0),
            (Exponential(kappa=1.0, c=2.0), (5.0, 10.0), (0, 1), 3.0),
            # chi 10 at (100, 100): the spot stays below about 1.1 however far it moves
            (ConstantProductSum(chi=10.0), (100.0, 100.0), (0, 1), 2.0),
        ],
        ids=["geometric-mean", "sum", "power-sum", "adoption", "lmsr", "kappa-1", "past-the-edge"],
    )
    def test_no_closed_form_state(self, spec, reserves, legs, price):
        """No state inside the domain: a flat spot, or one that reaches the
        price only past a reserve's depletion or the float range."""
        assert spec.state_at_spot(reserves, *legs, price, adopted_price=10.0) is None


# ---------------------------------------------------------------------------
# exact oracles
# ---------------------------------------------------------------------------


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _rel_err(got, exact):
    """|got - exact| / |exact|, taken exactly; `exact` a Fraction or Decimal."""
    exact = Fraction(exact)
    return float(abs(Fraction(got) - exact) / abs(exact))


def _dec_expm1(x):
    """e^x - 1 of a Decimal, free of cancellation where x is tiny."""
    return x + x * x / 2 if abs(x) < Decimal("1e-20") else x.exp() - 1


def _lmsr_move(b, weights, j, ds):
    """C(q + ds*e_j) - C(q), with Decimal outcome weights e^(q/b):
    b*ln(1 + p_j*(e^(ds/b) - 1)), read as b*ln((1 - p_j) + p_j*e^(ds/b)),
    1 - p_j summed directly, where 1 + p_j*(e^(ds/b) - 1) would cancel."""
    b, ds, total = Decimal(b), Decimal(ds), sum(weights)
    x = weights[j] / total * _dec_expm1(ds / b)
    if x > Decimal(-0.5):
        return b * (x - x * x / 2 if abs(x) < Decimal("1e-20") else (1 + x).ln())
    others = sum(weights[:j] + weights[j + 1:])
    return b * ((others + weights[j] * (ds / b).exp()) / total).ln()


class TestExactOracle:
    """Each closed-form quote against the exact value of the same quote at
    the same float inputs: `fractions.Fraction` where the form is rational,
    `decimal` at 50 digits where it takes logs, powers or a square root.
    The inputs are drawn from fixed seeds.  A bound is the largest relative
    error allowed; the worst error measured over 6,000 such cases (seeds 1 to
    3, 2,000 each) is beside it.  A power's bound is wider than a ratio's: the
    float rounding of the exponent is amplified by the power it takes."""

    CASES = 300

    def cases(self, seed):
        rng = random.Random(seed)
        for _ in range(self.CASES):
            x_i, x_j = _log_uniform(rng, 1e-3, 1e6), _log_uniform(rng, 1e-3, 1e6)
            dx = x_i * _log_uniform(rng, 1e-9, 10.0)
            dy = x_j * rng.uniform(1e-9, 0.9)
            yield rng, x_i, x_j, dx, dy

    def test_constant_product(self):
        # bound 1e-15 both ways; worst 2.8e-16
        worst = 0.0
        for _, x_i, x_j, dx, dy in self.cases(1):
            out = Fraction(x_j) * Fraction(dx) / (Fraction(x_i) + Fraction(dx))
            paid = Fraction(x_i) * Fraction(dy) / (Fraction(x_j) - Fraction(dy))
            worst = max(worst, _rel_err(quote_exact_in(CP, (x_i, x_j), 0, 1, dx), out),
                        _rel_err(quote_exact_out(CP, (x_i, x_j), 0, 1, dy), paid))
        assert worst <= 1e-15

    def test_constant_sum_is_exact(self):
        for _, x_i, x_j, dx, dy in self.cases(2):
            assert quote_exact_in(CS, (x_i, x_j + dx), 0, 1, dx) == dx
            assert quote_exact_out(CS, (x_i, x_j), 0, 1, dy) == dy

    def test_product_sum_at_a_level(self):
        # (b + x_i) * (b + x_j) held, b = chi * D^(n-1) / (other reserves),
        # D the float level: bound 2e-15; worst 5.9e-16
        worst = 0.0
        for rng, x_i, x_j, dx, dy in self.cases(3):
            spec = ConstantProductSum(chi=rng.choice([0.0, 0.01, 1.0, 10.0, 1000.0]))
            reserves = (x_i, x_j, _log_uniform(rng, 1e-3, 1e6))[: rng.choice([2, 3])]
            level = invariant_value(spec, reserves)
            n = len(reserves)
            b = Fraction(spec.chi) * Fraction(level) ** (n - 1) / Fraction(math.prod(reserves[2:]))
            out = Fraction(dx) * (b + Fraction(x_j)) / (b + Fraction(x_i) + Fraction(dx))
            try:
                got = quote_exact_in(spec, reserves, 0, 1, dx)
            except DepletionError:  # a near-sum pool cannot pay dx out of x_j
                assert out >= x_j * (1 - 1e-15)
            else:
                worst = max(worst, _rel_err(got, out))
            paid = Fraction(dy) * (b + Fraction(x_i)) / (b + Fraction(x_j) - Fraction(dy))
            worst = max(worst, _rel_err(quote_exact_out(spec, reserves, 0, 1, dy), paid))
        assert worst <= 2e-15

    def test_geometric_mean(self):
        # x_j' = x_j * (x_i / x_i')^(w_i / w_j): bound 2e-15 in (worst 3.8e-16),
        # 3e-14 out (worst 7.8e-15, at growth factors up to about e^44)
        worst_in = worst_out = 0.0
        with localcontext() as ctx:
            ctx.prec = 50
            for rng, x_i, x_j, dx, dy in self.cases(4):
                w = rng.uniform(0.05, 0.95)
                spec = GeometricMean(weights=(w, 1.0 - w))
                power = Decimal(spec.weights[0]) / Decimal(spec.weights[1])
                kept = ((Decimal(x_i) / (Decimal(x_i) + Decimal(dx))).ln() * power).exp()
                try:
                    got = quote_exact_in(spec, (x_i, x_j), 0, 1, dx)
                except DepletionError:  # what stays of x_j is below its float spacing
                    assert kept < 1e-16
                else:
                    worst_in = max(worst_in, _rel_err(got, Decimal(x_j) * (1 - kept)))
                grown = ((Decimal(x_j) / (Decimal(x_j) - Decimal(dy))).ln() / power).exp()
                got = quote_exact_out(spec, (x_i, x_j), 0, 1, dy)
                worst_out = max(worst_out, _rel_err(got, Decimal(x_i) * (grown - 1)))
        assert worst_in <= 2e-15
        assert worst_out <= 3e-14

    def test_power_sum(self):
        # x_i^e + x_j^e held, e = 1 - t: bound 5e-15 in (worst 1.5e-15),
        # 1e-14 out (worst 2.7e-15)
        worst_in = worst_out = 0.0
        with localcontext() as ctx:
            ctx.prec = 50
            for rng, x_i, x_j, dx, dy in self.cases(5):
                spec = ConstantPowerSum(t=rng.uniform(0.0, 0.9))
                e = 1 - Decimal(spec.t)

                def power(v):
                    return (Decimal(v).ln() * e).exp()

                def root(v):
                    return (v.ln() / e).exp()

                left = power(x_j) + power(x_i) - power(Decimal(x_i) + Decimal(dx))
                try:
                    got = quote_exact_in(spec, (x_i, x_j), 0, 1, dx)
                except DepletionError:  # x_j's term cannot pay for x_i's rise
                    assert left <= power(x_j) * Decimal(1e-15)
                else:
                    worst_in = max(worst_in, _rel_err(got, Decimal(x_j) - root(left)))
                needed = power(x_i) + power(x_j) - power(Decimal(x_j) - Decimal(dy))
                got = quote_exact_out(spec, (x_i, x_j), 0, 1, dy)
                worst_out = max(worst_out, _rel_err(got, root(needed) - Decimal(x_i)))
        assert worst_in <= 5e-15
        assert worst_out <= 1e-14

    def test_lmsr(self):
        # buy s = b*ln(1 + (e^(m/b) - 1) / p_j): bound 5e-15 (worst 2.4e-15).
        # The one-outcome moves C(q +- s*e_j) - C(q) = b*ln(1 + p_j*(e^(+-s/b)
        # - 1)) read p_j off e^((q_j - max q)/b), whose argument's rounding is
        # amplified by its size: their error over max(1, |ln p_j|) is bounded
        # by 2e-15 (worst 4.3e-16 sold or bought; a value below the float
        # range must read 0).  sell s = -b*ln((e^(-m/b) - (1 - p_j)) / p_j),
        # ill-conditioned also where the sale leaves the outcome's price p'
        # small: its error over max(1, m / (s * p')) * max(1, |ln p_j|) is
        # bounded by 1e-14 (worst 4.8e-16, leading outcomes among them); a
        # payout past the float maximum by more than the moves' bound is not
        # refused
        worst_buy = worst_sell = worst_move = 0.0
        rng = random.Random(6)

        def move_err(got, exact):
            if float(exact) == 0.0:  # below the float range
                assert got == 0.0
                return 0.0
            return _rel_err(got, exact) / condition

        with localcontext() as ctx:
            ctx.prec = 50
            for _ in range(self.CASES):
                b = _log_uniform(rng, 1.0, 1e3)
                q = tuple(_log_uniform(rng, 1e-3, 1e3) * rng.choice([0.0, 1.0])
                          for _ in range(rng.choice([2, 3])))
                j = rng.randrange(len(q))
                weights = [(Decimal(qi) / Decimal(b)).exp() for qi in q]
                others = sum(weights[:j] + weights[j + 1:])
                p_j = weights[j] / sum(weights)
                spend = b * _log_uniform(rng, 1e-6, 10.0)
                shares = Decimal(b) * (1 + ((Decimal(spend) / Decimal(b)).exp() - 1) / p_j).ln()
                got = quote_exact_in(Lmsr(b=b), q, None, j, spend)
                worst_buy = max(worst_buy, _rel_err(got, shares))
                # sell a part of the position, and buy as many shares
                sold = q[j] * rng.uniform(1e-6, 0.9)
                if sold == 0.0:
                    continue  # no position to sell
                condition = max(1.0, float(abs(p_j.ln())))
                payout = -_lmsr_move(b, weights, j, -sold)
                worst_move = max(worst_move, move_err(quote_exact_in(Lmsr(b=b), q, j, None, sold), payout))
                bought = _lmsr_move(b, weights, j, sold)
                worst_move = max(worst_move, move_err(quote_exact_out(Lmsr(b=b), q, None, j, sold), bought))
                # then ask for the float payout the sale earns
                payout = float(payout)
                most = quote_exact_in(Lmsr(b=b), q, j, None, q[j])
                if payout > most:  # rounded past the float maximum
                    worst_move = max(worst_move, (payout - most) / most / condition)
                    continue
                # e^(-m/b) - (1 - p_j), read where it does not cancel
                y = Decimal(payout) / Decimal(b)
                gap = p_j + _dec_expm1(-y) if p_j < Decimal(0.5) else (-y).exp() - others / sum(weights)
                if payout == 0.0 or gap <= 0:
                    continue  # nothing asked, or past what selling any number of shares pays
                shares = -Decimal(b) * (gap.ln() - p_j.ln())
                kept = weights[j] * (-shares / Decimal(b)).exp()
                condition *= float(max(1, Decimal(payout) * (others + kept) / (shares * kept)))
                got = quote_exact_out(Lmsr(b=b), q, j, None, payout)
                worst_sell = max(worst_sell, _rel_err(got, shares) / condition)
        assert worst_buy <= 5e-15
        assert worst_sell <= 1e-14
        assert worst_move <= 2e-15

    def test_price_adoption(self):
        # the integrals, rational: bound 4e-15 (worst 1.6e-15); their
        # inverses, a square root: bound 1e-14 (worst 1.4e-15)
        worst_integral = worst_inverse = 0.0
        rng = random.Random(7)
        with localcontext() as ctx:
            ctx.prec = 50
            for _ in range(self.CASES):
                k = rng.choice([0.0, 0.1, 0.5, 1.0])
                t0 = _log_uniform(rng, 1.0, 1e4)
                spec = PriceAdoption(k=k, target_reserves=(t0, 10.0 * t0))
                p = _log_uniform(rng, 0.01, 100.0)
                r0 = t0 * rng.uniform(0.2, 1.8)
                reserves = (r0, 1e9 * t0)
                slope = Fraction(p) * Fraction(k) / Fraction(t0)

                def mid(u):
                    return Fraction(p) + slope * (Fraction(t0) - u)

                def ask(lo, hi):  # the ask's integral over [lo, hi]
                    a, b = min(lo, Fraction(t0)), min(hi, Fraction(t0))
                    par = Fraction(p) * (max(hi, Fraction(t0)) - max(lo, Fraction(t0)))
                    return par + (b - a) * (mid(a) + mid(b)) / 2

                def bid(lo, hi):
                    a, b = max(lo, Fraction(t0)), max(hi, Fraction(t0))
                    par = Fraction(p) * (min(hi, Fraction(t0)) - min(lo, Fraction(t0)))
                    return par + (b - a) * (mid(a) + mid(b)) / 2

                r = Fraction(r0)
                bought = r0 * rng.uniform(1e-6, 0.9)
                got = quote_exact_out(spec, reserves, 1, 0, bought, adopted_price=p)
                worst_integral = max(worst_integral, _rel_err(got, ask(r - Fraction(bought), r)))
                sold = min(r0 * rng.uniform(1e-6, 0.5), 0.9 * (spec.zero_bid_reserve() - r0))
                if sold > 0.0:
                    got = quote_exact_in(spec, reserves, 0, 1, sold, adopted_price=p)
                    worst_integral = max(worst_integral, _rel_err(got, bid(r, r + Fraction(sold))))

                def width(amount, start, sign):
                    m = Decimal(mid(Fraction(start)).numerator) / Decimal(mid(Fraction(start)).denominator)
                    s = Decimal(slope.numerator) / Decimal(slope.denominator)
                    return 2 * amount / (m + (m * m + 2 * sign * s * amount).sqrt())

                spend = Decimal(p * r0 * rng.uniform(1e-6, 0.5))
                par = Decimal(p) * max(Decimal(r0) - Decimal(t0), Decimal(0))
                top = min(r0, t0)
                exact = spend / Decimal(p) if spend <= par else (
                    Decimal(r0) - Decimal(top) + width(spend - par, top, 1))
                got = quote_exact_in(spec, reserves, 1, 0, float(spend), adopted_price=p)
                worst_inverse = max(worst_inverse, _rel_err(got, exact))
                payout = Decimal(p * r0 * rng.uniform(1e-6, 0.3))
                par = Decimal(p) * max(Decimal(t0) - Decimal(r0), Decimal(0))
                bottom = max(r0, t0)
                try:
                    got = quote_exact_out(spec, reserves, 0, 1, float(payout), adopted_price=p)
                except DepletionError:  # past what the bid pays before it floors at zero
                    continue
                exact = payout / Decimal(p) if payout <= par else (
                    Decimal(bottom) - Decimal(r0) + width(payout - par, bottom, -1))
                worst_inverse = max(worst_inverse, _rel_err(got, exact))
        assert worst_integral <= 4e-15
        assert worst_inverse <= 1e-14

    def test_exponential(self):
        # ratio moves from the state's own point, S' = S * (R' / R)**(1 /
        # kappa), at states on and off r(S) = S**kappa / c, with sales and
        # burns down to 1e-12 of the leg: bound 2e-15 (worst 7.8e-16 over
        # 8,000 cases, seeds 8 to 11)
        worst = 0.0
        rng = random.Random(8)
        with localcontext() as ctx:
            ctx.prec = 50

            def moved(scale, power, base, move):  # scale * ((1 + move / base)**power - 1)
                ratio = (Decimal(base) + Decimal(move)) / Decimal(base)
                return Decimal(scale) * _dec_expm1(ratio.ln() * Decimal(power))

            for _ in range(self.CASES):
                kappa = rng.choice([0.3, 0.5, 1.0, 2.0, 3.0, 4.0])
                spec = Exponential(kappa=kappa, c=rng.choice([1.0, 7.0]))
                supply = _log_uniform(rng, 1e-3, 1e4)
                reserve = supply**kappa / spec.c * rng.choice([1.0, _log_uniform(rng, 0.5, 2.0)])
                state = (reserve, supply)
                grow = _log_uniform(rng, 1e-9, 10.0)
                cut = rng.choice([_log_uniform(rng, 1e-9, 0.5), 1.0 - _log_uniform(rng, 1e-12, 0.5)])
                inverse = 1 / Decimal(kappa)
                # each quote, its exact value, and the leg a sale empties
                for quote, exact, whole in (
                    (lambda: quote_exact_in(spec, state, 0, 1, reserve * grow),
                     moved(supply, inverse, reserve, reserve * grow), None),
                    (lambda: quote_exact_out(spec, state, 0, 1, supply * grow),
                     moved(reserve, kappa, supply, supply * grow), None),
                    (lambda: quote_exact_in(spec, state, 1, 0, supply * cut),
                     -moved(reserve, kappa, supply, -(supply * cut)), reserve),
                    (lambda: quote_exact_out(spec, state, 1, 0, reserve * cut),
                     -moved(supply, inverse, reserve, -(reserve * cut)), supply),
                ):
                    try:
                        got = quote()
                    except DepletionError:
                        # a sale refused for the half-empty state it would
                        # leave: one that takes all of a leg, within the bound
                        got = whole
                    worst = max(worst, _rel_err(got, exact))
        assert worst <= 2e-15


class TestLmsrPriceLaws:
    @given(
        q0=st.floats(min_value=0.0, max_value=400.0),
        q1=st.floats(min_value=0.0, max_value=400.0),
        q2=st.floats(min_value=0.0, max_value=400.0),
    )
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_prices_sum_to_one(self, q0, q1, q2):
        spec = Lmsr(b=100.0)
        prices = [spot_price(spec, (q0, q1, q2), j, None) for j in range(3)]
        assert all(0.0 < p < 1.0 for p in prices)
        assert abs(sum(prices) - 1.0) <= 1e-12

    def test_a_leading_outcome_sale_has_the_same_bits_on_every_python(self):
        """The exact-collateral sale of a leading outcome sums the other
        outcomes' weights left to right, as `sum()` does on Python 3.11;
        `sum()` on 3.12.1 read 8.14395875400196 here."""
        q = (2.385002617401853, 12.867426637240534, 1.3293155774794914,
             7.527089321636507, 2.0267901468556646)
        got = Lmsr(b=4.319587578785168).quote_out(q, 1, None, 3.49424842752677)
        assert got == 8.143958754001961

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
