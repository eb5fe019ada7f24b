"""Cost-optimal allocation: worked examples, oracle agreement, verdicts."""

import warnings

import pytest

from conftest import realizable_concordances
from dsmedian.allocation import (
    CostModel,
    allocate,
    allocate_F,
    allocate_H,
    allocate_g,
    allocate_single,
    grid_search_allocation,
    profitability_report,
)
from dsmedian.variance_theory import VarianceComponents

BIG_N = 10_000_000
COMPS = VarianceComponents(V0=1.0, V1=0.64, V2=0.36, V3=0.0)
COMPS_F = VarianceComponents(V0=1.0, V1=0.5, V2=0.25, V3=0.05)
COST_H = CostModel(c0=100.0, c1=4.0, c2=1.0, c3=0.5)
COST_G = CostModel(c0=100.0, c1=4.0, c2=0.7, c3=0.3)  # c2 + c3 = 1
TINY_CN = CostModel(c0=1e10, c1=9e8, c2=9e-309, c3=1e-309)  # c0 / (c2 + c3) overflows


def random_components(rng):
    v0 = 10.0 ** rng.uniform(-1, 1)
    return VarianceComponents.from_concordances(v0, *realizable_concordances(rng))


def random_cost(rng, c0=1000.0):
    c1 = 10.0 ** rng.uniform(0, 1.3)
    c2 = c1 * rng.uniform(0.2, 0.9)
    c3 = c2 * rng.uniform(0.1, 0.9)
    return CostModel(c0=c0, c1=c1, c2=c2, c3=c3)


class TestCostModel:
    def test_ordering_required(self):
        with pytest.raises(ValueError, match="c1 > c2 > c3"):
            CostModel(c0=10, c1=1.0, c2=2.0, c3=0.5)

    def test_positive_required(self):
        with pytest.raises(ValueError, match="positive"):
            CostModel(c0=10, c1=1.0, c2=0.5, c3=0.0)


class TestUnits:
    """Every allocation takes N as an integer >= 1 within the float range."""

    @pytest.mark.parametrize("N", [-5, 0, 2.5, "5", 10**400],
                             ids=["negative", "zero", "float", "str", "past-float-range"])
    @pytest.mark.parametrize("strategy", ["single", "H", "g", "F"])
    def test_bad_units_named(self, strategy, N):
        for call in (lambda: allocate(strategy, COST_G, COMPS_F, N),
                     lambda: grid_search_allocation(COST_G, COMPS_F, N, strategy)):
            with pytest.raises(ValueError, match="^population size N must be an integer") as info:
                call()
            assert type(info.value) is ValueError

    def test_one_unit_allocates(self):
        assert allocate("single", COST_G, COMPS_F, 1).m_int == 1
        assert not allocate("H", COST_G, COMPS_F, 1).feasible


class TestAllocateSingle:
    def test_worked_example(self):
        r = allocate_single(CostModel(100.0, 4.0, 1.0, 0.5), COMPS, BIG_N)
        assert r.m_real == 25.0
        assert r.variance_large_n == pytest.approx(0.04, abs=1e-15)

    def test_budget_doubling_halves_variance(self):
        r1 = allocate_single(CostModel(100.0, 4.0, 1.0, 0.5), COMPS, BIG_N)
        r2 = allocate_single(CostModel(200.0, 4.0, 1.0, 0.5), COMPS, BIG_N)
        assert r2.variance_large_n == pytest.approx(r1.variance_large_n / 2, rel=1e-12)

    def test_census_budget(self):
        # budget buys the whole population: finite-N variance reaches zero
        r = allocate_single(CostModel(400.0, 4.0, 1.0, 0.5), COMPS, N=100)
        assert r.opt_variance == pytest.approx(0.0, abs=1e-15)

    def test_infeasible(self):
        r = allocate_single(CostModel(3.0, 4.0, 1.0, 0.5), COMPS, BIG_N)
        assert not r.feasible

    def test_unknown_strategy(self):
        with pytest.raises(ValueError) as info:
            allocate("X", COST_H, COMPS, BIG_N)
        assert str(info.value) == "unknown strategy 'X'; expected one of ('single', 'H', 'g', 'F')"


class TestAllocateH:
    def test_worked_example(self):
        r = allocate_H(COST_H, COMPS, BIG_N)
        assert r.m_real == pytest.approx(15.0, rel=1e-12)
        assert r.n_real == pytest.approx(40.0, rel=1e-12)
        assert r.variance_large_n == pytest.approx(0.04, rel=1e-12)
        assert COST_H.c1 * r.m_real + COST_H.c2 * r.n_real == pytest.approx(100.0, rel=1e-9)

    def test_degenerate_v1(self):
        comps = VarianceComponents(V0=1.0, V1=0.0, V2=0.0, V3=0.0)
        r = allocate_H(COST_H, comps, BIG_N)
        assert not r.feasible
        assert "single-phase" in r.note

    def test_near_total_association_infeasible(self):
        comps = VarianceComponents(V0=1.0, V1=0.999999, V2=0.0, V3=0.0)
        r = allocate_H(COST_H, comps, BIG_N)
        assert not r.feasible  # continuous optimum pushes m below 2


class TestAllocateG:
    def test_worked_example(self):
        r = allocate_g(COST_G, COMPS, BIG_N)
        assert r.m_real == pytest.approx(17.3496, abs=1e-3)
        assert r.n_real == pytest.approx(30.6018, abs=1e-3)
        assert r.variance_large_n == pytest.approx(0.029900, abs=5e-7)
        assert COST_G.c1 * r.m_real + (COST_G.c2 + COST_G.c3) * r.n_real == pytest.approx(
            100.0, rel=1e-9
        )

    def test_reduces_to_H_when_z_useless(self):
        # V2 = 0 and a vanishing z-cost: same allocation as the H strategy
        cost = CostModel(c0=100.0, c1=4.0, c2=1.0, c3=1e-9)
        comps = VarianceComponents(V0=1.0, V1=0.64, V2=0.0, V3=0.0)
        rg = allocate_g(cost, comps, BIG_N)
        rh = allocate_H(cost, comps, BIG_N)
        assert rg.m_real == pytest.approx(rh.m_real, rel=1e-6)
        assert rg.n_real == pytest.approx(rh.n_real, rel=1e-6)
        assert rg.variance_large_n == pytest.approx(rh.variance_large_n, rel=1e-6)

    def test_infeasible_when_v2_exceeds_v1(self):
        comps = VarianceComponents(V0=1.0, V1=0.2, V2=0.3, V3=0.0)
        r = allocate_g(COST_G, comps, BIG_N)
        assert not r.feasible
        assert "second auxiliary removes first-phase value" in r.note

    def test_m_less_than_n_condition(self, rng):
        for _ in range(50):
            comps = random_components(rng)
            cost = random_cost(rng)
            r = allocate_g(cost, comps, BIG_N)
            if r.m_real is None or r.n_real is None:
                continue
            cn = cost.c2 + cost.c3
            lhs = (comps.V0 - comps.V1) / cost.c1
            rhs = (comps.V1 - comps.V2) / cn
            assert (r.m_real < r.n_real) == (lhs < rhs)


class TestAllocateF:
    def test_worked_example(self):
        r = allocate_F(COST_G, COMPS_F, BIG_N)
        assert r.m_real == pytest.approx(17.7526, abs=1e-3)
        assert r.n_real == pytest.approx(28.9898, abs=1e-3)
        assert r.variance_large_n == pytest.approx(0.035697, abs=5e-7)
        assert COST_G.c1 * r.m_real + (COST_G.c2 + COST_G.c3) * r.n_real == pytest.approx(
            100.0, rel=1e-9
        )

    def test_v3_zero_identical_to_g(self):
        comps = VarianceComponents(V0=1.0, V1=0.5, V2=0.25, V3=0.0)
        rf = allocate_F(COST_G, comps, BIG_N)
        rg = allocate_g(COST_G, comps, BIG_N)
        assert rf.m_real == rg.m_real and rf.n_real == rg.n_real
        assert rf.opt_variance == rg.opt_variance

    def test_infeasible_names_inequality(self):
        comps = VarianceComponents(V0=1.0, V1=0.7, V2=0.2, V3=0.35)
        r = allocate_F(COST_G, comps, BIG_N)
        assert not r.feasible
        assert "V0 - V1 - V3" in r.note


class TestGridSearch:
    def test_h_worked_example(self):
        g = grid_search_allocation(COST_H, COMPS, BIG_N, "H")
        r = allocate_H(COST_H, COMPS, BIG_N)
        assert abs(g.m_int - 15) <= 1 and abs(g.n_int - 40) <= 1
        assert g.opt_variance <= r.opt_variance * 1.005

    def test_unique_feasible_point(self):
        # budget exactly covers (m, n) = (2, 3) under the g cost structure
        cost = CostModel(c0=11.0, c1=4.0, c2=0.7, c3=0.3)
        g = grid_search_allocation(cost, COMPS, BIG_N, "g")
        assert (g.m_int, g.n_int) == (2, 3)

    def test_single_floor(self):
        g = grid_search_allocation(CostModel(103.0, 4.0, 1.0, 0.5), COMPS, BIG_N, "single")
        assert g.m_int == 25

    def test_grid_between_bounds(self, rng):
        # integer best lies between the continuous optimum and the rounded point
        for _ in range(40):
            comps = random_components(rng)
            cost = random_cost(rng, c0=float(rng.uniform(300, 3000)))
            for strategy in ("H", "g", "F"):
                r = allocate(strategy, cost, comps, BIG_N)
                if not r.feasible:
                    continue
                g = grid_search_allocation(cost, comps, BIG_N, strategy)
                assert g.opt_variance >= r.opt_variance - 1e-12 * abs(r.opt_variance)

    def test_infeasible_budget(self):
        g = grid_search_allocation(CostModel(5.0, 4.0, 0.7, 0.3), COMPS, BIG_N, "g")
        assert not g.feasible

    def test_m_stops_below_N(self):
        # every m >= N leaves no n in (m, N]: a budget of 1e308 scans m = 2..N-1
        cost = CostModel(1e308, 1e6, 300.0, 3.0)
        for strategy in ("H", "g", "F"):
            g = grid_search_allocation(cost, COMPS_F, 150, strategy)
            assert g.feasible and g.m_int < g.n_int == 150
        assert grid_search_allocation(cost, COMPS_F, 2, "H").note.startswith("no feasible")

    def test_grid_beyond_memory(self):
        with pytest.raises(ValueError, match="does not fit in memory"):
            grid_search_allocation(CostModel(1e308, 4.0, 0.7, 0.3), COMPS, 2**64, "H")

    def test_tiny_first_phase_cost_without_warnings(self):
        # (c0 - c1 m) / cn overflows: every n up to N is affordable
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = grid_search_allocation(TINY_CN, COMPS, 50, "g")
        assert (g.m_int, g.n_int) == (11, 50)

    def test_units_past_int64(self):
        # N = 2**64 and an n of 1e19 are no int64: the grid keeps n as floats
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = grid_search_allocation(CostModel(1e20, 1e19, 1.0, 0.5), COMPS, 2**64, "H")
        assert (g.m_int, g.n_int) == (9, 10**19)

    def test_single_past_float_range(self):
        g = grid_search_allocation(CostModel(1e308, 1e-300, 1e-301, 1e-302), COMPS, 9, "single")
        assert g.m_int == 9


class TestFloatRange:
    """Budgets whose continuous optimum or leftover budget leaves the floats."""

    COST = CostModel(c0=1e308, c1=1e-300, c2=1e-301, c3=1e-302)

    def test_infinite_optimum_infeasible(self):
        for strategy in ("single", "H", "g", "F"):
            r = allocate(strategy, self.COST, COMPS_F, 100)
            assert not r.feasible
            assert r.note == "continuous optimum is out of float range"

    def test_overflowing_second_phase_cost(self):
        # c1 * m_int overflows, so no n fits the budget at the rounded m
        comps = VarianceComponents(V0=1e-3, V1=5e-4, V2=1e-4, V3=0.0)
        r = allocate_H(CostModel(1e308, 1e308, 300.0, 2.5), comps, 5)
        assert not r.feasible and r.m_int is None and r.n_int is None
        assert r.note.endswith("no integer n > m fits the budget at the rounded m")

    def test_overflowing_first_phase_budget(self):
        # (c0 - c1 m_int) / cn overflows while n_real stays finite: n is capped at N
        r = allocate_g(TINY_CN, COMPS, 50)
        assert r.feasible and (r.m_int, r.n_int) == (11, 50)


class TestMonotonicity:
    def test_more_budget_never_hurts(self, rng):
        for _ in range(30):
            comps = random_components(rng)
            cost = random_cost(rng)
            bigger = CostModel(c0=cost.c0 * 1.5, c1=cost.c1, c2=cost.c2, c3=cost.c3)
            for strategy in ("single", "H", "g", "F"):
                r1 = allocate(strategy, cost, comps, BIG_N)
                r2 = allocate(strategy, bigger, comps, BIG_N)
                if r1.feasible and r2.feasible:
                    assert r2.opt_variance <= r1.opt_variance + 1e-15


class TestProfitability:
    def test_worked_verdict(self):
        rep = profitability_report(COST_G, COMPS, BIG_N)
        v = rep.g_vs_single
        assert v.verdict == "profitable"
        assert v.closed_form_lhs == pytest.approx(0.25, rel=1e-12)
        assert v.closed_form_rhs == pytest.approx((1 - 0.6) ** 2 / 0.28, rel=1e-12)
        assert v.closed_form_lhs < v.closed_form_rhs
        assert v.variance_candidate == pytest.approx(0.0299, abs=1e-4)
        assert v.variance_reference == pytest.approx(0.04, abs=1e-12)

    def test_no_gain_when_z_useless(self):
        cost = CostModel(c0=100.0, c1=4.0, c2=1.0, c3=1e-12)
        comps = VarianceComponents(V0=1.0, V1=0.64, V2=0.0, V3=0.0)
        rep = profitability_report(cost, comps, BIG_N)
        assert rep.g_vs_H.verdict == "no-gain"

    def test_no_gain_when_v3_zero(self):
        comps = VarianceComponents(V0=1.0, V1=0.5, V2=0.25, V3=0.0)
        rep = profitability_report(COST_G, comps, BIG_N)
        assert rep.F_vs_g.verdict == "no-gain"

    def test_not_comparable_when_infeasible(self):
        comps = VarianceComponents(V0=1.0, V1=0.2, V2=0.3, V3=0.0)  # V1 < V2
        rep = profitability_report(COST_G, comps, BIG_N)
        assert rep.g_vs_H.verdict == "not-comparable"

    def test_dominance_with_vanishing_z_cost(self, rng):
        # with the z-cost taken to zero, opt_F <= opt_g <= opt_H
        for _ in range(30):
            comps = random_components(rng)
            c1 = 10.0 ** rng.uniform(0, 1.3)
            c2 = c1 * rng.uniform(0.2, 0.9)
            cost = CostModel(c0=2000.0, c1=c1, c2=c2, c3=c2 * 1e-9)
            rh = allocate_H(cost, comps, BIG_N)
            rg = allocate_g(cost, comps, BIG_N)
            rf = allocate_F(cost, comps, BIG_N)
            if not (rh.feasible and rg.feasible and rf.feasible):
                continue
            assert rf.variance_large_n <= rg.variance_large_n * (1 + 1e-9)
            assert rg.variance_large_n <= rh.variance_large_n * (1 + 1e-6)

    def test_both_routes_agree(self, rng):
        # numeric verdicts match the corrected closed-form thresholds
        for _ in range(40):
            comps = random_components(rng)
            cost = random_cost(rng)
            rep = profitability_report(cost, comps, BIG_N)
            v = rep.g_vs_single
            if v.verdict in ("profitable", "not-profitable") and v.closed_form_rhs is not None:
                assert (v.verdict == "profitable") == (v.closed_form_lhs < v.closed_form_rhs)
            v = rep.g_vs_H
            if v.verdict in ("profitable", "not-profitable") and v.closed_form_rhs is not None:
                assert (v.verdict == "profitable") == (v.closed_form_lhs < v.closed_form_rhs)
            v = rep.F_vs_g
            if v.verdict in ("profitable", "not-profitable") and v.closed_form_rhs is not None:
                assert (v.verdict == "profitable") == (v.closed_form_lhs < v.closed_form_rhs)
