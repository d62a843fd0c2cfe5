from __future__ import annotations

import numpy as np
import pytest

from scsim.catalog import build_catalog, hit_rate
from scsim.policy import (
    BackhaulBudget,
    greedy_large_step,
    greedy_small_step,
    plan_popular_update,
    plan_prefetch,
    sustainable_large_step,
    sustainable_small_step,
)
from scsim.station import CacheStore, PowerModel

CAT = build_catalog(1000, 1.0)
PM = PowerModel()


def cache(capacity=10, split=0.8, popular=()):
    c = CacheStore(capacity, split, mask=np.zeros(CAT.n_files + 1, dtype=bool))
    c.apply_popular_update([], list(popular))
    return c


class TestBackhaulBudget:
    def test_realized_within_range(self):
        budget = BackhaulBudget(50, (0.5, 1.0))
        rng = np.random.default_rng(0)
        vals = [budget.realize(rng) for _ in range(500)]
        assert min(vals) >= 25 and max(vals) <= 50

    def test_deterministic(self):
        budget = BackhaulBudget(50, (0.5, 1.0))
        assert budget.realize(np.random.default_rng(4)) == budget.realize(np.random.default_rng(4))

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            BackhaulBudget(50, (0.9, 0.1))
        with pytest.raises(ValueError, match="finite"):
            BackhaulBudget(50, (0.5, float("inf")))
        with pytest.raises(ValueError):
            BackhaulBudget(-1)


class TestPlanPopularUpdate:
    def test_single_swap_toward_top(self):
        evict, fetch = plan_popular_update({1, 2, 50}, CAT, budget=1, partition_size=3)
        assert evict == [50]
        assert fetch == [3]

    def test_cold_start_fetches_top_k(self):
        evict, fetch = plan_popular_update(set(), CAT, budget=10, partition_size=5)
        assert evict == []
        assert fetch == [1, 2, 3, 4, 5]

    def test_budget_zero_is_noop(self):
        evict, fetch = plan_popular_update({9, 8}, CAT, budget=0, partition_size=2)
        assert evict == [] and fetch == []

    def test_free_slots_filled_before_swaps(self):
        evict, fetch = plan_popular_update({40}, CAT, budget=2, partition_size=3)
        assert fetch == [1, 2]
        assert evict == []  # free slot capacity absorbed both fetches

    def test_least_popular_evicted_first(self):
        evict, fetch = plan_popular_update({10, 30, 20}, CAT, budget=2, partition_size=3)
        assert fetch == [1, 2]
        assert evict == [30, 20]

    def test_already_converged_is_fixed_point(self):
        current = {1, 2, 3}
        assert plan_popular_update(current, CAT, budget=99, partition_size=3) == ([], [])

    def test_partition_larger_than_catalog(self):
        small = build_catalog(4, 1.0)
        evict, fetch = plan_popular_update(set(), small, budget=99, partition_size=10)
        assert fetch == [1, 2, 3, 4] and evict == []

    def test_random_plans_are_sound_and_improving(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            part = int(rng.integers(1, 30))
            current = set(rng.choice(np.arange(1, 200), size=int(rng.integers(0, part + 1)), replace=False).tolist())
            budget = int(rng.integers(0, 12))
            evict, fetch = plan_popular_update(current, CAT, budget, part)
            target = set(range(1, part + 1))
            missing = sorted(target - current)
            free = part - len(current)
            assert len(fetch) <= budget
            assert fetch == missing[: len(fetch)]
            assert len(evict) == max(0, len(fetch) - max(free, 0))
            new = (current - set(evict)) | set(fetch)
            assert len(new) <= part
            assert hit_rate(CAT, new) >= hit_rate(CAT, current) - 1e-15

    def test_unlimited_budget_converges_in_one_round(self):
        rng = np.random.default_rng(7)
        current = set(rng.choice(np.arange(1, 1001), size=20, replace=False).tolist())
        evict, fetch = plan_popular_update(current, CAT, budget=1000, partition_size=20)
        new = (current - set(evict)) | set(fetch)
        assert new == set(range(1, 21))


class TestPlanPrefetch:
    def test_sooner_arrival_wins_budget(self):
        caches = [cache() for _ in range(4)]
        preds = [(101, 3, 5.0), (202, 3, 2.0)]
        plan = plan_prefetch(preds, caches, budget_per_station=1)
        assert plan == {3: [202]}

    def test_cached_content_skipped(self):
        caches = [cache(popular=[7])]
        plan = plan_prefetch([(7, 0, 1.0)], caches, budget_per_station=5)
        assert plan == {}
        caches[0].prefetch_insert(9)
        assert plan_prefetch([(9, 0, 1.0)], caches, budget_per_station=5) == {}

    def test_duplicate_predictions_coalesce(self):
        caches = [cache()]
        plan = plan_prefetch([(5, 0, 1.0), (5, 0, 2.0)], caches, budget_per_station=5)
        assert plan == {0: [5]}

    def test_independent_budgets_per_station(self):
        caches = [cache() for _ in range(2)]
        preds = [(1, 0, 1.0), (2, 0, 2.0), (3, 1, 3.0)]
        plan = plan_prefetch(preds, caches, budget_per_station=1)
        assert plan == {0: [1], 1: [3]}


class TestSustainableLargeStep:
    def test_sleeps_without_energy(self):
        active, quotas = sustainable_large_step(PM, np.array([0.0]), np.array([0.0]), 900.0)
        assert active.tolist() == [False]
        assert quotas.tolist() == [0]

    def test_boundary_exactly_constant_power(self):
        """r == p_const keeps the station awake with a zero quota."""
        active, quotas = sustainable_large_step(PM, np.array([0.0]), np.array([0.5]), 900.0)
        assert active.tolist() == [True]
        assert quotas.tolist() == [0]

    def test_boundary_epsilon_below_sleeps(self):
        active, _ = sustainable_large_step(PM, np.array([0.0]), np.array([0.5 - 1e-9]), 900.0)
        assert active.tolist() == [False]

    def test_full_rate_grants_hardware_quota(self):
        _, quotas = sustainable_large_step(PM, np.array([0.0]), np.array([1.0]), 900.0)
        assert quotas.tolist() == [10]

    def test_battery_contributes_spread_over_epoch(self):
        # 900 s * 0.75 power-units of stored energy alone sustains 0.75
        active, quotas = sustainable_large_step(PM, np.array([675.0]), np.array([0.0]), 900.0)
        assert active.tolist() == [True]
        assert quotas.tolist() == [5]

    def test_rate_capped_at_full_draw(self):
        _, quotas = sustainable_large_step(PM, np.array([1e9]), np.array([5.0]), 900.0)
        assert quotas.tolist() == [10]

    def test_one_call_plans_each_station_on_its_own(self):
        """Sleeping, boundary, partial and full-quota stations in one plan."""
        levels = np.array([0.0, 0.0, 675.0, 0.0, 1e9, 90.0])
        forecast = np.array([0.5 - 1e-9, 0.5, 0.0, 1.0, 5.0, 0.3])
        active, quotas = sustainable_large_step(PM, levels, forecast, 900.0)
        assert active.dtype == bool and quotas.dtype == np.int64
        assert active.tolist() == [False, True, True, True, True, False]
        assert quotas.tolist() == [0, 0, 5, 10, 10, 0]


class TestSustainableSmallStep:
    def test_fully_powered_at_noon(self):
        served, draw = sustainable_small_step(PM, 0.0, 1.0, offered_hits=7, quota=10, dt=1.0)
        assert served == 7
        assert draw == pytest.approx(0.85, abs=1e-12)

    def test_affordable_floor(self):
        served, _ = sustainable_small_step(PM, 0.0, 0.74, offered_hits=10, quota=10, dt=1.0)
        assert served == 4

    def test_brownout_serves_nothing_but_drains(self):
        served, draw = sustainable_small_step(PM, 0.1, 0.1, offered_hits=10, quota=10, dt=1.0)
        assert served == 0
        assert draw == pytest.approx(0.2, abs=1e-12)

    def test_never_requests_beyond_available(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            level = float(rng.random() * 2)
            harv = float(rng.random() * 1.5)
            dt = float(rng.choice([1.0, 5.0]))
            served, draw = sustainable_small_step(
                PM, level, harv, offered_hits=int(rng.integers(0, 20)), quota=int(rng.integers(0, 11)), dt=dt
            )
            assert draw <= min(1.0, level / dt + harv) + 1e-9
            assert served <= 10

    def test_quota_binds(self):
        served, _ = sustainable_small_step(PM, 1e6, 1.0, offered_hits=10, quota=3, dt=1.0)
        assert served == 3

    def test_vectorised_matches_scalar(self):
        levels = np.array([0.0, 100.0, 4000.0])
        harv = np.array([0.2, 0.6, 0.0])
        offered = np.array([5, 9, 2])
        quota = np.array([10, 4, 10])
        served, draw = sustainable_small_step(PM, levels, harv, offered, quota, dt=1.0)
        for i in range(3):
            one_served, one_draw = sustainable_small_step(
                PM, float(levels[i]), float(harv[i]), int(offered[i]), int(quota[i]), dt=1.0
            )
            assert served[i] == one_served
            assert draw[i] == pytest.approx(float(one_draw), abs=1e-12)


class TestGreedy:
    def test_large_step_always_active_full_quota(self):
        active, quotas = greedy_large_step(PM, 3)
        assert active.tolist() == [True] * 3
        assert quotas.tolist() == [10, 10, 10]

    def test_midnight_outage(self):
        assert greedy_small_step(PM, offered_hits=5, delivered=0.0) == 0

    def test_all_or_nothing_below_need(self):
        assert greedy_small_step(PM, offered_hits=10, delivered=0.6) == 0

    def test_serves_when_fully_powered(self):
        assert greedy_small_step(PM, offered_hits=17, delivered=1.0) == 10
        assert greedy_small_step(PM, offered_hits=4, delivered=1.0) == 4

    def test_light_load_needs_less(self):
        # 3 users need 0.65; 0.7 delivered suffices even though < 1.0
        assert greedy_small_step(PM, offered_hits=3, delivered=0.7) == 3

    def test_partial_variant_degrades_gracefully(self):
        assert greedy_small_step(PM, offered_hits=10, delivered=0.6, partial=True) == 2
        assert greedy_small_step(PM, offered_hits=10, delivered=0.4, partial=True) == 0

    def test_vectorised(self):
        served = greedy_small_step(PM, np.array([10, 3, 0]), np.array([1.0, 0.7, 0.0]))
        np.testing.assert_array_equal(served, [10, 3, 0])
