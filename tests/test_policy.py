from __future__ import annotations

from collections import deque

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


def cache(capacity=10, split=0.8, n_popular=0, n_stations=1):
    c = CacheStore(capacity, split, n_stations, CAT.n_files)
    c.apply_popular_update([n_popular] * n_stations)
    return c


class TestBackhaulBudget:
    def test_realized_within_range(self):
        budget = BackhaulBudget(50, (0.5, 1.0))
        rng = np.random.default_rng(0)
        vals = budget.realize(rng, 500)
        assert min(vals) >= 25 and max(vals) <= 50

    def test_deterministic(self):
        budget = BackhaulBudget(50, (0.5, 1.0))
        first, again = (budget.realize(np.random.default_rng(4), 3) for _ in range(2))
        assert first.tolist() == again.tolist()

    def test_one_call_equals_single_draws(self):
        """``realize(rng, n)`` is ``n`` scalar draws in order, rounded half to even."""
        for budget in (BackhaulBudget(50, (0.5, 1.0)), BackhaulBudget(7, (0.0, 3.0))):
            lo, hi = budget.variability
            for seed in range(20):
                for n in (1, 3, 10, 37):
                    one_call = budget.realize(np.random.default_rng(seed), n)
                    rng = np.random.default_rng(seed)
                    single = [
                        int(round(budget.files_per_epoch * (lo + (hi - lo) * rng.random())))
                        for _ in range(n)
                    ]
                    assert one_call.dtype == np.int64 and one_call.tolist() == single
                    rng = np.random.default_rng(seed)
                    assert [int(budget.realize(rng, 1)[0]) for _ in range(n)] == single
        # exact halves round to even, as round() does
        assert BackhaulBudget(1, (2.5, 2.5)).realize(np.random.default_rng(0), 2).tolist() == [2, 2]
        assert BackhaulBudget(1, (3.5, 3.5)).realize(np.random.default_rng(0), 2).tolist() == [4, 4]

    def test_rejects_bad_range(self):
        with pytest.raises(ValueError):
            BackhaulBudget(50, (0.9, 0.1))
        with pytest.raises(ValueError, match="finite"):
            BackhaulBudget(50, (0.5, float("inf")))
        with pytest.raises(ValueError):
            BackhaulBudget(-1)


def swap_planner(current, k, budget, partition_size):
    """The general planner: fill free slots with the most popular missing
    ids, then swap the least popular cached id for the most popular missing
    one, one fetch per unit of budget. Returns the new set."""
    current = set(current)
    evictable = sorted(current - set(range(1, k + 1)), reverse=True)
    free = partition_size - len(current)
    for content in sorted(set(range(1, k + 1)) - current)[:budget]:
        if free > 0:
            free -= 1
        elif evictable:
            current.discard(evictable.pop(0))
        else:
            break
        current.add(content)
    return current


class TestPlanPopularUpdate:
    def test_cold_start_fetches_top_k(self):
        assert plan_popular_update(0, CAT, budget=10, partition_size=5) == 5

    def test_growth_is_budget_limited(self):
        assert plan_popular_update(0, CAT, budget=3, partition_size=5) == 3
        assert plan_popular_update(2, CAT, budget=2, partition_size=10) == 4

    def test_free_slots_filled_before_swaps(self):
        c = cache(capacity=3, split=1.0, n_popular=1)
        n = plan_popular_update(c.n_popular, CAT, budget=np.array([2]), partition_size=3)
        assert n.tolist() == [3]  # both fetches land in free slots
        c.apply_popular_update(n)
        assert c.mask[0, 1] and c.mask[0, 2] and c.mask[0, 3]
        # full partition: more budget swaps nothing in or out
        assert plan_popular_update(n, CAT, budget=5, partition_size=3) == 3

    def test_budget_zero_is_noop(self):
        assert plan_popular_update(2, CAT, budget=0, partition_size=5) == 2

    def test_already_converged_is_fixed_point(self):
        assert plan_popular_update(3, CAT, budget=99, partition_size=3) == 3

    def test_partition_larger_than_catalog(self):
        small = build_catalog(4, 1.0)
        assert plan_popular_update(0, small, budget=99, partition_size=10) == 4

    def test_rejects_negative_budget_or_partition(self):
        with pytest.raises(ValueError):
            plan_popular_update(0, CAT, budget=-1, partition_size=5)
        with pytest.raises(ValueError):
            plan_popular_update(0, CAT, budget=5, partition_size=-1)

    def test_random_plans_are_sound_and_improving(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            part = int(rng.integers(0, 30))
            n = int(rng.integers(0, part + 1))
            budget = int(rng.integers(0, 12))
            new = plan_popular_update(n, CAT, budget, part)
            assert n <= new <= part
            assert new - n <= budget
            assert new == n + budget or new == part
            assert hit_rate(CAT, set(range(1, new + 1))) >= hit_rate(CAT, set(range(1, n + 1)))

    def test_unlimited_budget_converges_in_one_round(self):
        for n in (0, 7, 20):
            assert plan_popular_update(n, CAT, budget=1000, partition_size=20) == 20

    def test_matches_swap_planner_epoch_after_epoch(self):
        """One array call per epoch plans every station as the swap planner does."""
        rng = np.random.default_rng(23)
        small = build_catalog(40, 1.0)
        n_stations = 4
        for _ in range(100):
            part = int(rng.integers(0, 60))
            n = np.zeros(n_stations, dtype=np.int64)
            current = [set() for _ in range(n_stations)]
            for _ in range(8):
                budgets = rng.integers(0, 12, size=n_stations)
                n = plan_popular_update(n, small, budgets, part)
                for i in range(n_stations):
                    current[i] = swap_planner(current[i], min(part, small.n_files), int(budgets[i]), part)
                    assert current[i] == set(range(1, int(n[i]) + 1))


def plan(c, pairs, budget):
    """The ``(station, content)`` pairs ``plan_prefetch`` picks when all of them fall in one step."""
    stations, contents = np.array(pairs, dtype=np.int64).reshape(-1, 2).T
    return [pairs[k] for k in plan_prefetch((np.zeros(len(pairs), dtype=np.int64), stations, contents), c, budget)]


class OldBank:
    """The per-pair cache the epoch planner replaces: one deque FIFO per station, read through its mask."""

    def __init__(self, prefetch_capacity, n_stations, n_files):
        self.prefetch_capacity = prefetch_capacity
        self.n_popular = [0] * n_stations
        self.fifos = [deque() for _ in range(n_stations)]
        self.mask = np.zeros((n_stations, n_files + 1), dtype=bool)

    def grow(self, n_popular):
        for station, n in enumerate(n_popular):
            self.mask[station, 1 : n + 1] = True
        self.n_popular = list(n_popular)

    def contains(self, station, content):
        return bool(self.mask[station, content])

    def prefetch_insert(self, pair):
        station, content = pair
        row = self.mask[station]
        if self.prefetch_capacity == 0 or row[content]:
            return None
        fifo = self.fifos[station]
        evicted = None
        if len(fifo) >= self.prefetch_capacity:
            evicted = fifo.popleft()
            if evicted > self.n_popular[station]:
                row[evicted] = False
        fifo.append(content)
        row[content] = True
        return evicted


def old_plan_prefetch(requests, cache, budget_per_station):
    """One step's plan, as the per-pair planner made it: request indices of the picks."""
    plan, picks = [], []
    taken = {}
    for k, pair in enumerate(requests):
        st_idx, content = pair
        n = taken.get(st_idx, 0)
        if n < budget_per_station and pair not in plan and not cache.contains(st_idx, content):
            plan.append(pair)
            picks.append(k)
            taken[st_idx] = n + 1
    return picks


class TestPlanPrefetch:
    def test_sooner_arrival_wins_budget(self):
        """Requests come most urgent first, so the earlier pair wins the budget."""
        assert plan(cache(n_stations=4), [(3, 202), (3, 101)], budget=1) == [(3, 202)]

    def test_cached_content_skipped(self):
        c = cache(n_popular=7)
        assert plan(c, [(0, 7)], budget=5) == []
        c.prefetch_insert(([0], [9]))
        assert plan(c, [(0, 9)], budget=5) == []

    def test_reads_the_destination_row(self):
        c = cache(n_stations=2)
        c.prefetch_insert(([0], [9]))
        assert plan(c, [(0, 9), (1, 9)], budget=5) == [(1, 9)]

    def test_duplicate_predictions_coalesce(self):
        assert plan(cache(), [(0, 5), (0, 5)], budget=5) == [(0, 5)]

    def test_independent_budgets_per_station(self):
        assert plan(cache(n_stations=2), [(0, 1), (0, 2), (1, 3)], budget=1) == [(0, 1), (1, 3)]

    def test_rejects_malformed_requests(self):
        """Steps, stations and ids pair up one to one, as 1-D arrays, and the budget is >= 0."""
        c = cache(n_stations=2)
        for requests in (([0, 0, 1], [0, 0], [11, 12]), ([0], [0], [11, 12]), ([[0]], [[0]], [[11]]), (0, 0, 11)):
            with pytest.raises(ValueError, match="1-D step, station and content arrays of one length"):
                plan_prefetch(requests, c, 2)
        with pytest.raises(ValueError, match="budget_per_station"):
            plan_prefetch(([0], [0], [11]), c, -1)

    def test_matches_planning_and_inserting_step_by_step(self):
        """One epoch-wide plan and one insert give what the per-step, per-pair loop gave."""
        rng = np.random.default_rng(2024)
        n_files = 9
        seen = dict.fromkeys(("repeat", "evicted_then_requested", "popular_over_fifo", "budget_over_fifo"), 0)
        for _ in range(2000):
            n_stations = int(rng.integers(1, 4))
            fifo_size, popular_size = int(rng.integers(1, 6)), int(rng.integers(0, 5))
            capacity = fifo_size + popular_size
            split = max(popular_size - 0.5, 0.0) / capacity
            budget = int(rng.integers(0, 5))
            c = CacheStore(capacity, split, n_stations, n_files)
            assert c.prefetch_capacity == fifo_size
            old = OldBank(fifo_size, n_stations, n_files)
            n_popular = np.zeros(n_stations, dtype=np.int64)
            for _ in range(int(rng.integers(1, 5))):
                n_popular = np.minimum(n_popular + rng.integers(0, 3, n_stations), c.popular_capacity)
                c.apply_popular_update(n_popular)
                old.grow(n_popular.tolist())
                seen["popular_over_fifo"] += any(
                    min(fifo, default=n_files + 1) <= n for fifo, n in zip(old.fifos, n_popular.tolist())
                )
                sizes = rng.integers(0, 7, size=int(rng.integers(1, 7)))
                step = np.repeat(np.sort(rng.choice(20, size=sizes.size, replace=False)), sizes)
                station = rng.integers(0, n_stations, size=step.size)
                content = rng.integers(1, n_files + 1, size=step.size)

                picks = plan_prefetch((step, station, content), c, budget)
                removed = c.prefetch_insert((station[picks], content[picks]))

                want_picks, want_removed = [], []
                for s in np.unique(step).tolist():
                    group = np.flatnonzero(step == s)
                    pairs = list(zip(station[group].tolist(), content[group].tolist()))
                    at_start = [set(fifo) for fifo in old.fifos]
                    picked = old_plan_prefetch(pairs, old, budget)
                    taken = [0] * n_stations
                    for k, pair in enumerate(pairs):
                        st_idx, content_id = pair
                        if k in picked:
                            evicted = old.prefetch_insert(pair)
                            gone = evicted is not None and evicted > old.n_popular[st_idx]
                            want_removed.append(evicted if gone else 0)
                            taken[st_idx] += 1
                            seen["budget_over_fifo"] += taken[st_idx] > fifo_size
                        elif content_id in at_start[st_idx] and content_id not in old.fifos[st_idx]:
                            seen["evicted_then_requested"] += 1
                        seen["repeat"] += pair in pairs[:k]
                    want_picks += group[picked].tolist()

                assert picks.tolist() == want_picks
                assert removed.tolist() == want_removed
                for st_idx in range(n_stations):
                    assert c.prefetch(st_idx) == list(old.fifos[st_idx])
                np.testing.assert_array_equal(c.mask, old.mask)
        # every case the window rule must get right came up
        assert min(seen.values()) >= 50, seen


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
        served, draw = sustainable_small_step(PM, 0.0, 1.0, offered_hits=7, quota=10, active=True, dt=1.0)
        assert served == 7
        assert draw == pytest.approx(0.85, abs=1e-12)

    def test_affordable_floor(self):
        served, _ = sustainable_small_step(PM, 0.0, 0.74, offered_hits=10, quota=10, active=True, dt=1.0)
        assert served == 4

    def test_brownout_serves_nothing_but_drains(self):
        served, draw = sustainable_small_step(PM, 0.1, 0.1, offered_hits=10, quota=10, active=True, dt=1.0)
        assert served == 0
        assert draw == pytest.approx(0.2, abs=1e-12)

    def test_never_requests_beyond_available(self):
        rng = np.random.default_rng(31)
        for _ in range(500):
            level = float(rng.random() * 2)
            harv = float(rng.random() * 1.5)
            dt = float(rng.choice([1.0, 5.0]))
            served, draw = sustainable_small_step(
                PM, level, harv, offered_hits=int(rng.integers(0, 20)), quota=int(rng.integers(0, 11)), active=True, dt=dt
            )
            assert draw <= min(1.0, level / dt + harv) + 1e-9
            assert served <= 10

    def test_quota_binds(self):
        served, _ = sustainable_small_step(PM, 1e6, 1.0, offered_hits=10, quota=3, active=True, dt=1.0)
        assert served == 3

    def test_vectorised_matches_scalar(self):
        levels = np.array([0.0, 100.0, 4000.0])
        harv = np.array([0.2, 0.6, 0.0])
        offered = np.array([5, 9, 2])
        quota = np.array([10, 4, 10])
        served, draw = sustainable_small_step(PM, levels, harv, offered, quota, True, dt=1.0)
        for i in range(3):
            one_served, one_draw = sustainable_small_step(
                PM, float(levels[i]), float(harv[i]), int(offered[i]), int(quota[i]), True, dt=1.0
            )
            assert served[i] == one_served
            assert draw[i] == pytest.approx(float(one_draw), abs=1e-12)


    def test_sleeping_station_serves_nobody_and_draws_p_sleep(self):
        served, draw = sustainable_small_step(PM, 50.0, 0.0, offered_hits=10, quota=10, active=False, dt=1.0)
        assert served == 0
        assert draw == PM.p_sleep

    def test_sleeping_station_browns_out_below_p_sleep(self):
        """A sleeper draws what the store and harvest hold when that is below p_sleep."""
        served, draw = sustainable_small_step(PM, 0.004, 0.002, offered_hits=3, quota=0, active=False, dt=2.0)
        assert served == 0
        assert draw == 0.004 / 2.0 + 0.002 < PM.p_sleep

    def test_active_mask_picks_the_rule_per_station(self):
        levels = np.array([100.0, 100.0, 0.0, 0.0])
        harv = np.array([0.5, 0.5, 0.003, 0.003])
        active = np.array([True, False, True, False])
        served, draw = sustainable_small_step(PM, levels, harv, 7, 10, active, dt=1.0)
        assert served.dtype == np.int64
        assert served.tolist() == [7, 0, 0, 0]
        assert draw.tolist() == [PM.p_const + PM.p_per_user * 7, PM.p_sleep, 0.003, 0.003]
        for i in range(4):
            one_served, one_draw = sustainable_small_step(
                PM, float(levels[i]), float(harv[i]), 7, 10, bool(active[i]), dt=1.0
            )
            assert (served[i], draw[i]) == (one_served, one_draw)


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

    def test_partial_needs_no_p_const_guard(self):
        """Below ``p_const`` the partial room already floors to 0."""
        rng = np.random.default_rng(20261020)
        for _ in range(2000):
            max_users = int(rng.integers(1, 40))
            p_const = float(rng.uniform(0.01, 0.99))
            pm = PowerModel(p_const=p_const, p_sleep=0.0, max_users=max_users)
            delivered = np.concatenate((
                rng.uniform(0.0, 1.0, 500),
                p_const + rng.uniform(-1e-9, 1e-9, 500),
                np.nextafter(p_const, [0.0, 1.0]),
            ))
            offered = rng.integers(0, 2 * max_users, delivered.size)
            target = np.minimum(offered, max_users)
            room = np.floor((delivered - p_const) / pm.p_per_user + 1e-9)
            room = np.maximum(room.astype(np.int64), 0)
            guarded = np.where(delivered + 1e-12 >= p_const, np.minimum(target, room), 0)
            np.testing.assert_array_equal(
                greedy_small_step(pm, offered, delivered, partial=True), guarded, strict=True
            )
