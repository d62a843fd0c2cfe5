from __future__ import annotations

from dataclasses import fields

import numpy as np
import pytest

from scsim.policy import _users, plan_prefetch
from scsim.station import CacheStore, PowerModel


def bank(capacity, split, n_stations=1):
    """An empty bank over content ids 1..49 at each station."""
    return CacheStore(capacity, split, n_stations, 49)


def insert(c, station, content):
    """Insert one pick; the id it removed from the mask, or 0."""
    (removed,) = c.prefetch_insert(([station], [content])).tolist()
    return removed


def power_pairs():
    """2000 random ``(p_const, max_users)`` pairs, then ``p_const`` at its edges."""
    rng = np.random.default_rng(27)
    pairs = [(float(p), int(m)) for p, m in zip(rng.uniform(0.0, 1.0, 2000), rng.integers(1, 1000, 2000))]
    edges = (float(np.nextafter(0.0, 1.0)), 0.5, 0.6, float(np.nextafter(1.0, 0.0)))
    return pairs + [(p, m) for p in edges for m in (1, 3, 10, 999)]


class TestPowerModel:
    def test_defaults_normalised(self):
        pm = PowerModel()
        assert pm.p_const + pm.max_users * pm.p_per_user == pytest.approx(1.0, abs=1e-9)

    def test_p_per_user_is_derived(self):
        """``p_per_user`` is ``(1 - p_const) / max_users`` bit for bit, and no field or argument."""
        assert [f.name for f in fields(PowerModel)] == ["p_const", "p_sleep", "max_users", "rate_per_user_mbps"]
        for p_const, max_users in power_pairs():
            pm = PowerModel(p_const=p_const, p_sleep=0.0, max_users=max_users)
            assert pm.p_per_user == (1.0 - p_const) / max_users
        with pytest.raises(AttributeError):
            pm.p_per_user = 0.1
        with pytest.raises(TypeError):
            PowerModel(p_per_user=0.05)

    def test_full_load_serves_max_users(self):
        """At the full-load draw 1.0 the quota arithmetic fits exactly ``max_users`` users."""
        for p_const, max_users in power_pairs():
            pm = PowerModel(p_const=p_const, p_sleep=0.0, max_users=max_users)
            assert _users(pm, 1.0) == max_users

    def test_rejects_sleep_above_const(self):
        with pytest.raises(ValueError):
            PowerModel(p_const=0.5, p_sleep=0.5)

    def test_rejects_non_finite_rate(self):
        for rate in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                PowerModel(rate_per_user_mbps=rate)

    def test_rejects_free_users(self):
        """Quotas divide by ``p_per_user = (1 - p_const) / max_users``, so it must be > 0 and finite."""
        with pytest.raises(ValueError, match="p_const"):
            PowerModel(p_const=1.0)
        with pytest.raises(ValueError, match="max_users"):
            PowerModel(max_users=0)


class TestCacheStore:
    def test_split_partition_sizes(self):
        c = bank(100, 0.8)
        assert c.popular_capacity == 80 and c.prefetch_capacity == 20
        c = bank(31, 0.8)
        assert c.popular_capacity == 25 and c.prefetch_capacity == 6
        c = bank(10, 1.0)
        assert c.popular_capacity == 10 and c.prefetch_capacity == 0

    def test_zero_capacity_caches_nothing(self):
        c = bank(0, 0.8)
        with pytest.raises(ValueError, match="no prefetch slots"):
            insert(c, 0, 5)
        assert not c.mask[0, 5]
        picks = plan_prefetch(([0, 1], [0, 0], [5, 6]), c, 2)
        assert picks.dtype == np.int64 and picks.tolist() == []

    def test_membership_is_union_of_partitions(self):
        c = bank(10, 0.5)
        c.apply_popular_update([2])
        insert(c, 0, 7)
        assert c.mask[0, 1] and c.mask[0, 2] and c.mask[0, 7]
        assert not c.mask[0, 3]

    def test_fifo_eviction_order(self):
        c = bank(5, 0.5)  # prefetch capacity 2
        assert insert(c, 0, 11) == 0
        assert insert(c, 0, 12) == 0
        assert insert(c, 0, 13) == 11
        assert insert(c, 0, 14) == 12
        assert c.prefetch(0) == [13, 14]
        # one call applies its picks in order, as one call per pick does
        c = bank(5, 0.5)
        assert c.prefetch_insert(([0] * 4, [11, 12, 13, 14])).tolist() == [0, 0, 11, 12]
        assert c.prefetch(0) == [13, 14]

    def test_held_pick_is_rejected(self):
        """A pick its station holds at its turn, in either partition, raises and changes nothing."""
        c = bank(5, 0.5)  # prefetch capacity 2
        insert(c, 0, 11)
        c.apply_popular_update([1])
        for stations, contents in (([0], [11]), ([0], [1]), ([0, 0, 0], [12, 13, 12]), ([0, 0], [12, 11])):
            with pytest.raises(ValueError, match="already held"):
                c.prefetch_insert((stations, contents))
            assert c.prefetch(0) == [11]
            assert np.flatnonzero(c.mask[0]).tolist() == [1, 11]
        # a pick must name one of the bank's stations
        two = bank(5, 0.5, n_stations=2)
        two.prefetch_insert(([1], [11]))
        for station in (2, 3, -1):
            with pytest.raises(ValueError, match=r"stations must lie in 0\.\.1"):
                two.prefetch_insert(([0, station], [12, 13]))
            assert two.prefetch(0) == [] and two.prefetch(1) == [11]
            assert np.flatnonzero(two.mask).tolist() == [50 + 11]
        # stations and contents pair up one to one, as 1-D arrays
        for stations, contents in (([0], [12, 13]), ([0, 0], [12]), ([[0]], [[12]]), (0, 12)):
            with pytest.raises(ValueError, match="1-D stations and contents arrays of one length"):
                c.prefetch_insert((stations, contents))
            assert c.prefetch(0) == [11]
            assert np.flatnonzero(c.mask[0]).tolist() == [1, 11]
        # more than two inserts back the id has left the FIFO, so it may come back
        assert c.prefetch_insert(([0] * 4, [12, 13, 14, 12])).tolist() == [0, 11, 12, 13]
        assert c.prefetch(0) == [14, 12]
        with pytest.raises(ValueError, match="ids must lie"):
            c.prefetch_insert(([0], [50]))

    def test_mask_follows_updates_and_inserts(self):
        c = bank(4, 0.5)
        c.apply_popular_update([1])
        insert(c, 0, 9)
        assert c.mask[0, 1] and c.mask[0, 9] and not c.mask[0, 2]
        insert(c, 0, 10)
        insert(c, 0, 11)  # evicts 9
        assert not c.mask[0, 9] and c.mask[0, 10] and c.mask[0, 11]
        c.apply_popular_update([2])
        assert c.mask[0, 1] and c.mask[0, 2]

    def test_mask_is_derived_not_stored(self):
        """Writes into a mask read reach neither later reads nor the bank's picks and evictions."""
        c = bank(4, 0.5, n_stations=2)  # 2 popular slots, 2 prefetch slots
        c.apply_popular_update([1, 1])
        c.prefetch_insert(([0, 0], [9, 10]))
        before = c.mask.copy()
        scribbled = c.mask
        scribbled[:] = ~scribbled
        np.testing.assert_array_equal(c.mask, before)
        requests = (np.array([0, 0, 1]), np.array([0, 1, 1]), np.array([9, 9, 12]))
        assert plan_prefetch(requests, c, 2).tolist() == [1, 2]
        assert c.prefetch_insert(([0], [11])).tolist() == [9]
        assert np.flatnonzero(c.mask[0]).tolist() == [1, 10, 11]

    def test_mask_keeps_id_cached_in_both_partitions(self):
        c = bank(9, 0.8)  # 8 popular slots, 1 prefetch slot
        insert(c, 0, 7)
        c.apply_popular_update([8])  # the popular partition grows over 7
        assert insert(c, 0, 20) == 0  # evicts 7, which stays cached
        assert c.prefetch(0) == [20]
        assert c.mask[0, 7]
        assert c.mask[0, 20] and not c.mask[0, 9]

    def test_popular_overfull_rejected(self):
        c = bank(4, 0.5)  # 2 popular slots
        with pytest.raises(ValueError):
            c.apply_popular_update([3])
        c.apply_popular_update([2])
        with pytest.raises(ValueError):
            c.apply_popular_update([1])
        assert c.n_popular.tolist() == [2]
        c = bank(100, 1.0)  # the row holds ids 1..49
        with pytest.raises(ValueError):
            c.apply_popular_update([50])
        c.apply_popular_update([49])
        assert int(c.mask.sum()) == 49

    def test_one_call_grows_every_station(self):
        c = bank(10, 0.5, n_stations=3)  # 5 popular slots
        c.apply_popular_update(np.array([1, 3, 0]))
        assert c.n_popular.tolist() == [1, 3, 0]
        assert [np.flatnonzero(r).tolist() for r in c.mask] == [[1], [1, 2, 3], []]
        c.apply_popular_update(np.array([4, 3, 5]))
        assert [np.flatnonzero(r).tolist() for r in c.mask] == [[1, 2, 3, 4], [1, 2, 3], [1, 2, 3, 4, 5]]

    def test_rejected_update_changes_no_station(self):
        """One station's shrink or overgrowth, or a size count other than one per station, rejects the whole call."""
        c = bank(10, 0.5, n_stations=3)  # 5 popular slots
        c.apply_popular_update(np.array([2, 2, 2]))
        for bad in ([3, 1, 3], [3, 6, 3], [3], [3, 3, 3, 3], 3):
            with pytest.raises(ValueError):
                c.apply_popular_update(np.array(bad))
            assert c.n_popular.tolist() == [2, 2, 2]
            assert int(c.mask.sum()) == 6

    def test_rows_are_independent(self):
        """Inserts and evictions at one station leave every other row as it was."""
        c = bank(5, 0.4, n_stations=3)  # 2 popular slots, 3 prefetch slots
        c.apply_popular_update(np.array([2, 0, 1]))
        c.prefetch_insert(([0, 2], [30, 31]))
        others = c.mask[[0, 2]]
        c.prefetch_insert(([1] * 5, [10, 11, 12, 13, 14]))
        assert c.prefetch(1) == [12, 13, 14]
        np.testing.assert_array_equal(c.mask[[0, 2]], others)
        assert c.prefetch(0) == [30] and c.prefetch(2) == [31]
        assert np.flatnonzero(c.mask[1]).tolist() == [12, 13, 14]

    def test_eviction_guard_reads_own_station_count(self):
        """An evicted id stays cached only where that station's popular prefix covers it."""
        c = bank(9, 0.8, n_stations=2)  # 8 popular slots, 1 prefetch slot
        c.prefetch_insert(([0, 1], [7, 7]))
        c.apply_popular_update(np.array([8, 0]))
        # both evict 7; only station 1 drops it from the mask
        assert c.prefetch_insert(([0, 1], [20, 20])).tolist() == [0, 7]
        assert c.prefetch(0) == c.prefetch(1) == [20]
        assert c.mask[0, 7] and not c.mask[1, 7]
        assert c.mask[0, 20] and c.mask[1, 20]

    def test_random_operations_keep_invariants(self):
        """Random grows and insert batches on a 3-station bank against per-station list-and-count models."""
        rng = np.random.default_rng(11)
        n_files, n_stations = 30, 3
        for _ in range(200):
            c = CacheStore(int(rng.integers(0, 25)), float(rng.random()), n_stations, n_files)
            limit = min(c.popular_capacity, n_files)
            n_popular, fifos = [0] * n_stations, [[] for _ in range(n_stations)]
            for _ in range(60):
                if rng.random() < 0.2:
                    n_popular = [int(rng.integers(n, limit + 1)) for n in n_popular]
                    c.apply_popular_update(np.array(n_popular))
                else:
                    size = int(rng.integers(0, 5))
                    stations = rng.integers(n_stations, size=size)
                    contents = rng.integers(1, n_files + 1, size=size)
                    after, expected = [list(f) for f in fifos], []
                    for station, content in zip(stations.tolist(), contents.tolist()):
                        fifo = after[station]
                        if not c.prefetch_capacity or content <= n_popular[station] or content in fifo:
                            expected = None
                            break
                        evicted = fifo.pop(0) if len(fifo) == c.prefetch_capacity else 0
                        expected.append(evicted if evicted > n_popular[station] else 0)
                        fifo.append(content)
                    if expected is None or not c.prefetch_capacity:
                        with pytest.raises(ValueError):
                            c.prefetch_insert((stations, contents))
                    else:
                        assert c.prefetch_insert((stations, contents)).tolist() == expected
                        fifos = after
                assert c.n_popular.tolist() == n_popular
                for station, fifo in enumerate(fifos):
                    assert c.prefetch(station) == fifo
                    assert len(set(fifo)) == len(fifo) <= c.prefetch_capacity
                    held = set(np.flatnonzero(c.mask[station]).tolist())
                    assert held == set(range(1, n_popular[station] + 1)) | set(fifo)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            bank(-1, 0.8)
        with pytest.raises(ValueError):
            bank(10, 1.5)
