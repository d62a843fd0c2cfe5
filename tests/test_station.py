from __future__ import annotations

import numpy as np
import pytest

from scsim.station import CacheStore, PowerModel


class TestPowerModel:
    def test_defaults_normalised(self):
        pm = PowerModel()
        assert pm.p_const + pm.max_users * pm.p_per_user == pytest.approx(1.0, abs=1e-9)

    def test_rejects_unnormalised_model(self):
        with pytest.raises(ValueError):
            PowerModel(p_const=0.6)  # 0.6 + 10*0.05 = 1.1

    def test_rejects_sleep_above_const(self):
        with pytest.raises(ValueError):
            PowerModel(p_const=0.5, p_sleep=0.5)


class TestCacheStore:
    def test_split_partition_sizes(self):
        c = CacheStore(100, 0.8)
        assert c.popular_capacity == 80 and c.prefetch_capacity == 20
        c = CacheStore(31, 0.8)
        assert c.popular_capacity == 25 and c.prefetch_capacity == 6
        c = CacheStore(10, 1.0)
        assert c.popular_capacity == 10 and c.prefetch_capacity == 0

    def test_zero_capacity_caches_nothing(self):
        c = CacheStore(0, 0.8)
        assert c.prefetch_insert(5) is None
        assert not c.contains(5)

    def test_membership_is_union_of_partitions(self):
        c = CacheStore(10, 0.5)
        c.apply_popular_update([], [1, 2])
        c.prefetch_insert(7)
        assert c.contains(1) and c.contains(7)
        assert not c.contains(3)

    def test_fifo_eviction_order(self):
        c = CacheStore(5, 0.5)  # prefetch capacity 2
        assert c.prefetch_insert(11) is None
        assert c.prefetch_insert(12) is None
        assert c.prefetch_insert(13) == 11
        assert c.prefetch_insert(14) == 12
        assert c.prefetch == [13, 14]

    def test_duplicate_prefetch_is_noop(self):
        c = CacheStore(5, 0.5)
        c.prefetch_insert(11)
        assert c.prefetch_insert(11) is None
        assert c.prefetch == [11]

    def test_mask_written_through(self):
        mask = np.zeros(50, dtype=bool)
        c = CacheStore(4, 0.5, mask=mask)
        c.apply_popular_update([], [3, 4])
        c.prefetch_insert(9)
        assert mask[3] and mask[4] and mask[9]
        c.prefetch_insert(10)
        c.prefetch_insert(11)  # evicts 9
        assert not mask[9] and mask[10] and mask[11]
        c.apply_popular_update([4], [5])
        assert not mask[4] and mask[5]

    def test_mask_keeps_id_cached_in_both_partitions(self):
        mask = np.zeros(50, dtype=bool)
        c = CacheStore(4, 0.5, mask=mask)
        c.apply_popular_update([], [7])
        c.prefetch_insert(7)  # duplicate across partitions is a no-op
        c.apply_popular_update([7], [])
        assert not c.contains(7) or mask[7] == c.contains(7)

    def test_popular_overfull_rejected(self):
        c = CacheStore(4, 0.5)
        with pytest.raises(ValueError):
            c.apply_popular_update([], [1, 2, 3])

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CacheStore(-1)
        with pytest.raises(ValueError):
            CacheStore(10, split_ratio=1.5)
