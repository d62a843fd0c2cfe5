from __future__ import annotations

import numpy as np
import pytest

from scsim.station import CacheStore, PowerModel


def row():
    """A fresh membership row for content ids 0..49."""
    return np.zeros(50, dtype=bool)


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

    def test_rejects_non_finite_rate(self):
        for rate in (np.inf, np.nan):
            with pytest.raises(ValueError, match="finite"):
                PowerModel(rate_per_user_mbps=rate)


class TestCacheStore:
    def test_split_partition_sizes(self):
        c = CacheStore(100, 0.8, mask=row())
        assert c.popular_capacity == 80 and c.prefetch_capacity == 20
        c = CacheStore(31, 0.8, mask=row())
        assert c.popular_capacity == 25 and c.prefetch_capacity == 6
        c = CacheStore(10, 1.0, mask=row())
        assert c.popular_capacity == 10 and c.prefetch_capacity == 0

    def test_zero_capacity_caches_nothing(self):
        c = CacheStore(0, 0.8, mask=row())
        assert c.prefetch_insert(5) is None
        assert not c.contains(5)

    def test_membership_is_union_of_partitions(self):
        c = CacheStore(10, 0.5, mask=row())
        c.apply_popular_update(2)
        c.prefetch_insert(7)
        assert c.contains(1) and c.contains(2) and c.contains(7)
        assert not c.contains(3)

    def test_fifo_eviction_order(self):
        c = CacheStore(5, 0.5, mask=row())  # prefetch capacity 2
        assert c.prefetch_insert(11) is None
        assert c.prefetch_insert(12) is None
        assert c.prefetch_insert(13) == 11
        assert c.prefetch_insert(14) == 12
        assert c.prefetch == [13, 14]

    def test_duplicate_prefetch_is_noop(self):
        c = CacheStore(5, 0.5, mask=row())
        c.prefetch_insert(11)
        assert c.prefetch_insert(11) is None
        c.apply_popular_update(1)
        assert c.prefetch_insert(1) is None  # held by the popular partition
        assert c.prefetch == [11]

    def test_mask_written_through(self):
        mask = row()
        c = CacheStore(4, 0.5, mask=mask)
        c.apply_popular_update(1)
        c.prefetch_insert(9)
        assert mask[1] and mask[9] and not mask[2]
        c.prefetch_insert(10)
        c.prefetch_insert(11)  # evicts 9
        assert not mask[9] and mask[10] and mask[11]
        c.apply_popular_update(2)
        assert mask[1] and mask[2]

    def test_mask_keeps_id_cached_in_both_partitions(self):
        mask = row()
        c = CacheStore(9, 0.8, mask=mask)  # 8 popular slots, 1 prefetch slot
        c.prefetch_insert(7)
        c.apply_popular_update(8)  # the popular partition grows over 7
        assert c.prefetch_insert(20) == 7
        assert mask[7] and c.contains(7)
        assert mask[20] and not mask[9]

    def test_popular_overfull_rejected(self):
        c = CacheStore(4, 0.5, mask=row())  # 2 popular slots
        with pytest.raises(ValueError):
            c.apply_popular_update(3)
        c.apply_popular_update(2)
        with pytest.raises(ValueError):
            c.apply_popular_update(1)
        assert c.n_popular == 2
        c = CacheStore(100, 1.0, mask=row())  # the row holds ids 1..49
        with pytest.raises(ValueError):
            c.apply_popular_update(50)
        c.apply_popular_update(49)
        assert int(c.mask.sum()) == 49

    def test_random_operations_keep_invariants(self):
        """Random grows and inserts against a plain list-and-count model."""
        rng = np.random.default_rng(11)
        n_files = 30
        for _ in range(200):
            c = CacheStore(int(rng.integers(0, 25)), float(rng.random()),
                           mask=np.zeros(n_files + 1, dtype=bool))
            limit = min(c.popular_capacity, n_files)
            n_popular, fifo = 0, []
            for _ in range(40):
                if rng.random() < 0.2:
                    n_popular = int(rng.integers(n_popular, limit + 1))
                    c.apply_popular_update(n_popular)
                else:
                    content = int(rng.integers(1, n_files + 1))
                    expected = None
                    if c.prefetch_capacity and content > n_popular and content not in fifo:
                        if len(fifo) == c.prefetch_capacity:
                            expected = fifo.pop(0)
                        fifo.append(content)
                    assert c.prefetch_insert(content) == expected
                assert c.n_popular == n_popular and c.prefetch == fifo
                assert len(set(fifo)) == len(fifo) <= c.prefetch_capacity
                held = set(np.flatnonzero(c.mask).tolist())
                assert held == set(range(1, n_popular + 1)) | set(fifo)

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            CacheStore(-1, mask=row())
        with pytest.raises(ValueError):
            CacheStore(10, split_ratio=1.5, mask=row())
