"""Caching station model: power law and split cache."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["PowerModel", "CacheStore"]


@dataclass(frozen=True)
class PowerModel:
    """Linear load-dependent power law, normalised so full load draws 1.0.

    ``p_const`` is the load-independent floor an active station always
    pays; each concurrently served user adds ``p_per_user``. Sleeping
    costs only ``p_sleep``.
    """

    p_const: float = 0.5
    p_per_user: float = 0.05
    p_sleep: float = 0.01
    max_users: int = 10
    rate_per_user_mbps: float = 10.0

    def __post_init__(self) -> None:
        if self.max_users < 1:
            raise ValueError("max_users must be >= 1")
        rates = (self.p_const, self.p_per_user, self.p_sleep, self.rate_per_user_mbps)
        if not all(0 <= v < math.inf for v in rates):
            raise ValueError("power and rate parameters must be finite and >= 0")
        if self.p_per_user == 0:
            raise ValueError("p_per_user must be > 0: quotas divide by it")
        full = self.p_const + self.max_users * self.p_per_user
        if abs(full - 1.0) > 1e-9:
            raise ValueError(f"p_const + max_users * p_per_user must equal 1.0, got {full}")
        if self.p_sleep >= self.p_const:
            raise ValueError("p_sleep must be below p_const")


class CacheStore:
    """The two-partition caches of all stations at one size, as one bank.

    Catalog ids ``1..n_files`` sort by popularity, so a station's popular
    partition is the prefix ``1..n_popular[station]``: the epoch-scale
    update only ever grows it, up to ``ceil(split_ratio * capacity)`` ids.
    The rest of the capacity is the station's prefetch FIFO, which evicts
    its oldest entry when full. An insert never targets an id its station
    holds, so a FIFO is exactly its station's last ``prefetch_capacity``
    inserts: ``fifo`` holds them, one row per station, oldest first, with
    0 in the slots of inserts not yet made. ``n_popular`` and ``fifo`` are
    the bank's whole state; ``mask`` derives membership from them.
    """

    __slots__ = ("popular_capacity", "prefetch_capacity", "n_files", "n_popular", "fifo")

    def __init__(self, capacity: int, split_ratio: float, n_stations: int, n_files: int):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if not 0.0 <= split_ratio <= 1.0:
            raise ValueError("split_ratio must lie in [0, 1]")
        self.popular_capacity = min(int(capacity), math.ceil(split_ratio * capacity))
        self.prefetch_capacity = int(capacity) - self.popular_capacity
        self.n_files = int(n_files)
        self.n_popular = np.zeros(n_stations, dtype=np.int64)
        self.fifo = np.zeros((n_stations, self.prefetch_capacity), dtype=np.int64)

    @property
    def mask(self) -> np.ndarray:
        """Membership now, as a fresh boolean ``(n_stations, n_files + 1)`` block indexed by station and id."""
        mask = np.arange(self.n_files + 1) <= self.n_popular[:, None]
        mask[np.arange(len(mask))[:, None], self.fifo] = True
        mask[:, 0] = False  # id 0 is no content; it pads the FIFO slots not yet filled
        return mask

    def prefetch(self, station: int) -> list[int]:
        """A station's prefetch contents, oldest first."""
        row = self.fifo[station]
        return row[row > 0].tolist()

    def apply_popular_update(self, n: np.ndarray) -> None:
        """Grow each station's popular partition to ids ``1..n[station]``; none ever shrinks."""
        n = np.array(n, dtype=np.int64)
        if n.shape != self.n_popular.shape:
            raise ValueError(f"need one popular partition size for each of {self.n_popular.size} stations, not {n}")
        limit = min(self.popular_capacity, self.n_files)
        if not (np.all(n >= self.n_popular) and np.all(n <= limit)):
            raise ValueError(f"popular partitions can grow from {self.n_popular} up to {limit} ids, not to {n}")
        self.n_popular = n

    def prefetch_insert(self, picks: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        """Insert ``picks``, ``(stations, contents)`` in insert order; per pick, the id it removes from ``mask``.

        A full FIFO evicts its oldest entry, which leaves ``mask`` unless its
        station's popular partition has since grown over it; a pick that
        removes nothing reads 0. Each station's insert sequence is its FIFO
        followed by its picks, so the pick at position ``p`` evicts position
        ``p - prefetch_capacity``. Raises ValueError, changing nothing, when
        the bank has no prefetch slots, a pick's station or id is not in the
        bank, or its id is held by its station at its turn: popular, or at
        most ``prefetch_capacity`` inserts back in that sequence.
        """
        stations, contents = (np.asarray(a, dtype=np.int64) for a in picks)
        n_stations, cap = self.fifo.shape
        if cap == 0:
            raise ValueError("this cache size has no prefetch slots")
        if stations.size and not 0 <= stations.min() <= stations.max() < n_stations:
            raise ValueError(f"prefetch stations must lie in 0..{n_stations - 1}")
        if contents.size and not 0 < contents.min() <= contents.max() <= self.n_files:
            raise ValueError(f"prefetch ids must lie in 1..{self.n_files}")
        counts = np.bincount(stations, minlength=n_stations)
        before = np.cumsum(counts) - counts
        order = np.argsort(stations, kind="stable")
        owner = stations[order]
        # station i's sequence fills seq[first[i] : first[i] + cap + counts[i]]
        first = np.arange(n_stations) * cap + before
        at = first[owner] + cap + np.arange(owner.size) - before[owner]
        seq = np.empty(n_stations * cap + owner.size, dtype=np.int64)
        seq[(first[:, None] + np.arange(cap)).ravel()] = self.fifo.ravel()
        seq[at] = contents[order]
        key = np.repeat(np.arange(n_stations), cap + counts) * (self.n_files + 1) + seq
        by_key = np.argsort(key, kind="stable")
        repeat = (np.diff(key[by_key]) == 0) & (np.diff(by_key) <= cap) & (seq[by_key[1:]] > 0)
        if np.any(contents <= self.n_popular[stations]) or np.any(repeat):
            raise ValueError("a prefetch pick is already held by its station at its turn")
        evicted = seq[at - cap]
        removed = np.zeros(owner.size, dtype=np.int64)
        removed[order] = np.where(evicted > self.n_popular[owner], evicted, 0)
        self.fifo = seq[(first + counts)[:, None] + np.arange(cap)]
        return removed
