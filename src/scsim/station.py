"""Caching station model: power law and split cache."""
from __future__ import annotations

import math
from collections import deque
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

    Catalog ids sort by popularity, so a station's popular partition is the
    prefix ``1..n_popular[station]``: the epoch-scale update only ever grows
    it, up to ``ceil(split_ratio * capacity)`` ids. The rest of the capacity
    is the station's prefetch FIFO, which evicts its oldest entry when full.
    ``mask``, a boolean ``(n_stations, n_files + 1)`` block indexed by station
    and content id, is the one membership record, so bulk lookups stay O(1).
    The per-prefetch methods index its rows and keep ``n_popular`` as ints:
    2-D and numpy-scalar reads there double their cost.
    """

    __slots__ = ("popular_capacity", "prefetch_capacity", "n_popular", "_fifos", "mask", "_rows")

    def __init__(self, capacity: int, split_ratio: float = 0.8, *, mask: np.ndarray):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if not 0.0 <= split_ratio <= 1.0:
            raise ValueError("split_ratio must lie in [0, 1]")
        self.popular_capacity = min(int(capacity), math.ceil(split_ratio * capacity))
        self.prefetch_capacity = int(capacity) - self.popular_capacity
        self.n_popular = [0] * len(mask)
        self._fifos: list[deque[int]] = [deque() for _ in range(len(mask))]
        self.mask = mask
        self._rows = list(mask)

    def prefetch(self, station: int) -> list[int]:
        """A station's prefetch contents, oldest first."""
        return list(self._fifos[station])

    def contains(self, station: int, content: int) -> bool:
        return bool(self._rows[station][content])

    def apply_popular_update(self, n: np.ndarray) -> None:
        """Grow each station's popular partition to ids ``1..n[station]``; none ever shrinks."""
        n = np.array(n, dtype=np.int64)
        limit = min(self.popular_capacity, self.mask.shape[1] - 1)
        if not (np.all(n >= self.n_popular) and np.all(n <= limit)):
            raise ValueError(f"popular partitions can grow from {self.n_popular} up to {limit} ids, not to {n}")
        top = int(n.max(initial=0))
        self.mask[:, 1 : top + 1] |= np.arange(1, top + 1) <= n[:, None]
        self.n_popular = n.tolist()

    def prefetch_insert(self, pair: tuple[int, int]) -> int | None:
        """Insert ``(station, content)`` into that station's FIFO; returns the id it evicts, if any.

        An id either partition of the station already holds is skipped. An
        evicted id stays in ``mask`` when the station's popular partition
        has since grown over it.
        """
        station, content = pair
        row = self._rows[station]
        if self.prefetch_capacity == 0 or row[content]:
            return None
        fifo = self._fifos[station]
        evicted = None
        if len(fifo) >= self.prefetch_capacity:
            evicted = fifo.popleft()
            if evicted > self.n_popular[station]:
                row[evicted] = False
        fifo.append(content)
        row[content] = True
        return evicted
