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
        full = self.p_const + self.max_users * self.p_per_user
        if abs(full - 1.0) > 1e-9:
            raise ValueError(f"p_const + max_users * p_per_user must equal 1.0, got {full}")
        if self.p_sleep >= self.p_const:
            raise ValueError("p_sleep must be below p_const")


class CacheStore:
    """Two-partition cache: the top ``n_popular`` ids plus a prefetch FIFO.

    Catalog ids sort by popularity, so the popular partition is the prefix
    ``1..n_popular``: the epoch-scale update only ever grows it, up to
    ``ceil(split_ratio * capacity)`` ids. The remainder of the capacity
    belongs to the prefetch FIFO, which evicts its oldest entry when full.
    ``mask``, a boolean row indexed by content id, is the one membership
    record, so bulk lookups stay O(1) for the simulation loop.
    """

    __slots__ = ("capacity", "popular_capacity", "prefetch_capacity", "n_popular", "_fifo", "mask")

    def __init__(self, capacity: int, split_ratio: float = 0.8, *, mask: np.ndarray):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if not 0.0 <= split_ratio <= 1.0:
            raise ValueError("split_ratio must lie in [0, 1]")
        self.capacity = int(capacity)
        self.popular_capacity = min(self.capacity, math.ceil(split_ratio * self.capacity))
        self.prefetch_capacity = self.capacity - self.popular_capacity
        self.n_popular = 0
        self._fifo: deque[int] = deque()
        self.mask = mask

    @property
    def prefetch(self) -> list[int]:
        """Prefetch contents, oldest first."""
        return list(self._fifo)

    def contains(self, content: int) -> bool:
        return bool(self.mask[content])

    def apply_popular_update(self, n: int) -> None:
        """Grow the popular partition to ids ``1..n``; it never shrinks."""
        limit = min(self.popular_capacity, self.mask.size - 1)
        if not self.n_popular <= n <= limit:
            raise ValueError(
                f"popular partition can grow from {self.n_popular} up to {limit} ids, not to {n}"
            )
        self.mask[self.n_popular + 1 : n + 1] = True
        self.n_popular = n

    def prefetch_insert(self, content: int) -> int | None:
        """Insert into the FIFO; returns the evicted id when one falls out.

        An id either partition already holds is skipped. An evicted id
        stays in ``mask`` when the popular partition has since grown over it.
        """
        if self.prefetch_capacity == 0 or self.mask[content]:
            return None
        evicted = None
        if len(self._fifo) >= self.prefetch_capacity:
            evicted = self._fifo.popleft()
            if evicted > self.n_popular:
                self.mask[evicted] = False
        self._fifo.append(content)
        self.mask[content] = True
        return evicted
