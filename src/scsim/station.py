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
        if min(self.p_const, self.p_per_user, self.p_sleep, self.rate_per_user_mbps) < 0:
            raise ValueError("power and rate parameters must be >= 0")
        full = self.p_const + self.max_users * self.p_per_user
        if abs(full - 1.0) > 1e-9:
            raise ValueError(f"p_const + max_users * p_per_user must equal 1.0, got {full}")
        if self.p_sleep >= self.p_const:
            raise ValueError("p_sleep must be below p_const")


class CacheStore:
    """Two-partition cache: a popularity-ranked part plus a prefetch FIFO.

    The popular partition holds up to ``ceil(split_ratio * capacity)``
    ids and is rewritten by the epoch-scale update planner; the remainder
    of the capacity belongs to the prefetch FIFO, which evicts its oldest
    entry when full. A membership mask row can be attached so bulk lookups
    stay O(1) for the simulation loop.
    """

    __slots__ = ("capacity", "popular_capacity", "prefetch_capacity", "popular", "_fifo", "_fifo_set", "mask")

    def __init__(self, capacity: int, split_ratio: float = 0.8, mask: np.ndarray | None = None):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        if not 0.0 <= split_ratio <= 1.0:
            raise ValueError("split_ratio must lie in [0, 1]")
        self.capacity = int(capacity)
        self.popular_capacity = min(self.capacity, math.ceil(split_ratio * self.capacity))
        self.prefetch_capacity = self.capacity - self.popular_capacity
        self.popular: set[int] = set()
        self._fifo: deque[int] = deque()
        self._fifo_set: set[int] = set()
        self.mask = mask

    @property
    def prefetch(self) -> list[int]:
        """Prefetch contents, oldest first."""
        return list(self._fifo)

    def contains(self, content: int) -> bool:
        return content in self.popular or content in self._fifo_set

    def apply_popular_update(self, evict: list[int], fetch: list[int]) -> None:
        for c in evict:
            self.popular.discard(c)
            if self.mask is not None and c not in self._fifo_set:
                self.mask[c] = False
        for c in fetch:
            self.popular.add(c)
            if self.mask is not None:
                self.mask[c] = True
        if len(self.popular) > self.popular_capacity:
            raise ValueError("popular partition overfull after update")

    def prefetch_insert(self, content: int) -> int | None:
        """Insert into the FIFO; returns the evicted id when one falls out."""
        if self.prefetch_capacity == 0 or content in self._fifo_set:
            return None
        evicted = None
        if len(self._fifo) >= self.prefetch_capacity:
            evicted = self._fifo.popleft()
            self._fifo_set.discard(evicted)
            if self.mask is not None and evicted not in self.popular:
                self.mask[evicted] = False
        self._fifo.append(content)
        self._fifo_set.add(content)
        if self.mask is not None:
            self.mask[content] = True
        return evicted
