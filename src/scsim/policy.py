"""Caching and energy-management policies.

Planning functions are pure: they look at arrays of station state and
return plans or decisions, never mutating caches. The epoch-scale planner
decides which stations stay active and their user quotas from the energy
outlook; the step-scale controller throttles the actual serving level to
what the battery and the instantaneous harvest can afford.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import Catalog
from .station import CacheStore, PowerModel

__all__ = [
    "BackhaulBudget",
    "SmallStepPlan",
    "DEFAULT_LOW_WATERMARK",
    "DEFAULT_HIGH_WATERMARK",
    "plan_popular_update",
    "plan_prefetch",
    "sustainable_large_step",
    "sustainable_small_step",
    "greedy_large_step",
    "greedy_small_step",
]

# Battery watermarks (energy units) for best-effort deferral and
# proactive pushing, relative to one hour of full-load draw.
DEFAULT_LOW_WATERMARK = 0.1 * 3600.0
DEFAULT_HIGH_WATERMARK = 0.9 * 3600.0

# Tolerance nudging floor() across exact integer boundaries that the
# quota arithmetic hits by construction (e.g. 0.5 / 0.05).
_FLOOR_EPS = 1e-9


@dataclass(frozen=True)
class BackhaulBudget:
    """Epoch cache-update allowance; the realized value varies per epoch."""

    files_per_epoch: int = 50
    variability: tuple[float, float] = (0.5, 1.0)

    def __post_init__(self) -> None:
        lo, hi = self.variability
        if self.files_per_epoch < 0:
            raise ValueError("files_per_epoch must be >= 0")
        if not 0.0 <= lo <= hi:
            raise ValueError("variability must satisfy 0 <= lo <= hi")

    def realize(self, rng: np.random.Generator) -> int:
        """Draw one epoch's realized budget; consumes one uniform."""
        lo, hi = self.variability
        return int(round(self.files_per_epoch * (lo + (hi - lo) * rng.random())))


@dataclass(frozen=True)
class SmallStepPlan:
    """Step decision for one station (or an array-vectorised bank)."""

    served: int | np.ndarray
    draw: float | np.ndarray
    defer: bool | np.ndarray
    push: bool | np.ndarray


def plan_popular_update(
    current: set[int], catalog: Catalog, budget: int, partition_size: int
) -> tuple[list[int], list[int]]:
    """Plan budget-limited swaps moving the popular partition toward top-k.

    Free slots are filled before anything is evicted; evictions sacrifice
    the least popular cached id for the most popular missing one. Fetches
    (fills and swap-ins alike) each consume one unit of backhaul budget.

    Returns ``(evict, fetch)`` id lists; apply with
    ``CacheStore.apply_popular_update``.
    """
    if budget < 0:
        raise ValueError("budget must be >= 0")
    if partition_size < 0:
        raise ValueError("partition_size must be >= 0")
    k = min(partition_size, catalog.n_files)
    target = set(range(1, k + 1))
    missing = sorted(target - current)
    # least popular victims first: ids sort by popularity, so take from the top
    evictable = sorted((c for c in current if c not in target), reverse=True)
    free = partition_size - len(current)
    evict: list[int] = []
    fetch: list[int] = []
    for content in missing:
        if len(fetch) >= budget:
            break
        if free > 0:
            free -= 1
        elif evictable:
            evict.append(evictable.pop(0))
        else:
            break
        fetch.append(content)
    return evict, fetch


def plan_prefetch(
    predictions: list[tuple[int, int, float]],
    caches: list[CacheStore],
    budget_per_station: int,
) -> dict[int, list[int]]:
    """Pick contents to stage ahead of predicted handovers.

    ``predictions`` holds ``(content, station_index, eta)`` triples;
    sooner arrivals win scarce budget. Contents already in either
    partition of the destination's cache are skipped, as are duplicates
    within the plan. Returns station index -> ordered fetch list.
    """
    if budget_per_station < 0:
        raise ValueError("budget_per_station must be >= 0")
    plan: dict[int, list[int]] = {}
    for content, st_idx, _eta in sorted(predictions, key=lambda p: (p[2], p[1], p[0])):
        picks = plan.setdefault(st_idx, [])
        if len(picks) >= budget_per_station:
            continue
        if caches[st_idx].contains(content) or content in picks:
            continue
        picks.append(content)
    return {k: v for k, v in plan.items() if v}


def sustainable_large_step(
    power: PowerModel,
    levels: np.ndarray,
    forecast: float | np.ndarray,
    epoch_seconds: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Epoch plan: sleep stations that cannot sustain their constant draw.

    The sustainable rate ``r`` is the stored energy spread over the epoch
    plus the forecast harvest, per station (``forecast`` may be one value
    for all). A station sleeps when ``r`` falls short of the constant
    power floor; otherwise its user quota is the largest load whose linear
    draw stays within ``min(r, 1.0)``. Returns ``(active, quotas)``: a
    bool and an int64 array over the stations, quota 0 when asleep.
    """
    r = np.asarray(levels, dtype=np.float64) / epoch_seconds + forecast
    active = r >= power.p_const
    q = np.floor((np.minimum(r, 1.0) - power.p_const) / power.p_per_user + _FLOOR_EPS)
    quotas = np.where(active, np.clip(q, 0, power.max_users), 0).astype(np.int64)
    return active, quotas


def sustainable_small_step(
    power: PowerModel,
    battery_level: float | np.ndarray,
    harvest: float | np.ndarray,
    offered_hits: int | np.ndarray,
    quota: int | np.ndarray,
    dt: float,
    low_watermark: float = DEFAULT_LOW_WATERMARK,
    high_watermark: float = DEFAULT_HIGH_WATERMARK,
) -> SmallStepPlan:
    """Step decision: serve as much offered traffic as is affordable now.

    Affordability counts the battery as drainable within one step plus
    the instantaneous harvest, capped at full draw. The requested power
    never exceeds that available rate, so the sustainable controller is
    outage-free by construction; when even the constant floor is not
    affordable the station browns out (draws what exists, serves nobody).
    Below the low watermark the plan flags best-effort deferral, above
    the high watermark proactive pushing. Scalar and array inputs are
    both supported.
    """
    avail = battery_level / dt + harvest
    net = np.minimum(avail, 1.0) - power.p_const
    affordable = np.floor(net / power.p_per_user + _FLOOR_EPS).astype(np.int64)
    affordable = np.maximum(affordable, 0)
    served = np.minimum(np.minimum(offered_hits, quota), affordable)
    draw = np.minimum(power.p_const + power.p_per_user * served, avail)
    return SmallStepPlan(
        served=served,
        draw=draw,
        defer=battery_level < low_watermark,
        push=battery_level > high_watermark,
    )


def greedy_large_step(power: PowerModel, n_stations: int) -> tuple[np.ndarray, np.ndarray]:
    """Baseline epoch plan: everything active, hardware-cap quota."""
    return np.ones(n_stations, dtype=bool), np.full(n_stations, power.max_users, dtype=np.int64)


def greedy_small_step(
    power: PowerModel,
    offered_hits: int | np.ndarray,
    delivered: float | np.ndarray,
    partial: bool = False,
) -> int | np.ndarray:
    """Users actually served by the always-on baseline, given delivered power.

    The baseline requests full power every step regardless of load. By
    default it is all-or-nothing: the step serves ``min(offered,
    max_users)`` only when the delivered power covers that load's linear
    draw, otherwise nobody. With ``partial`` set, it degrades gracefully
    and serves whatever load the delivered power does cover.
    """
    target = np.minimum(offered_hits, power.max_users)
    need = power.p_const + power.p_per_user * target
    if partial:
        room = np.floor((delivered - power.p_const) / power.p_per_user + _FLOOR_EPS)
        room = np.maximum(room.astype(np.int64), 0)
        served = np.where(delivered + 1e-12 >= power.p_const, np.minimum(target, room), 0)
    else:
        served = np.where(delivered + 1e-12 >= need, target, 0)
    if np.isscalar(offered_hits) and np.isscalar(delivered):
        return int(served)
    return served
