"""Caching and energy-management policies.

Planning functions are pure: they look at arrays of station state and
return plans or decisions, never mutating caches. The epoch-scale planner
decides which stations stay active and their user quotas from the energy
outlook; the step-scale controller throttles the actual serving level to
what the battery and the instantaneous harvest can afford. The prefetch
planner picks a whole epoch's handover prefetches in one pass, reading
each station's FIFO as its last inserts, and the cache applies them
after in one call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .catalog import Catalog
from .station import CacheStore, PowerModel

__all__ = [
    "BackhaulBudget",
    "plan_popular_update",
    "plan_prefetch",
    "sustainable_large_step",
    "sustainable_small_step",
    "greedy_large_step",
    "greedy_small_step",
]

# Tolerance nudging floor() across exact integer boundaries that the
# quota arithmetic hits by construction (e.g. 0.5 / 0.05).
_FLOOR_EPS = 1e-9


def _users(power: PowerModel, rate):
    """Whole users, uncapped, whose linear draw above ``p_const`` fits within ``rate``."""
    return np.floor((rate - power.p_const) / power.p_per_user + _FLOOR_EPS)


@dataclass(frozen=True)
class BackhaulBudget:
    """Epoch cache-update allowance; the realized value varies per epoch."""

    files_per_epoch: int = 50
    variability: tuple[float, float] = (0.5, 1.0)

    def __post_init__(self) -> None:
        lo, hi = self.variability
        if self.files_per_epoch < 0:
            raise ValueError("files_per_epoch must be >= 0")
        if not 0.0 <= lo <= hi < math.inf:
            raise ValueError(
                f"variability must be finite and satisfy 0 <= lo <= hi, got {self.variability}"
            )

    def realize(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """One epoch's budget per station: ``n`` uniforms in order, rounded half to even like ``round``."""
        lo, hi = self.variability
        return np.rint(self.files_per_epoch * (lo + (hi - lo) * rng.random(n))).astype(np.int64)


def plan_popular_update(
    n_popular: list[int] | np.ndarray, catalog: Catalog, budget: np.ndarray, partition_size: int
) -> np.ndarray:
    """Per-station popular partition sizes after one budget-limited epoch update.

    ``n_popular`` and ``budget`` hold one entry per station of a bank. Each
    partition is the top-``n_popular`` prefix ``1..n_popular`` of the
    popularity-sorted catalog. Each fetch consumes one unit of its station's
    backhaul budget, and the partition grows toward the top ``k =
    min(partition_size, catalog.n_files)`` ids; it never evicts anything.

    This is exactly what a general planner (fill free slots with the most
    popular missing ids, then swap the least popular cached id for the most
    popular missing one) does from an empty start. By induction: the
    partition starts empty, a prefix. If it holds ``{1..m}`` then
    ``m <= k``, so it is a subset of the target ``{1..k}``: nothing is
    evictable, ``partition_size - m >= k - m`` slots are free, and the
    missing ids in popularity order are ``m+1..k``. The planner fetches the
    first ``budget`` of them, leaving the prefix ``{1..min(m + budget, k)}``.

    Returns the new ``n_popular``; apply it with
    ``CacheStore.apply_popular_update``.
    """
    if np.any(budget < 0):
        raise ValueError("budget must be >= 0")
    if partition_size < 0:
        raise ValueError("partition_size must be >= 0")
    return np.minimum(np.add(n_popular, budget), min(partition_size, catalog.n_files))


def plan_prefetch(
    requests: tuple[np.ndarray, np.ndarray, np.ndarray],
    cache: CacheStore,
    budget_per_station: int,
) -> np.ndarray:
    """Pick an epoch's contents to stage ahead of predicted handovers.

    ``requests`` holds ``(step, station, content)`` arrays ordered by step
    and, within a step, most urgent first; earlier requests win a station's
    scarce per-step budget. A station's prefetch FIFO, its ``cache.fifo``
    row, is its last ``prefetch_capacity`` inserts, so its insert sequence,
    the FIFO now followed by the station's picks in order, tells what it
    holds at any step. A request is skipped when its id is cached at the
    destination at the start of its step (within ``cache.n_popular``, or
    among its last ``prefetch_capacity`` inserts by then) or was picked
    earlier in the step: exactly what planning each step against the
    cache, and inserting its picks only after, skips. A bank without
    prefetch slots gets no picks. Raises ValueError unless the three
    arrays are 1-D and of one length. Returns the indices of the picked
    requests in request order; apply them with one ``cache.prefetch_insert``.
    """
    if budget_per_station < 0:
        raise ValueError("budget_per_station must be >= 0")
    step, station, content = (np.asarray(a, dtype=np.int64) for a in requests)
    if step.ndim != 1 or not step.shape == station.shape == content.shape:
        raise ValueError("requests must be 1-D step, station and content arrays of one length")
    cap = cache.prefetch_capacity
    if cap == 0:
        return np.empty(0, dtype=np.int64)
    width = cache.n_files + 1
    candidates = np.flatnonzero(content > cache.n_popular[station])
    station = station[candidates]
    # (station, id) -> the id's latest position in the station's insert
    # sequence, which starts with the FIFO's cap slots, oldest first
    rows, cols = np.nonzero(cache.fifo)
    last = dict(zip((rows * width + cache.fifo[rows, cols]).tolist(), cols.tolist()))
    count = [cap] * len(cache.n_popular)
    picks = []
    now = None
    for k, s, st, key in zip(
        candidates.tolist(),
        step[candidates].tolist(),
        station.tolist(),
        (station * width + content[candidates]).tolist(),
    ):
        if s != now:
            now, taken = s, [0] * len(count)
        t = taken[st]
        # held at the step's start, before its t picks so far: among the last cap inserts then
        if t < budget_per_station and last.get(key, -1) < count[st] - t - cap:
            taken[st] = t + 1
            last[key] = count[st]
            count[st] += 1
            picks.append(k)
    return np.array(picks, dtype=np.int64)


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
    q = _users(power, np.minimum(r, 1.0))
    quotas = np.where(active, np.clip(q, 0, power.max_users), 0).astype(np.int64)
    return active, quotas


def sustainable_small_step(
    power: PowerModel,
    battery_level: float | np.ndarray,
    harvest: float | np.ndarray,
    offered_hits: int | np.ndarray,
    quota: int | np.ndarray,
    active: bool | np.ndarray,
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Step decision: serve as much offered traffic as is affordable now.

    Affordability counts the battery as drainable within one step plus
    the instantaneous harvest, capped at full draw. The requested power
    never exceeds that available rate, so the sustainable controller is
    outage-free by construction; when even the constant floor is not
    affordable the station browns out (draws what exists, serves nobody).
    A sleeping station (``active`` false) serves nobody and draws
    ``p_sleep``, or what is available if that is less. Returns ``(served,
    draw)``: users served and requested power, shaped like the broadcast
    inputs. The engine, not this function, counts the active
    station-steps that start above the high / below the low battery
    watermark.
    """
    avail = battery_level / dt + harvest
    affordable = np.maximum(_users(power, np.minimum(avail, 1.0)).astype(np.int64), 0)
    # a sleeper's quota is 0 and its floor p_sleep
    served = np.minimum(np.minimum(offered_hits, np.where(active, quota, 0)), affordable)
    draw = np.minimum(np.where(active, power.p_const, power.p_sleep) + power.p_per_user * served, avail)
    return served, draw


def greedy_large_step(power: PowerModel, n_stations: int) -> tuple[np.ndarray, np.ndarray]:
    """Baseline epoch plan: everything active, hardware-cap quota."""
    return np.ones(n_stations, dtype=bool), np.full(n_stations, power.max_users, dtype=np.int64)


def greedy_small_step(
    power: PowerModel,
    offered_hits: int | np.ndarray,
    delivered: float | np.ndarray,
    partial: bool = False,
) -> np.ndarray:
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
        # below p_const the floor is at most 0, so room is already 0 there
        room = np.maximum(_users(power, delivered).astype(np.int64), 0)
        return np.minimum(target, room)
    return np.where(delivered + 1e-12 >= need, target, 0)
