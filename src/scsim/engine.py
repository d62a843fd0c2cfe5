"""Two-timescale simulation engine and its closed-form companions.

A run nests one-second-scale service steps inside epoch-scale planning:
each epoch regenerates the vehicle population at the current demand
level, refreshes the popular cache partitions over the backhaul, and
lets the policy fix sleep modes and user quotas; each step inside moves
vehicles, stages prefetches ahead of handovers, throttles serving to the
energy actually available, and settles the battery ledger.

A run is two passes. The demand pass (mobility, caching, hit lookup,
handover continuity) never looks at the batteries and yields each
epoch's per-step hits per cell; the energy pass (epoch plan, step
serving, battery ledger) of one policy consumes that stream. A policy
comparison therefore feeds one demand pass to both energy passes, and a
cache sweep moves the vehicles once for all its sizes and feeds each
size's hits to one energy pass per size.

The demand pass works per event, not per vehicle-step. Every vehicle
shares one speed, so it changes cell only every ``cell_length / (speed *
step)`` steps. The pass evaluates each vehicle's exact position and
cell once per epoch, on the epoch's first and last three rows and on
the three rows up to each predicted crossing. That one sample feeds
both the crossing finder, which cuts the vehicle's steps into runs of
one cell, and the handover lookahead, which reads the rows just before
each crossing. Only steps with a crossing request prefetches;
each size plans the epoch's requests in one pass and inserts its picks
in one call, and each pick sets one (station, content) slot of that
size's mask and clears the slot of the id it removed. A run's hits are
its slot's state over its steps, so per size one difference array over
(step, cell), fed by the runs and those slot changes, gives every step's
hits with one cumulative sum.

Everything is driven by one seeded generator in a fixed consumption
order, so a scenario and a seed pin the full output byte-for-byte.
"""
from __future__ import annotations

import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Callable, Iterator

import numpy as np

from .catalog import build_catalog
from .energy import (
    Battery,
    EnergyProfile,
    _add_rows,
    battery_step,  # not called here: perfbench/tracing.py looks it up in this module
    harvest_rates,
    ledger_residual,
    mean_rate,
    settle,
)
from .mobility import (
    Highway,
    TrafficProfile,
    VehicleSet,
    cell_indices,
    handovers_from_arrays,
    spawn_vehicles,
    traffic_multiplier,
)
from .policy import (
    BackhaulBudget,
    greedy_large_step,
    greedy_small_step,
    plan_popular_update,
    plan_prefetch,
    sustainable_large_step,
    sustainable_small_step,
)
from .station import CacheStore, PowerModel

__all__ = [
    "Scenario",
    "EpochMetrics",
    "MetricsReport",
    "EpochRecord",
    "SweepPoint",
    "EnergyComparison",
    "run",
    "map_ordered",
    "expected_offload",
    "sweep_cache",
    "compare_energy",
]

POLICIES = ("sustainable", "greedy")


@dataclass(frozen=True)
class Scenario:
    """Complete, immutable description of one simulation run.

    Defaults describe the reference setup: a 10-station ring of 1 km
    cells, a 1000-file Zipf(1) catalog, 0.01 vehicles/m/direction at
    rush peak, solar harvesting normalised to the full station draw,
    100-file split caches, and the sustainable policy at 900 s epochs
    of 1 s steps over one day.
    """

    highway: Highway = Highway(n_stations=10, cell_length=1000.0)
    n_files: int = 1000
    gamma: float = 1.0
    traffic: TrafficProfile = TrafficProfile()
    speed: float = 25.0
    energy: EnergyProfile = EnergyProfile()
    battery_capacity: float = math.inf
    power: PowerModel = PowerModel()
    cache_capacity: int = 100
    split_ratio: float = 0.8
    backhaul: BackhaulBudget = BackhaulBudget()
    prefetch_budget: int = 2
    low_watermark: float = 0.1 * 3600.0
    high_watermark: float = 0.9 * 3600.0
    greedy_partial: bool = False
    policy: str = "sustainable"
    epoch_seconds: int = 900
    step_seconds: int = 1
    duration: int = 86400
    seed: int = 42

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if self.step_seconds < 1 or self.epoch_seconds < 1:
            raise ValueError("epoch_seconds and step_seconds must be >= 1")
        if self.epoch_seconds % self.step_seconds != 0:
            raise ValueError(
                f"epoch_seconds ({self.epoch_seconds}) must be a multiple of "
                f"step_seconds ({self.step_seconds})"
            )
        if self.duration < 1 or self.duration % self.epoch_seconds != 0:
            raise ValueError(
                f"duration ({self.duration}) must be a positive multiple of "
                f"epoch_seconds ({self.epoch_seconds})"
            )
        if self.cache_capacity < 0:
            raise ValueError("cache_capacity must be >= 0")
        if not 0.0 <= self.split_ratio <= 1.0:
            raise ValueError("split_ratio must lie in [0, 1]")
        if self.prefetch_budget < 0:
            raise ValueError("prefetch_budget must be >= 0")
        if not 0.0 <= self.low_watermark <= self.high_watermark:
            raise ValueError("watermarks must satisfy 0 <= low <= high")
        if not 0 < self.speed < math.inf:
            raise ValueError(f"speed must be finite and > 0, got {self.speed}")
        if not self.battery_capacity > 0:
            raise ValueError("battery_capacity must be > 0 (inf for unbounded)")
        if self.n_files < 1:
            raise ValueError("n_files must be >= 1")
        if not 0.0 <= self.gamma < math.inf:
            raise ValueError(f"gamma must be finite and >= 0, got {self.gamma}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass(frozen=True)
class EpochMetrics:
    epoch_start_s: int
    offered: int
    scs_served: int
    mbs_served: int
    hit_rate: float
    mean_power: float
    mean_battery: float
    outage_energy: float
    overflow_energy: float
    continuity_rate: float
    pushes: int
    defers: int


@dataclass(frozen=True)
class EpochRecord:
    """One served epoch, passed to an observer hook (testing aid).

    ``hits`` and ``served`` are ``(n_sub, n_stations)``: row ``s`` is the
    step that ends at ``t0 + (s + 1) * step_seconds``. ``quotas`` and
    ``active`` are the epoch plan; ``n_vehicles`` are on the road at
    every step.
    """

    t0: int
    n_vehicles: int
    hits: np.ndarray
    served: np.ndarray
    quotas: np.ndarray
    active: np.ndarray


@dataclass(frozen=True)
class MetricsReport:
    """Run outcome: per-epoch rows plus whole-run aggregates."""

    seed: int
    policy: str
    epochs: list[EpochMetrics]
    offered: int
    scs_served: int
    mbs_served: int
    normalized_offload: float
    hit_rate: float
    continuity_rate: float
    outage_energy: float
    overflow_energy: float
    pushes: int
    defers: int
    batteries: Battery = field(repr=False)


@dataclass(frozen=True)
class DemandEpoch:
    """One planning epoch of the demand pass.

    ``hits[s, i]`` counts the vehicles in cell ``i`` whose requested file
    station ``i`` holds at step ``s`` of the epoch, shape ``(n_sub,
    n_stations)``. Caches follow the backhaul draws and the handovers,
    never the batteries, so every energy policy serves the same stream.
    """

    t0: int
    n_vehicles: int
    hits: np.ndarray
    handovers: int
    continuity: int


# Offsets of the rows sampled around a guessed crossing row ``g``: a crossing
# at row ``g - 1`` or ``g`` shows between two adjacent rows, and one at ``g``
# has the rows its lookahead reads, ``g - 2 .. g``.
_WINDOW = np.arange(-2, 1)

# what a size without prefetch slots stages: no (step, station, content, removed) picks
_NO_PICKS = (np.empty(0, dtype=np.int64),) * 4


def _spans(lo: np.ndarray, counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Expand the ranges ``lo[i] .. lo[i] + counts[i] - 1``: (``i``, value) per element."""
    owner = np.repeat(np.arange(lo.size), counts)
    first = np.cumsum(counts) - counts
    return owner, np.arange(owner.size) - first[owner] + lo[owner]


def _short_steps(vehicles: VehicleSet, hw: Highway, dt: float) -> bool:
    """Whether a step moves every vehicle at most a quarter cell, yet by many ulps of the ring.

    Then a vehicle's crossings are at least three steps apart, and one
    within a step of its next boundary crosses it within two steps.
    """
    stride = vehicles.speed * dt
    return hw.length * 2.0**-40 <= stride <= hw.cell_length / 4


def _guess_crossings(vehicles: VehicleSet, hw: Highway, dt: float, n_sub: int) -> np.ndarray | None:
    """Rows where each vehicle should enter a new cell, from its distance to each boundary ahead.

    Row ``r`` holds the positions after ``r`` steps. A guess is the row of
    the real-valued crossing, so rounding can put the exact one a row off.
    Each vehicle gets guesses up to past row ``n_sub + 2``. Returns None,
    meaning every row, unless steps are short (:func:`_short_steps`).
    """
    if not _short_steps(vehicles, hw, dt):
        return None
    cl = hw.cell_length
    stride = vehicles.speed * dt
    forward = vehicles.direction > 0
    below = np.floor(vehicles.position / cl) * cl
    ahead = np.where(forward, below + cl - vehicles.position, vehicles.position - below)
    rows = (ahead[:, None] + np.arange(int((n_sub + 3) * stride // cl) + 2) * cl) / stride
    # forward, a vehicle on a boundary is in the cell it enters; backward, in the one it leaves
    return np.where(forward[:, None], np.ceil(rows), np.floor(rows) + 1).astype(np.int64)


def _sample_cells(
    vehicles: VehicleSet, hw: Highway, dt: float, n_sub: int, guesses: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Exact positions and cells on the rows the crossing finder and the lookahead read.

    Returns ``(vehicle, row, position, cell)`` sorted by vehicle, then row.
    Each entry is ``positions_at(row * dt)`` and its ``cell_indices``, the
    matrix expressions on gathered pairs. Every vehicle is sampled on rows
    0 and ``n_sub - 2 .. n_sub`` and on ``g - 2 .. g`` around each guessed
    crossing ``g``. Between two sampled rows more than a step apart, the
    vehicle keeps its cell: both ends agree, and the gap moves it less
    than a cell, across at most one boundary. Any other gap holds a
    crossing the guesses missed. A crossing into row ``c`` that is found
    needs rows ``c - 2 .. c`` for its lookahead (see :func:`_requests`);
    one found a row early leaves ``c - 2`` out. Either way that vehicle is
    sampled on every row, as every vehicle is when ``guesses`` is None.
    """
    n, per = vehicles.n, n_sub + 1

    def sample(keys):
        veh, row = np.divmod(keys, per)
        positions = vehicles.positions_at(row * dt, hw, veh)
        return veh, row, positions, cell_indices(positions, hw)

    if guesses is None:
        return sample(np.arange(n * per))
    tail = np.maximum(np.arange(n_sub - 2, n_sub + 1), 0)
    windows = (guesses[:, :, None] + _WINDOW).reshape(n, guesses.shape[1] * _WINDOW.size)
    # rows from n_sub - 2 on are in every vehicle's tail, so each vehicle's rows ascend
    windows = np.clip(windows, 0, tail[0])
    rows = np.hstack((np.zeros((n, 1), np.int64), windows, np.broadcast_to(tail, (n, tail.size))))
    # guesses three rows apart keep the windows apart, so repeats are neighbours
    keys = (rows + np.arange(n)[:, None] * per).ravel()
    keys = keys[np.diff(keys, prepend=-1) != 0]
    veh, row, positions, cells = sample(keys)
    gap = np.diff(row)
    same = np.diff(veh) == 0
    crossed = same & (np.diff(cells) != 0)
    missed = same & (gap > 1) & (crossed | ((gap + 1) * (vehicles.speed * dt) > hw.cell_length))
    # a crossing into row c >= 2 found between rows c - 1 and c needs row c - 2 right before them
    missed[1:] |= crossed[1:] & (row[1:-1] > 0) & (gap[:-1] > 1)
    if missed.any():
        redo = np.unique(veh[1:][missed])
        dense = (redo[:, None] * per + np.arange(per)).ravel()
        return sample(np.union1d(keys[~np.isin(veh, redo)], dense))
    return veh, row, positions, cells


def _segments(veh: np.ndarray, row: np.ndarray, cells: np.ndarray, n_sub: int):
    """Each vehicle's runs of one cell, as ``(vehicle, cell, a, b, crossed)``.

    Step ``s`` looks its hits up at row ``s + 1``, so a run entered at row
    ``r`` covers steps ``[r - 1, b)``, starting with the step that crossed
    into it (``crossed``); a vehicle's first run starts at step 0.
    """
    start = np.flatnonzero((np.diff(veh, prepend=-1) != 0) | (np.diff(cells, prepend=-1) != 0))
    seg_veh, first = veh[start], row[start]
    end = np.append(first[1:], n_sub + 1)
    end[np.diff(seg_veh, append=-1) != 0] = n_sub + 1
    return seg_veh, cells[start], np.maximum(first - 1, 0), end - 1, first > 0


def _requests(vehicles: VehicleSet, hw: Highway, dt: float, n_sub: int, sample, segments, popular: np.ndarray):
    """Handover lookahead of every step that has a crossing, most urgent first.

    ``sample`` is :func:`_sample_cells`' output and ``segments`` the
    vehicles' runs from :func:`_segments`; a crossing step is the ``a`` of
    a crossed run. Returns ``(step, station, content)`` ordered by step,
    then arrival time, next cell and content. A vehicle within one step
    of its next boundary crosses it within two steps, so when steps are
    short (:func:`_short_steps`) only the rows ``c - 2 .. c`` of each
    crossing into row ``c`` and the epoch's last two rows can request
    anything; the sample holds those rows. Otherwise it holds every row.
    So the lookahead evaluates the sampled rows of crossing steps, and
    each (vehicle, row) pair once. Requests for ids up to
    ``popular[station]``, which every staging size caches all epoch, are
    dropped before sorting.
    """
    veh, rows, positions, cells = sample
    _, _, a, _, crossed = segments
    # row n_sub, the epoch's end, starts no step
    changed = np.zeros(n_sub + 1, dtype=bool)
    changed[a[crossed]] = True
    gated = changed[rows]
    veh, rows = veh[gated], rows[gated]
    flat, nxt, eta = handovers_from_arrays(
        positions[gated], cells[gated], vehicles.direction[veh], vehicles.speed, hw, horizon=dt
    )
    ahead = vehicles.active_content[veh[flat]]
    wanted = ahead > popular[nxt]
    step, nxt, eta, ahead = rows[flat][wanted], nxt[wanted], eta[wanted], ahead[wanted]
    order = np.lexsort((ahead, nxt, eta, step))
    return step[order], nxt[order], ahead[order]


def _stage(cache: CacheStore, requests, budget: int) -> tuple[np.ndarray, ...]:
    """Plan and insert one size's prefetches for the whole epoch.

    One ``plan_prefetch`` call picks from the epoch's requests and one
    ``prefetch_insert`` call applies the picks. Returns ``(step, station,
    content, removed)`` per pick: its id is cached from its step on, and
    ``removed``, unless 0, is the id its insert took out of the mask.
    """
    picks = plan_prefetch(requests, cache, budget)
    step, station, content = (column[picks] for column in requests)
    return step, station, content, cache.prefetch_insert((station, content))


def _flips(staged, start: np.ndarray, n_sub: int) -> tuple[np.ndarray, np.ndarray]:
    """The staged slots' changes of state, as sorted keys ``slot * (n_sub + 1) + step`` and new states.

    ``staged`` is one size's picks from :func:`_stage`; a slot is a flat
    index into that size's ``(n_stations, n_files + 1)`` mask, whose
    epoch-start membership is ``start``. Each pick sets its own slot and then
    clears the slot of the id it removed; a step's last entry for a slot
    is its state at that step's lookup, and an entry that keeps the state
    is no flip.
    """
    step, station, content, removed = staged
    base = station * start.shape[1]
    slot = np.stack((base + content, base + removed), axis=1).ravel()
    state = np.tile((True, False), step.size)
    keys = slot * (n_sub + 1) + np.repeat(step, 2)
    real = np.stack((np.ones(step.size, dtype=bool), removed > 0), axis=1).ravel()
    keys, slot, state = keys[real], slot[real], state[real]
    order = np.argsort(keys, kind="stable")
    last = np.diff(keys[order], append=-1) != 0
    keys, slot, state = keys[order][last], slot[order][last], state[order][last]
    # a slot's state before its first entry is its epoch-start state
    before = np.where(np.diff(slot, prepend=-1) == 0, np.roll(state, 1), start.reshape(-1)[slot])
    flip = state != before
    return keys[flip], state[flip]


def _step_sums(plus: np.ndarray, minus: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    """Running sums down the rows of a difference array given as flat +1 and -1 positions; last row dropped."""
    size = shape[0] * shape[1]
    diff = np.bincount(plus, minlength=size) - np.bincount(minus, minlength=size)
    return np.cumsum(diff.reshape(shape), axis=0)[:-1]


def _count_hits(segments, contents: np.ndarray, start: np.ndarray, flips, n_sub: int) -> tuple[np.ndarray, int]:
    """One size's hits per (step, cell) and its continuity, from one difference array.

    A run of one cell looks up one slot, its cell's bit for its content,
    over steps ``[a, b)``. The slot starts the run in its state after its
    last flip at or before step ``a``, or in the epoch-start membership
    ``start``. The run adds that state at ``a``, each flip inside the run
    adds +1 or -1 at its step, and the run's end state comes off at ``b``.
    Continuity counts the runs entered by a crossing that start on.
    """
    seg_veh, cell, a, b, crossed = segments
    n_stations, n_cols = start.shape
    slot = cell * n_cols + contents[seg_veh]
    on_a = on_b = start.reshape(-1)[slot]
    keys, states = flips
    plus, minus = [], []
    if keys.size:
        base = slot * (n_sub + 1)
        lo = np.searchsorted(keys, base + a, "right")
        hi = np.maximum(np.searchsorted(keys, base + b, "left"), lo)
        mine = (lo > 0) & (keys[lo - 1] >= base)
        on_a = np.where(mine, states[lo - 1], on_a)
        on_b = np.where(hi > lo, states[hi - 1], on_a)
        run, flip = _spans(lo, hi - lo)
        at = keys[flip] % (n_sub + 1) * n_stations + cell[run]
        plus.append(at[states[flip]])
        minus.append(at[~states[flip]])
    plus.append((a * n_stations + cell)[on_a])
    minus.append((b * n_stations + cell)[on_b])
    hits = _step_sums(np.concatenate(plus), np.concatenate(minus), (n_sub + 1, n_stations))
    return hits, int(np.count_nonzero(on_a & crossed))


def _check_demand(hits: np.ndarray, occupancy: np.ndarray, handovers: int, continuity: int) -> None:
    """Raise when an epoch's counts break what any lookup gives: 0 <= hits <= vehicles in the cell."""
    if np.any(hits < 0):
        raise RuntimeError(f"demand pass counted {int(hits.min())} hits in a cell at a step")
    if np.any(hits > occupancy):
        raise RuntimeError("demand pass counted more hits in a cell than vehicles in it")
    if continuity > handovers:
        raise RuntimeError(f"demand pass counted {continuity} continued handovers of {handovers}")


def _demand_pass(sc: Scenario, capacities: list[int]) -> Iterator[list[DemandEpoch]]:
    """Mobility, caching and hit lookup: the policy-independent half of a run.

    Each epoch respawns the vehicles, refreshes the popular partitions
    under one backhaul draw per station, then works per event, not per
    vehicle-step. It samples each vehicle's exact positions and cells on
    a few rows (:func:`_sample_cells`), cuts its steps into runs of one
    cell, and takes the handover lookahead of all sizes from the same
    sample.
    Each size then stages the epoch's prefetches with one plan and one
    insert (:func:`_stage`), and counts its hits and continuity from the
    runs, its membership at the epoch start and the slots its picks set and
    cleared, as :func:`_count_hits` describes; the counts are
    those a lookup of every vehicle at every step would give, and are
    checked. The random stream is consumed in that fixed order, and no
    cache state feeds it, so one pass serves several cache sizes: it moves
    the vehicles once and yields, each epoch, one :class:`DemandEpoch`
    per entry of ``capacities``, each as its own single-size pass would.
    """
    hw = sc.highway
    n_stations = hw.n_stations
    catalog = build_catalog(sc.n_files, sc.gamma)
    rng = np.random.default_rng(sc.seed)

    stores = [CacheStore(c, sc.split_ratio, n_stations, sc.n_files) for c in capacities]
    # only the sizes with prefetch slots stage anything ahead of a handover
    staging = [cache for cache in stores if cache.prefetch_capacity and sc.prefetch_budget > 0]
    dt = float(sc.step_seconds)
    n_sub = sc.epoch_seconds // sc.step_seconds

    for e in range(sc.duration // sc.epoch_seconds):
        t0 = e * sc.epoch_seconds
        density = sc.traffic.base_density * traffic_multiplier(sc.traffic, float(t0))
        vehicles = spawn_vehicles(density, hw, catalog, rng, speed=sc.speed)
        budgets = sc.backhaul.realize(rng, n_stations)
        for cache in stores:
            cache.apply_popular_update(
                plan_popular_update(cache.n_popular, catalog, budgets, cache.popular_capacity)
            )

        sample = _sample_cells(vehicles, hw, dt, n_sub, _guess_crossings(vehicles, hw, dt, n_sub))
        veh, row, _, cells = sample
        segments = _segments(veh, row, cells, n_sub)
        _, cell, a, b, crossed = segments
        if staging:
            popular = np.min([cache.n_popular for cache in staging], axis=0)
            requests = _requests(vehicles, hw, dt, n_sub, sample, segments, popular)
        # the positions are read only by the lookahead
        del sample, veh, row, cells
        handovers = int(np.count_nonzero(crossed))
        occupancy = _step_sums(a * n_stations + cell, b * n_stations + cell, (n_sub + 1, n_stations))
        demands = []
        for cache in stores:
            start = cache.mask
            staged = _stage(cache, requests, sc.prefetch_budget) if cache in staging else _NO_PICKS
            flips = _flips(staged, start, n_sub)
            hits, continuity = _count_hits(segments, vehicles.active_content, start, flips, n_sub)
            _check_demand(hits, occupancy, handovers, continuity)
            demands.append(DemandEpoch(t0, vehicles.n, hits, handovers, continuity))
        yield demands
        # the consumer drops its epochs too, so two epochs' hits never coexist
        del demands, hits


def _check_ledger(bank: Battery, steps: int) -> None:
    """Raise when the battery ledger drifts past its rounding bound.

    A step adds a handful of correctly rounded operations on terms no
    larger than twice the largest ledger entry, so an intact ledger's
    residual stays within a few ulps of that entry per elapsed step.
    """
    terms = (bank.level, bank.initial_level, bank.cum_harvested, bank.cum_consumed, bank.cum_overflow)
    scale = max(float(np.max(np.abs(term))) for term in terms)
    bound = 8.0 * steps * np.finfo(np.float64).eps * scale
    residual = float(np.max(np.abs(ledger_residual(bank))))
    if not residual <= bound:
        raise RuntimeError(
            f"battery ledger residual {residual:.3e} exceeds its rounding bound "
            f"{bound:.3e} after {steps} steps"
        )


def _check_served(
    served: np.ndarray, hits: np.ndarray, quotas: np.ndarray, active: np.ndarray, max_users: int
) -> None:
    """Raise when a station serves a negative count, serves asleep, or serves past its cap.

    The cap is ``min(hits, quota, max_users)``; a sleeping station's quota is 0.
    """
    cap = np.minimum(np.minimum(hits, quotas), max_users)
    if not np.any((served < 0) | (served > cap) | ((served != 0) & ~active)):
        return
    if np.any(served < 0):
        raise RuntimeError(f"energy pass served {int(served.min())} users at a station")
    if np.any(served[:, ~active]):
        raise RuntimeError("energy pass served users at a sleeping station")
    raise RuntimeError("energy pass served more users than min(hits, quota, max_users)")


class _EnergyPass:
    """Planning, serving and the battery ledger of one policy.

    Fed one :class:`DemandEpoch` at a time through :meth:`serve`; the
    per-station bank, the epoch rows and the demand totals the rows do
    not hold (hits, handovers, continuity) live here, so several passes
    can consume one demand stream side by side. Both policies settle the
    same bank through :func:`~scsim.energy.settle` and differ only in the
    draw their step controller requests: the sustainable one rations it,
    the greedy one always asks for full power.
    """

    def __init__(self, sc: Scenario, epoch_hook: Callable[[EpochRecord], None] | None = None):
        self.sc = sc
        self.epoch_hook = epoch_hook
        self.n_stations = sc.highway.n_stations
        self.n_sub = sc.epoch_seconds // sc.step_seconds
        self.dt = float(sc.step_seconds)
        self.bank = Battery(level=np.zeros(self.n_stations), capacity=sc.battery_capacity)
        self.epochs: list[EpochMetrics] = []
        self.hits = self.handovers = self.continuity = 0

    def serve(self, demand: DemandEpoch) -> None:
        """Plan the epoch, serve its steps, and book its metrics row."""
        sc = self.sc
        pm = sc.power
        t0 = demand.t0
        hits = demand.hits
        harvests = harvest_rates(sc.energy, t0 + np.arange(self.n_sub) * self.dt)
        deficit_before = float(np.sum(self.bank.cum_deficit))
        overflow_before = float(np.sum(self.bank.cum_overflow))
        if sc.policy == "sustainable":
            forecast = mean_rate(sc.energy, float(t0), float(t0 + sc.epoch_seconds))
            start_level = self.bank.level
            active, quotas = sustainable_large_step(pm, start_level, forecast, float(sc.epoch_seconds))

            def draw_at(k, levels, harvest):
                return sustainable_small_step(pm, levels, harvest, hits[k:], quotas, active, self.dt)[1]

            delivered, level = settle(self.bank, harvests, draw_at, self.dt)
            before = np.vstack((start_level[None, :], level[:-1]))
            served, _ = sustainable_small_step(pm, before, harvests[:, None], hits, quotas, active, self.dt)
            pushes = int(np.count_nonzero((before > sc.high_watermark) & active))
            defers = int(np.count_nonzero((before < sc.low_watermark) & active))
        else:
            active, quotas = greedy_large_step(pm, self.n_stations)
            delivered, level = settle(self.bank, harvests, lambda *_: 1.0, self.dt)
            served = greedy_small_step(pm, hits, delivered, sc.greedy_partial)
            pushes = defers = 0
        _check_ledger(self.bank, (len(self.epochs) + 1) * self.n_sub)
        _check_served(served, hits, quotas, active, pm.max_users)
        scs = int(served.sum())
        n_hits = int(hits.sum())
        offered = demand.n_vehicles * self.n_sub
        self.epochs.append(
            EpochMetrics(
                epoch_start_s=t0,
                offered=offered,
                scs_served=scs,
                mbs_served=offered - scs,
                hit_rate=n_hits / offered if offered else 0.0,
                mean_power=float(_add_rows(0.0, delivered.sum(axis=1))) / (self.n_stations * self.n_sub),
                mean_battery=float(_add_rows(0.0, level.sum(axis=1))) / (self.n_stations * self.n_sub),
                outage_energy=float(np.sum(self.bank.cum_deficit)) - deficit_before,
                overflow_energy=float(np.sum(self.bank.cum_overflow)) - overflow_before,
                continuity_rate=(
                    demand.continuity / demand.handovers if demand.handovers else 1.0
                ),
                pushes=pushes,
                defers=defers,
            )
        )
        self.hits += n_hits
        self.handovers += demand.handovers
        self.continuity += demand.continuity
        if self.epoch_hook is not None:
            # passes at one cache size share the demand's hits; the rest is this pass's own
            self.epoch_hook(EpochRecord(t0, demand.n_vehicles, hits.copy(), served, quotas, active))

    def report(self) -> MetricsReport:
        """Whole-run totals: sums of the epoch rows, energy read off the bank."""
        offered = sum(em.offered for em in self.epochs)
        scs = sum(em.scs_served for em in self.epochs)
        return MetricsReport(
            seed=self.sc.seed,
            policy=self.sc.policy,
            epochs=self.epochs,
            offered=offered,
            scs_served=scs,
            mbs_served=offered - scs,
            normalized_offload=scs / offered if offered else 0.0,
            hit_rate=self.hits / offered if offered else 0.0,
            continuity_rate=self.continuity / self.handovers if self.handovers else 1.0,
            outage_energy=float(np.sum(self.bank.cum_deficit)),
            overflow_energy=float(np.sum(self.bank.cum_overflow)),
            pushes=sum(em.pushes for em in self.epochs),
            defers=sum(em.defers for em in self.epochs),
            batteries=self.bank,
        )


def run(scenario: Scenario, epoch_hook: Callable[[EpochRecord], None] | None = None) -> MetricsReport:
    """Simulate one scenario and return its metrics report.

    One demand pass feeds the energy pass of ``scenario.policy``.
    ``epoch_hook``, when given, receives one :class:`EpochRecord` per
    epoch, after the epoch is settled and booked, so writing into the
    record cannot change the report; it is meant for invariant checks.
    """
    energy = _EnergyPass(scenario, epoch_hook)
    _simulate(scenario, [energy])
    return energy.report()


def _simulate(sc: Scenario, passes: list[_EnergyPass]) -> None:
    """Feed one demand pass of ``sc`` to every energy pass, epoch by epoch.

    The demand pass tracks each distinct cache size once, so passes at
    the same size serve the same :class:`DemandEpoch`; each pass reads
    its size from its own scenario, and everything else from ``sc``.
    """
    if not passes:
        return
    sizes = list(dict.fromkeys(energy.sc.cache_capacity for energy in passes))
    which = [sizes.index(energy.sc.cache_capacity) for energy in passes]
    for demands in _demand_pass(sc, sizes):
        for energy, k in zip(passes, which):
            energy.serve(demands[k])
        # drop this epoch before the demand pass allocates the next one
        del demands


def map_ordered(fn: Callable, items: list, workers: int = 1) -> list:
    """Apply ``fn`` to each item, optionally across processes.

    Results come back in input order regardless of worker scheduling, so
    concurrency never changes the output.
    """
    if workers <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    with ProcessPoolExecutor(
        max_workers=min(workers, len(items)), mp_context=multiprocessing.get_context("spawn")
    ) as pool:
        return list(pool.map(fn, items))


def expected_offload(mu: float, c: int) -> float:
    """Mean of ``min(X, c)`` for ``X ~ Poisson(mu)``.

    This is the stationary per-cell offload when hit traffic arrives as
    a Poisson flow of intensity ``mu`` and at most ``c`` users are served
    in parallel: hits beyond the cap spill to the macro cell.

    Parameters
    ----------
    mu : float
        Poisson mean, >= 0.
    c : int
        Serving cap, >= 0.

    Returns
    -------
    float
        ``sum_k min(k, c) P[X = k]``, absolute error below 1e-9.
    """
    if mu < 0 or not math.isfinite(mu):
        raise ValueError(f"mu must be finite and >= 0, got {mu}")
    if c < 0:
        raise ValueError(f"c must be >= 0, got {c}")
    if c == 0 or mu == 0.0:
        return 0.0
    # E[min(X, c)] = sum_{k<c} k p_k + c (1 - CDF(c-1)); each head term is
    # taken in log space, which stays accurate where exp(-mu) underflows
    head = 0.0
    cdf = 0.0
    log_mu = math.log(mu)
    for k in range(c):
        p = math.exp(k * log_mu - mu - math.lgamma(k + 1))
        head += k * p
        cdf += p
    return head + c * max(0.0, 1.0 - cdf)


@dataclass(frozen=True)
class SweepPoint:
    cache_capacity: int
    offload_mbps: float
    report: MetricsReport


def sweep_cache(base: Scenario, cache_sizes: list[int]) -> list[SweepPoint]:
    """Simulate ``base`` at each cache size, identical seeds across points.

    One demand pass serves every size, each feeding its own energy pass, so
    a point equals a separate ``run`` at its ``cache_capacity``. The
    per-point figure is the time-mean number of station-served users per
    cell scaled by the per-user rate, i.e. the offloaded throughput one
    station sustains.
    """
    passes = [_EnergyPass(replace(base, cache_capacity=int(c))) for c in cache_sizes]
    _simulate(base, passes)
    steps = base.duration // base.step_seconds
    reports = [energy.report() for energy in passes]
    return [
        SweepPoint(
            cache_capacity=energy.sc.cache_capacity,
            offload_mbps=report.scs_served / (steps * base.highway.n_stations) * base.power.rate_per_user_mbps,
            report=report,
        )
        for energy, report in zip(passes, reports)
    ]


@dataclass(frozen=True)
class EnergyComparison:
    sustainable: MetricsReport
    greedy: MetricsReport
    capacity_ratio: float


def compare_energy(base: Scenario) -> EnergyComparison:
    """Run the sustainable policy and the always-on baseline side by side.

    One demand pass feeds both energy passes, so vehicles, contents, and
    cache updates are identical; only the energy management differs. The
    capacity ratio is daily station-served traffic, sustainable over
    greedy (defined as 1.0 when both sit at zero).
    """
    passes = [_EnergyPass(replace(base, policy=p)) for p in POLICIES]
    _simulate(base, passes)
    sus, greedy = (energy.report() for energy in passes)
    if greedy.scs_served == 0:
        ratio = 1.0 if sus.scs_served == 0 else math.inf
    else:
        ratio = sus.scs_served / greedy.scs_served
    return EnergyComparison(sustainable=sus, greedy=greedy, capacity_ratio=ratio)
