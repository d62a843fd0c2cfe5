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
comparison therefore feeds one demand pass to both energy passes.

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
    battery_step,
    harvest_rates,
    ledger_residual,
    mean_rate,
)
from .mobility import (
    Highway,
    TrafficProfile,
    cell_indices,
    handovers_from_arrays,
    spawn_vehicles,
    traffic_multiplier,
)
from .policy import (
    DEFAULT_HIGH_WATERMARK,
    DEFAULT_LOW_WATERMARK,
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
    "StepRecord",
    "SweepPoint",
    "EnergyComparison",
    "run",
    "run_many",
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
    low_watermark: float = DEFAULT_LOW_WATERMARK
    high_watermark: float = DEFAULT_HIGH_WATERMARK
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
        if not self.speed > 0:
            raise ValueError("speed must be > 0")
        if not self.battery_capacity > 0:
            raise ValueError("battery_capacity must be > 0 (inf for unbounded)")
        if self.n_files < 1:
            raise ValueError("n_files must be >= 1")
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
class StepRecord:
    """Per-step trace row passed to an observer hook (testing aid)."""

    t: int
    offered: int
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


def _demand_pass(sc: Scenario) -> Iterator[DemandEpoch]:
    """Mobility, caching and hit lookup: the policy-independent half of a run.

    Each epoch respawns the vehicles, refreshes the popular partitions
    under one backhaul draw per station, then steps the vehicles, stages
    prefetches ahead of handovers, and looks up hits and handover
    continuity. The random stream is consumed in that fixed order.
    """
    hw = sc.highway
    n_stations = hw.n_stations
    catalog = build_catalog(sc.n_files, sc.gamma)
    rng = np.random.default_rng(sc.seed)

    masks = np.zeros((n_stations, sc.n_files + 1), dtype=bool)
    flat_masks = masks.reshape(-1)
    caches = [CacheStore(sc.cache_capacity, sc.split_ratio, mask=masks[i]) for i in range(n_stations)]
    dt = float(sc.step_seconds)
    n_sub = sc.epoch_seconds // sc.step_seconds
    prefetch_on = sc.prefetch_budget > 0 and caches[0].prefetch_capacity > 0

    for e in range(sc.duration // sc.epoch_seconds):
        t0 = e * sc.epoch_seconds
        density = sc.traffic.base_density * traffic_multiplier(sc.traffic, float(t0))
        vehicles = spawn_vehicles(density, hw, catalog, rng, speed=sc.speed, entry_time=float(t0))
        budgets = [sc.backhaul.realize(rng) for _ in range(n_stations)]
        for cache, budget in zip(caches, budgets):
            evict, fetch = plan_popular_update(cache.popular, catalog, budget, cache.popular_capacity)
            cache.apply_popular_update(evict, fetch)

        n_veh = vehicles.n
        contents = vehicles.active_content
        directions = vehicles.direction
        speeds = vehicles.speed
        prev_cells = cell_indices(vehicles.position, hw)
        prev_pos = vehicles.position
        hits = np.zeros((n_sub, n_stations), dtype=np.int64)
        handovers = continuity = 0

        # Trajectories are closed-form per epoch; evaluate them in blocks
        # to bound the working-set size for big populations. Everything but
        # prefetch and the cache lookups is worked out for a whole block;
        # only those two follow the step order, since a prefetch changes
        # what later lookups see.
        block = max(1, min(n_sub, 1_000_000 // max(n_veh, 1)))
        for s0 in range(0, n_sub, block) if n_veh else ():
            s1 = min(s0 + block, n_sub)
            offsets = np.arange(s0 + 1, s1 + 1) * dt
            positions = vehicles.positions_at(offsets, hw)
            cells_block = cell_indices(positions, hw)
            crossed = cells_block != np.vstack((prev_cells[None, :], cells_block[:-1]))
            changed = crossed.any(axis=1)
            lookup = cells_block * (sc.n_files + 1) + contents
            cached = np.empty(lookup.shape, dtype=bool)

            if prefetch_on:
                # handover lookahead from each step's starting positions
                starts = np.vstack((prev_pos[None, :], positions[:-1]))
                flat, nxt, eta = handovers_from_arrays(
                    starts.ravel(), np.tile(directions, s1 - s0), np.tile(speeds, s1 - s0),
                    hw, horizon=dt,
                )
                bounds = np.searchsorted(flat // n_veh, np.arange(s1 - s0 + 1)).tolist()
                ahead = list(zip(contents[flat % n_veh].tolist(), nxt.tolist(), eta.tolist()))

            for j in range(s1 - s0):
                if prefetch_on and changed[j] and bounds[j] < bounds[j + 1]:
                    triples = ahead[bounds[j]:bounds[j + 1]]
                    for st_idx, picks in plan_prefetch(triples, caches, sc.prefetch_budget).items():
                        for content in picks:
                            caches[st_idx].prefetch_insert(content)
                np.take(flat_masks, lookup[j], out=cached[j])

            slots = np.nonzero(cached)[0] * n_stations + cells_block[cached]
            hits[s0:s1] = np.bincount(slots, minlength=hits[s0:s1].size).reshape(-1, n_stations)
            handovers += int(np.count_nonzero(crossed))
            continuity += int(np.count_nonzero(crossed & cached))
            prev_cells = cells_block[-1]
            prev_pos = positions[-1]

        yield DemandEpoch(
            t0=t0,
            n_vehicles=n_veh,
            hits=hits,
            handovers=handovers,
            continuity=continuity,
        )


def _step_total(rows: np.ndarray) -> float:
    """Sum a ``(steps, stations)`` block row by row, then step after step.

    These are the additions, in the same order, of summing a per-station
    array at every step, so the result matches that loop bit for bit.
    """
    total = 0.0
    for row_sum in rows.sum(axis=1).tolist():
        total += row_sum
    return total


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


class _EnergyPass:
    """Planning, serving and the battery ledger of one policy.

    Fed one :class:`DemandEpoch` at a time through :meth:`serve`; the
    per-station bank and the running totals live here, so several passes
    can consume one demand stream side by side.
    """

    def __init__(self, sc: Scenario, step_hook: Callable[[StepRecord], None] | None = None):
        self.sc = sc
        self.step_hook = step_hook
        self.n_stations = sc.highway.n_stations
        self.n_sub = sc.epoch_seconds // sc.step_seconds
        self.dt = float(sc.step_seconds)
        self.bank = Battery(level=np.zeros(self.n_stations), capacity=sc.battery_capacity)
        # The greedy controller requests full power from identical, initially
        # empty stores under one harvest, so its battery never depends on the
        # hits and is the same at every station: one scalar ledger stands for
        # the whole bank. The sustainable controller leaves it untouched.
        self.shared = Battery(level=0.0, capacity=sc.battery_capacity)
        self.epochs: list[EpochMetrics] = []
        self.steps = 0
        self.offered = self.scs = self.hits = 0
        self.handovers = self.continuity = self.pushes = self.defers = 0
        self.prev_deficit = self.prev_overflow = 0.0

    def serve(self, demand: DemandEpoch) -> None:
        """Plan the epoch, serve its steps, and book its metrics row."""
        sc = self.sc
        t0 = demand.t0
        harvests = harvest_rates(sc.energy, t0 + np.arange(self.n_sub) * self.dt)
        if sc.policy == "sustainable":
            forecast = mean_rate(sc.energy, float(t0), float(t0 + sc.epoch_seconds))
            active, quotas = sustainable_large_step(
                sc.power, self.bank.level, forecast, float(sc.epoch_seconds)
            )
            served, delivered, level, pushes, defers = self._serve_sustainable(
                demand.hits, harvests, active, quotas
            )
        else:
            active, quotas = greedy_large_step(sc.power, self.n_stations)
            served, delivered, level = self._serve_greedy(demand.hits, harvests)
            pushes = defers = 0
        self.steps += self.n_sub
        _check_ledger(self.bank, self.steps)
        if self.step_hook is not None:
            for s in range(self.n_sub):
                self.step_hook(
                    StepRecord(
                        t=t0 + (s + 1) * sc.step_seconds,
                        offered=demand.n_vehicles,
                        hits=demand.hits[s].copy(),
                        served=served[s].copy(),
                        quotas=quotas.copy(),
                        active=active.copy(),
                    )
                )

        scs = int(served.sum())
        n_hits = int(demand.hits.sum())
        offered = demand.n_vehicles * self.n_sub
        deficit_now = float(np.sum(self.bank.cum_deficit))
        overflow_now = float(np.sum(self.bank.cum_overflow))
        self.epochs.append(
            EpochMetrics(
                epoch_start_s=t0,
                offered=offered,
                scs_served=scs,
                mbs_served=offered - scs,
                hit_rate=n_hits / offered if offered else 0.0,
                mean_power=_step_total(delivered) / (self.n_stations * self.n_sub),
                mean_battery=_step_total(level) / (self.n_stations * self.n_sub),
                outage_energy=deficit_now - self.prev_deficit,
                overflow_energy=overflow_now - self.prev_overflow,
                continuity_rate=(
                    demand.continuity / demand.handovers if demand.handovers else 1.0
                ),
                pushes=pushes,
                defers=defers,
            )
        )
        self.prev_deficit, self.prev_overflow = deficit_now, overflow_now
        self.offered += offered
        self.scs += scs
        self.hits += n_hits
        self.handovers += demand.handovers
        self.continuity += demand.continuity
        self.pushes += pushes
        self.defers += defers

    def _serve_sustainable(
        self, hits: np.ndarray, harvests: np.ndarray, active: np.ndarray, quotas: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, int, int]:
        """Step the rationed controller; returns per-step rows and flag counts.

        Rows are ``(n_sub, n_stations)``: users served, delivered power,
        and the battery level after each step.
        """
        sc = self.sc
        pm = sc.power
        bank = self.bank
        dt = self.dt
        start_level = bank.level
        served = np.zeros(hits.shape, dtype=np.int64)
        delivered = np.empty(hits.shape)
        level = np.empty(hits.shape)
        any_active = bool(active.any())
        all_active = bool(active.all())
        for s, harvest in enumerate(harvests.tolist()):
            if any_active:
                plan = sustainable_small_step(
                    pm, bank.level, harvest, hits[s], quotas, dt,
                    sc.low_watermark, sc.high_watermark,
                )
                if all_active:
                    served[s] = plan.served
                    draw = plan.draw
                else:
                    served[s] = np.where(active, plan.served, 0)
                    sleep_draw = np.minimum(pm.p_sleep, bank.level / dt + harvest)
                    draw = np.where(active, plan.draw, sleep_draw)
            else:
                draw = np.minimum(pm.p_sleep, bank.level / dt + harvest)
            _, delivered[s] = battery_step(bank, harvest, draw, dt)
            level[s] = bank.level
        if not any_active:
            return served, delivered, level, 0, 0
        # the step plan flags deferral and pushing on the level each step starts from
        before = np.vstack((start_level[None, :], level[:-1]))
        pushes = int(np.count_nonzero((before > sc.high_watermark) & active))
        defers = int(np.count_nonzero((before < sc.low_watermark) & active))
        return served, delivered, level, pushes, defers

    def _serve_greedy(
        self, hits: np.ndarray, harvests: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Step the always-on baseline; returns the same rows as the rationed one."""
        shared = self.shared
        delivered = np.empty(self.n_sub)
        level = np.empty(self.n_sub)
        for s, harvest in enumerate(harvests.tolist()):
            _, delivered[s] = battery_step(shared, harvest, 1.0, self.dt)
            level[s] = shared.level
        served = greedy_small_step(self.sc.power, hits, delivered[:, None], self.sc.greedy_partial)
        n = self.n_stations
        self.bank = Battery(
            level=np.full(n, shared.level),
            capacity=shared.capacity,
            cum_harvested=shared.cum_harvested,
            cum_consumed=np.full(n, shared.cum_consumed),
            cum_overflow=np.full(n, shared.cum_overflow),
            cum_deficit=np.full(n, shared.cum_deficit),
            initial_level=np.zeros(n),
        )
        return (
            served,
            np.repeat(delivered[:, None], n, axis=1),
            np.repeat(level[:, None], n, axis=1),
        )

    def report(self) -> MetricsReport:
        return MetricsReport(
            seed=self.sc.seed,
            policy=self.sc.policy,
            epochs=self.epochs,
            offered=self.offered,
            scs_served=self.scs,
            mbs_served=self.offered - self.scs,
            normalized_offload=self.scs / self.offered if self.offered else 0.0,
            hit_rate=self.hits / self.offered if self.offered else 0.0,
            continuity_rate=self.continuity / self.handovers if self.handovers else 1.0,
            outage_energy=self.prev_deficit,
            overflow_energy=self.prev_overflow,
            pushes=self.pushes,
            defers=self.defers,
            batteries=self.bank,
        )


def run(scenario: Scenario, step_hook: Callable[[StepRecord], None] | None = None) -> MetricsReport:
    """Simulate one scenario and return its metrics report.

    One demand pass feeds the energy pass of ``scenario.policy``.
    ``step_hook``, when given, receives a :class:`StepRecord` after every
    small step; it is meant for invariant checks and stays off the hot
    path otherwise.
    """
    energy = _EnergyPass(scenario, step_hook)
    for demand in _demand_pass(scenario):
        energy.serve(demand)
    return energy.report()


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


def run_many(scenarios: list[Scenario], workers: int = 1) -> list[MetricsReport]:
    """Run several scenarios, optionally across processes, in input order."""
    return map_ordered(run, scenarios, workers)


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
    # E[min(X, c)] = sum_{k<c} k p_k + c (1 - CDF(c-1)); the head terms
    # come from the stable pmf recursion (log-space for very large mu).
    if mu <= 700.0:
        p = math.exp(-mu)
        cdf = p
        head = 0.0
        for k in range(1, c):
            p *= mu / k
            head += k * p
            cdf += p
    else:
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


def sweep_cache(base: Scenario, cache_sizes: list[int], workers: int = 1) -> list[SweepPoint]:
    """Run one simulation per cache size, identical seeds across points.

    The per-point figure is the time-mean number of station-served users
    per cell scaled by the per-user rate, i.e. the offloaded throughput
    one station sustains.
    """
    scenarios = [replace(base, cache_capacity=int(c)) for c in cache_sizes]
    reports = run_many(scenarios, workers)
    points = []
    for c, rep in zip(cache_sizes, reports):
        steps = base.duration // base.step_seconds
        mean_served = rep.scs_served / (steps * base.highway.n_stations)
        points.append(
            SweepPoint(
                cache_capacity=int(c),
                offload_mbps=mean_served * base.power.rate_per_user_mbps,
                report=rep,
            )
        )
    return points


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
    sus, greedy = passes = [_EnergyPass(replace(base, policy=p)) for p in POLICIES]
    for demand in _demand_pass(base):
        for energy in passes:
            energy.serve(demand)
    if greedy.scs == 0:
        ratio = 1.0 if sus.scs == 0 else math.inf
    else:
        ratio = sus.scs / greedy.scs
    return EnergyComparison(sustainable=sus.report(), greedy=greedy.report(), capacity_ratio=ratio)
