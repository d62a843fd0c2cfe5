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


def _demand_pass(sc: Scenario, capacities: list[int]) -> Iterator[list[DemandEpoch]]:
    """Mobility, caching and hit lookup: the policy-independent half of a run.

    Each epoch respawns the vehicles, refreshes the popular partitions
    under one backhaul draw per station, then steps the vehicles, stages
    prefetches ahead of handovers, and looks up hits and handover
    continuity. The random stream is consumed in that fixed order, and no
    cache state feeds it, so one pass serves several cache sizes: it moves
    the vehicles once and yields, each epoch, one :class:`DemandEpoch` per
    entry of ``capacities``, each as its own single-size pass would.
    """
    hw = sc.highway
    n_stations = hw.n_stations
    n_sizes = len(capacities)
    catalog = build_catalog(sc.n_files, sc.gamma)
    rng = np.random.default_rng(sc.seed)

    masks = np.zeros((n_sizes, n_stations, sc.n_files + 1), dtype=bool)
    flat_masks = masks.reshape(n_sizes, -1)
    stores = [CacheStore(c, sc.split_ratio, mask=masks[k]) for k, c in enumerate(capacities)]
    # only the sizes with prefetch slots stage anything ahead of a handover
    prefetching = [cache for cache in stores if cache.prefetch_capacity > 0] if sc.prefetch_budget else []
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

        n_veh = vehicles.n
        contents = vehicles.active_content
        hits = np.zeros((n_sizes, n_sub, n_stations), dtype=np.int64)
        continuity = [0] * n_sizes
        handovers = 0

        # Trajectories are closed-form per epoch; evaluate them in equal
        # blocks of at most 1M vehicle-steps and 2M per-size hit flags, to
        # bound the working set. Each block evaluates its start row and one
        # row per step, so row j starts step j and row j + 1 ends it.
        # Everything but prefetch and the cache lookups is worked out once
        # for a whole block; only those two follow the step order, since a
        # prefetch changes what later lookups see.
        longest = max(1, min(1_000_000 // max(n_veh, 1), 2_000_000 // max(n_veh * n_sizes, 1)))
        block = math.ceil(n_sub / math.ceil(n_sub / longest))
        for s0 in range(0, n_sub, block) if n_veh else ():
            s1 = min(s0 + block, n_sub)
            nb = s1 - s0
            positions = vehicles.positions_at(np.arange(s0, s1 + 1) * dt, hw)
            cells = cell_indices(positions, hw)
            crossed = cells[1:] != cells[:-1]
            changed = crossed.any(axis=1)
            lookup = cells[1:] * (sc.n_files + 1) + contents
            cached = np.empty((nb, n_sizes, n_veh), dtype=bool)

            if prefetching:
                # handover lookahead from each step's start, most urgent first
                flat, nxt, eta = handovers_from_arrays(
                    positions[:-1], cells[:-1], vehicles.direction, vehicles.speed, hw, horizon=dt
                )
                step = flat // n_veh
                ahead = contents[flat % n_veh]
                order = np.lexsort((ahead, nxt, eta, step))
                bounds = np.searchsorted(step, np.arange(nb + 1)).tolist()
                pairs = list(zip(nxt[order].tolist(), ahead[order].tolist()))

            for j in range(nb):
                if prefetching and changed[j] and bounds[j] < bounds[j + 1]:
                    requests = pairs[bounds[j]:bounds[j + 1]]
                    for cache in prefetching:
                        for pair in plan_prefetch(requests, cache, sc.prefetch_budget):
                            cache.prefetch_insert(pair)
                flat_masks.take(lookup[j], axis=1, out=cached[j])

            # (step, cell) slot of every vehicle, counted per size
            slots = np.arange(nb)[:, None] * n_stations + cells[1:]
            for k in range(n_sizes):
                hit = cached[:, k]
                hits[k, s0:s1] = np.bincount(slots[hit], minlength=nb * n_stations).reshape(nb, n_stations)
                continuity[k] += int(np.count_nonzero(crossed & hit))
            handovers += int(np.count_nonzero(crossed))
            # free this block's arrays before the next block, or epoch, allocates its own
            positions = cells = crossed = lookup = cached = slots = hit = pairs = None

        yield [DemandEpoch(t0, n_veh, hits[k], handovers, continuity[k]) for k in range(n_sizes)]
        # the consumer drops its epochs too, so two epochs' hits never coexist
        del hits


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
