"""Single-loop reference engine for equivalence tests.

This is the engine's original form: one loop over epochs and steps that
moves the vehicles, looks up hits, plans, serves and books the battery
ledger in turn, with every count and sum taken step by step. The engine
now splits this into a demand pass and per-policy energy passes and
works out most of the bookkeeping per block; the tests require it to give
the same reports, bit for bit, as this loop.
"""
from dataclasses import dataclass

import numpy as np

from scsim.catalog import build_catalog
from scsim.energy import Battery, battery_step, harvest_rates, mean_rate
from scsim.engine import EpochMetrics, MetricsReport
from scsim.mobility import cell_indices, handovers_from_arrays, spawn_vehicles, traffic_multiplier
from scsim.policy import (
    greedy_large_step,
    greedy_small_step,
    plan_popular_update,
    plan_prefetch,
    sustainable_large_step,
    sustainable_small_step,
)
from scsim.station import CacheStore


@dataclass(frozen=True)
class ReferenceStep:
    """One step of the loop, as its observer hook sees it."""

    t: int
    n_vehicles: int
    hits: np.ndarray
    served: np.ndarray
    quotas: np.ndarray
    active: np.ndarray


def reference_run(scenario, step_hook=None):
    """Simulate one scenario step by step, in a single loop."""
    sc = scenario
    hw = sc.highway
    n_stations = hw.n_stations
    catalog = build_catalog(sc.n_files, sc.gamma)
    rng = np.random.default_rng(sc.seed)
    pm = sc.power

    cache = CacheStore(sc.cache_capacity, sc.split_ratio, n_stations, sc.n_files)
    bank = Battery(level=np.zeros(n_stations), capacity=sc.battery_capacity)

    sustainable = sc.policy == "sustainable"
    dt = float(sc.step_seconds)
    n_sub = sc.epoch_seconds // sc.step_seconds
    n_epochs = sc.duration // sc.epoch_seconds
    prefetch_on = (
        sc.prefetch_budget > 0 and cache.prefetch_capacity > 0 and sc.cache_capacity > 0
    )
    forecast = np.empty(n_stations)

    epochs: list[EpochMetrics] = []
    tot_offered = tot_scs = tot_hits = 0
    tot_handovers = tot_cont = tot_pushes = tot_defers = 0
    prev_deficit = prev_overflow = 0.0

    for e in range(n_epochs):
        t0 = e * sc.epoch_seconds
        density = sc.traffic.base_density * traffic_multiplier(sc.traffic, float(t0))
        vehicles = spawn_vehicles(density, hw, catalog, rng, speed=sc.speed)
        budgets = sc.backhaul.realize(rng, n_stations)
        cache.apply_popular_update(
            plan_popular_update(cache.n_popular, catalog, budgets, cache.popular_capacity)
        )
        masks = cache.mask

        forecast[:] = mean_rate(sc.energy, float(t0), float(t0 + sc.epoch_seconds))
        if sustainable:
            active, quotas = sustainable_large_step(
                pm, bank.level, forecast, float(sc.epoch_seconds)
            )
        else:
            active, quotas = greedy_large_step(pm, n_stations)
        all_active = bool(active.all())

        n_veh = vehicles.n
        contents = vehicles.active_content
        directions = vehicles.direction
        speeds = vehicles.speed
        prev_cells = cell_indices(vehicles.position, hw)
        prev_pos = vehicles.position
        harvests = harvest_rates(sc.energy, t0 + np.arange(n_sub) * dt)

        ep_offered = ep_scs = ep_hits = 0
        ep_handovers = ep_cont = ep_pushes = ep_defers = 0
        ep_delivered = ep_level = 0.0
        any_active = bool(active.any())
        zero_served = np.zeros(n_stations, dtype=np.int64)

        # Trajectories are closed-form per epoch; evaluate them in blocks
        # to bound the working-set size for big populations. The same
        # block tells us which steps contain a cell crossing at all, so
        # quiet steps skip handover prediction and continuity checks.
        block = max(1, min(n_sub, 2_000_000 // max(n_veh, 1)))
        for s0 in range(0, n_sub, block):
            s1 = min(s0 + block, n_sub)
            offsets = np.arange(s0 + 1, s1 + 1) * dt
            positions = vehicles.positions_at(offsets, hw)
            cells_block = cell_indices(positions, hw)
            if n_veh:
                allc = np.vstack((prev_cells[None, :], cells_block))
                row_changed = (allc[1:] != allc[:-1]).any(axis=1)
            else:
                row_changed = np.zeros(s1 - s0, dtype=bool)

            for s in range(s0, s1):
                j = s - s0
                cells = cells_block[j]
                harvest = harvests[s]
                changed = row_changed[j]

                if prefetch_on and changed:
                    idx, nxt, eta = handovers_from_arrays(
                        prev_pos, cell_indices(prev_pos, hw), directions, speeds, hw, horizon=dt
                    )
                    if idx.size:
                        # sooner arrivals first
                        triples = sorted(
                            (float(eta[k]), int(nxt[k]), int(contents[i]))
                            for k, i in enumerate(idx)
                        )
                        # one step's requests: its picks go in before the next step plans
                        stations = np.array([st_idx for _, st_idx, _ in triples], dtype=np.int64)
                        wanted = np.array([content for _, _, content in triples], dtype=np.int64)
                        requests = (np.full(stations.size, s), stations, wanted)
                        picks = plan_prefetch(requests, cache, sc.prefetch_budget)
                        if picks.size:
                            cache.prefetch_insert((stations[picks], wanted[picks]))
                            masks = cache.mask

                if n_veh:
                    hit_mask = masks[cells, contents]
                    n_hits = int(np.count_nonzero(hit_mask))
                    if any_active or step_hook is not None:
                        hits_per_cell = np.bincount(cells[hit_mask], minlength=n_stations)
                    else:
                        hits_per_cell = zero_served
                else:
                    n_hits = 0
                    hits_per_cell = zero_served

                if sustainable:
                    if any_active:
                        ep_pushes += int(np.count_nonzero((bank.level > sc.high_watermark) & active))
                        ep_defers += int(np.count_nonzero((bank.level < sc.low_watermark) & active))
                        served, draw = sustainable_small_step(
                            pm, bank.level, harvest, hits_per_cell, quotas, True, dt
                        )
                        if not all_active:
                            served = np.where(active, served, 0)
                            sleep_draw = np.minimum(pm.p_sleep, bank.level / dt + harvest)
                            draw = np.where(active, draw, sleep_draw)
                        _, delivered = battery_step(bank, harvest, draw, dt)
                        ep_scs += int(served.sum())
                    else:
                        served = zero_served
                        draw = np.minimum(pm.p_sleep, bank.level / dt + harvest)
                        _, delivered = battery_step(bank, harvest, draw, dt)
                else:
                    _, delivered = battery_step(bank, harvest, 1.0, dt)
                    served = greedy_small_step(pm, hits_per_cell, delivered, sc.greedy_partial)
                    ep_scs += int(served.sum())

                ep_offered += n_veh
                ep_hits += n_hits
                ep_delivered += float(delivered.sum())
                ep_level += float(bank.level.sum())

                if changed:
                    crossed = cells != prev_cells
                    ep_handovers += int(np.count_nonzero(crossed))
                    ep_cont += int(np.count_nonzero(masks[cells[crossed], contents[crossed]]))
                    prev_cells = cells
                prev_pos = positions[j]

                if step_hook is not None:
                    step_hook(
                        ReferenceStep(
                            t=t0 + (s + 1) * sc.step_seconds,
                            n_vehicles=n_veh,
                            hits=hits_per_cell.copy(),
                            served=np.array(served, dtype=np.int64),
                            quotas=quotas.copy(),
                            active=active.copy(),
                        )
                    )

        deficit_now = float(np.sum(bank.cum_deficit))
        overflow_now = float(np.sum(bank.cum_overflow))
        epochs.append(
            EpochMetrics(
                epoch_start_s=t0,
                offered=ep_offered,
                scs_served=ep_scs,
                mbs_served=ep_offered - ep_scs,
                hit_rate=ep_hits / ep_offered if ep_offered else 0.0,
                mean_power=ep_delivered / (n_stations * n_sub),
                mean_battery=ep_level / (n_stations * n_sub),
                outage_energy=deficit_now - prev_deficit,
                overflow_energy=overflow_now - prev_overflow,
                continuity_rate=ep_cont / ep_handovers if ep_handovers else 1.0,
                pushes=ep_pushes,
                defers=ep_defers,
            )
        )
        prev_deficit, prev_overflow = deficit_now, overflow_now
        tot_offered += ep_offered
        tot_scs += ep_scs
        tot_hits += ep_hits
        tot_handovers += ep_handovers
        tot_cont += ep_cont
        tot_pushes += ep_pushes
        tot_defers += ep_defers

    return MetricsReport(
        seed=sc.seed,
        policy=sc.policy,
        epochs=epochs,
        offered=tot_offered,
        scs_served=tot_scs,
        mbs_served=tot_offered - tot_scs,
        normalized_offload=tot_scs / tot_offered if tot_offered else 0.0,
        hit_rate=tot_hits / tot_offered if tot_offered else 0.0,
        continuity_rate=tot_cont / tot_handovers if tot_handovers else 1.0,
        outage_energy=prev_deficit,
        overflow_energy=prev_overflow,
        pushes=tot_pushes,
        defers=tot_defers,
        batteries=bank,
    )
