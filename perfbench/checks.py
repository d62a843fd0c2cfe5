"""Correctness checks on what the benchmark's workloads produce.

Each check returns a list of failure messages, empty when the property
holds. Expected values come from properties the method must have and from
formulas worked out here (the solar profile summed step by step, Poisson
means from scipy), never from a stored copy of the program's output.
"""
from __future__ import annotations

import csv
import functools
import io
import math

import numpy as np

# z-score bound of the statistical checks. A single draw breaks it by
# chance with probability ~2e-9, so thousands of epochs over many runs
# still raise no false alarm.
Z_BOUND = 6.0
# A2's tolerance: the largest cache of a sweep serves within 2% of the
# every-request-a-hit bound.
PLATEAU_TOLERANCE = 0.02
# Relative rounding allowance for sums the program adds in another order.
RTOL = 1e-9


def zipf_mass(n_files: int, gamma: float, k: int) -> float:
    """Request probability of the ``k`` most popular of ``n_files`` Zipf ids."""
    weights = np.arange(1, n_files + 1, dtype=np.float64) ** -float(gamma)
    return float(weights[:k].sum() / weights.sum())


def truncated_poisson_mean(mu: float, cap: int) -> float:
    """``E[min(X, cap)]`` for ``X ~ Poisson(mu)``."""
    # imported here so that a run's set-up does not pay for scipy
    from scipy.stats import poisson

    k = np.arange(cap)
    return float(np.sum(k * poisson.pmf(k, mu)) + cap * poisson.sf(cap - 1, mu))


@functools.lru_cache(maxsize=None)
def solar_energy(profile, duration: int, dt: float) -> float:
    """Energy one station harvests over a run under a half-sine day.

    The engine holds the rate of each step's start time over the step.
    """
    span = profile.sunset_h - profile.sunrise_h
    rates = []
    for k in range(int(duration // dt)):
        hour = (k * dt / 3600.0) % 24.0
        if profile.sunrise_h <= hour <= profile.sunset_h:
            rates.append(profile.peak_rate * math.sin(math.pi * (hour - profile.sunrise_h) / span))
    return math.fsum(rates) * dt


def _mean_se(values) -> tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    se = float(arr.std(ddof=1) / math.sqrt(arr.size)) if arr.size > 1 else 0.0
    return float(arr.mean()), se


def check_accounting(report, tag: str) -> list[str]:
    """Every offer is served by the station or the macro cell; only hits by the station."""
    failures = []
    for i, em in enumerate(report.epochs):
        hits = round(em.hit_rate * em.offered)
        if em.offered != em.scs_served + em.mbs_served:
            failures.append(f"{tag} epoch {i}: offered {em.offered} != "
                            f"scs {em.scs_served} + mbs {em.mbs_served}")
        if not 0 <= em.scs_served <= hits:
            failures.append(f"{tag} epoch {i}: scs_served {em.scs_served} outside [0, hits {hits}]")
    if report.offered != sum(em.offered for em in report.epochs):
        failures.append(f"{tag}: run offered {report.offered} != sum over epochs")
    if report.scs_served != sum(em.scs_served for em in report.epochs):
        failures.append(f"{tag}: run scs_served {report.scs_served} != sum over epochs")
    return failures


def check_ledger(bank, n_stations: int, tag: str) -> list[str]:
    """``harvested - overflow - consumed == level - initial`` per station, level in [0, cap]."""
    terms = [np.broadcast_to(np.asarray(t, dtype=np.float64), (n_stations,))
             for t in (bank.cum_harvested, bank.cum_overflow, bank.cum_consumed,
                       bank.level, bank.initial_level)]
    harvested, overflow, consumed, level, initial = terms
    scale = max(1.0, max(float(np.max(np.abs(t))) for t in terms))
    residual = np.abs((harvested - overflow - consumed) - (level - initial))
    failures = []
    if not np.all(residual <= RTOL * scale):
        failures.append(f"{tag}: ledger residual {float(residual.max()):.3e} exceeds "
                        f"{RTOL * scale:.3e}")
    if not (np.all(level >= 0.0) and np.all(level <= bank.capacity)):
        failures.append(f"{tag}: battery level outside [0, {bank.capacity}]")
    return failures


def check_duel(sc, cmp) -> list[str]:
    """Properties of one ``compare_energy`` on a solar day."""
    n = sc.highway.n_stations
    sus, greedy = cmp.sustainable, cmp.greedy
    tag = f"energy-duel seed {sc.seed}"
    failures = []
    if len(sus.epochs) != len(greedy.epochs):
        failures.append(f"{tag}: {len(sus.epochs)} vs {len(greedy.epochs)} epochs")
    for i, (a, b) in enumerate(zip(sus.epochs, greedy.epochs)):
        if a.offered != b.offered or a.hit_rate != b.hit_rate:
            failures.append(f"{tag} epoch {i}: the two sides saw different demand")
    harvest = solar_energy(sc.energy, sc.duration, float(sc.step_seconds))
    for rep in (sus, greedy):
        side = f"{tag} {rep.policy}"
        failures += check_accounting(rep, side)
        failures += check_ledger(rep.batteries, n, side)
        booked = np.broadcast_to(np.asarray(rep.batteries.cum_harvested, dtype=np.float64), (n,))
        if not np.allclose(booked, harvest, rtol=RTOL, atol=0.0):
            failures.append(f"{side}: cum_harvested {booked.tolist()} != solar sum {harvest!r}")
    if sus.outage_energy != 0.0 or any(em.outage_energy != 0.0 for em in sus.epochs) \
            or np.any(np.asarray(sus.batteries.cum_deficit) != 0.0):
        failures.append(f"{tag}: the sustainable side booked an outage")
    expected_ratio = sus.scs_served / greedy.scs_served if greedy.scs_served else math.inf
    if cmp.capacity_ratio != expected_ratio:
        failures.append(f"{tag}: capacity_ratio {cmp.capacity_ratio} != served ratio "
                        f"{expected_ratio}")
    if not cmp.capacity_ratio >= 1.3:
        failures.append(f"{tag}: capacity_ratio {cmp.capacity_ratio:.3f} < 1.3")
    return failures


def check_rush(sc, rep) -> list[str]:
    """Properties of one greedy ``run`` at a constant rush density and full harvest."""
    n = sc.highway.n_stations
    cap = sc.power.max_users
    n_sub = sc.epoch_seconds // sc.step_seconds
    tag = f"rush-hour seed {sc.seed}"
    failures = check_accounting(rep, tag) + check_ledger(rep.batteries, n, tag)

    # Exponential headways in both directions make the ring's count Poisson.
    lam = 2.0 * sc.traffic.base_density * sc.highway.length
    counts = np.array([em.offered / n_sub for em in rep.epochs])
    if np.any(counts != np.round(counts)):
        failures.append(f"{tag}: an epoch's offered is not a whole number of vehicles per step")
    worst = float(np.max(np.abs(counts - lam))) / math.sqrt(lam)
    if worst > Z_BOUND:
        failures.append(f"{tag}: an epoch's vehicle count is {worst:.1f} sd from Poisson({lam})")
    z_mean = abs(float(counts.mean()) - lam) / math.sqrt(lam / counts.size)
    if z_mean > Z_BOUND:
        failures.append(f"{tag}: mean vehicle count is {z_mean:.1f} se from {lam}")

    if rep.outage_energy != 0.0 or np.any(np.asarray(rep.batteries.cum_deficit) != 0.0):
        failures.append(f"{tag}: the greedy ledger booked a deficit under full harvest")

    # With full power the greedy station serves min(hits, cap) in each
    # cell-step. Hits are Poisson-thinned by the cached request mass: at
    # least the popular partition's once it has filled (prefetch only adds
    # contents), at most every request.
    served = np.array([em.scs_served / (n_sub * n) for em in rep.epochs])
    popular = min(sc.cache_capacity, math.ceil(sc.split_ratio * sc.cache_capacity))
    min_budget = round(sc.backhaul.files_per_epoch * sc.backhaul.variability[0])
    mu = 2.0 * sc.traffic.base_density * sc.highway.cell_length
    upper = truncated_poisson_mean(mu, cap)
    mean, se = _mean_se(served)
    if mean > upper + Z_BOUND * se:
        failures.append(f"{tag}: mean served per cell-step {mean:.4f} above the "
                        f"all-hit bound {upper:.4f} (se {se:.4f})")
    # Each epoch's update adds at least min_budget ids, so the partition is
    # full from the epoch whose update brings the count to `popular`.
    filled = max(0, math.ceil(popular / min_budget) - 1) if min_budget else len(served)
    if len(served) - filled < 2:
        failures.append(f"{tag}: fewer than 2 epochs after the popular partition fills")
    else:
        lower = truncated_poisson_mean(mu * zipf_mass(sc.n_files, sc.gamma, popular), cap)
        mean, se = _mean_se(served[filled:])
        if mean < lower - Z_BOUND * se:
            failures.append(f"{tag}: mean served per cell-step {mean:.4f} after fill below "
                            f"the popular-hit bound {lower:.4f} (se {se:.4f})")
    return failures


def summary_rows(files: dict[str, bytes]) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(files["summary.csv"].decode("utf-8"))))


def check_sweep(settings, outputs: list[dict[str, bytes]]) -> list[str]:
    """Properties of the files that repeated ``sweep-cache`` calls of one seed wrote."""
    sc = settings.scenario
    sizes = list(settings.cache_sizes)
    n = sc.highway.n_stations
    cap = sc.power.max_users
    n_sub = sc.epoch_seconds // sc.step_seconds
    n_epochs = sc.duration // sc.epoch_seconds
    steps = sc.duration // sc.step_seconds
    tag = f"cache-sweep seed {sc.seed}"
    failures = [f"{tag}: operation {k} wrote other bytes than operation 0"
                for k, files in enumerate(outputs) if files != outputs[0]]
    files = outputs[0]
    rows = summary_rows(files)
    epochs = list(csv.DictReader(io.StringIO(files["metrics.csv"].decode("utf-8"))))
    if [int(r["cache_capacity"]) for r in rows] != sizes or len(epochs) != len(sizes) * n_epochs:
        return failures + [f"{tag}: summary.csv or metrics.csv does not hold one run per size"]

    upper = truncated_poisson_mean(2.0 * sc.traffic.base_density * sc.highway.cell_length, cap)
    for i, row in enumerate(rows):
        size = sizes[i]
        offered, scs, mbs = (int(row[k]) for k in ("offered", "scs_served", "mbs_served"))
        if offered != scs + mbs:
            failures.append(f"{tag} size {size}: offered {offered} != scs {scs} + mbs {mbs}")
        if size == 0 and (scs != 0 or float(row["hit_rate"]) != 0.0):
            failures.append(f"{tag}: size 0 served {scs} with hit rate {row['hit_rate']}")
        per_epoch = [int(em["scs_served"]) / (n_sub * n)
                     for em in epochs[i * n_epochs:(i + 1) * n_epochs]]
        mean = scs / (steps * n)
        _, se = _mean_se(per_epoch)
        if mean > upper + Z_BOUND * se:
            failures.append(f"{tag} size {size}: mean served per cell-step {mean:.4f} "
                            f"above the all-hit bound {upper:.4f} (se {se:.4f})")
        if i == len(rows) - 1 and mean < (1.0 - PLATEAU_TOLERANCE) * upper:
            failures.append(f"{tag}: largest size serves {mean:.4f} per cell-step, more than "
                            f"{PLATEAU_TOLERANCE:.0%} below the all-hit bound {upper:.4f}")
    return failures


def identical(a, b) -> bool:
    """Field-by-field equality of reports: exact floats, equal arrays and dtypes."""
    if hasattr(a, "__dataclass_fields__"):
        return type(a) is type(b) and all(
            identical(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__
        )
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return (isinstance(a, np.ndarray) and isinstance(b, np.ndarray)
                and a.dtype == b.dtype and np.array_equal(a, b))
    if isinstance(a, (list, tuple)):
        return type(a) is type(b) and len(a) == len(b) and all(map(identical, a, b))
    if isinstance(a, dict):
        return type(b) is dict and a.keys() == b.keys() and all(identical(a[k], b[k]) for k in a)
    return type(a) is type(b) and a == b
