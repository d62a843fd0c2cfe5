"""Acceptance gates A1-A9 for the cache-sizing and energy case studies.

Each test prints one verdict line; run ``pytest -s tests/test_acceptance.py``
to see them inline (plain ``pytest -v`` shows the same pass/fail via test
names). Tolerances and time budgets are pinned in the asserts.
"""
import contextlib
import io
import math
import time
from dataclasses import replace

import numpy as np

from scsim.catalog import build_catalog, hit_rate, top_k
from scsim.energy import EnergyProfile, ledger_residual
from scsim.engine import (
    Scenario,
    compare_energy,
    expected_offload,
    run,
    sweep_cache,
)
from scsim.mobility import Highway, TrafficProfile
from scsim.policy import BackhaulBudget, sustainable_large_step
from scsim.station import PowerModel
from scsim import cli


def verdict(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def brute_force_mass(ids, n_files, gamma):
    total = math.fsum(i ** -gamma for i in range(1, n_files + 1))
    return math.fsum(i ** -gamma for i in ids) / total


def saturated_base(**kw):
    """Static traffic, abundant energy, pure most-popular caching."""
    defaults = dict(
        traffic=TrafficProfile(enabled=False),
        energy=EnergyProfile(kind="constant", peak_rate=1.0),
        split_ratio=1.0,
        backhaul=BackhaulBudget(files_per_epoch=5000, variability=(1.0, 1.0)),
    )
    defaults.update(kw)
    return Scenario(**defaults)


def test_a1_hit_rate_oracle():
    start = time.perf_counter()
    worst = 0.0
    cases = [(1.0, 31)] + [(0.56, c) for c in (10, 31, 100)]
    for gamma, c in cases:
        cat = build_catalog(1000, gamma)
        got = hit_rate(cat, set(top_k(cat, c)))
        want = brute_force_mass(range(1, c + 1), 1000, gamma)
        worst = max(worst, abs(got - want))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-12 and elapsed < 1.0
    verdict("A1", ok, f"hit-rate vs brute force, max |err| {worst:.2e}, {elapsed:.2f}s")


def test_a2_cache_size_regions():
    start = time.perf_counter()
    base = saturated_base(duration=10800)
    sizes = [0, 1, 2, 5, 10, 20, 31, 50, 100, 200, 500, 1000]
    points = sweep_cache(base, sizes)
    vals = [p.offload_mbps for p in points]
    plateau = vals[-1]
    saturation = 10.0 * expected_offload(
        2 * base.highway.cell_length * base.traffic.base_density, 10
    )
    monotone = all(b >= a for a, b in zip(vals, vals[1:]))
    knee = vals[sizes.index(31)] >= 0.85 * plateau
    radio = vals[sizes.index(200)] >= 0.98 * plateau
    level = abs(plateau - saturation) / saturation < 0.02
    elapsed = time.perf_counter() - start
    ok = monotone and knee and radio and level and elapsed < 120.0
    verdict(
        "A2",
        ok,
        f"12-point sweep nondecreasing={monotone}, C=31 at "
        f"{vals[sizes.index(31)] / plateau:.3f} of plateau (>=0.85), C=200 at "
        f"{vals[sizes.index(200)] / plateau:.3f} (>=0.98), plateau "
        f"{plateau:.2f} vs {saturation:.2f} Mbps, {elapsed:.1f}s",
    )


def test_a3_poisson_oracle_equivalence():
    start = time.perf_counter()
    details = []
    ok = True
    for gamma in (0.56, 1.0):
        for c in (10, 31, 100):
            sc = saturated_base(gamma=gamma, cache_capacity=c, duration=18000)
            rep = run(sc)
            cells = sc.highway.n_stations
            per_step = sc.epoch_seconds // sc.step_seconds
            means = np.array([em.scs_served / (cells * per_step) for em in rep.epochs])
            se = means.std(ddof=1) / math.sqrt(len(means))
            cat = build_catalog(sc.n_files, gamma)
            mu = 2 * sc.highway.cell_length * sc.traffic.base_density * hit_rate(
                cat, set(top_k(cat, c))
            )
            z = abs(means.mean() - expected_offload(mu, 10)) / se
            ok = ok and z <= 3.0
            details.append(f"g={gamma}/C={c}:|z|={z:.2f}")
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 60.0
    verdict("A3", ok, f"simulated vs truncated-Poisson mean, {' '.join(details)}, {elapsed:.1f}s")


def test_a4_energy_management_gain():
    start = time.perf_counter()
    ratios = []
    for seed in range(20):
        cmp = compare_energy(replace(Scenario(), seed=seed))
        ratios.append(cmp.capacity_ratio)
    low, mean = min(ratios), sum(ratios) / len(ratios)
    elapsed = time.perf_counter() - start
    ok = all(r >= 1.3 for r in ratios) and elapsed < 120.0
    verdict(
        "A4",
        ok,
        f"offload gain >= 1.3 on 20/20 seeds (min {low:.2f}, mean {mean:.2f}), {elapsed:.1f}s",
    )


def test_a5_abundance_null():
    cmp = compare_energy(
        replace(Scenario(), energy=EnergyProfile(kind="constant", peak_rate=1.0))
    )
    ok = 0.98 <= cmp.capacity_ratio <= 1.02
    verdict("A5", ok, f"constant-energy policy ratio {cmp.capacity_ratio:.6f} in [0.98, 1.02]")


def test_a6_conservation_suite():
    rep = run(Scenario())
    residual = np.max(np.abs(np.asarray(ledger_residual(rep.batteries))))
    split_ok = all(em.offered == em.scs_served + em.mbs_served for em in rep.epochs)
    ok = residual < 1e-6 and split_ok
    verdict(
        "A6",
        ok,
        f"24 h battery ledger residual {residual:.2e} (<1e-6/station), "
        f"offered == scs+mbs at every epoch: {split_ok}",
    )


def test_a7_byte_identical_outputs(tmp_path):
    shared = ["--override", "engine.duration=1800"]
    jobs = {
        "run": shared,
        "sweep-cache": shared + ["--override", "engine.cache_sizes=0,31"],
        "compare-energy": shared,
    }
    ok = True
    for command, extra in jobs.items():
        a = tmp_path / command / "a"
        b = tmp_path / command / "b"
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main([command, "--out", str(a)] + extra) == 0
            assert cli.main([command, "--out", str(b)] + extra) == 0
        for name in ("metrics.csv", "summary.csv", "plot.svg"):
            ok = ok and (a / name).read_bytes() == (b / name).read_bytes()
    verdict("A7", ok, "run/sweep-cache/compare-energy reruns byte-identical (csv+svg)")


def test_a8_cap_law_property():
    start = time.perf_counter()
    rng = np.random.default_rng(20250817)
    violations = 0
    checked = 0

    for _ in range(1000):
        max_users = int(rng.integers(1, 13))
        p_const = float(rng.uniform(0.2, 0.8))
        power = PowerModel(
            p_const=p_const,
            p_sleep=float(rng.uniform(0.0, p_const * 0.5)),
            max_users=max_users,
            rate_per_user_mbps=10.0,
        )
        step = int(rng.integers(1, 16))
        epoch = step * int(rng.integers(2, 12))
        lo, hi = np.sort(rng.uniform(0.0, 4000.0, size=2))
        var = np.sort(rng.uniform(0.0, 2.0, size=2))
        sc = Scenario(
            highway=Highway(
                n_stations=int(rng.integers(2, 7)),
                cell_length=float(rng.uniform(200.0, 1500.0)),
            ),
            n_files=int(rng.integers(5, 200)),
            gamma=float(rng.uniform(0.0, 2.5)),
            traffic=TrafficProfile(
                base_density=float(rng.uniform(0.0, 0.02)),
                enabled=bool(rng.integers(0, 2)),
                peak_width_h=float(rng.uniform(0.2, 4.0)),
                floor_fraction=float(rng.uniform(0.0, 1.0)),
            ),
            speed=float(rng.uniform(3.0, 40.0)),
            energy=EnergyProfile(
                kind=("solar-sine", "constant", "zero")[int(rng.integers(0, 3))],
                peak_rate=float(rng.uniform(0.0, 1.5)),
            ),
            battery_capacity=(
                math.inf if rng.integers(0, 2) else float(rng.uniform(10.0, 5000.0))
            ),
            power=power,
            cache_capacity=int(rng.integers(0, 60)),
            split_ratio=float(rng.uniform(0.0, 1.0)),
            backhaul=BackhaulBudget(
                files_per_epoch=int(rng.integers(0, 150)),
                variability=(float(var[0]), float(var[1])),
            ),
            prefetch_budget=int(rng.integers(0, 5)),
            low_watermark=float(lo),
            high_watermark=float(hi),
            greedy_partial=bool(rng.integers(0, 2)),
            policy=("sustainable", "greedy")[int(rng.integers(0, 2))],
            epoch_seconds=epoch,
            step_seconds=step,
            duration=epoch * int(rng.integers(1, 3)),
            seed=int(rng.integers(0, 2**32)),
        )

        def check(rec, cap=max_users):
            # rows are steps: count the steps checked and the steps in violation
            nonlocal violations, checked
            checked += len(rec.served)
            limit = np.minimum(np.minimum(rec.hits, rec.quotas), cap)
            violations += int(np.count_nonzero(((rec.served > limit) | (rec.served < 0)).any(axis=1)))
            violations += int(np.count_nonzero((rec.served[:, ~rec.active] != 0).any(axis=1)))

        run(sc, epoch_hook=check)

    elapsed = time.perf_counter() - start
    ok = violations == 0 and checked >= 1000
    verdict(
        "A8",
        ok,
        f"served <= min(hits, quota, max_users) across 1000 random scenarios "
        f"({checked} steps checked, {violations} violations), {elapsed:.1f}s",
    )


def test_a9_sleep_rule_boundaries():
    power = PowerModel()

    def plan(level, forecast, epoch=900.0):
        active, quotas = sustainable_large_step(
            power, np.array([level]), np.array([forecast]), epoch
        )
        return ("ACTIVE" if active[0] else "SLEEP"), int(quotas[0])

    eps = 1e-9
    below = plan(0.0, power.p_const - eps)
    boundary = plan(0.0, power.p_const)
    full = plan(0.0, 1.0)
    ok = (
        below == ("SLEEP", 0)
        and boundary == ("ACTIVE", 0)
        and full == ("ACTIVE", 10)
    )
    verdict(
        "A9",
        ok,
        f"r=p_const-eps -> {below[0]}/{below[1]}, r=p_const -> "
        f"{boundary[0]}/{boundary[1]}, r=1.0 -> {full[0]}/{full[1]}",
    )
