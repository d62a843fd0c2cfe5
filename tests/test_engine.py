"""Engine-level behavior: determinism, conservation, oracle agreement."""
import inspect
from dataclasses import fields, replace

import numpy as np
import pytest
import scipy.stats

from engine_reference import reference_run
from scsim import energy, engine
from scsim.catalog import build_catalog, hit_rate, top_k
from scsim.energy import EnergyProfile, ledger_residual
from scsim.engine import (
    MetricsReport,
    Scenario,
    compare_energy,
    expected_offload,
    map_ordered,
    run,
    sweep_cache,
)
from scsim.mobility import Highway, TrafficProfile, VehicleSet
from scsim.policy import BackhaulBudget
from scsim.station import CacheStore, PowerModel


def poisson_truncated_mean(mu, c):
    """Independent route: head sum plus survival mass at the cap."""
    if c == 0 or mu == 0:
        return 0.0
    ks = np.arange(c)
    head = float(np.sum(ks * scipy.stats.poisson.pmf(ks, mu)))
    return head + c * float(scipy.stats.poisson.sf(c - 1, mu))


def test_expected_offload_matches_poisson_truncation():
    for mu in (0.3, 2.67, 10.76, 20.0, 150.0):
        for c in (0, 1, 5, 10, 50):
            assert expected_offload(mu, c) == pytest.approx(
                poisson_truncated_mean(mu, c), abs=1e-9
            )


def test_expected_offload_frozen_values():
    assert expected_offload(20.0, 10) == pytest.approx(9.991791057899624, abs=1e-12)
    assert expected_offload(0.5, 10) == pytest.approx(0.5, abs=1e-9)


def test_expected_offload_large_mu_branch():
    # the log-space terms stay accurate where exp(-mu) underflows
    for mu in (800.0, 1200.0):
        for c in (700, 900):
            assert expected_offload(mu, c) == pytest.approx(
                poisson_truncated_mean(mu, c), abs=1e-8
            )


def test_expected_offload_continuous_at_cutoff():
    below = expected_offload(699.999999, 650)
    above = expected_offload(700.000001, 650)
    assert abs(above - below) < 1e-4


def test_expected_offload_monotone_and_capped():
    grid = [0.0, 0.5, 2.0, 8.0, 20.0]
    for mu in grid:
        vals = [expected_offload(mu, c) for c in range(0, 30)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert all(v <= min(mu, c) + 1e-12 for c, v in enumerate(vals))
    for c in (1, 10):
        vals = [expected_offload(mu, c) for mu in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_expected_offload_unbinding_cap_returns_mean():
    assert expected_offload(5.0, 200) == pytest.approx(5.0, abs=1e-9)


def test_expected_offload_rejects_bad_args():
    with pytest.raises(ValueError):
        expected_offload(-1.0, 10)
    with pytest.raises(ValueError):
        expected_offload(float("nan"), 10)
    with pytest.raises(ValueError):
        expected_offload(1.0, -1)


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(policy="laziest")
    with pytest.raises(ValueError):
        Scenario(epoch_seconds=900, step_seconds=7)
    with pytest.raises(ValueError):
        Scenario(duration=1000)
    with pytest.raises(ValueError):
        Scenario(split_ratio=1.5)
    with pytest.raises(ValueError):
        Scenario(cache_capacity=-1)
    with pytest.raises(ValueError):
        Scenario(speed=0.0)
    with pytest.raises(ValueError, match="finite"):
        Scenario(speed=np.inf)
    with pytest.raises(ValueError):
        Scenario(low_watermark=10.0, high_watermark=5.0)
    with pytest.raises(ValueError):
        Scenario(seed=-1)
    with pytest.raises(ValueError, match="gamma"):
        Scenario(gamma=np.inf)


def test_watermark_counts_on_a_steady_charge():
    """Pushes and defers count active station-steps by their starting level.

    With no vehicles and a constant harvest of 1.0, every station stays
    active at quota 0 and draws the constant floor 0.5, so each one's level
    starts step s (0-based) at 0.5 * s and ends the 900 s epoch at 450.
    Steps 0..199 start below 100 (defers) and steps 401..899 above 200
    (pushes), at each of the 10 stations.
    """
    sc = Scenario(
        traffic=TrafficProfile(base_density=0.0),
        energy=EnergyProfile(kind="constant", peak_rate=1.0),
        low_watermark=100.0,
        high_watermark=200.0,
        duration=900,
    )
    rep = run(sc)
    assert rep.pushes == (899 - 400) * 10 == 4990
    assert rep.defers == 200 * 10 == 2000
    assert (rep.epochs[0].pushes, rep.epochs[0].defers) == (4990, 2000)
    assert rep.batteries.level.tolist() == [450.0] * 10


QUICK = Scenario(
    traffic=TrafficProfile(base_density=0.004, enabled=False),
    duration=1800,
)


def test_run_is_deterministic():
    a = run(QUICK)
    b = run(QUICK)
    assert a.epochs == b.epochs
    assert a.offered == b.offered and a.scs_served == b.scs_served
    c = run(Scenario(
        traffic=TrafficProfile(base_density=0.004, enabled=False),
        duration=1800,
        seed=43,
    ))
    assert c.offered != a.offered or c.epochs != a.epochs


def test_offered_splits_exactly_between_scs_and_mbs():
    rep = run(QUICK)
    for em in rep.epochs:
        assert em.offered == em.scs_served + em.mbs_served
        assert 0.0 <= em.hit_rate <= 1.0
        assert 0.0 <= em.continuity_rate <= 1.0
        assert em.mean_power >= 0.0 and em.mean_battery >= 0.0
    assert rep.offered == rep.scs_served + rep.mbs_served
    assert rep.offered == sum(em.offered for em in rep.epochs)


def test_battery_ledger_closes():
    rep = run(QUICK)
    residual = ledger_residual(rep.batteries)
    assert np.max(np.abs(residual)) < 1e-9


def test_sustainable_requests_only_available_power():
    rep = run(Scenario(duration=7200))
    assert rep.outage_energy == 0.0


def test_greedy_without_harvest_books_full_deficit():
    rep = run(Scenario(
        policy="greedy",
        energy=EnergyProfile(kind="zero"),
        traffic=TrafficProfile(base_density=0.001, enabled=False),
        duration=1800,
    ))
    # every station requests 1.0 for 1800 s against an empty store
    assert rep.outage_energy == pytest.approx(18000.0, abs=1e-9)
    assert rep.scs_served == 0


def test_policies_coincide_under_constant_energy():
    kw = dict(
        traffic=TrafficProfile(base_density=0.004, enabled=False),
        energy=EnergyProfile(kind="constant", peak_rate=1.0),
        duration=1800,
    )
    sus = run(Scenario(policy="sustainable", **kw))
    greedy = run(Scenario(policy="greedy", **kw))
    for a, b in zip(sus.epochs, greedy.epochs):
        assert a.offered == b.offered
        assert a.scs_served == b.scs_served
        assert a.hit_rate == b.hit_rate


def test_epoch_hook_sees_every_step_and_cap_law_holds():
    records = []
    sc = Scenario(
        traffic=TrafficProfile(base_density=0.002, enabled=False),
        duration=900,
    )
    run(sc, epoch_hook=records.append)
    assert [r.t0 for r in records] == [0]
    assert sum(len(r.served) for r in records) == 900
    pm = sc.power
    for r in records:
        cap = np.minimum(np.minimum(r.hits, r.quotas), pm.max_users)
        assert np.all(r.served <= cap)
        assert np.all(r.served[:, ~r.active] == 0)
        assert np.all(r.served >= 0)


@pytest.mark.parametrize("policy", ["sustainable", "greedy"])
def test_epoch_hook_sees_each_epoch_once_and_changes_nothing(policy):
    sc = replace(SHARED_DEMAND_CASES["short-default-day"], policy=policy)
    records = []
    report = run(sc, epoch_hook=records.append)
    assert_same_report(report, run(sc))
    assert len(records) == sc.duration // sc.epoch_seconds
    assert [r.t0 for r in records] == list(range(0, sc.duration, sc.epoch_seconds))
    shape = (sc.epoch_seconds // sc.step_seconds, sc.highway.n_stations)
    for r in records:
        assert r.hits.shape == r.served.shape == shape
        assert r.quotas.shape == r.active.shape == shape[1:]
    assert sum(r.n_vehicles * len(r.hits) for r in records) == report.offered


@pytest.mark.parametrize("policy", ["sustainable", "greedy"])
def test_writing_into_an_epoch_record_changes_no_report(policy):
    sc = replace(SHARED_DEMAND_CASES["short-default-day"], policy=policy)

    def scribble(rec):
        rec.hits[:] = 10**6
        rec.served[:] = -1
        rec.quotas[:] = 0
        rec.active[:] = ~rec.active

    assert_same_report(run(sc, epoch_hook=scribble), run(sc))


def test_prefetch_never_hurts_continuity():
    kw = dict(
        traffic=TrafficProfile(base_density=0.002, enabled=False),
        energy=EnergyProfile(kind="constant", peak_rate=1.0),
        cache_capacity=31,
        duration=3600,
        seed=7,
    )
    with_pf = run(Scenario(prefetch_budget=4, **kw))
    without = run(Scenario(prefetch_budget=0, **kw))
    assert with_pf.continuity_rate > without.continuity_rate
    assert without.continuity_rate > 0.3


def test_regeneration_follows_traffic_profile():
    # narrow rush peak placed on the second epoch only
    sc = Scenario(
        traffic=TrafficProfile(
            base_density=0.01, peak_hours=(0.25, 12.0), peak_width_h=0.1
        ),
        duration=1800,
    )
    rep = run(sc)
    quiet, rush = rep.epochs[0].offered, rep.epochs[1].offered
    assert rush > 10 * max(quiet, 1)


def test_sweep_cache_is_monotone_with_shared_seeds():
    base = Scenario(
        traffic=TrafficProfile(enabled=False),
        energy=EnergyProfile(kind="constant", peak_rate=1.0),
        split_ratio=1.0,
        backhaul=BackhaulBudget(files_per_epoch=2000, variability=(1.0, 1.0)),
        duration=1800,
    )
    points = sweep_cache(base, [0, 10, 100])
    vals = [p.offload_mbps for p in points]
    assert vals[0] == 0.0
    assert vals[0] < vals[1] < vals[2]
    for p in points:
        steps = base.duration // base.step_seconds
        expect = p.report.scs_served / (steps * base.highway.n_stations) * 10.0
        assert p.offload_mbps == pytest.approx(expect, rel=1e-12)
    # pointwise per-epoch dominance, not just on the mean
    for small, big in zip(points, points[1:]):
        for a, b in zip(small.report.epochs, big.report.epochs):
            assert a.scs_served <= b.scs_served


def test_compare_energy_defines_zero_over_zero_as_one():
    cmp = compare_energy(Scenario(
        energy=EnergyProfile(kind="zero"),
        traffic=TrafficProfile(base_density=0.0005, enabled=False),
        duration=900,
    ))
    assert cmp.sustainable.scs_served == 0
    assert cmp.greedy.scs_served == 0
    assert cmp.capacity_ratio == 1.0


def test_map_ordered_run_preserves_order_and_matches_sequential():
    scenarios = [
        Scenario(traffic=TrafficProfile(base_density=0.001, enabled=False),
                 duration=900, seed=s)
        for s in (1, 2)
    ]
    seq = [run(sc) for sc in scenarios]
    batch = map_ordered(run, scenarios, workers=1)
    forked = map_ordered(run, scenarios, workers=2)
    for ref, got in zip(seq, batch):
        assert ref.epochs == got.epochs
    for ref, got in zip(seq, forked):
        assert ref.epochs == got.epochs
        assert ref.seed == got.seed


def test_hit_rate_tracks_cache_mass_without_prefetch():
    sc = Scenario(
        traffic=TrafficProfile(enabled=False),
        energy=EnergyProfile(kind="constant", peak_rate=1.0),
        split_ratio=1.0,
        cache_capacity=31,
        backhaul=BackhaulBudget(files_per_epoch=2000, variability=(1.0, 1.0)),
        duration=9000,
    )
    rep = run(sc)
    cat = build_catalog(sc.n_files, sc.gamma)
    mass = hit_rate(cat, set(top_k(cat, 31)))
    per_epoch = np.array([em.hit_rate for em in rep.epochs])
    se = per_epoch.std(ddof=1) / np.sqrt(len(per_epoch))
    assert abs(per_epoch.mean() - mass) <= 3.5 * se + 1e-4


LEDGER_FIELDS = ("level", "initial_level", "cum_harvested", "cum_consumed",
                 "cum_overflow", "cum_deficit")

SHARED_DEMAND_CASES = {
    # past sunrise, so the two policies serve differently
    "short-default-day": Scenario(duration=10 * 3600),
    "overflowing-battery": Scenario(
        traffic=TrafficProfile(base_density=0.004, enabled=False),
        energy=EnergyProfile(kind="constant", peak_rate=1.5),
        battery_capacity=50.0,
        duration=1800,
    ),
    "greedy-partial": Scenario(
        traffic=TrafficProfile(base_density=0.004, enabled=False),
        energy=EnergyProfile(kind="constant", peak_rate=0.7),
        greedy_partial=True,
        duration=1800,
    ),
    "two-second-steps": Scenario(
        traffic=TrafficProfile(base_density=0.004, enabled=False),
        energy=EnergyProfile(kind="constant", peak_rate=1.2),
        battery_capacity=500.0,
        step_seconds=2,
        duration=1800,
    ),
    "no-harvest": Scenario(
        traffic=TrafficProfile(base_density=0.004, enabled=False),
        energy=EnergyProfile(kind="zero"),
        duration=1800,
    ),
    "zero-density": Scenario(
        traffic=TrafficProfile(base_density=0.0, enabled=False),
        energy=EnergyProfile(kind="constant", peak_rate=1.2),
        battery_capacity=300.0,
        duration=1800,
    ),
}

# Short solar days on which an epoch's guessed battery levels go wrong, so
# the energy passes guess the rest of the epoch again part way through.
FALLBACK_CASES = {
    # harvest rises through the epoch, so early steps cannot afford the quota
    "binding-serving": Scenario(
        traffic=TrafficProfile(base_density=0.01, enabled=False),
        energy=EnergyProfile(sunrise_h=0.0, sunset_h=2.0),
        duration=3600,
    ),
    "tiny-battery": Scenario(
        traffic=TrafficProfile(base_density=0.004, enabled=False),
        energy=EnergyProfile(sunrise_h=0.0, sunset_h=1.0),
        battery_capacity=5.0,
        duration=3600,
    ),
    # the level pins at capacity around midday, then the harvest falls short
    "capacity-2000-midday": Scenario(
        traffic=TrafficProfile(base_density=0.004, enabled=False),
        energy=EnergyProfile(peak_rate=2.5, sunrise_h=0.0, sunset_h=1.5),
        battery_capacity=2000.0,
        duration=5400,
    ),
    "two-second-solar-steps": Scenario(
        traffic=TrafficProfile(base_density=0.004, enabled=False),
        energy=EnergyProfile(sunrise_h=0.0, sunset_h=1.0),
        step_seconds=2,
        duration=3600,
    ),
    # charged while asleep, then drains to empty at night part way through
    # an epoch; 3 s steps make the last sleep draw round off the level
    "sleeper-drains-empty": Scenario(
        traffic=TrafficProfile(base_density=0.004, enabled=False),
        energy=EnergyProfile(peak_rate=0.6, sunrise_h=0.0, sunset_h=0.25),
        power=PowerModel(p_sleep=0.3),
        step_seconds=3,
        duration=2700,
    ),
    # the greedy level leaves 0 once the harvest passes its full draw
    "greedy-leaves-empty": Scenario(
        traffic=TrafficProfile(base_density=0.004, enabled=False),
        energy=EnergyProfile(peak_rate=1.7, sunrise_h=0.0, sunset_h=1.0),
        duration=3600,
    ),
}
SHARED_DEMAND_CASES.update(FALLBACK_CASES)


def assert_same_report(got, want):
    for f in fields(MetricsReport):
        if f.name != "batteries":
            assert getattr(got, f.name) == getattr(want, f.name), f.name
    for name in LEDGER_FIELDS:
        np.testing.assert_array_equal(
            getattr(got.batteries, name), getattr(want.batteries, name), err_msg=name, strict=True
        )


@pytest.mark.parametrize("sc", SHARED_DEMAND_CASES.values(), ids=SHARED_DEMAND_CASES.keys())
def test_compare_energy_matches_separate_runs(sc):
    cmp = compare_energy(sc)
    sus = run(replace(sc, policy="sustainable"))
    greedy = run(replace(sc, policy="greedy"))
    assert_same_report(cmp.sustainable, sus)
    assert_same_report(cmp.greedy, greedy)
    # the cases reach the branches they are named for
    if sc.battery_capacity == 50.0:
        assert sus.overflow_energy > 0 and greedy.overflow_energy > 0
    if sc.energy.kind == "zero":
        assert sus.scs_served == 0 and sus.outage_energy == 0.0
    if sc.traffic.base_density == 0.0:
        assert all(em.offered == 0 for em in sus.epochs)


SWEEP_BASE = Scenario(
    traffic=TrafficProfile(base_density=0.004, enabled=False),
    energy=EnergyProfile(kind="constant", peak_rate=1.5),
    duration=1800,
)
SWEEP_CASES = {
    "defaults": SWEEP_BASE,
    "no-prefetch": replace(SWEEP_BASE, prefetch_budget=0),
    "greedy": replace(SWEEP_BASE, policy="greedy"),
    "battery-50": replace(SWEEP_BASE, battery_capacity=50.0),
    "zero-density": replace(SWEEP_BASE, traffic=TrafficProfile(base_density=0.0, enabled=False)),
    "two-second-steps": replace(SWEEP_BASE, step_seconds=2),
    # some 2,000 vehicles, each crossing a cell every 40 steps
    "dense-traffic": replace(SWEEP_BASE, traffic=TrafficProfile(base_density=0.1, enabled=False), duration=900),
}
# no cache, sizes without prefetch slots (1 and 2 give the popular
# partition every slot), sizes that prefetch, and a repeated size
SWEEP_SIZES = [0, 1, 2, 5, 31, 1000, 31]


@pytest.mark.parametrize("sc", SWEEP_CASES.values(), ids=SWEEP_CASES.keys())
def test_sweep_cache_matches_separate_runs(sc):
    points = sweep_cache(sc, SWEEP_SIZES)
    assert [p.cache_capacity for p in points] == SWEEP_SIZES
    steps = sc.duration // sc.step_seconds
    for p in points:
        want = run(replace(sc, cache_capacity=p.cache_capacity))
        assert_same_report(p.report, want)
        assert p.offload_mbps == want.scs_served / (steps * sc.highway.n_stations) * 10.0
    if sc.traffic.base_density > 0:
        assert points[0].report.scs_served == 0 < points[-2].report.scs_served


def test_sweep_cache_checks_sizes_before_simulating(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("simulated")

    monkeypatch.setattr(engine, "spawn_vehicles", refuse)
    assert sweep_cache(SWEEP_BASE, []) == []
    with pytest.raises(ValueError, match="cache_capacity"):
        sweep_cache(SWEEP_BASE, [5, -1])


def test_every_entry_point_moves_the_vehicles_once_per_epoch(monkeypatch):
    real = engine.spawn_vehicles
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(engine, "spawn_vehicles", counted)
    n_epochs = SWEEP_BASE.duration // SWEEP_BASE.epoch_seconds
    for simulate in (run, compare_energy, lambda sc: sweep_cache(sc, SWEEP_SIZES)):
        calls.clear()
        simulate(SWEEP_BASE)
        assert len(calls) == n_epochs


def test_prefetch_is_planned_and_inserted_once_per_epoch_and_staging_size(monkeypatch):
    """Each size with prefetch slots makes one plan and one insert per epoch, however many steps cross."""
    calls = []
    for owner, name in ((engine, "plan_prefetch"), (CacheStore, "prefetch_insert")):

        def counted(*args, real=vars(owner)[name], name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(owner, name, counted)
    n_epochs = SWEEP_BASE.duration // SWEEP_BASE.epoch_seconds
    # 100 and 31 have prefetch slots; 2 gives the popular partition every slot
    for simulate, n_staging in ((compare_energy, 1), (lambda sc: sweep_cache(sc, [100, 2, 31]), 2)):
        calls.clear()
        simulate(SWEEP_BASE)
        assert calls == ["plan_prefetch", "prefetch_insert"] * (n_epochs * n_staging)


def test_every_entry_point_evaluates_positions_and_cells_once_per_epoch(monkeypatch):
    """One exact sample per epoch feeds both the crossing finder and the handover lookahead."""
    calls = []
    for owner, name in ((VehicleSet, "positions_at"), (engine, "cell_indices")):

        def counted(*args, real=vars(owner)[name], name=name):
            calls.append(name)
            return real(*args)

        monkeypatch.setattr(owner, name, counted)
    n_epochs = SWEEP_BASE.duration // SWEEP_BASE.epoch_seconds
    for simulate in (run, compare_energy, lambda sc: sweep_cache(sc, SWEEP_SIZES)):
        calls.clear()
        simulate(SWEEP_BASE)
        assert calls == ["positions_at", "cell_indices"] * n_epochs


def test_engine_calls_every_layer_function_it_imports(monkeypatch):
    """A per-layer benchmark that wraps these names reads 0 for any the engine stops calling."""
    # imported only so that per-layer tracing can wrap it where the engine looks names up
    unused = {"battery_step"}
    names = sorted(
        name
        for name, fn in vars(engine).items()
        if inspect.isfunction(fn) and fn.__module__.startswith("scsim.") and fn.__module__ != engine.__name__
    )
    assert {"spawn_vehicles", "plan_prefetch", "sustainable_small_step", "greedy_small_step"} <= set(names)
    targets = [(engine, name) for name in names if name not in unused] + [
        (VehicleSet, "positions_at"),
        (CacheStore, "apply_popular_update"),
        (CacheStore, "prefetch_insert"),
        (BackhaulBudget, "realize"),
    ]
    calls = dict.fromkeys((name for _, name in targets), 0)
    for owner, name in targets:
        real = vars(owner)[name]

        def counted(*args, real=real, name=name, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    compare_energy(Scenario(step_seconds=60, duration=7200))
    assert [name for name, n in calls.items() if n == 0] == []


def test_add_rows_adds_like_the_step_loop():
    rng = np.random.default_rng(20261020)
    for _ in range(3000):
        shape = (int(rng.integers(1, 400)), int(rng.integers(1, 13)))
        rows = rng.uniform(-1.0, 1.0, shape) * 10.0 ** rng.uniform(-3.0, 6.0, shape)
        total = 0.0
        for row_sum in rows.sum(axis=1).tolist():
            total += row_sum
        assert float(energy._add_rows(0.0, rows.sum(axis=1))).hex() == total.hex()


def counting_steps(monkeypatch):
    """Count calls of ``battery_step`` made through the engine or the energy module."""
    calls = []
    for module in (engine, energy):
        real = module.battery_step

        def counted(*args, real=real):
            calls.append(1)
            return real(*args)

        monkeypatch.setattr(module, "battery_step", counted)
    return calls


def counting_blocks(monkeypatch):
    """Per :func:`settle` pass, the steps left in its epoch and the steps it books."""
    real = energy._battery_run
    blocks = []

    def counted(batt, harvest, *args):
        taken = real(batt, harvest, *args)
        blocks.append((len(harvest), taken))
        return taken

    monkeypatch.setattr(energy, "_battery_run", counted)
    return blocks


def leaking(monkeypatch, when):
    """Make the check/book helper consume 1e-6 extra per step on the passes ``when`` picks."""
    real = energy._battery_run
    leaks = []

    def leaky(batt, harvest, *args):
        taken = real(batt, harvest, *args)
        if when(len(harvest)):
            leaks.append(taken)
            batt.cum_consumed = batt.cum_consumed + 1e-6 * taken
        return taken

    monkeypatch.setattr(energy, "_battery_run", leaky)
    return leaks


@pytest.mark.parametrize("policy", ["sustainable", "greedy"])
def test_run_raises_when_battery_ledger_drifts(monkeypatch, policy):
    # QUICK's night epochs are settled in one pass each, so leak there
    steps = counting_steps(monkeypatch)
    leaks = leaking(monkeypatch, lambda n_left: True)
    with pytest.raises(RuntimeError, match="ledger"):
        run(replace(QUICK, policy=policy))
    assert leaks and steps == []


@pytest.mark.parametrize("policy", ["sustainable", "greedy"])
def test_run_raises_when_fallback_ledger_drifts(monkeypatch, policy):
    # leak only on the passes that guess an epoch again after a miss
    sc = replace(FALLBACK_CASES["greedy-leaves-empty"], policy=policy)
    n_sub = sc.epoch_seconds // sc.step_seconds
    steps = counting_steps(monkeypatch)
    leaks = leaking(monkeypatch, lambda n_left: n_left < n_sub)
    with pytest.raises(RuntimeError, match="ledger"):
        run(sc)
    assert leaks and steps == []


@pytest.mark.parametrize(
    "fault, message",
    [
        ("negative", "counted -1 hits"),
        ("excess", "more hits in a cell than vehicles in it"),
        ("continuity", "continued handovers of"),
    ],
)
def test_run_raises_when_demand_counts_break(monkeypatch, fault, message):
    real = engine._count_hits

    def broken(*args):
        hits, continuity = real(*args)
        if fault == "negative":
            hits[-1, -1] = -1
        elif fault == "excess":
            hits[-1, -1] = 10**9
        else:
            continuity += 10**9
        return hits, continuity

    monkeypatch.setattr(engine, "_count_hits", broken)
    with pytest.raises(RuntimeError, match=message):
        run(QUICK)


# stations start empty at night and sleep; under a constant harvest they serve
DAYLIT = replace(QUICK, energy=EnergyProfile(kind="constant", peak_rate=1.0))


@pytest.mark.parametrize(
    "sc, rule, fault, message",
    [
        (replace(DAYLIT, policy="greedy"), "greedy_small_step", "negative", "served -1 users"),
        (DAYLIT, "sustainable_small_step", "negative", "served -1 users"),
        (QUICK, "sustainable_small_step", "asleep", "sleeping station"),
        (replace(DAYLIT, policy="greedy"), "greedy_small_step", "above", r"min\(hits, quota, max_users\)"),
        (DAYLIT, "sustainable_small_step", "above", r"min\(hits, quota, max_users\)"),
    ],
)
def test_run_raises_when_serving_breaks(monkeypatch, sc, rule, fault, message):
    real = getattr(engine, rule)

    def broken(*args):
        out = real(*args)
        served, rest = (out, ()) if rule == "greedy_small_step" else (out[0], out[1:])
        if fault == "negative":
            served = np.zeros_like(served) - 1
        elif fault == "asleep":
            served = np.where(args[5], served, 1)
        else:
            served = served + 1
        return served if rule == "greedy_small_step" else (served, *rest)

    monkeypatch.setattr(engine, rule, broken)
    with pytest.raises(RuntimeError, match=message):
        run(sc)


def assert_blocks_cover_every_step(sc, blocks):
    """Each epoch's passes start at its first step and book every step once."""
    n_sub = sc.epoch_seconds // sc.step_seconds
    left = 0
    for n_left, taken in blocks:
        assert n_left == (left or n_sub)
        assert 1 <= taken <= n_left
        left = n_left - taken
    assert left == 0
    assert sum(taken for _, taken in blocks) == sc.duration // sc.step_seconds


@pytest.mark.parametrize("name", FALLBACK_CASES)
def test_fallback_cases_reach_the_step_loop(monkeypatch, name):
    """Every case needs more than one pass in some epoch, and no step loop runs."""
    sc = FALLBACK_CASES[name]
    n_epochs = sc.duration // sc.epoch_seconds
    steps = counting_steps(monkeypatch)
    blocks = counting_blocks(monkeypatch)
    records = []
    rep = run(sc, epoch_hook=records.append)
    assert_blocks_cover_every_step(sc, blocks)
    assert len(blocks) > n_epochs
    if name == "binding-serving":
        assert any(np.any(r.served < np.minimum(r.hits, r.quotas)) for r in records)
    if name == "capacity-2000-midday":
        assert rep.overflow_energy > 0
    if name == "sleeper-drains-empty":
        assert not any(r.active.any() for r in records)
        assert rep.epochs[1].mean_battery > 0 and rep.epochs[2].mean_battery == 0
    blocks.clear()
    run(replace(sc, policy="greedy"))
    assert_blocks_cover_every_step(sc, blocks)
    assert (len(blocks) > n_epochs) == (name in ("greedy-leaves-empty", "capacity-2000-midday"))
    assert steps == []


@pytest.mark.parametrize("policy", ["sustainable", "greedy"])
def test_default_day_rarely_falls_back(monkeypatch, policy):
    sc = Scenario(seed=0, policy=policy)
    steps = counting_steps(monkeypatch)
    blocks = counting_blocks(monkeypatch)
    run(sc)
    n_steps = sc.duration // sc.step_seconds
    n_epochs = sc.duration // sc.epoch_seconds
    assert_blocks_cover_every_step(sc, blocks)
    if policy == "sustainable":
        assert n_epochs < len(blocks) < 0.05 * n_steps
    else:
        assert len(blocks) == n_epochs
    assert steps == []


def random_scenario(rng):
    max_users = int(rng.integers(1, 13))
    p_const = float(rng.uniform(0.2, 0.8))
    step = int(rng.integers(1, 6))
    epoch = step * int(rng.integers(2, 40))
    lo, hi = np.sort(rng.uniform(0.0, 300.0, size=2))
    return Scenario(
        highway=Highway(n_stations=int(rng.integers(1, 13)),
                        cell_length=float(rng.uniform(200.0, 1500.0))),
        n_files=int(rng.integers(5, 200)),
        gamma=float(rng.uniform(0.0, 2.5)),
        traffic=TrafficProfile(base_density=float(rng.uniform(0.0, 0.03)),
                               enabled=bool(rng.integers(0, 2))),
        speed=float(rng.uniform(3.0, 40.0)),
        energy=EnergyProfile(kind=("solar-sine", "constant", "zero")[int(rng.integers(0, 3))],
                             peak_rate=float(rng.uniform(0.0, 2.5)),
                             sunrise_h=0.0, sunset_h=float(rng.uniform(0.5, 3.0))),
        battery_capacity=float(rng.choice([np.inf, rng.uniform(10.0, 3000.0)])),
        power=PowerModel(p_const=p_const, p_per_user=(1.0 - p_const) / max_users,
                         p_sleep=float(rng.uniform(0.0, p_const * 0.5)), max_users=max_users),
        cache_capacity=int(rng.integers(0, 60)),
        split_ratio=float(rng.uniform(0.0, 1.0)),
        prefetch_budget=int(rng.integers(0, 5)),
        low_watermark=float(lo),
        high_watermark=float(hi),
        greedy_partial=bool(rng.integers(0, 2)),
        epoch_seconds=epoch,
        step_seconds=step,
        duration=epoch * int(rng.integers(1, 8)),
        seed=int(rng.integers(0, 2**32)),
    )


def engine_trace(sc):
    """The engine's report and its epoch records cut into per-step rows."""
    records = []
    report = run(sc, epoch_hook=records.append)
    return report, [
        (r.t0 + (s + 1) * sc.step_seconds, r.n_vehicles, hits.tolist(), served.tolist(),
         r.quotas.tolist(), r.active.tolist())
        for r in records
        for s, (hits, served) in enumerate(zip(r.hits, r.served))
    ]


def reference_trace(sc):
    steps = []
    report = reference_run(sc, step_hook=steps.append)
    return report, [(r.t, r.n_vehicles, r.hits.tolist(), r.served.tolist(), r.quotas.tolist(),
                     r.active.tolist()) for r in steps]


@pytest.mark.parametrize("policy", ["sustainable", "greedy"])
def test_run_matches_single_loop_reference(policy):
    rng = np.random.default_rng(20261018)
    # over a million vehicle-steps and some 45,000 cell crossings in one epoch
    dense = Scenario(
        traffic=TrafficProfile(base_density=0.1, enabled=False),
        energy=EnergyProfile(kind="constant", peak_rate=1.0),
        duration=900,
    )
    # a battery smaller than one step's net charge: rounding can leave the
    # level an ulp above capacity, and the next pass must start from it
    ulp_above = Scenario(
        highway=Highway(3, 500.0),
        traffic=TrafficProfile(base_density=0.020498607180097713, enabled=False),
        energy=EnergyProfile(sunrise_h=0.0, sunset_h=0.2, peak_rate=2.074193883109602),
        battery_capacity=0.23203544606912846,
        epoch_seconds=60,
        duration=600,
        seed=14,
    )
    daylit = EnergyProfile(kind="constant", peak_rate=1.0)
    # a step moves 1.9 cells of a two-cell ring: most cross two boundaries and
    # land in the cell they left, so a vehicle stays ~10 steps in one cell
    # while every step of it requests a handover
    two_boundaries = Scenario(
        highway=Highway(2, 300.0),
        traffic=TrafficProfile(base_density=0.02, enabled=False),
        speed=57.0,
        energy=daylit,
        epoch_seconds=300,
        step_seconds=10,
        duration=1800,
    )
    one_station = replace(two_boundaries, highway=Highway(1, 1000.0), speed=25.0, step_seconds=1)
    # a stride of exactly a quarter cell is the longest sampled around guesses; just above it, every row is
    quarter = replace(one_station, highway=Highway(4, 400.0), step_seconds=4)
    above_quarter = replace(quarter, highway=Highway(4, 396.0))
    fixed = [ulp_above, two_boundaries, one_station, quarter, above_quarter, dense]
    scenarios = [random_scenario(rng) for _ in range(40)] + list(FALLBACK_CASES.values()) + fixed
    for sc in scenarios:
        sc = replace(sc, policy=policy)
        got, got_steps = engine_trace(sc)
        want, want_steps = reference_trace(sc)
        assert_same_report(got, want)
        assert got_steps == want_steps
    n_veh = got_steps[0][1]
    assert n_veh * (dense.epoch_seconds // dense.step_seconds) > 1_000_000


@pytest.mark.parametrize("shift", [-1, 1])
def test_guesses_a_row_off_fall_back_and_match_the_oracle(monkeypatch, shift):
    """A crossing a row past its guess fails the gap check; one a row before it leaves
    out a lookahead row. Either way its vehicle is sampled on every row, which
    random spawns never need, and every entry point still gives the oracle's bits."""
    real = engine._guess_crossings

    def shifted(*args):
        guesses = real(*args)
        return None if guesses is None else guesses + shift

    monkeypatch.setattr(engine, "_guess_crossings", shifted)
    samples = []
    real_positions = VehicleSet.positions_at
    monkeypatch.setattr(VehicleSet, "positions_at", lambda *args: samples.append(1) or real_positions(*args))
    odd = replace(SWEEP_BASE, highway=Highway(3, 333.3), speed=31.0, epoch_seconds=600, step_seconds=2)
    for sc in (SWEEP_BASE, odd):
        runs = {}
        for policy in ("sustainable", "greedy"):
            samples.clear()
            got, got_steps = engine_trace(replace(sc, policy=policy))
            # every epoch samples twice: once around the guesses, once densely
            assert len(samples) == 2 * (sc.duration // sc.epoch_seconds)
            want, want_steps = reference_trace(replace(sc, policy=policy))
            assert_same_report(got, want)
            assert got_steps == want_steps
            runs[policy] = got
        cmp = compare_energy(sc)
        assert_same_report(cmp.sustainable, runs["sustainable"])
        assert_same_report(cmp.greedy, runs["greedy"])
        for p in sweep_cache(sc, [0, 2, 31, 1000]):
            assert_same_report(p.report, run(replace(sc, cache_capacity=p.cache_capacity)))


def test_wide_differential_run_agrees_on_25_scenarios(capsys):
    # imported here: the script imports this module's helpers
    import differential_run

    differential_run.main(["--scenarios", "25", "--seed", "11"])
    assert capsys.readouterr().out.startswith("checked 25 scenarios (seed 11): 50 oracle runs")
