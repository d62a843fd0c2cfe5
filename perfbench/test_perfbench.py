"""Tests of the benchmark itself: its checks reject doctored outputs, and
every workload runs to its end at a tiny length.

    python3 -m pytest -q perfbench

A tiny length is the workload's own day at a 60 s service step.
"""
from __future__ import annotations

import copy
import csv
import io
import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run as bench  # noqa: E402
from tracing import FUNCTIONS, TARGETS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = 60
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Two operations of every workload at a tiny length."""
    made = {}
    for name, cls in WORKLOADS.items():
        workload = cls(3, tmp_path_factory.mktemp(name), step_seconds=TINY)
        made[name] = (workload, [workload.op(0), workload.op(1)])
    return made


def _has(failures: list[str], text: str) -> bool:
    return any(text in f for f in failures)


def _with_epoch(report, i: int, **changes):
    epochs = list(report.epochs)
    epochs[i] = replace(epochs[i], **changes)
    return replace(report, epochs=epochs)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_workload_passes_its_checks(outputs, name):
    workload, results = outputs[name]
    assert workload.check(results) == []
    for result in results:
        vehicle_steps, station_steps = workload.counts(result)
        assert vehicle_steps > 0 and station_steps > 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_measure_prints_every_end_to_end_metric(outputs, name):
    workload, _ = outputs[name]
    result = bench.measure(workload, 1e-3, setup_s=0.5)
    assert result["correct"] and result["attempted"] == 1 and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_trace_prints_every_layer_metric_and_matches_plain(outputs, name):
    workload, _ = outputs[name]
    result = bench.trace(workload, 1e-3)
    assert result["correct"] and result["attempted"] == 2 and result["failed"] == 0
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["mobility.spawn_vehicles.calls"] > 0
    assert metrics[f"{workload.root}.self_s"] > 0
    assert 0.0 < metrics["station.prefetch_evict_ratio"] <= 1.0


def test_tracer_restores_the_library(outputs):
    before = [vars(owner)[attr] for owner, attr in TARGETS]
    tracer = Tracer()
    workload, (plain, _) = outputs["rush-hour"]
    with tracer.installed():
        traced, elapsed, own = tracer.time_root(workload.op, 0)
    assert [vars(owner)[attr] for owner, attr in TARGETS] == before
    assert checks.identical(plain, traced)
    assert 0.0 < own < elapsed
    assert tracer.totals["policy.greedy_small_step"][0] == len(plain[1].epochs)
    assert tracer.totals["policy.sustainable_small_step"][0] == 0
    assert set(FUNCTIONS) <= set(tracer.totals)


def test_identical_sees_one_ulp(outputs):
    _, ((sc, rep), _) = outputs["rush-hour"]
    assert checks.identical((sc, rep), copy.deepcopy((sc, rep)))
    nudged = _with_epoch(rep, 5, mean_power=np.nextafter(rep.epochs[5].mean_power, 2.0))
    assert not checks.identical((sc, rep), (sc, nudged))
    bank = copy.deepcopy(rep.batteries)
    bank.level = bank.level.astype(np.float32)
    assert not checks.identical(rep, replace(rep, batteries=bank))


# --- energy-duel -----------------------------------------------------------


def _duel(outputs):
    _, ((sc, cmp), _) = outputs["energy-duel"]
    return sc, cmp


def test_duel_rejects_unequal_demand(outputs):
    sc, cmp = _duel(outputs)
    em = cmp.greedy.epochs[40]
    greedy = _with_epoch(cmp.greedy, 40, hit_rate=em.hit_rate * 0.5)
    assert _has(checks.check_duel(sc, replace(cmp, greedy=greedy)), "different demand")


def test_duel_rejects_a_shifted_ledger_entry(outputs):
    sc, cmp = _duel(outputs)
    bank = copy.deepcopy(cmp.sustainable.batteries)
    bank.cum_consumed[4] += 1.0
    sus = replace(cmp.sustainable, batteries=bank)
    assert _has(checks.check_duel(sc, replace(cmp, sustainable=sus)), "ledger residual")


def test_duel_rejects_a_negative_level(outputs):
    sc, cmp = _duel(outputs)
    bank = copy.deepcopy(cmp.sustainable.batteries)
    shift = bank.level[2] + 1.0
    bank.level[2] -= shift
    bank.initial_level = bank.initial_level - np.eye(1, bank.level.size, 2)[0] * shift
    sus = replace(cmp.sustainable, batteries=bank)
    failures = checks.check_duel(sc, replace(cmp, sustainable=sus))
    assert _has(failures, "battery level outside") and not _has(failures, "ledger residual")


def test_duel_rejects_harvest_off_the_solar_profile(outputs):
    sc, cmp = _duel(outputs)
    bank = copy.deepcopy(cmp.greedy.batteries)
    bank.cum_harvested *= 1.0 + 1e-6
    greedy = replace(cmp.greedy, batteries=bank)
    assert _has(checks.check_duel(sc, replace(cmp, greedy=greedy)), "solar sum")
    # another day shape books another harvest
    other = replace(sc, energy=replace(sc.energy, sunset_h=17.0))
    assert _has(checks.check_duel(other, cmp), "solar sum")


def test_duel_rejects_a_sustainable_outage(outputs):
    sc, cmp = _duel(outputs)
    sus = _with_epoch(cmp.sustainable, 50, outage_energy=1e-9)
    assert _has(checks.check_duel(sc, replace(cmp, sustainable=sus)), "outage")


def test_duel_rejects_served_above_hits(outputs):
    sc, cmp = _duel(outputs)
    i = 48
    em = cmp.greedy.epochs[i]
    hits = round(em.hit_rate * em.offered)
    greedy = _with_epoch(cmp.greedy, i, scs_served=hits + 1, mbs_served=em.offered - hits - 1)
    assert _has(checks.check_duel(sc, replace(cmp, greedy=greedy)), "outside [0, hits")
    greedy = _with_epoch(cmp.greedy, i, mbs_served=em.mbs_served + 1)
    assert _has(checks.check_duel(sc, replace(cmp, greedy=greedy)), "offered")


def test_duel_rejects_a_low_capacity_ratio(outputs):
    sc, cmp = _duel(outputs)
    assert _has(checks.check_duel(sc, replace(cmp, capacity_ratio=1.29)), "< 1.3")


# --- rush-hour -------------------------------------------------------------


def _rush(outputs):
    _, ((sc, rep), _) = outputs["rush-hour"]
    return sc, rep


def test_rush_rejects_a_vehicle_count_off_poisson(outputs):
    sc, rep = _rush(outputs)
    n_sub = sc.epoch_seconds // sc.step_seconds
    em = rep.epochs[7]
    extra = 100 * n_sub
    doctored = _with_epoch(rep, 7, offered=em.offered + extra, mbs_served=em.mbs_served + extra,
                           hit_rate=em.hit_rate * em.offered / (em.offered + extra))
    doctored = replace(doctored, offered=rep.offered + extra)
    failures = checks.check_rush(sc, doctored)
    assert _has(failures, "sd from Poisson")


def test_rush_rejects_a_deficit(outputs):
    sc, rep = _rush(outputs)
    bank = copy.deepcopy(rep.batteries)
    bank.cum_deficit = bank.cum_deficit + np.eye(1, bank.level.size, 0)[0]
    assert _has(checks.check_rush(sc, replace(rep, batteries=bank)), "deficit")


def _scale_served(rep, factor: float, epochs):
    doctored = list(rep.epochs)
    for i in epochs:
        em = doctored[i]
        scs = int(em.scs_served * factor)
        doctored[i] = replace(em, scs_served=scs, mbs_served=em.offered - scs)
    scs = sum(em.scs_served for em in doctored)
    return replace(rep, epochs=doctored, scs_served=scs, mbs_served=rep.offered - scs)


def test_rush_rejects_served_above_the_all_hit_bound(outputs):
    sc, rep = _rush(outputs)
    n_sub = sc.epoch_seconds // sc.step_seconds
    full = sc.power.max_users * n_sub * sc.highway.n_stations
    epochs = [replace(em, scs_served=full, mbs_served=em.offered - full, hit_rate=1.0)
              for em in rep.epochs]
    doctored = replace(rep, epochs=epochs, scs_served=full * len(epochs),
                       mbs_served=rep.offered - full * len(epochs))
    failures = checks.check_rush(sc, doctored)
    assert _has(failures, "above the all-hit bound")
    assert not _has(failures, "outside [0, hits")


def test_rush_rejects_served_below_the_popular_bound(outputs):
    sc, rep = _rush(outputs)
    n = len(rep.epochs)
    assert _has(checks.check_rush(sc, _scale_served(rep, 0.9, range(3, n))),
                "below the popular-hit bound")
    # the popular partition (80 ids, >= 25 a epoch) is full from epoch 3 on;
    # the epochs before it are not held to that bound
    assert checks.check_rush(sc, _scale_served(rep, 0.5, range(3))) == []


# --- cache-sweep -----------------------------------------------------------


def _edit_summary(files: dict[str, bytes], size: int, **changes) -> dict[str, bytes]:
    rows = checks.summary_rows(files)
    for row in rows:
        if int(row["cache_capacity"]) == size:
            row.update({k: str(v) for k, v in changes.items()})
    out = io.StringIO()
    writer = csv.DictWriter(out, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return {**files, "summary.csv": out.getvalue().encode("utf-8")}


def _sweep(outputs):
    workload, (files, _) = outputs["cache-sweep"]
    return workload.settings, files


def test_sweep_rejects_bytes_that_change_between_operations(outputs):
    settings, files = _sweep(outputs)
    svg = files["plot.svg"].replace(b"<svg", b"<svg ", 1)
    assert _has(checks.check_sweep(settings, [files, {**files, "plot.svg": svg}]),
                "other bytes")


def test_sweep_rejects_service_without_a_cache(outputs):
    settings, files = _sweep(outputs)
    row = checks.summary_rows(files)[0]
    doctored = _edit_summary(files, 0, scs_served=5, mbs_served=int(row["offered"]) - 5)
    assert _has(checks.check_sweep(settings, [doctored]), "size 0 served")
    doctored = _edit_summary(files, 0, hit_rate=0.01)
    assert _has(checks.check_sweep(settings, [doctored]), "size 0 served")


def test_sweep_rejects_a_point_above_the_all_hit_bound(outputs):
    settings, files = _sweep(outputs)
    row = checks.summary_rows(files)[5]
    doctored = _edit_summary(files, 20, scs_served=row["offered"], mbs_served=0)
    assert _has(checks.check_sweep(settings, [doctored]), "size 20: mean served")


def test_sweep_rejects_a_plateau_below_the_bound(outputs):
    settings, files = _sweep(outputs)
    row = checks.summary_rows(files)[-1]
    scs = int(int(row["scs_served"]) * 0.95)
    doctored = _edit_summary(files, 1000, scs_served=scs, mbs_served=int(row["offered"]) - scs)
    assert _has(checks.check_sweep(settings, [doctored]), "largest size")


def test_sweep_rejects_a_broken_split(outputs):
    settings, files = _sweep(outputs)
    doctored = _edit_summary(files, 50, mbs_served=0)
    assert _has(checks.check_sweep(settings, [doctored]), "size 50: offered")


# --- the command -----------------------------------------------------------


def test_command_fails_without_the_library(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rush-hour", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0 and done.stdout == ""
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCHMARK.json", "perfbench"]
