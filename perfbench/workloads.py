"""The benchmark's workloads: their inputs, one operation, its counts and checks.

An operation is one call of the workload's public entry point. A workload
built with ``step_seconds=60`` simulates the same day at a 60x coarser
service step, which the benchmark's own tests use as a tiny length.
"""
from __future__ import annotations

import contextlib
import io
from dataclasses import replace
from pathlib import Path

from scsim import EnergyProfile, Scenario, TrafficProfile, compare_energy, run
from scsim.cli import main as cli_main
from scsim.config import parse_settings

import checks


def _station_steps(sc: Scenario) -> int:
    return sc.highway.n_stations * (sc.duration // sc.step_seconds)


class EnergyDuel:
    """``compare_energy`` on the default solar day, seeds ``seed, seed + 1, ...``."""

    root = "engine"

    def __init__(self, seed: int, scratch: Path, step_seconds: int = 1):
        self.seed = seed
        self.base = Scenario(step_seconds=step_seconds)

    def op(self, k: int):
        sc = replace(self.base, seed=self.seed + k)
        return sc, compare_energy(sc)

    @staticmethod
    def counts(result) -> tuple[int, int]:
        """Vehicle-steps of the shared demand pass, station-steps of both energy passes."""
        sc, cmp = result
        return cmp.sustainable.offered, 2 * _station_steps(sc)

    @staticmethod
    def check(results) -> list[str]:
        return [f for sc, cmp in results for f in checks.check_duel(sc, cmp)]


class RushHour:
    """Greedy ``run`` at the rush density all day under full constant harvest."""

    root = "engine"

    def __init__(self, seed: int, scratch: Path, step_seconds: int = 1):
        self.seed = seed
        self.base = Scenario(
            policy="greedy",
            energy=EnergyProfile(kind="constant", peak_rate=1.0),
            traffic=TrafficProfile(enabled=False),
            step_seconds=step_seconds,
        )

    def op(self, k: int):
        sc = replace(self.base, seed=self.seed + k)
        return sc, run(sc)

    @staticmethod
    def counts(result) -> tuple[int, int]:
        sc, rep = result
        return rep.offered, _station_steps(sc)

    @staticmethod
    def check(results) -> list[str]:
        return [f for sc, rep in results for f in checks.check_rush(sc, rep)]


class CacheSweep:
    """``scsim sweep-cache`` in process over the 12 default sizes, 2 hours each.

    Every operation repeats the run's seed, so that the files each one
    writes can be compared byte for byte.
    """

    root = "cli"
    OVERRIDES = (
        "energy.kind=constant",
        "traffic.daily_profile=false",
        "engine.duration=7200",
        "engine.workers=1",
    )

    def __init__(self, seed: int, scratch: Path, step_seconds: int = 1):
        overrides = self.OVERRIDES + (f"engine.seed={seed}", f"engine.delta_small={step_seconds}")
        self.settings = parse_settings("", overrides)
        self.out = scratch / "sweep-cache"
        self.argv = ["sweep-cache", "--out", str(self.out)]
        for spec in overrides:
            self.argv += ["--override", spec]

    def op(self, k: int) -> dict[str, bytes]:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(self.argv)
        if code != 0:
            raise RuntimeError(f"sweep-cache exited with code {code}")
        return {p.name: p.read_bytes() for p in sorted(self.out.iterdir())}

    def counts(self, files: dict[str, bytes]) -> tuple[int, int]:
        rows = checks.summary_rows(files)
        vehicle_steps = sum(int(row["offered"]) for row in rows)
        return vehicle_steps, len(rows) * _station_steps(self.settings.scenario)

    def check(self, results) -> list[str]:
        return checks.check_sweep(self.settings, results)


WORKLOADS = {
    "energy-duel": EnergyDuel,
    "rush-hour": RushHour,
    "cache-sweep": CacheSweep,
}
