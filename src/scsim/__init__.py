"""Simulator for renewable-powered roadside caching stations.

A ring highway of small cells serves streaming vehicles from local
content caches when possible, falling back to a macro station otherwise.
Stations run on harvested energy with batteries, so serving capacity
follows the sun while demand follows rush hours. The package provides
the building blocks (catalog, mobility, energy, station, policy), a
deterministic two-timescale engine, closed-form oracles for validation,
and a small CLI that emits CSV metrics and SVG plots.
"""

from .catalog import Catalog, build_catalog, hit_rate, sample_requests, top_k
from .config import ConfigError, RunSettings, parse_config, parse_settings
from .energy import Battery, EnergyProfile, battery_step, harvest_rate, ledger_residual, mean_rate
from .engine import (
    EnergyComparison,
    EpochMetrics,
    MetricsReport,
    Scenario,
    StepRecord,
    SweepPoint,
    compare_energy,
    expected_offload,
    run,
    run_many,
    sweep_cache,
)
from .mobility import (
    Highway,
    TrafficProfile,
    VehicleSet,
    spawn_vehicles,
    traffic_multiplier,
)
from .policy import (
    BackhaulBudget,
    greedy_small_step,
    plan_popular_update,
    plan_prefetch,
    sustainable_large_step,
    sustainable_small_step,
)
from .station import CacheStore, PowerModel

__version__ = "0.1.0"

__all__ = [
    "Catalog",
    "build_catalog",
    "hit_rate",
    "sample_requests",
    "top_k",
    "Highway",
    "TrafficProfile",
    "VehicleSet",
    "spawn_vehicles",
    "traffic_multiplier",
    "EnergyProfile",
    "Battery",
    "battery_step",
    "harvest_rate",
    "mean_rate",
    "ledger_residual",
    "PowerModel",
    "CacheStore",
    "BackhaulBudget",
    "plan_popular_update",
    "plan_prefetch",
    "sustainable_large_step",
    "sustainable_small_step",
    "greedy_small_step",
    "Scenario",
    "EpochMetrics",
    "MetricsReport",
    "StepRecord",
    "SweepPoint",
    "EnergyComparison",
    "run",
    "run_many",
    "expected_offload",
    "sweep_cache",
    "compare_energy",
    "ConfigError",
    "RunSettings",
    "parse_config",
    "parse_settings",
    "__version__",
]
