"""Line-oriented scenario configuration.

The format is deliberately small: ``[section]`` headers, ``key = value``
pairs, ``#`` comments. Every key has a default drawn from the reference
scenario, unknown keys are hard errors (typos should not silently run a
different experiment), and malformed values report their line number.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .energy import EnergyProfile
from .engine import Scenario
from .mobility import Highway, TrafficProfile
from .policy import BackhaulBudget
from .station import PowerModel

__all__ = [
    "ConfigError",
    "RunSettings",
    "DEFAULT_CACHE_SIZES",
    "parse_settings",
    "describe_schema",
]

DEFAULT_CACHE_SIZES = (0, 1, 2, 5, 10, 20, 31, 50, 100, 200, 500, 1000)


class ConfigError(ValueError):
    """Raised for any malformed, unknown, or inconsistent configuration."""


@dataclass(frozen=True)
class RunSettings:
    """Everything the command line needs: the scenario plus batch knobs."""

    scenario: Scenario
    cache_sizes: tuple[int, ...]
    workers: int


def _parse_int(raw: str) -> int:
    try:
        return int(raw, 10)
    except ValueError:
        raise ValueError("expected an integer") from None


def _parse_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError("expected a number") from None
    if math.isnan(value):
        raise ValueError("expected a number")
    return value


def _parse_bool(raw: str) -> bool:
    lowered = raw.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError("expected a boolean (true/false)")


def _parse_str(raw: str) -> str:
    return raw


def _parse_int_list(raw: str) -> tuple[int, ...]:
    parts = [p.strip() for p in raw.split(",")]
    if not any(parts):
        raise ValueError("expected a comma-separated list of integers")
    out = []
    for p in parts:
        if not p:
            raise ValueError("empty entry in list")
        out.append(_parse_int(p))
    return tuple(out)


# The reference scenario; every scenario key defaults to its value there.
_REF = Scenario()

# section -> key -> (parser, default, documentation)
SCHEMA = {
    "highway": {
        "n_stations": (_parse_int, _REF.highway.n_stations, "number of stations on the ring"),
        "coverage_radius_m": (_parse_float, _REF.highway.cell_length / 2,
                              "station coverage radius; cell length is twice this"),
    },
    "catalog": {
        "n_files": (_parse_int, _REF.n_files, "content catalog size"),
        "gamma": (_parse_float, _REF.gamma, "Zipf popularity exponent"),
    },
    "traffic": {
        "base_density": (_parse_float, _REF.traffic.base_density, "rush-hour vehicles per meter per direction"),
        "speed_mps": (_parse_float, _REF.speed, "constant vehicle speed"),
        "daily_profile": (_parse_bool, _REF.traffic.enabled, "apply the two-peak daily demand profile"),
        "peak_hour_morning": (_parse_float, _REF.traffic.peak_hours[0], "first rush peak, hour of day"),
        "peak_hour_evening": (_parse_float, _REF.traffic.peak_hours[1], "second rush peak, hour of day"),
        "peak_width_h": (_parse_float, _REF.traffic.peak_width_h, "rush peak width in hours"),
        "floor_fraction": (_parse_float, _REF.traffic.floor_fraction, "overnight demand floor relative to peak"),
    },
    "energy": {
        "kind": (_parse_str, _REF.energy.kind, "harvest profile: solar-sine, constant, or zero"),
        "peak_rate": (_parse_float, _REF.energy.peak_rate, "peak harvest rate in station power units"),
        "sunrise_h": (_parse_float, _REF.energy.sunrise_h, "solar-sine rise hour"),
        "sunset_h": (_parse_float, _REF.energy.sunset_h, "solar-sine set hour"),
        "battery_capacity": (_parse_float, _REF.battery_capacity, "storage capacity in power-unit-seconds (inf allowed)"),
    },
    "station": {
        "cache_capacity": (_parse_int, _REF.cache_capacity, "cache slots per station"),
        "split_ratio": (_parse_float, _REF.split_ratio, "fraction of slots for the popular partition"),
        "p_const": (_parse_float, _REF.power.p_const, "constant power draw while active"),
        "p_per_user": (_parse_float, _REF.power.p_per_user, "incremental power per served user"),
        "p_sleep": (_parse_float, _REF.power.p_sleep, "power draw while asleep"),
        "max_users": (_parse_int, _REF.power.max_users, "radio cap on concurrently served users"),
        "rate_per_user_mbps": (_parse_float, _REF.power.rate_per_user_mbps, "per-user service rate"),
    },
    "policy": {
        "name": (_parse_str, _REF.policy, "controller: sustainable or greedy"),
        "backhaul_files_per_epoch": (_parse_int, _REF.backhaul.files_per_epoch, "nominal popular-cache updates per epoch"),
        "backhaul_variability_min": (_parse_float, _REF.backhaul.variability[0], "lower budget factor per epoch"),
        "backhaul_variability_max": (_parse_float, _REF.backhaul.variability[1], "upper budget factor per epoch"),
        "prefetch_budget": (_parse_int, _REF.prefetch_budget, "prefetch fetches per station per step"),
        "low_watermark": (_parse_float, _REF.low_watermark,
                          "battery level; active station-steps that start below it count as defers"),
        "high_watermark": (_parse_float, _REF.high_watermark,
                           "battery level; active station-steps that start above it count as pushes"),
        "greedy_partial": (_parse_bool, _REF.greedy_partial, "let the greedy baseline degrade gracefully"),
    },
    "engine": {
        "delta_large": (_parse_int, _REF.epoch_seconds, "planning epoch in seconds"),
        "delta_small": (_parse_int, _REF.step_seconds, "service step in seconds"),
        "duration": (_parse_int, _REF.duration, "run length in seconds"),
        "seed": (_parse_int, _REF.seed, "random seed"),
        # batch knobs, not scenario fields
        "workers": (_parse_int, 1, "parallel processes over the seeds of --seeds"),
        "cache_sizes": (_parse_int_list, DEFAULT_CACHE_SIZES, "sizes visited by sweep-cache"),
    },
}


def describe_schema() -> str:
    """One line per key: section.key, default, and meaning."""
    lines = []
    for section, keys in SCHEMA.items():
        for key, (_, default, doc) in keys.items():
            if isinstance(default, tuple):
                shown = ",".join(str(v) for v in default)
            else:
                shown = str(default)
            lines.append(f"{section}.{key} = {shown}  # {doc}")
    return "\n".join(lines)


def _section_keys(where: str, section: str) -> dict:
    if section not in SCHEMA:
        known = ", ".join(SCHEMA)
        raise ConfigError(f"{where}: unknown section [{section}] (known: {known})")
    return SCHEMA[section]


def _parse_value(where: str, section: str, key: str, raw_value: str) -> object:
    """Parse one ``section.key`` value; ``where`` names its source in errors."""
    keys = _section_keys(where, section)
    if key not in keys:
        raise ConfigError(f"{where}: unknown key {key!r} in section [{section}]")
    try:
        return keys[key][0](raw_value)
    except ValueError as exc:
        raise ConfigError(
            f"{where}: bad value for {section}.{key}: {raw_value!r} ({exc})"
        ) from None


def _parse_lines(text: str) -> dict[tuple[str, str], object]:
    values: dict[tuple[str, str], object] = {}
    section = None
    for lineno, raw_line in enumerate(text.splitlines(), start=1):
        where = f"line {lineno}"
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            _section_keys(where, section)
            continue
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value', got {line!r}")
        if section is None:
            raise ConfigError(f"{where}: key outside any [section]")
        key, _, raw_value = line.partition("=")
        key = key.strip()
        values[(section, key)] = _parse_value(where, section, key, raw_value.strip())
    return values


def _apply_overrides(
    values: dict[tuple[str, str], object], overrides: tuple[str, ...]
) -> None:
    for spec in overrides:
        where = f"override {spec!r}"
        head, eq, raw_value = spec.partition("=")
        section, dot, key = head.strip().partition(".")
        key = key.strip()
        if not eq or not dot or not section or not key:
            raise ConfigError(f"{where}: expected section.key=value")
        values[(section, key)] = _parse_value(where, section, key, raw_value.strip())


def parse_settings(text: str, overrides: tuple[str, ...] = ()) -> RunSettings:
    """Parse config text plus command-line overrides into run settings.

    Overrides use ``section.key=value`` and take precedence over file
    values, which take precedence over defaults.
    """
    values = _parse_lines(text)
    _apply_overrides(values, tuple(overrides))

    def get(section: str, key: str):
        return values.get((section, key), SCHEMA[section][key][1])

    try:
        highway = Highway(
            n_stations=get("highway", "n_stations"),
            cell_length=2.0 * get("highway", "coverage_radius_m"),
        )
        traffic = TrafficProfile(
            base_density=get("traffic", "base_density"),
            enabled=get("traffic", "daily_profile"),
            peak_hours=(
                get("traffic", "peak_hour_morning"),
                get("traffic", "peak_hour_evening"),
            ),
            peak_width_h=get("traffic", "peak_width_h"),
            floor_fraction=get("traffic", "floor_fraction"),
        )
        energy = EnergyProfile(
            kind=get("energy", "kind"),
            peak_rate=get("energy", "peak_rate"),
            sunrise_h=get("energy", "sunrise_h"),
            sunset_h=get("energy", "sunset_h"),
        )
        power = PowerModel(
            p_const=get("station", "p_const"),
            p_per_user=get("station", "p_per_user"),
            p_sleep=get("station", "p_sleep"),
            max_users=get("station", "max_users"),
            rate_per_user_mbps=get("station", "rate_per_user_mbps"),
        )
        backhaul = BackhaulBudget(
            files_per_epoch=get("policy", "backhaul_files_per_epoch"),
            variability=(
                get("policy", "backhaul_variability_min"),
                get("policy", "backhaul_variability_max"),
            ),
        )
        scenario = Scenario(
            highway=highway,
            n_files=get("catalog", "n_files"),
            gamma=get("catalog", "gamma"),
            traffic=traffic,
            speed=get("traffic", "speed_mps"),
            energy=energy,
            battery_capacity=get("energy", "battery_capacity"),
            power=power,
            cache_capacity=get("station", "cache_capacity"),
            split_ratio=get("station", "split_ratio"),
            backhaul=backhaul,
            prefetch_budget=get("policy", "prefetch_budget"),
            low_watermark=get("policy", "low_watermark"),
            high_watermark=get("policy", "high_watermark"),
            greedy_partial=get("policy", "greedy_partial"),
            policy=get("policy", "name"),
            epoch_seconds=get("engine", "delta_large"),
            step_seconds=get("engine", "delta_small"),
            duration=get("engine", "duration"),
            seed=get("engine", "seed"),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    workers = get("engine", "workers")
    if workers < 1:
        raise ConfigError("engine.workers must be >= 1")
    cache_sizes = tuple(get("engine", "cache_sizes"))
    if any(c < 0 for c in cache_sizes):
        raise ConfigError("engine.cache_sizes entries must be >= 0")
    return RunSettings(scenario=scenario, cache_sizes=cache_sizes, workers=workers)
