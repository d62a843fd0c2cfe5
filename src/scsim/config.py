"""Line-oriented scenario configuration.

The format is deliberately small: ``[section]`` headers, ``key = value``
pairs, ``#`` comments. Each key names the ``RunSettings`` field it sets;
its default is that field in the reference settings and its parser
follows the field's annotation. Unknown keys are hard errors (typos
should not silently run a different experiment), and malformed values
report their line number.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cache, reduce
from typing import Callable, get_args, get_origin, get_type_hints

from .engine import Scenario

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

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("engine.workers must be >= 1")
        if any(c < 0 for c in self.cache_sizes):
            raise ValueError("engine.cache_sizes entries must be >= 0")


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


# Each field's parser, by its annotation.
_PARSE = {int: _parse_int, float: _parse_float, bool: _parse_bool, str: str, tuple[int, ...]: _parse_int_list}

# The reference settings; every key defaults to its field's value there.
_REF = RunSettings(Scenario(), DEFAULT_CACHE_SIZES, 1)

# section -> key -> (the RunSettings field it sets, as a dotted path with
# tuple slots by index; documentation)
SCHEMA = {
    "highway": {
        "n_stations": ("scenario.highway.n_stations", "number of stations on the ring"),
        "coverage_radius_m": ("scenario.highway.cell_length", "station coverage radius; cell length is twice this"),
    },
    "catalog": {
        "n_files": ("scenario.n_files", "content catalog size"),
        "gamma": ("scenario.gamma", "Zipf popularity exponent"),
    },
    "traffic": {
        "base_density": ("scenario.traffic.base_density", "rush-hour vehicles per meter per direction"),
        "speed_mps": ("scenario.speed", "constant vehicle speed"),
        "daily_profile": ("scenario.traffic.enabled", "apply the two-peak daily demand profile"),
        "peak_hour_morning": ("scenario.traffic.peak_hours.0", "first rush peak, hour of day"),
        "peak_hour_evening": ("scenario.traffic.peak_hours.1", "second rush peak, hour of day"),
        "peak_width_h": ("scenario.traffic.peak_width_h", "rush peak width in hours"),
        "floor_fraction": ("scenario.traffic.floor_fraction", "overnight demand floor relative to peak"),
    },
    "energy": {
        "kind": ("scenario.energy.kind", "harvest profile: solar-sine or constant"),
        "peak_rate": ("scenario.energy.peak_rate", "peak harvest rate in station power units"),
        "sunrise_h": ("scenario.energy.sunrise_h", "solar-sine rise hour"),
        "sunset_h": ("scenario.energy.sunset_h", "solar-sine set hour"),
        "battery_capacity": ("scenario.battery_capacity", "storage capacity in power-unit-seconds (inf allowed)"),
    },
    "station": {
        "cache_capacity": ("scenario.cache_capacity", "cache slots per station"),
        "split_ratio": ("scenario.split_ratio", "fraction of slots for the popular partition"),
        "p_const": ("scenario.power.p_const", "constant power draw while active"),
        "p_sleep": ("scenario.power.p_sleep", "power draw while asleep"),
        "max_users": ("scenario.power.max_users", "radio cap on concurrently served users"),
        "rate_per_user_mbps": ("scenario.power.rate_per_user_mbps", "per-user service rate"),
    },
    "policy": {
        "name": ("scenario.policy", "controller: sustainable or greedy"),
        "backhaul_files_per_epoch": ("scenario.backhaul.files_per_epoch", "nominal popular-cache updates per epoch"),
        "backhaul_variability_min": ("scenario.backhaul.variability.0", "lower budget factor per epoch"),
        "backhaul_variability_max": ("scenario.backhaul.variability.1", "upper budget factor per epoch"),
        "prefetch_budget": ("scenario.prefetch_budget", "prefetch fetches per station per step"),
        "low_watermark": ("scenario.low_watermark",
                          "battery level; active station-steps that start below it count as defers"),
        "high_watermark": ("scenario.high_watermark",
                           "battery level; active station-steps that start above it count as pushes"),
        "greedy_partial": ("scenario.greedy_partial", "let the greedy baseline degrade gracefully"),
    },
    "engine": {
        "delta_large": ("scenario.epoch_seconds", "planning epoch in seconds"),
        "delta_small": ("scenario.step_seconds", "service step in seconds"),
        "duration": ("scenario.duration", "run length in seconds"),
        "seed": ("scenario.seed", "random seed"),
        # batch knobs, not scenario fields
        "workers": ("workers", "parallel processes over the seeds of --seeds"),
        "cache_sizes": ("cache_sizes", "sizes visited by sweep-cache"),
    },
}

# path -> how many times the key's value the field holds
_SCALE = {"scenario.highway.cell_length": 2.0}


def _part(obj, name: str):
    """The attribute, or for a tuple the slot, ``name`` of ``obj``."""
    return obj[int(name)] if isinstance(obj, tuple) else getattr(obj, name)


# annotations are resolved once per class and parsers once per path
_hints = cache(get_type_hints)


@cache
def _parser(path: str) -> Callable[[str], object]:
    """The parser of the field at ``path``, by its annotation."""
    hint = RunSettings
    for name in path.split("."):
        hint = get_args(hint)[int(name)] if get_origin(hint) is tuple else _hints(hint)[name]
    return _PARSE[hint]


# path -> its field's value in the reference settings, in SCHEMA order
_REF_FIELDS = {path: reduce(_part, path.split("."), _REF) for keys in SCHEMA.values() for path, _ in keys.values()}


def describe_schema() -> str:
    """One line per key: section.key, default, and meaning."""
    lines = []
    for section, keys in SCHEMA.items():
        for key, (path, doc) in keys.items():
            default = _REF_FIELDS[path] / _SCALE[path] if path in _SCALE else _REF_FIELDS[path]
            shown = ",".join(map(str, default)) if isinstance(default, tuple) else str(default)
            lines.append(f"{section}.{key} = {shown}  # {doc}")
    return "\n".join(lines)


def _section_keys(where: str, section: str) -> dict:
    if section not in SCHEMA:
        known = ", ".join(SCHEMA)
        raise ConfigError(f"{where}: unknown section [{section}] (known: {known})")
    return SCHEMA[section]


def _set_value(values: dict[str, object], where: str, section: str, key: str, raw_value: str) -> None:
    """Parse one ``section.key`` value into ``values`` at its field's path; ``where`` names its source in errors."""
    keys = _section_keys(where, section)
    if key not in keys:
        raise ConfigError(f"{where}: unknown key {key!r} in section [{section}]")
    path = keys[key][0]
    try:
        value = _parser(path)(raw_value)
    except ValueError as exc:
        raise ConfigError(
            f"{where}: bad value for {section}.{key}: {raw_value!r} ({exc})"
        ) from None
    values[path] = value * _SCALE[path] if path in _SCALE else value


def _parse_lines(text: str) -> dict[str, object]:
    values: dict[str, object] = {}
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
        _set_value(values, where, section, key.strip(), raw_value.strip())
    return values


def _apply_overrides(values: dict[str, object], overrides: tuple[str, ...]) -> None:
    for spec in overrides:
        where = f"override {spec!r}"
        head, eq, raw_value = spec.partition("=")
        section, dot, key = head.strip().partition(".")
        key = key.strip()
        if not eq or not dot or not section or not key:
            raise ConfigError(f"{where}: expected section.key=value")
        _set_value(values, where, section, key, raw_value.strip())


def _with(obj, values: dict[str, object]):
    """``obj`` with the field at each dotted path in ``values`` set, one ``replace`` per object."""
    groups: dict[str, dict[str, object]] = {}
    for path, value in values.items():
        head, _, rest = path.partition(".")
        groups.setdefault(head, {})[rest] = value
    new = {head: sub[""] if "" in sub else _with(_part(obj, head), sub) for head, sub in groups.items()}
    if isinstance(obj, tuple):
        return tuple(new.get(str(i), v) for i, v in enumerate(obj))
    return replace(obj, **new)


def parse_settings(text: str, overrides: tuple[str, ...] = ()) -> RunSettings:
    """Parse config text plus command-line overrides into run settings.

    Overrides use ``section.key=value`` and take precedence over file
    values, which take precedence over defaults.
    """
    # every field, in SCHEMA order: each object is rebuilt and checked in
    # the same order whatever order the file and overrides give
    values = {**_REF_FIELDS, **_parse_lines(text)}
    _apply_overrides(values, tuple(overrides))
    try:
        return _with(_REF, values)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
