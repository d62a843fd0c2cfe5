"""Config parsing: defaults, precedence, and error reporting."""
import dataclasses
import math
from collections import Counter
from functools import reduce
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import pytest

from scsim.config import (
    DEFAULT_CACHE_SIZES,
    SCHEMA,
    ConfigError,
    RunSettings,
    describe_schema,
    parse_settings,
)
from scsim.engine import Scenario

README = Path(__file__).resolve().parents[1] / "README.md"


def test_empty_text_yields_reference_defaults():
    settings = parse_settings("")
    assert settings.scenario == Scenario()
    assert settings.cache_sizes == DEFAULT_CACHE_SIZES
    assert settings.workers == 1


def test_parse_config_returns_scenario():
    sc = parse_settings("[catalog]\ngamma = 0.56\n").scenario
    assert sc.gamma == 0.56
    assert sc.n_files == 1000


FULL = """
# reference overridden everywhere
[highway]
n_stations = 4
coverage_radius_m = 250

[catalog]
n_files = 500
gamma = 0.56

[traffic]
base_density = 0.002        # sparse road
speed_mps = 30
daily_profile = off
peak_hour_morning = 7.5
peak_hour_evening = 19
peak_width_h = 2.0
floor_fraction = 0.05

[energy]
kind = constant
peak_rate = 0.8
battery_capacity = 5000

[station]
cache_capacity = 40
split_ratio = 0.5
max_users = 5
p_const = 0.6
p_sleep = 0.02
rate_per_user_mbps = 4

[policy]
name = greedy
backhaul_files_per_epoch = 10
backhaul_variability_min = 0.9
backhaul_variability_max = 0.9
prefetch_budget = 1
low_watermark = 100
high_watermark = 200
greedy_partial = yes

[engine]
delta_large = 600
delta_small = 2
duration = 7200
seed = 9
workers = 2
cache_sizes = 0, 40, 500
"""


def test_full_file_reaches_every_field():
    settings = parse_settings(FULL)
    sc = settings.scenario
    assert sc.highway.n_stations == 4
    assert sc.highway.cell_length == 500.0
    assert sc.n_files == 500 and sc.gamma == 0.56
    assert sc.traffic.base_density == 0.002
    assert sc.traffic.enabled is False
    assert sc.traffic.peak_hours == (7.5, 19.0)
    assert sc.traffic.peak_width_h == 2.0
    assert sc.traffic.floor_fraction == 0.05
    assert sc.speed == 30.0
    assert sc.energy.kind == "constant" and sc.energy.peak_rate == 0.8
    assert sc.battery_capacity == 5000.0
    assert sc.cache_capacity == 40 and sc.split_ratio == 0.5
    assert sc.power.max_users == 5 and sc.power.p_const == 0.6
    assert sc.power.p_per_user == 0.08 and sc.power.p_sleep == 0.02
    assert sc.power.rate_per_user_mbps == 4.0
    assert sc.policy == "greedy" and sc.greedy_partial is True
    assert sc.backhaul.files_per_epoch == 10
    assert sc.backhaul.variability == (0.9, 0.9)
    assert sc.prefetch_budget == 1
    assert sc.low_watermark == 100.0 and sc.high_watermark == 200.0
    assert sc.epoch_seconds == 600 and sc.step_seconds == 2
    assert sc.duration == 7200 and sc.seed == 9
    assert settings.workers == 2
    assert settings.cache_sizes == (0, 40, 500)


def test_three_layer_precedence():
    text = "[catalog]\ngamma = 0.56\n"
    assert parse_settings(text).scenario.gamma == 0.56
    assert parse_settings(text, ("catalog.gamma=2.0",)).scenario.gamma == 2.0
    # untouched keys still come from defaults
    assert parse_settings(text, ("catalog.gamma=2.0",)).scenario.n_files == 1000


def test_last_value_wins_within_a_layer():
    sc = parse_settings("[catalog]\ngamma = 0.3\ngamma = 0.7\n").scenario
    assert sc.gamma == 0.7
    settings = parse_settings("", ("engine.seed=1", "engine.seed=5"))
    assert settings.scenario.seed == 5


def test_unknown_key_names_key_and_section():
    with pytest.raises(ConfigError, match=r"'gama'.*\[catalog\]"):
        parse_settings("[catalog]\ngama = 1\n")


def test_unknown_section_rejected():
    with pytest.raises(ConfigError, match=r"unknown section \[catalgo\]"):
        parse_settings("[catalgo]\ngamma = 1\n")


def test_malformed_value_reports_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_settings("[catalog]\nn_files = 100\ngamma = banana\n")
    with pytest.raises(ConfigError, match=r"line 2: .*'nan' \(expected a number\)"):
        parse_settings("[catalog]\ngamma = nan\n")


def test_key_outside_section_rejected():
    with pytest.raises(ConfigError, match="outside any"):
        parse_settings("gamma = 1\n")


def test_line_without_equals_rejected():
    with pytest.raises(ConfigError, match="line 2"):
        parse_settings("[catalog]\njust some words\n")


def test_timescale_nesting_violation_is_config_error():
    with pytest.raises(ConfigError, match="multiple"):
        parse_settings("[engine]\ndelta_large = 10\ndelta_small = 3\n")


def test_scenario_invariants_surface_as_config_errors():
    with pytest.raises(ConfigError):
        parse_settings("[station]\nsplit_ratio = 1.5\n")
    with pytest.raises(ConfigError):
        parse_settings("[energy]\nkind = fusion\n")
    with pytest.raises(ConfigError):
        parse_settings("[policy]\nname = lazy\n")
    with pytest.raises(ConfigError):
        parse_settings("[energy]\nbattery_capacity = -1\n")
    with pytest.raises(ConfigError, match="speed"):
        parse_settings("", ("traffic.speed_mps=inf",))
    with pytest.raises(ConfigError, match="cell_length"):
        parse_settings("", ("highway.coverage_radius_m=inf",))
    with pytest.raises(ConfigError, match="ring length"):
        parse_settings("", ("highway.coverage_radius_m=1e307",))
    with pytest.raises(ConfigError, match="variability"):
        parse_settings("", ("policy.backhaul_variability_max=inf",))
    with pytest.raises(ConfigError, match="sunset_h"):
        parse_settings("", ("energy.sunset_h=inf",))
    with pytest.raises(ConfigError, match="sunrise_h"):
        parse_settings("", ("energy.sunrise_h=-inf",))
    with pytest.raises(ConfigError, match="gamma"):
        parse_settings("", ("catalog.gamma=inf",))
    with pytest.raises(ConfigError, match="peak_hours"):
        parse_settings("", ("traffic.peak_hour_morning=inf",))
    with pytest.raises(ConfigError, match="peak_width_h"):
        parse_settings("", ("traffic.peak_width_h=inf",))
    with pytest.raises(ConfigError, match="finite"):
        parse_settings("", ("station.rate_per_user_mbps=inf",))
    with pytest.raises(ConfigError, match="p_const"):
        parse_settings("", ("station.p_const=1.0",))


def test_power_normalization_enforced_via_config():
    text = "[station]\np_const = 0.5\np_per_user = 0.2\n"
    with pytest.raises(ConfigError, match="unknown key 'p_per_user'"):
        parse_settings(text)


def test_power_keys_set_alone():
    """``p_per_user`` follows ``p_const`` and ``max_users``, so each can be overridden by itself."""
    power = parse_settings("", ("station.max_users=5",)).scenario.power
    assert power.max_users == 5 and power.p_per_user == 0.1
    power = parse_settings("", ("station.p_const=0.6",)).scenario.power
    assert power.p_const == 0.6 and power.p_per_user == (1.0 - 0.6) / 10


def test_battery_capacity_accepts_inf():
    sc = parse_settings("[energy]\nbattery_capacity = inf\n").scenario
    assert sc.battery_capacity == math.inf


def test_bool_spellings():
    for raw, expected in (("true", True), ("ON", True), ("1", True),
                          ("no", False), ("Off", False), ("0", False)):
        sc = parse_settings(f"[traffic]\ndaily_profile = {raw}\n").scenario
        assert sc.traffic.enabled is expected
    with pytest.raises(ConfigError, match="boolean"):
        parse_settings("[traffic]\ndaily_profile = maybe\n")


def test_int_keys_reject_floats():
    with pytest.raises(ConfigError, match="integer"):
        parse_settings("[catalog]\nn_files = 12.5\n")


def test_cache_sizes_parsing():
    settings = parse_settings("[engine]\ncache_sizes = 0,5 , 10\n")
    assert settings.cache_sizes == (0, 5, 10)
    with pytest.raises(ConfigError):
        parse_settings("[engine]\ncache_sizes = 1,,2\n")
    with pytest.raises(ConfigError, match="expected a comma-separated list"):
        parse_settings("[engine]\ncache_sizes = ,\n")
    with pytest.raises(ConfigError, match=">= 0"):
        parse_settings("[engine]\ncache_sizes = -1,5\n")


def test_workers_must_be_positive():
    with pytest.raises(ConfigError, match="workers"):
        parse_settings("[engine]\nworkers = 0\n")


def test_override_format_errors():
    with pytest.raises(ConfigError, match="section.key=value"):
        parse_settings("", ("engine.seed",))
    with pytest.raises(ConfigError, match="section.key=value"):
        parse_settings("", ("seed=7",))
    with pytest.raises(ConfigError, match=r"\[motor\]"):
        parse_settings("", ("motor.seed=7",))
    with pytest.raises(ConfigError, match="'sead'"):
        parse_settings("", ("engine.sead=7",))
    with pytest.raises(ConfigError, match="integer"):
        parse_settings("", ("engine.seed=7.5",))


def test_comments_and_blank_lines_ignored():
    sc = parse_settings("\n# header\n[catalog]\n\ngamma = 0.9  # trailing\n").scenario
    assert sc.gamma == 0.9


def test_schema_description_covers_every_key():
    text = describe_schema()
    for entry in ("highway.n_stations", "catalog.gamma", "traffic.base_density",
                  "energy.kind", "station.cache_capacity", "policy.name",
                  "engine.delta_large", "engine.cache_sizes"):
        assert entry in text


def test_described_defaults_parse_back_to_the_defaults():
    # every "section.key = default  # meaning" line, fed back as an override
    overrides = tuple(line.split("#", 1)[0] for line in describe_schema().splitlines())
    assert len(overrides) == sum(len(keys) for keys in SCHEMA.values())
    assert parse_settings("", overrides) == parse_settings("")


def _leaves(hint, prefix=()):
    """Dotted path of every leaf under ``hint``: each dataclass field and fixed tuple slot."""
    if dataclasses.is_dataclass(hint):
        hints = get_type_hints(hint)
        for f in dataclasses.fields(hint):
            yield from _leaves(hints[f.name], prefix + (f.name,))
    elif get_origin(hint) is tuple and ... not in get_args(hint):
        for i, arg in enumerate(get_args(hint)):
            yield from _leaves(arg, prefix + (str(i),))
    else:
        yield ".".join(prefix)


def _at(obj, path):
    return reduce(lambda o, name: o[int(name)] if isinstance(o, tuple) else getattr(o, name), path.split("."), obj)


def _keys():
    return [(f"{section}.{key}", path) for section, keys in SCHEMA.items() for key, (path, _) in keys.items()]


def test_every_field_is_the_path_of_exactly_one_key():
    paths = Counter(path for _, path in _keys())
    assert paths == Counter(_leaves(RunSettings))
    assert len(paths) == 36


def test_every_key_path_resolves():
    reference = RunSettings(Scenario(), DEFAULT_CACHE_SIZES, 1)
    for _, path in _keys():
        _at(reference, path)  # raises if a name or slot is missing


def test_parsed_defaults_keep_their_field_types():
    # "10.0" must not stand in for 10, nor 1 for True
    reference = RunSettings(Scenario(), DEFAULT_CACHE_SIZES, 1)
    for line, (name, path) in zip(describe_schema().splitlines(), _keys()):
        assert line.startswith(f"{name} = ")
        parsed = parse_settings("", (line.split("#", 1)[0],))
        assert type(_at(parsed, path)) is type(_at(reference, path)), name
        if isinstance(_at(reference, path), tuple):
            assert [type(v) for v in _at(parsed, path)] == [type(v) for v in _at(reference, path)], name


def test_readme_key_reference_matches_describe_schema():
    text = README.read_text(encoding="utf-8")
    block = text.split("Full key reference with defaults", 1)[1].split("```\n", 2)[1]
    assert block.splitlines() == describe_schema().splitlines()


def test_run_settings_reject_bad_batch_knobs_directly():
    with pytest.raises(ValueError, match="engine.workers must be >= 1"):
        RunSettings(Scenario(), DEFAULT_CACHE_SIZES, 0)
    with pytest.raises(ValueError, match="engine.cache_sizes entries must be >= 0"):
        RunSettings(Scenario(), (0, -1, 5), 1)
