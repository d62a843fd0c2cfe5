"""Harvest profiles and battery bookkeeping.

Power is expressed in units of the maximum station draw (1.0 = full
load), energy in power-units x seconds. A ``Battery`` is a bank that
holds one float64 value per station in every ledger entry:
:func:`battery_step` advances it one step, and :func:`settle` a block of
steps at a time, both by one step rule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "EnergyProfile",
    "Battery",
    "harvest_rates",
    "mean_rate",
    "battery_step",
    "settle",
    "ledger_residual",
]

KINDS = ("solar-sine", "constant", "zero")
SECONDS_PER_DAY = 86400.0


@dataclass(frozen=True)
class EnergyProfile:
    """Deterministic harvest-rate shape, repeating daily."""

    kind: str = "solar-sine"
    peak_rate: float = 1.0
    sunrise_h: float = 6.0
    sunset_h: float = 18.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"kind must be one of {KINDS}, got {self.kind!r}")
        if self.peak_rate < 0 or not math.isfinite(self.peak_rate):
            raise ValueError(f"peak_rate must be finite and >= 0, got {self.peak_rate}")
        if self.kind == "solar-sine" and not -math.inf < self.sunrise_h < self.sunset_h < math.inf:
            raise ValueError(
                f"sunrise_h and sunset_h must be finite, sunset_h later than sunrise_h, "
                f"got {self.sunrise_h} and {self.sunset_h}"
            )


def harvest_rates(profile: EnergyProfile, ts: np.ndarray) -> np.ndarray:
    """Instantaneous harvest power at each of ``ts`` seconds of day (wraps daily).

    The solar shape is a half sine between sunrise and sunset, peaking at
    ``peak_rate`` at midday, zero outside daylight.
    """
    ts = np.asarray(ts, dtype=np.float64)
    if profile.kind == "zero":
        return np.zeros_like(ts)
    if profile.kind == "constant":
        return np.full_like(ts, profile.peak_rate)
    hour = (ts / 3600.0) % 24.0
    phase = np.pi * (hour - profile.sunrise_h) / (profile.sunset_h - profile.sunrise_h)
    rate = profile.peak_rate * np.sin(phase)
    daylight = (hour >= profile.sunrise_h) & (hour <= profile.sunset_h)
    return np.where(daylight, np.maximum(rate, 0.0), 0.0)


def mean_rate(profile: EnergyProfile, t0: float, t1: float) -> float:
    """Exact mean harvest power over ``[t0, t1)`` (seconds, any span).

    Used as the perfect forecast for epoch planning.
    """
    if not t1 > t0:
        raise ValueError("t1 must be later than t0")
    if profile.kind == "zero":
        return 0.0
    if profile.kind == "constant":
        return profile.peak_rate
    return _solar_integral(profile, t0, t1) / (t1 - t0)


def _solar_integral(profile: EnergyProfile, t0: float, t1: float) -> float:
    """Integral of the solar-sine rate over [t0, t1), split across days."""
    a = profile.sunrise_h * 3600.0
    b = profile.sunset_h * 3600.0
    omega = math.pi / (b - a)
    total = 0.0
    day = math.floor(t0 / SECONDS_PER_DAY) * SECONDS_PER_DAY
    while day < t1:
        lo = max(t0, day + a)
        hi = min(t1, day + b)
        if hi > lo:
            # antiderivative of sin(omega (t - a)) is -cos(...) / omega
            c0 = math.cos(omega * (lo - day - a))
            c1 = math.cos(omega * (hi - day - a))
            total += profile.peak_rate * (c0 - c1) / omega
        day += SECONDS_PER_DAY
    return total


# the ledger entries a step adds to, in the order :func:`_step_rule` returns their
# amounts: harvested, delivered, overflow and deficit
_BOOKED = ("cum_harvested", "cum_consumed", "cum_overflow", "cum_deficit")


@dataclass
class Battery:
    """A bank of energy stores with a full conservation ledger.

    ``level``, ``initial_level`` and each ``cum_*`` entry are float64
    arrays of one shape, one value per station; a scalar ``level`` makes
    a one-station bank. Per station, ``cum_harvested - cum_overflow -
    cum_consumed == level - initial_level`` holds exactly (to float
    rounding) after any sequence of steps; ``cum_deficit`` records
    requested-but-undelivered energy outside that identity. Every step
    books overflow, which stays exactly 0.0 at an infinite ``capacity``.
    """

    level: np.ndarray = 0.0  # type: ignore[assignment]
    capacity: float = math.inf
    cum_harvested: np.ndarray = 0.0  # type: ignore[assignment]
    cum_consumed: np.ndarray = 0.0  # type: ignore[assignment]
    cum_overflow: np.ndarray = 0.0  # type: ignore[assignment]
    cum_deficit: np.ndarray = 0.0  # type: ignore[assignment]
    initial_level: np.ndarray = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.level = np.array(self.level, dtype=np.float64, ndmin=1)
        if not self.capacity >= 0:
            raise ValueError(f"capacity must be >= 0 (inf allowed), got {self.capacity}")
        if not np.all(self.level >= 0):
            raise ValueError("level must be >= 0")
        if np.any(self.level > self.capacity):
            raise ValueError("level must not exceed capacity")
        if self.initial_level is None:
            self.initial_level = self.level
        for name in ("initial_level", *_BOOKED):
            setattr(self, name, np.full(self.level.shape, getattr(self, name), dtype=np.float64))


def _step_rule(level: np.ndarray, capacity: float, harvest, draw, dt: float) -> tuple[tuple, np.ndarray]:
    """:func:`battery_step`'s rule, elementwise: the energies a step books, and its end level."""
    harvested = harvest * dt
    available = level + harvested
    requested = draw * dt
    delivered = np.minimum(requested, available)
    after = available - delivered
    overflow = np.maximum(after - capacity, 0.0)
    return (harvested, delivered, overflow, requested - delivered), after - overflow


def battery_step(
    batt: Battery, harvest: float | np.ndarray, draw: float | np.ndarray, dt: float
) -> tuple[Battery, np.ndarray]:
    """Advance the bank one interval: harvest first, then consume.

    This is the reference rule that :func:`settle` reproduces a block at a
    time. ``harvest`` and ``draw`` are power rates held constant over
    ``dt`` seconds, one shared value or one per station. Delivered power
    is capped by what the store plus this interval's harvest can supply;
    the gap is booked as deficit. Charge beyond ``capacity`` is booked as
    overflow, exactly 0.0 when the capacity is infinite. Mutates ``batt``
    and returns it along with the delivered power per station.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    amounts, batt.level = _step_rule(batt.level, batt.capacity, harvest, draw, dt)
    for name, amount in zip(_BOOKED, amounts):
        setattr(batt, name, getattr(batt, name) + amount)
    return batt, amounts[1] / dt


def settle(
    batt: Battery,
    harvest: np.ndarray,
    draw_at: Callable[[int, np.ndarray, np.ndarray], float | np.ndarray],
    dt: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Advance a bank of batteries over a block of steps whose draws depend on their levels.

    ``batt.level`` holds one level per station and ``harvest`` one rate per
    step, shared by every station. ``draw_at(k, levels, harvest)`` returns
    the rates the steps from ``k`` on request at the given start levels
    (one row per step; ``harvest`` is a column that broadcasts over them).
    Its first guess is what the controller asks of a store that never
    binds: ``draw_at`` at infinite levels, evaluated once. Each pass
    guesses the start levels of the unsettled steps from those draws, lets
    ``draw_at`` decide from the guess, and books the steps up to the first
    whose end level the step rule finds off the next guess; the rest is
    guessed again. A guess's first row is the true level, so each pass
    books at least one step, and the rows and ``batt`` end bit-identical
    to a loop of :func:`battery_step`. Returns the delivered power and the
    end level of every step.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    rates = harvest[:, None]
    delivered = np.empty((len(harvest), len(batt.level)))
    level = np.empty_like(delivered)
    unbound = np.broadcast_to(draw_at(0, np.full(delivered.shape, np.inf), rates), delivered.shape)
    k = 0
    while k < len(harvest):
        guess = _guess_levels(batt, rates[k:], unbound[k:], dt)
        draw = draw_at(k, guess, rates[k:])
        k += _battery_run(batt, rates[k:], draw, dt, guess, delivered[k:], level[k:])
    return delivered, level


def _guess_levels(batt: Battery, harvest: np.ndarray, draw: np.ndarray, dt: float) -> np.ndarray:
    """Guess the level at the start of each of a block of steps.

    The guess is the level if every step delivered the unconstrained
    ``draw`` (one row per step), built by one sequential accumulate of the
    same additions, in the same order, as a loop of :func:`battery_step`.
    Row 0 is the true ``batt.level`` and is kept as it is, even when
    rounding has left it an ulp above the capacity. From the first later
    row that would end below 0 or above the capacity, a battery's guess
    stays at that bound. Returns one row per step.
    """
    rows = np.empty((2 * len(harvest), len(batt.level)))
    rows[0] = batt.level
    rows[1::2] = harvest * dt
    rows[2::2] = -draw[:-1] * dt
    levels = np.add.accumulate(rows, axis=0)[0::2]
    out = (levels < 0.0) | (levels > batt.capacity)
    out[0] = False
    first = np.take_along_axis(levels, out.argmax(axis=0)[None], axis=0)
    bound = np.where(first < 0.0, 0.0, batt.capacity)
    return np.where(np.logical_or.accumulate(out, axis=0), bound, levels)


def _battery_run(
    batt: Battery,
    harvest: np.ndarray,
    draw: float | np.ndarray,
    dt: float,
    start: np.ndarray,
    delivered_out: np.ndarray,
    level_out: np.ndarray,
) -> int:
    """Check guessed start levels and book the leading steps they get right.

    Applies the step rule to every row of ``start`` at once and takes the
    steps through the first whose end level misses the next row: at least
    one step, since row 0 is ``batt.level``, at most all. Writes the
    delivered power and end level of each step taken to the leading rows
    of the two outputs and returns how many it took.
    """
    amounts, after = _step_rule(start, batt.capacity, harvest, draw, dt)
    missed = (after[:-1] != start[1:]).any(axis=1)
    k = int(missed.argmax()) + 1 if missed.any() else len(start)

    batt.level = after[k - 1].copy()
    for name, amount in zip(_BOOKED, amounts):
        setattr(batt, name, _add_rows(getattr(batt, name), amount[:k]))
    delivered_out[:k] = amounts[1][:k] / dt
    level_out[:k] = after[:k]
    return k


def _add_rows(total: float | np.ndarray, rows: np.ndarray) -> float | np.ndarray:
    """``total`` plus each row in turn, the additions a step loop makes.

    ``add.accumulate`` adds strictly in order, where ``sum`` would add pairwise.
    """
    acc = np.empty((len(rows) + 1,) + np.shape(total))
    acc[0] = total
    acc[1:] = rows
    return np.add.accumulate(acc, axis=0)[-1].copy()


def ledger_residual(batt: Battery) -> np.ndarray:
    """Per-station deviation from the conservation identity; ~0 for a healthy ledger."""
    return (batt.cum_harvested - batt.cum_overflow - batt.cum_consumed) - (
        batt.level - batt.initial_level
    )
