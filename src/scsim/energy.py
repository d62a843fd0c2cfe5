"""Harvest profiles and battery bookkeeping.

Power is expressed in units of the maximum station draw (1.0 = full
load), energy in power-units x seconds. ``Battery`` fields accept either
scalars or numpy arrays, so a whole bank of per-station batteries can be
stepped with one call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "EnergyProfile",
    "Battery",
    "harvest_rates",
    "mean_rate",
    "battery_step",
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
        if self.kind == "solar-sine" and not self.sunset_h > self.sunrise_h:
            raise ValueError("sunset_h must be later than sunrise_h")


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


@dataclass
class Battery:
    """Energy store with a full conservation ledger.

    The ledger identity ``cum_harvested - cum_overflow - cum_consumed ==
    level - initial_level`` holds exactly (to float rounding) after any
    sequence of steps; ``cum_deficit`` records requested-but-undelivered
    energy and sits outside the identity.
    """

    level: float | np.ndarray = 0.0
    capacity: float = math.inf
    cum_harvested: float | np.ndarray = 0.0
    cum_consumed: float | np.ndarray = 0.0
    cum_overflow: float | np.ndarray = 0.0
    cum_deficit: float | np.ndarray = 0.0
    initial_level: float | np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.capacity < 0:
            raise ValueError("capacity must be >= 0")
        if np.any(np.asarray(self.level) < 0):
            raise ValueError("level must be >= 0")
        if np.any(np.asarray(self.level) > self.capacity):
            raise ValueError("level must not exceed capacity")
        if self.initial_level is None:
            self.initial_level = np.copy(self.level) if isinstance(self.level, np.ndarray) else self.level


def battery_step(
    batt: Battery, harvest: float | np.ndarray, draw: float | np.ndarray, dt: float
) -> tuple[Battery, float | np.ndarray]:
    """Advance the battery one interval: harvest first, then consume.

    ``harvest`` and ``draw`` are power rates held constant over ``dt``
    seconds. Delivered power is capped by what the store plus this
    interval's harvest can supply; the gap is booked as deficit. Charge
    beyond ``capacity`` is booked as overflow. Mutates ``batt`` and
    returns it along with the delivered power.
    """
    if not dt > 0:
        raise ValueError("dt must be > 0")
    harvested = harvest * dt
    available = batt.level + harvested
    requested = draw * dt
    delivered = np.minimum(requested, available)
    after = available - delivered
    if batt.capacity == math.inf:
        # overflow is identically zero; skip booking it
        batt.level = after
    else:
        overflow = np.maximum(after - batt.capacity, 0.0)
        batt.level = after - overflow
        batt.cum_overflow = batt.cum_overflow + overflow
    batt.cum_harvested += harvested
    batt.cum_consumed += delivered
    batt.cum_deficit += requested - delivered
    return batt, delivered if dt == 1.0 else delivered / dt


def ledger_residual(batt: Battery) -> float | np.ndarray:
    """Deviation from the conservation identity; ~0 for a healthy ledger."""
    return (batt.cum_harvested - batt.cum_overflow - batt.cum_consumed) - (
        batt.level - batt.initial_level
    )
