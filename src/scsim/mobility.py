"""Ring-highway geometry, vehicle flow, and the daily demand profile."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .catalog import Catalog, sample_requests

__all__ = [
    "Highway",
    "VehicleSet",
    "TrafficProfile",
    "spawn_vehicles",
    "traffic_multiplier",
    "cell_indices",
    "handovers_from_arrays",
]

@dataclass(frozen=True)
class Highway:
    """Circular road divided into equal station cells.

    The ring length is always ``n_stations * cell_length``, so every cell
    has exactly one serving station. A cell boundary belongs to the
    higher-indexed cell (half-open intervals).
    """

    n_stations: int
    cell_length: float

    def __post_init__(self) -> None:
        if self.n_stations < 1:
            raise ValueError(f"n_stations must be >= 1, got {self.n_stations}")
        if not 0 < self.cell_length < np.inf:
            raise ValueError(f"cell_length must be finite and > 0, got {self.cell_length}")
        if not self.length < np.inf:
            raise ValueError(f"ring length n_stations * cell_length must be finite, got {self.length}")

    @property
    def length(self) -> float:
        return self.n_stations * self.cell_length


@dataclass(frozen=True)
class VehicleSet:
    """Column-oriented vehicle population: one array per field, one speed for all."""

    position: np.ndarray
    direction: np.ndarray
    speed: float
    active_content: np.ndarray

    @property
    def n(self) -> int:
        return self.position.shape[0]

    def positions_at(self, dt, highway: Highway, vehicles: np.ndarray | None = None) -> np.ndarray:
        """Positions after ``dt`` seconds of constant-speed travel.

        ``dt`` may be a scalar or an array of elapsed times; an array is
        broadcast to a ``(len(dt), n)`` trajectory matrix. Given
        ``vehicles``, an index array shaped like ``dt``, entry ``i`` is
        instead vehicle ``vehicles[i]`` after ``dt[i]`` seconds. Both forms
        apply the same operations to each entry, so they give the same bits.
        """
        dt = np.asarray(dt, dtype=np.float64)
        if vehicles is None:
            vehicles, dt = slice(None), dt[..., None]
        velocity = self.direction[vehicles] * self.speed
        return (self.position[vehicles] + dt * velocity) % highway.length


@dataclass(frozen=True)
class TrafficProfile:
    """Two-peak daily demand shape over a constant floor.

    ``multiplier(t)`` scales the base vehicle density: 1.0 at either rush
    peak, ``floor_fraction`` deep at night. ``peak_width_h`` is the full
    bump width in hours; the underlying Gaussian std is half of it.
    """

    base_density: float = 0.01
    enabled: bool = True
    peak_hours: tuple[float, float] = (8.0, 18.0)
    peak_width_h: float = 1.5
    floor_fraction: float = 1.0 / 90.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.floor_fraction <= 1.0:
            raise ValueError("floor_fraction must lie in [0, 1]")
        if not 0 < self.peak_width_h < np.inf:
            raise ValueError(f"peak_width_h must be finite and > 0, got {self.peak_width_h}")
        if not np.all(np.isfinite(self.peak_hours)):
            raise ValueError(f"peak_hours must be finite, got {self.peak_hours}")
        if self.base_density < 0 or not np.isfinite(self.base_density):
            raise ValueError("base_density must be finite and >= 0")


def traffic_multiplier(profile: TrafficProfile, t: float) -> float:
    """Demand multiplier in [floor_fraction, 1] at ``t`` seconds of day.

    Distances to the peaks wrap around midnight, keeping the profile
    continuous. A disabled profile pins the multiplier at 1.
    """
    if not profile.enabled:
        return 1.0
    hour = (t / 3600.0) % 24.0
    sigma = profile.peak_width_h / 2.0
    bump = 0.0
    for peak in profile.peak_hours:
        d = abs(hour - peak)
        d = min(d, 24.0 - d)
        bump = max(bump, np.exp(-0.5 * (d / sigma) ** 2))
    return profile.floor_fraction + (1.0 - profile.floor_fraction) * bump


def spawn_vehicles(
    density: float,
    highway: Highway,
    catalog: Catalog,
    rng: np.random.Generator,
    speed: float = 25.0,
) -> VehicleSet:
    """Populate the ring with exponential headways in both directions.

    ``density`` is vehicles per metre per direction; successive gaps are
    iid Exp(mean ``1/density``), laid around the ring until it is full,
    which makes the per-cell vehicle count Poisson. Each vehicle draws
    its active content from the catalog.
    """
    if density < 0 or not np.isfinite(density):
        raise ValueError(f"density must be finite and >= 0, got {density}")
    if not 0 < speed < np.inf:
        raise ValueError(f"speed must be finite and > 0, got {speed}")
    per_dir = []
    for _ in (1, -1):
        per_dir.append(_fill_ring(density, highway.length, rng))
    n_total = len(per_dir[0]) + len(per_dir[1])
    position = np.concatenate(per_dir)
    direction = np.repeat(np.array([1, -1], dtype=np.int64), [len(per_dir[0]), len(per_dir[1])])
    content = sample_requests(catalog, n_total, rng)
    return VehicleSet(
        position=position,
        direction=direction,
        speed=float(speed),
        active_content=content,
    )


def _fill_ring(density: float, length: float, rng: np.random.Generator) -> np.ndarray:
    """Cumulative exponential gaps from the ring origin, trimmed to < length."""
    if density == 0.0:
        return np.empty(0, dtype=np.float64)
    mean_count = density * length
    chunk = int(mean_count + 6.0 * np.sqrt(mean_count) + 16.0)
    gaps = rng.standard_exponential(chunk) / density
    total = gaps.sum()
    while total < length:
        more = rng.standard_exponential(chunk) / density
        gaps = np.concatenate([gaps, more])
        total += more.sum()
    positions = np.cumsum(gaps)
    return positions[positions < length]


def cell_indices(positions: np.ndarray, highway: Highway) -> np.ndarray:
    """Index of the station cell containing each position (boundary goes up)."""
    idx = (positions // highway.cell_length).astype(np.intp)
    return idx % highway.n_stations


def handovers_from_arrays(
    position: np.ndarray,
    cells: np.ndarray,
    direction: np.ndarray,
    speed: float | np.ndarray,
    highway: Highway,
    horizon: float,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Handover lookahead: each vehicle's next cell and when it gets there.

    ``cells`` holds the cell of each ``position`` (see :func:`cell_indices`);
    both may be ``(steps, n)``, with ``direction`` one entry per vehicle
    and ``speed`` one value for all or one per vehicle. Returns (flat
    indices into ``position`` in ascending order, next cell index, eta
    seconds) for every position whose next boundary crossing falls within
    ``horizon`` seconds. A vehicle sitting on a boundary already belongs
    to the higher cell, so travelling forward it has a full cell to cross,
    while travelling backward it is about to exit immediately (eta 0).
    """
    cl = highway.cell_length
    forward = direction > 0
    dist = np.where(
        forward,
        (cells + 1) * cl - position,
        position - cells * cl,
    )
    eta = dist / speed
    idx = np.flatnonzero(eta <= horizon)
    ahead = np.where(forward[idx % forward.size], 1, -1)
    nxt = (cells.ravel()[idx] + ahead) % highway.n_stations
    return idx, nxt, eta.ravel()[idx]
