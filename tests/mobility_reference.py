"""Scalar mobility oracles for the vectorised-vs-scalar tests.

These are the library's original one-vehicle helpers, kept verbatim
apart from taking a vehicle's position, direction and speed as plain
numbers. The library now works on arrays only; the tests require its
array functions to agree with these.
"""
from scsim.mobility import Highway


def advance(position, direction, speed, dt: float, highway: Highway):
    """Move ``dt`` seconds along ``direction``, wrapping around the ring."""
    return (position + direction * speed * dt) % highway.length


def cell_index(position: float, highway: Highway) -> int:
    """Index of the station cell containing ``position`` (boundary goes up)."""
    if not 0.0 <= position < highway.length:
        raise ValueError(f"position must lie in [0, {highway.length}), got {position}")
    return int(position // highway.cell_length) % highway.n_stations


def predict_next_cell(
    position: float, direction: int, speed: float, highway: Highway
) -> tuple[int, float]:
    """Station cell the vehicle enters next, and the exact seconds until then.

    A vehicle sitting on a boundary already belongs to the higher cell, so
    travelling forward it has a full cell to cross, while travelling
    backward it is about to exit immediately (eta 0).
    """
    cell = cell_index(position, highway)
    cl = highway.cell_length
    if direction > 0:
        dist = (cell + 1) * cl - position
        nxt = (cell + 1) % highway.n_stations
    else:
        dist = position - cell * cl
        nxt = (cell - 1) % highway.n_stations
    return nxt, dist / speed
