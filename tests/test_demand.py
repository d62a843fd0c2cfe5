"""The demand pass's event machinery against the per-vehicle-step matrices it replaces.

Each test builds a block of vehicles, evaluates the full trajectory
matrix ``cell_indices(positions_at(np.arange(n_sub + 1) * dt))`` the old
way, and requires the crossing finder, the lookahead and the hit counts
to give exactly what that matrix gives.
"""
import numpy as np
import pytest

from scsim import engine
from scsim.mobility import Highway, VehicleSet, cell_indices, handovers_from_arrays


def random_block(rng, n_stations=None, stride_cells=None):
    """A highway, vehicles on it, a step length and a step count.

    A quarter of the vehicles sit exactly on a cell boundary. The step
    moves ``stride_cells`` cells, by default anything from a hundredth of
    a cell to two cells, so some blocks sample every row.
    """
    n_stations = int(rng.integers(1, 13)) if n_stations is None else n_stations
    pick = int(rng.integers(0, 3))
    cell = (333.3, 123.456789, float(rng.uniform(50.0, 1500.0)))[pick]
    hw = Highway(n_stations, cell)
    dt = float(rng.choice([1.0, 2.0, 5.0]))
    if stride_cells is None:
        stride_cells = 10.0 ** rng.uniform(-2.0, 0.3)
    speed = stride_cells * cell / dt
    n = int(rng.integers(0, 60))
    position = rng.uniform(0.0, hw.length, n)
    on_edge = rng.random(n) < 0.25
    position[on_edge] = rng.integers(0, n_stations, int(on_edge.sum())) * cell
    direction = rng.choice(np.array([1, -1], dtype=np.int64), n)
    content = rng.integers(1, 40, n)
    return hw, VehicleSet(position, direction, float(speed), content), dt, int(rng.integers(1, 300))


def matrix(hw, vehicles, dt, n_sub):
    positions = vehicles.positions_at(np.arange(n_sub + 1) * dt, hw)
    return positions, cell_indices(positions, hw)


def carried(veh, row, cells, n, n_sub):
    """Every vehicle's cell on every row, carried forward from its sampled rows."""
    full = np.full((n_sub + 1, n), -1, dtype=np.intp)
    for v in range(n):
        mine = veh == v
        rows, values = row[mine], cells[mine]
        assert rows[0] == 0 and rows[-1] == n_sub
        assert np.all(np.diff(rows) > 0)
        full[:, v] = values[np.searchsorted(rows, np.arange(n_sub + 1), side="right") - 1]
    return full


def assert_finder_matches(hw, vehicles, dt, n_sub, guesses):
    positions, cells = matrix(hw, vehicles, dt, n_sub)
    sample = engine._sample_cells(vehicles, hw, dt, n_sub, guesses)
    veh, row, got_positions, got = sample
    assert np.all(np.diff(veh * (n_sub + 1) + row) > 0)
    # each sampled position and cell is the matrix entry, and the gaps hide no crossing
    np.testing.assert_array_equal(got_positions, positions[row, veh], strict=True)
    np.testing.assert_array_equal(got, cells[row, veh])
    np.testing.assert_array_equal(carried(veh, row, got, vehicles.n, n_sub), cells)
    # it holds the rows the lookahead reads: c - 2 .. c of each crossing into row c, and the last two
    sampled = np.zeros_like(cells, dtype=bool)
    sampled[row, veh] = True
    crossing = np.zeros_like(sampled)
    crossing[1:] = cells[1:] != cells[:-1]
    need = crossing.copy()
    need[:-1] |= crossing[1:]
    need[:-2] |= crossing[2:]
    need[-3:-1] = True
    assert not (need & ~sampled).any()
    return sample


def segments_of(sample, n_sub):
    veh, row, _, cells = sample
    return engine._segments(veh, row, cells, n_sub)


def test_crossing_finder_matches_the_matrix():
    rng = np.random.default_rng(2210)
    modes = set()
    for _ in range(300):
        hw, vehicles, dt, n_sub = random_block(rng)
        guesses = engine._guess_crossings(vehicles, hw, dt, n_sub)
        modes.add(guesses is None)
        assert_finder_matches(hw, vehicles, dt, n_sub, guesses)
    assert modes == {True, False}


def test_crossing_finder_on_a_one_station_ring():
    rng = np.random.default_rng(1)
    for _ in range(20):
        hw, vehicles, dt, n_sub = random_block(rng, n_stations=1)
        guesses = engine._guess_crossings(vehicles, hw, dt, n_sub)
        *_, cells = assert_finder_matches(hw, vehicles, dt, n_sub, guesses)
        assert not cells.any()


def test_finder_samples_every_row_where_the_guesses_miss():
    rng = np.random.default_rng(7)
    fired = 0
    for _ in range(100):
        hw, vehicles, dt, n_sub = random_block(rng, n_stations=int(rng.integers(2, 13)), stride_cells=0.05)
        guesses = engine._guess_crossings(vehicles, hw, dt, n_sub)
        assert guesses is not None
        # ten rows late: every window misses its crossing
        veh, *_ = assert_finder_matches(hw, vehicles, dt, n_sub, guesses + 10)
        dense = np.bincount(veh, minlength=vehicles.n) == n_sub + 1
        fired += int(dense.sum())
        # a vehicle that crossed before the rows every vehicle is sampled on,
        # n_sub - 2 .. n_sub, is now sampled on every row
        crossed = np.flatnonzero(np.ptp(matrix(hw, vehicles, dt, n_sub)[1][:n_sub - 1], axis=0) > 0)
        assert dense[crossed].all()
    assert fired > 0


def test_guesses_fall_back_to_every_row_for_long_or_negligible_steps():
    rng = np.random.default_rng(3)
    hw, vehicles, dt, n_sub = random_block(rng, n_stations=5, stride_cells=0.3)
    assert engine._guess_crossings(vehicles, hw, dt, n_sub) is None
    hw, vehicles, dt, n_sub = random_block(rng, n_stations=5, stride_cells=0.25)
    assert engine._guess_crossings(vehicles, hw, dt, n_sub) is not None
    hw, vehicles, dt, n_sub = random_block(rng, n_stations=5, stride_cells=1e-13)
    assert engine._guess_crossings(vehicles, hw, dt, n_sub) is None


def matrix_requests(hw, vehicles, dt, n_sub, popular):
    """The old block lookahead: every start-of-step row of every step with a crossing."""
    positions, cells = matrix(hw, vehicles, dt, n_sub)
    changed = (cells[1:] != cells[:-1]).any(axis=1)
    flat, nxt, eta = handovers_from_arrays(
        positions[:-1], cells[:-1], vehicles.direction, vehicles.speed, hw, horizon=dt
    )
    step = flat // max(vehicles.n, 1)
    ahead = vehicles.active_content[flat % max(vehicles.n, 1)]
    keep = changed[step] & (ahead > popular[nxt])
    step, nxt, eta, ahead = step[keep], nxt[keep], eta[keep], ahead[keep]
    order = np.lexsort((ahead, nxt, eta, step))
    return step[order], nxt[order], ahead[order]


# -1: every crossing lands a row past its window (the gap check); +1: a row
# early, which leaves out the lookahead's first row; 10: every window misses
@pytest.mark.parametrize("shift", [-1, 0, 1, 10])
def test_lookahead_matches_the_matrix(shift, monkeypatch):
    rng = np.random.default_rng(2211 + shift)
    # the finder evaluates positions once, and once more when it falls back
    calls = []
    real = VehicleSet.positions_at
    monkeypatch.setattr(VehicleSet, "positions_at", lambda *args: calls.append(1) or real(*args))
    fired = 0
    for _ in range(200):
        hw, vehicles, dt, n_sub = random_block(rng)
        guesses = engine._guess_crossings(vehicles, hw, dt, n_sub)
        if guesses is not None:
            guesses = guesses + shift
        calls.clear()
        sample = engine._sample_cells(vehicles, hw, dt, n_sub, guesses)
        fired += len(calls) - 1
        assert_finder_matches(hw, vehicles, dt, n_sub, guesses)
        popular = rng.integers(0, 10, hw.n_stations)
        got = engine._requests(vehicles, hw, dt, n_sub, sample, segments_of(sample, n_sub), popular)
        want = matrix_requests(hw, vehicles, dt, n_sub, popular)
        for g, w in zip(got, want):
            np.testing.assert_array_equal(g, w)
    # shifted guesses send vehicles to the fallback
    assert fired > 0 or shift == 0


def test_segments_count_handovers_like_the_matrix():
    rng = np.random.default_rng(5)
    for _ in range(100):
        hw, vehicles, dt, n_sub = random_block(rng)
        _, cells = matrix(hw, vehicles, dt, n_sub)
        guesses = engine._guess_crossings(vehicles, hw, dt, n_sub)
        sample = engine._sample_cells(vehicles, hw, dt, n_sub, guesses)
        seg_veh, cell, a, b, crossed = segments_of(sample, n_sub)
        assert np.count_nonzero(crossed) == np.count_nonzero(cells[1:] != cells[:-1])
        occupancy = np.zeros((n_sub, hw.n_stations), dtype=np.int64)
        for v, c, lo, hi in zip(seg_veh, cell, a, b):
            occupancy[lo:hi, c] += 1
        want = np.stack([np.bincount(row, minlength=hw.n_stations) for row in cells[1:]])
        np.testing.assert_array_equal(occupancy, want)


def random_log(rng, mask, n_sub, n_files):
    """Random picks applied to ``mask`` step by step, as ``(step, station, content, removed)``, with every step's mask after them."""
    picks, after = [], []
    n_stations = mask.shape[0]
    for s in range(n_sub):
        for _ in range(int(rng.poisson(1.5))):
            station, content = int(rng.integers(0, n_stations)), int(rng.integers(1, n_files + 1))
            mask[station, content] = True
            # an eviction that drops an id, or none (a free slot, or a popular partition grown over it)
            removed = int(rng.integers(1, n_files + 1)) if rng.random() < 0.7 else 0
            if removed:
                mask[station, removed] = False
            picks.append((s, station, content, removed))
        after.append(mask.copy())
    return tuple(np.array(picks, dtype=np.int64).reshape(-1, 4).T), after


def test_hit_counts_match_a_lookup_per_step():
    rng = np.random.default_rng(2212)
    for _ in range(100):
        hw, vehicles, dt, n_sub = random_block(rng)
        n_sizes, n_files = int(rng.integers(1, 4)), 40
        start = rng.random((n_sizes, hw.n_stations, n_files + 1)) < 0.3
        masks, logs = start.copy(), []
        after = []
        for k in range(n_sizes):
            log, states = random_log(rng, masks[k], n_sub, n_files)
            logs.append(log)
            after.append(states)
        _, cells = matrix(hw, vehicles, dt, n_sub)
        guesses = engine._guess_crossings(vehicles, hw, dt, n_sub)
        segments = segments_of(engine._sample_cells(vehicles, hw, dt, n_sub, guesses), n_sub)
        crossed = cells[1:] != cells[:-1]
        for k in range(n_sizes):
            hits, continuity = engine._count_hits(
                segments, vehicles.active_content, start[k], engine._flips(logs[k], start[k], n_sub), n_sub
            )
            cached = np.array([after[k][s][cells[s + 1], vehicles.active_content] for s in range(n_sub)])
            cached = cached.reshape(n_sub, vehicles.n)
            want = np.stack([np.bincount(cells[s + 1][cached[s]], minlength=hw.n_stations)
                             for s in range(n_sub)])
            np.testing.assert_array_equal(hits, want)
            assert continuity == np.count_nonzero(crossed & cached)
