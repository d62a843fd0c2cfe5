from __future__ import annotations

import numpy as np
import pytest
from scipy import stats

from mobility_reference import advance, cell_index, predict_next_cell
from scsim.catalog import build_catalog
from scsim.mobility import (
    Highway,
    TrafficProfile,
    _fill_ring,
    cell_indices,
    handovers_from_arrays,
    spawn_vehicles,
    traffic_multiplier,
)

HW = Highway(n_stations=10, cell_length=1000.0)
CAT = build_catalog(1000, 1.0)


def next_cell(position, direction, speed=25.0):
    """One-vehicle handover lookahead without a horizon."""
    pos = np.array([position])
    _, nxt, eta = handovers_from_arrays(
        pos, cell_indices(pos, HW), np.array([direction]), np.array([speed]), HW, np.inf
    )
    return int(nxt[0]), float(eta[0])


class TestHighway:
    def test_length_is_exact_product(self):
        assert HW.length == 10 * 1000.0

    def test_rejects_degenerate_geometry(self):
        with pytest.raises(ValueError):
            Highway(0, 1000.0)
        with pytest.raises(ValueError):
            Highway(5, 0.0)
        with pytest.raises(ValueError, match="finite"):
            Highway(10, np.inf)
        with pytest.raises(ValueError, match="ring length"):
            Highway(10, 2e307)


class TestTrafficMultiplier:
    def test_unity_at_peaks(self):
        prof = TrafficProfile()
        assert traffic_multiplier(prof, 8 * 3600.0) == pytest.approx(1.0, abs=1e-12)
        assert traffic_multiplier(prof, 18 * 3600.0) == pytest.approx(1.0, abs=1e-12)

    def test_floor_at_night(self):
        """At 03:00 both bumps contribute < 1e-6 above the floor."""
        prof = TrafficProfile()
        got = traffic_multiplier(prof, 3 * 3600.0)
        assert abs(got - 1.0 / 90.0) < 1e-6

    def test_bounded_over_full_day(self):
        prof = TrafficProfile()
        for t in np.linspace(0, 86400, 1441):
            m = traffic_multiplier(prof, float(t))
            assert 1.0 / 90.0 - 1e-12 <= m <= 1.0 + 1e-12

    def test_continuous_across_midnight(self):
        prof = TrafficProfile()
        assert traffic_multiplier(prof, 0.0) == pytest.approx(
            traffic_multiplier(prof, 86400.0), abs=1e-12
        )
        # near-midnight points differ only infinitesimally
        a = traffic_multiplier(prof, 86399.0)
        b = traffic_multiplier(prof, 1.0)
        assert a == pytest.approx(b, abs=1e-6)

    def test_disabled_profile_pins_to_one(self):
        prof = TrafficProfile(enabled=False)
        assert traffic_multiplier(prof, 3 * 3600.0) == 1.0

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            TrafficProfile(floor_fraction=1.5)
        with pytest.raises(ValueError):
            TrafficProfile(peak_width_h=0.0)
        with pytest.raises(ValueError):
            TrafficProfile(base_density=-0.01)
        with pytest.raises(ValueError, match="peak_width_h"):
            TrafficProfile(peak_width_h=np.inf)
        for hours in ((np.inf, 18.0), (8.0, -np.inf), (np.nan, 18.0)):
            with pytest.raises(ValueError, match="peak_hours"):
                TrafficProfile(peak_hours=hours)


class TestSpawn:
    def test_mean_count_matches_poisson_rate(self):
        """lambda=0.01/m on a 10 km ring: ~100 per direction, 200 total."""
        rng = np.random.default_rng(2)
        totals = [spawn_vehicles(0.01, HW, CAT, rng).n for _ in range(200)]
        mean = np.mean(totals)
        # total is Poisson(200); the mean of 200 spawns has sigma = 1
        assert abs(mean - 200.0) < 3.0

    def test_gaps_are_exponential(self):
        """KS test on ~1e4 successive headways at alpha = 0.001."""
        rng = np.random.default_rng(4)
        big = Highway(n_stations=1000, cell_length=1000.0)
        veh = spawn_vehicles(0.01, big, CAT, rng)
        fwd = np.sort(veh.position[veh.direction == 1])
        gaps = np.diff(fwd, prepend=0.0)
        assert gaps.size >= 9000
        _, pvalue = stats.kstest(gaps, "expon", args=(0.0, 100.0))
        assert pvalue > 0.001

    def test_per_cell_counts_match_poisson(self):
        """Chi-square on per-cell totals pooled over spawns."""
        rng = np.random.default_rng(8)
        counts = []
        for _ in range(300):
            veh = spawn_vehicles(0.01, HW, CAT, rng)
            counts.extend(np.bincount(cell_indices(veh.position, HW), minlength=10))
        counts = np.asarray(counts)
        mu = 2 * 0.01 * 1000.0
        edges = np.arange(0, 41)
        observed = np.bincount(np.clip(counts, 0, 40), minlength=41)
        pmf = stats.poisson.pmf(edges, mu)
        pmf[-1] = 1.0 - pmf[:-1].sum()
        expected = pmf * counts.size
        keep = expected > 5
        chi2 = ((observed[keep] - expected[keep]) ** 2 / expected[keep]).sum()
        pvalue = stats.chi2.sf(chi2, keep.sum() - 1)
        assert pvalue > 0.001

    def test_positions_within_ring(self):
        rng = np.random.default_rng(1)
        veh = spawn_vehicles(0.05, HW, CAT, rng)
        assert np.all(veh.position >= 0) and np.all(veh.position < HW.length)

    def test_fill_ring_draws_until_it_passes_the_ring(self):
        """First chunks of gaps that fall short of the ring are followed by more."""

        class Stub:
            def __init__(self):
                self.drawn = []

            def standard_exponential(self, n):
                self.drawn.append(np.full(n, (0.1, 0.1, 1.0)[len(self.drawn)]))
                return self.drawn[-1]

        stub = Stub()
        positions = _fill_ring(0.5, 100.0, stub)
        assert len(stub.drawn) == 3
        assert np.all(np.diff(positions) > 0) and 0 < positions[0] and positions[-1] < 100.0
        every = np.cumsum(np.concatenate(stub.drawn) / 0.5)
        assert every[-1] >= 100.0
        np.testing.assert_array_equal(positions, every[every < 100.0], strict=True)

    def test_zero_density_spawns_nothing(self):
        veh = spawn_vehicles(0.0, HW, CAT, np.random.default_rng(0))
        assert veh.n == 0

    def test_deterministic_given_seed(self):
        a = spawn_vehicles(0.01, HW, CAT, np.random.default_rng(5))
        b = spawn_vehicles(0.01, HW, CAT, np.random.default_rng(5))
        np.testing.assert_array_equal(a.position, b.position)
        np.testing.assert_array_equal(a.active_content, b.active_content)

    def test_speed_stamped(self):
        veh = spawn_vehicles(0.01, HW, CAT, np.random.default_rng(6), speed=30.0)
        assert np.all(veh.speed == 30.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            spawn_vehicles(-1.0, HW, CAT, np.random.default_rng(0))
        with pytest.raises(ValueError):
            spawn_vehicles(0.01, HW, CAT, np.random.default_rng(0), speed=0.0)
        with pytest.raises(ValueError):
            spawn_vehicles(0.01, HW, CAT, np.random.default_rng(0), speed=np.inf)


class TestAdvance:
    def test_wraps_at_ring_end(self):
        veh = spawn_vehicles(0.01, HW, CAT, np.random.default_rng(3))
        pos = veh.position.copy()
        pos[0] = 9990.0
        veh = type(veh)(pos, np.abs(veh.direction), veh.speed, veh.active_content)
        assert veh.positions_at(1.0, HW)[0] == pytest.approx(15.0, abs=1e-9)

    def test_round_trip_returns_home(self):
        veh = spawn_vehicles(0.01, HW, CAT, np.random.default_rng(3))
        lap = HW.length / 25.0
        np.testing.assert_allclose(veh.positions_at(lap, HW), veh.position, atol=1e-6)

    def test_positions_at_matches_repeated_advance(self):
        veh = spawn_vehicles(0.02, HW, CAT, np.random.default_rng(7))
        stepwise = veh.position
        for _ in range(50):
            stepwise = advance(stepwise, veh.direction, veh.speed, 1.0, HW)
        direct = veh.positions_at(50.0, HW)
        np.testing.assert_allclose(stepwise, direct, atol=1e-7)

    def test_gathered_positions_equal_the_matrix_bit_for_bit(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            cell = float(rng.choice([333.3, 123.456789, rng.uniform(50.0, 1500.0)]))
            hw = Highway(int(rng.integers(1, 13)), cell)
            speed = float(rng.uniform(3.0, 60.0))
            veh = spawn_vehicles(float(rng.uniform(0.001, 0.03)), hw, CAT, rng, speed=speed)
            times = np.arange(int(rng.integers(1, 200))) * float(rng.integers(1, 6))
            matrix = veh.positions_at(times, hw)
            rows = rng.integers(0, times.size, size=300)
            vehicles = rng.integers(0, max(veh.n, 1), size=300) if veh.n else np.zeros(0, np.int64)
            rows = rows[: vehicles.size]
            gathered = veh.positions_at(times[rows], hw, vehicles)
            assert gathered.shape == rows.shape
            assert [x.hex() for x in gathered.tolist()] == [x.hex() for x in matrix[rows, vehicles].tolist()]


class TestCellIndex:
    def test_boundary_belongs_to_higher_cell(self):
        got = cell_indices(np.array([1000.0, 999.9999, 0.0]), HW)
        np.testing.assert_array_equal(got, [1, 0, 0])

    def test_vectorised_matches_scalar(self):
        rng = np.random.default_rng(9)
        pos = rng.random(500) * HW.length
        vec = cell_indices(pos, HW)
        for p, c in zip(pos, vec):
            assert cell_index(float(p), HW) == c


class TestPredictNextCell:
    def test_forward_midcell(self):
        nxt, eta = next_cell(1500.0, 1)
        assert nxt == 2
        assert eta == pytest.approx(20.0, abs=1e-12)

    def test_backward_midcell(self):
        nxt, eta = next_cell(1500.0, -1)
        assert nxt == 0
        assert eta == pytest.approx(20.0, abs=1e-12)

    def test_forward_on_boundary_has_full_cell_ahead(self):
        nxt, eta = next_cell(1000.0, 1)
        assert nxt == 2
        assert eta == pytest.approx(HW.cell_length / 25.0, abs=1e-12)

    def test_backward_on_boundary_exits_immediately(self):
        nxt, eta = next_cell(1000.0, -1)
        assert nxt == 0
        assert eta == 0.0

    def test_wraps_around_ring_seam(self):
        nxt, eta = next_cell(9990.0, 1)
        assert nxt == 0
        assert eta == pytest.approx(0.4, abs=1e-12)
        nxt, eta = next_cell(5.0, -1)
        assert nxt == 9
        assert eta == pytest.approx(0.2, abs=1e-12)

    def test_eta_lands_on_shared_boundary(self):
        """Advancing by eta puts the vehicle within 1e-9 m of the boundary."""
        rng = np.random.default_rng(12)
        position = rng.random(300) * HW.length
        direction = rng.choice([-1, 1], size=300)
        speed = 1.0 + rng.random(300) * 40.0
        idx, _, eta = handovers_from_arrays(
            position, cell_indices(position, HW), direction, speed, HW, np.inf
        )
        assert idx.size == 300
        landed = (position + direction * speed * eta) % HW.length
        off = landed % HW.cell_length
        assert np.all(np.minimum(off, HW.cell_length - off) < 1e-9)

    def test_vectorised_matches_scalar(self):
        veh = spawn_vehicles(0.02, HW, CAT, np.random.default_rng(13))
        cells = cell_indices(veh.position, HW)
        idx, nxt, eta = handovers_from_arrays(veh.position, cells, veh.direction, veh.speed, HW, np.inf)
        assert idx.size == veh.n
        for k in range(veh.n):
            want_nxt, want_eta = predict_next_cell(
                float(veh.position[k]), int(veh.direction[k]), veh.speed, HW
            )
            assert nxt[k] == want_nxt
            assert eta[k] == pytest.approx(want_eta, abs=1e-9)

    def test_horizon_filters(self):
        veh = spawn_vehicles(0.02, HW, CAT, np.random.default_rng(14))
        cells = cell_indices(veh.position, HW)
        idx, _, eta = handovers_from_arrays(
            veh.position, cells, veh.direction, veh.speed, HW, horizon=1.0
        )
        assert np.all(eta <= 1.0)
        full_eta = [
            predict_next_cell(float(p), int(d), veh.speed, HW)[1]
            for p, d in zip(veh.position, veh.direction)
        ]
        assert idx.size == int((np.asarray(full_eta) <= 1.0).sum())
        # a (steps, n) block gives the rows' results, indices flattened row-major
        positions = veh.positions_at(np.arange(1.0, 9.0) * 7.0, HW)
        positions[3, :5] = np.array([0.0, 1000.0, 2000.0, 9000.0, 5000.0])
        cells = cell_indices(positions, HW)
        idx, nxt, eta = handovers_from_arrays(
            positions, cells, veh.direction, veh.speed, HW, horizon=1.0
        )
        rows = [
            handovers_from_arrays(p, c, veh.direction, veh.speed, HW, horizon=1.0)
            for p, c in zip(positions, cells)
        ]
        assert idx.tolist() == [s * veh.n + i for s, row in enumerate(rows) for i in row[0].tolist()]
        assert nxt.tolist() == [c for row in rows for c in row[1].tolist()]
        assert eta.tolist() == [t for row in rows for t in row[2].tolist()]
        assert idx.size > positions.shape[0]
        # ascending, so each step's entries form one run
        assert np.all(np.diff(idx) > 0)
