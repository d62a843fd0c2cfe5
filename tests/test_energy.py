from __future__ import annotations

import math

import numpy as np
import pytest

from scsim.energy import (
    Battery,
    EnergyProfile,
    battery_step,
    harvest_rates,
    ledger_residual,
    mean_rate,
    settle,
)


class TestHarvestRate:
    def test_midmorning_reference_value(self):
        """09:00 is a quarter through daylight: sin(pi/4)."""
        (rate,) = harvest_rates(EnergyProfile(), [9 * 3600.0])
        assert rate == pytest.approx(math.sin(math.pi / 4), abs=1e-12)
        assert rate == pytest.approx(0.7071067811865476, abs=1e-12)

    def test_zero_outside_daylight(self):
        assert harvest_rates(EnergyProfile(), [21 * 3600.0, 3 * 3600.0]).tolist() == [0.0, 0.0]

    def test_peak_at_noon(self):
        prof = EnergyProfile(peak_rate=2.5)
        assert harvest_rates(prof, [12 * 3600.0])[0] == pytest.approx(2.5, abs=1e-12)

    def test_never_negative_and_wraps_daily(self):
        prof = EnergyProfile()
        ts = np.linspace(0, 2 * 86400, 977)
        rates = harvest_rates(prof, ts)
        assert np.all(rates >= 0.0)
        np.testing.assert_allclose(rates, harvest_rates(prof, ts % 86400), rtol=0, atol=1e-12)

    def test_constant_and_zero_kinds(self):
        assert harvest_rates(EnergyProfile(kind="constant", peak_rate=0.7), [123.0]).tolist() == [0.7]
        assert harvest_rates(EnergyProfile(kind="zero"), [43200.0]).tolist() == [0.0]

    def test_rejects_bad_profiles(self):
        with pytest.raises(ValueError):
            EnergyProfile(kind="wind")
        with pytest.raises(ValueError):
            EnergyProfile(sunrise_h=18.0, sunset_h=6.0)
        with pytest.raises(ValueError, match="finite"):
            EnergyProfile(sunset_h=math.inf)
        with pytest.raises(ValueError, match="finite"):
            EnergyProfile(sunrise_h=-math.inf)
        with pytest.raises(ValueError):
            EnergyProfile(peak_rate=-1.0)


class TestMeanRate:
    def test_full_day_solar_integral(self):
        """Daily energy is (2/pi) * peak * daylight: about 7.639 unit-hours."""
        prof = EnergyProfile()
        energy_hours = mean_rate(prof, 0.0, 86400.0) * 24.0
        assert energy_hours == pytest.approx(2.0 / math.pi * 12.0, abs=1e-9)
        assert energy_hours == pytest.approx(7.639, abs=5e-4)

    def test_matches_riemann_sum(self):
        prof = EnergyProfile(sunrise_h=5.5, sunset_h=19.25, peak_rate=0.8)
        for t0, t1 in [(0.0, 86400.0), (7 * 3600.0, 9 * 3600.0), (3 * 3600.0, 6.25 * 3600.0), (60000.0, 200000.0)]:
            ts = np.linspace(t0, t1, 200001)
            mids = (ts[:-1] + ts[1:]) / 2
            numeric = np.mean(harvest_rates(prof, mids))
            assert mean_rate(prof, t0, t1) == pytest.approx(numeric, abs=1e-5)

    def test_night_window_is_zero(self):
        prof = EnergyProfile()
        assert mean_rate(prof, 19 * 3600.0, 23 * 3600.0) == 0.0

    def test_constant_kind(self):
        assert mean_rate(EnergyProfile(kind="constant", peak_rate=0.3), 0.0, 900.0) == 0.3

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError):
            mean_rate(EnergyProfile(), 100.0, 100.0)


class TestBatteryStep:
    def test_overflow_is_booked(self):
        batt = Battery(level=0.0, capacity=1.0)
        batt, delivered = battery_step(batt, harvest=2.0, draw=0.0, dt=1.0)
        assert batt.level == pytest.approx(1.0, abs=1e-12)
        assert batt.cum_overflow == pytest.approx(1.0, abs=1e-12)
        assert delivered == 0.0

    def test_delivery_capped_by_store_plus_harvest(self):
        batt = Battery(level=1.0)
        batt, delivered = battery_step(batt, harvest=0.0, draw=5.0, dt=1.0)
        assert delivered == pytest.approx(1.0, abs=1e-12)
        assert batt.level == pytest.approx(0.0, abs=1e-12)
        assert batt.cum_deficit == pytest.approx(4.0, abs=1e-12)

    def test_harvest_before_consumption(self):
        """Same-step harvest is drawable: empty store still serves the load."""
        batt = Battery(level=0.0)
        batt, delivered = battery_step(batt, harvest=0.6, draw=0.5, dt=1.0)
        assert delivered == pytest.approx(0.5, abs=1e-12)
        assert batt.level == pytest.approx(0.1, abs=1e-12)
        assert batt.cum_deficit == 0.0

    def test_ledger_identity_random_walk(self):
        """Conservation holds after thousands of random steps."""
        rng = np.random.default_rng(21)
        batt = Battery(level=0.5, capacity=3.0)
        for _ in range(5000):
            battery_step(batt, float(rng.random() * 2), float(rng.random() * 2), dt=float(rng.random() * 9 + 1))
        assert abs(ledger_residual(batt)) < 1e-9
        assert batt.level >= 0.0
        assert batt.level <= 3.0 + 1e-12

    def test_deficit_excluded_from_identity(self):
        batt = Battery(level=0.0, capacity=1.0)
        battery_step(batt, harvest=0.0, draw=1.0, dt=1.0)
        assert batt.cum_deficit == pytest.approx(1.0, abs=1e-12)
        assert abs(ledger_residual(batt)) < 1e-12

    def test_full_day_solar_charge_matches_integral(self):
        """Idle battery over one day accumulates the analytic solar energy."""
        prof = EnergyProfile()
        batt = Battery(level=0.0)
        for harvest in harvest_rates(prof, np.arange(0.0, 86400.0, 60.0)).tolist():
            battery_step(batt, harvest, 0.0, dt=60.0)
        want = mean_rate(prof, 0.0, 86400.0) * 86400.0
        assert batt.level == pytest.approx(want, abs=0.5)
        assert abs(ledger_residual(batt)) < 1e-9

    def test_array_bank_matches_scalar_batteries(self):
        """Stepping a 3-wide bank equals stepping 3 scalar batteries."""
        rng = np.random.default_rng(33)
        bank = Battery(level=np.array([0.0, 1.0, 2.0]), capacity=2.5)
        singles = [Battery(level=v, capacity=2.5) for v in (0.0, 1.0, 2.0)]
        for _ in range(500):
            h = rng.random(3) * 1.5
            d = rng.random(3) * 1.5
            _, dv = battery_step(bank, h, d, dt=2.0)
            for i, s in enumerate(singles):
                _, dsi = battery_step(s, float(h[i]), float(d[i]), dt=2.0)
                assert dv[i] == pytest.approx(dsi, abs=1e-12)
        for i, s in enumerate(singles):
            assert bank.level[i] == pytest.approx(s.level, abs=1e-12)
            assert bank.cum_overflow[i] == pytest.approx(s.cum_overflow, abs=1e-12)
            assert bank.cum_deficit[i] == pytest.approx(s.cum_deficit, abs=1e-12)

    def test_unbounded_capacity_never_overflows(self):
        batt = Battery(level=0.0)
        for _ in range(100):
            battery_step(batt, 5.0, 0.0, dt=10.0)
        assert batt.cum_overflow == 0.0
        assert batt.level == pytest.approx(5000.0, abs=1e-9)

    def test_rejects_bad_construction_and_dt(self):
        with pytest.raises(ValueError):
            Battery(level=-1.0)
        with pytest.raises(ValueError):
            Battery(level=2.0, capacity=1.0)
        with pytest.raises(ValueError):
            Battery(capacity=-1.0)
        with pytest.raises(ValueError, match="capacity"):
            Battery(capacity=math.nan)
        with pytest.raises(ValueError, match="level"):
            Battery(level=math.nan)
        assert Battery(capacity=math.inf).capacity == math.inf
        with pytest.raises(ValueError):
            battery_step(Battery(), 0.0, 0.0, dt=0.0)


LEDGER = ("level", "cum_harvested", "cum_consumed", "cum_overflow", "cum_deficit")


def loop_run(batt, harvest, rule, dt):
    """The step loop :func:`settle` replaces: delivered power and end level per step.

    ``rule(s, level, harvest)`` is the rate step ``s`` requests at ``level``.
    """
    delivered, level = [], []
    for s, h in enumerate(harvest.tolist()):
        _, d = battery_step(batt, h, rule(s, batt.level, h), dt)
        delivered.append(d)
        level.append(batt.level)
    shape = (len(harvest),) + np.shape(batt.level)
    return np.reshape(delivered, shape), np.reshape(level, shape)


def recording(draw):
    """A level-blind controller requesting ``draw``; logs each pass's first step and guess.

    The call at unbounded levels that gives :func:`settle` its first
    guess comes before any pass and is not logged.
    """
    passes = []

    def draw_at(k, levels, harvest):
        if np.isposinf(levels).all():
            assert k == 0 and not passes
        else:
            passes.append((k, levels.copy()))
        return draw[k:] if np.ndim(draw) else draw

    return draw_at, passes


def assert_same_ledger(got, want):
    for name in LEDGER:
        assert type(getattr(got, name)) is type(getattr(want, name)), name
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name), err_msg=name)


class TestBatteryRun:
    def test_guess_follows_nominal_draws_and_pins_at_bounds(self):
        batt = Battery(level=np.array([1.0, 1.25]), capacity=1.5)
        draw = np.array([[0.4, 0.0]] * 5)
        draw_at, passes = recording(draw)
        _, level = settle(batt, np.array([0.0, 0.25, 0.25, 0.0, 0.0]), draw_at, dt=1.0)
        # station 0 ends step 3 below zero, station 1 ends step 2 above
        # capacity; the pinned guesses hold, so one pass settles the block
        ((k, guess),) = passes
        assert k == 0
        assert guess[:, 0].tolist() == [1.0, 0.6, 0.44999999999999996, 0.29999999999999993, 0.0]
        assert guess[:, 1].tolist() == [1.25, 1.25, 1.5, 1.5, 1.5]
        np.testing.assert_array_equal(level[:-1], guess[1:])
        draw_at, passes = recording(1.0)
        settle(Battery(level=np.array([0.5])), np.zeros(3), draw_at, dt=1.0)
        ((_, single),) = passes
        assert single[:, 0].tolist() == [0.5, 0.0, 0.0]

    def test_each_guess_follows_what_an_unbounded_store_is_asked(self):
        """Every pass guesses from the draws asked at infinite levels, sliced to its steps."""
        calls = []

        def draw_at(k, levels, harvest):
            calls.append(levels[:, 0].tolist())
            return np.minimum(0.5, levels / 8)

        settle(Battery(level=np.array([2.0])), np.zeros(4), draw_at, dt=1.0)
        # an unbounded store is asked 0.5 a step; the true draws are less,
        # so every guess misses after one step and the rest is guessed again
        assert calls[0] == [math.inf] * 4
        assert calls[1:3] == [[2.0, 1.5, 1.0, 0.5], [1.75, 1.25, 0.75]]
        assert len(calls) == 5

    def test_true_level_above_capacity_is_not_pinned(self):
        """Rounding can leave a level an ulp above capacity; row 0 still starts there."""
        harvest = np.array([0.0, 0.0, 0.5])
        above = np.nextafter(1.0, 2.0)
        batt = Battery(level=np.array([1.0]), capacity=1.0)
        want = Battery(level=np.array([1.0]), capacity=1.0)
        batt.level, want.level = np.array([above]), np.array([above])
        draw_at, passes = recording(0.25)
        delivered, level = settle(batt, harvest, draw_at, dt=1.0)
        want_delivered, want_level = loop_run(want, harvest, lambda *_: 0.25, 1.0)
        assert passes[0][1][0].tolist() == [above]
        np.testing.assert_array_equal(delivered, want_delivered)
        np.testing.assert_array_equal(level, want_level)
        assert_same_ledger(batt, want)

    def test_unbinding_block_takes_every_step(self):
        harvest = np.array([0.3, 0.9, 0.0, 0.4])
        draw = np.array([[0.2, 0.5], [0.1, 0.7], [0.3, 0.2], [0.6, 0.1]])
        batt = Battery(level=np.array([2.0, 3.0]))
        want = Battery(level=np.array([2.0, 3.0]))
        draw_at, passes = recording(draw)
        delivered, level = settle(batt, harvest, draw_at, 1.0)
        want_delivered, want_level = loop_run(want, harvest, lambda s, *_: draw[s], 1.0)
        assert [k for k, _ in passes] == [0]
        np.testing.assert_array_equal(delivered, want_delivered)
        np.testing.assert_array_equal(level, want_level)
        assert_same_ledger(batt, want)

    def test_block_then_loop_matches_step_loop_bit_for_bit(self):
        """Wrong guesses are guessed again; the result is the loop's, bit for bit."""
        rng = np.random.default_rng(7)
        reguessed = 0
        for trial in range(300):
            shape = (1,) if trial % 3 == 0 else (int(rng.integers(1, 5)),)
            capacity = float(rng.choice([math.inf, rng.uniform(0.5, 4.0)]))
            dt = float(rng.choice([1.0, 2.0, 0.5]))
            n_sub = int(rng.integers(1, 30))
            level0 = rng.uniform(0.0, min(capacity, 3.0), size=shape)
            harvest = rng.uniform(0.0, 1.5, size=n_sub) * rng.integers(0, 2, size=n_sub)
            # the controller asks for its nominal draw above a threshold
            # level and for less below it, so guesses from nominal miss
            nominal = rng.uniform(0.0, 1.5, size=(n_sub,) + shape)
            low = nominal * rng.uniform(0.0, 1.0, size=(n_sub,) + shape)
            threshold = rng.uniform(0.0, 2.0, size=(n_sub,) + shape)
            ks = []

            def draw_at(k, levels, h):
                if np.isfinite(levels).all():
                    ks.append(k)
                    # each guess starts at the true level, even an ulp above capacity
                    np.testing.assert_array_equal(levels[0], batt.level)
                return np.where(levels > threshold[k:], nominal[k:], low[k:])

            def rule(s, level, h):
                return np.where(level > threshold[s], nominal[s], low[s])[()]

            batt = Battery(level=level0, capacity=capacity)
            want = Battery(level=level0, capacity=capacity)
            delivered, level = settle(batt, harvest, draw_at, dt)
            want_delivered, want_level = loop_run(want, harvest, rule, dt)
            assert ks[0] == 0 and ks == sorted(set(ks)) and ks[-1] < n_sub
            reguessed += len(ks) > 1
            np.testing.assert_array_equal(delivered, want_delivered)
            np.testing.assert_array_equal(level, want_level)
            assert_same_ledger(batt, want)
        assert reguessed > 50

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            settle(Battery(level=np.zeros(1)), np.zeros(2), lambda *_: 0.0, 0.0)
