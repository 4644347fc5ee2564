"""Tests for the ESP/grid substrate."""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.grid import (
    DemandResponseEvent,
    DualSourceSupply,
    ElectricityPriceSchedule,
    ElectricityServiceProvider,
    GridEventSchedule,
    RegionMarket,
)
from repro.units import DAY, HOUR


class TestPriceSchedule:
    def test_flat(self):
        schedule = ElectricityPriceSchedule.flat(0.10)
        assert schedule.price_at(0.0) == 0.10
        assert schedule.price_at(13 * HOUR) == 0.10

    def test_day_night(self):
        schedule = ElectricityPriceSchedule.day_night(0.20, 0.08)
        assert schedule.price_at(3 * HOUR) == 0.08
        assert schedule.price_at(12 * HOUR) == 0.20
        assert schedule.price_at(23 * HOUR) == 0.08

    def test_wraps_across_days(self):
        schedule = ElectricityPriceSchedule.day_night(0.20, 0.08)
        assert schedule.price_at(26 * HOUR) == schedule.price_at(2 * HOUR)

    def test_gap_rejected(self):
        with pytest.raises(ConfigurationError):
            ElectricityPriceSchedule(((0.0, 10.0, 0.1), (11.0, 24.0, 0.1)))

    def test_partial_coverage_rejected(self):
        with pytest.raises(ConfigurationError):
            ElectricityPriceSchedule(((0.0, 20.0, 0.1),))

    def test_negative_price_rejected(self):
        with pytest.raises(ConfigurationError):
            ElectricityPriceSchedule(((0.0, 24.0, -0.1),))


class TestEsp:
    def test_cost_of_series(self):
        esp = ElectricityServiceProvider(ElectricityPriceSchedule.flat(0.10))
        # 1000 W for 2 hours = 2 kWh at 0.10 = 0.20.
        cost = esp.cost_of([0.0, HOUR, 2 * HOUR], [1000.0, 1000.0, 1000.0])
        assert cost == pytest.approx(0.20)

    def test_demand_penalty(self):
        esp = ElectricityServiceProvider(
            ElectricityPriceSchedule.flat(0.10),
            demand_limit_watts=500.0,
            penalty_per_kwh=1.0,
        )
        cost = esp.cost_of([0.0, HOUR], [1000.0, 1000.0])
        # 1 kWh at 0.10 + 0.5 kWh excess at 1.0.
        assert cost == pytest.approx(0.10 + 0.50)

    def test_mismatched_lengths_rejected(self):
        esp = ElectricityServiceProvider(ElectricityPriceSchedule.flat(0.1))
        with pytest.raises(ConfigurationError):
            esp.cost_of([0.0], [1.0, 2.0])


class TestGridEvents:
    def test_active_and_next(self):
        events = GridEventSchedule([
            DemandResponseEvent(100.0, 200.0, 1000.0),
            DemandResponseEvent(300.0, 400.0, 2000.0),
        ])
        assert events.active_event(150.0).limit_watts == 1000.0
        assert events.active_event(250.0) is None
        assert events.next_event(250.0).start == 300.0
        assert events.next_event(500.0) is None

    def test_limit_at(self):
        events = GridEventSchedule([DemandResponseEvent(0.0, 10.0, 500.0)])
        assert events.limit_at(5.0) == 500.0
        assert events.limit_at(20.0) == float("inf")
        assert events.limit_at(20.0, default=9.0) == 9.0

    def test_overlap_rejected(self):
        with pytest.raises(ConfigurationError):
            GridEventSchedule([
                DemandResponseEvent(0.0, 100.0, 1.0),
                DemandResponseEvent(50.0, 150.0, 1.0),
            ])

    def test_event_validation(self):
        with pytest.raises(ConfigurationError):
            DemandResponseEvent(10.0, 5.0, 100.0)
        with pytest.raises(ConfigurationError):
            DemandResponseEvent(0.0, 10.0, 0.0)


class TestDualSourceSupply:
    def _supply(self, turbine_cost):
        return DualSourceSupply(
            ElectricityPriceSchedule.day_night(0.30, 0.05),
            turbine_capacity_watts=5000.0,
            turbine_cost_per_kwh=turbine_cost,
        )

    def test_turbine_wins_at_peak(self):
        supply = self._supply(turbine_cost=0.15)
        decision = supply.decide(12 * HOUR, 4000.0)  # daytime: grid 0.30
        assert decision.turbine_watts == 4000.0
        assert decision.grid_watts == 0.0

    def test_grid_wins_at_night(self):
        supply = self._supply(turbine_cost=0.15)
        decision = supply.decide(2 * HOUR, 4000.0)  # night: grid 0.05
        assert decision.grid_watts == 4000.0
        assert decision.turbine_watts == 0.0

    def test_turbine_capacity_limits(self):
        supply = self._supply(turbine_cost=0.01)
        decision = supply.decide(12 * HOUR, 8000.0)
        assert decision.turbine_watts == 5000.0
        assert decision.grid_watts == 3000.0
        assert decision.total_watts == 8000.0

    def test_cost_accounting(self):
        supply = self._supply(turbine_cost=0.15)
        decision = supply.decide(12 * HOUR, 2000.0)
        assert decision.cost_per_hour == pytest.approx(2.0 * 0.15)

    def test_daily_cost_integrates_tariff(self):
        cheap_turbine = self._supply(turbine_cost=0.01).daily_cost(1000.0)
        no_turbine = DualSourceSupply(
            ElectricityPriceSchedule.day_night(0.30, 0.05),
            turbine_capacity_watts=0.0,
            turbine_cost_per_kwh=0.01,
        ).daily_cost(1000.0)
        assert cheap_turbine < no_turbine

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            DualSourceSupply(ElectricityPriceSchedule.flat(0.1), -1.0, 0.1)
        supply = self._supply(0.1)
        with pytest.raises(ConfigurationError):
            supply.decide(0.0, -5.0)

    def test_daily_cost_sampling_grid(self):
        # Day band [8, 20) aligns with both the 2-hour (samples=12) and
        # the half-hour (samples=48) grids, so the Riemann sum is exact
        # and must match the analytic integral: with the turbine (0.15)
        # undercutting the day tariff (0.30) and the grid winning at
        # night (0.05), 1 kW costs 12h*0.15 + 12h*0.05 = 2.40 per day.
        supply = DualSourceSupply(
            ElectricityPriceSchedule.day_night(0.30, 0.05, 8.0, 20.0),
            turbine_capacity_watts=5000.0,
            turbine_cost_per_kwh=0.15,
        )
        expected = 12 * 0.15 + 12 * 0.05
        assert supply.daily_cost(1000.0, samples=12) == pytest.approx(expected)
        assert supply.daily_cost(1000.0, samples=48) == pytest.approx(expected)

    def test_daily_cost_small_sample_counts_span_the_day(self):
        # The pre-fix bug: samples != 24 walked 1-hour steps and only
        # covered the first `samples` hours.  With a day band starting
        # at hour 8, samples=4 (6-hour steps at hours 0/6/12/18) must
        # still see the day tariff.
        supply = DualSourceSupply(
            ElectricityPriceSchedule.day_night(0.30, 0.05, 8.0, 20.0),
            turbine_capacity_watts=0.0,
            turbine_cost_per_kwh=1.0,
        )
        cost = supply.daily_cost(1000.0, samples=4)
        # hours 0 and 6 are night; 12 and 18 are day; each weighted 6 h.
        assert cost == pytest.approx(6 * (2 * 0.05 + 2 * 0.30))

    def test_daily_cost_rejects_zero_samples(self):
        supply = self._supply(0.1)
        with pytest.raises(ConfigurationError):
            supply.daily_cost(1000.0, samples=0)


class TestVectorizedPricing:
    def test_prices_at_matches_scalar(self):
        schedule = ElectricityPriceSchedule.day_night(0.23, 0.11, 6.5, 19.25)
        rng = np.random.default_rng(7)
        times = rng.uniform(0.0, 3 * DAY, size=400)
        vector = schedule.prices_at(times)
        scalar = [schedule.price_at(t) for t in times]
        assert vector.tolist() == scalar

    def test_prices_at_band_boundaries(self):
        schedule = ElectricityPriceSchedule.day_night(0.2, 0.1, 7.0, 21.0)
        times = [0.0, 7 * HOUR, 21 * HOUR, 24 * HOUR, 31 * HOUR]
        assert schedule.prices_at(times).tolist() == [
            0.1, 0.2, 0.1, 0.1, 0.2,
        ]

    def test_hour_24_wraps_to_zero(self):
        schedule = ElectricityPriceSchedule.day_night(0.2, 0.1)
        assert schedule.price_at(24 * HOUR) == schedule.price_at(0.0)
        assert schedule.prices_at([24 * HOUR])[0] == 0.1

    def test_average_price_exact(self):
        schedule = ElectricityPriceSchedule.day_night(0.2, 0.1, 7.0, 21.0)
        daily_mean = (14 * 0.2 + 10 * 0.1) / 24.0
        assert schedule.average_price(0.0, DAY) == pytest.approx(daily_mean)
        # A window entirely inside one band is flat.
        assert schedule.average_price(8 * HOUR, 9 * HOUR) == pytest.approx(0.2)
        # Whole-day multiples collapse to the daily mean.
        assert schedule.average_price(0.0, 3 * DAY) == pytest.approx(daily_mean)

    def test_average_price_multi_day_window(self):
        schedule = ElectricityPriceSchedule.day_night(0.2, 0.1, 7.0, 21.0)
        # [12h, 36h): 9 day-hours + 10 night-hours + 5 day-hours.
        expected = (14 * 0.2 + 10 * 0.1) / 24.0
        assert schedule.average_price(
            12 * HOUR, 36 * HOUR
        ) == pytest.approx(expected)

    def test_average_price_rejects_empty_window(self):
        schedule = ElectricityPriceSchedule.flat(0.1)
        with pytest.raises(ConfigurationError):
            schedule.average_price(HOUR, HOUR)

    def test_cost_of_matches_scalar_reference(self):
        esp = ElectricityServiceProvider(
            ElectricityPriceSchedule.day_night(0.25, 0.08, 7.5, 20.0),
            demand_limit_watts=900.0,
            penalty_per_kwh=0.5,
        )
        rng = np.random.default_rng(11)
        times = np.sort(rng.uniform(0.0, 2 * DAY, size=120))
        watts = rng.uniform(0.0, 2000.0, size=120)
        assert esp.cost_of(times, watts) == pytest.approx(
            esp.cost_of_scalar(times, watts), rel=1e-12
        )

    def test_cost_of_unlimited_demand_skips_penalty(self):
        base = ElectricityServiceProvider(ElectricityPriceSchedule.flat(0.1))
        penal = ElectricityServiceProvider(
            ElectricityPriceSchedule.flat(0.1), penalty_per_kwh=5.0
        )
        times = [0.0, HOUR, 2 * HOUR]
        watts = [500.0, 1500.0, 800.0]
        assert penal.cost_of(times, watts) == pytest.approx(
            base.cost_of(times, watts)
        )


#: Narrowest band a drawn tiling may hold, hours.  Two cuts one float
#: apart would make a band whose mid-point rounds onto the next band's
#: start, so ``price_at(mid)`` would rightly answer the next price.
MIN_CUT_GAP = 1e-3


def _spaced(cuts) -> bool:
    ordered = sorted(cuts)
    return all(b - a >= MIN_CUT_GAP for a, b in zip(ordered, ordered[1:]))


@st.composite
def _tilings(draw):
    cuts = draw(
        st.lists(
            st.floats(0.5, 23.5, allow_nan=False, allow_infinity=False),
            min_size=0,
            max_size=6,
            unique=True,
        ).filter(_spaced)
    )
    edges = [0.0] + sorted(cuts) + [24.0]
    prices = draw(
        st.lists(
            st.floats(0.01, 1.0, allow_nan=False, allow_infinity=False),
            min_size=len(edges) - 1,
            max_size=len(edges) - 1,
        )
    )
    return tuple(
        (edges[i], edges[i + 1], prices[i]) for i in range(len(edges) - 1)
    )


class TestTilingProperties:
    @given(_tilings())
    @settings(max_examples=60, deadline=None)
    def test_valid_tilings_accepted_and_consistent(self, bands):
        schedule = ElectricityPriceSchedule(bands)
        for start, end, price in bands:
            mid = 0.5 * (start + end) * HOUR
            assert schedule.price_at(mid) == price
            assert schedule.prices_at([mid])[0] == price
        daily = sum((e - s) * p for s, e, p in bands) / 24.0
        assert schedule.average_price(0.0, DAY) == pytest.approx(daily)

    @given(_tilings())
    @settings(max_examples=40, deadline=None)
    def test_gapped_tilings_rejected(self, bands):
        if len(bands) < 2:
            return
        start, end, price = bands[-1]
        shrunk = bands[:-1] + ((0.5 * (start + end), end, price),)
        with pytest.raises(ConfigurationError):
            ElectricityPriceSchedule(shrunk)

    @given(_tilings())
    @settings(max_examples=40, deadline=None)
    def test_overlapping_tilings_rejected(self, bands):
        if len(bands) < 2:
            return
        start, end, price = bands[0]
        grown = ((start, min(end + 1.0, 24.0), price),) + bands[1:]
        with pytest.raises(ConfigurationError):
            ElectricityPriceSchedule(grown)


class TestRegionMarket:
    def _market(self, offset=9.0):
        return RegionMarket(
            name="test-region",
            utc_offset_hours=offset,
            tariff=ElectricityPriceSchedule.day_night(0.2, 0.1, 7.0, 21.0),
            carbon=ElectricityPriceSchedule.day_night(0.5, 0.3, 7.0, 21.0),
            dr_events=(DemandResponseEvent(10 * HOUR, 12 * HOUR, 4000.0),),
        )

    def test_timezone_shift(self):
        market = self._market(offset=9.0)
        # Simulation midnight UTC is 09:00 local — already daytime.
        assert market.price_at(0.0) == 0.2
        assert market.price_at(13 * HOUR) == 0.1  # 22:00 local

    def test_cost_and_carbon_shifted(self):
        market = self._market(offset=9.0)
        esp = ElectricityServiceProvider(
            ElectricityPriceSchedule.day_night(0.2, 0.1, 7.0, 21.0)
        )
        times = [0.0, HOUR, 2 * HOUR]
        watts = [1000.0, 1000.0, 1000.0]
        shifted = [t + 9 * HOUR for t in times]
        assert market.cost_of(times, watts) == pytest.approx(
            esp.cost_of(shifted, watts)
        )
        assert market.carbon_of(times, watts) == pytest.approx(2 * 0.5)

    def test_mean_price_window(self):
        market = self._market(offset=0.0)
        assert market.mean_price(8 * HOUR, 9 * HOUR) == pytest.approx(0.2)
        assert market.mean_carbon(0.0, HOUR) == pytest.approx(0.3)

    def test_dr_limit_window_overlap(self):
        market = self._market()
        assert market.dr_limit(0.0, 5 * HOUR) == float("inf")
        assert market.dr_limit(11 * HOUR, 13 * HOUR) == 4000.0
        assert market.dr_limit(9 * HOUR, 10 * HOUR) == float("inf")

    def test_offset_validation(self):
        with pytest.raises(ConfigurationError):
            RegionMarket(
                name="bad",
                utc_offset_hours=20.0,
                tariff=ElectricityPriceSchedule.flat(0.1),
                carbon=ElectricityPriceSchedule.flat(0.1),
            )

    def test_pickle_roundtrip(self):
        market = self._market()
        clone = pickle.loads(pickle.dumps(market))
        times = [0.0, HOUR, 2 * HOUR]
        watts = [800.0, 900.0, 700.0]
        assert clone.cost_of(times, watts) == market.cost_of(times, watts)
        assert clone.dr_limit(10.5 * HOUR, 11 * HOUR) == 4000.0
