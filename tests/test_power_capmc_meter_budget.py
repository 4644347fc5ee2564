"""Tests for CAPMC facade, power meter and hierarchical budgets."""

import pytest

from repro.cluster import NodeState
from repro.errors import BudgetError, PowerCapError
from repro.power import Capmc, PowerBudget, PowerMeter
from repro.power.pue import FacilityPowerModel
from repro.cluster.site import Site
from repro.cluster.thermal import AmbientModel, CoolingModel
from repro.simulator import Simulator

from . import power_oracles as oracle


class TestCapmc:
    def test_node_caps(self, small_machine):
        capmc = Capmc(small_machine)
        changed = capmc.set_node_cap([0, 1, 2], 200.0)
        assert changed == 3
        assert small_machine.node(0).power_cap == 200.0
        assert small_machine.node(3).power_cap is None

    def test_system_cap_spreads_uniformly(self, small_machine):
        capmc = Capmc(small_machine)
        capmc.set_system_cap(16 * 250.0)
        assert all(n.power_cap == pytest.approx(250.0) for n in small_machine.nodes)
        assert capmc.system_cap == 16 * 250.0

    def test_system_cap_clear(self, small_machine):
        capmc = Capmc(small_machine)
        capmc.set_system_cap(16 * 250.0)
        capmc.set_system_cap(None)
        assert all(n.power_cap is None for n in small_machine.nodes)

    def test_system_cap_below_floor_rejected(self, small_machine):
        capmc = Capmc(small_machine)
        with pytest.raises(PowerCapError):
            capmc.set_system_cap(16 * 50.0)  # below idle floor

    def test_get_power_idle_machine(self, small_machine):
        capmc = Capmc(small_machine)
        idle = small_machine.idle_floor_power
        assert capmc.get_power() == pytest.approx(idle)

    def test_get_power_matches_spec(self, small_machine):
        # Busy, capped and throttled nodes through the kernel: per node
        # the scalar spec at the assumed utilization.
        for node in small_machine.nodes[:6]:
            node.transition(NodeState.BUSY, 0.0)
        small_machine.node(2).set_frequency(1.5e9)
        capmc = Capmc(small_machine)
        capmc.set_node_cap([1, 2, 9], 200.0)
        counters = capmc.get_node_energy_counters(0.6)
        assert list(counters) == list(range(16))
        for node in small_machine.nodes:
            spec = oracle.operating_point(capmc.power_model, node, 0.6).watts
            assert counters[node.node_id] == pytest.approx(spec, abs=1e-9)
        assert capmc.get_power(0.6) == pytest.approx(sum(counters.values()))

    def test_node_status_groups(self, small_machine):
        small_machine.node(0).transition(NodeState.BUSY, 0.0)
        capmc = Capmc(small_machine)
        status = capmc.node_status()
        assert 0 in status["busy"]
        assert len(status["idle"]) == 15

    def test_idle_nodes_and_counts(self, small_machine):
        capmc = Capmc(small_machine)
        assert capmc.powered_on_count() == 16
        assert len(capmc.idle_nodes()) == 16


class TestPowerMeter:
    def test_sampling_and_energy(self):
        sim = Simulator()
        meter = PowerMeter(sim, lambda: 100.0, interval=10.0)
        meter.start()
        sim.run(until=100.0)
        meter.stop()
        meter.sample()
        # 100 W for 100 s = 10 kJ.
        assert meter.energy_joules == pytest.approx(10_000.0)
        assert meter.average_watts() == pytest.approx(100.0)
        assert meter.peak_watts() == 100.0

    def test_trapezoid_on_ramp(self):
        sim = Simulator()
        level = {"w": 0.0}
        meter = PowerMeter(sim, lambda: level["w"], interval=10.0)
        meter.start()
        sim.at(5.0, lambda: level.update(w=100.0))
        sim.run(until=20.0)
        meter.stop()
        # Samples: t0=0W, t10=100W, t20=100W -> energy = 500+1000.
        assert meter.energy_joules == pytest.approx(1500.0)

    def test_window_average(self):
        sim = Simulator()
        level = {"w": 100.0}
        meter = PowerMeter(sim, lambda: level["w"], interval=10.0)
        meter.start()
        sim.at(50.0, lambda: level.update(w=200.0))
        sim.run(until=100.0)
        recent = meter.window_average(30.0)
        assert recent == pytest.approx(200.0)
        overall = meter.window_average(1000.0)
        assert 100.0 < overall < 200.0

    def test_exceedance_fraction(self):
        sim = Simulator()
        values = iter([50, 150, 150, 50, 50])
        meter = PowerMeter(sim, lambda: next(values, 50), interval=1.0)
        meter.start()
        sim.run(until=4.0)
        assert meter.exceedance_fraction(100.0) == pytest.approx(2 / 5)

    def test_stop_halts_sampling(self):
        sim = Simulator()
        meter = PowerMeter(sim, lambda: 1.0, interval=1.0)
        meter.start()
        sim.run(until=5.0)
        meter.stop()
        count = meter.num_samples
        sim.at(sim.now + 10, lambda: None)
        sim.run()
        assert meter.num_samples == count

    def test_same_timestamp_sample_replaces_not_appends(self):
        # finalize()-style flush: stop() then sample() at the instant a
        # periodic sample already fired must not duplicate the
        # timestamp nor skew the trapezoidal integral.
        sim = Simulator()
        meter = PowerMeter(sim, lambda: 100.0, interval=10.0)
        meter.start()
        sim.run(until=50.0)
        count = meter.num_samples
        meter.stop()
        meter.sample()  # same timestamp as the t=50 periodic sample
        assert meter.num_samples == count
        times, _ = meter.series()
        assert len(set(times.tolist())) == len(times)
        assert meter.energy_joules == pytest.approx(100.0 * 50.0)

    def test_replacement_corrects_energy_integral(self):
        # A changed value at a replaced timestamp re-settles the last
        # trapezoid with the new endpoint.
        sim = Simulator()
        level = {"w": 100.0}
        meter = PowerMeter(sim, lambda: level["w"], interval=10.0)
        meter.start()
        sim.run(until=10.0)
        assert meter.energy_joules == pytest.approx(1000.0)
        level["w"] = 200.0
        meter.sample()  # still at t=10: replaces the 100 W sample
        assert meter.num_samples == 2
        # Trapezoid 0..10 is now (100 + 200) / 2 * 10.
        assert meter.energy_joules == pytest.approx(1500.0)
        assert meter.peak_watts() == pytest.approx(200.0)


class TestPowerBudget:
    def test_subdivide_reserves_parent(self):
        root = PowerBudget("site", 1000.0)
        a = root.subdivide("sysA", 600.0)
        assert root.headroom == pytest.approx(400.0)
        assert a.limit_watts == 600.0

    def test_overcommit_rejected(self):
        root = PowerBudget("site", 1000.0)
        root.subdivide("sysA", 600.0)
        with pytest.raises(BudgetError):
            root.subdivide("sysB", 500.0)

    def test_reserve_release(self):
        budget = PowerBudget("b", 100.0)
        budget.reserve(60.0)
        assert budget.headroom == pytest.approx(40.0)
        assert not budget.can_reserve(50.0)
        budget.release(60.0)
        assert budget.headroom == pytest.approx(100.0)

    def test_release_more_than_reserved_rejected(self):
        budget = PowerBudget("b", 100.0)
        budget.reserve(10.0)
        with pytest.raises(BudgetError):
            budget.release(20.0)

    def test_resize_shift_between_systems(self):
        # The CEA manual budget shift: shrink one child, grow another.
        root = PowerBudget("site", 1000.0)
        a = root.subdivide("sysA", 600.0)
        b = root.subdivide("sysB", 400.0)
        a.resize(450.0)
        b.resize(550.0)
        root.validate()
        assert a.limit_watts == 450.0
        assert b.limit_watts == 550.0

    def test_resize_below_commitment_rejected(self):
        root = PowerBudget("site", 1000.0)
        a = root.subdivide("sysA", 600.0)
        a.reserve(500.0)
        with pytest.raises(BudgetError):
            a.resize(400.0)

    def test_grow_beyond_parent_rejected(self):
        root = PowerBudget("site", 1000.0)
        a = root.subdivide("sysA", 600.0)
        with pytest.raises(BudgetError):
            a.resize(1100.0)

    def test_find_and_walk(self):
        root = PowerBudget("site", 1000.0)
        a = root.subdivide("sysA", 600.0)
        a.subdivide("partition0", 100.0)
        names = [b.name for b in root.walk()]
        assert names == ["site", "sysA", "partition0"]
        assert root.find("partition0").limit_watts == 100.0
        with pytest.raises(BudgetError):
            root.find("nope")

    def test_duplicate_child_rejected(self):
        root = PowerBudget("site", 1000.0)
        root.subdivide("a", 100.0)
        with pytest.raises(BudgetError):
            root.subdivide("a", 100.0)


class TestFacilityPowerModel:
    def _site(self, small_machine):
        return Site(
            "s", [small_machine],
            ambient=AmbientModel(mean=20.0, seasonal_amplitude=0.0,
                                 diurnal_amplitude=0.0),
            cooling=CoolingModel(cop_max=4.0, cop_min=4.0,
                                 free_cooling_below=0.0, design_ambient=50.0),
        )

    def test_total_includes_overhead(self, small_machine):
        model = FacilityPowerModel(self._site(small_machine))
        assert model.total_watts(1000.0, 0.0) == pytest.approx(1250.0)

    def test_pue(self, small_machine):
        model = FacilityPowerModel(self._site(small_machine))
        assert model.pue(0.0) == pytest.approx(1.25)
        assert model.efficient_now(0.0, pue_threshold=1.3)
        assert not model.efficient_now(0.0, pue_threshold=1.2)

    def test_budget_compliance(self, small_machine):
        site = self._site(small_machine)
        model = FacilityPowerModel(site)
        max_it = site.max_it_power(0.0)
        assert model.budget_compliant(max_it * 0.99, 0.0)
        assert not model.budget_compliant(max_it * 1.01, 0.0)
