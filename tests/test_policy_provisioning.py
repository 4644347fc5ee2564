"""Tests for idle shutdown and dynamic provisioning policies."""


from repro.cluster import Machine, MachineSpec, NodeState
from repro.cluster.site import Site
from repro.cluster.thermal import AmbientModel
from repro.core import ClusterSimulation, EasyBackfillScheduler
from repro.policies import DynamicProvisioningPolicy, IdleShutdownPolicy
from repro.units import DAY, HOUR
from repro.workload import JobState
from tests.conftest import make_job


def machine16(**kw):
    defaults = dict(name="m", nodes=16, idle_power=100.0, max_power=400.0,
                    boot_time=120.0, shutdown_time=60.0)
    defaults.update(kw)
    return Machine(MachineSpec(**defaults))


class TestIdleShutdown:
    def test_idle_nodes_shut_down(self):
        machine = machine16()
        policy = IdleShutdownPolicy(idle_threshold=600.0, min_spare=2,
                                    check_interval=300.0)
        sim = ClusterSimulation(machine, EasyBackfillScheduler(), [],
                                policies=[policy])
        sim.run(until=2 * HOUR)
        off = machine.nodes_in_state(NodeState.OFF)
        idle = machine.nodes_in_state(NodeState.IDLE)
        assert len(off) == 14
        assert len(idle) == 2  # min_spare preserved

    def test_boots_on_demand(self):
        machine = machine16()
        policy = IdleShutdownPolicy(idle_threshold=600.0, min_spare=0,
                                    check_interval=300.0)
        late_job = make_job(job_id="late", nodes=8, work=100.0,
                            walltime=1000.0, submit=3 * HOUR)
        sim = ClusterSimulation(machine, EasyBackfillScheduler(), [late_job],
                                policies=[policy])
        sim.run()
        assert late_job.state is JobState.COMPLETED
        # It had to wait for boots.
        assert late_job.wait_time > 0.0
        assert sim.rm.boots_initiated >= 8

    def test_saves_energy_at_low_utilization(self):
        def run(policies):
            machine = machine16()
            jobs = [
                make_job(job_id=f"j{i}", nodes=1, work=600.0,
                         walltime=2000.0, submit=i * 6 * HOUR)
                for i in range(4)
            ]
            sim = ClusterSimulation(machine, EasyBackfillScheduler(), jobs,
                                    policies=policies)
            result = sim.run()
            return result.metrics.total_energy_joules

        base = run([])
        saving = run([IdleShutdownPolicy(idle_threshold=600.0, min_spare=1,
                                         check_interval=300.0)])
        assert saving < base * 0.6  # most idle power eliminated

    def test_neutral_when_queue_busy(self):
        machine = machine16()
        jobs = [
            make_job(job_id=f"j{i}", nodes=16, work=500.0, walltime=1000.0)
            for i in range(6)
        ]
        policy = IdleShutdownPolicy(idle_threshold=600.0, check_interval=120.0)
        sim = ClusterSimulation(machine, EasyBackfillScheduler(), jobs,
                                policies=[policy])
        result = sim.run()
        # Saturated machine: nothing idles long enough to shut down.
        assert sim.rm.shutdowns_initiated == 0
        assert result.metrics.jobs_completed == 6

    def test_t0_idle_nodes_shut_down_before_recently_idle(self):
        # Regression for the `idle_since or 0.0` conflation: a node
        # idle since t=0 carries a real timestamp and must rank first
        # (longest idle) among shutdown candidates — it is not the
        # same as "no idle timestamp", which ranks last.
        machine = machine16()
        policy = IdleShutdownPolicy(idle_threshold=100.0, min_spare=4,
                                    check_interval=300.0)
        sim = ClusterSimulation(machine, EasyBackfillScheduler(), [],
                                policies=[policy])
        sim.prepare()
        # Nodes 0-3 go idle at t=50; the other 12 are idle since t=0.
        for node in machine.nodes[:4]:
            node.transition(NodeState.BUSY, 0.0)
            node.transition(NodeState.IDLE, 50.0)
        sim.run(until=400.0)
        # Surplus = 12 (16 idle - min_spare 4): the twelve t=0 nodes
        # are the oldest candidates and shut down first, keeping the
        # t=50 nodes as the spare margin.
        for node in machine.nodes[:4]:
            assert node.state is NodeState.IDLE
        for node in machine.nodes[4:]:
            assert node.state is not NodeState.IDLE

    def test_idle_rank_orders_none_last_and_t0_first(self):
        from repro.policies.base import _idle_rank

        machine = machine16()
        a, b, c = machine.nodes[:3]
        a.idle_since = 0.0
        b.idle_since = None
        c.idle_since = 25.0
        ranked = sorted([b, c, a], key=_idle_rank)
        assert ranked == [a, c, b]


class TestDynamicProvisioning:
    def _site(self, machine, mean=16.0):
        return Site("s", [machine],
                    ambient=AmbientModel(mean=mean, seasonal_amplitude=11.0))

    def test_summer_gate(self):
        machine = machine16()
        policy = DynamicProvisioningPolicy(cap_watts=1000.0, summer_only=True)
        ClusterSimulation(machine, EasyBackfillScheduler(), [],
                          policies=[policy],
                          site=self._site(machine))
        # January: inactive.
        assert not policy._active(15 * DAY)
        # July: active.
        assert policy._active(196 * DAY)

    def test_admission_vetoes_then_sheds_to_make_room(self):
        machine = machine16()
        # Cap barely above the idle floor: the job cannot start until
        # the policy sheds idle nodes to create power headroom (the
        # Tokyo Tech lever: node count buys job power).
        cap = machine.idle_floor_power + 50.0
        policy = DynamicProvisioningPolicy(cap_watts=cap, summer_only=False,
                                           check_interval=120.0)
        job = make_job(nodes=4, work=100.0, walltime=1000.0)
        sim = ClusterSimulation(machine, EasyBackfillScheduler(), [job],
                                policies=[policy])
        result = sim.run(until=4 * HOUR)
        assert policy.veto_count > 0        # initially power-blocked
        assert sim.rm.shutdowns_initiated > 0  # room was made
        assert job.state is JobState.COMPLETED
        assert result.metrics.jobs_killed == 0

    def test_impossible_cap_keeps_vetoing(self):
        machine = machine16()
        # Cap below even the shed-to-minimum configuration: the job's
        # own draw exceeds the cap, so it must stay pending forever.
        job = make_job(nodes=4, work=100.0, walltime=1000.0)
        delta = 4 * (machine.nodes[0].max_power - machine.nodes[0].idle_power)
        cap = 4 * machine.nodes[0].idle_power + delta * 0.1
        policy = DynamicProvisioningPolicy(cap_watts=cap, summer_only=False,
                                           check_interval=120.0)
        sim = ClusterSimulation(machine, EasyBackfillScheduler(), [job],
                                policies=[policy])
        sim.run(until=2 * HOUR)
        assert job.state is JobState.PENDING
        assert policy.veto_count > 0

    def test_sheds_idle_nodes_over_cap(self):
        machine = machine16()
        # Idle floor is 1600 W; cap of 1000 W forces shedding.
        policy = DynamicProvisioningPolicy(cap_watts=1000.0,
                                           summer_only=False,
                                           window=600.0,
                                           check_interval=120.0)
        sim = ClusterSimulation(machine, EasyBackfillScheduler(), [],
                                policies=[policy])
        sim.run(until=2 * HOUR)
        off = machine.nodes_in_state(NodeState.OFF)
        assert len(off) >= 6  # enough shed to approach the cap

    def test_never_kills_jobs(self):
        machine = machine16()
        jobs = [make_job(job_id=f"j{i}", nodes=2, work=3000.0, walltime=6000.0)
                for i in range(8)]
        cap = machine.peak_power * 0.5
        policy = DynamicProvisioningPolicy(cap_watts=cap, summer_only=False,
                                           check_interval=120.0)
        sim = ClusterSimulation(machine, EasyBackfillScheduler(), jobs,
                                policies=[policy])
        result = sim.run()
        assert result.metrics.jobs_killed == 0

    def test_window_average_compliance(self):
        machine = machine16()
        jobs = [make_job(job_id=f"j{i}", nodes=2, work=1800.0,
                         walltime=4000.0, submit=i * 600.0)
                for i in range(12)]
        cap = machine.peak_power * 0.6
        policy = DynamicProvisioningPolicy(cap_watts=cap, summer_only=False,
                                           window=1800.0, check_interval=120.0)
        sim = ClusterSimulation(machine, EasyBackfillScheduler(), jobs,
                                policies=[policy], cap_watts_for_metrics=cap)
        result = sim.run()
        # The 30-min window average respects the cap even if instants peak.
        final_window = sim.meter.window_average(1800.0)
        assert final_window <= cap * 1.05
        assert result.metrics.jobs_killed == 0
