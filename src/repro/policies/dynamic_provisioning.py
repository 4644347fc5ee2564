"""Windowed power-cap tracking by node provisioning — Tokyo Tech.

Table I, Tokyo Tech production: "Resource manager dynamically boots or
shuts down nodes to stay under power cap (summer only, enforced over
~30 min window).  Interacts with job scheduler to avoid killing jobs."

The control problem: keep the *window-averaged* machine power at or
below a cap by changing how many nodes are powered, never by killing
work.  Levers, in order: (1) veto job starts that would break the cap,
(2) shut down idle nodes when the window average trends high, (3) boot
nodes back when there is both queue demand and power headroom.
The seasonal predicate comes from the site's ambient model.
"""

from __future__ import annotations

from typing import List, Tuple

from ..cluster.node import STATE_CODES, NodeState
from ..core.epa import FunctionalCategory
from ..units import check_positive
from ..workload.job import Job
from .base import Policy, _idle_rank


class DynamicProvisioningPolicy(Policy):
    """Keep windowed machine power under a cap via boot/shutdown.

    Parameters
    ----------
    cap_watts:
        The power cap to track.
    window:
        Enforcement window, seconds (paper: ~30 minutes).
    summer_only:
        If True (the Tokyo Tech configuration), the cap is enforced
        only while the site's ambient model reports summer; requires
        the simulation to carry a site.
    check_interval:
        Control-loop period.
    headroom_fraction:
        Boot new nodes only while the window average is below
        ``cap · headroom_fraction`` (hysteresis against thrash).
    """

    name = "dynamic-provisioning"

    def __init__(
        self,
        cap_watts: float,
        window: float = 1800.0,
        summer_only: bool = False,
        check_interval: float = 120.0,
        headroom_fraction: float = 0.9,
    ) -> None:
        super().__init__()
        self.cap_watts = check_positive("cap_watts", cap_watts)
        self.window = check_positive("window", window)
        self.summer_only = summer_only
        self.control_interval = check_positive("check_interval", check_interval)
        self.headroom_fraction = check_positive("headroom_fraction", headroom_fraction)
        self.veto_count = 0

    # ------------------------------------------------------------------
    def _active(self, now: float) -> bool:
        if not self.summer_only:
            return True
        site = self.simulation.site
        if site is None:
            return True
        return site.ambient.is_summer(now)

    def _job_power_delta(self, job: Job) -> float:
        """Worst-case extra power of starting *job* (idle -> busy)."""
        return self.simulation.power_vector.job_power(job.nodes, job.mean_power_intensity)

    # ------------------------------------------------------------------
    def admit(self, job: Job, now: float) -> bool:
        if not self._active(now):
            return True
        current = self.simulation.machine_power()
        if current + self._job_power_delta(job) > self.cap_watts:
            self.veto_count += 1
            return False
        return True

    def on_tick(self, now: float) -> None:
        if not self._active(now):
            return
        meter = self.simulation.meter
        rm = self.simulation.rm
        machine = self.simulation.machine
        avg = meter.window_average(self.window)

        if avg > self.cap_watts:
            # Over the windowed cap: shed idle nodes (never kill jobs).
            excess = avg - self.cap_watts
            idle = sorted(
                machine.nodes_in_state(NodeState.IDLE),
                key=_idle_rank,
            )
            shed = 0.0
            to_stop = []
            for node in idle:
                if shed >= excess:
                    break
                to_stop.append(node)
                shed += node.idle_power
            rm.shutdown_nodes(to_stop)
            return

        # Under the cap.  First: if the head of the queue is
        # power-blocked, shed idle nodes it does not need — trading
        # idle draw for job headroom is the whole point of using the
        # node count as the power lever.
        pending = self.simulation.queue.pending()
        if pending:
            head = pending[0]
            instant = self.simulation.machine_power()
            shortfall = instant + self._job_power_delta(head) - self.cap_watts
            idle = sorted(
                machine.nodes_in_state(NodeState.IDLE),
                key=_idle_rank,
            )
            surplus = len(idle) - head.nodes
            if shortfall > 0 and surplus > 0:
                shed = 0.0
                to_stop = []
                for node in idle[:surplus]:
                    if shed >= shortfall:
                        break
                    to_stop.append(node)
                    shed += node.idle_power
                rm.shutdown_nodes(to_stop)
                return

        if avg < self.cap_watts * self.headroom_fraction:
            # Headroom: boot nodes back if the queue wants them.  The
            # affordability check uses *instantaneous* power, not the
            # (lagging) window average — budgeting boots against the
            # average causes boot/shed thrash at long windows.
            demand = sum(j.nodes for j in pending[:16])
            counts = machine.store.counts
            idle_count = counts[STATE_CODES[NodeState.IDLE]]
            booting = counts[STATE_CODES[NodeState.BOOTING]]
            deficit = demand - idle_count - booting
            if deficit > 0:
                idle_watts, _ = machine.store.nominal
                instant = self.simulation.machine_power()
                budget = self.cap_watts * self.headroom_fraction - instant
                affordable = int(budget // max(idle_watts, 1.0))
                if affordable > 0:
                    off = sorted(rm.off_nodes(), key=lambda n: n.node_id)
                    rm.boot_nodes(off[: min(deficit, affordable)])

    def epa_components(self) -> List[Tuple[str, FunctionalCategory, str]]:
        season = "summer-only" if self.summer_only else "year-round"
        return [
            (
                "dynamic-provisioning",
                FunctionalCategory.POWER_CONTROL,
                f"track {self.cap_watts / 1e3:.0f} kW cap over "
                f"{self.window / 60:.0f} min window by boot/shutdown ({season})",
            ),
            (
                "provisioning-admission",
                FunctionalCategory.RESOURCE_CONTROL,
                "veto job starts that would break the cap",
            ),
        ]
