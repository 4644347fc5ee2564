"""Demand-response-aware scheduling.

Connects a :class:`~repro.grid.events.GridEventSchedule` to the
machine: during a DR window the policy (a) vetoes job starts that
would push power above the event limit, and (b) sheds idle nodes if
the measured power exceeds it.  Between events it restores normal
operation.  This is the scheduler-side half of the ESP interaction the
survey's motivation section describes.
"""

from __future__ import annotations

from typing import List, Tuple

from ..cluster.node import NodeState
from ..core.epa import FunctionalCategory
from ..grid.events import GridEventSchedule
from ..units import check_positive
from ..workload.job import Job
from .base import Policy, _idle_rank


class DemandResponsePolicy(Policy):
    """Honor demand-response events from the grid.

    Parameters
    ----------
    schedule:
        The DR event schedule.
    check_interval:
        Control-loop period, seconds.
    """

    name = "demand-response"

    def __init__(
        self,
        schedule: GridEventSchedule,
        check_interval: float = 300.0,
        cap_during_events: bool = True,
    ) -> None:
        super().__init__()
        self.schedule = schedule
        self.control_interval = check_positive("check_interval", check_interval)
        self.cap_during_events = cap_during_events
        self.vetoes = 0
        self.sheds = 0
        self._caps_applied = False

    # ------------------------------------------------------------------
    def _job_delta(self, job: Job) -> float:
        return self.simulation.power_vector.job_power(job.nodes, job.mean_power_intensity)

    def admit(self, job: Job, now: float) -> bool:
        event = self.schedule.active_event(now)
        if event is None:
            # Don't start a long job that would straddle an imminent
            # event if it alone would break the event's limit.
            upcoming = self.schedule.next_event(now)
            if upcoming is not None and now + job.walltime_request > upcoming.start:
                if self._job_delta(job) > upcoming.limit_watts:
                    self.vetoes += 1
                    return False
            return True
        if self.simulation.machine_power() + self._job_delta(job) > event.limit_watts:
            self.vetoes += 1
            return False
        return True

    def on_tick(self, now: float) -> None:
        event = self.schedule.active_event(now)
        machine = self.simulation.machine
        rm = self.simulation.rm
        if event is None:
            if self._caps_applied:
                rm.set_power_cap(machine.nodes, None)
                self._caps_applied = False
            return
        # Fine-grained lever: cap powered nodes so even the carried-over
        # jobs fit the DR limit (the "fine and coarse grained power
        # management" of the survey's motivation).
        if self.cap_during_events and self._cap_powered_nodes(
            event.limit_watts
        ):
            self._caps_applied = True
        power = self.simulation.machine_power()
        if power <= event.limit_watts:
            return
        excess = power - event.limit_watts
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
        if to_stop:
            self.sheds += self.simulation.rm.shutdown_nodes(to_stop)

    def epa_components(self) -> List[Tuple[str, FunctionalCategory, str]]:
        return [
            (
                "dr-listener",
                FunctionalCategory.POWER_MONITORING,
                f"{len(self.schedule)} scheduled demand-response events",
            ),
            (
                "dr-enforcement",
                FunctionalCategory.POWER_CONTROL,
                "veto starts and shed idle nodes during DR windows",
            ),
        ]
