"""The cluster simulation: wiring scheduler, RM, power and policies.

:class:`ClusterSimulation` is the top-level object a user builds: it
owns the event engine, the machine, the queue, the resource manager,
the power model and meter, and a list of EPA policies.  It executes a
workload and returns a :class:`SimulationResult`.

Execution model
---------------
Jobs run on whole nodes at the speed of their *slowest* node (tightly
coupled parallel applications synchronize).  A running job is a
:class:`JobExecution` tracking remaining work; whenever any of its
nodes changes frequency or cap, the execution is re-evaluated: work
done so far is banked at the old speed, a new speed is computed, and
the completion event is rescheduled.  Jobs are killed at their
requested walltime — which keeps scheduler reservations sound and
reproduces the real-world failure mode where aggressive power capping
pushes jobs into their walltime limit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.machine import Machine
from ..cluster.node import STATE_CODES, Node, NodeState
from ..cluster.site import Site
from ..errors import ConfigurationError, SchedulingError
from ..power.meter import PowerMeter
from ..power.model import NodePowerModel
from ..power.vector import VectorPowerMirror
from ..simulator.engine import EventHandle, Simulator
from ..simulator.events import EventPriority
from ..simulator.rng import RngStreams
from ..simulator.trace import TraceRecorder
from ..workload.job import Job, JobState
from .epa import EpaCoordinator, FunctionalCategory
from .metrics import MetricsReport, compute_metrics
from .queue import JobQueue, QueueConfig
from .resource_manager import ResourceManager
from .scheduler import (
    NodeSelection,
    RunningJobInfo,
    Scheduler,
    SchedulingContext,
)
from ..policies.base import Policy

_IDLE_CODE = STATE_CODES[NodeState.IDLE]
_BUSY_CODE = STATE_CODES[NodeState.BUSY]
_DOWN_CODE = STATE_CODES[NodeState.DOWN]


class JobExecution:
    """Runtime state of one running job."""

    __slots__ = (
        "job",
        "nodes",
        "node_ids",
        "rows",
        "slot",
        "work_done",
        "speed",
        "power_watts",
        "last_update",
        "end_handle",
        "timeout_handle",
        "cap_violated",
        "placement_penalty",
    )

    def __init__(self, job: Job, nodes: List[Node]) -> None:
        self.job = job
        self.nodes = nodes
        #: Frozen once at start: the scheduler context needs this tuple
        #: every pass, and rebuilding it per pass is O(job width) for
        #: each running job on every pass (dominant at 64k-node scale).
        self.node_ids: Tuple[int, ...] = tuple(n.node_id for n in nodes)
        #: Mirror row indices of ``nodes``.
        self.rows: Optional[np.ndarray] = None
        #: Execution-slot id: index into ``ClusterSimulation._exec_slots``,
        #: stamped into the mirror's ``exec_slot`` rows; -1 while not
        #: running.
        self.slot: int = -1
        self.work_done = 0.0
        self.speed = 1.0
        self.power_watts = 0.0
        self.last_update = 0.0
        self.end_handle: Optional[EventHandle] = None
        self.timeout_handle: Optional[EventHandle] = None
        self.cap_violated = False
        #: >= 1.0; divides speed (communication cost of a spread placement).
        self.placement_penalty = 1.0

    @property
    def remaining_work(self) -> float:
        """Full-speed seconds of work still to do."""
        return max(0.0, self.job.work_seconds - self.work_done)


@dataclass
class SimulationResult:
    """Everything a run produces."""

    jobs: List[Job]
    metrics: MetricsReport
    trace: TraceRecorder
    meter: PowerMeter
    machine: Machine
    final_time: float
    extra: Dict[str, object] = field(default_factory=dict)

    def completed_jobs(self) -> List[Job]:
        """Jobs that finished normally."""
        return [j for j in self.jobs if j.state is JobState.COMPLETED]


class ClusterSimulation:
    """Simulate a workload on a machine under a scheduler and policies.

    Parameters
    ----------
    machine:
        The machine to run on.
    scheduler:
        Decision function (FCFS, EASY, conservative, or a subclass).
    workload:
        Jobs to submit (at their ``submit_time``).
    power_model:
        Node power model; a default is built if omitted.
    policies:
        EPA policies, applied in order (filters compose, admission is
        a conjunction).
    seed:
        Root seed for all random streams.
    sample_interval:
        Power-meter sampling period, seconds.
    queue_configs:
        Batch queue definitions (defaults to one "default" queue).
    site:
        Optional site context (facility, thermal) for policies that
        need it.
    cap_watts_for_metrics:
        If set, the metrics report includes the fraction of samples
        above this limit.

    Node state lives in the machine's :class:`~repro.cluster.node.NodeStore`
    columns; machine power is folded over them by the vectorized mirror
    (:mod:`repro.power.vector`).  Every lifecycle change — job
    start/teardown, RM boots/shutdowns, caps — is one store row call
    for the whole cohort, whatever its size.
    """

    def __init__(
        self,
        machine: Machine,
        scheduler: Scheduler,
        workload: Iterable[Job],
        power_model: Optional[NodePowerModel] = None,
        policies: Sequence[Policy] = (),
        seed: int = 0,
        sample_interval: float = 60.0,
        scheduler_interval: float = 300.0,
        queue_configs: Optional[List[QueueConfig]] = None,
        site: Optional[Site] = None,
        cap_watts_for_metrics: Optional[float] = None,
        trace_enabled: bool = True,
        start_time: float = 0.0,
        sim: Optional[Simulator] = None,
        trace: Optional[TraceRecorder] = None,
        comm_penalty: float = 0.0,
    ) -> None:
        self.machine = machine
        self.scheduler = scheduler
        self.scheduler_interval = scheduler_interval
        self.jobs: List[Job] = sorted(workload, key=lambda j: (j.submit_time, j.job_id))
        self.power_model = power_model or NodePowerModel()
        self.site = site
        self.cap_watts_for_metrics = cap_watts_for_metrics
        # Survey Q6: topology-aware placement "indirectly improv[es]
        # energy consumption ... by improving application performance".
        # With comm_penalty > 0 and a machine topology, a job's
        # communication phases slow down in proportion to how spread
        # out its placement is (see _placement_penalty).  Default off.
        self.comm_penalty = float(comm_penalty)

        # A shared engine/trace may be injected so several machines can
        # coexist in one simulation (multi-system sites; see
        # repro.core.multi.SiteSimulation).
        self.sim = sim if sim is not None else Simulator(start_time=start_time)
        self.trace = trace if trace is not None else TraceRecorder(enabled=trace_enabled)
        self.rng = RngStreams(seed)
        self.queue = JobQueue(queue_configs)
        self.epa = EpaCoordinator()

        self.rm = ResourceManager(
            self.sim,
            machine,
            trace=self.trace,
            on_nodes_changed=self.request_schedule_pass,
            on_speed_changed=self._on_speed_changed,
        )

        self._executions: Dict[str, JobExecution] = {}
        #: Slot -> JobExecution; node membership lives in the mirror's
        #: ``exec_slot`` row column (see :meth:`execution_on`).  Freed
        #: slots recycle through the freelist.  Slot numbers are pure
        #: identities — nothing orders or hashes on them, so
        #: snapshot/restore may renumber freely without perturbing
        #: replay.
        self._exec_slots: List[Optional[JobExecution]] = []
        self._free_slots: List[int] = []
        self._pass_pending = False
        self._started_count = 0
        self._terminal_count = 0
        self._prepared = False
        # Incremental machine power accounting.  A node's draw depends
        # only on its store columns and the (static) intensity of the
        # job bound to it — never on time directly — so the mirror folds
        # only the rows the store's writers marked dirty.
        self.power_vector = VectorPowerMirror(machine, self.power_model)

        self.meter = PowerMeter(
            self.sim,
            self.machine_power,
            interval=sample_interval,
            name=machine.name,
            trace=self.trace,
        )

        # Built-in EPA registry entries: the scheduler/RM/meter baseline.
        self.epa.register("job-scheduler", FunctionalCategory.RESOURCE_CONTROL,
                          f"{scheduler.name} scheduler")
        self.epa.register("resource-manager", FunctionalCategory.RESOURCE_CONTROL,
                          "node boot/shutdown, caps, DVFS")
        self.epa.register("queue-monitor", FunctionalCategory.RESOURCE_MONITORING,
                          "pending/running job state")
        self.epa.register("power-meter", FunctionalCategory.POWER_MONITORING,
                          f"{sample_interval:.0f}s machine power sampling")

        self.policies: List[Policy] = []
        self._shaping_policies: List[Policy] = []
        self._filter_policies: List[Policy] = []
        for policy in policies:
            self.add_policy(policy)

        #: Auxiliary stateful components (telemetry samplers, monitors)
        #: keyed by a stable name.  Registered components become
        #: snapshot roots: their pending engine events are capturable
        #: and their state round-trips through checkpoints (see
        #: :func:`repro.state.snapshot`).
        self.components: Dict[str, object] = {}

    def attach_component(self, key: str, component: object) -> object:
        """Register an auxiliary component under a stable key.

        The factory that rebuilds this simulation for a checkpoint
        restore must attach a structurally identical component under
        the same key (the key and class are part of the config digest).
        Returns the component for chaining.
        """
        if key in self.components:
            raise ConfigurationError(f"duplicate component key {key!r}")
        self.components[key] = component
        return component

    # ------------------------------------------------------------------
    # Policy management
    # ------------------------------------------------------------------
    def add_policy(self, policy: Policy) -> None:
        """Register an EPA policy (before :meth:`run`)."""
        policy.attach(self)
        self.policies.append(policy)
        # Hot-path hook lists: build_context runs per schedule pass and
        # must not pay per-job/per-node dispatch for default no-op hooks.
        if type(policy).select_configuration is not Policy.select_configuration:
            self._shaping_policies.append(policy)
        if type(policy).filter_rows is not Policy.filter_rows:
            self._filter_policies.append(policy)
        for name, category, desc in policy.epa_components():
            self.epa.register(name, category, desc)
        if policy.control_interval is not None:
            self.sim.every(
                policy.control_interval,
                self._policy_tick,
                policy,
                priority=EventPriority.CONTROL,
                name=f"tick:{policy.name}",
            )

    def _policy_tick(self, policy: Policy) -> None:
        """Periodic control tick for one policy (bound method so the
        state subsystem can capture pending ticks)."""
        policy.on_tick(self.sim.now)

    # ------------------------------------------------------------------
    # Power accounting
    # ------------------------------------------------------------------
    @property
    def usable_node_count(self) -> int:
        """Nodes not administratively DOWN (capacity ceiling for
        feasibility checks; an O(1) read of the store's state counts)."""
        return len(self.machine) - self.machine.store.counts[_DOWN_CODE]

    def execution_on(self, node_id: int) -> Optional[JobExecution]:
        """Execution occupying *node_id*, or None (one O(1)
        ``exec_slot`` row read)."""
        slot = self.power_vector.exec_slot[node_id]
        return self._exec_slots[slot] if slot >= 0 else None

    def _alloc_slot(self, execution: JobExecution) -> int:
        """Assign a slot id to *execution*."""
        if self._free_slots:
            slot = self._free_slots.pop()
        else:
            slot = len(self._exec_slots)
            self._exec_slots.append(None)
        self._exec_slots[slot] = execution
        execution.slot = slot
        return slot

    def _release_slot(self, execution: JobExecution) -> None:
        """Return *execution*'s slot to the freelist."""
        slot = execution.slot
        if slot >= 0:
            self._exec_slots[slot] = None
            self._free_slots.append(slot)
            execution.slot = -1

    def machine_power(self) -> float:
        """Instantaneous IT power of the machine, watts.

        O(1) when nothing changed since the last call; one vectorized
        kernel over the dirty rows otherwise.  When at least half the
        machine is dirty the whole sum is rebuilt instead — that is no
        slower than the delta path and resets any accumulated
        floating-point drift.  Dirty rows are folded in sorted order so
        the result is independent of mutation order.
        """
        return self.power_vector.machine_watts()

    def node_watts(self) -> np.ndarray:
        """Per-node instantaneous draw, ``machine.nodes`` order.

        One array kernel.  Control loops that need every node's draw
        (RAPL windows, group caps) should call this once per tick
        instead of querying node by node.
        """
        return self.power_vector.node_watts()

    def job_power(self, job_id: str) -> float:
        """Instantaneous power of one running job, watts."""
        execution = self._executions.get(job_id)
        if execution is None:
            return 0.0
        self._update_execution(execution)
        return execution.power_watts

    def running_jobs(self) -> List[Job]:
        """Jobs currently running."""
        return [e.job for e in self._executions.values()]

    # ------------------------------------------------------------------
    # Execution bookkeeping
    # ------------------------------------------------------------------
    def _placement_penalty(self, job: Job, node_ids: List[int]) -> float:
        """Speed divisor (>= 1) from the communication cost of a spread
        placement; 1.0 when penalties are off or no topology exists.

        ``penalty = 1 + comm_penalty x comm_fraction x excess`` where
        *excess* is the placement's mean pairwise hop distance beyond
        the compact reference (2 hops — one switch away).
        """
        if self.comm_penalty <= 0.0 or self.machine.topology is None:
            return 1.0
        if len(node_ids) < 2:
            return 1.0
        comm_fraction = sum(
            p.fraction for p in job.profile if p.kind == "comm"
        )
        if comm_fraction <= 0.0:
            return 1.0
        cost = self.machine.topology.placement_cost(node_ids)
        excess = max(0.0, (cost - 2.0) / 2.0)
        return 1.0 + self.comm_penalty * comm_fraction * excess

    def _operating(
        self, executions: Sequence[JobExecution]
    ) -> List[Tuple[float, float, bool]]:
        """(speed, power, violated) of each execution across its nodes
        now, in *executions* order.

        One kernel evaluates the concatenated rows of every execution
        (the mirror already holds each job's intensity/sensitivity from
        ``bind_execution``); each execution then reduces its contiguous
        slice.  The kernel is elementwise and min/any are exact, and
        each slice's watts go through their own ``.sum()`` (numpy's
        pairwise order over the same values), so every triple is
        bit-identical to a kernel over that execution's rows alone.
        """
        widths = [execution.rows.size for execution in executions]
        op = self.power_vector.operating_points(
            np.concatenate([execution.rows for execution in executions])
        )
        starts = np.cumsum(widths) - widths
        speeds = np.minimum.reduceat(op.speed, starts).tolist()
        violated = np.logical_or.reduceat(op.cap_violated, starts).tolist()
        watts = op.watts
        out = []
        start = 0
        for execution, width, speed, viol in zip(
            executions, widths, speeds, violated
        ):
            end = start + width
            power = float(watts[start:end].sum())
            speed = min(1.0, speed) / execution.placement_penalty
            out.append((max(speed, 1e-9), power, viol))
            start = end
        return out

    def _update_execution(self, execution: JobExecution) -> None:
        """Bank work and energy accumulated since the last update."""
        now = self.sim.now
        dt = now - execution.last_update
        if dt > 0:
            execution.work_done += execution.speed * dt
            execution.job.energy_joules += execution.power_watts * dt
            execution.last_update = now

    def _schedule_end(self, execution: JobExecution) -> None:
        """(Re)schedule the completion event from remaining work."""
        if execution.end_handle is not None:
            execution.end_handle.cancel()
        eta = execution.remaining_work / execution.speed
        execution.end_handle = self.sim.after(
            eta,
            self._complete_job,
            execution.job.job_id,
            priority=EventPriority.STATE,
            name=f"end:{execution.job.job_id}",
        )

    def _on_speed_changed(self, node_ids: List[int]) -> None:
        """RM changed caps/frequency: re-evaluate affected executions.

        (The store already holds the new caps/frequencies and marked
        their rows dirty.)  Affected executions are
        visited in first-occurrence order of *node_ids*: slot ids are
        deduplicated with one gather, then put back in that order.
        Their operating points come from one kernel
        (:meth:`_operating`); each execution then banks work at its old
        speed, takes the new point and reschedules its completion.
        """
        mirror = self.power_vector
        rows = np.asarray(node_ids, dtype=np.intp)
        slots = mirror.exec_slot[rows]
        slots = slots[slots >= 0]
        if slots.size == 0:
            return
        uniq, first = np.unique(slots, return_index=True)
        exec_slots = self._exec_slots
        executions = [
            exec_slots[slot]
            for slot in uniq[np.argsort(first, kind="stable")].tolist()
        ]
        now = self.sim.now
        for execution, (speed, power, violated) in zip(
            executions, self._operating(executions)
        ):
            self._update_execution(execution)
            execution.speed = speed
            execution.power_watts = power
            if violated and not execution.cap_violated:
                execution.cap_violated = True
                self.trace.emit(now, "power.cap_violation",
                                job=execution.job.job_id)
            self._schedule_end(execution)

    # ------------------------------------------------------------------
    # Job life-cycle
    # ------------------------------------------------------------------
    def _submit_job(self, job: Job) -> None:
        self.queue.submit(job)
        self.trace.emit(self.sim.now, "job.submit", job=job.job_id,
                        nodes=job.nodes, walltime=job.walltime_request)
        self.request_schedule_pass()

    def _start_job(self, job: Job, nodes: Tuple[Node, ...]) -> None:
        now = self.sim.now
        self.queue.remove(job.job_id)
        node_list = list(nodes)
        node_ids = [n.node_id for n in node_list]
        job.start(now, node_ids)

        # Policies see the machine *before* this job occupies it: a
        # budget policy's configure_start reads machine_power() to size
        # the remaining headroom, which must not already include this
        # job's nodes at busy draw (they carry no job binding yet, so
        # they would be billed at full utilization).
        for policy in self.policies:
            policy.configure_start(job, node_list, now)

        # Execution membership lives in the mirror's exec_slot column
        # (stamped below in one scatter).
        self.machine.store.transition(node_ids, NodeState.BUSY, now)

        execution = JobExecution(job, node_list)
        execution.last_update = now
        execution.placement_penalty = self._placement_penalty(job, node_ids)
        # Binding changes the nodes' billed draw (job intensity); it
        # must land in the mirror before _operating.
        execution.rows = np.asarray(node_ids, dtype=np.intp)
        self.power_vector.bind_execution(
            execution.rows,
            self._alloc_slot(execution),
            job.mean_power_intensity,
            job.mean_sensitivity,
        )
        [(speed, power, violated)] = self._operating([execution])
        execution.speed = speed
        execution.power_watts = power
        execution.cap_violated = violated
        if violated:
            self.trace.emit(now, "power.cap_violation", job=job.job_id)
        self._executions[job.job_id] = execution

        self._schedule_end(execution)
        execution.timeout_handle = self.sim.at(
            now + job.walltime_request,
            self._timeout_job,
            job.job_id,
            priority=EventPriority.STATE,
            name=f"timeout:{job.job_id}",
        )
        self._started_count += 1
        self.trace.emit(now, "job.start", job=job.job_id, nodes=job.nodes,
                        power=power, speed=speed)
        for policy in self.policies:
            policy.on_job_start(job, now)

    def _teardown_execution(self, execution: JobExecution) -> None:
        if execution.end_handle is not None:
            execution.end_handle.cancel()
        if execution.timeout_handle is not None:
            execution.timeout_handle.cancel()
        store = self.machine.store
        # Nodes that left BUSY out of band (failure -> DOWN) stay where
        # they are — filtered on the state column, not a node scan.
        rows = execution.rows
        store.transition(
            rows[store.state_code[rows] == _BUSY_CODE], NodeState.IDLE,
            self.sim.now,
        )
        self.power_vector.unbind_execution(rows)
        self._release_slot(execution)
        self._executions.pop(execution.job.job_id, None)

    def _finish(self, job_id: str, outcome: str, reason: str = "") -> None:
        execution = self._executions.get(job_id)
        if execution is None:
            return  # already finished (stale event)
        self._update_execution(execution)
        job = execution.job
        now = self.sim.now
        self._teardown_execution(execution)
        if outcome == "complete":
            job.complete(now)
        elif outcome == "timeout":
            job.timeout(now)
        else:
            job.kill(now, reason)
        self._terminal_count += 1
        self.trace.emit(now, f"job.{outcome}", job=job.job_id,
                        energy=job.energy_joules, reason=reason)
        for policy in self.policies:
            policy.on_job_end(job, now)
        self.request_schedule_pass()

    def _complete_job(self, job_id: str) -> None:
        execution = self._executions.get(job_id)
        if execution is None:
            return
        self._update_execution(execution)
        if execution.remaining_work > 1e-6:
            # Stale completion (speed dropped since scheduling); reschedule.
            self._schedule_end(execution)
            return
        self._finish(job_id, "complete")

    def _timeout_job(self, job_id: str) -> None:
        execution = self._executions.get(job_id)
        if execution is None:
            return
        self._update_execution(execution)
        if execution.remaining_work <= 1e-6:
            self._finish(job_id, "complete")
        else:
            self._finish(job_id, "timeout")

    def kill_job(self, job_id: str, reason: str) -> bool:
        """Forcibly terminate a running job (emergency policies).

        Returns True if the job was running and is now killed.
        """
        if job_id not in self._executions:
            return False
        self._finish(job_id, "kill", reason)
        return True

    def resubmit_job(self, job: Job) -> None:
        """Add a new job mid-run (requeue policies).

        The job joins the accounting set and is submitted at its
        ``submit_time`` (or immediately if that is in the past); the
        run loop keeps going until it, too, reaches a terminal state.
        """
        if any(existing.job_id == job.job_id for existing in self.jobs):
            raise SchedulingError(f"duplicate job id {job.job_id!r}")
        self.jobs.append(job)
        submit_at = max(job.submit_time, self.sim.now)
        self.sim.at(submit_at, self._submit_job, job,
                    priority=EventPriority.STATE,
                    name=f"submit:{job.job_id}")

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def request_schedule_pass(self) -> None:
        """Coalesce and schedule a scheduler pass at the current time."""
        if self._pass_pending:
            return
        self._pass_pending = True
        self.sim.at(
            self.sim.now,
            self._schedule_pass,
            priority=EventPriority.CONTROL,
            name="schedule-pass",
        )

    def build_context(self) -> SchedulingContext:
        """Snapshot the current state for the scheduler.

        The availability mask is the store's ``state_code == IDLE``
        mask, handed to the scheduler as a :class:`NodeSelection` whose
        rows are node ids; the free and usable counts come from the
        store's state counts.  Filter policies clear rows of one
        private copy of the mask, taken before the first filter, and
        the context's free count is then that copy's popcount.  The
        ``running`` list
        is *lazy*: the context carries a factory that reads live state,
        which is safe because nothing mutates executions while a
        scheduler is deciding.
        """
        now = self.sim.now
        store = self.machine.store
        avail_mask = store.idle_mask()
        avail_count = store.counts[_IDLE_CODE]
        if self._filter_policies:
            avail_mask = avail_mask.copy()
            for policy in self._filter_policies:
                avail_mask = policy.filter_rows(avail_mask, now)
            avail_count = int(np.count_nonzero(avail_mask))

        pending = self.queue.pending()
        # The JobTable's SoA queue columns — only when no shaping policy
        # swaps job objects (the arrays must stay aligned with
        # ``pending``); otherwise the context derives them on demand.
        pending_arrays = None
        if not self._shaping_policies:
            pending_arrays = self.queue.pending_arrays()
        else:
            shaped_jobs: List[Job] = []
            for job in pending:
                for policy in self._shaping_policies:
                    job = policy.select_configuration(job, now)
                shaped_jobs.append(job)
            pending = shaped_jobs

        # A start_time of exactly 0.0 is a legitimate start (the first
        # jobs of most workloads), not a missing value — only None
        # means "not started".
        def running_factory() -> List[RunningJobInfo]:
            return [
                RunningJobInfo(
                    e.job,
                    e.node_ids,
                    (now if e.job.start_time is None else e.job.start_time)
                    + e.job.walltime_request,
                )
                for e in self._executions.values()
            ]

        admit = None
        if self.policies:
            def admit(job: Job) -> bool:
                return all(p.admit(job, now) for p in self.policies)

        return SchedulingContext(
            now=now,
            machine=self.machine,
            pending=pending,
            selection=NodeSelection(
                avail_mask=avail_mask,
                machine=self.machine,
                max_power=store.max_power,
                variability=store.variability,
            ),
            admit=admit,
            usable_node_count=self.usable_node_count,
            running_factory=running_factory,
            avail_count=avail_count,
            pending_arrays=pending_arrays,
        )

    def _schedule_pass(self) -> None:
        self._pass_pending = False
        # Empty-queue fast path: no pending work means no decisions, so
        # skip the context build entirely.  Gated on having no filter
        # policies, whose per-pass filter_rows call is observable.
        if not self.queue._jobs and not self._filter_policies:
            return
        ctx = self.build_context()
        if not ctx.pending:
            return
        decisions = self.scheduler.schedule(ctx)
        now = self.sim.now
        for decision in decisions:
            # Re-check admission at apply time: earlier starts in this
            # same pass have already raised machine power, and the
            # snapshot the scheduler saw does not reflect that.
            if not all(p.admit(decision.job, now) for p in self.policies):
                continue
            # One read of the live state column guards the whole
            # cohort: every start moves its rows to BUSY, so a node that
            # is not idle, or that an earlier decision of this pass
            # already took, fails here.  A node listed twice in one
            # decision is still free at this read, so it is refused by
            # count.
            ids = [n.node_id for n in decision.nodes]
            free = self.machine.store.state_code[ids] == _IDLE_CODE
            if not free.all():
                raise SchedulingError(
                    "scheduler picked unavailable node "
                    f"{ids[int(np.argmin(free))]} for {decision.job.job_id}"
                )
            if len(set(ids)) != len(ids):
                twice = next(i for i in ids if ids.count(i) > 1)
                raise SchedulingError(
                    f"scheduler picked node {twice} twice for "
                    f"{decision.job.job_id}"
                )
            self._start_job(decision.job, decision.nodes)

    # ------------------------------------------------------------------
    # Run
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        """Schedule submissions and start periodic components.

        Idempotent; called by :meth:`run`, or directly by a
        multi-machine driver that owns the shared event loop.
        """
        if self._prepared:
            return
        self._prepared = True
        for job in self.jobs:
            submit_at = max(job.submit_time, self.sim.now)
            self.sim.at(submit_at, self._submit_job, job,
                        priority=EventPriority.STATE, name=f"submit:{job.job_id}")
        # Periodic retry loop: real batch schedulers re-run their main
        # scheduling pass on a timer, which is what lets jobs vetoed by
        # a time-varying condition (DR window, seasonal cap, budget)
        # start once the condition clears.
        self.sim.every(
            self.scheduler_interval,
            self.request_schedule_pass,
            priority=EventPriority.CONTROL,
            name="schedule-retry",
        )
        self.meter.start()

    @property
    def all_jobs_terminal(self) -> bool:
        """True once every submitted job reached a terminal state."""
        return self._terminal_count >= len(self.jobs)

    @property
    def progress_count(self) -> int:
        """Monotone progress indicator (starts + terminations)."""
        return self._terminal_count + self._started_count

    def finalize(self) -> SimulationResult:
        """Stop metering and assemble the result bundle."""
        final = self.sim.now
        self.meter.stop()
        self.meter.sample()
        first_submit = min((j.submit_time for j in self.jobs), default=0.0)
        span = max(final - first_submit, 1e-9)
        metrics = compute_metrics(
            self.jobs,
            total_nodes=len(self.machine),
            span=span,
            meter=self.meter,
            cap_watts=self.cap_watts_for_metrics,
        )
        metrics.extra["boots_initiated"] = float(self.rm.boots_initiated)
        metrics.extra["shutdowns_initiated"] = float(self.rm.shutdowns_initiated)
        return SimulationResult(
            jobs=self.jobs,
            metrics=metrics,
            trace=self.trace,
            meter=self.meter,
            machine=self.machine,
            final_time=final,
        )

    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
        stall_timeout: float = 30.0 * 86400.0,
    ) -> SimulationResult:
        """Execute the workload; returns the result bundle.

        With no *until*, runs until every job reached a terminal state.
        Periodic components (meters, policy ticks) do not keep the
        simulation alive.  If queued jobs make no progress for
        *stall_timeout* simulated seconds (e.g. a job larger than the
        machine under strict FCFS), the run stops and those jobs are
        reported as unfinished.
        """
        self.prepare()
        if until is not None:
            self.sim.run(until=until, max_events=max_events)
        else:
            fired = 0
            last_progress_count = -1
            last_progress_time = self.sim.now
            while not self.all_jobs_terminal:
                if not self.sim.step():
                    break
                fired += 1
                if max_events is not None and fired >= max_events:
                    raise SchedulingError(
                        f"exceeded max_events={max_events}; runaway simulation?"
                    )
                progress = self.progress_count
                if progress != last_progress_count:
                    last_progress_count = progress
                    last_progress_time = self.sim.now
                elif self.sim.now - last_progress_time > stall_timeout:
                    self.trace.emit(
                        self.sim.now, "sim.stall",
                        unfinished=len(self.jobs) - self._terminal_count,
                    )
                    break
        return self.finalize()
