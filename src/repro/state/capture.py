"""Snapshot and restore of live :class:`ClusterSimulation` state.

Contract
--------
``snapshot(sim)`` walks a *running* simulation and produces a
:class:`~repro.state.serialize.SimState`: a plain-data tree holding the
engine clock/heap/sequence counters, every rng stream position, all
mutable node-store columns, job life-cycle state, running executions, queue
contents, the power mirror's accounting caches (captured bit-exactly
— a restored run must NOT re-sum, because a full re-sum can differ
from the incremental accumulator in the last ulp), meter and trace
buffers, and scheduler/policy attributes.

``restore(state, factory)`` takes a *factory* — a zero-argument
callable rebuilding a structurally identical fresh simulation (same
machine spec, scheduler, policies, workload, seed; the
executor passes its variant builder) — then wipes the fresh heap and
grafts the captured dynamic state onto it.  A config digest recorded
at snapshot time guards against restoring onto a different recipe.

The round-trip invariant: the restored simulation fires bit-identical
subsequent events, so ``run()`` from a checkpoint finishes with a
``SimulationResult`` identical to the uninterrupted run.  Pass-local
scheduler scratch (e.g. the release curve and the reservations a
backfill pass subtracts from it) never lives across events, so
capturing between events needs no scheduler-internal heap state.
"""

from __future__ import annotations

import copy
import enum
import hashlib
import json
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from .._version import __version__
from ..buffers import sample_buffer
from ..cluster.node import STATE_CODES, Node, NodeState
from ..errors import StateError
from ..power.budget import PowerBudget
from ..simulator.trace import TraceRecord
from ..workload.job import Job, JobState, MoldableConfig
from ..workload.phases import Phase, PhaseProfile
from .events import build_event, describe_event, simulation_roots, _root_keys
from .serialize import STATE_SCHEMA_VERSION, SimState

#: Enums allowed to round-trip through generic attribute capture.
_ENUMS = {"NodeState": NodeState, "JobState": JobState}

#: Framework classes that must never be swallowed into a generic
#: attribute capture (they are captured through their own dedicated
#: sections, or are structural and rebuilt by the factory).
_FRAMEWORK_CLASSES = frozenset({
    "ClusterSimulation", "Simulator", "Machine", "Site", "ResourceManager",
    "PowerMeter", "TelemetrySampler", "TraceRecorder", "VectorPowerMirror",
    "RngStreams", "Generator", "EpaCoordinator", "JobQueue", "JobExecution",
    "EventHandle", "_ChainHandle", "PeriodicChain", "NodePowerModel",
    "SiteSimulation", "BudgetCoordinator",
})

_FAIL = object()

#: Node columns fixed at build, in config-signature order (after the id).
_STATIC_COLUMNS = (
    "cores", "memory_gb", "idle_power", "max_power", "boot_time",
    "shutdown_time", "off_power", "max_frequency", "min_frequency",
)
#: State code <-> the ``NodeState`` value string a snapshot records.
_STATE_VALUES = {code: state.value for state, code in STATE_CODES.items()}
_STATE_CODE_OF = {value: code for code, value in _STATE_VALUES.items()}


# ----------------------------------------------------------------------
# Config signature
# ----------------------------------------------------------------------
def _config_signature(sim_obj) -> Dict[str, Any]:
    machine = sim_obj.machine
    store = machine.store
    node_statics = list(zip(range(len(machine)), *(
        getattr(store, name).tolist() for name in _STATIC_COLUMNS
    )))
    summary = {
        "machine": machine.name,
        "nodes": len(machine),
        "scheduler": type(sim_obj.scheduler).__qualname__,
        "policies": [type(p).__qualname__ for p in sim_obj.policies],
        "seed": sim_obj.rng.seed,
        # The vector mirror is the only power backend; the tag stays
        # so every signature digest (and every fingerprint) is unchanged.
        "backend": "vector",
        "components": sorted(
            (key, type(obj).__qualname__)
            for key, obj in getattr(sim_obj, "components", {}).items()
        ),
        "sample_interval": sim_obj.meter.interval,
        "scheduler_interval": sim_obj.scheduler_interval,
        "comm_penalty": sim_obj.comm_penalty,
        "queues": sorted(sim_obj.queue.queue_names),
    }
    digest = hashlib.sha256(
        json.dumps([summary, node_statics], sort_keys=True).encode()
    ).hexdigest()
    return {"digest": digest, "summary": summary}


# ----------------------------------------------------------------------
# Generic attribute capture (schedulers, policies)
# ----------------------------------------------------------------------
def _encode_value(value: Any, depth: int = 0) -> Any:
    if depth > 12:
        return _FAIL
    if value is None or isinstance(value, (bool, str)):
        return value
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, (int, np.integer)):
        return int(value)
    if isinstance(value, (float, np.floating)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.copy()
    if isinstance(value, enum.Enum):
        kind = type(value).__name__
        if kind not in _ENUMS:
            return _FAIL
        return {"$enum": [kind, value.value]}
    if isinstance(value, Job):
        return {"$job": value.job_id}
    if isinstance(value, Node):
        return {"$node": value.node_id}
    if isinstance(value, PowerBudget):
        return {"$budget": _encode_budget(value)}
    if isinstance(value, (list, tuple)):
        items = [_encode_value(v, depth + 1) for v in value]
        if any(item is _FAIL for item in items):
            return _FAIL
        return items if isinstance(value, list) else tuple(items)
    if isinstance(value, (set, frozenset)):
        items = [_encode_value(v, depth + 1) for v in value]
        if any(item is _FAIL for item in items):
            return _FAIL
        return set(items)
    if isinstance(value, dict):
        out = {}
        for k, v in value.items():
            if not isinstance(k, (str, int, float, bool)) and k is not None:
                return _FAIL
            ev = _encode_value(v, depth + 1)
            if ev is _FAIL:
                return _FAIL
            out[k] = ev
        return out
    if callable(value):
        return _FAIL
    cls = type(value)
    if cls.__name__ in _FRAMEWORK_CLASSES:
        return _FAIL
    from ..core.scheduler import Scheduler
    from ..policies.base import Policy
    if isinstance(value, (Scheduler, Policy)):
        return _FAIL
    # Nested stateful helper owned by the component (e.g. a runtime
    # predictor, a frequency ladder, a frozen config dataclass): capture
    # its plain attributes and re-apply them onto the factory-built
    # counterpart at restore time.
    if cls.__module__.startswith("repro.") and hasattr(value, "__dict__"):
        attrs = {}
        for k, v in vars(value).items():
            ev = _encode_value(v, depth + 1)
            if ev is not _FAIL:
                attrs[k] = ev
        return {"$obj": {"class": cls.__qualname__, "attrs": attrs}}
    return _FAIL


def _encode_budget(budget: PowerBudget) -> Dict[str, Any]:
    return {
        "name": budget.name,
        "limit": budget.limit_watts,
        "reserved": budget.reserved,
        "children": [_encode_budget(c) for c in budget.children.values()],
    }


def _build_budget(desc: Dict[str, Any], parent: Optional[PowerBudget]) -> PowerBudget:
    budget = PowerBudget(desc["name"], desc["limit"], parent=parent)
    budget._reserved = desc["reserved"]
    for child in desc["children"]:
        _build_budget(child, budget)
    return budget


class _RestoreContext:
    __slots__ = ("job_index", "machine")

    def __init__(self, job_index: Dict[str, Job], machine) -> None:
        self.job_index = job_index
        self.machine = machine


def _decode_value(enc: Any, ctx: _RestoreContext) -> Any:
    if isinstance(enc, dict):
        if "$enum" in enc:
            kind, value = enc["$enum"]
            return _ENUMS[kind](value)
        if "$job" in enc:
            try:
                return ctx.job_index[enc["$job"]]
            except KeyError:
                raise StateError(f"restored simulation has no job {enc['$job']!r}")
        if "$node" in enc:
            return ctx.machine.node(enc["$node"])
        if "$budget" in enc:
            return _build_budget(enc["$budget"], None)
        if "$obj" in enc:
            # Reached only when an $obj sits inside a container (no
            # existing target to patch): not restorable in place.
            raise StateError(
                f"cannot rebuild nested object {enc['$obj']['class']!r} "
                f"inside a container; give the owning component explicit "
                f"__repro_getstate__/__repro_setstate__ hooks"
            )
        return {k: _decode_value(v, ctx) for k, v in enc.items()}
    if isinstance(enc, list):
        return [_decode_value(v, ctx) for v in enc]
    if isinstance(enc, tuple):
        return tuple(_decode_value(v, ctx) for v in enc)
    if isinstance(enc, set):
        return set(_decode_value(v, ctx) for v in enc)
    if isinstance(enc, np.ndarray):
        return enc.copy()
    return enc


def _contains_obj_marker(enc: Any) -> bool:
    if isinstance(enc, dict):
        if "$obj" in enc:
            return True
        return any(_contains_obj_marker(v) for v in enc.values())
    if isinstance(enc, (list, tuple, set)):
        return any(_contains_obj_marker(v) for v in enc)
    return False


def _set_attr(obj: Any, key: str, value: Any) -> None:
    try:
        current = getattr(obj, key, _FAIL)
        if current is not _FAIL and type(current) is type(value) and current == value:
            return  # unchanged (also keeps frozen config objects happy)
    except Exception:
        pass
    try:
        setattr(obj, key, value)
    except AttributeError:
        object.__setattr__(obj, key, value)


def _capture_component(obj: Any) -> Dict[str, Any]:
    """Capture the plain mutable attributes of one scheduler/policy."""
    getstate = getattr(obj, "__repro_getstate__", None)
    if callable(getstate):
        return {"$hook": copy.deepcopy(getstate())}
    out: Dict[str, Any] = {}
    for key, value in vars(obj).items():
        if key == "simulation":
            continue  # framework back-ref, re-wired by the factory
        enc = _encode_value(value)
        if enc is not _FAIL:
            out[key] = enc
    return out


def _apply_component(obj: Any, captured: Dict[str, Any], ctx: _RestoreContext) -> None:
    if "$hook" in captured:
        setstate = getattr(obj, "__repro_setstate__", None)
        if not callable(setstate):
            raise StateError(
                f"{type(obj).__name__} captured via __repro_getstate__ but "
                f"has no __repro_setstate__"
            )
        setstate(copy.deepcopy(captured["$hook"]))
        return
    for key, enc in captured.items():
        if isinstance(enc, dict) and "$obj" in enc:
            target = getattr(obj, key, None)
            if target is None:
                continue
            desc = enc["$obj"]
            if type(target).__qualname__ != desc["class"]:
                raise StateError(
                    f"{type(obj).__name__}.{key}: checkpoint holds a "
                    f"{desc['class']}, factory built a {type(target).__qualname__}"
                )
            for k, v in desc["attrs"].items():
                _set_attr(target, k, _decode_value(v, ctx))
        elif _contains_obj_marker(enc):
            # $obj nested inside a container: leave the factory-built
            # value alone rather than restore it half-way.
            continue
        else:
            _set_attr(obj, key, _decode_value(enc, ctx))


# ----------------------------------------------------------------------
# Jobs
# ----------------------------------------------------------------------
_JOB_MUTABLE = (
    "nodes", "work_seconds", "walltime_request", "start_time", "end_time",
    "assigned_frequency", "energy_joules", "kill_reason", "power_estimate",
)


def _capture_job(job: Job) -> Dict[str, Any]:
    entry = {
        "job_id": job.job_id,
        "submit_time": job.submit_time,
        "user": job.user,
        "app_name": job.app_name,
        "tag": job.tag,
        "memory_gb_per_node": job.memory_gb_per_node,
        "priority": job.priority,
        "queue": job.queue,
        "profile": [(p.fraction, p.sensitivity, p.intensity, p.kind)
                    for p in job.profile],
        "moldable": [(c.nodes, c.work_seconds) for c in job.moldable],
        "state": job.state.value,
        "assigned_nodes": list(job.assigned_nodes),
    }
    for key in _JOB_MUTABLE:
        entry[key] = getattr(job, key)
    return entry


def _apply_job(job: Job, entry: Dict[str, Any]) -> Job:
    for key in _JOB_MUTABLE:
        setattr(job, key, entry[key])
    job.state = JobState(entry["state"])
    job.assigned_nodes = list(entry["assigned_nodes"])
    return job


def _rebuild_job(entry: Dict[str, Any]) -> Job:
    """Reconstruct a job absent from the factory build (e.g. created
    mid-run by a requeue policy)."""
    job = Job(
        job_id=entry["job_id"],
        nodes=int(entry["nodes"]),
        work_seconds=entry["work_seconds"],
        walltime_request=entry["walltime_request"],
        submit_time=entry["submit_time"],
        user=entry["user"],
        profile=PhaseProfile([Phase(*p) for p in entry["profile"]]),
        app_name=entry["app_name"],
        tag=entry["tag"],
        memory_gb_per_node=entry["memory_gb_per_node"],
        priority=entry["priority"],
        queue=entry["queue"],
        moldable=tuple(MoldableConfig(int(n), w) for n, w in entry["moldable"]),
    )
    return _apply_job(job, entry)


# ----------------------------------------------------------------------
# Snapshot
# ----------------------------------------------------------------------
def snapshot(sim_obj, extra_roots: Dict[str, Any] = None) -> SimState:
    """Capture the full live state of *sim_obj* as plain data.

    Raises :class:`StateError` if the heap holds an event the capture
    layer cannot describe (see :mod:`repro.state.events`).
    """
    engine = sim_obj.sim
    roots = simulation_roots(sim_obj, extra_roots)
    by_id = _root_keys(roots)

    events = [describe_event(ev, by_id) for ev in engine.iter_live_events()]

    store = sim_obj.machine.store
    node_state = {
        "state": list(map(_STATE_VALUES.__getitem__, store.state_code.tolist())),
        "frequency": store.frequency.copy(),
        "power_cap": store.power_cap.copy(),
        "variability": store.variability.copy(),
        "last_state_change": store.last_state_change.copy(),
        "idle_since": store.idle_since.copy(),
        # Schema 5 keeps this key; execution membership lives in the
        # executions section, so every entry is None.
        "running_job": [None] * len(store),
    }

    executions = [
        {
            "job_id": e.job.job_id,
            "node_ids": [n.node_id for n in e.nodes],
            "work_done": e.work_done,
            "speed": e.speed,
            "power_watts": e.power_watts,
            "last_update": e.last_update,
            "cap_violated": e.cap_violated,
            "placement_penalty": e.placement_penalty,
        }
        for e in sim_obj._executions.values()
    ]

    mirror = sim_obj.power_vector
    power = {
        "backend": "vector",
        "watts": mirror._watts.copy(),
        "total": mirror._total,
        "dirty": sorted(int(r) for r in store.dirty),
        "all_dirty": mirror._all_dirty,
        "utilization": mirror.utilization.copy(),
        "sensitivity": mirror.sensitivity.copy(),
    }

    meter = sim_obj.meter
    trace = sim_obj.trace
    data = {
        "config": _config_signature(sim_obj),
        "engine": {
            "now": engine.now,
            "seq": engine._seq,
            "events_fired": engine.events_fired,
            "events": events,
        },
        "rng": {
            # The state getter builds a fresh dict on every read, so the
            # snapshot is never aliased with the live generator.
            name: gen.bit_generator.state
            for name, gen in sim_obj.rng._streams.items()
        },
        "nodes": node_state,
        "jobs": [_capture_job(j) for j in sim_obj.jobs],
        # v4: dict with the live-row count so restore can verify the
        # rebuilt JobTable mirrors the queue exactly.
        "queue": {
            "jobs": list(sim_obj.queue._jobs.keys()),
            "table_live": sim_obj.queue._table.live_count,
        },
        "executions": executions,
        "counters": {
            "started": sim_obj._started_count,
            "terminal": sim_obj._terminal_count,
            "pass_pending": sim_obj._pass_pending,
            "prepared": sim_obj._prepared,
            "boots_initiated": sim_obj.rm.boots_initiated,
            "shutdowns_initiated": sim_obj.rm.shutdowns_initiated,
        },
        "power": power,
        "meter": {
            "times": np.array(meter._times, dtype=float),
            "watts": np.array(meter._watts, dtype=float),
            "energy": meter.energy_joules,
        },
        "trace": {
            "enabled": trace.enabled,
            "max_records": trace.max_records,
            "emitted": trace.total_emitted,
            "records": [
                (r.time, r.category, dict(r.data)) for r in trace.records()
            ],
        },
        "scheduler": {
            "class": type(sim_obj.scheduler).__qualname__,
            "attrs": _capture_component(sim_obj.scheduler),
        },
        "policies": [
            {"class": type(p).__qualname__, "attrs": _capture_component(p)}
            for p in sim_obj.policies
        ],
        # v5: attached auxiliary components (telemetry samplers etc.)
        # round-trip like policies; their keys/classes sit in the
        # config digest so restore factories must rebuild them.
        "components": {
            key: {"class": type(obj).__qualname__,
                  "attrs": _capture_component(obj)}
            for key, obj in getattr(sim_obj, "components", {}).items()
        },
    }
    return SimState(schema=STATE_SCHEMA_VERSION, repro_version=__version__, data=data)


# ----------------------------------------------------------------------
# Restore
# ----------------------------------------------------------------------
def restore(state: SimState, factory: Callable[[], Any],
            extra_roots_factory: Callable[[Any], Dict[str, Any]] = None):
    """Rebuild a live simulation from *state*.

    Parameters
    ----------
    state:
        A snapshot produced by :func:`snapshot` (possibly round-tripped
        through :mod:`repro.state.serialize`).
    factory:
        Zero-argument callable returning a fresh, structurally
        identical :class:`ClusterSimulation` (or an object with a
        ``.simulation`` attribute holding one, matching the analysis
        executor's builders).
    extra_roots_factory:
        Optional callable mapping the fresh simulation to the same
        ``extra_roots`` dict that was passed to :func:`snapshot`.

    Returns the restored simulation, ready to continue with
    :meth:`run` (or :func:`repro.state.run_checkpointed`).
    """
    if state.schema != STATE_SCHEMA_VERSION:
        raise StateError(
            f"snapshot schema {state.schema} not supported "
            f"(this build uses {STATE_SCHEMA_VERSION})"
        )
    built = factory()
    sim_obj = getattr(built, "simulation", built)
    data = state.data

    fresh_sig = _config_signature(sim_obj)
    if fresh_sig["digest"] != data["config"]["digest"]:
        raise StateError(
            "factory built a simulation with a different configuration than "
            f"the checkpoint: {fresh_sig['summary']} != {data['config']['summary']}"
        )

    engine = sim_obj.sim
    # Wipe everything the factory scheduled (submits, periodic chains,
    # meter start): the captured heap replaces it wholesale.
    engine.clear_events()
    eng = data["engine"]
    engine.restore_clock(eng["now"], eng["seq"], eng["events_fired"])

    # --- rng streams -------------------------------------------------
    for name, bg_state in data["rng"].items():
        # The setter copies the values into the generator; it keeps no
        # reference to the captured dict.
        sim_obj.rng.stream(name).bit_generator.state = bg_state

    # --- jobs --------------------------------------------------------
    fresh_jobs = {j.job_id: j for j in sim_obj.jobs}
    captured_ids = {entry["job_id"] for entry in data["jobs"]}
    extra = [jid for jid in fresh_jobs if jid not in captured_ids]
    if extra:
        raise StateError(
            f"factory workload has jobs absent from the checkpoint: {extra[:5]}"
        )
    jobs: List[Job] = []
    for entry in data["jobs"]:
        job = fresh_jobs.get(entry["job_id"])
        if job is not None:
            _apply_job(job, entry)
        else:
            job = _rebuild_job(entry)
        jobs.append(job)
    sim_obj.jobs = jobs
    job_index = {j.job_id: j for j in jobs}

    # --- nodes (the store's dirty set is restored with the power) ----
    store = sim_obj.machine.store
    ns = data["nodes"]
    store.load(
        state_code=list(map(_STATE_CODE_OF.__getitem__, ns["state"])),
        frequency=ns["frequency"],
        power_cap=ns["power_cap"],
        variability=ns["variability"],
        last_state_change=ns["last_state_change"],
        idle_since=ns["idle_since"],
    )

    # --- queue -------------------------------------------------------
    # Rebuild through the queue's wholesale-restore hook so the SoA
    # JobTable mirror is regrown row for row (schema v4 contract);
    # grafting ``_jobs`` directly would leave the mirror empty.
    queue_data = data["queue"]
    sim_obj.queue.restore_jobs(
        {jid: job_index[jid] for jid in queue_data["jobs"]}
    )
    if sim_obj.queue._table.live_count != queue_data["table_live"]:
        raise StateError(
            "queue restore: JobTable rebuilt with "
            f"{sim_obj.queue._table.live_count} live rows, snapshot "
            f"recorded {queue_data['table_live']}"
        )

    # --- counters ----------------------------------------------------
    counters = data["counters"]
    sim_obj._started_count = counters["started"]
    sim_obj._terminal_count = counters["terminal"]
    sim_obj._pass_pending = counters["pass_pending"]
    sim_obj._prepared = counters["prepared"]
    sim_obj.rm.boots_initiated = counters["boots_initiated"]
    sim_obj.rm.shutdowns_initiated = counters["shutdowns_initiated"]

    # --- power accounting (bit-exact: no re-sum) ---------------------
    power = data["power"]
    if power["backend"] != "vector":
        raise StateError(
            f"checkpoint power backend {power['backend']!r} is not "
            f"supported (only 'vector')"
        )
    mirror = sim_obj.power_vector
    mirror.utilization[:] = power["utilization"]
    mirror.sensitivity[:] = power["sensitivity"]
    mirror._watts[:] = power["watts"]
    mirror._total = power["total"]
    store.dirty.clear()
    store.dirty.update(int(r) for r in power["dirty"])
    mirror._all_dirty = power["all_dirty"]

    # --- executions --------------------------------------------------
    from ..core.simulation import JobExecution  # local: avoid cycle at import

    sim_obj._executions = {}
    sim_obj._exec_slots = []
    sim_obj._free_slots = []
    # SoA membership is rebuilt from the executions, not captured: slot
    # numbers are pure identities (nothing orders on them), so
    # renumbering on restore cannot perturb replay.  Direct array
    # scatter — not bind_execution — keeps the bit-exact dirty set
    # restored above untouched.
    mirror.exec_slot.fill(-1)
    for entry in data["executions"]:
        job = job_index[entry["job_id"]]
        exec_nodes = [sim_obj.machine.node(nid) for nid in entry["node_ids"]]
        execution = JobExecution(job, exec_nodes)
        execution.work_done = entry["work_done"]
        execution.speed = entry["speed"]
        execution.power_watts = entry["power_watts"]
        execution.last_update = entry["last_update"]
        execution.cap_violated = entry["cap_violated"]
        execution.placement_penalty = entry["placement_penalty"]
        sim_obj._executions[job.job_id] = execution
        execution.rows = np.asarray(entry["node_ids"], dtype=np.intp)
        slot = sim_obj._alloc_slot(execution)
        mirror.exec_slot[execution.rows] = slot

    # --- meter -------------------------------------------------------
    meter = sim_obj.meter
    meter._times = sample_buffer()
    meter._watts = sample_buffer()
    meter._energy_joules = 0.0
    meter.record_batch(data["meter"]["times"], data["meter"]["watts"])
    # The bulk-vectorized trapezoid may differ from the incremental
    # accumulator in the last ulp; the checkpoint's exact value wins.
    meter._energy_joules = data["meter"]["energy"]
    meter._handle = None

    # --- trace -------------------------------------------------------
    trace = sim_obj.trace
    tr = data["trace"]
    trace.enabled = tr["enabled"]
    trace.max_records = tr["max_records"]
    trace._records = [
        TraceRecord(t, category, dict(payload))
        for t, category, payload in tr["records"]
    ]
    trace._dead = 0
    trace._emitted = tr["emitted"]
    trace._pending = []
    trace._buckets = {}
    first = tr["emitted"] - len(trace._records)
    for i, record in enumerate(trace._records):
        trace._buckets.setdefault(record.category, []).append(first + i)

    # --- scheduler / policies ---------------------------------------
    ctx = _RestoreContext(job_index, sim_obj.machine)
    sched = data["scheduler"]
    if type(sim_obj.scheduler).__qualname__ != sched["class"]:
        raise StateError(
            f"factory scheduler {type(sim_obj.scheduler).__qualname__} != "
            f"checkpoint scheduler {sched['class']}"
        )
    _apply_component(sim_obj.scheduler, sched["attrs"], ctx)
    if len(sim_obj.policies) != len(data["policies"]):
        raise StateError(
            f"factory has {len(sim_obj.policies)} policies, checkpoint has "
            f"{len(data['policies'])}"
        )
    for policy, captured in zip(sim_obj.policies, data["policies"]):
        if type(policy).__qualname__ != captured["class"]:
            raise StateError(
                f"policy mismatch: factory {type(policy).__qualname__} != "
                f"checkpoint {captured['class']}"
            )
        _apply_component(policy, captured["attrs"], ctx)

    # --- attached components (config digest guarantees key/class match)
    components = getattr(sim_obj, "components", {})
    for key, captured in data.get("components", {}).items():
        target = components.get(key)
        if target is None:
            raise StateError(
                f"checkpoint has component {key!r} the factory did not attach"
            )
        _apply_component(target, captured["attrs"], ctx)

    # --- events (last: handles wire into restored executions/meter) --
    roots = simulation_roots(
        sim_obj,
        extra_roots_factory(sim_obj) if extra_roots_factory else None,
    )
    handles = {}
    for desc in eng["events"]:
        name, handle = build_event(desc, engine, roots, job_index, sim_obj.machine)
        handles[name] = handle
    for execution in sim_obj._executions.values():
        execution.end_handle = handles.get(f"end:{execution.job.job_id}")
        execution.timeout_handle = handles.get(f"timeout:{execution.job.job_id}")
    meter._handle = handles.get(f"meter:{meter.name}")

    return sim_obj
