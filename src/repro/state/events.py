"""Describing and rebuilding pending simulator events.

A :class:`ClusterSimulation` heap holds only a closed universe of
event actions — job submissions/completions/timeouts, scheduler
passes, policy ticks, meter samples, RM boot/shutdown completions and
scripted admin actions — every one a *bound method* on an object
reachable from the simulation (the engine refactor replaced the
remaining closures with :class:`~repro.simulator.engine.PeriodicChain`
and RM bound methods precisely so this holds).

``describe_event`` turns a live :class:`~repro.simulator.events.Event`
into a plain dict (root key + method name + encoded args, or periodic
chain parameters); ``build_event`` re-plants it on a restored
simulation with its original ``(time, priority, seq)`` so FIFO
tie-breaks replay bit-identically.

Extension: a simulation component outside this universe (e.g. a
:class:`FailureInjector` wired directly to the engine) makes snapshots
fail with a :class:`StateError` naming the offending event.  Register
the owning object under a stable root key via ``extra_roots`` on both
:func:`repro.state.snapshot` and :func:`repro.state.restore` to make
its bound-method events capturable.
"""

from __future__ import annotations

import inspect
from typing import Any, Callable, Dict, Tuple

from ..cluster.node import Node
from ..errors import StateError
from ..simulator.engine import EventHandle, PeriodicChain, Simulator
from ..simulator.events import Event
from ..workload.job import Job


def simulation_roots(sim_obj, extra_roots: Dict[str, Any] = None) -> Dict[str, Any]:
    """Stable root key -> live object map for one simulation."""
    roots: Dict[str, Any] = {
        "sim": sim_obj,
        "rm": sim_obj.rm,
        "meter": sim_obj.meter,
        "scheduler": sim_obj.scheduler,
    }
    for i, policy in enumerate(sim_obj.policies):
        roots[f"policy:{i}"] = policy
    for key, component in getattr(sim_obj, "components", {}).items():
        roots[f"component:{key}"] = component
    if extra_roots:
        for key, obj in extra_roots.items():
            if key in roots:
                raise StateError(f"extra root key {key!r} collides with a built-in root")
            roots[key] = obj
    return roots


def _root_keys(roots: Dict[str, Any]) -> Dict[int, str]:
    return {id(obj): key for key, obj in roots.items()}


# ----------------------------------------------------------------------
# Argument codecs
# ----------------------------------------------------------------------
def _encode_arg(arg: Any, owner: Any, by_id: Dict[int, str], name: str) -> Any:
    if arg is None or isinstance(arg, (bool, int, float, str)):
        return arg
    if isinstance(arg, Job):
        return {"$job": arg.job_id}
    if isinstance(arg, Node):
        return {"$node": arg.node_id}
    key = by_id.get(id(arg))
    if key is not None:
        return {"$root": key}
    # Item-by-identity in a list attribute of the owning root (e.g.
    # ManualActionPolicy's AdminAction instances in ``actions``).
    for attr in ("actions",):
        items = getattr(owner, attr, None)
        if isinstance(items, list):
            for i, item in enumerate(items):
                if item is arg:
                    return {"$item": [attr, i]}
    raise StateError(
        f"event {name!r}: cannot encode argument of type "
        f"{type(arg).__name__} for capture"
    )


def _resolve_arg(enc: Any, owner: Any, roots: Dict[str, Any],
                 job_index: Dict[str, Job], machine) -> Any:
    if isinstance(enc, dict):
        if "$job" in enc:
            try:
                return job_index[enc["$job"]]
            except KeyError:
                raise StateError(f"restored simulation has no job {enc['$job']!r}")
        if "$node" in enc:
            return machine.node(enc["$node"])
        if "$root" in enc:
            try:
                return roots[enc["$root"]]
            except KeyError:
                raise StateError(f"restored simulation has no root {enc['$root']!r}")
        if "$item" in enc:
            attr, i = enc["$item"]
            return getattr(owner, attr)[i]
    return enc


def _describe_call(action: Callable, args: Tuple, by_id: Dict[int, str],
                   name: str) -> Dict[str, Any]:
    if not inspect.ismethod(action):
        raise StateError(
            f"cannot capture event {name!r}: action {action!r} is not a bound "
            f"method of a simulation component (see repro.state extension "
            f"notes for ad-hoc events)"
        )
    owner = action.__self__
    root = by_id.get(id(owner))
    if root is None:
        raise StateError(
            f"cannot capture event {name!r}: its target "
            f"{type(owner).__name__} is not reachable from the simulation; "
            f"pass it via extra_roots to snapshot()/restore()"
        )
    return {
        "root": root,
        "method": action.__name__,
        "args": [_encode_arg(a, owner, by_id, name) for a in args],
    }


def _build_call(call: Dict[str, Any], roots: Dict[str, Any],
                job_index: Dict[str, Job], machine) -> Tuple[Callable, Tuple]:
    try:
        owner = roots[call["root"]]
    except KeyError:
        raise StateError(f"checkpoint references unknown root {call['root']!r}")
    method = getattr(owner, call["method"], None)
    if not callable(method):
        raise StateError(
            f"{type(owner).__name__} has no method {call['method']!r} "
            f"(checkpoint from an incompatible build?)"
        )
    args = tuple(
        _resolve_arg(a, owner, roots, job_index, machine) for a in call["args"]
    )
    return method, args


# ----------------------------------------------------------------------
# Events
# ----------------------------------------------------------------------
def describe_event(event: Event, by_id: Dict[int, str]) -> Dict[str, Any]:
    """Plain-data description of one live heap event."""
    action = event.action
    if inspect.ismethod(action) and isinstance(action.__self__, PeriodicChain):
        chain = action.__self__
        return {
            "kind": "periodic",
            "interval": chain.interval,
            "priority": chain.priority,
            "name": chain.name,
            "until": chain.until,
            "next_time": event.time,
            "seq": event.seq,
            # Phase-locked grid: restored chains must keep firing at
            # ``epoch + k * interval``, not re-anchor at next_time.
            "epoch": chain.epoch,
            "index": chain.index,
            "call": _describe_call(chain.action, chain.args, by_id, chain.name),
        }
    return {
        "kind": "call",
        "time": event.time,
        "priority": event.priority,
        "seq": event.seq,
        "name": event.name,
        "call": _describe_call(action, event.args, by_id, event.name),
    }


def build_event(desc: Dict[str, Any], engine: Simulator, roots: Dict[str, Any],
                job_index: Dict[str, Job], machine) -> Tuple[str, EventHandle]:
    """Re-plant one described event; returns ``(name, handle)`` so the
    restore pass can rewire stored handles (job end/timeout, meter)."""
    action, args = _build_call(desc["call"], roots, job_index, machine)
    if desc["kind"] == "periodic":
        handle = engine.restore_periodic(
            desc["interval"], action, args,
            priority=desc["priority"], name=desc["name"],
            until=desc["until"], next_time=desc["next_time"], seq=desc["seq"],
            epoch=desc.get("epoch"), index=desc.get("index", 0),
        )
        return desc["name"], handle
    handle = engine.restore_event(
        desc["time"], desc["priority"], desc["seq"], action,
        args=args, name=desc["name"],
    )
    return desc["name"], handle
