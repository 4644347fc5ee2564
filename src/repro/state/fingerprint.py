"""State fingerprints: cheap per-event probes and exact digests.

Two tiers:

* :func:`light_fingerprint` — a cheap digest of the counters and
  per-execution progress that change on (almost) every event.  Safe to
  call from an engine observer: it reads only existing fields and never
  flushes the power caches (flushing would change *when* the half-dirty
  re-sum path triggers and hence the last-ulp float results of the run
  under observation).
* :func:`state_fingerprint` / :func:`sim_fingerprint` — the sha256 of
  the canonical serialized snapshot: exact, order-sensitive, used by
  the round-trip fixed-point tests and divergence reports.  Given the
  ``RPST`` bytes of a snapshot, :func:`state_fingerprint` reads the
  verified content hash off the blob instead of encoding again.

:func:`result_fingerprint` digests a finished
:class:`~repro.core.simulation.SimulationResult` (job outcomes, meter
series, final time) — what "identical results" means in the resume
acceptance tests and the CI replay-determinism job.
"""

from __future__ import annotations

import hashlib
from typing import Any, Dict, List, Tuple, Union

import numpy as np

from .capture import snapshot
from .serialize import SimState, blob_digest, state_digest


def light_fingerprint(sim_obj) -> str:
    """Cheap, non-perturbing digest of the fast-changing state."""
    engine = sim_obj.sim
    power_total = sim_obj.power_vector._total
    parts = [
        repr(engine.now), str(engine._seq), str(engine.events_fired),
        str(engine.pending), str(sim_obj._started_count),
        str(sim_obj._terminal_count), str(len(sim_obj.queue._jobs)),
        repr(power_total), str(sim_obj.trace.total_emitted),
        str(sim_obj.meter.num_samples), repr(sim_obj.meter.energy_joules),
    ]
    for job_id, e in sim_obj._executions.items():
        parts.append(
            f"{job_id}:{e.work_done!r}:{e.speed!r}:{e.power_watts!r}:"
            f"{e.last_update!r}"
        )
    return hashlib.sha256("|".join(parts).encode()).hexdigest()


def state_fingerprint(state: Union[SimState, bytes]) -> str:
    """Exact canonical digest of a snapshot or of its ``to_bytes`` blob.

    A blob's header hash is checked by re-hashing the blob, not by
    parsing it; a tampered blob raises :class:`~repro.errors.StateError`.
    """
    if isinstance(state, (bytes, bytearray)):
        return blob_digest(state)
    return state_digest(state)


def sim_fingerprint(sim_obj) -> str:
    """Exact digest of the live simulation (snapshots it first)."""
    return state_digest(snapshot(sim_obj))


def component_digests(state: SimState) -> Dict[str, str]:
    """Per-section digests of a snapshot — names the diverging
    subsystem in a divergence report."""
    out = {}
    for key, value in state.data.items():
        section = SimState(state.schema, state.repro_version, {key: value})
        out[key] = state_digest(section)
    return out


def result_fingerprint(result) -> str:
    """Digest of a :class:`SimulationResult`: per-job outcomes and
    energy, the meter series, and the final clock."""
    h = hashlib.sha256()
    h.update(repr(result.final_time).encode())
    for job in sorted(result.jobs, key=lambda j: j.job_id):
        h.update(
            f"{job.job_id}|{job.state.value}|{job.start_time!r}|"
            f"{job.end_time!r}|{job.energy_joules!r}|"
            f"{sorted(job.assigned_nodes)!r}\n".encode()
        )
    times, watts = result.meter.series()
    h.update(np.ascontiguousarray(times, dtype=float).tobytes())
    h.update(np.ascontiguousarray(watts, dtype=float).tobytes())
    h.update(repr(result.meter.energy_joules).encode())
    return h.hexdigest()


def diff_states(a: SimState, b: SimState, limit: int = 32) -> List[Tuple[str, Any, Any]]:
    """Leaf-level differences between two snapshots as
    ``(path, a_value, b_value)`` triples (up to *limit*)."""
    out: List[Tuple[str, Any, Any]] = []

    def walk(x: Any, y: Any, path: str) -> None:
        if len(out) >= limit:
            return
        if type(x) is not type(y):
            out.append((path, x, y))
            return
        if isinstance(x, dict):
            for k in x.keys() | y.keys():
                if k not in x or k not in y:
                    out.append((f"{path}.{k}", x.get(k, "<absent>"),
                                y.get(k, "<absent>")))
                else:
                    walk(x[k], y[k], f"{path}.{k}")
            return
        if isinstance(x, (list, tuple)):
            if len(x) != len(y):
                out.append((f"{path}#len", len(x), len(y)))
                return
            for i, (xv, yv) in enumerate(zip(x, y)):
                walk(xv, yv, f"{path}[{i}]")
            return
        if isinstance(x, np.ndarray):
            if x.shape != y.shape or x.dtype != y.dtype or not np.array_equal(
                x, y, equal_nan=True
            ):
                out.append((path, x, y))
            return
        if isinstance(x, float):
            equal = (x == y) or (np.isnan(x) and np.isnan(y))
        else:
            equal = x == y
        if not equal:
            out.append((path, x, y))

    walk(a.data, b.data, "")
    return out
