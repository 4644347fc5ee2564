"""Parallel, cached experiment execution.

Every benchmark and sweep in this repo ultimately runs a list of
independent simulation *variants* (scenario builders x seeds).  The
:class:`ExperimentExecutor` fans that list out over a process pool,
derives deterministic per-replica seeds through
:func:`repro.simulator.rng.derive_seed`, memoizes finished runs in an
on-disk JSON cache, retries crashed workers a bounded number of times,
and records wall-clock progress in a :class:`TraceRecorder` so sweeps
are observable after the fact.

Design constraints
------------------
* **Determinism** — a parallel run must produce metrics byte-identical
  to a sequential run of the same specs: workers receive the complete
  task description (builder, kwargs, derived seed) and build the
  simulation from scratch, so nothing depends on execution order.
* **Picklability** — :attr:`VariantSpec.build` must be a module-level
  callable (or :func:`functools.partial` of one) for ``workers > 1``;
  closures cannot cross a process boundary.  ``workers=1`` accepts
  any callable and never touches the pool.
* **Cache soundness** — cache entries are keyed by
  ``(variant name, seed, config fingerprint)`` where the fingerprint
  hashes the builder identity and its arguments; a changed argument or
  builder invalidates the entry automatically.  Only the flat metrics
  dict (plus run counters) is persisted — never live simulation
  objects.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pathlib
import re
import time
from concurrent.futures import BrokenExecutor, ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from .._version import __version__
from ..core.metrics import MetricsReport
from ..errors import ReproError
from ..simulator.rng import derive_seed
from ..simulator.trace import TraceRecorder
from ..state.serialize import STATE_SCHEMA_VERSION

#: Canonical cache location for benches and examples (relative to the
#: repo root / current working directory).
DEFAULT_CACHE_DIR = pathlib.Path("benchmarks") / "out" / "cache"

#: Bumped whenever the persisted record layout changes; old entries
#: are then treated as misses, never mis-read.
CACHE_SCHEMA_VERSION = 1


class ExecutorError(ReproError):
    """A variant failed in the executor after all retry attempts."""


@dataclass(frozen=True)
class VariantSpec:
    """Picklable description of one experimental arm.

    Parameters
    ----------
    name:
        Unique variant name (also the cache key component).
    build:
        Module-level callable returning either a
        :class:`~repro.core.simulation.ClusterSimulation`, an object
        with a ``.simulation`` attribute (e.g.
        :class:`~repro.centers.base.CenterBuild`), or — for analysis
        tasks with no simulation — a plain metrics mapping.
    kwargs:
        Keyword arguments passed to ``build``.
    seed_kwarg:
        Name of the keyword through which the derived per-replica seed
        is injected; ``None`` when the builder manages its own seed
        (the derived seed then only keys the cache).
    notes:
        Free-form annotation carried into results.
    """

    name: str
    build: Callable[..., Any]
    kwargs: Mapping[str, Any] = field(default_factory=dict)
    seed_kwarg: Optional[str] = None
    notes: str = ""


@dataclass
class RunRecord:
    """Outcome of one (variant, replica) execution."""

    variant: str
    replica: int
    seed: int
    fingerprint: str
    metrics: Dict[str, float]
    final_time: float = 0.0
    events_fired: int = 0
    wall_seconds: float = 0.0
    attempts: int = 1
    from_cache: bool = False
    notes: str = ""

    def metrics_report(self) -> MetricsReport:
        """The metrics as a structured :class:`MetricsReport`."""
        return MetricsReport.from_dict(self.metrics)


@dataclass(frozen=True)
class _Task:
    """Fully resolved unit of work shipped to a worker."""

    spec: VariantSpec
    replica: int
    seed: int
    until: Optional[float]
    fingerprint: str
    index: int
    max_attempts: int
    checkpoint_interval: Optional[float] = None
    checkpoint_path: Optional[str] = None


def _callable_identity(build: Callable[..., Any]) -> Dict[str, str]:
    """Stable description of a builder for fingerprinting."""
    if isinstance(build, functools.partial):
        inner = _callable_identity(build.func)
        return {
            "partial_of": f"{inner.get('module', '?')}:{inner.get('qualname', '?')}",
            "args": repr(build.args),
            "keywords": repr(sorted(build.keywords.items())),
        }
    return {
        "module": getattr(build, "__module__", "?") or "?",
        "qualname": getattr(build, "__qualname__", repr(build)),
    }


def config_fingerprint(
    spec: VariantSpec, seed: int, until: Optional[float]
) -> str:
    """Hex digest identifying one task's full configuration.

    Two tasks share a fingerprint exactly when they would execute the
    same builder with the same arguments, seed and horizon — the
    condition under which a cached result may be reused.
    """
    payload = {
        "schema": CACHE_SCHEMA_VERSION,
        # Package and state-schema versions participate so stale cache
        # entries (and checkpoints) from an older build are never
        # reused: a version bump changes every fingerprint, hence every
        # cache file name.
        "repro_version": __version__,
        "state_schema": STATE_SCHEMA_VERSION,
        "variant": spec.name,
        "seed": int(seed),
        "until": until,
        "seed_kwarg": spec.seed_kwarg,
        "build": _callable_identity(spec.build),
        "kwargs": repr(sorted(spec.kwargs.items())),
    }
    blob = json.dumps(payload, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()


def _run_simulation(task: _Task, simulation):
    """Run one simulation, resuming from / writing periodic checkpoints
    when the task carries a checkpoint path.

    Resume-from-checkpoint grafts the saved state onto the freshly
    built *simulation* (same builder, same seed, so the config digest
    matches); a missing, corrupt or config-mismatched checkpoint falls
    back to a fresh run.  The checkpoint file is removed once the run
    completes — from then on the result cache answers.
    """
    if task.checkpoint_path is None or task.checkpoint_interval is None:
        return simulation.run(until=task.until)
    from ..state import (
        StateError, checkpoint_to, load_state, restore, run_checkpointed,
    )
    try:
        state = load_state(task.checkpoint_path)
    except (OSError, StateError):
        state = None
    if state is not None:
        try:
            simulation = restore(state, lambda: simulation)
        except StateError:
            pass  # stale or foreign checkpoint: start fresh
    result = run_checkpointed(
        simulation,
        interval=task.checkpoint_interval,
        sink=checkpoint_to(task.checkpoint_path),
        until=task.until,
    )
    try:
        os.unlink(task.checkpoint_path)
    except OSError:
        pass
    return result


def _run_task(task: _Task) -> RunRecord:
    """Execute one task (worker side); retries crashes up to the bound.

    Module-level so it pickles into pool workers.  Raises
    :class:`ExecutorError` once every attempt failed.
    """
    last_error: Optional[BaseException] = None
    for attempt in range(1, task.max_attempts + 1):
        start = time.perf_counter()
        try:
            kwargs = dict(task.spec.kwargs)
            if task.spec.seed_kwarg is not None:
                kwargs[task.spec.seed_kwarg] = task.seed
            target = task.spec.build(**kwargs)
            simulation = getattr(target, "simulation", target)
            if hasattr(simulation, "run"):
                result = _run_simulation(task, simulation)
                metrics = {
                    k: float(v) for k, v in result.metrics.as_dict().items()
                }
                final_time = float(result.final_time)
                events = int(getattr(simulation, "sim", simulation).events_fired)
            elif isinstance(target, Mapping):
                metrics = {k: float(v) for k, v in target.items()}
                final_time = 0.0
                events = 0
            else:
                raise ExecutorError(
                    f"variant {task.spec.name!r} built {type(target).__name__}; "
                    "expected a simulation, an object with .simulation, or a "
                    "metrics mapping"
                )
            return RunRecord(
                variant=task.spec.name,
                replica=task.replica,
                seed=task.seed,
                fingerprint=task.fingerprint,
                metrics=metrics,
                final_time=final_time,
                events_fired=events,
                wall_seconds=time.perf_counter() - start,
                attempts=attempt,
                notes=task.spec.notes,
            )
        except ExecutorError:
            raise
        except Exception as exc:  # noqa: BLE001 - retry boundary
            last_error = exc
    raise ExecutorError(
        f"variant {task.spec.name!r} (replica {task.replica}, seed "
        f"{task.seed}) failed after {task.max_attempts} attempts: "
        f"{last_error!r}"
    )


class ResultCache:
    """On-disk JSON store of finished :class:`RunRecord` objects.

    Layout: one file per task under *root*, named
    ``<variant>--s<seed>--<fingerprint[:16]>.json``; unreadable,
    stale-schema or fingerprint-mismatched files are silently treated
    as misses.
    """

    def __init__(self, root: pathlib.Path) -> None:
        self.root = pathlib.Path(root)

    def _path(self, task: _Task) -> pathlib.Path:
        slug = re.sub(r"[^A-Za-z0-9._-]+", "_", task.spec.name)
        return self.root / f"{slug}--s{task.seed}--{task.fingerprint[:16]}.json"

    def load(self, task: _Task) -> Optional[RunRecord]:
        """The cached record for *task*, or ``None`` on any miss."""
        path = self._path(task)
        try:
            payload = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return None
        if (
            payload.get("schema") != CACHE_SCHEMA_VERSION
            or payload.get("fingerprint") != task.fingerprint
        ):
            return None
        record_data = payload.get("record")
        if not isinstance(record_data, dict):
            return None
        try:
            record = RunRecord(**record_data)
        except TypeError:
            return None
        record.from_cache = True
        record.replica = task.replica
        return record

    def store(self, record: RunRecord) -> pathlib.Path:
        """Persist *record*; returns the file written."""
        self.root.mkdir(parents=True, exist_ok=True)
        data = asdict(record)
        data["from_cache"] = False
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "fingerprint": record.fingerprint,
            "record": data,
        }
        slug = re.sub(r"[^A-Za-z0-9._-]+", "_", record.variant)
        path = self.root / (
            f"{slug}--s{record.seed}--{record.fingerprint[:16]}.json"
        )
        tmp = path.with_suffix(".json.tmp")
        tmp.write_text(json.dumps(payload, sort_keys=True), encoding="utf-8")
        tmp.replace(path)
        return path


class ExperimentExecutor:
    """Fan a list of :class:`VariantSpec` out over processes, with cache.

    Parameters
    ----------
    workers:
        Process-pool size; ``1`` executes inline (no pool, any
        callable allowed).
    replicas:
        Seed replicas per variant; replica ``i`` of variant ``v`` runs
        with ``derive_seed(base_seed, f"{v}/replica:{i}")``.
    base_seed:
        Root of the per-replica seed derivation.
    until:
        Simulation horizon forwarded to every run.
    cache_dir:
        Directory for the JSON result cache; ``None`` disables
        caching.  Benches use ``DEFAULT_CACHE_DIR``
        (``benchmarks/out/cache/``).
    max_attempts:
        Per-task retry bound for crashed or raising workers.
    checkpoint_interval:
        Simulated seconds between on-disk checkpoints of each running
        simulation (``None`` disables checkpointing).  Requires a
        ``cache_dir``; checkpoints live under
        ``<cache_dir>/checkpoints/<fingerprint>.ckpt``.  A task that
        crashes (or a whole sweep that is killed and re-run) resumes
        from its last checkpoint and — the determinism contract —
        finishes with metrics identical to an uninterrupted run.
    trace:
        Recorder for wall-clock progress records (``executor.*``
        categories, timestamped with seconds since the sweep started).
    progress:
        Optional ``(done, total, record)`` callback fired as results
        arrive (completion order, not submission order).
    """

    def __init__(
        self,
        workers: int = 1,
        replicas: int = 1,
        base_seed: int = 0,
        until: Optional[float] = None,
        cache_dir: Optional[pathlib.Path] = None,
        max_attempts: int = 3,
        checkpoint_interval: Optional[float] = None,
        trace: Optional[TraceRecorder] = None,
        progress: Optional[Callable[[int, int, RunRecord], None]] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if replicas < 1:
            raise ValueError(f"replicas must be >= 1, got {replicas}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        if checkpoint_interval is not None:
            if checkpoint_interval <= 0:
                raise ValueError(
                    f"checkpoint_interval must be > 0, got {checkpoint_interval}"
                )
            if cache_dir is None:
                raise ValueError(
                    "checkpoint_interval requires a cache_dir (checkpoints "
                    "live under <cache_dir>/checkpoints/)"
                )
        self.checkpoint_interval = checkpoint_interval
        self.workers = int(workers)
        self.replicas = int(replicas)
        self.base_seed = int(base_seed)
        self.until = until
        self.cache = ResultCache(cache_dir) if cache_dir is not None else None
        self.max_attempts = int(max_attempts)
        self.trace = trace if trace is not None else TraceRecorder()
        self.progress = progress
        #: Counters and records of the last :meth:`run`.
        self.last_cache_hits = 0
        self.last_executed = 0
        self.last_wall_seconds = 0.0
        self.last_records: List[RunRecord] = []

    # ------------------------------------------------------------------
    def _expand(self, specs: Sequence[VariantSpec]) -> List[_Task]:
        names = [s.name for s in specs]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate variant names: {names}")
        tasks: List[_Task] = []
        for spec in specs:
            for replica in range(self.replicas):
                seed = derive_seed(
                    self.base_seed, f"{spec.name}/replica:{replica}"
                )
                fingerprint = config_fingerprint(spec, seed, self.until)
                ckpt_path = None
                if self.checkpoint_interval is not None:
                    ckpt_path = str(
                        self.cache.root / "checkpoints" / f"{fingerprint}.ckpt"
                    )
                tasks.append(
                    _Task(
                        spec=spec,
                        replica=replica,
                        seed=seed,
                        until=self.until,
                        fingerprint=fingerprint,
                        index=len(tasks),
                        max_attempts=self.max_attempts,
                        checkpoint_interval=self.checkpoint_interval,
                        checkpoint_path=ckpt_path,
                    )
                )
        return tasks

    def _emit(self, started: float, category: str, **data: Any) -> None:
        self.trace.emit(time.perf_counter() - started, category, **data)

    def _report(self, done: int, total: int, record: RunRecord) -> None:
        if self.progress is not None:
            self.progress(done, total, record)

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[VariantSpec]) -> List[RunRecord]:
        """Execute every (variant, replica) task; ordered like *specs*.

        Results are returned in deterministic submission order
        (variant order x replica index) regardless of completion
        order, so downstream tabulation matches a sequential run.
        """
        started = time.perf_counter()
        tasks = self._expand(specs)
        records: List[Optional[RunRecord]] = [None] * len(tasks)
        self._emit(
            started, "executor.sweep_start",
            tasks=len(tasks), workers=self.workers, replicas=self.replicas,
        )

        pending: List[_Task] = []
        for task in tasks:
            cached = self.cache.load(task) if self.cache is not None else None
            if cached is not None:
                records[task.index] = cached
                self._emit(
                    started, "executor.cache_hit",
                    variant=task.spec.name, seed=task.seed,
                    fingerprint=task.fingerprint[:16],
                )
            else:
                pending.append(task)

        done = len(tasks) - len(pending)
        for idx in range(len(tasks)):
            if records[idx] is not None:
                self._report(done, len(tasks), records[idx])

        if pending:
            if self.workers == 1 or len(pending) == 1:
                fresh = self._run_inline(pending, started, done, len(tasks))
            else:
                fresh = self._run_pool(pending, started, done, len(tasks))
            for record in fresh:
                records[self._task_index(tasks, record)] = record

        self.last_cache_hits = len(tasks) - len(pending)
        self.last_executed = len(pending)
        self.last_wall_seconds = time.perf_counter() - started
        self._emit(
            started, "executor.sweep_done",
            tasks=len(tasks), cache_hits=self.last_cache_hits,
            executed=self.last_executed,
            wall_seconds=self.last_wall_seconds,
        )
        self.last_records = [r for r in records if r is not None]
        return self.last_records

    @staticmethod
    def _task_index(tasks: List[_Task], record: RunRecord) -> int:
        for task in tasks:
            if (
                task.spec.name == record.variant
                and task.replica == record.replica
            ):
                return task.index
        raise ExecutorError(f"no task matches record {record.variant!r}")

    def _finish(
        self, task: _Task, record: RunRecord, started: float,
        done: int, total: int,
    ) -> None:
        if self.cache is not None:
            self.cache.store(record)
        self._emit(
            started, "executor.task_done",
            variant=task.spec.name, replica=task.replica, seed=task.seed,
            wall_seconds=record.wall_seconds, attempts=record.attempts,
        )
        self._report(done, total, record)

    def _run_inline(
        self, pending: List[_Task], started: float, done: int, total: int
    ) -> List[RunRecord]:
        out: List[RunRecord] = []
        for task in pending:
            self._emit(
                started, "executor.task_start",
                variant=task.spec.name, replica=task.replica, seed=task.seed,
            )
            record = _run_task(task)
            out.append(record)
            done += 1
            self._finish(task, record, started, done, total)
        return out

    def _run_pool(
        self, pending: List[_Task], started: float, done: int, total: int
    ) -> List[RunRecord]:
        out: List[RunRecord] = []
        remaining = list(pending)
        try:
            with ProcessPoolExecutor(max_workers=self.workers) as pool:
                futures = {
                    pool.submit(_run_task, task): task for task in remaining
                }
                for task in list(futures.values()):
                    self._emit(
                        started, "executor.task_start",
                        variant=task.spec.name, replica=task.replica,
                        seed=task.seed,
                    )
                for future, task in futures.items():
                    record = future.result()
                    out.append(record)
                    remaining.remove(task)
                    done += 1
                    self._finish(task, record, started, done, total)
        except BrokenExecutor:
            # A worker died hard (OOM kill, segfault).  Fall back to
            # inline execution for whatever is left; _run_task's own
            # bounded retry then governs repeated crashes.
            self._emit(
                started, "executor.pool_broken", remaining=len(remaining)
            )
            out.extend(self._run_inline(remaining, started, done, total))
        return out


def _fanout_call(fn: Callable[[Any], Any], task: Any, max_attempts: int) -> Any:
    """Worker-side wrapper: bounded retries around one task call."""
    last_error: Optional[BaseException] = None
    for attempt in range(1, max_attempts + 1):
        try:
            return fn(task)
        except ExecutorError:
            raise
        except Exception as exc:  # noqa: BLE001 - retry boundary
            last_error = exc
    raise ExecutorError(
        f"fanout task failed after {max_attempts} attempts: {last_error!r}"
    )


class FanoutPool:
    """Order-preserving, pinned process fan-out for picklable tasks.

    The :class:`ExperimentExecutor` above owns the variant/replica/cache
    machinery; this is the raw substrate under it for callers — the
    federation campaign foremost — that ship their own task objects
    (e.g. an epoch's worth of site snapshots) and need the pool to
    *persist across calls* so workers warm up once, not once per epoch.

    Each worker slot is its own single-process executor, and task *i*
    of every ``map`` call runs on slot ``i % workers``.  A caller that
    keeps its task order stable therefore keeps each task on the same
    worker process — and on whatever that process kept in module state
    from the previous call (the federation's live sites).

    Contract: ``map(fn, tasks)`` returns results in task order, with
    ``fn`` a module-level picklable callable for ``workers > 1``
    (``workers == 1`` executes inline and accepts any callable).
    Worker crashes retry up to ``max_attempts`` in the worker.  A broken
    slot (hard worker death) runs its unfinished tasks inline; only that
    slot is respawned, on the next call.
    """

    def __init__(self, workers: int = 1, max_attempts: int = 3) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {max_attempts}")
        self.workers = int(workers)
        self.max_attempts = int(max_attempts)
        self._slots: List[Optional[ProcessPoolExecutor]] = [None] * self.workers

    # ------------------------------------------------------------------
    def _submit(self, slot: int, fn: Callable[[Any], Any], task: Any):
        """Queue *task* on *slot*; ``None`` when the slot is broken."""
        pool = self._slots[slot]
        if pool is None:
            pool = self._slots[slot] = ProcessPoolExecutor(max_workers=1)
        try:
            return pool.submit(_fanout_call, fn, task, self.max_attempts)
        except BrokenExecutor:
            return None

    def _discard_slot(self, slot: int) -> None:
        pool = self._slots[slot]
        if pool is not None:
            pool.shutdown(wait=False, cancel_futures=True)
            self._slots[slot] = None

    def map(self, fn: Callable[[Any], Any], tasks: Sequence[Any]) -> List[Any]:
        """Apply *fn* to every task; results in task order."""
        tasks = list(tasks)
        if self.workers == 1:
            return [_fanout_call(fn, task, self.max_attempts) for task in tasks]
        futures = [
            self._submit(i % self.workers, fn, task)
            for i, task in enumerate(tasks)
        ]
        results: List[Any] = []
        broken = set()
        for i, (task, future) in enumerate(zip(tasks, futures)):
            if future is not None:
                try:
                    results.append(future.result())
                    continue
                except BrokenExecutor:
                    pass
            broken.add(i % self.workers)
            results.append(_fanout_call(fn, task, self.max_attempts))
        for slot in broken:
            self._discard_slot(slot)
        return results

    def close(self) -> None:
        """Shut every worker slot down (idempotent)."""
        for slot, pool in enumerate(self._slots):
            if pool is not None:
                pool.shutdown(wait=True)
                self._slots[slot] = None

    def __enter__(self) -> "FanoutPool":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()


__all__ = [
    "CACHE_SCHEMA_VERSION",
    "DEFAULT_CACHE_DIR",
    "ExecutorError",
    "ExperimentExecutor",
    "FanoutPool",
    "ResultCache",
    "RunRecord",
    "VariantSpec",
    "config_fingerprint",
]
