"""Tests for the parallel, cached experiment executor.

Builder functions live at module level so they pickle into pool
workers (`tests` is an importable package under the repo root).
"""

from __future__ import annotations

import functools
import json
import os
import pathlib
import time

import pytest

from repro.analysis import (
    ExecutorError,
    ExperimentExecutor,
    ExperimentRunner,
    Variant,
    VariantSpec,
    config_fingerprint,
    render_executor_summary,
)
from repro.analysis.executor import FanoutPool
from repro.cluster import Machine, MachineSpec
from repro.core import ClusterSimulation, EasyBackfillScheduler, FcfsScheduler
from repro.core.metrics import MetricsReport
from repro.simulator import RngStreams, derive_seed
from repro.units import HOUR
from repro.workload import WorkloadGenerator, WorkloadSpec

_SCHEDULERS = {"fcfs": FcfsScheduler, "easy": EasyBackfillScheduler}


def build_sim(seed: int = 0, scheduler: str = "fcfs", nodes: int = 8,
              count: int = 10) -> ClusterSimulation:
    """Small deterministic simulation (picklable module-level builder)."""
    machine = Machine(MachineSpec(name="exec-test", nodes=nodes))
    spec = WorkloadSpec(
        arrival_rate=30.0 / HOUR,
        duration=2.0 * HOUR,
        min_nodes=1,
        max_nodes=max(1, nodes // 2),
        mean_work=HOUR / 6,
    )
    jobs = WorkloadGenerator(spec, RngStreams(seed).stream("wl")).generate(
        count=count
    )
    return ClusterSimulation(machine, _SCHEDULERS[scheduler](), jobs, seed=seed)


def build_metrics_mapping(seed: int = 0) -> dict:
    """Simulation-free analysis task returning a plain metrics dict."""
    return {"answer": 42.0, "seed_echo": float(seed)}


def build_always_crashes(seed: int = 0) -> ClusterSimulation:
    raise RuntimeError("synthetic crash")


def build_flaky(marker: str = "", seed: int = 0) -> dict:
    """Fails on the first attempt, succeeds on the second (via marker file)."""
    path = pathlib.Path(marker)
    if not path.exists():
        path.write_text("attempted")
        raise RuntimeError("first-attempt crash")
    return {"ok": 1.0}


def _specs():
    return [
        VariantSpec(name=name, build=build_sim,
                    kwargs={"scheduler": name}, seed_kwarg="seed")
        for name in ("fcfs", "easy")
    ]


class TestDeterminism:
    def test_parallel_results_identical_to_sequential(self):
        sequential = ExperimentExecutor(workers=1, replicas=2, base_seed=7)
        parallel = ExperimentExecutor(workers=2, replicas=2, base_seed=7)
        seq_records = sequential.run(_specs())
        par_records = parallel.run(_specs())
        assert [(r.variant, r.replica, r.seed) for r in seq_records] == \
               [(r.variant, r.replica, r.seed) for r in par_records]
        assert [r.metrics for r in seq_records] == \
               [r.metrics for r in par_records]

    def test_replica_seeds_derived_through_rng(self):
        executor = ExperimentExecutor(replicas=3, base_seed=11)
        records = executor.run(
            [VariantSpec(name="fcfs", build=build_sim, seed_kwarg="seed")]
        )
        expected = [derive_seed(11, f"fcfs/replica:{i}") for i in range(3)]
        assert [r.seed for r in records] == expected
        assert len(set(expected)) == 3  # replicas use distinct seeds

    def test_mapping_tasks_supported(self):
        records = ExperimentExecutor(base_seed=5).run(
            [VariantSpec(name="m", build=build_metrics_mapping,
                         seed_kwarg="seed")]
        )
        assert records[0].metrics["answer"] == 42.0
        assert records[0].metrics["seed_echo"] == float(
            derive_seed(5, "m/replica:0")
        )


class TestCache:
    def test_warm_cache_executes_nothing(self, tmp_path):
        cache = tmp_path / "cache"
        cold = ExperimentExecutor(workers=1, cache_dir=cache)
        cold_records = cold.run(_specs())
        assert cold.last_executed == 2 and cold.last_cache_hits == 0

        warm = ExperimentExecutor(workers=1, cache_dir=cache)
        warm_records = warm.run(_specs())
        assert warm.last_executed == 0 and warm.last_cache_hits == 2
        assert all(r.from_cache for r in warm_records)
        assert warm.trace.count("executor.task_start") == 0
        assert [r.metrics for r in warm_records] == \
               [r.metrics for r in cold_records]
        # The cached run counters survive the JSON round trip.
        assert [r.events_fired for r in warm_records] == \
               [r.events_fired for r in cold_records]

    def test_config_change_invalidates(self, tmp_path):
        cache = tmp_path / "cache"
        spec = VariantSpec(name="fcfs", build=build_sim,
                           kwargs={"count": 6}, seed_kwarg="seed")
        first = ExperimentExecutor(cache_dir=cache)
        first.run([spec])
        changed = VariantSpec(name="fcfs", build=build_sim,
                              kwargs={"count": 7}, seed_kwarg="seed")
        second = ExperimentExecutor(cache_dir=cache)
        second.run([changed])
        assert second.last_executed == 1  # fingerprint mismatch: re-ran

    def test_corrupt_cache_entry_is_a_miss(self, tmp_path):
        cache = tmp_path / "cache"
        spec = VariantSpec(name="fcfs", build=build_sim, seed_kwarg="seed")
        ExperimentExecutor(cache_dir=cache).run([spec])
        for path in cache.glob("*.json"):
            path.write_text("{ not json")
        again = ExperimentExecutor(cache_dir=cache)
        again.run([spec])
        assert again.last_executed == 1

    def test_cache_files_are_json_under_dir(self, tmp_path):
        cache = tmp_path / "cache"
        ExperimentExecutor(cache_dir=cache).run(
            [VariantSpec(name="m", build=build_metrics_mapping)]
        )
        files = list(cache.glob("*.json"))
        assert len(files) == 1
        payload = json.loads(files[0].read_text())
        assert payload["schema"] == 1
        assert payload["record"]["metrics"] == {"answer": 42.0,
                                                "seed_echo": 0.0}

    def test_fingerprint_depends_on_builder_and_args(self):
        a = VariantSpec(name="v", build=build_sim, kwargs={"count": 5})
        b = VariantSpec(name="v", build=build_sim, kwargs={"count": 6})
        c = VariantSpec(name="v", build=build_metrics_mapping,
                        kwargs={})
        assert config_fingerprint(a, 1, None) != config_fingerprint(b, 1, None)
        assert config_fingerprint(a, 1, None) != config_fingerprint(c, 1, None)
        assert config_fingerprint(a, 1, None) == config_fingerprint(a, 1, None)
        assert config_fingerprint(a, 1, None) != config_fingerprint(a, 2, None)


class TestRetries:
    def test_bounded_attempts_then_error(self):
        executor = ExperimentExecutor(max_attempts=2)
        with pytest.raises(ExecutorError, match="after 2 attempts"):
            executor.run(
                [VariantSpec(name="boom", build=build_always_crashes)]
            )

    def test_crash_retried_and_counted(self, tmp_path):
        marker = tmp_path / "marker"
        records = ExperimentExecutor(max_attempts=3).run(
            [VariantSpec(name="flaky", build=build_flaky,
                         kwargs={"marker": str(marker)})]
        )
        assert records[0].attempts == 2
        assert records[0].metrics == {"ok": 1.0}

    def test_bad_builder_return_type_rejected(self):
        with pytest.raises(ExecutorError, match="expected a simulation"):
            ExperimentExecutor().run(
                [VariantSpec(name="bad", build=functools.partial(int, 3))]
            )


class TestRunnerIntegration:
    def test_run_all_parallel_matches_sequential(self):
        def variants():
            return [
                Variant(name, functools.partial(build_sim, seed=3,
                                                scheduler=name))
                for name in ("fcfs", "easy")
            ]

        sequential = ExperimentRunner(variants())
        seq_results = sequential.run_all()
        parallel = ExperimentRunner(variants())
        par_results = parallel.run_all(workers=2)
        assert [r.name for r in par_results] == [r.name for r in seq_results]
        for par, seq in zip(par_results, seq_results):
            assert par.metrics.as_dict() == seq.metrics.as_dict()
            assert par.result is None  # metrics-only across the pool
            assert seq.result is not None

    def test_run_all_with_cache_dir_uses_cache(self, tmp_path):
        cache = tmp_path / "cache"

        def variants():
            return [Variant("fcfs", functools.partial(build_sim, seed=9))]

        ExperimentRunner(variants()).run_all(cache_dir=cache)
        executor = ExperimentExecutor(cache_dir=cache)
        runner = ExperimentRunner(variants())
        results = runner.run_all(executor=executor)
        assert executor.last_cache_hits == 1 and executor.last_executed == 0
        assert results[0].metrics.jobs_submitted > 0

    def test_sequential_path_unchanged_by_default(self):
        runner = ExperimentRunner(
            [Variant("fcfs", functools.partial(build_sim, seed=2))]
        )
        results = runner.run_all()
        assert results[0].result is not None
        assert results[0].metrics is results[0].result.metrics


class TestReporting:
    def test_trace_records_wall_clock_progress(self):
        executor = ExperimentExecutor()
        executor.run(_specs())
        categories = [r.category for r in executor.trace.records()]
        assert categories[0] == "executor.sweep_start"
        assert categories[-1] == "executor.sweep_done"
        assert categories.count("executor.task_done") == 2
        done = executor.trace.records("executor.sweep_done")[0]
        assert done.data["executed"] == 2
        assert done.data["wall_seconds"] >= 0.0

    def test_progress_callback_sees_every_record(self):
        seen = []
        executor = ExperimentExecutor(
            progress=lambda done, total, rec: seen.append((done, total,
                                                           rec.variant))
        )
        executor.run(_specs())
        assert len(seen) == 2
        assert all(total == 2 for _done, total, _v in seen)

    def test_render_executor_summary(self):
        records = ExperimentExecutor().run(
            [VariantSpec(name="m", build=build_metrics_mapping)]
        )
        text = render_executor_summary(records)
        assert "variant" in text and "m" in text and "run" in text

    def test_duplicate_variant_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ExperimentExecutor().run(
                [VariantSpec(name="x", build=build_metrics_mapping),
                 VariantSpec(name="x", build=build_metrics_mapping)]
            )


class TestMetricsRoundTrip:
    def test_from_dict_inverts_as_dict(self):
        report = MetricsReport(jobs_submitted=4, jobs_completed=3,
                               mean_wait=12.5,
                               extra={"boots_initiated": 2.0})
        rebuilt = MetricsReport.from_dict(report.as_dict())
        assert rebuilt.as_dict() == report.as_dict()
        assert rebuilt.jobs_submitted == 4
        assert rebuilt.extra["boots_initiated"] == 2.0


# ----------------------------------------------------------------------
# FanoutPool: pinned worker slots
# ----------------------------------------------------------------------
def pid_of(task):
    """(task, pid of the process that ran it)."""
    return task, os.getpid()


def slow_square(task):
    index, delay = task
    time.sleep(delay)
    return index * index


def exit_in_worker(task):
    """``os._exit`` when *task* asks for it and runs in a worker (the
    pool's inline fallback runs it in the parent, which must live)."""
    index, parent, die = task
    if die and os.getpid() != parent:
        os._exit(3)
    return index, os.getpid()


class TestFanoutPool:
    def test_each_task_index_keeps_its_worker(self):
        with FanoutPool(workers=3) as pool:
            first = [pid for _, pid in pool.map(pid_of, range(7))]
            second = [pid for _, pid in pool.map(pid_of, range(7))]
        assert first == second
        assert len(set(first)) == 3 and os.getpid() not in first
        # Task i runs on slot i mod 3.
        assert all(first[i] == first[i % 3] for i in range(7))

    def test_results_in_task_order(self):
        # Early tasks sleep longest, so they finish last.
        tasks = [(i, 0.05 * (5 - i)) for i in range(6)]
        with FanoutPool(workers=2) as pool:
            assert pool.map(slow_square, tasks) == [i * i for i in range(6)]
            assert pool.map(slow_square, []) == []

    def test_inline_at_one_worker(self):
        with FanoutPool(workers=1) as pool:
            assert pool.map(pid_of, [0, 1]) == [(0, os.getpid()), (1, os.getpid())]

    def test_killed_worker_falls_back_inline_and_respawns_only_its_slot(self):
        parent = os.getpid()
        with FanoutPool(workers=3) as pool:
            before = [pid for _, pid in
                      pool.map(exit_in_worker, [(i, parent, False) for i in range(6)])]
            # Task 1 kills slot 1's worker; slot 1's tasks (1 and 4)
            # finish inline, the other slots' tasks where they were.
            crashed = pool.map(exit_in_worker,
                               [(i, parent, i == 1) for i in range(6)])
            assert [index for index, _ in crashed] == list(range(6))
            assert [pid for _, pid in crashed] == [
                before[0], parent, before[2], before[0], parent, before[2],
            ]
            after = [pid for _, pid in
                     pool.map(exit_in_worker, [(i, parent, False) for i in range(6)])]
        assert after[0] == before[0] and after[2] == before[2]
        assert after[1] not in (before[1], parent)
        assert after[4] == after[1]
