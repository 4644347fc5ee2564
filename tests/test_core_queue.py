"""Tests for batch queues."""

import random

import pytest

from repro.core import JobQueue, QueueConfig
from repro.errors import QueueError


class TestQueueConfig:
    def test_admits_within_limits(self, job_factory):
        cfg = QueueConfig("q", max_nodes=8, max_walltime=1000.0)
        assert cfg.admits(job_factory(nodes=8, walltime=1000.0))
        assert not cfg.admits(job_factory(nodes=9))
        assert not cfg.admits(job_factory(walltime=2000.0))

    def test_user_restriction(self, job_factory):
        cfg = QueueConfig("q", allowed_users=frozenset({"alice"}))
        assert cfg.admits(job_factory(user="alice"))
        assert not cfg.admits(job_factory(user="bob"))


class TestJobQueue:
    def test_default_queue_exists(self, job_factory):
        queue = JobQueue()
        queue.submit(job_factory())
        assert len(queue) == 1

    def test_duplicate_submit_rejected(self, job_factory):
        queue = JobQueue()
        job = job_factory()
        queue.submit(job)
        with pytest.raises(QueueError):
            queue.submit(job)

    def test_non_pending_rejected(self, job_factory):
        queue = JobQueue()
        job = job_factory()
        job.start(0.0, [0])
        with pytest.raises(QueueError):
            queue.submit(job)

    def test_unknown_queue_falls_back_to_default(self, job_factory):
        queue = JobQueue([QueueConfig("default")])
        job = job_factory(queue="mystery")
        queue.submit(job)
        assert len(queue) == 1

    def test_no_default_and_unknown_raises(self, job_factory):
        queue = JobQueue([QueueConfig("batch")])
        with pytest.raises(QueueError):
            queue.submit(job_factory(queue="mystery"))

    def test_limit_violation_raises(self, job_factory):
        queue = JobQueue([QueueConfig("default", max_nodes=4)])
        with pytest.raises(QueueError):
            queue.submit(job_factory(nodes=8))

    def test_remove(self, job_factory):
        queue = JobQueue()
        job = job_factory()
        queue.submit(job)
        assert queue.remove(job.job_id) is job
        assert len(queue) == 0
        with pytest.raises(QueueError):
            queue.remove(job.job_id)

    def test_pending_order_submit_time(self, job_factory):
        queue = JobQueue()
        late = job_factory(job_id="late", submit=10.0)
        early = job_factory(job_id="early", submit=1.0)
        queue.submit(late)
        queue.submit(early)
        assert [j.job_id for j in queue.pending()] == ["early", "late"]

    def test_pending_order_queue_priority(self, job_factory):
        queue = JobQueue([QueueConfig("default"), QueueConfig("vip", priority=5)])
        normal = job_factory(job_id="n", submit=0.0)
        vip = job_factory(job_id="v", submit=10.0, queue="vip")
        queue.submit(normal)
        queue.submit(vip)
        assert [j.job_id for j in queue.pending()] == ["v", "n"]

    def test_pending_order_job_priority(self, job_factory):
        queue = JobQueue()
        low = job_factory(job_id="low", submit=0.0, priority=0)
        high = job_factory(job_id="high", submit=5.0, priority=9)
        queue.submit(low)
        queue.submit(high)
        assert [j.job_id for j in queue.pending()] == ["high", "low"]

    def test_backlog_nodes(self, job_factory):
        queue = JobQueue()
        queue.submit(job_factory(job_id="a", nodes=3))
        queue.submit(job_factory(job_id="b", nodes=5))
        assert queue.backlog_nodes() == 8

    def test_by_queue_grouping(self, job_factory):
        queue = JobQueue([QueueConfig("default"), QueueConfig("vip", priority=1)])
        queue.submit(job_factory(job_id="a"))
        queue.submit(job_factory(job_id="b", queue="vip"))
        groups = queue.by_queue()
        assert [j.job_id for j in groups["vip"]] == ["b"]
        assert [j.job_id for j in groups["default"]] == ["a"]

    def test_duplicate_queue_names_rejected(self):
        with pytest.raises(QueueError):
            JobQueue([QueueConfig("q"), QueueConfig("q")])

    def test_contains(self, job_factory):
        queue = JobQueue()
        job = job_factory()
        queue.submit(job)
        assert job.job_id in queue
        assert "nope" not in queue


class TestPendingInvalidation:
    """In-place mutation of queued jobs must invalidate the order memo
    and the SoA mirror through :meth:`JobQueue.notify_job_changed`
    (moldable reshaping and requeue-time priority edits hit this)."""

    def test_priority_mutation_reorders_after_notify(self, job_factory):
        queue = JobQueue()
        first = job_factory(job_id="a", submit=0.0, priority=5)
        second = job_factory(job_id="b", submit=1.0, priority=0)
        queue.submit(first)
        queue.submit(second)
        assert [j.job_id for j in queue.pending()] == ["a", "b"]
        # Mutate the sort key of a queued job in place, as the
        # moldable/requeue paths do, then notify.
        second.priority = 9
        queue.notify_job_changed("b")
        assert [j.job_id for j in queue.pending()] == ["b", "a"]

    def test_nodes_mutation_refreshes_arrays(self, job_factory):
        queue = JobQueue()
        job = job_factory(job_id="a", nodes=4, walltime=100.0)
        queue.submit(job)
        nodes, wall = queue.pending_arrays()
        assert nodes.tolist() == [4] and wall.tolist() == [100.0]
        job.nodes = 16
        job.walltime_request = 400.0
        queue.notify_job_changed("a")
        nodes, wall = queue.pending_arrays()
        assert nodes.tolist() == [16] and wall.tolist() == [400.0]

    def test_notify_unknown_job_raises(self, job_factory):
        queue = JobQueue()
        with pytest.raises(QueueError):
            queue.notify_job_changed("ghost")

    def test_arrays_match_pending_order(self, job_factory):
        queue = JobQueue([QueueConfig("default"), QueueConfig("vip", priority=3)])
        queue.submit(job_factory(job_id="a", nodes=2, walltime=50.0, submit=2.0))
        queue.submit(job_factory(job_id="v", nodes=7, walltime=70.0, queue="vip"))
        queue.submit(job_factory(job_id="b", nodes=3, walltime=60.0, submit=1.0))
        order = queue.pending()
        nodes, wall = queue.pending_arrays()
        assert nodes.tolist() == [j.nodes for j in order]
        assert wall.tolist() == [j.walltime_request for j in order]


class TestIncrementalOrder:
    """Submit and remove move one job in the cached order by bisect;
    the order must stay what a full sort of the queue gives."""

    @staticmethod
    def _oracle(queue):
        def key(job):
            qprio = {"default": 0, "vip": 3, "low": -2}[job.queue]
            return (-qprio, -job.priority, job.submit_time, job.job_id)

        return sorted(queue._jobs.values(), key=key)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_random_submit_remove_notify(self, job_factory, seed):
        rng = random.Random(seed)
        queue = JobQueue([QueueConfig("default"), QueueConfig("vip", priority=3),
                          QueueConfig("low", priority=-2)])
        queued = []
        for step in range(400):
            op = rng.random()
            if op < 0.5 or not queued:
                job = job_factory(
                    job_id=f"j{step:03d}",
                    nodes=rng.randint(1, 16),
                    walltime=float(rng.randint(1, 50) * 60),
                    # Coarse times and priorities force ties that only
                    # the job id breaks.
                    submit=float(rng.randint(0, 5)),
                    priority=rng.randint(0, 2),
                    queue=rng.choice(["default", "vip", "low"]),
                )
                queue.submit(job)
                queued.append(job)
            elif op < 0.85:
                job = queued.pop(rng.randrange(len(queued)))
                queue.remove(job.job_id)
            else:
                job = rng.choice(queued)
                job.priority = rng.randint(0, 2)
                job.nodes = rng.randint(1, 16)
                queue.notify_job_changed(job.job_id)
            if rng.random() < 0.3:
                continue  # let several changes pile up unread
            expected = self._oracle(queue)
            assert queue.pending() == expected
            nodes, wall = queue.pending_arrays()
            assert nodes.tolist() == [j.nodes for j in expected]
            assert wall.tolist() == [j.walltime_request for j in expected]

    def test_submit_after_read_does_not_resort(self, job_factory, monkeypatch):
        queue = JobQueue()
        for i in range(20):
            queue.submit(job_factory(job_id=f"j{i:02d}", submit=float(20 - i)))
        queue.pending()
        calls = []
        monkeypatch.setattr(queue, "_sort_key",
                            lambda job, real=queue._sort_key:
                            calls.append(job) or real(job))
        queue.submit(job_factory(job_id="late", submit=5.5))
        queue.remove("j03")
        assert [j.job_id for j in queue.pending()] == [
            j.job_id for j in self._oracle(queue)
        ]
        assert len(calls) == 2


class TestJobTableMirror:
    """The SoA mirror grows, tombstones and compacts without ever
    disagreeing with the dict of queued jobs."""

    def test_growth_past_initial_capacity(self, job_factory):
        queue = JobQueue()
        for i in range(50):
            queue.submit(job_factory(job_id=f"j{i:02d}", nodes=i + 1, submit=float(i)))
        assert queue._table.live_count == 50
        nodes, _ = queue.pending_arrays()
        assert nodes.tolist() == list(range(1, 51))

    def test_compaction_after_heavy_removal(self, job_factory):
        queue = JobQueue()
        for i in range(80):
            queue.submit(job_factory(job_id=f"j{i:02d}", nodes=i + 1, submit=float(i)))
        for i in range(70):
            queue.remove(f"j{i:02d}")
        table = queue._table
        # Dead rows dominated at some point -> compaction ran.
        assert table.row_count < 80
        assert table.live_count == 10
        nodes, _ = queue.pending_arrays()
        assert nodes.tolist() == list(range(71, 81))
        assert table.live_ids() == [f"j{i:02d}" for i in range(70, 80)]

    def test_restore_jobs_rebuilds_mirror(self, job_factory):
        queue = JobQueue([QueueConfig("default"), QueueConfig("vip", priority=2)])
        jobs = {}
        for i in range(6):
            job = job_factory(
                job_id=f"j{i}", nodes=i + 1, submit=float(i),
                queue="vip" if i % 2 else "default",
            )
            jobs[job.job_id] = job
        queue.restore_jobs(jobs)
        assert len(queue) == 6
        assert queue._table.live_count == 6
        order = queue.pending()
        nodes, wall = queue.pending_arrays()
        assert nodes.tolist() == [j.nodes for j in order]
        assert wall.tolist() == [j.walltime_request for j in order]
        # vip jobs sort ahead of default ones.
        assert [j.job_id for j in order[:3]] == ["j1", "j3", "j5"]
