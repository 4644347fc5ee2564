"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Machine, MachineSpec
from repro.core.scheduler import NodeSelection
from repro.power import NodePowerModel
from repro.simulator import RngStreams, Simulator, TraceRecorder
from repro.units import HOUR
from repro.workload import Job, WorkloadGenerator, WorkloadSpec


@pytest.fixture
def sim() -> Simulator:
    """A fresh simulator at t=0."""
    return Simulator()


@pytest.fixture
def trace() -> TraceRecorder:
    """A fresh trace recorder."""
    return TraceRecorder()


@pytest.fixture
def rng() -> RngStreams:
    """Seeded stream family for deterministic tests."""
    return RngStreams(12345)


@pytest.fixture
def small_machine() -> Machine:
    """16 nodes, 4 per cabinet, defaults otherwise."""
    return Machine(MachineSpec(name="tiny", nodes=16, nodes_per_cabinet=4))


@pytest.fixture
def power_model() -> NodePowerModel:
    """Default quadratic power model."""
    return NodePowerModel()


def make_selection(machine: Machine, avail_ids=None) -> NodeSelection:
    """A :class:`NodeSelection` read straight off *machine*'s nodes:
    the available mask marks *avail_ids* (default: the idle nodes),
    and the power columns copy each node's ``max_power`` and
    ``variability``.  Every test :class:`SchedulingContext` is built
    on one of these."""
    nodes = machine.nodes
    mask = np.zeros(len(nodes), dtype=bool)
    if avail_ids is None:
        avail_ids = [node.node_id for node in nodes if node.is_available]
    mask[list(avail_ids)] = True
    return NodeSelection(
        avail_mask=mask,
        machine=machine,
        max_power=np.array([node.max_power for node in nodes]),
        variability=np.array([node.variability for node in nodes]),
    )


def make_job(
    job_id: str = "j1",
    nodes: int = 1,
    work: float = 100.0,
    walltime: float = 200.0,
    submit: float = 0.0,
    **kwargs,
) -> Job:
    """Terse job constructor for tests."""
    return Job(
        job_id=job_id,
        nodes=nodes,
        work_seconds=work,
        walltime_request=walltime,
        submit_time=submit,
        **kwargs,
    )


@pytest.fixture
def job_factory():
    """Expose :func:`make_job` as a fixture."""
    return make_job


@pytest.fixture
def small_workload(rng):
    """~40 small jobs over 4 hours for a 16-node machine."""
    spec = WorkloadSpec(
        arrival_rate=10.0 / HOUR,
        duration=4.0 * HOUR,
        min_nodes=1,
        max_nodes=8,
        mean_work=HOUR / 2,
    )
    return WorkloadGenerator(spec, rng.stream("wl")).generate(count=40)
