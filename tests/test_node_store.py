"""One node store: random control sequences keep every reader consistent.

A small simulation is driven through random sequences of the control
surfaces that write node state: RM boots, shutdowns, drains and
undrains, cohort caps and DVFS, job starts and ends (the engine
advancing), and plain writes through node views (``node.idle_power =
x``, ``node.variability = x``, ``node.state = ...``).  After every step:

* ``machine_power()`` equals the scalar spec (``tests/power_oracles.py``)
  summed over every node to 1e-9 — with no invalidation call, because
  every writer marks its rows dirty;
* the store's per-state counts equal a recount of the state column, and
  its nominal job price the first row of largest dynamic span;
* snapshot -> restore -> snapshot is byte-identical.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cluster import Machine, MachineSpec, NodeState
from repro.core import ClusterSimulation, EasyBackfillScheduler
from repro.state import restore, snapshot
from repro.state.serialize import to_bytes

from tests.conftest import make_job
from tests.power_oracles import simulation_watts

NODES = 12

#: Static columns a step may rewrite through a view; the restore
#: factory replays them, since they belong to the build recipe.
STATIC_WRITES = ("idle_power", "max_power")


def build(statics=()):
    machine = Machine(MachineSpec(name="store", nodes=NODES, nodes_per_cabinet=4))
    for row, name, value in statics:
        setattr(machine.nodes[row], name, value)
    jobs = [
        make_job(job_id=f"j{i}", nodes=1 + (i * 5) % 6, work=400.0 + 90.0 * i,
                 walltime=4000.0, submit=30.0 * i)
        for i in range(16)
    ]
    sim = ClusterSimulation(machine, EasyBackfillScheduler(), jobs, seed=4)
    sim.prepare()
    return sim


def spec_sum(sim) -> float:
    return simulation_watts(sim)


def pick(rng, nodes, k=None):
    k = int(rng.integers(1, len(nodes) + 1)) if k is None else k
    return [nodes[i] for i in rng.choice(len(nodes), size=k, replace=False)]


def step(sim, rng, statics) -> str:
    """Apply one random control action; returns its name."""
    machine = sim.machine
    nodes = machine.nodes
    rm = sim.rm
    kind = str(rng.choice([
        "advance", "advance", "boot", "shutdown", "drain", "undrain",
        "cap", "uncap", "dvfs", "static", "variability", "state",
    ]))
    if kind == "advance":
        sim.sim.run(until=sim.sim.now + float(rng.uniform(10.0, 600.0)))
    elif kind == "boot":
        rm.boot_nodes(pick(rng, nodes))
    elif kind == "shutdown":
        rm.shutdown_nodes(pick(rng, nodes))
    elif kind == "drain":
        free = [n for n in nodes if n.state not in (NodeState.BUSY, NodeState.DOWN)]
        if free:
            rm.drain_node(pick(rng, free, 1)[0])
    elif kind == "undrain":
        down = [n for n in nodes if n.state is NodeState.DOWN]
        if down:
            rm.undrain_node(pick(rng, down, 1)[0])
    elif kind in ("cap", "uncap"):
        cohort = pick(rng, nodes)
        cap = None
        if kind == "cap":
            cap = max(n.cap_floor for n in cohort) + float(rng.uniform(0.0, 200.0))
        rm.set_power_cap(cohort, cap)
    elif kind == "dvfs":
        rm.set_frequency(pick(rng, nodes), float(rng.uniform(1.0e9, 2.6e9)))
    elif kind == "static":
        node = pick(rng, nodes, 1)[0]
        name = str(rng.choice(STATIC_WRITES))
        low = node.idle_power if name == "max_power" else 60.0
        high = node.max_power if name == "idle_power" else 500.0
        value = float(rng.uniform(low, high))
        setattr(node, name, value)
        statics.append((node.node_id, name, value))
    elif kind == "variability":
        pick(rng, nodes, 1)[0].variability = float(rng.uniform(0.85, 1.15))
    else:
        # A plain state write, kept off nodes a job occupies or a
        # pending boot/shutdown will move.
        quiet = [
            n for n in nodes
            if n.state in (NodeState.IDLE, NodeState.OFF, NodeState.DOWN)
            and sim.execution_on(n.node_id) is None
        ]
        if quiet:
            target = [NodeState.IDLE, NodeState.OFF, NodeState.DOWN][int(rng.integers(3))]
            pick(rng, quiet, 1)[0].state = target
    return kind


@pytest.mark.parametrize("seed", range(6))
def test_random_control_sequences_keep_one_store(seed):
    rng = np.random.default_rng(seed)
    statics = []
    sim = build()
    kinds = set()
    for _ in range(40):
        kinds.add(step(sim, rng, statics))
        store = sim.machine.store
        assert store.counts == np.bincount(
            store.state_code, minlength=6
        ).tolist()
        assert sim.machine_power() == pytest.approx(spec_sum(sim), rel=1e-9, abs=1e-9)
        span = store.max_power - store.idle_power
        row = int(np.argmax(span))
        assert store.nominal_row == row
        assert store.nominal == (store.idle_power[row], span[row])

        blob = to_bytes(snapshot(sim))
        frozen = list(statics)
        restored = restore(snapshot(sim), lambda: build(frozen))
        assert to_bytes(snapshot(restored)) == blob
        restored_store = restored.machine.store
        assert restored_store.counts == store.counts
        assert restored_store.nominal == store.nominal
    assert len(kinds) >= 8
    assert sim._started_count > 0 and sim._terminal_count > 0
