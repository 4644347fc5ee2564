"""Machine (one HPC system) model.

A :class:`Machine` is one system in the sense of survey question 2(c):
a set of cabinets of nodes with a peak performance, an interconnect
topology and aggregate power characteristics.  Sites can operate
several machines sharing one facility envelope (Tokyo Tech's TSUBAME2 +
TSUBAME3 inter-system capping; CEA shifting budget between systems).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional

from ..errors import ClusterError
from ..units import check_positive
from .cabinet import Cabinet
from .node import COLUMNS, STATE_CODES, Node, NodeState, NodeStore
from .topology import Topology


@dataclass
class MachineSpec:
    """Declarative description of a machine, survey-Q2 style.

    All power figures are per node, in watts; a machine is homogeneous
    unless a variability model perturbs individual nodes afterwards.
    """

    name: str
    nodes: int
    cores_per_node: int = 32
    memory_gb_per_node: float = 128.0
    nodes_per_cabinet: int = 64
    idle_power: float = 100.0
    max_power: float = 350.0
    boot_time: float = 300.0
    shutdown_time: float = 120.0
    max_frequency: float = 2.4e9
    min_frequency: float = 1.2e9
    peak_tflops: float = 1000.0
    interconnect: str = "fat-tree"

    def __post_init__(self) -> None:
        if self.nodes <= 0:
            raise ClusterError(f"machine {self.name!r} needs >= 1 node")
        if self.nodes_per_cabinet <= 0:
            raise ClusterError("nodes_per_cabinet must be >= 1")
        check_positive("idle_power", self.idle_power)
        check_positive("max_power", self.max_power)


class Machine:
    """One HPC system: nodes grouped into cabinets, plus a topology.

    The machine owns one :class:`~repro.cluster.node.NodeStore` —
    :attr:`store`, one row per node — and every ``Node`` in
    :attr:`nodes` is a view of its row.  Construction from a
    :class:`MachineSpec` fills the columns from the validated spec; pass
    a prebuilt node list for heterogeneous systems (e.g. the
    CPU+GPU+MIC Eurora machine at CINECA): each node's values are
    copied into the store and the node is rebound as its view.  Node
    ids are positions: ``nodes[i].node_id == i``, so a node id is also
    the row of every per-node array (the store's columns, the power
    mirror's binding columns), and no id -> row translation exists
    anywhere.
    """

    def __init__(
        self,
        spec: MachineSpec,
        nodes: Optional[Iterable[Node]] = None,
        topology: Optional[Topology] = None,
    ) -> None:
        self.spec = spec
        self.name = spec.name
        if nodes is None:
            template = Node(
                node_id=0,
                cores=spec.cores_per_node,
                memory_gb=spec.memory_gb_per_node,
                idle_power=spec.idle_power,
                max_power=spec.max_power,
                boot_time=spec.boot_time,
                shutdown_time=spec.shutdown_time,
                max_frequency=spec.max_frequency,
                min_frequency=spec.min_frequency,
            )
            self.store = NodeStore(spec.nodes, **{
                name: getattr(template._store, name)[0] for name in COLUMNS
            })
            self.nodes: List[Node] = [
                Node.view(self.store, row) for row in range(spec.nodes)
            ]
        else:
            self.nodes = list(nodes)
            if len(self.nodes) != spec.nodes:
                raise ClusterError(
                    f"machine {spec.name!r}: spec says {spec.nodes} nodes, "
                    f"got {len(self.nodes)}"
                )
            for row, node in enumerate(self.nodes):
                if node.node_id != row:
                    raise ClusterError(
                        f"machine {spec.name!r}: node at position {row} has id "
                        f"{node.node_id}; ids must be 0..{spec.nodes - 1} in order"
                    )
            self.store = NodeStore(spec.nodes, **{
                name: [getattr(n._store, name)[n._row] for n in self.nodes]
                for name in COLUMNS
            })
            for row, node in enumerate(self.nodes):
                node._store, node._row = self.store, row

        self.cabinets: List[Cabinet] = []
        per = spec.nodes_per_cabinet
        for c, start in enumerate(range(0, len(self.nodes), per)):
            self.cabinets.append(Cabinet(c, self.nodes[start : start + per]))

        self.topology = topology

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def node(self, node_id: int) -> Node:
        """Look up a node by id (its position in :attr:`nodes`)."""
        if not 0 <= node_id < len(self.nodes):
            raise ClusterError(f"machine {self.name!r}: no node {node_id}")
        return self.nodes[node_id]

    def nodes_in_state(self, state: NodeState) -> List[Node]:
        """All nodes currently in *state*, in id order."""
        return list(map(self.nodes.__getitem__, self.store.rows_in(state).tolist()))

    @property
    def available_nodes(self) -> List[Node]:
        """Nodes that can accept a job right now (IDLE)."""
        return self.nodes_in_state(NodeState.IDLE)

    @property
    def total_cores(self) -> int:
        """Total core count across all nodes."""
        return sum(self.store.cores.tolist())

    @property
    def peak_power(self) -> float:
        """Variability-adjusted peak draw of all nodes, watts (summed
        left to right: the site budget is derived from it)."""
        store = self.store
        return sum((store.max_power * store.variability).tolist())

    @property
    def idle_floor_power(self) -> float:
        """Draw with every node on but idle, watts."""
        return sum(self.store.idle_power.tolist())

    def utilization(self) -> float:
        """Fraction of nodes currently BUSY."""
        return self.store.counts[STATE_CODES[NodeState.BUSY]] / len(self.nodes)

    def powered_fraction(self) -> float:
        """Fraction of nodes consuming operational power."""
        counts = self.store.counts
        off = counts[STATE_CODES[NodeState.OFF]] + counts[STATE_CODES[NodeState.DOWN]]
        return (len(self.nodes) - off) / len(self.nodes)
