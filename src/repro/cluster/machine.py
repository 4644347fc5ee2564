"""Machine (one HPC system) model.

A :class:`Machine` is one system in the sense of survey question 2(c):
a set of cabinets of nodes with a peak performance, an interconnect
topology and aggregate power characteristics.  Sites can operate
several machines sharing one facility envelope (Tokyo Tech's TSUBAME2 +
TSUBAME3 inter-system capping; CEA shifting budget between systems).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from ..errors import ClusterError, NodeStateError
from ..units import check_positive
from .cabinet import Cabinet
from .node import TRANSITIONS, Node, NodeState
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

    Construction from a :class:`MachineSpec` builds homogeneous nodes;
    pass a prebuilt node list for heterogeneous systems (e.g. the
    CPU+GPU+MIC Eurora machine at CINECA).  Node ids are positions:
    ``nodes[i].node_id == i``, so a node id is also the row of every
    per-node array the simulation keeps (availability masks, the power
    mirror), and no id -> row translation exists anywhere.
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
            nodes = [
                Node(
                    node_id=i,
                    cores=spec.cores_per_node,
                    memory_gb=spec.memory_gb_per_node,
                    idle_power=spec.idle_power,
                    max_power=spec.max_power,
                    boot_time=spec.boot_time,
                    shutdown_time=spec.shutdown_time,
                    max_frequency=spec.max_frequency,
                    min_frequency=spec.min_frequency,
                )
                for i in range(spec.nodes)
            ]
        self.nodes: List[Node] = list(nodes)
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

        self.cabinets: List[Cabinet] = []
        per = spec.nodes_per_cabinet
        for c, start in enumerate(range(0, len(self.nodes), per)):
            self.cabinets.append(Cabinet(c, self.nodes[start : start + per]))

        self.topology = topology

        #: Bulk power-accounting hook, the cohort twin of
        #: ``Node.power_listener``: called once with
        #: ``(node_ids, target, time)`` after :meth:`transition_bulk`
        #: moved a whole cohort, instead of one per-node callback per
        #: member.  Installed by the owning simulation; None outside
        #: one (transition_bulk then falls back to the per-node
        #: listeners, so the two channels are never both fired).
        self.bulk_listener: Optional[callable] = None
        #: Cap-cohort twin of :attr:`bulk_listener`: called once with
        #: ``(node_ids, cap)`` after :meth:`set_power_cap_bulk` wrote a
        #: whole cohort's caps.  Same ownership and fallback rules.
        self.cap_listener: Optional[callable] = None

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.nodes)

    def transition_bulk(
        self,
        node_ids: Sequence[int],
        target: NodeState,
        time: float,
        nodes: Optional[List[Node]] = None,
    ) -> List[Node]:
        """Move a cohort of nodes to *target* in one pass.

        Semantically equivalent to calling ``node.transition(target,
        time)`` on every member, with two differences that callers rely
        on:

        * **atomicity** — legality is validated for the whole cohort
          *before* any node mutates, so a mixed-state cohort fails
          cleanly instead of half-transitioning;
        * **one listener firing** — when a :attr:`bulk_listener` is
          installed it is called once with the whole cohort after all
          nodes moved; per-node ``power_listener`` hooks are *not*
          fired.  Without a bulk listener each node's ``power_listener``
          fires in cohort order, exactly like the scalar loop.

        *node_ids* must not contain duplicates (each node may make the
        transition once); a cohort that does is refused with
        :class:`ClusterError` before any node moves.  Returns the
        transitioned nodes in cohort order.  Callers that already hold
        the node objects may pass them as *nodes* (same order as
        *node_ids*) to skip the id lookup.
        """
        if len(set(node_ids)) != len(node_ids):
            twice = next(i for i in node_ids if node_ids.count(i) > 1)
            raise ClusterError(
                f"transition to {target.value} lists node {twice} twice"
            )
        if nodes is None:
            nodes = [self.node(nid) for nid in node_ids]
        # Validate with an identity-deduped legality check: cohorts are
        # almost always homogeneous (all IDLE -> BUSY, all BUSY ->
        # IDLE), so the enum hash for the TRANSITIONS lookup is paid
        # once per distinct source state, not once per node.
        checked = None
        for node in nodes:
            state = node.state
            if state is checked:
                continue
            if target not in TRANSITIONS[state]:
                raise NodeStateError(
                    f"node {node.node_id}: illegal transition "
                    f"{state.value} -> {target.value}"
                )
            checked = state
        idle_since = time if target is NodeState.IDLE else None
        for node in nodes:
            node.state = target
            node.last_state_change = time
            node.idle_since = idle_since
        if self.bulk_listener is not None:
            self.bulk_listener(node_ids, target, time)
        else:
            for node in nodes:
                if node.power_listener is not None:
                    node.power_listener(node.node_id)
        return nodes

    def set_power_cap_bulk(
        self, nodes: Sequence[Node], cap: Optional[float]
    ) -> List[int]:
        """Set (or clear, with ``None``) one cap on a cohort of nodes.

        Semantically equivalent to ``node.set_power_cap(cap)`` on every
        member, with :meth:`transition_bulk`'s two differences: the
        cap is validated against every member's floor *before* any
        node is written (a cohort with one unenforceable member raises
        :class:`PowerCapError` and leaves every cap unchanged), and an
        installed :attr:`cap_listener` fires once for the cohort in
        place of the per-node ``power_listener`` hooks.  Returns the
        cohort's node ids in order.
        """
        if cap is not None:
            cap = float(cap)
            for node in nodes:
                node.check_power_cap(cap)
        for node in nodes:
            node.power_cap = cap
        node_ids = [n.node_id for n in nodes]
        if self.cap_listener is not None:
            self.cap_listener(node_ids, cap)
        else:
            for node in nodes:
                if node.power_listener is not None:
                    node.power_listener(node.node_id)
        return node_ids

    def node(self, node_id: int) -> Node:
        """Look up a node by id (its position in :attr:`nodes`)."""
        if not 0 <= node_id < len(self.nodes):
            raise ClusterError(f"machine {self.name!r}: no node {node_id}")
        return self.nodes[node_id]

    def nodes_in_state(self, state: NodeState) -> List[Node]:
        """All nodes currently in *state*."""
        return [n for n in self.nodes if n.state is state]

    @property
    def available_nodes(self) -> List[Node]:
        """Nodes that can accept a job right now (IDLE)."""
        return [n for n in self.nodes if n.is_available]

    @property
    def total_cores(self) -> int:
        """Total core count across all nodes."""
        return sum(n.cores for n in self.nodes)

    @property
    def peak_power(self) -> float:
        """Variability-adjusted peak draw of all nodes, watts."""
        return sum(n.effective_max_power for n in self.nodes)

    @property
    def idle_floor_power(self) -> float:
        """Draw with every node on but idle, watts."""
        return sum(n.idle_power for n in self.nodes)

    def utilization(self) -> float:
        """Fraction of nodes currently BUSY (0 when machine is empty)."""
        if not self.nodes:
            return 0.0
        busy = sum(1 for n in self.nodes if n.state is NodeState.BUSY)
        return busy / len(self.nodes)

    def powered_fraction(self) -> float:
        """Fraction of nodes consuming operational power."""
        if not self.nodes:
            return 0.0
        return sum(1 for n in self.nodes if n.is_on) / len(self.nodes)
