"""Interconnect topology models.

Survey question 6 asks about topology-aware task allocation as a way of
(indirectly) improving energy consumption: a compact placement shortens
communication paths, improves performance and thus reduces
energy-to-solution.  We model topologies as networkx graphs whose
leaves are compute nodes, and expose the two quantities allocators
need: pairwise hop distance and a compactness score for a candidate
placement.

Three families cover the surveyed systems: fat-tree (commodity
clusters, SuperMUC), 3-D torus (K computer's Tofu is a 6-D torus; 3-D
preserves the locality structure), and dragonfly (Cray XC at KAUST,
Trinity, LANL).

networkx is imported inside the builders and the methods that walk the
graph, not at module load: no stock center builds a topology, so a
process that never asks for one does not pay for the library.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Dict, List, Sequence, Tuple

from ..errors import TopologyError

if TYPE_CHECKING:
    import networkx as nx


class Topology:
    """A compute-node interconnect graph.

    Parameters
    ----------
    graph:
        Undirected networkx graph.  Compute nodes carry the node
        attribute ``kind="compute"`` and an integer ``node_id``;
        switches carry ``kind="switch"``.
    name:
        Family name ("fat-tree", "torus3d", "dragonfly").
    """

    def __init__(self, graph: nx.Graph, name: str) -> None:
        self.graph = graph
        self.name = name
        self._compute: Dict[int, object] = {}
        for g_node, attrs in graph.nodes(data=True):
            if attrs.get("kind") == "compute":
                self._compute[attrs["node_id"]] = g_node
        if not self._compute:
            raise TopologyError(f"topology {name!r} has no compute nodes")
        self._dist_cache: Dict[Tuple[int, int], int] = {}

    @property
    def num_compute_nodes(self) -> int:
        """Number of compute leaves."""
        return len(self._compute)

    def compute_ids(self) -> List[int]:
        """Sorted compute node ids."""
        return sorted(self._compute)

    def distance(self, a: int, b: int) -> int:
        """Hop distance between compute nodes *a* and *b*."""
        if a == b:
            return 0
        key = (a, b) if a < b else (b, a)
        d = self._dist_cache.get(key)
        if d is None:
            import networkx as nx

            try:
                d = nx.shortest_path_length(
                    self.graph, self._compute[a], self._compute[b]
                )
            except KeyError as exc:
                raise TopologyError(f"unknown compute node id in {exc}") from None
            self._dist_cache[key] = d
        return d

    def placement_cost(self, node_ids: Sequence[int]) -> float:
        """Mean pairwise hop distance of a placement (0 for 1 node).

        Lower is more compact; topology-aware allocators minimize this.
        For placements larger than 32 nodes the mean is estimated over
        a deterministic sample of pairs to keep allocation O(1)-ish.
        """
        ids = list(node_ids)
        if len(ids) < 2:
            return 0.0
        if len(ids) <= 32:
            pairs = list(itertools.combinations(ids, 2))
        else:
            # Deterministic subsample: consecutive + stride pairs.
            pairs = [(ids[i], ids[i + 1]) for i in range(len(ids) - 1)]
            stride = max(2, len(ids) // 16)
            pairs += [(ids[i], ids[(i + stride) % len(ids)]) for i in range(0, len(ids), stride)]
        total = sum(self.distance(a, b) for a, b in pairs)
        return total / len(pairs)


def build_fat_tree(num_nodes: int, arity: int = 8) -> Topology:
    """Two-level fat-tree: leaf switches of *arity* nodes + one core tier.

    Small and regular — enough structure to differentiate intra-switch
    (2 hops) from inter-switch (4 hops) placements.
    """
    if num_nodes <= 0:
        raise TopologyError("fat-tree needs >= 1 node")
    if arity <= 0:
        raise TopologyError("fat-tree arity must be >= 1")
    import networkx as nx

    g = nx.Graph()
    num_leaves = (num_nodes + arity - 1) // arity
    core = "core"
    g.add_node(core, kind="switch")
    for leaf in range(num_leaves):
        sw = f"leaf{leaf}"
        g.add_node(sw, kind="switch")
        g.add_edge(sw, core)
        for port in range(arity):
            nid = leaf * arity + port
            if nid >= num_nodes:
                break
            g.add_node(("c", nid), kind="compute", node_id=nid)
            g.add_edge(("c", nid), sw)
    return Topology(g, "fat-tree")


def build_torus3d(dims: Tuple[int, int, int]) -> Topology:
    """3-D torus with one compute node per lattice point."""
    x, y, z = dims
    if min(dims) <= 0:
        raise TopologyError(f"torus dims must be positive, got {dims}")
    import networkx as nx

    lattice = nx.grid_graph(dim=[x, y, z], periodic=True)
    g = nx.Graph()
    nid = 0
    coord_to_id = {}
    for coord in sorted(lattice.nodes()):
        g.add_node(("c", nid), kind="compute", node_id=nid)
        coord_to_id[coord] = nid
        nid += 1
    for a, b in lattice.edges():
        g.add_edge(("c", coord_to_id[a]), ("c", coord_to_id[b]))
    return Topology(g, "torus3d")


def build_dragonfly(groups: int, routers_per_group: int = 4, nodes_per_router: int = 4) -> Topology:
    """Dragonfly: all-to-all routers within a group, one global link per router.

    Global links connect router r of group i to a router of group
    ``(i + r + 1) % groups`` — a standard palmtree-ish arrangement that
    guarantees inter-group connectivity for ``routers_per_group >= groups - 1``
    and remains connected (via multi-hop) otherwise.
    """
    if groups <= 0 or routers_per_group <= 0 or nodes_per_router <= 0:
        raise TopologyError("dragonfly parameters must be positive")
    import networkx as nx

    g = nx.Graph()
    nid = 0
    for grp in range(groups):
        routers = [f"g{grp}r{r}" for r in range(routers_per_group)]
        for r_name in routers:
            g.add_node(r_name, kind="switch")
        for a, b in itertools.combinations(routers, 2):
            g.add_edge(a, b)
        for r, r_name in enumerate(routers):
            for _ in range(nodes_per_router):
                g.add_node(("c", nid), kind="compute", node_id=nid)
                g.add_edge(("c", nid), r_name)
                nid += 1
    # Global links.
    for grp in range(groups):
        for r in range(routers_per_group):
            target_group = (grp + r + 1) % groups
            if target_group == grp:
                continue
            target_router = f"g{target_group}r{r % routers_per_group}"
            g.add_edge(f"g{grp}r{r}", target_router)
    if groups > 1 and not nx.is_connected(g):
        raise TopologyError("dragonfly construction produced a disconnected graph")
    return Topology(g, "dragonfly")


def build_for(interconnect: str, num_nodes: int) -> Topology:
    """Build a topology of family *interconnect* sized for *num_nodes*."""
    if interconnect == "fat-tree":
        return build_fat_tree(num_nodes)
    if interconnect == "torus3d":
        side = max(1, round(num_nodes ** (1.0 / 3.0)))
        while side**3 < num_nodes:
            side += 1
        return build_torus3d((side, side, side))
    if interconnect == "dragonfly":
        per_group = 16
        groups = max(1, (num_nodes + per_group - 1) // per_group)
        return build_dragonfly(groups, routers_per_group=4, nodes_per_router=4)
    raise TopologyError(f"unknown interconnect family {interconnect!r}")
