"""Figure 1: the EPA JSRM component-interaction graph.

"Figure 1 presents an overview of the different components that may
participate in such a solution ... the tasks of an EPA JSRM solution
can be divided into four functional categories — the monitoring and
control of energy/power consumed by the resources, and their
availability."

We reproduce the figure as a typed, machine-checkable networkx
digraph: nodes are the participating components, edges are the
interactions the paper describes, and every component is annotated
with the functional categories it serves.  :func:`verify_component_graph`
asserts the structural claims (connectivity, category coverage, the
scheduler/RM coupling) and is what the `fig1` bench and tests run.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Set, Tuple

from ..core.epa import FunctionalCategory
from ..errors import SurveyError

if TYPE_CHECKING:
    import networkx as nx

#: Component name -> functional categories it participates in.
COMPONENT_CATEGORIES: Dict[str, Set[FunctionalCategory]] = {
    "users": set(),
    "batch queues": {FunctionalCategory.RESOURCE_MONITORING},
    "job scheduler": {
        FunctionalCategory.RESOURCE_CONTROL,
        FunctionalCategory.POWER_CONTROL,
    },
    "resource manager": {
        FunctionalCategory.RESOURCE_CONTROL,
        FunctionalCategory.POWER_CONTROL,
    },
    "compute nodes": set(),
    "i/o resources": set(),
    "interconnect": set(),
    "telemetry sensors": {
        FunctionalCategory.POWER_MONITORING,
        FunctionalCategory.RESOURCE_MONITORING,
    },
    "monitoring archive": {FunctionalCategory.POWER_MONITORING},
    "power control mechanisms": {FunctionalCategory.POWER_CONTROL},
    "electrical plant": set(),
    "cooling plant": set(),
    "electricity service provider": set(),
}

#: Directed interactions (source, target, label).
INTERACTIONS: List[Tuple[str, str, str]] = [
    ("users", "batch queues", "submit jobs"),
    ("batch queues", "job scheduler", "pending work"),
    ("job scheduler", "resource manager", "placement + configuration requests"),
    ("resource manager", "compute nodes", "configure / launch / power state"),
    ("resource manager", "i/o resources", "configure"),
    ("resource manager", "interconnect", "configure"),
    ("resource manager", "power control mechanisms", "set caps / DVFS"),
    ("power control mechanisms", "compute nodes", "enforce caps / frequencies"),
    ("telemetry sensors", "compute nodes", "instrument"),
    ("telemetry sensors", "monitoring archive", "feed samples"),
    ("monitoring archive", "job scheduler", "historical job knowledge"),
    ("telemetry sensors", "resource manager", "live power/activity"),
    ("resource manager", "electrical plant", "actuate (some cases)"),
    ("resource manager", "cooling plant", "actuate (some cases)"),
    ("electricity service provider", "electrical plant", "supply / demand requests"),
    ("electrical plant", "compute nodes", "deliver power"),
    ("cooling plant", "compute nodes", "remove heat"),
    ("job scheduler", "users", "job status / energy reports"),
]


def build_component_graph() -> nx.DiGraph:
    """The Figure-1 graph with category annotations."""
    import networkx as nx

    graph = nx.DiGraph()
    for component, categories in COMPONENT_CATEGORIES.items():
        graph.add_node(component, categories=frozenset(categories))
    for source, target, label in INTERACTIONS:
        if source not in COMPONENT_CATEGORIES or target not in COMPONENT_CATEGORIES:
            raise SurveyError(f"interaction references unknown component: "
                              f"{source} -> {target}")
        graph.add_edge(source, target, label=label)
    return graph


def category_coverage(graph: nx.DiGraph) -> Dict[FunctionalCategory, List[str]]:
    """Components serving each of the four functional categories."""
    coverage: Dict[FunctionalCategory, List[str]] = {
        cat: [] for cat in FunctionalCategory
    }
    for node, attrs in graph.nodes(data=True):
        for category in attrs["categories"]:
            coverage[category].append(node)
    return coverage


def verify_component_graph(graph: nx.DiGraph) -> List[str]:
    """Check the structural claims of Figure 1; returns found problems.

    An empty list means the graph is faithful:

    * weakly connected (one integrated solution);
    * all four functional categories covered;
    * the scheduler works *through* the resource manager (edge), and
      the RM has privileged edges to nodes and the physical plant;
    * monitoring flows from sensors toward the scheduler (the
      "detailed historical knowledge" loop).
    """
    import networkx as nx

    problems: List[str] = []
    if not nx.is_weakly_connected(graph):
        problems.append("component graph is not weakly connected")
    coverage = category_coverage(graph)
    for category, members in coverage.items():
        if not members:
            problems.append(f"no component covers {category.value!r}")
    for edge in [
        ("job scheduler", "resource manager"),
        ("resource manager", "compute nodes"),
        ("resource manager", "electrical plant"),
        ("resource manager", "cooling plant"),
    ]:
        if not graph.has_edge(*edge):
            problems.append(f"missing required interaction {edge[0]} -> {edge[1]}")
    try:
        path = nx.shortest_path(graph, "telemetry sensors", "job scheduler")
    except nx.NetworkXNoPath:
        problems.append("no monitoring path from sensors to scheduler")
    else:
        if len(path) < 2:
            problems.append("degenerate monitoring path")
    return problems
