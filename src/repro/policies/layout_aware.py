"""Layout-aware scheduling — CEA's SLURM 'layout logic'.

Table I, CEA technology development: "Developing 'layout logic' in
SLURM, be able to tell what PDUs/Chillers a node or rack depends on
and avoid scheduling jobs on them when maintenance".  The policy
filters the allocatable pool: nodes whose facility dependencies have a
maintenance window opening within the lookahead horizon are withheld,
so no job is started that would have to be killed (or would lose
cooling) when the window opens.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from ..core.epa import FunctionalCategory
from ..errors import PolicyError
from ..units import check_non_negative
from .base import Policy


class LayoutAwarePolicy(Policy):
    """Withhold nodes with upcoming facility maintenance.

    Parameters
    ----------
    horizon:
        Lookahead, seconds.  A job started now is assumed to possibly
        still run *horizon* seconds from now, so any node whose PDU or
        chiller has maintenance starting within the horizon is
        withheld.  Typically set to the queue's max walltime.
    """

    name = "layout-aware"

    def __init__(self, horizon: float = 24 * 3600.0) -> None:
        super().__init__()
        self.horizon = check_non_negative("horizon", horizon)
        self.withheld_node_passes = 0

    def on_attach(self) -> None:
        if self.simulation.site is None:
            raise PolicyError("layout-aware policy needs a site (facility map)")

    def filter_rows(self, mask: np.ndarray, now: float) -> np.ndarray:
        """Clear the rows of nodes with upcoming maintenance, counting
        the available ones withheld in ``withheld_node_passes``."""
        facility = self.simulation.site.facility
        affected = facility.nodes_under_maintenance(now, self.horizon)
        if not affected:
            return mask
        rows = np.fromiter(affected, dtype=np.intp, count=len(affected))
        self.withheld_node_passes += int(np.count_nonzero(mask[rows]))
        mask[rows] = False
        return mask

    def epa_components(self) -> List[Tuple[str, FunctionalCategory, str]]:
        return [
            (
                "layout-logic",
                FunctionalCategory.RESOURCE_MONITORING,
                "node -> PDU/chiller dependency map with maintenance windows",
            ),
            (
                "maintenance-filter",
                FunctionalCategory.RESOURCE_CONTROL,
                f"withhold dependent nodes {self.horizon / 3600:.0f}h ahead",
            ),
        ]
