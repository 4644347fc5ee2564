"""Group power caps — JCAHPC's production deployment.

Table II, JCAHPC: "Ability to set power caps for groups of nodes via
the resource manager (Fujitsu proprietary product)" plus "Manual
emergency response, admin sets power cap."  Groups are named node-id
sets; a group cap divides evenly among the group's nodes (that is what
the Fujitsu mechanism enforces at the hardware level).  The admin
emergency path is the :meth:`set_group_cap` method, callable at any
simulated time (see also :class:`~repro.policies.manual.ManualActionPolicy`).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

import numpy as np

from ..core.epa import FunctionalCategory
from ..errors import PolicyError
from .base import Policy


class GroupCapPolicy(Policy):
    """Named node groups with per-group power caps.

    Parameters
    ----------
    groups:
        Mapping of group name to node-id iterable.  Groups must be
        disjoint.
    caps_watts:
        Initial per-group total caps (may be partial; uncapped groups
        run free until :meth:`set_group_cap` is called).
    """

    name = "group-caps"

    def __init__(
        self,
        groups: Dict[str, Iterable[int]],
        caps_watts: Optional[Dict[str, float]] = None,
    ) -> None:
        super().__init__()
        self.groups: Dict[str, List[int]] = {
            name: sorted(int(i) for i in ids) for name, ids in groups.items()
        }
        seen: set = set()
        for name, ids in self.groups.items():
            if not ids:
                raise PolicyError(f"group {name!r} is empty")
            overlap = seen & set(ids)
            if overlap:
                raise PolicyError(f"group {name!r} overlaps others on nodes {sorted(overlap)}")
            seen |= set(ids)
        self.caps_watts: Dict[str, float] = dict(caps_watts or {})
        self.cap_changes = 0

    def on_attach(self) -> None:
        machine = self.simulation.machine
        for name, ids in self.groups.items():
            for nid in ids:
                machine.node(nid)  # validates existence
        for name, cap in list(self.caps_watts.items()):
            self.set_group_cap(name, cap)

    # ------------------------------------------------------------------
    def set_group_cap(self, group: str, cap_watts: Optional[float]) -> None:
        """Set (or clear) the total cap of *group*, split per node."""
        if group not in self.groups:
            raise PolicyError(f"unknown group {group!r}")
        machine = self.simulation.machine
        ids = self.groups[group]
        nodes = [machine.node(nid) for nid in ids]
        if cap_watts is None:
            self.simulation.rm.set_power_cap(nodes, None)
            self.caps_watts.pop(group, None)
        else:
            per_node = cap_watts / len(nodes)
            floor = max(n.cap_floor for n in nodes)
            if per_node < floor:
                raise PolicyError(
                    f"group {group!r}: cap {cap_watts:.0f} W gives "
                    f"{per_node:.1f} W/node, below floor {floor:.1f} W"
                )
            self.simulation.rm.set_power_cap(nodes, per_node)
            self.caps_watts[group] = cap_watts
        self.cap_changes += 1

    def group_power(self, group: str) -> float:
        """Measured instantaneous power of *group*, watts."""
        if group not in self.groups:
            raise PolicyError(f"unknown group {group!r}")
        rows = np.asarray(self.groups[group], dtype=np.intp)
        # Summed left to right in group order; operating_points reads
        # the columns without folding the machine total.
        watts = self.simulation.power_vector.operating_points(rows).watts
        return sum(watts.tolist(), 0.0)

    def epa_components(self) -> List[Tuple[str, FunctionalCategory, str]]:
        return [
            (
                "group-caps",
                FunctionalCategory.POWER_CONTROL,
                f"{len(self.groups)} node groups with admin-settable caps",
            )
        ]
