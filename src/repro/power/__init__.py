"""Power and energy substrate.

Functional equivalents of the power-control mechanisms the surveyed
centers use in production: the node power/performance model, DVFS
frequency ladders, RAPL-style running-average capping, CAPMC-style
out-of-band system/node control, power metering with per-job energy
attribution, and hierarchical power budgets (site -> system ->
partition -> node).
"""

from .model import NodePowerModel
from .dvfs import FrequencyLadder
from .rapl import RaplDomain
from .capmc import Capmc
from .meter import PowerMeter
from .budget import PowerBudget
from .pue import FacilityPowerModel
from .vector import OperatingPoints, VectorPowerMirror

__all__ = [
    "Capmc",
    "FacilityPowerModel",
    "FrequencyLadder",
    "NodePowerModel",
    "OperatingPoints",
    "PowerBudget",
    "PowerMeter",
    "RaplDomain",
    "VectorPowerMirror",
]
