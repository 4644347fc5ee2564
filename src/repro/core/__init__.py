"""EPA JSRM core: job scheduling and resource management.

The paper's subject matter (Section II-A): a *job scheduler* decides
which pending jobs to place next onto computational nodes; a *resource
manager* has the privileged ability to control resources (nodes, power
caps, frequencies, even facility actuation).  This package provides
both, their coupling (the EPA coordinator of Figure 1), the queue and
allocation machinery, and the metrics every evaluation reports.
"""

from .queue import JobQueue, QueueConfig
from .scheduler import (
    FcfsScheduler,
    Scheduler,
    SchedulingContext,
    StartDecision,
)
from .backfill import ConservativeBackfillScheduler, EasyBackfillScheduler
from .allocator import (
    Allocator,
    FirstFitAllocator,
    LowPowerAllocator,
    TopologyAwareAllocator,
)
from .resource_manager import ResourceManager
from .epa import EpaCoordinator, FunctionalCategory
from .metrics import MetricsReport, compute_metrics
from .simulation import ClusterSimulation, SimulationResult
from .multi import BudgetCoordinator, MachineSlice, SiteSimulation
from .fairshare import (
    FairShareAccountingPolicy,
    FairShareScheduler,
    PredictiveEasyScheduler,
    RuntimeLearningPolicy,
)

__all__ = [
    "Allocator",
    "BudgetCoordinator",
    "ClusterSimulation",
    "MachineSlice",
    "SiteSimulation",
    "ConservativeBackfillScheduler",
    "EasyBackfillScheduler",
    "EpaCoordinator",
    "FairShareAccountingPolicy",
    "FairShareScheduler",
    "FcfsScheduler",
    "FirstFitAllocator",
    "PredictiveEasyScheduler",
    "RuntimeLearningPolicy",
    "FunctionalCategory",
    "JobQueue",
    "LowPowerAllocator",
    "MetricsReport",
    "QueueConfig",
    "ResourceManager",
    "Scheduler",
    "SchedulingContext",
    "SimulationResult",
    "StartDecision",
    "TopologyAwareAllocator",
    "compute_metrics",
]
