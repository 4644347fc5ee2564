"""DVFS power budgeting — Etinski et al. ([18], [19]).

"Etinski et al. ... extends the standard job scheduling algorithm with
power budgeting capability through DVFS": when starting a job would
exceed the machine power budget at nominal frequency, the job is
started anyway — at a reduced frequency whose predicted power fits the
remaining headroom.  Only if even the minimum frequency does not fit
is the start vetoed (the job waits).

This trades a *known, bounded* slowdown for shorter queue waits under
a budget — the crossover the `exp-dvfs` bench sweeps.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.node import Node
from ..core.epa import FunctionalCategory
from ..power.dvfs import FrequencyLadder
from ..units import check_positive
from ..workload.job import Job
from .base import Policy


class DvfsBudgetPolicy(Policy):
    """Start jobs at the highest frequency fitting the power budget.

    Parameters
    ----------
    budget_watts:
        Machine power budget.
    ladder:
        Admissible frequencies; defaults to 6 steps over the node range.
    min_speed:
        Jobs are never started below this predicted relative speed
        (guards against walltime blowups); 0 disables the guard.
    """

    name = "dvfs-budget"

    def __init__(
        self,
        budget_watts: float,
        ladder: Optional[FrequencyLadder] = None,
        min_speed: float = 0.0,
    ) -> None:
        super().__init__()
        self.budget_watts = check_positive("budget_watts", budget_watts)
        self.ladder = ladder
        self.min_speed = float(min_speed)
        self.slowed_starts = 0
        self.vetoes = 0

    def on_attach(self) -> None:
        if self.ladder is None:
            node = self.simulation.machine.nodes[0]
            self.ladder = FrequencyLadder.linear(
                node.min_frequency, node.max_frequency, steps=6
            )

    # ------------------------------------------------------------------
    def _pick_frequency(self, job: Job, now: float) -> Optional[float]:
        """Highest ladder frequency fitting the headroom, or None."""
        headroom = self.budget_watts - self.simulation.machine_power()
        store = self.simulation.machine.store
        row = store.nominal_row
        idle, _ = store.nominal
        max_f = store.max_frequency.item(row)
        # Evaluate the whole ladder in one kernel (descending, so argmax
        # picks the highest admissible frequency) on the store's
        # nominal row, the row every unplaced job is priced from.
        freqs = np.asarray(self.ladder.frequencies, dtype=float)[::-1]
        rows = np.full(freqs.shape, row, dtype=np.intp)
        per_node = self.simulation.power_vector.power_at_ratio(
            rows, freqs / max_f, job.mean_power_intensity
        )
        draws = job.nodes * (per_node - idle)
        speeds = np.maximum(
            1e-9,
            1.0
            - min(1.0, max(0.0, job.mean_sensitivity))
            * (1.0 - np.clip(freqs / max_f, 0.0, 1.0)),
        )
        admissible = (draws <= headroom) & (speeds >= self.min_speed)
        if not admissible.any():
            return None
        return float(freqs[int(np.argmax(admissible))])

    # ------------------------------------------------------------------
    def admit(self, job: Job, now: float) -> bool:
        if self._pick_frequency(job, now) is None:
            self.vetoes += 1
            return False
        return True

    def configure_start(self, job: Job, nodes: Sequence[Node], now: float) -> None:
        freq = self._pick_frequency(job, now)
        if freq is None:
            freq = self.ladder.f_min
        self.simulation.rm.set_frequency(nodes, freq)
        job.assigned_frequency = freq
        if freq < self.ladder.f_max:
            self.slowed_starts += 1
            # Extend the walltime limit to match the frequency (as the
            # Etinski scheme and LSF EAS do), so budgeting does not
            # convert into walltime kills.
            ratio = freq / nodes[0].max_frequency
            speed = self.simulation.power_model.speed_at_ratio(
                ratio, job.mean_sensitivity
            )
            if speed < 1.0:
                job.walltime_request = job.walltime_request / speed

    def epa_components(self) -> List[Tuple[str, FunctionalCategory, str]]:
        return [
            (
                "dvfs-budgeting",
                FunctionalCategory.POWER_CONTROL,
                f"start jobs at reduced frequency under "
                f"{self.budget_watts / 1e3:.0f} kW budget",
            )
        ]
