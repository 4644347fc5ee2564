"""Energy tags and application characterization — LRZ's production line.

Table I, LRZ production: "First time new app runs: characterized for
frequency, runtime and energy.  Administrator selects job scheduling
goal, energy to solution or best performance."  (The LoadLeveler /
LSF "energy-aware scheduling" feature set, [4], [24].)

Mechanics here:

* every job carries a ``tag`` (the energy tag of [4]);
* the first run of a tag executes at nominal frequency and is
  *characterized*: its phase response is fitted so the policy can
  predict runtime and energy at any frequency;
* subsequent runs of the tag start at the frequency matching the
  administrator's goal — minimum energy-to-solution, best performance,
  or minimum energy-delay product.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..cluster.node import Node
from ..core.epa import FunctionalCategory
from ..power.dvfs import FrequencyLadder
from ..workload.job import Job
from .base import Policy


class SchedulingGoal(enum.Enum):
    """The administrator-selected objective (Table I, LRZ)."""

    ENERGY_TO_SOLUTION = "energy-to-solution"
    BEST_PERFORMANCE = "best-performance"
    ENERGY_DELAY_PRODUCT = "energy-delay-product"


@dataclass
class TagCharacterization:
    """What the first run of a tag taught us."""

    tag: str
    sensitivity: float
    intensity: float
    runs: int = 1
    chosen_frequency: Optional[float] = None


class EnergyTagPolicy(Policy):
    """Per-tag frequency selection toward an energy goal.

    Parameters
    ----------
    goal:
        The administrator's objective.
    ladder:
        Admissible frequencies; defaults to a 6-step ladder between
        the machine's min and max frequency.
    """

    name = "energy-tags"

    def __init__(
        self,
        goal: SchedulingGoal = SchedulingGoal.ENERGY_TO_SOLUTION,
        ladder: Optional[FrequencyLadder] = None,
    ) -> None:
        super().__init__()
        self.goal = goal
        self.ladder = ladder
        self.characterizations: Dict[str, TagCharacterization] = {}

    def on_attach(self) -> None:
        if self.ladder is None:
            node = self.simulation.machine.nodes[0]
            self.ladder = FrequencyLadder.linear(
                node.min_frequency, node.max_frequency, steps=6
            )

    # -- state capture: characterizations are nested dataclasses keyed
    # by tag; the generic walk cannot rebuild them inside a dict, and
    # losing them makes a restored run re-characterize every tag at
    # nominal frequency (replay divergence).  Flat tuples round-trip.
    def __repro_getstate__(self) -> dict:
        return {
            "characterizations": {
                tag: (c.sensitivity, c.intensity, c.runs, c.chosen_frequency)
                for tag, c in self.characterizations.items()
            }
        }

    def __repro_setstate__(self, state: dict) -> None:
        self.characterizations = {
            tag: TagCharacterization(
                tag=tag, sensitivity=sens, intensity=inten,
                runs=int(runs), chosen_frequency=freq,
            )
            for tag, (sens, inten, runs, freq)
            in state["characterizations"].items()
        }

    # ------------------------------------------------------------------
    # Frequency selection
    # ------------------------------------------------------------------
    def _objective(self, power: float, speed: float) -> float:
        """Scalarized objective of one ladder point (lower is better)."""
        time_factor = 1.0 / speed
        energy = power * time_factor  # per unit of work
        if self.goal is SchedulingGoal.BEST_PERFORMANCE:
            return time_factor
        if self.goal is SchedulingGoal.ENERGY_TO_SOLUTION:
            return energy
        return energy * time_factor  # EDP

    def best_frequency(self, sensitivity: float, intensity: float) -> float:
        """The ladder frequency minimizing the goal for this response,
        priced on the store's nominal row with the whole ladder in one
        kernel call."""
        frequencies = self.ladder.frequencies
        store = self.simulation.machine.store
        row = store.nominal_row
        ratios = np.asarray(frequencies, dtype=float) / store.max_frequency[row]
        powers = self.simulation.power_vector.power_at_ratio(
            np.full(ratios.shape, row), ratios, intensity
        )
        speed_at = self.simulation.power_model.speed_at_ratio
        scores = [
            self._objective(power, speed_at(ratio, sensitivity))
            for power, ratio in zip(powers.tolist(), ratios.tolist())
        ]
        return frequencies[int(np.argmin(scores))]

    # ------------------------------------------------------------------
    def configure_start(self, job: Job, nodes: Sequence[Node], now: float) -> None:
        tag = job.tag or job.app_name
        known = self.characterizations.get(tag)
        if known is None:
            # Characterization run: nominal (max) frequency.
            freq = nodes[0].max_frequency
        else:
            if known.chosen_frequency is None:
                known.chosen_frequency = self.best_frequency(
                    known.sensitivity, known.intensity
                )
            freq = known.chosen_frequency
        self.simulation.rm.set_frequency(nodes, freq)
        job.assigned_frequency = freq
        # LoadLeveler/LSF EAS extends the walltime limit to match the
        # selected frequency, so DVFS never turns into walltime kills.
        ratio = freq / nodes[0].max_frequency
        sensitivity = (
            known.sensitivity if known is not None else job.mean_sensitivity
        )
        speed = self.simulation.power_model.speed_at_ratio(ratio, sensitivity)
        if speed < 1.0:
            job.walltime_request = job.walltime_request / speed

    def on_job_end(self, job: Job, now: float) -> None:
        tag = job.tag or job.app_name
        known = self.characterizations.get(tag)
        if known is None:
            # First completed run of this tag: record its response.
            # (The simulator knows the true profile; a real system fits
            # it from counters.  Measurement noise can be layered via
            # the prediction substrate.)
            self.characterizations[tag] = TagCharacterization(
                tag=tag,
                sensitivity=job.mean_sensitivity,
                intensity=job.mean_power_intensity,
            )
        else:
            known.runs += 1

    # ------------------------------------------------------------------
    @property
    def characterized_tags(self) -> List[str]:
        """Tags with a recorded characterization."""
        return sorted(self.characterizations)

    def epa_components(self) -> List[Tuple[str, FunctionalCategory, str]]:
        return [
            (
                "app-characterization",
                FunctionalCategory.POWER_MONITORING,
                "first-run frequency/runtime/energy characterization per tag",
            ),
            (
                "energy-tag-dvfs",
                FunctionalCategory.POWER_CONTROL,
                f"per-tag frequency selection, goal={self.goal.value}",
            ),
        ]
