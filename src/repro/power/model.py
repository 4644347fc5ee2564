"""Node power/performance model.

The standard first-order model used throughout the power-aware
scheduling literature the survey cites (Etinski, Sarood, Patki,
Ellsworth):

* power splits into a static part (idle) and a dynamic part that
  scales with utilization and with frequency as ``(f/f_max)^alpha``
  (``alpha ~ 2`` captures voltage scaling with frequency);
* application speed scales with frequency according to a per-phase
  *frequency sensitivity* ``s`` in [0, 1]:
  ``speed = 1 - s·(1 - f/f_max)`` — compute-bound code (s=1) slows
  proportionally, memory/IO-bound code (s~0.2) barely notices
  (Freeh et al., cited as [21]).

Power capping is modeled as what the hardware actually does: clamp the
effective frequency to the highest value whose predicted power meets
the cap.  If even the minimum frequency exceeds the cap (e.g. cap near
idle power), the model reports the physical power — i.e. a *cap
violation* — which is exactly the condition emergency policies
(RIKEN's automated job killing) exist to handle.
"""

from __future__ import annotations

from ..errors import ConfigurationError
from ..units import check_fraction, check_positive


class NodePowerModel:
    """Parameters of the node power model, plus the phase speed law.

    The power physics over these parameters runs on the machine's node
    columns (:mod:`repro.power.kernels`, fed by
    :class:`~repro.power.vector.VectorPowerMirror`); its scalar,
    one-node statement is the test oracle ``tests/power_oracles.py``.

    Parameters
    ----------
    alpha:
        Exponent of the dynamic-power/frequency curve; 2.0 by default.
    boot_power_fraction:
        Power during BOOTING as a fraction of max power (boot storms
        are a real constraint on Tokyo-Tech-style dynamic provisioning).
    shutdown_power_fraction:
        Power during SHUTTING_DOWN as a fraction of idle power.
    """

    def __init__(
        self,
        alpha: float = 2.0,
        boot_power_fraction: float = 0.6,
        shutdown_power_fraction: float = 1.0,
    ) -> None:
        if alpha <= 0:
            raise ConfigurationError(f"alpha must be > 0, got {alpha}")
        self.alpha = float(alpha)
        self.boot_power_fraction = check_fraction(
            "boot_power_fraction", boot_power_fraction
        )
        self.shutdown_power_fraction = check_positive(
            "shutdown_power_fraction", shutdown_power_fraction
        )

    def speed_at_ratio(self, frequency_ratio: float, sensitivity: float) -> float:
        """Relative speed at a frequency ratio for a phase sensitivity."""
        frequency_ratio = min(1.0, max(0.0, frequency_ratio))
        sensitivity = min(1.0, max(0.0, sensitivity))
        return max(1e-9, 1.0 - sensitivity * (1.0 - frequency_ratio))
