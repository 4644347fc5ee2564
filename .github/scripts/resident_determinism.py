"""CI check: resident federation sites replay-identical to migration.

Runs the nine-site fed-fine shape (seed 1, broker off, 3 h in 15-min
epochs) twice and requires identical ``FederationResult.fingerprint``s:

* resident at ``workers=2`` — each site stays live in its pinned
  worker, so no epoch restores a site from its snapshot bytes;
* ``workers=3`` with a miss forced every epoch — each worker drops its
  live sites and its state-record memo before every advance, so every
  epoch after the first restores every site from the bytes, as a site
  moved to another worker would, and encodes every site-epoch cold
  (the resident run encodes warm, from the memo).

The restore counts are checked too, so the two runs really take the
two paths.  Run from the repo root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import functools
import sys

import repro.federation.campaign as campaign
import repro.federation.site as site
from repro.analysis.executor import FanoutPool
from repro.centers import center_slugs
from repro.federation import FederationCampaign, SiteConfig
from repro.state.serialize import clear_record_memo
from repro.units import HOUR

HORIZON = 3 * HOUR
EPOCH = 0.25 * HOUR
SEED = 1

_restores = [0]
_real_restore = site.restore


def _counting_restore(state, factory):
    _restores[0] += 1
    return _real_restore(state, factory)


def _counted(fn, cold, task):
    """*fn*(task) plus the number of restores it made in this process;
    *cold* drops this process's live sites and record memo first."""
    if cold:
        site.release_live_sites()
        clear_record_memo()
    before = _restores[0]
    return fn(task), _restores[0] - before


class CountingPool(FanoutPool):
    """A ``FanoutPool`` that counts site restores across its workers
    and, with ``cold`` set, forces a miss on every advance."""

    cold = False
    restores = 0

    def map(self, fn, tasks):
        pairs = super().map(functools.partial(_counted, fn, self.cold), tasks)
        CountingPool.restores += sum(count for _, count in pairs)
        return [outcome for outcome, _ in pairs]


def run(workers: int, cold: bool):
    """(campaign fingerprint, restores, epochs) of one fed-fine run."""
    CountingPool.cold = cold
    CountingPool.restores = 0
    result = FederationCampaign(
        sites=[SiteConfig(slug=slug, seed=SEED, horizon=HORIZON)
               for slug in center_slugs()],
        horizon=HORIZON,
        epoch_seconds=EPOCH,
        workers=workers,
    ).run()
    return result.fingerprint, CountingPool.restores, result.epochs


def main() -> int:
    # Patched before any pool forks, so every worker inherits both.
    site.restore = _counting_restore
    campaign.FanoutPool = CountingPool
    resident, resident_restores, epochs = run(workers=2, cold=False)
    cold, cold_restores, _ = run(workers=3, cold=True)
    sites = len(center_slugs())
    print(f"resident  workers=2: {resident} ({resident_restores} restores)")
    print(f"cold      workers=3: {cold} ({cold_restores} restores)")
    if resident_restores != 0:
        print("FAIL: the resident run restored sites from bytes")
        return 1
    if cold_restores != sites * (epochs - 1):
        print(f"FAIL: expected {sites * (epochs - 1)} restores in the "
              "cold run")
        return 1
    if resident != cold:
        print("FAIL: resident and cold runs diverged")
        return 1
    print("OK: resident sites replay-identical to a restore every epoch")
    return 0


if __name__ == "__main__":
    sys.exit(main())
