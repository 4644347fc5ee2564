"""CI batched-dispatch equivalence check.

Run the rich shared scenario once with the stepped ``run()`` loop and
once with ``run_batched()``, both under a ``RunRecorder``, and require
the two event fingerprint streams to be identical at every position
(first divergence reported) plus an identical ``SimulationResult``
fingerprint.  This is the acceptance contract of the batched
dispatcher: cohort execution must be replay-indistinguishable from
step-by-step execution.

Run from the repo root with ``PYTHONPATH=src:.`` (imports the shared
scenario builders from the test package).
"""

from __future__ import annotations

import sys

from repro.state import RunRecorder, compare_streams, result_fingerprint
from tests.state_scenarios import build_rich


def recorded_run(batched: bool):
    sim_obj = build_rich()
    with RunRecorder(sim_obj) as rec:
        result = sim_obj.run_batched() if batched else sim_obj.run()
    return result, rec.entries


def main() -> int:
    ref_result, ref_entries = recorded_run(batched=False)
    bat_result, bat_entries = recorded_run(batched=True)
    if len(ref_entries) != len(bat_entries):
        print(f"FAIL: stepped fired {len(ref_entries)} events, batched "
              f"fired {len(bat_entries)}")
        return 1
    report = compare_streams(ref_entries, bat_entries)
    if report is not None:
        print(f"FAIL: event streams diverge: {report}")
        return 1
    if result_fingerprint(bat_result) != result_fingerprint(ref_result):
        print("FAIL: event streams match but final results differ")
        return 1
    print(f"OK: {len(ref_entries)} events, batched run replay-identical "
          "to stepped run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
