"""CI replay-determinism check.

Run a seeded workload to completion (reference), then start the same workload in a child process that
checkpoints periodically and hard-kills itself (``os._exit``) right
after the first checkpoint lands mid-run.  The parent resumes from the
orphaned checkpoint file and requires a ``SimulationResult``
fingerprint identical to the uninterrupted reference.

Run from the repo root with ``PYTHONPATH=src:.`` (imports the shared
scenario builders from the test package).
"""

from __future__ import annotations

import os
import subprocess
import sys
import tempfile

from repro.state import (
    checkpoint_to,
    load_state,
    result_fingerprint,
    resume_run,
    run_checkpointed,
)
from tests.state_scenarios import build_rich

KILLED_EXIT_CODE = 17


def child(path: str) -> None:
    """Run checkpointed and die immediately after the first checkpoint."""
    sink = checkpoint_to(path)

    def checkpoint_then_die(sim_obj) -> None:
        sink(sim_obj)
        os._exit(KILLED_EXIT_CODE)  # no cleanup, no finalize — a real kill

    run_checkpointed(build_rich(), interval=600.0,
                     sink=checkpoint_then_die)
    raise SystemExit("run finished before the first checkpoint fired")


def main() -> int:
    reference = result_fingerprint(build_rich().run())
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "campaign.ckpt")
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--child", path],
            env=os.environ,
        )
        if proc.returncode != KILLED_EXIT_CODE:
            print(f"FAIL: child exited {proc.returncode}, expected "
                  f"{KILLED_EXIT_CODE}")
            return 1
        if not os.path.exists(path):
            print("FAIL: killed run left no checkpoint")
            return 1
        resumed = resume_run(load_state(path), build_rich)
        if result_fingerprint(resumed) != reference:
            print("FAIL: resumed result diverged from the uninterrupted run")
            return 1
        print("OK: killed at first checkpoint, resumed, result identical")
    return 0


if __name__ == "__main__":
    if len(sys.argv) == 3 and sys.argv[1] == "--child":
        child(sys.argv[2])
    sys.exit(main())
