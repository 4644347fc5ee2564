"""Site processes load only what they run.

networkx serves one feature, topology-aware allocation, and no stock
center builds a topology.  So it is imported where a graph is built or
walked (``repro.cluster.topology``, ``repro.survey.components``), never
at module load: importing the package and running every stock site
must leave it out of ``sys.modules``.  Each check runs in a fresh
interpreter so modules an earlier test loaded do not leak in.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys
import textwrap

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent.parent


def _run(code: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_stock_sites_never_import_networkx():
    out = _run(
        """
        import sys

        import repro, repro.analysis, repro.centers, repro.federation
        from repro.centers import center_slugs
        from repro.federation import FederationCampaign, SiteConfig
        from repro.federation.site import build_site_simulation
        from repro.units import HOUR

        assert "networkx" not in sys.modules, "loaded at import"
        for slug in center_slugs():
            config = SiteConfig(slug=slug, seed=1, horizon=0.5 * HOUR)
            build_site_simulation(config).simulation.run(until=0.25 * HOUR)
        FederationCampaign(
            horizon=0.5 * HOUR, epoch_seconds=0.25 * HOUR, workers=1
        ).run()
        print(len(center_slugs()), "networkx" in sys.modules)
        """
    )
    count, loaded = out.split()
    assert int(count) >= 9
    assert loaded == "False"


def test_building_a_topology_loads_networkx():
    out = _run(
        """
        import sys

        from repro.cluster.topology import build_for

        assert "networkx" not in sys.modules
        topo = build_for("fat-tree", 64)
        print("networkx" in sys.modules, topo.distance(0, 1), topo.distance(0, 9))
        """
    )
    assert out.split() == ["True", "2", "4"]
