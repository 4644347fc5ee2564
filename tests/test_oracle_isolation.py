"""The test oracles stay test-only.

``tests/backfill_oracles.py`` holds the seed schedulers and python
kernel twins the runtime code is pinned against,
``tests/workload_oracles.py`` the seed's per-job workload draw, and
``tests/power_oracles.py`` the scalar node power physics.
Runtime code that imported them would silently put an O(P·T³) loop
back on a hot path (and make the package depend on its test tree), so
any import of an oracle module — or of anything under ``tests`` — from
``src/repro`` fails here.
"""

from __future__ import annotations

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent


def _imported_modules(path: pathlib.Path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield node.module


def _forbidden(module: str) -> bool:
    parts = module.split(".")
    return parts[0] == "tests" or any(p.endswith("_oracles") for p in parts)


def test_src_never_imports_the_oracles():
    offenders = [
        f"{path.relative_to(SRC.parent)}: {module}"
        for path in sorted(SRC.rglob("*.py"))
        for module in _imported_modules(path)
        if _forbidden(module)
    ]
    assert not offenders, offenders


def test_check_catches_an_oracle_import(tmp_path):
    # Guard the guard: both spellings of the import are caught.
    probe = tmp_path / "probe.py"
    probe.write_text(
        "from tests.backfill_oracles import plan_conservative_py\n"
        "from .backfill_oracles import ReferenceFreeNodeProfile\n"
        "from .workload_oracles import scalar_generate\n"
        "from tests.power_oracles import operating_point\n",
        encoding="utf-8",
    )
    assert [m for m in _imported_modules(probe) if _forbidden(m)] == [
        "tests.backfill_oracles",
        "backfill_oracles",
        "workload_oracles",
        "tests.power_oracles",
    ]
