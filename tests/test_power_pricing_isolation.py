"""Node power is priced in one place.

The power physics lives in ``repro.power`` (the kernels, the mirror and
its one job-power estimator) over the node columns of ``repro.cluster``.
A policy that wrote out its own ``max_power - idle_power`` would keep a
second price list, read from whichever node it picked rather than the
store's nominal (hungriest) row, so any such subtraction outside those
two packages fails here.
"""

from __future__ import annotations

import ast
import pathlib

import repro

SRC = pathlib.Path(repro.__file__).resolve().parent
ALLOWED = ("power", "cluster")


def _names(node: ast.AST):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.Name):
            yield sub.id


def _span_lines(source: str):
    """Lines computing ``max_power - … idle_power`` in *source*."""
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Sub)
            and "max_power" in set(_names(node.left))
            and "idle_power" in set(_names(node.right))
        ):
            yield node.lineno


def test_only_power_and_cluster_price_the_dynamic_span():
    offenders = [
        f"{path.relative_to(SRC.parent)}:{line}"
        for path in sorted(SRC.rglob("*.py"))
        if path.relative_to(SRC).parts[0] not in ALLOWED
        for line in _span_lines(path.read_text(encoding="utf-8"))
    ]
    assert not offenders, offenders


def test_check_catches_a_span_subtraction():
    # Guard the guard: every spelling is caught, and the estimator call
    # and a plain idle read are not.
    probe = (
        "a = node.max_power - node.idle_power\n"
        "b = (sample.max_power - sample.idle_power) * job.mean_power_intensity\n"
        "c = store.max_power[rows] - store.idle_power[rows]\n"
        "d = max_power - idle_power\n"
        "e = mirror.job_power(job.nodes, job.mean_power_intensity)\n"
        "f = budget - node.idle_power\n"
    )
    assert sorted(_span_lines(probe)) == [1, 2, 3, 4]
