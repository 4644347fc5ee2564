"""The vectorised application draw is stream-identical to the scalar loop.

:meth:`WorkloadGenerator.generate` picks every job's application with
one ``rng.choice(len(apps), size=n, p=weights)``; the seed picked them
one scalar ``rng.choice`` per job (kept in ``tests/workload_oracles.py``).
numpy takes one uniform double per weighted draw either way, so both
must produce the same jobs, field by field, and leave the generator on
the same next draw.  CI runs this on numpy 1.x and 2.x.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.simulator import RngStreams
from repro.units import HOUR
from repro.workload import (
    CENTER_WORKLOADS,
    ApplicationCatalog,
    Job,
    WorkloadGenerator,
    WorkloadSpec,
    center_workload_spec,
    default_catalog,
)

from .workload_oracles import scalar_generate

SEEDS = (1, 7, 2024)
FIELDS = [f.name for f in dataclasses.fields(Job)]


def _assert_same_stream(spec: WorkloadSpec, seed: int, **kwargs) -> int:
    vec = WorkloadGenerator(spec, RngStreams(seed).stream("workload"))
    ref = WorkloadGenerator(spec, RngStreams(seed).stream("workload"))
    got = vec.generate(**kwargs)
    want = scalar_generate(ref, **kwargs)
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for name in FIELDS:
            assert getattr(a, name) == getattr(b, name), (a.job_id, name)
        assert a.profile is b.profile
    assert vec.rng.random() == ref.rng.random()
    return len(got)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("center", sorted(CENTER_WORKLOADS))
def test_center_presets_match_the_scalar_loop(center, seed):
    assert _assert_same_stream(center_workload_spec(center, duration=6 * HOUR), seed) > 0


@pytest.mark.parametrize("seed", SEEDS)
def test_moldable_heavy_spec_matches_the_scalar_loop(seed):
    spec = WorkloadSpec(
        duration=12 * HOUR, max_nodes=64, moldable_fraction=0.9, diurnal=True
    )
    assert _assert_same_stream(spec, seed) > 0


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("count", [1, 37, 400])
def test_count_matches_the_scalar_loop(seed, count):
    # 400 exceeds one Poisson window, so the top-up path runs too.
    spec = WorkloadSpec(duration=4 * HOUR, arrival_rate=50.0 / HOUR)
    assert _assert_same_stream(spec, seed, count=count, id_prefix="c") == count


def test_sample_is_the_single_draw_case():
    catalog = default_catalog()
    a = np.random.default_rng(5)
    b = np.random.default_rng(5)
    drawn = [catalog.sample(a) for _ in range(200)]
    assert drawn == catalog.draw(b, 200)
    assert a.random() == b.random()


def test_uneven_catalog_weights():
    apps = default_catalog().apps[:3]
    catalog = ApplicationCatalog(apps, [0.0, 3.0, 1.0])
    spec = WorkloadSpec(duration=6 * HOUR, catalog=catalog)
    assert _assert_same_stream(spec, 11) > 0
    drawn = catalog.draw(np.random.default_rng(3), 500)
    assert {app.name for app in drawn} == {apps[1].name, apps[2].name}
