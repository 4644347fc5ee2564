"""Tests for the federated nine-center simulation layer.

Campaign tests run deliberately tiny fleets (two small centers, a few
hours) so tier-1 stays fast; the full nine-site multi-day campaign
lives in ``benchmarks/test_bench_federation.py``.
"""

import math

import pytest

import repro.federation.campaign as campaign_module
import repro.federation.site as site_module
from repro.analysis.executor import ExecutorError, FanoutPool
from repro.centers import CENTER_MARKETS, center_market, center_slugs
from repro.errors import ConfigurationError, SurveyError
from repro.federation import (
    EpochTask,
    FederationCampaign,
    GlobalBroker,
    SiteConfig,
    SiteDirective,
    SiteReport,
    advance_site,
    build_site_simulation,
    federation_fingerprint,
    pareto_front,
)
from repro.grid import ElectricityPriceSchedule, RegionMarket
from repro.policies import SiteBudgetPolicy
from repro.state import sim_fingerprint, state_fingerprint
from repro.units import HOUR


def _report(slug, demand, floor=1000.0, ceiling=10000.0, epoch=0):
    return SiteReport(
        slug=slug,
        epoch=epoch,
        epoch_start=0.0,
        epoch_end=6 * HOUR,
        fingerprint="f" * 8,
        power_times=(),
        power_watts=(),
        energy_joules=0.0,
        demand_watts=demand,
        backlog_jobs=0,
        backlog_nodes=0,
        running_jobs=0,
        completed_jobs=0,
        vetoes=0,
        floor_watts=floor,
        ceiling_watts=ceiling,
    )


def _flat_market(price, carbon=0.3, **kwargs):
    return RegionMarket(
        name=f"m{price}",
        utc_offset_hours=0.0,
        tariff=ElectricityPriceSchedule.flat(price),
        carbon=ElectricityPriceSchedule.flat(carbon),
        **kwargs,
    )


class TestMarketsRegistry:
    def test_every_center_has_a_market(self):
        assert set(CENTER_MARKETS) == set(center_slugs())

    def test_center_market_lookup(self):
        market = center_market("cea")
        assert market.name == "fr-idf"
        with pytest.raises(SurveyError):
            center_market("unknown")

    def test_timezones_stagger_peaks(self):
        # At simulation t=0 (UTC midnight) Japan is mid-morning while
        # New Mexico is mid-afternoon of the previous day: the broker
        # must see genuinely different instantaneous prices.
        prices = {s: m.price_at(0.0) for s, m in CENTER_MARKETS.items()}
        assert len(set(prices.values())) > 3


class TestBrokerAllocation:
    def test_floors_always_granted(self):
        broker = GlobalBroker(
            {"a": _flat_market(0.1), "b": _flat_market(0.3)},
            total_budget_watts=3000.0,
        )
        grants = broker.allocate(
            {"a": _report("a", 9000.0), "b": _report("b", 9000.0)},
            0.0,
            6 * HOUR,
        )
        assert grants["a"] >= 1000.0
        assert grants["b"] >= 1000.0
        assert sum(grants.values()) == pytest.approx(3000.0)

    def test_cheapest_region_covered_first(self):
        broker = GlobalBroker(
            {"cheap": _flat_market(0.05), "dear": _flat_market(0.40)},
            total_budget_watts=8000.0,
        )
        grants = broker.allocate(
            {
                "cheap": _report("cheap", 7000.0),
                "dear": _report("dear", 7000.0),
            },
            0.0,
            6 * HOUR,
        )
        # cheap: floor 1000 -> demand 7000; dear keeps only its floor.
        assert grants["cheap"] == pytest.approx(7000.0)
        assert grants["dear"] == pytest.approx(1000.0)

    def test_spare_headroom_goes_to_cheapest(self):
        broker = GlobalBroker(
            {"cheap": _flat_market(0.05), "dear": _flat_market(0.40)},
            total_budget_watts=15000.0,
        )
        grants = broker.allocate(
            {
                "cheap": _report("cheap", 2000.0),
                "dear": _report("dear", 2000.0),
            },
            0.0,
            6 * HOUR,
        )
        # Demands covered (2000 each), then the remainder fills cheap
        # to its 10 kW ceiling before dear sees any headroom.
        assert grants["cheap"] == pytest.approx(10000.0)
        assert grants["dear"] == pytest.approx(5000.0)

    def test_carbon_weight_flips_ordering(self):
        markets = {
            "dirty": _flat_market(0.10, carbon=1.0),
            "clean": _flat_market(0.12, carbon=0.05),
        }
        reports = {
            "dirty": _report("dirty", 9000.0),
            "clean": _report("clean", 9000.0),
        }
        cost_only = GlobalBroker(markets, total_budget_watts=10000.0)
        carbon_aware = GlobalBroker(
            markets, total_budget_watts=10000.0, carbon_weight=0.5
        )
        g1 = cost_only.allocate(reports, 0.0, HOUR)
        g2 = carbon_aware.allocate(reports, 0.0, HOUR)
        assert g1["dirty"] > g1["clean"]
        assert g2["clean"] > g2["dirty"]

    def test_dr_limit_caps_ceiling(self):
        from repro.grid import DemandResponseEvent

        market = _flat_market(
            0.05, dr_events=(DemandResponseEvent(0.0, 12 * HOUR, 3000.0),)
        )
        broker = GlobalBroker({"a": market}, total_budget_watts=50000.0)
        grants = broker.allocate(
            {"a": _report("a", 9000.0)}, 0.0, 6 * HOUR
        )
        assert grants["a"] == pytest.approx(3000.0)

    def test_sub_floor_budget_scales_pro_rata(self):
        broker = GlobalBroker(
            {"a": _flat_market(0.1), "b": _flat_market(0.2)},
            total_budget_watts=1000.0,
        )
        grants = broker.allocate(
            {
                "a": _report("a", 5000.0, floor=1000.0),
                "b": _report("b", 5000.0, floor=3000.0),
            },
            0.0,
            HOUR,
        )
        assert grants["a"] == pytest.approx(250.0)
        assert grants["b"] == pytest.approx(750.0)

    def test_unknown_site_rejected(self):
        broker = GlobalBroker({"a": _flat_market(0.1)})
        with pytest.raises(ConfigurationError):
            broker.allocate({"zz": _report("zz", 100.0)}, 0.0, HOUR)

    def test_history_recorded(self):
        broker = GlobalBroker({"a": _flat_market(0.1)}, budget_fraction=0.5)
        broker.allocate({"a": _report("a", 100.0, epoch=3)}, 0.0, HOUR)
        assert len(broker.history) == 1
        assert broker.history[0].epoch == 4
        assert broker.history[0].total_budget_watts == pytest.approx(5000.0)

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            GlobalBroker({})
        with pytest.raises(ConfigurationError):
            GlobalBroker({"a": _flat_market(0.1)}, budget_fraction=0.0)
        with pytest.raises(ConfigurationError):
            GlobalBroker({"a": _flat_market(0.1)}, total_budget_watts=-5.0)
        with pytest.raises(ConfigurationError):
            GlobalBroker({"a": _flat_market(0.1)}, carbon_weight=-1.0)


class TestProtocolValidation:
    def test_directive_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            SiteDirective(epoch=-1)
        with pytest.raises(ConfigurationError):
            SiteDirective(epoch=0, budget_watts=0.0)

    def test_site_config_sorts_builder_kwargs(self):
        cfg = SiteConfig(
            slug="cea", builder_kwargs=(("nodes", 8), ("maintenance_hours", 1))
        )
        assert cfg.builder_kwargs[0][0] == "maintenance_hours"

    def test_pareto_front(self):
        rows = [
            {"cost": 1.0, "slow": 5.0},
            {"cost": 2.0, "slow": 2.0},
            {"cost": 3.0, "slow": 3.0},  # dominated by row 1
            {"cost": 0.5, "slow": 9.0},
        ]
        assert pareto_front(rows, ("cost", "slow")) == [0, 1, 3]

    def test_federation_fingerprint_orders_sites(self):
        r1 = _report("a", 1.0)
        r2 = _report("b", 1.0)
        fp = federation_fingerprint({"a": [r1], "b": [r2]})
        assert fp == federation_fingerprint({"b": [r2], "a": [r1]})
        assert fp != federation_fingerprint({"a": [r1]})


class TestSiteBudgetPolicy:
    def _sim(self, limit=math.inf):
        config = SiteConfig(
            slug="cea",
            seed=2,
            horizon=4 * HOUR,
            builder_kwargs=(("nodes", 16), ("shifted_nodes", 4)),
        )
        sim_obj = build_site_simulation(config).simulation
        policy = next(
            p for p in sim_obj.policies if isinstance(p, SiteBudgetPolicy)
        )
        policy.limit_watts = limit
        return sim_obj, policy

    def test_infinite_budget_is_inert(self):
        sim_obj, policy = self._sim()
        sim_obj.run(until=4 * HOUR)
        assert policy.vetoes == 0
        assert all(n.power_cap is None for n in sim_obj.machine.nodes)

    def test_tight_budget_vetoes_and_caps(self):
        sim_obj, policy = self._sim(limit=2000.0)
        sim_obj.run(until=4 * HOUR)
        assert policy.vetoes > 0
        capped = [n for n in sim_obj.machine.nodes if n.power_cap is not None]
        assert capped

    def test_lifting_budget_clears_caps(self):
        sim_obj, policy = self._sim(limit=2000.0)
        sim_obj.prepare()
        sim_obj.sim.run(until=2 * HOUR)
        assert any(n.power_cap is not None for n in sim_obj.machine.nodes)
        policy.limit_watts = math.inf
        sim_obj.sim.run(until=4 * HOUR)
        assert all(n.power_cap is None for n in sim_obj.machine.nodes)

    def test_validation(self):
        with pytest.raises(ValueError):
            SiteBudgetPolicy(limit_watts=0.0)


def _tiny_sites(horizon):
    return [
        SiteConfig(
            slug="cea",
            seed=1,
            horizon=horizon,
            builder_kwargs=(("nodes", 24), ("shifted_nodes", 4)),
        ),
        SiteConfig(
            slug="stfc",
            seed=1,
            horizon=horizon,
            builder_kwargs=(("nodes", 16),),
        ),
    ]


class TestOneEncodePerAdvance:
    """Each site-epoch encodes its state exactly once: the report's
    fingerprint is the shipped blob's content hash, not a second
    encode."""

    HORIZON = 4 * HOUR
    EPOCH = 2 * HOUR

    @pytest.fixture
    def encodes(self, monkeypatch):
        calls = []
        real = site_module.to_bytes

        def counting(state):
            calls.append(state)
            return real(state)

        monkeypatch.setattr(site_module, "to_bytes", counting)
        return calls

    def _task(self, epoch, blob=None, **kwargs):
        return EpochTask(
            config=_tiny_sites(self.HORIZON)[0],
            directive=SiteDirective(epoch=epoch),
            epoch=epoch,
            epoch_start=epoch * self.EPOCH,
            epoch_end=(epoch + 1) * self.EPOCH,
            snapshot_blob=blob,
            **kwargs,
        )

    def test_one_encode_per_advance(self, encodes):
        first = advance_site(self._task(0))
        assert len(encodes) == 1
        assert first.snapshot_blob is not None
        assert first.report.fingerprint == state_fingerprint(
            first.snapshot_blob
        )
        # A what-if fork encodes once and ships nothing back.
        fork = advance_site(
            self._task(1, first.snapshot_blob, keep_snapshot=False)
        )
        assert len(encodes) == 2
        assert fork.snapshot_blob is None
        # The final epoch encodes once (for the fingerprint) and drops
        # the blob; it lands on the fork's state, taken before finalize.
        final = advance_site(self._task(1, first.snapshot_blob, final=True))
        assert len(encodes) == 3
        assert final.snapshot_blob is None
        assert final.report.metrics is not None
        assert final.report.fingerprint == fork.report.fingerprint

    def test_campaign_encodes_once_per_site_epoch(self, encodes):
        kwargs = dict(sites=_tiny_sites(self.HORIZON), horizon=self.HORIZON,
                      epoch_seconds=self.EPOCH)
        serial = FederationCampaign(workers=1, **kwargs).run()
        assert len(encodes) == 2 * serial.epochs == 4
        sharded = FederationCampaign(workers=2, **kwargs).run()
        assert sharded.fingerprint == serial.fingerprint


#: ``FederationResult.fingerprint`` of the two tiny sites under the
#: 0.70 fleet budget, recorded before cap changes were batched into one
#: kernel and one mirror scatter per change.
PINNED_BROKER_ON = (
    "4cdac94239659afcc916b1e7ecd658ba74f07d9f836633a05a4621a4b5b65fb2"
)


class TestBrokerOnPin:
    """A broker-on campaign where the budget binds — site caps slow
    running jobs and the gate vetoes starts — pinned to a literal."""

    HORIZON = 4 * HOUR
    EPOCH = 2 * HOUR

    @pytest.mark.parametrize("workers", [1, 2])
    def test_fingerprint_pinned(self, workers):
        result = FederationCampaign(
            sites=_tiny_sites(self.HORIZON),
            horizon=self.HORIZON,
            epoch_seconds=self.EPOCH,
            broker=GlobalBroker(CENTER_MARKETS, budget_fraction=0.70),
            workers=workers,
        ).run()
        assert all(
            math.isfinite(d.budget_watts)
            for directives in result.directives.values()
            for d in directives[1:]
        )
        assert sum(r.vetoes for r in result.reports["stfc"]) > 0
        assert result.fingerprint == PINNED_BROKER_ON


class TestFederationCampaign:
    HORIZON = 4 * HOUR
    EPOCH = 2 * HOUR

    def _campaign(self, **kwargs):
        kwargs.setdefault("sites", _tiny_sites(self.HORIZON))
        kwargs.setdefault("horizon", self.HORIZON)
        kwargs.setdefault("epoch_seconds", self.EPOCH)
        return FederationCampaign(**kwargs)

    def test_deterministic_across_worker_counts(self):
        # The determinism contract: shipping site state between
        # processes as RPST bytes must not change a single bit of the
        # trajectory, so serial and process-sharded campaigns agree.
        r1 = self._campaign(workers=1).run()
        r2 = self._campaign(workers=2).run()
        assert r1.fingerprint == r2.fingerprint
        for slug in r1.sites:
            assert r1.sites[slug].fingerprints == r2.sites[slug].fingerprints
            assert r1.sites[slug].cost == pytest.approx(r2.sites[slug].cost)

    def test_chunked_equals_continuous(self):
        # Epoch-chunked advance through snapshots must land on the same
        # state as one uninterrupted run of the identical stack.
        result = self._campaign(workers=1).run()
        config = _tiny_sites(self.HORIZON)[0]
        sim_obj = build_site_simulation(config).simulation
        sim_obj.prepare()
        sim_obj.sim.run(until=self.HORIZON)
        assert sim_fingerprint(sim_obj) == result.sites["cea"].fingerprints[-1]

    def test_broker_steers_budgets(self):
        broker = GlobalBroker(CENTER_MARKETS, budget_fraction=0.5)
        result = self._campaign(broker=broker, workers=1).run()
        # One allocation per non-final epoch.
        assert len(broker.history) == result.epochs - 1
        # Directives after epoch 0 carry finite budgets.
        for slug, directives in result.directives.items():
            assert math.isinf(directives[0].budget_watts)
            assert all(
                math.isfinite(d.budget_watts) for d in directives[1:]
            )

    def test_broker_off_directives_stay_infinite(self):
        result = self._campaign(workers=1).run()
        for directives in result.directives.values():
            assert all(math.isinf(d.budget_watts) for d in directives)

    def test_final_epoch_carries_metrics(self):
        result = self._campaign(workers=1).run()
        for slug, reports in result.reports.items():
            assert reports[-1].metrics is not None
            assert "mean_bounded_slowdown" in reports[-1].metrics
            assert all(r.metrics is None for r in reports[:-1])

    def test_power_series_tile_without_overlap(self):
        result = self._campaign(workers=1).run()
        for reports in result.reports.values():
            for left, right in zip(reports, reports[1:]):
                # Consecutive epochs share exactly the boundary sample.
                assert left.power_times[-1] == right.power_times[0]

    def test_fork_site_leaves_primary_untouched(self):
        campaign = self._campaign(workers=1, retain_snapshots=True)
        result = campaign.run()
        fork = campaign.fork_site("cea", 0, budget_watts=3000.0)
        # The fork saw a different trajectory...
        assert fork.fingerprint != result.sites["cea"].fingerprints[1]
        # ...but is itself reproducible, and the primary is unchanged.
        assert campaign.fork_site(
            "cea", 0, budget_watts=3000.0
        ).fingerprint == fork.fingerprint
        rerun = self._campaign(workers=1).run()
        assert rerun.fingerprint == result.fingerprint

    def test_score_budgets_returns_curve(self):
        campaign = self._campaign(workers=1, retain_snapshots=True)
        campaign.run()
        rows = campaign.score_budgets("cea", 0, [2000.0, float("inf")])
        assert len(rows) == 2
        assert rows[0][0] == 2000.0
        assert rows[1][1] >= 0.0

    def test_fork_without_retention_rejected(self):
        campaign = self._campaign(workers=1)
        campaign.run()
        with pytest.raises(ConfigurationError):
            campaign.fork_site("cea", 0)

    def test_summary_and_totals(self):
        result = self._campaign(workers=1).run()
        summary = result.summary()
        assert summary["cost"] == pytest.approx(result.total_cost())
        assert summary["cost"] > 0
        assert summary["energy_joules"] > 0
        assert result.total_carbon_kg() > 0

    def test_configuration_validation(self):
        with pytest.raises(ConfigurationError):
            FederationCampaign(sites=[], horizon=HOUR, epoch_seconds=HOUR)
        with pytest.raises(ConfigurationError):
            FederationCampaign(
                sites=_tiny_sites(HOUR) + _tiny_sites(HOUR),
                horizon=HOUR,
                epoch_seconds=HOUR,
            )
        with pytest.raises(ConfigurationError):
            FederationCampaign(horizon=0.0)
        market = {"cea": _flat_market(0.1)}
        with pytest.raises(ConfigurationError):
            FederationCampaign(
                sites=_tiny_sites(HOUR), markets=market,
                horizon=HOUR, epoch_seconds=HOUR,
            )


# ----------------------------------------------------------------------
# Resident sites: live simulations between epochs, the blob on a miss
# ----------------------------------------------------------------------
def _three_sites(horizon):
    return _tiny_sites(horizon) + [
        SiteConfig(
            slug="lrz",
            seed=1,
            horizon=horizon,
            builder_kwargs=(("nodes", 16),),
        ),
    ]


def _advance_cold(task):
    """``advance_site`` with this process's live sites dropped first:
    every epoch misses and restores from the shipped blob."""
    site_module.release_live_sites()
    return site_module.advance_site(task)


class _RotatingPool(FanoutPool):
    """Shifts the task list by one more place on every call, so with
    as many slots as sites each site lands on a different worker every
    epoch — a migration per site-epoch, onto a worker that may hold a
    stale live copy of it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def map(self, fn, tasks):
        tasks = list(tasks)
        shift = self.calls % len(tasks)
        self.calls += 1
        rotated = super().map(fn, tasks[shift:] + tasks[:shift])
        return rotated[len(tasks) - shift:] + rotated[:len(tasks) - shift]


@pytest.fixture
def restores(monkeypatch):
    """Counts the site restores this process performs."""
    calls = []
    real = site_module.restore

    def counting(state, factory):
        calls.append(state)
        return real(state, factory)

    monkeypatch.setattr(site_module, "restore", counting)
    return calls


class TestResidentSites:
    HORIZON = 6 * HOUR
    EPOCH = 2 * HOUR

    def _campaign(self, workers, epoch_seconds=EPOCH):
        return FederationCampaign(
            sites=_three_sites(self.HORIZON),
            horizon=self.HORIZON,
            epoch_seconds=epoch_seconds,
            broker=GlobalBroker(CENTER_MARKETS, budget_fraction=0.70),
            workers=workers,
        )

    @staticmethod
    def _chain(config, epoch_seconds, epochs):
        """Advance *config* through *epochs* non-final epochs in this
        process; yields each report with the live simulation after it."""
        blob = None
        for epoch in range(epochs):
            outcome = advance_site(EpochTask(
                config=config,
                directive=SiteDirective(epoch=epoch),
                epoch=epoch,
                epoch_start=epoch * epoch_seconds,
                epoch_end=(epoch + 1) * epoch_seconds,
                snapshot_blob=blob,
            ))
            blob = outcome.snapshot_blob
            yield outcome.report, site_module._LIVE[config.slug].simulation

    @pytest.mark.parametrize("seed, epoch_hours, epochs", [
        (7, 2.0, 1),    # dirty power rows right after epoch 0
        (4, 0.25, 11),  # ... and after epoch 7
    ])
    def test_live_state_matches_shipped_fingerprint(self, seed, epoch_hours,
                                                    epochs):
        # The reports are read after the closing snapshot.  None of
        # those reads may move the live state off the fingerprint the
        # blob carries, or the next epoch would continue from a state
        # nobody shipped.  The demand read folding dirty mirror rows
        # used to do exactly that on these seeds.
        config = SiteConfig(slug="cea", seed=seed,
                            horizon=(epochs + 1) * epoch_hours * HOUR)
        dirty = 0
        try:
            for report, live in self._chain(config, epoch_hours * HOUR,
                                            epochs):
                mirror = live.power_vector
                dirty += bool(mirror._dirty) or mirror._all_dirty
                assert sim_fingerprint(live) == report.fingerprint
        finally:
            site_module.release_live_sites()
        assert dirty, "no epoch ended with dirty mirror rows"

    def test_resident_run_restores_nothing(self, restores):
        result = self._campaign(workers=1).run()
        assert restores == []
        assert result.fingerprint == self._campaign(workers=2).run().fingerprint

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_forced_miss_matches_resident(self, monkeypatch, restores,
                                          workers):
        resident = self._campaign(workers=1).run()
        monkeypatch.setattr(campaign_module, "advance_site", _advance_cold)
        cold = self._campaign(workers=workers).run()
        assert cold.fingerprint == resident.fingerprint
        for slug, site in resident.sites.items():
            assert cold.sites[slug].fingerprints == site.fingerprints
        if workers == 1:
            # Every epoch after the first restored every site.
            assert len(restores) == 3 * (resident.epochs - 1)

    def test_rotating_slots_match_resident(self, monkeypatch):
        # Six epochs on three slots: from epoch 3 on, each site comes
        # back to a worker holding its copy from three epochs earlier.
        resident = self._campaign(workers=3, epoch_seconds=HOUR).run()
        monkeypatch.setattr(campaign_module, "FanoutPool", _RotatingPool)
        migrated = self._campaign(workers=3, epoch_seconds=HOUR).run()
        assert migrated.epochs == 6
        assert migrated.fingerprint == resident.fingerprint

    def test_stale_live_copy_is_not_continued(self, restores):
        # A worker may hold a copy of the site from an older epoch (the
        # site moved away and came back).  Same config, older state:
        # the task's fingerprint tells them apart, and the worker
        # restores from the blob.
        config = _tiny_sites(self.HORIZON)[0]

        def task(epoch, blob, budget=math.inf):
            return EpochTask(
                config=config,
                directive=SiteDirective(epoch=epoch, budget_watts=budget),
                epoch=epoch,
                epoch_start=epoch * self.EPOCH,
                epoch_end=(epoch + 1) * self.EPOCH,
                snapshot_blob=blob,
            )

        try:
            first = advance_site(task(0, None))
            stale = site_module._LIVE["cea"]
            # The budget binds in epoch 1, so skipping it shows.
            second = advance_site(task(1, first.snapshot_blob, 3000.0))
            site_module.release_live_sites()
            cold = advance_site(task(2, second.snapshot_blob))
            site_module._LIVE["cea"] = stale
            again = advance_site(task(2, second.snapshot_blob))
        finally:
            site_module.release_live_sites()
        assert len(restores) == 2
        assert again.report.fingerprint == cold.report.fingerprint

    def test_prepare_is_idempotent_on_a_live_simulation(self):
        config = _tiny_sites(self.HORIZON)[0]
        try:
            report, live = next(self._chain(config, self.EPOCH, 1))
            events = len(live.sim.iter_live_events())
            live.prepare()
            assert len(live.sim.iter_live_events()) == events
            assert sim_fingerprint(live) == report.fingerprint
        finally:
            site_module.release_live_sites()

    def test_forks_neither_read_nor_perturb_the_cache(self):
        campaign = FederationCampaign(
            sites=_tiny_sites(self.HORIZON), horizon=self.HORIZON,
            epoch_seconds=self.EPOCH, workers=1, retain_snapshots=True,
        )
        campaign.run()
        clean = campaign.fork_site("cea", 0, budget_watts=3000.0)
        # A live entry a reader would take: the retained blob's config
        # and fingerprint, but a simulation that cannot be advanced.
        config = campaign.sites[0]
        trap = site_module._LiveSite(
            config, state_fingerprint(campaign.snapshots["cea"][0]), None,
        )
        site_module._LIVE["cea"] = trap
        try:
            fork = campaign.fork_site("cea", 0, budget_watts=3000.0)
            campaign.score_budgets("cea", 0, [2000.0, float("inf")])
            assert site_module._LIVE == {"cea": trap}
        finally:
            site_module.release_live_sites()
        assert fork == clean

    def test_inline_cache_empty_after_run(self, monkeypatch):
        self._campaign(workers=1).run()
        assert site_module._LIVE == {}

        def failing(task):
            if task.epoch == 1 and task.config.slug == "stfc":
                raise RuntimeError("site lost")
            return site_module.advance_site(task)

        monkeypatch.setattr(campaign_module, "advance_site", failing)
        with pytest.raises(ExecutorError):
            self._campaign(workers=1).run()
        assert site_module._LIVE == {}

    @pytest.mark.parametrize("workers", [1, 2])
    def test_failed_attempt_retries_from_the_blob(self, monkeypatch, tmp_path,
                                                  restores, workers):
        # One site's epoch-1 advance raises once, after its live copy
        # was taken and run forward; the retry must restore from the
        # blob, not continue the half-advanced copy.
        resident = self._campaign(workers=1).run()
        real = site_module._epoch_series

        def flaky(sim_obj, start, end):
            if start == self.EPOCH:
                try:
                    (tmp_path / "raised").touch(exist_ok=False)
                except FileExistsError:
                    pass
                else:
                    raise RuntimeError("lost the report")
            return real(sim_obj, start, end)

        monkeypatch.setattr(site_module, "_epoch_series", flaky)
        retried = self._campaign(workers=workers).run()
        assert retried.fingerprint == resident.fingerprint
        if workers == 1:
            assert len(restores) == 1
