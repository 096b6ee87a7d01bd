"""Integration tests: the full pipeline over a short timeline."""

import pytest

from repro.hitlist import HitlistService, default_scan_days
from repro.protocols import ALL_PROTOCOLS, Protocol
from repro.simnet import build_internet, small_config


class TestScheduler:
    def test_default_scan_days_monotonic(self):
        days = default_scan_days(1376)
        assert days[0] == 0
        assert days[-1] == 1376
        assert all(b > a for a, b in zip(days, days[1:]))

    def test_cadence_degrades(self):
        days = default_scan_days(1376)
        gaps = [b - a for a, b in zip(days, days[1:])]
        assert gaps[0] < gaps[-2]


class TestRun:
    def test_snapshots_recorded(self, short_history):
        assert len(short_history.snapshots) == 20
        assert short_history.snapshots[0].day == 0
        assert short_history.snapshots[-1].day == 133

    def test_input_accumulates_monotonically(self, short_history):
        totals = [s.input_total for s in short_history.snapshots]
        assert all(b >= a for a, b in zip(totals, totals[1:]))

    def test_initial_seed_counted(self, short_history):
        assert short_history.per_source_counts["initial_seed"] == len(
            short_history.internet.ground_truth.get("initial_input")
        )

    def test_yarrp_feeds_input(self, short_history):
        assert short_history.per_source_counts.get("yarrp", 0) > 0

    def test_aliased_prefixes_detected(self, short_history):
        assert short_history.snapshots[-1].aliased_prefix_count > 0

    def test_aliased_addresses_not_scanned(self, short_history):
        apd = short_history.apd
        # retained final scan responders must exclude aliased space
        final = short_history.final
        for protocol in ALL_PROTOCOLS:
            for address in final.responders[protocol]:
                assert not apd.is_aliased_address(address)

    def test_gfw_era_produces_spike_and_cleaning(self, short_history):
        # era 1 starts at day 123 in the small config
        era_scans = [s for s in short_history.snapshots if s.day >= 123]
        pre_scans = [s for s in short_history.snapshots if s.day < 123]
        assert era_scans and pre_scans
        peak = max(s.published_counts[Protocol.UDP53] for s in era_scans)
        calm = max(s.published_counts[Protocol.UDP53] for s in pre_scans)
        assert peak > 10 * max(calm, 1)
        cleaned_peak = max(s.cleaned_counts[Protocol.UDP53] for s in era_scans)
        assert cleaned_peak < peak / 10

    def test_cleaned_total_stable_through_era(self, short_history):
        era = [s for s in short_history.snapshots if s.day >= 123]
        pre = [s for s in short_history.snapshots if 40 <= s.day < 123]
        avg = lambda xs: sum(xs) / len(xs)
        assert avg([s.cleaned_total for s in era]) < 3 * avg(
            [s.cleaned_total for s in pre]
        )

    def test_30day_filter_excludes(self, short_history):
        assert short_history.excluded
        # excluded addresses are not scan targets anymore
        service_pool_size = short_history.snapshots[-1].scan_target_count
        assert service_pool_size < short_history.snapshots[-1].input_total

    def test_ever_responsive_superset_of_final(self, short_history):
        final = short_history.final
        for protocol in ALL_PROTOCOLS:
            cleaned = final.cleaned_responders(protocol)
            assert cleaned <= short_history.ever_responsive[protocol]

    def test_churn_decomposition_consistency(self, short_history):
        for snapshot in short_history.snapshots[1:]:
            assert snapshot.churn_new >= 0
            assert snapshot.churn_recurring >= 0
            assert snapshot.churn_gone >= 0

    def test_retained_scans(self, short_history):
        final = short_history.final
        assert set(final.responders) == set(ALL_PROTOCOLS)
        assert final.cleaned_any()
        assert short_history.retained_at(0).day == 0


class TestGfwDeployment:
    def test_filter_deployment_purges_injection_only_addresses(self):
        world = build_internet(small_config(seed=21))
        config = small_config(seed=21)
        from repro.hitlist.service import ServiceSettings

        settings = ServiceSettings(gfw_filter_deploy_day=160)
        service = HitlistService(world, config, settings=settings)
        history = service.run(list(range(0, 200, 8)))
        # after deployment, published UDP/53 equals cleaned UDP/53
        post = [s for s in history.snapshots if s.day >= 160]
        assert post
        for snapshot in post[1:]:
            assert snapshot.published_counts[Protocol.UDP53] == pytest.approx(
                snapshot.cleaned_counts[Protocol.UDP53], abs=2
            )
        assert history.gfw.impacted_count > 0


class TestSettingsValidation:
    @pytest.mark.parametrize("attempts", (0, -3))
    def test_retry_attempts_below_one_rejected(self, small_world, attempts):
        from repro.hitlist.service import ServiceSettings

        with pytest.raises(ValueError, match="retry_attempts"):
            HitlistService(
                small_world, small_config(),
                ServiceSettings(retry_attempts=attempts),
            )

    def test_scan_mode_rejected(self, small_world):
        from repro.hitlist.service import ServiceSettings

        with pytest.raises(ValueError, match="scan_mode"):
            HitlistService(
                small_world, small_config(), ServiceSettings(scan_mode="some"),
            )
