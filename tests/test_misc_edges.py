"""Edge-path tests across modules (error branches, small accessors)."""

import pytest

from repro.hitlist.service import HitlistHistory, HitlistService
from repro.net.prefix import parse_prefix
from repro.protocols import Protocol
from repro.simnet import build_internet, small_config


@pytest.fixture(scope="module")
def tiny_service():
    config = small_config(seed=91)
    world = build_internet(config)
    return HitlistService(world, config)


class TestHistoryEdges:
    def test_retained_at_empty_raises(self):
        with pytest.raises(ValueError):
            HitlistHistory().retained_at(0)

    def test_retain_without_scan_raises(self, tiny_service):
        with pytest.raises(ValueError):
            tiny_service._retain(999)

    def test_scan_pool_property_is_frozen(self, tiny_service):
        pool = tiny_service.scan_pool
        assert isinstance(pool, frozenset)
        assert pool  # seeded from the initial input

    def test_run_scan_records_exclusions(self, tiny_service):
        tiny_service.bootstrap(0)
        tiny_service.run_scan(0, -1)
        snapshot = tiny_service.run_scan(40, 0)  # 40 days later: exclusions
        assert snapshot.excluded_now > 0
        assert tiny_service.history.excluded


class TestGfwAccessors:
    def test_era_and_pool_properties(self, tiny_service):
        gfw = tiny_service.internet.gfw
        assert gfw.eras == tuple(sorted(gfw.eras, key=lambda e: e.start_day))
        assert gfw.ipv4_pool.ranges
        assert gfw.is_blocked("www.google.com")
        assert not gfw.is_blocked("example.org")


class TestAliasedHelpers:
    def test_origin_of(self, tiny_service):
        from repro.analysis.aliased import origin_of

        rib = tiny_service.internet.routing.base
        prefix, asn = next(rib.prefixes())
        assert origin_of(prefix, rib) == asn
        assert origin_of(parse_prefix("3fff::/48"), rib) is None

    def test_domain_report_empty_asn(self):
        from repro.analysis.aliased import DomainAliasReport
        from repro.asn.rib import RibSnapshot

        report = DomainAliasReport()
        assert report.prefixes_of_asn(1, RibSnapshot()) == []
        assert report.mean_domains_per_prefix([]) == 0.0
        assert report.max_domains_in_prefix() == 0


class TestScannerEdges:
    def test_udp53_result_defaults(self):
        from repro.scan.zmap import Udp53Result

        result = Udp53Result(day=1, qname="x")
        assert result.targets == 0
        assert result.responders == set()
        assert result.records == {}

    def test_scan_result_hit_rate_zero_targets(self, tiny_service):
        from repro.scan.zmap import ScanResult

        result = ScanResult(
            protocol=Protocol.ICMP, day=0, targets=0, responders=frozenset()
        )
        assert result.hit_rate == 0.0

    def test_tracer_result_fields(self, tiny_service):
        from repro.scan.yarrp import YarrpTracer

        tracer = YarrpTracer(tiny_service.internet)
        outcome = tracer.trace_targets([], 0)
        assert outcome.targets_traced == 0
        assert outcome.hops == set()


class TestSnapshotCadence:
    def test_default_retain_days_include_dec_2021(self, tiny_service):
        from repro.simnet.config import DAY_2021_12_01

        assert DAY_2021_12_01 in tiny_service.settings.retain_days
        assert tiny_service.settings.retain_days == tuple(
            sorted(tiny_service.settings.retain_days)
        )
