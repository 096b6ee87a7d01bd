"""Tests for the table builders and Sec. 4 reports."""

import dataclasses

import pytest

from repro.analysis.tables import (
    dns_quality_report,
    eui64_report,
    table1_responsiveness,
    table3_new_sources,
    table4_new_responsive,
    table5_gfw_ases,
)
from repro.protocols import ALL_PROTOCOLS, Protocol
from repro.simnet import small_config
from repro.tga import DistanceClustering, SixGraph, evaluate_new_sources


@pytest.fixture(scope="module")
def evaluation(small_world, short_history):
    day = max(short_history.retained)
    return evaluate_new_sources(
        small_world,
        short_history,
        small_config(),
        generators=[SixGraph(budget=20_000), DistanceClustering()],
        seeds_day=day,
        scan_days=[day + 1, day + 3],
        loss_rate=0.0,
    )


class TestTable1:
    def test_rows_and_cumulative(self, short_history, final_rib):
        table = table1_responsiveness(short_history, final_rib)
        assert len(table.rows) == len(short_history.retained)
        for row in table.rows:
            addresses, asns = row.total
            assert addresses > 0
            assert 0 < asns <= addresses
            for protocol in ALL_PROTOCOLS:
                p_addr, p_asns = row.per_protocol[protocol]
                assert p_addr <= addresses or protocol is Protocol.UDP53
                assert p_asns <= p_addr or p_addr == 0
        assert table.cumulative_total >= max(r.total[0] for r in table.rows)

    def test_icmp_dominates(self, short_history, final_rib):
        table = table1_responsiveness(short_history, final_rib)
        final_row = table.rows[-1]
        icmp = final_row.per_protocol[Protocol.ICMP][0]
        for protocol in (Protocol.TCP80, Protocol.TCP443, Protocol.UDP443, Protocol.UDP53):
            assert final_row.per_protocol[protocol][0] <= icmp

    def test_cumulative_exceeds_snapshot(self, short_history, final_rib):
        # churn means far more addresses were ever responsive than at once
        table = table1_responsiveness(short_history, final_rib)
        assert table.cumulative[Protocol.ICMP] >= table.rows[-1].per_protocol[
            Protocol.ICMP
        ][0]


class TestTable3:
    def test_rows(self, evaluation, final_rib):
        rows = table3_new_sources(evaluation, final_rib)
        by_name = {row.source: row for row in rows}
        assert set(by_name) == set(evaluation.reports)
        for row in rows:
            assert row.addresses >= 0
            assert 0 <= row.asn_share_percent <= 100.0

    def test_passive_counts_new_only(self, evaluation, final_rib):
        rows = {r.source: r for r in table3_new_sources(evaluation, final_rib)}
        report = evaluation.reports["passive"]
        assert rows["passive"].addresses == report.new_candidates


class TestTable4:
    def test_rows_include_hitlist_and_total(self, evaluation, short_history, final_rib):
        rows = table4_new_responsive(evaluation, short_history, final_rib)
        names = [row.source for row in rows]
        assert "new_sources" in names
        assert "ipv6_hitlist" in names
        assert names[-1] == "total"
        total_row = rows[-1]
        hitlist_row = next(r for r in rows if r.source == "ipv6_hitlist")
        assert total_row.total >= hitlist_row.total

    def test_top_as_shares(self, evaluation, short_history, final_rib, small_world):
        rows = table4_new_responsive(
            evaluation, short_history, final_rib, small_world.registry
        )
        for row in rows:
            if row.top1 is not None:
                name, share = row.top1
                assert 0 < share <= 100.0
                assert name

    def test_total_is_union_not_sum(self, evaluation, short_history, final_rib):
        rows = table4_new_responsive(evaluation, short_history, final_rib)
        by_name = {row.source: row for row in rows}
        raw_sum = sum(
            by_name[name].total for name in evaluation.reports if name in by_name
        )
        assert by_name["new_sources"].total <= raw_sum


class TestTable5:
    def test_report(self, short_history, final_rib, small_world):
        report = table5_gfw_ases(short_history, final_rib, small_world.registry)
        assert report.total_addresses > 0
        assert report.rows
        # Chinese ASes dominate the top ranks
        assert report.chinese_share_of_top(5) >= 0.8
        top = report.rows[0]
        assert top.is_chinese
        assert top.share_percent > 5
        # the configured share ASes appear among the top rows
        top_asns = {row.asn for row in report.top(10)}
        assert {4134, 4812} & top_asns


class TestEui64Report:
    def test_extraction(self, short_history, small_world):
        report = eui64_report(short_history, small_world)
        assert report.input_total == len(short_history.input_ever)
        assert 0 < report.eui64_addresses < report.input_total
        assert 0 < report.distinct_macs <= report.eui64_addresses
        assert report.macs_seen_once <= report.distinct_macs

    def test_top_mac_is_shared_default(self, short_history, small_world):
        report = eui64_report(short_history, small_world)
        assert report.top_mac_addresses > 1
        assert report.top_mac_vendor == "ZTE"
        assert report.top_mac_same_prefix  # all inside ANTEL's /32


class TestDnsQuality:
    def test_control_experiment_ignores_ground_truth(
        self, short_history, small_world, monkeypatch
    ):
        """The experiment reads what arrived, never the ``injected`` flag."""
        day = 133  # inside the first GFW injection era
        assert small_world.gfw.active_era(day) is not None
        log = small_world.control_ns_log
        mark = len(log)
        want = dns_quality_report(short_history, small_world, day=day)
        probe = small_world.dns_probe

        def flipped(target, qname, probe_day):
            return [
                dataclasses.replace(response, injected=not response.injected)
                for response in probe(target, qname, probe_day)
            ]

        monkeypatch.setattr(small_world, "dns_probe", flipped)
        got = dns_quality_report(short_history, small_world, day=day)
        del log[mark:]
        assert got == want
        assert want.responded

    def test_control_experiment_classification(self, short_history, small_world):
        result = dns_quality_report(short_history, small_world, day=133)
        total = result.responded + len(result.silent)
        assert total == len(
            short_history.retained_at(133).cleaned_responders(Protocol.UDP53)
        )
        if result.responded:
            # the vast majority are valid-but-erroring servers (93.8 %)
            assert len(result.valid_error) / result.responded > 0.6
