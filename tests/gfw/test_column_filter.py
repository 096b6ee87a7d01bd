"""The column GFW filter against the object-level detector oracle.

``GfwFilter.clean_scan`` reads the engine's integer answer records; the
oracle in :mod:`tests.gfw.oracle` classifies the response objects
``SimInternet.dns_probe`` builds for the same probes.  On an A-record
era day and a Teredo era day, over targets that include pathological
injection bursts, both must report the same clean and injected
responders, evidence totals and forged-answer owners.  Hand-built
records then show the rule never learns which answers are forged.
"""

import pytest

from repro.gfw.detector import InjectionEvidence
from repro.gfw.filter import GfwFilter
from repro.obs.metrics import MetricsRegistry
from repro.protocols import DnsAnswer, DnsStatus, RecordType
from repro.scan import wire
from repro.scan.zmap import Udp53Result, ZMapScanner, variant_answers
from tests.gfw.oracle import clean_responses
from tests.scan.oracle import OracleScanner

QNAME = "www.google.com"
FACEBOOK_IPV4 = 0x1F0D5801  # inside 31.13.88.0/21
#: a burst answers with 64 to 463 extra responses
BURST = 64


@pytest.fixture(scope="module", params=("a_record", "teredo"))
def era_scans(request, small_world):
    """Engine and oracle scans of the same targets on one era day.

    From the paper's vantage, dead addresses in a Chinese prefix draw
    injections (about 3000 of them, so a 0.2 % burst fires) and hosts
    answer genuinely; from a vantage inside the firewall, the foreign
    hosts' genuine answers arrive behind extra ones.
    """
    eras = small_world.gfw.eras
    era = eras[0] if request.param == "a_record" else eras[-1]
    assert era.mode.value == request.param
    day = era.start_day + 3
    cn_asn = min(small_world.gfw.boundary.inside_asns)
    prefix = small_world.routing.base.prefixes_of(cn_asn)[0]
    hosts = sorted(small_world.hosts)[:1500]
    scans = []
    for world, targets in (
        (small_world, [prefix.value | (0xD000 + i) for i in range(3000)] + hosts),
        (small_world.vantage_view(inside_gfw=True), hosts),
    ):
        _fast, udp53 = ZMapScanner(world, loss_rate=0.0).scan_all_protocols(
            targets, day, QNAME
        )
        oracle = OracleScanner(world, loss_rate=0.0).scan_udp53(
            targets, day, QNAME
        )
        scans.append((udp53, oracle))
    return scans


def test_fixture_covers_bursts_and_both_answer_kinds(era_scans):
    records = [
        record for udp53, _oracle in era_scans
        for record in udp53.records.values()
    ]
    assert max(len(extras) for _variant, extras in records) >= BURST
    assert any(variant and not extras for variant, extras in records)
    assert any(variant and extras for variant, extras in records)
    for udp53, oracle in era_scans:
        assert udp53.responders == oracle.responders


def test_filter_matches_object_oracle(era_scans):
    for udp53, oracle in era_scans:
        gfw = GfwFilter()
        cleaning = gfw.clean_scan(udp53)
        clean, injected, evidence, owners = clean_responses(oracle.responses)
        assert cleaning.clean_responders == clean
        assert cleaning.injected_responders == injected
        assert cleaning.evidence_counts == evidence
        assert gfw.forged_answer_owners == owners
        era_kind = (
            InjectionEvidence.A_FOR_AAAA
            if udp53.extra_rtype is RecordType.A
            else InjectionEvidence.TEREDO_ANSWER
        )
        assert evidence[era_kind]
        assert evidence[InjectionEvidence.MULTIPLE_RESPONSES]


def test_one_labels_call_per_kind_per_scan(era_scans, monkeypatch):
    udp53, _oracle = era_scans[0]
    registry = MetricsRegistry()
    gfw = GfwFilter(metrics=registry)
    family = gfw._m_evidence
    calls = []
    labels = family.labels

    def counting(**labelvalues):
        calls.append(labelvalues["kind"])
        return labels(**labelvalues)

    monkeypatch.setattr(family, "labels", counting)
    cleaning = gfw.clean_scan(udp53)
    assert sorted(calls) == sorted(kind.value for kind in cleaning.evidence_counts)
    assert {
        key[0]: series.value for key, series in family.series_items()
    } == {kind.value: count for kind, count in cleaning.evidence_counts.items()}


def _google_scan(small_world, records, extra_rtype, variants=None):
    result = Udp53Result(day=1, qname=QNAME, extra_rtype=extra_rtype)
    result.variants = (
        variant_answers(small_world.resolve_name(QNAME))
        if variants is None else variants
    )
    for target, record in records.items():
        result.targets += 1
        result.responders.add(target)
        result.records[target] = record
    return result


def test_extra_genuine_answer_stays_clean(small_world):
    """An extra response carrying the real AAAA is only a duplicate."""
    genuine = small_world.resolve_name(QNAME)[0]
    gfw = GfwFilter()
    cleaning = gfw.clean_scan(_google_scan(small_world, {
        1: (wire.GENUINE_NOERROR, (genuine,)),
        2: (0, (genuine, genuine)),
        3: (wire.GENUINE_NOERROR, ()),
    }, RecordType.AAAA))
    assert cleaning.clean_responders == {1, 2, 3}
    assert not cleaning.injected_responders
    assert cleaning.evidence_counts == {}
    assert gfw.forged_answer_owners == {}


def test_genuine_variant_with_a_record_is_injected(small_world):
    """The genuine variant's answers go through the same rule."""
    forged = (
        DnsStatus.NOERROR,
        (DnsAnswer(rtype=RecordType.A, address=FACEBOOK_IPV4),),
    )
    gfw = GfwFilter()
    cleaning = gfw.clean_scan(_google_scan(small_world, {
        1: (wire.GENUINE_NOERROR, ()),
        2: (wire.GENUINE_REFUSED, ()),
    }, RecordType.A, variants={
        wire.GENUINE_NOERROR: forged,
        wire.GENUINE_REFUSED: (DnsStatus.REFUSED, ()),
    }))
    assert cleaning.injected_responders == {1}
    assert cleaning.clean_responders == {2}
    assert cleaning.evidence_counts == {InjectionEvidence.A_FOR_AAAA: 1}
    assert gfw.forged_answer_owners == {32934: 1}
