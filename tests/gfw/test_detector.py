"""Tests for the GFW response classifier (observable evidence only)."""

from tests.gfw.oracle import (
    DEFAULT_WHOIS,
    InjectionEvidence,
    classify_response,
    classify_target,
    is_injected_target,
)
from repro.net.teredo import encode_teredo
from repro.protocols import DnsAnswer, DnsResponse, DnsStatus, RecordType


def response(*answers, status=DnsStatus.NOERROR, responder=1):
    return DnsResponse(
        responder=responder, qname="www.google.com", status=status, answers=answers
    )


GOOGLE_AAAA = DnsAnswer(rtype=RecordType.AAAA, address=0x2A00145040070801 << 64)
FACEBOOK_A = DnsAnswer(rtype=RecordType.A, address=0x1F0D5801)  # inside 31.13.88.0/21
TEREDO_AAAA = DnsAnswer(
    rtype=RecordType.AAAA, address=encode_teredo(0x41EA9E00, 0x1F0D5801, 4444)
)


class TestClassifyResponse:
    def test_genuine_aaaa_not_flagged(self):
        assert classify_response(response(GOOGLE_AAAA)) is None

    def test_a_record_for_aaaa_query(self):
        assert (
            classify_response(response(FACEBOOK_A)) is InjectionEvidence.A_FOR_AAAA
        )

    def test_teredo_answer(self):
        assert (
            classify_response(response(TEREDO_AAAA)) is InjectionEvidence.TEREDO_ANSWER
        )

    def test_unrelated_owner_when_a_expected(self):
        evidence = classify_response(response(FACEBOOK_A), expected_rtype=RecordType.A)
        assert evidence is InjectionEvidence.UNRELATED_OWNER

    def test_error_status_never_flagged(self):
        assert classify_response(response(status=DnsStatus.REFUSED)) is None

    def test_empty_answers_not_flagged(self):
        assert classify_response(response()) is None


class TestClassifyTarget:
    def test_multiple_responses_recorded(self):
        evidence = classify_target([response(GOOGLE_AAAA), response(GOOGLE_AAAA)])
        assert evidence == {InjectionEvidence.MULTIPLE_RESPONSES: 2}

    def test_mixed_evidence(self):
        evidence = classify_target([response(FACEBOOK_A), response(TEREDO_AAAA)])
        assert evidence[InjectionEvidence.A_FOR_AAAA] == 1
        assert evidence[InjectionEvidence.TEREDO_ANSWER] == 1
        assert evidence[InjectionEvidence.MULTIPLE_RESPONSES] == 2

    def test_clean_single_response(self):
        assert classify_target([response(GOOGLE_AAAA)]) == {}


class TestIsInjectedTarget:
    def test_record_level_evidence_required(self):
        # duplicates alone are not sufficient (could be retransmissions)
        assert not is_injected_target([response(GOOGLE_AAAA), response(GOOGLE_AAAA)])

    def test_teredo_flags(self):
        assert is_injected_target([response(GOOGLE_AAAA), response(TEREDO_AAAA)])

    def test_a_for_aaaa_flags(self):
        assert is_injected_target([response(FACEBOOK_A)])


class TestWhois:
    def test_known_ranges(self):
        assert DEFAULT_WHOIS.owner_of(0x1F0D5801) == 32934
        assert DEFAULT_WHOIS.owner_of(0x0D6B4001) == 8075
        assert DEFAULT_WHOIS.owner_of(0xA27D0001) == 19679
        assert DEFAULT_WHOIS.owner_of(0x01010101) is None
