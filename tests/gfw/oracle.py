"""Object-level GFW detector: the differential oracle of the column filter.

``repro.gfw.filter.GfwFilter.clean_scan`` reads a scan's integer answer
records and classifies each distinct answer once per scan.  This module
keeps the per-response detector it replaced, written over
:class:`~repro.protocols.DnsResponse` objects one target at a time, so
tests can check the filter against code simple enough to read at a
glance:

* :func:`classify_response` / :func:`classify_target` /
  :func:`is_injected_target` — the paper's Sec. 4.2 evidence rules;
* :func:`attribute_owners` — forged answers mapped to their IPv4 owners;
* :func:`clean_responses` — what ``clean_scan`` must report for a map
  of per-target response tuples;
* :func:`responses_of` / :func:`udp53_from_responses` — converters
  between answer records and response objects.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional, Sequence, Set, Tuple

from repro.gfw.detector import DEFAULT_WHOIS, InjectionEvidence, Ipv4Whois
from repro.net.teredo import decode_teredo, is_teredo
from repro.protocols import DnsAnswer, DnsResponse, DnsStatus, RecordType
from repro.scan.zmap import Udp53Result

_DEFAULT_OWNERS = frozenset((15169,))  # www.google.com -> Google


def classify_response(
    response: DnsResponse,
    expected_rtype: RecordType = RecordType.AAAA,
    whois: Ipv4Whois = DEFAULT_WHOIS,
    domain_owner_asns: Iterable[int] = _DEFAULT_OWNERS,
) -> Optional[InjectionEvidence]:
    """Evidence of forgery carried by a single response, if any."""
    if response.status is not DnsStatus.NOERROR:
        return None
    owners = set(domain_owner_asns)
    for answer in response.answers:
        if answer.rtype is RecordType.A and expected_rtype is RecordType.AAAA:
            return InjectionEvidence.A_FOR_AAAA
        if answer.rtype is RecordType.AAAA and is_teredo(answer.address):
            return InjectionEvidence.TEREDO_ANSWER
        if answer.rtype is RecordType.A:
            owner = whois.owner_of(answer.address)
            if owner is not None and owner not in owners:
                return InjectionEvidence.UNRELATED_OWNER
    return None


def classify_target(
    responses: Sequence[DnsResponse],
    expected_rtype: RecordType = RecordType.AAAA,
    whois: Ipv4Whois = DEFAULT_WHOIS,
) -> Dict[InjectionEvidence, int]:
    """Aggregate forgery evidence across all responses to one probe.

    Returns a (possibly empty) evidence histogram.  A target with any
    evidence is treated as injection-affected for this scan.
    """
    evidence: Dict[InjectionEvidence, int] = {}
    if len(responses) > 1:
        evidence[InjectionEvidence.MULTIPLE_RESPONSES] = len(responses)
    for response in responses:
        kind = classify_response(response, expected_rtype, whois)
        if kind is not None:
            evidence[kind] = evidence.get(kind, 0) + 1
    return evidence


def is_injected_target(
    responses: Sequence[DnsResponse],
    expected_rtype: RecordType = RecordType.AAAA,
    whois: Ipv4Whois = DEFAULT_WHOIS,
) -> bool:
    """True when a probe's responses carry *record-level* forgery evidence.

    Multiple responses alone are treated as corroborating, not
    sufficient: retransmissions can legitimately duplicate answers.
    """
    return any(
        classify_response(response, expected_rtype, whois) is not None
        for response in responses
    )


def attribute_owners(
    responses: Sequence[DnsResponse], whois: Ipv4Whois = DEFAULT_WHOIS
) -> Dict[int, int]:
    """Owner ASN counts of every IPv4 the responses' answers name."""
    owners: Dict[int, int] = {}
    for response in responses:
        for answer in response.answers:
            if answer.rtype is RecordType.A:
                ipv4 = answer.address
            elif answer.rtype is RecordType.AAAA and is_teredo(answer.address):
                ipv4 = decode_teredo(answer.address).client_ipv4
            else:
                continue
            owner = whois.owner_of(ipv4)
            if owner is not None:
                owners[owner] = owners.get(owner, 0) + 1
    return owners


def clean_responses(
    responses_by_target: Mapping[int, Sequence[DnsResponse]],
) -> Tuple[Set[int], Set[int], Dict[InjectionEvidence, int], Dict[int, int]]:
    """``(clean, injected, evidence_counts, owners)`` of one scan."""
    clean: Set[int] = set()
    injected: Set[int] = set()
    evidence: Dict[InjectionEvidence, int] = {}
    owners: Dict[int, int] = {}
    for target, responses in responses_by_target.items():
        if not is_injected_target(responses):
            clean.add(target)
            continue
        injected.add(target)
        for kind, count in classify_target(responses).items():
            evidence[kind] = evidence.get(kind, 0) + count
        for owner, count in attribute_owners(responses).items():
            owners[owner] = owners.get(owner, 0) + count
    return clean, injected, evidence, owners


def responses_of(result: Udp53Result, target: int) -> Tuple[DnsResponse, ...]:
    """A responder's answer record spelled out as response objects.

    Extra answers come first, flagged ``injected`` (the simulator's
    ground truth for them), then the genuine variant's response.
    """
    variant, extras = result.records[target]
    responses = [
        DnsResponse(
            responder=target, qname=result.qname, status=DnsStatus.NOERROR,
            answers=(DnsAnswer(rtype=result.extra_rtype, address=payload),),
            injected=True,
        )
        for payload in extras
    ]
    if variant:
        status, answers = result.variants[variant]
        responses.append(DnsResponse(
            responder=target, qname=result.qname, status=status,
            answers=answers,
        ))
    return tuple(responses)


def udp53_from_responses(
    day: int,
    responses_by_target: Mapping[int, Sequence[DnsResponse]],
    qname: str = "www.google.com",
) -> Udp53Result:
    """Answer records for hand-built per-target response tuples.

    Each target's last response becomes its genuine variant (codes 1..6
    in order of first appearance) and the ones before it its extra
    answers, which must be single-answer NOERROR responses sharing one
    record type per scan.
    """
    result = Udp53Result(day=day, qname=qname)
    codes: Dict[Tuple[DnsStatus, Tuple[DnsAnswer, ...]], int] = {}
    rtypes = set()
    for target, responses in responses_by_target.items():
        result.targets += 1
        result.responders.add(target)
        *extras, last = responses
        key = (last.status, last.answers)
        if key not in codes:
            codes[key] = len(codes) + 1
            assert codes[key] <= 6, "more genuine variants than wire codes"
            result.variants[codes[key]] = key
        for response in extras:
            assert response.status is DnsStatus.NOERROR
            (answer,) = response.answers
            rtypes.add(answer.rtype)
        result.records[target] = (
            codes[key],
            tuple(response.answers[0].address for response in extras),
        )
    assert len(rtypes) <= 1, "extra answers share one record type per scan"
    if rtypes:
        result.extra_rtype = rtypes.pop()
    return result
