"""The GFW filter added to the hitlist pipeline (Fig. 1, green box).

Two roles, matching the paper's deployment in February 2022:

* **post-scan cleaning**: immediately after each UDP/53 scan, responders
  whose responses carry forgery evidence are removed from the DNS
  results, so freshly scanned addresses are only counted DNS-responsive
  when they really answered.  Addresses responsive to other protocols
  stay in the input; pure-injection addresses then age out through the
  30-day filter.
* **historical cleaning**: addresses that ever showed injection but
  never answered any other protocol are dropped from the accumulated
  input outright (the paper's one-time removal of 134 M addresses).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.gfw.detector import (
    DEFAULT_WHOIS,
    InjectionEvidence,
    Ipv4Whois,
    answer_evidence,
)
from repro.obs.metrics import MetricsRegistry
from repro.protocols import DnsStatus, RecordType
from repro.scan.zmap import Udp53Result

_MISSING = object()


@dataclass
class ScanCleaningResult:
    """Outcome of cleaning one UDP/53 scan."""

    day: int
    clean_responders: Set[int] = field(default_factory=set)
    injected_responders: Set[int] = field(default_factory=set)
    evidence_counts: Dict[InjectionEvidence, int] = field(default_factory=dict)


class GfwFilter:
    """Stateful injection bookkeeping across the service lifetime."""

    def __init__(self, whois: Ipv4Whois = DEFAULT_WHOIS,
                 metrics: Optional[MetricsRegistry] = None) -> None:
        #: addresses that showed injection evidence in at least one scan
        self.ever_injected: Set[int] = set()
        #: addresses that ever genuinely answered a non-DNS probe
        self.ever_other_protocol: Set[int] = set()
        #: forged answers attributed to their (unrelated) IPv4 owners —
        #: the paper's Facebook/Microsoft/Dropbox observation
        self.forged_answer_owners: Dict[int, int] = {}
        self._whois = whois
        #: memoized ``whois.owner_of`` results (forged IPv4s recur)
        self._owner_cache: Dict[int, Optional[int]] = {}
        self._metrics = metrics
        if metrics is not None:
            self._m_evidence = metrics.counter(
                "repro_gfw_evidence_total",
                "Forgery evidence observed in UDP/53 responses, by kind.",
                ("kind",))

    def _verdict(
        self, status: DnsStatus, answers: Iterable[Tuple[RecordType, int]]
    ) -> Tuple[Optional[InjectionEvidence], Tuple[int, ...]]:
        """One response's first evidence, and the owners of the IPv4s its
        answers name.

        Genuine-variant answers and extra answers both come through
        here, so the rule cannot tell them apart.  Owner lookups are
        memoized across scans: forged answers recycle a small IPv4 pool.
        """
        kind = None
        owners = []
        for rtype, address in answers:
            found = answer_evidence(rtype, address)
            if found is None:
                continue
            evidence, ipv4 = found
            if kind is None and status is DnsStatus.NOERROR:
                kind = evidence
            owner = self._owner_cache.get(ipv4, _MISSING)
            if owner is _MISSING:
                owner = self._owner_cache[ipv4] = self._whois.owner_of(ipv4)
            if owner is not None:
                owners.append(owner)
        return kind, tuple(owners)

    def clean_scan(self, result: Udp53Result) -> ScanCleaningResult:
        """Split one scan's responders into clean and injected.

        Each genuine variant's answers and each distinct extra payload
        is classified once per scan.  A target is injected exactly when
        one of its responses carries record-level evidence
        (``MULTIPLE_RESPONSES`` alone is corroborating, not sufficient);
        evidence and answer owners of injected targets are totalled per
        scan.
        """
        cleaning = ScanCleaningResult(day=result.day)
        variants = {
            code: self._verdict(
                status, [(answer.rtype, answer.address) for answer in answers]
            )
            for code, (status, answers) in result.variants.items()
        }
        extras_seen: Dict[int, tuple] = {}
        totals = cleaning.evidence_counts
        owner_totals = self.forged_answer_owners
        multiple = InjectionEvidence.MULTIPLE_RESPONSES
        for responder in result.responders:
            # carried-forward responders have no answers this scan
            variant, extras = result.records.get(responder, (0, ()))
            verdicts = [variants.get(variant, (None, ()))]
            for payload in extras:
                if payload not in extras_seen:
                    extras_seen[payload] = self._verdict(
                        DnsStatus.NOERROR, ((result.extra_rtype, payload),)
                    )
                verdicts.append(extras_seen[payload])
            if all(kind is None for kind, _owners in verdicts):
                cleaning.clean_responders.add(responder)
                continue
            cleaning.injected_responders.add(responder)
            responses = len(extras) + (1 if variant else 0)
            if responses > 1:
                totals[multiple] = totals.get(multiple, 0) + responses
            for kind, owners in verdicts:
                if kind is not None:
                    totals[kind] = totals.get(kind, 0) + 1
                for owner in owners:
                    owner_totals[owner] = owner_totals.get(owner, 0) + 1
        if self._metrics is not None:
            for kind, count in totals.items():
                self._m_evidence.labels(kind=kind.value).inc(count)
        self.ever_injected.update(cleaning.injected_responders)
        return cleaning

    def note_other_protocol_responders(self, responders: Set[int]) -> None:
        """Record genuine responsiveness to any non-DNS protocol."""
        self.ever_other_protocol.update(responders)

    def historical_filter_set(self) -> Set[int]:
        """Addresses to purge from the input (Sec. 4.2's 134 M).

        Injection-only addresses: at least one injected response across
        the service history and never any other-protocol response.
        """
        return self.ever_injected - self.ever_other_protocol

    @property
    def impacted_count(self) -> int:
        """Total addresses that ever showed injection."""
        return len(self.ever_injected)
