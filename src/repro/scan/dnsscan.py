"""DNS scans: zone-wide resolution and the hash-subdomain control experiment.

Two roles from the paper:

* the institutional DNS scans feeding the hitlist (AAAA for >300 M
  domains, plus — new in this work — the NS and MX records resolved to
  their addresses, Sec. 3.2);
* the control experiment of Sec. 4.2: after GFW cleaning, each remaining
  UDP/53 responder is queried for a *unique hash subdomain* of a domain
  we control, so outgoing probes can be correlated with queries arriving
  at our authoritative name server.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Set, Tuple

from repro.protocols import DnsStatus, RecordType
from repro.simnet.dnszone import DnsZone
from repro.simnet.internet import SimInternet


@dataclass
class ZoneResolutionResult:
    """Addresses discovered by resolving the domain universe."""

    aaaa_addresses: Set[int] = field(default_factory=set)
    ns_mx_addresses: Set[int] = field(default_factory=set)
    domains_resolved: int = 0
    hosts_resolved: int = 0


@dataclass
class ControlExperimentResult:
    """Per-target classification of the hash-subdomain experiment.

    Mirrors the categories of Sec. 4.2: valid responses with error
    status (authoritative/closed), correct AAAA answers confirmed at our
    name server, referrals, proxy resolvers (answer correct but the
    query reached us from a different address), and broken responders.
    """

    valid_error: Set[int] = field(default_factory=set)
    correct_resolution: Set[int] = field(default_factory=set)
    referral: Set[int] = field(default_factory=set)
    proxy_mismatch: Set[int] = field(default_factory=set)
    broken: Set[int] = field(default_factory=set)
    silent: Set[int] = field(default_factory=set)

    @property
    def responded(self) -> int:
        """Number of targets that answered at all."""
        return (
            len(self.valid_error)
            + len(self.correct_resolution)
            + len(self.referral)
            + len(self.proxy_mismatch)
            + len(self.broken)
        )


class DnsScanner:
    """Resolver-side tooling for both scan roles."""

    def __init__(self, internet: SimInternet, seed: int = 0) -> None:
        self._internet = internet
        self._seed = seed

    # ------------------------------------------------------------------
    # zone-wide resolution (hitlist input source)

    def resolve_zone(self, zone: DnsZone, include_ns_mx: bool = True) -> ZoneResolutionResult:
        """Resolve every domain's AAAA (and optionally NS/MX) records."""
        result = ZoneResolutionResult()
        for domain in zone.domains():
            result.domains_resolved += 1
            result.aaaa_addresses.update(domain.addresses)
            if include_ns_mx:
                for hostname in domain.ns_hosts + domain.mx_hosts:
                    result.ns_mx_addresses.update(zone.resolve_aaaa(hostname))
        if include_ns_mx:
            for _hostname, addresses in zone.host_records():
                result.hosts_resolved += 1
                result.ns_mx_addresses.update(addresses)
        return result

    # ------------------------------------------------------------------
    # hash-subdomain control experiment

    def _hash_name(self, target: int) -> str:
        digest = hashlib.sha256(f"{target:032x}#{self._seed}".encode("ascii")).hexdigest()
        return f"{digest[:16]}.{self._internet.control_domain}"

    def control_experiment(
        self, targets: Iterable[int], day: int
    ) -> ControlExperimentResult:
        """Query each target for its unique control subdomain.

        Classification matches the paper: the name server log is joined
        against outgoing probes via the unique subdomain (never on the
        GFW's exact-name block list, so every response is the target's).
        """
        internet = self._internet
        result = ControlExperimentResult()
        log_start = len(internet.control_ns_log)
        queried: List[Tuple[int, str]] = []
        answers: Dict[int, Tuple] = {}
        for target in targets:
            qname = self._hash_name(target)
            queried.append((target, qname))
            responses = internet.dns_probe(target, qname, day)
            if responses:
                answers[target] = tuple(responses)

        seen_at_ns: Dict[str, Set[int]] = {}
        for entry in internet.control_ns_log[log_start:]:
            seen_at_ns.setdefault(entry.qname, set()).add(entry.source)

        for target, qname in queried:
            responses = answers.get(target)
            if not responses:
                result.silent.add(target)
                continue
            response = responses[0]
            if response.status in (DnsStatus.REFUSED, DnsStatus.NXDOMAIN):
                result.valid_error.add(target)
            elif response.status is DnsStatus.SERVFAIL:
                result.broken.add(target)
            elif any(answer.rtype is RecordType.NS for answer in response.answers):
                result.referral.add(target)
            elif response.answer_addresses == (internet.control_aaaa,):
                sources = seen_at_ns.get(qname, set())
                if target in sources:
                    result.correct_resolution.add(target)
                else:
                    result.proxy_mismatch.add(target)
            else:
                result.broken.add(target)
        return result
