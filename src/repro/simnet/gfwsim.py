"""The Great Firewall's DNS injection behaviour.

Sec. 4.2 of the paper: probes for blocked domains that cross into Chinese
networks are answered by injectors at the border even when the probed
address is dead.  Observable properties reproduced here:

* injection only for *blocked* domains; unblocked domains get silence,
  not even a DNS error;
* two to three responses per query (multiple injectors), with rare
  pathological bursts (the paper saw up to 440);
* earlier eras answered AAAA queries with **A records** carrying IPv4
  addresses of unrelated operators (Facebook, Microsoft, Dropbox);
* the most recent era answers with valid-looking **AAAA records whose
  address is a Teredo address** embedding such an IPv4;
* the spoofed response's source address equals the probed target, which
  is why ZMap counts the target as responsive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import enum

from repro._util import mix64
from repro.asn.topology import GfwBoundary
from repro.net.teredo import encode_teredo
from repro.protocols import DnsAnswer, DnsResponse, DnsStatus, RecordType


class InjectionMode(enum.Enum):
    """What the injectors put into forged responses."""

    A_RECORD = "a_record"  # IPv4 answer to an AAAA query
    TEREDO = "teredo"  # AAAA answer carrying a Teredo address


@dataclass(frozen=True)
class GfwEra:
    """One behavioural era of the firewall: ``[start_day, end_day)``."""

    start_day: int
    end_day: int
    mode: InjectionMode

    def active(self, day: int) -> bool:
        """True while this era's injectors are running."""
        return self.start_day <= day < self.end_day


@dataclass(frozen=True)
class InjectedIpv4Pool:
    """IPv4 ranges whose addresses appear in forged answers.

    Each entry is ``(base, prefix_len, owner_asn)``; owners are operators
    unrelated to the queried domain, which is how the paper (and related
    censorship work) recognizes forgeries.
    """

    ranges: Tuple[Tuple[int, int, int], ...]

    def pick(self, draw: int) -> Tuple[int, int]:
        """A deterministic (ipv4, owner_asn) choice for a 64-bit draw."""
        base, length, owner = self.ranges[draw % len(self.ranges)]
        host_bits = 32 - length
        host = (draw >> 8) & ((1 << host_bits) - 1)
        return base | host, owner

    def owner_of(self, ipv4: int) -> Optional[int]:
        """The owner ASN whose range contains ``ipv4``, if any."""
        for base, length, owner in self.ranges:
            span = 1 << (32 - length)
            if base <= ipv4 < base + span:
                return owner
        return None


#: Default forged-answer pool: Facebook, Microsoft, Dropbox ranges.
DEFAULT_IPV4_POOL = InjectedIpv4Pool(
    ranges=(
        (0x1F0D5800, 21, 32934),  # 31.13.88.0/21   Facebook
        (0x0D6B4000, 18, 8075),  # 13.107.64.0/18   Microsoft
        (0xA27D0000, 16, 19679),  # 162.125.0.0/16  Dropbox
    )
)

#: Teredo servers named in forged AAAA answers (arbitrary but stable).
_TEREDO_SERVERS = (0x41EA9E00, 0x53EF3C01)


class GreatFirewall:
    """Deterministic injector bank guarding the Chinese border."""

    def __init__(
        self,
        boundary: GfwBoundary,
        eras: Sequence[GfwEra],
        blocked_domains: Sequence[str],
        ipv4_pool: InjectedIpv4Pool = DEFAULT_IPV4_POOL,
        seed: int = 0,
        burst_probability: float = 0.002,
    ) -> None:
        self._boundary = boundary
        self._eras = tuple(sorted(eras, key=lambda era: era.start_day))
        self._blocked = frozenset(domain.lower() for domain in blocked_domains)
        self._pool = ipv4_pool
        self._seed = seed
        self._burst_probability = burst_probability

    def with_boundary(self, boundary: GfwBoundary) -> "GreatFirewall":
        """A copy of this firewall as seen from a different vantage.

        Injection behaviour is path-dependent: swapping the boundary
        (e.g. ``vantage_inside=True`` for a Chinese vantage point) flips
        which destinations cross the firewall while keeping eras,
        blocked domains, the forged-answer pool and all injection draws
        identical — the same censorship infrastructure, another path.
        """
        return GreatFirewall(
            boundary=boundary,
            eras=self._eras,
            blocked_domains=self._blocked,
            ipv4_pool=self._pool,
            seed=self._seed,
            burst_probability=self._burst_probability,
        )

    @property
    def boundary(self) -> GfwBoundary:
        """The path boundary this firewall instance injects across."""
        return self._boundary

    @property
    def eras(self) -> Tuple[GfwEra, ...]:
        """All configured eras, sorted by start day."""
        return self._eras

    @property
    def ipv4_pool(self) -> InjectedIpv4Pool:
        """The forged-answer IPv4 pool."""
        return self._pool

    def is_blocked(self, qname: str) -> bool:
        """True when the firewall censors ``qname``."""
        return qname.lower() in self._blocked

    def active_era(self, day: int) -> Optional[GfwEra]:
        """The era running on ``day``, if any."""
        for era in self._eras:
            if era.active(day):
                return era
        return None

    def would_inject(self, target_asn: Optional[int], qname: str, day: int) -> bool:
        """True when a UDP/53 probe would trigger injection."""
        return (
            self.active_era(day) is not None
            and self.is_blocked(qname)
            and self._boundary.crosses(target_asn)
        )

    def inject(
        self, target: int, target_asn: Optional[int], qname: str, day: int
    ) -> List[DnsResponse]:
        """Forged responses for one probe; empty when no injection occurs.

        The scan engine draws the same sequence for whole chunks at once
        (see :mod:`repro.scan.engine`).
        """
        era = self.active_era(day)
        if era is None or not self.is_blocked(qname) or not self._boundary.crosses(target_asn):
            return []
        base_draw = mix64(
            (target & 0xFFFFFFFFFFFFFFFF) ^ (target >> 64) ^ mix64(day ^ self._seed)
        )
        count = 2 + base_draw % 2  # two or three injectors answer
        if (base_draw >> 32) % 1_000_000 < self._burst_probability * 1_000_000:
            count = 64 + base_draw % 400  # rare pathological bursts
        pick = self._pool.pick
        a_record = era.mode is InjectionMode.A_RECORD
        responses = []
        for index in range(count):
            draw = mix64(base_draw ^ (index + 1))
            ipv4, _owner = pick(draw)
            if a_record:
                answer = DnsAnswer(rtype=RecordType.A, address=ipv4)
            else:
                server = _TEREDO_SERVERS[draw % 2]
                port = 1024 + (draw >> 16) % 60000
                answer = DnsAnswer(
                    rtype=RecordType.AAAA,
                    address=encode_teredo(server, ipv4, port),
                )
            responses.append(
                DnsResponse(
                    responder=target,
                    qname=qname,
                    status=DnsStatus.NOERROR,
                    answers=(answer,),
                    injected=True,
                )
            )
        return responses
