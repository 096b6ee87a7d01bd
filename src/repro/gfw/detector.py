"""Classify DNS answers as GFW-injected.

The detector only uses observable evidence (the paper's Sec. 4.2):

* the scan asks for a AAAA record, but the response carries an **A
  record** — genuine resolvers do not answer a AAAA query with A data;
* the response's AAAA answer is a **Teredo** address (deprecated
  tunnelling scheme, RFC 4380) embedding an IPv4 that public WHOIS data
  maps to an operator unrelated to the queried domain;
* **multiple responses** arrive for a single query (several injectors on
  the path answer independently).

:func:`answer_evidence` reads one answer at a time, as integers;
:class:`repro.gfw.filter.GfwFilter` applies it to a scan's answer
records and never learns which answers are forged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional, Tuple

from repro.net.teredo import is_teredo
from repro.protocols import RecordType


class InjectionEvidence(enum.Enum):
    """Why a response looks forged."""

    A_FOR_AAAA = "a_for_aaaa"
    TEREDO_ANSWER = "teredo_answer"
    MULTIPLE_RESPONSES = "multiple_responses"
    UNRELATED_OWNER = "unrelated_owner"


@dataclass(frozen=True)
class Ipv4Whois:
    """Public IPv4 allocation data: range -> owner ASN.

    Mirrors what the paper gets from WHOIS/routing data when checking
    that injected answers belong to Facebook/Microsoft/Dropbox rather
    than Google.  Entries are ``(base, prefix_len, owner_asn)``.
    """

    ranges: Tuple[Tuple[int, int, int], ...]

    def owner_of(self, ipv4: int) -> Optional[int]:
        """The ASN whose allocation contains ``ipv4``, if known."""
        for base, length, owner in self.ranges:
            if base <= ipv4 < base + (1 << (32 - length)):
                return owner
        return None


#: WHOIS view of the ranges observed in forged answers during the study
#: (public data; equals the injector pool because both model reality).
DEFAULT_WHOIS = Ipv4Whois(
    ranges=(
        (0x1F0D5800, 21, 32934),  # Facebook
        (0x0D6B4000, 18, 8075),  # Microsoft
        (0xA27D0000, 16, 19679),  # Dropbox
    )
)


def answer_evidence(
    rtype: RecordType, address: int
) -> Optional[Tuple[InjectionEvidence, int]]:
    """Forgery evidence one answer to a AAAA query carries, and the IPv4
    it names (an A record's own, or a Teredo address's client)."""
    if rtype is RecordType.A:
        return InjectionEvidence.A_FOR_AAAA, address
    if rtype is RecordType.AAAA and is_teredo(address):
        # decode_teredo(...).client_ipv4 without building the
        # TeredoAddress (RFC 4380 ones-complement client bits)
        return InjectionEvidence.TEREDO_ANSWER, (address & 0xFFFFFFFF) ^ 0xFFFFFFFF
    return None
