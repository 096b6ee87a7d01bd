"""A ZMapv6-like scanner over the simulated internet.

One probe module per hitlist protocol (ICMP echo, TCP SYN 80/443, UDP
DNS 53, QUIC initial 443).  The scanner adds the real-world artefact the
oracle does not model: per-probe packet loss (:mod:`repro.scan.loss`),
deterministic per (address, protocol, day) so re-running a scan
reproduces it while
*different* scans lose different probes — exactly the noise the APD's
merge-with-previous-scans logic exists to absorb.

Like the real ZMap, the UDP/53 module counts **any** DNS response from
the target's address as success — which is precisely how GFW-injected
forgeries poison the hitlist (Sec. 4.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Set, Tuple

from repro.obs.metrics import MetricsRegistry
from repro.protocols import DnsAnswer, DnsStatus, Protocol, RecordType
from repro.runtime.faults import FaultPlan, RetryPolicy
from repro.scan import wire
from repro.scan.blocklist import Blocklist
from repro.scan.loss import LossModel
from repro.simnet.internet import SimInternet


@dataclass(frozen=True)
class ScanResult:
    """Outcome of one single-protocol scan."""

    protocol: Protocol
    day: int
    targets: int
    responders: frozenset

    @property
    def hit_rate(self) -> float:
        """Responders per probed target."""
        return len(self.responders) / self.targets if self.targets else 0.0


#: one responder's UDP/53 answers: its genuine-variant code (a
#: ``wire.GENUINE_*``, 0 for none) and the payload ints of the extra
#: single-answer NOERROR responses that arrived before it
AnswerRecord = Tuple[int, Tuple[int, ...]]

_REFERRAL = (DnsAnswer(rtype=RecordType.NS, target="a.root-servers.net"),)
_LOCALHOST = (DnsAnswer(rtype=RecordType.AAAA, address=1),)


def variant_answers(resolved: Tuple[int, ...]) -> Dict[int, tuple]:
    """``(status, answers)`` per genuine variant, for a query resolving to
    ``resolved`` (the scan-side spelling of ``SimInternet._answer_as``)."""
    return {
        wire.GENUINE_REFUSED: (DnsStatus.REFUSED, ()),
        wire.GENUINE_REFERRAL: (DnsStatus.NOERROR, _REFERRAL),
        wire.GENUINE_SERVFAIL: (DnsStatus.SERVFAIL, ()),
        wire.GENUINE_BROKEN_ANSWER: (DnsStatus.NOERROR, _LOCALHOST),
        wire.GENUINE_NXDOMAIN: (DnsStatus.NXDOMAIN, ()),
        wire.GENUINE_NOERROR: (DnsStatus.NOERROR, tuple(
            DnsAnswer(rtype=RecordType.AAAA, address=address)
            for address in resolved
        )),
    }


@dataclass
class Udp53Result:
    """Outcome of a UDP/53 scan, as integer answer records.

    ``responders`` contains every target ZMap would report as successful;
    ``records`` maps each responder to its :data:`AnswerRecord` (several
    responses per target when injectors fire).  ``variants`` and
    ``extra_rtype`` are per scan: what each genuine variant answers
    with, and the record type of every extra answer.
    """

    day: int
    qname: str
    targets: int = 0
    responders: Set[int] = field(default_factory=set)
    records: Dict[int, AnswerRecord] = field(default_factory=dict)
    variants: Dict[int, tuple] = field(default_factory=dict)
    extra_rtype: RecordType = RecordType.A

    @property
    def hit_rate(self) -> float:
        """Responders per probed target (parity with :class:`ScanResult`)."""
        return len(self.responders) / self.targets if self.targets else 0.0


class ZMapScanner:
    """One vantage's probe configuration: loss, retry, faults, metrics.

    The probing itself is the fused kernel of :mod:`repro.scan.engine`
    (:func:`~repro.scan.engine.apd_probe_pass` for APD's ICMP + TCP/80
    probes); the scanner carries what that kernel reads — its
    :class:`~repro.scan.loss.LossModel`, blocklist, fault plan and
    metric families — and the probe total a checkpoint records.
    """

    def __init__(
        self,
        internet: SimInternet,
        blocklist: Optional[Blocklist] = None,
        loss_rate: float = 0.03,
        seed: int = 0,
        fault_plan: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        self._internet = internet
        self._blocklist = blocklist or Blocklist()
        #: the probe-loss draw every probe of this vantage takes
        self.loss = LossModel(
            seed=seed, loss_rate=loss_rate,
            attempts=1 if retry is None else retry.attempts,
            fault_plan=fault_plan,
        )
        self.probes_sent = 0
        self._metrics = metrics
        #: lazily created serial engine backing :meth:`scan_all_protocols`
        self._engine = None
        if metrics is not None:
            self._m_probes = metrics.counter(
                "repro_probes_sent_total", "Probes sent, by protocol.",
                ("protocol",))
            self._m_hits = metrics.counter(
                "repro_probe_hits_total", "Probes answered, by protocol.",
                ("protocol",))
            self._m_retries = metrics.counter(
                "repro_probe_retries_total",
                "Extra per-probe loss re-draws taken by the retry policy.")
            self._m_burst = metrics.counter(
                "repro_burst_suppressed_total",
                "Probes swallowed by correlated loss bursts.")
            self._m_rate_limited = metrics.counter(
                "repro_rate_limited_total",
                "Responders dropped by per-AS rate limiting, by protocol.",
                ("protocol",))

    @property
    def blocklist(self) -> Blocklist:
        """The blocklist honoured by every probe."""
        return self._blocklist

    def scan_all_protocols(
        self, targets: Iterable[int], day: int, qname: str
    ) -> Tuple[Dict[Protocol, ScanResult], Udp53Result]:
        """Run the full hitlist protocol suite against one target set.

        One fused ground-truth pass per target (see
        :mod:`repro.scan.engine`).  Loss stays independent per (target,
        protocol, day): the four fast probes draw from disjoint 16-bit
        slices of one 64-bit hash, UDP/53 from its own stream.
        """
        engine = self._engine
        if engine is None:
            from repro.scan.engine import ScanEngine

            engine = self._engine = ScanEngine(self)
        return engine.scan_all_protocols(targets, day, qname)
