"""Scalar reference scanner: the differential oracle of the scan kernel.

The production probe path is one fused kernel (``repro.scan.engine``):
a column-oriented ground-truth walk per chunk, bulk SplitMix64 loss
draws, and packed results merged in chunk order.  This module keeps the
straightforward per-target, per-protocol scanner that kernel replaced,
so tests can check the kernel against code simple enough to read at a
glance:

* :meth:`OracleScanner.scan` — one protocol, one target at a time, one
  ``SimInternet.responds`` lookup per probe;
* :meth:`OracleScanner.scan_udp53` — UDP/53 through ``dns_probe``,
  GFW forgeries included;
* :meth:`OracleScanner.scan_suite` — the five-protocol suite the engine
  answers, target by target;
* :func:`response_mask` / :func:`batch_responsive` — per-address
  ground-truth helpers over :meth:`SimInternet.responds`.

The four fast protocols of the fused kernel draw loss from 16-bit slices
of one hash, so their per-target loss differs from :meth:`OracleScanner.
scan`; without loss the two agree exactly, and :meth:`OracleScanner.
scan_suite` spells out the sliced model one target at a time.  ICMP and
TCP/80 in APD's probe pass and UDP/53 in the fused kernel use the same
formula as :meth:`OracleScanner._lost`, so those agree under any loss.
:meth:`OracleScanner._lost` and :meth:`OracleScanner._fast_survived`
are the scalar spelling of :class:`repro.scan.loss.LossModel`, written
without it (``tests/scan/test_loss.py`` compares the two).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro._util import mix64
from repro.protocols import ALL_PROTOCOLS, DnsResponse, Protocol
from repro.runtime.faults import FaultPlan, RetryPolicy
from repro.scan.zmap import ScanResult, ZMapScanner
from repro.simnet.internet import SimInternet

_M64 = 0xFFFFFFFFFFFFFFFF
#: the loss model's constants, spelled out independently of
#: ``repro.scan.loss``: the per-attempt salt, and the fused kernel's
#: fast-protocol stream salt and slice order
_RETRY_SALT = 0x9E3779B97F4A7C15
_FAST_SALT = 0x5CA11
FAST_PROTOCOLS = (Protocol.ICMP, Protocol.TCP80, Protocol.TCP443, Protocol.UDP443)


@dataclass
class OracleUdp53Result:
    """A UDP/53 scan as response objects, straight from ``dns_probe``.

    ``tests.gfw.oracle.responses_of`` spells the engine's answer records
    the same way, so the two compare target by target.
    """

    day: int
    qname: str
    targets: int = 0
    responders: Set[int] = field(default_factory=set)
    responses: Dict[int, Tuple[DnsResponse, ...]] = field(default_factory=dict)


def response_mask(internet: SimInternet, address: int, day: int) -> int:
    """Responsive-protocol bitmask from one ``responds`` call per protocol."""
    mask = 0
    for protocol in ALL_PROTOCOLS:
        if internet.responds(address, protocol, day):
            mask |= protocol
    return mask


def batch_responsive(
    internet: SimInternet, addresses: Iterable[int], protocol: Protocol, day: int
) -> Set[int]:
    """The subset of ``addresses`` that answers ``protocol`` probes."""
    return {
        address for address in addresses
        if internet.responds(address, protocol, day)
    }


class OracleScanner(ZMapScanner):
    """A :class:`ZMapScanner` that can also probe one protocol at a time.

    It keeps its own copy of the loss parameters and never calls the
    scanner's loss model, so the two stay independent spellings.
    """

    def __init__(
        self,
        internet: SimInternet,
        loss_rate: float = 0.03,
        seed: int = 0,
        fault_plan: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        **kwargs,
    ) -> None:
        super().__init__(
            internet, loss_rate=loss_rate, seed=seed, fault_plan=fault_plan,
            retry=retry, **kwargs
        )
        self._fault_plan = fault_plan
        self._seed = seed
        self._loss_rate = loss_rate
        self._loss_threshold = int(loss_rate * float(1 << 64))
        self._retry_attempts = 1 if retry is None else retry.attempts
        self._retry_draws = 0

    def _lost(self, address: int, protocol: Protocol, day: int) -> bool:
        """I.i.d. loss only; callers check correlated bursts themselves
        (a retransmission inside a burst dies the same way, so bursts
        are not retryable and are counted separately)."""
        if self._loss_threshold == 0:
            return False
        base = (address & _M64) ^ (address >> 64)
        for attempt in range(self._retry_attempts):
            draw = mix64(
                base
                ^ mix64(
                    (day << 8)
                    ^ int(protocol)
                    ^ self._seed
                    ^ ((attempt * _RETRY_SALT) & _M64)
                )
            )
            if draw >= self._loss_threshold:
                self._retry_draws += attempt
                return False
        self._retry_draws += self._retry_attempts - 1
        return True

    def _fast_survived(self, address: int, day: int) -> int:
        """Which fast probes survive loss, one bit per :data:`FAST_PROTOCOLS`.

        The four fast protocols share one 64-bit loss hash per attempt,
        one 16-bit slice per protocol (``>= loss_rate * 65536``
        survives).  The target is re-drawn until every slice has
        survived once, and its retry count is the attempt that completed
        the set (``attempts - 1`` if none did).
        """
        threshold16 = int(self._loss_rate * 65536.0)
        base = (address & _M64) ^ (address >> 64)
        survived = 0
        for attempt in range(self._retry_attempts):
            draw = mix64(
                base
                ^ mix64(
                    (day << 8) ^ self._seed ^ _FAST_SALT
                    ^ ((attempt * _RETRY_SALT) & _M64)
                )
            )
            for index in range(4):
                if (draw >> (16 * index)) & 0xFFFF >= threshold16:
                    survived |= 1 << index
            if survived == 0b1111:
                self._retry_draws += attempt
                return survived
        self._retry_draws += self._retry_attempts - 1
        return survived

    def _suppressed(
        self, probed: List[int], protocol: Protocol, day: int
    ) -> FrozenSet[int]:
        """Responders dropped by per-AS rate limiting this scan."""
        plan = self._fault_plan
        if plan is None:
            return frozenset()
        internet = self._internet
        return plan.suppressed_responders(
            probed, protocol, day, lambda address: internet.origin_as(address, day)
        )

    def _flush_scan_metrics(
        self, protocol: Protocol, probed: int, hits: int,
        burst_suppressed: int, rate_limited: int,
    ) -> None:
        """Record one finished single-protocol scan into the registry."""
        retry_draws, self._retry_draws = self._retry_draws, 0
        if self._metrics is None:
            return
        self._m_probes.labels(protocol=protocol.label).inc(probed)
        self._m_hits.labels(protocol=protocol.label).inc(hits)
        if retry_draws:
            self._m_retries.inc(retry_draws)
        if burst_suppressed:
            self._m_burst.inc(burst_suppressed)
        if rate_limited:
            self._m_rate_limited.labels(protocol=protocol.label).inc(rate_limited)

    def scan(
        self, targets: Iterable[int], protocol: Protocol, day: int
    ) -> ScanResult:
        """Probe every non-blocked target once with one protocol."""
        plan = self._fault_plan
        limited = plan is not None and plan.limits_protocol(protocol)
        probed: List[int] = []
        responders = set()
        count = 0
        burst_suppressed = 0
        rate_limited = 0
        internet = self._internet
        blocklist = self._blocklist
        for target in targets:
            if blocklist.is_blocked(target):
                continue
            count += 1
            if limited:
                probed.append(target)
            if plan is not None and plan.burst_lost(target, day):
                burst_suppressed += 1
                continue
            if self._lost(target, protocol, day):
                continue
            if internet.responds(target, protocol, day):
                responders.add(target)
        if limited:
            suppressed = self._suppressed(probed, protocol, day)
            rate_limited = len(responders & suppressed)
            responders -= suppressed
        self.probes_sent += count
        self._flush_scan_metrics(
            protocol, count, len(responders), burst_suppressed, rate_limited
        )
        return ScanResult(
            protocol=protocol, day=day, targets=count, responders=frozenset(responders)
        )

    def scan_udp53(
        self, targets: Iterable[int], day: int, qname: str
    ) -> OracleUdp53Result:
        """Probe UDP/53 with an A/AAAA query for ``qname``.

        Responses include GFW forgeries; ZMap's success criterion is
        "any DNS packet came back from the probed address".
        """
        result = OracleUdp53Result(day=day, qname=qname)
        plan = self._fault_plan
        limited = plan is not None and plan.limits_protocol(Protocol.UDP53)
        probed: List[int] = []
        burst_suppressed = 0
        rate_limited = 0
        internet = self._internet
        blocklist = self._blocklist
        for target in targets:
            if blocklist.is_blocked(target):
                continue
            result.targets += 1
            if limited:
                probed.append(target)
            if plan is not None and plan.burst_lost(target, day):
                burst_suppressed += 1
                continue
            if self._lost(target, Protocol.UDP53, day):
                continue
            responses = internet.dns_probe(target, qname, day)
            if responses:
                result.responders.add(target)
                result.responses[target] = tuple(responses)
        if limited:
            for address in self._suppressed(probed, Protocol.UDP53, day):
                if address in result.responders:
                    rate_limited += 1
                result.responders.discard(address)
                result.responses.pop(address, None)
        self.probes_sent += result.targets
        self._flush_scan_metrics(
            Protocol.UDP53, result.targets, len(result.responders),
            burst_suppressed, rate_limited,
        )
        return result

    def scan_suite(
        self, targets: Iterable[int], day: int, qname: str
    ) -> Tuple[Dict[Protocol, ScanResult], OracleUdp53Result]:
        """What ``scan_all_protocols`` returns, computed target by target.

        Fast-protocol loss of a responsive target is
        :meth:`_fast_survived`; UDP/53 is :meth:`scan_udp53`.
        """
        targets = list(targets)
        plan = self._fault_plan
        internet = self._internet
        hits: Dict[Protocol, Set[int]] = {p: set() for p in FAST_PROTOCOLS}
        probed: List[int] = []
        burst_suppressed = 0
        for target in targets:
            if self._blocklist.is_blocked(target):
                continue
            probed.append(target)
            if plan is not None and plan.burst_lost(target, day):
                burst_suppressed += 1
                continue
            if not response_mask(internet, target, day):
                continue
            survived = self._fast_survived(target, day)
            for index, protocol in enumerate(FAST_PROTOCOLS):
                if survived >> index & 1 and internet.responds(target, protocol, day):
                    hits[protocol].add(target)
        count = len(probed)
        results = {}
        for protocol in FAST_PROTOCOLS:
            responders = hits[protocol]
            rate_limited = 0
            if plan is not None and plan.limits_protocol(protocol):
                suppressed = self._suppressed(probed, protocol, day)
                rate_limited = len(responders & suppressed)
                responders -= suppressed
            self.probes_sent += count
            self._flush_scan_metrics(
                protocol, count, len(responders), burst_suppressed, rate_limited
            )
            results[protocol] = ScanResult(
                protocol=protocol, day=day, targets=count,
                responders=frozenset(responders),
            )
        return results, self.scan_udp53(targets, day, qname)
