"""Differential tests: the fused probe kernel against the scalar oracle.

``ScanEngine.scan_all_protocols`` and APD's ``_batch_bitmaps`` are the
only probe paths in ``repro``; :mod:`tests.scan.oracle` keeps the
per-target scanner they replaced.  Under loss, retries, a loss burst, a
per-AS rate limit and a blocklist, for several worker counts and chunk
sizes, both must agree on every responder, every UDP/53 response, the
probe total and every probe counter.
"""

from collections import Counter

import pytest

from repro.hitlist.apd import _PROBE_COUNT, AliasedPrefixDetection
from repro.net.prefix import IPv6Prefix
from repro.net.random_addr import spread_addresses
from repro.obs.metrics import MetricsRegistry
from repro.protocols import Protocol
from repro.runtime.faults import FaultPlan, LossBurst, RateLimit, RetryPolicy
from repro.scan.blocklist import Blocklist
from repro.scan.engine import ScanEngine
from repro.scan.zmap import ZMapScanner
from tests.scan.oracle import OracleScanner

#: inside the first GFW injection era, so forged answers are compared
DAY = 130
QNAME = "www.google.com"
COUNTERS = (
    "repro_probes_sent_total",
    "repro_probe_hits_total",
    "repro_probe_retries_total",
    "repro_burst_suppressed_total",
    "repro_rate_limited_total",
)


def _series(registry, name):
    family = registry.get(name)
    if family is None:
        return {}
    return {labels: series.value for labels, series in family.series_items()}


@pytest.fixture(scope="module")
def targets(small_world):
    """Seed input plus hosts: responsive, dead, region and DNS targets."""
    seed = sorted(small_world.ground_truth.get("initial_input"))[:2500]
    hosts = sorted(small_world.hosts)[:1500]
    return sorted(set(seed) | set(hosts))


@pytest.fixture(scope="module")
def faults(small_world, targets):
    """A plan with a burst and a rate limit that both bite, plus a blocklist."""
    origins = Counter(small_world.origin_as(t, DAY) for t in targets)
    busiest, count = max(
        (item for item in origins.items() if item[0] is not None),
        key=lambda item: (item[1], item[0]),
    )
    plan = FaultPlan(
        seed=11,
        rate_limits=(RateLimit(asn=busiest, budget=count // 3, protocols=0b11111),),
        bursts=(LossBurst(DAY - 2, DAY + 2, 0.2),),
    )
    blocklist = Blocklist()
    for target in targets[::97]:
        blocklist.add(IPv6Prefix((target >> 64) << 64, 64))
    return plan, blocklist


def _scanner(cls, world, faults, registry, loss_rate=0.1):
    plan, blocklist = faults
    return cls(
        world, blocklist=blocklist, loss_rate=loss_rate, seed=5,
        fault_plan=plan, retry=RetryPolicy(attempts=3), metrics=registry,
    )


@pytest.fixture(scope="module")
def oracle_scan(small_world, targets, faults):
    registry = MetricsRegistry()
    oracle = _scanner(OracleScanner, small_world, faults, registry)
    log = small_world.control_ns_log
    mark = len(log)
    results, udp53 = oracle.scan_suite(targets, DAY, QNAME)
    control = log[mark:]
    del log[mark:]
    return results, udp53, oracle.probes_sent, registry, control


@pytest.mark.parametrize("workers", (1, 2))
@pytest.mark.parametrize("chunk_size", (300, 4096))
def test_engine_matches_scalar_oracle(
    small_world, targets, faults, oracle_scan, workers, chunk_size
):
    want, want_udp, want_probes, want_registry, want_control = oracle_scan
    registry = MetricsRegistry()
    scanner = _scanner(ZMapScanner, small_world, faults, registry)
    engine = ScanEngine(scanner, workers=workers, chunk_size=chunk_size)
    log = small_world.control_ns_log
    mark = len(log)
    try:
        got, got_udp = engine.scan_all_protocols(targets, DAY, QNAME)
    finally:
        engine.close()
    control = log[mark:]
    del log[mark:]

    for protocol, result in want.items():
        assert got[protocol].responders == result.responders, protocol
        assert got[protocol].targets == result.targets
    assert got_udp.responders == want_udp.responders
    assert got_udp.responses == want_udp.responses
    assert got_udp.targets == want_udp.targets
    assert control == want_control
    assert scanner.probes_sent == want_probes
    for name in COUNTERS:
        assert _series(registry, name) == _series(want_registry, name), name


def test_fault_plan_bites(oracle_scan):
    """Guard the fixture: loss, retries, burst and rate limit all fired."""
    results, udp53, _probes, registry, _control = oracle_scan
    for name in COUNTERS:
        assert registry.counter_total(name) > 0, name
    assert any(r.responders for r in results.values())
    assert any(
        any(response.injected for response in responses)
        for responses in udp53.responses.values()
    )


@pytest.mark.parametrize("loss_rate", (0.0, 0.25))
def test_apd_bitmaps_match_two_oracle_scans(small_world, faults, loss_rate):
    """Each APD bitmap is the ICMP-or-TCP/80 union of two scalar scans."""
    rib = small_world.routing.snapshot_at(DAY)
    prefixes = sorted(prefix for prefix, _asn in rib.prefixes())[:150]
    prefixes += [IPv6Prefix(t.value, 126) for t in prefixes[:5]]
    registry = MetricsRegistry()
    scanner = _scanner(ZMapScanner, small_world, faults, registry, loss_rate)
    bitmaps = AliasedPrefixDetection(scanner)._batch_bitmaps(prefixes, DAY)

    oracle_registry = MetricsRegistry()
    oracle = _scanner(
        OracleScanner, small_world, faults, oracle_registry, loss_rate
    )
    for prefix, bitmap in zip(prefixes, bitmaps):
        probes = spread_addresses(prefix, _PROBE_COUNT, nonce=DAY << 4)
        icmp = oracle.scan(probes, Protocol.ICMP, DAY).responders
        tcp = oracle.scan(probes, Protocol.TCP80, DAY).responders
        want = 0
        for index, address in enumerate(probes):
            if address in icmp or address in tcp:
                want |= 1 << index
        want |= ((1 << _PROBE_COUNT) - 1) ^ ((1 << len(probes)) - 1)
        assert bitmap == want, prefix
    assert scanner.probes_sent == oracle.probes_sent
    for name in COUNTERS:
        assert _series(registry, name) == _series(oracle_registry, name), name
    assert any(bitmaps) and not all(
        bitmap == (1 << _PROBE_COUNT) - 1 for bitmap in bitmaps
    )
