"""Equivalence tests: the fused 4-protocol scan vs. individual scans.

Individual scans come from the scalar oracle of :mod:`tests.scan.oracle`;
its ``scan_all_protocols`` is the product's fused path, inherited.
"""

import pytest

from repro.protocols import Protocol
from repro.scan.zmap import ZMapScanner
from tests.scan.oracle import OracleScanner, response_mask


class TestScanAllProtocolsEquivalence:
    def test_lossless_equivalence(self, small_world):
        scanner = OracleScanner(small_world, loss_rate=0.0)
        targets = list(small_world.hosts)[:400]
        fused, _udp53 = scanner.scan_all_protocols(targets, 33, "www.google.com")
        for protocol in (Protocol.ICMP, Protocol.TCP80, Protocol.TCP443,
                         Protocol.UDP443):
            single = scanner.scan(targets, protocol, 33)
            assert fused[protocol].responders == single.responders, protocol
            assert fused[protocol].targets == single.targets

    def test_lossy_deterministic(self, small_world):
        scanner = ZMapScanner(small_world, loss_rate=0.10, seed=9)
        targets = list(small_world.hosts)[:400]
        a, _ = scanner.scan_all_protocols(targets, 33, "www.google.com")
        b, _ = scanner.scan_all_protocols(targets, 33, "www.google.com")
        for protocol in a:
            assert a[protocol].responders == b[protocol].responders

    def test_loss_independent_per_protocol(self, small_world):
        # a lost ICMP probe must not imply a lost TCP probe to the same
        # address: the four draws come from disjoint hash slices
        scanner = ZMapScanner(small_world, loss_rate=0.5, seed=2)
        targets = [
            address for address, record in small_world.hosts.items()
            if record.protocols & Protocol.ICMP
            and record.protocols & Protocol.TCP80
            and record.is_up(address, 33, small_world._seed)
        ][:200]
        if len(targets) < 40:
            pytest.skip("not enough dual-stack hosts")
        fused, _ = scanner.scan_all_protocols(targets, 33, "www.google.com")
        icmp = fused[Protocol.ICMP].responders
        tcp = fused[Protocol.TCP80].responders
        assert icmp != tcp  # perfectly correlated loss would make them equal
        assert icmp and tcp

    def test_response_mask_matches_responds(self, small_world):
        """The fused walk's masks agree with per-protocol ``responds``."""
        day = 60
        addresses = list(small_world.hosts)[:300]
        masks, _origins, _behaviors = small_world.probe_batch_arrays(addresses, day)
        for address, mask in zip(addresses, masks):
            assert mask == response_mask(small_world, address, day), address
            for protocol in (Protocol.ICMP, Protocol.TCP80, Protocol.TCP443,
                             Protocol.UDP443, Protocol.UDP53):
                assert bool(mask & protocol) == small_world.responds(
                    address, protocol, day
                ), (address, protocol)
