"""Measurement tooling: scanners, traceroute, fingerprinting, TBT.

The counterparts of the paper's toolchain: ZMapv6 (five probe modules),
Yarrp traceroutes, the institutional DNS scans (including the unique-hash
subdomain control experiment of Sec. 4.2), TCP fingerprinting and the
Too Big Trick (Sec. 5.1), plus the request-based blocklist mandated by
the measurement ethics of Sec. 3.3.
"""

from repro.scan.blocklist import Blocklist
from repro.scan.engine import ScanEngine
from repro.scan.loss import LossModel
from repro.scan.scheduler import CarriedScan, IncrementalScheduler, ScanPlan
from repro.scan.zmap import ScanResult, Udp53Result, ZMapScanner
from repro.scan.yarrp import YarrpTracer
from repro.scan.dnsscan import DnsScanner, ControlExperimentResult
from repro.scan.tbt import TbtOutcome, TbtProber, TbtResult
from repro.scan.fingerprint import FingerprintClass, PrefixFingerprint, TcpFingerprinter

__all__ = [
    "Blocklist",
    "CarriedScan",
    "ControlExperimentResult",
    "DnsScanner",
    "FingerprintClass",
    "IncrementalScheduler",
    "LossModel",
    "PrefixFingerprint",
    "ScanEngine",
    "ScanPlan",
    "ScanResult",
    "TbtOutcome",
    "TbtProber",
    "TbtResult",
    "TcpFingerprinter",
    "Udp53Result",
    "YarrpTracer",
    "ZMapScanner",
]
