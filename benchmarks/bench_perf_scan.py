"""Scan-engine micro-benchmark: fused-pass worker sweep.

Times one full five-protocol scan day over the default-scale target pool
with the fused engine at 1, 2 and 4 warm workers and asserts every
worker count produces bit-identical responder sets.

The sweep is merged into ``results/BENCH_perf_scan_workers.json``, one
sample per worker count with ``scan_workers`` and ``speedup_vs_w1``
fields so the scaling trajectory stays reviewable in one file.

The deltas here isolate the probe stage from the rest of the service
loop; ``bench_service_runtime.py`` measures the end-to-end effect,
``bench_parallel_scan.py`` enforces the CI parallel-efficiency floor and
``bench_incremental_scan.py`` gates the incremental scheduler's
divergence and probe-reduction floors.
"""

import time

from _perf import record_bench_time

from repro.hitlist import HitlistService
from repro.hitlist.service import ServiceSettings
from repro.protocols import Protocol
from repro.scan import ScanEngine

SCAN_DAY = 0
QNAME = "www.google.com"
FAST = (Protocol.ICMP, Protocol.TCP80, Protocol.TCP443, Protocol.UDP443)
WORKER_SWEEP = (1, 2, 4)


def _snapshot(results, udp53):
    fast = {p.label: frozenset(results[p].responders) for p in FAST}
    fast["udp53"] = frozenset(udp53.responders)
    return fast


def test_perf_scan_worker_sweep(world, config, emit):
    settings = ServiceSettings(gfw_filter_deploy_day=config.gfw_filter_deploy_day)
    service = HitlistService(world, config, settings=settings)
    service.bootstrap(SCAN_DAY)
    targets = list(service._scan_pool)
    scanner = service.fleet.scanners[0]

    sweep = {}
    reference = None
    for workers in WORKER_SWEEP:
        engine = ScanEngine(scanner, workers=workers, chunk_size=1024)
        try:
            # the pool is forked before timing starts, as in the service
            engine.warm(len(targets))
            start = time.perf_counter()
            fused = engine.scan_all_protocols(targets, SCAN_DAY, QNAME)
            sweep[workers] = time.perf_counter() - start
        finally:
            engine.close()
        snapshot = _snapshot(*fused)
        if reference is None:
            reference = snapshot
        else:
            assert snapshot == reference, (
                f"fused scan at {workers} workers diverged from single-worker"
            )

    for workers, seconds in sweep.items():
        record_bench_time(
            "perf_scan_workers", seconds, scenario="default",
            extra={
                "scan_workers": workers,
                "speedup_vs_w1": round(sweep[1] / seconds, 3),
            },
        )

    lines = [f"one scan day, {len(targets)} targets, 5 protocols"]
    lines += [
        f"  {f'fused-w{workers}':<10} {seconds * 1000:8.1f} ms "
        f"({sweep[1] / seconds:.2f}x vs w1)"
        for workers, seconds in sweep.items()
    ]
    lines.append("all worker counts bit-identical responder sets: yes")
    emit("perf_scan", "\n".join(lines))
