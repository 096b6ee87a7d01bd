"""Reconciliation-overhead ceiling for the vantage fleet (standalone).

Times repeated fused scan days over the default-scale pool through a
single-vantage :class:`VantageFleet` and through a three-member one
(default 1/16 witness overlap, majority quorum) — same coordinator
code path, so the ratio isolates exactly what multi-vantage adds:
witness-panel re-probing, quorum reconciliation and the merged-verdict
bookkeeping.  A warm-up scan day runs outside the timed window on both
sides (campaigns pay the rank/assignment memo fill once, not per day).
Each side is timed three times, interleaved in alternating order
(single/fleet, fleet/single, single/fleet) so host drift hits both
sides alike, and the gate reads the ratio of the two medians.  The
three-member output is asserted identical across its repeats, and both
median timings are recorded (merged into
``results/BENCH_vantage_fleet.json`` with ``vantages`` /
``overhead_vs_single`` fields, scenario ``default-predeploy``).

Runs without pytest so the CI perf-smoke job can enforce the ceiling::

    PYTHONPATH=src python benchmarks/bench_vantage_fleet.py \
        --vantages 3 \
        --check-baseline benchmarks/baselines/vantage_fleet.json

With ``--check-baseline`` the script exits non-zero when the fleet's
steady-state overhead over the single vantage exceeds the baseline's
``max_overhead`` ceiling.  The expected cost model is
``1 + (panel - 1) x overlap`` ~= 1.125x at three vantages: witness
panels re-probe only the deterministic overlap slice, so a fleet that
re-probes every target at every member (the naive N-x design this
guards against) blows straight through the 1.15x ceiling.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).parent))
from _perf import record_bench_time

from repro.hitlist import HitlistService
from repro.hitlist.service import ServiceSettings
from repro.simnet import build_internet, default_config
from repro.vantage import VantageFleet, default_vantage_specs

QNAME = "www.google.com"
#: pre-GFW-deploy days, matching bench_parallel_scan; day 0 is the
#: untimed warm-up that fills the shard-assignment memo on both sides
WARMUP_DAY = 0
SCAN_DAYS = (8, 16, 24)
CHUNK_SIZE = 4096
#: timed repeats per side; the gate compares medians
REPEATS = 3


def _targets():
    config = default_config()
    world = build_internet(config)
    settings = ServiceSettings(
        gfw_filter_deploy_day=config.gfw_filter_deploy_day,
        scan_chunk_size=CHUNK_SIZE,
    )
    service = HitlistService(world, config, settings=settings)
    service.bootstrap(WARMUP_DAY)
    return config, sorted(service._scan_pool)


def _measure(config, targets, vantages: int) -> tuple[float, dict]:
    world = build_internet(config)
    fleet = VantageFleet(
        world,
        default_vantage_specs(world, config.seed, vantages),
        seed=config.seed,
        chunk_size=CHUNK_SIZE,
    )
    try:
        fleet.warm(len(targets))
        fleet.scan(targets, WARMUP_DAY, QNAME)
        snapshots = {}
        start = time.perf_counter()
        for day in SCAN_DAYS:
            results, udp53, report = fleet.scan(targets, day, QNAME)
            snapshots[day] = (
                {p: frozenset(r.responders) for p, r in results.items()},
                frozenset(udp53.responders),
                report.to_json(),
            )
        return time.perf_counter() - start, snapshots
    finally:
        fleet.close()


def run_sweep(vantages: int) -> tuple[float, float]:
    """Median single-vantage and fleet wall times over interleaved repeats."""
    config, targets = _targets()
    walls: dict[int, list[float]] = {1: [], vantages: []}
    fleet_snapshots = []
    for repeat in range(REPEATS):
        order = (1, vantages) if repeat % 2 == 0 else (vantages, 1)
        for count in order:
            wall, snapshots = _measure(config, targets, count)
            walls[count].append(wall)
            if count == vantages:
                fleet_snapshots.append(snapshots)
    snapshots = fleet_snapshots[0]
    if any(rerun != snapshots for rerun in fleet_snapshots[1:]):
        raise AssertionError("fleet reconciliation is not deterministic")
    if not any(block[2]["witness_targets"] for block in snapshots.values()):
        raise AssertionError("fleet probed no witness targets")
    wall_single = statistics.median(walls[1])
    wall_fleet = statistics.median(walls[vantages])
    print(
        f"vantage_fleet[default]: {len(targets)} targets x {len(SCAN_DAYS)} "
        f"days x {REPEATS} repeats; median single={wall_single:.2f}s "
        f"fleet{vantages}={wall_fleet:.2f}s "
        f"overhead={wall_fleet / wall_single:.3f}x "
        f"(single {', '.join(f'{w:.2f}' for w in walls[1])}; "
        f"fleet {', '.join(f'{w:.2f}' for w in walls[vantages])})"
    )
    return wall_single, wall_fleet


def check_baseline(path: pathlib.Path, overhead: float, vantages: int) -> int:
    baseline = json.loads(path.read_text())
    ceiling = baseline["max_overhead"]
    if overhead > ceiling:
        print(
            f"FLEET REGRESSION: vantages={vantages} overhead {overhead:.3f}x "
            f"exceeds the {ceiling:.2f}x ceiling — the witness overlap is "
            f"likely re-probing far more than its configured slice",
            file=sys.stderr,
        )
        return 1
    print(f"fleet overhead OK: {overhead:.3f}x <= {ceiling:.2f}x ceiling")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--vantages", type=int, default=3)
    parser.add_argument(
        "--check-baseline", type=pathlib.Path, default=None,
        help="baseline JSON with a max_overhead ceiling; exit 1 when "
             "the ratio of the fleet and single-vantage median wall "
             "times exceeds it",
    )
    args = parser.parse_args(argv)
    wall_single, wall_fleet = run_sweep(args.vantages)
    overhead = wall_fleet / wall_single
    for count, wall in ((1, wall_single), (args.vantages, wall_fleet)):
        record_bench_time(
            "vantage_fleet", wall, scenario="default-predeploy",
            extra={
                "vantages": count,
                "overhead_vs_single": round(wall / wall_single, 3),
            },
        )
    if args.check_baseline is not None:
        return check_baseline(args.check_baseline, overhead, args.vantages)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
