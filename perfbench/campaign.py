"""One campaign repetition, run in a fresh process by ``run.py``.

Builds the world and the service several times (set-up), runs the
campaign over the first GFW injection era, writes the run outputs
(report, figures, validation, ``summary.json``), times the set-up
again several times, and records timings,
registry counters and — with ``--traced 1`` — the merged span tree::

    python3 perfbench/campaign.py --workload campaign-full --seed 7 \
        --traced 0 --scale full --workdir .perfbench/work/x --out rep.json
"""

from __future__ import annotations

import argparse
import gc
import pathlib
import sys
import time

import common
import spans as spanlib

#: Set-ups timed before and again after the campaign, per repetition;
#: the result reports the median of all.  The host's speed drifts over
#: seconds, so two batches half a minute apart sample it twice.
SETUPS = 5

#: Campaign windows: the first GFW injection era (2018-11-01 to
#: 2019-02-01 = days 123-215) at full scale, its first 10 days as a toy.
WINDOWS = {"full": (123, 215), "toy": (123, 132)}
#: Mid-campaign outage of fleet member vp1 (inclusive days), per scale.
OUTAGES = {"full": (165, 175), "toy": (127, 129)}
#: Checkpoint cadence (scans) of the incremental workload, per scale.
CHECKPOINT_EVERY = {"full": 4, "toy": 2}

COUNTERS = {
    "apd_tested": "repro_apd_prefixes_tested_total",
    "probes": "repro_probes_sent_total",
    "hits": "repro_probe_hits_total",
    "ipc_bytes": "repro_engine_ipc_bytes_total",
    "gfw_injected": "repro_gfw_injected_detected_total",
    "sched_full": "repro_sched_full_targets_total",
    "sched_sampled": "repro_sched_sampled_targets_total",
    "sched_carried": "repro_sched_carried_targets_total",
    "resharded": "repro_vantage_resharded_total",
    "trace_hops": "repro_trace_hops_total",
    "store_bytes": "repro_publish_stored_bytes_total",
}


def workload_settings(workload: str, scale: str, config):
    """``(settings, fault_plan, run kwargs)`` of a campaign workload."""
    from repro.hitlist.service import ServiceSettings
    from repro.runtime.faults import FaultPlan, VantageOutage

    if workload == "campaign-full":
        settings = ServiceSettings(
            gfw_filter_deploy_day=config.gfw_filter_deploy_day, scan_workers=2,
        )
        return settings, None, {}
    if workload == "campaign-incremental":
        settings = ServiceSettings(
            gfw_filter_deploy_day=config.gfw_filter_deploy_day,
            scan_mode="incremental", vantages=3, quorum="majority",
            scan_workers=1,
        )
        start, end = OUTAGES[scale]
        plan = FaultPlan(outages=(VantageOutage(start, end, vantage="vp1"),))
        return settings, plan, {"checkpoint_every": CHECKPOINT_EVERY[scale]}
    raise SystemExit(f"unknown campaign workload {workload!r}")


def install_wrappers(log: spanlib.SpanLog) -> None:
    """Time the public entry points of every campaign layer."""
    import repro.runtime.checkpoint as checkpoint
    from repro.gfw.filter import GfwFilter
    from repro.hitlist.apd import AliasedPrefixDetection
    from repro.publish.store import SnapshotStore
    from repro.scan.engine import ScanEngine
    from repro.scan.scheduler import IncrementalScheduler
    from repro.scan.yarrp import YarrpTracer
    from repro.vantage import VantageFleet

    log.wrap(AliasedPrefixDetection, "run", "hitlist.apd.run")
    log.wrap(ScanEngine, "scan_all_protocols", "scan.engine.scan")
    # chunk compute, inline or the parent's wait on pool workers (the
    # engine's own probe-chunk spans open only after that wait)
    log.wrap(ScanEngine, "_run_chunks", "scan.engine.chunks")
    log.wrap(GfwFilter, "clean_scan", "gfw.clean")
    log.wrap(IncrementalScheduler, "plan", "scan.scheduler.plan")
    log.wrap(IncrementalScheduler, "absorb", "scan.scheduler.absorb")
    log.wrap(VantageFleet, "scan", "vantage.fleet.scan")
    log.wrap(YarrpTracer, "trace_targets", "scan.yarrp.trace")
    log.wrap(SnapshotStore, "commit", "publish.store.commit")
    # the service imports this function from its module at call time
    log.wrap(checkpoint, "checkpoint_service", "runtime.checkpoint.write")


def layer_metrics(tree, counters, checkpoint_bytes: int) -> dict:
    """Per-layer seconds and counts of one traced campaign."""
    total, own = spanlib.totals_by_name(tree)
    t = lambda name: total.get(name, 0.0)  # noqa: E731 - local shorthand
    scan_s, chunk_s = t("scan.engine.scan"), t("scan.engine.chunks")
    probed = counters["sched_full"] + counters["sched_sampled"]
    planned = probed + counters["sched_carried"]
    return {
        "hitlist.bootstrap_s": own.get("bootstrap", 0.0),
        "hitlist.sources.pull_s": own.get("source-pull", 0.0),
        "hitlist.hygiene_s": own.get("hygiene", 0.0),
        "hitlist.apd.run_s": t("hitlist.apd.run"),
        "hitlist.apd.prefixes_tested": counters["apd_tested"],
        "scan.engine.scan_s": scan_s,
        "scan.engine.chunk_s": chunk_s,
        "scan.engine.decode_merge_s": scan_s - chunk_s,
        "scan.engine.probes": counters["probes"],
        "scan.engine.hit_ratio": (
            counters["hits"] / counters["probes"] if counters["probes"] else 0.0
        ),
        "scan.engine.ipc_bytes": counters["ipc_bytes"],
        "gfw.clean_s": t("gfw.clean"),
        "gfw.injected": counters["gfw_injected"],
        "scan.probe.unattributed_s": own.get("probe", 0.0),
        "scan.scheduler.plan_s": t("scan.scheduler.plan"),
        "scan.scheduler.absorb_s": t("scan.scheduler.absorb"),
        "scan.scheduler.probed_ratio": probed / planned if planned else 0.0,
        "scan.scheduler.carried": counters["sched_carried"],
        "vantage.fleet.scan_s": t("vantage.fleet.scan"),
        "vantage.reconcile_s": t("reconcile"),
        "vantage.resharded": counters["resharded"],
        "scan.yarrp.trace_s": t("scan.yarrp.trace"),
        "scan.yarrp.hops": counters["trace_hops"],
        "publish.store.commit_s": t("publish.store.commit"),
        "publish.store.bytes": counters["store_bytes"],
        "runtime.checkpoint.write_s": t("runtime.checkpoint.write"),
        "runtime.checkpoint.bytes": checkpoint_bytes,
        "analysis.report_s": t("analysis.report"),
    }


def run_campaign(workload: str, seed: int, traced: bool, scale: str,
                 workdir: pathlib.Path) -> dict:
    from repro.cli import _write_run_outputs
    from repro.hitlist import HitlistService, default_scan_days
    from repro.simnet import build_internet, small_config

    config = small_config(seed)
    first, last = WINDOWS[scale]
    days = [d for d in default_scan_days(config.final_day) if first <= d <= last]
    settings, plan, run_kwargs = workload_settings(workload, scale, config)
    if workload == "campaign-incremental":
        run_kwargs["checkpoint_path"] = str(workdir / "checkpoints")
        run_kwargs["publish_dir"] = str(workdir / "store")
        (workdir / "checkpoints").mkdir(parents=True)

    setup_s, build_s = [], []

    def set_up():
        start = time.perf_counter()
        world = build_internet(config)
        built = time.perf_counter()
        service = HitlistService(world, config, settings=settings, fault_plan=plan)
        setup_s.append(time.perf_counter() - start)
        build_s.append(built - start)
        return world, service

    for _ in range(SETUPS):
        service = world = None  # free the previous set-up before timing
        world, service = set_up()

    log = spanlib.SpanLog()
    if traced:
        install_wrappers(log)
    outdir = workdir / "out"
    try:
        start = time.perf_counter()
        history = service.run(days, **run_kwargs)
        began_outputs = time.perf_counter()
        _count, _aliased, validation = _write_run_outputs(
            outdir, config, world, history
        )
        end = time.perf_counter()
    finally:
        log.restore()
    campaign_s = end - start

    scan_ms = [
        1000 * span.duration for span in service.spans.spans
        if span.name == "scan" and span.end is not None
    ]
    counters = {
        key: service.metrics.counter_total(name) for key, name in COUNTERS.items()
    }
    record = {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "scans": len(days),
        "setup_s": setup_s,
        "build_s": build_s,
        "campaign_s": campaign_s,
        "scan_ms": scan_ms,
        # the scan workers are reaped when service.run closes the pool
        "rss_mb": common.peak_rss_mb(),
        "worker_rss_mb": common.children_peak_rss_mb(),
        "summary_sha256": common.file_digest(outdir / "summary.json"),
        "validation_failed": [check.claim for check in validation.failures],
        "counters": counters,
    }
    if traced:
        intervals = [
            (span.name, span.start, span.end)
            for span in service.spans.spans if span.end is not None
        ]
        intervals += log.spans
        intervals.append(("analysis.report", began_outputs, end))
        tree = spanlib.build_tree(intervals)
        checkpoint_bytes = sum(
            path.stat().st_size for path in (workdir / "checkpoints").glob("*")
        ) if (workdir / "checkpoints").exists() else 0
        record["layers"] = layer_metrics(tree, counters, checkpoint_bytes)
        record["self_sum_s"] = sum(spanlib.self_times(tree))
        record["spans"] = spanlib.to_json(tree)

    # the second batch of set-ups, with the campaign's heap freed
    del history, service, world, validation
    gc.collect()
    for _ in range(SETUPS):
        set_up()
    record["setup_s"], record["build_s"] = setup_s, build_s
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=sorted(WINDOWS), default="full")
    parser.add_argument("--workdir", type=pathlib.Path, required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args(argv)
    common.require_source()
    args.workdir.mkdir(parents=True, exist_ok=True)
    record = run_campaign(
        args.workload, args.seed, bool(args.traced), args.scale, args.workdir
    )
    common.write_json(args.out, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
