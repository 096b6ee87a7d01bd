"""The repository's benchmark: campaign and serving workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign-incremental --seed 1 --seconds 40 --trace 0

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` is a
separate run that wraps each layer's public entry points, merges them
with the program's own stage spans and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it print every metric by name with its unit, the summary digest
and the stamp (revision, seed, host).  Full results, and the span tree
of a traced run, are written once at the end under
``.perfbench/results/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

import common

#: ``campaign-full`` is not in ``BENCHMARK.json``: with two scan workers
#: on two vCPUs of a shared VM it was too unsteady (see README.md); run
#: it by hand for changes to full-mode scans.
WORKLOADS = ("campaign-full", "campaign-incremental", "serve-mixed")

#: End-to-end metrics: every workload reports each of them.  An
#: operation is one scan (campaigns) or one request (serving).
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_iqm_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}
#: Tail percentiles.  Two campaigns give 92 scans, so p80 keeps at least
#: 10 samples beyond it.  The serving tail is p95 of the latency of one
#: request in flight (50 samples beyond it per round).
TAIL = {"campaign": 80, "serve": 95}

#: Per-layer metrics (traced runs).  Every workload reports all of them;
#: a layer the workload does not exercise reads 0.
PER_LAYER = {
    "simnet.build_s": "s",
    "hitlist.bootstrap_s": "s",
    "hitlist.sources.pull_s": "s",
    "hitlist.hygiene_s": "s",
    "hitlist.apd.run_s": "s",
    "hitlist.apd.prefixes_tested": "count",
    "scan.engine.scan_s": "s",
    "scan.engine.chunk_s": "s",
    "scan.engine.decode_merge_s": "s",
    "scan.engine.probes": "count",
    "scan.engine.hit_ratio": "ratio",
    "scan.engine.ipc_bytes": "bytes",
    "gfw.clean_s": "s",
    "gfw.injected": "count",
    "scan.probe.unattributed_s": "s",
    "scan.scheduler.plan_s": "s",
    "scan.scheduler.absorb_s": "s",
    "scan.scheduler.probed_ratio": "ratio",
    "scan.scheduler.carried": "count",
    "vantage.fleet.scan_s": "s",
    "vantage.reconcile_s": "s",
    "vantage.resharded": "count",
    "scan.yarrp.trace_s": "s",
    "scan.yarrp.hops": "count",
    "publish.store.commit_s": "s",
    "publish.store.bytes": "bytes",
    "runtime.checkpoint.write_s": "s",
    "runtime.checkpoint.bytes": "bytes",
    "analysis.report_s": "s",
    **{f"serve.{kind}.p50_ms": "ms"
       for kind in ("full", "cond", "delta", "query", "manifest")},
    **{f"publish.app.{kind}_us": "us"
       for kind in ("full", "cond", "delta", "query", "manifest")},
    "publish.cache.blob_hit_ratio": "ratio",
    "publish.gzip.compressions": "count",
    "serve.cpu_us_per_req": "us",
    "serve.client_cpu_us_per_req": "us",
    "obs.trace_overhead_ratio": "ratio",
}

#: ``validate_run`` claims not counted as failures, per workload, each
#: with why it does not hold over this window and scale.  The seeds are
#: ones on which the claim failed at HEAD.  Every other failed claim
#: makes its campaign fail.
_EXEMPT_COMMON = {
    "responsive set grows over the years":
        "multi-year claim; the window is 92 days (seed 71)",
    "cumulative responsive dwarfs any snapshot":
        "multi-year claim; the window is 92 days, and one AS of the "
        "small-preset world dominates (seeds 41, 43, 48, 73)",
    "responsive set is flat across ASes":
        "one AS of the seed's small-preset world dominates "
        "(seeds 41, 43, 48, 73)",
    "protocol ordering ICMP > TCP/80 ≥ TCP/443 > UDP/443":
        "TCP/80 and TCP/443 counts of the small-preset world are close "
        "(seeds 50, 73, 79)",
}
EXEMPT_CLAIMS = {
    "campaign-full": _EXEMPT_COMMON,
    "campaign-incremental": {
        **_EXEMPT_COMMON,
        "GFW-impacted addresses concentrate in Chinese ASes":
            "fleet member vp2 scans from inside the GFW, where injection "
            "hits non-Chinese addresses (paper Sec. 4.3; most seeds)",
    },
}

#: Campaigns per run: at least this many, more while ``--seconds`` last.
MIN_CAMPAIGNS = 2
#: Stop starting campaigns once another would end past this many seconds.
RUN_BUDGET_S = 150
#: A campaign still running this many seconds into the run is killed.
RUN_DEADLINE_S = 170


def mb(mib: float) -> float:
    return mib * 1024 * 1024 / 1e6


# ---------------------------------------------------------------------------
# campaigns

def spawn_campaign(workload, seed, traced, scale, workdir, timeout) -> dict:
    """One campaign in a fresh interpreter; its record, or None on a crash."""
    out = workdir / "record.json"
    command = [
        sys.executable, str(common.ROOT / "perfbench" / "campaign.py"),
        "--workload", workload, "--seed", str(seed), "--traced", str(int(traced)),
        "--scale", scale, "--workdir", str(workdir), "--out", str(out),
    ]
    try:
        subprocess.run(command, cwd=common.ROOT, env=common.child_env(),
                       stdout=subprocess.DEVNULL, timeout=timeout,
                       check=True)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as error:
        sys.stderr.write(f"perfbench: campaign failed: {error}\n")
        return None
    return json.loads(out.read_text())


def run_campaigns(workload, seed, seconds, trace, scale, workdir) -> dict:
    records, crashed = [], 0
    start = time.perf_counter()
    while True:
        attempt = len(records) + crashed
        traced = trace and attempt % 2 == 1
        record = spawn_campaign(
            workload, seed, traced, scale, workdir / f"campaign{attempt}",
            timeout=RUN_DEADLINE_S - (time.perf_counter() - start),
        )
        if record is None:
            crashed += 1
        else:
            records.append(record)
        elapsed = time.perf_counter() - start
        done = len(records) + crashed
        if done >= MIN_CAMPAIGNS and (
            elapsed >= seconds or elapsed * (done + 1) / done > RUN_BUDGET_S
        ):
            break
        if crashed and not records:
            break
    if not records:
        raise SystemExit("perfbench: every campaign crashed")

    reference = records[0]["summary_sha256"]
    exempt = EXEMPT_CLAIMS.get(workload, {})
    failures, notes, failed = [], set(), crashed
    for index, record in enumerate(records):
        problems = [f"validate_run claim failed: {claim}"
                    for claim in record["validation_failed"] if claim not in exempt]
        if record["summary_sha256"] != reference:
            problems.append("summary.json differs from campaign 0")
        failures += [f"campaign {index}: {problem}" for problem in problems]
        failed += bool(problems)
        notes.update(f"validate_run claim failed (exempt: {exempt[claim]}): {claim}"
                     for claim in record["validation_failed"] if claim in exempt)
    notes = sorted(notes)

    plain = [r for r in records if not r["traced"]] or records
    scan_ms = [value for r in plain for value in r["scan_ms"]]
    campaign_s = [r["campaign_s"] for r in plain]
    values = {
        "setup_s": common.median(v for r in plain for v in r["setup_s"]),
        "ops_per_s": common.median(r["scans"] / r["campaign_s"] for r in plain),
        "op_iqm_ms": common.interquartile_mean(scan_ms),
        "op_tail_ms": common.percentile(scan_ms, TAIL["campaign"]),
        "peak_rss_mb": mb(common.median(
            r["rss_mb"] + r["worker_rss_mb"] for r in plain)),
    }
    report = [
        ("campaign_s", common.median(campaign_s), "s",
         f"median of {len(campaign_s)} campaigns of {plain[0]['scans']} scans"),
        ("ops_per_s", values["ops_per_s"], "1/s", "scans / campaign_s"),
        ("scan_iqm_ms", values["op_iqm_ms"], "ms",
         f"{len(scan_ms)} scans, mean of the middle half"),
        ("scan_p50_ms", common.percentile(scan_ms, 50), "ms",
         f"{len(scan_ms)} scans; not a JSON metric"),
        (f"scan_p{TAIL['campaign']}_ms", values["op_tail_ms"], "ms",
         f"{len(scan_ms)} scans, {len(scan_ms) * (100 - TAIL['campaign']) // 100} beyond"),
        ("setup_s", values["setup_s"], "s",
         f"median of {sum(len(r['setup_s']) for r in plain)} world builds + service constructions"),
        ("peak_rss_mb", values["peak_rss_mb"], "MB",
         "campaign process + largest scan worker, median"),
    ]
    result = {
        "attempted": len(records) + crashed,
        "failed": failed,
        "failures": failures,
        "notes": notes,
        "values": values,
        "report": report,
        "digests": sorted({r["summary_sha256"] for r in records}),
        "records": records,
    }
    traced_records = [r for r in records if r["traced"]]
    if traced_records:
        layers = {
            name: common.median(r["layers"][name] for r in traced_records)
            for name in traced_records[0]["layers"]
        }
        layers["simnet.build_s"] = common.median(
            v for r in traced_records for v in r["build_s"])
        layers["obs.trace_overhead_ratio"] = (
            common.median(r["campaign_s"] for r in traced_records)
            / common.median(campaign_s)
        )
        result["layers"] = layers
        result["self_time_check"] = [
            {"campaign_s": r["campaign_s"], "self_sum_s": r["self_sum_s"]}
            for r in traced_records
        ]
    return result


# ---------------------------------------------------------------------------
# serving

def run_serving(seed, seconds, trace, scale, workdir) -> dict:
    import serve

    record = serve.run(seed, seconds, trace, scale, workdir)
    rounds = record.pop("single_ms")
    single_ms = [value for round_ in rounds for value in round_]
    record["iqm_rounds"] = [common.interquartile_mean(r) for r in rounds]
    record["tail_rounds"] = [common.percentile(r, TAIL["serve"]) for r in rounds]
    values = {
        "setup_s": common.median(record["setup_s"]),
        "ops_per_s": common.median(record["capacity_rounds"]),
        "op_iqm_ms": common.median(record["iqm_rounds"]),
        "op_tail_ms": common.median(record["tail_rounds"]),
        "peak_rss_mb": mb(record["rss_mb"]),
    }
    failures = list(record["problems"])
    per_round = f"median over {len(rounds)} rounds of {len(rounds[0])}"
    report = [
        ("serve_iqm_ms", values["op_iqm_ms"], "ms",
         f"one request in flight; {per_round}, mean of the middle half"),
        ("serve_p50_ms", common.percentile(single_ms, 50), "ms",
         f"one request in flight, all {len(single_ms)}; not a JSON metric"),
        (f"serve_p{TAIL['serve']}_ms", values["op_tail_ms"], "ms",
         f"one request in flight; {per_round}"),
        ("serve_p99_ms", common.percentile(single_ms, 99), "ms",
         f"one request in flight, all {len(single_ms)}; not a JSON metric"),
        ("serve_capacity_rps", values["ops_per_s"], "1/s",
         f"{serve.CONNECTIONS} connections x {serve.CLOSED_DEPTH} in flight, "
         f"median over {len(rounds)} rounds of {serve.CAPACITY_REQUESTS[scale]}"),
        ("serve_cpu_us_per_req", record["cpu_us_per_req"], "us",
         f"server CPU per capacity request; busy {record['server_busy']:.2f}"),
        ("client_cpu_us_per_req", record["client_cpu_us_per_req"], "us",
         f"client CPU per capacity request; busy {record['client_busy']:.2f}"),
        ("setup_s", values["setup_s"], "s",
         f"median of {len(record['setup_s'])} server starts until the first 200"),
        ("store_build_s", common.median(record["store_s"]), "s",
         f"median of {len(record['store_s'])} store builds; not a JSON metric"),
        ("peak_rss_mb", values["peak_rss_mb"], "MB", "server process"),
    ]
    result = {
        "attempted": record["attempted"],
        "failed": record["failed"] + len(failures),
        "failures": failures,
        "notes": [],
        "values": values,
        "report": report,
        "digests": [],
        "records": [record],
    }
    if "layers" in record:
        result["layers"] = record["layers"]
    return result


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "toy"), default="full",
                        help="toy: tiny inputs, for the benchmark's self-test")
    args = parser.parse_args(argv)
    common.require_source()
    trace = bool(args.trace)

    steal = common.steal_ticks()
    workdir = common.WORK / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.workload == "serve-mixed":
            result = run_serving(args.seed, args.seconds, trace, args.scale, workdir)
        else:
            result = run_campaigns(args.workload, args.seed, args.seconds, trace,
                                   args.scale, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    result["steal_share"] = common.steal_share(steal, common.steal_ticks())

    stamp = common.stamp(args.workload, args.seed, trace)
    units = PER_LAYER if trace else END_TO_END
    values = dict.fromkeys(PER_LAYER, 0.0) if trace else {}
    values.update(result.get("layers", {}) if trace else result["values"])
    metrics = common.metric_block(values, units)

    host = stamp["host"]
    print(f"perfbench {args.workload} seed={args.seed} trace={int(trace)} "
          f"scale={args.scale} revision={stamp['revision']} "
          f"source={stamp['source_sha256']}")
    print(f"host: {host['cpu_model']}, nproc={host['nproc']}, "
          f"python={host['python']}, CPU time stolen by the hypervisor "
          f"during the run: {result['steal_share']:.1%}")
    for name, value, unit, note in result["report"]:
        print(f"  {name:<24} {value:>14.4f} {unit:<5} {note}")
    print(f"  {'failed_ratio':<24} {result['failed'] / result['attempted']:>14.4f} "
          f"{'':<5} {result['failed']}/{result['attempted']} operations")
    for digest in result["digests"]:
        print(f"  summary.json sha256 {digest}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")
    for note in result["notes"]:
        print(f"  note: {note}")
    if trace:
        for name, unit in PER_LAYER.items():
            print(f"  {name:<32} {values[name]:>14.6g} {unit}")

    results = common.WORK / "results"
    base = f"{args.workload}-seed{args.seed}-trace{int(trace)}"
    records = result.pop("records")
    spans = [r.pop("spans") for r in records if "spans" in r]
    common.write_json(results / f"{base}.json", {
        "stamp": stamp, "metrics": metrics, "result": result, "records": records,
    })
    if spans:
        common.write_json(results / f"{base}-spans.json", {"stamp": stamp, "spans": spans})

    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
