"""Self-test of the benchmark: every workload at toy size, traced and not.

Run from the root of a checkout (about a minute)::

    python3 perfbench/selftest.py

Checks that

* each run prints a last line with exactly the result keys, and every
  metric named in ``BENCHMARK.json`` with its unit (end-to-end metrics
  non-zero);
* the scheduler, fleet, store and checkpoint metrics read zero on
  ``campaign-full`` (run by hand, not listed in ``BENCHMARK.json``),
  which never reaches those layers;
* a traced campaign's span self-times sum to within
  :data:`SELF_TIME_TOLERANCE` of its ``campaign_s`` (the rest is time no
  span covers);
* the benchmark exits non-zero, printing no result, in a directory that
  holds only ``BENCHMARK.json`` and the benchmark's own files.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import common

SELF_TIME_TOLERANCE = 0.05
SEED = 1
#: Metrics of layers that full-mode, single-vantage, store-less
#: campaigns never reach.
IDLE_ON_FULL = (
    "scan.scheduler.plan_s", "scan.scheduler.absorb_s",
    "scan.scheduler.probed_ratio", "scan.scheduler.carried",
    "vantage.fleet.scan_s", "vantage.reconcile_s", "vantage.resharded",
    "publish.store.commit_s", "publish.store.bytes",
    "runtime.checkpoint.write_s", "runtime.checkpoint.bytes",
)


def run_bench(root, workload: str, trace: int):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", "1", "--trace", str(trace),
         "--scale", "toy"],
        cwd=root, capture_output=True, text=True, timeout=300,
    )


def main() -> int:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    errors = []

    def check(condition: bool, message: str) -> None:
        print(("ok    " if condition else "FAIL  ") + message)
        if not condition:
            errors.append(message)

    listed = [entry["name"] for entry in spec["workloads"]]
    for workload in dict.fromkeys(listed + ["campaign-full"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            run = run_bench(common.ROOT, workload, trace)
            check(run.returncode == 0, f"{workload} trace={trace} exits 0")
            if run.returncode != 0:
                sys.stderr.write(run.stderr)
                continue
            result = json.loads(run.stdout.strip().splitlines()[-1])
            check(sorted(result) == ["attempted", "correct", "failed", "metrics"],
                  f"{workload} trace={trace} result keys")
            want = {entry["name"]: entry["unit"] for entry in spec[section]}
            got = {name: block["unit"] for name, block in result["metrics"].items()}
            check(got == want, f"{workload} trace={trace} emits every {section} "
                               f"metric with its unit")
            if trace == 0:
                check(all(block["value"] > 0 for block in result["metrics"].values()),
                      f"{workload} end-to-end metrics are non-zero")
                continue
            if workload == "campaign-full":
                idle = {name: result["metrics"][name]["value"] for name in IDLE_ON_FULL}
                check(not any(idle.values()),
                      f"campaign-full idle layers read zero: {idle}")
            if workload.startswith("campaign"):
                saved = json.loads((common.WORK / "results" /
                                    f"{workload}-seed{SEED}-trace1.json").read_text())
                for entry in saved["result"]["self_time_check"]:
                    gap = abs(entry["campaign_s"] - entry["self_sum_s"])
                    check(gap <= SELF_TIME_TOLERANCE * entry["campaign_s"],
                          f"{workload} self-times {entry['self_sum_s']:.3f}s sum to "
                          f"within {SELF_TIME_TOLERANCE:.0%} of campaign_s "
                          f"{entry['campaign_s']:.3f}s")

    bare = common.WORK / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(common.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(common.ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        run = run_bench(bare, listed[0], 0)
        check(run.returncode != 0 and not run.stdout.strip(),
              "without the program's sources the benchmark fails and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)

    print(f"{len(errors)} failed" if errors else "self-test passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
