"""Helpers shared by the benchmark's workloads: paths, statistics, stamps."""

from __future__ import annotations

import hashlib
import json
import math
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
from typing import Dict, Iterable, Optional, Sequence, Tuple

#: Root of the checkout the benchmark runs in (the parent of this directory).
ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space inside the checkout; listed in the root ``.gitignore``.
WORK = ROOT / ".perfbench"


def require_source() -> None:
    """Exit non-zero unless the program's sources sit beside the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.stderr.write(
            f"perfbench: no program sources at {SRC / 'repro'}; "
            "run from the root of a repository checkout\n"
        )
        raise SystemExit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> Dict[str, str]:
    """Environment for a child Python process that imports ``repro``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(SRC), env.get("PYTHONPATH", "")) if part
    )
    return env


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 100]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def interquartile_mean(values: Sequence[float]) -> float:
    """Mean of the middle half of the samples (the quarter at each end
    dropped).  Unlike the median it does not jump between the modes of
    a bimodal sample, such as incremental scans before and after the
    scheduler starts carrying prefixes forward."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("interquartile mean of no samples")
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def peak_rss_mb() -> float:
    """Peak resident set size of this process, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def children_peak_rss_mb() -> float:
    """Largest peak resident set size of any reaped child, in MiB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024


def proc_peak_rss_mb(pid: int) -> float:
    """Peak resident set size (``VmHWM``) of a live process, in MiB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError(f"no VmHWM for pid {pid}")


def proc_cpu_seconds(pid: int) -> float:
    """User plus system CPU time a live process has used so far."""
    with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
        fields = handle.read().rpartition(")")[2].split()
    # fields[11], fields[12] are utime and stime (stat fields 14 and 15)
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def steal_ticks() -> Tuple[int, int]:
    """``(steal, total)`` CPU ticks of the machine so far, from
    ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(field) for field in handle.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal guest guest_nice;
    # guest time is already counted in user and nice
    return fields[7], sum(fields[:8])


def steal_share(before: Tuple[int, int], after: Tuple[int, int]) -> float:
    """Share of all CPU time between two :func:`steal_ticks` readings
    that the hypervisor gave to other guests.  A shared host's bursts of
    steal slow every metric of a run; the share tells such runs apart."""
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def file_digest(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def source_digest() -> str:
    """SHA-256 over the program's Python sources (path and content)."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision() -> Optional[str]:
    """The checkout's git revision, or None outside a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        result = subprocess.run(
            ["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return result.stdout.strip() or None if result.returncode == 0 else None


def host_fingerprint() -> Dict[str, object]:
    model = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.partition(":")[2].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_model": model,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


def stamp(workload: str, seed: int, trace: bool) -> Dict[str, object]:
    """What a result was measured on: code, inputs and kind of machine."""
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "revision": git_revision(),
        "source_sha256": source_digest(),
        "host": host_fingerprint(),
    }


def write_json(path: pathlib.Path, document) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, indent=1, sort_keys=True) + "\n")


def metric_block(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, dict]:
    return {name: {"value": values[name], "unit": units[name]} for name in units}

