"""Pinned campaign outputs: SHA-256 digests of what short runs write.

Four small-preset campaigns run through the CLI inside a temporary
working directory (checkpoints embed their own and the store's paths,
so both are passed relative).  Each run's ``summary.json``, every
checkpoint file and the publication store (every object and manifest
plus ``HEAD``) are digested and compared with the digests recorded in
``pinned_outputs.json``.  Refactors of the scan path must leave every
byte in place; a change that alters outputs on purpose re-records the
file::

    PYTHONPATH=src python -m tests.runtime.test_pinned_outputs --record

The configurations:

* ``single-full`` — one vantage, full scan mode;
* ``single-incremental`` — one vantage, incremental scheduling;
* ``single-faulted`` — one vantage under a global outage, a per-AS rate
  limit, a loss burst, a source outage and two probe attempts, plus an
  outage scoped to fleet member ``vp0`` (which a one-vantage campaign
  ignores: scoped outages take down fleet members, not the campaign);
* ``fleet-incremental`` — three vantages, incremental, with ``vp1``
  down mid-campaign.

The two incremental configurations also run with two scan workers and
must produce the same bytes.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import sys
from typing import Dict, List

import pytest

from repro.cli import main
from repro.simnet import small_config

PINNED = pathlib.Path(__file__).with_name("pinned_outputs.json")

#: scan days 0, 14, ..., 140: the last two scans fall into the first
#: GFW injection era (day 123 on), so forged UDP/53 answers are pinned
RUN = ["simulate", "--preset", "small", "--days", "140", "--interval", "14"]


def _faults() -> Dict[str, object]:
    return {
        "seed": small_config().seed,
        "vantage_outages": [{"start_day": 40, "end_day": 47}],
        "rate_limits": [{"asn": 1, "budget": 5}],
        "loss_bursts": [{"start_day": 64, "end_day": 72, "loss_rate": 0.5}],
        "source_outages": [
            {"source": "atlas", "start_day": 16, "end_day": 40}
        ],
    }


CONFIGS: Dict[str, List[str]] = {
    "single-full": ["--vantages", "1", "--scan-mode", "full"],
    "single-incremental": ["--vantages", "1", "--scan-mode", "incremental"],
    "single-faulted": [
        "--vantages", "1", "--scan-mode", "full",
        "--faults", "faults.json", "--retry-attempts", "2",
        "--vantage-faults", "vp0:84-90",
    ],
    "fleet-incremental": [
        "--vantages", "3", "--scan-mode", "incremental",
        "--vantage-faults", "vp1:98-112",
    ],
}


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_and_digest(workdir: pathlib.Path, name: str, workers: int = 1) -> Dict[str, str]:
    """Run configuration ``name`` inside ``workdir``; digest its outputs."""
    workdir.mkdir(parents=True, exist_ok=True)
    (workdir / "faults.json").write_text(json.dumps(_faults()))
    previous = os.getcwd()
    os.chdir(workdir)
    try:
        status = main(
            RUN + CONFIGS[name] + [
                "--scan-workers", str(workers),
                "--checkpoint-dir", "ckpt", "--publish-dir", "pub",
                "-o", "out",
            ]
        )
    finally:
        os.chdir(previous)
    assert status == 0
    digests = {"summary.json": _sha256(workdir / "out" / "summary.json")}
    for checkpoint in sorted((workdir / "ckpt").glob("*.ckpt")):
        digests[f"ckpt/{checkpoint.name}"] = _sha256(checkpoint)
    store = workdir / "pub"
    digests["pub/HEAD"] = _sha256(store / "HEAD")
    combined = hashlib.sha256()
    for path in sorted(p for p in store.rglob("*") if p.is_file()):
        relative = path.relative_to(store).as_posix()
        combined.update(f"{relative}\0{_sha256(path)}\n".encode("ascii"))
    digests["pub"] = combined.hexdigest()
    return digests


@pytest.fixture(scope="module")
def pinned() -> Dict[str, Dict[str, str]]:
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize(
    "name,workers",
    [(name, 1) for name in CONFIGS]
    + [("single-incremental", 2), ("fleet-incremental", 2)],
)
def test_outputs_match_pinned_digests(tmp_path, capsys, pinned, name, workers):
    digests = run_and_digest(tmp_path / name, name, workers)
    capsys.readouterr()
    assert digests == pinned[name]


if __name__ == "__main__":  # pragma: no cover - re-recording helper
    import tempfile

    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    recorded = {}
    with tempfile.TemporaryDirectory() as scratch:
        for config_name in CONFIGS:
            recorded[config_name] = run_and_digest(
                pathlib.Path(scratch) / config_name, config_name
            )
    PINNED.write_text(json.dumps(recorded, indent=2, sort_keys=True) + "\n")
    print(f"recorded {len(recorded)} configurations to {PINNED}")
