"""Small shared helpers: stable hashing, seeded RNG derivation, dates,
durable file writes.

The whole reproduction must be deterministic under a single scenario seed,
so components never call :func:`random.random` directly — they derive
child RNGs from a parent seed and a label via :func:`derive_rng`.
"""

from __future__ import annotations

import datetime
import hashlib
import os
import random

#: Day 0 of the simulated timeline (first IPv6 Hitlist scan in the paper).
EPOCH = datetime.date(2018, 7, 1)

#: Final analyzed day (the paper's 2022-04-07 snapshot).
FINAL_DAY = (datetime.date(2022, 4, 7) - EPOCH).days


def day_to_date(day: int) -> datetime.date:
    """Convert a simulation day offset to a calendar date.

    >>> day_to_date(0).isoformat()
    '2018-07-01'
    """
    return EPOCH + datetime.timedelta(days=day)


def date_to_day(date: datetime.date) -> int:
    """Convert a calendar date to a simulation day offset.

    >>> date_to_day(datetime.date(2022, 4, 7)) == FINAL_DAY
    True
    """
    return (date - EPOCH).days


def stable_hash(*parts: object) -> int:
    """A 64-bit hash that is stable across processes and Python versions.

    Python's builtin ``hash`` is randomized per process for strings, which
    would break reproducibility, so deterministic decisions (churn phases,
    injection choices, assignment patterns) go through this helper.
    """
    text = "\x1f".join(str(part) for part in parts)
    digest = hashlib.blake2b(text.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def derive_rng(seed: int, *labels: object) -> random.Random:
    """Derive an independent, reproducible RNG from a seed and labels."""
    return random.Random(stable_hash(seed, *labels))


def mix64(value: int) -> int:
    """SplitMix64 finalizer: a fast, high-quality 64-bit bijection.

    Used on per-address hot paths (churn sampling) where calling
    :func:`stable_hash` per address would dominate runtime.
    """
    value = value & 0xFFFFFFFFFFFFFFFF
    value = (value ^ (value >> 30)) * 0xBF58476D1CE4E5B9 & 0xFFFFFFFFFFFFFFFF
    value = (value ^ (value >> 27)) * 0x94D049BB133111EB & 0xFFFFFFFFFFFFFFFF
    return value ^ (value >> 31)


def atomic_write(path: str, data: bytes) -> None:
    """Durably replace ``path`` with ``data``.

    Writes a ``.tmp`` sibling, fsyncs it, renames it over ``path`` and
    then fsyncs the parent directory: a POSIX rename is not durable until
    the directory entry that records it is.  Readers see the old bytes or
    the new ones, never a torn file.
    """
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    directory = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(directory)
    finally:
        os.close(directory)
