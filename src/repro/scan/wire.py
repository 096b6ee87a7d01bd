"""Compact wire format for scan-engine worker IPC.

The first parallel engine pickled a 4096-element list of 128-bit Python
ints per chunk submission and shipped back Python sets, lists and
``DnsResponse`` tuples per chunk result — per-chunk IPC cost rivalled
the chunk's compute, which is how ``scan_workers=4`` ended up slower
than ``scan_workers=1``.  This module defines the packed formats that
replaced it:

* the **target pool** is published to the pool once per scan as a flat
  little-endian ``(lo64, hi64)`` array (:func:`pack_pool`) written into
  a shared anonymous mmap; tasks then carry only ``(start, stop)`` index
  ranges;
* each chunk returns a :class:`PackedChunkResult`: ``array('Q')``
  responder indices per fast protocol, an ``array('Q')`` of UDP/53 hit
  indices plus one *meta byte* per hit (integer-coded genuine-DNS
  variant and control-log flags) and one extra-answer count per hit,
  flattened extra-answer payload integers, and a scannable bitmask row
  for rate-limited scans.

Indices are positions in the scan's full target list, so the parent
decodes a responder with one list lookup and turns each UDP/53 hit into
an integer answer record, never a response object.  The wire says what
arrived, not which answers are forged.  Everything in this module is
structural: encode/decode round-trips bit-exactly (property-tested in
``tests/scan/test_wire.py``) and carries no scan semantics.
"""

from __future__ import annotations

from array import array
from typing import Iterator, List, Optional, Sequence, Tuple

_M64 = 0xFFFFFFFFFFFFFFFF

#: bytes per target in the packed pool (two little-endian uint64)
TARGET_BYTES = 16

# ---------------------------------------------------------------------------
# udp-hit meta byte layout

#: genuine-DNS response variant (bits 0-2 of the meta byte)
GENUINE_NONE = 0
GENUINE_REFUSED = 1
GENUINE_REFERRAL = 2
GENUINE_SERVFAIL = 3
GENUINE_BROKEN_ANSWER = 4
GENUINE_NXDOMAIN = 5
GENUINE_NOERROR = 6

GENUINE_MASK = 0b111
#: the hit appended a control-domain NS log entry
FLAG_CONTROL = 1 << 4
#: the control entry's egress differs from the target (proxy resolver)
FLAG_PROXY = 1 << 5


def pack_pool(targets: Sequence[int]) -> bytes:
    """Pack 128-bit targets into ``(lo64, hi64)`` little-endian pairs."""
    flat = array("Q", bytes(TARGET_BYTES * len(targets)))
    flat[0::2] = array("Q", [target & _M64 for target in targets])
    flat[1::2] = array("Q", [target >> 64 for target in targets])
    return flat.tobytes()


def unpack_pool(buffer: bytes, start: int, stop: int) -> List[int]:
    """Targets ``start..stop`` of a :func:`pack_pool` buffer."""
    flat = array("Q", buffer[start * TARGET_BYTES:stop * TARGET_BYTES])
    los = flat[0::2]
    his = flat[1::2]
    return [lo | (hi << 64) for lo, hi in zip(los, his)]


#: bit positions set in a byte, for scannable-bitmask decoding
_BYTE_BITS: Tuple[Tuple[int, ...], ...] = tuple(
    tuple(bit for bit in range(8) if value >> bit & 1) for value in range(256)
)


def pack_bitmask(flags: Sequence[bool]) -> bytes:
    """Pack booleans into a little-endian-bit bitmask row."""
    out = bytearray((len(flags) + 7) // 8)
    for index, flag in enumerate(flags):
        if flag:
            out[index >> 3] |= 1 << (index & 7)
    return bytes(out)


def iter_bitmask(mask: bytes, count: int) -> Iterator[int]:
    """Indices of set bits in a :func:`pack_bitmask` row, ascending."""
    for byte_index, value in enumerate(mask):
        if value:
            base = byte_index << 3
            for bit in _BYTE_BITS[value]:
                index = base + bit
                if index < count:
                    yield index


class PackedChunkResult:
    """Picklable, integer-coded outcome of one fused chunk scan.

    All index arrays hold positions in the scan's full target list (not
    chunk-relative), in target order.  ``udp_meta[i]`` describes hit
    ``udp_idx[i]`` via the ``GENUINE_*``/``FLAG_*`` codes above, and
    ``inj_counts[i]`` is the number of extra single-answer responses
    that arrived before the genuine one (0 for none); their payloads
    follow in ``inj_answers`` order (one ``Q`` slot per answer, or two
    — ``lo, hi`` — when ``inj_wide``).
    """

    __slots__ = (
        "count", "burst_targets", "fast_retry_draws", "udp_retry_draws",
        "fast_idx", "udp_idx", "udp_meta", "inj_counts", "inj_answers",
        "inj_wide", "scannable_bits",
    )

    def __init__(self) -> None:
        self.count = 0
        self.burst_targets = 0
        self.fast_retry_draws = 0
        self.udp_retry_draws = 0
        #: per fast protocol (slice order), responder indices
        self.fast_idx: Tuple[array, ...] = (
            array("Q"), array("Q"), array("Q"), array("Q"),
        )
        #: UDP/53 hit indices, in target order
        self.udp_idx: array = array("Q")
        #: one meta byte per UDP/53 hit
        self.udp_meta: bytearray = bytearray()
        #: per UDP/53 hit, the number of extra responses
        self.inj_counts: array = array("H")
        #: flattened extra-answer payload integers
        self.inj_answers: array = array("Q")
        #: True when answers take two slots (128-bit Teredo addresses)
        self.inj_wide: bool = False
        #: non-blocked chunk positions as a bitmask row, kept only when
        #: per-AS rate limiting needs the probed list (chunk-relative)
        self.scannable_bits: Optional[bytes] = None

    def nbytes(self) -> int:
        """Payload size as shipped over the pool's result pipe."""
        total = 32  # the four scalar counters
        for idx in self.fast_idx:
            total += len(idx) * idx.itemsize
        total += len(self.udp_idx) * self.udp_idx.itemsize
        total += len(self.udp_meta)
        total += len(self.inj_counts) * self.inj_counts.itemsize
        total += len(self.inj_answers) * self.inj_answers.itemsize
        if self.scannable_bits is not None:
            total += len(self.scannable_bits)
        return total

    def __getstate__(self):
        return (
            self.count, self.burst_targets, self.fast_retry_draws,
            self.udp_retry_draws,
            tuple(idx.tobytes() for idx in self.fast_idx),
            self.udp_idx.tobytes(), bytes(self.udp_meta),
            self.inj_counts.tobytes(), self.inj_answers.tobytes(),
            self.inj_wide, self.scannable_bits,
        )

    def __setstate__(self, state):
        (self.count, self.burst_targets, self.fast_retry_draws,
         self.udp_retry_draws, fast, udp_idx, udp_meta, inj_counts,
         inj_answers, self.inj_wide, self.scannable_bits) = state
        self.fast_idx = tuple(array("Q", blob) for blob in fast)
        self.udp_idx = array("Q", udp_idx)
        self.udp_meta = bytearray(udp_meta)
        self.inj_counts = array("H", inj_counts)
        self.inj_answers = array("Q", inj_answers)

    def __eq__(self, other) -> bool:
        if not isinstance(other, PackedChunkResult):
            return NotImplemented
        return self.__getstate__() == other.__getstate__()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<PackedChunkResult count={self.count} "
            f"fast={[len(i) for i in self.fast_idx]} "
            f"udp={len(self.udp_idx)} inj={len(self.inj_counts)}>"
        )
