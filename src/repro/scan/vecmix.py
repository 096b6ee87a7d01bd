"""Bulk SplitMix64 draws over big-integer SIMD lanes (stdlib only).

The probe path draws one 64-bit SplitMix64 hash per (target, protocol
group, attempt) — loss draws through :mod:`repro.scan.loss`, GFW
injection draws in the scan engine.  Done per target in Python, the
finalizer's two 64-bit multiplies plus five shift/xor steps dominate
the probe stage.  This
module computes the same draws for a whole chunk at once by packing one
64-bit value per *128-bit lane* of a single Python big integer:

* lane spacing of 128 bits means a lane-wise ``value * constant``
  product (< 2**128) never carries into the next lane, so one big-int
  multiplication by a 64-bit constant multiplies every lane at once;
* shifts, xors and masks are plain big-int operations applied to all
  lanes simultaneously;
* ``x >= threshold`` per lane becomes ``(x + (2**k - threshold))`` and
  reading carry bit ``k`` — again a single big-int add per lane set.

Each bulk call replaces ``n`` scalar SplitMix64 evaluations with ~8
big-int operations of ``O(n)`` C-speed work; measured speedup on the
probe stage's draw loops is 2-3x at the default chunk size (4096).

Every function here is bit-exact against :func:`repro._util.mix64`:
``tests/scan/test_vecmix.py`` pins the equivalence property-based, and
``tests/scan/test_loss.py`` pins the loss draws built on it against
the scalar test oracle.
"""

from __future__ import annotations

from array import array
from typing import Dict, List, Sequence, Tuple

_M64 = 0xFFFFFFFFFFFFFFFF
# SplitMix64 finalizer constants (same values as repro._util.mix64)
_MIX_C1 = 0xBF58476D1CE4E5B9
_MIX_C2 = 0x94D049BB133111EB

#: 128-bit lane width: a 64-bit lane value times a 64-bit constant stays
#: inside its own lane, which is what makes bulk multiplication exact.
LANE_BITS = 128
_LANE_BYTES = LANE_BITS // 8


class LaneKit:
    """Precomputed repeat-constants for ``n`` 128-bit lanes.

    Building the all-lanes masks costs one big division; chunk sizes
    repeat across a scan (every chunk but the last is ``chunk_size``
    targets), so kits are memoized via :func:`lane_kit`.
    """

    __slots__ = ("n", "rep1", "mask64", "rep16", "_reps")

    def __init__(self, n: int) -> None:
        self.n = n
        ones = (1 << (LANE_BITS * n)) - 1
        #: 1 in the lowest bit of every lane
        self.rep1 = ones // ((1 << LANE_BITS) - 1)
        #: 0xFFFF_FFFF_FFFF_FFFF in every lane
        self.mask64 = self.rep1 * _M64
        #: 0xFFFF in every lane
        self.rep16 = self.rep1 * 0xFFFF
        #: memo of other per-lane repeat constants (survival thresholds),
        #: keyed by constant
        self._reps: Dict[int, int] = {}

    def rep(self, constant: int) -> int:
        """``constant`` replicated into every lane (memoized)."""
        value = self._reps.get(constant)
        if value is None:
            value = self.rep1 * constant
            self._reps[constant] = value
        return value


_KITS: Dict[int, LaneKit] = {}


def lane_kit(n: int) -> LaneKit:
    """The (memoized) :class:`LaneKit` for ``n`` lanes."""
    kit = _KITS.get(n)
    if kit is None:
        kit = LaneKit(n)
        _KITS[n] = kit
    return kit


def pack_lanes(values: List[int]) -> int:
    """Pack 64-bit ``values`` into one big integer, one per 128-bit lane.

    Lane ``i`` (little-endian byte order) holds ``values[i]`` in its low
    64 bits and zeros in the high 64 — the headroom bulk multiplication
    needs.
    """
    raw = array("Q", values).tobytes()
    buf = bytearray(_LANE_BYTES * len(values))
    for k in range(8):
        buf[k::16] = raw[k::8]
    return int.from_bytes(buf, "little")


def pack_padded(values: List[int]) -> Tuple[int, LaneKit]:
    """:func:`pack_lanes` of ``values`` padded with zero lanes to a
    power-of-two count (so the :func:`lane_kit` memo stays tiny), and
    the kit for that count."""
    n = len(values)
    size = 1 << (n - 1).bit_length() if n > 1 else 1
    return pack_lanes(values + [0] * (size - n)), lane_kit(size)


def pack_bases(targets: Sequence[int]) -> Tuple[int, LaneKit]:
    """:func:`pack_padded` of every target's SplitMix64 base: each
    per-target draw hashes ``low64 ^ high64`` of the address."""
    return pack_padded([(target & _M64) ^ (target >> 64) for target in targets])


def unpack_lanes(packed: int, kit: LaneKit) -> array:
    """The low 64 bits of every lane as an ``array('Q')``.

    Inverse of :func:`pack_lanes` for values already masked to 64 bits.
    """
    full = packed.to_bytes(_LANE_BYTES * kit.n, "little")
    raw = bytearray(8 * kit.n)
    for k in range(8):
        raw[k::8] = full[k::16]
    return array("Q", raw)


def bulk_mix64_xor(packed: int, inner: int, kit: LaneKit) -> int:
    """Per lane: ``mix64(lane ^ inner)``, all lanes at once.

    ``inner`` is the scan-constant inner hash (already mixed); the loss
    formulas are ``mix64(base ^ mix64(...))`` with ``base`` per target,
    so this one call is the whole per-target draw.
    """
    mask = kit.mask64
    # not memoized in the kit: an inner hash serves one scan day, so a
    # memo would keep 16 bytes per lane for every day of a campaign
    v = packed ^ (kit.rep1 * inner)
    v = (v ^ (v >> 30)) & mask
    v = (v * _MIX_C1) & mask
    v = (v ^ (v >> 27)) & mask
    v = (v * _MIX_C2) & mask
    return (v ^ (v >> 31)) & mask


def survive16(draws: int, threshold16: int, kit: LaneKit) -> bytes:
    """Per lane, the 4-bit mask of 16-bit draw slices ``>= threshold16``.

    Bit ``f`` of byte ``i`` is set when slice ``f`` (bits ``16f..16f+15``)
    of lane ``i`` survives — exactly the ``surviving`` nibble of the
    scalar fast-protocol loss loop.  ``threshold16`` must be in
    ``[1, 0xFFFF]``.
    """
    rep1 = kit.rep1
    add = kit.rep(0x10000 - threshold16)
    nibbles = 0
    for f in range(4):
        fields = (draws >> (16 * f)) & kit.rep16
        nibbles |= (((fields + add) >> 16) & rep1) << f
    return nibbles.to_bytes(_LANE_BYTES * kit.n, "little")[0::16]


def survive64(draws: int, threshold: int, kit: LaneKit) -> bytes:
    """Per lane, ``0x01`` when the full 64-bit draw ``>= threshold``.

    The UDP/53 survival test; ``threshold`` must be in ``[1, 2**64-1]``.
    """
    shifted = (draws + kit.rep((1 << 64) - threshold)) >> 64
    return (shifted & kit.rep1).to_bytes(_LANE_BYTES * kit.n, "little")[0::16]
