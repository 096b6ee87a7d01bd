"""The probe-loss model: the one loss draw every probe path takes.

A probe of ``target`` on ``day`` survives i.i.d. loss at retry attempt
``a`` when ``mix64(base ^ mix64((day << 8) ^ stream ^ seed ^ a *
RETRY_SALT))`` clears the loss threshold; ``base`` is the address's low
64 bits xor its high 64.  ICMP, TCP/80, TCP/443 and UDP/443 of a fused
scan share the fast stream (``0x5CA11``) and read one 16-bit slice each
of its draw, surviving at ``>= loss_rate * 65536``; every other probe
(UDP/53, APD's ICMP and TCP/80) reads the full draw of its protocol's
own stream.  A probe is lost when every attempt loses; fault-plan loss
bursts swallow every probe of a target for the day and are not
retryable.

The scan engine, APD and the incremental scheduler's replay all draw
from a :class:`LossModel`, so a carried prefix replays bit for bit what
a real probe would have seen.  ``tests/scan/oracle.py`` spells the same
formulas out one target at a time, and ``tests/scan/test_loss.py``
compares the two.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro._util import mix64
from repro.protocols import Protocol
from repro.runtime.faults import FaultPlan
from repro.scan.vecmix import LaneKit, bulk_mix64_xor, pack_bases, survive16, survive64

_M64 = 0xFFFFFFFFFFFFFFFF
#: odd 64-bit constant mixed per retry attempt so re-draws are independent
RETRY_SALT = 0x9E3779B97F4A7C15
_FAST_STREAM = 0x5CA11
#: lanes per bulk draw of :meth:`LossModel.survival_of`: bounds the
#: transient big integers for any target count
BLOCK = 4096

#: packed per-target bases and their kit, from :func:`pack_bases`
Lanes = Tuple[int, LaneKit]


class LossModel:
    """Per-probe loss of one vantage: seed, rate, attempts, loss bursts."""

    __slots__ = ("seed", "loss_rate", "attempts", "fault_plan", "threshold16", "threshold64")

    def __init__(
        self,
        seed: int = 0,
        loss_rate: float = 0.03,
        attempts: int = 1,
        fault_plan: Optional[FaultPlan] = None,
    ) -> None:
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate out of range: {loss_rate}")
        if attempts < 1:
            raise ValueError(f"retry attempts must be >= 1, got {attempts}")
        self.seed = seed
        self.loss_rate = loss_rate
        self.attempts = attempts
        self.fault_plan = fault_plan
        #: survival thresholds; 0 means the stream never loses
        self.threshold16 = int(loss_rate * 65536.0)
        self.threshold64 = int(loss_rate * float(1 << 64))

    def inner(self, day: int, protocol: Optional[Protocol] = None) -> Tuple[int, ...]:
        """Per-attempt inner hashes of a day's stream (``None``: the fast one)."""
        stream = _FAST_STREAM if protocol is None else int(protocol)
        return tuple(
            mix64((day << 8) ^ stream ^ self.seed ^ ((attempt * RETRY_SALT) & _M64))
            for attempt in range(self.attempts)
        )

    def burst_lost(self, targets: Sequence[int], day: int) -> Optional[List[bool]]:
        """Per target, whether a loss burst swallows its probes on ``day``;
        ``None`` on a burst-free day, so callers skip the per-target check."""
        plan = self.fault_plan
        if plan is None or not any(burst.active(day) for burst in plan.bursts):
            return None
        return [plan.burst_lost(target, day) for target in targets]

    def survival(
        self, lanes: Lanes, day: int, protocol: Optional[Protocol] = None
    ) -> List[bytes]:
        """Per attempt, one survival byte per lane.

        For ``protocol`` the byte is 1 when its probe survives; for the
        fast stream (``None``) bit ``f`` is set when fast protocol ``f``
        survives.  Without loss one all-surviving attempt is returned:
        re-draws could not change anything.
        """
        packed, kit = lanes
        if protocol is None:
            threshold, survive, full = self.threshold16, survive16, b"\x0f"
        else:
            threshold, survive, full = self.threshold64, survive64, b"\x01"
        if not threshold:
            return [full * kit.n]
        return [
            survive(bulk_mix64_xor(packed, inner, kit), threshold, kit)
            for inner in self.inner(day, protocol)
        ]

    def survival_of(
        self, targets: Sequence[int], day: int, protocol: Optional[Protocol] = None
    ) -> List[bytearray]:
        """:meth:`survival` of any number of ``targets``, one byte per
        target, drawn :data:`BLOCK` lanes at a time."""
        out: List[bytearray] = []
        for start in range(0, len(targets), BLOCK):
            block = targets[start:start + BLOCK]
            parts = self.survival(pack_bases(block), day, protocol)
            if not out:
                out = [bytearray() for _ in parts]
            for acc, part in zip(out, parts):
                acc += part[:len(block)]
        return out or [bytearray()]

    def replay_masks(self, targets: Sequence[int], day: int) -> bytes:
        """Per target, the five-bit mask of probes that survive ``day``.

        Bits 0-3 are the fast protocols in slice order and bit 4 is
        UDP/53; a bit is set when any attempt survives, and burst-lost
        targets read 0.  Needs no ground truth and no probe budget.
        """
        mask = 0
        for nibbles in self.survival_of(targets, day):
            mask |= int.from_bytes(nibbles, "little")
        for oks in self.survival_of(targets, day, Protocol.UDP53):
            mask |= int.from_bytes(oks, "little") << 4
        masks = bytearray(mask.to_bytes(len(targets), "little"))
        for index, gone in enumerate(self.burst_lost(targets, day) or ()):
            if gone:
                masks[index] = 0
        return bytes(masks)
