"""Deterministic fault injection for the hitlist service runtime.

The seed pipeline models exactly one failure mode: uniform i.i.d. packet
loss.  Real scan campaigns fail in richer ways — the vantage loses
connectivity for days, an AS's routers ICMP-rate-limit once probe volume
crosses a budget, congestion events kill correlated bursts of probes,
and upstream data feeds (zone files, Atlas dumps) are sometimes simply
unavailable.  Distinguishing those transients from genuine churn is a
core operational concern of the paper's service (Sec. 3.1).

A :class:`FaultPlan` composes these faults and is injected into
:class:`~repro.scan.zmap.ZMapScanner`, :class:`~repro.scan.yarrp.YarrpTracer`
and the service's input sources.  Every fault decision is a pure function
of (plan, address, day) so faulted runs stay reproducible and
checkpoint/resume stays bit-identical.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    IO,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro._util import mix64
from repro.protocols import ALL_PROTOCOLS, Protocol

_M64 = 0xFFFFFFFFFFFFFFFF
_UINT64_SPAN = 1 << 64

_LABEL_TO_PROTOCOL = {protocol.label: protocol for protocol in ALL_PROTOCOLS}


@dataclass(frozen=True)
class RetryPolicy:
    """Per-probe retry policy for transient-loss masking.

    ``attempts`` is the *total* number of tries per probe (1 = today's
    single-shot behaviour).  Each attempt re-draws its loss decision
    deterministically (the attempt index is salted into the hash), so a
    probe is reported lost only when every attempt loses — i.i.d. loss
    at rate p becomes p**attempts.  Correlated faults (outages, bursts,
    rate limiting) are *not* retryable: retransmissions inside the fault
    window fail the same way the original probe did.

    ``backoff_days`` documents the operational pacing between attempts;
    it does not advance simulated time because all attempts of a probe
    land within one scan day.
    """

    attempts: int = 2
    backoff_days: float = 0.0

    def __post_init__(self) -> None:
        if self.attempts < 1:
            raise ValueError(f"retry attempts must be >= 1, got {self.attempts}")
        if self.backoff_days < 0:
            raise ValueError(f"backoff must be >= 0, got {self.backoff_days}")


@dataclass(frozen=True)
class VantageOutage:
    """A scan vantage is down for ``[start_day, end_day]`` (inclusive).

    Scans issued inside the window send nothing and hear nothing.  With
    ``vantage=None`` (the default, and the only pre-fleet form) the
    outage is *global*: the singleton vantage — or, in fleet mode, every
    vantage at once — goes dark.  A non-``None`` ``vantage`` scopes the
    outage to one fleet member (e.g. ``"vp1"``); the coordinator
    re-shards that member's targets to the surviving vantages.
    """

    start_day: int
    end_day: int
    vantage: Optional[str] = None

    def __post_init__(self) -> None:
        if self.end_day < self.start_day:
            raise ValueError(f"outage window inverted: {self}")

    def active(self, day: int) -> bool:
        return self.start_day <= day <= self.end_day


@dataclass(frozen=True)
class VantageDegradation:
    """One fleet vantage suffers degraded connectivity for a window.

    Unlike an outage the vantage still scans, but an extra correlated
    loss band (``extra_loss_rate`` of the address-hash ring, anchored
    per window like :class:`LossBurst`) swallows its probes.  Quorum
    reconciliation is what keeps a degraded member from poisoning the
    published hitlist.
    """

    vantage: str
    start_day: int
    end_day: int
    extra_loss_rate: float

    def __post_init__(self) -> None:
        if not self.vantage:
            raise ValueError(f"degradation needs a vantage id: {self}")
        if self.end_day < self.start_day:
            raise ValueError(f"degradation window inverted: {self}")
        if not 0.0 <= self.extra_loss_rate <= 1.0:
            raise ValueError(
                f"degradation loss rate out of range: {self.extra_loss_rate}"
            )

    def active(self, day: int) -> bool:
        return self.start_day <= day <= self.end_day


@dataclass(frozen=True)
class LossBurst:
    """Correlated loss: a fixed cohort of targets is dead for a window.

    Unlike the scanner's i.i.d. loss, a burst kills one contiguous band
    of the 64-bit address-hash ring — the *same* ``loss_rate`` share of
    targets — on every day of ``[start_day, end_day]``.  Retries cannot
    recover burst losses (the correlation is temporal), which is exactly
    the failure mode a 30-day unresponsiveness filter must not confuse
    with genuine churn.
    """

    start_day: int
    end_day: int
    loss_rate: float

    def __post_init__(self) -> None:
        if self.end_day < self.start_day:
            raise ValueError(f"burst window inverted: {self}")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError(f"burst loss rate out of range: {self.loss_rate}")

    def active(self, day: int) -> bool:
        return self.start_day <= day <= self.end_day


@dataclass(frozen=True)
class RateLimit:
    """ICMP-style rate limiting by one AS's routers.

    Once more than ``budget`` probes of a matching protocol target the
    AS within one scan, answers beyond the budget are dropped.  Which
    probes make it under the budget is decided by a deterministic
    per-(day, AS) ranking of the targeted addresses, so the truncation
    is independent of target iteration order.
    """

    asn: int
    budget: int
    protocols: int = int(Protocol.ICMP)

    def __post_init__(self) -> None:
        if self.budget < 0:
            raise ValueError(f"rate-limit budget must be >= 0, got {self.budget}")


@dataclass(frozen=True)
class SourceOutage:
    """An input source's upstream is unavailable for a day window.

    Collections attempted while the window covers the scan day raise
    :class:`~repro.hitlist.sources.SourceUnavailable`; the service skips
    the source, records the scan as degraded and catches up the missed
    window on the next scan.
    """

    source: str
    start_day: int
    end_day: int

    def __post_init__(self) -> None:
        if self.end_day < self.start_day:
            raise ValueError(f"source outage window inverted: {self}")

    def active(self, day: int) -> bool:
        return self.start_day <= day <= self.end_day


@dataclass(frozen=True)
class FaultPlan:
    """A composable, seed-deterministic schedule of runtime faults."""

    seed: int = 0
    outages: Tuple[VantageOutage, ...] = ()
    rate_limits: Tuple[RateLimit, ...] = ()
    bursts: Tuple[LossBurst, ...] = ()
    source_outages: Tuple[SourceOutage, ...] = ()
    degradations: Tuple[VantageDegradation, ...] = ()

    # ------------------------------------------------------------------
    # vantage outages

    def vantage_down(self, day: int) -> bool:
        """True when a vantage running this plan is inside an outage.

        Only *global* outages (``vantage=None``) count: entries scoped
        to a fleet member affect that member alone and are applied via
        :meth:`view_for`.  A fleet of one runs the campaign plan itself,
        so only global outages take it down.
        """
        return any(
            outage.vantage is None and outage.active(day)
            for outage in self.outages
        )

    def vantage_down_for(self, vantage: str, day: int) -> bool:
        """True when the named fleet vantage is down on ``day``.

        A global outage takes every vantage down; a scoped outage only
        its own.
        """
        return any(
            outage.active(day) and outage.vantage in (None, vantage)
            for outage in self.outages
        )

    def outage_days_between(self, start_day: int, end_day: int) -> int:
        """Number of days in ``(start_day, end_day]`` lost to outages.

        The service's unresponsiveness filter subtracts these so a
        vantage outage does not masquerade as 30 days of silence.  Only
        global outages count — a single fleet member's downtime does
        not stop the rest of the fleet from probing (see
        :meth:`fleet_outage_days_between`).
        """
        total = 0
        for low, high in self._merged_outage_windows():
            overlap = min(high, end_day) - max(low, start_day + 1) + 1
            if overlap > 0:
                total += overlap
        return total

    def fleet_outage_days_between(
        self, start_day: int, end_day: int, vantages: Sequence[str]
    ) -> int:
        """Days in ``(start_day, end_day]`` when the *whole* fleet was dark.

        A day is lost to the fleet only when a global outage covers it
        or every vantage in ``vantages`` has a scoped outage covering
        it — with any member alive, orphaned targets are re-sharded and
        still probed.
        """
        if not vantages:
            return self.outage_days_between(start_day, end_day)
        windows = _merge_windows(
            (o.start_day, o.end_day) for o in self.outages if o.vantage is None
        )
        per_vantage = []
        for vantage in vantages:
            per_vantage.append(_merge_windows(
                (o.start_day, o.end_day)
                for o in self.outages
                if o.vantage in (None, vantage)
            ))
        windows = _merge_windows(
            list(windows) + list(_intersect_windows(per_vantage))
        )
        total = 0
        for low, high in windows:
            overlap = min(high, end_day) - max(low, start_day + 1) + 1
            if overlap > 0:
                total += overlap
        return total

    def _merged_outage_windows(self) -> List[Tuple[int, int]]:
        return _merge_windows(
            (o.start_day, o.end_day) for o in self.outages if o.vantage is None
        )

    # ------------------------------------------------------------------
    # per-vantage fleet views

    def view_for(self, vantage: str, asn: int) -> "FaultPlan":
        """The fault plan as experienced by one fleet vantage.

        Lowers fleet-scoped faults into the singleton vocabulary the
        scanners already speak, so :class:`~repro.scan.zmap.ZMapScanner`
        and the scan engine need no fleet awareness:

        * outages scoped to this vantage (plus global ones) become plain
          global outages of the view;
        * degradations scoped to this vantage become :class:`LossBurst`
          windows of the view;
        * the seed is re-salted with the vantage's origin AS, so burst
          cohorts and rate-limit rankings — path-dependent exposure —
          differ per vantage while staying pure functions of the plan.
        """
        outages = tuple(
            VantageOutage(start_day=o.start_day, end_day=o.end_day)
            for o in self.outages
            if o.vantage in (None, vantage)
        )
        bursts = self.bursts + tuple(
            LossBurst(
                start_day=d.start_day,
                end_day=d.end_day,
                loss_rate=d.extra_loss_rate,
            )
            for d in self.degradations
            if d.vantage == vantage
        )
        return FaultPlan(
            seed=mix64(self.seed ^ (asn & _M64) ^ 0x7A9E_1A6E),
            outages=outages,
            rate_limits=self.rate_limits,
            bursts=bursts,
            source_outages=self.source_outages,
        )

    @property
    def fleet_vantage_ids(self) -> FrozenSet[str]:
        """Vantage ids named by scoped outages or degradations."""
        scoped = {o.vantage for o in self.outages if o.vantage is not None}
        scoped.update(d.vantage for d in self.degradations)
        return frozenset(scoped)

    # ------------------------------------------------------------------
    # correlated loss bursts

    def burst_lost(self, address: int, day: int) -> bool:
        """True when a loss burst swallows probes to ``address`` today."""
        if not self.bursts:
            return False
        draw = None
        for burst in self.bursts:
            if not burst.active(day):
                continue
            if draw is None:
                draw = mix64((address & _M64) ^ (address >> 64) ^ mix64(self.seed ^ 0xB0B5))
            # the victim band is anchored per window, not per day: the
            # same cohort stays dark for the whole burst
            start = mix64(self.seed ^ (burst.start_day << 16) ^ burst.end_day ^ 0xFA11)
            width = int(burst.loss_rate * _UINT64_SPAN)
            if (draw - start) % _UINT64_SPAN < width:
                return True
        return False

    # ------------------------------------------------------------------
    # per-AS rate limiting

    def limits_protocol(self, protocol: Protocol) -> bool:
        """True when any rate limit applies to ``protocol``."""
        return any(limit.protocols & int(protocol) for limit in self.rate_limits)

    def suppressed_responders(
        self,
        targets: Sequence[int],
        protocol: Protocol,
        day: int,
        origin_as: Callable[[int], Optional[int]],
    ) -> FrozenSet[int]:
        """Targets whose answers a rate limiter drops this scan.

        ``targets`` must be the full set of probed addresses (budget is
        counted against probes, not responders).  Deterministic and
        iteration-order independent: targets inside a limited AS are
        ranked by a per-(day, AS) hash and everything past the budget is
        suppressed.
        """
        limits = {
            limit.asn: limit.budget
            for limit in self.rate_limits
            if limit.protocols & int(protocol)
        }
        if not limits:
            return frozenset()
        per_as: Dict[int, List[int]] = {}
        for target in targets:
            asn = origin_as(target)
            if asn in limits:
                per_as.setdefault(asn, []).append(target)
        suppressed: set = set()
        for asn, members in per_as.items():
            budget = limits[asn]
            if len(members) <= budget:
                continue
            salt = mix64(self.seed ^ (day << 20) ^ asn ^ 0x9A7E)
            members.sort(key=lambda a: (mix64((a & _M64) ^ (a >> 64) ^ salt), a))
            suppressed.update(members[budget:])
        return frozenset(suppressed)

    # ------------------------------------------------------------------
    # flaky input sources

    def source_down(self, name: str, day: int) -> bool:
        """True when the named source's upstream is down on ``day``."""
        return any(
            outage.source == name and outage.active(day)
            for outage in self.source_outages
        )

    @property
    def flaky_source_names(self) -> FrozenSet[str]:
        """Names of sources with at least one scheduled outage."""
        return frozenset(outage.source for outage in self.source_outages)

    # ------------------------------------------------------------------
    # (de)serialization — CLI ``--faults`` files and checkpoints

    def to_dict(self) -> Dict[str, Any]:
        """A JSON-serializable description of the plan."""
        return {
            "seed": self.seed,
            "vantage_outages": [
                {"start_day": o.start_day, "end_day": o.end_day}
                if o.vantage is None
                else {
                    "vantage": o.vantage,
                    "start_day": o.start_day,
                    "end_day": o.end_day,
                }
                for o in self.outages
            ],
            "vantage_degradations": [
                {
                    "vantage": d.vantage,
                    "start_day": d.start_day,
                    "end_day": d.end_day,
                    "extra_loss_rate": d.extra_loss_rate,
                }
                for d in self.degradations
            ],
            "rate_limits": [
                {
                    "asn": limit.asn,
                    "budget": limit.budget,
                    "protocols": [
                        protocol.label
                        for protocol in ALL_PROTOCOLS
                        if limit.protocols & int(protocol)
                    ],
                }
                for limit in self.rate_limits
            ],
            "loss_bursts": [
                {
                    "start_day": b.start_day,
                    "end_day": b.end_day,
                    "loss_rate": b.loss_rate,
                }
                for b in self.bursts
            ],
            "source_outages": [
                {"source": o.source, "start_day": o.start_day, "end_day": o.end_day}
                for o in self.source_outages
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultPlan":
        """Rebuild a plan from :meth:`to_dict` output (or a faults file).

        Beyond the per-dataclass field checks, windows are validated
        against cross-entry mistakes that used to slip through silently:
        negative days are out of range, and two ``vantage_outages`` (or
        two ``vantage_degradations``) for the same vantage scope must
        not overlap — earlier code merged duplicates quietly, hiding
        typos in hand-written fault files.
        """
        known = {"seed", "vantage_outages", "rate_limits", "loss_bursts",
                 "source_outages", "vantage_degradations"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown fault plan fields: {sorted(unknown)}")
        outages = tuple(
            VantageOutage(
                start_day=int(o["start_day"]),
                end_day=int(o["end_day"]),
                vantage=(
                    str(o["vantage"]) if o.get("vantage") is not None else None
                ),
            )
            for o in data.get("vantage_outages", ())
        )
        degradations = tuple(
            VantageDegradation(
                vantage=str(d["vantage"]),
                start_day=int(d["start_day"]),
                end_day=int(d["end_day"]),
                extra_loss_rate=float(d["extra_loss_rate"]),
            )
            for d in data.get("vantage_degradations", ())
        )
        _validate_windows("vantage_outages", outages)
        _validate_windows("vantage_degradations", degradations)
        return cls(
            seed=int(data.get("seed", 0)),
            outages=outages,
            degradations=degradations,
            rate_limits=tuple(
                RateLimit(
                    asn=int(limit["asn"]),
                    budget=int(limit["budget"]),
                    protocols=_protocol_mask(limit.get("protocols", ["ICMP"])),
                )
                for limit in data.get("rate_limits", ())
            ),
            bursts=tuple(
                LossBurst(
                    start_day=int(b["start_day"]),
                    end_day=int(b["end_day"]),
                    loss_rate=float(b["loss_rate"]),
                )
                for b in data.get("loss_bursts", ())
            ),
            source_outages=tuple(
                SourceOutage(
                    source=str(o["source"]),
                    start_day=int(o["start_day"]),
                    end_day=int(o["end_day"]),
                )
                for o in data.get("source_outages", ())
            ),
        )


def _merge_windows(windows) -> List[Tuple[int, int]]:
    """Merge overlapping/adjacent inclusive day windows, sorted."""
    merged: List[Tuple[int, int]] = []
    for low, high in sorted(windows):
        if merged and low <= merged[-1][1] + 1:
            merged[-1] = (merged[-1][0], max(merged[-1][1], high))
        else:
            merged.append((low, high))
    return merged


def _intersect_windows(
    window_lists: Sequence[List[Tuple[int, int]]],
) -> List[Tuple[int, int]]:
    """Days covered by *every* list of merged windows."""
    if not window_lists:
        return []
    result = list(window_lists[0])
    for windows in window_lists[1:]:
        narrowed: List[Tuple[int, int]] = []
        for a_low, a_high in result:
            for b_low, b_high in windows:
                low, high = max(a_low, b_low), min(a_high, b_high)
                if low <= high:
                    narrowed.append((low, high))
        result = narrowed
        if not result:
            break
    return result


def _validate_windows(field: str, entries: Sequence[Any]) -> None:
    """Reject out-of-range days and same-scope overlapping windows.

    Raises a :class:`ValueError` that names the offending entry so a
    typo in a hand-written fault file points at its own line instead of
    silently merging into a neighbour.
    """
    for entry in entries:
        if entry.start_day < 0:
            raise ValueError(
                f"{field} entry has out-of-range days: {entry} "
                f"(days must be >= 0)"
            )
    by_scope: Dict[Optional[str], List[Any]] = {}
    for entry in entries:
        by_scope.setdefault(entry.vantage, []).append(entry)
    for scope, members in by_scope.items():
        members.sort(key=lambda e: (e.start_day, e.end_day))
        for previous, current in zip(members, members[1:]):
            if current.start_day <= previous.end_day:
                raise ValueError(
                    f"overlapping {field} windows for vantage "
                    f"{scope if scope is not None else '<global>'}: "
                    f"{previous} overlaps {current}"
                )


def _protocol_mask(protocols: Any) -> int:
    """Accept a raw bitmask or a list of protocol labels."""
    if isinstance(protocols, int):
        return protocols
    mask = 0
    for label in protocols:
        try:
            mask |= int(_LABEL_TO_PROTOCOL[label])
        except KeyError:
            raise ValueError(
                f"unknown protocol label {label!r}; "
                f"expected one of {sorted(_LABEL_TO_PROTOCOL)}"
            ) from None
    return mask


def load_fault_plan(stream: IO[str]) -> FaultPlan:
    """Read a fault plan from a JSON file (the CLI's ``--faults``)."""
    data = json.load(stream)
    if not isinstance(data, dict):
        raise ValueError("fault plan file must contain a JSON object")
    return FaultPlan.from_dict(data)
