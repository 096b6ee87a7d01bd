"""Incremental, churn-aware scan scheduling.

Every scan day used to walk the full target pool even though the
longitudinal design of the source paper makes most of that work
redundant: stable prefixes barely move between scans.  The
:class:`IncrementalScheduler` exploits this.  It maintains per-/64
priority state (EWMA hit rate, days since last change, new/degraded
flags) and partitions the pool each scan day into three classes:

* **full-probe** prefixes — churned, new-from-sources, recently
  degraded, or due for a periodic refresh; probed end to end through
  the mmap/packed-wire parallel path,
* **confirmation-sample** prefixes — stable prefixes drawn by a
  deterministic ``mix64``-seeded lottery at a configurable rate; also
  probed, and any contradiction with the carried state counts as a
  divergence repair and demotes the prefix back to full probing,
* **carried-forward** prefixes — replayed from the carry store during
  the in-order merge, so snapshots, metrics, and checkpoint bytes stay
  deterministic for any worker count.

The scheduling unit is the /64 prefix: a prefix is wholly probed or
wholly carried, which makes the tiling property (probed and carried
partitions are disjoint and cover the pool exactly) true by
construction.

Carrying a result forward does NOT mean replaying yesterday's
responder set verbatim.  The carry store keeps an estimated
*ground-truth response mask* per address (which protocols the host
answers, plus a GFW-injection flag), and replay re-applies the day's
loss draws through the same :class:`~repro.scan.loss.LossModel` the
scan engine probes with — pure SplitMix64 functions of (address,
protocol, day, seed) that need no probe to evaluate.  For a prefix
whose ground truth has not changed, the replayed responders are
bit-identical to what a real probe would have returned, including the
day's loss flicker.  The same trick makes change detection
flicker-immune: a probed prefix counts as *changed* only when its
observed bits differ from the loss-filtered expectation, never because
a probe happened to be lost.  All state rides in checkpoints via
:meth:`IncrementalScheduler.state_dict`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, TYPE_CHECKING

from repro._util import mix64
from repro.protocols import Protocol
from repro.scan.loss import LossModel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.gfw.filter import ScanCleaningResult
    from repro.obs.metrics import MetricsRegistry
    from repro.scan.zmap import ScanResult, Udp53Result

_M64 = 0xFFFFFFFFFFFFFFFF
_UINT64_SPAN = float(1 << 64)
#: salt separating the confirmation-sample lottery from every other
#: SplitMix64 stream in the simulation
_SAMPLE_SALT = 0x5C4ED5C4ED
#: salt for the per-prefix refresh phase (staggers periodic refreshes so
#: a /48 whose prefixes stabilised together does not refresh in a wave)
_REFRESH_SALT = 0x9EF9E54
#: escalation radius for detected churn: prefixes sharing a /48 with a
#: changed prefix are re-probed next scan (CPE rotation renumbers whole
#: customer groups at once, so churn is spatially correlated)
_GROUP_SHIFT = 16
#: rotation-detection radius: ISP CPE pools are /40-ish, so one
#: renumbering wave lands across the pool's /48s but inside one /40
_ROTATION_SHIFT = 24

#: carry-store bits, one per protocol; the five responder bits line up
#: with :meth:`LossModel.replay_masks`
BIT_ICMP = 0x01
BIT_TCP80 = 0x02
BIT_TCP443 = 0x04
BIT_UDP443 = 0x08
BIT_UDP53 = 0x10
#: the address's UDP/53 responses carried injection evidence
BIT_INJECTED = 0x20
_RESPONDER_BITS = 0x1F
#: an address whose only "response" is a forged GFW injection: quiet in
#: the cleaned view (the filter subtracts it), but its replay must keep
#: flowing or the 30-day filter would age it out earlier than full mode
_INJECTED_ONLY = BIT_UDP53 | BIT_INJECTED

#: fast-path protocols paired with their carry bit, in the order the
#: engine's fused loss draw slices them
FAST_BITS: Tuple[Tuple[Protocol, int], ...] = (
    (Protocol.ICMP, BIT_ICMP),
    (Protocol.TCP80, BIT_TCP80),
    (Protocol.TCP443, BIT_TCP443),
    (Protocol.UDP443, BIT_UDP443),
)

#: a stable prefix is fully re-probed at least every this many scans
DEFAULT_REFRESH_INTERVAL = 10
DEFAULT_SAMPLE_RATE = 0.03125
#: consecutive unchanged probes before a prefix counts as stable
STABLE_AFTER = 2
#: each observed response-mask flap lengthens the unchanged streak a
#: prefix must rebuild before it is carried again; hosts flap in
#: multi-day epochs, so one flap is strong evidence of more to come
FLAP_PENALTY = 6
#: prefixes that flapped this many times are never carried again —
#: their hosts have duty cycles, not stable responsiveness
MAX_FLAPS = 4
#: this many prefixes of one /48 going silent in the same scan is CPE
#: renumbering, not host churn: the abandoned addresses never answer
#: again, so they skip the quiet-age probation entirely
ROTATION_MIN_PREFIXES = 3
#: a prefix is carried only once this many days have passed since its
#: last observed change.  Host duty cycles run up to ~4 weeks, so a
#: quiet spell shorter than this is indistinguishable from a flappy
#: host's dark epoch; older silence is near-certainly a dead address
QUIET_AGE_DAYS = 30
#: EWMA smoothing factor for per-prefix hit rates
EWMA_ALPHA = 0.25
#: a probe whose hit rate falls below this fraction of the EWMA marks
#: the prefix degraded (probed fully until it stabilises again)
DEGRADE_FACTOR = 0.5
#: EWMAs below this floor are noise, not a baseline to degrade from;
#: without it a dead prefix would oscillate into full probing forever
DEGRADE_FLOOR = 0.05


@dataclass
class PrefixPriority:
    """Churn/responsiveness state for one /64 prefix."""

    last_probe_day: int = -1
    #: day this prefix was first probed; prefixes present since the
    #: campaign's first scan came from input hitlists (historically
    #: responsive somewhere, so host-backed and possibly duty-cycled)
    #: and never qualify for the never-visible fast-track
    first_probe_day: int = -1
    last_change_day: int = -1
    unchanged_probes: int = 0
    #: consecutive scans this prefix has been carried since its last probe
    scans_since_probe: int = 0
    #: EWMA of the per-probe hit rate (loss-corrected: computed from the
    #: ground-truth estimate, not raw observations); -1.0 until the
    #: first probe
    ewma_hit_rate: float = -1.0
    degraded: bool = False
    #: response-mask changes observed after the first probe (capped at
    #: :data:`MAX_FLAPS`); membership churn does not count
    flaps: int = 0
    member_count: int = 0
    #: xor-fold of ``mix64`` over the member addresses — detects
    #: membership churn without storing the members
    member_sig: int = 0
    #: whether any member was ever a cleaned-view responder; prefixes
    #: that never were (trace-discovered routers, injection-only
    #: addresses) skip the quiet-age probation — duty-cycle flapping is
    #: only a risk for space that has actually answered a probe
    ever_visible: bool = False


@dataclass
class ScanPlan:
    """One scan day's partition of the pool."""

    day: int
    pool_size: int
    forced_full: bool
    #: probe set (full + confirmation samples), globally sorted
    probe_targets: List[int]
    #: carried-forward targets, globally sorted
    carried: List[int]
    #: (prefix, sorted members) for every probed prefix
    probe_groups: List[Tuple[int, List[int]]]
    #: prefixes probed as confirmation samples
    sampled: Set[int]
    full_targets: int = 0
    sampled_targets: int = 0
    #: /48 groups escalated to full probing by churn detected last scan
    escalated: Set[int] = field(default_factory=set)


@dataclass
class CarriedScan:
    """Carried-forward responders, shaped for the in-order merge."""

    targets: int
    #: responder sets in ``FAST_BITS`` protocol order
    fast: Tuple[Set[int], ...]
    udp_responders: Set[int]


class IncrementalScheduler:
    """Partition the scan pool into probe / confirmation / carried sets.

    Priorities are fleet-global: the scheduler runs in the coordinator
    before sharding, so vantage members see only the probe set and
    shard it exactly as before.  ``loss`` is the coordinator's loss
    model (default: ``LossModel(seed)``); fleet members draw loss from
    per-vantage seeds, so multi-vantage incremental runs trade a little
    extra divergence for the same probe savings (the gate's
    bit-exactness claim is single-vantage).
    """

    def __init__(
        self,
        seed: int = 0,
        refresh_interval: int = DEFAULT_REFRESH_INTERVAL,
        sample_rate: float = DEFAULT_SAMPLE_RATE,
        loss: Optional[LossModel] = None,
        metrics: Optional["MetricsRegistry"] = None,
    ) -> None:
        if refresh_interval < 1:
            raise ValueError(f"refresh_interval must be >= 1, got {refresh_interval}")
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be within [0, 1], got {sample_rate}")
        self._seed = seed
        self.refresh_interval = refresh_interval
        self.sample_rate = sample_rate
        self._sample_threshold = int(sample_rate * _UINT64_SPAN)
        #: the loss draws replayed over carried and probed prefixes
        self.loss = loss if loss is not None else LossModel(seed)
        self._prefixes: Dict[int, PrefixPriority] = {}
        #: address -> estimated ground-truth response-mask bits
        self._carry: Dict[int, int] = {}
        #: monotone count of plans built; drives the refresh stagger
        self._scan_index = 0
        #: day of the first plan ever built; separates the campaign-start
        #: input cohort from mid-campaign discoveries
        self._first_plan_day = -1
        #: /48 groups flagged for escalation on the next plan
        self._suspects: Set[int] = set()
        self._m_full = self._m_sampled = self._m_carried = self._m_repairs = None
        if metrics is not None:
            self._m_full = metrics.counter(
                "repro_sched_full_targets_total",
                "Targets probed at full rate (churned/new/degraded/refresh-due prefixes)",
            )
            self._m_sampled = metrics.counter(
                "repro_sched_sampled_targets_total",
                "Targets probed as confirmation samples of stable prefixes",
            )
            self._m_carried = metrics.counter(
                "repro_sched_carried_targets_total",
                "Targets whose scan result was replayed from the carry store",
            )
            self._m_repairs = metrics.counter(
                "repro_sched_divergence_repairs_total",
                "Stable prefixes whose confirmation sample contradicted the carried state",
            )

    @staticmethod
    def _signature(members: Sequence[int]) -> int:
        sig = 0
        for address in members:
            sig ^= mix64(address & _M64)
        return sig

    @staticmethod
    def _visible(bits: int) -> int:
        """The cleaned view of a response mask.

        Injection-only DNS "responses" are subtracted by the GFW filter
        before anything is published, so a change in injection status
        alone is not churn: it must update the carry store (replay
        parity feeds the 30-day filter) but must not reset quiet-age
        clocks, count as a flap, or escalate the /48.
        """
        visible = bits & (_RESPONDER_BITS & ~BIT_UDP53)
        if bits & BIT_UDP53 and not bits & BIT_INJECTED:
            visible |= BIT_UDP53
        return visible

    # ------------------------------------------------------------------
    # planning

    def plan(
        self,
        day: int,
        pool: Iterable[int],
        force_full: bool = False,
        must_probe: Optional[Set[int]] = None,
    ) -> ScanPlan:
        """Partition ``pool`` for scan day ``day``.

        ``force_full`` probes every prefix regardless of state — used
        for the final scan of a campaign so the last published hitlist
        carries zero divergence from a full-scan baseline.
        ``must_probe`` addresses are never carried regardless of state;
        the service passes addresses nearing the 30-day filter's
        eviction deadline so a late first response cannot be missed
        while carried and silently evicted.
        """
        if self._first_plan_day < 0:
            self._first_plan_day = day
        pool_set = pool if isinstance(pool, (set, frozenset)) else set(pool)
        groups: Dict[int, List[int]] = {}
        for address in pool_set:
            groups.setdefault(address >> 64, []).append(address)
        # prune state for prefixes/addresses that left the pool so the
        # checkpoint footprint tracks the live pool
        for prefix in [p for p in self._prefixes if p not in groups]:
            del self._prefixes[prefix]
        for address in [a for a in self._carry if a not in pool_set]:
            del self._carry[address]

        probe_targets: List[int] = []
        carried: List[int] = []
        probe_groups: List[Tuple[int, List[int]]] = []
        sampled: Set[int] = set()
        full_targets = 0
        sampled_targets = 0
        day_hash = mix64((day ^ self._seed ^ _SAMPLE_SALT) & _M64)
        scan_index = self._scan_index
        self._scan_index = scan_index + 1
        escalated = self._suspects
        self._suspects = set()
        for prefix in sorted(groups):
            members = sorted(groups[prefix])
            state = self._prefixes.get(prefix)
            # each prefix refreshes once every refresh_interval scans, on
            # a mix64-staggered phase so refreshes spread evenly instead
            # of arriving in the wave the prefixes stabilised in
            refresh_due = (
                scan_index + mix64((prefix ^ self._seed ^ _REFRESH_SALT) & _M64)
            ) % self.refresh_interval == 0
            stable = (
                not force_full
                and state is not None
                and state.last_probe_day >= 0
                and not state.degraded
                and state.flaps < MAX_FLAPS
                and state.unchanged_probes >= STABLE_AFTER + FLAP_PENALTY * state.flaps
                and not refresh_due
                and (prefix >> _GROUP_SHIFT) not in escalated
                # never-visible mid-campaign discoveries (trace routers,
                # injection artifacts) skip the quiet-age probation: a
                # duty cycle is only a risk for space that has actually
                # answered a probe.  The campaign-start cohort keeps it —
                # input hitlists are host-backed, and a host dark on day
                # one blooms within its flap period
                and (
                    (
                        not state.ever_visible
                        and state.first_probe_day > self._first_plan_day
                    )
                    or (
                        state.last_change_day >= 0
                        and day - state.last_change_day >= QUIET_AGE_DAYS
                    )
                )
                and (
                    must_probe is None
                    or all(address not in must_probe for address in members)
                )
                and len(members) == state.member_count
                and self._signature(members) == state.member_sig
                # only quiet prefixes are carried: hosts flap in
                # multi-day duty cycles that no amount of observed
                # stability can rule out, so a carried responder is a
                # standing divergence risk, while a carried silent
                # prefix can only ever miss a first response until its
                # next refresh.  The pool is overwhelmingly silent
                # (the paper's hitlists are ~5 % responsive), so this
                # is where the probe budget actually goes.  Injection-
                # only addresses count as quiet: the cleaned view
                # subtracts them either way
                and all(
                    self._carry.get(address, 0) in (0, _INJECTED_ONLY)
                    for address in members
                )
            )
            if stable and mix64((prefix ^ day_hash) & _M64) >= self._sample_threshold:
                state.scans_since_probe += 1
                carried.extend(members)
                continue
            probe_targets.extend(members)
            probe_groups.append((prefix, members))
            if stable:
                sampled.add(prefix)
                sampled_targets += len(members)
            else:
                full_targets += len(members)
        if self._m_full is not None:
            self._m_full.inc(full_targets)
            self._m_sampled.inc(sampled_targets)
            self._m_carried.inc(len(carried))
        return ScanPlan(
            day=day,
            pool_size=len(pool_set),
            forced_full=force_full,
            probe_targets=probe_targets,
            carried=carried,
            probe_groups=probe_groups,
            sampled=sampled,
            full_targets=full_targets,
            sampled_targets=sampled_targets,
            escalated=escalated,
        )

    def carried_scan(self, plan: ScanPlan) -> CarriedScan:
        """Replay the carried targets' responders for the plan's day.

        Each address's estimated response mask is filtered through the
        day's loss draws (one bulk :meth:`LossModel.replay_masks` call),
        so a carried prefix with unchanged ground truth merges
        bit-identically to a real probe of it.
        """
        fast: Tuple[Set[int], ...] = tuple(set() for _ in FAST_BITS)
        udp: Set[int] = set()
        carry = self._carry
        replayed = [address for address in plan.carried if carry.get(address, 0)]
        survival = self.loss.replay_masks(replayed, plan.day)
        for address, survivors in zip(replayed, survival):
            live = carry[address] & survivors
            if not live:
                continue
            for index, (_, bit) in enumerate(FAST_BITS):
                if live & bit:
                    fast[index].add(address)
            if live & BIT_UDP53:
                udp.add(address)
        return CarriedScan(targets=len(plan.carried), fast=fast, udp_responders=udp)

    def carried_injected(self, plan: ScanPlan, udp_responders: Set[int]) -> Set[int]:
        """Carried UDP/53 responders whose stored responses were injected."""
        carry = self._carry
        return {
            address
            for address in plan.carried
            if address in udp_responders and carry.get(address, 0) & BIT_INJECTED
        }

    # ------------------------------------------------------------------
    # absorbing probe outcomes

    def absorb(
        self,
        plan: ScanPlan,
        results: Dict[Protocol, "ScanResult"],
        udp53: "Udp53Result",
        cleaning: "ScanCleaningResult",
    ) -> None:
        """Fold probed outcomes back into the priority + carry state.

        Change detection is loss-aware: observed bits are compared with
        the carry store's expectation *after* filtering both through the
        day's survival draws, so a lost probe is "no information", not
        churn.  Also re-attributes carried-forward injected responders
        inside ``cleaning`` — carried responders ride into the merge
        without response objects, so the GFW filter classified them
        clean; the carry store remembers which of them were injected.
        """
        day = plan.day
        carry = self._carry
        fast_lookup = [(results[protocol].responders, bit) for protocol, bit in FAST_BITS]
        udp_responders = udp53.responders
        injected = cleaning.injected_responders
        repairs = 0
        survival = iter(self.loss.replay_masks(
            [address for _, members in plan.probe_groups for address in members],
            day,
        ))
        # pass 1: fold observations into the carry store and classify
        # each probed prefix; /48 rotation detection needs the whole
        # scan's transitions before any priority state is updated
        observations = []
        rotation_candidates: Dict[int, int] = {}
        for prefix, members in plan.probe_groups:
            raw_changed = False
            visible_changed = False
            was_visible = False
            now_visible = False
            hits = 0
            for address in members:
                observed = 0
                for responders, bit in fast_lookup:
                    if address in responders:
                        observed |= bit
                if address in udp_responders:
                    observed |= BIT_UDP53
                    if address in injected:
                        observed |= BIT_INJECTED
                survivors = next(survival)
                estimate = carry.get(address, 0)
                expected = estimate & survivors
                if expected & BIT_UDP53 and estimate & BIT_INJECTED:
                    expected |= BIT_INJECTED
                if observed != expected:
                    raw_changed = True
                    if self._visible(observed) != self._visible(expected):
                        visible_changed = True
                if self._visible(estimate):
                    was_visible = True
                # protocols whose probe survived report ground truth;
                # lost probes keep the previous estimate
                if survivors & BIT_UDP53:
                    survivors |= BIT_INJECTED
                updated = (estimate & ~survivors) | (observed & survivors)
                if updated:
                    carry[address] = updated
                elif estimate:
                    del carry[address]
                # hit rates come from the loss-corrected estimate of the
                # *cleaned* view: unlucky loss cannot crater the EWMA,
                # and injection-only addresses are not responders (an
                # injection era ending is not mass host degradation)
                if self._visible(updated):
                    hits += 1
                    now_visible = True
            observations.append(
                (prefix, members, raw_changed, visible_changed, was_visible,
                 now_visible, hits)
            )
            if visible_changed and was_visible and not now_visible:
                group = prefix >> _ROTATION_SHIFT
                rotation_candidates[group] = rotation_candidates.get(group, 0) + 1
        # /48 groups where several prefixes went silent together: CPE
        # renumbering abandoned those addresses for good
        rotated = {
            group
            for group, count in rotation_candidates.items()
            if count >= ROTATION_MIN_PREFIXES
        }
        # pass 2: update priority state
        for (prefix, members, raw_changed, visible_changed, was_visible,
             now_visible, hits) in observations:
            state = self._prefixes.get(prefix)
            if state is None:
                state = self._prefixes[prefix] = PrefixPriority()
            first_probe = state.last_probe_day < 0
            if first_probe:
                state.first_probe_day = day
            # injection-status-only updates (raw change, visible mask
            # unchanged) refresh the carry store silently: the cleaned
            # view subtracts injected responders either way, so an
            # injection era starting or ending is not host churn and
            # must not de-stabilise thousands of quiet prefixes at once
            changed = first_probe or visible_changed
            if now_visible:
                state.ever_visible = True
            renumbered = (
                visible_changed
                and not now_visible
                and prefix >> _ROTATION_SHIFT in rotated
            )
            if visible_changed and not first_probe and not renumbered:
                state.flaps = min(state.flaps + 1, MAX_FLAPS)
                if (prefix >> _GROUP_SHIFT) not in plan.escalated:
                    # churn is spatially correlated (CPE rotation flips
                    # whole customer groups): re-probe the /48 next scan
                    self._suspects.add(prefix >> _GROUP_SHIFT)
            count = len(members)
            sig = self._signature(members)
            membership_changed = count != state.member_count or sig != state.member_sig
            if membership_changed:
                changed = True
                state.member_count = count
                state.member_sig = sig
            rate = hits / count if count else 0.0
            previous = state.ewma_hit_rate
            if membership_changed or previous < 0.0:
                # composition changed: the old EWMA is not a baseline
                state.degraded = False
                state.ewma_hit_rate = rate
            else:
                state.degraded = (
                    previous >= DEGRADE_FLOOR and rate < previous * DEGRADE_FACTOR
                )
                state.ewma_hit_rate = EWMA_ALPHA * rate + (1.0 - EWMA_ALPHA) * previous
            if changed:
                # only visible-mask churn restarts the quiet-age clock;
                # membership growth resets just the short streak, and
                # renumbering-abandoned prefixes backdate it (the old
                # addresses are gone for good, waiting out a duty cycle
                # proves nothing)
                if renumbered:
                    state.last_change_day = day - QUIET_AGE_DAYS
                elif (visible_changed or first_probe):
                    state.last_change_day = day
                state.unchanged_probes = 0
                if prefix in plan.sampled:
                    # confirmation sample contradicted the carry store:
                    # count the repair; zeroed unchanged_probes already
                    # forces full re-probes until the prefix re-stabilises
                    repairs += 1
            else:
                state.unchanged_probes += 1
            state.last_probe_day = day
            state.scans_since_probe = 0
        carried_injected = self.carried_injected(plan, udp_responders)
        if carried_injected:
            cleaning.clean_responders -= carried_injected
            cleaning.injected_responders |= carried_injected
        if self._m_repairs is not None and repairs:
            self._m_repairs.inc(repairs)

    # ------------------------------------------------------------------
    # checkpoints

    def state_dict(self) -> Dict[str, object]:
        """Checkpoint payload; sorted so bytes are deterministic."""
        return {
            "prefixes": [
                [
                    prefix,
                    state.last_probe_day,
                    state.first_probe_day,
                    state.last_change_day,
                    state.unchanged_probes,
                    state.scans_since_probe,
                    state.ewma_hit_rate,
                    int(state.degraded),
                    state.flaps,
                    state.member_count,
                    state.member_sig,
                    int(state.ever_visible),
                ]
                for prefix, state in sorted(self._prefixes.items())
            ],
            "carry": [[address, bits] for address, bits in sorted(self._carry.items())],
            "scan_index": self._scan_index,
            "first_plan_day": self._first_plan_day,
            "suspects": sorted(self._suspects),
        }

    def restore_state(self, state: Dict[str, object]) -> None:
        self._scan_index = int(state.get("scan_index", 0))  # type: ignore[arg-type]
        self._first_plan_day = int(state.get("first_plan_day", -1))  # type: ignore[arg-type]
        self._suspects = {int(g) for g in state.get("suspects", ())}  # type: ignore[union-attr]
        self._prefixes = {}
        for row in state.get("prefixes", ()):  # type: ignore[union-attr]
            (
                prefix, last_probe, first_probe, last_change, unchanged,
                scans_since, ewma, degraded, flaps, count, sig, visible,
            ) = row
            self._prefixes[int(prefix)] = PrefixPriority(
                last_probe_day=int(last_probe),
                first_probe_day=int(first_probe),
                last_change_day=int(last_change),
                unchanged_probes=int(unchanged),
                scans_since_probe=int(scans_since),
                ewma_hit_rate=float(ewma),
                degraded=bool(degraded),
                flaps=int(flaps),
                member_count=int(count),
                member_sig=int(sig),
                ever_visible=bool(visible),
            )
        self._carry = {int(a): int(b) for a, b in state.get("carry", ())}  # type: ignore[union-attr]
