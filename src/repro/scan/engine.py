"""Batched, shard-parallel scan engine (the ZMap speed lesson).

The package's one probe kernel: every scan and every APD detection
wave walks the ground truth once per target.

* :meth:`SimInternet.probe_batch_arrays` answers response mask, origin
  AS and genuine-DNS behavior for a whole chunk in a single column-
  oriented ground-truth walk;
* per-target SplitMix64 loss/retry/injection draws run as bulk big-int
  SIMD over 128-bit lanes (:mod:`repro.scan.vecmix`) instead of one
  finalizer chain per target;
* target chunks can be sharded across a warm ``concurrent.futures``
  worker pool (opt-in via ``ServiceSettings.scan_workers`` /
  ``--scan-workers``).

The parallel path is built for cheap IPC: the target pool is published
to the workers once per scan through a shared anonymous mmap written
before the fork, tasks carry only ``(start, stop)`` index ranges, and each
chunk returns a :class:`repro.scan.wire.PackedChunkResult` of integer-
coded indices that the parent decodes during the in-order merge.  The
pool is forked once (``warm()``) and stays warm across every scan of a
campaign; each pool binds its scanner through the executor initializer,
so two live engines in one process cannot clobber each other.

Determinism contract (what checkpoint/resume and the deterministic
metric families depend on): the chunk partition is fixed by
``chunk_size`` alone, every chunk is a pure function of (scanner
configuration, targets, day, qname), and chunk results are merged in
chunk order — so responder sets, metric counter totals, the
control-domain NS log and checkpoint bytes are byte-identical for any
worker count, including ``workers=1``.
"""

from __future__ import annotations

import time
from array import array
from typing import Dict, List, Optional, Sequence, Tuple, TYPE_CHECKING

from repro._util import mix64
from repro.net.teredo import TEREDO_PREFIX
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Tracer
from repro.protocols import Protocol, RecordType
from repro.scan import wire
from repro.scan.vecmix import bulk_mix64_xor, pack_bases, pack_padded, unpack_lanes
from repro.scan.wire import PackedChunkResult
from repro.simnet.gfwsim import _TEREDO_SERVERS, InjectionMode
from repro.simnet.hosts import DnsBehavior
from repro.simnet.internet import ControlNsQuery

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.scan.zmap import ScanResult, Udp53Result, ZMapScanner

_M64 = 0xFFFFFFFFFFFFFFFF
_TEREDO_BASE = TEREDO_PREFIX.value

#: the four cheap protocols probed from one fused 64-bit loss draw, in
#: 16-bit-slice order
FAST_PROTOCOLS = (Protocol.ICMP, Protocol.TCP80, Protocol.TCP443, Protocol.UDP443)

#: default shard size; small enough to keep worker queues busy on the
#: default scenario, large enough that per-chunk overhead is noise
DEFAULT_CHUNK_SIZE = 4096

#: initial shared-pool capacity: 4 MiB holds 256k packed targets, so the
#: default scenario never re-forks after the first sizing
_MIN_POOL_BYTES = 1 << 22

#: DnsBehavior -> wire.GENUINE_* code for the behaviors whose response
#: variant does not depend on per-target draws or qname resolution
_BEHAVIOR_CODE = {
    DnsBehavior.NOT_DNS: wire.GENUINE_REFUSED,
    DnsBehavior.AUTH_OR_CLOSED: wire.GENUINE_REFUSED,
    DnsBehavior.REFERRAL: wire.GENUINE_REFERRAL,
}


class _ScanContext:
    """Per-(scanner, day, qname) constants hoisted out of the hot loop."""

    __slots__ = (
        "inject_possible", "resolved", "is_control", "mday",
        "inject_day_hash", "burst_cut", "inj_wide", "inj_ranges",
    )

    def __init__(self, scanner: "ZMapScanner", day: int, qname: str) -> None:
        internet = scanner._internet
        gfw = internet.gfw
        era = gfw.active_era(day)
        self.inject_possible = era is not None and gfw.is_blocked(qname)
        # injection-draw constants (GreatFirewall.inject, hoisted)
        self.inject_day_hash = mix64(day ^ gfw._seed)
        # kept as float: inject compares the modulus against
        # probability*1e6 unrounded, and the boundary draw must agree
        self.burst_cut = gfw._burst_probability * 1_000_000
        self.inj_wide = era is not None and era.mode is not InjectionMode.A_RECORD
        self.inj_ranges = tuple(
            (base, (1 << (32 - length)) - 1)
            for base, length, _owner in gfw._pool.ranges
        )
        self.resolved = internet.resolve_name(qname)
        self.is_control = internet._is_control_name(qname)
        self.mday = mix64(day)


def _retry(attempts: List[bytes], index: int) -> Tuple[bool, int]:
    """Whether a probe lost at its first attempt survives a re-draw of
    ``attempts`` (per-attempt survival bytes), and the re-draws taken."""
    for attempt in range(1, len(attempts)):
        if attempts[attempt][index]:
            return True, attempt
    return False, len(attempts) - 1


def _scan_chunk_packed(
    scanner: "ZMapScanner",
    targets: Sequence[int],
    base_index: int,
    day: int,
    qname: str,
    ctx: _ScanContext,
    keep_scannable: bool,
    crosses_cache: Dict[Optional[int], bool],
) -> PackedChunkResult:
    """Fused five-protocol scan of one chunk — a pure function.

    Agrees bit for bit with the scalar per-protocol scanner kept as the
    differential oracle in the test suite: same loss draws, retry-draw
    accounting, burst handling and injection draw sequence.  The chunk
    covers pool positions ``base_index .. base_index +
    len(targets)``; all emitted indices are pool-global.  Only
    ``crosses_cache`` (a memo of the pure ``GfwBoundary.crosses``) is
    mutated, so chunks can run in any process or thread.
    """
    internet = scanner._internet
    loss = scanner.loss
    result = PackedChunkResult()

    # blocklist filter; live targets keep their pool-global index
    if len(scanner._blocklist):
        is_blocked = scanner._blocklist.is_blocked
        live: List[int] = []
        live_idx: List[int] = []
        flags = bytearray(len(targets))
        for offset, target in enumerate(targets):
            if is_blocked(target):
                continue
            live.append(target)
            live_idx.append(base_index + offset)
            flags[offset] = 1
        if keep_scannable:
            result.scannable_bits = wire.pack_bitmask(flags)
    else:
        live = list(targets)
        live_idx = list(range(base_index, base_index + len(targets)))
        if keep_scannable:
            result.scannable_bits = wire.pack_bitmask(bytes((1,)) * len(targets))
    result.count = len(live)

    # correlated loss bursts kill every probe of a target at once and
    # are not retryable — drop those targets before any draw
    lost = loss.burst_lost(live, day)
    if lost is not None:
        result.burst_targets = sum(lost)
        live = [target for target, gone in zip(live, lost) if not gone]
        live_idx = [gidx for gidx, gone in zip(live_idx, lost) if not gone]

    n = len(live)
    if n == 0:
        return result

    masks, asns, behaviors = internet.probe_batch_arrays(live, day, qname)

    # bulk SplitMix64 over all targets of the chunk: per-attempt loss
    # survival of the fused fast draw and of the UDP/53 draw
    packed, kit = lanes = pack_bases(live)
    nibs = loss.survival(lanes, day)
    oks = loss.survival(lanes, day, Protocol.UDP53)

    inject_possible = ctx.inject_possible
    if inject_possible:
        inj_draws = unpack_lanes(
            bulk_mix64_xor(packed, ctx.inject_day_hash, kit), kit
        )
        crosses = internet.gfw._boundary.crosses
        burst_cut = ctx.burst_cut
        result.inj_wide = ctx.inj_wide
        inj_xor: List[int] = []

    # genuine-DNS variant codes that need no per-target work
    behavior_code = _BEHAVIOR_CODE
    open_code = (
        wire.GENUINE_NOERROR if ctx.resolved else wire.GENUINE_NXDOMAIN
    )
    control_flag = wire.FLAG_CONTROL if ctx.is_control else 0
    mday = ctx.mday

    fast0, fast1, fast2, fast3 = result.fast_idx
    f0_append = fast0.append
    f1_append = fast1.append
    f2_append = fast2.append
    f3_append = fast3.append
    udp_idx_append = result.udp_idx.append
    udp_meta_append = result.udp_meta.append
    inj_counts_append = result.inj_counts.append
    fast_draws = 0
    udp_draws = 0

    for i, (gidx, target, mask, behavior, s, ok) in enumerate(
        zip(live_idx, live, masks, behaviors, nibs[0], oks[0])
    ):
        # fast protocols: four probes drawn from disjoint 16-bit slices
        # of one 64-bit hash, re-drawn until every slice survived once
        if mask:
            if s != 0b1111:
                for attempt in range(1, len(nibs)):
                    s |= nibs[attempt][i]
                    if s == 0b1111:
                        fast_draws += attempt
                        break
                else:
                    fast_draws += len(nibs) - 1
            if s & 1 and mask & 1:  # ICMP
                f0_append(gidx)
            if s & 2 and mask & 2:  # TCP80
                f1_append(gidx)
            if s & 4 and mask & 4:  # TCP443
                f2_append(gidx)
            if s & 8 and mask & 16:  # UDP443
                f3_append(gidx)

        # UDP/53: loss is drawn for every non-burst target (the GFW can
        # inject even when the target itself is dead)
        if not ok:
            ok, draws = _retry(oks, i)
            udp_draws += draws
            if not ok:
                continue

        meta = 0
        count = 0  # extra answers that arrive before the genuine one
        if inject_possible:
            asn = asns[i]
            crossing = crosses_cache.get(asn)
            if crossing is None:
                crossing = crosses(asn)
                crosses_cache[asn] = crossing
            if crossing:
                base_draw = inj_draws[i]
                count = 2 + base_draw % 2  # two or three injectors answer
                if (base_draw >> 32) % 1_000_000 < burst_cut:
                    count = 64 + base_draw % 400  # rare pathological bursts
                inj_xor.append((base_draw, count))

        if behavior is not None:
            code = behavior_code.get(behavior)
            if code is not None:
                meta |= code
            elif behavior is DnsBehavior.BROKEN:
                # SimInternet._answer_as: parity of mix64(target ^ mix64(day))
                if mix64(target ^ mday) % 2:
                    meta |= wire.GENUINE_SERVFAIL
                else:
                    meta |= wire.GENUINE_BROKEN_ANSWER
            else:  # open / proxy resolver
                meta |= open_code
                if open_code == wire.GENUINE_NOERROR and control_flag:
                    meta |= control_flag
                    if behavior is DnsBehavior.PROXY_RESOLVER:
                        meta |= wire.FLAG_PROXY

        if meta or count:
            udp_idx_append(gidx)
            udp_meta_append(meta)
            inj_counts_append(count)

    result.fast_retry_draws = fast_draws
    result.udp_retry_draws = udp_draws

    # second bulk pass: the per-response injection draws.  The draw for
    # response k of a target is mix64(base_draw ^ (k+1)) — flatten all
    # (target, k) pairs, mix them in lanes, then map draws to payload
    # ints (A-record IPv4s, or full Teredo AAAA addresses as lo/hi).
    if inject_possible and inj_xor:
        flat: List[int] = []
        for base_draw, count in inj_xor:
            flat.extend(base_draw ^ k for k in range(1, count + 1))
        total = len(flat)
        packed, kit = pack_padded(flat)
        draws = unpack_lanes(bulk_mix64_xor(packed, 0, kit), kit)
        ranges = ctx.inj_ranges
        nranges = len(ranges)
        answers_append = result.inj_answers.append
        if result.inj_wide:
            servers = _TEREDO_SERVERS
            for j in range(total):
                draw = draws[j]
                base, host_mask = ranges[draw % nranges]
                ipv4 = base | (draw >> 8) & host_mask
                # inlined encode_teredo (flags=0, fields in range by
                # construction): server/port/client in RFC 4380 layout
                port = 1024 + (draw >> 16) % 60000
                address = (
                    _TEREDO_BASE
                    | (servers[draw % 2] << 64)
                    | ((port ^ 0xFFFF) << 32)
                    | (ipv4 ^ 0xFFFFFFFF)
                )
                answers_append(address & _M64)
                answers_append(address >> 64)
        else:
            for j in range(total):
                draw = draws[j]
                base, host_mask = ranges[draw % nranges]
                answers_append(base | (draw >> 8) & host_mask)
    return result


class _WorkerState:
    """Per-worker bindings: scanner, shared target pool, scan-state memo.

    Created by the parent and handed to every pool worker through the
    executor initializer — under a fork start method the object is
    inherited, never pickled, so it can carry the mmap.  Each engine's
    pool gets its own instance, which is what lets two live engines in
    one process shard correctly (no module-global scanner).
    """

    __slots__ = ("scanner", "pool", "ctx", "ctx_key", "crosses_cache")

    def __init__(self, scanner: "ZMapScanner", pool) -> None:
        self.scanner = scanner
        #: packed target pool: an anonymous shared mmap (process pools)
        #: or the packed bytes themselves (thread fallback)
        self.pool = pool
        self.ctx: Optional[_ScanContext] = None
        self.ctx_key: Optional[Tuple[int, str]] = None
        #: GfwBoundary.crosses memo — day-independent, lives for the
        #: whole campaign
        self.crosses_cache: Dict[Optional[int], bool] = {}


#: the state bound into this *worker process* by the pool initializer;
#: never set in the parent
_WORKER_STATE: Optional[_WorkerState] = None


def _init_worker(state: _WorkerState) -> None:
    global _WORKER_STATE
    _WORKER_STATE = state


def _worker_noop() -> None:
    """Warm-up task: forces the executor to fork its workers now."""
    time.sleep(0.01)


def _scan_range(state: _WorkerState, task: Tuple[int, int, int, str, bool]) -> PackedChunkResult:
    """Scan pool positions ``[start, stop)`` against the bound scanner."""
    start, stop, day, qname, keep_scannable = task
    targets = wire.unpack_pool(state.pool, start, stop)
    key = (day, qname)
    if state.ctx_key != key:
        state.ctx = _ScanContext(state.scanner, day, qname)
        state.ctx_key = key
    return _scan_chunk_packed(
        state.scanner, targets, start, day, qname, state.ctx,
        keep_scannable, state.crosses_cache,
    )


def _worker_scan_range(task: Tuple[int, int, int, str, bool]) -> PackedChunkResult:
    """Process-pool entry point; state was bound by :func:`_init_worker`."""
    return _scan_range(_WORKER_STATE, task)


class ScanEngine:
    """Runs the fused five-protocol scan, optionally sharded over workers.

    ``workers=1`` (the default) runs chunks inline; larger values shard
    ``(start, stop)`` ranges of a shared packed target pool over a warm
    ``concurrent.futures`` pool — forked processes where the platform
    supports it (workers inherit the simulated world copy-on-write),
    threads otherwise.  Results are identical either way; see the module
    docstring for the determinism contract.
    """

    def __init__(
        self,
        scanner: "ZMapScanner",
        workers: int = 1,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
        metrics: Optional[MetricsRegistry] = None,
        tracer: Optional[Tracer] = None,
        vantage: Optional[str] = None,
    ) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        self._scanner = scanner
        self._workers = workers
        self._chunk_size = chunk_size
        self._tracer = tracer
        #: fleet member this engine scans for; labels its probe spans so
        #: traces of a multi-vantage campaign attribute chunk time
        self._vantage = vantage
        self._span_attrs = {"vantage": vantage} if vantage is not None else {}
        self._executor = None
        self._pool_mmap = None
        self._pool_capacity = 0
        self._thread_state: Optional[_WorkerState] = None
        #: inline-path scan-state memo (mirrors _WorkerState's)
        self._crosses_cache: Dict[Optional[int], bool] = {}
        self._m_chunks = None
        if metrics is not None:
            # volatile: the chunk count tracks scan_chunk_size, a host
            # tuning knob that checkpoints deliberately do not carry
            self._m_chunks = metrics.counter(
                "repro_engine_chunks_total",
                "Fused scan chunks processed by the scan engine.",
                volatile=True)
            self._m_fused_targets = metrics.counter(
                "repro_engine_fused_targets_total",
                "Targets answered by the fused ground-truth pass.")
            self._m_chunk_seconds = metrics.histogram(
                "repro_engine_chunk_seconds",
                "Wall-clock duration per scan-engine chunk.", volatile=True)
            # volatile: both track scan_workers, a host tuning knob
            self._m_ipc_bytes = metrics.counter(
                "repro_engine_ipc_bytes_total",
                "Worker-pool IPC payload bytes: packed pool publications "
                "plus packed chunk results.", volatile=True)
            self._m_pool_forks = metrics.counter(
                "repro_engine_pool_forks_total",
                "Scan-engine worker processes started (pool creations x "
                "workers; >workers means the shared pool was regrown).",
                volatile=True)

    @property
    def workers(self) -> int:
        """Configured worker count (1 = inline)."""
        return self._workers

    # ------------------------------------------------------------------
    # worker pool

    def warm(self, expected_targets: int = 0) -> None:
        """Fork the worker pool now instead of lazily at the first scan.

        Call once after world build with the expected pool size; the
        shared target buffer is sized so campaign growth never forces a
        mid-run re-fork.  Idempotent; a no-op for ``workers=1``.
        """
        if self._workers > 1:
            self._ensure_executor(expected_targets * wire.TARGET_BYTES)

    def _ensure_executor(self, min_pool_bytes: int = 0):
        """The warm executor, (re)forking only when capacity grew."""
        needed = max(min_pool_bytes, _MIN_POOL_BYTES)
        if self._executor is not None and needed <= self._pool_capacity:
            return self._executor
        self.close()
        capacity = 1 << (needed - 1).bit_length()
        import multiprocessing
        from concurrent.futures import (
            ProcessPoolExecutor, ThreadPoolExecutor, wait,
        )

        if "fork" in multiprocessing.get_all_start_methods():
            import mmap

            # anonymous MAP_SHARED memory created before the fork: the
            # parent rewrites it between scans and every worker sees the
            # new bytes without any per-chunk pickling
            self._pool_mmap = mmap.mmap(-1, capacity)
            state = _WorkerState(self._scanner, self._pool_mmap)
            self._executor = ProcessPoolExecutor(
                max_workers=self._workers,
                mp_context=multiprocessing.get_context("fork"),
                initializer=_init_worker,
                initargs=(state,),
            )
            # force the forks now — back-to-back submits spawn the full
            # complement before any worker turns idle, so the campaign
            # never pays fork latency mid-scan
            wait([
                self._executor.submit(_worker_noop)
                for _ in range(self._workers)
            ])
        else:  # pragma: no cover - non-fork platforms
            self._thread_state = _WorkerState(self._scanner, b"")
            self._executor = ThreadPoolExecutor(max_workers=self._workers)
        self._pool_capacity = capacity
        if self._m_chunks is not None:
            self._m_pool_forks.inc(self._workers)
        return self._executor

    def close(self) -> None:
        """Shut down the worker pool (idempotent; pool re-opens on use)."""
        if self._executor is not None:
            self._executor.shutdown()
            self._executor = None
        if self._pool_mmap is not None:
            self._pool_mmap.close()
            self._pool_mmap = None
        self._thread_state = None
        self._pool_capacity = 0

    def _publish_pool(self, packed: bytes) -> None:
        """Make this scan's packed target pool visible to all workers."""
        self._ensure_executor(len(packed))
        if self._pool_mmap is not None:
            self._pool_mmap[0:len(packed)] = packed
        else:  # pragma: no cover - non-fork platforms
            self._thread_state.pool = packed
        if self._m_chunks is not None:
            self._m_ipc_bytes.inc(len(packed))

    # ------------------------------------------------------------------
    # scanning

    def scan_all_protocols(
        self, targets: Sequence[int], day: int, qname: str,
    ) -> Tuple[Dict[Protocol, "ScanResult"], "Udp53Result"]:
        """Fused scan of all five hitlist protocols over one target set.

        Responder sets, metric totals, retry/burst accounting and the
        control-NS log are identical for any ``workers``/``chunk_size``.
        The engine probes whatever it is handed: whether the vantage is
        up at all is the fleet roster's decision, made before any scan.
        """
        from repro.scan.zmap import ScanResult, Udp53Result, variant_answers

        scanner = self._scanner
        plan = scanner.loss.fault_plan
        if not isinstance(targets, list):
            targets = list(targets)
        limited = plan is not None and any(
            plan.limits_protocol(protocol)
            for protocol in (*FAST_PROTOCOLS, Protocol.UDP53)
        )
        chunk_size = self._chunk_size
        ranges = [
            (start, min(start + chunk_size, len(targets)))
            for start in range(0, len(targets), chunk_size)
        ]
        ctx = _ScanContext(scanner, day, qname)
        udp53 = Udp53Result(
            day=day, qname=qname, variants=variant_answers(ctx.resolved),
            extra_rtype=RecordType.AAAA if ctx.inj_wide else RecordType.A,
        )
        chunk_results = self._run_chunks(targets, ranges, day, qname, limited, ctx)

        # deterministic merge, in chunk order
        fast_sets: List[set] = [set(), set(), set(), set()]
        count = 0
        burst_targets = 0
        fast_draws = 0
        udp_draws = 0
        scannable: Optional[List[int]] = [] if limited else None
        control_entries: List[Tuple[str, int]] = []
        getitem = targets.__getitem__
        for (start, stop), chunk_result in zip(ranges, chunk_results):
            count += chunk_result.count
            burst_targets += chunk_result.burst_targets
            fast_draws += chunk_result.fast_retry_draws
            udp_draws += chunk_result.udp_retry_draws
            for found, idx in zip(fast_sets, chunk_result.fast_idx):
                found.update(map(getitem, idx))
            self._decode_udp(chunk_result, targets, udp53, control_entries)
            if scannable is not None:
                bits = chunk_result.scannable_bits
                for offset in wire.iter_bitmask(bits, stop - start):
                    scannable.append(targets[start + offset])
        udp53.targets = count
        log = scanner._internet.control_ns_log
        for logged_qname, egress in control_entries:
            log.append(ControlNsQuery(qname=logged_qname, source=egress))

        # per-AS rate limiting needs the full probed list, so it runs
        # after the merge (identical to the pre-engine per-scan ordering)
        rate_limited: Dict[Protocol, int] = {}
        udp_rate_limited = 0
        if limited and scannable is not None:
            internet = scanner._internet

            def origin(address: int) -> Optional[int]:
                return internet.origin_as(address, day)

            for index, protocol in enumerate(FAST_PROTOCOLS):
                if plan.limits_protocol(protocol):
                    suppressed = plan.suppressed_responders(
                        scannable, protocol, day, origin
                    )
                    rate_limited[protocol] = len(fast_sets[index] & suppressed)
                    fast_sets[index] -= suppressed
            if plan.limits_protocol(Protocol.UDP53):
                for address in plan.suppressed_responders(
                    scannable, Protocol.UDP53, day, origin
                ):
                    if address in udp53.responders:
                        udp_rate_limited += 1
                    udp53.responders.discard(address)
                    udp53.records.pop(address, None)

        self._flush_metrics(
            count, burst_targets, fast_draws + udp_draws, fast_sets,
            udp53, rate_limited, udp_rate_limited, len(ranges),
        )
        results = {
            protocol: ScanResult(
                protocol=protocol, day=day, targets=count,
                responders=frozenset(fast_sets[index]),
            )
            for index, protocol in enumerate(FAST_PROTOCOLS)
        }
        return results, udp53

    def _decode_udp(
        self,
        chunk: PackedChunkResult,
        targets: List[int],
        udp53: "Udp53Result",
        control_entries: List[Tuple[str, int]],
    ) -> None:
        """Record the chunk's UDP/53 hits from the packed wire format.

        Each hit becomes one answer record — its variant code and the
        payload ints of its extra answers — in target order, so
        responder sets, records and control-log order are identical for
        any worker count.
        """
        payloads = chunk.inj_answers
        if chunk.inj_wide:  # 128-bit Teredo answers ship as lo, hi slots
            payloads = [
                lo | hi << 64 for lo, hi in zip(payloads[0::2], payloads[1::2])
            ]
        records = udp53.records
        ai = 0  # cursor into the extra-answer payloads
        for target_index, meta, count in zip(
            chunk.udp_idx, chunk.udp_meta, chunk.inj_counts
        ):
            target = targets[target_index]
            if meta & wire.FLAG_CONTROL:
                egress = target
                if meta & wire.FLAG_PROXY:
                    egress = target ^ mix64(target) & 0xFFFF
                control_entries.append((udp53.qname, egress))
            records[target] = (
                meta & wire.GENUINE_MASK, tuple(payloads[ai:ai + count])
            )
            ai += count
        udp53.responders.update(map(targets.__getitem__, chunk.udp_idx))

    def _run_chunks(
        self,
        targets: List[int],
        ranges: List[Tuple[int, int]],
        day: int,
        qname: str,
        limited: bool,
        ctx: Optional[_ScanContext],
    ) -> List[PackedChunkResult]:
        scanner = self._scanner
        tracer = self._tracer
        observe = (
            self._m_chunk_seconds.observe if self._m_chunks is not None else None
        )
        results: List[PackedChunkResult] = []
        if self._workers == 1 or len(ranges) <= 1:
            for index, (start, stop) in enumerate(ranges):
                began = time.perf_counter()
                if tracer is not None:
                    with tracer.span(
                        "probe-chunk", day=day, chunk=index, **self._span_attrs
                    ):
                        results.append(_scan_chunk_packed(
                            scanner, targets[start:stop], start, day, qname,
                            ctx, limited, self._crosses_cache,
                        ))
                else:
                    results.append(_scan_chunk_packed(
                        scanner, targets[start:stop], start, day, qname,
                        ctx, limited, self._crosses_cache,
                    ))
                if observe is not None:
                    observe(time.perf_counter() - began)
            return results

        self._publish_pool(wire.pack_pool(targets))
        tasks = [(start, stop, day, qname, limited) for start, stop in ranges]
        # batch submission: the parent wakes up per task *batch*, not per
        # chunk, and tiny (start, stop) tuples are all that gets pickled
        map_chunksize = max(1, -(-len(tasks) // (self._workers * 4)))
        if self._pool_mmap is not None:
            outputs = self._executor.map(
                _worker_scan_range, tasks, chunksize=map_chunksize
            )
        else:  # pragma: no cover - non-fork platforms
            from functools import partial

            outputs = self._executor.map(
                partial(_scan_range, self._thread_state), tasks,
                chunksize=map_chunksize,
            )
        ipc_bytes = 0
        for index, result in enumerate(outputs):
            # parent-side wait per chunk: overlapping worker time shows
            # up as near-zero waits on all but the slowest chunk
            began = time.perf_counter()
            if tracer is not None:
                with tracer.span(
                    "probe-chunk", day=day, chunk=index, **self._span_attrs
                ):
                    results.append(result)
            else:
                results.append(result)
            ipc_bytes += result.nbytes()
            if observe is not None:
                observe(time.perf_counter() - began)
        if self._m_chunks is not None:
            self._m_ipc_bytes.inc(ipc_bytes)
        return results

    def _flush_metrics(
        self,
        count: int,
        burst_targets: int,
        retry_draws: int,
        fast_sets: List[set],
        udp53: "Udp53Result",
        rate_limited: Dict[Protocol, int],
        udp_rate_limited: int,
        chunk_count: int,
    ) -> None:
        """Identical counter totals to the pre-engine two-stage flush."""
        scanner = self._scanner
        scanner.probes_sent += 5 * count
        if self._m_chunks is not None:
            self._m_chunks.inc(chunk_count)
            self._m_fused_targets.inc(count)
        if scanner._metrics is None:
            return
        if retry_draws:
            scanner._m_retries.inc(retry_draws)
        if burst_targets:
            # four fast probes plus the UDP/53 probe per burst target
            scanner._m_burst.inc(5 * burst_targets)
        for index, protocol in enumerate(FAST_PROTOCOLS):
            scanner._m_probes.labels(protocol=protocol.label).inc(count)
            scanner._m_hits.labels(protocol=protocol.label).inc(
                len(fast_sets[index])
            )
            if rate_limited.get(protocol):
                scanner._m_rate_limited.labels(protocol=protocol.label).inc(
                    rate_limited[protocol]
                )
        udp_label = Protocol.UDP53.label
        scanner._m_probes.labels(protocol=udp_label).inc(count)
        scanner._m_hits.labels(protocol=udp_label).inc(len(udp53.responders))
        if udp_rate_limited:
            scanner._m_rate_limited.labels(protocol=udp_label).inc(
                udp_rate_limited
            )


def apd_probe_pass(
    scanner: "ZMapScanner",
    prefix_probes: Sequence[Tuple[object, Sequence[int]]],
    day: int,
) -> List[Tuple[set, set]]:
    """Batched ICMP + TCP/80 responder sets for APD probe lists.

    For each ``(prefix, probes)`` pair, yields the ICMP and TCP/80
    responders of a per-protocol scan of ``probes`` — the scalar
    semantics of loss draws, retry accounting, burst counting,
    per-prefix rate limiting and metric totals — while the whole batch
    shares one :meth:`SimInternet.probe_batch_arrays` walk (origin ASes
    skipped: APD reads only the response masks).
    """
    if not prefix_probes:
        return []
    plan = scanner.loss.fault_plan
    internet = scanner._internet
    blocklist = scanner._blocklist
    if len(blocklist):
        is_blocked = blocklist.is_blocked
        scannables = [
            [probe for probe in probes if not is_blocked(probe)]
            for _prefix, probes in prefix_probes
        ]
    else:
        scannables = [list(probes) for _prefix, probes in prefix_probes]
    flat = [probe for scannable in scannables for probe in scannable]
    masks, _origins, _behaviors = internet.probe_batch_arrays(
        flat, day, origins=False
    )
    # one bulk loss draw per protocol for the whole wave
    loss = scanner.loss
    lost = loss.burst_lost(flat, day)
    streams = [
        (
            protocol, bit, loss.survival_of(flat, day, protocol),
            plan is not None and plan.limits_protocol(protocol),
        )
        for protocol, bit in ((Protocol.ICMP, 1), (Protocol.TCP80, 2))
    ]

    def origin(address: int) -> Optional[int]:
        return internet.origin_as(address, day)

    out: List[Tuple[set, set]] = []
    offset = 0
    for scannable in scannables:
        count = len(scannable)
        kept = range(offset, offset + count)
        offset += count
        if lost is not None:
            kept = [j for j in kept if not lost[j]]
        total_draws = 0
        found = []
        for protocol, bit, oks, limited in streams:
            responders: set = set()
            ok0 = oks[0]
            for j in kept:
                ok = ok0[j]
                if not ok:
                    ok, draws = _retry(oks, j)
                    total_draws += draws
                if ok and masks[j] & bit:
                    responders.add(flat[j])
            rate_limited = 0
            if limited:
                suppressed = plan.suppressed_responders(
                    scannable, protocol, day, origin
                )
                rate_limited = len(responders & suppressed)
                responders -= suppressed
            found.append((responders, rate_limited))
        scanner.probes_sent += 2 * count
        if scanner._metrics is not None:
            if total_draws:
                scanner._m_retries.inc(total_draws)
            if count > len(kept):
                # each burst swallows both the ICMP and the TCP/80 probe
                scanner._m_burst.inc(2 * (count - len(kept)))
            for (protocol, *_), (responders, rate_limited) in zip(streams, found):
                label = protocol.label
                scanner._m_probes.labels(protocol=label).inc(count)
                scanner._m_hits.labels(protocol=label).inc(len(responders))
                if rate_limited:
                    scanner._m_rate_limited.labels(protocol=label).inc(rate_limited)
        out.append((found[0][0], found[1][0]))
    return out
