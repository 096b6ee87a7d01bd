"""The ``serve-mixed`` workload: a live asyncio server under closed loops.

Set-up commits a snapshot store with a short real campaign, then starts
``repro.cli serve --backend asyncio`` on loopback and waits for its
first 200.  One client process (this one) drives two keep-alive
connections: first every distinct request once (warm-up), then rounds
that each replay the same two fixed request sequences, one request at a
time (latency) and several in flight (capacity).  Every response is
checked against the bytes the same request gets from an in-process
:class:`PublishApp` over the same store, and every full-artifact body
against the store manifest.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import gzip
import hashlib
import http.client
import os
import pathlib
import random
import resource
import shutil
import signal
import subprocess
import sys
import time
from collections import defaultdict, deque
from typing import Dict, List, Optional, Tuple

import common
import spans as spanlib

MIX = (("full", 30), ("cond", 35), ("delta", 15), ("query", 10), ("manifest", 10))
KINDS = tuple(kind for kind, _weight in MIX)
#: Last scan day of the store-building campaign, per scale.
STORE_LAST_DAY = {"full": 40, "toy": 8}
CONNECTIONS = 2
#: Requests per round in the latency sequence (one in flight) and in the
#: capacity sequence (:data:`CLOSED_DEPTH` in flight per connection), per
#: scale.  Every round replays the same two sequences, so rounds differ
#: only by the host's noise, and each metric is the median over rounds.
LATENCY_REQUESTS = {"full": 1000, "toy": 50}
CAPACITY_REQUESTS = {"full": 3000, "toy": 100}
#: At least this many rounds; more while ``--seconds`` last.
MIN_ROUNDS = 5
#: Requests kept in flight per connection in the capacity sequence, so
#: capacity measures throughput rather than one round trip's latency.
CLOSED_DEPTH = 4
#: Store builds per run; they must commit the same snapshots.
STORE_BUILDS = 3
#: Server starts timed per run (median reported as ``setup_s``).  The
#: store builds are not part of ``setup_s``: they fsync every artifact,
#: and on a shared VM their time moved by 40 % between two sets of runs
#: of the same code while everything else moved by 15 %.
SERVER_STARTS = 5
#: In-process handle passes, alternating untraced and traced.
APP_PASSES = 3
#: Far above any reachable rate: no request is ever refused with 429.
UNLIMITED = "1e12"

Request = Tuple[str, str, Dict[str, str]]  # (kind, target, extra headers)


# ---------------------------------------------------------------------------
# set-up

def build_store(seed: int, last_day: int, root: pathlib.Path) -> float:
    """Commit a short real small-preset campaign to ``root``; returns the
    world-build seconds.  Runs in a child interpreter (see
    :func:`build_store_process`)."""
    from repro.hitlist import HitlistService, default_scan_days
    from repro.simnet import build_internet, small_config

    config = small_config(seed)
    start = time.perf_counter()
    world = build_internet(config)
    build_s = time.perf_counter() - start
    days = [d for d in default_scan_days(config.final_day) if d <= last_day]
    HitlistService(world, config).run(days, publish_dir=str(root))
    return build_s


def build_store_process(seed: int, last_day: int, root: pathlib.Path) -> float:
    """:func:`build_store` in a fresh interpreter, so the campaign's heap
    never sits in the client process, where garbage collection over it
    would stall the client."""
    done = subprocess.run(
        [sys.executable, __file__, "--build-store", str(root),
         "--seed", str(seed), "--last-day", str(last_day)],
        cwd=str(common.ROOT), env=common.child_env(), capture_output=True,
        text=True, timeout=120, check=True,
    )
    return float(done.stdout.split()[-1])


class Server:
    """A ``repro.cli serve --backend asyncio`` subprocess."""

    def __init__(self, store: pathlib.Path, port_file: pathlib.Path) -> None:
        port_file.unlink(missing_ok=True)
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--store", str(store),
             "--backend", "asyncio", "--host", "127.0.0.1", "--port", "0",
             "--rate", UNLIMITED, "--burst", UNLIMITED,
             "--port-file", str(port_file)],
            cwd=str(common.ROOT), env=common.child_env(),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        self.pid = self.process.pid
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            text = port_file.read_text() if port_file.exists() else ""
            if text.strip():
                self.port = int(text)
                break
            if self.process.poll() is not None:
                raise RuntimeError("server exited before announcing its port")
            time.sleep(0.005)
        else:
            self.stop()
            raise RuntimeError("server never announced its port")
        while self.get("/v1/latest")[0] != 200:
            if time.monotonic() > deadline:
                self.stop()
                raise RuntimeError("server never answered 200")
            time.sleep(0.005)

    def get(self, target: str) -> Tuple[int, bytes]:
        try:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=10)
            try:
                conn.request("GET", target, headers={"X-Client-Id": "perfbench"})
                response = conn.getresponse()
                return response.status, response.read()
            finally:
                conn.close()
        except OSError:
            return 0, b""

    def scrape(self) -> Dict[str, float]:
        """Counter totals from the server's ``/metrics``."""
        status, body = self.get("/metrics")
        if status != 200:
            raise RuntimeError(f"/metrics answered {status}")
        totals: Dict[str, float] = defaultdict(float)
        for line in body.decode("utf-8").splitlines():
            if line and not line.startswith("#"):
                name, _, value = line.rpartition(" ")
                totals[name.partition("{")[0]] += float(value)
        return totals

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()


# ---------------------------------------------------------------------------
# requests and their expected answers

def make_corpus(store, rng: random.Random) -> List[Request]:
    """Every request kind, drawn over the whole store, as a weighted pool."""
    from repro.net.prefix import IPv6Prefix

    ids = store.snapshot_ids()
    manifests = [store.manifest(snapshot_id) for snapshot_id in ids]
    head = manifests[-1]
    responsive = store.read_artifact(head.snapshot_id, "responsive").split()
    asns = sorted({
        int(line.split()[1])
        for line in store.read_artifact(head.snapshot_id, "origins").splitlines()
        if line.split()[1:] and line.split()[1].isdigit()
    })
    protocols = sorted(name for name in head.artifacts
                       if name not in ("aliased", "origins"))

    def draw(kind: str) -> Request:
        if kind in ("full", "cond"):
            manifest = rng.choice(manifests)
            name = rng.choice(sorted(manifest.artifacts))
            target = f"/v1/snapshots/{manifest.snapshot_id}/{name}"
            if kind == "full":
                return kind, target, {}
            return kind, target, {"If-None-Match": f'"{manifest.digest_of(name)}"'}
        if kind == "delta":
            first, second = sorted(rng.sample(range(len(ids)), 2))
            return kind, f"/v1/delta/{ids[first]}/{ids[second]}", {}
        if kind == "query":
            if asns and rng.random() < 0.25:
                return kind, f"/v1/query?asn={rng.choice(asns)}", {}
            length = rng.choice((32, 48))
            prefix = IPv6Prefix.from_string(f"{rng.choice(responsive)}/128")
            text = str(prefix.supernet(length))
            return kind, (f"/v1/query?prefix={text}"
                          f"&protocol={rng.choice(protocols)}"), {}
        choice = rng.randrange(len(ids) + 2)
        if choice == len(ids):
            return kind, "/v1/snapshots", {}
        if choice == len(ids) + 1:
            return kind, "/v1/latest", {}
        return kind, f"/v1/snapshots/{ids[choice]}", {}

    weighted = [kind for kind, weight in MIX for _ in range(weight)]
    return [draw(rng.choice(weighted)) for _ in range(2000)]


def request_headers(extra: Dict[str, str]) -> Dict[str, str]:
    headers = {"Accept-Encoding": "gzip", "X-Client-Id": "perfbench-client"}
    headers.update(extra)
    return headers


def expected_answers(app, store, distinct: List[Request]):
    """Per distinct request ``(status, wire body)`` as the in-process app
    answers it, plus any disagreement with the manifest."""
    answers: List[Tuple[int, bytes]] = []
    problems: List[str] = []
    for kind, target, extra in distinct:
        response = app.handle("GET", target, request_headers(extra))
        want = 304 if kind == "cond" else 200
        if response.status != want:
            problems.append(f"{target}: in-process status {response.status}")
        if kind == "full" and response.status == 200:
            body = response.body
            if response.headers.get("Content-Encoding") == "gzip":
                body = gzip.decompress(body)
            _v1, _snapshots, snapshot_id, name = target.strip("/").split("/")
            if hashlib.sha256(body).hexdigest() != store.manifest(snapshot_id).digest_of(name):
                problems.append(f"{target}: body disagrees with the manifest")
        answers.append((want, response.body))
    return answers, problems


def app_pass(app, requests: List[Request], traced: bool):
    """Time one in-process pass; traced passes also return per-call spans."""
    prepared = [(target, request_headers(extra)) for _kind, target, extra in requests]
    log = spanlib.SpanLog()
    if traced:
        from repro.publish.server import PublishApp

        log.wrap(PublishApp, "handle", "publish.app.handle")
    try:
        start = time.perf_counter()
        for target, headers in prepared:
            app.handle("GET", target, headers)
        wall = time.perf_counter() - start
    finally:
        log.restore()
    return wall, log.spans


# ---------------------------------------------------------------------------
# the client

class Connection(asyncio.Protocol):
    """One keep-alive HTTP/1.1 connection with pipelined requests.

    ``pending`` holds ``(request index, start time)`` in send order; a
    response completes the oldest entry.  In a closed loop ``feed``
    returns the next request index (or None) on every completion.
    """

    def __init__(self, client: "Client") -> None:
        self.client = client
        self.pending: deque = deque()
        self.buffer = b""
        self.body_left = 0
        self.status = 0
        self.parts: List[bytes] = []
        self.feed = None
        #: closed-loop follow-ups, written together once a read is parsed
        self.outbox: List[bytes] = []
        self.idle: Optional[asyncio.Future] = None
        self.transport: Optional[asyncio.Transport] = None
        self.lost = False

    def connection_made(self, transport) -> None:
        self.transport = transport

    def connection_lost(self, exc) -> None:
        self.lost = True
        while self.pending:
            index, _start = self.pending.popleft()
            self.client.record(index, None, ok=False)
        self._maybe_idle()

    def send(self, index: int, start: float) -> None:
        if self.lost:
            self.client.record(index, None, ok=False)
            return
        self.pending.append((index, start))
        self.transport.write(self.client.raw[index])

    def wait_idle(self) -> asyncio.Future:
        self.idle = asyncio.get_running_loop().create_future()
        self._maybe_idle()
        return self.idle

    def _maybe_idle(self) -> None:
        if not self.pending and self.idle is not None and not self.idle.done():
            self.idle.set_result(None)

    def data_received(self, data: bytes) -> None:
        buf = self.buffer + data if self.buffer else data
        pos, size = 0, len(buf)
        while pos < size:
            if self.body_left:
                take = min(self.body_left, size - pos)
                self.parts.append(buf[pos:pos + take])
                self.body_left -= take
                pos += take
                if self.body_left:
                    break
                self._complete()
                continue
            end = buf.find(b"\r\n\r\n", pos)
            if end < 0:
                break
            self.status = int(buf[pos + 9:pos + 12])
            self.parts = []
            marker = buf.find(b"Content-Length:", pos, end)
            self.body_left = 0
            if marker >= 0:
                stop = buf.find(b"\r\n", marker, end + 2)
                self.body_left = int(buf[marker + 15:stop])
            pos = end + 4
            if not self.body_left:
                self._complete()
        self.buffer = buf[pos:] if pos < size else b""
        if self.outbox:
            self.transport.write(b"".join(self.outbox))
            self.outbox.clear()

    def _complete(self) -> None:
        now = time.perf_counter()
        index, start = self.pending.popleft()
        want_status, want_body = self.client.expected[index]
        parts = self.parts
        body = parts[0] if len(parts) == 1 else b"".join(parts)
        ok = self.status == want_status and body == want_body
        self.client.record(index, now - start, ok)
        if self.feed is not None:
            following = self.feed()
            if following is not None:
                self.pending.append((following, now))
                self.outbox.append(self.client.raw[following])
        self._maybe_idle()


class Client:
    """Two connections; every response is recorded under the current phase."""

    def __init__(self, port: int, distinct: List[Request], expected) -> None:
        self.expected = expected
        self.raw = []
        for _kind, target, extra in distinct:
            head = [f"GET {target} HTTP/1.1", f"Host: 127.0.0.1:{port}"]
            head += [f"{name}: {value}" for name, value in request_headers(extra).items()]
            self.raw.append(("\r\n".join(head) + "\r\n\r\n").encode("ascii"))
        self.port = port
        self.phase = "warm"
        #: phase -> [(request index, latency seconds)] of correct answers
        self.samples: Dict[str, List[Tuple[int, float]]] = defaultdict(list)
        self.attempted = 0
        self.failed = 0
        self.connections: List[Connection] = []

    def record(self, index: int, latency: Optional[float], ok: bool) -> None:
        self.attempted += 1
        if ok:
            self.samples[self.phase].append((index, latency))
        else:
            self.failed += 1

    async def connect(self) -> None:
        loop = asyncio.get_running_loop()
        for _ in range(CONNECTIONS):
            connection = Connection(self)
            await loop.create_connection(lambda: connection, "127.0.0.1", self.port)
            self.connections.append(connection)

    async def drain(self) -> None:
        await asyncio.gather(*(c.wait_idle() for c in self.connections))

    async def closed_loop(self, indices: List[int], depth: int,
                          connections: int = CONNECTIONS) -> float:
        """Keep ``depth`` requests in flight on each of the first
        ``connections`` connections until ``indices`` run out; returns
        the wall time."""
        queue = iter(indices)
        used = self.connections[:connections]

        def feed() -> Optional[int]:
            return next(queue, None)

        start = time.perf_counter()
        for connection in used:
            connection.feed = feed
        for connection in used:
            for _ in range(depth):
                following = feed()
                if following is not None:
                    connection.send(following, time.perf_counter())
        await self.drain()
        for connection in used:
            connection.feed = None
        return time.perf_counter() - start

    def close(self) -> None:
        for connection in self.connections:
            if connection.transport is not None:
                connection.transport.close()


def pin_together(server_pid: int, cpu: int) -> None:
    """Run the client and the server on one CPU.  On a shared 2-vCPU VM,
    a request that crosses between two vCPUs waits whenever the
    hypervisor has descheduled either of them, and capacity then fell to
    a third between runs; on one CPU a request never waits for a second
    vCPU.  The client's CPU time per request is reported beside the
    server's, so the share of the CPU the client takes is known."""
    os.sched_setaffinity(0, {cpu})
    os.sched_setaffinity(server_pid, {cpu})


def own_cpu_seconds() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


async def drive(client: Client, server: Server, warm: List[int],
                single: List[int], closed: List[int], seconds: float):
    """Warm-up, then rounds of the latency sequence ``single`` (one
    request in flight, first connection) and the capacity sequence
    ``closed`` (:data:`CLOSED_DEPTH` in flight on each connection), at
    least :data:`MIN_ROUNDS` and more while ``seconds`` last.  Server
    counters are scraped around the rounds; both sides' CPU time is
    taken around the capacity sequences.  Samples are recorded under
    ``("single", round)`` and ``("closed", round)``."""
    await client.connect()
    cpus = os.sched_getaffinity(0)
    pin_together(server.pid, min(cpus))
    # the harness's own collector must not stall a request
    gc.collect()
    gc.freeze()
    gc.disable()
    try:
        client.phase = "warm"
        await client.closed_loop(warm, depth=1)
        scraped = server.scrape()
        rates = []
        cpu = client_cpu = closed_wall = 0.0
        measured = 0
        deadline = time.perf_counter() + seconds
        while len(rates) < MIN_ROUNDS or time.perf_counter() < deadline:
            client.phase = ("single", len(rates))
            await client.closed_loop(single, depth=1, connections=1)
            client.phase = ("closed", len(rates))
            cpu -= common.proc_cpu_seconds(server.pid)
            client_cpu -= own_cpu_seconds()
            wall = await client.closed_loop(closed, depth=CLOSED_DEPTH)
            cpu += common.proc_cpu_seconds(server.pid)
            client_cpu += own_cpu_seconds()
            rates.append(len(client.samples[client.phase]) / wall)
            closed_wall += wall
            measured += len(client.samples[client.phase])
    finally:
        gc.enable()
        gc.unfreeze()
        os.sched_setaffinity(0, cpus)
        client.close()
    return {
        "rates": rates,
        "cpu_us_per_req": 1e6 * cpu / max(measured, 1),
        "client_cpu_us_per_req": 1e6 * client_cpu / max(measured, 1),
        # share of the capacity sequences each side's CPU was busy
        "server_busy": cpu / closed_wall,
        "client_busy": client_cpu / closed_wall,
        "scraped_before": scraped,
    }


# ---------------------------------------------------------------------------

def run(seed: int, seconds: float, traced: bool, scale: str,
        workdir: pathlib.Path) -> dict:
    from repro.obs.metrics import MetricsRegistry
    from repro.publish.server import PublishApp
    from repro.publish.store import SnapshotStore

    store_dir = workdir / "store"
    setup_s, build_s, store_s, snapshot_lists = [], [], [], []
    server = None
    try:
        for _ in range(STORE_BUILDS):
            shutil.rmtree(store_dir, ignore_errors=True)
            start = time.perf_counter()
            build_s.append(build_store_process(seed, STORE_LAST_DAY[scale], store_dir))
            store_s.append(time.perf_counter() - start)
            snapshot_lists.append(tuple(SnapshotStore(str(store_dir)).snapshot_ids()))
        for _ in range(SERVER_STARTS):
            if server is not None:
                server.stop()
            start = time.perf_counter()
            server = Server(store_dir, workdir / "port")
            setup_s.append(time.perf_counter() - start)

        store = SnapshotStore(str(store_dir))
        rng = random.Random(seed)
        corpus = make_corpus(store, rng)
        slots: Dict[tuple, int] = {}
        for kind, target, extra in corpus:
            slots.setdefault((kind, target, tuple(extra.items())), len(slots))
        distinct = [(kind, target, dict(extra)) for kind, target, extra in slots]
        weighted = [slots[(k, t, tuple(e.items()))] for k, t, e in corpus]
        app = PublishApp(store, metrics=MetricsRegistry(), rate=1e12, burst=1e12)
        expected, problems = expected_answers(app, store, distinct)
        if len(set(snapshot_lists)) != 1:
            problems.append("store builds at one seed committed different snapshots")

        single = [rng.choice(weighted) for _ in range(LATENCY_REQUESTS[scale])]
        closed = [rng.choice(weighted) for _ in range(CAPACITY_REQUESTS[scale])]
        client = Client(server.port, distinct, expected)
        loop = asyncio.new_event_loop()
        try:
            outcome = loop.run_until_complete(drive(
                client, server, list(range(len(distinct))), single, closed,
                seconds,
            ))
        finally:
            loop.close()
        scraped = server.scrape()
        rss_mb = common.proc_peak_rss_mb(server.pid)
    finally:
        if server is not None:
            server.stop()

    rounds = range(len(outcome["rates"]))
    single_samples = [sample for r in rounds for sample in client.samples[("single", r)]]
    record = {
        "setup_s": setup_s,
        "build_s": build_s,
        "store_s": store_s,
        "attempted": client.attempted,
        "failed": client.failed,
        "problems": problems,
        "single_ms": [[1000 * latency for _index, latency in client.samples[("single", r)]]
                      for r in rounds],
        "capacity_rounds": outcome["rates"],
        "cpu_us_per_req": outcome["cpu_us_per_req"],
        "client_cpu_us_per_req": outcome["client_cpu_us_per_req"],
        "server_busy": outcome["server_busy"],
        "client_busy": outcome["client_busy"],
        "rss_mb": rss_mb,
        "snapshots": len(snapshot_lists[-1]),
        "requests": len(distinct),
    }
    if traced:
        record["layers"] = serve_layers(
            app, distinct, closed, single_samples, outcome, scraped, build_s
        )
    return record


def serve_layers(app, distinct, closed, single_samples, outcome, scraped, build_s):
    """Per-layer metrics of the serving tier (traced run only)."""
    by_kind = defaultdict(list)
    for index, latency in single_samples:
        by_kind[distinct[index][0]].append(1000 * latency)
    sample = [distinct[index] for index in closed]
    untraced, traced, app_us = [], [], defaultdict(list)
    for _ in range(APP_PASSES):
        untraced.append(app_pass(app, sample, traced=False)[0])
        wall, calls = app_pass(app, sample, traced=True)
        traced.append(wall)
        for (kind, _target, _extra), (_name, began, ended) in zip(sample, calls):
            app_us[kind].append(1e6 * (ended - began))
    before = outcome["scraped_before"]
    hits = (scraped.get("repro_serve_cache_blob_hits_total", 0.0)
            - before.get("repro_serve_cache_blob_hits_total", 0.0))
    misses = (scraped.get("repro_serve_cache_blob_misses_total", 0.0)
              - before.get("repro_serve_cache_blob_misses_total", 0.0))
    layers = {}
    for kind in KINDS:
        layers[f"serve.{kind}.p50_ms"] = (
            common.percentile(by_kind[kind], 50) if by_kind[kind] else 0.0)
        layers[f"publish.app.{kind}_us"] = (
            common.median(app_us[kind]) if app_us[kind] else 0.0)
    layers.update({
        "simnet.build_s": common.median(build_s),
        "publish.cache.blob_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "publish.gzip.compressions": scraped.get("repro_serve_gzip_compress_total", 0.0),
        "serve.cpu_us_per_req": outcome["cpu_us_per_req"],
        "serve.client_cpu_us_per_req": outcome["client_cpu_us_per_req"],
        "obs.trace_overhead_ratio": common.median(traced) / common.median(untraced),
    })
    return layers


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="commit the serving store")
    parser.add_argument("--build-store", type=pathlib.Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--last-day", type=int, required=True)
    args = parser.parse_args(argv)
    common.require_source()
    print(build_store(args.seed, args.last_day, args.build_store))
    return 0


if __name__ == "__main__":
    sys.exit(main())
