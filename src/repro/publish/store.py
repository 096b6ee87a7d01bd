"""Content-addressed, versioned snapshot store for publication sets.

Every pipeline scan's publication set (responsive union, per-protocol
lists, aliased prefixes, optional origin-AS map) is committed as an
immutable *snapshot*: the artifact bodies live as content-addressed
blobs under ``objects/`` (named by their SHA-256, so identical content
is stored once no matter how many snapshots reference it) and a JSON
manifest under ``manifests/`` records the artifact digests, the scan
day and the parent snapshot id.

The snapshot id is itself the SHA-256 of the manifest core (format tag,
scan day, parent id, artifact name → digest map), which makes commits
idempotent by construction: committing the same publication set twice —
including after a kill-and-resume re-runs scans that were already
committed — computes the same id, finds the manifest already on disk
and writes nothing.  The parent of a snapshot is resolved at commit
time as the stored snapshot with the greatest scan day below its own;
the daily pipeline commits chronologically, so that is always the
previous scan and the history is a linear chain.  A backfilled older
day attaches to the nearest earlier snapshot without rewriting any
existing manifest (manifests are immutable — their id embeds the
parent).

Because blobs are immutable, everything a hot serving path would
otherwise compute per request is computed **once at commit time**: next
to every blob at least :data:`GZIP_THRESHOLD` bytes long the store
writes its deterministic gzip encoding (``<sha256>.gz``, fixed
compression level and ``mtime=0``), and the strong ETag is the content
digest the blob is already named by.  Stores written before
precompression existed upgrade lazily — the first gzip read of a blob
backfills the ``.gz`` sidecar from the raw bytes without touching any
manifest (manifest digests cover raw content only, so the fingerprint
of the store is unchanged).

Layout under the store root::

    objects/<d0d1>/<sha256>       artifact blobs (UTF-8 text)
    objects/<d0d1>/<sha256>.gz    deterministic gzip of the blob
    manifests/<snapshot-id>.json  one manifest per snapshot
    HEAD                          id of the newest snapshot
"""

from __future__ import annotations

import gzip
import hashlib
import io
import json
import os
from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from repro._util import atomic_write
from repro.hitlist.export import write_address_list, write_aliased_prefixes
from repro.protocols import ALL_PROTOCOLS, Protocol

STORE_FORMAT = "repro-publish-v1"

#: Smallest blob worth compressing; below this gzip overhead dominates.
#: Shared with the serving layer so the precompressed sidecar exists
#: exactly when a gzip response would be negotiated.
GZIP_THRESHOLD = 128

#: Fixed gzip parameters so compressed bytes are identical no matter
#: when (commit time, lazy backfill, per-request fallback) they were
#: produced.
GZIP_LEVEL = 6


def compress_blob(body: bytes) -> bytes:
    """The canonical deterministic gzip encoding of a blob body."""
    return gzip.compress(body, compresslevel=GZIP_LEVEL, mtime=0)

#: URL-safe artifact names of a full publication set, in manifest order:
#: the cleaned responsive union, one list per probed protocol, the
#: aliased prefixes, and (when routing data is available at commit time)
#: an ``address origin-AS`` map used by the ASN query index.
ARTIFACT_NAMES: Tuple[str, ...] = (
    "responsive",
    "icmp",
    "tcp80",
    "tcp443",
    "udp53",
    "udp443",
    "aliased",
    "origins",
)

#: URL-safe artifact name per probed protocol (``TCP/80`` -> ``tcp80``).
PROTOCOL_ARTIFACTS: Dict[Protocol, str] = {
    protocol: protocol.label.replace("/", "").lower() for protocol in ALL_PROTOCOLS
}


class PublishError(ValueError):
    """A snapshot store operation failed (corruption, unknown ids, ...)."""


def artifact_digest(text: str) -> str:
    """SHA-256 hex digest of an artifact body (UTF-8 bytes)."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class Manifest:
    """The immutable description of one committed snapshot."""

    snapshot_id: str
    scan_day: int
    parent: Optional[str]
    #: artifact name -> ``{"sha256": ..., "bytes": ..., "lines": ...}``
    artifacts: Mapping[str, Mapping[str, object]]

    def digest_of(self, name: str) -> str:
        entry = self.artifacts.get(name)
        if entry is None:
            raise PublishError(
                f"snapshot {self.snapshot_id} has no artifact {name!r}"
            )
        return str(entry["sha256"])

    def to_dict(self) -> Dict[str, object]:
        return {
            "format": STORE_FORMAT,
            "snapshot_id": self.snapshot_id,
            "scan_day": self.scan_day,
            "parent": self.parent,
            "artifacts": {
                name: dict(entry) for name, entry in sorted(self.artifacts.items())
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "Manifest":
        if data.get("format") != STORE_FORMAT:
            raise PublishError(f"unsupported manifest format {data.get('format')!r}")
        parent = data.get("parent")
        return cls(
            snapshot_id=str(data["snapshot_id"]),
            scan_day=int(data["scan_day"]),  # type: ignore[arg-type]
            parent=None if parent is None else str(parent),
            artifacts={
                str(name): dict(entry)
                for name, entry in dict(data["artifacts"]).items()  # type: ignore[arg-type]
            },
        )


def _snapshot_id(scan_day: int, parent: Optional[str],
                 digests: Mapping[str, str]) -> str:
    core = json.dumps(
        {
            "format": STORE_FORMAT,
            "scan_day": scan_day,
            "parent": parent,
            "artifacts": dict(sorted(digests.items())),
        },
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(core.encode("utf-8")).hexdigest()


class SnapshotStore:
    """Commit, enumerate and read back publication snapshots.

    All mutation is idempotent: blobs are content-addressed, manifests
    are keyed by a digest of their own content, and ``HEAD`` always
    points at the snapshot with the greatest scan day.  Optional
    ``metrics`` (a :class:`repro.obs.metrics.MetricsRegistry`) records
    commit outcomes and stored bytes; the families are volatile because
    a resumed run legitimately re-commits (as duplicates) scans the
    killed run already published.
    """

    def __init__(self, root: str, metrics=None) -> None:
        self.root = root
        self._objects = os.path.join(root, "objects")
        self._manifests = os.path.join(root, "manifests")
        os.makedirs(self._objects, exist_ok=True)
        os.makedirs(self._manifests, exist_ok=True)
        # parsed-manifest cache: manifests are immutable once written, so
        # per-commit parent resolution does not re-read the whole store
        self._manifest_cache: Dict[str, Manifest] = {}
        self._head_path = os.path.join(root, "HEAD")
        # HEAD is re-read only when its stat identity changes; commits
        # atomically replace the file, so a serving process sees new
        # heads without paying a file open per request
        self._head_cache: Optional[Tuple[Tuple[int, int, int], Optional[str]]] = None
        self._m_commits = self._m_bytes = None
        if metrics is not None:
            self._m_commits = metrics.counter(
                "repro_publish_commits_total",
                "Snapshot commits, by outcome (new or duplicate).",
                ("outcome",), volatile=True)
            self._m_bytes = metrics.counter(
                "repro_publish_stored_bytes_total",
                "New artifact bytes written to the object store.",
                volatile=True)

    # ------------------------------------------------------------------
    # writing

    def _blob_path(self, digest: str) -> str:
        return os.path.join(self._objects, digest[:2], digest)

    def blob_path(self, digest: str) -> str:
        """Filesystem path of a blob (the raw response body for identity
        encoding) — bridges may serve it zero-copy via ``os.sendfile``."""
        return self._blob_path(digest)

    def gzip_blob_path(self, digest: str) -> Optional[str]:
        """Path of the precompressed sidecar, backfilled on demand.

        Returns ``None`` for blobs below :data:`GZIP_THRESHOLD` (the
        serving layer never gzips those).  For older stores that predate
        precompression the sidecar is created here, lazily, from the
        digest-verified raw bytes — manifests are untouched.
        """
        path = self._blob_path(digest) + ".gz"
        if os.path.exists(path):
            return path
        body = self.read_blob_bytes(digest)
        if len(body) < GZIP_THRESHOLD:
            return None
        atomic_write(path, compress_blob(body))
        return path

    def _write_blob(self, text: str) -> Tuple[str, int, bool]:
        body = text.encode("utf-8")
        digest = hashlib.sha256(body).hexdigest()
        path = self._blob_path(digest)
        if os.path.exists(path):
            return digest, len(body), False
        os.makedirs(os.path.dirname(path), exist_ok=True)
        if len(body) >= GZIP_THRESHOLD:
            atomic_write(path + ".gz", compress_blob(body))
        atomic_write(path, body)
        return digest, len(body), True

    def commit(self, scan_day: int, artifacts: Mapping[str, str]) -> Manifest:
        """Commit one publication set; returns its (possibly existing) manifest.

        ``artifacts`` maps artifact names to full text bodies.  The
        parent is resolved against the store at commit time (greatest
        scan day below ``scan_day``), so chronological re-commits of an
        already-published run reproduce byte-identical manifests.
        """
        if not artifacts:
            raise PublishError("refusing to commit an empty publication set")
        for name in artifacts:
            if not name or "/" in name or name.startswith("."):
                raise PublishError(f"invalid artifact name {name!r}")
        parent = self._parent_for_day(scan_day)
        entries: Dict[str, Dict[str, object]] = {}
        digests: Dict[str, str] = {}
        new_bytes = 0
        for name, text in sorted(artifacts.items()):
            digest, size, written = self._write_blob(text)
            if written:
                new_bytes += size
            digests[name] = digest
            entries[name] = {
                "sha256": digest,
                "bytes": size,
                "lines": text.count("\n"),
            }
        snapshot_id = _snapshot_id(scan_day, parent, digests)
        manifest = Manifest(
            snapshot_id=snapshot_id, scan_day=scan_day,
            parent=parent, artifacts=entries,
        )
        path = os.path.join(self._manifests, f"{snapshot_id}.json")
        duplicate = os.path.exists(path)
        if not duplicate:
            body = json.dumps(manifest.to_dict(), indent=2, sort_keys=True) + "\n"
            atomic_write(path, body.encode("utf-8"))
            self._update_head()
        self._manifest_cache[snapshot_id] = manifest
        if self._m_commits is not None:
            self._m_commits.labels(
                outcome="duplicate" if duplicate else "new").inc()
            if self._m_bytes is not None and new_bytes:
                self._m_bytes.inc(new_bytes)
        return manifest

    def _parent_for_day(self, scan_day: int) -> Optional[str]:
        best: Optional[Manifest] = None
        for manifest in self.manifests():
            if manifest.scan_day < scan_day and (
                best is None or manifest.scan_day > best.scan_day
            ):
                best = manifest
        return None if best is None else best.snapshot_id

    def _update_head(self) -> None:
        manifests = self.manifests()
        if manifests:
            atomic_write(
                os.path.join(self.root, "HEAD"),
                (manifests[-1].snapshot_id + "\n").encode("ascii"),
            )

    # ------------------------------------------------------------------
    # reading

    def snapshot_ids(self) -> List[str]:
        """All snapshot ids, ordered by (scan day, id)."""
        return [manifest.snapshot_id for manifest in self.manifests()]

    def manifest_count(self) -> int:
        """Number of committed snapshots (one ``listdir``, no parsing)."""
        return sum(
            1 for name in os.listdir(self._manifests)
            if name.endswith(".json")
        )

    def manifests(self) -> List[Manifest]:
        """All manifests, ordered by (scan day, id)."""
        out: List[Manifest] = []
        for name in os.listdir(self._manifests):
            if name.endswith(".json"):
                out.append(self.manifest(name[:-len(".json")]))
        out.sort(key=lambda manifest: (manifest.scan_day, manifest.snapshot_id))
        return out

    def manifest(self, snapshot_id: str) -> Manifest:
        cached = self._manifest_cache.get(snapshot_id)
        if cached is not None:
            return cached
        path = os.path.join(self._manifests, f"{snapshot_id}.json")
        try:
            with open(path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except OSError:
            raise PublishError(f"unknown snapshot {snapshot_id!r}") from None
        except ValueError as error:
            raise PublishError(
                f"corrupted manifest for {snapshot_id!r}: {error}"
            ) from None
        manifest = Manifest.from_dict(data)
        if manifest.snapshot_id != snapshot_id:
            raise PublishError(
                f"manifest file {snapshot_id!r} claims id "
                f"{manifest.snapshot_id!r}"
            )
        self._manifest_cache[snapshot_id] = manifest
        return manifest

    def head_id(self) -> Optional[str]:
        """The newest snapshot id, or None for an empty store."""
        try:
            stat = os.stat(self._head_path)
        except OSError:
            self._head_cache = None
            return None
        token = (stat.st_ino, stat.st_mtime_ns, stat.st_size)
        cached = self._head_cache
        if cached is not None and cached[0] == token:
            return cached[1]
        try:
            with open(self._head_path, "r", encoding="ascii") as handle:
                head = handle.read().strip() or None
        except OSError:
            self._head_cache = None
            return None
        self._head_cache = (token, head)
        return head

    def read_artifact(self, snapshot_id: str, name: str) -> str:
        """An artifact's full text, digest-verified on the way out."""
        manifest = self.manifest(snapshot_id)
        digest = manifest.digest_of(name)
        return self.read_blob(digest)

    def read_blob(self, digest: str) -> str:
        """A blob by digest; raises :class:`PublishError` on corruption."""
        return self.read_blob_bytes(digest).decode("utf-8")

    def read_blob_bytes(self, digest: str) -> bytes:
        """Raw blob bytes by digest, verified on the way out."""
        try:
            with open(self._blob_path(digest), "rb") as handle:
                body = handle.read()
        except OSError:
            raise PublishError(f"missing object {digest}") from None
        actual = hashlib.sha256(body).hexdigest()
        if actual != digest:
            raise PublishError(
                f"object {digest} is corrupted (content hashes to {actual})"
            )
        return body

    def read_blob_gzip(self, digest: str) -> Optional[bytes]:
        """The precompressed gzip bytes of a blob (``None`` for tiny blobs).

        Verified by decompression against the content digest; a
        corrupted sidecar is rebuilt from the (verified) raw bytes
        rather than served.
        """
        path = self.gzip_blob_path(digest)
        if path is None:
            return None
        with open(path, "rb") as handle:
            packed = handle.read()
        try:
            inflated = gzip.decompress(packed)
        except (OSError, EOFError):
            inflated = b""
        if hashlib.sha256(inflated).hexdigest() != digest:
            packed = compress_blob(self.read_blob_bytes(digest))
            atomic_write(path, packed)
        return packed

    def precompress_all(self) -> int:
        """Backfill missing gzip sidecars store-wide; returns how many
        were written.  Idempotent — an already-upgraded store is a no-op."""
        written = 0
        for dirpath, _dirnames, filenames in os.walk(self._objects):
            for name in filenames:
                if name.endswith((".tmp", ".gz")):
                    continue
                had = os.path.exists(os.path.join(dirpath, name + ".gz"))
                if self.gzip_blob_path(name) is not None and not had:
                    written += 1
        return written

    def object_count(self) -> int:
        """Number of stored blobs (deduplicated artifact bodies)."""
        total = 0
        for _dirpath, _dirnames, filenames in os.walk(self._objects):
            total += sum(
                1 for name in filenames
                if not name.endswith((".tmp", ".gz"))
            )
        return total


# ---------------------------------------------------------------------------
# building publication sets from pipeline state


def publication_artifacts(
    responders: Mapping[Protocol, Iterable[int]],
    injected: Iterable[int],
    aliased_prefixes: Iterable,
    origin_as=None,
) -> Dict[str, str]:
    """Render one scan's publication set as artifact texts.

    Mirrors :func:`repro.hitlist.export.publish`: the ``responsive``
    union and the per-protocol lists are the *cleaned* view (GFW-forged
    UDP/53 responders removed), ``aliased`` is the CIDR list.  With an
    ``origin_as`` callable (address -> ASN or None) an ``origins``
    artifact (``<address> <asn>`` per line) is included for the ASN
    query index.
    """
    injected_set = frozenset(injected)
    cleaned: Dict[Protocol, frozenset] = {}
    for protocol in ALL_PROTOCOLS:
        members = frozenset(responders.get(protocol, ()))
        if protocol is Protocol.UDP53:
            members -= injected_set
        cleaned[protocol] = members
    union = frozenset().union(*cleaned.values()) if cleaned else frozenset()

    artifacts: Dict[str, str] = {}

    def render_addresses(addresses) -> str:
        buffer = io.StringIO()
        write_address_list(buffer, addresses)
        return buffer.getvalue()

    artifacts["responsive"] = render_addresses(union)
    for protocol in ALL_PROTOCOLS:
        artifacts[PROTOCOL_ARTIFACTS[protocol]] = render_addresses(cleaned[protocol])
    buffer = io.StringIO()
    write_aliased_prefixes(
        buffer,
        (getattr(alias, "prefix", alias) for alias in aliased_prefixes),
    )
    artifacts["aliased"] = buffer.getvalue()
    if origin_as is not None:
        from repro.net.address import format_ipv6

        lines = []
        for address in sorted(union):
            asn = origin_as(address)
            if asn is not None:
                lines.append(f"{format_ipv6(address)} {asn}\n")
        artifacts["origins"] = "".join(lines)
    return artifacts
