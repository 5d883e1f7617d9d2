"""Per-application content views, trust records, and provenance attributes.

Views, trust state, and handler policy are persisted per file in the
``user.contentoracle.*`` extended-attribute namespace. On filesystems
without xattr support (or when a value outgrows the per-attribute budget)
an append-only sidecar journal stands in; both backends satisfy the same
black-box contract. Each sidecar store indexes the journal in memory and
on every read decodes only the lines appended since its previous read.

Writers take an advisory lock per target (or on the journal); a write in
progress is never observable as a torn value because xattr updates are a
single syscall and journal appends are a single write of one record, and
readers of the journal ignore a last line that has no newline yet.
"""

from __future__ import annotations

import base64
import errno
import fcntl
import hashlib
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator

from .mime_db import MimeType, parse_mime_type

VIEWS_KEY = "user.contentoracle.views"
TRUST_KEY = "user.contentoracle.trust"
POLICY_KEY = "user.contentoracle.policy"
ORIGIN_KEY = "user.xdg.origin.url"
REFERRER_KEY = "user.xdg.referrer.url"
QUARANTINE_KEY = "com.apple.quarantine"

#: Conservative per-attribute size floor across filesystems; larger values
#: overflow to the sidecar behind a stub attribute.
XATTR_VALUE_LIMIT = 4096

#: Stub stored in place of an oversized attribute value.
OVERFLOW_STUB = b'{"redirect":"contentoracle-sidecar","v":1}'

#: Journal lines decoded by one ``json.loads``; bounds the memory a cold
#: read of a large journal holds at once.
_DECODE_BATCH = 128

_ABSENT_ERRNOS = {errno.ENODATA, errno.ENOTSUP, errno.EOPNOTSUPP}
if hasattr(errno, "ENOATTR"):
    _ABSENT_ERRNOS.add(errno.ENOATTR)


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def content_identity(path: str | Path) -> bytes:
    """SHA-256 of the file's full contents, streamed."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.digest()


class AttributeStore:
    """Minimal key/value-per-file surface shared by both backends."""

    def get(self, path: str | Path, key: str) -> bytes | None:
        raise NotImplementedError

    def set(self, path: str | Path, key: str, value: bytes) -> None:
        raise NotImplementedError

    @contextmanager
    def lock(self, path: str | Path) -> Iterator[None]:
        """Advisory exclusive lock serializing read-modify-write cycles."""
        raise NotImplementedError
        yield


class SidecarStore(AttributeStore):
    """Append-only newline-delimited JSON journal; the last record wins.

    Files are identified by (device, inode), falling back to the absolute
    path where stat is unavailable, which mirrors the way real xattrs stay
    with the inode rather than the name. Values are base64 so arbitrary
    bytes survive the JSON encoding.

    Each instance keeps an index from (identity, key) to the latest base64
    value, plus the journal's (device, inode) and the byte offset read so
    far. A get reads only the bytes appended since the previous one and
    decodes only complete lines, so a record still being written waits for
    its newline. The index starts over when the journal's inode changes or
    its size falls below the offset (replaced, recreated or truncated); a
    journal truncated and refilled past the offset between two reads goes
    unnoticed, so rewrite it by renaming a new file over it. Lines that
    do not decode to an object with string ``path``, ``key`` and ``value``
    are skipped, like a torn record.
    """

    def __init__(self, journal_path: str | Path):
        self.journal_path = Path(journal_path)
        self._index: dict[tuple[str, str], str] = {}
        self._journal_id: tuple[int, int] | None = None
        self._offset = 0
        self._mutex = threading.Lock()  # the index is read-modify-write

    @staticmethod
    def identity(path: str | Path) -> str:
        try:
            st = os.stat(path)
            return f"{st.st_dev}:{st.st_ino}"
        except OSError:
            return os.path.abspath(os.fspath(path))

    def get(self, path: str | Path, key: str) -> bytes | None:
        os.stat(path)  # same file-must-exist contract as the xattr backend
        ident = self.identity(path)
        with self._mutex:
            self._catch_up()
            value = self._index.get((ident, key))
        return None if value is None else base64.b64decode(value)

    def _catch_up(self) -> None:
        """Fold the journal's complete lines past the offset into the index."""
        try:
            fh = open(self.journal_path, "rb")
        except FileNotFoundError:
            self._reset(None)
            return
        with fh:
            st = os.fstat(fh.fileno())
            if (st.st_dev, st.st_ino) != self._journal_id or st.st_size < self._offset:
                self._reset((st.st_dev, st.st_ino))
            if st.st_size == self._offset:
                return
            fh.seek(self._offset)
            batch: list[bytes] = []
            for line in fh:
                if not line.endswith(b"\n"):
                    break  # an unfinished append; read again once it ends
                self._offset += len(line)
                batch.append(line)
                if len(batch) == _DECODE_BATCH:
                    self._index_lines(batch)
                    batch = []
            self._index_lines(batch)

    def _reset(self, journal_id: tuple[int, int] | None) -> None:
        self._index = {}
        self._journal_id = journal_id
        self._offset = 0

    def _index_lines(self, lines: list[bytes]) -> None:
        if not lines:
            return
        try:
            records = json.loads(b"[" + b",".join(lines) + b"]")
        except (ValueError, RecursionError):
            records = None
        if records is None or len(records) != len(lines):
            # some line is torn or malformed: decode one by one to skip it
            records = []
            for line in lines:
                try:
                    records.append(json.loads(line))
                except (ValueError, RecursionError):  # torn, or nested too deep
                    continue
        index = self._index
        for record in records:
            if not isinstance(record, dict):
                continue
            ident, key, value = record.get("path"), record.get("key"), record.get("value")
            if isinstance(ident, str) and isinstance(key, str) and isinstance(value, str):
                index[ident, key] = value

    def set(self, path: str | Path, key: str, value: bytes) -> None:
        os.stat(path)
        record = {
            "key": key,
            "path": self.identity(path),
            "t": int(time.time()),
            "value": base64.b64encode(value).decode("ascii"),
        }
        line = _canonical_json(record) + b"\n"
        self.journal_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.journal_path, "a+b") as fh:
            fd = fh.fileno()
            fcntl.flock(fd, fcntl.LOCK_EX)
            # A writer that died mid-append left a fragment with no newline;
            # end it, or it would swallow this record into one bad line.
            size = os.fstat(fd).st_size
            if size and os.pread(fd, 1, size - 1) != b"\n":
                line = b"\n" + line
            fh.write(line)
            fh.flush()

    @contextmanager
    def lock(self, path: str | Path) -> Iterator[None]:
        # A dedicated lock file: holding the journal itself here would
        # deadlock against the per-append lock taken inside set().
        lock_path = self.journal_path.with_suffix(self.journal_path.suffix + ".lock")
        lock_path.parent.mkdir(parents=True, exist_ok=True)
        with open(lock_path, "ab") as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            yield


class XattrStore(AttributeStore):
    """Backend over real extended attributes in the user namespace.

    Values above :data:`XATTR_VALUE_LIMIT` (or rejected by the filesystem
    for size) are written to the overflow sidecar and replaced by a stub
    attribute; reads follow the stub transparently.
    """

    def __init__(self, overflow: SidecarStore):
        self.overflow = overflow

    def get(self, path: str | Path, key: str) -> bytes | None:
        try:
            value = os.getxattr(path, key)
        except OSError as exc:
            if exc.errno in _ABSENT_ERRNOS:
                return None
            raise
        if value == OVERFLOW_STUB:
            return self.overflow.get(path, key)
        return value

    def set(self, path: str | Path, key: str, value: bytes) -> None:
        if len(value) > XATTR_VALUE_LIMIT:
            self._spill(path, key, value)
            return
        try:
            os.setxattr(path, key, value)
        except OSError as exc:
            if exc.errno in (errno.E2BIG, errno.ENOSPC):
                self._spill(path, key, value)
            else:
                raise

    def _spill(self, path: str | Path, key: str, value: bytes) -> None:
        self.overflow.set(path, key, value)
        os.setxattr(path, key, OVERFLOW_STUB)

    @contextmanager
    def lock(self, path: str | Path) -> Iterator[None]:
        with open(path, "rb") as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            yield


class AutoStore(AttributeStore):
    """Prefer xattrs, degrade to the sidecar where the filesystem refuses."""

    def __init__(self, xattr: XattrStore, sidecar: SidecarStore):
        self.xattr = xattr
        self.sidecar = sidecar

    def get(self, path: str | Path, key: str) -> bytes | None:
        value = self.xattr.get(path, key)
        if value is not None:
            return value
        return self.sidecar.get(path, key)

    def set(self, path: str | Path, key: str, value: bytes) -> None:
        try:
            self.xattr.set(path, key, value)
        except OSError as exc:
            if exc.errno in (errno.ENOTSUP, errno.EOPNOTSUPP, errno.EPERM):
                self.sidecar.set(path, key, value)
            else:
                raise

    @contextmanager
    def lock(self, path: str | Path) -> Iterator[None]:
        with self.xattr.lock(path):
            yield


def xattrs_supported(directory: str | Path) -> bool:
    """Probe whether user xattrs work for files under ``directory``."""
    probe = Path(directory) / f".contentoracle-xattr-probe-{os.getpid()}"
    try:
        probe.write_bytes(b"")
        os.setxattr(probe, "user.contentoracle.probe", b"1")
        return os.getxattr(probe, "user.contentoracle.probe") == b"1"
    except OSError:
        return False
    finally:
        try:
            probe.unlink()
        except OSError:
            pass


@dataclass(frozen=True)
class ContentView:
    """One application's recorded opinion of a file.

    ``content_hash`` binds the view to the bytes that were inspected;
    a later content change makes the view stale without erasing it.
    """

    app_id: str
    mime: MimeType
    active: bool
    content_hash: bytes
    recorded_at: int
    note: str | None = None

    def __post_init__(self) -> None:
        if not self.app_id:
            raise ValueError("app_id must be non-empty")
        if len(self.content_hash) != 32:
            raise ValueError("content_hash must be exactly 32 bytes")
        if self.note is not None and len(self.note.encode("utf-8")) > 256:
            raise ValueError("note must be at most 256 bytes")


@dataclass(frozen=True)
class FlaggedView:
    view: ContentView
    stale: bool


def _view_to_obj(view: ContentView) -> dict:
    obj = {
        "app": view.app_id,
        "mime": view.mime.format(),
        "active": view.active,
        "hash": view.content_hash.hex(),
        "t": view.recorded_at,
    }
    if view.note is not None:
        obj["note"] = view.note
    return obj


def _view_from_obj(obj: dict) -> ContentView:
    return ContentView(
        app_id=obj["app"],
        mime=parse_mime_type(obj["mime"]),
        active=bool(obj["active"]),
        content_hash=bytes.fromhex(obj["hash"]),
        recorded_at=int(obj["t"]),
        note=obj.get("note"),
    )


def encode_views(views: list[ContentView]) -> bytes:
    """Canonical encoding: views sorted by app id, sorted keys, no padding.

    Encoding then decoding round-trips byte-identically, and any equivalent
    non-canonical ordering encodes to the same bytes.
    """
    ordered = sorted(views, key=lambda v: v.app_id)
    return _canonical_json({"v": 1, "views": [_view_to_obj(v) for v in ordered]})


def decode_views(data: bytes) -> list[ContentView]:
    doc = json.loads(data)
    if doc.get("v") != 1 or not isinstance(doc.get("views"), list):
        raise ValueError("unrecognized view payload")
    return [_view_from_obj(obj) for obj in doc["views"]]


def record_view(store: AttributeStore, path: str | Path, view: ContentView) -> None:
    """Append (or replace, latest-wins per application) one view on a file."""
    os.stat(path)
    with store.lock(path):
        raw = store.get(path, VIEWS_KEY)
        views = decode_views(raw) if raw else []
        views = [v for v in views if v.app_id != view.app_id]
        views.append(view)
        store.set(path, VIEWS_KEY, encode_views(views))


def read_views(
    store: AttributeStore, path: str | Path, content_hash: bytes | None = None
) -> list[FlaggedView]:
    """All recorded views, sorted by app id, with computed staleness flags.

    Staleness is judged against ``content_hash`` when given (the digest of
    bytes already read), otherwise against the file's current contents.
    """
    current = content_identity(path) if content_hash is None else content_hash
    raw = store.get(path, VIEWS_KEY)
    views = decode_views(raw) if raw else []
    return [
        FlaggedView(view=v, stale=v.content_hash != current)
        for v in sorted(views, key=lambda v: v.app_id)
    ]


class TrustState(Enum):
    TRUSTED = "trusted"
    UNTRUSTED = "untrusted"
    INVALIDATED = "invalidated"
    UNSET = "unset"


def set_trust(store: AttributeStore, path: str | Path, trusted: bool, now: int | None = None) -> None:
    """Record a trust decision bound to the file's current content hash."""
    payload = _canonical_json({
        "v": 1,
        "trusted": trusted,
        "hash": content_identity(path).hex(),
        "t": int(time.time()) if now is None else now,
    })
    with store.lock(path):
        store.set(path, TRUST_KEY, payload)


def get_trust(
    store: AttributeStore, path: str | Path, content_hash: bytes | None = None
) -> TrustState:
    """Trust state for the file's *current* contents, or for the contents
    whose digest is ``content_hash`` when given.

    A stored decision whose hash no longer matches reports ``INVALIDATED``
    rather than the stale verdict.
    """
    os.stat(path)
    raw = store.get(path, TRUST_KEY)
    if raw is None:
        return TrustState.UNSET
    doc = json.loads(raw)
    current = content_identity(path) if content_hash is None else content_hash
    if bytes.fromhex(doc["hash"]) != current:
        return TrustState.INVALIDATED
    return TrustState.TRUSTED if doc["trusted"] else TrustState.UNTRUSTED


@dataclass(frozen=True)
class Provenance:
    """Download provenance read from conventional attributes, uninterpreted."""

    origin_url: str | None = None
    referrer_url: str | None = None
    quarantine: bytes | None = None


def read_provenance(store: AttributeStore, path: str | Path) -> Provenance:
    os.stat(path)

    def _text(key: str) -> str | None:
        raw = store.get(path, key)
        return raw.decode("utf-8", "surrogateescape") if raw is not None else None

    return Provenance(
        origin_url=_text(ORIGIN_KEY),
        referrer_url=_text(REFERRER_KEY),
        quarantine=store.get(path, QUARANTINE_KEY),
    )
