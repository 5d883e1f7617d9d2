"""Per-application content views, trust records, and provenance attributes.

Views, trust state, and handler policy are persisted per file in the
``user.contentoracle.*`` extended-attribute namespace. On filesystems
without xattr support (or when a value outgrows the per-attribute budget)
a sidecar SQLite database stands in, one row per (file, key); both
backends satisfy the same black-box contract, and both raise ``OSError``
for a file that does not exist.

Every reader takes a file's attributes from one store ``read`` and decodes
that snapshot with the ``*_from`` functions.

Only a read-modify-write cycle holds a lock: an advisory lock on the target
file for xattrs, a write transaction for the sidecar. A single write needs
none and is never observable as a torn value: an xattr update is one
syscall, a sidecar write one committed statement, and a spilled value
lands in the sidecar before its stub.
"""

from __future__ import annotations

import errno
import fcntl
import hashlib
import json
import os
import stat
import threading
import time
import weakref
from contextlib import AbstractContextManager, contextmanager
from enum import Enum
from pathlib import Path
from typing import BinaryIO, Collection, Iterator, NamedTuple

from .errors import ConfigError
from .mime_db import MimeType, parse_mime_type

VIEWS_KEY = "user.contentoracle.views"
TRUST_KEY = "user.contentoracle.trust"
POLICY_KEY = "user.contentoracle.policy"
ORIGIN_KEY = "user.xdg.origin.url"
REFERRER_KEY = "user.xdg.referrer.url"
QUARANTINE_KEY = "com.apple.quarantine"
#: Every attribute an assessment reads, in one store lookup.
ATTRIBUTE_KEYS = (VIEWS_KEY, TRUST_KEY, POLICY_KEY, ORIGIN_KEY, REFERRER_KEY, QUARANTINE_KEY)

#: Conservative per-attribute size floor across filesystems; larger values
#: overflow to the sidecar behind a stub attribute.
XATTR_VALUE_LIMIT = 4096

#: Stub stored in place of an oversized attribute value.
OVERFLOW_STUB = b'{"redirect":"contentoracle-sidecar","v":1}'

#: Longest note a content view may carry, in UTF-8 bytes.
MAX_NOTE_BYTES = 256

#: Seconds a sidecar writer waits for another writer before it fails.
_BUSY_TIMEOUT = 30.0

_ABSENT_ERRNOS = {errno.ENODATA, errno.ENOTSUP, errno.EOPNOTSUPP}
if hasattr(errno, "ENOATTR"):
    _ABSENT_ERRNOS.add(errno.ENOATTR)


def encode_record(**fields) -> bytes:
    """A stored record: ``fields`` and the schema version ``"v": 1`` as JSON
    with sorted keys and no padding, so equal records are equal bytes."""
    return json.dumps({"v": 1, **fields}, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False).encode("utf-8")


def decode_record(data: bytes) -> dict:
    """The fields of a record as ``encode_record`` writes it: a JSON object
    holding ``"v": 1``. Anything else raises ``ValueError``."""
    doc = json.loads(data)
    if not isinstance(doc, dict) or doc.get("v") != 1:
        raise ValueError("not a version-1 record")
    return doc


def open_regular(path: str | Path) -> BinaryIO:
    """``path`` opened for reading if it is a regular file; else ``OSError``.

    The open does not wait for a FIFO's writer, and the type is read from
    the descriptor that is then read, so the file cannot change between the
    check and the read.
    """
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        mode = os.fstat(fd).st_mode
        if stat.S_ISDIR(mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
        if not stat.S_ISREG(mode):
            raise OSError(f"not a regular file: {path}")
        return open(fd, "rb")
    except BaseException:
        os.close(fd)
        raise


def content_identity(path: str | Path) -> bytes:
    """SHA-256 of the file's full contents, streamed."""
    digest = hashlib.sha256()
    with open_regular(path) as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.digest()


class AttributeStore:
    """Minimal key/value-per-file surface shared by both backends."""

    def read(self, path: str | Path, keys: Collection[str]) -> dict[str, bytes]:
        """Those of ``keys`` that the file has, with their values, in one lookup."""
        raise NotImplementedError

    def get(self, path: str | Path, key: str) -> bytes | None:
        return self.read(path, (key,)).get(key)

    def set(self, path: str | Path, key: str, value: bytes) -> None:
        raise NotImplementedError

    def lock(self, path: str | Path) -> AbstractContextManager[None]:
        """Advisory exclusive lock serializing read-modify-write cycles."""
        raise NotImplementedError


class SidecarStore(AttributeStore):
    """One SQLite table with one row per (file, key): a set is an upsert,
    so the last write wins and rewrites take no more space.

    Files are identified by (device, inode), as real xattrs stay with the
    inode rather than the name. In WAL mode readers never wait for a
    writer and never see a write in progress. The connection is opened on
    first use and shared by the store's threads; a read before the
    database exists finds nothing and creates nothing.
    """

    def __init__(self, path: str | Path):
        self.path = Path(path)
        self._conn = None
        self._mutex = threading.RLock()  # one connection, one user at a time

    @staticmethod
    def identity(path: str | Path) -> str:
        st = os.stat(path)  # raises for a missing file, as getxattr does
        return f"{st.st_dev}:{st.st_ino}"

    def _connect(self):
        # imported here: a process that never touches the sidecar skips it
        import sqlite3

        self.path.parent.mkdir(parents=True, exist_ok=True)
        conn = None
        try:
            conn = sqlite3.connect(self.path, timeout=_BUSY_TIMEOUT,
                                   isolation_level=None, check_same_thread=False)
            conn.execute("PRAGMA journal_mode=WAL")
            conn.execute("PRAGMA synchronous=NORMAL")
            conn.execute("CREATE TABLE IF NOT EXISTS attrs (ident TEXT, key TEXT, value BLOB,"
                         " PRIMARY KEY (ident, key)) WITHOUT ROWID")
        except sqlite3.DatabaseError as exc:
            if conn is not None:
                conn.close()
            if isinstance(exc, sqlite3.OperationalError):  # cannot open, busy or locked
                raise OSError(f"sidecar {self.path}: {exc}") from exc
            raise ConfigError(f"sidecar {self.path} is not a SQLite database") from None
        # A connection is freed only by the cycle collector; close it, and
        # release its cache and files, as soon as the store goes.
        weakref.finalize(self, conn.close)
        self._conn = conn
        return conn

    def _execute(self, sql: str, params: tuple = ()) -> list:
        """The rows of ``sql`` on the store's connection, opened on first use;
        a database that stays busy or locked is an ``OSError``."""
        import sqlite3

        try:
            return (self._conn or self._connect()).execute(sql, params).fetchall()
        except sqlite3.OperationalError as exc:
            raise OSError(f"sidecar {self.path}: {exc}") from exc

    def read(self, path: str | Path, keys: Collection[str]) -> dict[str, bytes]:
        ident = self.identity(path)
        with self._mutex:
            if self._conn is None and not self.path.exists():
                return {}  # a read creates no database
            rows = self._execute("SELECT key, value FROM attrs WHERE ident = ?", (ident,))
        return {key: value for key, value in rows if key in keys}

    def set(self, path: str | Path, key: str, value: bytes) -> None:
        ident = self.identity(path)
        with self._mutex:
            self._execute("INSERT OR REPLACE INTO attrs VALUES (?, ?, ?)", (ident, key, value))

    @contextmanager
    def lock(self, path: str | Path) -> Iterator[None]:
        # One write transaction on the whole database: it serializes
        # read-modify-write cycles across threads (the mutex) and processes.
        with self._mutex:
            self._execute("BEGIN IMMEDIATE")
            try:
                yield
                self._execute("COMMIT")
            except BaseException:
                if self._conn.in_transaction:
                    self._execute("ROLLBACK")
                raise


class XattrStore(AttributeStore):
    """Backend over real extended attributes in the user namespace.

    Values above :data:`XATTR_VALUE_LIMIT` (or rejected by the filesystem
    for size) are written to the overflow sidecar and replaced by a stub
    attribute; reads follow the stub transparently.
    """

    def __init__(self, overflow: SidecarStore):
        self.overflow = overflow

    def read(self, path: str | Path, keys: Collection[str]) -> dict[str, bytes]:
        try:
            present = set(os.listxattr(path))
        except OSError as exc:
            if exc.errno in _ABSENT_ERRNOS:  # no xattrs on this filesystem
                return {}
            raise
        values = {}
        for key in present.intersection(keys):
            try:
                values[key] = os.getxattr(path, key)
            except OSError as exc:
                if exc.errno not in _ABSENT_ERRNOS:  # else removed since the listing
                    raise
        spilled = [key for key, value in values.items() if value == OVERFLOW_STUB]
        for key in spilled:  # the overflow sidecar holds these values, if anything does
            del values[key]
        return {**values, **self.overflow.read(path, spilled)} if spilled else values

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
        with open_regular(path) as fh:
            fcntl.flock(fh.fileno(), fcntl.LOCK_EX)
            yield


class AutoStore(AttributeStore):
    """Prefer xattrs, degrade to the sidecar where the filesystem refuses."""

    def __init__(self, xattr: XattrStore, sidecar: SidecarStore):
        self.xattr = xattr
        self.sidecar = sidecar

    def read(self, path: str | Path, keys: Collection[str]) -> dict[str, bytes]:
        return {**self.sidecar.read(path, keys), **self.xattr.read(path, keys)}

    def set(self, path: str | Path, key: str, value: bytes) -> None:
        try:
            self.xattr.set(path, key, value)
        except OSError as exc:
            if exc.errno in (errno.ENOTSUP, errno.EOPNOTSUPP, errno.EPERM):
                self.sidecar.set(path, key, value)
            else:
                raise

    def lock(self, path: str | Path) -> AbstractContextManager[None]:
        return self.xattr.lock(path)


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


class _ContentViewFields(NamedTuple):
    app_id: str
    mime: MimeType
    active: bool
    content_hash: bytes
    recorded_at: int
    note: str | None


class ContentView(_ContentViewFields):
    """One application's recorded opinion of a file.

    ``content_hash`` binds the view to the bytes that were inspected;
    a later content change makes the view stale without erasing it.
    """

    __slots__ = ()

    def __new__(cls, app_id: str, mime: MimeType, active: bool, content_hash: bytes,
                recorded_at: int, note: str | None = None):
        if not app_id:
            raise ValueError("app_id must be non-empty")
        if len(content_hash) != 32:
            raise ValueError("content_hash must be exactly 32 bytes")
        if note is not None and len(note.encode("utf-8")) > MAX_NOTE_BYTES:
            raise ValueError(f"note must be at most {MAX_NOTE_BYTES} bytes")
        return tuple.__new__(cls, (app_id, mime, active, content_hash, recorded_at, note))


class FlaggedView(NamedTuple):
    view: ContentView
    stale: bool


def view_to_obj(view: ContentView) -> dict:
    """A view as the JSON object that stores and reports hold."""
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
    return encode_record(views=[view_to_obj(v) for v in ordered])


def decode_views(data: bytes) -> list[ContentView]:
    views = decode_record(data)["views"]
    if not isinstance(views, list):
        raise ValueError("unrecognized view payload")
    return [_view_from_obj(obj) for obj in views]


def record_view(store: AttributeStore, path: str | Path, view: ContentView) -> None:
    """Append (or replace, latest-wins per application) one view on a file."""
    with store.lock(path):
        raw = store.get(path, VIEWS_KEY)
        views = decode_views(raw) if raw else []
        views = [v for v in views if v.app_id != view.app_id]
        views.append(view)
        store.set(path, VIEWS_KEY, encode_views(views))


def views_from(attrs: dict[str, bytes], content_hash: bytes) -> list[FlaggedView]:
    """A file's views, sorted by app id, with staleness judged against ``content_hash``."""
    views = decode_views(attrs[VIEWS_KEY]) if attrs.get(VIEWS_KEY) else []
    return [
        FlaggedView(view=v, stale=v.content_hash != content_hash)
        for v in sorted(views, key=lambda v: v.app_id)
    ]


def read_views(store: AttributeStore, path: str | Path) -> list[FlaggedView]:
    """All recorded views, sorted by app id, stale unless recorded for the current contents."""
    return views_from(store.read(path, (VIEWS_KEY,)), content_identity(path))


class TrustState(Enum):
    TRUSTED = "trusted"
    UNTRUSTED = "untrusted"
    INVALIDATED = "invalidated"
    UNSET = "unset"


def set_trust(store: AttributeStore, path: str | Path, trusted: bool, now: int | None = None) -> None:
    """Record a trust decision bound to the file's current content hash."""
    store.set(path, TRUST_KEY, encode_record(
        trusted=trusted,
        hash=content_identity(path).hex(),
        t=int(time.time()) if now is None else now,
    ))


def trust_from(attrs: dict[str, bytes], content_hash: bytes) -> TrustState:
    """Trust state for ``content_hash``'s contents; one recorded for others is ``INVALIDATED``."""
    if TRUST_KEY not in attrs:
        return TrustState.UNSET
    doc = decode_record(attrs[TRUST_KEY])
    if bytes.fromhex(doc["hash"]) != content_hash:
        return TrustState.INVALIDATED
    return TrustState.TRUSTED if doc["trusted"] else TrustState.UNTRUSTED


def get_trust(store: AttributeStore, path: str | Path) -> TrustState:
    """Trust state for the file's *current* contents."""
    attrs = store.read(path, (TRUST_KEY,))
    # the file is hashed only if trust was recorded
    return trust_from(attrs, content_identity(path) if attrs else None)


class Provenance(NamedTuple):
    """Download provenance read from conventional attributes, uninterpreted."""

    origin_url: str | None = None
    referrer_url: str | None = None
    quarantine: bytes | None = None


def provenance_from(attrs: dict[str, bytes]) -> Provenance:
    """The provenance among a file's attributes, uninterpreted."""
    def _text(key: str) -> str | None:
        raw = attrs.get(key)
        return raw.decode("utf-8", "surrogateescape") if raw is not None else None

    return Provenance(
        origin_url=_text(ORIGIN_KEY),
        referrer_url=_text(REFERRER_KEY),
        quarantine=attrs.get(QUARANTINE_KEY),
    )
