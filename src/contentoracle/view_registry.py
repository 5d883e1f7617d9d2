"""Per-application content views, trust records, and provenance attributes.

Views, trust state, and handler policy are persisted per file in the
``user.contentoracle.*`` extended-attribute namespace. On filesystems
without xattr support (or when a value outgrows the per-attribute budget)
a sidecar SQLite database stands in, one row per (file, key); both
backends satisfy the same black-box contract, and both raise ``OSError``
for a file that does not exist.

Every reader takes a file's attributes from one store ``read``; the ``*_from``
functions decode each record with ``decode_record``, against its table in ``RECORDS``.

Only a read-modify-write cycle holds a lock: an advisory lock on the target
file for xattrs, a write transaction for the sidecar. A single write needs
none and is never observable as a torn value: an xattr update is one
syscall, a sidecar write one committed statement, and a spilled value
lands in the sidecar before its stub.
"""

from __future__ import annotations

import errno
import json
import os
import stat
import threading
import time
import weakref
from contextlib import AbstractContextManager, contextmanager
from enum import Enum
from pathlib import Path
from typing import Callable, Collection, Iterator, NamedTuple

from .errors import ConfigError
from .mime_db import MimeType, parse_mime_type

VIEWS_KEY = "user.contentoracle.views"
TRUST_KEY = "user.contentoracle.trust"
POLICY_KEY = "user.contentoracle.policy"
ORIGIN_KEY = "user.xdg.origin.url"
REFERRER_KEY = "user.xdg.referrer.url"
QUARANTINE_KEY = "com.apple.quarantine"
#: The attributes judged against a file's content hash, and those judged without it.
HASH_BOUND_KEYS = (VIEWS_KEY, TRUST_KEY)
UNBOUND_KEYS = (POLICY_KEY, ORIGIN_KEY, REFERRER_KEY, QUARANTINE_KEY)
#: Every attribute an assessment of a hashed file reads, in one store lookup.
ATTRIBUTE_KEYS = (*HASH_BOUND_KEYS, *UNBOUND_KEYS)

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


class Field(NamedTuple):
    """One field of a stored record: the JSON value it must be, as errors and
    README say it, its check, and its conversions to and from the program's value."""

    must_be: str
    accepts: Callable[[object], bool]
    load: Callable = lambda value: value
    dump: Callable = lambda value: value
    required: bool = True


VERSION = Field("the integer 1", lambda v: type(v) is int and v == 1)
STRING = Field("a string", lambda v: type(v) is str)
BOOLEAN = Field("a boolean", lambda v: type(v) is bool)  # JSON true is no integer,
INTEGER = Field("an integer", lambda v: type(v) is int)  # nor is 5.9
#: A SHA-256 digest exactly as ``bytes.hex`` writes it.
DIGEST = Field("a string of 64 lower-case hex digits",
               lambda v: type(v) is str and len(v) == 64 and not v.strip("0123456789abcdef"),
               bytes.fromhex, bytes.hex)
#: What ``--apps`` takes and a stored policy lists.
APP_ID = Field("a non-empty string without leading or trailing whitespace",
               lambda v: type(v) is str and v != "" and v == v.strip())

#: A view entry's fields, in the order of :class:`ContentView`'s.
VIEW_FIELDS = {
    "app": APP_ID,
    "mime": STRING._replace(load=parse_mime_type, dump=MimeType.format),
    "active": BOOLEAN,
    "hash": DIGEST,
    "t": INTEGER,
    "note": STRING._replace(required=False),
}

#: Each stored record's fields, by the attribute that holds it, in the order
#: of the values it loads as; every record also holds ``"v"``, the integer 1.
RECORDS = {
    VIEWS_KEY: {"views": Field(
        "a list of view entries, one per app, in app order", lambda v: type(v) is list,
        lambda objs: in_app_order([ContentView(*from_obj(VIEW_FIELDS, obj)) for obj in objs]),
        lambda views: [to_obj(VIEW_FIELDS, view) for view in views])},
    TRUST_KEY: {"hash": DIGEST, "trusted": BOOLEAN, "t": INTEGER},
    POLICY_KEY: {  # in the order of policy_engine.HandlerPolicy's fields
        "handlers": Field("a list of application ids",
                          lambda v: type(v) is list and all(map(APP_ID.accepts, v)), tuple, list),
        "deny_all": BOOLEAN,
    },
}


def to_obj(fields: dict[str, Field], values: tuple) -> dict:
    """``values``, in the order of ``fields``, as a JSON object; a None is left out."""
    return {name: field.dump(value)
            for (name, field), value in zip(fields.items(), values) if value is not None}


def from_obj(fields: dict[str, Field], obj: object) -> tuple:
    """The values of ``obj``, in the order of ``fields``, None for an absent
    optional one. ``ValueError`` unless ``obj`` is a JSON object with every
    required field, each as its table entry says, and no other field."""
    if type(obj) is not dict:
        raise ValueError("not a JSON object")
    if not obj.keys() <= fields.keys():
        raise ValueError(f"unknown field {next(name for name in obj if name not in fields)!r}")
    values = []
    for name, (must_be, accepts, load, _, required) in fields.items():
        if name not in obj and required:
            raise ValueError(f"field {name!r} is missing")
        if name in obj and not accepts(obj[name]):
            raise ValueError(f"field {name!r} must be {must_be}")
        values.append(load(obj[name]) if name in obj else None)
    return tuple(values)


def in_app_order(views: list[ContentView]) -> list[ContentView]:
    """``views``, if their app ids strictly increase as ``encode_views`` writes them."""
    if any(a.app_id >= b.app_id for a, b in zip(views, views[1:])):
        raise ValueError("field 'views' must list one view per app, in app order")
    return views


def encode_record(key: str, values: tuple) -> bytes:
    """The record of ``values`` to store under ``key``, with ``"v": 1``, as
    JSON with sorted keys and no padding: equal records are equal bytes."""
    return json.dumps({"v": 1, **to_obj(RECORDS[key], values)}, sort_keys=True,
                      separators=(",", ":"), ensure_ascii=False).encode("utf-8")


def decode_record(key: str, data: bytes) -> tuple:
    """The values of the record stored under ``key``, as ``encode_record``
    takes them; ``ValueError``, naming ``key``, for any other value. A field
    the table does not declare is refused: a new format takes a new ``"v"``."""
    try:
        return from_obj({"v": VERSION, **RECORDS[key]}, json.loads(data))[1:]
    except ValueError as exc:  # MalformedMime and JSONDecodeError among them
        raise ValueError(f"{key}: {exc}") from None


#: Bytes read from a file at a time while it is hashed and sniffed. A
#: chunk, its copy with the sniffer's carry in front, and the seven passes
#: over it (sha256 and six polyglot group searches) then stay within a
#: 2 MiB per-core L2 cache.
CHUNK_SIZE = 256 << 10


def open_regular(path: str | Path) -> int:
    """A descriptor reading ``path``, for the caller to close, if a regular file; else ``OSError``.

    The open does not wait for a FIFO's writer, and the type is read from
    the descriptor that is then read, so the file cannot change between the
    check and the read. A read with ``os.read`` costs no buffered reader.
    """
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    try:
        mode = os.fstat(fd).st_mode
        if stat.S_ISDIR(mode):
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), os.fspath(path))
        if not stat.S_ISREG(mode):
            raise OSError(f"not a regular file: {path}")
        return fd
    except BaseException:
        os.close(fd)
        raise


def new_sha256():
    """An empty SHA-256 hash; OpenSSL's ``hashlib`` loads on the first call."""
    import hashlib
    return hashlib.sha256()


def content_identity(path: str | Path) -> bytes:
    """SHA-256 of the file's full contents, streamed."""
    digest = new_sha256()
    fd = open_regular(path)
    try:
        while chunk := os.read(fd, CHUNK_SIZE):
            digest.update(chunk)
    finally:
        os.close(fd)
    return digest.digest()


class AttributeStore:
    """Minimal key/value-per-file surface shared by both backends."""

    def read(self, path: str | Path, keys: Collection[str]) -> dict[str, bytes]:
        """Those of ``keys`` that the file has, with their values, in one lookup."""
        raise NotImplementedError

    def get(self, path: str | Path, key: str) -> bytes | None:
        return self.read(path, (key,)).get(key)

    def may_hold(self, fd: int, keys: Collection[str]) -> bool:
        """False only if the file open on ``fd`` certainly has none of ``keys``."""
        return True

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

    def may_hold(self, fd: int, keys: Collection[str]) -> bool:
        return self._conn is not None or self.path.exists()  # a query costs more than a hash

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

    def may_hold(self, fd: int, keys: Collection[str]) -> bool:
        try:  # a spilled value's stub is listed under its key
            return not set(keys).isdisjoint(os.listxattr(fd))
        except OSError as exc:  # any but "no xattrs here" is for the read to raise
            return exc.errno not in _ABSENT_ERRNOS

    def set(self, path: str | Path, key: str, value: bytes) -> None:
        try:
            if len(value) <= XATTR_VALUE_LIMIT:
                os.setxattr(path, key, value)
                return
        except OSError as exc:
            if exc.errno not in (errno.E2BIG, errno.ENOSPC):
                raise
        # too large for an attribute: the value spills to the sidecar, then its stub lands
        self.overflow.set(path, key, value)
        os.setxattr(path, key, OVERFLOW_STUB)

    @contextmanager
    def lock(self, path: str | Path) -> Iterator[None]:
        import fcntl  # only a write locks
        with open(open_regular(path), "rb") as fh:
            fcntl.flock(fh, fcntl.LOCK_EX)
            yield


class AutoStore(AttributeStore):
    """Prefer xattrs, degrade to the sidecar where the filesystem refuses."""

    def __init__(self, xattr: XattrStore, sidecar: SidecarStore):
        self.xattr = xattr
        self.sidecar = sidecar

    def read(self, path: str | Path, keys: Collection[str]) -> dict[str, bytes]:
        return {**self.sidecar.read(path, keys), **self.xattr.read(path, keys)}

    def may_hold(self, fd: int, keys: Collection[str]) -> bool:
        return self.xattr.may_hold(fd, keys) or self.sidecar.may_hold(fd, keys)

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
        if not APP_ID.accepts(app_id):
            raise ValueError(f"app_id must be {APP_ID.must_be}")
        if len(content_hash) != 32:
            raise ValueError("content_hash must be exactly 32 bytes")
        if note is not None and len(note.encode("utf-8")) > MAX_NOTE_BYTES:
            raise ValueError(f"note must be at most {MAX_NOTE_BYTES} bytes")
        return tuple.__new__(cls, (app_id, mime, active, content_hash, recorded_at, note))


class FlaggedView(NamedTuple):
    view: ContentView
    stale: bool


def encode_views(views: list[ContentView]) -> bytes:
    """The views record: the last view by each app, in app order (equal sets, equal bytes)."""
    latest = {view.app_id: view for view in views}
    return encode_record(VIEWS_KEY, ([latest[app] for app in sorted(latest)],))


def decode_views(data: bytes) -> list[ContentView]:
    return decode_record(VIEWS_KEY, data)[0]


def record_view(store: AttributeStore, path: str | Path, view: ContentView) -> None:
    """Append (or replace, latest-wins per application) one view on a file."""
    with store.lock(path):
        raw = store.get(path, VIEWS_KEY)
        views = [] if raw is None else decode_views(raw)
        store.set(path, VIEWS_KEY, encode_views([*views, view]))


def views_from(attrs: dict[str, bytes], content_hash: bytes) -> list[FlaggedView]:
    """A file's views, in app order, with staleness judged against ``content_hash``."""
    views = decode_views(attrs[VIEWS_KEY]) if VIEWS_KEY in attrs else []
    return [FlaggedView(v, v.content_hash != content_hash) for v in views]


def read_views(store: AttributeStore, path: str | Path) -> list[FlaggedView]:
    """All recorded views, sorted by app id, stale unless recorded for the current contents."""
    attrs = store.read(path, (VIEWS_KEY,))  # the file is hashed only if it has views
    return views_from(attrs, content_identity(path) if VIEWS_KEY in attrs else None)


class TrustState(Enum):
    TRUSTED = "trusted"
    UNTRUSTED = "untrusted"
    INVALIDATED = "invalidated"
    UNSET = "unset"


def set_trust(store: AttributeStore, path: str | Path, trusted: bool, now: int | None = None) -> None:
    """Record a trust decision bound to the file's current content hash."""
    t = int(time.time()) if now is None else now
    store.set(path, TRUST_KEY, encode_record(TRUST_KEY, (content_identity(path), trusted, t)))


def trust_from(attrs: dict[str, bytes], content_hash: bytes) -> TrustState:
    """Trust state for ``content_hash``'s contents; one recorded for others is ``INVALIDATED``."""
    if TRUST_KEY not in attrs:
        return TrustState.UNSET
    digest, trusted, _ = decode_record(TRUST_KEY, attrs[TRUST_KEY])
    if digest != content_hash:
        return TrustState.INVALIDATED
    return TrustState.TRUSTED if trusted else TrustState.UNTRUSTED


def get_trust(store: AttributeStore, path: str | Path) -> TrustState:
    """Trust state for the file's *current* contents."""
    attrs = store.read(path, (TRUST_KEY,))
    # the file is hashed only if trust was recorded
    return trust_from(attrs, content_identity(path) if TRUST_KEY in attrs else None)


class Provenance(NamedTuple):
    """Download provenance read from conventional attributes, uninterpreted."""

    origin_url: str | None = None
    referrer_url: str | None = None
    quarantine: bytes | None = None


def provenance_from(attrs: dict[str, bytes]) -> Provenance:
    """The provenance among a file's attributes, uninterpreted."""
    origin, referrer = (attrs[key].decode("utf-8", "surrogateescape") if key in attrs else None
                        for key in (ORIGIN_KEY, REFERRER_KEY))
    return Provenance(origin, referrer, attrs.get(QUARANTINE_KEY))
