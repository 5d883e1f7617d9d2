"""Black-box tests run identically against the xattr and sidecar backends,
plus canonical-encoding and overflow behavior."""

from __future__ import annotations

import copy
import errno
import gc
import hashlib
import json
import os
import random
import sqlite3
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

import contentoracle
from contentoracle import view_registry
from contentoracle.mime_db import MimeType, parse_mime_type
from contentoracle.policy_engine import (
    DENY_ALL,
    HandlerPolicy,
    policy_from,
    set_handler_policy,
)
from contentoracle.view_registry import (
    APP_ID,
    ATTRIBUTE_KEYS,
    AutoStore,
    CHUNK_SIZE,
    ContentView,
    FlaggedView,
    OVERFLOW_STUB,
    ORIGIN_KEY,
    POLICY_KEY,
    QUARANTINE_KEY,
    RECORDS,
    REFERRER_KEY,
    SidecarStore,
    TRUST_KEY,
    TrustState,
    VIEWS_KEY,
    XattrStore,
    content_identity,
    decode_record,
    decode_views,
    encode_record,
    encode_views,
    get_trust,
    provenance_from,
    read_views,
    record_view,
    set_trust,
    trust_from,
    xattrs_supported,
)

PDF = MimeType("application", "pdf")
JS = MimeType("text", "javascript")

EMPTY_SHA256 = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
ABC_SHA256 = "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"


def _file(backend, name="subject.bin", data=b"contents"):
    path = backend.workdir / name
    path.write_bytes(data)
    return path


def _view(app="viewer", mime=PDF, active=False, path=None, t=1000, note=None):
    return ContentView(
        app_id=app, mime=mime, active=active,
        content_hash=content_identity(path), recorded_at=t, note=note,
    )


class TestContentIdentity:
    def test_empty_file_digest(self, tmp_path):
        path = tmp_path / "empty"
        path.write_bytes(b"")
        assert content_identity(path).hex() == EMPTY_SHA256

    def test_abc_digest(self, tmp_path):
        path = tmp_path / "abc"
        path.write_bytes(b"abc")
        assert content_identity(path).hex() == ABC_SHA256

    def test_deterministic(self, tmp_path):
        data = os.urandom(2 * CHUNK_SIZE + 1000)  # spans three stream chunks
        path = tmp_path / "f"
        path.write_bytes(data)
        assert content_identity(path) == content_identity(path) == hashlib.sha256(data).digest()

    @pytest.mark.parametrize("call", [
        "content_identity(path)",
        "XattrStore(SidecarStore(path + '.sqlite3')).lock(path).__enter__()",
    ])
    def test_fifo_is_refused_without_waiting_for_a_writer(self, tmp_path, call):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        proc = _start_python(f"""
            import sys
            from contentoracle.view_registry import SidecarStore, XattrStore, content_identity
            path = sys.argv[1]
            try:
                {call}
            except OSError as exc:
                sys.exit(f"refused: {{exc}}")
        """, str(fifo))
        try:
            _, err = proc.communicate(timeout=60)
        finally:
            proc.kill()
        assert "refused: not a regular file" in err


class TestViewValidation:
    def test_hash_must_be_32_bytes(self):
        with pytest.raises(ValueError):
            ContentView("app", PDF, False, b"short", 0)

    def test_app_id_must_be_non_empty(self):
        with pytest.raises(ValueError):
            ContentView("", PDF, False, bytes(32), 0)

    def test_note_size_cap(self):
        with pytest.raises(ValueError):
            ContentView("app", PDF, False, bytes(32), 0, note="x" * 257)
        ContentView("app", PDF, False, bytes(32), 0, note="x" * 256)


class TestCanonicalEncoding:
    def _views(self, seed: int, count: int) -> list[ContentView]:
        rng = random.Random(seed)
        views = []
        for i in range(count):
            views.append(ContentView(
                app_id=f"app-{rng.randrange(1000)}-{i}",
                mime=MimeType(rng.choice(["application", "text", "image"]),
                              rng.choice(["pdf", "plain", "gif", "x-foo"])),
                active=rng.random() < 0.5,
                content_hash=bytes(rng.randrange(256) for _ in range(32)),
                recorded_at=rng.randrange(2**31),
                note=None if rng.random() < 0.5 else f"note {rng.randrange(100)}",
            ))
        return views

    def test_round_trip_byte_identical(self):
        for seed in range(50):
            views = self._views(seed, seed % 7)
            encoded = encode_views(views)
            assert encode_views(decode_views(encoded)) == encoded

    def test_order_independent_canonical_form(self):
        views = self._views(1, 6)
        shuffled = list(views)
        random.Random(9).shuffle(shuffled)
        assert encode_views(views) == encode_views(shuffled)

    def test_schema_shape(self):
        import json

        views = [ContentView("a", PDF, True, bytes(32), 5, note="n")]
        doc = json.loads(encode_views(views))
        assert doc["v"] == 1
        assert doc["views"] == [{
            "active": True, "app": "a", "hash": "00" * 32, "mime": "application/pdf",
            "note": "n", "t": 5,
        }]

    def test_stored_records_keep_their_bytes(self, backend):
        # one record of each kind, as stored for a file holding "x" at t=1
        path = _file(backend, data=b"x")
        digest = "2d711642b726b04401627ca9fbac32f5c8530fb1903cc4db02258717921a4881"
        store = backend.store
        set_trust(store, path, True, now=1)
        set_handler_policy(store, path, HandlerPolicy(allowed=("viewer",)))
        record_view(store, path, _view(app="a", path=path, t=1))
        assert store.read(path, (TRUST_KEY, POLICY_KEY, VIEWS_KEY)) == {
            TRUST_KEY: b'{"hash":"%s","t":1,"trusted":true,"v":1}' % digest.encode(),
            POLICY_KEY: b'{"deny_all":false,"handlers":["viewer"],"v":1}',
            VIEWS_KEY: b'{"v":1,"views":[{"active":false,"app":"a","hash":"%s",'
                       b'"mime":"application/pdf","t":1}]}' % digest.encode(),
        }


class TestRecordEnvelope:
    def test_returns_the_fields_written(self):
        values = (bytes(range(32)), True, 1)
        assert decode_record(TRUST_KEY, encode_record(TRUST_KEY, values)) == values

    @pytest.mark.parametrize("data", [b"[]", b'"text"', b'{"v":2}', b'{"a":1}'])
    def test_refuses_what_the_encoder_does_not_write(self, data):
        for key in RECORDS:
            with pytest.raises(ValueError, match=key):
                decode_record(key, data)


#: One valid record of each kind, as its writer stores it: an untrusted
#: trust record and a policy that allows one handler.
_RECORDS = {
    VIEWS_KEY: {"v": 1, "views": [{"active": False, "app": "viewer", "hash": ABC_SHA256,
                                   "mime": "application/pdf", "note": "n", "t": 1}]},
    TRUST_KEY: {"hash": ABC_SHA256, "t": 1, "trusted": False, "v": 1},
    POLICY_KEY: {"deny_all": False, "handlers": ["viewer"], "v": 1},
}
_DELETE = object()
#: Any JSON value, and values close to what the writers store, so that
#: some mutations still decode; _DELETE removes the field.
_json_values = st.one_of(
    st.sampled_from([True, 0, 5.9, 2**70, "", "editor", " viewer", "5", "Text/HTML; q=1",
                     EMPTY_SHA256, ABC_SHA256.upper(), ABC_SHA256[:32] + " " + ABC_SHA256[32:],
                     [], [""], [" viewer"], ["viewer", "editor"], _RECORDS[VIEWS_KEY]["views"],
                     _DELETE]),
    st.recursive(st.none() | st.booleans() | st.integers() | st.text(max_size=6)
                 | st.floats(allow_nan=False, allow_infinity=False),
                 lambda inner: st.lists(inner, max_size=3)
                 | st.dictionaries(st.text(max_size=4), inner, max_size=3),
                 max_leaves=6),
)


def _mutations(value):
    """Each record of _RECORDS, and its view entry, with each of its fields
    in turn, and one new field, set to ``value``; and the views record with
    that mutated entry beside the valid one, after it and before it, which
    lists one app twice unless ``value`` is the second entry's app."""
    for key, valid in _RECORDS.items():
        for in_view in (False, True) if key == VIEWS_KEY else (False,):
            fields = valid["views"][0] if in_view else valid
            for name in [*fields, "x"]:
                record = json.loads(json.dumps(valid))
                target = record["views"][0] if in_view else record
                if value is _DELETE:
                    target.pop(name, None)
                else:
                    target[name] = copy.deepcopy(value)
                if in_view:
                    entry = valid["views"][0]
                    for pair in ([entry, target], [target, entry]):
                        yield key, {**valid, "views": copy.deepcopy(pair)}
                yield key, record


@settings(max_examples=300)
@given(value=_json_values)
def test_a_mutated_record_fails_or_reads_as_its_writer_stores_it(value):
    """A valid record with one field set to any JSON value, added, or
    removed, or a views record with such an entry beside a valid one, fails
    to decode, or decodes to values its writer takes and would store as the
    same record."""
    for key, record in _mutations(value):
        stored = json.dumps(record).encode("utf-8")
        try:
            values = decode_record(key, stored)
        except ValueError:
            continue
        if key == VIEWS_KEY:
            for view in values[0]:  # what ContentView holds; JSON true is no int
                assert type(view.active) is bool and type(view.recorded_at) is int
                assert APP_ID.accepts(view.app_id) and type(view.note) in (str, type(None))
            for obj in record["views"]:  # the writer stores a type in its canonical form
                obj["mime"] = parse_mime_type(obj["mime"]).format()
        if key == TRUST_KEY:  # what set_trust takes: a digest, a bool and an int
            digest, trusted, t = values
            assert len(digest) == 32 and type(trusted) is bool and type(t) is int
            state = trust_from({TRUST_KEY: stored}, bytes.fromhex(ABC_SHA256))
            assert state is not TrustState.TRUSTED or record["trusted"] is True
        if key == POLICY_KEY:
            policy = policy_from({POLICY_KEY: stored})
            assert type(policy.deny_all) is bool
            assert all(type(app) is str and app and app == app.strip() for app in policy.allowed)
            # only an empty list, which set_handler_policy stores for no
            # restriction, permits a handler that the stored list does not name
            for app in ("viewer", "editor", " viewer", "", *policy.allowed):
                if policy.permits(app):
                    assert app in record["handlers"] or record["handlers"] == []
        # views as encode_views stores them: one per app, in app order
        written = encode_views(*values) if key == VIEWS_KEY else encode_record(key, values)
        assert written == json.dumps(
            record, sort_keys=True, separators=(",", ":"), ensure_ascii=False).encode("utf-8")


#: Views values that no writer stores: one app twice, two apps out of
#: order, and an empty value.
_UNWRITTEN_VIEWS = {"twice": ("viewer", "viewer"), "swapped": ("viewer", "editor"), "empty": None}


@pytest.mark.parametrize("apps", _UNWRITTEN_VIEWS.values(), ids=_UNWRITTEN_VIEWS)
def test_a_views_value_no_writer_stores_is_refused_and_kept(backend, apps):
    path = _file(backend)
    digest = content_identity(path).hex()
    stored = b"" if apps is None else json.dumps({"v": 1, "views": [
        {"active": False, "app": app, "hash": digest, "mime": "application/pdf", "t": 1}
        for app in apps]}, sort_keys=True, separators=(",", ":")).encode("utf-8")
    backend.store.set(path, VIEWS_KEY, stored)
    with pytest.raises(ValueError, match=VIEWS_KEY):
        read_views(backend.store, path)
    # a read-modify-write does not replace what it cannot read
    with pytest.raises(ValueError, match=VIEWS_KEY):
        record_view(backend.store, path, _view(app="other", path=path))
    assert backend.store.get(path, VIEWS_KEY) == stored


def test_readme_table_of_stored_records_names_exactly_the_declared_fields():
    """README's table of stored records lists each field that ``RECORDS``
    and ``VIEW_FIELDS`` declare, with its value and presence, in order."""
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    table = readme.split("\n### Stored records\n", 1)[1].split("\n| --- |", 1)[1]
    rows = [tuple(cell.strip().strip("`") for cell in line.strip("|").split("|"))
            for line in table.split("\n\n", 1)[0].splitlines()[1:]]

    def declared(where, fields):
        return [(where, name, field.must_be, "required" if field.required else "optional")
                for name, field in fields.items()]

    expected = declared("every record", {"v": view_registry.VERSION})
    for key, fields in RECORDS.items():
        expected += declared(key, fields)
        if key == VIEWS_KEY:
            expected += declared("view entry", view_registry.VIEW_FIELDS)
    assert rows == expected


class TestBackendContract:
    def test_record_then_read_round_trip(self, backend):
        path = _file(backend)
        view = _view(path=path)
        record_view(backend.store, path, view)
        flagged = read_views(backend.store, path)
        assert flagged == [FlaggedView(view=view, stale=False)]

    def test_no_attributes_means_no_views(self, backend):
        path = _file(backend)
        assert read_views(backend.store, path) == []

    def test_latest_wins_per_app(self, backend):
        path = _file(backend)
        record_view(backend.store, path, _view(path=path, mime=PDF))
        record_view(backend.store, path, _view(path=path, mime=JS, t=2000))
        flagged = read_views(backend.store, path)
        assert len(flagged) == 1
        assert flagged[0].view.mime == JS

    def test_record_idempotent(self, backend):
        path = _file(backend)
        view = _view(path=path)
        record_view(backend.store, path, view)
        before = backend.store.get(path, VIEWS_KEY)
        record_view(backend.store, path, view)
        assert backend.store.get(path, VIEWS_KEY) == before

    def test_views_sorted_by_app(self, backend):
        path = _file(backend)
        for app in ("zed", "alpha", "mid"):
            record_view(backend.store, path, _view(app=app, path=path))
        assert [fv.view.app_id for fv in read_views(backend.store, path)] == \
            ["alpha", "mid", "zed"]

    def test_modify_flips_every_fresh_view_stale(self, backend):
        path = _file(backend)
        for app in ("a", "b", "c"):
            record_view(backend.store, path, _view(app=app, path=path))
        path.write_bytes(b"different contents")
        assert all(fv.stale for fv in read_views(backend.store, path))

    def test_trust_lifecycle(self, backend):
        path = _file(backend)
        assert get_trust(backend.store, path) is TrustState.UNSET
        set_trust(backend.store, path, True, now=50)
        assert get_trust(backend.store, path) is TrustState.TRUSTED
        set_trust(backend.store, path, False, now=51)
        assert get_trust(backend.store, path) is TrustState.UNTRUSTED

    def test_trust_invalidated_by_modification(self, backend):
        path = _file(backend)
        set_trust(backend.store, path, True, now=50)
        path.write_bytes(b"tampered")
        assert get_trust(backend.store, path) is TrustState.INVALIDATED

    def test_single_byte_flip_invalidates(self, backend):
        path = _file(backend, data=b"AAAA")
        record_view(backend.store, path, _view(path=path))
        set_trust(backend.store, path, True, now=1)
        path.write_bytes(b"AAAB")
        assert get_trust(backend.store, path) is TrustState.INVALIDATED
        assert all(fv.stale for fv in read_views(backend.store, path))

    def test_provenance_absent_by_default(self, backend):
        path = _file(backend)
        prov = provenance_from(backend.store.read(path, ATTRIBUTE_KEYS))
        assert prov.origin_url is None
        assert prov.referrer_url is None
        assert prov.quarantine is None

    def test_origin_and_referrer_round_trip(self, backend):
        path = _file(backend)
        backend.store.set(path, ORIGIN_KEY, b"https://a.example/f.pdf")
        backend.store.set(path, REFERRER_KEY, b"https://ref.example/")
        prov = provenance_from(backend.store.read(path, ATTRIBUTE_KEYS))
        assert prov.origin_url == "https://a.example/f.pdf"
        assert prov.referrer_url == "https://ref.example/"

    def test_missing_file_raises(self, backend):
        missing = backend.workdir / "nope"
        with pytest.raises(OSError):
            read_views(backend.store, missing)
        with pytest.raises(OSError):
            record_view(backend.store, missing, ContentView("a", PDF, False, bytes(32), 0))
        with pytest.raises(OSError):
            get_trust(backend.store, missing)
        with pytest.raises(OSError):
            set_trust(backend.store, missing, True, now=1)
        with pytest.raises(OSError):
            provenance_from(backend.store.read(missing, ATTRIBUTE_KEYS))
        with pytest.raises(OSError):
            policy_from(backend.store.read(missing, (POLICY_KEY,)))
        with pytest.raises(OSError):
            set_handler_policy(backend.store, missing, DENY_ALL)

    def test_concurrent_writers_all_land(self, backend):
        path = _file(backend)
        errors = []

        def worker(i: int):
            try:
                record_view(backend.store, path, _view(app=f"app{i:02d}", path=path))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert len(read_views(backend.store, path)) == 8


class TestQuarantinePassThrough:
    def test_sidecar_returns_raw_bytes(self, tmp_path):
        store = SidecarStore(tmp_path / "journal.jsonl")
        path = tmp_path / "download.bin"
        path.write_bytes(b"x")
        raw = b"0083;5f4e1c2d;Safari;ABCD-EF01"
        store.set(path, QUARANTINE_KEY, raw)
        assert provenance_from(store.read(path, ATTRIBUTE_KEYS)).quarantine == raw

    def test_arbitrary_bytes_uninterpreted(self, tmp_path):
        store = SidecarStore(tmp_path / "journal.jsonl")
        path = tmp_path / "download.bin"
        path.write_bytes(b"x")
        raw = bytes(range(256))
        store.set(path, QUARANTINE_KEY, raw)
        assert provenance_from(store.read(path, ATTRIBUTE_KEYS)).quarantine == raw

    def test_xattr_backend_reports_absent(self, xattr_dir):
        # the attribute lives outside the Linux user namespace, so the xattr
        # backend can only ever observe it as absent here
        store = XattrStore(overflow=SidecarStore(xattr_dir / "overflow.jsonl"))
        path = xattr_dir / "download.bin"
        path.write_bytes(b"x")
        assert provenance_from(store.read(path, ATTRIBUTE_KEYS)).quarantine is None


class TestOverflow:
    def test_hundred_views_spill_to_sidecar(self, xattr_dir):
        store = XattrStore(overflow=SidecarStore(xattr_dir / "overflow.jsonl"))
        path = xattr_dir / "subject.bin"
        path.write_bytes(b"data")
        note = "x" * 250  # ~300 encoded bytes per view
        for i in range(100):
            record_view(store, path, _view(app=f"app-{i:03d}", path=path, note=note))
        assert os.getxattr(path, VIEWS_KEY) == OVERFLOW_STUB
        assert len(read_views(store, path)) == 100

    def test_small_value_after_overflow_returns_inline(self, xattr_dir):
        store = XattrStore(overflow=SidecarStore(xattr_dir / "overflow.jsonl"))
        path = xattr_dir / "subject.bin"
        path.write_bytes(b"data")
        store.set(path, "user.contentoracle.views", b"x" * 5000)
        assert store.get(path, "user.contentoracle.views") == b"x" * 5000
        store.set(path, "user.contentoracle.views", b"small")
        assert os.getxattr(path, "user.contentoracle.views") == b"small"
        assert store.get(path, "user.contentoracle.views") == b"small"


class TestRead:
    """``read`` returns the wanted keys a file has in one lookup: on xattrs,
    one listing plus a getxattr for each wanted key that is present."""

    def _store(self, directory):
        return XattrStore(overflow=SidecarStore(directory / "overflow.jsonl"))

    def test_returns_only_wanted_keys_that_are_present(self, backend):
        path = _file(backend)
        backend.store.set(path, VIEWS_KEY, b"views")
        backend.store.set(path, TRUST_KEY, b"trust")
        assert backend.store.read(path, (VIEWS_KEY, ORIGIN_KEY)) == {VIEWS_KEY: b"views"}
        assert backend.store.get(path, TRUST_KEY) == b"trust"
        assert backend.store.get(path, ORIGIN_KEY) is None

    def test_follows_an_overflow_stub(self, xattr_dir):
        store = self._store(xattr_dir)
        path = xattr_dir / "subject.bin"
        path.write_bytes(b"data")
        store.set(path, VIEWS_KEY, b"v" * 5000)
        store.set(path, TRUST_KEY, b"inline")
        assert os.getxattr(path, VIEWS_KEY) == OVERFLOW_STUB
        assert store.read(path, (VIEWS_KEY, TRUST_KEY, ORIGIN_KEY)) == {
            VIEWS_KEY: b"v" * 5000, TRUST_KEY: b"inline"}

    def test_stub_without_its_overflow_value_is_absent(self, xattr_dir):
        store = self._store(xattr_dir)
        path = xattr_dir / "subject.bin"
        path.write_bytes(b"data")
        store.set(path, VIEWS_KEY, b"v" * 5000)
        store.set(path, TRUST_KEY, b"inline")
        store.overflow = SidecarStore(xattr_dir / "empty.sqlite3")  # the value is gone
        assert os.getxattr(path, VIEWS_KEY) == OVERFLOW_STUB
        assert store.read(path, (VIEWS_KEY, TRUST_KEY)) == {TRUST_KEY: b"inline"}

    def test_key_removed_after_the_listing_is_absent(self, xattr_dir, monkeypatch):
        store = self._store(xattr_dir)
        path = xattr_dir / "subject.bin"
        path.write_bytes(b"data")
        store.set(path, VIEWS_KEY, b"views")
        store.set(path, TRUST_KEY, b"trust")
        real_getxattr = os.getxattr

        def vanishing(target, key, *args, **kwargs):
            if key == TRUST_KEY:  # removed by another process since listxattr
                raise OSError(errno.ENODATA, os.strerror(errno.ENODATA))
            return real_getxattr(target, key, *args, **kwargs)

        monkeypatch.setattr(os, "getxattr", vanishing)
        assert store.read(path, (VIEWS_KEY, TRUST_KEY)) == {VIEWS_KEY: b"views"}

    def test_other_getxattr_error_is_raised(self, tmp_path, monkeypatch):
        def failing(*args, **kwargs):
            raise OSError(errno.EIO, os.strerror(errno.EIO))

        monkeypatch.setattr(os, "listxattr", lambda *args, **kwargs: [VIEWS_KEY])
        monkeypatch.setattr(os, "getxattr", failing)
        path = tmp_path / "subject.bin"
        path.write_bytes(b"data")
        with pytest.raises(OSError) as info:
            self._store(tmp_path).read(path, (VIEWS_KEY, TRUST_KEY))
        assert info.value.errno == errno.EIO

    def test_unsupported_listing_reads_as_empty(self, tmp_path, monkeypatch):
        def unsupported(*args, **kwargs):
            raise OSError(errno.ENOTSUP, os.strerror(errno.ENOTSUP))

        monkeypatch.setattr(os, "listxattr", unsupported)
        path = tmp_path / "subject.bin"
        path.write_bytes(b"data")
        assert self._store(tmp_path).read(path, (VIEWS_KEY, TRUST_KEY)) == {}


class TestAutoStore:
    def test_falls_back_where_xattrs_unsupported(self, tmp_path):
        # the repository filesystem here has no xattr support, which is
        # exactly the situation the auto store exists for
        sidecar = SidecarStore(tmp_path / "journal.jsonl")
        store = AutoStore(XattrStore(overflow=sidecar), sidecar)
        path = tmp_path / "f.bin"
        path.write_bytes(b"x")
        try:
            os.setxattr(path, "user.contentoracle.probe", b"1")
            pytest.skip("tmp_path unexpectedly supports xattrs")
        except OSError:
            pass
        record_view(store, path, _view(path=path))
        assert len(read_views(store, path)) == 1

    @staticmethod
    def _refuse(monkeypatch, code, names):
        def refused(*args, **kwargs):
            raise OSError(code, os.strerror(code))

        for name in names:
            monkeypatch.setattr(os, name, refused)

    @pytest.mark.parametrize("code,names", [
        (errno.ENOTSUP, ("setxattr", "listxattr", "getxattr")),
        (errno.EPERM, ("setxattr",)),
    ])
    def test_records_land_in_the_sidecar_where_xattrs_are_refused(self, tmp_path, monkeypatch,
                                                                  code, names):
        # runs on every filesystem, where test_falls_back_where_xattrs_unsupported
        # runs only on one without user xattrs
        sidecar = SidecarStore(tmp_path / "sidecar.sqlite3")
        store = AutoStore(XattrStore(overflow=sidecar), sidecar)
        path = tmp_path / "f.bin"
        path.write_bytes(b"x")
        self._refuse(monkeypatch, code, names)
        record_view(store, path, _view(path=path))
        set_trust(store, path, True, now=1000)
        stored = sidecar.read(path, (VIEWS_KEY, TRUST_KEY))
        assert set(stored) == {VIEWS_KEY, TRUST_KEY}
        assert store.read(path, (VIEWS_KEY, TRUST_KEY)) == stored
        assert [fv.view.app_id for fv in read_views(store, path)] == ["viewer"]
        assert get_trust(store, path) is TrustState.TRUSTED

    def test_large_value_reads_back_whole_where_xattrs_are_unsupported(self, tmp_path,
                                                                       monkeypatch):
        sidecar = SidecarStore(tmp_path / "sidecar.sqlite3")
        store = AutoStore(XattrStore(overflow=sidecar), sidecar)
        path = tmp_path / "f.bin"
        path.write_bytes(b"x")
        self._refuse(monkeypatch, errno.ENOTSUP, ("setxattr", "listxattr", "getxattr"))
        store.set(path, VIEWS_KEY, b"v" * 5000)
        assert store.read(path, (VIEWS_KEY,)) == {VIEWS_KEY: b"v" * 5000}

    def test_other_refusal_is_raised_and_nothing_reaches_the_sidecar(self, tmp_path,
                                                                        monkeypatch):
        sidecar = SidecarStore(tmp_path / "sidecar.sqlite3")
        store = AutoStore(XattrStore(overflow=sidecar), sidecar)
        path = tmp_path / "f.bin"
        path.write_bytes(b"x")
        self._refuse(monkeypatch, errno.EACCES, ("setxattr",))
        with pytest.raises(PermissionError):
            store.set(path, VIEWS_KEY, b"views")
        assert not sidecar.path.exists()

    def test_probe_fails_where_setxattr_is_refused(self, tmp_path, monkeypatch):
        self._refuse(monkeypatch, errno.ENOTSUP, ("setxattr",))
        assert xattrs_supported(tmp_path) is False
        assert list(tmp_path.iterdir()) == []  # the probe file is gone

    def test_xattr_value_overrides_the_sidecar_value(self, xattr_dir):
        sidecar = SidecarStore(xattr_dir / "journal.jsonl")
        store = AutoStore(XattrStore(overflow=sidecar), sidecar)
        path = xattr_dir / "f.bin"
        path.write_bytes(b"x")
        sidecar.set(path, VIEWS_KEY, b"old")
        sidecar.set(path, TRUST_KEY, b"sidecar only")
        os.setxattr(path, VIEWS_KEY, b"new")
        assert store.read(path, (VIEWS_KEY, TRUST_KEY)) == {
            VIEWS_KEY: b"new", TRUST_KEY: b"sidecar only"}

    def test_prefers_xattr_when_available(self, xattr_dir):
        sidecar = SidecarStore(xattr_dir / "journal.jsonl")
        store = AutoStore(XattrStore(overflow=sidecar), sidecar)
        path = xattr_dir / "f.bin"
        path.write_bytes(b"x")
        record_view(store, path, _view(path=path))
        assert os.getxattr(path, VIEWS_KEY)  # actually landed in the xattr
        assert not (xattr_dir / "journal.jsonl").exists()


def _write_uncommitted(db, path, value):
    """A second connection to ``db`` holding an open write of ``value`` for ``path``."""
    other = sqlite3.connect(db, isolation_level=None)
    other.execute("BEGIN IMMEDIATE")
    other.execute("INSERT OR REPLACE INTO attrs VALUES (?, ?, ?)",
                  (SidecarStore.identity(path), "user.test", value))
    return other


class TestSidecarJournal:
    def test_last_record_wins(self, tmp_path):
        store = SidecarStore(tmp_path / "journal.jsonl")
        path = tmp_path / "f"
        path.write_bytes(b"x")
        store.set(path, "user.test", b"one")
        store.set(path, "user.test", b"two")
        assert store.get(path, "user.test") == b"two"

    def test_torn_trailing_record_tolerated(self, tmp_path):
        db = tmp_path / "sidecar.sqlite3"
        store = SidecarStore(db)
        path = tmp_path / "f"
        path.write_bytes(b"x")
        store.set(path, "user.test", b"value")
        other = _write_uncommitted(db, path, b"half-written")
        try:
            assert store.get(path, "user.test") == b"value"
            other.execute("ROLLBACK")
            assert store.get(path, "user.test") == b"value"
        finally:
            other.close()

    def test_distinct_files_do_not_collide(self, tmp_path):
        store = SidecarStore(tmp_path / "journal.jsonl")
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_bytes(b"x")
        b.write_bytes(b"y")
        store.set(a, "user.test", b"for-a")
        assert store.get(b, "user.test") is None

    def test_second_store_sees_later_appends(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        writer, reader = SidecarStore(journal), SidecarStore(journal)
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_bytes(b"x")
        b.write_bytes(b"y")
        writer.set(a, "user.test", b"one")
        assert reader.get(a, "user.test") == b"one"
        writer.set(a, "user.test", b"two")
        writer.set(b, "user.test", b"for-b")
        assert reader.get(a, "user.test") == b"two"
        assert reader.get(b, "user.test") == b"for-b"

    def test_record_completed_after_a_read_is_seen(self, tmp_path):
        db = tmp_path / "sidecar.sqlite3"
        store = SidecarStore(db)
        path = tmp_path / "f"
        path.write_bytes(b"x")
        store.set(path, "user.test", b"one")
        other = _write_uncommitted(db, path, b"two")  # a second writer, part way through
        try:
            assert store.get(path, "user.test") == b"one"
            other.execute("COMMIT")
            assert store.get(path, "user.test") == b"two"
        finally:
            other.close()

    def test_threads_sharing_a_store_never_read_backwards(self, tmp_path, monkeypatch):
        def slow_loads(s, *args, **kwargs):
            time.sleep(1e-4)  # widen the window in which readers interleave
            return json.loads(s, *args, **kwargs)

        monkeypatch.setattr(view_registry, "json", SimpleNamespace(loads=slow_loads, dumps=json.dumps))
        journal = tmp_path / "journal.jsonl"
        shared, writer = SidecarStore(journal), SidecarStore(journal)
        paths = [tmp_path / "a", tmp_path / "b"]
        for path in paths:
            path.write_bytes(path.name.encode())
        done = threading.Event()
        backwards = []

        def write():
            try:
                for n in range(1000):
                    for path in paths:
                        writer.set(path, "user.test", b"%d" % n)
            finally:
                done.set()

        def read():
            seen = dict.fromkeys(paths, -1)
            while not done.is_set():
                for path in paths:
                    raw = shared.get(path, "user.test")
                    value = -1 if raw is None else int(raw)
                    if value < seen[path]:
                        backwards.append((path.name, seen[path], value))
                    seen[path] = value

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=write)]
            threads += [threading.Thread(target=read) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert backwards == []
        assert all(shared.get(path, "user.test") == b"999" for path in paths)


def _start_python(script: str, *args: str) -> subprocess.Popen:
    """A Python process running ``script`` with the package importable."""
    env = dict(os.environ, PYTHONPATH=str(Path(contentoracle.__file__).parents[1]))
    return subprocess.Popen([sys.executable, "-c", textwrap.dedent(script), *args],
                            env=env, stderr=subprocess.PIPE, text=True)


class TestSidecarDatabase:
    def test_rewrites_do_not_grow_the_database(self, tmp_path):
        db = tmp_path / "sidecar.sqlite3"
        store = SidecarStore(db)
        path = tmp_path / "f"
        path.write_bytes(b"x")
        for i in range(5000):
            store.set(path, "user.test", b"%d" % i)
        assert store.get(path, "user.test") == b"4999"
        assert db.stat().st_size < 64 << 10
        wal = db.with_name(db.name + "-wal")  # checkpointed and reused, not grown
        assert not wal.exists() or wal.stat().st_size < 8 << 20

    def test_dropped_store_closes_its_database(self, tmp_path):
        db = tmp_path / "sidecar.sqlite3"
        store = SidecarStore(db)
        path = tmp_path / "f"
        path.write_bytes(b"x")
        store.set(path, "user.test", b"one")
        wal = db.with_name(db.name + "-wal")
        assert wal.exists()
        gc.disable()  # a connection is in a reference cycle: do not wait for it
        try:
            del store
            assert not wal.exists()  # the last connection to close removes it
        finally:
            gc.enable()
        assert SidecarStore(db).get(path, "user.test") == b"one"

    def test_get_creates_no_file(self, tmp_path):
        store = SidecarStore(tmp_path / "state" / "sidecar.sqlite3")
        path = tmp_path / "f"
        path.write_bytes(b"x")
        assert store.get(path, "user.test") is None
        assert read_views(store, path) == []
        assert get_trust(store, path) is TrustState.UNSET
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_update_leaves_the_store_usable(self, tmp_path):
        db = tmp_path / "sidecar.sqlite3"
        store = SidecarStore(db)
        bad, good = tmp_path / "bad", tmp_path / "good"
        bad.write_bytes(b"x")
        good.write_bytes(b"y")
        store.set(bad, VIEWS_KEY, b'{"v":2}')
        with pytest.raises(ValueError):
            record_view(store, bad, _view(path=bad))
        record_view(store, good, _view(path=good))
        assert len(read_views(SidecarStore(db), good)) == 1

    @pytest.mark.parametrize("first_use", ["read", "write"])
    def test_first_use_waits_for_another_connections_lock(self, tmp_path, first_use):
        # the first switch of a new database to WAL meets the lock of a
        # connection that opened it first; the store waits as for a writer
        db = tmp_path / "sidecar.sqlite3"
        path = tmp_path / "f"
        path.write_bytes(b"x")
        other = sqlite3.connect(db, isolation_level=None, check_same_thread=False)
        other.execute("BEGIN IMMEDIATE")
        release = threading.Timer(0.2, other.execute, ("ROLLBACK",))
        release.start()
        try:
            store = SidecarStore(db)
            if first_use == "read":
                assert store.get(path, "user.test") is None
            else:
                store.set(path, "user.test", b"one")
                assert store.get(path, "user.test") == b"one"
        finally:
            release.join(timeout=60)
            other.close()
        assert not release.is_alive()

    def test_crashed_writer_does_not_lose_next_write(self, tmp_path):
        db = tmp_path / "sidecar.sqlite3"
        store = SidecarStore(db)
        path = tmp_path / "f"
        path.write_bytes(b"x")
        store.set(path, "user.test", b"one")
        writer = _start_python("""
            import os, sys
            from contentoracle.view_registry import SidecarStore

            store = SidecarStore(sys.argv[1])
            with store.lock(sys.argv[2]):
                store.set(sys.argv[2], "user.test", b"torn")
                os._exit(9)  # dies holding the write transaction
        """, str(db), str(path))
        _, err = writer.communicate(timeout=120)
        assert writer.returncode == 9, err
        assert store.get(path, "user.test") == b"one"
        store.set(path, "user.test", b"two")
        assert store.get(path, "user.test") == b"two"
        assert SidecarStore(db).get(path, "user.test") == b"two"

    def test_processes_recording_views_all_land(self, tmp_path):
        db = tmp_path / "sidecar.sqlite3"
        path = tmp_path / "f"
        path.write_bytes(b"x")
        workers = [_start_python("""
            import sys, time
            from pathlib import Path
            from contentoracle.mime_db import MimeType
            from contentoracle.view_registry import (
                ContentView, SidecarStore, content_identity, record_view)

            db, path, n = Path(sys.argv[1]), sys.argv[2], sys.argv[3]
            store = SidecarStore(db)
            digest = content_identity(path)
            (db.parent / f"ready-{n}").touch()
            deadline = time.monotonic() + 60
            while len(list(db.parent.glob("ready-*"))) < 4 and time.monotonic() < deadline:
                time.sleep(0.001)  # start together, so that the updates overlap
            for i in range(25):
                view = ContentView(f"app-{n}-{i:02d}", MimeType("application", "pdf"),
                                   False, digest, i)
                record_view(store, path, view)
        """, str(db), str(path), str(n)) for n in range(4)]
        for worker in workers:
            _, err = worker.communicate(timeout=120)
            assert worker.returncode == 0, err
        assert len(read_views(SidecarStore(db), path)) == 100
