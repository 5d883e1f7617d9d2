"""Black-box tests run identically against the xattr and sidecar backends,
plus canonical-encoding and overflow behavior."""

from __future__ import annotations

import json
import os
import random
import sys
import threading
import time
from types import SimpleNamespace

import pytest

from contentoracle import view_registry
from contentoracle.mime_db import MimeType
from contentoracle.view_registry import (
    AutoStore,
    ContentView,
    FlaggedView,
    OVERFLOW_STUB,
    ORIGIN_KEY,
    QUARANTINE_KEY,
    REFERRER_KEY,
    SidecarStore,
    TrustState,
    VIEWS_KEY,
    XattrStore,
    content_identity,
    decode_views,
    encode_views,
    get_trust,
    read_provenance,
    read_views,
    record_view,
    set_trust,
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
        path = tmp_path / "f"
        path.write_bytes(os.urandom(200_000))  # spans multiple stream chunks
        assert content_identity(path) == content_identity(path)


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
        prov = read_provenance(backend.store, path)
        assert prov.origin_url is None
        assert prov.referrer_url is None
        assert prov.quarantine is None

    def test_origin_and_referrer_round_trip(self, backend):
        path = _file(backend)
        backend.store.set(path, ORIGIN_KEY, b"https://a.example/f.pdf")
        backend.store.set(path, REFERRER_KEY, b"https://ref.example/")
        prov = read_provenance(backend.store, path)
        assert prov.origin_url == "https://a.example/f.pdf"
        assert prov.referrer_url == "https://ref.example/"

    def test_missing_file_raises(self, backend):
        missing = backend.workdir / "nope"
        with pytest.raises(OSError):
            read_views(backend.store, missing)
        with pytest.raises(OSError):
            record_view(backend.store, missing, ContentView("a", PDF, False, bytes(32), 0))

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
        assert read_provenance(store, path).quarantine == raw

    def test_arbitrary_bytes_uninterpreted(self, tmp_path):
        store = SidecarStore(tmp_path / "journal.jsonl")
        path = tmp_path / "download.bin"
        path.write_bytes(b"x")
        raw = bytes(range(256))
        store.set(path, QUARANTINE_KEY, raw)
        assert read_provenance(store, path).quarantine == raw

    def test_xattr_backend_reports_absent(self, xattr_dir):
        # the attribute lives outside the Linux user namespace, so the xattr
        # backend can only ever observe it as absent here
        store = XattrStore(overflow=SidecarStore(xattr_dir / "overflow.jsonl"))
        path = xattr_dir / "download.bin"
        path.write_bytes(b"x")
        assert read_provenance(store, path).quarantine is None


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

    def test_prefers_xattr_when_available(self, xattr_dir):
        sidecar = SidecarStore(xattr_dir / "journal.jsonl")
        store = AutoStore(XattrStore(overflow=sidecar), sidecar)
        path = xattr_dir / "f.bin"
        path.write_bytes(b"x")
        record_view(store, path, _view(path=path))
        assert os.getxattr(path, VIEWS_KEY)  # actually landed in the xattr
        assert not (xattr_dir / "journal.jsonl").exists()


class TestSidecarJournal:
    def test_last_record_wins(self, tmp_path):
        store = SidecarStore(tmp_path / "journal.jsonl")
        path = tmp_path / "f"
        path.write_bytes(b"x")
        store.set(path, "user.test", b"one")
        store.set(path, "user.test", b"two")
        assert store.get(path, "user.test") == b"two"

    def test_torn_trailing_record_tolerated(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        store = SidecarStore(journal)
        path = tmp_path / "f"
        path.write_bytes(b"x")
        store.set(path, "user.test", b"value")
        with open(journal, "ab") as fh:
            fh.write(b'{"path": "half-written')
        assert store.get(path, "user.test") == b"value"

    def test_distinct_files_do_not_collide(self, tmp_path):
        store = SidecarStore(tmp_path / "journal.jsonl")
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_bytes(b"x")
        b.write_bytes(b"y")
        store.set(a, "user.test", b"for-a")
        assert store.get(b, "user.test") is None

    def test_malformed_records_skipped(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        store = SidecarStore(journal)
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_bytes(b"x")
        b.write_bytes(b"y")
        for i in range(150):  # the bad lines land past the first decode batch
            store.set(a, "user.test", b"a%d" % i)
        with open(journal, "ab") as fh:
            fh.write(b'[]\n5\n{"path":"x"}\n{"path":1,"key":"k","value":"dg=="}\n\n')
            fh.write(b"[" * 100_000 + b"\n")
        store.set(b, "user.test", b"for-b")
        assert store.get(a, "user.test") == b"a149"
        two_values = json.dumps({"key": "user.test", "path": SidecarStore.identity(b),
                                 "value": "YmFk"}) + ",5\n"  # not one JSON document
        with open(journal, "ab") as fh:
            fh.write(two_values.encode())
        for reader in (store, SidecarStore(journal)):
            assert reader.get(a, "user.test") == b"a149"
            assert reader.get(b, "user.test") == b"for-b"

    def test_torn_tail_does_not_swallow_next_record(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        store = SidecarStore(journal)
        path = tmp_path / "f"
        path.write_bytes(b"x")
        store.set(path, "user.test", b"one")
        with open(journal, "ab") as fh:
            fh.write(b'{"key":"user.test","pa')
        store.set(path, "user.test", b"two")
        assert store.get(path, "user.test") == b"two"
        assert SidecarStore(journal).get(path, "user.test") == b"two"

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

    def test_recreated_journal_resets_index(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        store = SidecarStore(journal)
        a, b = tmp_path / "a", tmp_path / "b"
        a.write_bytes(b"x")
        b.write_bytes(b"y")
        store.set(a, "user.test", b"old")
        assert store.get(a, "user.test") == b"old"
        with open(journal, "rb"):  # held open, so the new journal gets a new inode
            journal.unlink()
            other = SidecarStore(journal)
            for _ in range(3):  # longer than the old journal: only the inode differs
                other.set(b, "user.test", b"new")
        assert store.get(a, "user.test") is None
        assert store.get(b, "user.test") == b"new"

    def test_truncated_journal_resets_index(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        store = SidecarStore(journal)
        path = tmp_path / "f"
        path.write_bytes(b"x")
        store.set(path, "user.test", b"old")
        assert store.get(path, "user.test") == b"old"
        journal.write_bytes(b"")
        assert store.get(path, "user.test") is None
        store.set(path, "user.test", b"new")
        assert store.get(path, "user.test") == b"new"

    def test_unchanged_journal_decodes_nothing(self, tmp_path, monkeypatch):
        store = SidecarStore(tmp_path / "journal.jsonl")
        path = tmp_path / "f"
        path.write_bytes(b"x")
        for i in range(3):
            store.set(path, f"user.k{i}", b"v")
        store.get(path, "user.k0")
        decoded = []

        def spy(s, *args, **kwargs):
            decoded.append(s)
            return json.loads(s, *args, **kwargs)

        monkeypatch.setattr(view_registry, "json", SimpleNamespace(loads=spy, dumps=json.dumps))
        for i in range(3):
            assert store.get(path, f"user.k{i}") == b"v"
        assert store.get(path, "user.absent") is None
        assert decoded == []
        store.set(path, "user.k0", b"w")
        assert store.get(path, "user.k0") == b"w"
        assert len(decoded) == 1  # only the appended record

    def test_record_completed_after_a_read_is_seen(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        store = SidecarStore(journal)
        path = tmp_path / "f"
        path.write_bytes(b"x")
        store.set(path, "user.test", b"one")
        line = journal.read_bytes()
        journal.write_bytes(line + line[:10])  # a second writer, part way through
        assert store.get(path, "user.test") == b"one"
        with open(journal, "ab") as fh:
            fh.write(line[10:].replace(b'"b25l"', b'"dHdv"'))
        assert store.get(path, "user.test") == b"two"

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
