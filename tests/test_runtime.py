"""Tests for the one-pass evidence snapshot: one read per assessment, and
one digest where views or trust may need it, shared by the sniff report,
the views and trust, and one store read per assessment, shared by the
discrepancy report and the verdict."""

from __future__ import annotations

import builtins
import hashlib
import json
import os
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import contentoracle
from contentoracle import runtime as runtime_module
from contentoracle import view_registry
from contentoracle.cli import main
from contentoracle.mime_db import MimeType
from contentoracle.policy_engine import (
    DENY_ALL,
    HandlerPolicy,
    Verdict,
    policy_from,
    set_handler_policy,
)
from contentoracle.report import build_report
from contentoracle.runtime import assess_path, build_evidence, judge
from contentoracle.sniffer import sniff
from contentoracle.view_registry import (
    ATTRIBUTE_KEYS,
    HASH_BOUND_KEYS,
    ORIGIN_KEY,
    OVERFLOW_STUB,
    POLICY_KEY,
    VIEWS_KEY,
    AttributeStore,
    AutoStore,
    ContentView,
    SidecarStore,
    TrustState,
    XattrStore,
    content_identity,
    encode_views,
    record_view,
    set_trust,
)

ORIGINAL = b"%PDF-1.4 the assessed contents"
PDF = MimeType("application", "pdf")


class RewritingStore(AttributeStore):
    """Delegates to ``inner``; its first read rewrites the file, as another
    process could while the attributes are read."""

    def __init__(self, inner: AttributeStore, replacement: bytes):
        self.inner = inner
        self.replacement = replacement
        self.rewritten = False

    def read(self, path, keys):
        if not self.rewritten:
            self.rewritten = True
            Path(path).write_bytes(self.replacement)
        return self.inner.read(path, keys)

    def set(self, path, key, value):
        self.inner.set(path, key, value)

    def lock(self, path):
        return self.inner.lock(path)


class CountingStore(AttributeStore):
    """Delegates to ``inner`` and records the name of every call."""

    def __init__(self, inner: AttributeStore):
        self.inner = inner
        self.calls: list[str] = []

    def read(self, path, keys):
        self.calls.append("read")
        return self.inner.read(path, keys)

    def get(self, path, key):
        self.calls.append("get")
        return self.inner.get(path, key)

    def set(self, path, key, value):
        self.calls.append("set")
        self.inner.set(path, key, value)

    def lock(self, path):
        self.calls.append("lock")
        return self.inner.lock(path)


class KeyRecordingStore(AttributeStore):
    """Delegates to ``inner`` and records the keys that each read asks for."""

    def __init__(self, inner: AttributeStore):
        self.inner = inner
        self.reads: list[tuple[str, ...]] = []

    def may_hold(self, fd, keys):
        return self.inner.may_hold(fd, keys)

    def read(self, path, keys):
        self.reads.append(tuple(keys))
        return self.inner.read(path, keys)


class DenyAfterReadStore(AttributeStore):
    """Delegates to ``inner``; right after each read it denies every handler,
    as another process could between the attribute read and the verdict."""

    def __init__(self, inner: AttributeStore):
        self.inner = inner

    def read(self, path, keys):
        attrs = self.inner.read(path, keys)
        set_handler_policy(self.inner, path, DENY_ALL)
        return attrs

    def set(self, path, key, value):
        self.inner.set(path, key, value)

    def lock(self, path):
        return self.inner.lock(path)


class RecordingStore(AttributeStore):
    """Delegates to ``inner``; its first read records trust and a view for
    the file's current bytes before it reads, as another process could
    while a check runs."""

    def __init__(self, inner: AttributeStore):
        self.inner = inner
        self.recorded = False

    def may_hold(self, fd, keys):
        return self.inner.may_hold(fd, keys)

    def read(self, path, keys):
        if not self.recorded:
            self.recorded = True
            set_trust(self.inner, path, True, now=1)
            record_view(self.inner, path, ContentView("viewer", PDF, False,
                                                      content_identity(path), 1))
        return self.inner.read(path, keys)

    def set(self, path, key, value):
        self.inner.set(path, key, value)

    def lock(self, path):
        return self.inner.lock(path)


class CountingSha256:
    """Stands in for ``new_sha256`` in ``runtime``: counts the digests begun."""

    def __init__(self):
        self.calls = 0

    def __call__(self):
        self.calls += 1
        return hashlib.sha256()


@pytest.fixture
def hashes(monkeypatch) -> CountingSha256:
    counter = CountingSha256()
    monkeypatch.setattr(runtime_module, "new_sha256", counter)
    return counter


def test_digest_is_hashlib_sha256():
    # hashlib's own, OpenSSL's where the build has it, not a slower builtin
    digest = view_registry.new_sha256()
    assert type(digest) is type(hashlib.sha256())
    digest.update(ORIGINAL)
    assert digest.digest() == hashlib.sha256(ORIGINAL).digest()


def _count_opens(monkeypatch, path: Path) -> list:
    """The opens of ``path`` by name, through ``open`` or ``os.open``, from now on."""
    opened = []

    def counting(real):
        def opener(file, *args, **kwargs):
            if not isinstance(file, int) and os.fspath(file) == os.fspath(path):
                opened.append(file)
            return real(file, *args, **kwargs)
        return opener

    for module in (builtins, os):
        monkeypatch.setattr(module, "open", counting(module.open))
    return opened


def _xattr_runtime(runtime, directory: Path):
    return runtime._replace(store=XattrStore(overflow=SidecarStore(directory / "overflow.db")))


def _views(path: Path, count: int, note: str | None = None) -> bytes:
    digest = content_identity(path)
    return encode_views([ContentView(f"app-{i:02d}", PDF, False, digest, 1, note)
                         for i in range(count)])


def _trusted_pdf(runtime, tmp_path) -> Path:
    path = tmp_path / "doc.pdf"
    path.write_bytes(ORIGINAL)
    record_view(runtime.store, path, ContentView(
        "viewer", MimeType("application", "pdf"), False, content_identity(path), 1))
    set_trust(runtime.store, path, True, now=1)
    return path


def test_rewrite_during_attribute_reads_is_not_mixed_in(runtime, tmp_path):
    path = _trusted_pdf(runtime, tmp_path)
    store = RewritingStore(runtime.store, b"<script>swapped()</script>")
    evidence, report, decision = assess_path(runtime._replace(store=store), path)
    assert store.rewritten
    assert evidence.sniff.top.signature == "pdf"
    assert [fv.stale for fv in evidence.views] == [False]
    # trust judged against the sniffed bytes, for which it was recorded
    assert not report.discrepancies
    assert decision.verdict is Verdict.ALLOW and decision.reasons == ()
    assert evidence.content_hash == hashlib.sha256(ORIGINAL).digest()


def test_assessment_reads_the_store_once(runtime, backend):
    path = backend.workdir / "doc.pdf"
    path.write_bytes(ORIGINAL)
    record_view(backend.store, path, ContentView(
        "viewer", MimeType("application", "pdf"), False, content_identity(path), 1))
    set_trust(backend.store, path, True, now=1)
    set_handler_policy(backend.store, path, HandlerPolicy(allowed=("viewer",)))
    backend.store.set(path, ORIGIN_KEY, b"https://example.test/doc.pdf")
    store = CountingStore(backend.store)
    evidence, _, decision = assess_path(runtime._replace(store=store), path,
                                        handler="viewer")
    assert store.calls == ["read"]
    assert [fv.view.app_id for fv in evidence.views] == ["viewer"]
    assert evidence.provenance.origin_url == "https://example.test/doc.pdf"
    assert evidence.policy == HandlerPolicy(allowed=("viewer",))
    assert decision.verdict is Verdict.ALLOW


@pytest.mark.parametrize("always_hash", [False, True], ids=["unhashed", "hashed"])
def test_assessment_asks_the_store_only_for_what_it_can_judge(runtime, backend, always_hash):
    # a file with no records: no store may hold views or trust for it
    path = backend.workdir / "doc.pdf"
    path.write_bytes(ORIGINAL)
    store = KeyRecordingStore(backend.store)
    evidence = build_evidence(runtime._replace(store=store), path, always_hash=always_hash)
    assert (evidence.content_hash is not None) == always_hash
    [keys] = store.reads
    if always_hash:
        assert sorted(keys) == sorted(ATTRIBUTE_KEYS)
    else:  # without a digest, views and trust cannot be judged
        assert POLICY_KEY in keys and not set(keys) & set(HASH_BOUND_KEYS)


@pytest.mark.parametrize("write", [
    lambda store, path: set_trust(store, path, True, now=1),
    lambda store, path: set_handler_policy(store, path, DENY_ALL),
], ids=["trust", "policy"])
def test_one_record_write_takes_no_lock(backend, write):
    # one set is atomic on both backends; only a read-modify-write locks
    path = backend.workdir / "doc.pdf"
    path.write_bytes(ORIGINAL)
    store = CountingStore(backend.store)
    write(store, path)
    assert store.calls == ["set"]


def test_verdict_judges_the_attributes_the_report_saw(backend, monkeypatch, capsys):
    sidecar = backend.store.path if backend.name == "sidecar" else backend.store.overflow.path
    config = backend.workdir / "config.json"
    config.write_text(json.dumps({"backend": backend.name, "sidecar_path": str(sidecar)}))
    path = backend.workdir / "doc.pdf"
    path.write_bytes(ORIGINAL)
    make_store = runtime_module.make_store
    monkeypatch.setattr(runtime_module, "make_store",
                        lambda config: DenyAfterReadStore(make_store(config)))
    argv = ["--config", str(config), "check", str(path), "--handler", "viewer"]
    # the deny-all policy lands after the snapshot, so this check does not see it
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "allow"
    assert policy_from(backend.store.read(path, (POLICY_KEY,))).deny_all
    # the next check's snapshot holds it
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out)["verdict"] == "deny"


def test_file_is_read_and_hashed_once(runtime, tmp_path, monkeypatch):
    path = _trusted_pdf(runtime, tmp_path)

    def no_rehash(path):
        raise AssertionError("assessment hashed the file a second time")

    opened = _count_opens(monkeypatch, path)
    monkeypatch.setattr(view_registry, "content_identity", no_rehash)
    _, _, decision = assess_path(runtime, path)
    assert len(opened) == 1
    assert decision.verdict is Verdict.ALLOW


@pytest.mark.parametrize("chunk_size", [1 << 20, runtime_module.CHUNK_SIZE])
def test_evidence_does_not_depend_on_the_chunk_size(runtime, tmp_path, monkeypatch, chunk_size):
    """A ``<script`` straddles every 256 KiB edge of a file over 2 MiB, so
    every edge of either chunk size, cut after one to six of its bytes."""
    data = bytearray(random.Random(14).randbytes((9 << 18) + 100))
    edges = range(1 << 18, len(data), 1 << 18)
    for i, edge in enumerate(edges):
        start = edge - 1 - i % 6
        data[start:start + 7] = b"<script"
    data = bytes(data)
    path = tmp_path / "big.bin"
    path.write_bytes(data)
    monkeypatch.setattr(runtime_module, "CHUNK_SIZE", chunk_size)
    evidence = build_evidence(runtime, path, always_hash=True)
    assert evidence.sniff == sniff(data, runtime.sig_db)
    assert {c.signature: c.offset for c in evidence.sniff.candidates}["script-tag"] \
        == (1 << 18) - 1
    assert evidence.content_hash == hashlib.sha256(data).digest()


def test_file_without_views_or_trust_is_not_hashed(runtime, xattr_dir, hashes, monkeypatch):
    rt = _xattr_runtime(runtime, xattr_dir)
    path = xattr_dir / "doc.pdf"
    path.write_bytes(ORIGINAL)
    set_handler_policy(rt.store, path, HandlerPolicy(allowed=("viewer",)))
    rt.store.set(path, ORIGIN_KEY, b"https://example.test/doc.pdf")
    opened = _count_opens(monkeypatch, path)
    evidence, report, decision = assess_path(rt, path, handler="viewer")
    assert len(opened) == 1
    assert hashes.calls == 0
    assert evidence.content_hash is None
    assert evidence.provenance.origin_url == "https://example.test/doc.pdf"
    # the same evidence and report as when every file was hashed, bar the digest
    hashed_evidence = build_evidence(rt, path, always_hash=True)
    hashed = (hashed_evidence, *judge(rt, hashed_evidence, "viewer"))
    assert hashes.calls == 1
    assert evidence == hashed[0]._replace(content_hash=None)
    assert json.dumps(build_report(path, evidence, report, decision), sort_keys=True) \
        == json.dumps(build_report(path, *hashed), sort_keys=True)


#: Ways to give a file a hash-bound record; 20 views of 250-byte notes spill.
HASH_BOUND_WRITES = {
    "views": lambda store, path: store.set(path, VIEWS_KEY, _views(path, 1)),
    "trust": lambda store, path: set_trust(store, path, True, now=1),
    "spilled-views": lambda store, path: store.set(path, VIEWS_KEY,
                                                   _views(path, 20, note="x" * 250)),
}


@pytest.mark.parametrize("kind", HASH_BOUND_WRITES)
def test_file_with_views_or_trust_is_hashed_once(runtime, xattr_dir, hashes, kind):
    rt = _xattr_runtime(runtime, xattr_dir)
    path = xattr_dir / "doc.pdf"
    path.write_bytes(ORIGINAL)
    HASH_BOUND_WRITES[kind](rt.store, path)
    if kind == "spilled-views":
        assert os.getxattr(path, VIEWS_KEY) == OVERFLOW_STUB
    evidence, _, _ = assess_path(rt, path)
    assert hashes.calls == 1
    assert evidence.content_hash == hashlib.sha256(ORIGINAL).digest()
    assert evidence.views or evidence.trust is TrustState.TRUSTED
    assert not any(fv.stale for fv in evidence.views)


@pytest.mark.parametrize("sidecar_exists", [False, True])
def test_auto_store_hashes_only_with_a_sidecar(runtime, xattr_dir, hashes, sidecar_exists):
    sidecar = SidecarStore(xattr_dir / "sidecar.db")
    store = AutoStore(XattrStore(overflow=sidecar), sidecar)
    if sidecar_exists:  # for another file
        other = xattr_dir / "other.pdf"
        other.write_bytes(ORIGINAL)
        sidecar.set(other, ORIGIN_KEY, b"https://example.test/other.pdf")
    path = xattr_dir / "doc.pdf"
    path.write_bytes(ORIGINAL)
    assess_path(runtime._replace(store=store), path)
    assert hashes.calls == int(sidecar_exists)
    assert sidecar.path.exists() == sidecar_exists


def test_sidecar_store_hashes_without_another_statement(runtime, tmp_path, hashes,
                                                        monkeypatch):
    store = SidecarStore(tmp_path / "sidecar.db")
    other = tmp_path / "other.pdf"
    other.write_bytes(ORIGINAL)
    store.set(other, ORIGIN_KEY, b"https://example.test/other.pdf")
    path = tmp_path / "doc.pdf"
    path.write_bytes(ORIGINAL)
    statements = []
    execute = store._execute
    monkeypatch.setattr(store, "_execute",
                        lambda sql, params=(): statements.append(sql) or execute(sql, params))
    assess_path(runtime._replace(store=store), path)
    assert hashes.calls == 1
    assert statements == ["SELECT key, value FROM attrs WHERE ident = ?"]


def test_views_and_trust_recorded_during_an_unhashed_check_show_in_the_next(
        runtime, backend, corpus):
    name, data = corpus["gif-script"]
    path = backend.workdir / name
    path.write_bytes(data)
    rt = runtime._replace(store=backend.store)
    _, unrecorded_report, unrecorded_decision = assess_path(rt, path)
    assert unrecorded_decision.verdict is Verdict.DENY
    store = RecordingStore(backend.store)
    evidence, report, decision = assess_path(runtime._replace(store=store), path)
    assert store.recorded
    assert evidence.trust is TrustState.UNSET and evidence.views == ()
    assert (report, decision) == (unrecorded_report, unrecorded_decision)
    evidence, _, decision = assess_path(rt, path)
    assert evidence.trust is TrustState.TRUSTED
    assert [(fv.view.app_id, fv.stale) for fv in evidence.views] == [("viewer", False)]
    assert decision.verdict is Verdict.WARN


def test_large_file_memory_is_bounded(tmp_path):
    """Assessing a 64 MiB file raises peak RSS by far less than its size."""
    script = textwrap.dedent("""
        import resource, sys
        from pathlib import Path
        from contentoracle.config import Config
        from contentoracle.runtime import Runtime, assess_path

        work = Path(sys.argv[1])
        runtime = Runtime.load(Config(sidecar_path=work / "journal.jsonl", backend="sidecar"))
        warm = work / "warm.html"
        warm.write_bytes(b"<html>" * 4096)
        assess_path(runtime, warm)
        big = work / "big.bin"
        with open(big, "wb") as fh:
            fh.truncate(64 << 20)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        assess_path(runtime, big)
        after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print((after - before) * (1 if sys.platform == "darwin" else 1024))
    """)
    env = dict(os.environ, PYTHONPATH=str(Path(contentoracle.__file__).parents[1]))
    result = subprocess.run([sys.executable, "-c", script, str(tmp_path)],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0, result.stderr
    assert int(result.stdout) < 16 << 20
