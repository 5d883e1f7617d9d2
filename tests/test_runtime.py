"""Tests for the one-pass evidence snapshot: one read and one digest per
assessment, shared by the sniff report, the views and trust, and one store
read per assessment, shared by the discrepancy report and the verdict."""

from __future__ import annotations

import builtins
import hashlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import contentoracle
from contentoracle import runtime as runtime_module
from contentoracle import view_registry
from contentoracle.cli import main
from contentoracle.mime_db import MimeType
from contentoracle.policy_engine import (
    DENY_ALL,
    HandlerPolicy,
    Verdict,
    get_allowed_handlers,
    set_handler_policy,
)
from contentoracle.runtime import assess_path
from contentoracle.view_registry import (
    ORIGIN_KEY,
    AttributeStore,
    ContentView,
    content_identity,
    record_view,
    set_trust,
)

ORIGINAL = b"%PDF-1.4 the assessed contents"


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
    assert get_allowed_handlers(backend.store, path).deny_all
    # the next check's snapshot holds it
    assert main(argv) == 2
    assert json.loads(capsys.readouterr().out)["verdict"] == "deny"


def test_file_is_read_and_hashed_once(runtime, tmp_path, monkeypatch):
    path = _trusted_pdf(runtime, tmp_path)
    opened = []

    def counting(real):
        def opener(file, *args, **kwargs):
            if not isinstance(file, int) and os.fspath(file) == os.fspath(path):
                opened.append(file)
            return real(file, *args, **kwargs)
        return opener

    def no_rehash(path):
        raise AssertionError("assessment hashed the file a second time")

    for module in (builtins, os):
        monkeypatch.setattr(module, "open", counting(module.open))
    monkeypatch.setattr(view_registry, "content_identity", no_rehash)
    _, _, decision = assess_path(runtime, path)
    assert len(opened) == 1
    assert decision.verdict is Verdict.ALLOW


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
