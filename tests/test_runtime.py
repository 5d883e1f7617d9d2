"""Tests for the one-pass evidence snapshot: one read and one digest per
assessment, shared by the sniff report, the views and trust."""

from __future__ import annotations

import builtins
import dataclasses
import hashlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import contentoracle
from contentoracle import view_registry
from contentoracle.mime_db import MimeType
from contentoracle.policy_engine import Verdict
from contentoracle.runtime import assess_path
from contentoracle.view_registry import (
    AttributeStore,
    ContentView,
    content_identity,
    record_view,
    set_trust,
)

ORIGINAL = b"%PDF-1.4 the assessed contents"


class RewritingStore(AttributeStore):
    """Delegates to ``inner``; its first get rewrites the file, as another
    process could while the attributes are read."""

    def __init__(self, inner: AttributeStore, replacement: bytes):
        self.inner = inner
        self.replacement = replacement
        self.rewritten = False

    def get(self, path, key):
        if not self.rewritten:
            self.rewritten = True
            Path(path).write_bytes(self.replacement)
        return self.inner.get(path, key)

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
    evidence, report, decision = assess_path(dataclasses.replace(runtime, store=store), path)
    assert store.rewritten
    assert evidence.sniff.top.signature == "pdf"
    assert [fv.stale for fv in evidence.views] == [False]
    # trust judged against the sniffed bytes, for which it was recorded
    assert report.consistent
    assert decision.verdict is Verdict.ALLOW and decision.reasons == ()
    assert evidence.content_hash == hashlib.sha256(ORIGINAL).digest()


def test_file_is_read_and_hashed_once(runtime, tmp_path, monkeypatch):
    path = _trusted_pdf(runtime, tmp_path)
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if os.fspath(file) == os.fspath(path):
            opened.append(file)
        return real_open(file, *args, **kwargs)

    def no_rehash(path):
        raise AssertionError("assessment hashed the file a second time")

    monkeypatch.setattr(builtins, "open", counting_open)
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
