"""CLI tests: JSON validity of every output, the exit-code contract, and
golden determinism."""

from __future__ import annotations

import base64
import builtins
import errno
import gc
import hashlib
import io
import json
import os
import re
import shlex
import socket
import subprocess
import sys
from collections import Counter
from pathlib import Path

import jsonschema
import pytest

import contentoracle
from contentoracle import cli, ingest, view_registry
from contentoracle.cli import (
    EX_CONFIG,
    EX_IOERR,
    EX_SOFTWARE,
    EX_USAGE,
    main,
)
from contentoracle.config import DATA_DIR, load_config
from contentoracle.discrepancy_engine import evaluate
from contentoracle.mime_db import parse_mime_type
from contentoracle.report import REPORT_SCHEMA
from contentoracle.runtime import Runtime
from contentoracle.view_registry import (
    POLICY_KEY,
    QUARANTINE_KEY,
    TRUST_KEY,
    VIEWS_KEY,
    ContentView,
    content_identity,
    record_view,
    set_trust,
)
from tests.conftest import zip_with_script

_BODY_HASH = hashlib.sha256(b"%PDF-1.4 body").hexdigest().encode()


def _entry(**fields) -> bytes:
    """One view of the body by app ``a``, as stored, with ``fields`` set to
    the given JSON text instead."""
    fields = {"active": b"false", "app": b'"a"', "hash": b'"%s"' % _BODY_HASH,
              "mime": b'"application/pdf"', "t": b"1", **fields}
    return b"{%s}" % b",".join(b'"%s":%s' % (name.encode(), fields[name])
                               for name in sorted(fields))


def _views(*entries: bytes, **fields) -> bytes:
    """A views record of ``entries``, or of one ``_entry(**fields)``, as stored."""
    return b'{"v":1,"views":[%s]}' % b",".join(entries or [_entry(**fields)])


#: Attribute values that do not decode as the expected record, as JSON or at
#: all, whose fields are of another JSON type than their writer stores, or
#: that lack a field or hold one that the record's table does not declare.
CORRUPT_ATTRIBUTES = [
    (TRUST_KEY, b'{"v":1}'),
    (VIEWS_KEY, b'{"v":2}'),
    (POLICY_KEY, b"[]"),
    (VIEWS_KEY, b"not json"),
    (TRUST_KEY, b"not json"),
    (POLICY_KEY, b'{"v":1}'),
    (POLICY_KEY, b'{"deny_all":true,"handlers":[]}'),
    (TRUST_KEY, b'{"hash":"00","t":1,"trusted":true}'),
    (TRUST_KEY, b'{"hash":"' + _BODY_HASH + b'","t":1,"trusted":"false","v":1}'),
    (TRUST_KEY, b'{"hash":"' + _BODY_HASH + b'","t":1,"trusted":true,"v":true}'),
    (TRUST_KEY, b'{"hash":1,"t":1,"trusted":true,"v":1}'),
    (VIEWS_KEY, b'{"v":true,"views":[]}'),
    (POLICY_KEY, b'{"deny_all":false,"handlers":"viewer","v":1}'),
    (POLICY_KEY, b'{"deny_all":false,"handlers":[1],"v":1}'),
    (POLICY_KEY, b'{"deny_all":"false","handlers":[],"v":1}'),
    (POLICY_KEY, b'{"deny_all":false,"handlers":[],"v":1.0}'),
    (TRUST_KEY, b'{"hash":"' + _BODY_HASH + b'","trusted":true,"v":1}'),
    (TRUST_KEY, b'{"hash":"' + _BODY_HASH + b'","t":"x","trusted":true,"v":1}'),
    (TRUST_KEY, b'{"hash":"' + _BODY_HASH.upper() + b'","t":1,"trusted":true,"v":1}'),
    (TRUST_KEY, b'{"hash":"' + _BODY_HASH[:32] + b" " + _BODY_HASH[32:]
     + b'","t":1,"trusted":true,"v":1}'),
    (TRUST_KEY, b'{"hash":"' + _BODY_HASH + b'","t":1,"trusted":true,"v":1,"x":1}'),
    (VIEWS_KEY, _views(active=b'"false"')),
    (VIEWS_KEY, _views(t=b'"5"')),
    (VIEWS_KEY, _views(t=b"true")),
    (VIEWS_KEY, _views(t=b"5.9")),
    (VIEWS_KEY, _views(app=b"5")),
    (VIEWS_KEY, _views(note=b"5")),
    (VIEWS_KEY, _views(mime=b'"bogus"')),
    (POLICY_KEY, b'{"deny_all":false,"handlers":[""],"v":1}'),
    (POLICY_KEY, b'{"deny_all":false,"handlers":[" viewer"],"v":1}'),
    # lists that encode_views never writes: one app twice, or apps out of order
    (VIEWS_KEY, _views(_entry(), _entry(active=b"true", mime=b'"text/html"'))),
    (VIEWS_KEY, _views(_entry(app=b'"b"'), _entry())),
    (VIEWS_KEY, _views(app=b'" viewer"')),
    # a present but empty value is no record
    (VIEWS_KEY, b""),
    (TRUST_KEY, b""),
    (POLICY_KEY, b""),
]


def _golden() -> dict[str, str]:
    """``cli_golden.txt``: after each ``### contentoracle <args>`` line, what
    the CLI prints for those arguments at 80 columns; help goes to stdout,
    a usage error to stderr."""
    text = (Path(__file__).parent / "cli_golden.txt").read_text("utf-8")
    parts = re.split(r"^### contentoracle ?(.*)\n", text, flags=re.MULTILINE)
    return dict(zip(parts[1::2], parts[2::2]))


GOLDEN = _golden()


@pytest.fixture
def config_file(tmp_path) -> str:
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "sidecar_path": str(tmp_path / "sidecar.jsonl"),
        "backend": "sidecar",
    }))
    return str(path)


def run_cli(capsys, *argv: str) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def set_raw(config_file: str, path: Path, key: str, value: bytes) -> None:
    Runtime.load(load_config(config_file)).store.set(path, key, value)


#: Commands that take one file, with ``{}`` where the path goes.
PATH_COMMANDS = ["check {}", "identify {}", "view list {}", "trust get {}",
                 "policy handlers get {}", "policy handlers set {} --deny-all"]


def _with_path(command: str, path: Path) -> list[str]:
    return [str(path) if word == "{}" else word for word in command.split()]


def report_of(out: str) -> dict:
    doc = json.loads(out)
    jsonschema.validate(doc, REPORT_SCHEMA)
    return doc


class RenamingStore(view_registry.AttributeStore):
    """Delegates to ``inner``; its first read, set or lock moves a decoy over
    ``path``, as another process could between two lookups of the name."""

    def __init__(self, inner: view_registry.AttributeStore, path: Path):
        self.inner = inner
        self.path = path
        self.renamed = False

    def _rename_once(self) -> None:
        if not self.renamed:
            self.renamed = True
            decoy = self.path.with_name("decoy")
            decoy.write_bytes(b"%PDF-1.4 decoy")
            os.replace(decoy, self.path)

    def read(self, file, keys):
        self._rename_once()
        return self.inner.read(file, keys)

    def set(self, file, key, value):
        self._rename_once()
        self.inner.set(file, key, value)

    def lock(self, file):
        self._rename_once()
        return self.inner.lock(file)


class TestCheck:
    def test_consistent_pdf_exits_zero(self, capsys, config_file, tmp_path):
        target = tmp_path / "doc.pdf"
        target.write_bytes(b"%PDF-1.4 body")
        code, out = run_cli(capsys, "--config", config_file, "check", str(target))
        doc = report_of(out)
        assert code == 0
        assert doc["verdict"] == "allow"
        assert doc["discrepancies"] == []
        assert doc["resolved_mime"] == "application/pdf"

    def test_zip_as_pdf_fixture_flags_and_fails(self, capsys, config_file, tmp_path):
        target = tmp_path / "report.pdf"
        target.write_bytes(zip_with_script())
        code, out = run_cli(capsys, "--config", config_file, "check", str(target))
        doc = report_of(out)
        assert code >= 1
        kinds = {d["kind"] for d in doc["discrepancies"]}
        assert "activity_flip" in kinds or "extension_sniff_mismatch" in kinds

    def test_warn_level_fixture_exits_one(self, capsys, config_file, tmp_path):
        # double extension over matching content: warning, not denial
        import gzip

        target = tmp_path / "notes.tar.gz"
        target.write_bytes(gzip.compress(b"inner"))
        code, out = run_cli(capsys, "--config", config_file, "check", str(target))
        doc = report_of(out)
        assert doc["verdict"] == "warn"
        assert code == 1

    def test_handler_policy_denies(self, capsys, config_file, tmp_path):
        target = tmp_path / "doc.pdf"
        target.write_bytes(b"%PDF-1.4 body")
        code, _ = run_cli(capsys, "--config", config_file,
                          "policy", "handlers", "set", str(target), "--apps", "viewerA")
        assert code == 0
        code, out = run_cli(capsys, "--config", config_file,
                            "check", str(target), "--handler", "viewerB")
        assert code == 2
        assert report_of(out)["verdict"] == "deny"

    @pytest.mark.parametrize("command", ["check", "identify"])
    @pytest.mark.parametrize("spelling,path", [
        ("doc.pdf/", "doc.pdf"), ("./doc.pdf", "doc.pdf"),
        ("sub/./doc.pdf", "sub/doc.pdf"), ("sub//doc.pdf", "sub/doc.pdf"),
    ])
    def test_spelling_of_the_path_keeps_the_report(self, capsys, config_file, tmp_path,
                                                   monkeypatch, command, spelling, path):
        (tmp_path / "sub").mkdir()
        for target in ["doc.pdf", "sub/doc.pdf"]:
            (tmp_path / target).write_bytes(b"%PDF-1.4 body")
        monkeypatch.chdir(tmp_path)
        expected = run_cli(capsys, "--config", config_file, command, path)
        assert expected[0] == 0
        assert report_of(expected[1])["path"] == path
        assert run_cli(capsys, "--config", config_file, command, spelling) == expected

    @pytest.mark.parametrize("marker,lower", [
        (b"<SCRIPT>", b"<script>"), (b"<Script>", b"<script>"), (b"<HTML>", b"<html>"),
        (b"<?PHP", b"<?php"), (b"<!doctype html>", b"<!DOCTYPE html>"),
    ])
    def test_markup_after_a_pdf_is_seen_in_any_case(self, capsys, config_file, tmp_path,
                                                    marker, lower):
        target = tmp_path / "doc.pdf"
        reports = []
        for text in (lower, marker):
            target.write_bytes(b"%PDF-1.4 body\n" + text + b"\n")
            reports.append(run_cli(capsys, "--config", config_file, "--now", "777",
                                   "check", str(target)))
        assert reports[1] == reports[0]
        code, out = reports[1]
        assert code != 0 and report_of(out)["verdict"] != "allow"

    def test_missing_file_is_io_error(self, capsys, config_file, tmp_path):
        code, _ = run_cli(capsys, "--config", config_file,
                          "check", str(tmp_path / "missing.bin"))
        assert code == EX_IOERR

    def test_determinism_with_pinned_now(self, capsys, config_file, tmp_path):
        target = tmp_path / "doc.pdf"
        target.write_bytes(b"%PDF-1.4 body")
        _, first = run_cli(capsys, "--config", config_file, "--now", "777",
                           "check", str(target))
        _, second = run_cli(capsys, "--config", config_file, "--now", "777",
                            "check", str(target))
        assert first == second

    @pytest.mark.parametrize("value", [
        b"0083;\xff;Safari;", b"", b"0083;5f3c2a1b;Safari;" + b"q" * 36,
        b"0083;\xff;Safari;" + bytes(range(256))[-186:],
    ], ids=["safari", "empty", "57-bytes", "200-bytes"])
    def test_quarantine_is_reported_base64_encoded(self, capsys, config_file, tmp_path, value):
        target = tmp_path / "doc.pdf"
        target.write_bytes(b"%PDF-1.4 body")
        set_raw(config_file, target, QUARANTINE_KEY, value)
        code, out = run_cli(capsys, "--config", config_file, "check", str(target))
        assert code == 0
        assert report_of(out)["provenance"]["quarantine"] == \
            base64.b64encode(value).decode("ascii")


class TestAutoBackend:
    """The default backend, as a config without ``backend`` selects it."""

    @staticmethod
    def _config(tmp_path) -> str:
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sidecar_path": str(tmp_path / "sidecar.sqlite3")}))
        return str(config)

    @staticmethod
    def _record_then_check(capsys, config, target) -> dict:
        assert main(["--config", config, "view", "record", str(target),
                     "--app", "viewer", "--mime", "application/pdf"]) == 0
        capsys.readouterr()
        code, out = run_cli(capsys, "--config", config, "check", str(target))
        assert code == 0
        return report_of(out)

    def test_view_lands_in_the_xattr(self, capsys, xattr_dir):
        target = xattr_dir / "doc.pdf"
        target.write_bytes(b"%PDF-1.4 body")
        doc = self._record_then_check(capsys, self._config(xattr_dir), target)
        assert [view["app"] for view in doc["views"]] == ["viewer"]
        assert json.loads(os.getxattr(target, VIEWS_KEY))["views"][0]["app"] == "viewer"
        assert not (xattr_dir / "sidecar.sqlite3").exists()

    def test_view_lands_in_the_sidecar_where_xattrs_are_unsupported(self, capsys, tmp_path,
                                                                     monkeypatch):
        def unsupported(*args, **kwargs):
            raise OSError(errno.ENOTSUP, os.strerror(errno.ENOTSUP))

        for name in ("setxattr", "listxattr", "getxattr"):
            monkeypatch.setattr(os, name, unsupported)
        target = tmp_path / "doc.pdf"
        target.write_bytes(b"%PDF-1.4 body")
        doc = self._record_then_check(capsys, self._config(tmp_path), target)
        assert [view["app"] for view in doc["views"]] == ["viewer"]
        sidecar = view_registry.SidecarStore(tmp_path / "sidecar.sqlite3")
        assert VIEWS_KEY in sidecar.read(target, (VIEWS_KEY,))


class TestIdentify:
    def test_reports_without_verdict(self, capsys, config_file, tmp_path):
        target = tmp_path / "img.gif"
        target.write_bytes(b"GIF89a\x01\x00\x01\x00")
        code, out = run_cli(capsys, "--config", config_file, "identify", str(target))
        doc = report_of(out)
        assert code == 0
        assert doc["verdict"] is None
        assert doc["sniff"]["candidates"][0]["mime"] == "image/gif"
        assert doc["name_report"]["logical_extension"] == "gif"


class TestScan:
    def test_ndjson_sorted_by_path(self, capsys, config_file, tmp_path):
        inbox = tmp_path / "inbox"
        inbox.mkdir()
        (inbox / "b.pdf").write_bytes(b"%PDF-1.4 ok")
        (inbox / "a.gif").write_bytes(b"GIF89a\x01\x00")
        (inbox / "c.txt").write_bytes(b"plain text\n")
        code, out = run_cli(capsys, "--config", config_file, "scan", str(inbox))
        lines = [json.loads(line) for line in out.strip().splitlines()]
        assert [Path(doc["path"]).name for doc in lines] == ["a.gif", "b.pdf", "c.txt"]
        for doc in lines:
            jsonschema.validate(doc, REPORT_SCHEMA)
        assert code == 0

    def test_hostile_tree_reports_each_regular_file(self, capsys, config_file, tmp_path,
                                                    monkeypatch):
        inbox = tmp_path / "inbox"
        inbox.mkdir()
        (inbox / "ok.pdf").write_bytes(b"%PDF-1.4 ok")
        (inbox / "loop").symlink_to("loop")
        (inbox / "x").symlink_to("ok.pdf/child")
        (inbox / "dangling").symlink_to("missing")
        os.mkfifo(inbox / "pipe")
        monkeypatch.chdir(inbox)  # a socket path must be short
        with socket.socket(socket.AF_UNIX) as sock:
            sock.bind("sock")
        deep = inbox.joinpath(*["d"] * 60, "deep.txt")
        deep.parent.mkdir(parents=True)
        deep.write_bytes(b"plain text\n")
        expected = 2
        try:
            (inbox / os.fsdecode(b"bad\xff.txt")).write_bytes(b"plain text\n")
            expected += 1
        except OSError:  # a filesystem that takes UTF-8 names only
            pass
        code, out = run_cli(capsys, "--config", config_file, "scan", str(inbox))
        docs = [report_of(line) for line in out.splitlines()]
        assert code == 0
        assert len(docs) == expected
        assert {Path(doc["path"]).name for doc in docs} >= {"ok.pdf", "deep.txt"}

    def test_walk_lists_what_rglob_lists(self, tmp_path, monkeypatch):
        """``sorted(p for p in Path(root).rglob("*") if p.is_file())``, as strings."""
        inbox = tmp_path / "inbox"
        (inbox / "a").mkdir(parents=True)
        (inbox / "locked").mkdir()
        for name in ["a/b", "a-c", ".hidden", "doc.pdf", "locked/unread.txt"]:
            (inbox / name).write_bytes(b"plain text\n")
        (inbox / "to-doc").symlink_to("doc.pdf")
        (inbox / "to-dir").symlink_to("a")  # not descended
        (inbox / "loop").symlink_to("loop")
        (inbox / "through").symlink_to("doc.pdf/child")
        (inbox / "dangling").symlink_to("missing")
        os.mkfifo(inbox / "pipe")
        monkeypatch.chdir(inbox)  # a socket path must be short
        with socket.socket(socket.AF_UNIX) as sock:
            sock.bind("sock")
        # by path components, as Path sorts: "a/b" before "a-c", where "-" < "/"
        names = [".hidden", "a/b", "a-c", "doc.pdf", "to-doc"]
        try:
            (inbox / os.fsdecode(b"bad\xff.txt")).write_bytes(b"plain text\n")
            names.insert(3, os.fsdecode(b"bad\xff.txt"))
        except OSError:  # a filesystem that takes UTF-8 names only
            pass
        scandir = os.scandir

        def scandir_but_locked(path="."):  # the superuser may read any directory
            if os.path.basename(os.path.normpath(path)) == "locked":
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
            return scandir(path)

        monkeypatch.setattr(os, "scandir", scandir_but_locked)
        assert cli._regular_files(Path(".")) == names
        monkeypatch.chdir(tmp_path)
        for root in ["inbox", "inbox/", "./inbox", str(inbox)]:
            assert cli._regular_files(Path(root)) == [f"{Path(root)}/{name}" for name in names]

    def test_spelling_of_the_root_keeps_the_output(self, capsys, config_file, tmp_path,
                                                   monkeypatch):
        (tmp_path / "inbox" / "a").mkdir(parents=True)
        (tmp_path / "inbox" / "a" / "b.pdf").write_bytes(b"%PDF-1.4 ok")
        (tmp_path / "inbox" / "a-c.gif").write_bytes(b"GIF89a\x01\x00")
        monkeypatch.chdir(tmp_path)
        out = {root: run_cli(capsys, "--config", config_file, "scan", root)
               for root in ["inbox", "inbox/", "./inbox"]}
        assert out["inbox/"] == out["./inbox"] == out["inbox"]
        assert [json.loads(line)["path"] for line in out["inbox"][1].splitlines()] \
            == ["inbox/a/b.pdf", "inbox/a-c.gif"]

    def test_path_that_is_not_a_directory_is_74(self, capsys, config_file, tmp_path):
        target = tmp_path / "doc.pdf"
        target.write_bytes(b"%PDF-1.4 body")
        code = main(["--config", config_file, "scan", str(target)])
        captured = capsys.readouterr()
        assert code == EX_IOERR
        assert captured.out == ""
        assert f"not a directory: {target}" in captured.err

    def test_worst_verdict_wins(self, capsys, config_file, tmp_path):
        inbox = tmp_path / "inbox"
        inbox.mkdir()
        (inbox / "fine.pdf").write_bytes(b"%PDF-1.4 ok")
        (inbox / "evil.pdf").write_bytes(zip_with_script())
        code, _ = run_cli(capsys, "--config", config_file, "scan", str(inbox))
        assert code == 2


class TestViewTrustPolicy:
    def test_view_record_and_list(self, capsys, config_file, tmp_path):
        target = tmp_path / "doc.pdf"
        target.write_bytes(b"%PDF-1.4")
        code, out = run_cli(capsys, "--config", config_file, "--now", "100",
                            "view", "record", str(target),
                            "--app", "viewer", "--mime", "application/pdf")
        assert code == 0
        assert json.loads(out)["recorded"]["app"] == "viewer"
        code, out = run_cli(capsys, "--config", config_file, "view", "list", str(target))
        views = json.loads(out)["views"]
        assert len(views) == 1
        assert views[0]["t"] == 100
        assert views[0]["stale"] is False

    def test_trust_set_get(self, capsys, config_file, tmp_path):
        target = tmp_path / "doc.pdf"
        target.write_bytes(b"%PDF-1.4")
        _, out = run_cli(capsys, "--config", config_file, "--now", "100",
                         "trust", "set", str(target), "trusted")
        assert json.loads(out)["trust"] == "trusted"
        target.write_bytes(b"%PDF-1.4 modified")
        _, out = run_cli(capsys, "--config", config_file, "trust", "get", str(target))
        assert json.loads(out)["trust"] == "invalidated"

    def test_policy_set_get(self, capsys, config_file, tmp_path):
        target = tmp_path / "doc.pdf"
        target.write_bytes(b"%PDF-1.4")
        run_cli(capsys, "--config", config_file,
                "policy", "handlers", "set", str(target), "--apps", "a,b")
        _, out = run_cli(capsys, "--config", config_file,
                         "policy", "handlers", "get", str(target))
        doc = json.loads(out)
        assert doc["handlers"] == ["a", "b"]
        assert doc["restricts"] is True

    @pytest.mark.parametrize("command,recorded,reads,hashes", [
        ("view record {} --app a --mime text/plain", False, 1, 1),
        ("view list {}", False, 1, 0),
        ("view list {}", True, 1, 1),
        ("trust set {} trusted", False, 0, 1),
        ("trust get {}", False, 1, 0),
        ("trust get {}", True, 1, 1),
        ("policy handlers set {} --deny-all", False, 0, 0),
        ("policy handlers get {}", False, 1, 0),
    ])
    def test_store_reads_and_hashes_per_command(self, capsys, config_file, backend,
                                                monkeypatch, command, recorded, reads, hashes):
        target = backend.workdir / "doc.pdf"
        target.write_bytes(b"%PDF-1.4")
        if recorded:  # the file holds trust and views, records bound to its hash
            set_trust(backend.store, target, True, now=1)
            record_view(backend.store, target, ContentView(
                "viewer", parse_mime_type("application/pdf"), False,
                content_identity(target), 1))
        calls = Counter()
        read = backend.store.read

        def counted_read(path, keys):
            calls["read"] += 1
            return read(path, keys)

        def counted_hash(path):
            calls["hash"] += 1
            return content_identity(path)

        monkeypatch.setattr(backend.store, "read", counted_read)
        monkeypatch.setattr(view_registry, "content_identity", counted_hash)
        monkeypatch.setattr(cli, "content_identity", counted_hash)
        monkeypatch.setattr(cli, "make_store", lambda config: backend.store)
        code, _ = run_cli(capsys, "--config", config_file, *_with_path(command, target))
        assert code == 0
        assert (calls["read"], calls["hash"]) == (reads, hashes)

    @pytest.mark.parametrize("command,key", [
        ("policy handlers set {} --deny-all", POLICY_KEY),
        ("trust set {} trusted", TRUST_KEY),
        ("view record {} --app a --mime text/plain", VIEWS_KEY),
    ])
    def test_rename_during_a_write_does_not_move_the_record(self, capsys, config_file, backend,
                                                           monkeypatch, command, key):
        target = backend.workdir / "doc.pdf"
        target.write_bytes(b"%PDF-1.4 original")
        original = backend.workdir / "original.pdf"
        os.link(target, original)  # the named file stays reachable after the rename
        store = RenamingStore(backend.store, target)
        monkeypatch.setattr(cli, "make_store", lambda config: store)
        code, _ = run_cli(capsys, "--config", config_file, *_with_path(command, target))
        assert code == 0
        assert store.renamed
        keys = (POLICY_KEY, TRUST_KEY, VIEWS_KEY)
        assert list(backend.store.read(original, keys)) == [key]
        assert backend.store.read(target, keys) == {}

    @pytest.mark.parametrize("command", [
        "view record {} --app a --mime text/plain", "view list {}", "trust set {} trusted",
        "trust get {}", "policy handlers set {} --deny-all", "policy handlers get {}"])
    def test_each_command_names_its_file_once(self, capsys, config_file, backend, monkeypatch,
                                              command):
        target = backend.workdir / "doc.pdf"
        target.write_bytes(b"%PDF-1.4")
        # records to read, so that reads list, get and hash
        set_trust(backend.store, target, True, now=1)
        record_view(backend.store, target, ContentView(
            "viewer", parse_mime_type("application/pdf"), False, content_identity(target), 1))
        lookups = []

        def counting(real):
            def call(file, *args, **kwargs):
                if not isinstance(file, int) and os.fspath(file) == str(target):
                    lookups.append(real.__name__)
                return real(file, *args, **kwargs)
            return call

        for name in ("open", "stat", "listxattr", "getxattr", "setxattr"):
            monkeypatch.setattr(os, name, counting(getattr(os, name)))
        monkeypatch.setattr(cli, "make_store", lambda config: backend.store)
        code, _ = run_cli(capsys, "--config", config_file, *_with_path(command, target))
        monkeypatch.undo()
        assert code == 0
        assert lookups == ["open"]

    @pytest.mark.parametrize("command", [
        "view list {}", "trust get {}", "policy handlers get {}",
        "policy handlers set {} --deny-all", "trust set {} trusted",
        "view record {} --app a --mime text/plain"])
    def test_trailing_slash_names_the_file(self, capsys, config_file, tmp_path, monkeypatch,
                                           command):
        # as check and identify read it
        (tmp_path / "doc.pdf").write_bytes(b"%PDF-1.4 body")
        monkeypatch.chdir(tmp_path)
        outputs = [run_cli(capsys, "--config", config_file, "--now", "1",
                           *_with_path(command, spelling)) for spelling in ["doc.pdf/", "doc.pdf"]]
        assert outputs[0] == outputs[1]
        assert outputs[0][0] == 0


class TestBrowser:
    def test_run_bundled_model(self, capsys, config_file):
        ctx = json.dumps({
            "content_type": "application/pdf",
            "extension_mime": "application/pdf",
            "auto_download": True,
        })
        code, out = run_cli(capsys, "--config", config_file,
                            "browser", "run", "firefox-like", "--ctx", ctx)
        assert code == 0
        assert json.loads(out)["action"] == "PromptDocType"

    def test_run_with_malformed_context_is_usage_error(self, capsys, config_file):
        code, out = run_cli(capsys, "--config", config_file,
                            "browser", "run", "firefox-like", "--ctx", "{bad")
        assert code == EX_USAGE
        assert out == ""

    def test_model_name_never_names_a_file_in_the_working_directory(
            self, capsys, config_file, tmp_path, monkeypatch):
        (tmp_path / "firefox-like").write_text("! Render\n")
        monkeypatch.chdir(tmp_path)
        ctx = json.dumps({"content_disposition": "attachment", "auto_download": True})
        for model, action in [("firefox-like", "Download"), ("./firefox-like", "Render"),
                              (str(tmp_path / "firefox-like"), "Render")]:
            code, out = run_cli(capsys, "--config", config_file,
                                "browser", "run", model, "--ctx", ctx)
            assert code == 0
            assert json.loads(out) == {"model": "firefox-like", "action": action}

    def test_missing_model_is_io_error(self, capsys, config_file):
        code = main(["--config", config_file, "browser", "diff", "firefox-like", "absent"])
        captured = capsys.readouterr()
        assert code == EX_IOERR
        assert captured.out == ""
        assert "model not found: absent" in captured.err

    def test_run_takes_the_context_diff_prints(self, capsys, config_file):
        _, out = run_cli(capsys, "--config", config_file,
                         "browser", "diff", "firefox-like", "opera-like")
        first = {}  # the first context of each distinct pair of actions
        for point in json.loads(out)["divergences"]:
            first.setdefault((point["a"], point["b"]), point["context"])
        assert len(first) == 14
        for actions, context in first.items():
            for model, action in zip(("firefox-like", "opera-like"), actions):
                code, out = run_cli(capsys, "--config", config_file,
                                    "browser", "run", model, "--ctx", json.dumps(context))
                assert code == 0
                assert json.loads(out)["action"] == action

    def test_diff_bundled_models(self, capsys, config_file, runtime):
        from contentoracle.browser_model import differential, enumerate_grid, load_tree

        code, out = run_cli(capsys, "--config", config_file,
                            "browser", "diff", "firefox-like", "opera-like")
        doc = json.loads(out)
        assert code == 0
        assert doc["divergence_count"] > 0
        assert doc["grid_size"] == 5184
        # oracle: the unit-level differential over the same models
        ff = load_tree((runtime.models_dir / "firefox-like.tree").read_text(), "ff")
        op = load_tree((runtime.models_dir / "opera-like.tree").read_text(), "op")
        expected = differential(ff, op, enumerate_grid())
        assert doc["divergence_count"] == len(expected)


class TestFetchCommand:
    def test_fetch_then_check(self, capsys, config_file, tmp_path, http_server):
        url = http_server.add("/cli/report.pdf", b"%PDF-1.4 streamed",
                              headers=[("Content-Type", "application/pdf")])
        out_dir = tmp_path / "downloads"
        code, out = run_cli(capsys, "--config", config_file, "--now", "123",
                            "fetch", url, "--out", str(out_dir))
        doc = report_of(out)
        assert code == 0
        assert doc["url"] == url
        assert doc["provenance"]["origin_url"] == url
        # the report is the assessment the view was recorded from; a later
        # check reads the view
        assert doc["views"] == []
        code, out = run_cli(capsys, "--config", config_file, "check", doc["path"])
        assert code == 0
        assert report_of(out)["views"][0]["app"] == "contentoracle.ingest"

    def test_fetch_reads_the_download_once(self, capsys, config_file, tmp_path,
                                           http_server, monkeypatch):
        url = http_server.add("/cli/once.pdf", b"%PDF-1.4 read once",
                              headers=[("Content-Type", "application/pdf")])
        body = (tmp_path / "downloads" / "once.pdf").resolve()
        opens = []

        def counting(real):
            # the body under its final name, or under the partial name it is written to
            def opener(file, *args, **kwargs):
                path = None if isinstance(file, int) else Path(os.fsdecode(file)).resolve()
                if path == body or path and path.parent == body.parent and path.suffix == ".part":
                    opens.append(file)
                return real(file, *args, **kwargs)
            return opener

        for module, name in ((builtins, "open"), (io, "open"), (os, "open")):
            monkeypatch.setattr(module, name, counting(getattr(module, name)))
        code, out = run_cli(capsys, "--config", config_file, "--now", "123",
                            "fetch", url, "--out", str(body.parent))
        monkeypatch.undo()
        assert code == 0
        assert report_of(out)["views"] == []
        assert len(opens) == 1

    def test_fetch_reads_the_store_twice_and_judges_once(self, capsys, config_file, tmp_path,
                                                         http_server, monkeypatch):
        # one read for the evidence, one for record_view's read-modify-write
        url = http_server.add("/cli/judged-once.pdf", b"%PDF-1.4 judged once",
                              headers=[("Content-Type", "application/pdf")])
        calls = Counter()
        load = Runtime.load

        def counted_load(config=None):
            loaded = load(config)
            read = loaded.store.read

            def counted_read(path, keys):
                calls["read"] += 1
                return read(path, keys)

            monkeypatch.setattr(loaded.store, "read", counted_read)
            return loaded

        def counted_evaluate(*args):
            calls["evaluate"] += 1
            return evaluate(*args)

        monkeypatch.setattr(Runtime, "load", staticmethod(counted_load))
        monkeypatch.setattr("contentoracle.runtime.evaluate", counted_evaluate)
        code, _ = run_cli(capsys, "--config", config_file, "--now", "123",
                          "fetch", url, "--out", str(tmp_path / "downloads"))
        assert code == 0
        assert (calls["read"], calls["evaluate"]) == (2, 1)

    def test_fetch_judges_the_received_body_not_a_file_renamed_over_its_name(
            self, capsys, config_file, tmp_path, http_server, monkeypatch):
        body = b"%PDF-1.4 received"
        url = http_server.add("/cli/decoyed.pdf", body,
                              headers=[("Content-Type", "application/pdf")])
        out_dir = tmp_path / "downloads"
        received, decoy = tmp_path / "received.pdf", tmp_path / "decoy.pdf"
        replace = os.replace

        def replace_then_plant_a_decoy(src, dst):
            replace(src, dst)
            os.link(dst, received)  # the received inode, kept after the decoy takes its name
            decoy.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(56))
            os.rename(decoy, dst)

        monkeypatch.setattr(ingest.os, "replace", replace_then_plant_a_decoy)
        code, out = run_cli(capsys, "--config", config_file, "--now", "123",
                            "fetch", url, "--out", str(out_dir))
        monkeypatch.undo()
        doc = report_of(out)
        assert code == 0
        assert [c["mime"] for c in doc["sniff"]["candidates"]] == ["application/pdf"]
        assert doc["sniff"]["bytes_examined"] == len(body)
        assert (out_dir / "decoyed.pdf").read_bytes().startswith(b"\x7fELF")
        _, out = run_cli(capsys, "--config", config_file, "view", "list", str(received))
        (view,) = json.loads(out)["views"]
        assert view["app"] == ingest.INGEST_APP_ID
        assert view["hash"] == hashlib.sha256(body).hexdigest()
        assert view["stale"] is False
        _, out = run_cli(capsys, "--config", config_file, "view", "list", doc["path"])
        assert json.loads(out)["views"] == []

    def test_failed_assessment_leaves_no_file(self, capsys, config_file, tmp_path, http_server,
                                              monkeypatch):
        url = http_server.add("/cli/unjudged.pdf", b"%PDF-1.4 unjudged")

        def failing_judge(*args):
            raise RuntimeError("judge failed")

        monkeypatch.setattr(ingest, "judge", failing_judge)
        out_dir = tmp_path / "downloads"
        code = main(["--config", config_file, "fetch", url, "--out", str(out_dir)])
        captured = capsys.readouterr()
        assert code == EX_SOFTWARE
        assert captured.out == "" and "RuntimeError: judge failed" in captured.err
        assert list(out_dir.iterdir()) == []

    def test_denied_download_keeps_its_name(self, capsys, config_file, tmp_path, http_server):
        body = b"\x7fELF\x02\x01\x01\x00" + bytes(56)
        url = http_server.add("/cli/denied.pdf", body,
                              headers=[("Content-Type", "application/pdf")])
        out_dir = tmp_path / "downloads"
        code, out = run_cli(capsys, "--config", config_file, "--now", "123",
                            "fetch", url, "--out", str(out_dir))
        assert (code, report_of(out)["verdict"]) == (2, "deny")
        assert [p.name for p in out_dir.iterdir()] == ["denied.pdf"]
        assert (out_dir / "denied.pdf").read_bytes() == body

    def test_fetch_records_a_view_of_the_body_on_either_backend(self, capsys, backend,
                                                                http_server):
        sidecar = backend.store.path if backend.name == "sidecar" else backend.store.overflow.path
        config = backend.workdir / "config.json"
        config.write_text(json.dumps({"backend": backend.name, "sidecar_path": str(sidecar)}))
        body = b"%PDF-1.4 fetched onto " + backend.name.encode()
        url = http_server.add(f"/cli/either-{backend.name}.pdf", body,
                              headers=[("Content-Type", "application/pdf")])
        code, out = run_cli(capsys, "--config", str(config), "--now", "123",
                            "fetch", url, "--out", str(backend.workdir / "downloads"))
        assert code == 0
        doc = report_of(out)
        assert doc["views"] == []
        _, out = run_cli(capsys, "--config", str(config), "view", "list", doc["path"])
        (view,) = json.loads(out)["views"]
        assert view["app"] == "contentoracle.ingest"
        assert view["hash"] == hashlib.sha256(body).hexdigest()
        assert view["stale"] is False

    def test_fetch_raw_non_ascii_url(self, capsys, config_file, tmp_path, http_server):
        http_server.add("/cli/%C3%A9%C3%A9%C3%A9", b"%PDF-1.4 accents")
        url = http_server.url("/cli/\u00e9\u00e9\u00e9")
        code, out = run_cli(capsys, "--config", config_file,
                            "fetch", url, "--out", str(tmp_path / "d"))
        doc = report_of(out)
        assert code == 0
        assert doc["url"] == url
        assert Path(doc["path"]).name == "\u00e9\u00e9\u00e9"

    @pytest.mark.parametrize("url", [
        "foo", "http://[::1", "http://a..b/x", f"http://{'a' * 64}/x", "http://127.0.0.1:x/",
        "file:///etc/hostname", "data:text/html,<script>x</script>", "http://a b/",
        "http://a%20b/", "http://a%0d%0ab/",
    ])
    def test_url_that_cannot_be_fetched_is_a_usage_error(self, capsys, config_file, tmp_path,
                                                         url):
        out = tmp_path / "d"
        assert main(["--config", config_file, "fetch", url, "--out", str(out)]) == EX_USAGE
        captured = capsys.readouterr()
        assert captured.out == "" and f"cannot fetch {url!r}" in captured.err
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("location,fault", [
        ("http://[::1", "Invalid IPv6 URL"), ("http://a..b/x", "label empty or too long"),
        ("ftp://127.0.0.1:9/x", "'ftp://127.0.0.1:9/x'"),
        ("file:///etc/hostname", "'file:///etc/hostname'"),
        ("data:text/html,<script>x</script>", "'data:text/html,<script>x</script>'"),
        ("http://a b/", "space or control character"),
    ])
    def test_redirect_that_cannot_be_followed_is_an_io_error(self, capsys, config_file, tmp_path,
                                                             http_server, location, fault):
        url = http_server.add_redirect("/cli/refused", location)
        out = tmp_path / "d"
        assert main(["--config", config_file, "fetch", url, "--out", str(out)]) == EX_IOERR
        captured = capsys.readouterr()
        assert captured.out == "" and "redirect" in captured.err and fault in captured.err
        assert not out.exists() or list(out.iterdir()) == []

    @pytest.mark.parametrize("referrer", ["http://x/€", os.fsdecode(b"http://x/\xff")])
    def test_referrer_is_sent_percent_encoded(self, capsys, config_file, tmp_path, http_server,
                                              referrer):
        url = http_server.add("/cli/referred.pdf", b"%PDF-1.4 referred")
        code, out = run_cli(capsys, "--config", config_file, "fetch", url,
                            "--referrer", referrer, "--out", str(tmp_path / "d"))
        assert code == 0
        assert report_of(out)["provenance"]["referrer_url"] == referrer

    def test_fetch_error_exit(self, capsys, config_file, tmp_path, http_server):
        code, _ = run_cli(capsys, "--config", config_file,
                          "fetch", http_server.url("/cli/absent"),
                          "--out", str(tmp_path / "d"))
        assert code == EX_IOERR

    @pytest.mark.parametrize("reply,fault", [
        (b"NOT HTTP AT ALL\r\n", "BadStatusLine"),
        (b"HTTP/1.0 200 OK\r\nContent-Length: 100\r\n\r\nabc", "ended 97 bytes short"),
    ], ids=["not-http", "short-content-length"])
    def test_broken_response_is_an_io_error(self, capsys, config_file, tmp_path, raw_http,
                                            reply, fault):
        out = tmp_path / "d"
        assert main(["--config", config_file, "fetch", raw_http(reply),
                     "--out", str(out)]) == EX_IOERR
        captured = capsys.readouterr()
        assert captured.out == "" and fault in captured.err
        assert "internal error" not in captured.err
        assert not out.exists() or list(out.iterdir()) == []


class TestDbStats:
    def test_bundled_snapshot(self, capsys, config_file):
        code, out = run_cli(capsys, "--config", config_file,
                            "db", "stats", str(DATA_DIR / "mime.snapshot.types"))
        doc = json.loads(out)
        assert code == 0
        assert doc["families"]["chemical"]["unknown_family"] > 0
        assert doc["malformed_lines"] == 0
        assert doc["total_types"] == sum(
            sum(f.values()) for f in doc["families"].values()
        )


class TestExitCodes:
    def test_exit_code_is_function_of_verdict_only(self):
        # property over the whole decision truth table: the code depends on
        # nothing but the verdict
        import itertools

        from contentoracle.cli import _VERDICT_CODE
        from contentoracle.policy_engine import Verdict, decide
        from tests.test_policy_engine import (
            HANDLER_CASES, SEVERITIES, TRUSTS, oracle, report_with,
        )

        expected_code = {Verdict.ALLOW: 0, Verdict.WARN: 1, Verdict.DENY: 2}
        for severity, trust, case in itertools.product(SEVERITIES, TRUSTS, HANDLER_CASES):
            handler, policy = HANDLER_CASES[case]
            decision = decide(report_with(severity), trust, handler, policy)
            assert _VERDICT_CODE[decision.verdict] == \
                expected_code[oracle(severity, trust, case)]

    def test_usage_error_is_64(self, capsys, config_file):
        assert main(["no-such-command"]) == EX_USAGE

    def test_missing_required_arg_is_64(self, capsys):
        assert main(["view", "record"]) == EX_USAGE

    def test_bad_mime_argument_is_64(self, capsys, config_file, tmp_path):
        target = tmp_path / "f.bin"
        target.write_bytes(b"x")
        code, _ = run_cli(capsys, "--config", config_file, "view", "record",
                          str(target), "--app", "a", "--mime", "notamime")
        assert code == EX_USAGE

    @pytest.mark.parametrize("flags", [
        ("--app", "viewer", "--note", "x" * 300),
        ("--app", ""),
        ("--app", " viewer"),
        ("--app", "viewer\n"),
    ])
    def test_bad_view_argument_is_64(self, capsys, config_file, tmp_path, flags):
        target = tmp_path / "f.txt"
        target.write_bytes(b"plain text")
        code, out = run_cli(capsys, "--config", config_file, "view", "record",
                            str(target), "--mime", "text/plain", *flags)
        assert code == EX_USAGE
        assert out == ""
        _, out = run_cli(capsys, "--config", config_file, "view", "list", str(target))
        assert json.loads(out)["views"] == []

    @pytest.mark.parametrize("flags", [
        ("--mime", "text/plain", "--app", ""),
        ("--mime", "nope", "--app", "a"),
        ("--mime", "text/plain", "--app", "a", "--note", "x" * 300),
    ])
    def test_view_of_a_missing_file_is_an_io_error_before_a_bad_view(self, capsys,
                                                                       config_file, tmp_path,
                                                                       flags):
        # the file is opened and hashed before the view is built and checked
        code, out = run_cli(capsys, "--config", config_file, "view", "record",
                            str(tmp_path / "missing.txt"), *flags)
        assert code == EX_IOERR
        assert out == ""

    @pytest.mark.parametrize("ctx", [
        '{"content_disposition":"bogus"}',
        "[]",
        '{"sniffed_mime":5}',
    ])
    def test_bad_request_context_is_64(self, capsys, config_file, ctx):
        code, out = run_cli(capsys, "--config", config_file,
                            "browser", "run", "firefox-like", "--ctx", ctx)
        assert code == EX_USAGE
        assert out == ""

    @pytest.mark.parametrize("ctx,key", [
        ('{"nosniff":"false"}', "nosniff"),
        ('{"auto_download":1}', "auto_download"),
        ('{"auto_open":null}', "auto_open"),
        ('{"no_sniff":true}', "no_sniff"),
        ('{"nosniff":true,"autoOpen":false}', "autoOpen"),
        ('{"sniffed_mime":false}', "sniffed_mime"),
        ('{"content_type":0}', "content_type"),
    ])
    def test_request_context_takes_booleans_and_known_keys_only(self, capsys, config_file,
                                                              ctx, key):
        code = main(["--config", config_file, "browser", "run", "firefox-like", "--ctx", ctx])
        captured = capsys.readouterr()
        assert code == EX_USAGE
        assert captured.out == ""
        assert key in captured.err

    def test_config_error_is_78(self, capsys, tmp_path):
        bad = tmp_path / "broken.json"
        bad.write_text("{not json")
        assert main(["--config", str(bad), "trust", "get", "x"]) == EX_CONFIG

    @pytest.mark.parametrize("doc", [
        {"magic_path": 5},
        {"sidecar_path": None, "backend": "sidecar"},
    ])
    def test_wrong_typed_config_value_is_78(self, capsys, tmp_path, doc):
        target = tmp_path / "doc.pdf"
        target.write_bytes(b"%PDF-1.4 body")
        bad = tmp_path / "typed.json"
        bad.write_text(json.dumps(doc))
        assert main(["--config", str(bad), "check", str(target)]) == EX_CONFIG
        assert "config error" in capsys.readouterr().err

    def test_missing_explicit_config_is_78(self, capsys, tmp_path):
        assert main(["--config", str(tmp_path / "absent.json"),
                     "trust", "get", "x"]) == EX_CONFIG

    def test_unknown_config_key_is_78(self, capsys, tmp_path):
        bad = tmp_path / "extra.json"
        bad.write_text(json.dumps({"surprise": 1}))
        assert main(["--config", str(bad), "trust", "get", "x"]) == EX_CONFIG

    @pytest.mark.parametrize("key", ["mime_types_path", "magic_path", "active_types_path"])
    def test_data_file_not_utf8_is_78(self, capsys, tmp_path, key):
        bad = tmp_path / "data.txt"
        bad.write_bytes(b"\xff\xfe")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: str(bad), "backend": "sidecar",
                                      "sidecar_path": str(tmp_path / "sidecar.sqlite3")}))
        target = tmp_path / "doc.pdf"
        target.write_bytes(b"%PDF-1.4 body")
        assert main(["--config", str(config), "check", str(target)]) == EX_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{bad} is not UTF-8" in captured.err

    @pytest.mark.parametrize("key,text,reason", [
        ("magic_path", "# signatures\nbroken line\n", "line 2: expected 7 fields, got 1"),
        ("active_types_path", "not a type\n", "line 1: missing '/' separator in 'not a type'"),
    ])
    def test_data_file_that_does_not_parse_is_78(self, capsys, tmp_path, key, text, reason):
        bad = tmp_path / "data.txt"
        bad.write_text(text)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({key: str(bad), "backend": "sidecar",
                                      "sidecar_path": str(tmp_path / "sidecar.sqlite3")}))
        target = tmp_path / "doc.pdf"
        target.write_bytes(b"%PDF-1.4 body")
        assert main(["--config", str(config), "check", str(target)]) == EX_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"config error: {bad}: {reason}" in captured.err

    def test_bad_mime_types_line_is_skipped(self, capsys, tmp_path):
        types = tmp_path / "mime.types"
        types.write_text("not-a-type x\napplication/pdf pdf\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"mime_types_path": str(types), "backend": "sidecar",
                                      "sidecar_path": str(tmp_path / "sidecar.sqlite3")}))
        target = tmp_path / "doc.pdf"
        target.write_bytes(b"plain words\n")  # sniffs as nothing: the extension resolves
        code, out = run_cli(capsys, "--config", str(config), "check", str(target))
        assert code == 0
        assert report_of(out)["resolved_mime"] == "application/pdf"

    @pytest.mark.parametrize("model", ["bad", "./bad.tree"])
    def test_tree_that_does_not_parse_is_78(self, capsys, tmp_path, monkeypatch, model):
        models = tmp_path / "models"
        models.mkdir()
        (models / "bad.tree").write_text("? bogus present\n")
        monkeypatch.chdir(models)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"models_dir": str(models)}))
        assert main(["--config", str(config), "browser", "run", model, "--ctx", "{}"]) \
            == EX_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "bad.tree: line 1: unknown field 'bogus'" in captured.err

    @pytest.mark.parametrize("command", [
        "db stats", "browser diff firefox-like", "browser run --ctx {}"])
    def test_named_file_not_utf8_is_78(self, capsys, config_file, tmp_path, command):
        bad = tmp_path / "model.tree"
        bad.write_bytes(b"\xff\xfe")
        assert main(["--config", config_file, *command.split(), str(bad)]) == EX_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{bad} is not UTF-8" in captured.err

    def test_sidecar_not_a_database_is_78(self, capsys, config_file, tmp_path):
        target = tmp_path / "doc.pdf"
        target.write_bytes(b"%PDF-1.4 body")
        sidecar = Path(load_config(config_file).sidecar_path)
        sidecar.write_bytes(b'{"key":"user.contentoracle.trust","path":"1:2","value":"e30="}\n')
        assert main(["--config", config_file, "check", str(target)]) == EX_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(sidecar) in captured.err

    def test_sidecar_that_cannot_be_opened_is_74(self, capsys, config_file, tmp_path):
        target = tmp_path / "doc.pdf"
        target.write_bytes(b"%PDF-1.4 body")
        Path(load_config(config_file).sidecar_path).mkdir()
        assert main(["--config", config_file, "trust", "set", str(target), "trusted"]) \
            == EX_IOERR

    @pytest.mark.parametrize("command", ["check", "identify"])
    @pytest.mark.parametrize("path", [".", "/"])
    def test_nameless_directory_is_74(self, capsys, config_file, command, path):
        assert main(["--config", config_file, command, path]) == EX_IOERR
        assert "Is a directory" in capsys.readouterr().err

    @pytest.mark.parametrize("command", PATH_COMMANDS + [
        "scan {}", "trust set {} trusted", "view record {} --app a --mime text/plain",
        "db stats {}", "fetch {url} --out {}"])
    def test_empty_path_is_64(self, capsys, config_file, tmp_path, monkeypatch, http_server,
                              command):
        # as a Path, "" is ".": scan would scan the working directory, and
        # fetch download into it
        monkeypatch.chdir(tmp_path)
        url = http_server.add("/cli/empty-out.pdf", b"%PDF-1.4 body")
        argv = [{"{}": "", "{url}": url}.get(word, word) for word in command.split()]
        assert main(["--config", config_file, *argv]) == EX_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "empty path" in captured.err
        assert os.listdir(tmp_path) == ["config.json"]

    @pytest.mark.parametrize("env_config", [None, "absent.json"], ids=["no-env", "env"])
    def test_empty_config_path_is_64(self, capsys, tmp_path, monkeypatch, env_config):
        # "" names no file: it neither falls back to the defaults nor to
        # $CONTENTORACLE_CONFIG, as an absent --config does
        for var in ("HOME", "XDG_CONFIG_HOME", "XDG_STATE_HOME"):
            monkeypatch.setenv(var, str(tmp_path / var.lower()))
        if env_config is None:
            monkeypatch.delenv("CONTENTORACLE_CONFIG", raising=False)
        else:
            monkeypatch.setenv("CONTENTORACLE_CONFIG", str(tmp_path / env_config))
        target = tmp_path / "a.pdf"
        target.write_bytes(b"%PDF-1.4 body")
        assert main(["--config", "", "check", str(target)]) == EX_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--config: empty path" in captured.err
        assert os.listdir(tmp_path) == ["a.pdf"]

    @pytest.mark.parametrize("command", PATH_COMMANDS)
    def test_attribute_commands_reject_a_directory(self, capsys, config_file, tmp_path, command):
        assert main(["--config", config_file, *_with_path(command, tmp_path)]) == EX_IOERR
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "Is a directory" in captured.err

    @pytest.mark.parametrize("command", PATH_COMMANDS + [
        "trust set {} trusted", "view record {} --app a --mime text/plain"])
    def test_fifo_is_74_without_waiting_for_a_writer(self, config_file, tmp_path, command):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        env = dict(os.environ, PYTHONPATH=str(Path(contentoracle.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from contentoracle.cli import main;"
             " sys.exit(main(sys.argv[1:]))", "--config", config_file,
             *_with_path(command, fifo)],
            env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == EX_IOERR, proc.stderr
        assert proc.stdout == ""
        assert "not a regular file" in proc.stderr

    @pytest.mark.parametrize("command,code", [
        ("--config {config} db stats {fifo}", EX_IOERR),
        ("--config {fifo} check {target}", EX_CONFIG),
        ("--config {fifo_config} check {target}", EX_IOERR),
    ])
    def test_fifo_data_or_config_file_fails_without_waiting_for_a_writer(
            self, config_file, tmp_path, command, code):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        fifo_config = tmp_path / "fifo-config.json"
        fifo_config.write_text(json.dumps({
            "mime_types_path": str(fifo),
            "sidecar_path": str(tmp_path / "sidecar.sqlite3"),
            "backend": "sidecar",
        }))
        target = tmp_path / "a.pdf"
        target.write_bytes(b"%PDF-1.4 body")
        argv = [word.format(config=config_file, fifo=fifo, fifo_config=fifo_config,
                            target=target) for word in command.split()]
        env = dict(os.environ, PYTHONPATH=str(Path(contentoracle.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", "import sys; from contentoracle.cli import main;"
             " sys.exit(main(sys.argv[1:]))", *argv],
            env=env, capture_output=True, text=True, timeout=30)
        assert proc.returncode == code, proc.stderr
        assert proc.stdout == ""
        assert "not a regular file" in proc.stderr

    def test_fault_in_signature_parsing_is_internal_error(self, capsys, config_file,
                                                          tmp_path, monkeypatch):
        from contentoracle import sniffer

        def broken(text):
            raise RuntimeError("parser fault")

        monkeypatch.setattr(sniffer, "parse_mime_type", broken)
        target = tmp_path / "doc.pdf"
        target.write_bytes(b"%PDF-1.4 body")
        assert main(["--config", config_file, "check", str(target)]) == EX_SOFTWARE
        assert "internal error: RuntimeError: parser fault" in capsys.readouterr().err

    def test_parallel_is_unknown_option(self, capsys, config_file, tmp_path):
        assert main(["--config", config_file, "scan", str(tmp_path), "--parallel", "2"]) \
            == EX_USAGE

    @pytest.mark.parametrize("flags", [
        (),
        ("--apps", " , "),
        ("--apps", ""),
        ("--apps", "a,,b"),
        ("--apps", " viewer"),
        ("--apps", "x", "--deny-all"),
    ])
    def test_policy_set_without_one_valid_restriction_is_64(self, capsys, config_file,
                                                             tmp_path, flags):
        target = tmp_path / "a.pdf"
        target.write_bytes(b"%PDF-1.4 body")
        assert main(["--config", config_file, "policy", "handlers", "set", str(target),
                     "--deny-all"]) == 0
        capsys.readouterr()
        code, out = run_cli(capsys, "--config", config_file,
                            "policy", "handlers", "set", str(target), *flags)
        assert code == EX_USAGE
        assert out == ""
        _, out = run_cli(capsys, "--config", config_file,
                         "policy", "handlers", "get", str(target))
        assert json.loads(out) == {"deny_all": True, "handlers": [], "restricts": True}

    @pytest.mark.parametrize("command", PATH_COMMANDS + [
        "trust set {} trusted", "view record {} --app a --mime text/plain"])
    def test_attribute_commands_load_the_store_only(self, capsys, tmp_path, command):
        target = tmp_path / "a.pdf"
        target.write_bytes(b"%PDF-1.4 body")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "mime_types_path": str(tmp_path / "absent" / "mime.types"),
            "sidecar_path": str(tmp_path / "sidecar.sqlite3"),
            "backend": "sidecar",
        }))
        code = main(["--config", str(config), *_with_path(command, target)])
        captured = capsys.readouterr()
        if command.split()[0] in ("check", "identify"):
            assert code == EX_IOERR
            assert "mime.types" in captured.err
        else:
            assert code == 0, captured.err
        if command == "trust get {}":
            assert json.loads(captured.out) == {"trust": "unset"}

    @pytest.mark.parametrize("command", [
        'browser run firefox-like --ctx {"auto_open":false}',
        "browser diff firefox-like opera-like",
        "db stats {}",
    ])
    def test_browser_and_db_stats_load_no_registry(self, capsys, tmp_path, command):
        absent = tmp_path / "absent"
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "mime_types_path": str(absent / "mime.types"),
            "magic_path": str(absent / "magic.signatures"),
            "active_types_path": str(absent / "active.types"),
            "sidecar_path": str(absent / "sidecar.sqlite3"),
            "backend": "sidecar",
        }))
        code = main(["--config", str(config),
                     *_with_path(command, DATA_DIR / "mime.snapshot.types")])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert json.loads(captured.out)
        assert not absent.exists()

    @pytest.mark.parametrize("key,value", CORRUPT_ATTRIBUTES)
    def test_corrupt_attribute_is_internal_error(self, capsys, config_file, tmp_path,
                                                 key, value):
        target = tmp_path / "doc.pdf"
        target.write_bytes(b"%PDF-1.4 body")
        set_raw(config_file, target, key, value)
        code = main(["--config", config_file, "check", str(target)])
        assert code == EX_SOFTWARE
        err = capsys.readouterr().err
        assert "internal error" in err and key in err

    def test_busy_sidecar_is_an_io_error(self, capsys, config_file, tmp_path, monkeypatch):
        # another process holds the sidecar's write lock past the busy timeout
        target = tmp_path / "doc.pdf"
        target.write_bytes(b"%PDF-1.4 body")
        assert main(["--config", config_file, "trust", "set", str(target), "trusted"]) == 0
        holder = subprocess.Popen([sys.executable, "-c", (
            "import sqlite3, sys\n"
            "conn = sqlite3.connect(sys.argv[1], isolation_level=None)\n"
            "conn.execute('BEGIN IMMEDIATE')\n"
            "print('held', flush=True)\n"
            "sys.stdin.read()\n"
        ), str(tmp_path / "sidecar.jsonl")], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            text=True)
        try:
            assert holder.stdout.readline() == "held\n"
            monkeypatch.setattr(view_registry, "_BUSY_TIMEOUT", 0.2)
            capsys.readouterr()
            for argv in (["policy", "handlers", "set", str(target), "--deny-all"],
                         ["view", "record", str(target), "--app", "a",
                          "--mime", "application/pdf"],
                         ["trust", "set", str(target), "untrusted"]):
                assert main(["--config", config_file, *argv]) == EX_IOERR, argv
                out, err = capsys.readouterr()
                assert out == ""
                assert "database is locked" in err and "internal error" not in err
            # readers do not wait for the writer
            assert main(["--config", config_file, "check", str(target)]) == 0
            report_of(capsys.readouterr().out)
        finally:
            holder.communicate("", timeout=60)
        assert main(["--config", config_file, "trust", "get", str(target)]) == 0
        assert json.loads(capsys.readouterr().out) == {"trust": "trusted"}

    def test_scan_emits_reports_before_internal_error(self, capsys, config_file, tmp_path):
        inbox = tmp_path / "inbox"
        inbox.mkdir()
        (inbox / "a.pdf").write_bytes(b"%PDF-1.4 ok")
        corrupt = inbox / "b.pdf"
        corrupt.write_bytes(b"%PDF-1.4 ok")
        set_raw(config_file, corrupt, TRUST_KEY, b'{"v":1}')
        code, out = run_cli(capsys, "--config", config_file, "scan", str(inbox))
        assert code == EX_SOFTWARE
        assert [Path(report_of(line)["path"]).name for line in out.splitlines()] == ["a.pdf"]


def _run_process(*argv: str) -> tuple[int, str, str]:
    """Exit code, stdout and stderr of ``cli.run`` in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(contentoracle.__file__).parents[1]))
    env.pop("CONTENTORACLE_CONFIG", None)
    proc = subprocess.run([sys.executable, "-c", "from contentoracle.cli import run; run()",
                           *argv], env=env, capture_output=True, text=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


class TestColdExit:
    """``run`` freezes the heap before it exits, so interpreter shutdown does
    not collect it; ``main``, which callers run again and again in one
    process, never does."""

    @pytest.fixture
    def argvs(self, config_file, tmp_path) -> list[list[str]]:
        inbox = tmp_path / "inbox"
        inbox.mkdir()
        (inbox / "doc.pdf").write_bytes(b"%PDF-1.4 body")
        (inbox / "script.pdf").write_bytes(zip_with_script())
        denied = inbox / "denied.pdf"
        denied.write_bytes(b"%PDF-1.4 denied")
        assert main(["--config", config_file, "policy", "handlers", "set", str(denied),
                     "--apps", "viewerA"]) == 0
        base = ["--config", config_file, "--now", "123"]
        return [base + ["check", str(inbox / "doc.pdf")],
                base + ["check", str(denied), "--handler", "viewerB"],
                base + ["scan", str(inbox)],
                base + ["browser", "diff", "firefox-like", "opera-like"],
                base + ["check"]]

    def test_main_never_freezes(self, capsys, argvs):
        before = gc.get_freeze_count()
        for argv in argvs:
            main(argv)
        capsys.readouterr()
        assert gc.get_freeze_count() == before

    def test_run_freezes_after_main_returns(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "main", lambda argv: calls.append("main") or 2)
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        with pytest.raises(SystemExit) as excinfo:
            cli.run()
        assert excinfo.value.code == 2
        assert calls == ["main", "freeze"]

    def test_process_output_is_main_output(self, capsys, argvs):
        capsys.readouterr()
        codes = []
        for argv in argvs:
            code, out, err = _run_process(*argv)
            assert (code, out, err) == (main(argv), *capsys.readouterr()), argv
            codes.append(code)
        assert codes == [0, 2, 2, 0, EX_USAGE]

    def test_sidecar_is_closed_at_exit(self, config_file, tmp_path):
        target = tmp_path / "doc.pdf"
        target.write_bytes(b"%PDF-1.4 body")
        assert _run_process("--config", config_file, "trust", "set", str(target),
                            "trusted")[0] == 0
        db = Path(json.loads(Path(config_file).read_text())["sidecar_path"])
        assert db.exists()
        assert not db.with_name(db.name + "-wal").exists()
        assert not db.with_name(db.name + "-shm").exists()


class TestGoldenUsage:
    """``--help`` of every command path, and a usage error at each nesting
    level, byte for byte as printed when every parser was built up front."""

    @pytest.fixture(autouse=True)
    def _columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width

    @pytest.mark.parametrize("args", [a for a in GOLDEN if a.endswith("--help")])
    def test_help(self, capsys, args):
        assert main(args.split()) == 0
        assert capsys.readouterr() == (GOLDEN[args], "")

    @pytest.mark.parametrize("args", [a for a in GOLDEN if not a.endswith("--help")])
    def test_usage_error(self, capsys, args):
        assert main(args.split()) == EX_USAGE
        assert capsys.readouterr() == ("", GOLDEN[args])

    def test_every_command_has_golden_help(self):
        commands = re.search(r"\{(.*)\}", GOLDEN["--help"]).group(1).split(",")
        assert len(commands) == 9
        assert {f"{c} --help" for c in commands} <= set(GOLDEN)


def test_readme_cli_lines_parse_and_reach_every_command():
    """Each line of README's CLI block, without its comment and with its
    optional ``[ ]`` arguments given, parses; together they reach every
    ``cmd_*`` function."""
    readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    reached = set()
    for line in block.splitlines():
        words = shlex.split(line.replace("[", "").replace("]", ""), comments=True)
        assert words[0] == "contentoracle", line
        reached.add(cli.build_parser().parse_args(words[1:]).func)
    assert reached == {getattr(cli, name) for name in dir(cli) if name.startswith("cmd_")}
