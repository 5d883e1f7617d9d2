"""Tests for fetching, provenance stamping, filename hygiene, and the
end-to-end assessment pipeline. Everything runs against a loopback fixture
server; no external network is touched."""

from __future__ import annotations

import errno
import hashlib
import os
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from contentoracle import ingest
from contentoracle.discrepancy_engine import DiscrepancyKind, evaluate
from contentoracle.errors import HttpError, NetworkError
from contentoracle.ingest import (
    INGEST_APP_ID,
    FetchRecord,
    assess_record,
    fetch,
    sanitize_url_filename,
)
from contentoracle.policy_engine import Verdict, decide, policy_from
from contentoracle.view_registry import (
    AttributeStore,
    ORIGIN_KEY,
    POLICY_KEY,
    REFERRER_KEY,
    get_trust,
    read_views,
)
from contentoracle.runtime import build_evidence
from tests.conftest import zip_with_script


class TestFetch:
    def test_success_captures_headers_and_origin(self, http_server, runtime, tmp_path):
        url = http_server.add(
            "/files/doc.pdf", b"%PDF-1.4 content",
            headers=[("Content-Type", "application/pdf")],
        )
        record = fetch(url, tmp_path, runtime.store, now=1234)
        assert record.status == 200
        assert record.headers["Content-Type"] == "application/pdf"
        assert record.body_path.name == "doc.pdf"
        assert record.body_path.read_bytes() == b"%PDF-1.4 content"
        assert record.fetched_at == 1234
        assert runtime.store.get(record.body_path, ORIGIN_KEY) == url.encode()

    def test_404_persists_nothing(self, http_server, runtime, tmp_path):
        with pytest.raises(HttpError) as excinfo:
            fetch(http_server.url("/missing"), tmp_path, runtime.store)
        assert excinfo.value.status == 404
        assert list(tmp_path.iterdir()) == []

    def test_absent_content_type_is_absent_in_record(self, http_server, runtime, tmp_path):
        url = http_server.add("/files/raw.bin", b"\x00\x01\x02")
        record = fetch(url, tmp_path, runtime.store)
        assert "Content-Type" not in record.headers

    def test_referrer_attribute(self, http_server, runtime, tmp_path):
        url = http_server.add("/files/linked.bin", b"data")
        record = fetch(url, tmp_path, runtime.store, referrer="https://ref.example/p")
        assert runtime.store.get(record.body_path, REFERRER_KEY) == b"https://ref.example/p"

    def test_redirects_followed_and_final_url_recorded(self, http_server, runtime, tmp_path):
        final = http_server.add("/files/target.bin", b"payload")
        hop1 = http_server.add_redirect("/hop1", final)
        start = http_server.add_redirect("/hop0", hop1)
        record = fetch(start, tmp_path, runtime.store)
        assert record.url == start
        assert record.final_url == final
        assert record.body_path.name == "target.bin"
        assert runtime.store.get(record.body_path, ORIGIN_KEY) == final.encode()

    def test_redirect_depth_five_succeeds(self, http_server, runtime, tmp_path):
        url = http_server.add("/depth/end.bin", b"made it")
        for i in range(5):
            url = http_server.add_redirect(f"/depth/{i}", url)
        record = fetch(url, tmp_path, runtime.store)
        assert record.body_path.read_bytes() == b"made it"

    def test_redirect_depth_bounded(self, http_server, runtime, tmp_path):
        last = http_server.add("/chain/end", b"x")
        url = last
        for i in range(7):
            url = http_server.add_redirect(f"/chain/{i}", url)
        with pytest.raises(NetworkError):
            fetch(url, tmp_path, runtime.store)

    def test_error_response_closed(self, http_server, runtime, tmp_path):
        # the HTTPError behind each refused fetch holds the response open
        url = http_server.add("/closed/end", b"x")
        for i in range(7):
            url = http_server.add_redirect(f"/closed/{i}", url)
        for target, error in ((http_server.url("/missing"), HttpError), (url, NetworkError)):
            with pytest.raises(error) as excinfo:
                fetch(target, tmp_path, runtime.store)
            assert excinfo.value.__cause__.fp.closed

    def test_connection_refused_is_network_error(self, runtime, tmp_path, monkeypatch):
        monkeypatch.setattr(ingest, "TIMEOUT", 2)
        with pytest.raises(NetworkError):
            fetch("http://127.0.0.1:9/nothing", tmp_path, runtime.store)

    def test_planted_partial_symlink_not_followed(self, http_server, runtime, tmp_path):
        url = http_server.add("/plant/r.pdf", b"%PDF-1.4 downloaded")
        victim = tmp_path / "victim.txt"
        victim.write_bytes(b"precious")
        dest_dir = tmp_path / "inbox"
        dest_dir.mkdir()
        (dest_dir / ".r.pdf.part").symlink_to(victim)
        record = fetch(url, dest_dir, runtime.store)
        assert victim.read_bytes() == b"precious"
        assert record.body_path == dest_dir / "r.pdf"
        assert not record.body_path.is_symlink()
        assert record.body_path.read_bytes() == b"%PDF-1.4 downloaded"

    def test_bidi_stripped_from_saved_name(self, http_server, runtime, tmp_path):
        http_server.add("/files/gadget%E2%80%AEfdp.exe", b"MZ\x90\x00")
        record = fetch(http_server.url("/files/gadget%E2%80%AEfdp.exe"),
                       tmp_path, runtime.store)
        assert "‮" not in record.body_path.name
        assert record.sanitizations

    def test_overlong_multibyte_name_fits_the_filesystem(self, http_server, runtime, tmp_path):
        url = http_server.add("/long/" + "%C3%A9" * 200, b"%PDF-1.4 long")  # 400 bytes decoded
        record = fetch(url, tmp_path, runtime.store)
        assert record.body_path.name == "\u00e9" * 127  # 254 bytes: no split character
        assert record.body_path.read_bytes() == b"%PDF-1.4 long"
        assert "truncated overlong name" in record.sanitizations

    def test_body_over_the_cap_is_refused_and_removed(self, http_server, runtime, tmp_path,
                                                      monkeypatch):
        monkeypatch.setattr(ingest, "MAX_BODY", 16)
        fits = http_server.add("/cap/fits.bin", b"x" * 16)
        assert fetch(fits, tmp_path / "a", runtime.store).body_path.read_bytes() == b"x" * 16
        over = http_server.add("/cap/over.bin", b"x" * 17)
        with pytest.raises(NetworkError, match="exceeds 16 bytes"):
            fetch(over, tmp_path / "b", runtime.store)
        assert list((tmp_path / "b").iterdir()) == []

    def test_body_appears_already_stamped(self, http_server, runtime, tmp_path, monkeypatch):
        url = http_server.add("/stamp/first.pdf", b"%PDF-1.4 stamped")
        replace = os.replace
        origins = []

        def replace_after_reading_origin(src, dst):
            origins.append(runtime.store.get(src, ORIGIN_KEY))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", replace_after_reading_origin)
        record = fetch(url, tmp_path, runtime.store)
        assert origins == [url.encode()]
        assert runtime.store.get(record.body_path, ORIGIN_KEY) == url.encode()

    def test_failed_stamp_leaves_no_file(self, http_server, runtime, tmp_path):
        class RefusingStore(AttributeStore):
            def set(self, path, key, value):
                raise OSError(errno.ENOTSUP, "attributes refused")

        url = http_server.add("/stamp/refused.pdf", b"%PDF-1.4 refused")
        with pytest.raises(OSError, match="attributes refused"):
            fetch(url, tmp_path, RefusingStore())
        assert list(tmp_path.iterdir()) == []

    def test_raw_non_ascii_url_is_percent_encoded(self, http_server, runtime, tmp_path):
        http_server.add("/iri/%C3%A9t%C3%A9.pdf?q=%C3%A9%20x", b"%PDF-1.4 iri")
        url = http_server.url("/iri/\u00e9t\u00e9.pdf?q=\u00e9 x")
        record = fetch(url, tmp_path, runtime.store)
        assert record.url == url
        assert record.body_path.name == "\u00e9t\u00e9.pdf"
        assert record.body_path.read_bytes() == b"%PDF-1.4 iri"


class TestFilenameSanitizer:
    def test_traversal_segments_neutralized(self):
        name, _ = sanitize_url_filename("http://x.example/a/../../../etc/passwd")
        assert name == "passwd"

    def test_encoded_traversal_neutralized(self):
        name, notes = sanitize_url_filename("http://x.example/f%2F..%2F..%2Fetc%2Fshadow")
        assert "/" not in name and "\\" not in name
        assert name == "shadow"
        assert notes

    def test_dot_dot_replaced(self):
        name, _ = sanitize_url_filename("http://x.example/%2e%2e")
        assert name == "download"

    @pytest.mark.parametrize("char", ["a", "\u00e9", "\u20ac", "\U0001f600"])
    def test_overlong_name_capped_in_bytes(self, char):
        name, notes = sanitize_url_filename("http://x.example/" + char * 300)
        encoded = name.encode("utf-8")
        assert 255 - len(char.encode("utf-8")) < len(encoded) <= 255
        assert name == char * len(name)
        assert "truncated overlong name" in notes

    def test_empty_segment_replaced(self):
        name, _ = sanitize_url_filename("http://x.example/dir/")
        assert name == "download"

    @given(st.text(min_size=0, max_size=60))
    def test_never_escapes_destination(self, tail):
        from urllib.parse import quote

        url = "http://x.example/" + quote(tail, safe="/%")
        name, _ = sanitize_url_filename(url)
        assert name
        assert "/" not in name and "\\" not in name
        assert name not in (".", "..")
        assert all(ord(c) >= 0x20 for c in name)

    def test_fetch_never_writes_outside_dest(self, http_server, runtime, tmp_path):
        hostile = [
            "/dl/..%2f..%2fescape.bin",
            "/dl/%2e%2e%2f%2e%2e%2fother.bin",
            "/dl/name%5c..%5cwin.bin",
        ]
        dest = tmp_path / "inbox"
        for i, path in enumerate(hostile):
            http_server.add(path, b"payload")
            record = fetch(http_server.url(path), dest, runtime.store)
            assert record.body_path.parent == dest
        assert all(p.parent == dest for p in dest.iterdir())


class TestDeclaredMime:
    @staticmethod
    def record(content_type: str) -> FetchRecord:
        return FetchRecord(url="http://h/f", final_url="http://h/f", status=200,
                           headers={"Content-Type": content_type},
                           body_path=Path("f"), fetched_at=0)

    def test_malformed_header_reads_as_absent(self):
        assert ingest.declared_mime(self.record("pdf")) is None

    def test_fault_in_parsing_propagates(self, monkeypatch):
        def broken(text):
            raise RuntimeError("parser fault")

        monkeypatch.setattr(ingest, "parse_mime_type", broken)
        with pytest.raises(RuntimeError, match="parser fault"):
            ingest.declared_mime(self.record("application/pdf"))


class TestAssess:
    def test_matching_pdf_allows(self, http_server, runtime, tmp_path):
        url = http_server.add(
            "/ok/report.pdf", b"%PDF-1.5 body",
            headers=[("Content-Type", "application/pdf")],
        )
        record = fetch(url, tmp_path, runtime.store)
        _, report, decision = assess_record(record, runtime, now=50)
        assert not report.discrepancies
        assert decision.verdict is Verdict.ALLOW

    def test_ingest_view_recorded(self, http_server, runtime, tmp_path):
        url = http_server.add(
            "/ok/view.pdf", b"%PDF-1.5 body",
            headers=[("Content-Type", "application/pdf")],
        )
        record = fetch(url, tmp_path, runtime.store)
        assess_record(record, runtime, now=50)
        views = read_views(runtime.store, record.body_path)
        assert [fv.view.app_id for fv in views] == [INGEST_APP_ID]
        assert views[0].view.mime.format() == "application/pdf"
        assert views[0].stale is False

    def test_ingest_view_binds_the_assessed_bytes(self, http_server, runtime, tmp_path,
                                                  monkeypatch):
        body = b"%PDF-1.5 assessed"
        url = http_server.add("/ok/bound.pdf", body,
                              headers=[("Content-Type", "application/pdf")])
        record = fetch(url, tmp_path, runtime.store)

        def build_then_rewrite(*args, **kwargs):
            result = build_evidence(*args, **kwargs)
            record.body_path.write_bytes(b"<script>swapped()</script>")
            return result

        monkeypatch.setattr(ingest, "build_evidence", build_then_rewrite)
        assess_record(record, runtime, now=55)
        (view,) = [fv.view for fv in read_views(runtime.store, record.body_path)]
        assert view.content_hash == hashlib.sha256(body).digest()

    def test_ingest_view_binds_the_body_on_either_backend(self, http_server, runtime,
                                                          backend):
        # a fresh download carries provenance only, so nothing else asks for
        # its digest; the ingest view still needs it
        body = b"%PDF-1.5 fetched onto " + backend.name.encode()
        url = http_server.add(f"/either/{backend.name}.pdf", body,
                              headers=[("Content-Type", "application/pdf")])
        record = fetch(url, backend.workdir / "downloads", backend.store)
        evidence, _, _ = assess_record(record, runtime._replace(store=backend.store), now=56)
        assert evidence.content_hash == hashlib.sha256(body).digest()
        (flagged,) = read_views(backend.store, record.body_path)
        assert flagged.view.app_id == INGEST_APP_ID
        assert flagged.view.content_hash == hashlib.sha256(body).digest()
        assert flagged.stale is False

    def test_motivating_shape_zip_as_pdf_extensionless(self, http_server, runtime, tmp_path):
        url = http_server.add(
            "/attach/report", zip_with_script(),
            headers=[("Content-Type", "application/pdf"),
                     ("Content-Disposition", "attachment")],
        )
        record = fetch(url, tmp_path, runtime.store)
        _, report, decision = assess_record(record, runtime, now=60)
        kinds = {d.kind for d in report.discrepancies}
        assert DiscrepancyKind.DECLARED_SNIFF_MISMATCH in kinds
        assert decision.verdict is not Verdict.ALLOW

    def test_polyglot_surfaced_end_to_end(self, http_server, runtime, tmp_path, corpus):
        name, data = corpus["gif-script"]
        url = http_server.add(f"/poly/{name}", data,
                              headers=[("Content-Type", "image/gif")])
        record = fetch(url, tmp_path, runtime.store)
        # oracle: direct evaluation over the same content must agree
        direct = evaluate(
            build_evidence(runtime, record.body_path), runtime.active
        )
        assert any(d.kind is DiscrepancyKind.POLYGLOT for d in direct.discrepancies)
        _, report, _ = assess_record(record, runtime, now=70)
        assert any(d.kind is DiscrepancyKind.POLYGLOT for d in report.discrepancies)

    def test_nosniff_suppresses_sniff_evidence(self, http_server, runtime, tmp_path):
        url = http_server.add(
            "/ns/archive", zip_with_script(),
            headers=[("Content-Type", "application/pdf"),
                     ("X-Content-Type-Options", "nosniff")],
        )
        record = fetch(url, tmp_path, runtime.store)
        _, report, _ = assess_record(record, runtime, now=80)
        kinds = {d.kind for d in report.discrepancies}
        assert DiscrepancyKind.DECLARED_SNIFF_MISMATCH not in kinds
        assert DiscrepancyKind.POLYGLOT not in kinds
        assert report.resolved_mime.format() == "application/pdf"

    def test_assess_equals_unit_composition(self, http_server, runtime, tmp_path):
        from contentoracle.mime_db import parse_mime_type

        url = http_server.add(
            "/eq/data.zip", zip_with_script(),
            headers=[("Content-Type", "application/pdf")],
        )
        record = fetch(url, tmp_path, runtime.store)
        # independently constructed evidence, before assess records its view
        evidence = build_evidence(runtime, record.body_path)._replace(
            declared_mime=parse_mime_type("application/pdf"))
        expected_report = evaluate(evidence, runtime.active)
        expected_decision = decide(
            expected_report,
            trust=get_trust(runtime.store, record.body_path),
            handler=None,
            policy=policy_from(runtime.store.read(record.body_path, (POLICY_KEY,))),
        )
        got_evidence, got_report, got_decision = assess_record(record, runtime, now=90)
        assert got_evidence == evidence
        assert got_report == expected_report
        assert got_decision == expected_decision
