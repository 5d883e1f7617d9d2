"""Tests for signature loading, matching, the text heuristic, and polyglots."""

from __future__ import annotations

import random

import pytest

from contentoracle.errors import DuplicateName, MalformedSignature
from contentoracle.mime_db import MimeType
from contentoracle.sniffer import (
    PRIMARY_WINDOW,
    Signature,
    SignatureDb,
    TextVerdict,
    is_text,
    load_signatures,
    sniff,
)

GIF_LINE = "gif89a | image/gif | 0 | 474946383961 | - | - | 0"


class TestLoadSignatures:
    def test_gif_line(self):
        db = load_signatures(GIF_LINE)
        sig = db.signatures[0]
        assert sig is not None
        assert sig.mime == MimeType("image", "gif")
        assert sig.offset == 0
        assert sig.pattern == b"GIF89a"
        assert sig.weight == 6  # defaults to pattern length

    def test_empty_file_gives_empty_db(self):
        db = load_signatures("# only comments\n\n")
        assert len(db) == 0
        report = sniff(b"plain text body", db)
        assert report.candidates == ()
        assert report.text_fallback is TextVerdict.LOOKS_TEXT

    def test_duplicate_name_rejected(self):
        with pytest.raises(DuplicateName):
            load_signatures(GIF_LINE + "\n" + GIF_LINE)

    @pytest.mark.parametrize("line", [
        "short | image/gif | 0 | 4749",               # wrong field count
        "x | image/gif | zero | 47 | - | - | 0",      # bad offset
        "x | image/gif | 0 | 47zz | - | - | 0",       # bad hex
        "x | image/gif | 0 | 47 | dead | - | 0",      # mask length mismatch
        "x | notamime | 0 | 47 | - | - | 0",          # bad mime
        "x | image/gif | 0 | 47 | - | - | 2",         # bad polyglot flag
        "x | image/gif | 0 |  | - | - | 0",           # empty pattern
        "x | image/gif | -1 | 47 | - | - | 0",        # negative offset
    ])
    def test_malformed_lines(self, line):
        with pytest.raises(MalformedSignature):
            load_signatures(line)

    def test_explicit_weight_override(self):
        db = load_signatures("x | image/gif | 0 | 47 | - | 99 | 0")
        assert db.signatures[0].weight == 99


class TestIsText:
    def test_hello_world(self):
        assert is_text(b"hello world\n") is True

    def test_empty_is_vacuously_text(self):
        assert is_text(b"") is True

    def test_nul_byte_rule(self):
        rng = random.Random(7)
        data = bytes(rng.randrange(256) for _ in range(4096))
        if 0 not in data:
            data = data[:100] + b"\x00" + data[101:]
        assert is_text(data) is False

    def test_half_printable_mix(self):
        # direct ratio oracle: 50% printable is far below the 95% bar
        data = b"A\x01" * 2048
        printable = sum(1 for b in data[:4096] if 0x20 <= b <= 0x7E or b in (9, 10, 13))
        assert printable / 4096 == 0.5
        assert is_text(data) is False

    def test_utf8_sequences_count_as_printable(self):
        assert is_text("héllo wörld, and ünïcode — ok\n".encode("utf-8")) is True

    def test_invalid_utf8_is_binary(self):
        assert is_text(b"\xff\xfe" * 2048) is False

    def test_exactly_at_threshold(self):
        # 95% of 4000 = 3800 printable, 200 junk: exactly at the bar
        assert is_text(b"a" * 3800 + b"\x01" * 200) is True
        assert is_text(b"a" * 3799 + b"\x01" * 201) is False

    def test_only_first_window_examined(self):
        assert is_text(b"a" * 4096 + b"\x00" * 100) is True


def _db(*lines: str) -> SignatureDb:
    return load_signatures("\n".join(lines))


class TestSniff:
    def test_gif_fixture(self, runtime):
        report = sniff(b"GIF89a\x10\x00\x10\x00" + bytes(32), runtime.sig_db)
        assert report.top.mime == MimeType("image", "gif")
        assert report.top.signature == "gif89a"
        assert report.is_polyglot is False

    def test_empty_input(self, runtime):
        report = sniff(b"", runtime.sig_db)
        assert report.candidates == ()
        assert report.text_fallback is TextVerdict.LOOKS_TEXT

    def test_gif_js_polyglot(self, runtime, corpus):
        _, data = corpus["gif-script"]
        report = sniff(data, runtime.sig_db)
        assert len(report.candidates) >= 2
        assert MimeType("image", "gif") in {c.mime for c in report.candidates}
        assert report.is_polyglot is True

    def test_whole_corpus_is_polyglot(self, runtime, corpus):
        for name, (_, data) in corpus.items():
            report = sniff(data, runtime.sig_db)
            assert report.is_polyglot, f"{name} not flagged as polyglot"

    def test_mask_semantics(self):
        # byte matches iff (b AND m) == (p AND m); absent mask is all-ones
        db = _db("riff | audio/x-wav | 0 | 524946460000000057415645 | ffffffff00000000ffffffff | - | 0")
        assert sniff(b"RIFF\x12\x34\x56\x78WAVEdata", db).top is not None
        assert sniff(b"RIFF\x12\x34\x56\x78WEBPdata", db).top is None

    def test_candidate_ordering(self):
        db = _db(
            "bb | application/zip | 0 | 504b | - | 9 | 0",
            "aa | image/gif | 0 | 504b | - | 9 | 0",
            "heavy | application/pdf | 2 | 0304 | - | 20 | 0",
        )
        report = sniff(b"PK\x03\x04rest", db)
        keys = [(-c.weight, c.offset, c.signature) for c in report.candidates]
        assert keys == sorted(keys)
        assert [c.signature for c in report.candidates] == ["heavy", "aa", "bb"]

    def test_ordering_is_strict(self, runtime, corpus):
        for _, data in corpus.values():
            keys = [(-c.weight, c.offset, c.signature)
                    for c in sniff(data, runtime.sig_db).candidates]
            assert len(set(keys)) == len(keys)

    def test_pure_function(self, runtime, corpus):
        _, data = corpus["script-in-image-comment"]
        assert sniff(data, runtime.sig_db) == sniff(data, runtime.sig_db)

    def test_polyglot_iff_two_distinct_types(self):
        db = _db(
            "g87 | image/gif | 0 | 474946383761 | - | - | 0",
            "gif-anim | image/gif | 0 | 4749463837 | - | - | 0",
        )
        report = sniff(b"GIF87a...", db)
        assert len(report.candidates) == 2  # same type twice
        assert report.is_polyglot is False

    def test_single_candidate_never_polyglot(self, runtime):
        report = sniff(b"%PDF-1.7 body", runtime.sig_db)
        assert len({c.mime.key for c in report.candidates}) == 1
        assert report.is_polyglot is False

    def test_window_limit_for_non_polyglot_sigs(self):
        # declared-offset matching is confined to the primary window
        db = _db("deep | image/gif | 9000 | 474946 | - | - | 0")
        data = bytes(9000) + b"GIF"
        assert sniff(data, db).candidates == ()

    def test_full_content_pass_for_polyglot_sigs(self, runtime, corpus):
        _, data = corpus["header-after-padding"]
        report = sniff(data, runtime.sig_db)
        offsets = {c.signature: c.offset for c in report.candidates}
        assert offsets["zip"] > PRIMARY_WINDOW
        assert report.bytes_examined == len(data)

    def test_self_consistency_over_bundled_db(self, runtime):
        # brute-force: every signature identifies its own synthesized file
        for sig in runtime.sig_db:
            data = bytearray(sig.offset + len(sig.pattern) + 64)
            data[sig.offset:sig.offset + len(sig.pattern)] = sig.pattern
            report = sniff(bytes(data), runtime.sig_db)
            assert report.top is not None, sig.name
            assert report.top.signature == sig.name

    def test_bundled_db_size(self, runtime):
        assert len(runtime.sig_db) >= 30
        assert len({s.mime.key for s in runtime.sig_db}) >= 30
