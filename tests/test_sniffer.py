"""Tests for signature loading, matching, the text heuristic, and polyglots."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from contentoracle.errors import DuplicateName, MalformedSignature
from contentoracle.mime_db import MimeType
from contentoracle.sniffer import (
    PRIMARY_WINDOW,
    Candidate,
    Signature,
    SignatureDb,
    SniffReport,
    SniffScan,
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
        assert sniff(b"RIFF\n\n\n\nWAVEdata", db).top is not None
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


def _reference_equal(data: bytes, start: int, pattern: bytes, mask: bytes | None) -> bool:
    end = start + len(pattern)
    if start < 0 or end > len(data):
        return False
    if mask is None:
        return data[start:end] == pattern
    segment = data[start:end]
    return all((segment[i] & mask[i]) == (pattern[i] & mask[i]) for i in range(len(pattern)))


def _reference_find(data: bytes, pattern: bytes, mask: bytes | None) -> int:
    if mask is None:
        return data.find(pattern)
    for i in range(len(data) - len(pattern) + 1):
        if _reference_equal(data, i, pattern, mask):
            return i
    return -1


def reference_sniff(data: bytes, db: SignatureDb) -> SniffReport:
    """The whole-buffer algorithm the streamed scan replaced: every
    signature checked at its offset in the window, then one full-content
    search per polyglot signature, keeping the earliest position."""
    found: dict[str, tuple[Signature, int]] = {}
    for sig in db:
        end = sig.offset + len(sig.pattern)
        if end <= PRIMARY_WINDOW and _reference_equal(data, sig.offset, sig.pattern, sig.mask):
            found[sig.name] = (sig, sig.offset)
    any_polyglot_pass = False
    for sig in db:
        if not sig.polyglot_relevant:
            continue
        any_polyglot_pass = True
        pos = _reference_find(data, sig.pattern, sig.mask)
        if pos < 0:
            continue
        if sig.name in found:
            prev_sig, prev_pos = found[sig.name]
            found[sig.name] = (prev_sig, min(prev_pos, pos))
        else:
            found[sig.name] = (sig, pos)
    candidates = tuple(
        Candidate(sig.mime, sig.name, sig.weight, pos)
        for sig, pos in sorted(
            found.values(), key=lambda item: (-item[0].weight, item[1], item[0].name)
        )
    )
    is_polyglot = len({c.mime.key for c in candidates}) >= 2
    if candidates:
        text_fallback = TextVerdict.NOT_APPLIED
    else:
        text_fallback = TextVerdict.LOOKS_TEXT if is_text(data) else TextVerdict.LOOKS_BINARY
    bytes_examined = len(data) if any_polyglot_pass else min(len(data), PRIMARY_WINDOW)
    return SniffReport(candidates, is_polyglot, text_fallback, bytes_examined)


#: Prefix-overlapping patterns (<html, <html5, and < alone), one pattern
#: shared by two signatures (html and twin), a masked polyglot signature
#: (<s in either case), a lone first byte (eval), one whose declared
#: offset leaves room for an earlier match (late), and header-only ones.
OVERLAP_DB = load_signatures("\n".join([
    "html   | text/html             | 0    | 3c68746d6c   | -    | - | 1",
    "html5  | application/xhtml+xml | 0    | 3c68746d6c35 | -    | - | 1",
    "twin   | text/x-twin           | 4    | 3c68746d6c   | -    | - | 1",
    "tag    | text/x-tag            | 0    | 3c           | -    | 1 | 1",
    "masked | text/x-masked         | 0    | 3c53         | ffdf | - | 1",
    "lone   | text/x-lone           | 2    | 6576616c28   | -    | - | 1",
    "late   | text/x-late           | 6    | 5858         | -    | - | 1",
    "gif    | image/gif             | 0    | 474946       | -    | - | 0",
    "deep   | image/png             | 9000 | 5858         | -    | - | 0",
]))

_FRAGMENTS = [b"<", b"<h", b"<html", b"<html5", b"<HTML", b"<s", b"<S", b"<script",
              b"<?php", b"<!DOCTYPE html", b"eval(", b"eva", b"PK\x03\x04", b"%PDF-",
              b"#!/", b"\x7fELF", b"GIF", b"XX", b"a", b" ", b"\n", b"\x00", b"\xff"]

_dense = st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map(b"".join)

#: Pattern-dense text on both sides of a filler that can push the second
#: part past the primary window, or arbitrary bytes.
_content = st.one_of(
    st.tuples(_dense, st.integers(0, 2 * PRIMARY_WINDOW), st.sampled_from([b".", b"\x00"]), _dense)
    .map(lambda t: t[0] + t[2] * t[1] + t[3]),
    st.binary(max_size=3 * PRIMARY_WINDOW),
)


def _chunks(data: bytes, sizes: list[int]) -> list[bytes]:
    out, pos = [], 0
    for size in sizes:
        out.append(data[pos:pos + size])
        pos += size
    out.append(data[pos:])
    return out


def _scan(data: bytes, db: SignatureDb, sizes: list[int]) -> SniffReport:
    scan = SniffScan(db)
    for chunk in _chunks(data, sizes):
        scan.feed(chunk)
    return scan.report()


_sizes = st.lists(st.integers(0, 3 * PRIMARY_WINDOW // 2), max_size=12)


class TestStreamedScan:
    @given(data=_content, sizes=_sizes)
    def test_bundled_db_matches_reference(self, runtime, data, sizes):
        expected = reference_sniff(data, runtime.sig_db)
        assert sniff(data, runtime.sig_db) == expected
        assert _scan(data, runtime.sig_db, sizes) == expected

    @settings(max_examples=60, deadline=None)
    @given(data=_content, sizes=_sizes)
    def test_overlapping_db_matches_reference(self, data, sizes):
        expected = reference_sniff(data, OVERLAP_DB)
        assert sniff(data, OVERLAP_DB) == expected
        assert _scan(data, OVERLAP_DB, sizes) == expected

    @given(before=st.integers(0, 40), cut=st.integers(1, 14))
    def test_match_straddling_a_chunk_edge(self, runtime, before, cut):
        pattern = b"<!DOCTYPE html"
        data = b"GIF89a" + b"." * (PRIMARY_WINDOW + before) + pattern + b"."
        edge = 6 + PRIMARY_WINDOW + before + cut
        report = _scan(data, runtime.sig_db, [edge])
        assert report == reference_sniff(data, runtime.sig_db)
        offsets = {c.signature: c.offset for c in report.candidates}
        assert offsets["doctype-html"] == 6 + PRIMARY_WINDOW + before

    def test_prefix_pattern_keeps_its_earliest_offset(self):
        data = b"<html5" + b"." * PRIMARY_WINDOW + b"<html5 <html"
        offsets = {c.signature: c.offset for c in sniff(data, OVERLAP_DB).candidates}
        assert offsets["html5"] == 0 and offsets["html"] == 0
        data = b"...<html5 <html"
        offsets = {c.signature: c.offset for c in sniff(data, OVERLAP_DB).candidates}
        assert offsets["html5"] == 3 and offsets["html"] == 3 and offsets["tag"] == 3

    def test_shared_pattern_credits_both_signatures(self):
        data = b"..." + b"." * PRIMARY_WINDOW + b"<html>"
        offsets = {c.signature: c.offset for c in sniff(data, OVERLAP_DB).candidates}
        assert offsets["html"] == offsets["twin"] == 3 + PRIMARY_WINDOW

    def test_offset_zero_match_is_kept_and_others_still_searched(self):
        data = b"<html" + b"." * PRIMARY_WINDOW + b"<s"
        report = sniff(data, OVERLAP_DB)
        offsets = {c.signature: c.offset for c in report.candidates}
        assert offsets["html"] == 0 and offsets["twin"] == 0
        assert offsets["masked"] == 5 + PRIMARY_WINDOW
        assert report == reference_sniff(data, OVERLAP_DB)

    def test_match_at_a_later_declared_offset_is_still_searched(self):
        offsets = {c.signature: c.offset for c in sniff(b"XX....XX", OVERLAP_DB).candidates}
        assert offsets["late"] == 0

    def test_masked_search_within_budget(self):
        db = _db("masked | text/x-masked | 0 | 3c53 | ffdf | - | 1")
        data = b"<a <b " * ((4 << 20) // 6) + b"<s"
        start = time.perf_counter()
        report = sniff(data, db)
        assert time.perf_counter() - start < 2.0
        assert [(c.signature, c.offset) for c in report.candidates] == \
            [("masked", len(data) - 2)]
