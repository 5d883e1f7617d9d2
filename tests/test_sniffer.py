"""Tests for signature loading, matching, the text heuristic, and polyglots."""

from __future__ import annotations

import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from contentoracle.config import Config
from contentoracle.errors import DuplicateName, MalformedSignature
from contentoracle.mime_db import MimeType
from contentoracle.sniffer import (
    PRIMARY_WINDOW,
    Candidate,
    Signature,
    SignatureDb,
    SniffReport,
    SniffScan,
    TEXT_PROBE,
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

    def test_bad_weight_rejected(self):
        with pytest.raises(MalformedSignature, match="bad weight 'x'"):
            load_signatures("x | image/gif | 0 | 47 | - | x | 0")

    def test_empty_name_rejected(self):
        with pytest.raises(MalformedSignature):
            Signature("", MimeType("image", "gif"), 0, b"G")

    def test_explicit_weight_override(self):
        db = load_signatures("x | image/gif | 0 | 47 | - | 99 | 0")
        assert db.signatures[0].weight == 99

    def test_fault_in_mime_parsing_is_not_a_malformed_line(self, monkeypatch):
        from contentoracle import sniffer

        def broken(text):
            raise RuntimeError("parser fault")

        monkeypatch.setattr(sniffer, "parse_mime_type", broken)
        with pytest.raises(RuntimeError, match="parser fault"):
            load_signatures(GIF_LINE)


def reference_is_text(data: bytes) -> bool:
    """The per-byte reading that :func:`is_text` replaced: a byte counts as
    text if it is printable ASCII, tab, LF or CR, or starts a 2-, 3- or
    4-byte sequence that decodes to one character; otherwise skip it."""
    head = data[:TEXT_PROBE]
    if not head:
        return True
    if 0 in head:
        return False
    printable = 0
    i = 0
    n = len(head)
    while i < n:
        b = head[i]
        if 0x20 <= b <= 0x7E or b in (0x09, 0x0A, 0x0D):
            printable += 1
            i += 1
            continue
        consumed = 0
        for width in (2, 3, 4):
            chunk = head[i:i + width]
            if len(chunk) < width:
                break
            try:
                decoded = chunk.decode("utf-8")
            except UnicodeDecodeError:
                continue
            if len(decoded) == 1:
                consumed = width
                break
        if consumed:
            printable += consumed
            i += consumed
        else:
            i += 1
    return printable * 20 >= n * 19


#: Text pieces and the byte sequences UTF-8 rejects: controls and DEL,
#: truncated and overlong sequences, encoded surrogates, a code point
#: above U+10FFFF, and lone lead and continuation bytes.
_TEXT_PIECES = [b"a", b" ", b"\t", b"\n", b"\r", b"~", b"\x01", b"\x1f", b"\x7f", b"\x00",
                "é".encode(), "—".encode(), "😀".encode(), "\u0080".encode(),
                "\uffff".encode(), b"\xc3", b"\xe2\x80", b"\xf0\x9f\x98", b"\xc0\xaf", b"\xc1\xbf",
                b"\xe0\x80\xaf", b"\xf0\x80\x80\xaf", b"\xed\xa0\x80", b"\xed\xbf\xbf",
                b"\xf4\x90\x80\x80", b"\xf5\x80", b"\x80", b"\xbf", b"\xfe", b"\xff"]

#: ASCII filler that puts the pieces around the end of the probe, then
#: pieces enough to land the share of junk near the 95% bar.
_text_like = st.one_of(
    st.tuples(
        st.integers(TEXT_PROBE - 400, TEXT_PROBE + 4),
        st.lists(st.one_of(st.sampled_from(_TEXT_PIECES),
                           st.characters(codec="utf-8").map(str.encode)), max_size=200),
    ).map(lambda t: b"a" * t[0] + b"".join(t[1])),
    st.lists(st.sampled_from(_TEXT_PIECES), max_size=60).map(b"".join),
)


class TestIsText:
    @settings(max_examples=300)
    @given(data=_text_like)
    def test_matches_per_byte_reference(self, data):
        assert is_text(data) is reference_is_text(data)

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
    elif reference_is_text(data):
        text_fallback = TextVerdict.LOOKS_TEXT
    else:
        text_fallback = TextVerdict.LOOKS_BINARY
    bytes_examined = len(data) if any_polyglot_pass else min(len(data), PRIMARY_WINDOW)
    return SniffReport(candidates, is_polyglot, text_fallback, bytes_examined)


#: Prefix-overlapping patterns (<html, <html5, and < alone), one pattern
#: shared by two signatures (html and twin), a masked polyglot signature
#: (<s in either case), a lone first byte (eval), a lone pattern of regex
#: metacharacters, newline and NUL that starts with the filler byte (meta),
#: one whose declared offset leaves room for an earlier match (late), and
#: header-only ones.
OVERLAP_DB = load_signatures("\n".join([
    "html   | text/html             | 0    | 3c68746d6c   | -    | - | 1",
    "html5  | application/xhtml+xml | 0    | 3c68746d6c35 | -    | - | 1",
    "twin   | text/x-twin           | 4    | 3c68746d6c   | -    | - | 1",
    "tag    | text/x-tag            | 0    | 3c           | -    | 1 | 1",
    "masked | text/x-masked         | 0    | 3c53         | ffdf | - | 1",
    "lone   | text/x-lone           | 2    | 6576616c28   | -    | - | 1",
    "meta   | text/x-meta           | 0    | 2e2a0a5b00   | -    | - | 1",
    "late   | text/x-late           | 6    | 5858         | -    | - | 1",
    "gif    | image/gif             | 0    | 474946       | -    | - | 0",
    "deep   | image/png             | 9000 | 5858         | -    | - | 0",
]))

_FRAGMENTS = [b"<", b"<h", b"<html", b"<html5", b"<HTML", b"<s", b"<S", b"<script",
              b"<?php", b"<!DOCTYPE html", b"eval(", b"eva", b"PK\x03\x04", b"%PDF-",
              b"#!/", b"\x7fELF", b"GIF", b"XX", b".*\n[\x00", b".*\n", b".*", b"*\n[\x00", b"a",
              b" ", b"\n", b"\x00", b"\xff"]

_dense = st.lists(st.sampled_from(_FRAGMENTS), max_size=40).map(b"".join)

#: Every polyglot first byte of the bundled database and of OVERLAP_DB
#: mapped to NUL, as the benchmark corpus's filler does: in such bytes the
#: scan's first-byte lookup finds nothing.
_FIRST_BYTES = bytes({
    sig.pattern[0]
    for db in (OVERLAP_DB, load_signatures(Config().magic_path.read_text("utf-8")))
    for sig in db if sig.polyglot_relevant
})
_NO_FIRST_BYTE = bytes.maketrans(_FIRST_BYTES, b"\x00" * len(_FIRST_BYTES))

#: Pattern-dense text on both sides of a filler that can push the second
#: part past the primary window, arbitrary bytes, or runs of bytes without
#: a polyglot first byte with pattern-dense text between them.
_content = st.one_of(
    st.tuples(_dense, st.integers(0, 2 * PRIMARY_WINDOW), st.sampled_from([b".", b"\x00"]), _dense)
    .map(lambda t: t[0] + t[2] * t[1] + t[3]),
    st.binary(max_size=3 * PRIMARY_WINDOW),
    st.lists(st.one_of(st.binary(max_size=PRIMARY_WINDOW).map(lambda b: b.translate(_NO_FIRST_BYTE)),
                       _dense), max_size=6).map(b"".join),
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


#: Header signatures whose first pattern byte is masked, so each is indexed
#: under every byte that first byte matches: 0x3c/0x1c, any byte, and
#: 0x10-0x1f at a later offset.
MASKED_FIRST_DB = load_signatures("\n".join([
    "tagcase | text/x-tagcase | 0 | 3c53 | dfdf     | - | 0",
    "any     | text/x-any     | 0 | 00ff | 00ff     | - | 0",
    "nibble  | text/x-nibble  | 4 | 1a2b3c | f0ffff | - | 0",
    "plain   | image/gif      | 0 | 474946 | -      | - | 0",
]))


@st.composite
def _heads(draw, db: SignatureDb) -> bytes:
    """Content whose bytes at one signature's offset start like its pattern:
    the whole pattern or a prefix of it, with the bits its mask ignores set
    at random, and maybe one byte changed (a near miss), then arbitrary
    bytes."""
    sig = draw(st.sampled_from(db.signatures))
    start = draw(st.binary(min_size=sig.offset, max_size=sig.offset))
    pattern = bytearray(sig.pattern[:draw(st.integers(1, len(sig.pattern)))])
    if sig.mask is not None:
        noise = draw(st.binary(min_size=len(pattern), max_size=len(pattern)))
        pattern = bytearray(p & m | n & ~m for p, m, n in zip(pattern, sig.mask, noise))
    if draw(st.booleans()):
        pattern[draw(st.integers(0, len(pattern) - 1))] = draw(st.integers(0, 255))
    return start + bytes(pattern) + draw(st.binary(max_size=64))


class TestHeaderIndex:
    @given(data=st.data())
    def test_bundled_db_matches_reference(self, runtime, data):
        head = data.draw(_heads(runtime.sig_db))
        assert sniff(head, runtime.sig_db) == reference_sniff(head, runtime.sig_db)

    @given(data=st.data())
    def test_masked_first_byte_matches_reference(self, data):
        db = data.draw(st.sampled_from([MASKED_FIRST_DB, OVERLAP_DB]))
        head = data.draw(_heads(db))
        assert sniff(head, db) == reference_sniff(head, db)

    def test_masked_first_byte_is_indexed_under_each_byte_it_matches(self):
        for head, name in [(b"<s", "tagcase"), (b"\x1cS", "tagcase"), (b"\x7f\xff", "any"),
                           (b"....\x1f\x2b\x3c", "nibble")]:
            assert name in {c.signature for c in sniff(head, MASKED_FIRST_DB).candidates}
