"""Tests for MIME parsing, classification, and extension maps."""

from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from contentoracle.errors import MalformedMime
from contentoracle.mime_db import (
    ExtensionMap,
    IANA_FAMILIES,
    MimeType,
    RegistrationClass,
    classify_registration,
    db_stats,
    load_extension_map,
    parse_mime_type,
)


class TestParse:
    def test_server_copy_example(self):
        m = parse_mime_type("application/zip")
        assert m.family == "application"
        assert m.subtype == "zip"
        assert m.parameters == ()

    def test_case_folding_and_params(self):
        m = parse_mime_type("TEXT/HTML; charset=utf-8")
        assert (m.family, m.subtype) == ("text", "html")
        assert m.parameters == (("charset", "utf-8"),)

    def test_missing_separator(self):
        with pytest.raises(MalformedMime):
            parse_mime_type("notamime")

    @pytest.mark.parametrize("bad", [
        "", "/", "text/", "/html", "te xt/html", "text/ht ml",
        "text;html", "text/html; charset", "text/html; =utf-8",
        "text/html; na me=utf-8", "text/htmél",
    ])
    def test_malformed_inputs(self, bad):
        with pytest.raises(MalformedMime):
            parse_mime_type(bad)

    def test_whitespace_trimmed(self):
        assert parse_mime_type("  image/png \n") == MimeType("image", "png")

    def test_parameter_order_preserved(self):
        m = parse_mime_type("a/b; z=1; a=2; m=3")
        assert [name for name, _ in m.parameters] == ["z", "a", "m"]

    def test_trailing_semicolon_tolerated(self):
        assert parse_mime_type("text/html;") == MimeType("text", "html")

    def test_param_names_compare_case_insensitively(self):
        assert parse_mime_type("a/b; Charset=utf-8") == parse_mime_type("a/b; charset=utf-8")
        # ... but values compare case-sensitively
        assert parse_mime_type("a/b; charset=UTF-8") != parse_mime_type("a/b; charset=utf-8")


_token = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789!#$%&'*+-.^_`|~",
    min_size=1, max_size=12,
)
_value = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789-._ ", min_size=0, max_size=12,
).map(str.strip)


@given(family=_token, subtype=_token,
       params=st.lists(st.tuples(_token, _value), max_size=3))
def test_round_trip_property(family, subtype, params):
    text = f"{family}/{subtype}" + "".join(f"; {n}={v}" for n, v in params)
    parsed = parse_mime_type(text)
    assert parse_mime_type(parsed.format()) == parsed
    # formatting is a fixed point after one parse
    assert parse_mime_type(parsed.format()).format() == parsed.format()


class TestClassification:
    def test_official(self):
        assert classify_registration(parse_mime_type("image/png")) is RegistrationClass.OFFICIAL_FAMILY

    def test_unofficial_subtype(self):
        assert classify_registration(parse_mime_type("application/x-zip")) is \
            RegistrationClass.UNOFFICIAL_SUBTYPE

    def test_unknown_family(self):
        assert classify_registration(parse_mime_type("chemical/x-pdb")) is \
            RegistrationClass.UNKNOWN_FAMILY

    def test_vendor_prefixes_are_official(self):
        assert classify_registration(parse_mime_type("application/vnd.rar")) is \
            RegistrationClass.OFFICIAL_FAMILY
        assert classify_registration(parse_mime_type("application/x.custom")) is \
            RegistrationClass.OFFICIAL_FAMILY

    def test_nine_families(self):
        assert IANA_FAMILIES == {
            "application", "audio", "font", "image", "message",
            "model", "multipart", "text", "video",
        }

    @given(family=_token, subtype=_token)
    def test_total_and_single_valued(self, family, subtype):
        m = parse_mime_type(f"{family}/{subtype}")
        assert classify_registration(m) in RegistrationClass


TEN_LINE_FIXTURE = """\
# snapshot fragment
application/pdf pdf
image/jpeg jpeg jpg

image/png png
text/plain txt text
application/x-zip zip
application/zip zip
badline/
chemical/x-pdb pdb
"""


class TestExtensionMap:
    def test_single_entry(self):
        ext_map, errors = load_extension_map("application/pdf pdf")
        assert errors == []
        assert ext_map.lookup("pdf") == (parse_mime_type("application/pdf"),)

    def test_hand_computed_fixture(self):
        ext_map, errors = load_extension_map(TEN_LINE_FIXTURE)
        expected = {
            "pdf": ("application/pdf",),
            "jpeg": ("image/jpeg",),
            "jpg": ("image/jpeg",),
            "png": ("image/png",),
            "txt": ("text/plain",),
            "text": ("text/plain",),
            "zip": ("application/x-zip", "application/zip"),
            "pdb": ("chemical/x-pdb",),
        }
        assert {k: tuple(m.format() for m in v) for k, v in ext_map.entries.items()} == expected
        assert [e.line_no for e in errors] == [9]  # the badline/ entry

    def test_comment_then_entries(self):
        ext_map, _ = load_extension_map("# comment\nimage/jpeg jpeg jpg")
        jpeg = parse_mime_type("image/jpeg")
        assert ext_map.lookup("jpg") == (jpeg,)
        assert ext_map.lookup("jpeg") == (jpeg,)

    def test_malformed_line_recorded_and_skipped(self):
        ext_map, errors = load_extension_map("badline/ ")
        assert len(errors) == 1
        assert errors[0].line_no == 1
        assert ext_map.entries == {}

    def test_lookup_case_insensitive(self):
        ext_map, _ = load_extension_map("application/pdf PDF")
        assert ext_map.primary("Pdf").format() == "application/pdf"

    def test_append_never_overwrites(self):
        ext_map, _ = load_extension_map("application/x-zip zip\napplication/zip zip")
        assert [m.format() for m in ext_map.lookup("zip")] == [
            "application/x-zip", "application/zip",
        ]
        assert ext_map.primary("zip").format() == "application/x-zip"

    def test_zero_extension_line_registers_type(self):
        ext_map, _ = load_extension_map("inode/directory")
        inode = parse_mime_type("inode/directory")
        assert inode in ext_map.types()
        assert ext_map.extensions_for(inode) == ()

    def test_reverse_index_consistency(self):
        ext_map, _ = load_extension_map(TEN_LINE_FIXTURE)
        for ext, types in ext_map.entries.items():
            for mime in types:
                assert ext in ext_map.extensions_for(mime)
        for mime, exts in ext_map.reverse.items():
            for ext in exts:
                assert mime in ext_map.lookup(ext)


class TestDbStats:
    def test_empty_map(self):
        assert db_stats(ExtensionMap()) == {}

    def test_two_entry_case(self):
        ext_map, _ = load_extension_map("image/png png\nchemical/x-pdb pdb")
        stats = db_stats(ext_map)
        assert stats["image"].official == 1
        assert stats["image"].unofficial_subtype == 0
        assert stats["image"].unknown_family == 0
        assert stats["chemical"].unknown_family == 1
        assert stats["chemical"].official == 0

    def test_totals_partition_distinct_types(self):
        ext_map, _ = load_extension_map(TEN_LINE_FIXTURE)
        stats = db_stats(ext_map)
        assert sum(s.total for s in stats.values()) == len(ext_map.types())
