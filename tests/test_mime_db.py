"""Tests for MIME parsing, classification, and extension maps."""

from __future__ import annotations

import io
import mimetypes
import unicodedata

import pytest
from hypothesis import given, settings, strategies as st

from contentoracle.browser_model import load_tree
from contentoracle.config import Config
from contentoracle.errors import MalformedMime
from contentoracle.mime_db import (
    ExtensionMap,
    IANA_FAMILIES,
    MimeType,
    RegistrationClass,
    _check_token,
    classify_registration,
    data_lines,
    db_stats,
    load_extension_map,
    parse_mime_type,
)
from contentoracle.policy_engine import load_active_registry
from contentoracle.sniffer import load_signatures


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

    def test_constructor_refuses_uppercase(self):
        with pytest.raises(MalformedMime):
            MimeType("Text", "plain")

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

    def test_inline_comment_ends_the_line_as_in_mimetypes(self):
        source = "text/html html htm # HyperText\ntext/x-c c#x\tcc\t#c"  # "c#x" is no comment
        ext_map, errors = load_extension_map(source)
        reference = mimetypes.MimeTypes()
        reference.types_map = ({}, {})  # without the module's built-in types
        reference.readfp(io.StringIO(source))
        assert errors == []
        assert {f".{ext}": ext_map.primary(ext).format() for ext in ext_map.known_extensions()} \
            == reference.types_map[True] == {".html": "text/html", ".htm": "text/html",
                                             ".c#x": "text/x-c", ".cc": "text/x-c"}

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

    def test_each_line_keeps_its_own_type(self):
        # equal types, spelled with a different parameter-name case
        ext_map, _ = load_extension_map("a/b;charset=x one\na/b;Charset=x two")
        assert ext_map.lookup("two")[0].format() == "a/b; Charset=x"
        assert [m.format() for m in ext_map.types()] == ["a/b; charset=x"]

    def test_zero_extension_line_registers_type(self):
        ext_map, _ = load_extension_map("inode/directory")
        inode = parse_mime_type("inode/directory")
        assert ext_map.types() == {inode}
        assert ext_map.entries == {}

    def test_every_mapped_type_is_listed(self):
        ext_map, _ = load_extension_map(TEN_LINE_FIXTURE)
        for types in ext_map.entries.values():
            assert set(types) <= ext_map.types()


@pytest.mark.parametrize("load,record", [
    (load_extension_map, "image/gif gif"),
    (lambda source: load_signatures(source).signatures, "gif | image/gif | 0 | 474946 | - | - | 0"),
    (load_active_registry, "text/html"),
    (load_tree, "! Render"),
], ids=["mime.types", "signatures", "active.types", "tree"])
def test_every_data_format_skips_the_same_lines(load, record):
    """Blank, whitespace-only and comment lines hold no record in any format."""
    skipped = ["", " \t", "#x", "   # x"]
    loaded = load("\n".join([*skipped, record, *skipped]))
    assert loaded == load(record)
    if load is load_extension_map:
        assert loaded[1] == []


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


# --- the per-character parser and the loader that the present ones replaced


_REFERENCE_TOKEN_CHARS = frozenset(
    "!#$%&'*+-.^_`|~0123456789"
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ"
)


def reference_check_token(token: str, context: str) -> None:
    if not token:
        raise MalformedMime(f"empty token in {context!r}")
    bad = [c for c in token if c not in _REFERENCE_TOKEN_CHARS]
    if bad:
        raise MalformedMime(f"illegal character {bad[0]!r} in {context!r}")


def reference_check_param_value(value: str, context: str) -> None:
    for c in value:
        if c == ";" or not (0x20 <= ord(c) <= 0x7E):
            raise MalformedMime(f"illegal parameter value character {c!r} in {context!r}")


def reference_parse_mime_type(text: str) -> MimeType:
    """Every field checked one character at a time; the record is built
    only from fields that passed."""
    body = text.strip()
    type_part, _, param_part = body.partition(";")
    if "/" not in type_part:
        raise MalformedMime(f"missing '/' separator in {text!r}")
    family, _, subtype = type_part.partition("/")
    params: list[tuple[str, str]] = []
    for segment in param_part.split(";") if param_part else ():
        segment = segment.strip()
        if not segment:
            continue
        if "=" not in segment:
            raise MalformedMime(f"parameter without '=' in {text!r}")
        name, _, value = segment.partition("=")
        params.append((name.strip(), value.strip()))
    family, subtype = family.lower(), subtype.lower()
    try:
        reference_check_token(family, family)
        reference_check_token(subtype, subtype)
        if family != family.lower() or subtype != subtype.lower():
            raise MalformedMime(f"family/subtype must be lowercase: {family}/{subtype}")
        for name, value in params:
            reference_check_token(name, name)
            reference_check_param_value(value, name)
    except MalformedMime as exc:
        raise MalformedMime(f"{exc} (while parsing {text!r})") from None
    return MimeType(family, subtype, tuple(params))


def reference_equality_key(mime: MimeType) -> tuple:
    """What two types compared and hashed by: parameter names lowercased."""
    return (mime.family, mime.subtype,
            tuple((name.lower(), value) for name, value in mime.parameters))


def reference_normalize_extension(ext: str) -> str:
    ext = unicodedata.normalize("NFC", ext.strip())
    if ext.startswith("."):
        ext = ext[1:]
    return ext.lower()


def reference_load_extension_map(source: str):
    """The loader that looked its reverse index up by type once per
    extension token. Of equal types, the reverse index keeps the first as
    its key; each extension's list keeps each line's own type unless an
    equal one is there already. Returns the entries, the reverse index's
    (type, extensions) pairs in order, and the errors as tuples."""
    entries: dict[str, list[MimeType]] = {}
    reverse: dict[tuple, tuple[MimeType, list[str]]] = {}
    errors: list[tuple[int, str, str]] = []
    for line_no, raw in enumerate(source.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split()
        try:
            mime = reference_parse_mime_type(fields[0])
        except MalformedMime as exc:
            errors.append((line_no, raw, str(exc)))
            continue
        key = reference_equality_key(mime)
        reverse.setdefault(key, (mime, []))
        for token in fields[1:]:
            ext = reference_normalize_extension(token)
            if not ext:
                errors.append((line_no, raw, f"empty extension token {token!r}"))
                continue
            bucket = entries.setdefault(ext, [])
            if key not in [reference_equality_key(m) for m in bucket]:
                bucket.append(mime)
            if ext not in reverse[key][1]:
                reverse[key][1].append(ext)
    return entries, list(reverse.values()), errors


def _spelled(mime: MimeType) -> tuple[str, str]:
    # == ignores the case of parameter names; these do not
    return (repr(mime), mime.format())


def _parse_outcome(parse, text: str):
    try:
        return _spelled(parse(text))
    except MalformedMime as exc:
        return ("error", str(exc))


# Small pools, so that lines share types (some only up to the case of a
# parameter name) and extensions.
_type_field = st.one_of(
    st.sampled_from([
        "text/plain", "TEXT/Plain", "a/b;charset=utf-8", "a/b;Charset=utf-8",
        "a/b;x=1;Y=2", "a/b;X=1;y=2",
    ]),
    st.sampled_from([
        "image/png", "application/x-zip", "a/b;CHARSET=utf-8", "a/b;charset=UTF-8",
        "a/b;;x=1;",
        # malformed: no "/", empty or illegal tokens, bad parameters
        "badline", "text/", "/html", "a/b/c", "t\u00e9xt/plain", "text/pl@in",
        "a/b;x", "a/b;=1", "a/b;n\u00e4me=1", "a/b;x=\x7f", "a/b;x=\u00e9",
        # where one compiled match of a plain type could differ from the checks:
        # "$" takes a trailing newline, KELVIN SIGN lower-cases to ASCII "k",
        # U+0130 to "i" and a combining dot
        "text/plain\n;", "text/\u212a", "\u0130/x", "text/ plain", "\u2003text/plain\u00a0",
        "text/plain;", "TEXT/PLAIN",
    ]),
    st.text(alphabet="aB/;=x\u00e9-.@", min_size=1, max_size=8),
)
_extension = st.one_of(
    st.sampled_from([
        "pdf", "PDF", ".pdf", ".", "..", ".Zip", "zip", "caf\u00e9", "cafe\u0301",
        "CAFE\u0301", "\u212b", "\u00c5", "A\u030a", "\ufb01le", "\u0130x", "\u00df",
    ]),
    st.text(alphabet="ab.E\u0301\u00e9\u212b", min_size=1, max_size=5),
)
_blank = st.sampled_from(["", " ", "\t", " \u00a0 "])
_comment = st.builds(lambda lead, text: f"{lead}#{text}",
                     st.sampled_from(["", "  "]), st.text(max_size=10))
_entry = st.builds(
    lambda lead, mime, exts, gap: lead + gap.join([mime, *exts]),
    st.sampled_from(["", " ", "\t"]),
    _type_field,
    st.lists(_extension, max_size=4),
    st.sampled_from([" ", "\t", "  ", "\u00a0"]),
)
_source = st.builds(
    lambda lines, end: end.join(lines),
    st.lists(st.one_of(_entry, _entry, _entry, _blank, _comment), max_size=12),
    st.sampled_from(["\n", "\r\n", "\x85"]),
)


class TestLoaderMatchesReference:
    @settings(max_examples=400)
    @given(source=_source)
    def test_load_extension_map(self, source):
        ext_map, errors = load_extension_map(source)
        entries, reverse, reference_errors = reference_load_extension_map(source)
        assert {ext: [_spelled(m) for m in types] for ext, types in ext_map.entries.items()} \
            == {ext: [_spelled(m) for m in types] for ext, types in entries.items()}
        assert list(ext_map.entries) == list(entries)
        assert {_spelled(m) for m in ext_map.types()} == {_spelled(m) for m, _ in reverse}
        assert [tuple(e) for e in errors] == reference_errors

    @settings(max_examples=400)
    @given(text=st.one_of(_type_field, st.text(max_size=16)))
    def test_parse_mime_type(self, text):
        # load_signatures and load_active_registry parse each type with it
        assert _parse_outcome(parse_mime_type, text) \
            == _parse_outcome(reference_parse_mime_type, text)

    @settings(max_examples=400)
    @given(token=st.text(max_size=12), context=st.text(max_size=4))
    def test_check_token_message(self, token, context):
        def outcome(check):
            try:
                check(token, context)
            except MalformedMime as exc:
                return str(exc)
            return None

        assert outcome(_check_token) == outcome(reference_check_token)


def test_bundled_data_parses_as_the_reference_parses():
    """The data that ships, where the properties above draw from small pools:
    the extension map as the reference loads it, and every type field of the
    signatures and the active types parsed and spelled as the reference does."""
    config = Config()
    source = config.mime_types_path.read_text("utf-8")
    ext_map, errors = load_extension_map(source)
    entries, reverse, reference_errors = reference_load_extension_map(source)
    assert errors == reference_errors == []
    assert {ext: [_spelled(m) for m in types] for ext, types in ext_map.entries.items()} \
        == {ext: [_spelled(m) for m in types] for ext, types in entries.items()}
    assert list(ext_map.entries) == list(entries)
    assert {_spelled(m) for m in ext_map.types()} == {_spelled(m) for m, _ in reverse}
    fields = [line.split("|")[1].strip()
              for _, line in data_lines(config.magic_path.read_text("utf-8"))]
    fields += [line.strip() for _, line in data_lines(config.active_types_path.read_text("utf-8"))]
    assert len(fields) > 50
    for text in fields:
        outcome = _parse_outcome(parse_mime_type, text)
        assert outcome[0] != "error" and outcome == _parse_outcome(reference_parse_mime_type, text)


_small_type = st.builds(
    MimeType,
    st.sampled_from(["text", "application"]),
    st.sampled_from(["html", "x-y"]),
    st.lists(st.tuples(st.sampled_from(["charset", "Charset", "CHARSET", "q", "Q"]),
                       st.sampled_from(["", "1", "UTF-8"])), max_size=2).map(tuple),
)


@given(a=_small_type, b=_small_type)
def test_equal_types_hash_alike(a, b):
    recased = MimeType(a.family, a.subtype, tuple((n.swapcase(), v) for n, v in a.parameters))
    assert recased == a
    assert hash(recased) == hash(a)
    if a == b:
        assert hash(a) == hash(b)
