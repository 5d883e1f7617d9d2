"""MIME type parsing and the extension<->type database.

Everything in here is immutable after construction: loading returns fresh
values, so shared instances are safe for unsynchronized concurrent reads.
"""

from __future__ import annotations

import re
import unicodedata
from collections import Counter, namedtuple
from enum import Enum
from types import MappingProxyType
from typing import KeysView

from .errors import MalformedMime

#: The nine top-level media-type families with official standing.
IANA_FAMILIES = frozenset({
    "application", "audio", "font", "image", "message",
    "model", "multipart", "text", "video",
})

# Token characters for family/subtype/parameter-name fields. Deliberately the
# HTTP tchar set: concrete enough to test against without a full grammar.
_LOWER_TOKEN_STR = "!#$%&'*+-.^_`|~0123456789abcdefghijklmnopqrstuvwxyz"
_TOKEN_STR = _LOWER_TOKEN_STR + "ABCDEFGHIJKLMNOPQRSTUVWXYZ"

# A lower-cased type without parameters that every check passes, decided in
# one C call (fullmatch: "$" would also take a trailing "\n").
_PLAIN_TYPE = re.compile("[{0}]+/[{0}]+".format(re.escape(_LOWER_TOKEN_STR)))

# Parameter-value characters: printable ASCII except the ";" separator.
_VALUE_STR = "".join(chr(c) for c in range(0x20, 0x7F) if c != ord(";"))


# Both checks strip the allowed characters in C: what is left starts with
# the first character that is not allowed.
def _check_token(token: str, context: str) -> None:
    if not token:
        raise MalformedMime(f"empty token in {context!r}")
    bad = token.lstrip(_TOKEN_STR)
    if bad:
        raise MalformedMime(f"illegal character {bad[0]!r} in {context!r}")


def _check_param_value(value: str, context: str) -> None:
    bad = value.lstrip(_VALUE_STR)
    if bad:
        raise MalformedMime(f"illegal parameter value character {bad[0]!r} in {context!r}")


# A record subclasses a collections.namedtuple with __slots__ = (), not a
# typing.NamedTuple, which would compile each field's annotation at import.
# One that validates its fields does so in __new__; _replace and _make skip it.
class MimeType(namedtuple("MimeType", "family subtype parameters")):
    """A parsed media type: family/subtype plus ordered parameters.

    Parameter names compare case-insensitively, values case-sensitively.
    """

    __slots__ = ()

    def __new__(cls, family: str, subtype: str, parameters: tuple[tuple[str, str], ...] = ()):
        _check_token(family, family)
        _check_token(subtype, subtype)
        if family != family.lower() or subtype != subtype.lower():
            raise MalformedMime(f"family/subtype must be lowercase: {family}/{subtype}")
        for name, value in parameters:
            _check_token(name, name)
            _check_param_value(value, name)
        return tuple.__new__(cls, (family, subtype, parameters))

    @property
    def key(self) -> tuple[str, str]:
        """(family, subtype) pair, the identity used when parameters are irrelevant."""
        return (self.family, self.subtype)

    def format(self) -> str:
        parts = [f"{self.family}/{self.subtype}"]
        parts.extend(f"; {name}={value}" for name, value in self.parameters)
        return "".join(parts)

    def _cmp_key(self) -> tuple:
        """What equality compares, as a plain tuple: parameter names lowercased."""
        family, subtype, parameters = self
        if parameters:
            parameters = tuple([(name.lower(), value) for name, value in parameters])
        return (family, subtype, parameters)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MimeType):
            return NotImplemented
        return self._cmp_key() == other._cmp_key()

    # without parameters the key is the tuple itself, hashed in C
    def __hash__(self) -> int:
        if not self[2]:
            return tuple.__hash__(self)
        return hash(self._cmp_key())

    def __str__(self) -> str:
        return self.format()

    def __repr__(self) -> str:
        return f"MimeType({self.format()!r})"


def parse_mime_type(text: str) -> MimeType:
    """Parse ``family/subtype[; name=value]*`` into a :class:`MimeType`.

    Surrounding whitespace is trimmed and family/subtype are lowercased;
    parameter order is preserved. Raises :class:`MalformedMime` on a missing
    "/" separator, empty tokens, or illegal characters.
    """
    plain = text.strip().lower()
    if _PLAIN_TYPE.fullmatch(plain):  # passes every check of MimeType.__new__
        family, _, subtype = plain.partition("/")
        return tuple.__new__(MimeType, (family, subtype, ()))  # as _make builds it
    type_part, _, param_part = text.strip().partition(";")
    family, slash, subtype = type_part.lower().partition("/")
    if not slash:
        raise MalformedMime(f"missing '/' separator in {text!r}")
    params = ()
    if param_part:
        params = []
        for segment in param_part.split(";"):
            segment = segment.strip()
            if not segment:
                continue  # tolerate stray/trailing semicolons
            name, eq, value = segment.partition("=")
            if not eq:
                raise MalformedMime(f"parameter without '=' in {text!r}")
            params.append((name.strip(), value.strip()))
        params = tuple(params)
    try:
        return MimeType(family, subtype, params)
    except MalformedMime as exc:
        raise MalformedMime(f"{exc} (while parsing {text!r})") from None


class RegistrationClass(Enum):
    """Where a media type stands with respect to the official registry."""

    OFFICIAL_FAMILY = "official_family"
    UNOFFICIAL_SUBTYPE = "unofficial_subtype"
    UNKNOWN_FAMILY = "unknown_family"


def classify_registration(m: MimeType) -> RegistrationClass:
    """Classify a type as official, x-prefixed within an official family, or
    belonging to an out-of-registry family (chemical, inode, x-conference...).

    Vendor-style ``vnd.`` and ``x.`` subtype prefixes count as official; only
    the conventional ``x-`` prefix marks a subtype unofficial.
    """
    if m.family not in IANA_FAMILIES:
        return RegistrationClass.UNKNOWN_FAMILY
    if m.subtype.startswith("x-"):
        return RegistrationClass.UNOFFICIAL_SUBTYPE
    return RegistrationClass.OFFICIAL_FAMILY


def normalize_extension(ext: str) -> str:
    """Canonical extension key: NFC-normalized, lowercased, no leading dot."""
    ext = ext.strip()
    if not ext.isascii():  # NFC leaves ASCII as it is
        ext = unicodedata.normalize("NFC", ext)
    return ext.removeprefix(".").lower()


def data_lines(source: str) -> list[tuple[int, str]]:
    """The numbered lines of a data file that hold more than whitespace and
    whose first other character is not ``#``: every bundled format's syntax."""
    return [(line_no, line) for line_no, line in enumerate(source.splitlines(), start=1)
            if (text := line.lstrip()) and text[0] != "#"]


class MalformedLine(namedtuple("MalformedLine", "line_no line reason")):
    """One unparseable line of a mime.types-style file; loading continues."""

    __slots__ = ()


class ExtensionMap(namedtuple("ExtensionMap", "entries type_set",
                              defaults=(MappingProxyType({}), frozenset()))):
    """Extension->types index plus the set of distinct types.

    ``entries`` maps each extension to a tuple of types in source order;
    the first is its primary mapping. ``type_set`` also holds types
    registered with zero extensions and keeps the first spelling seen of
    equal types.
    """

    __slots__ = ()

    def lookup(self, ext: str) -> tuple[MimeType, ...]:
        return self.entries.get(normalize_extension(ext), ())

    def primary(self, ext: str) -> MimeType | None:
        types = self.lookup(ext)
        return types[0] if types else None

    def types(self) -> frozenset[MimeType]:
        return self.type_set

    def known_extensions(self) -> KeysView[str]:
        return self.entries.keys()


def load_extension_map(source: str) -> tuple[ExtensionMap, list[MalformedLine]]:
    """Load a mime.types-style file: ``type ext1 ext2 ...`` per line.

    Fields are whitespace-separated, the type first; as in ``mimetypes``, a
    field that starts with "#" begins a comment. Later lines append and never
    overwrite earlier ones. Bad lines are skipped and reported with their line number.
    """
    entries: dict[str, tuple[MimeType, ...]] = {}
    distinct: set[MimeType] = set()  # add keeps the first equal type seen
    errors: list[MalformedLine] = []
    for line_no, raw in data_lines(source):
        fields = raw.split()
        if "#" in raw:  # a comment runs from the first field that starts with "#"
            fields = fields[:next((i for i, f in enumerate(fields) if f[0] == "#"), None)]
        try:
            mime = parse_mime_type(fields[0])
        except MalformedMime as exc:
            errors.append(MalformedLine(line_no, raw, str(exc)))
            continue
        distinct.add(mime)
        for token in fields[1:]:
            # as normalize_extension: split() leaves no whitespace, NFC leaves ASCII as it is
            ext = token.removeprefix(".").lower() if token.isascii() else normalize_extension(token)
            if not ext:
                errors.append(MalformedLine(line_no, raw, f"empty extension token {token!r}"))
                continue
            # each line's own type object: an equal one from an earlier
            # line may differ in the case of its parameter names
            types = entries.get(ext, ())
            if mime not in types:
                entries[ext] = types + (mime,)
    return ExtensionMap(entries, frozenset(distinct)), errors


class FamilyStats(namedtuple("FamilyStats", "official unofficial_subtype unknown_family",
                             defaults=(0, 0, 0))):
    """How many distinct types of one family fall in each registration class."""

    __slots__ = ()

    @property
    def total(self) -> int:
        return self.official + self.unofficial_subtype + self.unknown_family


def db_stats(ext_map: ExtensionMap) -> dict[str, FamilyStats]:
    """Per-family counts of distinct types by registration class.

    The three counters partition the distinct types of each family, so the
    grand total equals the number of distinct types in the map.
    """
    counts = Counter((mime.family, classify_registration(mime)) for mime in ext_map.types())
    return {
        family: FamilyStats(
            official=counts[family, RegistrationClass.OFFICIAL_FAMILY],
            unofficial_subtype=counts[family, RegistrationClass.UNOFFICIAL_SUBTYPE],
            unknown_family=counts[family, RegistrationClass.UNKNOWN_FAMILY],
        )
        for family in sorted({family for family, _ in counts})
    }
