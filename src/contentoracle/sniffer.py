"""Content-based type detection: magic signatures, text fallback, polyglots.

A loaded :class:`SignatureDb` is immutable and may be shared across threads;
:func:`sniff` is a pure function of (data, db).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .errors import DuplicateName, MalformedSignature
from .mime_db import MimeType, parse_mime_type

#: Primary matching window: signatures match at their declared offset only
#: within this many leading bytes. The second, polyglot pass is unbounded.
PRIMARY_WINDOW = 8192

#: How many leading bytes the text heuristic inspects.
TEXT_PROBE = 4096


@dataclass(frozen=True)
class Signature:
    """One magic pattern: bytes expected at a fixed offset, optionally masked.

    ``weight`` defaults to the pattern length so longer matches outrank
    shorter ones; an explicit weight overrides that for short-but-definitive
    magics. ``polyglot_relevant`` opts the pattern into the full-content
    second pass that hunts for payloads appended after a valid header.
    """

    name: str
    mime: MimeType
    offset: int
    pattern: bytes
    mask: bytes | None = None
    weight: int | None = None
    polyglot_relevant: bool = False

    def __post_init__(self) -> None:
        if not self.name:
            raise MalformedSignature("signature name must be non-empty")
        if not self.pattern:
            raise MalformedSignature(f"{self.name}: pattern must be non-empty")
        if self.offset < 0:
            raise MalformedSignature(f"{self.name}: offset must be >= 0")
        if self.mask is not None and len(self.mask) != len(self.pattern):
            raise MalformedSignature(f"{self.name}: mask length must equal pattern length")
        if self.weight is None:
            object.__setattr__(self, "weight", len(self.pattern))


@dataclass(frozen=True)
class SignatureDb:
    signatures: tuple[Signature, ...]

    def __iter__(self) -> Iterator[Signature]:
        return iter(self.signatures)

    def __len__(self) -> int:
        return len(self.signatures)


def _parse_hex(token: str, line_no: int, what: str) -> bytes:
    try:
        return bytes.fromhex(token)
    except ValueError:
        raise MalformedSignature(f"line {line_no}: bad hex in {what}: {token!r}") from None


def load_signatures(source: str | Iterable[str]) -> SignatureDb:
    """Load a pipe-separated signature file.

    Record format, one per non-comment line::

        name | family/subtype | offset | pattern(hex) | mask(hex or -) | weight(or -) | polyglot(0/1)

    Duplicate names are rejected.
    """
    lines = source.splitlines() if isinstance(source, str) else source
    sigs: list[Signature] = []
    seen: set[str] = set()
    for line_no, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = [f.strip() for f in line.split("|")]
        if len(fields) != 7:
            raise MalformedSignature(f"line {line_no}: expected 7 fields, got {len(fields)}")
        name, mime_text, offset_text, pattern_hex, mask_hex, weight_text, poly_text = fields
        if name in seen:
            raise DuplicateName(f"line {line_no}: duplicate signature name {name!r}")
        seen.add(name)
        try:
            mime = parse_mime_type(mime_text)
        except Exception as exc:
            raise MalformedSignature(f"line {line_no}: bad mime: {exc}") from None
        try:
            offset = int(offset_text, 10)
        except ValueError:
            raise MalformedSignature(f"line {line_no}: bad offset {offset_text!r}") from None
        pattern = _parse_hex(pattern_hex, line_no, "pattern")
        mask = None if mask_hex == "-" else _parse_hex(mask_hex, line_no, "mask")
        if weight_text == "-":
            weight = None
        else:
            try:
                weight = int(weight_text, 10)
            except ValueError:
                raise MalformedSignature(f"line {line_no}: bad weight {weight_text!r}") from None
        if poly_text not in ("0", "1"):
            raise MalformedSignature(f"line {line_no}: polyglot flag must be 0 or 1")
        try:
            sigs.append(Signature(name, mime, offset, pattern, mask, weight, poly_text == "1"))
        except MalformedSignature as exc:
            raise MalformedSignature(f"line {line_no}: {exc}") from None
    return SignatureDb(tuple(sigs))


class TextVerdict(Enum):
    NOT_APPLIED = "not_applied"
    LOOKS_TEXT = "looks_text"
    LOOKS_BINARY = "looks_binary"


@dataclass(frozen=True)
class Candidate:
    mime: MimeType
    signature: str
    weight: int
    offset: int  # where the pattern was found in the data


@dataclass(frozen=True)
class SniffReport:
    """Ranked signature matches plus the polyglot flag and text verdict."""

    candidates: tuple[Candidate, ...]
    is_polyglot: bool
    text_fallback: TextVerdict
    bytes_examined: int

    @property
    def top(self) -> Candidate | None:
        return self.candidates[0] if self.candidates else None

    @property
    def top_mime(self) -> MimeType | None:
        return self.candidates[0].mime if self.candidates else None


#: An empty report, used where sniffing is suppressed (nosniff).
EMPTY_REPORT = SniffReport((), False, TextVerdict.NOT_APPLIED, 0)


def _masked_equal(data: bytes, start: int, pattern: bytes, mask: bytes | None) -> bool:
    end = start + len(pattern)
    if start < 0 or end > len(data):
        return False
    if mask is None:
        return data[start:end] == pattern
    segment = data[start:end]
    return all((segment[i] & mask[i]) == (pattern[i] & mask[i]) for i in range(len(pattern)))


def _masked_find(data: bytes, pattern: bytes, mask: bytes | None) -> int:
    if mask is None:
        return data.find(pattern)
    for i in range(len(data) - len(pattern) + 1):
        if _masked_equal(data, i, pattern, mask):
            return i
    return -1


def is_text(data: bytes) -> bool:
    """Heuristic used when no signature matches: does this look like text?

    True iff the first 4096 bytes contain no NUL and at least 95% of them are
    printable ASCII, common whitespace, or valid multi-byte UTF-8 sequences.
    Empty input is vacuously text.
    """
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
    # >= 95% without float comparison: printable/n >= 19/20
    return printable * 20 >= n * 19


def sniff(data: bytes, db: SignatureDb) -> SniffReport:
    """Match ``data`` against every signature in ``db``.

    Two tiers: signatures are first checked at their declared offset within
    the leading :data:`PRIMARY_WINDOW` bytes; polyglot-relevant signatures
    are then searched anywhere in the full content, which is what catches
    script or archive payloads appended after a valid header. Each signature
    contributes at most one candidate (earliest match position). Candidates
    are strictly ordered by (weight desc, offset asc, name asc); the polyglot
    flag is set exactly when two or more distinct types are present.
    """
    found: dict[str, tuple[Signature, int]] = {}
    for sig in db:
        end = sig.offset + len(sig.pattern)
        if end <= PRIMARY_WINDOW and _masked_equal(data, sig.offset, sig.pattern, sig.mask):
            found[sig.name] = (sig, sig.offset)
    any_polyglot_pass = False
    for sig in db:
        if not sig.polyglot_relevant:
            continue
        any_polyglot_pass = True
        pos = _masked_find(data, sig.pattern, sig.mask)
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
    distinct_types = {c.mime.key for c in candidates}
    is_polyglot = len(distinct_types) >= 2
    if candidates:
        text_fallback = TextVerdict.NOT_APPLIED
    else:
        text_fallback = TextVerdict.LOOKS_TEXT if is_text(data) else TextVerdict.LOOKS_BINARY
    bytes_examined = len(data) if any_polyglot_pass else min(len(data), PRIMARY_WINDOW)
    return SniffReport(candidates, is_polyglot, text_fallback, bytes_examined)
