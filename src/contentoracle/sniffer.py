"""Content-based type detection: magic signatures, text fallback, polyglots.

A loaded :class:`SignatureDb` is immutable and may be shared across threads;
:func:`sniff` is a pure function of (data, db).

Content is scanned incrementally (:class:`SniffScan`), so a file can be
sniffed chunk by chunk in the same pass that hashes it, in memory bounded
by the chunk size. The full-content polyglot tier searches the patterns
that share a first byte, a lone pattern included, with one regex each,
started where ``bytes.find`` finds that byte, and a masked pattern with a
regex of one byte class per pattern byte; a pattern stops being searched
once found. The header tier is independent of that search: it checks the
leading window when the report is taken.
"""

from __future__ import annotations

import re
from enum import Enum
from functools import lru_cache
from typing import Iterator, NamedTuple

from .errors import DuplicateName, MalformedMime, MalformedSignature
from .mime_db import MimeType, parse_mime_type

#: Primary matching window: signatures match at their declared offset only
#: within this many leading bytes. The second, polyglot pass is unbounded.
PRIMARY_WINDOW = 8192

#: How many leading bytes the text heuristic inspects.
TEXT_PROBE = 4096

#: The ASCII control bytes that do not count as text (tab, LF and CR do).
_CONTROLS = bytes(b for b in [*range(0x20), 0x7F] if b not in b"\t\n\r")


class _SignatureFields(NamedTuple):
    name: str
    mime: MimeType
    offset: int
    pattern: bytes
    mask: bytes | None
    weight: int
    polyglot_relevant: bool


class Signature(_SignatureFields):
    """One magic pattern: bytes expected at a fixed offset, optionally masked.

    ``weight`` defaults to the pattern length so longer matches outrank
    shorter ones; an explicit weight overrides that for short-but-definitive
    magics. ``polyglot_relevant`` opts the pattern into the full-content
    second pass that hunts for payloads appended after a valid header.
    """

    __slots__ = ()

    def __new__(cls, name: str, mime: MimeType, offset: int, pattern: bytes,
                mask: bytes | None = None, weight: int | None = None,
                polyglot_relevant: bool = False):
        if not name:
            raise MalformedSignature("signature name must be non-empty")
        if not pattern:
            raise MalformedSignature(f"{name}: pattern must be non-empty")
        if offset < 0:
            raise MalformedSignature(f"{name}: offset must be >= 0")
        if mask is not None and len(mask) != len(pattern):
            raise MalformedSignature(f"{name}: mask length must equal pattern length")
        weight = len(pattern) if weight is None else weight
        return tuple.__new__(cls, (name, mime, offset, pattern, mask, weight, polyglot_relevant))


class SignatureDb:
    """The loaded signatures, in file order; frozen. Its scan plan is built
    on the first scan, so loading costs no more than parsing."""

    __slots__ = ("signatures", "_built_plan")

    def __init__(self, signatures: tuple[Signature, ...]):
        object.__setattr__(self, "signatures", signatures)
        object.__setattr__(self, "_built_plan", None)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r} of a frozen SignatureDb")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r} of a frozen SignatureDb")

    def __repr__(self) -> str:
        return f"SignatureDb(signatures={self.signatures!r})"

    def __iter__(self) -> Iterator[Signature]:
        return iter(self.signatures)

    def __len__(self) -> int:
        return len(self.signatures)

    @property
    def _plan(self) -> _ScanPlan:
        if self._built_plan is None:
            object.__setattr__(self, "_built_plan", _ScanPlan.build(self.signatures))
        return self._built_plan


class _ScanPlan(NamedTuple):
    """What every scan over one :class:`SignatureDb` checks.

    ``header`` indexes the signatures that fit in the primary window by
    offset, then by each byte that their first pattern byte matches (one,
    unless that byte is masked); each comes with its regex if masked, else
    ``None``. ``groups`` holds the unmasked polyglot patterns, one tuple per
    first byte, longest first; ``by_pattern`` maps each of them to the
    signatures it credits; ``masked`` pairs each masked polyglot signature
    with its regex; ``carry`` is how many trailing bytes a scan keeps across
    a chunk edge.
    """

    header: dict[int, dict[int, list[tuple[Signature, re.Pattern[bytes] | None]]]]
    polyglot: tuple[Signature, ...]
    groups: tuple[tuple[bytes, ...], ...]
    by_pattern: dict[bytes, tuple[Signature, ...]]
    masked: tuple[tuple[Signature, re.Pattern[bytes]], ...]
    carry: int

    @classmethod
    def build(cls, signatures: tuple[Signature, ...]) -> "_ScanPlan":
        header: dict[int, dict[int, list]] = {}
        for sig in signatures:
            if sig.offset + len(sig.pattern) > PRIMARY_WINDOW:
                continue
            first = sig.pattern[0]
            m = 0xFF if sig.mask is None else sig.mask[0]
            entry = (sig, None if sig.mask is None else _masked_regex(sig))
            by_byte = header.setdefault(sig.offset, {})
            for b in (first,) if m == 0xFF else [b for b in range(256) if b & m == first & m]:
                by_byte.setdefault(b, []).append(entry)
        polyglot = tuple(s for s in signatures if s.polyglot_relevant)
        by_pattern: dict[bytes, tuple[Signature, ...]] = {}
        by_first: dict[int, set[bytes]] = {}
        for sig in polyglot:
            if sig.mask is None:
                by_pattern[sig.pattern] = by_pattern.get(sig.pattern, ()) + (sig,)
                by_first.setdefault(sig.pattern[0], set()).add(sig.pattern)
        groups = tuple(
            tuple(sorted(patterns, key=lambda p: (-len(p), p)))
            for _, patterns in sorted(by_first.items())
        )
        masked = tuple((s, _masked_regex(s)) for s in polyglot if s.mask is not None)
        carry = max((len(s.pattern) - 1 for s in polyglot), default=0)
        return cls(header, polyglot, groups, by_pattern, masked, carry)


def _masked_regex(sig: Signature) -> re.Pattern[bytes]:
    """A regex matching where ``sig`` matches, so the search runs in C: per
    pattern byte ``p`` with mask ``m``, the class of bytes ``b`` with
    ``b & m == p & m``. Masks ``ff`` and ``00`` give a literal and ``.``,
    which ``re`` parses far faster than a class (12 ms per CLI process)."""
    parts = []
    for p, m in zip(sig.pattern, sig.mask):
        if m == 0xFF:
            parts.append(re.escape(bytes([p])))
        elif m == 0:
            parts.append(b".")
        else:
            parts.append(b"[" + b"".join(b"\\x%02x" % b for b in range(256) if b & m == p & m)
                         + b"]")
    return re.compile(b"".join(parts), re.DOTALL)


@lru_cache(maxsize=256)
def _alternation(patterns: tuple[bytes, ...]) -> re.Pattern[bytes]:
    """One regex for patterns that share a first byte, longest first.

    Its search is started at a hit of ``bytes.find`` of that one byte (see
    :meth:`SniffScan._search_group`): the regex engine reaches a literal
    first byte with a byte-at-a-time loop, ``find`` of one byte with
    ``memchr``, so content without the byte is skipped at memory speed.
    Groups never mix first bytes, so one byte is all a group needs found.
    """
    rest = b"|".join(re.escape(p[1:]) for p in patterns)
    return re.compile(re.escape(patterns[0][:1]) + b"(?:" + rest + b")")


def _parse_hex(token: str, line_no: int, what: str) -> bytes:
    try:
        return bytes.fromhex(token)
    except ValueError:
        raise MalformedSignature(f"line {line_no}: bad hex in {what}: {token!r}") from None


def load_signatures(source: str) -> SignatureDb:
    """Load a pipe-separated signature file.

    Record format, one per non-comment line::

        name | family/subtype | offset | pattern(hex) | mask(hex or -) | weight(or -) | polyglot(0/1)

    Duplicate names are rejected.
    """
    sigs: list[Signature] = []
    seen: set[str] = set()
    for line_no, raw in enumerate(source.splitlines(), start=1):
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
        except MalformedMime as exc:
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


class Candidate(NamedTuple):
    mime: MimeType
    signature: str
    weight: int
    offset: int  # where the pattern was found in the data


class SniffReport(NamedTuple):
    """Ranked signature matches plus the polyglot flag and text verdict."""

    candidates: tuple[Candidate, ...]
    is_polyglot: bool
    text_fallback: TextVerdict
    bytes_examined: int

    @property
    def top(self) -> Candidate | None:
        return self.candidates[0] if self.candidates else None


#: An empty report, used where sniffing is suppressed (nosniff).
EMPTY_REPORT = SniffReport((), False, TextVerdict.NOT_APPLIED, 0)


def is_text(data: bytes) -> bool:
    """Heuristic used when no signature matches: does this look like text?

    True iff the first 4096 bytes contain no NUL and at least 95% of them are
    printable ASCII, common whitespace, or valid multi-byte UTF-8 sequences.
    Empty input is vacuously text.

    The UTF-8 decoder does the counting: ``surrogateescape`` turns each byte
    it cannot decode into one escape character. That is the same byte count
    as a left-to-right reading that skips one byte at a time: the bytes of a
    rejected sequence after its first are continuation bytes, and no
    continuation byte starts a valid sequence.
    """
    head = data[:TEXT_PROBE]
    if 0 in head:
        return False
    # encoding drops the escapes, leaving the bytes that decode as UTF-8
    decoded = len(head.decode("utf-8", "surrogateescape").encode("utf-8", "ignore"))
    controls = len(head) - len(head.translate(None, _CONTROLS))
    printable = decoded - controls
    # >= 95% without float comparison: printable/n >= 19/20
    return printable * 20 >= len(head) * 19


class SniffScan:
    """One incremental sniff: feed the content in chunks, then take the report.

    The two tiers are independent. Each chunk is searched for the polyglot
    patterns from its first byte, with the last ``max(len(pattern)) - 1``
    bytes of what came before carried over, so a pattern that straddles two
    chunks is still found at its true offset. The scan also keeps the first
    :data:`PRIMARY_WINDOW` bytes, over which :meth:`report` runs the header
    tier and the text heuristic. Memory is bounded by the chunk size whatever
    the content length. The report does not depend on how the content was
    split into chunks.
    """

    def __init__(self, db: SignatureDb):
        self._plan = db._plan
        self._found: dict[str, tuple[Signature, int]] = {}
        self._head = b""
        self._size = 0  # bytes fed so far
        self._tail = b""
        self._groups = list(self._plan.groups)
        self._masked = list(self._plan.masked)

    def feed(self, chunk: bytes) -> None:
        """Scan the next ``chunk`` of the content."""
        if len(self._head) < PRIMARY_WINDOW:
            self._head += chunk[:PRIMARY_WINDOW - len(self._head)]
        if self._groups or self._masked:
            buf = self._tail + chunk
            base = self._size - len(self._tail)
            self._groups = [g for g in (self._search_group(buf, base, g) for g in self._groups) if g]
            masked = []
            for sig, regex in self._masked:
                match = regex.search(buf)
                if match is None:
                    masked.append((sig, regex))
                else:
                    self._credit(sig, base + match.start())
            self._masked = masked
            carry = self._plan.carry
            self._tail = buf[-carry:] if carry else b""
        self._size += len(chunk)

    def _search_group(self, buf: bytes, base: int, group: tuple[bytes, ...]) -> tuple[bytes, ...]:
        """Find each pattern of ``group`` (one first byte, longest first) in
        ``buf``; return the patterns not found. The regex runs from the next
        occurrence of the first byte, and not at all once there is none. A
        found pattern is dropped and the search resumes where it hit, so a
        pattern that is a prefix of a longer one found there is still found
        at its earliest offset."""
        pos = 0
        first = group[0][:1]
        while group:
            pos = buf.find(first, pos)
            if pos < 0:
                break
            match = _alternation(group).search(buf, pos)
            if match is None:
                break
            pos, hit = match.start(), match.group()
            for sig in self._plan.by_pattern[hit]:
                self._credit(sig, base + pos)
            group = tuple(p for p in group if p != hit)
        return group

    def _credit(self, sig: Signature, pos: int) -> None:
        prev = self._found.get(sig.name)
        self._found[sig.name] = (sig, pos if prev is None else min(prev[1], pos))

    def report(self) -> SniffReport:
        """The report over everything fed so far."""
        head = self._head
        for offset, by_byte in self._plan.header.items():
            if offset < len(head):
                for sig, regex in by_byte.get(head[offset], ()):
                    hit = regex.match(head, offset) if regex else head.startswith(sig.pattern, offset)
                    if hit:
                        self._credit(sig, offset)
        candidates = tuple(
            Candidate(sig.mime, sig.name, sig.weight, pos)
            for sig, pos in sorted(
                self._found.values(), key=lambda item: (-item[0].weight, item[1], item[0].name)
            )
        )
        distinct_types = {c.mime.key for c in candidates}
        is_polyglot = len(distinct_types) >= 2
        if candidates:
            text_fallback = TextVerdict.NOT_APPLIED
        else:
            text_fallback = TextVerdict.LOOKS_TEXT if is_text(head) else TextVerdict.LOOKS_BINARY
        bytes_examined = self._size if self._plan.polyglot else min(self._size, PRIMARY_WINDOW)
        return SniffReport(candidates, is_polyglot, text_fallback, bytes_examined)


def sniff(data: bytes, db: SignatureDb) -> SniffReport:
    """Match ``data`` against every signature in ``db``: a :class:`SniffScan`
    fed ``data`` as one chunk.

    Two tiers: signatures are first checked at their declared offset within
    the leading :data:`PRIMARY_WINDOW` bytes; polyglot-relevant signatures
    are then searched anywhere in the full content, which is what catches
    script or archive payloads appended after a valid header. Each signature
    contributes at most one candidate (earliest match position). Candidates
    are strictly ordered by (weight desc, offset asc, name asc); the polyglot
    flag is set exactly when two or more distinct types are present.
    """
    scan = SniffScan(db)
    scan.feed(data)
    return scan.report()
