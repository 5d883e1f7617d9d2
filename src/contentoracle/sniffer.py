"""Content-based type detection: magic signatures, text fallback, polyglots.

A loaded :class:`SignatureDb` is immutable and may be shared across threads;
:func:`sniff` is a pure function of (data, db).

Content is scanned incrementally (:class:`SniffScan`), so a file can be
sniffed chunk by chunk in the same pass that hashes it, in memory bounded
by the chunk size. The full-content polyglot tier searches the patterns
that share a first byte, a lone pattern included, with one regex each, and
a masked pattern with a regex of one byte class per pattern byte; a
pattern stops being searched once found, and a signature that already
matched at offset 0 is not searched at all.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from functools import cached_property, lru_cache
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

    @cached_property
    def _plan(self) -> _ScanPlan:
        # built on the first scan, so loading costs no more than parsing
        return _ScanPlan.build(self.signatures)


@dataclass(frozen=True)
class _ScanPlan:
    """What every scan over one :class:`SignatureDb` checks.

    ``groups`` holds the unmasked polyglot patterns, one tuple per first
    byte, longest first; ``masked`` holds one regex per masked signature;
    ``carry`` is how many trailing bytes a scan keeps across a chunk edge.
    """

    primary: tuple[Signature, ...]
    polyglot: tuple[Signature, ...]
    groups: tuple[tuple[bytes, ...], ...]
    masked: dict[Signature, re.Pattern[bytes]]
    carry: int

    @classmethod
    def build(cls, signatures: tuple[Signature, ...]) -> "_ScanPlan":
        primary = tuple(s for s in signatures if s.offset + len(s.pattern) <= PRIMARY_WINDOW)
        polyglot = tuple(s for s in signatures if s.polyglot_relevant)
        by_first: dict[int, set[bytes]] = {}
        for sig in polyglot:
            if sig.mask is None:
                by_first.setdefault(sig.pattern[0], set()).add(sig.pattern)
        groups = tuple(
            tuple(sorted(patterns, key=lambda p: (-len(p), p)))
            for _, patterns in sorted(by_first.items())
        )
        masked = {s: _masked_regex(s) for s in primary + polyglot if s.mask is not None}
        carry = max((len(s.pattern) - 1 for s in polyglot), default=0)
        return cls(primary, polyglot, groups, masked, carry)


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

    CPython's matcher skips to a literal first byte in C. On Python 3.11
    that took 0.26-0.32 ms per MiB where ``bytes.find`` of one pattern took
    0.42-0.61 ms, so a group of one is searched this way too (on 3.13 the
    regex was slower: ``BENCH_7.json``). Branches that start with different
    bytes get no such skip, so groups never mix first bytes.
    """
    rest = b"|".join(re.escape(p[1:]) for p in patterns)
    return re.compile(re.escape(patterns[0][:1]) + b"(?:" + rest + b")")


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


#: An empty report, used where sniffing is suppressed (nosniff).
EMPTY_REPORT = SniffReport((), False, TextVerdict.NOT_APPLIED, 0)


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


class SniffScan:
    """One incremental sniff: feed the content in chunks, then take the report.

    The scan keeps the first :data:`PRIMARY_WINDOW` bytes for the header
    tier and the text heuristic, plus the last ``max(len(pattern)) - 1``
    bytes of what it has seen, so a polyglot pattern that straddles two
    chunks is still found at its true offset. Memory is bounded by the
    chunk size whatever the content length. The report does not depend on
    how the content was split into chunks.
    """

    def __init__(self, db: SignatureDb):
        self._plan = db._plan
        self._found: dict[str, tuple[Signature, int]] = {}
        self._pending = b""  # content seen before the primary window filled
        self._head: bytes | None = None
        self._size = 0  # bytes searched so far
        self._tail = b""
        self._waiting: dict[bytes, list[Signature]] = {}
        self._groups: list[tuple[bytes, ...]] = []
        self._masked: list[Signature] = []

    def feed(self, chunk: bytes) -> None:
        """Scan the next ``chunk`` of the content."""
        if self._head is None:
            self._pending += chunk
            if len(self._pending) < PRIMARY_WINDOW:
                return
            chunk, self._pending = self._pending, b""
            self._start(chunk[:PRIMARY_WINDOW])
        self._search(chunk)

    def _start(self, head: bytes) -> None:
        """Header tier over the leading window; then pick the polyglot
        searches still needed."""
        self._head = head
        found = self._found
        for sig in self._plan.primary:
            if sig.mask is None:
                hit = head.startswith(sig.pattern, sig.offset)
            else:
                hit = self._plan.masked[sig].match(head, sig.offset) is not None
            if hit:
                found[sig.name] = (sig, sig.offset)
        for sig in self._plan.polyglot:
            if sig.offset == 0 and sig.name in found:
                continue  # no later match can be earlier
            if sig.mask is None:
                self._waiting.setdefault(sig.pattern, []).append(sig)
            else:
                self._masked.append(sig)
        for group in self._plan.groups:
            group = tuple(p for p in group if p in self._waiting)
            if group:
                self._groups.append(group)

    def _search(self, chunk: bytes) -> None:
        if self._groups or self._masked:
            buf = self._tail + chunk
            base = self._size - len(self._tail)
            self._groups = [g for g in (self._search_group(buf, base, g) for g in self._groups) if g]
            masked = []
            for sig in self._masked:
                match = self._plan.masked[sig].search(buf)
                if match is None:
                    masked.append(sig)
                else:
                    self._credit(sig, base + match.start())
            self._masked = masked
            carry = self._plan.carry
            self._tail = buf[-carry:] if carry else b""
        self._size += len(chunk)

    def _search_group(self, buf: bytes, base: int, group: tuple[bytes, ...]) -> tuple[bytes, ...]:
        """Find each pattern of ``group`` (one first byte, longest first) in
        ``buf``; return the patterns not found. A found pattern is dropped and
        the search resumes where it hit, so a pattern that is a prefix of a
        longer one found there is still found at its earliest offset."""
        pos = 0
        while group:
            match = _alternation(group).search(buf, pos)
            if match is None:
                break
            pos, hit = match.start(), match.group()
            for sig in self._waiting.pop(hit):
                self._credit(sig, base + pos)
            group = tuple(p for p in group if p != hit)
        return group

    def _credit(self, sig: Signature, pos: int) -> None:
        prev = self._found.get(sig.name)
        self._found[sig.name] = (sig, pos if prev is None else min(prev[1], pos))

    def report(self) -> SniffReport:
        """The report over everything fed so far."""
        if self._head is None:  # the whole content fits in the primary window
            chunk, self._pending = self._pending, b""
            self._start(chunk)
            self._search(chunk)
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
            text_fallback = TextVerdict.LOOKS_TEXT if is_text(self._head) else TextVerdict.LOOKS_BINARY
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
