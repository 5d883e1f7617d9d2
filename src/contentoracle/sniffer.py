"""Content-based type detection: magic signatures, text fallback, polyglots.

A loaded :class:`SignatureDb` is immutable and may be shared across threads;
:func:`sniff` is a pure function of (data, db).

Content is scanned incrementally (:class:`SniffScan`), so a file can be
sniffed chunk by chunk in the same pass that hashes it, in memory bounded
by the chunk size. The full-content polyglot tier has one search path:
the patterns that share a first byte, a lone pattern included, form a
group searched with one regex, started where ``bytes.find`` finds that
byte; the patterns whose first byte is masked form the group of ``b""``,
whose regex runs from where the search stands. A masked pattern byte is a
byte class, and a pattern stops being searched once found, at its earliest
offset, so the header tier checks only the other signatures, in the
leading window, when the report is taken.
"""

from __future__ import annotations

import re
from collections import namedtuple
from enum import Enum
from functools import lru_cache
from typing import Any, Callable, Container, Iterator

from .errors import DuplicateName, MalformedMime, MalformedSignature
from .mime_db import MimeType, data_lines, parse_mime_type

#: Primary matching window: a signature that is not polyglot-relevant
#: matches at its declared offset only within this many leading bytes.
PRIMARY_WINDOW = 8192

#: How many leading bytes the text heuristic inspects.
TEXT_PROBE = 4096

#: The ASCII control bytes that do not count as text (tab, LF and CR do).
_CONTROLS = bytes(b for b in [*range(0x20), 0x7F] if b not in b"\t\n\r")


class Signature(namedtuple("Signature",
                           "name mime offset pattern mask weight polyglot_relevant")):
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


class _ScanPlan(namedtuple("_ScanPlan", "header groups credits carry")):
    """What every scan over one :class:`SignatureDb` checks.

    ``header`` indexes the signatures that are not polyglot-relevant and fit
    in the primary window by offset, then by each byte that their first
    pattern byte matches (one, unless that byte is masked); each comes with
    its regex source if masked, else ``None``. ``groups`` pairs each first
    byte of a polyglot pattern with the regex sources of the rests that
    follow it, longest pattern first; a pattern whose first byte is masked
    is in the group of ``b""`` with the source of its whole pattern.
    ``credits`` maps each (first byte, source) to the signatures it credits;
    ``carry`` is how many trailing bytes a scan keeps across a chunk edge.
    """

    __slots__ = ()

    @classmethod
    def build(cls, signatures: tuple[Signature, ...]) -> "_ScanPlan":
        header: dict[int, dict[int, list]] = {}
        for sig in signatures:
            if sig.polyglot_relevant or sig.offset + len(sig.pattern) > PRIMARY_WINDOW:
                continue
            first = sig.pattern[0]
            m = 0xFF if sig.mask is None else sig.mask[0]
            entry = (sig, None if sig.mask is None else _source(sig, 0))
            by_byte = header.setdefault(sig.offset, {})
            for b in (first,) if m == 0xFF else [b for b in range(256) if b & m == first & m]:
                by_byte.setdefault(b, []).append(entry)
        polyglot = sorted((s for s in signatures if s.polyglot_relevant), key=lambda s: -len(s.pattern))
        credits: dict[tuple[bytes, bytes], tuple[Signature, ...]] = {}
        for sig in polyglot:
            start = 1 if sig.mask is None or sig.mask[0] == 0xFF else 0
            key = (sig.pattern[:start], _source(sig, start))
            credits[key] = credits.get(key, ()) + (sig,)
        firsts = sorted({first for first, _ in credits})
        groups = tuple((f, tuple(src for first, src in credits if first == f)) for f in firsts)
        carry = max((len(s.pattern) - 1 for s in polyglot), default=0)
        return cls(header, groups, credits, carry)


def _source(sig: Signature, start: int) -> bytes:
    """Regex source that matches where ``sig``'s pattern from byte ``start``
    on matches, so the search runs in C: per pattern byte ``p`` with mask
    ``m``, the class of bytes ``b`` with ``b & m == p & m``, listed over the
    bits that ``m`` leaves free. Masks ``ff`` and ``00`` give a literal and
    ``.``, which ``re`` parses far faster than a class (12 ms per CLI
    process)."""
    parts = []
    for p, m in zip(sig.pattern[start:], (sig.mask or b"\xff" * len(sig.pattern))[start:]):
        if m == 0xFF:
            parts.append(re.escape(bytes([p])))
        elif m == 0:
            parts.append(b".")
        else:
            free = m ^ 0xFF
            parts.append(b"[" + b"".join(re.escape(bytes([p & m | f])) for f in range(free + 1)
                                         if f & free == f) + b"]")
    return b"".join(parts)


@lru_cache(maxsize=256)
def _alternation(first: bytes, rests: tuple[bytes, ...]) -> re.Pattern[bytes]:
    """One regex for a group: ``first``, then the first of the ``rests``
    sources, in order, that matches. The header tier matches a masked
    signature's source as the group of ``b""``: compiled once content needs it.

    Its search is started at a hit of ``bytes.find`` of ``first`` (see
    :meth:`SniffScan._search_group`): the regex engine reaches a literal
    first byte with a byte-at-a-time loop, ``find`` of one byte with
    ``memchr``, so content without the byte is skipped at memory speed.
    Groups never mix first bytes, so one byte is all a group needs found.
    """
    return re.compile(re.escape(first) + b"(?:" + b"|".join(rests) + b")", re.DOTALL)


def load_signatures(source: str) -> SignatureDb:
    """Load a pipe-separated signature file.

    Record format, one per :func:`~contentoracle.mime_db.data_lines` line::

        name | family/subtype | offset | pattern(hex) | mask(hex or -) | weight(or -) | polyglot(0/1)

    Duplicate names are rejected. A fault names its line.
    """
    sigs: dict[str, Signature] = {}
    for line_no, line in data_lines(source):
        try:
            sig = _signature(line, sigs)
        except (MalformedSignature, DuplicateName) as exc:
            raise type(exc)(f"line {line_no}: {exc}") from None
        sigs[sig.name] = sig
    return SignatureDb(tuple(sigs.values()))


def _signature(line: str, taken: Container[str]) -> Signature:
    """The signature one record line describes; its name must not be ``taken``."""
    fields = [*map(str.strip, line.split("|"))]
    if len(fields) != 7:
        raise MalformedSignature(f"expected 7 fields, got {len(fields)}")
    name, mime_text, offset_text, pattern_hex, mask_hex, weight_text, poly_text = fields
    if name in taken:
        raise DuplicateName(f"duplicate signature name {name!r}")
    try:
        mime = parse_mime_type(mime_text)
    except MalformedMime as exc:
        raise MalformedSignature(f"bad mime: {exc}") from None
    offset = _field(int, offset_text, "bad offset")
    pattern = _field(bytes.fromhex, pattern_hex, "bad hex in pattern:")
    mask = None if mask_hex == "-" else _field(bytes.fromhex, mask_hex, "bad hex in mask:")
    weight = None if weight_text == "-" else _field(int, weight_text, "bad weight")
    if poly_text not in ("0", "1"):
        raise MalformedSignature("polyglot flag must be 0 or 1")
    return Signature(name, mime, offset, pattern, mask, weight, poly_text == "1")


def _field(parse: Callable[[str], Any], text: str, fault: str) -> Any:
    """``parse(text)``; if that fails, a :class:`MalformedSignature` of
    ``fault`` and the text."""
    try:
        return parse(text)
    except ValueError:
        raise MalformedSignature(f"{fault} {text!r}") from None


class TextVerdict(Enum):
    NOT_APPLIED = "not_applied"
    LOOKS_TEXT = "looks_text"
    LOOKS_BINARY = "looks_binary"


class Candidate(namedtuple("Candidate", "mime signature weight offset")):
    """One signature that matched: its :class:`MimeType`, name and weight,
    and the offset where its pattern was found in the data."""

    __slots__ = ()


class SniffReport(namedtuple("SniffReport",
                             "candidates is_polyglot text_fallback bytes_examined")):
    """Ranked signature matches (a tuple of :class:`Candidate`) plus the
    polyglot flag, the :class:`TextVerdict` and how many bytes were examined."""

    __slots__ = ()

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

    def feed(self, chunk: bytes) -> None:
        """Scan the next ``chunk`` of the content."""
        if len(self._head) < PRIMARY_WINDOW:
            self._head += chunk[:PRIMARY_WINDOW - len(self._head)]
        if self._groups:
            buf = self._tail + chunk
            base = self._size - len(self._tail)
            self._groups = [(first, left) for first, rests in self._groups
                            if (left := self._search_group(buf, base, first, rests))]
            carry = self._plan.carry
            self._tail = buf[-carry:] if carry else b""
        self._size += len(chunk)

    def _search_group(self, buf: bytes, base: int, first: bytes,
                      rests: tuple[bytes, ...]) -> tuple[bytes, ...]:
        """Find the pattern of each of ``rests`` after ``first`` in ``buf``;
        return the rests not found. The regex runs from the next occurrence
        of ``first`` (where the search stands, if ``first`` is ``b""``), and
        not at all once there is none. At a hit, the first of ``rests`` that
        matches there is found; it is dropped and the search resumes where
        it hit, so a pattern that is a prefix of a longer one found there is
        still found at its earliest offset."""
        pos = 0
        while rests:
            pos = buf.find(first, pos)
            if pos < 0:
                break
            match = _alternation(first, rests).search(buf, pos)
            if match is None:
                break
            pos = match.start()
            for hit in rests:
                if _alternation(first, (hit,)).match(buf, pos):
                    break
            for sig in self._plan.credits[first, hit]:
                self._found[sig.name] = (sig, base + pos)
            rests = tuple(r for r in rests if r != hit)
        return rests

    def report(self) -> SniffReport:
        """The report over everything fed so far."""
        head = self._head
        for offset, by_byte in self._plan.header.items():
            if offset < len(head):
                for sig, source in by_byte.get(head[offset], ()):
                    hit = (_alternation(b"", (source,)).match(head, offset) if source
                           else head.startswith(sig.pattern, offset))
                    if hit:
                        self._found[sig.name] = (sig, offset)
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
        bytes_examined = self._size if self._plan.groups else min(self._size, PRIMARY_WINDOW)
        return SniffReport(candidates, is_polyglot, text_fallback, bytes_examined)


def sniff(data: bytes, db: SignatureDb) -> SniffReport:
    """Match ``data`` against every signature in ``db``: a :class:`SniffScan`
    fed ``data`` as one chunk.

    Two tiers, one per signature: polyglot-relevant signatures are searched
    anywhere in the content, which catches script or archive payloads
    appended after a valid header; the others are checked at their declared
    offset within the leading :data:`PRIMARY_WINDOW` bytes. Each signature
    contributes at most one candidate (earliest match position). Candidates
    are strictly ordered by (weight desc, offset asc, name asc); the
    polyglot flag is set exactly when two or more distinct types are
    present.
    """
    scan = SniffScan(db)
    scan.feed(data)
    return scan.report()
