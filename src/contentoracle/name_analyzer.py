"""Filename-level anomaly detection.

Covers the classic deception vectors: double extensions (invoice.pdf.exe),
missing extensions, bidirectional-override tricks that repaint the rendered
suffix, mixed-script extensions, and whitespace-hidden suffixes. All
functions are pure; severity judgments live in the discrepancy engine.
"""

from __future__ import annotations

import re
import unicodedata
from collections import namedtuple
from enum import Enum
from typing import Collection


class NameAnomaly(Enum):
    DOUBLE_EXTENSION = "double_extension"
    MISSING_EXTENSION = "missing_extension"
    BIDI_OVERRIDE = "bidi_override"
    MIXED_SCRIPT_EXTENSION = "mixed_script_extension"
    TRAILING_WHITESPACE = "trailing_whitespace"


#: Directional formatting characters: embeddings/overrides U+202A..U+202E and
#: the isolate controls U+2066..U+2069.
BIDI_CONTROLS = frozenset(
    chr(cp) for cp in (*range(0x202A, 0x202F), *range(0x2066, 0x206A))
)

# Controls that flip rendering direction of the following run.
_REVERSING = {"\u202b", "\u202e", "\u2067"}
# Terminator expected for each opening control.
_TERMINATOR = {
    "\u202a": "\u202c", "\u202b": "\u202c", "\u202d": "\u202c", "\u202e": "\u202c",
    "\u2066": "\u2069", "\u2067": "\u2069", "\u2068": "\u2069",
}

# A usable extension: short, plain alphanumeric after case folding.
_EXT_RE = re.compile(r"[a-z0-9]{1,10}")


class NameReport(namedtuple("NameReport",
                            "display_name logical_extension extension_chain anomalies")):
    """What a filename looks like versus what it actually is.

    ``display_name`` is the visually-reordered form when directional
    overrides are present (controls themselves never rendered), otherwise
    the normalized name. ``extension_chain`` lists every dot-separated
    suffix in order, as a tuple; ``logical_extension`` is the final suffix
    when it qualifies as a real extension, else ``None``. ``anomalies`` is
    a frozenset of :class:`NameAnomaly`.
    """

    __slots__ = ()


def strip_bidi_controls(name: str) -> str:
    return "".join(c for c in name if c not in BIDI_CONTROLS)


def render_display(name: str) -> str:
    """Best-effort simulation of how a bidi-laden name is displayed.

    Reversing controls (RLO/RLE/RLI) flip their enclosed run; left-to-right
    ones pass it through. Control characters are dropped from the output.
    This is an approximation of the full bidirectional algorithm, good
    enough to expose the spoofed suffix.
    """

    def walk(chars: str, i: int, until: str | None) -> tuple[str, int]:
        out: list[str] = []
        while i < len(chars):
            c = chars[i]
            if until is not None and c == until:
                return "".join(out), i + 1
            if c in _TERMINATOR:
                inner, i = walk(chars, i + 1, _TERMINATOR[c])
                out.append(inner[::-1] if c in _REVERSING else inner)
                continue
            if c in BIDI_CONTROLS:  # stray terminator
                i += 1
                continue
            out.append(c)
            i += 1
        return "".join(out), i

    rendered, _ = walk(name, 0, None)
    return rendered


def _scripts_of(segment: str) -> set[str]:
    scripts: set[str] = set()
    for c in segment:
        if not c.isalpha():
            continue
        cp = ord(c)
        if cp <= 0x024F or 0x1E00 <= cp <= 0x1EFF:
            scripts.add("latin")
        elif 0x0370 <= cp <= 0x03FF or 0x1F00 <= cp <= 0x1FFF:
            scripts.add("greek")
        elif 0x0400 <= cp <= 0x052F:
            scripts.add("cyrillic")
        else:
            scripts.add("other")
    return scripts


def analyze_name(filename: str, known_exts: Collection[str]) -> NameReport:
    """Analyze one filename against a set of known extensions.

    Extensions are computed on the NFC-normalized name. ``known_exts`` holds
    lowercase extensions without dots (typically from an extension map).
    """
    if not filename:
        raise ValueError("filename must be non-empty")
    name = unicodedata.normalize("NFC", filename)
    anomalies: set[NameAnomaly] = set()

    if name != name.rstrip():
        anomalies.add(NameAnomaly.TRAILING_WHITESPACE)
    has_bidi = any(c in BIDI_CONTROLS for c in name)
    if has_bidi:
        anomalies.add(NameAnomaly.BIDI_OVERRIDE)
    display_name = render_display(name) if has_bidi else name

    segments = name.split(".")
    if segments and segments[0] == "":
        # A leading dot marks a hidden file; it does not start an extension.
        segments = segments[1:]
    chain = tuple(seg.casefold() for seg in segments[1:])

    logical: str | None = None
    if chain and _EXT_RE.fullmatch(chain[-1]):
        logical = chain[-1]
    else:
        anomalies.add(NameAnomaly.MISSING_EXTENSION)

    if len(chain) >= 2 and chain[-1] in known_exts and chain[-2] in known_exts:
        anomalies.add(NameAnomaly.DOUBLE_EXTENSION)

    if len(segments) >= 2:
        tail = segments[-1]
        if len(_scripts_of(tail)) >= 2:
            anomalies.add(NameAnomaly.MIXED_SCRIPT_EXTENSION)

    return NameReport(
        display_name=display_name,
        logical_extension=logical,
        extension_chain=chain,
        anomalies=frozenset(anomalies),
    )
