"""Seeded synthetic corpus with a record of everything that was planted.

Every file starts with a real magic header and is padded with filler that
cannot contain any signature the sniffer hunts for, so the only second
type a file can carry is the marker planted on purpose. Names come from a
panel of spoofing tricks. Attributes (views, trust, handler policy,
provenance) are written through the package's public API and then some
files are rewritten in place, which makes their views stale and their
trust invalid. The :class:`Planted` record of each file is what the
oracle checks reports against; it is derived from the generator's own
choices, never from the package's output.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from pathlib import Path

KIB = 1024
MIB = 1024 * KIB
CHUNK = MIB

#: Header panel: (mime, header bytes, honest extension). None of these
#: types is active content.
HEADERS = (
    ("image/png", b"\x89PNG\r\n\x1a\n", "png"),
    ("image/gif", b"GIF89a", "gif"),
    ("image/jpeg", b"\xff\xd8\xff", "jpg"),
    ("application/pdf", b"%PDF-", "pdf"),
    ("application/zip", b"PK\x03\x04", "zip"),
    ("audio/ogg", b"OggS", "ogg"),
    ("audio/flac", b"fLaC", "flac"),
    ("application/gzip", b"\x1f\x8b\x08", "gz"),
    ("audio/mpeg", b"ID3", "mp3"),
    ("font/woff", b"wOFF", "woff"),
)

#: Planted second types: (mime, marker bytes).
MARKERS = (
    ("text/javascript", b"<script>"),
    ("text/javascript", b"eval("),
    ("application/zip", b"PK\x03\x04"),
    ("application/x-php", b"<?php"),
    ("application/x-shellscript", b"#!/bin/sh"),
    ("text/html", b"<html>"),
)

# First bytes of every full-content pattern plus the bytes that could
# complete a fixed-offset signature (``ftyp`` at 4, ``ustar`` at 257).
_EXCLUDED = b"#%<Pefu\x7f"
_SAFE = bytes.maketrans(_EXCLUDED, b"\x00" * len(_EXCLUDED))

#: Name panel: kind -> share of files.
NAME_KINDS = (("plain", 60), ("double", 10), ("bidi", 10), ("mixed", 10), ("noext", 10))

APPS = ("viewer", "editor", "browser", "mailer")
HANDLERS = ("viewer", "editor")

#: Fixed clock for every recorded timestamp, so reports are reproducible.
EPOCH = 1_700_000_000

#: Share of the files with views or trust that are rewritten after.
REWRITE_SHARE = 0.3


@dataclass
class Planted:
    """What the generator put into one file, and the attribute state it
    left; the oracle's sole source of truth."""

    rel: str
    size: int
    header_mime: str
    name_kind: str
    anomalies: frozenset[str]
    logical_ext: str | None
    marker_mime: str | None
    header_len: int = 0
    marker_span: tuple[int, int] | None = None
    views: dict[str, bool] = field(default_factory=dict)  # app -> stale
    trust: str | None = None  # None, "valid" or "invalidated"
    policy: tuple[str, ...] | None = None  # None, () for deny-all, or allowed apps
    origin: str | None = None

    def rewritten(self) -> None:
        self.views = {app: True for app in self.views}
        if self.trust is not None:
            self.trust = "invalidated"


def filler(rng: random.Random, n: int) -> bytes:
    return rng.randbytes(n).translate(_SAFE)


def _pick_kind(rng: random.Random) -> str:
    kinds, weights = zip(*NAME_KINDS)
    return rng.choices(kinds, weights)[0]


def make_name(stem: str, kind: str, ext: str) -> tuple[str, frozenset[str], str | None]:
    """(file name, expected anomalies, expected logical extension)."""
    if kind == "plain":
        return f"{stem}.{ext}", frozenset(), ext
    if kind == "double":
        return f"{stem}.{ext}.exe", frozenset({"double_extension"}), "exe"
    if kind == "bidi":
        # U+202E reverses "gpj", so the name renders as if it ended in .jpg
        return f"{stem}\u202egpj.exe", frozenset({"bidi_override"}), "exe"
    if kind == "mixed":
        # Cyrillic U+0440 looks like a Latin "p": not a usable extension
        return f"{stem}.\u0440df", frozenset({"mixed_script_extension", "missing_extension"}), None
    if kind == "noext":
        return stem, frozenset({"missing_extension"}), None
    raise ValueError(f"unknown name kind {kind!r}")


def write_file(path: Path, rng: random.Random, size: int, header: bytes,
               marker: bytes | None, marker_at: int) -> None:
    """Header, filler, and an optional marker, written in bounded chunks so
    generating large files never holds them in memory."""
    with open(path, "wb") as fh:
        fh.write(header)
        pos = len(header)
        pieces = [(marker_at, marker)] if marker is not None else []
        for stop, payload in pieces + [(size, None)]:
            while pos < stop:
                n = min(CHUNK, stop - pos)
                fh.write(filler(rng, n))
                pos += n
            if payload is not None:
                fh.write(payload)
                pos += len(payload)


def generate(base: Path, root: Path, rng: random.Random, count: int, small: tuple[int, int],
             large_count: int = 0, large: tuple[int, int] = (0, 0),
             marker_share: float = 0.5) -> list[Planted]:
    """Write ``count`` files under ``root``; ``large_count`` of them take a
    size from ``large``, the rest from ``small`` (bytes, inclusive). Paths
    are recorded relative to ``base``."""
    root.mkdir(parents=True, exist_ok=True)
    large_ids = set(rng.sample(range(count), large_count))
    planted = []
    for i in range(count):
        mime, header, ext = rng.choice(HEADERS)
        size = rng.randint(*(large if i in large_ids else small))
        kind = _pick_kind(rng)
        name, anomalies, logical = make_name(f"f{i:05d}", kind, ext)
        marker_mime, marker, marker_at = None, None, 0
        if rng.random() < marker_share:
            choices = [m for m in MARKERS if m[0] != mime]
            marker_mime, marker = rng.choice(choices)
            marker_at = rng.randint(len(header), size - len(marker))
        write_file(root / name, rng, size, header, marker, marker_at)
        planted.append(Planted(
            rel=(root / name).relative_to(base).as_posix(), size=size, header_mime=mime, name_kind=kind,
            anomalies=anomalies, logical_ext=logical, marker_mime=marker_mime,
            header_len=len(header),
            marker_span=(marker_at, marker_at + len(marker)) if marker else None,
        ))
    return planted


def rewrite(path: Path, p: Planted) -> None:
    """Change one filler byte in place: same inode, new content hash."""
    span = p.marker_span
    at = p.header_len if span is None or span[0] > p.header_len else p.size - 1
    with open(path, "r+b") as fh:
        fh.seek(at)
        old = fh.read(1)
        fh.seek(at)
        fh.write(b"\x01" if old == b"\x00" else b"\x00")
    p.rewritten()


def sha256_file(path: Path) -> bytes:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(CHUNK), b""):
            digest.update(chunk)
    return digest.digest()


class Planter:
    """Writes attributes through the package's public API and keeps each
    file's :class:`Planted` record in step with what was written."""

    def __init__(self, store, base: Path):
        from contentoracle import policy_engine, view_registry
        from contentoracle.mime_db import parse_mime_type

        self.store = store
        self.base = base
        self.vr = view_registry
        self.pe = policy_engine
        self.parse = parse_mime_type
        self.writes = 0

    def path(self, p: Planted) -> Path:
        return self.base / p.rel

    def views(self, p: Planted, apps, t: int) -> None:
        """Replace the whole views value with fresh views by ``apps``."""
        digest = sha256_file(self.path(p))
        views = [
            self.vr.ContentView(app, self.parse(p.header_mime), False, digest, t)
            for app in apps
        ]
        self.store.set(self.path(p), self.vr.VIEWS_KEY, self.vr.encode_views(views))
        p.views = {app: False for app in apps}
        self.writes += 1

    def trust(self, p: Planted, trusted: bool, t: int) -> None:
        self.vr.set_trust(self.store, self.path(p), trusted, now=t)
        p.trust = "valid"
        self.writes += 1

    def policy(self, p: Planted, allowed: tuple[str, ...]) -> None:
        policy = self.pe.DENY_ALL if not allowed else self.pe.HandlerPolicy(allowed=allowed)
        self.pe.set_handler_policy(self.store, self.path(p), policy)
        p.policy = allowed
        self.writes += 1

    def origin(self, p: Planted, url: str) -> None:
        self.store.set(self.path(p), self.vr.ORIGIN_KEY, url.encode("utf-8"))
        self.store.set(self.path(p), self.vr.REFERRER_KEY, b"https://example.test/")
        p.origin = url
        self.writes += 2

    def random_write(self, rng: random.Random, p: Planted, t: int) -> None:
        """One attribute write of a kind drawn from ``rng``."""
        kind = rng.randrange(4)
        if kind == 0:
            self.views(p, sorted(rng.sample(APPS, rng.randint(1, 3))), t)
        elif kind == 1:
            self.trust(p, rng.random() < 0.7, t)
        elif kind == 2:
            self.policy(p, () if rng.random() < 0.5 else ("viewer",))
        else:
            self.origin(p, f"https://cdn.example.test/{rng.randrange(10**6)}/{p.rel}")


def plant_attributes(planter: Planter, rng: random.Random, planted: list[Planted],
                     share: float, writes: int | None = None) -> list[Planted]:
    """Give ``share`` of the files attributes, then rewrite ``REWRITE_SHARE``
    of those with views or trust.

    With ``writes`` set, keep writing attributes to the chosen files until
    that many writes were made (older values are superseded, as they are
    for a long-lived file). Returns the files that received attributes.
    """
    chosen = [p for p in planted if rng.random() < share]
    for n, p in enumerate(chosen):
        planter.random_write(rng, p, EPOCH + n)
    if writes is not None:
        n = len(chosen)
        while planter.writes < writes:
            planter.random_write(rng, rng.choice(chosen), EPOCH + n)
            n += 1
    for p in chosen:
        if (p.views or p.trust) and rng.random() < REWRITE_SHARE:
            rewrite(planter.path(p), p)
    return chosen
