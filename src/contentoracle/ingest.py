"""Fetch content over HTTP, persist provenance, and run the full pipeline.

The fetch step captures the three identification-relevant response headers
byte-verbatim, then writes the body and stamps its origin and referrer
through one descriptor. Assessment reads it through that descriptor like any
local file, plus the response's declared type and nosniff header, before the
body takes a sanitized name derived from the URL.
"""

from __future__ import annotations

import http.client
import os
import tempfile
import time
import urllib.error
import urllib.request
from collections import namedtuple
from collections.abc import Iterator
from contextlib import contextmanager
from pathlib import Path
from urllib.parse import quote, unquote, urlsplit, urlunsplit

from .discrepancy_engine import DiscrepancyReport, Evidence
from .errors import ContentOracleError, HttpError, MalformedMime, NetworkError
from .mime_db import MimeType, parse_mime_type
from .name_analyzer import strip_bidi_controls
from .policy_engine import PolicyDecision
from .runtime import Runtime, build_evidence, judge
from .sniffer import EMPTY_REPORT
from .view_registry import (
    AttributeStore,
    CHUNK_SIZE,
    ContentView,
    ORIGIN_KEY,
    REFERRER_KEY,
    opened,
    record_view,
)

INGEST_APP_ID = "contentoracle.ingest"

#: Response headers captured verbatim for identification purposes.
CAPTURED_HEADERS = ("Content-Type", "Content-Disposition", "X-Content-Type-Options")

MAX_REDIRECTS = 5

#: Seconds that connecting, or any one read of the response, may wait.
TIMEOUT = 30.0

#: Largest response body saved, in bytes; a longer one is a network error
#: and leaves no file behind.
MAX_BODY = 1 << 30

_FALLBACK_NAME = "download"

#: Longest file name, in bytes, that common filesystems accept.
NAME_MAX = 255

#: Printable ASCII, left as is when a URL is made sendable; an existing
#: percent-escape therefore stays one escape.
_URI_SAFE = "".join(map(chr, range(0x21, 0x7F)))


class FetchRecord(namedtuple("FetchRecord", "url final_url status headers body_path "
                             "fetched_at sanitizations", defaults=((),))):
    """One completed download plus the metadata identification needs: the
    response's headers by name, the saved body's ``Path``, the time it was
    fetched and the changes made to the name it was saved under."""

    __slots__ = ()


class _BoundedRedirects(urllib.request.HTTPRedirectHandler):
    max_redirections = MAX_REDIRECTS
    inf_msg = "redirect limit exceeded - "  # urllib's prefix to the last status's reason

    def redirect_request(self, req, fp, code, msg, headers, newurl):
        return super().redirect_request(req, fp, code, msg, headers, _request_uri(newurl))


def sanitize_url_filename(url: str) -> tuple[str, tuple[str, ...]]:
    """Destination filename from the URL path's final segment.

    Traversal and display tricks are neutralized: percent-encoding is
    decoded first so smuggled separators cannot survive, directional
    override characters are stripped (and reported), names longer than
    :data:`NAME_MAX` bytes are cut between characters, and dot-only names
    fall back to a fixed placeholder.
    """
    notes: list[str] = []
    segment = urlsplit(url).path.rsplit("/", 1)[-1]
    segment = unquote(segment)
    for sep in ("/", "\\"):
        if sep in segment:
            segment = segment.rsplit(sep, 1)[-1]
            notes.append(f"dropped path components reintroduced by percent-decoding ({sep!r})")
    stripped = strip_bidi_controls(segment)
    if stripped != segment:
        notes.append("stripped directional-override characters")
    segment = "".join(c for c in stripped if ord(c) >= 0x20)
    if len(segment.encode("utf-8", "surrogatepass")) > NAME_MAX:
        segment = segment[:NAME_MAX]
        while len(segment.encode("utf-8", "surrogatepass")) > NAME_MAX:
            segment = segment[:-1]  # cut whole characters, never a UTF-8 sequence
        notes.append("truncated overlong name")
    if segment in ("", ".", ".."):
        segment = _FALLBACK_NAME
        notes.append("empty or dot-only name replaced")
    return segment, tuple(notes)


def _request_uri(url: str) -> str:
    """``url`` with its path and query percent-encoded wherever a character
    cannot go on an HTTP request line (IRI to URI); a ``ValueError`` unless
    it is an http or https URL whose port and host a connection can take."""
    parts = urlsplit(url)
    if parts.scheme not in ("http", "https"):
        raise ValueError(f"not an http or https URL: {url!r}")
    parts.port, (parts.hostname or "").encode("idna")  # each raises ValueError if unusable
    if any(c <= " " or c == "\x7f" for c in unquote(parts.netloc)):  # http.client refuses
        raise ValueError(f"space or control character in host {parts.netloc!r}")
    path = quote(parts.path, safe=_URI_SAFE, errors="surrogateescape")
    query = quote(parts.query, safe=_URI_SAFE, errors="surrogateescape")
    if (path, query) == (parts.path, parts.query):
        return url
    return urlunsplit(parts._replace(path=path, query=query))


@contextmanager
def download(
    url: str,
    dest_dir: str | Path,
    store: AttributeStore,
    referrer: str | None = None,
    now: int | None = None,
) -> Iterator[tuple[FetchRecord, int]]:
    """Download ``url`` into ``dest_dir`` and stamp provenance attributes.

    Yields the record and the body's descriptor, at offset 0; the body takes
    its name when the block ends. Only http and https URLs are fetched, also
    after redirects (to depth 5; the final URL is the origin). An error
    status raises :class:`HttpError`; a redirect elsewhere, a non-HTTP
    response, or a body short of its Content-Length or over :data:`MAX_BODY`
    bytes :class:`NetworkError`. These, a failed stamp's ``OSError`` and an
    error in the block leave no file; an unsendable ``url`` is a usage error."""
    dest_dir = Path(dest_dir)
    opener = urllib.request.build_opener(_BoundedRedirects())
    try:
        request = urllib.request.Request(_request_uri(url))
    except ValueError as exc:  # a usage error: the URL was given, not sent by the server
        raise ContentOracleError(f"cannot fetch {url!r}: {exc}") from None
    if referrer:
        request.add_header("Referer", quote(referrer, safe=_URI_SAFE, errors="surrogateescape"))
    try:
        response = opener.open(request, timeout=TIMEOUT)
    except urllib.error.HTTPError as exc:
        exc.close()  # it holds the response and its socket open
        if 300 <= exc.code < 400:  # over the limit, or to a scheme that urllib refuses
            raise NetworkError(f"redirect refused fetching {url}: {exc.reason}") from exc
        raise HttpError(exc.code, f"HTTP {exc.code} fetching {url}") from exc
    except urllib.error.URLError as exc:
        raise NetworkError(f"cannot fetch {url}: {exc.reason}") from exc
    except http.client.HTTPException as exc:  # a response that is not HTTP
        raise NetworkError(f"cannot fetch {url}: {exc!r}") from exc
    except ValueError as exc:  # a Location that no request may go to
        raise NetworkError(f"redirect refused fetching {url}: {exc}") from exc

    with response:
        final_url = response.geturl()
        status = response.status
        headers = {
            name: response.headers[name]
            for name in CAPTURED_HEADERS
            if response.headers[name] is not None
        }
        name, notes = sanitize_url_filename(final_url)
        dest_dir.mkdir(parents=True, exist_ok=True)
        dest = dest_dir / name
        if dest.resolve().parent != dest_dir.resolve():  # pragma: no cover - sanitizer guarantees this
            raise NetworkError(f"refusing to write outside {dest_dir}")
        # A fresh O_EXCL name: never follows a planted symlink, and concurrent
        # fetches of one name do not share a partial file. The prefix is
        # fixed so a name of NAME_MAX bytes still leaves room for it.
        fd, partial = tempfile.mkstemp(dir=dest_dir, prefix=".contentoracle-", suffix=".part")
        try:
            with os.fdopen(fd, "wb") as out:
                size = 0
                while chunk := response.read(CHUNK_SIZE):
                    size += len(chunk)
                    if size > MAX_BODY:
                        raise NetworkError(f"response from {url} exceeds {MAX_BODY} bytes")
                    out.write(chunk)
                if response.length:  # the stream ended before its Content-Length
                    raise NetworkError(f"response from {url} ended {response.length} bytes short")
                # stamped first: the body appears under its name with its provenance
                store.set(fd, ORIGIN_KEY, final_url.encode("utf-8"))
                if referrer:
                    store.set(fd, REFERRER_KEY, referrer.encode("utf-8", "surrogateescape"))
                out.seek(0)  # written out; mkstemp opened the descriptor for reading too
                yield FetchRecord(url=url, final_url=final_url, status=status, headers=headers,
                                  body_path=dest, sanitizations=notes,
                                  fetched_at=int(time.time()) if now is None else now), fd
            os.replace(partial, dest)
        except BaseException as exc:
            os.unlink(partial)
            if isinstance(exc, http.client.HTTPException):  # a broken chunked body
                raise NetworkError(f"cannot fetch {url}: {exc!r}") from exc
            raise


def fetch(url: str, dest_dir: str | Path, store: AttributeStore,
          referrer: str | None = None, now: int | None = None) -> FetchRecord:
    """The record of a :func:`download` whose body took its name unread."""
    with download(url, dest_dir, store, referrer, now) as (record, _):
        return record


def declared_mime(record: FetchRecord) -> MimeType | None:
    """The parsed Content-Type header, or None when absent or unparseable."""
    raw = record.headers.get("Content-Type")
    if not raw:
        return None
    try:
        return parse_mime_type(raw)
    except MalformedMime:
        return None


def nosniff(record: FetchRecord) -> bool:
    raw = record.headers.get("X-Content-Type-Options", "")
    return "nosniff" in [token.strip().lower() for token in raw.split(",")]


def assess_record(
    record: FetchRecord,
    runtime: Runtime,
    now: int | None = None,
    body: int | None = None,
) -> tuple[Evidence, DiscrepancyReport, PolicyDecision]:
    """Evaluate a fetched artifact and record this pipeline's own view.

    The file's evidence gains what the response adds: its Content-Type as
    the declared type, and, under a nosniff header, an empty sniff report,
    mirroring the browser models. The resulting opinion is written back as
    a content view under the ingest application id, through the descriptor
    the bytes were read through: ``body`` (a :func:`download`'s, at offset
    0), else ``record.body_path`` opened once. The returned evidence is the
    pre-recording snapshot the report was computed from, and the view is
    bound to the digest of the bytes that were assessed.
    """
    with opened(record.body_path if body is None else body) as fd:
        evidence = build_evidence(runtime, record.body_path, fd, always_hash=True)
        evidence = evidence._replace(declared_mime=declared_mime(record))
        if nosniff(record):
            evidence = evidence._replace(sniff=EMPTY_REPORT)
        report, decision = judge(runtime, evidence)
        resolved = report.resolved_mime or MimeType("application", "octet-stream")
        view = ContentView(
            app_id=INGEST_APP_ID,
            mime=resolved,
            active=runtime.active.is_active(resolved),
            content_hash=evidence.content_hash,
            recorded_at=int(time.time()) if now is None else now,
        )
        record_view(runtime.store, fd, view)
    return evidence, report, decision
