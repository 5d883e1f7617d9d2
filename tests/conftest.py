"""Shared fixtures: backend-parametrized stores, an xattr-capable scratch
directory, the bundled runtime, a loopback HTTP server, a raw loopback
socket that answers verbatim, and the polyglot corpus used by both the
unit and acceptance suites."""

from __future__ import annotations

import io
import shutil
import socket
import tempfile
import threading
import zipfile
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from contentoracle.config import Config
from contentoracle.runtime import Runtime
from contentoracle.view_registry import (
    AttributeStore,
    SidecarStore,
    XattrStore,
    xattrs_supported,
)


def _find_xattr_base() -> Path | None:
    for base in (Path(tempfile.gettempdir()), Path("/dev/shm")):
        if base.is_dir() and xattrs_supported(base):
            return base
    return None


XATTR_BASE = _find_xattr_base()


@pytest.fixture(scope="session")
def runtime(tmp_path_factory) -> Runtime:
    """Bundled data, sidecar-backed store in a session temp directory."""
    sidecar = tmp_path_factory.mktemp("sidecar") / "journal.jsonl"
    return Runtime.load(Config(sidecar_path=sidecar, backend="sidecar"))


@pytest.fixture
def xattr_dir():
    """A scratch directory on a filesystem with working user xattrs."""
    if XATTR_BASE is None:
        pytest.skip("no xattr-capable filesystem available in this environment")
    path = Path(tempfile.mkdtemp(prefix="contentoracle-", dir=XATTR_BASE))
    yield path
    shutil.rmtree(path, ignore_errors=True)


@dataclass
class Backend:
    name: str
    store: AttributeStore
    workdir: Path


@pytest.fixture(params=["sidecar", "xattr"])
def backend(request, tmp_path) -> Backend:
    """The same black-box suite runs against both persistence backends."""
    if request.param == "sidecar":
        return Backend("sidecar", SidecarStore(tmp_path / "journal.jsonl"), tmp_path)
    if XATTR_BASE is None:
        pytest.skip("no xattr-capable filesystem available in this environment")
    workdir = Path(tempfile.mkdtemp(prefix="contentoracle-", dir=XATTR_BASE))
    request.addfinalizer(lambda: shutil.rmtree(workdir, ignore_errors=True))
    overflow = SidecarStore(workdir / "overflow.jsonl")
    return Backend("xattr", XattrStore(overflow=overflow), workdir)


# --- polyglot corpus ---------------------------------------------------------


def zip_with_script() -> bytes:
    """A valid ZIP whose stored (uncompressed) member is executable script."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
        zf.writestr("payload.js", "eval(atob('YWxlcnQoMSk='));\n")
    return buf.getvalue()


def polyglot_corpus() -> dict[str, tuple[str, bytes]]:
    """Five hand-built polyglot classes: display name -> (filename, bytes)."""
    gif = b"GIF89a\x10\x00\x10\x00\x80\x00\x00"
    jpeg = b"\xff\xd8\xff\xe0\x00\x10JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
    png = b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR"
    return {
        "gif-script": (
            "banner.gif",
            gif + b"/* trailer */ =1;eval(atob('aGkoKQ=='));",
        ),
        "prefix-tolerant-archive": (
            "texture.png",
            png + b"\x00" * 40 + b"PK\x03\x04" + zip_with_script()[4:],
        ),
        "script-in-image-comment": (
            "photo.jpg",
            jpeg + b"\xff\xfe\x00\x22<script>leak(document)</script>" + b"\xff\xd9",
        ),
        "html-in-text": (
            "notes.txt",
            b"\xef\xbb\xbfDear user,\nplease open:\n<html><script>go()</script></html>\n",
        ),
        "header-after-padding": (
            "clip.gif",
            gif + b"\x00" * 9000 + b"PK\x03\x04" + b"\x14\x00\x00\x00",
        ),
    }


@pytest.fixture(scope="session")
def corpus() -> dict[str, tuple[str, bytes]]:
    return polyglot_corpus()


# --- loopback HTTP fixture server -------------------------------------------


class _FixtureHandler(BaseHTTPRequestHandler):
    server_version = "FixtureServer/1.0"

    def do_GET(self):
        route = self.server.routes.get(self.path)
        if route is None:
            self.send_response(404)
            self.end_headers()
            return
        status, headers, body = route
        self.send_response(status)
        for name, value in headers:
            self.send_header(name, value)
        if not any(name.lower() == "content-length" for name, _ in headers):
            self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class FixtureServer:
    def __init__(self):
        self.httpd = ThreadingHTTPServer(("127.0.0.1", 0), _FixtureHandler)
        self.httpd.routes = {}
        self.thread = threading.Thread(target=self.httpd.serve_forever, daemon=True)
        self.thread.start()

    @property
    def base(self) -> str:
        host, port = self.httpd.server_address
        return f"http://{host}:{port}"

    def url(self, path: str) -> str:
        return self.base + path

    def add(self, path: str, body: bytes, headers: list[tuple[str, str]] | None = None,
            status: int = 200) -> str:
        self.httpd.routes[path] = (status, headers or [], body)
        return self.url(path)

    def add_redirect(self, path: str, location: str) -> str:
        self.httpd.routes[path] = (302, [("Location", location)], b"")
        return self.url(path)

    def close(self):
        self.httpd.shutdown()
        self.httpd.server_close()


@pytest.fixture(scope="session")
def http_server():
    server = FixtureServer()
    yield server
    server.close()


def _answer_once(listener: socket.socket, reply: bytes) -> None:
    with listener:
        try:
            conn, _ = listener.accept()
        except OSError:  # nobody connected before the timeout
            return
        with conn:
            request = b""
            while b"\r\n\r\n" not in request:  # read it all, or closing sends a reset
                if not (data := conn.recv(4096)):
                    break
                request += data
            conn.sendall(reply)


@pytest.fixture
def raw_http():
    """``serve(reply)``: the URL of a loopback socket that answers one request
    with ``reply`` verbatim and closes, for responses no HTTP server sends."""
    threads = []

    def serve(reply: bytes) -> str:
        listener = socket.create_server(("127.0.0.1", 0))
        listener.settimeout(30)
        thread = threading.Thread(target=_answer_once, args=(listener, reply), daemon=True)
        thread.start()
        threads.append(thread)
        return "http://127.0.0.1:%d/raw/f.bin" % listener.getsockname()[1]

    yield serve
    for thread in threads:
        thread.join(timeout=30)
