"""Golden stdout of the commands that print JSON: every document the CLI
prints, byte for byte, pinned in ``cli_golden_reports.txt``.

The steps run in order in one working directory, against the sidecar
backend, with ``--now`` pinned and relative paths, so the transcript
depends on the program alone. Each command is a
``### [exit N] contentoracle <args>`` line followed by its stdout; a file
rewritten between commands is a ``### write <name>`` line. ``browser
diff`` (about 1.26 MB) is pinned by the sha256 of its stdout. ``fetch``
downloads from the loopback fixture server, whose origin the steps and
the transcript write as :data:`ORIGIN`, so its port never shows.
"""

from __future__ import annotations

import contextlib
import gzip
import hashlib
import io
import json
import shlex
import shutil
import zipfile
from pathlib import Path

from contentoracle.cli import main
from contentoracle.config import DATA_DIR

GOLDEN = Path(__file__).parent / "cli_golden_reports.txt"

COMMON = ("--config", "config.json", "--now", "1700000000")

#: The two contents of ``doc.pdf``: the second makes its views stale and its trust void.
PDF = b"%PDF-1.4 body\n"
PDF_EDITED = b"%PDF-1.4 edited body\n"


def _zip_with_script() -> bytes:
    """A stored ZIP holding a script, with a fixed member timestamp."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w", zipfile.ZIP_STORED) as zf:
        zf.writestr(zipfile.ZipInfo("payload.js", date_time=(1980, 1, 1, 0, 0, 0)),
                    "eval(atob('YWxlcnQoMSk='));\n")
    return buf.getvalue()


#: The directory tree ``scan`` walks: polyglots, a plain file, name tricks.
INBOX = {
    "banner.gif": b"GIF89a\x10\x00\x10\x00\x80\x00\x00/* trailer */ =1;eval(atob('aGkoKQ=='));",
    "photo.jpg": b"\xff\xd8\xff\xe0\x00\x10JFIF\x00\x01\x01\x00\x00\x01\x00\x01\x00\x00"
                 b"\xff\xfe\x00\x22<script>leak(document)</script>\xff\xd9",
    "notes.txt": b"\xef\xbb\xbfDear user,\nplease open:\n<html><script>go()</script></html>\n",
    "clip.gif": b"GIF89a\x10\x00\x10\x00\x80\x00\x00" + b"\x00" * 9000 + b"PK\x03\x04\x14\x00",
    "plain.txt": b"just words\n",
    "invoice\u202efdp.exe": b"MZ\x90\x00\x03\x00\x00\x00",
    "sub/report.pdf.exe": b"%PDF-1.4 not really\n",
}

#: The fixture server's origin as the steps and the transcript write it.
ORIGIN = "http://origin.test"

#: Served by the fixture server at each path: criterion 9's payload, a ZIP
#: holding a script, with no extension and declared a PDF, once plainly and
#: once with ``nosniff``.
DOWNLOADS = {
    "/golden/plain/invoice": [("Content-Type", "application/pdf")],
    "/golden/nosniff/invoice": [("Content-Type", "application/pdf"),
                                ("X-Content-Type-Options", "nosniff")],
}

RUN_CTX = json.dumps({"content_type": "application/pdf", "extension_mime": "application/pdf",
                      "auto_download": True})
SNIFF_CTX = json.dumps({"sniffed_mime": "text/html", "content_type": "text/plain",
                        "nosniff": True, "content_disposition": "attachment"})

#: Each step is a command line, or ``(name, bytes)`` to (re)write a file.
STEPS = [
    "identify doc.pdf",
    "identify payload.pdf",
    "check doc.pdf",
    "check payload.pdf",
    "check notes.tar.gz",
    "view record doc.pdf --app viewer --mime application/pdf --note 'first look'",
    "view record doc.pdf --app editor --mime text/html --active",
    "view list doc.pdf",
    "check doc.pdf",
    "trust set doc.pdf trusted",
    "trust get doc.pdf",
    "check doc.pdf",
    "policy handlers set doc.pdf --apps viewer,reader",
    "policy handlers get doc.pdf",
    "check doc.pdf --handler viewer",
    "check doc.pdf --handler editor",
    "policy handlers set payload.pdf --deny-all",
    "policy handlers get payload.pdf",
    "check payload.pdf --handler viewer",
    ("doc.pdf", PDF_EDITED),
    "view list doc.pdf",
    "trust get doc.pdf",
    "check doc.pdf --handler viewer",
    "scan inbox",
    f"browser run firefox-like --ctx {shlex.quote(RUN_CTX)}",
    f"browser run opera-like --ctx {shlex.quote(SNIFF_CTX)}",
    "browser diff firefox-like opera-like",
    "db stats mime.types",
    f"fetch {ORIGIN}/golden/plain/invoice --out plain",
    f"fetch {ORIGIN}/golden/nosniff/invoice --out nosniff",
]


def transcript(http_server) -> str:
    """Run :data:`STEPS` in the current directory, which should be empty,
    with :data:`DOWNLOADS` served by ``http_server``, and return what
    they printed."""
    for route, headers in DOWNLOADS.items():
        http_server.add(route, _zip_with_script(), headers=headers)
    Path("config.json").write_text(json.dumps({"sidecar_path": "sidecar.sqlite3",
                                               "backend": "sidecar"}))
    Path("doc.pdf").write_bytes(PDF)
    Path("payload.pdf").write_bytes(_zip_with_script())
    Path("notes.tar.gz").write_bytes(gzip.compress(b"inner", mtime=0))
    for name, data in INBOX.items():
        path = Path("inbox", name)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(data)
    shutil.copyfile(DATA_DIR / "mime.snapshot.types", "mime.types")

    parts = []
    for step in STEPS:
        if isinstance(step, tuple):
            name, data = step
            Path(name).write_bytes(data)
            parts.append(f"### write {name}\n")
            continue
        args = shlex.split(step)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main([*COMMON, *(arg.replace(ORIGIN, http_server.base) for arg in args)])
        text = out.getvalue().replace(http_server.base, ORIGIN)
        if args[:2] == ["browser", "diff"]:
            text = f"sha256 {hashlib.sha256(text.encode('utf-8')).hexdigest()}\n"
        parts.append(f"### [exit {code}] contentoracle {shlex.join([*COMMON, *args])}\n{text}")
    return "".join(parts)


def test_report_bytes_are_golden(tmp_path, monkeypatch, http_server):
    monkeypatch.chdir(tmp_path)
    assert transcript(http_server) == GOLDEN.read_text("utf-8")
