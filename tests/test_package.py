"""The package surface: every public name resolves as it always has, and
the HTTP stack and the browser models load only where they are used."""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path
from unittest.mock import ANY

import pytest

import contentoracle

#: Every public name of the package when all of its submodules loaded eagerly.
PUBLIC_NAMES = [
    "Action", "ActiveRegistry", "AutoStore", "Config", "ContentView", "DecisionTree",
    "Discrepancy", "DiscrepancyKind", "DiscrepancyReport", "Evidence", "ExtensionMap",
    "FetchRecord", "HandlerPolicy", "MimeType", "NameAnomaly", "NameReport",
    "PolicyDecision", "Provenance", "RegistrationClass", "RequestContext", "Runtime",
    "Severity", "SidecarStore", "Signature", "SignatureDb", "SniffReport", "TrustState",
    "Verdict", "XattrStore", "analyze_name", "assess_path", "browser_model",
    "build_evidence", "classify_registration", "config", "content_identity", "db_stats",
    "decide", "differential", "discrepancy_engine", "enumerate_grid", "errors", "evaluate",
    "fetch", "get_trust", "ingest", "is_text", "load_active_registry", "load_config",
    "load_extension_map", "load_signatures", "load_tree", "mime_db", "name_analyzer",
    "parse_mime_type", "policy_engine", "read_views", "record_view", "run", "runtime",
    "set_handler_policy", "set_trust", "sniff", "sniffer", "view_registry",
]

#: Names that load their submodule on first use -> that submodule.
LAZY_NAMES = {
    "fetch": "ingest", "FetchRecord": "ingest",
    **dict.fromkeys(["run", "load_tree", "differential", "enumerate_grid", "Action",
                     "DecisionTree", "RequestContext"], "browser_model"),
}

#: What only ``fetch`` (the HTTP, e-mail and TLS stack), the browser
#: commands, or a write to the sidecar database need.
HEAVY = [
    "contentoracle.ingest", "contentoracle.browser_model", "urllib.request",
    "http.client", "email.parser", "ssl", "sqlite3",
]

#: What only a digest (OpenSSL's ``hashlib``), a write's lock or a
#: quarantine value's encoding need.
ON_FIRST_USE = ["_hashlib", "base64", "fcntl", "hashlib"]

#: Commands on one file, or a tree holding it, that read the store only.
FILE_COMMANDS = [
    ["check", "a.pdf"],
    ["check", "a.pdf", "--handler", "viewer"],
    ["identify", "a.pdf"],
    ["scan", "."],
    ["view", "list", "a.pdf"],
    ["trust", "get", "a.pdf"],
    ["policy", "handlers", "get", "a.pdf"],
]

#: Runs the CLI in this interpreter, then prints its exit code and every
#: module it has loaded.
_RUN_CLI = """
    import contextlib, io, json, sys
    from contentoracle.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        code = main(sys.argv[1:])
    print(json.dumps({"code": code, "modules": sorted(sys.modules)}))
"""


class TestPublicNames:
    def test_every_name_resolves(self):
        assert [name for name in PUBLIC_NAMES if not hasattr(contentoracle, name)] == []

    def test_lazy_names_are_the_submodule_objects(self):
        for name, module in LAZY_NAMES.items():
            assert getattr(contentoracle, name) is getattr(getattr(contentoracle, module), name)

    def test_star_import_binds_every_name(self):
        namespace: dict = {}
        exec("from contentoracle import *", namespace)
        assert set(PUBLIC_NAMES) <= set(namespace)
        assert sorted(contentoracle.__all__) == sorted(PUBLIC_NAMES)

    def test_dir_lists_every_name(self):
        assert set(PUBLIC_NAMES) <= set(dir(contentoracle))

    def test_unknown_name_raises_attribute_error(self):
        with pytest.raises(AttributeError, match="nonexistent"):
            contentoracle.nonexistent
        assert not hasattr(contentoracle, "nonexistent")


def _env(tmp_path: Path) -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(Path(contentoracle.__file__).parents[1]),
               HOME=str(tmp_path / "home"), XDG_STATE_HOME=str(tmp_path / "state"),
               XDG_CONFIG_HOME=str(tmp_path / "config"))
    env.pop("CONTENTORACLE_CONFIG", None)
    return env


def _python(tmp_path: Path, *args: str) -> str:
    proc = subprocess.run([sys.executable, *args], env=_env(tmp_path), cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _cli_modules(tmp_path: Path, *argv: str) -> tuple[int, set[str]]:
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"sidecar_path": str(tmp_path / "sidecar.sqlite3"),
                                  "backend": "sidecar"}))
    out = _python(tmp_path, "-c", textwrap.dedent(_RUN_CLI), "--config", str(config), *argv)
    doc = json.loads(out.splitlines()[-1])
    return doc["code"], set(doc["modules"])


@pytest.fixture
def site_modules(tmp_path) -> set[str]:
    """Modules a bare interpreter loads on this machine before any package code."""
    return set(_python(tmp_path, "-c", "import sys; print('\\n'.join(sys.modules))").split())


class TestImportGuard:
    @pytest.mark.parametrize("argv", FILE_COMMANDS, ids=" ".join)
    def test_file_commands_skip_http_browser_and_sqlite(self, tmp_path, site_modules, argv):
        (tmp_path / "a.pdf").write_bytes(b"%PDF-1.7\n1 0 obj\n<<>>\nendobj\n%%EOF\n")
        code, modules = _cli_modules(tmp_path, *argv)
        assert code in (0, 1, 2)
        assert sorted(set(HEAVY) & (modules - site_modules)) == []

    @pytest.mark.parametrize("argv", FILE_COMMANDS, ids=" ".join)
    def test_file_without_views_or_trust_skips_hashing_locking_and_base64(
            self, tmp_path, site_modules, argv):
        (tmp_path / "a.pdf").write_bytes(b"%PDF-1.7\n1 0 obj\n<<>>\nendobj\n%%EOF\n")
        code, modules = _cli_modules(tmp_path, *argv)
        assert code in (0, 1, 2)
        assert sorted(set(ON_FIRST_USE) & (modules - site_modules)) == []

    def test_check_of_a_trusted_file_loads_openssl_hashlib(self, tmp_path, site_modules):
        # HTML named .pdf: denied unset, downgraded to a warning by a trust
        # record that only a digest of the file can match
        (tmp_path / "a.pdf").write_bytes(b"<html><script>alert(1)</script></html>")
        code, modules = _cli_modules(tmp_path, "check", "a.pdf")
        assert code == 2
        assert sorted(set(ON_FIRST_USE) & (modules - site_modules)) == []
        assert _cli_modules(tmp_path, "trust", "set", "a.pdf", "trusted")[0] == 0
        code, modules = _cli_modules(tmp_path, "check", "a.pdf")
        assert code == 1
        assert {"hashlib", "_hashlib"} <= modules
        # another file in the same sidecar holds no record: no digest
        (tmp_path / "b.pdf").write_bytes(b"%PDF-1.7\n1 0 obj\n<<>>\nendobj\n%%EOF\n")
        code, modules = _cli_modules(tmp_path, "check", "b.pdf")
        assert code == 0
        assert sorted(set(ON_FIRST_USE) & (modules - site_modules)) == []

    def test_browser_diff_loads_models_not_http(self, tmp_path, site_modules):
        code, modules = _cli_modules(tmp_path, "browser", "diff", "firefox-like", "opera-like")
        assert code == 0
        assert "contentoracle.browser_model" in modules
        assert sorted({"contentoracle.ingest", "urllib.request", "http.client"}
                      & (modules - site_modules)) == []

    def test_package_name_loads_its_submodule_on_first_use(self, tmp_path):
        script = """
            import sys
            import contentoracle
            before = "contentoracle.ingest" in sys.modules
            fetch = contentoracle.fetch
            print(before, "contentoracle.ingest" in sys.modules,
                  fetch is sys.modules["contentoracle.ingest"].fetch)
            before = "contentoracle.browser_model" in sys.modules
            print(before, contentoracle.browser_model is sys.modules["contentoracle.browser_model"])
        """
        assert _python(tmp_path, "-c", textwrap.dedent(script)).split() == [
            "False", "True", "True", "False", "True"]


#: Counts the ``typing.ForwardRef`` and ``argparse.ArgumentParser`` objects
#: that importing the CLI and running it in this interpreter create, then
#: prints them and the exit code.
_COUNT_CLI = """
    import argparse, contextlib, io, json, sys, typing
    counts = {"code": None, "ForwardRef": 0, "ArgumentParser": 0}
    for cls in (typing.ForwardRef, argparse.ArgumentParser):
        def counting(self, *args, _init=cls.__init__, _name=cls.__name__, **kwargs):
            counts[_name] += 1
            _init(self, *args, **kwargs)
        cls.__init__ = counting
    from contentoracle.cli import main
    with contextlib.redirect_stdout(io.StringIO()):
        counts["code"] = main(sys.argv[1:])
    print(json.dumps(counts))
"""


class TestColdCheck:
    """A ``check`` in a fresh process creates only what it uses."""

    @pytest.fixture
    def counts(self, tmp_path) -> dict:
        (tmp_path / "a.pdf").write_bytes(b"%PDF-1.7\n1 0 obj\n<<>>\nendobj\n%%EOF\n")
        out = _python(tmp_path, "-c", textwrap.dedent(_COUNT_CLI), "check", "a.pdf")
        counts = json.loads(out.splitlines()[-1])
        assert counts["code"] == 0
        return counts

    def test_records_compile_no_annotation(self, counts):
        assert counts["ForwardRef"] == 0

    def test_only_the_parser_of_the_command_is_created(self, counts):
        assert counts["ArgumentParser"] == 2  # the top-level parser and check's


def _records() -> list:
    """One instance of each value record: a subclass of a ``collections.namedtuple``."""
    from contentoracle.browser_model import Action, DecisionTree, Leaf, Predicate, RequestContext
    from contentoracle.config import Config
    from contentoracle.discrepancy_engine import (
        Discrepancy, DiscrepancyKind, DiscrepancyReport, Evidence, Severity,
    )
    from contentoracle.ingest import FetchRecord
    from contentoracle.mime_db import ExtensionMap, FamilyStats, MalformedLine, parse_mime_type
    from contentoracle.name_analyzer import analyze_name
    from contentoracle.policy_engine import (
        ActiveRegistry, HandlerPolicy, PolicyDecision, Verdict,
    )
    from contentoracle.runtime import Runtime
    from contentoracle.sniffer import EMPTY_REPORT, Candidate, Signature, _ScanPlan, load_signatures
    from contentoracle.view_registry import (
        VERSION, ContentView, FlaggedView, Provenance, SidecarStore,
    )

    mime = parse_mime_type("text/plain")
    name = analyze_name("a.txt", frozenset({"txt"}))
    view = ContentView("viewer", mime, False, bytes(32), 0)
    leaf = Leaf(Action.RENDER)
    return [
        MalformedLine(1, "x", "bad"), FamilyStats(), _ScanPlan.build(()),
        Candidate(mime, "text", 4, 0), EMPTY_REPORT, name,
        FlaggedView(view, stale=False), Provenance(),
        Discrepancy(DiscrepancyKind.POLYGLOT, Severity.INFO, "detail"),
        Evidence(None, EMPTY_REPORT, None, (), name, Provenance()),
        DiscrepancyReport((), None), ActiveRegistry(), HandlerPolicy(),
        PolicyDecision(Verdict.ALLOW, ()),
        mime, ExtensionMap(), Signature("text", mime, 0, b"hi"), view, Config(),
        Runtime(ExtensionMap(), load_signatures(""), ActiveRegistry(),
                SidecarStore("sidecar.sqlite3"), Path("models")),
        RequestContext(), leaf, Predicate("nosniff", "is", True, leaf, leaf),
        DecisionTree("tree", leaf),
        FetchRecord("http://h/f", "http://h/f", 200, {}, Path("f"), 0), VERSION,
    ]


def _record_fields() -> dict[str, tuple[str, dict]]:
    """Each record's fields, and the defaults of those that have one."""
    from contentoracle.browser_model import Disposition
    from contentoracle.config import DATA_DIR
    from contentoracle.view_registry import TrustState

    return {
        "MalformedLine": ("line_no line reason", {}),
        "FamilyStats": ("official unofficial_subtype unknown_family",
                        {"official": 0, "unofficial_subtype": 0, "unknown_family": 0}),
        "_ScanPlan": ("header groups credits carry", {}),
        "Candidate": ("mime signature weight offset", {}),
        "SniffReport": ("candidates is_polyglot text_fallback bytes_examined", {}),
        "NameReport": ("display_name logical_extension extension_chain anomalies", {}),
        "FlaggedView": ("view stale", {}),
        "Provenance": ("origin_url referrer_url quarantine",
                       {"origin_url": None, "referrer_url": None, "quarantine": None}),
        "Discrepancy": ("kind severity detail sources", {"sources": ()}),
        "Evidence": ("extension_mime sniff declared_mime views name_report provenance "
                     "content_hash trust policy",
                     {"content_hash": None, "trust": TrustState.UNSET, "policy": None}),
        "DiscrepancyReport": ("discrepancies resolved_mime", {}),
        "ActiveRegistry": ("base_active", {"base_active": frozenset()}),
        "HandlerPolicy": ("allowed deny_all", {"allowed": (), "deny_all": False}),
        "PolicyDecision": ("verdict reasons", {}),
        "MimeType": ("family subtype parameters", {}),
        "ExtensionMap": ("entries type_set", {"entries": {}, "type_set": frozenset()}),
        "Signature": ("name mime offset pattern mask weight polyglot_relevant", {}),
        "ContentView": ("app_id mime active content_hash recorded_at note", {}),
        "Config": ("mime_types_path magic_path active_types_path models_dir sidecar_path backend",
                   {"mime_types_path": DATA_DIR / "mime.snapshot.types",
                    "magic_path": DATA_DIR / "magic.signatures",
                    "active_types_path": DATA_DIR / "active.types",
                    "models_dir": DATA_DIR / "models", "sidecar_path": None, "backend": "auto"}),
        "Runtime": ("ext_map sig_db active store models_dir", {}),
        "RequestContext": ("sniffed_mime extension_mime content_type content_disposition "
                           "nosniff auto_download auto_open",
                           {"sniffed_mime": None, "extension_mime": None, "content_type": None,
                            "content_disposition": Disposition.NONE, "nosniff": False,
                            "auto_download": False, "auto_open": False}),
        "Leaf": ("action", {}),
        "Predicate": ("field op value yes no", {}),
        "DecisionTree": ("name root", {}),
        "FetchRecord": ("url final_url status headers body_path fetched_at sanitizations",
                        {"sanitizations": ()}),
        "Field": ("must_be accepts load dump required",
                  {"load": ANY, "dump": ANY, "required": True}),
    }


class TestRecordContract:
    """What code may rely on of every record, whichever way it is defined."""

    @pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
    def test_fields_and_defaults(self, record):
        fields, defaults = _record_fields()[type(record).__name__]
        assert record._fields == tuple(fields.split())
        assert type(record)._field_defaults == defaults

    @pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
    def test_replace_and_asdict_round_trip(self, record):
        copy = record._replace(**record._asdict())
        assert type(copy) is type(record)
        assert tuple(copy) == tuple(record)
        assert list(record._asdict()) == list(record._fields)

    @pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
    def test_equals_and_hashes_as_a_plain_tuple(self, record):
        values = tuple(record)
        assert record == values and values == record
        try:
            expected = hash(values)
        except TypeError:  # a dict or a mapping among the values
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == expected

    @pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
    def test_module_names_it_and_it_has_a_docstring(self, record):
        cls = type(record)
        assert cls.__module__.startswith("contentoracle.")
        assert getattr(importlib.import_module(cls.__module__), cls.__name__) is cls
        assert cls.__doc__ and cls.__doc__.strip()


class TestRecords:
    @pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
    def test_refuses_assignment(self, record):
        assert len(record._fields) >= 1  # a record is never an empty, falsy tuple
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, None)
        with pytest.raises(AttributeError):
            record.extra = None

    @pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
    def test_repr_names_each_field(self, record):
        if type(record).__name__ == "MimeType":
            assert repr(record) == "MimeType('text/plain')"
            return
        fields = ", ".join(f"{field}={value!r}" for field, value in record._asdict().items())
        assert repr(record) == f"{type(record).__name__}({fields})"

    def test_signature_db_is_frozen(self):
        from contentoracle.sniffer import load_signatures

        db = load_signatures("gif | image/gif | 0 | 474946 | - | - | 0")
        for name in ("signatures", "extra"):
            with pytest.raises(AttributeError):
                setattr(db, name, None)
        with pytest.raises(AttributeError):
            del db.signatures
        assert repr(db) == f"SignatureDb(signatures={db.signatures!r})"

    @pytest.mark.parametrize("argv", [
        ["check", "a.pdf"],
        ["browser", "diff", "firefox-like", "opera-like"],
    ], ids=" ".join)
    def test_cli_imports_neither_dataclasses_nor_inspect(self, tmp_path, argv):
        (tmp_path / "a.pdf").write_bytes(b"%PDF-1.7\n1 0 obj\n<<>>\nendobj\n%%EOF\n")
        code, modules = _cli_modules(tmp_path, *argv)
        assert code == 0
        assert sorted({"dataclasses", "inspect"} & modules) == []


def test_every_data_file_is_installed():
    """Every file under the package's ``data/`` matches a package-data glob
    of ``pyproject.toml``. The tests run the package from ``src/``, so a file
    the globs miss would pass them and be absent from every install, where
    ``check`` needs it."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    root = Path(__file__).parents[1]
    pyproject = tomllib.loads((root / "pyproject.toml").read_text("utf-8"))
    globs = pyproject["tool"]["setuptools"]["package-data"]["contentoracle"]
    package = root / "src" / "contentoracle"
    data = {path for path in (package / "data").rglob("*")
            if path.is_file() and "__pycache__" not in path.parts}
    installed = {path for pattern in globs for path in package.glob(pattern)}
    assert data  # the walk found the bundled data
    assert sorted(str(path.relative_to(package)) for path in data - installed) == []


def test_no_bidi_control_in_package_source():
    """No module of the package holds a literal directional formatting
    character (U+202A-U+202E, U+2066-U+2069): it reorders how the source
    reads in review (Trojan Source, CVE-2021-42574). Write it as an escape."""
    from contentoracle.name_analyzer import BIDI_CONTROLS

    package = Path(__file__).parents[1] / "src" / "contentoracle"
    assert sorted(path.name for path in package.glob("*.py")
                  if BIDI_CONTROLS & set(path.read_text("utf-8"))) == []
