"""contentoracle: unified, cross-application content identification.

A file's type is attested by several independent sources: its extension,
its magic bytes, whatever a server declared when it was downloaded, and the
recorded opinions of the applications that handled it. This package parses
and cross-checks all of them, persists per-application views and trust
state in extended file attributes (with a portable sidecar fallback),
models browser handling decisions as data-driven trees, and turns the
resulting discrepancies into allow/warn/deny verdicts.

The browser-model names (``run``, ``load_tree``, ``differential`` and the
rest) and ``fetch``/``FetchRecord`` load their submodule on first use, so
importing the package, or running ``check``, ``identify`` or ``scan``, never
imports the HTTP, e-mail and TLS stack that ``fetch`` needs.
"""

from .mime_db import (
    ExtensionMap,
    MimeType,
    RegistrationClass,
    classify_registration,
    db_stats,
    load_extension_map,
    parse_mime_type,
)
from .sniffer import Signature, SignatureDb, SniffReport, is_text, load_signatures, sniff
from .name_analyzer import NameAnomaly, NameReport, analyze_name
from .view_registry import (
    AutoStore,
    ContentView,
    Provenance,
    SidecarStore,
    TrustState,
    XattrStore,
    content_identity,
    get_trust,
    read_provenance,
    read_views,
    record_view,
    set_trust,
)
from .discrepancy_engine import (
    Discrepancy,
    DiscrepancyKind,
    DiscrepancyReport,
    Evidence,
    Severity,
    evaluate,
)
from .policy_engine import (
    ActiveRegistry,
    HandlerPolicy,
    PolicyDecision,
    Verdict,
    decide,
    get_allowed_handlers,
    load_active_registry,
    set_handler_policy,
)
from .config import Config, load_config
from .runtime import Runtime, assess_path, build_evidence

__version__ = "0.1.0"

#: Exported names whose submodule is imported on first access (PEP 562).
_LAZY = {
    **dict.fromkeys(["Action", "DecisionTree", "RequestContext", "differential",
                     "enumerate_grid", "load_tree", "run"], "browser_model"),
    **dict.fromkeys(["FetchRecord", "fetch"], "ingest"),
}

# every public name, loaded or not, as star-imports and dir() should see them
__all__ = sorted({name for name in globals() if not name.startswith("_")}
                 | set(_LAZY) | set(_LAZY.values()))


def __getattr__(name: str):
    from importlib import import_module

    if name in _LAZY:
        value = getattr(import_module(f"{__name__}.{_LAZY[name]}"), name)
    elif name in _LAZY.values():  # ``contentoracle.ingest`` still needs no import statement
        value = import_module(f"{__name__}.{name}")
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
