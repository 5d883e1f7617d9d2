"""contentoracle: unified, cross-application content identification.

A file's type is attested by several independent sources: its extension,
its magic bytes, whatever a server declared when it was downloaded, and the
recorded opinions of the applications that handled it. This package parses
and cross-checks all of them, persists per-application views and trust
state in extended file attributes (with a portable sidecar fallback),
models browser handling decisions as data-driven trees, and turns the
resulting discrepancies into allow/warn/deny verdicts.
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
from .browser_model import (
    Action,
    DecisionTree,
    RequestContext,
    differential,
    enumerate_grid,
    load_tree,
    run,
)
from .ingest import FetchRecord, fetch
from .config import Config, load_config
from .runtime import Runtime, assess_path, build_evidence

__version__ = "0.1.0"
