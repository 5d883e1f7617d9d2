"""The JSON documents the CLI prints: the audit report and its schema, the
``browser diff`` and ``db stats`` documents, and the printer, which sorts
keys, so the order in which a builder sets them never reaches the output.
"""

from __future__ import annotations

import binascii
import json
from pathlib import Path

from .discrepancy_engine import DiscrepancyReport, Evidence
from .mime_db import FamilyStats
from .policy_engine import PolicyDecision
from .view_registry import VIEW_FIELDS, FlaggedView, to_obj

#: JSON Schema for the audit report emitted by identify/check/scan/fetch.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["v", "path", "name_report", "sniff", "views", "provenance",
                 "discrepancies", "verdict", "resolved_mime"],
    "properties": {
        "v": {"const": 1},
        "path": {"type": "string"},
        "url": {"type": "string"},
        "name_report": {
            "type": "object",
            "required": ["display_name", "logical_extension", "extension_chain", "anomalies"],
            "properties": {
                "display_name": {"type": "string"},
                "logical_extension": {"type": ["string", "null"]},
                "extension_chain": {"type": "array", "items": {"type": "string"}},
                "anomalies": {"type": "array", "items": {"type": "string"}},
            },
        },
        "sniff": {
            "type": "object",
            "required": ["candidates", "is_polyglot", "text_fallback", "bytes_examined"],
            "properties": {
                "candidates": {
                    "type": "array",
                    "items": {
                        "type": "object",
                        "required": ["mime", "signature", "weight", "offset"],
                    },
                },
                "is_polyglot": {"type": "boolean"},
                "text_fallback": {"enum": ["not_applied", "looks_text", "looks_binary"]},
                "bytes_examined": {"type": "integer"},
            },
        },
        "views": {
            "type": "array",
            "items": {
                "type": "object",
                "required": [*(name for name, f in VIEW_FIELDS.items() if f.required), "stale"],
            },
        },
        "provenance": {
            "type": "object",
            "required": ["origin_url", "referrer_url", "quarantine"],
        },
        "discrepancies": {
            "type": ["array", "null"],
            "items": {
                "type": "object",
                "required": ["kind", "severity", "detail", "sources"],
            },
        },
        "verdict": {"enum": ["allow", "warn", "deny", None]},
        "resolved_mime": {"type": ["string", "null"]},
        "reasons": {"type": "array", "items": {"type": "string"}},
    },
    "additionalProperties": False,
}


def view_obj(flagged: FlaggedView) -> dict:
    """A view as reports list it: the stored object and whether it is stale."""
    return {**to_obj(VIEW_FIELDS, flagged.view), "stale": flagged.stale}


def build_report(
    path: Path,
    evidence: Evidence,
    report: DiscrepancyReport,
    decision: PolicyDecision | None,
    url: str | None = None,
) -> dict:
    """The audit report on one file; ``identify`` passes no ``decision``."""
    names, sniff, prov = evidence.name_report, evidence.sniff, evidence.provenance
    doc = {
        "v": 1,
        "path": str(path),
        "name_report": {
            "display_name": names.display_name,
            "logical_extension": names.logical_extension,
            "extension_chain": list(names.extension_chain),
            "anomalies": sorted(a.value for a in names.anomalies),
        },
        "sniff": {
            "candidates": [
                {"mime": c.mime.format(), "signature": c.signature,
                 "weight": c.weight, "offset": c.offset}
                for c in sniff.candidates
            ],
            "is_polyglot": sniff.is_polyglot,
            "text_fallback": sniff.text_fallback.value,
            "bytes_examined": sniff.bytes_examined,
        },
        "views": [view_obj(fv) for fv in evidence.views],
        "provenance": {
            "origin_url": prov.origin_url,
            "referrer_url": prov.referrer_url,
            "quarantine": binascii.b2a_base64(prov.quarantine, newline=False).decode("ascii")
            if prov.quarantine is not None else None,
        },
        "discrepancies": [
            {"kind": d.kind.value, "severity": d.severity.name.lower(),
             "detail": d.detail, "sources": list(d.sources)}
            for d in report.discrepancies
        ],
        "verdict": decision.verdict.value if decision else None,
        "resolved_mime": report.resolved_mime.format() if report.resolved_mime else None,
    }
    if decision:
        doc["reasons"] = list(decision.reasons)
    if url is not None:
        doc["url"] = url
    return doc


def diff_document(tree_a: DecisionTree, tree_b: DecisionTree,
                  grid: list[RequestContext], points: list) -> dict:
    """``browser diff``: each grid point where the two models act differently."""
    from .browser_model import context_to_obj

    return {
        "model_a": tree_a.name,
        "model_b": tree_b.name,
        "grid_size": len(grid),
        "divergence_count": len(points),
        "divergences": [
            {"context": context_to_obj(ctx), "a": act_a.value, "b": act_b.value}
            for ctx, act_a, act_b in points
        ],
    }


def db_stats_document(stats: dict[str, FamilyStats], malformed_lines: int) -> dict:
    """``db stats``: each family's counts by registration class, and totals."""
    return {
        "families": {family: s._asdict() for family, s in stats.items()},
        "total_types": sum(s.total for s in stats.values()),
        "malformed_lines": malformed_lines,
    }


# json.dumps with options builds an encoder per call: emit shares these two
_COMPACT = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
_INDENTED = json.JSONEncoder(sort_keys=True, indent=2)


def emit(doc: dict, compact: bool = False) -> None:
    """Print ``doc`` as JSON: one line when ``compact``, else indented."""
    print((_COMPACT if compact else _INDENTED).encode(doc))
