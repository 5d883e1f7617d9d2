"""Command-line surface: audit reports as JSON, verdicts as exit codes.

Exit-code contract: for ``check`` and ``fetch`` the code is a function of
the verdict alone (0 allow, 1 warn, 2 deny); ``scan`` reports the worst
verdict seen. Usage errors exit 64, internal errors 70, I/O errors 74,
config errors 78.
"""

from __future__ import annotations

import argparse
import base64
import json
import sys
import time
from dataclasses import replace
from pathlib import Path

from .config import load_config
from .discrepancy_engine import DiscrepancyReport, Evidence, evaluate
from .errors import (
    ConfigError,
    ContentOracleError,
    HttpError,
    MalformedMime,
    MalformedSignature,
    MalformedTree,
    NetworkError,
)
from .mime_db import db_stats, load_extension_map, parse_mime_type
from .name_analyzer import NameReport
from .policy_engine import (
    DENY_ALL,
    HandlerPolicy,
    PolicyDecision,
    Verdict,
    get_allowed_handlers,
    set_handler_policy,
)
from .runtime import Runtime, assess_path, build_evidence, judge
from .sniffer import SniffReport
from .view_registry import (
    ContentView,
    FlaggedView,
    Provenance,
    _view_to_obj,
    content_identity,
    get_trust,
    read_views,
    record_view,
    set_trust,
)

EX_OK = 0
EX_USAGE = 64
EX_SOFTWARE = 70
EX_IOERR = 74
EX_CONFIG = 78

_VERDICT_CODE = {Verdict.ALLOW: 0, Verdict.WARN: 1, Verdict.DENY: 2}

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
                "required": ["app", "mime", "active", "hash", "t", "stale"],
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


class _Parser(argparse.ArgumentParser):
    """argparse that honors the exit-code contract for usage errors."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


def _name_report_obj(report: NameReport) -> dict:
    return {
        "display_name": report.display_name,
        "logical_extension": report.logical_extension,
        "extension_chain": list(report.extension_chain),
        "anomalies": sorted(a.value for a in report.anomalies),
    }


def _sniff_obj(report: SniffReport) -> dict:
    return {
        "candidates": [
            {"mime": c.mime.format(), "signature": c.signature,
             "weight": c.weight, "offset": c.offset}
            for c in report.candidates
        ],
        "is_polyglot": report.is_polyglot,
        "text_fallback": report.text_fallback.value,
        "bytes_examined": report.bytes_examined,
    }


def _view_obj(flagged: FlaggedView) -> dict:
    return {**_view_to_obj(flagged.view), "stale": flagged.stale}


def _provenance_obj(prov: Provenance) -> dict:
    return {
        "origin_url": prov.origin_url,
        "referrer_url": prov.referrer_url,
        "quarantine": base64.b64encode(prov.quarantine).decode("ascii")
        if prov.quarantine is not None else None,
    }


def build_report(
    path: Path,
    evidence: Evidence,
    report: DiscrepancyReport | None,
    decision: PolicyDecision | None,
    url: str | None = None,
) -> dict:
    doc = {
        "v": 1,
        "path": str(path),
        "name_report": _name_report_obj(evidence.name_report),
        "sniff": _sniff_obj(evidence.sniff),
        "views": [_view_obj(fv) for fv in evidence.views],
        "provenance": _provenance_obj(evidence.provenance),
        "discrepancies": None if report is None else [
            {"kind": d.kind.value, "severity": d.severity.name.lower(),
             "detail": d.detail, "sources": list(d.sources)}
            for d in report.discrepancies
        ],
        "verdict": decision.verdict.value if decision else None,
        "resolved_mime": report.resolved_mime.format()
        if report and report.resolved_mime else None,
    }
    if decision:
        doc["reasons"] = list(decision.reasons)
    if url is not None:
        doc["url"] = url
    return doc


def _emit(obj, compact: bool = False) -> None:
    if compact:
        print(json.dumps(obj, sort_keys=True, separators=(",", ":")))
    else:
        print(json.dumps(obj, sort_keys=True, indent=2))


def _load_model(name: str, runtime: Runtime) -> DecisionTree:
    # the browser models are imported by the browser commands only
    from .browser_model import load_tree

    candidate = Path(name)
    if not candidate.is_file():
        candidate = runtime.models_dir / f"{name}.tree"
    if not candidate.is_file():
        raise FileNotFoundError(f"model not found: {name}")
    return load_tree(candidate.read_text("utf-8"), name=candidate.stem)


def _context_from_obj(obj: dict) -> RequestContext:
    from .browser_model import Disposition, RequestContext

    def mime(key):
        value = obj.get(key)
        return parse_mime_type(value) if value else None

    return RequestContext(
        sniffed_mime=mime("sniffed_mime"),
        extension_mime=mime("extension_mime"),
        content_type=mime("content_type"),
        content_disposition=Disposition(obj.get("content_disposition", "none")),
        nosniff=bool(obj.get("nosniff", False)),
        auto_download=bool(obj.get("auto_download", False)),
        auto_open=bool(obj.get("auto_open", False)),
    )


def _context_obj(ctx: RequestContext) -> dict:
    def mime(m):
        return m.format() if m is not None else None

    return {
        "sniffed_mime": mime(ctx.sniffed_mime),
        "extension_mime": mime(ctx.extension_mime),
        "content_type": mime(ctx.content_type),
        "content_disposition": ctx.content_disposition.value,
        "nosniff": ctx.nosniff,
        "auto_download": ctx.auto_download,
        "auto_open": ctx.auto_open,
    }


# --- subcommands -----------------------------------------------------------


def cmd_identify(args, runtime: Runtime) -> int:
    evidence = build_evidence(runtime, args.path)
    report = evaluate(evidence, runtime.active)
    _emit(build_report(Path(args.path), evidence, report, decision=None))
    return EX_OK


def cmd_check(args, runtime: Runtime) -> int:
    evidence, report, decision = assess_path(runtime, args.path, handler=args.handler)
    _emit(build_report(Path(args.path), evidence, report, decision))
    return _VERDICT_CODE[decision.verdict]


def cmd_scan(args, runtime: Runtime) -> int:
    root = Path(args.dir)
    if not root.is_dir():
        raise FileNotFoundError(f"not a directory: {root}")
    worst = EX_OK
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        evidence, report, decision = assess_path(runtime, path)
        _emit(build_report(path, evidence, report, decision), compact=True)
        worst = max(worst, _VERDICT_CODE[decision.verdict])
    return worst


def cmd_view_record(args, runtime: Runtime) -> int:
    view = ContentView(
        app_id=args.app,
        mime=parse_mime_type(args.mime),
        active=args.active,
        content_hash=content_identity(args.path),
        recorded_at=args.now if args.now is not None else int(time.time()),
        note=args.note,
    )
    record_view(runtime.store, args.path, view)
    _emit({"recorded": _view_obj(FlaggedView(view, stale=False))})
    return EX_OK


def cmd_view_list(args, runtime: Runtime) -> int:
    _emit({"views": [_view_obj(fv) for fv in read_views(runtime.store, args.path)]})
    return EX_OK


def cmd_trust_set(args, runtime: Runtime) -> int:
    set_trust(runtime.store, args.path, args.state == "trusted", now=args.now)
    _emit({"trust": get_trust(runtime.store, args.path).value})
    return EX_OK


def cmd_trust_get(args, runtime: Runtime) -> int:
    _emit({"trust": get_trust(runtime.store, args.path).value})
    return EX_OK


def cmd_policy_set(args, runtime: Runtime) -> int:
    if args.deny_all:
        policy = DENY_ALL
    else:
        apps = tuple(a for a in (args.apps or "").split(",") if a)
        policy = HandlerPolicy(allowed=apps)
    set_handler_policy(runtime.store, args.path, policy)
    _emit({"deny_all": policy.deny_all, "handlers": list(policy.allowed)})
    return EX_OK


def cmd_policy_get(args, runtime: Runtime) -> int:
    policy = get_allowed_handlers(runtime.store, args.path)
    _emit({"deny_all": policy.deny_all, "handlers": list(policy.allowed),
           "restricts": policy.restricts})
    return EX_OK


def cmd_browser_run(args, runtime: Runtime) -> int:
    from .browser_model import run as run_tree

    tree = _load_model(args.model, runtime)
    ctx = _context_from_obj(args.ctx)
    _emit({"model": tree.name, "action": run_tree(tree, ctx).value})
    return EX_OK


def cmd_browser_diff(args, runtime: Runtime) -> int:
    from .browser_model import differential, enumerate_grid

    tree_a = _load_model(args.model_a, runtime)
    tree_b = _load_model(args.model_b, runtime)
    grid = enumerate_grid()
    points = differential(tree_a, tree_b, grid)
    _emit({
        "model_a": tree_a.name,
        "model_b": tree_b.name,
        "grid_size": len(grid),
        "divergence_count": len(points),
        "divergences": [
            {"context": _context_obj(ctx), "a": act_a.value, "b": act_b.value}
            for ctx, act_a, act_b in points
        ],
    })
    return EX_OK


def cmd_fetch(args, runtime: Runtime) -> int:
    # imported here: the other subcommands never load the HTTP, e-mail and TLS stack
    from . import ingest

    record = ingest.fetch(
        args.url, args.out, runtime.store, referrer=args.referrer, now=args.now
    )
    evidence, _, _ = ingest.assess_record(record, runtime, now=args.now)
    # the report is that assessment with the views as just recorded, the
    # ingest view among them, so the body is read and hashed only once
    views = read_views(runtime.store, record.body_path, evidence.content_hash)
    evidence = replace(evidence, views=tuple(views))
    report, decision = judge(runtime, evidence)
    _emit(build_report(record.body_path, evidence, report, decision, url=record.url))
    return _VERDICT_CODE[decision.verdict]


def cmd_db_stats(args, runtime: Runtime) -> int:
    ext_map, errors = load_extension_map(Path(args.file).read_text("utf-8"))
    stats = db_stats(ext_map)
    _emit({
        "families": {
            family: {
                "official": s.official,
                "unofficial_subtype": s.unofficial_subtype,
                "unknown_family": s.unknown_family,
            }
            for family, s in stats.items()
        },
        "total_types": sum(s.total for s in stats.values()),
        "malformed_lines": len(errors),
    })
    return EX_OK


# --- parser ----------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="contentoracle", description=__doc__)
    parser.add_argument("--config", help="path to a config file")
    parser.add_argument("--now", type=int, help="timestamp override for deterministic output")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("identify", help="evidence report for a file, no policy")
    p.add_argument("path")
    p.set_defaults(func=cmd_identify)

    p = sub.add_parser("check", help="full report incl. discrepancies and verdict")
    p.add_argument("path")
    p.add_argument("--handler", help="application id asking to open the file")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("scan", help="newline-delimited reports for a directory tree")
    p.add_argument("dir")
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("view", help="record or list per-application content views")
    view_sub = p.add_subparsers(dest="view_command", required=True)
    pr = view_sub.add_parser("record")
    pr.add_argument("path")
    pr.add_argument("--app", required=True)
    pr.add_argument("--mime", required=True)
    pr.add_argument("--active", action="store_true")
    pr.add_argument("--note")
    pr.set_defaults(func=cmd_view_record)
    pl = view_sub.add_parser("list")
    pl.add_argument("path")
    pl.set_defaults(func=cmd_view_list)

    p = sub.add_parser("trust", help="set or read the hash-bound trust record")
    trust_sub = p.add_subparsers(dest="trust_command", required=True)
    ts = trust_sub.add_parser("set")
    ts.add_argument("path")
    ts.add_argument("state", choices=["trusted", "untrusted"])
    ts.set_defaults(func=cmd_trust_set)
    tg = trust_sub.add_parser("get")
    tg.add_argument("path")
    tg.set_defaults(func=cmd_trust_get)

    p = sub.add_parser("policy", help="per-file allowed-handler lists")
    policy_sub = p.add_subparsers(dest="policy_command", required=True)
    ph = policy_sub.add_parser("handlers")
    handlers_sub = ph.add_subparsers(dest="handlers_command", required=True)
    hs = handlers_sub.add_parser("set")
    hs.add_argument("path")
    hs.add_argument("--apps", help="comma-separated application ids")
    hs.add_argument("--deny-all", action="store_true")
    hs.set_defaults(func=cmd_policy_set)
    hg = handlers_sub.add_parser("get")
    hg.add_argument("path")
    hg.set_defaults(func=cmd_policy_get)

    p = sub.add_parser("browser", help="run or differentially compare handling models")
    browser_sub = p.add_subparsers(dest="browser_command", required=True)
    br = browser_sub.add_parser("run")
    br.add_argument("model")
    br.add_argument("--ctx", required=True, type=json.loads, help="request context as JSON")
    br.set_defaults(func=cmd_browser_run)
    bd = browser_sub.add_parser("diff")
    bd.add_argument("model_a")
    bd.add_argument("model_b")
    bd.set_defaults(func=cmd_browser_diff)

    p = sub.add_parser("fetch", help="download a URL, stamp provenance, then check")
    p.add_argument("url")
    p.add_argument("--out", required=True)
    p.add_argument("--referrer")
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("db", help="extension database utilities")
    db_sub = p.add_subparsers(dest="db_command", required=True)
    ds = db_sub.add_parser("stats")
    ds.add_argument("file")
    ds.set_defaults(func=cmd_db_stats)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits; keep main() returning an int
        return int(exc.code or 0)
    try:
        runtime = Runtime.load(load_config(args.config))
        return args.func(args, runtime)
    except ConfigError as exc:
        print(f"contentoracle: config error: {exc}", file=sys.stderr)
        return EX_CONFIG
    except (MalformedMime, MalformedTree, MalformedSignature) as exc:
        print(f"contentoracle: {exc}", file=sys.stderr)
        return EX_USAGE
    except (NetworkError, HttpError) as exc:
        print(f"contentoracle: {exc}", file=sys.stderr)
        return EX_IOERR
    except ContentOracleError as exc:
        print(f"contentoracle: {exc}", file=sys.stderr)
        return EX_USAGE
    except OSError as exc:
        print(f"contentoracle: {exc}", file=sys.stderr)
        return EX_IOERR
    except Exception as exc:  # a crash must not read as a verdict
        print(f"contentoracle: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_SOFTWARE


def run() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    run()
