"""Command-line surface: audit reports as JSON, verdicts as exit codes.

Exit-code contract: for ``check`` and ``fetch`` the code is a function of
the verdict alone (0 allow, 1 warn, 2 deny); ``scan`` reports the worst
verdict seen. Usage errors exit 64, internal errors 70, I/O errors 74,
config errors 78.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import sys
import time
from pathlib import Path

from .config import load_config, read_data_file
from .discrepancy_engine import evaluate
from .errors import ConfigError, ContentOracleError
from .mime_db import db_stats, load_extension_map, parse_mime_type
from .policy_engine import (
    DENY_ALL,
    HandlerPolicy,
    Verdict,
    policy_from,
    set_handler_policy,
)
from .report import build_report, db_stats_document, diff_document, emit, view_obj
from .runtime import Runtime, assess_path, build_evidence, make_store
from .view_registry import (
    APP_ID,
    POLICY_KEY,
    RECORDS,
    AttributeStore,
    ContentView,
    FlaggedView,
    content_identity,
    get_trust,
    opened,
    read_views,
    record_view,
    set_trust,
    to_obj,
)

EX_OK = 0
EX_USAGE = 64
EX_SOFTWARE = 70
EX_IOERR = 74
EX_CONFIG = 78

_VERDICT_CODE = {Verdict.ALLOW: 0, Verdict.WARN: 1, Verdict.DENY: 2}


class _Parser(argparse.ArgumentParser):
    """argparse that honors the exit-code contract for usage errors."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EX_USAGE, f"{self.prog}: error: {message}\n")


class _Command:
    """A registered command, as the top-level sub-parsers hold it: its parser
    is created, and ``build`` adds its arguments and sub-parsers, when the
    command is parsed, so a run creates only the parser of its command."""

    def __init__(self, build, **kwargs):
        self._build, self._kwargs = build, kwargs

    def parse_known_args(self, args, namespace=None):
        parser = _Parser(**self._kwargs)
        self._build(parser)
        return parser.parse_known_args(args, namespace)


def _path(text: str) -> Path:
    """A path argument as ``Path`` reads it ("a.pdf/" is a.pdf), but never "" (it reads ".")."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    return Path(text)


def _app_ids(text: str) -> tuple[str, ...]:
    """``--apps``: comma-separated application ids, as a stored policy must
    hold them, so a typo cannot record a list that matches no handler."""
    ids = tuple(text.split(","))
    for app in ids:
        if not APP_ID.accepts(app):
            raise argparse.ArgumentTypeError(f"bad application id {app!r} in {text!r}")
    return ids


def _request_context(text: str) -> RequestContext:
    """``--ctx``: a request context as ``browser diff`` prints one, checked
    while the arguments are parsed so a bad one is a usage error."""
    # the browser models are imported by the browser commands only
    from .browser_model import context_from_obj

    try:
        return context_from_obj(json.loads(text))
    except ValueError as exc:  # MalformedMime and JSONDecodeError among them
        raise argparse.ArgumentTypeError(f"bad request context: {exc}") from None


# --- subcommands -----------------------------------------------------------


def cmd_identify(args, runtime: Runtime) -> int:
    evidence = build_evidence(runtime, args.path)
    report = evaluate(evidence, runtime.active)
    emit(build_report(args.path, evidence, report, decision=None))
    return EX_OK


def cmd_check(args, runtime: Runtime) -> int:
    evidence, report, decision = assess_path(runtime, args.path, handler=args.handler)
    emit(build_report(args.path, evidence, report, decision))
    return _VERDICT_CODE[decision.verdict]


def _regular_files(root: Path) -> list[str]:
    """``sorted(p for p in root.rglob("*") if p.is_file())`` as strings, by ``os.scandir``."""
    files, dirs = [], [os.path.join(root, "") if root.parts else ""]  # "." is no prefix
    for prefix in dirs:  # grows as the walk goes; a symlinked directory stays out
        try:
            with os.scandir(prefix or ".") as it:
                entries = list(it)
        except PermissionError:  # skipped, as rglob skips it
            continue
        for entry in entries:
            if entry.is_dir(follow_symlinks=False):
                dirs.append(prefix + entry.name + os.sep)
            elif Path(entry.path).is_file() if entry.is_symlink() else entry.is_file():
                files.append(prefix + entry.name)
    return sorted(files, key=lambda p: p.split(os.sep))  # Path order: by components


def cmd_scan(args, runtime: Runtime) -> int:
    if not args.dir.is_dir():
        raise FileNotFoundError(f"not a directory: {args.dir}")
    worst = EX_OK
    for path in _regular_files(args.dir):
        evidence, report, decision = assess_path(runtime, path)
        emit(build_report(path, evidence, report, decision), compact=True)
        worst = max(worst, _VERDICT_CODE[decision.verdict])
    return worst


# The view, trust and policy commands open the file once, refusing what no check
# could assess, then name it by that descriptor, so a rename moves no record.
def cmd_view_record(args, store: AttributeStore) -> int:
    with opened(args.path) as fd:  # the file is checked before the view
        try:
            t = int(time.time()) if args.now is None else args.now
            view = ContentView(args.app, parse_mime_type(args.mime), args.active,
                               content_identity(fd), t, args.note)
        except ValueError as exc:  # a malformed type, an empty app id or an overlong note
            raise ContentOracleError(str(exc)) from None
        record_view(store, fd, view)
    emit({"recorded": view_obj(FlaggedView(view, stale=False))})
    return EX_OK


def cmd_view_list(args, store: AttributeStore) -> int:
    with opened(args.path) as fd:
        emit({"views": [view_obj(fv) for fv in read_views(store, fd)]})
    return EX_OK


def cmd_trust_set(args, store: AttributeStore) -> int:
    with opened(args.path) as fd:
        set_trust(store, fd, args.state == "trusted", now=args.now)
    emit({"trust": args.state})
    return EX_OK


def cmd_trust_get(args, store: AttributeStore) -> int:
    with opened(args.path) as fd:
        emit({"trust": get_trust(store, fd).value})
    return EX_OK


def cmd_policy_set(args, store: AttributeStore) -> int:
    # neither flag would record "no restriction", lifting a deny-all
    if args.deny_all == (args.apps is not None):
        raise ContentOracleError("policy handlers set: give exactly one of --apps and --deny-all")
    policy = DENY_ALL if args.deny_all else HandlerPolicy(allowed=args.apps)
    with opened(args.path) as fd:
        set_handler_policy(store, fd, policy)
    emit(to_obj(RECORDS[POLICY_KEY], policy))
    return EX_OK


def cmd_policy_get(args, store: AttributeStore) -> int:
    with opened(args.path) as fd:
        policy = policy_from(store.read(fd, (POLICY_KEY,)))
    emit({**to_obj(RECORDS[POLICY_KEY], policy), "restricts": policy.restricts})
    return EX_OK


def cmd_browser_run(args, models_dir: Path) -> int:
    from .browser_model import load_model, run as run_tree

    tree = load_model(args.model, models_dir)
    emit({"model": tree.name, "action": run_tree(tree, args.ctx).value})
    return EX_OK


def cmd_browser_diff(args, models_dir: Path) -> int:
    from .browser_model import differential, enumerate_grid, load_model

    tree_a = load_model(args.model_a, models_dir)
    tree_b = load_model(args.model_b, models_dir)
    grid = enumerate_grid()
    emit(diff_document(tree_a, tree_b, grid, differential(tree_a, tree_b, grid)))
    return EX_OK


def cmd_fetch(args, runtime: Runtime) -> int:
    # imported here: the other subcommands never load the HTTP, e-mail and TLS stack
    from . import ingest

    record = ingest.fetch(args.url, args.out, runtime.store, referrer=args.referrer, now=args.now)
    evidence, report, decision = ingest.assess_record(record, runtime, now=args.now)
    emit(build_report(record.body_path, evidence, report, decision, url=record.url))
    return _VERDICT_CODE[decision.verdict]


def cmd_db_stats(args, _) -> int:
    ext_map, errors = read_data_file(args.file, load_extension_map)
    emit(db_stats_document(db_stats(ext_map), len(errors)))
    return EX_OK


# --- parser ----------------------------------------------------------------


def _build_identify(p: _Parser) -> None:
    p.add_argument("path", type=_path)
    p.set_defaults(func=cmd_identify)


def _build_check(p: _Parser) -> None:
    p.add_argument("path", type=_path)
    p.add_argument("--handler", help="application id asking to open the file")
    p.set_defaults(func=cmd_check)


def _build_scan(p: _Parser) -> None:
    p.add_argument("dir", type=_path)
    p.set_defaults(func=cmd_scan)


def _build_view(p: _Parser) -> None:
    p.set_defaults(load=make_store)
    view_sub = p.add_subparsers(dest="view_command", required=True)
    pr = view_sub.add_parser("record")
    pr.add_argument("path", type=_path)
    pr.add_argument("--app", required=True)
    pr.add_argument("--mime", required=True)
    pr.add_argument("--active", action="store_true")
    pr.add_argument("--note")
    pr.set_defaults(func=cmd_view_record)
    pl = view_sub.add_parser("list")
    pl.add_argument("path", type=_path)
    pl.set_defaults(func=cmd_view_list)


def _build_trust(p: _Parser) -> None:
    p.set_defaults(load=make_store)
    trust_sub = p.add_subparsers(dest="trust_command", required=True)
    ts = trust_sub.add_parser("set")
    ts.add_argument("path", type=_path)
    ts.add_argument("state", choices=["trusted", "untrusted"])
    ts.set_defaults(func=cmd_trust_set)
    tg = trust_sub.add_parser("get")
    tg.add_argument("path", type=_path)
    tg.set_defaults(func=cmd_trust_get)


def _build_policy(p: _Parser) -> None:
    p.set_defaults(load=make_store)
    policy_sub = p.add_subparsers(dest="policy_command", required=True)
    ph = policy_sub.add_parser("handlers")
    handlers_sub = ph.add_subparsers(dest="handlers_command", required=True)
    hs = handlers_sub.add_parser("set")
    hs.add_argument("path", type=_path)
    hs.add_argument("--apps", type=_app_ids, help="comma-separated application ids")
    hs.add_argument("--deny-all", action="store_true")
    hs.set_defaults(func=cmd_policy_set)
    hg = handlers_sub.add_parser("get")
    hg.add_argument("path", type=_path)
    hg.set_defaults(func=cmd_policy_get)


def _build_browser(p: _Parser) -> None:
    p.set_defaults(load=lambda config: config.models_dir)
    browser_sub = p.add_subparsers(dest="browser_command", required=True)
    br = browser_sub.add_parser("run")
    br.add_argument("model")
    br.add_argument("--ctx", required=True, type=_request_context,
                    help="request context as a JSON object")
    br.set_defaults(func=cmd_browser_run)
    bd = browser_sub.add_parser("diff")
    bd.add_argument("model_a")
    bd.add_argument("model_b")
    bd.set_defaults(func=cmd_browser_diff)


def _build_fetch(p: _Parser) -> None:
    p.add_argument("url")
    p.add_argument("--out", required=True, type=_path)
    p.add_argument("--referrer")
    p.set_defaults(func=cmd_fetch)


def _build_db(p: _Parser) -> None:
    p.set_defaults(load=lambda config: None)
    db_sub = p.add_subparsers(dest="db_command", required=True)
    ds = db_sub.add_parser("stats")
    ds.add_argument("file", type=_path)
    ds.set_defaults(func=cmd_db_stats)


#: Each command's help line and the builder of its parser. The top-level
#: help lists every command, so each is registered; none is built until run.
_COMMANDS = {
    "identify": ("evidence report for a file, no policy", _build_identify),
    "check": ("full report incl. discrepancies and verdict", _build_check),
    "scan": ("newline-delimited reports for a directory tree", _build_scan),
    "view": ("record or list per-application content views", _build_view),
    "trust": ("set or read the hash-bound trust record", _build_trust),
    "policy": ("per-file allowed-handler lists", _build_policy),
    "browser": ("run or differentially compare handling models", _build_browser),
    "fetch": ("download a URL, stamp provenance, then check", _build_fetch),
    "db": ("extension database utilities", _build_db),
}


def build_parser() -> _Parser:
    # spelled out as argparse wraps it before 3.13, which leaves "..." on the line above
    usage = ("\n" + " " * len("usage: contentoracle ")).join(
        ["%(prog)s [-h] [--config CONFIG] [--now NOW]", "{" + ",".join(_COMMANDS) + "}", "..."])
    parser = _Parser(prog="contentoracle", description=__doc__, usage=usage)
    parser.add_argument("--config", type=_path, help="path to a config file")
    parser.add_argument("--now", type=int, help="timestamp override for deterministic output")
    # what a command is handed; view, trust and policy use the store alone,
    # browser the models directory and db stats nothing of the
    # configuration, and override this to open only that
    parser.set_defaults(load=Runtime.load)
    # a command's prog is "contentoracle <name>", not the usage above
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Command,
                                prog=parser.prog)
    for name, (help_text, build) in _COMMANDS.items():
        sub.add_parser(name, help=help_text, build=build)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits; keep main() returning an int
        return int(exc.code or 0)
    try:
        return args.func(args, args.load(load_config(args.config)))
    except ConfigError as exc:
        print(f"contentoracle: config error: {exc}", file=sys.stderr)
        return EX_CONFIG
    except OSError as exc:  # a failed fetch among them
        print(f"contentoracle: {exc}", file=sys.stderr)
        return EX_IOERR
    except ContentOracleError as exc:
        print(f"contentoracle: {exc}", file=sys.stderr)
        return EX_USAGE
    except Exception as exc:  # a crash must not read as a verdict
        print(f"contentoracle: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EX_SOFTWARE


def run() -> None:
    code = main(sys.argv[1:])
    # shutdown's collections skip frozen objects; main() must not freeze,
    # or callers that run it in process would keep their garbage cycles
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
