"""Layer tracing from outside the package.

The tracer replaces each layer's entry point, as its callers look it up
(a module attribute such as ``contentoracle.runtime.sniff``, or a method
on the store object), with a wrapper that records a span: name, start,
end, parent span and operation id. Spans stay in memory and are written
out when the run ends. An entry point the package no longer has is
skipped, so its layer reads as zero calls instead of failing the run.
"""

from __future__ import annotations

import gzip
import importlib
import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from pathlib import Path

#: (module, attribute, span name): entry points as their callers see them.
ENTRY_POINTS = (
    ("contentoracle.runtime", "assess_path", "runtime.assess_path"),
    ("contentoracle.cli", "assess_path", "runtime.assess_path"),
    ("contentoracle.ingest", "assess_path", "runtime.assess_path"),
    ("contentoracle.cli", "build_parser", "cli.build_parser"),
    ("contentoracle.cli", "load_config", "config.load_config"),
    ("contentoracle.runtime", "make_store", "runtime.make_store"),
    ("contentoracle.runtime", "build_evidence", "runtime.build_evidence"),
    ("contentoracle.runtime", "sniff", "sniffer.sniff"),
    ("contentoracle.runtime", "analyze_name", "name_analyzer.analyze_name"),
    # the extension set analyze_name is given, rebuilt for every file
    ("contentoracle.mime_db", "ExtensionMap.known_extensions", "name_analyzer.known_extensions"),
    ("contentoracle.runtime", "read_views", "view_registry.read_views"),
    ("contentoracle.runtime", "read_provenance", "view_registry.read_provenance"),
    ("contentoracle.runtime", "get_trust", "view_registry.get_trust"),
    ("contentoracle.runtime", "evaluate", "discrepancy_engine.evaluate"),
    ("contentoracle.runtime", "decide", "policy_engine.decide"),
    ("contentoracle.runtime", "get_allowed_handlers", "policy_engine.get_allowed_handlers"),
    ("contentoracle.runtime", "load_extension_map", "mime_db.load_extension_map"),
    ("contentoracle.runtime", "load_signatures", "sniffer.load_signatures"),
    ("contentoracle.runtime", "load_active_registry", "policy_engine.load_active_registry"),
    ("contentoracle.view_registry", "content_identity", "view_registry.content_identity"),
    ("contentoracle.ingest", "content_identity", "view_registry.content_identity"),
    ("contentoracle.view_registry", "record_view", "view_registry.record_view"),
    ("contentoracle.ingest", "record_view", "view_registry.record_view"),
    ("contentoracle.view_registry", "set_trust", "view_registry.set_trust"),
    ("contentoracle.policy_engine", "set_handler_policy", "policy_engine.set_handler_policy"),
    ("contentoracle.ingest", "assess_record", "ingest.assess_record"),
    ("contentoracle.cli", "build_report", "cli.build_report"),
    ("contentoracle.cli", "load_tree", "browser_model.load_tree"),
    ("contentoracle.cli", "enumerate_grid", "browser_model.enumerate_grid"),
    ("contentoracle.cli", "differential", "browser_model.differential"),
    ("contentoracle.browser_model", "run", "browser_model.run"),
)

#: Spans whose self time is glue between layers (the pipeline's and the
#: benchmark's), not a layer's own work; ``layer_share`` leaves it out.
GLUE = frozenset({"runtime.assess_path", "runtime.build_evidence", "cli.json_dumps"})

_NAME, _START, _END, _PARENT, _OP = range(5)


class Tracer:
    """In-memory spans plus counters taken at the same boundaries."""

    def __init__(self, size_of=None):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = 0  # current operation id; 0 outside any operation
        self.ops_started = 0
        self.kinds = {0: "setup"}
        self.counts: Counter = Counter()  # (operation id, counter) -> n
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []
        self._size_of = size_of or (lambda path: 0)

    # --- recording ---------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.op])
        self.stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][_END] = time.perf_counter_ns()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._enter(name)
        try:
            yield
        finally:
            self._exit(idx)

    @contextmanager
    def operation(self, kind: str):
        """Root span of one benchmark operation; spans inside share its id."""
        self.ops_started += 1
        self.op = self.ops_started
        self.kinds[self.op] = kind
        try:
            with self.span(f"op.{kind}"):
                yield
        finally:
            self.op = 0

    def wrap(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(name)
            return
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._enter(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(idx)
            if after is not None:
                after(args, result)
            return result

        # A method found on an instance's class is shadowed by an instance
        # attribute, and deleting that attribute restores it.
        own = attr in getattr(owner, "__dict__", {})
        self._undo.append((owner, attr, original if own else None))
        setattr(owner, attr, traced)

    def count(self, key: str, n: int = 1) -> None:
        self.counts[self.op, key] += n

    # --- installing --------------------------------------------------------

    def install(self, store=None) -> None:
        """Wrap every entry point, the store's get/set, and the JSON decoder
        the view registry uses (each decode inside a store get is one
        journal record scanned)."""
        hooks = {
            "sniffer.sniff": lambda a, r: self.count("sniff_bytes", len(a[0])),
            "view_registry.content_identity":
                lambda a, r: self.count("hashed_bytes", self._size_of(a[0])),
            "runtime.assess_path": lambda a, r: self.count("file_bytes", self._size_of(a[1])),
            "browser_model.enumerate_grid": lambda a, r: self.count("grid_points", len(r)),
            "runtime.make_store": lambda a, r: self.wrap_store(r),
        }
        for module, attr, name in ENTRY_POINTS:
            owner = importlib.import_module(module)
            *owners, attr = attr.split(".")
            for part in owners:  # a method looked up on its class
                owner = getattr(owner, part, None)
            self.wrap(owner, attr, name, hooks.get(name))
        self.wrap(Path, "read_bytes", "runtime.read_bytes")
        if store is not None:
            self.wrap_store(store)
        registry = importlib.import_module("contentoracle.view_registry")
        if hasattr(registry, "json"):
            self._undo.append((registry, "json", registry.json))
            registry.json = _CountingJson(self, registry.json)

    def wrap_store(self, store) -> None:
        self.wrap(store, "get", "view_registry.get",
                  lambda a, r: self.count("get_hits", r is not None))
        self.wrap(store, "set", "view_registry.set")

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

    # --- output ------------------------------------------------------------

    def dump(self, path: Path) -> None:
        """Spans as gzipped JSON lines, one object per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        selfs = self_times(self.spans)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, start, end, parent, op) in enumerate(self.spans):
                fh.write(json.dumps({
                    "i": i, "name": name, "start_ns": start, "end_ns": end,
                    "parent": parent, "op": op, "kind": self.kinds.get(op, "setup"),
                    "self_ns": selfs[i],
                }) + "\n")


class _CountingJson:
    """Stands in for the ``json`` module inside the view registry."""

    def __init__(self, tracer: Tracer, module):
        self._tracer = tracer
        self._module = module
        self._loads = module.loads

    def loads(self, s, *args, **kwargs):
        tracer = self._tracer
        if tracer.stack and tracer.spans[tracer.stack[-1]][_NAME] == "view_registry.get":
            tracer.counts[tracer.op, "journal_records"] += 1
        return self._loads(s, *args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._module, name)


def self_times(spans) -> list[int]:
    """Each span's duration minus the time its direct children cover."""
    covered = [0] * len(spans)
    for span in spans:
        if span[_PARENT] >= 0:
            covered[span[_PARENT]] += span[_END] - span[_START]
    return [s[_END] - s[_START] - covered[i] for i, s in enumerate(spans)]


class Summary:
    """Per-layer aggregates of one traced run."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        selfs = self_times(tracer.spans)
        self.calls: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.incl_ns: Counter = Counter()
        self.in_check: Counter = Counter()
        durations: dict[int, tuple[str, int]] = {}  # operation id -> (kind, duration)
        glue: Counter = Counter()  # operation id -> self time of op and GLUE spans
        for span, own in zip(tracer.spans, selfs):
            name, start, end, parent, op = span
            if name.startswith("op."):
                durations[op] = (name[3:], end - start)
                glue[op] += own
                continue
            if name in GLUE:
                glue[op] += own
            self.calls[name] += 1
            self.self_ns[name] += own
            self.incl_ns[name] += end - start
            if tracer.kinds.get(op) == "check":
                self.in_check[name] += 1
        self.ops: dict[str, list[tuple[int, int]]] = defaultdict(list)  # kind -> (dur, glue)
        for op, (kind, duration) in durations.items():
            self.ops[kind].append((duration, glue[op]))
        self.counted: Counter = Counter()
        self.counted_in_check: Counter = Counter()
        for (op, key), n in tracer.counts.items():
            self.counted[key] += n
            if tracer.kinds.get(op) == "check":
                self.counted_in_check[key] += n

    def checks(self) -> int:
        return len(self.ops["check"])

    def mean_self(self, name: str, scale: float) -> float:
        return self.self_ns[name] / self.calls[name] / scale if self.calls[name] else 0.0

    def mean_incl(self, name: str, scale: float) -> float:
        return self.incl_ns[name] / self.calls[name] / scale if self.calls[name] else 0.0

    def check_ms_p50(self) -> float:
        durations = [d for d, _ in self.ops["check"]]
        return statistics.median(durations) / 1e6 if durations else 0.0

    def layer_share_p50(self) -> float:
        """Median over checks of the share of the check's time that the
        self times of layer spans cover: all but the check's own span and
        the ``GLUE`` spans."""
        shares = [(d - glue) / d for d, glue in self.ops["check"] if d]
        return statistics.median(shares) if shares else 0.0

    def metrics(self) -> dict[str, float]:
        c = self.counted.__getitem__
        checks = self.checks()
        ms, us = 1e6, 1e3

        def per(n, d):
            return n / d if d else 0.0

        def mb_per_s(nbytes, name):
            return per(nbytes / 1e6, self.self_ns[name] / 1e9)

        hashed = c("hashed_bytes")
        assessed = self.calls["runtime.assess_path"]
        return {
            "sniffer.calls": self.calls["sniffer.sniff"],
            "sniffer.bytes": c("sniff_bytes"),
            "sniffer.self_ms": self.mean_self("sniffer.sniff", ms),
            "sniffer.mb_per_s": mb_per_s(c("sniff_bytes"), "sniffer.sniff"),
            "sniffer.load_signatures_ms": self.mean_incl("sniffer.load_signatures", ms),
            "view_registry.hash_calls_per_file":
                per(self.calls["view_registry.content_identity"], assessed),
            "view_registry.hash_mb_per_s": mb_per_s(hashed, "view_registry.content_identity"),
            "runtime.content_bytes_per_file_byte":
                per(c("sniff_bytes") + hashed, c("file_bytes")),
            "view_registry.get_calls_per_check": per(self.in_check["view_registry.get"], checks),
            "view_registry.get_hit_ratio": per(c("get_hits"), self.calls["view_registry.get"]),
            "view_registry.get_us": self.mean_self("view_registry.get", us),
            "view_registry.sidecar_records_scanned_per_check":
                per(self.counted_in_check["journal_records"], checks),
            "view_registry.set_calls": self.calls["view_registry.set"],
            "view_registry.set_us": self.mean_self("view_registry.set", us),
            "view_registry.read_views_ms": self.mean_self("view_registry.read_views", ms),
            "view_registry.get_trust_ms": self.mean_self("view_registry.get_trust", ms),
            "view_registry.read_provenance_ms": self.mean_self("view_registry.read_provenance", ms),
            "name_analyzer.calls": self.calls["name_analyzer.analyze_name"],
            "name_analyzer.analyze_name_us": per(
                self.self_ns["name_analyzer.analyze_name"]
                + self.incl_ns["name_analyzer.known_extensions"],
                self.calls["name_analyzer.analyze_name"]) / us,
            "runtime.build_evidence_us": self.mean_self("runtime.build_evidence", us),
            "runtime.read_bytes_ms": self.mean_self("runtime.read_bytes", ms),
            "cli.json_dumps_us": self.mean_self("cli.json_dumps", us),
            "discrepancy_engine.evaluate_us": self.mean_self("discrepancy_engine.evaluate", us),
            "policy_engine.decide_us": self.mean_self("policy_engine.decide", us),
            "policy_engine.get_allowed_handlers_us":
                self.mean_self("policy_engine.get_allowed_handlers", us),
            "policy_engine.load_active_registry_ms":
                self.mean_incl("policy_engine.load_active_registry", ms),
            "mime_db.load_extension_map_ms": self.mean_incl("mime_db.load_extension_map", ms),
            "cli.build_report_us": self.mean_self("cli.build_report", us),
            "ingest.assess_record_ms": self.mean_incl("ingest.assess_record", ms),
            "browser_model.load_tree_ms": self.mean_incl("browser_model.load_tree", ms),
            "browser_model.grid_points": per(c("grid_points"),
                                             self.calls["browser_model.enumerate_grid"]),
            "browser_model.run_calls": per(self.calls["browser_model.run"],
                                           self.calls["browser_model.differential"]),
            "browser_model.differential_ms": self.mean_incl("browser_model.differential", ms),
            "trace.check_ms_p50": self.check_ms_p50(),
            "trace.layer_share_p50": self.layer_share_p50(),
        }
