"""The three workloads. Each is a closed loop with one client: the next
operation starts only when the previous one has returned.

``bulk_scan_xattr``: reads a 1,500-file corpus of about 160 MB through the
xattr backend; bytes (sniffing, hashing, re-reading) dominate.
``sidecar_churn``: interleaves checks and attribute writes against a
sidecar journal that holds 800 records before timing starts.
``cli_cold``: runs ``contentoracle`` in fresh processes, one at a time.
"""

from __future__ import annotations

import array
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types
from dataclasses import dataclass, field
from pathlib import Path

import corpus
import oracle
from stats import percentile, supports, tail_percentile
from tracer import Summary, Tracer

KIB, MIB = corpus.KIB, corpus.MIB
CLI_ENTRY = "from contentoracle.cli import run; run()"
#: setup_s is the median of the loads timed once every SETUP_EVERY s.
SETUP_EVERY = 0.25
SIDECAR_PREFILL = 800
#: sidecar_churn runs in rounds of this many operations, each on a fresh
#: journal of SIDECAR_PREFILL writes, so every round scans the same journal
#: sizes however fast the program runs.
ROUND_OPS = 200
#: Every this many operations of sidecar_churn, one is a write (one write
#: per four checks).
WRITE_EVERY = 5
#: The writes of sidecar_churn, in turn. Equal shares: no measurement says
#: how often each kind happens.
WRITE_CYCLE = ("record_view", "assess_record", "set_trust", "set_handler_policy")
#: Every this many invocations of cli_cold, one is a browser diff. It sets
#: only how many samples cli_diff_ms_p50 gets: ops_per_s counts checks.
DIFF_EVERY = 10
#: Share of the checks that pass a handler; no measurement fixes it.
HANDLER_SHARE = 0.3
DIGEST_OPS = 200
BULK_FILES = 1500
BULK_SHARDS = 12


class Refused(Exception):
    """The environment cannot run this workload as specified."""


class Reference:
    """A fixed unit of work, timed just before and just after an operation
    to tell how fast the shared host runs this process at that moment.

    ``slowness()`` is the unit's time (best of ``repeat``) over
    ``nominal_s``, a round figure near its fastest time on the 2-vCPU VM
    the benchmark was tuned on: 1.0 at full speed, 2.0 at half speed.
    """

    def __init__(self, unit, nominal_s: float, repeat: int):
        self.unit, self.nominal_s, self.repeat = unit, nominal_s, repeat

    def slowness(self) -> float:
        best = math.inf
        for _ in range(self.repeat):
            t0 = time.perf_counter()
            self.unit()
            best = min(best, time.perf_counter() - t0)
        return best / self.nominal_s


_RECORDS = [json.dumps({"key": f"user.k{i}", "path": f"2049:{1000 + i}", "t": i,
                        "value": "QUJD" * 16}, sort_keys=True).encode() for i in range(16)]
_SMALL_BLOB = bytes(range(256)) * 64  # 16 KiB
_LARGE_BLOB = bytes(range(251)) * 4178  # about 1 MiB
_PATTERNS = (b"<?php", b"PK\x03\x04", b"eval(", b"<script", b"#!/", b"<html", b"MZ\x90",
             b"%PDF", b"GIF8")


def _interpreted_unit() -> None:
    """JSON records decoded and matched, as a journal scan does, and a
    little hashing and searching."""
    for raw in _RECORDS:
        record = json.loads(raw)
        if record.get("path") == "0:0" and record.get("key") == "user.x":
            raise AssertionError("no record matches")
    hashlib.sha256(_SMALL_BLOB).digest()
    _SMALL_BLOB.find(b"<?php")


def _bytes_unit() -> None:
    """A sha256 and nine searches over 1 MiB, as sniffing and hashing a
    large file do."""
    hashlib.sha256(_LARGE_BLOB).digest()
    for pattern in _PATTERNS:
        if _LARGE_BLOB.find(pattern) != -1:
            raise AssertionError("no pattern is in the blob")


#: For interpreted work: checks, writes, set-up, CLI processes. In 30 s
#: runs on a 2-vCPU VM, log(operation time) fitted against log(slowness)
#: with slopes of 0.8 to 1.4 (perfbench/README.md, Timing).
INTERPRETED = Reference(_interpreted_unit, 65e-6, repeat=3)
#: For bytes-bound work, the scans of bulk_scan_xattr, which track
#: INTERPRETED with slope 0.44 only but this one with slope 1.0.
BYTES = Reference(_bytes_unit, 7e-3, repeat=1)


class Timings:
    """Wall time of every operation, by kind, and the slowness of the host
    probed just before and just after it; kept in arrays so that it barely
    adds to the RSS.

    A shared host runs this process at a speed that changes by up to two
    times within a second and between minutes. An operation's scaled time
    is its wall time over the mean of its two probes: the time it would
    take at the reference's full speed.
    """

    def __init__(self):
        self.seconds: dict[str, array.array] = {}
        self.slowness: dict[str, array.array] = {}

    @contextlib.contextmanager
    def timed(self, kind: str, reference: Reference = INTERPRETED):
        before = reference.slowness()
        t0 = time.perf_counter()
        yield
        elapsed = time.perf_counter() - t0
        after = reference.slowness()
        self.seconds.setdefault(kind, array.array("d")).append(elapsed)
        self.slowness.setdefault(kind, array.array("d")).append((before + after) / 2)

    def median(self, kind: str) -> float:
        return statistics.median(self.seconds[kind])

    def scaled(self, kind: str) -> list[float]:
        return [s / r for s, r in zip(self.seconds[kind], self.slowness[kind])]

    def scaled_median(self, kind: str) -> float:
        return statistics.median(self.scaled(kind))

    def host_speed(self, kind: str) -> float:
        """The host's median speed over the probes of ``kind``, 1.0 at the
        reference's full speed."""
        return 1 / statistics.median(self.slowness[kind])


@dataclass
class Run:
    root: Path  # checkout root
    work: Path  # scratch directory inside the checkout
    seed: int
    seconds: float
    trace: bool
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    info: list[str] = field(default_factory=list)
    tracer: Tracer | None = None
    timings: Timings = field(default_factory=Timings)
    setup_load: object = None  # what setup_s times, between operations
    _next_setup: float = 0.0

    def fail(self, message: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(message)

    def judge(self, doc: dict, p: corpus.Planted, handler=None, sniffed=True) -> None:
        bad = oracle.check(doc, p, handler, sniffed)
        if bad:
            self.fail("; ".join(bad))

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)

    def note(self, text: str) -> None:
        self.info.append(text)

    @contextlib.contextmanager
    def operation(self, kind: str):
        """One timed operation. Under tracing it is also a root span, and
        its time is kept apart as ``<kind>.traced``."""
        if self.tracer is None:
            with self.timings.timed(kind):
                yield
        else:
            with self.timings.timed(f"{kind}.traced"), self.tracer.operation(kind):
                yield

    def span(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def loop(self, seconds: float, step, whole: int = 1) -> int:
        """Call ``step(i)`` for i = 0, 1, ... until ``seconds`` have passed
        and the number of calls is a multiple of ``whole``.

        Every ``SETUP_EVERY`` seconds, ``setup_load`` runs once between
        operations, so that setup_s is a median over the whole run.
        """
        deadline = time.perf_counter() + seconds
        i = 0
        while (now := time.perf_counter()) < deadline or i % whole:
            if self.setup_load is not None and now >= self._next_setup:
                with self.timings.timed("setup"):
                    self.setup_load()
                self._next_setup = now + SETUP_EVERY
            step(i)
            i += 1
        return i


class Sink(io.TextIOBase):
    """Stands in for stdout while the CLI runs in-process."""

    def __init__(self):
        self.parts: list[str] = []

    def writable(self) -> bool:
        return True

    def write(self, text: str) -> int:
        self.parts.append(text)
        return len(text)

    def text(self) -> str:
        return "".join(self.parts)


@contextlib.contextmanager
def in_dir(path: Path):
    """Run the in-process CLI where the reports' relative paths start."""
    cwd = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(cwd)


def compact(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, separators=(",", ":"))


def ms(seconds: float) -> float:
    return seconds * 1e3


def latency_metrics(run: Run, prefix: str, kinds, tails=()) -> None:
    """Median and each named tail of the operations of ``kinds``, pooled."""
    values = [ms(s) for kind in kinds for s in run.timings.seconds.get(kind, ())]
    if not values:
        return
    run.metric(f"{prefix}_p50", statistics.median(values), "ms")
    for q in tails:
        run.metric(f"{prefix}_p{q:g}", percentile(values, q), "ms")
    unsupported = [f"p{q:g}" for q in tails if not supports(len(values), q)]
    best = tail_percentile(len(values))
    run.note(f"{prefix}: n={len(values)} samples, highest supported tail "
             + (f"p{best:g}" if best else "none")
             + (f"; fewer than 10 samples beyond {', '.join(unsupported)}" if unsupported else ""))


def mix_rate(run: Run, mix: dict[str, float], median=None) -> float:
    """Operations per second of a fixed mix: ``mix`` gives each kind's share
    of the operations, and a kind's time per operation is its scaled
    median (or what ``median(kind)`` gives)."""
    median = median or run.timings.scaled_median
    return 1 / sum(share * median(kind) for kind, share in mix.items())


def config_file(run: Run, backend: str) -> Path:
    path = run.work / f"config-{backend}.json"
    path.write_text(json.dumps({
        "sidecar_path": str(run.work / "state" / "sidecar.jsonl"),
        "backend": backend,
    }), "utf-8")
    return path


def peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


def record_env(run: Run, corpus_dir: Path) -> None:
    try:
        fs = subprocess.run(["stat", "-f", "-c", "%T", str(corpus_dir)], capture_output=True,
                            text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        fs = "unknown"
    run.note(f"env: nproc={os.cpu_count()} cpus={sorted(os.sched_getaffinity(0))} "
             f"python={sys.version.split()[0]} corpus_fs={fs}")


def finish_untraced(run: Run, raw_ops_per_s: float) -> None:
    run.metric("setup_s", run.timings.scaled_median("setup"), "s")
    run.note(f"setup loads timed: {len(run.timings.seconds['setup'])}")
    run.note(f"host speed {run.timings.host_speed('setup'):.3f} of full; unscaled: "
             f"ops_per_s {raw_ops_per_s:.6g} 1/s, setup_s {run.timings.median('setup'):.6g} s")


def traced_loop(run: Run, seconds: float, step, size_of, store=lambda: None, setup=None,
                extra=None, whole: int = 1) -> None:
    """Run ``step(i)`` in a closed loop as ``Run.loop`` does, tracing every
    other operation. The traced ones give the per-layer metrics; the
    untraced ones, drawn from the same stretch of the run, are the baseline
    for the tracing overhead. ``store()`` gives the store in use, whose
    get/set are wrapped too. ``setup`` runs traced once before the loop."""
    tracer = Tracer(size_of)

    def traced(call):
        tracer.install(store())
        run.tracer = tracer
        try:
            call()
        finally:
            tracer.restore()
            run.tracer = None

    if setup is not None:
        traced(setup)
    run.attempted += run.loop(seconds, lambda i: traced(lambda: step(i)) if i % 2 else step(i),
                              whole)

    summary = Summary(tracer)
    layers = dict.fromkeys(LAYER_UNITS, 0.0)
    layers.update(summary.metrics())
    if "check" in run.timings.seconds and summary.checks():
        layers["trace.overhead_ms"] = ms(run.timings.median("check.traced")
                                         - run.timings.median("check"))
    layers.update(extra or {})
    for name, value in layers.items():
        run.metric(name, value, LAYER_UNITS[name])
    run.note(f"layer metrics use {summary.checks()} traced checks")
    if tracer.missing:
        run.note("trace: entry points not found (read as zero): "
                 + ", ".join(sorted(set(tracer.missing))))
    out = run.root / ".perfbench-out" / "spans.jsonl.gz"
    tracer.dump(out)
    run.note(f"trace: {len(tracer.spans)} spans written to {out.relative_to(run.root)}")


def check_file(run: Run, rt_mod, cli, runtime, path: Path, handler=None):
    """The per-file work of ``scan``: assess, build the report, encode it."""
    evidence, report, decision = rt_mod.assess_path(runtime, path, handler=handler)
    doc = cli.build_report(path, evidence, report, decision)
    with run.span("cli.json_dumps"):
        text = compact(doc)
    return doc, text


# --- bulk_scan_xattr ----------------------------------------------------------


def bulk_scan_xattr(run: Run) -> None:
    from contentoracle import cli, runtime as rt_mod, view_registry
    from contentoracle.config import Config

    corpus_dir = run.work / "corpus"
    corpus_dir.mkdir(parents=True)
    record_env(run, corpus_dir)
    if not view_registry.xattrs_supported(corpus_dir):
        raise Refused("user xattrs are unsupported on the corpus filesystem; refusing to "
                      "measure bulk_scan_xattr rather than fall back to the sidecar")
    rng = random.Random(run.seed)
    # Shards of 125 files, each with one large file, so that every scan
    # of a shard does about the same work.
    shards = [corpus_dir / f"s{n:02d}" for n in range(BULK_SHARDS)]
    planted = [p for shard in shards
               for p in corpus.generate(run.work, shard, rng, BULK_FILES // BULK_SHARDS,
                                        (4 * KIB, 64 * KIB),
                                        large_count=1, large=(9 * MIB, 9 * MIB))]
    total_bytes = sum(p.size for p in planted)
    cfg_path = config_file(run, "xattr")
    config = Config(sidecar_path=run.work / "state" / "sidecar.jsonl", backend="xattr")
    runtime = rt_mod.Runtime.load(config)
    planter = corpus.Planter(runtime.store, run.work)
    attributed = corpus.plant_attributes(planter, rng, planted, share=0.25)
    if config.sidecar_path.exists():
        raise Refused("attribute writes spilled to the sidecar; the corpus is not xattr-only")
    run.note(f"corpus: files={len(planted)} bytes={total_bytes} with_attributes={len(attributed)}")
    by_rel = {p.rel: p for p in planted}
    sizes = {str(run.work / p.rel): p.size for p in planted}

    first = run.work / planted[0].rel
    run.setup_load = lambda: rt_mod.Runtime.load(config).store.get(first, view_registry.VIEWS_KEY)

    order = list(planted)
    random.Random(run.seed + 1).shuffle(order)

    def check_step(i: int) -> None:
        p = order[i % len(order)]
        with run.operation("check"):
            doc, _ = check_file(run, rt_mod, cli, runtime, run.work / p.rel)
        run.judge(doc, p)

    if run.trace:
        traced_loop(run, run.seconds, check_step, lambda path: sizes.get(str(path), 0),
                    lambda: runtime.store,
                    setup=lambda: [rt_mod.Runtime.load(config) for _ in range(5)])
        return

    names = [shard.relative_to(run.work).as_posix() for shard in shards]
    shard_files = {name: [p for p in planted if p.rel.startswith(name + "/")] for name in names}
    digest = hashlib.sha256()

    def scan_step(i: int) -> None:
        name = names[i % len(names)]
        files = shard_files[name]
        sink = Sink()
        with in_dir(run.work), contextlib.redirect_stdout(sink), \
                run.timings.timed(name, BYTES):
            code = cli.main(["--config", str(cfg_path), "scan", name])
        text = sink.text()
        if i < len(names):
            digest.update(text.encode("utf-8"))
        lines = text.splitlines()
        run.attempted += len(files)
        if len(lines) != len(files):
            run.fail(f"scan of {name} emitted {len(lines)} reports for {len(files)} files")
            return
        worst = 0
        for line in lines:
            doc = json.loads(line)
            run.judge(doc, by_rel[doc["path"]])
            worst = max(worst, oracle.EXIT_CODE.get(doc["verdict"], 0))
        if code != worst:
            run.fail(f"scan of {name} exited {code}, worst verdict code is {worst}")

    scans = run.loop(run.seconds / 2, scan_step, whole=len(names))
    run.attempted += run.loop(run.seconds / 2, check_step)
    # one pass over the corpus, each shard at its median scan time
    scaled_pass = sum(run.timings.scaled_median(name) for name in names)
    run.metric("ops_per_s", len(planted) / scaled_pass, "1/s")
    run.metric("mb_per_s", total_bytes / scaled_pass / 1e6, "MB/s")
    latency_metrics(run, "check_ms", ["check"], tails=(90, 99))
    run.metric("peak_rss_mb", peak_rss_mb(), "MB")
    finish_untraced(run, len(planted) / sum(run.timings.median(name) for name in names))
    slowness = statistics.median(r for name in names for r in run.timings.slowness[name])
    run.note(f"host speed on the bytes reference during scans: {1 / slowness:.3f} of full")
    run.note(f"shard scans: {scans} ({scans / len(names):.1f} passes over the corpus)")
    run.note(f"report_sha256 (first scan pass): {digest.hexdigest()}")


# --- sidecar_churn ------------------------------------------------------------


def sidecar_churn(run: Run) -> None:
    from contentoracle import cli, ingest, policy_engine, runtime as rt_mod, view_registry
    from contentoracle.config import Config
    from contentoracle.mime_db import parse_mime_type

    record_env(run, run.work)
    rng = random.Random(run.seed)
    ops_rng = random.Random(run.seed + 1)
    digest = hashlib.sha256()
    value_bytes = [0]
    state = types.SimpleNamespace()

    def new_round(n: int) -> None:
        """A fresh corpus and a fresh journal that takes SIDECAR_PREFILL
        writes, so every round starts from the same journal size."""
        if n:  # the previous round's files are no longer read
            shutil.rmtree(run.work / f"round{n - 1}")
        corpus_dir = run.work / f"round{n}"
        planted = corpus.generate(run.work, corpus_dir, rng, 240, (1 * KIB, 8 * KIB))
        config = Config(sidecar_path=run.work / "state" / f"round{n}.jsonl", backend="sidecar")
        runtime = rt_mod.Runtime.load(config)
        value_bytes[0] = 0
        if run.trace:  # count what the journal is asked to hold, to weigh its size
            plain_set = runtime.store.set

            def counting_set(path, key, value):
                value_bytes[0] += len(value)
                plain_set(path, key, value)

            runtime.store.set = counting_set
        planter = corpus.Planter(runtime.store, run.work)
        corpus.plant_attributes(planter, rng, planted, share=0.6, writes=SIDECAR_PREFILL)
        first = run.work / planted[0].rel
        run.setup_load = lambda: rt_mod.Runtime.load(config).store.get(
            first, view_registry.VIEWS_KEY)
        state.__dict__.update(planted=planted, config=config, runtime=runtime,
                              sizes={str(run.work / p.rel): p.size for p in planted})

    def emit(i: int, text: str) -> None:
        if i < DIGEST_OPS:
            digest.update(text.encode("utf-8") + b"\n")

    def check(i: int) -> None:
        p = ops_rng.choice(state.planted)
        handler = ops_rng.choice(corpus.HANDLERS) if ops_rng.random() < HANDLER_SHARE else None
        with run.operation("check"):
            doc, text = check_file(run, rt_mod, cli, state.runtime, run.work / p.rel, handler)
        run.judge(doc, p, handler)
        emit(i, text)

    def write(i: int) -> None:
        p = ops_rng.choice(state.planted)
        path = run.work / p.rel
        t = corpus.EPOCH + 10**6 + i
        kind = WRITE_CYCLE[(i // WRITE_EVERY) % len(WRITE_CYCLE)]
        if kind == "record_view":
            app = ops_rng.choice(corpus.APPS)
            with run.operation(kind):
                view_registry.record_view(state.runtime.store, path, view_registry.ContentView(
                    app, parse_mime_type(p.header_mime), False,
                    view_registry.content_identity(path), t))
            p.views[app] = False
        elif kind == "set_trust":
            trusted = ops_rng.random() < 0.7
            with run.operation(kind):
                view_registry.set_trust(state.runtime.store, path, trusted, now=t)
            p.trust = "valid"
        elif kind == "set_handler_policy":
            allowed = () if ops_rng.random() < 0.5 else ("viewer",)
            policy = policy_engine.DENY_ALL if not allowed else \
                policy_engine.HandlerPolicy(allowed=allowed)
            with run.operation(kind):
                policy_engine.set_handler_policy(state.runtime.store, path, policy)
            p.policy = allowed
        else:
            choice = ops_rng.randrange(3)
            headers = ({"X-Content-Type-Options": "nosniff"} if choice == 0 else
                       {"Content-Type": ops_rng.choice(("text/plain", p.header_mime))}
                       if choice == 1 else {})
            url = f"https://files.example.test/{p.rel}"
            record = ingest.FetchRecord(url=url, final_url=url, status=200, headers=headers,
                                        body_path=path, fetched_at=t)
            with run.operation(kind):
                evidence, report, decision = ingest.assess_record(record, state.runtime, now=t)
            doc = cli.build_report(path, evidence, report, decision)
            run.judge(doc, p, sniffed=choice != 0)
            emit(i, compact(doc))
            p.views[ingest.INGEST_APP_ID] = False

    def step(i: int) -> None:
        if i and i % ROUND_OPS == 0:
            new_round(i // ROUND_OPS)
        (write if i % WRITE_EVERY == WRITE_EVERY - 1 else check)(i)

    new_round(0)
    if run.trace:
        traced_loop(run, run.seconds, step, lambda path: state.sizes.get(str(path), 0),
                    lambda: state.runtime.store,
                    setup=lambda: [rt_mod.Runtime.load(state.config) for _ in range(5)],
                    whole=ROUND_OPS)
        run.metric("view_registry.sidecar_bytes_per_value_byte",
                   state.config.sidecar_path.stat().st_size / value_bytes[0], "ratio")
        return

    ops = run.loop(run.seconds, step, whole=ROUND_OPS)
    run.attempted += ops
    mix = {"check": 1 - 1 / WRITE_EVERY}
    mix.update(dict.fromkeys(WRITE_CYCLE, 1 / WRITE_EVERY / len(WRITE_CYCLE)))
    run.metric("ops_per_s", mix_rate(run, mix), "1/s")
    latency_metrics(run, "check_ms", ["check"], tails=(90, 99))
    latency_metrics(run, "write_ms", WRITE_CYCLE, tails=(95,))
    for kind in WRITE_CYCLE:  # their costs differ 50-fold
        latency_metrics(run, f"{kind}_ms", [kind])
    run.metric("peak_rss_mb", peak_rss_mb(), "MB")
    finish_untraced(run, mix_rate(run, mix, run.timings.median))
    run.note(f"{ops // ROUND_OPS} rounds of {ROUND_OPS} operations, each after "
             f"{SIDECAR_PREFILL} journal writes; journal bytes after the last: "
             f"{state.config.sidecar_path.stat().st_size}")
    run.note(f"report_sha256 (first {DIGEST_OPS} operations): {digest.hexdigest()}")


# --- cli_cold -----------------------------------------------------------------


def child_env(run: Run) -> dict[str, str]:
    """Environment for CLI subprocesses: package from the checkout, a
    bytecode cache and every state directory inside the scratch dir."""
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("CONTENTORACLE_CONFIG", None)
    env.update({
        "PYTHONPATH": str(run.root / "src"),
        "PYTHONPYCACHEPREFIX": str(run.work / "pycache"),
        "HOME": str(run.work / "home"),
        "XDG_STATE_HOME": str(run.work / "home" / "state"),
        "XDG_CONFIG_HOME": str(run.work / "home" / "config"),
    })
    return env


def judge_diff(run: Run, stdout: str) -> None:
    try:
        doc = json.loads(stdout)
        bad = []
        if doc["grid_size"] != 5184:
            bad.append(f"grid_size {doc['grid_size']}")
        if doc["divergence_count"] != len(doc["divergences"]):
            bad.append("divergence_count does not match the list")
        if any(d["a"] == d["b"] for d in doc["divergences"]):
            bad.append("a divergence where both models agree")
        if (doc["model_a"], doc["model_b"]) != ("firefox-like", "opera-like"):
            bad.append("wrong model names")
    except (ValueError, KeyError, TypeError) as exc:
        bad = [f"unreadable diff output: {exc}"]
    if bad:
        run.fail("browser diff: " + "; ".join(bad))


def judge_check(run: Run, code: int, stdout: str, p: corpus.Planted, handler) -> None:
    try:
        doc = json.loads(stdout)
    except ValueError:
        run.fail(f"{p.rel}: check exited {code} with unreadable output")
        return
    run.judge(doc, p, handler)
    if code != oracle.EXIT_CODE.get(doc["verdict"]):
        run.fail(f"{p.rel}: exit code {code} for verdict {doc['verdict']!r}")


def cli_cold(run: Run) -> None:
    from contentoracle import browser_model, cli, runtime as rt_mod, view_registry
    from contentoracle.config import load_config

    corpus_dir = run.work / "corpus"
    corpus_dir.mkdir(parents=True)
    record_env(run, corpus_dir)
    rng = random.Random(run.seed)
    planted = corpus.generate(run.work, corpus_dir, rng, 200, (4 * KIB, 64 * KIB))
    by_rel = {p.rel: p for p in planted}
    cfg_path = config_file(run, "auto")
    config = load_config(str(cfg_path))
    runtime = rt_mod.Runtime.load(config)
    corpus.plant_attributes(corpus.Planter(runtime.store, run.work), rng, planted, share=0.25)
    env = child_env(run)
    base = [sys.executable, "-c", CLI_ENTRY, "--config", str(cfg_path)]
    diff_args = ["browser", "diff", "firefox-like", "opera-like"]
    ops_rng = random.Random(run.seed + 1)

    def pick(i: int):
        """The i-th invocation: a diff every DIFF_EVERY, otherwise a check."""
        if i % DIFF_EVERY == DIFF_EVERY - 1:
            return "diff", None, None, diff_args
        p = ops_rng.choice(planted)
        handler = ops_rng.choice(corpus.HANDLERS) if ops_rng.random() < HANDLER_SHARE else None
        return "check", p, handler, ["check", p.rel] + (["--handler", handler] if handler else [])

    def judge(kind, p, handler, code, out):
        if kind == "diff":
            if code != 0:
                run.fail(f"browser diff exited {code}")
            judge_diff(run, out)
        else:
            judge_check(run, code, out, p, handler)

    def invoke(args) -> subprocess.CompletedProcess:
        return subprocess.run(base + args, cwd=run.work, env=env, capture_output=True,
                              text=True, timeout=120)

    # warm the bytecode cache, untimed, and check what it printed
    for i in (0, DIFF_EVERY - 1):
        kind, p, handler, args = pick(i)
        proc = invoke(args)
        judge(kind, p, handler, proc.returncode, proc.stdout)
    run.attempted += 2

    models = [runtime.models_dir / f"{name}.tree" for name in ("firefox-like", "opera-like")]
    first = run.work / planted[0].rel

    def load():
        rt_mod.Runtime.load(config).store.get(first, view_registry.VIEWS_KEY)
        for model in models:
            browser_model.load_tree(model.read_text("utf-8"), name=model.stem)

    run.setup_load = load

    if run.trace:
        def probe(i):
            code = "pass" if i % 2 == 0 else "import contentoracle.cli"
            with run.timings.timed("interp" if i % 2 == 0 else "import"):
                subprocess.run([sys.executable, "-c", code], env=env, cwd=run.work,
                               check=True, timeout=120, capture_output=True)

        run.loop(run.seconds * 0.3, probe)

        def in_process(i):
            kind, p, handler, args = pick(i)
            sink = Sink()
            with in_dir(run.work), contextlib.redirect_stdout(sink), run.operation(kind):
                code = cli.main(["--config", str(cfg_path)] + args)
            judge(kind, p, handler, code, sink.text())

        interp_ms = ms(run.timings.median("interp"))
        traced_loop(run, run.seconds * 0.7, in_process,
                    lambda path: by_rel[str(path)].size if str(path) in by_rel else 0,
                    extra={"cli.interp_ms": interp_ms,
                           "cli.import_ms":
                               ms(run.timings.median("import")) - interp_ms})
        return

    digest = hashlib.sha256()

    def step(i):
        kind, p, handler, args = pick(i)
        with run.timings.timed(kind):
            proc = invoke(args)
        judge(kind, p, handler, proc.returncode, proc.stdout)
        if i < DIGEST_OPS:
            digest.update(proc.stdout.encode("utf-8"))

    run.attempted += run.loop(run.seconds, step)
    run.metric("ops_per_s", 1 / run.timings.scaled_median("check"), "1/s")
    latency_metrics(run, "cli_check_ms", ["check"], tails=(90,))
    latency_metrics(run, "cli_diff_ms", ["diff"])
    run.metric("peak_rss_mb", peak_rss_mb(resource.RUSAGE_CHILDREN), "MB")
    finish_untraced(run, 1 / run.timings.median("check"))
    run.note(f"report_sha256 (first {DIGEST_OPS} invocations): {digest.hexdigest()}")


WORKLOADS = {
    "bulk_scan_xattr": bulk_scan_xattr,
    "sidecar_churn": sidecar_churn,
    "cli_cold": cli_cold,
}

#: Units of the per-layer metrics of a traced run.
LAYER_UNITS = {
    "sniffer.calls": "count",
    "sniffer.bytes": "B",
    "sniffer.self_ms": "ms",
    "sniffer.mb_per_s": "MB/s",
    "sniffer.load_signatures_ms": "ms",
    "view_registry.hash_calls_per_file": "count",
    "view_registry.hash_mb_per_s": "MB/s",
    "runtime.content_bytes_per_file_byte": "ratio",
    "view_registry.get_calls_per_check": "count",
    "view_registry.get_hit_ratio": "ratio",
    "view_registry.get_us": "us",
    "view_registry.sidecar_records_scanned_per_check": "count",
    "view_registry.set_calls": "count",
    "view_registry.set_us": "us",
    "view_registry.sidecar_bytes_per_value_byte": "ratio",
    "view_registry.read_views_ms": "ms",
    "view_registry.get_trust_ms": "ms",
    "view_registry.read_provenance_ms": "ms",
    "name_analyzer.calls": "count",
    "name_analyzer.analyze_name_us": "us",
    "runtime.build_evidence_us": "us",
    "runtime.read_bytes_ms": "ms",
    "cli.json_dumps_us": "us",
    "discrepancy_engine.evaluate_us": "us",
    "policy_engine.decide_us": "us",
    "policy_engine.get_allowed_handlers_us": "us",
    "policy_engine.load_active_registry_ms": "ms",
    "mime_db.load_extension_map_ms": "ms",
    "cli.build_report_us": "us",
    "ingest.assess_record_ms": "ms",
    "cli.import_ms": "ms",
    "cli.interp_ms": "ms",
    "browser_model.load_tree_ms": "ms",
    "browser_model.grid_points": "count",
    "browser_model.run_calls": "count",
    "browser_model.differential_ms": "ms",
    "trace.check_ms_p50": "ms",
    "trace.layer_share_p50": "ratio",
    "trace.overhead_ms": "ms",
}
