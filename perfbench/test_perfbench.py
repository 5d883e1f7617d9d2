"""Self-tests of the benchmark's helpers: order statistics, the oracle,
the corpus generator and the tracer. Run from the checkout root:

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import corpus
import oracle
import stats
import tracer

HERE = Path(__file__).resolve().parent


# --- stats --------------------------------------------------------------------


def test_percentile_interpolates_between_closest_ranks():
    xs = [40, 10, 30, 20]  # sorted: 10 20 30 40
    assert stats.percentile(xs, 0) == 10
    assert stats.percentile(xs, 100) == 40
    assert stats.percentile(xs, 50) == 25
    assert stats.percentile(xs, 90) == pytest.approx(37)
    assert stats.percentile([7], 99) == 7


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        stats.percentile([], 50)
    with pytest.raises(ValueError):
        stats.percentile([1, 2], 101)


@pytest.mark.parametrize("n, q, beyond", [
    (100, 90, 10), (99, 90, 9), (1000, 99, 10), (999, 99, 9), (200, 95, 10), (20, 50, 10),
])
def test_samples_beyond(n, q, beyond):
    assert stats.samples_beyond(n, q) == beyond
    assert stats.supports(n, q) == (beyond >= 10)


@pytest.mark.parametrize("n, tail", [
    (10000, 99.9), (9999, 99.0), (1000, 99.0), (999, 95.0), (200, 95.0), (199, 90.0),
    (100, 90.0), (99, 75.0), (40, 75.0), (39, 50.0), (20, 50.0), (19, None), (0, None),
])
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, tail):
    assert stats.tail_percentile(n) == tail


def test_quartile_spread_matches_statistics_quantiles():
    # quantiles(range(1, 10), n=4) -> 2.5, 5.0, 7.5
    assert stats.quartile_spread(range(1, 10)) == pytest.approx(1.0)
    assert stats.quartile_spread([5, 5, 5, 5]) == 0


# --- oracle -------------------------------------------------------------------


def planted(**overrides) -> corpus.Planted:
    fields = dict(rel="corpus/f00001.png", size=4096, header_mime="image/png",
                  name_kind="plain", anomalies=frozenset(), logical_ext="png", marker_mime=None)
    fields.update(overrides)
    return corpus.Planted(**fields)


def report(verdict="allow", kinds=(), anomalies=(), views=(), polyglot=False,
           origin=None, logical="png") -> dict:
    return {
        "name_report": {"anomalies": sorted(anomalies), "logical_extension": logical},
        "sniff": {"is_polyglot": polyglot},
        "views": [{"app": app, "stale": stale} for app, stale in views],
        "provenance": {"origin_url": origin},
        "discrepancies": [{"kind": k} for k in kinds],
        "verdict": verdict,
    }


def test_oracle_accepts_a_clean_file():
    assert oracle.check(report(), planted()) == []


def test_oracle_requires_exact_verdict_for_a_clean_file():
    assert oracle.check(report(verdict="warn"), planted())


def test_oracle_only_floors_the_verdict_of_other_files():
    p = planted(name_kind="double", anomalies=frozenset({"double_extension"}), logical_ext="exe")
    doc = report(kinds=["name_anomaly"], anomalies=["double_extension"], logical="exe")
    assert oracle.check(dict(doc, verdict="deny"), p) == []
    assert oracle.check(dict(doc, verdict="warn"), p) == []
    assert oracle.check(dict(doc, verdict="allow"), p)


def test_oracle_wants_polyglot_exactly_when_planted():
    p = planted(marker_mime="text/javascript")
    doc = report(verdict="deny", kinds=["polyglot"], polyglot=True)
    assert oracle.check(doc, p) == []
    assert oracle.check(report(verdict="deny"), p)
    assert oracle.check(doc, planted())


def test_oracle_without_sniffing_expects_no_polyglot():
    p = planted(marker_mime="text/javascript")
    assert oracle.check(report(), p, sniffed=False) == []


def test_oracle_deny_all_policy_denies_a_handler():
    p = planted(policy=())
    assert oracle.check(report(verdict="deny"), p, handler="viewer") == []
    assert oracle.check(report(verdict="allow"), p, handler="viewer")
    assert oracle.check(report(verdict="allow"), p) == []  # no handler asked


def test_oracle_allow_list_denies_only_outsiders():
    p = planted(policy=("viewer",))
    assert oracle.check(report(), p, handler="viewer") == []
    assert oracle.check(report(), p, handler="editor")


def test_oracle_invalidated_trust_is_at_least_a_warning():
    p = planted(trust="invalidated")
    assert oracle.check(report(verdict="warn"), p) == []
    assert oracle.check(report(verdict="allow"), p)


def test_oracle_checks_views_staleness_and_origin():
    p = planted(views={"viewer": True, "editor": False}, origin="https://o.test/x")
    doc = report(kinds=["stale_view"], views=[("editor", False), ("viewer", True)],
                 origin="https://o.test/x")
    assert oracle.check(doc, p) == []
    assert oracle.check(dict(doc, discrepancies=[]), p)
    assert oracle.check(dict(doc, views=[{"app": "viewer", "stale": True}]), p)
    assert oracle.check(dict(doc, provenance={"origin_url": None}), p)


def test_oracle_checks_name_anomalies():
    p = planted(name_kind="noext", anomalies=frozenset({"missing_extension"}), logical_ext=None)
    doc = report(kinds=["name_anomaly"], anomalies=["missing_extension"], logical=None)
    assert oracle.check(doc, p) == []
    assert oracle.check(report(logical=None), p)


# --- corpus -------------------------------------------------------------------

POLYGLOT_PATTERNS = (b"%PDF-", b"PK\x03\x04", b"\x7fELF", b"<!DOCTYPE html", b"<html",
                     b"<script", b"eval(", b"#!/", b"<?php")


def test_filler_avoids_every_pattern_start():
    data = corpus.filler(random.Random(1), 1 << 16)
    assert not set(data) & set(corpus._EXCLUDED)


@pytest.mark.parametrize("kind", [k for k, _ in corpus.NAME_KINDS])
def test_names_carry_their_planted_trick(kind):
    name, anomalies, logical = corpus.make_name("f00001", kind, "png")
    assert "/" not in name and name
    if kind == "plain":
        assert (name, anomalies, logical) == ("f00001.png", frozenset(), "png")
    elif kind == "bidi":
        assert "\u202e" in name and anomalies == {"bidi_override"}
    else:
        assert anomalies


def test_generate_plants_headers_and_markers_only(tmp_path):
    planted_files = corpus.generate(tmp_path, tmp_path / "c", random.Random(7), 40, (1024, 4096),
                                    large_count=1, large=(20000, 30000))
    assert len(planted_files) == 40
    assert sum(p.size > 4096 for p in planted_files) == 1
    for p in planted_files:
        data = (tmp_path / p.rel).read_bytes()
        assert len(data) == p.size
        header = next(h for m, h, _ in corpus.HEADERS if m == p.header_mime)
        assert data.startswith(header)
        found = {pat for pat in POLYGLOT_PATTERNS if pat in data[len(header):]}
        if p.marker_mime is None:
            assert not found
        else:
            start, end = p.marker_span
            assert found == {pat for pat in POLYGLOT_PATTERNS if pat in data[start:end]}


def test_generate_is_deterministic(tmp_path):
    a = corpus.generate(tmp_path, tmp_path / "a", random.Random(3), 10, (1024, 2048))
    b = corpus.generate(tmp_path, tmp_path / "b", random.Random(3), 10, (1024, 2048))
    assert [(p.size, p.marker_span) for p in a] == [(p.size, p.marker_span) for p in b]
    for pa, pb in zip(a, b):
        assert (tmp_path / pa.rel).read_bytes() == (tmp_path / pb.rel).read_bytes()


def test_rewrite_changes_content_and_invalidates(tmp_path):
    p = corpus.generate(tmp_path, tmp_path / "c", random.Random(5), 1, (1024, 1024))[0]
    p.views, p.trust = {"viewer": False}, "valid"
    path = tmp_path / p.rel
    before = path.read_bytes()
    corpus.rewrite(path, p)
    after = path.read_bytes()
    assert len(after) == len(before) and after != before
    assert p.views == {"viewer": True} and p.trust == "invalidated"


# --- tracer -------------------------------------------------------------------


def test_tracer_records_nested_spans_and_self_time():
    mod = types.SimpleNamespace()
    mod.inner = lambda: sum(range(1000))
    mod.outer = lambda: mod.inner() + mod.inner()
    t = tracer.Tracer()
    t.wrap(mod, "inner", "inner")
    t.wrap(mod, "outer", "outer")
    with t.operation("check"):
        mod.outer()
    names = [s[0] for s in t.spans]
    assert names == ["op.check", "outer", "inner", "inner"]
    assert [s[3] for s in t.spans] == [-1, 0, 1, 1]
    assert {s[4] for s in t.spans} == {1}
    selfs = tracer.self_times(t.spans)
    outer = t.spans[1]
    inner_total = sum(s[2] - s[1] for s in t.spans[2:])
    assert selfs[1] == outer[2] - outer[1] - inner_total
    summary = tracer.Summary(t)
    assert summary.calls["inner"] == 2 and summary.checks() == 1


def test_tracer_restores_module_and_instance_attributes():
    mod = types.SimpleNamespace(f=len)

    class Store:
        def get(self):
            return "plain"

    store = Store()
    t = tracer.Tracer()
    t.wrap(mod, "f", "f")
    t.wrap(store, "get", "get")
    assert mod.f is not len and "get" in vars(store)
    assert store.get() == "plain"
    t.restore()
    assert mod.f is len and "get" not in vars(store)


def test_tracer_skips_a_missing_entry_point():
    t = tracer.Tracer()
    t.wrap(types.SimpleNamespace(), "gone", "gone")
    assert t.missing == ["gone"]
    assert tracer.Summary(t).metrics()["sniffer.calls"] == 0


# --- command line -------------------------------------------------------------


def test_refuses_without_sources(tmp_path):
    """In a directory holding only the benchmark, it exits non-zero and
    prints no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli_cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())


def test_benchmark_json_names_every_metric_the_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text("utf-8"))
    import workloads

    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in spec["per_layer"]} == set(workloads.LAYER_UNITS)
    for m in spec["per_layer"]:
        assert m["unit"] == workloads.LAYER_UNITS[m["name"]]


# --- timings ----------------------------------------------------------------


def test_mix_rate_weighs_each_kind_by_its_share_at_its_median():
    import workloads

    timings = workloads.Timings()
    timings.seconds["check"] = [0.01, 0.01, 0.5]  # one slow outlier
    timings.seconds["diff"] = [0.1]
    run = types.SimpleNamespace(timings=timings)
    # nine checks of 10 ms and one diff of 100 ms take 0.19 s
    assert workloads.mix_rate(run, {"check": 0.9, "diff": 0.1}, timings.median) \
        == pytest.approx(1 / 0.019)


def test_scaled_time_is_wall_time_at_full_speed():
    import workloads

    timings = workloads.Timings()
    # the same 10 ms of work, on a host at full speed and at half speed
    timings.seconds["check"] = [0.01, 0.02, 0.02]
    timings.slowness["check"] = [1.0, 2.0, 2.0]
    assert timings.scaled("check") == pytest.approx([0.01, 0.01, 0.01])
    assert timings.scaled_median("check") == pytest.approx(0.01)
    assert timings.median("check") == pytest.approx(0.02)
    assert timings.host_speed("check") == pytest.approx(0.5)


def test_timed_probes_the_reference_around_each_operation():
    import workloads

    units = []
    reference = workloads.Reference(lambda: units.append(1), 1e-3, repeat=2)
    timings = workloads.Timings()
    for _ in range(3):
        with timings.timed("check", reference):
            pass
    assert len(timings.seconds["check"]) == len(timings.slowness["check"]) == 3
    assert all(r > 0 for r in timings.slowness["check"])
    assert len(units) == 3 * 2 * 2  # before and after, best of two


def test_reference_units_run_clean():
    import workloads

    for reference in (workloads.INTERPRETED, workloads.BYTES):
        assert reference.slowness() > 0


def test_loop_ends_on_a_whole_number_of_rounds():
    import workloads

    run = workloads.Run(root=HERE, work=HERE, seed=1, seconds=0, trace=False)
    calls = []
    assert run.loop(0.0, calls.append, whole=7) == 0
    n = run.loop(0.001, calls.append, whole=7)
    assert n >= 7 and n % 7 == 0 and calls == list(range(n))


def test_layer_share_leaves_out_the_self_time_of_glue():
    t = tracer.Tracer()
    t.kinds[1] = "check"
    t.spans = [["op.check", 0, 100, -1, 1], ["runtime.assess_path", 10, 90, 0, 1],
               ["sniffer.sniff", 20, 50, 1, 1], ["name_analyzer.known_extensions", 60, 70, 1, 1],
               ["name_analyzer.analyze_name", 70, 75, 1, 1]]
    summary = tracer.Summary(t)
    # sniff 30 + extension set 10 + analyze_name 5 of 100 ns
    assert summary.layer_share_p50() == pytest.approx(0.45)
    # the extension set counts toward analyze_name, which was called once
    assert summary.metrics()["name_analyzer.analyze_name_us"] == pytest.approx(15 / 1e3)
