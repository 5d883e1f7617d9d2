"""Tests for evidence cross-checking: mismatches, flips, polyglots, ordering."""

from __future__ import annotations

import itertools
from collections import Counter

from hypothesis import given, settings, strategies as st

from contentoracle.discrepancy_engine import (
    _NAME_SEVERITY,
    Discrepancy,
    DiscrepancyKind,
    DiscrepancyReport,
    Evidence,
    Severity,
    _mismatch_severity,
    _sort_key,
    evaluate,
)
from contentoracle.mime_db import MimeType
from contentoracle.name_analyzer import NameAnomaly, NameReport
from contentoracle.policy_engine import ActiveRegistry
from contentoracle.sniffer import Candidate, EMPTY_REPORT, SniffReport, TextVerdict
from contentoracle.view_registry import ContentView, FlaggedView, Provenance

PDF = MimeType("application", "pdf")
ZIP = MimeType("application", "zip")
GIF = MimeType("image", "gif")
JS = MimeType("text", "javascript")

REGISTRY = ActiveRegistry(base_active=frozenset({JS.key, ("application", "x-shellscript")}))

CLEAN_NAME = NameReport("file.bin", "bin", ("bin",), frozenset())


def _sniff(*mimes: MimeType, polyglot: bool | None = None) -> SniffReport:
    candidates = tuple(
        Candidate(m, f"sig-{i}-{m.subtype}", 10 - i, i) for i, m in enumerate(mimes)
    )
    distinct = {m.key for m in mimes}
    return SniffReport(
        candidates=candidates,
        is_polyglot=len(distinct) >= 2 if polyglot is None else polyglot,
        text_fallback=TextVerdict.NOT_APPLIED if candidates else TextVerdict.LOOKS_BINARY,
        bytes_examined=4096,
    )


def _view(app: str, mime: MimeType, active: bool, stale: bool = False) -> FlaggedView:
    return FlaggedView(
        view=ContentView(app, mime, active, bytes(32), 1000),
        stale=stale,
    )


def _evidence(ext=None, sniff=EMPTY_REPORT, declared=None, views=(), name=CLEAN_NAME):
    return Evidence(
        extension_mime=ext, sniff=sniff, declared_mime=declared,
        views=tuple(views), name_report=name, provenance=Provenance(),
    )


def kinds(report):
    return [d.kind for d in report.discrepancies]


class TestAgreement:
    def test_total_agreement_is_consistent(self):
        report = evaluate(
            _evidence(ext=PDF, sniff=_sniff(PDF), declared=PDF), REGISTRY
        )
        assert not report.discrepancies
        assert report.discrepancies == ()
        assert report.resolved_mime == PDF

    def test_absence_is_not_disagreement(self):
        report = evaluate(_evidence(sniff=_sniff(PDF)), REGISTRY)
        assert not report.discrepancies

    def test_parameters_do_not_count_as_differing(self):
        declared = MimeType("application", "pdf", (("charset", "binary"),))
        report = evaluate(_evidence(ext=PDF, sniff=_sniff(PDF), declared=declared), REGISTRY)
        assert not report.discrepancies

    def test_agreement_grid(self):
        # brute force: any combination of present sources that all agree on
        # type and activity is consistent
        for mime in (PDF, JS):
            for use_ext, use_decl, use_sniff, use_view in itertools.product(
                (False, True), repeat=4
            ):
                active = REGISTRY.is_active(mime)
                evidence = _evidence(
                    ext=mime if use_ext else None,
                    declared=mime if use_decl else None,
                    sniff=_sniff(mime) if use_sniff else EMPTY_REPORT,
                    views=[_view("app", mime, active)] if use_view else (),
                )
                report = evaluate(evidence, REGISTRY)
                assert not report.discrepancies, (mime, use_ext, use_decl, use_sniff, use_view)


class TestMismatches:
    def test_extension_vs_sniff(self):
        report = evaluate(_evidence(ext=PDF, sniff=_sniff(ZIP)), REGISTRY)
        assert kinds(report) == [DiscrepancyKind.EXTENSION_SNIFF_MISMATCH]
        assert report.discrepancies[0].severity is Severity.INFO  # both inactive

    def test_declared_vs_sniff(self):
        report = evaluate(_evidence(declared=PDF, sniff=_sniff(ZIP)), REGISTRY)
        assert kinds(report) == [DiscrepancyKind.DECLARED_SNIFF_MISMATCH]

    def test_active_inactive_mismatch_is_critical_with_flip(self):
        # the motivating shape: a .pdf name whose bytes are script
        report = evaluate(_evidence(ext=PDF, sniff=_sniff(JS)), REGISTRY)
        got = kinds(report)
        assert DiscrepancyKind.ACTIVITY_FLIP in got
        assert DiscrepancyKind.EXTENSION_SNIFF_MISMATCH in got
        flip = next(d for d in report.discrepancies if d.kind is DiscrepancyKind.ACTIVITY_FLIP)
        assert flip.severity is Severity.CRITICAL

    def test_two_active_types_mismatch_is_warning(self):
        sh = MimeType("application", "x-shellscript")
        report = evaluate(_evidence(ext=sh, sniff=_sniff(JS)), REGISTRY)
        mismatch = next(
            d for d in report.discrepancies
            if d.kind is DiscrepancyKind.EXTENSION_SNIFF_MISMATCH
        )
        assert mismatch.severity is Severity.WARNING
        assert DiscrepancyKind.ACTIVITY_FLIP not in kinds(report)


class TestActivityFlip:
    def test_flip_always_critical(self):
        evidences = [
            _evidence(ext=PDF, sniff=_sniff(JS)),
            _evidence(declared=JS, sniff=_sniff(ZIP)),
            _evidence(ext=GIF, views=[_view("app", GIF, True)]),
        ]
        for evidence in evidences:
            report = evaluate(evidence, REGISTRY)
            flips = [d for d in report.discrepancies if d.kind is DiscrepancyKind.ACTIVITY_FLIP]
            assert flips and all(d.severity is Severity.CRITICAL for d in flips)

    def test_flip_via_view_activity_claim(self):
        # an application flags content active that every type source says is not
        report = evaluate(
            _evidence(ext=GIF, sniff=_sniff(GIF), views=[_view("scanner", GIF, True)]),
            REGISTRY,
        )
        assert DiscrepancyKind.ACTIVITY_FLIP in kinds(report)

    def test_single_flip_not_per_pair(self):
        report = evaluate(_evidence(ext=PDF, declared=GIF, sniff=_sniff(JS)), REGISTRY)
        flips = [d for d in report.discrepancies if d.kind is DiscrepancyKind.ACTIVITY_FLIP]
        assert len(flips) == 1
        assert "sniff" in flips[0].detail

    def test_stale_views_do_not_vote(self):
        report = evaluate(
            _evidence(ext=GIF, sniff=_sniff(GIF), views=[_view("old", JS, True, stale=True)]),
            REGISTRY,
        )
        assert DiscrepancyKind.ACTIVITY_FLIP not in kinds(report)
        assert DiscrepancyKind.STALE_VIEW in kinds(report)


class TestViews:
    def test_stale_view_reported_each(self):
        report = evaluate(
            _evidence(views=[_view("a", PDF, False, stale=True),
                             _view("b", PDF, False, stale=True)]),
            REGISTRY,
        )
        assert kinds(report).count(DiscrepancyKind.STALE_VIEW) == 2

    def test_fresh_view_divergence(self):
        report = evaluate(
            _evidence(views=[_view("a", PDF, False), _view("b", ZIP, False)]),
            REGISTRY,
        )
        assert DiscrepancyKind.VIEW_DIVERGENCE in kinds(report)

    def test_divergence_reported_once(self):
        report = evaluate(
            _evidence(views=[_view("a", PDF, False), _view("b", ZIP, False),
                             _view("c", GIF, False)]),
            REGISTRY,
        )
        assert kinds(report).count(DiscrepancyKind.VIEW_DIVERGENCE) == 1


class TestPolyglot:
    def test_polyglot_at_least_warning(self):
        report = evaluate(_evidence(sniff=_sniff(GIF, ZIP)), REGISTRY)
        poly = next(d for d in report.discrepancies if d.kind is DiscrepancyKind.POLYGLOT)
        assert poly.severity >= Severity.WARNING

    def test_polyglot_with_active_candidate_is_critical(self):
        report = evaluate(_evidence(sniff=_sniff(GIF, JS)), REGISTRY)
        poly = next(d for d in report.discrepancies if d.kind is DiscrepancyKind.POLYGLOT)
        assert poly.severity is Severity.CRITICAL


class TestNameAnomalies:
    def test_each_anomaly_reported(self):
        name = NameReport(
            "inv.pdf.exe", "exe", ("pdf", "exe"),
            frozenset({NameAnomaly.DOUBLE_EXTENSION, NameAnomaly.BIDI_OVERRIDE}),
        )
        report = evaluate(_evidence(name=name), REGISTRY)
        assert kinds(report).count(DiscrepancyKind.NAME_ANOMALY) == 2

    def test_double_extension_with_active_final_type_is_critical(self):
        name = NameReport("inv.pdf.exe", "exe", ("pdf", "exe"),
                          frozenset({NameAnomaly.DOUBLE_EXTENSION}))
        exe = MimeType("application", "x-shellscript")
        report = evaluate(_evidence(ext=exe, name=name, sniff=_sniff(exe)), REGISTRY)
        anomaly = next(d for d in report.discrepancies if d.kind is DiscrepancyKind.NAME_ANOMALY)
        assert anomaly.severity is Severity.CRITICAL


class TestReportShape:
    def test_ordering_severity_first(self):
        report = evaluate(
            _evidence(ext=PDF, sniff=_sniff(JS, GIF),
                      name=NameReport("f", None, (), frozenset({NameAnomaly.MISSING_EXTENSION}))),
            REGISTRY,
        )
        severities = [d.severity for d in report.discrepancies]
        assert severities == sorted(severities, reverse=True)

    def test_deterministic(self):
        evidence = _evidence(ext=PDF, declared=GIF, sniff=_sniff(JS, ZIP))
        assert evaluate(evidence, REGISTRY) == evaluate(evidence, REGISTRY)

    def test_consistent_iff_empty(self):
        ok = evaluate(_evidence(), REGISTRY)
        assert not ok.discrepancies
        bad = evaluate(_evidence(ext=PDF, sniff=_sniff(ZIP)), REGISTRY)
        assert bad.discrepancies


class TestMonotonicity:
    @staticmethod
    def _consensus_activity(evidence, resolved):
        judgments = []
        if evidence.extension_mime is not None:
            judgments.append(REGISTRY.is_active(evidence.extension_mime))
        if evidence.sniff.top is not None:
            judgments.append(REGISTRY.is_active(evidence.sniff.top.mime))
        if evidence.declared_mime is not None:
            judgments.append(REGISTRY.is_active(evidence.declared_mime))
        judgments.extend(fv.view.active for fv in evidence.views if not fv.stale)
        if judgments and all(j == judgments[0] for j in judgments):
            return judgments[0]
        return REGISTRY.is_active(resolved)

    def test_agreeing_fresh_view_never_increases_count(self):
        base_cases = [
            _evidence(ext=PDF, sniff=_sniff(ZIP)),
            _evidence(ext=PDF, sniff=_sniff(JS)),
            _evidence(sniff=_sniff(GIF, JS)),
            _evidence(declared=GIF, sniff=_sniff(ZIP),
                      views=[_view("other", PDF, False)]),
            _evidence(views=[_view("claimant", ZIP, True)]),
            _evidence(views=[_view("a", PDF, False), _view("b", ZIP, False)]),
            _evidence(),
        ]
        for evidence in base_cases:
            before = evaluate(evidence, REGISTRY)
            resolved = before.resolved_mime
            if resolved is None:
                continue
            agreeing = _view("newcomer", resolved,
                             self._consensus_activity(evidence, resolved))
            widened = _evidence(
                ext=evidence.extension_mime, sniff=evidence.sniff,
                declared=evidence.declared_mime,
                views=list(evidence.views) + [agreeing],
                name=evidence.name_report,
            )
            after = evaluate(widened, REGISTRY)
            assert len(after.discrepancies) <= len(before.discrepancies), evidence


class TestResolvedMime:
    def test_sniff_beats_declared(self):
        report = evaluate(_evidence(declared=PDF, sniff=_sniff(ZIP)), REGISTRY)
        assert report.resolved_mime == ZIP

    def test_declared_beats_extension(self):
        report = evaluate(_evidence(ext=GIF, declared=PDF), REGISTRY)
        assert report.resolved_mime == PDF

    def test_extension_beats_views(self):
        report = evaluate(_evidence(ext=GIF, views=[_view("a", PDF, False)]), REGISTRY)
        assert report.resolved_mime == GIF

    def test_view_majority(self):
        report = evaluate(
            _evidence(views=[_view("a", PDF, False), _view("b", PDF, False),
                             _view("c", ZIP, False)]),
            REGISTRY,
        )
        assert report.resolved_mime == PDF

    def test_no_sources_no_resolution(self):
        assert evaluate(_evidence(), REGISTRY).resolved_mime is None


class _CountingRegistry:
    """An active registry that counts its ``is_active`` calls."""

    def __init__(self, registry: ActiveRegistry):
        self.registry = registry
        self.calls = 0

    def is_active(self, mime: MimeType) -> bool:
        self.calls += 1
        return self.registry.is_active(mime)


class TestWitnessTable:
    def test_each_type_witness_judged_once(self):
        # all three witnesses, both mismatches and a double extension
        # ending in an active type
        name = NameReport("inv.pdf.js", "js", ("pdf", "js"),
                          frozenset({NameAnomaly.DOUBLE_EXTENSION}))
        registry = _CountingRegistry(REGISTRY)
        report = evaluate(
            _evidence(ext=JS, sniff=_sniff(PDF), declared=GIF, name=name), registry
        )
        assert {DiscrepancyKind.EXTENSION_SNIFF_MISMATCH,
                DiscrepancyKind.DECLARED_SNIFF_MISMATCH} <= set(kinds(report))
        assert registry.calls == 3

    def test_resolved_type_is_judged_in_the_table(self):
        # three inactive witnesses; two fresh views name other inactive types
        registry = _CountingRegistry(REGISTRY)
        report = evaluate(
            _evidence(ext=GIF, sniff=_sniff(PDF), declared=PDF,
                      views=[_view("a", ZIP, False), _view("b", GIF, False)]),
            registry,
        )
        assert DiscrepancyKind.VIEW_DIVERGENCE in kinds(report)
        assert registry.calls == 5


# --- the evaluate that judged each witness once per use, kept to compare with


def reference_evaluate(evidence: Evidence, active_set: "ActiveRegistry") -> DiscrepancyReport:
    """Compare all present sources; absence is never treated as disagreement.

    Type comparisons look at (family, subtype) only, so charset and similar
    parameters cannot raise alarms. Activity judgments come from the active
    registry for type-derived sources and from each application's own flag
    for its recorded view.
    """
    found: list[Discrepancy] = []
    top = evidence.sniff.top
    top_mime = top.mime if top else None

    def differs(a: MimeType, b: MimeType) -> bool:
        return a.key != b.key

    if evidence.extension_mime and top_mime and differs(evidence.extension_mime, top_mime):
        sev = _mismatch_severity(
            active_set.is_active(evidence.extension_mime), active_set.is_active(top_mime)
        )
        found.append(Discrepancy(
            DiscrepancyKind.EXTENSION_SNIFF_MISMATCH, sev,
            f"extension says {evidence.extension_mime.format()}, content sniffs as {top_mime.format()}",
            ("extension", "sniff"),
        ))

    if evidence.declared_mime and top_mime and differs(evidence.declared_mime, top_mime):
        sev = _mismatch_severity(
            active_set.is_active(evidence.declared_mime), active_set.is_active(top_mime)
        )
        found.append(Discrepancy(
            DiscrepancyKind.DECLARED_SNIFF_MISMATCH, sev,
            f"declared type {evidence.declared_mime.format()}, content sniffs as {top_mime.format()}",
            ("declared", "sniff"),
        ))

    fresh = [fv.view for fv in evidence.views if not fv.stale]
    resolved = _resolve_mime(evidence, fresh)
    for fv in evidence.views:
        if fv.stale:
            found.append(Discrepancy(
                DiscrepancyKind.STALE_VIEW, Severity.INFO,
                f"view by {fv.view.app_id} predates the current file contents",
                (f"view:{fv.view.app_id}",),
            ))

    # Divergence is measured against the resolved consensus rather than
    # pairwise between views: a confirming view must never make the report
    # worse. Splits purely on the activity flag surface as ActivityFlip.
    if resolved is not None:
        dissenters = sorted(
            {v.mime.format() for v in fresh if v.mime.key != resolved.key}
        )
        if dissenters:
            involved_active = active_set.is_active(resolved) or any(
                active_set.is_active(v.mime) for v in fresh if v.mime.key != resolved.key
            )
            found.append(Discrepancy(
                DiscrepancyKind.VIEW_DIVERGENCE,
                Severity.WARNING if involved_active else Severity.INFO,
                f"application views ({', '.join(dissenters)}) depart from "
                f"the resolved type {resolved.format()}",
                tuple(sorted(
                    f"view:{v.app_id}" for v in fresh if v.mime.key != resolved.key
                )),
            ))

    if evidence.sniff.is_polyglot:
        any_active = any(active_set.is_active(c.mime) for c in evidence.sniff.candidates)
        names = ", ".join(sorted({c.mime.format() for c in evidence.sniff.candidates}))
        found.append(Discrepancy(
            DiscrepancyKind.POLYGLOT,
            Severity.CRITICAL if any_active else Severity.WARNING,
            f"content matches multiple types: {names}",
            ("sniff",),
        ))

    for anomaly in sorted(evidence.name_report.anomalies, key=lambda a: a.value):
        sev = _NAME_SEVERITY[anomaly]
        if (anomaly is NameAnomaly.DOUBLE_EXTENSION
                and evidence.extension_mime is not None
                and active_set.is_active(evidence.extension_mime)):
            sev = Severity.CRITICAL  # chained extensions ending in an active type
        found.append(Discrepancy(
            DiscrepancyKind.NAME_ANOMALY, sev,
            f"filename anomaly: {anomaly.value}",
            ("name",),
        ))

    judgments: list[tuple[str, bool]] = []
    if evidence.extension_mime is not None:
        judgments.append(("extension", active_set.is_active(evidence.extension_mime)))
    if top_mime is not None:
        judgments.append(("sniff", active_set.is_active(top_mime)))
    if evidence.declared_mime is not None:
        judgments.append(("declared", active_set.is_active(evidence.declared_mime)))
    for view in fresh:
        judgments.append((f"view:{view.app_id}", view.active))
    verdicts = {active for _, active in judgments}
    if len(verdicts) == 2:
        active_side = sorted(name for name, active in judgments if active)
        inactive_side = sorted(name for name, active in judgments if not active)
        found.append(Discrepancy(
            DiscrepancyKind.ACTIVITY_FLIP, Severity.CRITICAL,
            f"active per {', '.join(active_side)} but inactive per {', '.join(inactive_side)}",
            tuple(active_side + inactive_side),
        ))

    return DiscrepancyReport(
        discrepancies=tuple(sorted(found, key=_sort_key)),
        resolved_mime=resolved,
    )


def _resolve_mime(evidence: Evidence, fresh_views) -> MimeType | None:
    """Single best type. Content bytes are the least forgeable source, so:
    sniffed top candidate, then declared header, then extension, then the
    majority opinion of fresh views.
    """
    if evidence.sniff.top is not None:
        return evidence.sniff.top.mime
    if evidence.declared_mime is not None:
        return evidence.declared_mime
    if evidence.extension_mime is not None:
        return evidence.extension_mime
    if fresh_views:
        counts = Counter(v.mime for v in fresh_views)
        return sorted(counts.items(), key=lambda kv: (-kv[1], kv[0].format()))[0][0]
    return None


# Types with and without parameters; equal keys, different parameters.
_TYPE_POOL = [
    PDF, ZIP, GIF, JS, MimeType("application", "x-shellscript"),
    MimeType("application", "pdf", (("charset", "binary"),)),
    MimeType("text", "javascript", (("Charset", "utf-8"),)),
]
_types = st.sampled_from(_TYPE_POOL)
_registries = st.builds(
    lambda keys: ActiveRegistry(base_active=frozenset(keys)),
    st.sets(st.sampled_from(sorted({m.key for m in _TYPE_POOL}))),
)
_sniffs = st.builds(
    lambda mimes, polyglot: _sniff(*mimes, polyglot=polyglot),
    st.lists(_types, max_size=3),
    st.one_of(st.none(), st.booleans()),
)
_views = st.lists(
    st.builds(_view, st.sampled_from(["a", "b", "c"]), _types, st.booleans(), st.booleans()),
    max_size=4,
)
_names = st.builds(
    lambda anomalies: NameReport("f.pdf.js", "js", ("pdf", "js"), frozenset(anomalies)),
    st.sets(st.sampled_from(list(NameAnomaly))),
)
_evidences = st.builds(
    _evidence,
    ext=st.one_of(st.none(), _types),
    sniff=_sniffs,
    declared=st.one_of(st.none(), _types),
    views=_views,
    name=_names,
)


class TestEvaluateMatchesReference:
    @settings(max_examples=400)
    @given(evidence=_evidences, registry=_registries)
    def test_same_report(self, evidence, registry):
        assert repr(evaluate(evidence, registry)) == repr(reference_evaluate(evidence, registry))
