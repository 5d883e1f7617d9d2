"""Cross-checks every evidence source for a file and ranks the disagreements.

The engine is deliberately pure: equal evidence yields equal reports. It
never remediates; it only names what disagrees with what and how badly.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum, IntEnum
from typing import TYPE_CHECKING

from .mime_db import MimeType
from .name_analyzer import NameAnomaly, NameReport
from .sniffer import SniffReport
from .view_registry import FlaggedView, Provenance, TrustState

if TYPE_CHECKING:
    from .policy_engine import ActiveRegistry, HandlerPolicy


class Severity(IntEnum):
    INFO = 1
    WARNING = 2
    CRITICAL = 3


class DiscrepancyKind(Enum):
    EXTENSION_SNIFF_MISMATCH = "extension_sniff_mismatch"
    DECLARED_SNIFF_MISMATCH = "declared_sniff_mismatch"
    VIEW_DIVERGENCE = "view_divergence"
    STALE_VIEW = "stale_view"
    POLYGLOT = "polyglot"
    NAME_ANOMALY = "name_anomaly"
    ACTIVITY_FLIP = "activity_flip"


@dataclass(frozen=True)
class Discrepancy:
    kind: DiscrepancyKind
    severity: Severity
    detail: str
    sources: tuple[str, ...] = ()


@dataclass(frozen=True)
class Evidence:
    """Everything known about one file, gathered from independent sources.

    ``content_hash`` is the SHA-256 of the bytes the sniff report judged and
    the views and trust were checked against; reports do not emit it.
    ``policy`` is ``None`` where no attributes were read.
    """

    extension_mime: MimeType | None
    sniff: SniffReport
    declared_mime: MimeType | None
    views: tuple[FlaggedView, ...]
    name_report: NameReport
    provenance: Provenance
    content_hash: bytes | None = None
    trust: TrustState = TrustState.UNSET
    policy: HandlerPolicy | None = None


@dataclass(frozen=True)
class DiscrepancyReport:
    discrepancies: tuple[Discrepancy, ...]
    resolved_mime: MimeType | None

    @property
    def max_severity(self) -> Severity | None:
        if not self.discrepancies:
            return None
        return max(d.severity for d in self.discrepancies)


# Severities for pure name anomalies; the double-extension case escalates
# separately when the final extension maps to an active type.
_NAME_SEVERITY = {
    NameAnomaly.MISSING_EXTENSION: Severity.INFO,
    NameAnomaly.TRAILING_WHITESPACE: Severity.INFO,
    NameAnomaly.DOUBLE_EXTENSION: Severity.WARNING,
    NameAnomaly.BIDI_OVERRIDE: Severity.WARNING,
    NameAnomaly.MIXED_SCRIPT_EXTENSION: Severity.WARNING,
}


def _mismatch_severity(a_active: bool, b_active: bool) -> Severity:
    if a_active != b_active:
        return Severity.CRITICAL  # one side active: this is the flip that matters
    if a_active:
        return Severity.WARNING
    return Severity.INFO


def _sort_key(d: Discrepancy):
    return (-int(d.severity), d.kind.value, d.detail)


def evaluate(evidence: Evidence, active_set: "ActiveRegistry") -> DiscrepancyReport:
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
