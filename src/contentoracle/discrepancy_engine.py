"""Cross-checks every evidence source for a file and ranks the disagreements.

The engine is deliberately pure: equal evidence yields equal reports. It
never remediates; it only names what disagrees with what and how badly.
"""

from __future__ import annotations

from collections import Counter, namedtuple
from enum import Enum, IntEnum
from typing import TYPE_CHECKING

from .name_analyzer import NameAnomaly
from .view_registry import TrustState

if TYPE_CHECKING:
    from .policy_engine import ActiveRegistry


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


class Discrepancy(namedtuple("Discrepancy", "kind severity detail sources", defaults=((),))):
    """One disagreement: its :class:`DiscrepancyKind` and :class:`Severity`,
    a detail line, and the names of the evidence sources that disagree."""

    __slots__ = ()


class Evidence(namedtuple("Evidence", "extension_mime sniff declared_mime views name_report "
                          "provenance content_hash trust policy",
                          defaults=(None, TrustState.UNSET, None))):
    """Everything known about one file, gathered from independent sources:
    the :class:`MimeType` of its extension and the declared one (each may be
    ``None``), its :class:`SniffReport`, its views (a tuple of
    :class:`FlaggedView`), :class:`NameReport` and :class:`Provenance`.

    ``content_hash`` is the SHA-256 of the sniffed bytes, which views and trust
    are checked against; ``None`` for a file with neither. Reports omit it.
    ``trust`` is a :class:`TrustState`; ``policy``, a :class:`HandlerPolicy`,
    is ``None`` where no attributes were read.
    """

    __slots__ = ()


class DiscrepancyReport(namedtuple("DiscrepancyReport", "discrepancies resolved_mime")):
    """The ranked :class:`Discrepancy` tuple of one file and the
    :class:`MimeType` it resolves to, ``None`` where no witness names one."""

    __slots__ = ()

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
    # each type witness that is present, with its one activity judgment
    witnesses = {
        source: (mime, active_set.is_active(mime))
        for source, mime in (("extension", evidence.extension_mime), ("sniff", top_mime),
                             ("declared", evidence.declared_mime))
        if mime is not None
    }

    for source, kind, says in (
        ("extension", DiscrepancyKind.EXTENSION_SNIFF_MISMATCH, "extension says"),
        ("declared", DiscrepancyKind.DECLARED_SNIFF_MISMATCH, "declared type"),
    ):
        if source not in witnesses or top_mime is None:
            continue
        mime, active = witnesses[source]
        if mime.key != top_mime.key:
            found.append(Discrepancy(
                kind, _mismatch_severity(active, witnesses["sniff"][1]),
                f"{says} {mime.format()}, content sniffs as {top_mime.format()}",
                (source, "sniff"),
            ))

    fresh = [fv.view for fv in evidence.views if not fv.stale]
    # The resolved type is the first witness present, content bytes being
    # the least forgeable source; without one, the fresh views' majority.
    resolved, resolved_active = next(
        (witnesses[source] for source in ("sniff", "declared", "extension") if source in witnesses),
        (None, False),
    )
    if resolved is None and fresh:
        counts = Counter(v.mime for v in fresh)
        resolved = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0].format()))[0][0]
        resolved_active = active_set.is_active(resolved)
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
    # Without a resolved type there are no fresh views to dissent.
    dissenting = [v for v in fresh if v.mime.key != resolved.key]
    if dissenting:
        involved_active = resolved_active or any(active_set.is_active(v.mime) for v in dissenting)
        found.append(Discrepancy(
            DiscrepancyKind.VIEW_DIVERGENCE,
            Severity.WARNING if involved_active else Severity.INFO,
            f"application views ({', '.join(sorted({v.mime.format() for v in dissenting}))}) "
            f"depart from the resolved type {resolved.format()}",
            tuple(sorted(f"view:{v.app_id}" for v in dissenting)),
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
                and "extension" in witnesses and witnesses["extension"][1]):
            sev = Severity.CRITICAL  # chained extensions ending in an active type
        found.append(Discrepancy(
            DiscrepancyKind.NAME_ANOMALY, sev,
            f"filename anomaly: {anomaly.value}",
            ("name",),
        ))

    judgments = [(source, active) for source, (_, active) in witnesses.items()]
    judgments += [(f"view:{view.app_id}", view.active) for view in fresh]
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

