"""Active-content registry, trust-aware decisions, per-file handler lists."""

from __future__ import annotations

from collections import namedtuple
from enum import Enum
from pathlib import Path

from .discrepancy_engine import DiscrepancyReport, Severity
from .mime_db import MimeType, data_lines, parse_mime_type
from .view_registry import AttributeStore, POLICY_KEY, TrustState, decode_record, encode_record


class ActiveRegistry(namedtuple("ActiveRegistry", "base_active", defaults=(frozenset(),))):
    """Which types count as active (executable) content.

    ``base_active`` ships with the package. Parameters are irrelevant to
    activity, so membership is by (family, subtype): a frozenset of pairs.
    """

    __slots__ = ()

    def is_active(self, mime: MimeType) -> bool:
        return mime.key in self.base_active


def load_active_registry(source: str) -> ActiveRegistry:
    """Load the base active set: one type per line, "#" comments."""
    return ActiveRegistry(frozenset(parse_mime_type(line.strip()).key
                                    for _, line in data_lines(source)))


class HandlerPolicy(namedtuple("HandlerPolicy", "allowed deny_all", defaults=((), False))):
    """Which applications may be invoked for one particular file.

    An empty ``allowed`` list with ``deny_all`` unset means no restriction
    was recorded; the explicit deny-all sentinel refuses every handler.
    """

    __slots__ = ()

    @property
    def restricts(self) -> bool:
        return self.deny_all or bool(self.allowed)

    def permits(self, app_id: str) -> bool:
        return not self.deny_all and (not self.allowed or app_id in self.allowed)


NO_RESTRICTION = HandlerPolicy()
DENY_ALL = HandlerPolicy(deny_all=True)


def set_handler_policy(store: AttributeStore, file: int | str | Path, policy: HandlerPolicy) -> None:
    store.set(file, POLICY_KEY, encode_record(POLICY_KEY, policy))


def policy_from(attrs: dict[str, bytes]) -> HandlerPolicy:
    """The handler policy among a file's attributes."""
    if POLICY_KEY not in attrs:
        return NO_RESTRICTION
    return HandlerPolicy(*decode_record(POLICY_KEY, attrs[POLICY_KEY]))


class Verdict(Enum):
    ALLOW = "allow"
    WARN = "warn"
    DENY = "deny"


class PolicyDecision(namedtuple("PolicyDecision", "verdict reasons")):
    """A :class:`Verdict` and the reasons for it, a tuple of strings."""

    __slots__ = ()


def decide(
    report: DiscrepancyReport,
    trust: TrustState,
    handler: str | None = None,
    policy: HandlerPolicy = NO_RESTRICTION,
) -> PolicyDecision:
    """Combine discrepancies, trust state, and handler policy into a verdict.

    Handler restrictions are absolute. Critical findings deny unless the
    file carries a valid trust decision, in which case they only warn: the
    user asked for the file but still deserves to hear that something about
    it flipped. Warnings (or an invalidated trust record) warn; everything
    else is allowed.
    """
    if handler is not None and not policy.permits(handler):
        reason = "handler policy denies all applications" if policy.deny_all else \
            f"handler {handler!r} not in allowed list [{', '.join(policy.allowed)}]"
        return PolicyDecision(Verdict.DENY, (reason,))

    max_sev = report.max_severity
    kinds = sorted({d.kind.value for d in report.discrepancies})
    if max_sev == Severity.CRITICAL and trust is not TrustState.TRUSTED:
        return PolicyDecision(
            Verdict.DENY,
            (f"critical discrepancies: {', '.join(kinds)}", f"trust state: {trust.value}"),
        )
    warns = max_sev is not None and max_sev >= Severity.WARNING
    if warns or trust is TrustState.INVALIDATED:
        reasons = []
        if warns:
            reasons.append(f"discrepancies at or above warning: {', '.join(kinds)}")
        if max_sev == Severity.CRITICAL:
            reasons.append("critical findings downgraded by valid trust record")
        if trust is TrustState.INVALIDATED:
            reasons.append("trust record invalidated by content change")
        return PolicyDecision(Verdict.WARN, tuple(reasons))
    if report.discrepancies:
        return PolicyDecision(Verdict.ALLOW, (f"informational findings only: {', '.join(kinds)}",))
    return PolicyDecision(Verdict.ALLOW, ())
