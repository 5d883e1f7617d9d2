"""Tests for activity lookup, the decision function, and handler policies."""

from __future__ import annotations

import itertools

import pytest

from contentoracle.discrepancy_engine import (
    Discrepancy,
    DiscrepancyKind,
    DiscrepancyReport,
    Severity,
)
from contentoracle.errors import MalformedMime
from contentoracle.mime_db import MimeType, parse_mime_type
from contentoracle.policy_engine import (
    DENY_ALL,
    HandlerPolicy,
    NO_RESTRICTION,
    Verdict,
    decide,
    load_active_registry,
    policy_from,
    set_handler_policy,
)
from contentoracle.view_registry import POLICY_KEY, TrustState

JS = MimeType("text", "javascript")
GIF = MimeType("image", "gif")


class TestActiveRegistry:
    def test_javascript_active_by_default(self, runtime):
        assert runtime.active.is_active(JS) is True

    def test_gif_inactive_by_default(self, runtime):
        assert runtime.active.is_active(GIF) is False

    def test_parameters_irrelevant(self, runtime):
        assert runtime.active.is_active(parse_mime_type("text/javascript; charset=utf-8"))

    def test_loader_ignores_comments(self):
        reg = load_active_registry("# c\n\ntext/javascript\n")
        assert reg.base_active == frozenset({("text", "javascript")})

    def test_malformed_line_names_its_number(self):
        with pytest.raises(MalformedMime) as excinfo:
            load_active_registry("text/html\n\ntext/\n")
        assert str(excinfo.value) == "line 3: empty token in '' (while parsing 'text/')"

    def test_default_set_covers_spec_families(self, runtime):
        for text in ("text/javascript", "application/x-executable",
                     "application/x-shellscript", "application/x-bat"):
            assert runtime.active.is_active(parse_mime_type(text)), text


def report_with(severity: Severity | None) -> DiscrepancyReport:
    if severity is None:
        return DiscrepancyReport((), resolved_mime=None)
    return DiscrepancyReport(
        (Discrepancy(DiscrepancyKind.ACTIVITY_FLIP if severity is Severity.CRITICAL
                     else DiscrepancyKind.EXTENSION_SNIFF_MISMATCH,
                     severity, "synthetic", ("a", "b")),),
        resolved_mime=None,
    )


SEVERITIES = [None, Severity.INFO, Severity.WARNING, Severity.CRITICAL]
TRUSTS = list(TrustState)
HANDLER_CASES = {
    "unrestricted": (None, NO_RESTRICTION),
    "allowed": ("viewer", HandlerPolicy(allowed=("viewer", "editor"))),
    "blocked": ("viewer", HandlerPolicy(allowed=("editor",))),
}


def oracle(severity: Severity | None, trust: TrustState, handler_case: str) -> Verdict:
    """Independent brute-force restatement of the decision rules."""
    if handler_case == "blocked":
        return Verdict.DENY
    if severity is Severity.CRITICAL and trust is not TrustState.TRUSTED:
        return Verdict.DENY
    if severity in (Severity.WARNING, Severity.CRITICAL) or trust is TrustState.INVALIDATED:
        return Verdict.WARN
    return Verdict.ALLOW


class TestDecide:
    def test_consistent_unset_allows(self):
        decision = decide(report_with(None), TrustState.UNSET)
        assert decision.verdict is Verdict.ALLOW
        assert decision.reasons == ()

    def test_activity_flip_unset_denies(self):
        assert decide(report_with(Severity.CRITICAL), TrustState.UNSET).verdict is Verdict.DENY

    def test_activity_flip_trusted_warns(self):
        decision = decide(report_with(Severity.CRITICAL), TrustState.TRUSTED)
        assert decision.verdict is Verdict.WARN
        assert decision.reasons

    def test_invalidated_trust_warns_even_when_consistent(self):
        assert decide(report_with(None), TrustState.INVALIDATED).verdict is Verdict.WARN

    def test_info_only_allows_with_reasons(self):
        decision = decide(report_with(Severity.INFO), TrustState.UNSET)
        assert decision.verdict is Verdict.ALLOW
        assert decision.reasons  # allow with findings still explains itself

    def test_handler_restriction_wins_over_trust(self):
        handler, policy = HANDLER_CASES["blocked"][0], HANDLER_CASES["blocked"][1]
        decision = decide(report_with(None), TrustState.TRUSTED, handler, policy)
        assert decision.verdict is Verdict.DENY
        assert decision.reasons

    def test_deny_all_sentinel(self):
        decision = decide(report_with(None), TrustState.UNSET, "anyApp", DENY_ALL)
        assert decision.verdict is Verdict.DENY

    def test_empty_policy_is_no_restriction(self):
        decision = decide(report_with(None), TrustState.UNSET, "anyApp", NO_RESTRICTION)
        assert decision.verdict is Verdict.ALLOW

    def test_truth_table_matches_oracle(self):
        for severity, trust, case in itertools.product(SEVERITIES, TRUSTS, HANDLER_CASES):
            handler, policy = HANDLER_CASES[case]
            got = decide(report_with(severity), trust, handler, policy).verdict
            assert got is oracle(severity, trust, case), (severity, trust, case)

    def test_verdict_monotone_in_severity(self):
        rank = {Verdict.ALLOW: 0, Verdict.WARN: 1, Verdict.DENY: 2}
        for trust, case in itertools.product(TRUSTS, HANDLER_CASES):
            handler, policy = HANDLER_CASES[case]
            codes = [
                rank[decide(report_with(sev), trust, handler, policy).verdict]
                for sev in SEVERITIES
            ]
            assert codes == sorted(codes), (trust, case, codes)

    def test_reasons_non_empty_unless_clean_allow(self):
        for severity, trust, case in itertools.product(SEVERITIES, TRUSTS, HANDLER_CASES):
            handler, policy = HANDLER_CASES[case]
            decision = decide(report_with(severity), trust, handler, policy)
            if decision.verdict is Verdict.ALLOW and severity is None:
                continue
            assert decision.reasons, (severity, trust, case)


class TestHandlerPersistence:
    def test_set_get_round_trip(self, backend):
        path = backend.workdir / "f.bin"
        path.write_bytes(b"x")
        set_handler_policy(backend.store, path, HandlerPolicy(allowed=("viewerA",)))
        policy = policy_from(backend.store.read(path, (POLICY_KEY,)))
        assert policy.allowed == ("viewerA",)
        assert policy.restricts

    def test_unset_file_has_no_restriction(self, backend):
        path = backend.workdir / "f.bin"
        path.write_bytes(b"x")
        assert policy_from(backend.store.read(path, (POLICY_KEY,))) == NO_RESTRICTION

    def test_deny_all_round_trips_and_denies(self, backend):
        path = backend.workdir / "f.bin"
        path.write_bytes(b"x")
        set_handler_policy(backend.store, path, DENY_ALL)
        policy = policy_from(backend.store.read(path, (POLICY_KEY,)))
        assert policy.deny_all is True
        assert decide(report_with(None), TrustState.UNSET, "anyApp", policy).verdict \
            is Verdict.DENY

    def test_empty_list_means_no_restriction(self, backend):
        path = backend.workdir / "f.bin"
        path.write_bytes(b"x")
        set_handler_policy(backend.store, path, HandlerPolicy(allowed=()))
        policy = policy_from(backend.store.read(path, (POLICY_KEY,)))
        assert not policy.restricts
        assert policy.permits("anything")

    def test_missing_file_raises(self, backend):
        with pytest.raises(OSError):
            policy_from(backend.store.read(backend.workdir / "missing", (POLICY_KEY,)))
