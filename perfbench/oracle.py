"""Judges a JSON report against what the generator planted.

The oracle never calls the package. Its expectations follow from the
planted facts and the documented rules: which filename tricks are
anomalies, that a second content type is a polyglot, that a content
change makes views stale and trust invalid, that a deny-all or
allow-list policy refuses a handler outside it, and which findings are
at least warnings.
"""

from __future__ import annotations

from corpus import Planted

RANK = {"allow": 0, "warn": 1, "deny": 2}
EXIT_CODE = {"allow": 0, "warn": 1, "deny": 2}

#: Name anomalies that are at least warnings on their own.
WARNING_ANOMALIES = frozenset({"double_extension", "bidi_override", "mixed_script_extension"})


def handler_denied(p: Planted, handler: str | None) -> bool:
    if handler is None or p.policy is None:
        return False
    return not p.policy or handler not in p.policy


def verdict_floor(p: Planted, handler: str | None = None, sniffed: bool = True) -> str:
    """The mildest verdict the planted facts allow."""
    if handler_denied(p, handler):
        return "deny"
    if (p.trust == "invalidated" or p.anomalies & WARNING_ANOMALIES
            or (sniffed and p.marker_mime is not None)):
        return "warn"
    return "allow"


def is_clean(p: Planted) -> bool:
    """Honest name and a single content type: nothing but trust state and
    handler policy can raise the verdict above allow."""
    return p.name_kind == "plain" and p.marker_mime is None


def check(doc: dict, p: Planted, handler: str | None = None, sniffed: bool = True) -> list[str]:
    """Mismatches between one report and the planted record (empty if none)."""
    bad = []

    def expect(what: str, got, want) -> None:
        if got != want:
            bad.append(f"{p.rel}: {what}: got {got!r}, want {want!r}")

    name = doc["name_report"]
    expect("anomalies", name["anomalies"], sorted(p.anomalies))
    expect("logical_extension", name["logical_extension"], p.logical_ext)
    kinds = {d["kind"] for d in doc["discrepancies"] or ()}
    polyglot = sniffed and p.marker_mime is not None
    expect("sniff.is_polyglot", doc["sniff"]["is_polyglot"], polyglot)
    expect("polyglot discrepancy", "polyglot" in kinds, polyglot)
    expect("name_anomaly discrepancy", "name_anomaly" in kinds, bool(p.anomalies))
    expect("views", [(v["app"], v["stale"]) for v in doc["views"]], sorted(p.views.items()))
    expect("stale_view discrepancy", "stale_view" in kinds, any(p.views.values()))
    expect("origin_url", doc["provenance"]["origin_url"], p.origin)
    verdict = doc["verdict"]
    floor = verdict_floor(p, handler, sniffed)
    if verdict not in RANK or RANK[verdict] < RANK[floor]:
        bad.append(f"{p.rel}: verdict {verdict!r} below floor {floor!r}")
    elif is_clean(p) and not handler_denied(p, handler):
        expect("verdict of a clean file", verdict, floor)
    return bad
