"""Loaded registries plus the evidence-building step shared by the CLI and
the ingest pipeline.

Evidence comes from one streamed pass per file: the file is opened and
read once, in chunks that feed the sniffer's scan and, where the store may
hold views or trust for the file, one SHA-256 that they and the sniff report
are judged against, so a rewrite during the check cannot mix two contents.
One store ``read`` after that pass gives the attributes (handler policy,
provenance, and views and trust if the file was hashed); no other stage
reads the store, so ``evaluate`` and ``decide`` judge one version.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import NamedTuple

from .config import Config, read_data_file
from .discrepancy_engine import DiscrepancyReport, Evidence, evaluate
from .mime_db import ExtensionMap, load_extension_map
from .name_analyzer import analyze_name
from .policy_engine import (
    NO_RESTRICTION,
    ActiveRegistry,
    PolicyDecision,
    decide,
    load_active_registry,
    policy_from,
)
from .sniffer import SignatureDb, SniffScan, load_signatures
from .view_registry import (
    ATTRIBUTE_KEYS,
    CHUNK_SIZE,
    HASH_BOUND_KEYS,
    UNBOUND_KEYS,
    AttributeStore,
    AutoStore,
    SidecarStore,
    XattrStore,
    new_sha256,
    open_regular,
    provenance_from,
    trust_from,
    views_from,
)


def make_store(config: Config) -> AttributeStore:
    sidecar = SidecarStore(config.sidecar_path)
    if config.backend == "sidecar":
        return sidecar
    xattr = XattrStore(overflow=sidecar)
    if config.backend == "xattr":
        return xattr
    return AutoStore(xattr, sidecar)


class Runtime(NamedTuple):
    """Immutable bundle of everything a pipeline run needs."""

    ext_map: ExtensionMap
    sig_db: SignatureDb
    active: ActiveRegistry
    store: AttributeStore
    models_dir: Path

    @classmethod
    def load(cls, config: Config | None = None) -> "Runtime":
        config = config or Config()
        return cls(
            ext_map=read_data_file(config.mime_types_path, load_extension_map)[0],
            sig_db=read_data_file(config.magic_path, load_signatures),
            active=read_data_file(config.active_types_path, load_active_registry),
            store=make_store(config),
            models_dir=config.models_dir,
        )


def build_evidence(runtime: Runtime, path: str | Path, *, always_hash: bool = False) -> Evidence:
    """Gather every evidence source for one on-disk file.

    The file is read once, then its attributes. Its digest, taken if
    ``always_hash`` is set or the store may hold views or trust for it,
    becomes ``Evidence.content_hash``. A file has no declared type; only a
    download does, and ``ingest`` adds it. ``path`` is opened as spelled.
    """
    scan = SniffScan(runtime.sig_db)
    # opened before the name is analysed: "." and "/" have no name, and
    # fail here as the directories they are
    fd = open_regular(path)
    try:
        hashed = always_hash or runtime.store.may_hold(fd, HASH_BOUND_KEYS)
        digest = new_sha256() if hashed else None
        while chunk := os.read(fd, CHUNK_SIZE):
            if hashed:
                digest.update(chunk)
            scan.feed(chunk)
    finally:
        os.close(fd)
    content_hash = digest.digest() if hashed else None
    name_report = analyze_name(os.path.basename(path), runtime.ext_map.known_extensions())
    extension = name_report.logical_extension
    extension_mime = runtime.ext_map.primary(extension) if extension else None
    # views or trust on an unhashed file were written during the check
    attrs = runtime.store.read(path, ATTRIBUTE_KEYS if hashed else UNBOUND_KEYS)
    return Evidence(
        extension_mime=extension_mime,
        sniff=scan.report(),
        declared_mime=None,
        views=tuple(views_from(attrs, content_hash)),
        name_report=name_report,
        provenance=provenance_from(attrs),
        content_hash=content_hash,
        trust=trust_from(attrs, content_hash),
        policy=policy_from(attrs),
    )


def assess_path(runtime: Runtime, path: str | Path,
                handler: str | None = None) -> tuple[Evidence, DiscrepancyReport, PolicyDecision]:
    """Evidence, discrepancy report, and policy decision for one file."""
    evidence = build_evidence(runtime, path)
    return (evidence, *judge(runtime, evidence, handler))


def judge(runtime: Runtime, evidence: Evidence,
          handler: str | None = None) -> tuple[DiscrepancyReport, PolicyDecision]:
    """Discrepancy report and policy decision for ``evidence``; reads no store."""
    report = evaluate(evidence, runtime.active)
    return report, decide(report, evidence.trust, handler, evidence.policy or NO_RESTRICTION)
