"""Loaded registries plus the evidence-building step shared by the CLI and
the ingest pipeline.

Evidence comes from one snapshot per file: the file is opened once, and
one store ``read`` through that descriptor gives its attributes (views,
trust, handler policy, provenance), so a rename cannot pair them with
another file's bytes. Then the file is read once, in chunks that feed the
sniffer's scan and, where the snapshot holds views or trust, one SHA-256
that they are judged against, so a rewrite during the check cannot mix two
contents. No other stage reads the store, so ``evaluate`` and ``decide``
judge one version.
"""

from __future__ import annotations

import os
from collections import namedtuple
from pathlib import Path

from .config import Config, read_data_file
from .discrepancy_engine import DiscrepancyReport, Evidence, evaluate
from .mime_db import load_extension_map
from .name_analyzer import analyze_name
from .policy_engine import (
    NO_RESTRICTION,
    PolicyDecision,
    decide,
    load_active_registry,
    policy_from,
)
from .sniffer import SniffScan, load_signatures
from .view_registry import (
    ATTRIBUTE_KEYS,
    CHUNK_SIZE,
    TRUST_KEY,
    VIEWS_KEY,
    AttributeStore,
    AutoStore,
    SidecarStore,
    XattrStore,
    new_sha256,
    opened,
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


class Runtime(namedtuple("Runtime", "ext_map sig_db active store models_dir")):
    """Immutable bundle of everything a pipeline run needs: the
    :class:`ExtensionMap`, :class:`SignatureDb` and :class:`ActiveRegistry`,
    the :class:`AttributeStore` and the browser models' directory."""

    __slots__ = ()

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


def build_evidence(runtime: Runtime, path: str | Path, fd: int | None = None, *,
                   always_hash: bool = False) -> Evidence:
    """Gather every evidence source for one on-disk file.

    Its attributes are read once, then its bytes, through one descriptor:
    ``fd`` from its offset, else ``path`` opened as spelled. The bytes'
    digest, taken if ``always_hash`` is set or the attributes hold views or
    trust, is ``Evidence.content_hash``. Only a download has a declared type.
    """
    scan = SniffScan(runtime.sig_db)
    # opened before the name is analysed: "." and "/" have no name, and
    # fail here as the directories they are
    with opened(path if fd is None else fd) as fd:
        attrs = runtime.store.read(fd, ATTRIBUTE_KEYS)
        hashed = always_hash or VIEWS_KEY in attrs or TRUST_KEY in attrs
        digest = new_sha256() if hashed else None
        while chunk := os.read(fd, CHUNK_SIZE):
            if hashed:
                digest.update(chunk)
            scan.feed(chunk)
    content_hash = digest.digest() if hashed else None
    name_report = analyze_name(os.path.basename(path), runtime.ext_map.known_extensions())
    extension = name_report.logical_extension
    extension_mime = runtime.ext_map.primary(extension) if extension else None
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
