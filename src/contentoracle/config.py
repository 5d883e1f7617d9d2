"""Configuration: data-file locations, sidecar database, backend selection.

Search order for the config file: an explicit ``--config`` path, the
``CONTENTORACLE_CONFIG`` environment variable, then the per-user config
directory. Missing config falls back to the bundled data files under the
package's data directory.
"""

from __future__ import annotations

import json
import os
from collections import namedtuple
from pathlib import Path
from typing import Any, Callable

from .errors import ConfigError, ContentOracleError
from .view_registry import CHUNK_SIZE, opened

ENV_VAR = "CONTENTORACLE_CONFIG"

DATA_DIR = Path(__file__).resolve().parent / "data"

_BACKENDS = ("auto", "xattr", "sidecar")


def _default_sidecar() -> Path:
    state_home = os.environ.get("XDG_STATE_HOME")
    base = Path(state_home) if state_home else Path.home() / ".local" / "state"
    return base / "contentoracle" / "sidecar.sqlite3"


class Config(namedtuple(
        "Config", "mime_types_path magic_path active_types_path models_dir sidecar_path backend",
        defaults=(DATA_DIR / "mime.snapshot.types", DATA_DIR / "magic.signatures",
                  DATA_DIR / "active.types", DATA_DIR / "models", None, "auto"))):
    """Where the data files, the models and the sidecar database are, each a
    ``Path``, and the backend: one of ``_BACKENDS``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        config = super().__new__(cls, *args, **kwargs)
        if config.sidecar_path is None:  # resolved per Config, not at import
            config = config._replace(sidecar_path=_default_sidecar())
        return config


def _read_text(path: Path) -> str:
    """The UTF-8 text of the regular file at ``path`` (a FIFO fails at once), read raw."""
    chunks = []
    with opened(path) as fd:
        while chunk := os.read(fd, CHUNK_SIZE):
            chunks.append(chunk)
    return b"".join(chunks).decode("utf-8")


def read_data_file(path: Path, parse: Callable[[str], Any]) -> Any:
    """``parse`` of the text of a data file: a file that is not UTF-8, or
    that ``parse`` rejects, is a configuration error whose message names it."""
    try:
        return parse(_read_text(path))
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text: {exc}") from None
    except ContentOracleError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _user_config_path() -> Path:
    config_home = os.environ.get("XDG_CONFIG_HOME")
    base = Path(config_home) if config_home else Path.home() / ".config"
    return base / "contentoracle" / "config.json"


def load_config(explicit_path: str | Path | None = None) -> Config:
    """Resolve the effective configuration.

    An explicitly named or environment-selected file must exist and parse;
    the per-user default is optional.
    """
    path: Path | None = None
    required = False
    if explicit_path:
        path, required = Path(explicit_path), True
    elif os.environ.get(ENV_VAR):
        path, required = Path(os.environ[ENV_VAR]), True
    else:
        candidate = _user_config_path()
        if candidate.is_file():
            path = candidate

    config = Config()
    if path is None:
        return config
    try:
        doc = json.loads(_read_text(path))
    except FileNotFoundError:
        if required:
            raise ConfigError(f"config file not found: {path}") from None
        return config
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    if not isinstance(doc, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    unknown = set(doc) - set(Config._fields)
    if unknown:
        raise ConfigError(f"unknown config keys in {path}: {', '.join(sorted(unknown))}")
    if "backend" in doc and doc["backend"] not in _BACKENDS:
        raise ConfigError(f"backend must be one of {_BACKENDS}, got {doc['backend']!r}")
    for key, value in doc.items():
        if key != "backend" and not (isinstance(value, str) and value and "\0" not in value):
            raise ConfigError(f"{key} in {path} must be a non-empty path without NUL, got {value!r}")
    updates = {
        key: (Path(value) if key != "backend" else value)
        for key, value in doc.items()
    }
    return config._replace(**updates)
