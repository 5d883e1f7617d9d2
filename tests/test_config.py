"""Configuration defaults follow the environment when they are resolved."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from contentoracle.cli import EX_CONFIG, main
from contentoracle.config import Config, load_config
from contentoracle.errors import ConfigError


def test_default_sidecar_follows_environment_set_after_import(monkeypatch, tmp_path):
    monkeypatch.delenv("CONTENTORACLE_CONFIG", raising=False)
    monkeypatch.setenv("XDG_CONFIG_HOME", str(tmp_path / "config"))  # holds no config file
    monkeypatch.setenv("XDG_STATE_HOME", str(tmp_path / "state"))
    expected = tmp_path / "state" / "contentoracle" / "sidecar.sqlite3"
    assert Config().sidecar_path == expected
    assert load_config(None).sidecar_path == expected

    monkeypatch.delenv("XDG_STATE_HOME")
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    expected = tmp_path / "home" / ".local" / "state" / "contentoracle" / "sidecar.sqlite3"
    assert Config().sidecar_path == expected
    assert load_config(None).sidecar_path == expected


def test_config_search_order(monkeypatch, tmp_path):
    # an explicit path, then the environment variable, then the per-user file
    user = tmp_path / "config" / "contentoracle" / "config.json"
    user.parent.mkdir(parents=True)
    user.write_text(json.dumps({"backend": "xattr"}))
    named = tmp_path / "named.json"
    named.write_text(json.dumps({"backend": "sidecar"}))
    explicit = tmp_path / "explicit.json"
    explicit.write_text(json.dumps({"backend": "auto", "models_dir": "models"}))
    monkeypatch.setenv("XDG_CONFIG_HOME", str(tmp_path / "config"))
    monkeypatch.setenv("CONTENTORACLE_CONFIG", str(named))
    assert load_config(str(explicit)) == Config(backend="auto", models_dir=Path("models"))
    assert load_config(None).backend == "sidecar"
    monkeypatch.delenv("CONTENTORACLE_CONFIG")
    assert load_config(None).backend == "xattr"


def test_config_named_by_the_environment_must_exist(monkeypatch, tmp_path):
    monkeypatch.setenv("CONTENTORACLE_CONFIG", str(tmp_path / "absent.json"))
    with pytest.raises(ConfigError, match="config file not found"):
        load_config(None)


@pytest.mark.parametrize("doc,message", [
    ([], "must hold a JSON object"),
    ({"backend": "nfs"}, "backend must be one of ('auto', 'xattr', 'sidecar'), got 'nfs'"),
])
def test_malformed_config_is_78(capsys, tmp_path, doc, message):
    config = tmp_path / "config.json"
    config.write_text(json.dumps(doc))
    assert main(["--config", str(config), "trust", "get", "x"]) == EX_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("key", [key for key in Config._fields if key != "backend"])
def test_empty_path_in_config_is_78(capsys, tmp_path, key):
    # "" is no path: Path("") is the working directory, which no key names
    target = tmp_path / "doc.pdf"
    target.write_bytes(b"%PDF-1.4 body")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({key: ""}))
    assert main(["--config", str(config), "check", str(target)]) == EX_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{key} in {config} must be a non-empty path string, got ''" in captured.err
