"""Configuration defaults follow the environment when they are resolved."""

from __future__ import annotations

from contentoracle.config import Config, load_config


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
