"""Exception types shared across the package."""

from __future__ import annotations


class ContentOracleError(Exception):
    """Base class for all errors raised by this package."""


class MalformedMime(ContentOracleError, ValueError):
    """A media-type string could not be parsed (missing separator, empty or
    illegal tokens)."""


class MalformedSignature(ContentOracleError, ValueError):
    """A line of a magic-signature file is invalid; the message carries the
    line number."""


class DuplicateName(ContentOracleError, ValueError):
    """Two signatures in one database share a name."""


class MalformedTree(ContentOracleError, ValueError):
    """A decision-tree description is structurally invalid (missing branch,
    unknown predicate field, unknown action)."""


class NetworkError(ContentOracleError, OSError):
    """A fetch failed before an HTTP status was obtained (DNS, connect,
    too many redirects); an I/O error, as urllib's ``URLError`` is."""


class HttpError(ContentOracleError, OSError):
    """A fetch completed with a non-success HTTP status; an I/O error."""

    def __init__(self, status: int, message: str = ""):
        super().__init__(message or f"HTTP error {status}")
        self.status = status


class ConfigError(ContentOracleError):
    """The configuration file is missing required structure or unreadable."""
