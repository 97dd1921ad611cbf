"""Exception hierarchy shared across the pipeline."""

from __future__ import annotations


class Text2SqlError(Exception):
    """Base class for all errors raised by this package."""


class SpiderFormatError(Text2SqlError):
    """A dataset file (tables.json / questions) is malformed or inconsistent."""


class ConfigurationError(Text2SqlError):
    """Fatal configuration problem; maps to CLI exit code 2."""


class GatewayError(Text2SqlError):
    """A chat-completion request failed after retries."""


class AuthenticationError(ConfigurationError):
    """The completion endpoint rejected our credentials."""


class RateLimitExhausted(GatewayError):
    """Rate limiting persisted past the retry budget; the batch may retry later."""


class CacheMissError(GatewayError):
    """Replay backend has no recorded response for a request fingerprint."""

    def __init__(self, fingerprint: str):
        super().__init__(f"no recorded response for fingerprint {fingerprint}")
        self.fingerprint = fingerprint


class CacheCorruptError(GatewayError):
    """A cache entry exists but cannot be read back as a recorded response."""

    def __init__(self, fingerprint: str, cause: Exception):
        super().__init__(
            f"{type(cause).__name__} in cache entry for fingerprint {fingerprint}: {cause}"
        )
        self.fingerprint = fingerprint


class DatabaseMissingError(Text2SqlError):
    """The SQLite file for a db_id does not exist; an environment problem, not a query error."""
