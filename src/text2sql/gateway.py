"""Chat-completion gateway with live, recording, and replay backends.

All backends speak the same ``complete(exchange) -> ChatCompletion`` interface.
Responses are cached (and replayed) as one JSON file per request fingerprint so
that batch runs are resumable and test runs are fully deterministic offline.
The live backend posts with ``urllib.request`` and follows no redirect.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import logging
import math
import os
import ssl
import tempfile
import threading
import time
import urllib.parse
import urllib.request
from dataclasses import dataclass
from json import dumps as json_dumps  # _UrllibSession.post has a parameter named json
from pathlib import Path

from .errors import (
    AuthenticationError,
    CacheCorruptError,
    CacheMissError,
    ConfigurationError,
    GatewayError,
    RateLimitExhausted,
)

log = logging.getLogger(__name__)

ROLES = ("system", "user", "assistant")
REQUEST_TIMEOUT_S = 120.0
MAX_RETRY_AFTER_S = 60.0  # a longer Retry-After would park a pool worker that long


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r}")
        if not self.content:
            raise ValueError("message content is empty")


@dataclass(frozen=True)
class ChatExchange:
    """One request: ordered messages plus sampling parameters."""

    messages: tuple[ChatMessage, ...]
    n: int = 1
    temperature: float = 1.0
    model_name: str = "gpt-3.5-turbo-0301"
    max_output_tokens: int = 512

    def __post_init__(self) -> None:
        if not self.messages or self.messages[-1].role != "user":
            raise ValueError("last message must have role user")
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.temperature < 0:
            raise ValueError("temperature must be non-negative")
        if self.max_output_tokens < 1:
            raise ValueError("max_output_tokens must be >= 1")


@dataclass(frozen=True)
class TokenUsage:
    prompt_tokens: int
    completion_tokens: int


@dataclass(frozen=True)
class ChatCompletion:
    texts: tuple[str, ...]
    usage: TokenUsage | None = None


def _require_n_texts(texts, n: int) -> tuple[str, ...]:
    """``texts`` as a tuple, when it is a list or tuple of exactly ``n`` strings
    (the answer to a request with that ``n``); otherwise a ValueError."""
    if not isinstance(texts, (list, tuple)) or not all(isinstance(text, str) for text in texts):
        raise ValueError(f"completion texts are not a list of strings: {texts!r:.80}")
    if len(texts) != n:
        raise ValueError(f"{len(texts)} completions for a request with n={n}")
    return tuple(texts)


def exchange_payload(exchange: ChatExchange) -> dict:
    """Wire/cache payload for an exchange (OpenAI-compatible field names)."""
    return {
        "model": exchange.model_name,
        "messages": [{"role": m.role, "content": m.content} for m in exchange.messages],
        "n": exchange.n,
        "temperature": exchange.temperature,
        "max_tokens": exchange.max_output_tokens,
    }


def request_fingerprint(exchange: ChatExchange) -> str:
    """Stable hex digest over the canonical serialization of a request."""
    canonical = json.dumps(
        exchange_payload(exchange), sort_keys=True, ensure_ascii=True, separators=(",", ":")
    )
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def atomic_write_text(path: Path, text: str) -> None:
    """Publish a file by writing a temporary sibling and renaming it over
    ``path``, so readers never see a partial file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


class CacheStore:
    """Directory of ``<fingerprint>.json`` files holding request and response."""

    def __init__(self, directory: Path | str):
        self.directory = Path(directory)
        self._write_lock = threading.Lock()

    def path_for(self, fingerprint: str) -> Path:
        return self.directory / f"{fingerprint}.json"

    def load(self, fingerprint: str, n: int) -> ChatCompletion | None:
        """The recorded completion of a request for ``n`` samples, or None when
        there is no entry. An entry that does not parse, or whose ``texts`` is
        not ``n`` strings, raises CacheCorruptError."""
        path = self.path_for(fingerprint)
        if not path.is_file():
            return None
        try:
            entry = json.loads(path.read_text(encoding="utf-8"))
            usage = entry.get("usage")
            return ChatCompletion(
                texts=_require_n_texts(entry["texts"], n),
                usage=TokenUsage(**usage) if usage else None,
            )
        except (ValueError, RecursionError, KeyError, TypeError, AttributeError) as exc:
            raise CacheCorruptError(fingerprint, exc) from exc

    def store(self, fingerprint: str, exchange: ChatExchange, completion: ChatCompletion) -> None:
        entry = {
            "fingerprint": fingerprint,
            "request": exchange_payload(exchange),
            "texts": list(completion.texts),
            "usage": None
            if completion.usage is None
            else {
                "prompt_tokens": completion.usage.prompt_tokens,
                "completion_tokens": completion.usage.completion_tokens,
            },
        }
        payload = json.dumps(entry, indent=2, sort_keys=True)
        with self._write_lock:
            atomic_write_text(self.path_for(fingerprint), payload)

    def fingerprints(self) -> list[str]:
        if not self.directory.is_dir():
            return []
        return sorted(p.stem for p in self.directory.glob("*.json"))

    def load_request(self, fingerprint: str) -> dict | None:
        path = self.path_for(fingerprint)
        if not path.is_file():
            return None
        return json.loads(path.read_text(encoding="utf-8")).get("request")


class ReplayGateway:
    """Pure function of fingerprint: returns recorded responses, nothing else."""

    def __init__(self, cache: CacheStore):
        self.cache = cache

    def complete(self, exchange: ChatExchange) -> ChatCompletion:
        fingerprint = request_fingerprint(exchange)
        completion = self.cache.load(fingerprint, exchange.n)
        if completion is None:
            raise CacheMissError(fingerprint)
        return completion


def _retry_after_seconds(value: str | None) -> float:
    """The wait a numeric ``Retry-After`` asks for, in seconds, at most ``MAX_RETRY_AFTER_S``;
    0.0 when the header is missing, negative or not a number (an HTTP date included)."""
    try:
        seconds = float(value)
    except (TypeError, ValueError):
        return 0.0
    return min(seconds, MAX_RETRY_AFTER_S) if math.isfinite(seconds) and seconds > 0 else 0.0


@dataclass(frozen=True)
class _Reply:
    """The parts of an HTTP response that ``LiveGateway`` reads."""

    status_code: int
    headers: http.client.HTTPMessage
    text: str

    def json(self):
        return json.loads(self.text)


class _NoRedirect(urllib.request.HTTPRedirectHandler):
    def redirect_request(self, *args):  # a 3xx stays a reply: the POST and its key go nowhere else
        return None


class _UrllibSession:
    """``requests.Session.post`` for a JSON body; a 3xx, 4xx or 5xx is a reply, not raised."""

    def __init__(self):
        # One SSL context for every connection: building one parses the whole CA store.
        https = urllib.request.HTTPSHandler(context=ssl.create_default_context())
        self._opener = urllib.request.build_opener(_NoRedirect, https)

    def post(self, url: str, json: dict, headers: dict, timeout: float) -> _Reply:
        data = json_dumps(json).encode("utf-8")
        request = urllib.request.Request(url, data, {**headers, "Content-Type": "application/json"})
        try:
            response = self._opener.open(request, timeout=timeout)
        except urllib.request.HTTPError as exc:
            response = exc
        with response:
            return _Reply(response.status, response.headers, response.read().decode("utf-8", "replace"))


class LiveGateway:
    """HTTP chat-completions client with bounded concurrency and retries.

    The wait before retry k (k >= 1) is ``backoff_seconds * 2 ** (k - 1)``, or a
    longer numeric ``Retry-After`` sent with a 429 or 503, capped at ``MAX_RETRY_AFTER_S``.
    """

    RETRYABLE_STATUS = (429, 500, 502, 503, 504)
    RETRY_AFTER_STATUS = (429, 503)

    def __init__(
        self,
        base_url: str,
        api_key: str,
        *,
        max_attempts: int = 5,
        backoff_seconds: float = 1.0,
        max_inflight: int = 4,
        session=None,  # anything with the call shape of requests.Session.post
    ):
        if not api_key:
            raise AuthenticationError("no API key configured for the live backend")
        try:
            parts = urllib.parse.urlsplit(base_url)
            valid = parts.scheme in ("http", "https") and bool(parts.hostname) and parts.port != 0
        except ValueError:  # a malformed IPv6 host, or a port that is not a number up to 65535
            valid = False
        if not valid:
            raise ConfigurationError(f"api_base must look like http(s)://host[:port]/..., got {base_url!r}")
        self.base_url = base_url.rstrip("/")
        self.api_key = api_key
        self.max_attempts = max_attempts
        self.backoff_seconds = backoff_seconds
        self._session = session or _UrllibSession()
        self._inflight = threading.BoundedSemaphore(max_inflight)

    def complete(self, exchange: ChatExchange) -> ChatCompletion:
        body = exchange_payload(exchange)
        headers = {"Authorization": f"Bearer {self.api_key}"}
        url = f"{self.base_url}/chat/completions"
        last_error: Exception | None = None
        rate_limited = False
        retry_after = 0.0

        for attempt in range(self.max_attempts):
            if attempt:
                time.sleep(max(retry_after, self.backoff_seconds * 2 ** (attempt - 1)))
            retry_after = 0.0
            try:
                with self._inflight:
                    response = self._session.post(
                        url, json=body, headers=headers, timeout=REQUEST_TIMEOUT_S
                    )
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                log.warning("transport failure (attempt %d): %s", attempt + 1, exc)
                continue
            if response.status_code in (401, 403):
                raise AuthenticationError(
                    f"completion endpoint rejected credentials (HTTP {response.status_code})"
                )
            if response.status_code in self.RETRYABLE_STATUS:
                rate_limited = rate_limited or response.status_code == 429
                if response.status_code in self.RETRY_AFTER_STATUS:
                    retry_after = _retry_after_seconds(response.headers.get("Retry-After"))
                last_error = GatewayError(f"HTTP {response.status_code}: {response.text[:200]}")
                log.warning("retryable response (attempt %d): HTTP %s", attempt + 1, response.status_code)
                continue
            if response.status_code != 200:
                raise GatewayError(f"HTTP {response.status_code}: {response.text[:500]}")
            try:
                payload = response.json()
            except (ValueError, RecursionError):
                payload = None
            if not isinstance(payload, dict):
                raise GatewayError(f"HTTP 200 with non-JSON body: {response.text[:200]}")
            return self._parse_response(payload, exchange)

        if rate_limited:
            raise RateLimitExhausted(f"rate limited after {self.max_attempts} attempts: {last_error}")
        raise GatewayError(f"request failed after {self.max_attempts} attempts: {last_error}")

    @staticmethod
    def _parse_response(payload: dict, exchange: ChatExchange) -> ChatCompletion:
        try:
            choices = payload.get("choices") or []
            texts = _require_n_texts(
                [choice.get("message", {}).get("content") or "" for choice in choices], exchange.n
            )
            usage = payload.get("usage")
            token_usage = None
            if usage:
                token_usage = TokenUsage(
                    prompt_tokens=_token_count(usage, "prompt_tokens"),
                    completion_tokens=_token_count(usage, "completion_tokens"),
                )
                log.debug("token usage: %s", token_usage)
        except (AttributeError, TypeError, ValueError) as exc:
            raise GatewayError(f"malformed completion payload: {exc}") from exc
        return ChatCompletion(texts=texts, usage=token_usage)


def _token_count(usage: dict, key: str) -> int:
    count = usage.get(key, 0)
    if type(count) is not int or count < 0:
        raise ValueError(f"{key} is {count!r}, not a non-negative integer")
    return count


class RecordingGateway:
    """Cache-first wrapper over a transport; persists every new response."""

    def __init__(self, transport, cache: CacheStore):
        self.transport = transport
        self.cache = cache

    def complete(self, exchange: ChatExchange) -> ChatCompletion:
        """The cached completion, else the transport's, which is then stored.
        A corrupt cache entry counts as a miss and is overwritten."""
        fingerprint = request_fingerprint(exchange)
        try:
            cached = self.cache.load(fingerprint, exchange.n)
        except CacheCorruptError as exc:
            log.warning("%s; fetching again", exc)
            cached = None
        if cached is not None:
            return cached
        completion = self.transport.complete(exchange)
        try:
            _require_n_texts(completion.texts, exchange.n)
        except ValueError as exc:
            raise GatewayError(f"transport returned {exc}") from exc
        self.cache.store(fingerprint, exchange, completion)
        return completion
