from __future__ import annotations

import json
import logging
import os
import socket
import ssl
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

from text2sql import gateway
from text2sql.errors import (
    AuthenticationError,
    CacheCorruptError,
    CacheMissError,
    ConfigurationError,
    GatewayError,
    RateLimitExhausted,
)
from text2sql.gateway import (
    CacheStore,
    ChatCompletion,
    ChatExchange,
    ChatMessage,
    LiveGateway,
    RecordingGateway,
    ReplayGateway,
    request_fingerprint,
)


def _exchange(content="hello", n=1, temperature=1.0):
    return ChatExchange(
        messages=(ChatMessage("user", content),),
        n=n,
        temperature=temperature,
    )


def test_fingerprint_deterministic():
    assert request_fingerprint(_exchange()) == request_fingerprint(_exchange())


def test_fingerprint_sensitive_to_temperature():
    assert request_fingerprint(_exchange(temperature=0.0)) != request_fingerprint(
        _exchange(temperature=1.0)
    )


def test_fingerprint_sensitive_to_message_order():
    first = ChatExchange(
        messages=(
            ChatMessage("system", "a"),
            ChatMessage("user", "b"),
        )
    )
    second = ChatExchange(
        messages=(
            ChatMessage("system", "b"),
            ChatMessage("user", "a"),
        )
    )
    assert request_fingerprint(first) != request_fingerprint(second)


def test_exchange_requires_trailing_user_message():
    with pytest.raises(ValueError):
        ChatExchange(messages=(ChatMessage("system", "x"),))
    with pytest.raises(ValueError):
        ChatExchange(messages=(ChatMessage("user", "x"),), n=0)


def test_replay_returns_stored_texts_byte_identical(tmp_path):
    cache = CacheStore(tmp_path)
    exchange = _exchange(n=2)
    stored = ChatCompletion(texts=("first\nanswer", "second"))
    cache.store(request_fingerprint(exchange), exchange, stored)
    replay = ReplayGateway(cache)
    assert replay.complete(exchange).texts == ("first\nanswer", "second")
    assert replay.complete(exchange).texts == ("first\nanswer", "second")


def test_replay_miss_names_fingerprint(tmp_path):
    replay = ReplayGateway(CacheStore(tmp_path))
    exchange = _exchange("never recorded")
    with pytest.raises(CacheMissError) as excinfo:
        replay.complete(exchange)
    assert request_fingerprint(exchange) in str(excinfo.value)


def test_replay_honors_n_20(tmp_path):
    cache = CacheStore(tmp_path)
    exchange = _exchange(n=20)
    cache.store(
        request_fingerprint(exchange),
        exchange,
        ChatCompletion(texts=tuple(f"sql {i}" for i in range(20))),
    )
    completion = ReplayGateway(cache).complete(exchange)
    assert len(completion.texts) == 20


class _StubTransport:
    def __init__(self, texts=("stub",)):
        self.texts = texts
        self.calls = 0

    def complete(self, exchange):
        self.calls += 1
        return ChatCompletion(texts=tuple(self.texts) * exchange.n)


def test_record_then_replay_round_trip(tmp_path):
    cache = CacheStore(tmp_path)
    transport = _StubTransport(("recorded text",))
    recording = RecordingGateway(transport, cache)
    exchange = _exchange()
    first = recording.complete(exchange)
    assert ReplayGateway(cache).complete(exchange).texts == first.texts


def test_recording_is_cache_first(tmp_path):
    cache = CacheStore(tmp_path)
    transport = _StubTransport()
    recording = RecordingGateway(transport, cache)
    exchange = _exchange()
    recording.complete(exchange)
    recording.complete(exchange)
    assert transport.calls == 1


# The last four parse, but their texts do not answer a request for one sample:
# strings (which would replay as one sample per character), none, and two.
_CORRUPT_ENTRIES = [
    "{not json", "", "[1, 2]", '{"texts": 3}', '{"usage": null}',
    '{"texts": "x"}', '{"texts": "SELECT count(*) FROM singer"}', '{"texts": []}',
    '{"texts": ["a", "b"]}',
]


@pytest.mark.parametrize("corrupt", _CORRUPT_ENTRIES)
def test_recording_treats_corrupt_entry_as_miss(tmp_path, caplog, corrupt):
    cache = CacheStore(tmp_path)
    exchange = _exchange()
    fingerprint = request_fingerprint(exchange)
    cache.path_for(fingerprint).write_text(corrupt)
    transport = _StubTransport(("fresh",))
    with caplog.at_level(logging.WARNING, logger="text2sql.gateway"):
        completion = RecordingGateway(transport, cache).complete(exchange)
    assert completion.texts == ("fresh",)
    assert transport.calls == 1
    assert fingerprint in caplog.text
    assert cache.load(fingerprint, 1).texts == ("fresh",)
    assert list(tmp_path.iterdir()) == [cache.path_for(fingerprint)]


@pytest.mark.parametrize("corrupt", _CORRUPT_ENTRIES)
def test_replay_corrupt_entry_is_named_failure(tmp_path, corrupt):
    cache = CacheStore(tmp_path)
    exchange = _exchange()
    fingerprint = request_fingerprint(exchange)
    cache.path_for(fingerprint).write_text(corrupt)
    with pytest.raises(CacheCorruptError) as excinfo:
        ReplayGateway(cache).complete(exchange)
    assert excinfo.value.fingerprint == fingerprint
    assert fingerprint in str(excinfo.value)
    assert cache.path_for(fingerprint).read_text() == corrupt


class _OneTextTransport:
    def complete(self, exchange):
        return ChatCompletion(texts=("one",))


def test_recording_refuses_a_transport_answer_without_n_texts(tmp_path):
    cache = CacheStore(tmp_path)
    with pytest.raises(GatewayError, match="transport returned 1 completions .*n=3"):
        RecordingGateway(_OneTextTransport(), cache).complete(_exchange(n=3))
    assert cache.fingerprints() == []


# Deeper than CPython's C recursion limit on every supported version, so json
# raises RecursionError rather than ValueError.
_DEEP_JSON = "[" * 100_000


def test_deeply_nested_cache_entry_is_corrupt_and_fetched_again(tmp_path):
    cache = CacheStore(tmp_path)
    exchange = _exchange()
    fingerprint = request_fingerprint(exchange)
    cache.path_for(fingerprint).write_text(_DEEP_JSON)
    with pytest.raises(CacheCorruptError) as excinfo:
        ReplayGateway(cache).complete(exchange)
    assert str(excinfo.value).startswith(f"RecursionError in cache entry for fingerprint {fingerprint}")
    transport = _StubTransport(("fresh",))
    assert RecordingGateway(transport, cache).complete(exchange).texts == ("fresh",)
    assert transport.calls == 1
    assert cache.load(fingerprint, 1).texts == ("fresh",)


def test_cache_entry_carries_request_payload(tmp_path):
    cache = CacheStore(tmp_path)
    exchange = _exchange("inspect me")
    RecordingGateway(_StubTransport(), cache).complete(exchange)
    entry = json.loads(cache.path_for(request_fingerprint(exchange)).read_text())
    assert entry["request"]["messages"] == [{"role": "user", "content": "inspect me"}]
    assert entry["request"]["n"] == 1


class _FakeResponse:
    def __init__(self, status_code, payload=None, text="", headers=None):
        self.status_code = status_code
        self._payload = payload or {}
        self.text = text
        self.headers = headers or {}

    def json(self):
        if self.text and not self._payload:
            return json.loads(self.text)
        return self._payload


class _FakeSession:
    def __init__(self, responses):
        self.responses = list(responses)
        self.bodies = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.bodies.append(json)
        return self.responses.pop(0)


def _live(session, **kwargs):
    kwargs.setdefault("backoff_seconds", 0.0)
    return LiveGateway("https://example.test/v1", "key", session=session, **kwargs)


def _ok_payload(n):
    return {
        "choices": [{"message": {"content": f"text {i}"}} for i in range(n)],
        "usage": {"prompt_tokens": 12, "completion_tokens": 34},
    }


def test_live_success_parses_texts_and_usage():
    session = _FakeSession([_FakeResponse(200, _ok_payload(2))])
    completion = _live(session).complete(_exchange(n=2))
    assert completion.texts == ("text 0", "text 1")
    assert completion.usage.prompt_tokens == 12


def test_live_retries_transient_then_succeeds():
    session = _FakeSession(
        [_FakeResponse(503, text="busy"), _FakeResponse(200, _ok_payload(1))]
    )
    completion = _live(session).complete(_exchange())
    assert completion.texts == ("text 0",)
    assert len(session.bodies) == 2


def _retry(status, retry_after=None):
    headers = {} if retry_after is None else {"Retry-After": retry_after}
    return _FakeResponse(status, text="busy", headers=headers)


@pytest.mark.parametrize(
    "responses, waits",
    [
        # The header wins when it asks for longer than the exponential step.
        ([_retry(429, "3"), _retry(503, "2.5")], [3.0, 2.5]),
        # The step wins when it is longer, and a 503 without the header waits it.
        ([_retry(429, "0.5"), _retry(503, "1"), _retry(503)], [1.0, 2.0, 4.0]),
        # Not a number, an HTTP date, negative or infinite: the step alone.
        (
            [_retry(429, "soon"), _retry(503, "Wed, 21 Oct 2015 07:28:00 GMT"),
             _retry(429, "-5"), _retry(429, "inf")],
            [1.0, 2.0, 4.0, 8.0],
        ),
        # Only 429 and 503 carry a wait the client honours.
        ([_retry(500, "30"), _retry(502, "30")], [1.0, 2.0]),
        # A day-long wait would park a pool worker; the header is capped.
        ([_retry(429, "86400")], [60.0]),
    ],
    ids=["header-longer", "step-longer", "not-numeric", "other-status", "header-capped"],
)
def test_live_honours_numeric_retry_after(monkeypatch, responses, waits):
    slept = []
    monkeypatch.setattr(gateway.time, "sleep", slept.append)
    session = _FakeSession(responses + [_FakeResponse(200, _ok_payload(1))])
    completion = _live(session, backoff_seconds=1.0).complete(_exchange())
    assert completion.texts == ("text 0",)
    assert slept == waits


def test_live_request_backing_off_holds_no_post_thread(monkeypatch):
    # One POST thread: while request a waits out its Retry-After, request b posts on it.
    backing_off, b_answered = threading.Event(), threading.Event()

    def sleep(seconds):
        assert seconds == 5.0
        backing_off.set()
        assert b_answered.wait(10)

    monkeypatch.setattr(gateway.time, "sleep", sleep)
    ok = _FakeResponse(200, _ok_payload(1))
    session = _FakeSession([_retry(503, "5"), ok, ok])
    live = _live(session, backoff_seconds=1.0, max_inflight=1)
    callers = ThreadPoolExecutor(max_workers=1)
    try:
        first = callers.submit(live.complete, _exchange("a"))
        assert backing_off.wait(10)
        assert live.complete(_exchange("b")).texts == ("text 0",)
        b_answered.set()
        assert first.result(timeout=10).texts == ("text 0",)
    finally:
        b_answered.set()
        callers.shutdown()
        live.close()
    assert [body["messages"][0]["content"] for body in session.bodies] == ["a", "b", "a"]


def test_live_auth_failure_is_fatal():
    session = _FakeSession([_FakeResponse(401, text="bad key")])
    with pytest.raises(AuthenticationError):
        _live(session).complete(_exchange())


def test_live_missing_key_rejected_up_front():
    with pytest.raises(AuthenticationError):
        LiveGateway("https://example.test/v1", "")


@pytest.mark.parametrize(
    "base_url", ["api.example/v1", "ftp://x/v1", "https:///v1", "http://host:abc/v1", "http://[::1/v1"]
)
def test_live_bad_api_base_rejected_up_front(base_url):
    with pytest.raises(ConfigurationError, match="http"):
        LiveGateway(base_url, "key")


def test_live_rate_limit_exhaustion_surfaces_retryable_error():
    session = _FakeSession([_FakeResponse(429, text="slow down")] * 3)
    with pytest.raises(RateLimitExhausted):
        _live(session, max_attempts=3).complete(_exchange())


def test_live_wrong_completion_count_is_error_not_truncation():
    session = _FakeSession([_FakeResponse(200, _ok_payload(1))])
    with pytest.raises(GatewayError, match="n=3"):
        _live(session).complete(_exchange(n=3))


@pytest.mark.parametrize(
    "body",
    ["<html>gateway timeout</html>", "x" * 500, "[1, 2]", '"text"', "null"],
    ids=["html", "long", "array", "string", "null"],
)
def test_live_non_json_ok_body_is_named_gateway_error(body):
    session = _FakeSession([_FakeResponse(200, text=body)])
    with pytest.raises(GatewayError) as excinfo:
        _live(session).complete(_exchange())
    assert str(excinfo.value) == f"HTTP 200 with non-JSON body: {body[:200]}"
    assert len(session.bodies) == 1


def test_live_deeply_nested_ok_body_is_named_gateway_error():
    session = _FakeSession([_FakeResponse(200, text=_DEEP_JSON)])
    with pytest.raises(GatewayError) as excinfo:
        _live(session).complete(_exchange())
    assert str(excinfo.value) == f"HTTP 200 with non-JSON body: {_DEEP_JSON[:200]}"
    assert len(session.bodies) == 1


@pytest.mark.parametrize(
    "payload",
    [
        {"choices": ["x"]},
        {"choices": {"a": 1}},
        {"choices": [{"message": "x"}]},
        {"choices": [{"message": {"content": 5}}]},
        {"choices": [{"message": {"content": ["x"]}}]},
        {"choices": [{"message": {"content": "x"}}], "usage": [1]},
        {"choices": [{"message": {"content": "x"}}], "usage": {"prompt_tokens": "lots"}},
    ],
    ids=["choice-string", "choices-object", "message-string", "content-int", "content-list",
         "usage-list", "usage-not-int"],
)
def test_live_malformed_ok_payload_is_named_gateway_error(payload):
    session = _FakeSession([_FakeResponse(200, payload)])
    with pytest.raises(GatewayError, match="^malformed completion payload: "):
        _live(session).complete(_exchange())
    assert len(session.bodies) == 1


@pytest.mark.parametrize("count", ["Infinity", "-5", "1.7", '"3"'])
def test_live_token_count_that_is_not_a_non_negative_integer_is_named_gateway_error(count):
    body = f'{{"choices": [{{"message": {{"content": "x"}}}}], "usage": {{"prompt_tokens": {count}}}}}'
    session = _FakeSession([_FakeResponse(200, text=body)])
    with pytest.raises(GatewayError, match="^malformed completion payload: prompt_tokens is "):
        _live(session).complete(_exchange())
    assert len(session.bodies) == 1


def test_live_null_content_reads_as_empty_text():
    payload = {"choices": [{"message": {"content": None}}], "usage": {"completion_tokens": 2}}
    completion = _live(_FakeSession([_FakeResponse(200, payload)])).complete(_exchange())
    assert completion.texts == ("",)
    assert completion.usage.completion_tokens == 2


def test_gateway_cannot_mutate_messages():
    exchange = _exchange()
    with pytest.raises(Exception):
        exchange.messages[0].content = "rewritten"  # frozen dataclass


def test_cache_store_threadsafe_writes(tmp_path):
    cache = CacheStore(tmp_path)
    exchange = _exchange(n=1)
    fingerprint = request_fingerprint(exchange)
    completion = ChatCompletion(texts=("t",))

    def write():
        for _ in range(20):
            cache.store(fingerprint, exchange, completion)

    threads = [threading.Thread(target=write) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert cache.load(fingerprint, 1).texts == ("t",)
    assert cache.fingerprints() == [fingerprint]


class _LoopbackHandler(BaseHTTPRequestHandler):
    """Answers each POST with the next scripted ``(status, headers, body)``."""

    def do_POST(self):
        body = self.rfile.read(int(self.headers["Content-Length"]))
        self.server.seen.append((self.headers, json.loads(body)))
        status, headers, text = self.server.replies.pop(0)
        data = text.encode("utf-8")
        self.send_response(status)
        for name, value in headers.items():
            self.send_header(name, value)
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format, *args):
        pass


class _AnyMethodHandler(BaseHTTPRequestHandler):
    """Records the method and headers of every request and answers 200."""

    def _record(self):
        self.server.seen.append((self.command, self.headers))
        self.send_response(200)
        self.send_header("Content-Length", "0")
        self.end_headers()

    do_GET = do_POST = do_HEAD = _record

    def log_message(self, format, *args):
        pass


# A self-signed certificate for IP 127.0.0.1 followed by its key, for loopback tests only.
LOOPBACK_TLS_PEM = Path(__file__).parent / "fixtures" / "loopback_tls.pem"


@contextmanager
def _serving(handler, tls=False):
    """An HTTP(S) server on 127.0.0.1 with empty ``replies`` and ``seen`` lists."""
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    if tls:
        context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
        context.load_cert_chain(LOOPBACK_TLS_PEM)
        server.socket = context.wrap_socket(server.socket, server_side=True)
    server.replies, server.seen = [], []
    thread = threading.Thread(target=server.serve_forever, args=(0.01,), daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=5)
    assert not thread.is_alive()


@pytest.fixture
def loopback(monkeypatch):
    """A chat-completions server on 127.0.0.1 and a stdlib-session gateway
    pointed at it."""
    monkeypatch.setenv("no_proxy", "*")
    with _serving(_LoopbackHandler) as server:
        live = LiveGateway(
            f"http://127.0.0.1:{server.server_port}/v1", "key", max_attempts=3, backoff_seconds=0.0
        )
        yield server, live


def test_loopback_success_sends_auth_json_and_n(loopback):
    server, live = loopback
    server.replies.append((200, {}, json.dumps(_ok_payload(2))))
    completion = live.complete(_exchange(n=2))
    assert completion.texts == ("text 0", "text 1")
    assert completion.usage.prompt_tokens == 12
    [(headers, body)] = server.seen
    assert headers["Authorization"] == "Bearer key"
    assert headers["Content-Type"] == "application/json"
    assert body["n"] == 2


def test_loopback_429_retry_after_goes_through_http_error(loopback, monkeypatch):
    slept = []
    monkeypatch.setattr(gateway.time, "sleep", slept.append)
    server, live = loopback
    server.replies += [(429, {"Retry-After": "2"}, "slow down"), (200, {}, json.dumps(_ok_payload(1)))]
    assert live.complete(_exchange()).texts == ("text 0",)
    assert slept == [2.0]
    assert len(server.seen) == 2


def test_loopback_401_is_authentication_error(loopback):
    server, live = loopback
    server.replies.append((401, {}, "bad key"))
    with pytest.raises(AuthenticationError, match="HTTP 401"):
        live.complete(_exchange())


def test_loopback_non_json_ok_body_is_named_gateway_error(loopback):
    server, live = loopback
    server.replies.append((200, {"Content-Type": "text/html"}, "<html>oops</html>"))
    with pytest.raises(GatewayError, match="^HTTP 200 with non-JSON body: <html>oops</html>$"):
        live.complete(_exchange())


@pytest.mark.parametrize("status", [301, 302, 303, 307, 308])
def test_loopback_redirect_is_not_followed(loopback, status):
    server, live = loopback
    with _serving(_AnyMethodHandler) as elsewhere:
        location = f"http://127.0.0.1:{elsewhere.server_port}/v1/chat/completions"
        server.replies.append((status, {"Location": location}, "moved"))
        with pytest.raises(GatewayError, match=f"^HTTP {status}: moved$"):
            live.complete(_exchange())
        assert elsewhere.seen == []
    assert len(server.seen) == 1


def test_loopback_https_verifies_and_builds_one_ssl_context(monkeypatch):
    """The certificate is checked against ``SSL_CERT_FILE``, and every POST
    reuses the session's context: building one parses the whole CA store."""
    monkeypatch.setenv("no_proxy", "*")
    monkeypatch.setenv("SSL_CERT_FILE", str(LOOPBACK_TLS_PEM))
    built = []
    for name in ("create_default_context", "_create_default_https_context"):
        make = getattr(ssl, name)
        monkeypatch.setattr(ssl, name, lambda *a, make=make, **k: built.append(make) or make(*a, **k))
    with _serving(_LoopbackHandler, tls=True) as server:
        live = LiveGateway(f"https://127.0.0.1:{server.server_port}/v1", "key", max_attempts=1)
        server.replies += [(200, {}, json.dumps(_ok_payload(1)))] * 3
        for _ in range(3):
            assert live.complete(_exchange()).texts == ("text 0",)
    assert len(server.seen) == 3
    assert len(built) == 1


def test_loopback_https_rejects_an_untrusted_certificate(monkeypatch):
    monkeypatch.setenv("no_proxy", "*")
    monkeypatch.delenv("SSL_CERT_FILE", raising=False)
    with _serving(_LoopbackHandler, tls=True) as server:
        live = LiveGateway(f"https://127.0.0.1:{server.server_port}/v1", "key", max_attempts=1)
        with pytest.raises(GatewayError, match="CERTIFICATE_VERIFY_FAILED"):
            live.complete(_exchange())
    assert server.seen == []


def test_loopback_closed_port_fails_after_max_attempts(caplog, monkeypatch):
    monkeypatch.setenv("no_proxy", "*")
    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = probe.getsockname()[1]
    live = LiveGateway(f"http://127.0.0.1:{port}/v1", "key", max_attempts=3, backoff_seconds=0.0)
    with caplog.at_level(logging.WARNING, logger="text2sql.gateway"):
        with pytest.raises(GatewayError, match="after 3 attempts"):
            live.complete(_exchange())
    assert caplog.text.count("transport failure") == 3


HTTP_STACK = ("http.client", "ssl", "urllib.request", "email")


def _modules_loaded_by(code: str, *args: str) -> list[str]:
    """What a fresh interpreter running ``code`` reports on its last stdout line."""
    src = Path(gateway.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.splitlines()[-1])


_REPORT_MODULES = (
    "import json, sys; "
    "print(json.dumps(sorted(m for m in sys.modules if m.split('.')[0] in ('requests', 'urllib3')"
    f" or m in {HTTP_STACK!r})))"
)


def test_importing_the_cli_loads_no_third_party_http_client():
    assert _modules_loaded_by("import text2sql.cli; " + _REPORT_MODULES) == []


def test_a_replay_run_never_loads_the_http_stack(corpus_dir, replay_cache, tmp_path):
    code = (
        "import sys; from text2sql.cli import main; "
        "assert main(['run', '--backend', 'replay', *sys.argv[1:]]) == 0; " + _REPORT_MODULES
    )
    loaded = _modules_loaded_by(
        code,
        "--tables", str(corpus_dir / "tables.json"),
        "--questions", str(corpus_dir / "questions.json"),
        "--cache-dir", str(replay_cache),
        "--out", str(tmp_path / "out"),
    )
    assert loaded == []
    assert (tmp_path / "out" / "report.json").is_file()


def test_building_a_live_gateway_loads_the_http_stack():
    code = (
        "from text2sql.gateway import LiveGateway; "
        "LiveGateway('http://127.0.0.1:9/v1', 'key'); " + _REPORT_MODULES
    )
    assert _modules_loaded_by(code) == sorted(HTTP_STACK)
