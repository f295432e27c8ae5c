import json
import threading

import pytest

from karpa.errors import (
    ConfigError,
    ContractError,
    DataError,
    EmptyCompletionError,
    MissingFixtureError,
    ProviderError,
    TransportError,
)
from karpa.llm import (
    CannedChatProvider,
    ChatMessage,
    CompletionResult,
    LlmGateway,
    LlmParams,
    ScriptedChatProvider,
    UsageLedger,
    digest_messages,
    estimate_tokens,
)


def user(text):
    return ChatMessage("user", text)


# -- message and token basics -------------------------------------------------


def test_chat_message_rejects_bad_role():
    with pytest.raises(ContractError):
        ChatMessage("robot", "hi")


def test_chat_message_rejects_empty_user_content():
    with pytest.raises(ContractError):
        ChatMessage("user", "")


def test_system_message_may_be_empty():
    assert ChatMessage("system", "").content == ""


@pytest.mark.parametrize("text,expected", [("", 0), ("12345678", 2), ("123456789", 3), ("abc", 1)])
def test_estimate_tokens(text, expected):
    assert estimate_tokens(text) == expected


def test_digest_is_stable_and_content_sensitive():
    a = [user("hello")]
    assert digest_messages(a) == digest_messages([user("hello")])
    assert digest_messages(a) != digest_messages([user("hello!")])
    assert digest_messages(a) != digest_messages([ChatMessage("assistant", "hello"), user("x")])


# -- scripted provider -----------------------------------------------------------


def test_scripted_replays_verbatim():
    provider = ScriptedChatProvider()
    messages = [user("what is the answer?")]
    provider.add(messages, "the answer is {42}")
    gw = LlmGateway(provider, params=LlmParams())
    result = gw.complete(messages)
    assert result.text == "the answer is {42}"
    assert result.estimated is True


def test_scripted_missing_fixture_names_digest():
    gw = LlmGateway(ScriptedChatProvider(), params=LlmParams())
    messages = [user("novel prompt")]
    with pytest.raises(MissingFixtureError) as exc:
        gw.complete(messages)
    assert digest_messages(messages) in str(exc.value)


def test_scripted_fixture_file_roundtrip(tmp_path):
    path = tmp_path / "fixtures.jsonl"
    messages = [user("q1")]
    path.write_text(json.dumps({"digest": digest_messages(messages), "response_text": "a1 {x}"}) + "\n", encoding="utf-8")
    provider = ScriptedChatProvider.from_file(path)
    assert provider.complete(messages, LlmParams()).text == "a1 {x}"


def test_two_calls_increment_ledger_twice():
    provider = ScriptedChatProvider()
    messages = [user("ping")]
    provider.add(messages, "pong")
    gw = LlmGateway(provider, params=LlmParams())
    gw.complete(messages, phase="reasoning")
    gw.complete(messages, phase="reasoning")
    assert gw.ledger.snapshot()["calls"] == 2


# -- ledger ---------------------------------------------------------------------


def test_ledger_phase_sums_equal_totals():
    ledger = UsageLedger()
    ledger.record("initial_planning", CompletionResult("a", 10, 5, estimated=True))
    ledger.record("replanning", CompletionResult("b", 7, 3))
    ledger.record("reasoning", CompletionResult("c", 20, 9))
    snap = ledger.snapshot()
    assert snap["calls"] == sum(p["calls"] for p in snap["phases"].values()) == 3
    assert snap["prompt_tokens"] == sum(p["prompt_tokens"] for p in snap["phases"].values()) == 37
    assert snap["completion_tokens"] == 17
    assert snap["estimated_calls"] == 1
    assert set(snap["phases"]) >= {"initial_planning", "replanning", "reasoning"}


def test_ledger_totals_stable_under_interleaving():
    ledger = UsageLedger()

    def worker(phase):
        for _ in range(50):
            ledger.record(phase, CompletionResult("x", 2, 1))

    threads = [threading.Thread(target=worker, args=(p,)) for p in ("reasoning", "replanning")]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    snap = ledger.snapshot()
    assert snap["calls"] == 100
    assert snap["prompt_tokens"] == 200
    assert sum(p["calls"] for p in snap["phases"].values()) == snap["calls"]


def test_ledger_merge_snapshot():
    a, b = UsageLedger(), UsageLedger()
    a.record("reasoning", CompletionResult("x", 5, 2))
    b.record("replanning", CompletionResult("y", 3, 1))
    a.merge_snapshot(b.snapshot())
    snap = a.snapshot()
    assert snap["calls"] == 2
    assert snap["phases"]["replanning"]["prompt_tokens"] == 3


# -- gateway behavior -------------------------------------------------------------


def test_complete_requires_trailing_user_message():
    gw = LlmGateway(CannedChatProvider("ok"), params=LlmParams())
    with pytest.raises(ContractError):
        gw.complete([ChatMessage("assistant", "hello")])
    with pytest.raises(ContractError):
        gw.complete([])


def test_empty_completion_is_error():
    gw = LlmGateway(CannedChatProvider("   "), params=LlmParams())
    with pytest.raises(EmptyCompletionError):
        gw.complete([user("q")])


class _FlakyChat:
    identity = "flaky"

    def __init__(self, failures, text="fine {x}"):
        self.failures = failures
        self.attempts = 0
        self.text = text

    def complete(self, messages, params):
        self.attempts += 1
        if self.attempts <= self.failures:
            raise TransportError("synthetic outage")
        from karpa.llm import _estimated_usage

        p, c = _estimated_usage(messages, self.text)
        return CompletionResult(self.text, p, c, estimated=True)


def test_gateway_retries_then_succeeds():
    provider = _FlakyChat(failures=2)
    naps = []
    gw = LlmGateway(provider, sleep=naps.append, params=LlmParams())
    result = gw.complete([user("q")])
    assert result.text == "fine {x}"
    assert provider.attempts == 3
    assert naps == [0.25, 0.5]


def test_gateway_retries_exhausted():
    provider = _FlakyChat(failures=10)
    gw = LlmGateway(provider, sleep=lambda _: None, params=LlmParams())
    with pytest.raises(TransportError):
        gw.complete([user("q")])
    assert provider.attempts == 3


def test_failed_calls_not_recorded_in_ledger():
    gw = LlmGateway(_FlakyChat(failures=10), sleep=lambda _: None, params=LlmParams())
    with pytest.raises(TransportError):
        gw.complete([user("q")])
    assert gw.ledger.snapshot()["calls"] == 0


# -- http wire formats -------------------------------------------------------------


class _Handlerless:
    pass


@pytest.fixture()
def http_server():
    """Tiny local HTTP server; each test registers a handler function.

    A handler returns ``(status, payload)`` or ``(status, payload, headers)``:
    a ``bytes`` payload is sent as it is, anything else as JSON, and each
    header in the ``headers`` dict is sent with the reply.
    """
    import http.server

    state = {"handler": None, "requests": []}

    class Handler(http.server.BaseHTTPRequestHandler):
        def do_POST(self):
            length = int(self.headers["Content-Length"])
            body = json.loads(self.rfile.read(length))
            state["requests"].append({"path": self.path, "body": body, "headers": dict(self.headers)})
            status, payload, *headers = state["handler"](body)
            data = payload if isinstance(payload, bytes) else json.dumps(payload).encode("utf-8")
            self.send_response(status)
            self.send_header("Content-Type", "application/json")
            for name, value in (headers[0] if headers else {}).items():
                self.send_header(name, value)
            self.send_header("Content-Length", str(len(data)))
            self.end_headers()
            self.wfile.write(data)

        def log_message(self, *args):
            pass

    server = http.server.ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    thread = threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True)
    thread.start()
    state["url"] = f"http://127.0.0.1:{server.server_address[1]}"
    yield state
    server.shutdown()
    server.server_close()


def test_http_chat_wire_format(http_server):
    from karpa.llm import HttpChatProvider

    def handler(body):
        assert set(body) == {"model", "messages", "temperature", "max_tokens"}
        return 200, {
            "choices": [{"message": {"content": "hello {world}"}}],
            "usage": {"prompt_tokens": 11, "completion_tokens": 4},
        }

    http_server["handler"] = handler
    provider = HttpChatProvider(http_server["url"] + "/v1/chat", api_key="sekrit")
    gw = LlmGateway(provider, params=LlmParams(model="test-model", temperature=0.0))
    result = gw.complete([user("hi")])
    assert result.text == "hello {world}"
    assert result.prompt_tokens == 11
    assert result.estimated is False
    sent = http_server["requests"][0]
    assert sent["body"]["model"] == "test-model"
    assert sent["body"]["messages"] == [{"role": "user", "content": "hi"}]
    assert sent["body"]["max_tokens"] == 1024
    assert sent["headers"]["Authorization"] == "Bearer sekrit"


def test_http_chat_sends_max_output_as_max_tokens(http_server):
    from karpa.llm import HttpChatProvider

    http_server["handler"] = lambda body: (200, {"choices": [{"message": {"content": "ok {x}"}}]})
    HttpChatProvider(http_server["url"] + "/v1").complete([user("hi")], LlmParams(max_output=77))
    assert [sent["body"]["max_tokens"] for sent in http_server["requests"]] == [77]


def test_http_chat_retries_on_5xx(http_server):
    from karpa.llm import HttpChatProvider

    calls = {"n": 0}

    def handler(body):
        calls["n"] += 1
        if calls["n"] == 1:
            return 503, {"error": "busy"}
        return 200, {"choices": [{"message": {"content": "ok {x}"}}]}

    http_server["handler"] = handler
    gw = LlmGateway(HttpChatProvider(http_server["url"]), sleep=lambda _: None, params=LlmParams())
    result = gw.complete([user("hi")])
    assert result.text == "ok {x}"
    assert calls["n"] == 2
    assert result.estimated is True  # usage omitted -> estimated and flagged


def test_http_embedding_wire_format(http_server):
    from karpa.embeddings import EmbeddingGateway, HttpEmbeddingProvider

    def handler(body):
        assert set(body) == {"model", "input"}
        # deliberately return rows out of order: client must realign by index
        return 200, {
            "data": [
                {"index": 1, "embedding": [0.0, 1.0]},
                {"index": 0, "embedding": [1.0, 0.0]},
            ]
        }

    http_server["handler"] = handler
    provider = HttpEmbeddingProvider(http_server["url"], model="embedder", api_key="k2")
    gw = EmbeddingGateway(provider)
    a, b = gw.embed(["first", "second"])
    assert tuple(a.values) == (1.0, 0.0)
    assert tuple(b.values) == (0.0, 1.0)
    sent = http_server["requests"][0]
    assert sent["body"] == {"model": "embedder", "input": ["first", "second"]}
    assert sent["headers"]["Authorization"] == "Bearer k2"


def test_http_embedding_retries_on_5xx(http_server):
    from karpa.embeddings import EmbeddingGateway, HttpEmbeddingProvider

    calls = {"n": 0}

    def handler(body):
        calls["n"] += 1
        if calls["n"] < 3:
            return 500, {"error": "boom"}
        return 200, {"data": [{"index": 0, "embedding": [1.0, 2.0]}]}

    http_server["handler"] = handler
    gw = EmbeddingGateway(HttpEmbeddingProvider(http_server["url"], "m"), sleep=lambda _: None)
    assert tuple(gw.embed(["x"])[0].values) == (1.0, 2.0)
    assert calls["n"] == 3


# -- malformed replies and retryable statuses ----------------------------------------

_GOOD_CHAT = {"choices": [{"message": {"content": "ok {x}"}}]}
_GOOD_EMBEDDING = {"data": [{"index": 0, "embedding": [1.0, 2.0]}]}


@pytest.mark.parametrize(
    "payload",
    [
        b"not json",
        {},
        {"choices": []},
        {"choices": [{}]},
        {"choices": [{"message": {"content": None}}]},
        {"choices": [{"message": {"content": "ok {x}"}}], "usage": "many"},
        [],
        # Counts that ``int`` would take: a numeric string, a boolean, infinity.
        {"choices": [{"message": {"content": "ok {x}"}}], "usage": {"prompt_tokens": "12"}},
        {"choices": [{"message": {"content": "ok {x}"}}], "usage": {"completion_tokens": True}},
        b'{"choices": [{"message": {"content": "ok {x}"}}], "usage": {"prompt_tokens": 1e400}}',
        # Numbers that are no token count, which ``int`` would keep or cut.
        {"choices": [{"message": {"content": "ok {x}"}}], "usage": {"prompt_tokens": -5}},
        {"choices": [{"message": {"content": "ok {x}"}}], "usage": {"completion_tokens": 2.7}},
    ],
    ids=[
        "not-json", "no-choices", "empty-choices", "no-message", "null-content", "bad-usage", "list",
        "usage-string", "usage-bool", "usage-infinite", "usage-negative", "usage-fraction",
    ],
)
def test_http_chat_malformed_reply_is_provider_error(http_server, payload):
    from karpa.llm import HttpChatProvider

    http_server["handler"] = lambda body: (200, payload)
    naps = []
    gw = LlmGateway(HttpChatProvider(http_server["url"]), sleep=naps.append, params=LlmParams())
    with pytest.raises(ProviderError) as exc:
        gw.complete([user("hi")])
    assert not isinstance(exc.value, TransportError)
    assert len(http_server["requests"]) == 1 and naps == []


def test_http_chat_usage_count_written_as_a_whole_float_reads_as_an_int(http_server):
    from karpa.llm import HttpChatProvider

    usage = {"prompt_tokens": 12.0, "completion_tokens": 0}
    http_server["handler"] = lambda body: (200, {**_GOOD_CHAT, "usage": usage})
    result = HttpChatProvider(http_server["url"]).complete([user("hi")], LlmParams())
    assert (result.prompt_tokens, result.completion_tokens) == (12, 0)
    assert type(result.prompt_tokens) is int and result.estimated is False


def _rows(*indices):
    return {"data": [{"index": i, "embedding": [1.0, 2.0]} for i in indices]}


@pytest.mark.parametrize(
    "payload, texts",
    [
        (b"not json", ["x"]),
        ({}, ["x"]),
        ({"data": [{"index": 0}]}, ["x"]),
        ({"data": [{"embedding": [1.0, 2.0]}]}, ["x"]),
        ({"data": [{"index": 0, "embedding": ["x"]}]}, ["x"]),
        # Not a list: read as its characters or its keys, each is a number.
        ({"data": [{"index": 0, "embedding": "123"}]}, ["x"]),
        ({"data": [{"index": 0, "embedding": {"4": 1, "5": 2, "6": 3}}]}, ["x"]),
        # Not JSON numbers, or too large for a double.
        ({"data": [{"index": 0, "embedding": ["1.5", "2"]}]}, ["x"]),
        ({"data": [{"index": 0, "embedding": [True, False, 3]}]}, ["x"]),
        ({"data": [{"index": 0, "embedding": [10**400, 1.0]}]}, ["x"]),
        ({"data": "rows"}, ["x"]),
        ({"data": []}, ["x"]),
        ({"data": [{"index": 0, "embedding": [0.0, 0.0]}]}, ["x"]),
        # One row per input, but not indexed 0..n-1: vectors would go to the wrong texts.
        (_rows(1, 1), ["x", "y"]),
        (_rows(5, 7), ["x", "y"]),
        (_rows(0, 0), ["x", "y"]),
        # Equal to 0 and 1, but not integers.
        (_rows(False, True), ["x", "y"]),
        (_rows(0.0, 1.0), ["x", "y"]),
    ],
    ids=[
        "not-json", "no-data", "no-embedding", "no-index", "bad-value", "embedding-string", "embedding-object",
        "numeric-strings", "booleans", "huge-int",
        "data-not-list", "too-few", "all-zero",
        "index-1-1", "index-5-7", "index-0-0", "index-false-true", "index-float",
    ],
)
def test_http_embedding_malformed_reply_is_provider_error(http_server, payload, texts):
    from karpa.embeddings import EmbeddingGateway, HttpEmbeddingProvider

    http_server["handler"] = lambda body: (200, payload)
    naps = []
    gw = EmbeddingGateway(HttpEmbeddingProvider(http_server["url"], "m"), sleep=naps.append)
    with pytest.raises(ProviderError) as exc:
        gw.embed(texts)
    assert not isinstance(exc.value, TransportError)
    assert len(http_server["requests"]) == 1 and naps == []
    assert gw.cache.stats()["records"] == 0


def _chat_call(url, sleep):
    from karpa.llm import HttpChatProvider

    return LlmGateway(HttpChatProvider(url), sleep=sleep, params=LlmParams()).complete([user("hi")]).text


def _embedding_call(url, sleep):
    from karpa.embeddings import EmbeddingGateway, HttpEmbeddingProvider

    return tuple(EmbeddingGateway(HttpEmbeddingProvider(url, "m"), sleep=sleep).embed(["x"])[0].values)


@pytest.mark.parametrize(
    "call,good,expected",
    [(_chat_call, _GOOD_CHAT, "ok {x}"), (_embedding_call, _GOOD_EMBEDDING, (1.0, 2.0))],
    ids=["chat", "embedding"],
)
def test_http_429_is_retried(http_server, call, good, expected):
    replies = [(429, {"error": "slow down"}), (200, good)]
    http_server["handler"] = lambda body: replies.pop(0)
    naps = []
    assert call(http_server["url"], naps.append) == expected
    assert naps == [0.25]
    assert len(http_server["requests"]) == 2


@pytest.mark.parametrize(
    "status, retry_after, nap",
    [
        (429, "2", 2.0),
        (503, "2", 2.0),
        (429, "120", 30.0),  # capped
        (503, "soon", 0.25),  # not a number of seconds: the backoff
        (429, "Wed, 21 Oct 2015 07:28:00 GMT", 0.25),  # a date: the backoff
        (429, "0", 0.25),  # shorter than the backoff
        (500, "2", 0.25),  # only 429 and 503 are asked to wait
    ],
)
@pytest.mark.parametrize(
    "call,good,expected",
    [(_chat_call, _GOOD_CHAT, "ok {x}"), (_embedding_call, _GOOD_EMBEDDING, (1.0, 2.0))],
    ids=["chat", "embedding"],
)
def test_http_retry_waits_as_long_as_retry_after_asks(http_server, call, good, expected, status, retry_after, nap):
    replies = [(status, {"error": "busy"}, {"Retry-After": retry_after}), (200, good)]
    http_server["handler"] = lambda body: replies.pop(0)
    naps = []
    assert call(http_server["url"], naps.append) == expected
    assert naps == [nap]
    assert len(http_server["requests"]) == 2


@pytest.mark.parametrize("call", [_chat_call, _embedding_call], ids=["chat", "embedding"])
def test_http_4xx_is_data_error_without_retry(http_server, call):
    http_server["handler"] = lambda body: (401, {"error": "bad key"})
    naps = []
    with pytest.raises(DataError):
        call(http_server["url"], naps.append)
    assert naps == [] and len(http_server["requests"]) == 1


@pytest.mark.parametrize("call", [_chat_call, _embedding_call], ids=["chat", "embedding"])
def test_http_4xx_body_that_is_not_utf8_is_data_error_without_retry(http_server, call):
    http_server["handler"] = lambda body: (400, b"bad \xff\xfe request")
    naps = []
    with pytest.raises(DataError) as exc:
        call(http_server["url"], naps.append)
    assert not isinstance(exc.value, ProviderError)
    assert "400: bad \ufffd\ufffd request" in str(exc.value)
    assert naps == [] and len(http_server["requests"]) == 1


# -- transport failures --------------------------------------------------------------


def _read_request(conn):
    """Read one HTTP request (head and ``Content-Length`` body) from ``conn``."""
    data = b""
    while b"\r\n\r\n" not in data:
        data += conn.recv(65536)
    head, _, body = data.partition(b"\r\n\r\n")
    length = next(
        int(line.split(b":", 1)[1]) for line in head.split(b"\r\n") if line.lower().startswith(b"content-length:")
    )
    while len(body) < length:
        body += conn.recv(65536)


@pytest.fixture()
def raw_server():
    """A loopback listener that hands each accepted connection to ``state["reply"]``.

    Connections stay open until the test ends unless the reply closes them;
    ``state["connections"]`` counts them.
    """
    import socket

    listener = socket.create_server(("127.0.0.1", 0))
    listener.settimeout(0.05)
    state = {"url": f"http://127.0.0.1:{listener.getsockname()[1]}", "reply": None, "connections": 0}
    held = []
    stop = threading.Event()

    def serve():
        while not stop.is_set():
            try:
                conn, _ = listener.accept()
            except TimeoutError:
                continue
            state["connections"] += 1
            held.append(conn)
            state["reply"](conn)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    yield state
    stop.set()
    thread.join()
    for conn in held:
        conn.close()
    listener.close()


def _never_reply(conn):
    pass


def _close_without_reply(conn):
    _read_request(conn)
    conn.close()


def _close_mid_body(conn):
    _read_request(conn)
    conn.sendall(b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 100\r\n\r\n{\"cho")
    conn.close()


def _close_mid_error_body(conn):
    _read_request(conn)
    conn.sendall(b"HTTP/1.1 400 Bad Request\r\nContent-Length: 100\r\n\r\nbad")
    conn.close()


def _chat_gateway(url, sleep, timeout):
    from karpa.llm import HttpChatProvider

    gw = LlmGateway(HttpChatProvider(url, timeout=timeout), sleep=sleep, params=LlmParams())
    return lambda: gw.complete([user("hi")])


def _embedding_gateway(url, sleep, timeout):
    from karpa.embeddings import EmbeddingGateway, HttpEmbeddingProvider

    gw = EmbeddingGateway(HttpEmbeddingProvider(url, "m", timeout=timeout), sleep=sleep)
    return lambda: gw.embed(["x"])


_GATEWAYS = pytest.mark.parametrize("gateway_call", [_chat_gateway, _embedding_gateway], ids=["chat", "embedding"])


@_GATEWAYS
def test_http_refused_connection_is_transport_error_after_three_attempts(gateway_call):
    import socket

    with socket.create_server(("127.0.0.1", 0)) as sock:
        port = sock.getsockname()[1]
    naps = []
    call = gateway_call(f"http://127.0.0.1:{port}", naps.append, timeout=5.0)
    with pytest.raises(TransportError, match="request failed"):
        call()
    assert naps == [0.25, 0.5]


@_GATEWAYS
@pytest.mark.parametrize(
    "reply,message",
    [
        (_never_reply, "request failed"),
        (_close_without_reply, "request failed"),
        (_close_mid_body, "request failed"),
        (_close_mid_error_body, "returned 400, body unreadable"),
    ],
    ids=["no-reply", "closed", "cut-body", "cut-error-body"],
)
def test_http_broken_reply_is_transport_error_after_three_attempts(raw_server, gateway_call, reply, message):
    raw_server["reply"] = reply
    naps = []
    call = gateway_call(raw_server["url"], naps.append, timeout=0.2)
    with pytest.raises(TransportError, match=message):
        call()
    assert naps == [0.25, 0.5]
    assert raw_server["connections"] == 3


@_GATEWAYS
def test_http_retry_after_holds_when_the_body_is_cut_short(raw_server, gateway_call):
    def cut_busy(conn):
        _read_request(conn)
        conn.sendall(b"HTTP/1.1 503 Busy\r\nRetry-After: 2\r\nContent-Length: 100\r\n\r\nbusy")
        conn.close()

    raw_server["reply"] = cut_busy
    naps = []
    call = gateway_call(raw_server["url"], naps.append, timeout=0.2)
    with pytest.raises(TransportError, match="returned 503, body unreadable"):
        call()
    assert naps == [2.0, 2.0]


@pytest.mark.parametrize("code", [301, 302, 303, 307, 308])
@pytest.mark.parametrize("service", ["chat", "embedding"])
def test_http_redirect_is_data_error_and_not_followed(raw_server, http_server, service, code):
    from karpa.embeddings import EmbeddingGateway, HttpEmbeddingProvider
    from karpa.llm import HttpChatProvider

    def redirect(conn):
        _read_request(conn)
        location = f"{http_server['url']}/elsewhere"
        conn.sendall(f"HTTP/1.1 {code} Moved\r\nLocation: {location}\r\nContent-Length: 0\r\n\r\n".encode())
        conn.close()

    raw_server["reply"] = redirect
    http_server["handler"] = lambda body: (200, _GOOD_CHAT if service == "chat" else _GOOD_EMBEDDING)
    naps = []
    if service == "chat":
        provider = HttpChatProvider(raw_server["url"], api_key="sekrit")
        gw = LlmGateway(provider, sleep=naps.append, params=LlmParams())
        call = lambda: gw.complete([user("hi")])
    else:
        gw = EmbeddingGateway(HttpEmbeddingProvider(raw_server["url"], "m", api_key="sekrit"), sleep=naps.append)
        call = lambda: gw.embed(["x"])
    with pytest.raises(DataError, match=f"{service} service returned {code}"):
        call()
    assert naps == [] and raw_server["connections"] == 1
    assert http_server["requests"] == []


@pytest.mark.parametrize("endpoint", ["", "127.0.0.1:9/v1", "file:///etc/hosts", "ftp://host/v1", "http://", "https:///v1"])
def test_http_provider_endpoint_must_be_an_http_url_with_a_host(endpoint):
    from karpa.embeddings import HttpEmbeddingProvider
    from karpa.llm import HttpChatProvider

    with pytest.raises(ConfigError, match="llm.endpoint must be an http:// or https:// URL"):
        HttpChatProvider(endpoint)
    with pytest.raises(ConfigError, match="embedding.endpoint must be an http:// or https:// URL"):
        HttpEmbeddingProvider(endpoint, "m")


@pytest.mark.parametrize("temperature", [float("nan"), float("inf")], ids=["nan", "inf"])
def test_http_body_that_is_not_json_is_contract_error_before_any_connection(http_server, temperature):
    from karpa.llm import HttpChatProvider

    naps = []
    params = LlmParams(temperature=temperature)
    gw = LlmGateway(HttpChatProvider(http_server["url"]), sleep=naps.append, params=params)
    with pytest.raises(ContractError, match="chat request body is not JSON"):
        gw.complete([user("hi")])
    assert naps == [] and http_server["requests"] == []


def test_http_malformed_reasoning_reply_is_a_failed_batch(http_server, gateway):
    from karpa.llm import HttpChatProvider
    from karpa.matching import MatchConfig, RelationPath, heuristic_top_k
    from karpa.planner import Query
    from karpa.reasoner import answer_question

    from helpers import graph_from

    g = graph_from([("hub", "film.director.films_directed", f"tail{i:02d}") for i in range(10)])
    cfg = MatchConfig(strategy="heuristic", top_k=10, max_len=1)
    paths = heuristic_top_k(
        g, g.entity_id("hub"), RelationPath(("film.director.films_directed",)), cfg, gateway
    )
    query = Query(id="q", question="Which films did hub direct?", topic_entities=("hub",))

    def handler(body):
        prompt = body["messages"][-1]["content"]
        return 200, ({} if "tail00" in prompt else {"choices": [{"message": {"content": "{tail08}"}}]})

    http_server["handler"] = handler
    trace = []
    llm = LlmGateway(HttpChatProvider(http_server["url"]), sleep=lambda _: None, params=LlmParams())
    answers = answer_question(query, paths, g, llm, batch_limit=8, trace=trace)
    assert answers.answers == ["tail08"]
    assert [event.get("failed", "").split(":")[0] for event in trace[:-1]] == ["ProviderError", ""]
    assert trace[-1] == {"event": "reasoning", "batches": 2}


@pytest.mark.parametrize("payload", [b"not json", {}, {"choices": []}], ids=["not-json", "no-choices", "empty-choices"])
def test_cli_ask_malformed_chat_reply_exits_4(http_server, tmp_path, capsys, payload):
    from karpa.cli import EXIT_PROVIDER, main

    http_server["handler"] = lambda body: (200, payload)
    kg = tmp_path / "kg.tsv"
    kg.write_text("A\tperson.family.father\tB\n", encoding="utf-8")
    conf = tmp_path / "ask.conf"
    conf.write_text(
        f"kg.path = {kg}\nllm.kind = http\nllm.endpoint = {http_server['url']}\n", encoding="utf-8"
    )
    code = main(["--config", str(conf), "ask", "--question", "Q?", "--topic", "A"])
    err = capsys.readouterr().err
    assert code == EXIT_PROVIDER
    assert err.startswith("provider error: ") and "Traceback" not in err
