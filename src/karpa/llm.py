"""Chat-completion access with usage accounting.

Providers are pluggable: a generic HTTP chat service client, a scripted
replay provider keyed by the digest of the full message list (the
workhorse of the offline test suite), and a trivial canned provider.
Every completion is tallied in a ``UsageLedger`` under a phase name so
call counts and token totals per question can be reported. ``LlmParams`` is
the ``llm`` config section: the provider kind and its endpoint or fixtures,
and the model settings sent with every completion. The HTTP call,
its error mapping, the retry loop and the fixture reader live in
``transport``; the HTTP client here only builds its request body and reads
the fields it needs from the reply.
"""

from __future__ import annotations

import hashlib
import json
import math
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable

from .errors import ContractError, EmptyCompletionError, MissingFixtureError, ProviderError
from .transport import check_endpoint, post_json, read_records, with_retries

_ROLES = ("system", "user", "assistant")

PHASES = ("initial_planning", "replanning", "reasoning")

COUNTERS = ("calls", "prompt_tokens", "completion_tokens", "estimated_calls")


@dataclass(frozen=True)
class ChatMessage:
    role: str
    content: str

    def __post_init__(self):
        if self.role not in _ROLES:
            raise ContractError(f"role must be one of {_ROLES}, got {self.role!r}")
        if self.role in ("user", "assistant") and not self.content:
            raise ContractError(f"{self.role} message content must be non-empty")


@dataclass(frozen=True)
class CompletionResult:
    text: str
    prompt_tokens: int
    completion_tokens: int
    estimated: bool = False  # token counts estimated rather than provider-reported


@dataclass
class LlmParams:
    """The ``llm`` config section; providers read the model settings from it."""

    kind: str = "mock"
    endpoint: str = ""
    model: str = ""
    temperature: float = 0.0
    max_output: int = 1024
    fixtures: str = ""


def estimate_tokens(text: str) -> int:
    """Fallback token estimate when a provider reports no usage: ceil(chars / 4)."""
    return math.ceil(len(text) / 4)


def digest_messages(messages: list[ChatMessage]) -> str:
    payload = json.dumps(
        [[m.role, m.content] for m in messages], ensure_ascii=False, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


class UsageLedger:
    """Thread-safe, monotonically growing per-phase usage counters.

    Each phase holds one count per name in ``COUNTERS``. Totals are derived
    from the phases, so the phase breakdown always sums to the totals
    regardless of call interleaving.
    """

    def __init__(self):
        self._phases: dict[str, list[int]] = {}
        self._lock = threading.Lock()

    def _add(self, phase: str, counts: Iterable[int]) -> None:
        """Add ``counts``, in ``COUNTERS`` order, to a phase; the caller holds the lock."""
        totals = self._phases.setdefault(phase, [0] * len(COUNTERS))
        for i, count in enumerate(counts):
            totals[i] += count

    def record(self, phase: str, result: CompletionResult) -> None:
        with self._lock:
            self._add(phase, (1, result.prompt_tokens, result.completion_tokens, int(result.estimated)))

    def snapshot(self) -> dict:
        with self._lock:
            phases = {name: dict(zip(COUNTERS, counts)) for name, counts in self._phases.items()}
        for name in PHASES:
            phases.setdefault(name, dict.fromkeys(COUNTERS, 0))
        phases = dict(sorted(phases.items()))
        totals = {key: sum(usage[key] for usage in phases.values()) for key in COUNTERS}
        return {**totals, "phases": phases}

    def merge_snapshot(self, snapshot: dict) -> None:
        with self._lock:
            for name, usage in snapshot["phases"].items():
                self._add(name, (usage[key] for key in COUNTERS))


def _estimated_usage(messages: list[ChatMessage], text: str) -> tuple[int, int]:
    prompt = sum(estimate_tokens(m.content) for m in messages)
    return prompt, estimate_tokens(text)


def _usage_count(value) -> int:
    """A reply's token count: a whole number, such as ``12`` or ``12.0``, not
    below zero; ``int`` alone would take ``"12"``, ``true``, ``-5`` and ``2.7``."""
    if type(value) not in (int, float):
        raise TypeError(f"usage count must be a number, got {type(value).__name__}")
    if value < 0 or type(value) is float and not value.is_integer():  # False for inf and NaN
        raise ValueError(f"usage count must be a whole number not below zero, got {value}")
    return int(value)


def _chat_fixture_record(obj) -> tuple[str, str]:
    digest, text = obj["digest"], obj["response_text"]
    if not isinstance(digest, str) or not isinstance(text, str):
        raise TypeError("digest and response_text must be strings")
    return digest, text


class ScriptedChatProvider:
    """Replays fixture text keyed by the digest of the message list.

    Fixture files are line-JSON records ``{"digest", "response_text"}``.
    A miss raises ``MissingFixtureError`` naming the digest, which makes
    prompt drift loud in tests.
    """

    def __init__(self, fixtures: dict[str, str] | None = None, identity: str = "scripted"):
        self._fixtures = dict(fixtures) if fixtures else {}
        self.identity = identity

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedChatProvider":
        fixtures = dict(read_records(path, "scripted chat fixture", _chat_fixture_record))
        return cls(fixtures, identity=f"scripted:{Path(path).name}")

    def add(self, messages: list[ChatMessage], response_text: str) -> str:
        digest = digest_messages(messages)
        self._fixtures[digest] = response_text
        return digest

    def complete(self, messages: list[ChatMessage], params: LlmParams) -> CompletionResult:
        digest = digest_messages(messages)
        if digest not in self._fixtures:
            raise MissingFixtureError(digest)
        text = self._fixtures[digest]
        return CompletionResult(text, *_estimated_usage(messages, text), estimated=True)


class CannedChatProvider:
    """Returns one fixed response regardless of input; smoke-test provider."""

    def __init__(self, text: str = "{}"):
        self.text = text
        self.identity = "canned"

    def complete(self, messages: list[ChatMessage], params: LlmParams) -> CompletionResult:
        return CompletionResult(self.text, *_estimated_usage(messages, self.text), estimated=True)


class HttpChatProvider:
    """Client for a generic HTTP chat-completion service.

    Request: ``POST {"model", "messages": [{"role", "content"}...],
    "temperature", "max_tokens"}``, where ``max_tokens`` is ``llm.max_output``.
    Response: ``{"choices": [{"message": {"content"}}], "usage":
    {"prompt_tokens", "completion_tokens"}}``. The API key is read from
    ``KARPA_LLM_API_KEY`` and sent as a bearer token. A reply whose content
    is missing or not a string, or whose usage counts are not finite JSON
    numbers, is a ``ProviderError``.
    """

    def __init__(self, endpoint: str, api_key: str | None = None, timeout: float = 120.0):
        check_endpoint("llm.endpoint", endpoint)
        self.endpoint = endpoint
        self.api_key = api_key
        self.timeout = timeout
        self.identity = f"http:{endpoint}"

    def complete(self, messages: list[ChatMessage], params: LlmParams) -> CompletionResult:
        body = {
            "model": params.model,
            "messages": [{"role": m.role, "content": m.content} for m in messages],
            "temperature": params.temperature,
            "max_tokens": params.max_output,
        }
        payload = post_json(self.endpoint, body, self.api_key, self.timeout, "chat")
        try:
            text = payload["choices"][0]["message"]["content"]
            if not isinstance(text, str):
                raise TypeError(f"content is {type(text).__name__}, not str")
            usage = payload.get("usage")
            if usage is not None:
                return CompletionResult(
                    text,
                    _usage_count(usage.get("prompt_tokens", 0)),
                    _usage_count(usage.get("completion_tokens", 0)),
                )
        except (LookupError, TypeError, ValueError, AttributeError) as exc:
            raise ProviderError(f"malformed chat reply ({type(exc).__name__}: {exc})") from None
        return CompletionResult(text, *_estimated_usage(messages, text), estimated=True)


class LlmGateway:
    """Validates, retries, completes, and tallies usage by phase.

    Each gateway owns its ``ledger``, a new ``UsageLedger``. ``params`` is
    the ``llm`` config section; every completion sends its model settings.
    """

    def __init__(self, provider, sleep: Callable[[float], None] = time.sleep, *, params: LlmParams):
        self.provider = provider
        self.ledger = UsageLedger()
        self._sleep = sleep
        self.params = params

    def complete(self, messages: list[ChatMessage], phase: str = "other") -> CompletionResult:
        if not messages:
            raise ContractError("complete requires at least one message")
        if messages[-1].role != "user":
            raise ContractError("message list must end with a user message")
        result = with_retries(lambda: self.provider.complete(messages, self.params), self._sleep)
        if not result.text.strip():
            raise EmptyCompletionError("provider returned empty completion text")
        self.ledger.record(phase, result)
        return result
