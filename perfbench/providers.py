"""Benchmark-side providers: the in-process oracle chat provider and counting wrappers."""

from __future__ import annotations

import threading

from karpa.errors import TransportError
from karpa.llm import CompletionResult

import oracle


class OracleChatProvider:
    """Chat provider that answers every prompt from the oracle table, in process."""

    identity = "perfbench-oracle"

    def __init__(self, table: dict[str, dict]):
        self.table = table

    def complete(self, messages, params) -> CompletionResult:
        text, prompt_tokens, completion_tokens = oracle.reply(
            self.table, [(m.role, m.content) for m in messages]
        )
        return CompletionResult(text, prompt_tokens, completion_tokens)


class CountingEmbeddingProvider:
    """Wraps an embedding provider; counts round trips, texts and transport failures."""

    def __init__(self, inner):
        self.inner = inner
        self.identity = inner.identity
        self.calls = 0
        self.texts = 0
        self.transport_errors = 0
        self._lock = threading.Lock()

    def embed_batch(self, texts):
        with self._lock:
            self.calls += 1
            self.texts += len(texts)
        try:
            return self.inner.embed_batch(texts)
        except TransportError:
            with self._lock:
                self.transport_errors += 1
            raise


class CountingChatProvider:
    """Wraps a chat provider; counts transport failures, which the gateway retries."""

    def __init__(self, inner):
        self.inner = inner
        self.identity = inner.identity
        self.transport_errors = 0
        self._lock = threading.Lock()

    def complete(self, messages, params):
        try:
            return self.inner.complete(messages, params)
        except TransportError:
            with self._lock:
                self.transport_errors += 1
            raise


class EmbedCounter:
    """Counts calls and texts into one gateway's ``embed`` by wrapping it on the instance.

    ``similarity`` and ``top_k_similar_relations`` reach ``embed`` through
    ``self``, so every request into the embedding layer is seen. The class
    method is looked up per call, so a traced run's class-level wrapper
    still runs.
    """

    def __init__(self, gateway):
        self.calls = 0
        self.texts = 0
        self._lock = threading.Lock()
        cls = type(gateway)

        def embed(texts):
            with self._lock:
                self.calls += 1
                self.texts += len(texts)
            return cls.embed(gateway, texts)

        gateway.embed = embed
