"""A whole fixture20 eval through provider faults, in process.

Faults that a retry clears must leave the golden report byte for byte, the
usage counts and the cache file as a clean run leaves them. A fault that is
not retried, in chat or in embedding, turns only the question that met it
into an error record. Each fault is keyed by a prompt digest or an embedding
text list, never by a request's position, so the schedule does not depend on
how eval workers interleave.
"""

import importlib.util
import json
import random
import threading
import zlib
from pathlib import Path

import pytest

from karpa.config import build_config, config_digest, resolve_values
from karpa.embeddings import EmbeddingCache, EmbeddingGateway, MockEmbeddingProvider, Uncached
from karpa.errors import DataError, ProviderError, TransportError
from karpa.evaluation import evaluate, load_dataset, render_report
from karpa.llm import ScriptedChatProvider, digest_messages
from karpa.pipeline import Pipeline, load_graph, make_sample_runner
from karpa.planner import Query, build_initial_prompt

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py"
_spec = importlib.util.spec_from_file_location("make_fixtures", _SCRIPT)
make_fixtures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_fixtures)

FIXTURE20 = make_fixtures.OUT_DIR
SEED = 7
CHAT_FAULTS = 16  # a quarter of the golden run's 64 prompts; retries wait on a no-op sleep


class _FaultyChat:
    """Raises ``TransportError`` on the first request of each scheduled prompt
    digest, and ``DataError`` on every request of each fatal one."""

    def __init__(self, inner, scheduled, fatal=()):
        self.inner = inner
        self.identity = inner.identity
        self._scheduled = set(scheduled)
        self._fatal = set(fatal)
        self._lock = threading.Lock()
        self.faults = 0
        self.completions = 0

    def complete(self, messages, params):
        digest = digest_messages(messages)
        if digest in self._fatal:
            raise DataError("scheduled fatal fault")
        with self._lock:
            fail = digest in self._scheduled
            self._scheduled.discard(digest)
            self.faults += fail
        if fail:
            raise TransportError("scheduled fault")
        result = self.inner.complete(messages, params)
        with self._lock:
            self.completions += 1
        return result


class _FaultyEmbedding(MockEmbeddingProvider):
    """Raises ``TransportError`` on the first request of each scheduled text
    list, those whose seeded CRC is even; ``failed`` holds them."""

    def __init__(self, dim, seed):
        super().__init__(dim)
        self._seed = seed
        self._lock = threading.Lock()
        self.failed: set[str] = set()

    def embed_batch(self, texts):
        key = "\n".join(texts)
        scheduled = zlib.crc32(f"{self._seed}:{key}".encode("utf-8")) % 2 == 0
        with self._lock:
            due = scheduled and key not in self.failed
            if due:
                self.failed.add(key)
        if due:
            raise TransportError("scheduled fault")
        return super().embed_batch(texts)


# The id of the question the current thread runs, set by ``_run``'s runner.
_question = threading.local()


class _FatalEmbedding(MockEmbeddingProvider):
    """Records the ``Uncached`` text lists each question sends, and raises
    ``ProviderError`` on every request of ``texts`` that ``victim`` sends.

    An ``Uncached`` request is sent whatever the cache holds, so which
    question sends which of them does not depend on how workers interleave.
    """

    def __init__(self, dim, victim=None, texts=()):
        super().__init__(dim)
        self._victim, self._texts = victim, list(texts)
        self._lock = threading.Lock()
        self.uncached: dict[str, list[list[str]]] = {}
        self.faults = 0

    def embed_batch(self, texts):
        if isinstance(texts, Uncached):
            question = _question.id
            with self._lock:
                self.uncached.setdefault(question, []).append(list(texts))
                fail = question == self._victim and texts == self._texts
                self.faults += fail
            if fail:
                raise ProviderError("malformed embedding reply (scheduled fatal fault)")
        return super().embed_batch(texts)


def _golden_config(tmp_path, concurrency):
    """The golden run's config, with a file cache, a checkpoint directory and
    ``concurrency`` workers, none of which enters the config digest."""
    return build_config(
        resolve_values(
            {
                "kg.path": "tests/data/fixture20/kg.tsv",
                "llm.kind": "scripted",
                "llm.fixtures": "tests/data/fixture20/llm_fixtures.jsonl",
                "embedding.cache_path": str(tmp_path / "cache.jsonl"),
                "eval.checkpoint_dir": str(tmp_path / "checkpoints"),
                "eval.concurrency": str(concurrency),
            },
            env={},
        )
    )


def _run(cfg, chat, embedding):
    samples = load_dataset(FIXTURE20 / "questions.jsonl")
    gateway = EmbeddingGateway(embedding, EmbeddingCache(cfg.embedding.cache_path), sleep=lambda _: None)
    runner = make_sample_runner(Pipeline(cfg, load_graph(cfg), gateway, chat, sleep=lambda _: None))

    def run(sample):
        _question.id = sample.id
        return runner(sample)

    report = evaluate(
        samples,
        run,
        mode=cfg.eval.mode,
        concurrency=cfg.eval.concurrency,
        checkpoint_dir=cfg.eval.checkpoint_dir,
        config_digest=config_digest(cfg),
    )
    return render_report(report)


def _per_sample(report):
    lines = report.splitlines()
    return lines[lines.index("== per-sample ==") + 1 : lines.index("== aggregates ==")]


@pytest.fixture
def golden_cwd(monkeypatch):
    # The golden config's paths are relative to the repository root.
    monkeypatch.chdir(make_fixtures.REPO)
    return (make_fixtures.GOLDEN_DIR / "eval_report.txt").read_text(encoding="utf-8")


@pytest.mark.parametrize("concurrency", [1, 2])
def test_faults_a_retry_clears_leave_the_golden_report(tmp_path, golden_cwd, concurrency):
    cfg = _golden_config(tmp_path, concurrency)
    fixtures = Path(cfg.llm.fixtures).read_text(encoding="utf-8").splitlines()
    digests = sorted(json.loads(line)["digest"] for line in fixtures)
    scheduled = random.Random(SEED).sample(digests, CHAT_FAULTS)
    chat = _FaultyChat(ScriptedChatProvider.from_file(cfg.llm.fixtures), scheduled)
    embedding = _FaultyEmbedding(cfg.embedding.dim, SEED)
    report = _run(cfg, chat, embedding)
    assert report == golden_cwd
    # Each scheduled prompt failed once and each prompt completed once, so
    # usage counts every call once: the 64 calls of the golden report.
    assert chat.faults == CHAT_FAULTS
    assert chat.completions == len(digests) == json.loads(report.splitlines()[-1])["calls"]
    assert embedding.failed
    assert EmbeddingCache(cfg.embedding.cache_path).skipped == 0


@pytest.mark.parametrize("fault", ["chat", "embedding"])
@pytest.mark.parametrize("concurrency", [1, 2])
def test_a_fault_not_retried_turns_only_its_question_into_an_error(tmp_path, golden_cwd, concurrency, fault):
    cfg = _golden_config(tmp_path / "faulty", concurrency)
    samples = load_dataset(FIXTURE20 / "questions.jsonl")
    chat = ScriptedChatProvider.from_file(cfg.llm.fixtures)
    if fault == "chat":
        # A DataError on every attempt of one question's initial planning.
        victim = random.Random(SEED).choice(samples)
        query = Query(id=victim.id, question=victim.question, topic_entities=tuple(victim.topic_entities))
        chat = _FaultyChat(chat, (), [digest_messages(build_initial_prompt(query))])
        embedding = _FaultyEmbedding(cfg.embedding.dim, SEED)
        error = "DataError: scheduled fatal fault"
    else:
        # A malformed reply to every attempt of one Uncached request of one
        # question, chosen from what a clean run's questions send. In
        # fixture20 each such text list is sent by six questions or more, so
        # the fault is keyed by the question as well as by the list.
        clean_cfg = _golden_config(tmp_path / "clean", concurrency)
        clean = _FatalEmbedding(cfg.embedding.dim)
        assert _run(clean_cfg, chat, clean) == golden_cwd
        rng = random.Random(SEED)
        victim = rng.choice([s for s in samples if s.id in clean.uncached])
        embedding = _FatalEmbedding(cfg.embedding.dim, victim.id, rng.choice(clean.uncached[victim.id]))
        error = "ProviderError: malformed embedding reply (scheduled fatal fault)"
    report = _run(cfg, chat, embedding)
    assert "Traceback" not in report
    for line, golden in zip(_per_sample(report), _per_sample(golden_cwd), strict=True):
        record = json.loads(line)
        if record["id"] == victim.id:
            assert record["error"] == error
            assert record["usage"]["calls"] == 0
        else:
            assert line == golden
    cache = EmbeddingCache(cfg.embedding.cache_path)
    assert cache.skipped == 0
    if fault == "embedding":
        # An Uncached request stores nothing, so the failed one loses no record.
        assert embedding.faults >= 1
        assert cache.stats()["records"] == EmbeddingCache(clean_cfg.embedding.cache_path).stats()["records"]
    # Resumed with faults off, on the same checkpoints and cache file, only the
    # errored question runs again, and the report is the golden one.
    resumed = _FaultyChat(ScriptedChatProvider.from_file(cfg.llm.fixtures), ())
    assert _run(cfg, resumed, MockEmbeddingProvider(cfg.embedding.dim)) == golden_cwd
    (golden,) = (json.loads(line) for line in _per_sample(golden_cwd) if json.loads(line)["id"] == victim.id)
    assert resumed.completions == golden["usage"]["calls"]
