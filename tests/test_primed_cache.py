"""A second pass over a primed embedding-cache file, through a fresh cache on
the same path: every kept vector is read back from the file's records, so the
second pass asks the provider only for what skips the cache, and its outputs
are the first pass's."""

import importlib.util
from pathlib import Path

import pytest

from karpa.config import build_config, config_digest, resolve_values
from karpa.embeddings import EmbeddingCache, EmbeddingGateway, MockEmbeddingProvider, Uncached
from karpa.evaluation import evaluate, load_dataset, render_report
from karpa.kg import load_triples_path
from karpa.matching import MatchConfig, RelationPath, match_candidates
from karpa.pipeline import Pipeline, build_chat_provider, load_graph, make_sample_runner

from helpers import SpyEmbeddingProvider

FIXTURE20 = Path(__file__).parent / "data" / "fixture20"

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "make_fixtures.py"
_spec = importlib.util.spec_from_file_location("make_fixtures", _SCRIPT)
make_fixtures = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(make_fixtures)


class _UncachedSpy(EmbeddingGateway):
    """Records each ``Uncached`` request ``embed`` serves."""

    def __init__(self, provider, cache):
        super().__init__(provider, cache)
        self.uncached_requests: list[list[str]] = []

    def embed(self, texts):
        if isinstance(texts, Uncached):
            self.uncached_requests.append(list(texts))
        return super().embed(texts)


def _spied_gateway(cache_path):
    provider = SpyEmbeddingProvider(MockEmbeddingProvider())
    return provider, _UncachedSpy(provider, EmbeddingCache(cache_path))


@pytest.mark.parametrize("strategy", ["beam", "pathfind"])
def test_fixed_length_matching_over_a_primed_cache_file_makes_no_request(tmp_path, strategy):
    # Each fixture question's planned paths, one per length, from its topic.
    g = load_triples_path(FIXTURE20 / "kg.tsv")
    cases = [
        (g.entity_id(q["topics"][0]), [RelationPath(tuple(labels)) for labels in q["plan"].values()])
        for q in make_fixtures.build_questions()
    ]
    cfg = MatchConfig(strategy=strategy)
    cache_path = tmp_path / "cache.jsonl"
    passes = []
    for _ in range(2):
        provider, gateway = _spied_gateway(cache_path)
        paths = [match_candidates(g, topic, candidates, cfg, gateway) for topic, candidates in cases]
        passes.append((provider.batches, paths))
    (first_requests, first_paths), (second_requests, second_paths) = passes
    assert first_requests and any(first_paths)
    assert second_requests == []
    assert second_paths == first_paths


def test_eval_over_a_primed_cache_file_writes_the_golden_report(tmp_path, monkeypatch):
    # The golden run's config, with its repo-relative paths, so the report's
    # config digest is the golden one.
    monkeypatch.chdir(make_fixtures.REPO)
    cfg = build_config(
        resolve_values(
            {
                "kg.path": "tests/data/fixture20/kg.tsv",
                "llm.kind": "scripted",
                "llm.fixtures": "tests/data/fixture20/llm_fixtures.jsonl",
            },
            env={},
        )
    )
    assert cfg.matcher.strategy == "heuristic"
    samples = load_dataset(FIXTURE20 / "questions.jsonl")
    g = load_graph(cfg)
    cache_path = tmp_path / "cache.jsonl"
    passes = []
    for _ in range(2):
        provider, gateway = _spied_gateway(cache_path)
        pipeline = Pipeline(cfg, g, gateway, build_chat_provider(cfg))
        report = evaluate(samples, make_sample_runner(pipeline), config_digest=config_digest(cfg))
        passes.append((provider.batches, gateway.uncached_requests, render_report(report)))
    (first_requests, first_sequences, first_report), (second_requests, second_sequences, second_report) = passes
    golden = (make_fixtures.GOLDEN_DIR / "eval_report.txt").read_text(encoding="utf-8")
    assert first_report == second_report == golden
    # The heuristic's label sequences skip the cache, so the second pass
    # sends the provider exactly the sequences the first pass sent, and
    # nothing else: relation labels, the LLM's query texts and candidate
    # texts are read back from the file.
    assert second_requests == second_sequences == first_sequences
    assert first_sequences and all(" " in text for request in first_sequences for text in request)
    assert any(" " not in text for request in first_requests for text in request)
