"""End-to-end question answering: plan, pool, re-plan, match, reason.

One run produces an answer set plus a full trace (line-JSON-ready event
dicts) and a usage snapshot from a ledger private to that run, so
concurrent evaluation needs no shared mutable state.
"""

from __future__ import annotations

import logging
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from .config import PipelineConfig
from .embeddings import (
    EmbeddingCache,
    EmbeddingGateway,
    HttpEmbeddingProvider,
    MockEmbeddingProvider,
    ScriptedEmbeddingProvider,
)
from .errors import ConfigError, NotFoundError
from .evaluation import QASample
from .kg import KnowledgeGraph, load_triples_path
from .llm import (
    CannedChatProvider,
    HttpChatProvider,
    LlmGateway,
    ScriptedChatProvider,
    digest_messages,
)
from .matching import RelationPath, ScoredPath, match_candidates, union_top_k
from .planner import (
    CandidatePathSet,
    Query,
    build_initial_prompt,
    build_replanning_prompt,
    extract_relation_pool,
    parse_path_sets,
    replan,
)
from .reasoner import AnswerSet, answer_question
from .transport import require_output

logger = logging.getLogger(__name__)


@dataclass
class PipelineResult:
    answers: AnswerSet
    trace: list[dict]
    usage_snapshot: dict
    flags: list[str] = field(default_factory=list)
    selected: list[ScoredPath] = field(default_factory=list)


def build_embedding_gateway(cfg: PipelineConfig) -> EmbeddingGateway:
    opts = cfg.embedding
    if opts.kind == "mock":
        provider = MockEmbeddingProvider(dim=opts.dim)
    elif opts.kind == "scripted":
        if not opts.fixtures:
            raise ConfigError("embedding.fixtures is required for scripted embeddings")
        provider = ScriptedEmbeddingProvider.from_file(opts.fixtures)
    else:
        provider = HttpEmbeddingProvider(
            opts.endpoint, opts.model, api_key=os.environ.get("KARPA_EMBED_API_KEY")
        )
    cache_path = require_output(opts.cache_path, "embedding.cache_path")
    return EmbeddingGateway(provider, EmbeddingCache(cache_path))


def open_embedding_cache(cache_path: str) -> EmbeddingCache:
    """The cache at ``cache_path``, in memory only when it is empty; a directory is a config error."""
    if cache_path and Path(cache_path).is_dir():
        raise ConfigError(f"embedding.cache_path is a directory: {cache_path}")
    return EmbeddingCache(cache_path or None)


def build_chat_provider(cfg: PipelineConfig):
    opts = cfg.llm
    if opts.kind == "mock":
        return CannedChatProvider()
    if opts.kind == "scripted":
        if not opts.fixtures:
            raise ConfigError("llm.fixtures is required for scripted chat")
        return ScriptedChatProvider.from_file(opts.fixtures)
    return HttpChatProvider(opts.endpoint, api_key=os.environ.get("KARPA_LLM_API_KEY"))


def load_graph(cfg: PipelineConfig) -> KnowledgeGraph:
    if not cfg.kg.path:
        raise ConfigError("kg.path is not configured")
    g = load_triples_path(cfg.kg.path, cfg.kg.inverse_edges)
    logger.info(
        "loaded graph: %d entities, %d relations, %d triples",
        g.num_entities,
        g.num_relations,
        len(g),
    )
    return g


class Pipeline:
    """Reusable pipeline over one graph and one pair of providers. Each run's
    ``LlmGateway`` waits out chat retry backoffs with ``sleep``."""

    def __init__(
        self,
        cfg: PipelineConfig,
        g: KnowledgeGraph,
        embedder: EmbeddingGateway,
        chat_provider,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.cfg = cfg
        self.g = g
        self.embedder = embedder
        self.chat_provider = chat_provider
        self.sleep = sleep
        self.vocab = g.relation_vocabulary()

    def run(self, query: Query) -> PipelineResult:
        llm = LlmGateway(self.chat_provider, self.sleep, params=self.cfg.llm)
        trace: list[dict] = []
        flags: list[str] = []
        selected = self._select(query, llm, trace, flags)
        answers = AnswerSet()
        if selected:
            answers = answer_question(query, selected, self.g, llm, self.cfg.reasoner.batch_limit, trace=trace)
            trace.append({"event": "answers", **answers.as_dict()})
        trace.append({"event": "flags", "flags": flags})
        return PipelineResult(answers, trace, llm.ledger.snapshot(), flags, selected)

    # -- phases ----------------------------------------------------------

    def _select(self, query, llm, trace, flags) -> list[ScoredPath]:
        """The paths to reason over; none when no topic resolves or no path matches."""
        resolved = [(label, self.g.entity_id(label)) for label in query.topic_entities]
        topic_ids = [eid for _, eid in resolved if eid is not None]
        unresolved = [label for label, eid in resolved if eid is None]
        trace.append(
            {"event": "resolve", "topics": list(query.topic_entities), "unresolved": unresolved}
        )
        if unresolved:
            flags.append("unresolved_topics")
        if not topic_ids:
            flags.append("no_resolvable_topic")
            return []

        initial = self._initial_plan(query, llm, trace, flags)
        candidates = self._replan(query, initial, llm, trace, flags)
        selected = self._match(topic_ids, candidates, trace)
        trace.append(
            {
                "event": "selected",
                "count": len(selected),
                "paths": [p.as_dict(self.g) for p in selected],
            }
        )
        if not selected:
            flags.append("no_paths_matched")
        return selected

    def _initial_plan(self, query, llm, trace, flags) -> CandidatePathSet:
        messages = build_initial_prompt(query)
        result = llm.complete(messages, phase="initial_planning")
        trace.append(
            {
                "event": "initial_planning",
                "prompt_digest": digest_messages(messages),
                "raw": result.text,
            }
        )
        initial = parse_path_sets(result.text)
        if not initial.parsed:
            flags.append("initial_parse_error")
        if initial.inconsistent:
            flags.append("initial_inconsistent")
        trace.append({"event": "initial_paths", "paths": initial.trace_paths()})
        return initial

    def _replan(self, query, initial, llm, trace, flags) -> list[RelationPath]:
        pool = extract_relation_pool(
            initial,
            self.vocab,
            self.embedder,
            per_relation_k=self.cfg.planner.per_relation_k,
            cap=self.cfg.planner.relation_cap,
        )
        trace.append({"event": "relation_pool", "pool": pool})
        if pool:
            messages = build_replanning_prompt(query, pool)
            candidate_set = replan(messages, llm, self.embedder, self.vocab)
            event = {"event": "replanning", "prompt_digest": digest_messages(messages)}
            if candidate_set.parsed:
                event.update(raw=candidate_set.raw_llm_text, paths=candidate_set.trace_paths())
            else:
                # No reply readable: the initial plan stands, as for an empty re-plan.
                flags.append("replan_parse_error")
            if candidate_set.unparsed:
                event["unparsed"] = candidate_set.unparsed
            event["snaps"] = [list(s) for s in candidate_set.snaps]
            trace.append(event)
            if candidate_set.snaps:
                flags.append("snapped_relations")
            if candidate_set.inconsistent:
                flags.append("replan_inconsistent")
            if not candidate_set.is_empty():
                return candidate_set.all_paths()
        flags.append("fallback_initial")
        return initial.all_paths()

    def _match(self, topic_ids, candidates, trace) -> list[ScoredPath]:
        if not candidates:
            return []
        matched_all: list[ScoredPath] = []
        for topic_id in topic_ids:
            matched = match_candidates(self.g, topic_id, candidates, self.cfg.matcher, self.embedder)
            trace.append(
                {
                    "event": "matching",
                    "topic": self.g.entity_label(topic_id),
                    "strategy": self.cfg.matcher.strategy,
                    "count": len(matched),
                    "truncated": any(p.truncated for p in matched),
                }
            )
            matched_all.extend(matched)
        return union_top_k(matched_all, self.cfg.matcher.top_k)


def build_pipeline(cfg: PipelineConfig) -> Pipeline:
    """A pipeline over the configured graph, embedding gateway and chat provider."""
    # The providers first, so their configuration errors come before a graph load.
    embedder, chat_provider = build_embedding_gateway(cfg), build_chat_provider(cfg)
    return Pipeline(cfg, load_graph(cfg), embedder, chat_provider)


def make_sample_runner(pipeline: Pipeline):
    """Adapter for the evaluation harness: QASample in, PipelineResult out."""

    def run(sample: QASample) -> PipelineResult:
        if not sample.topic_entities:
            raise NotFoundError(f"sample {sample.id} has no topic entities")
        query = Query(
            id=sample.id,
            question=sample.question,
            topic_entities=tuple(sample.topic_entities),
        )
        return pipeline.run(query)

    return run
