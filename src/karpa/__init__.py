"""Knowledge-graph question answering via planned relation paths.

A question is answered in three phases: an LLM proposes relation paths,
those paths are matched against the knowledge graph by embedding
similarity (beam search, averaged-cost pathfinding, or variable-length
heuristic search), and the LLM reasons over the grounded paths to pick
the answer entities.
"""

from .config import PipelineConfig, config_digest, load_config
from .embeddings import (
    EmbeddingCache,
    EmbeddingGateway,
    EmbeddingVector,
    MockEmbeddingProvider,
    cosine,
    mock_embed,
)
from .evaluation import QASample, evaluate, load_dataset, render_report, score_sample
from .kg import KnowledgeGraph, load_triples, load_triples_path
from .llm import (
    ChatMessage,
    CompletionResult,
    LlmGateway,
    LlmParams,
    ScriptedChatProvider,
    UsageLedger,
    estimate_tokens,
)
from .matching import (
    MatchConfig,
    RelationPath,
    ReasoningPath,
    ScoredPath,
    beam_match,
    dijkstra_avg_match,
    heuristic_top_k,
    match_candidates,
    path_similarity,
    step_cost,
)
from .pipeline import Pipeline, PipelineResult, run_pipeline
from .planner import (
    CandidatePathSet,
    Query,
    RelationPool,
    build_initial_prompt,
    build_replanning_prompt,
    extract_relation_pool,
    parse_path_sets,
    replan,
)
from .reasoner import AnswerSet, answer_question, build_reasoning_prompt, parse_answers

__version__ = "0.1.0"

__all__ = [
    "AnswerSet",
    "ChatMessage",
    "CandidatePathSet",
    "CompletionResult",
    "EmbeddingCache",
    "EmbeddingGateway",
    "EmbeddingVector",
    "KnowledgeGraph",
    "LlmGateway",
    "LlmParams",
    "MatchConfig",
    "MockEmbeddingProvider",
    "Pipeline",
    "PipelineConfig",
    "PipelineResult",
    "QASample",
    "Query",
    "RelationPath",
    "RelationPool",
    "ReasoningPath",
    "ScoredPath",
    "ScriptedChatProvider",
    "UsageLedger",
    "answer_question",
    "beam_match",
    "build_initial_prompt",
    "build_replanning_prompt",
    "build_reasoning_prompt",
    "config_digest",
    "cosine",
    "dijkstra_avg_match",
    "estimate_tokens",
    "evaluate",
    "extract_relation_pool",
    "heuristic_top_k",
    "load_config",
    "load_dataset",
    "load_triples",
    "load_triples_path",
    "match_candidates",
    "mock_embed",
    "parse_answers",
    "parse_path_sets",
    "path_similarity",
    "render_report",
    "replan",
    "run_pipeline",
    "score_sample",
    "step_cost",
]
