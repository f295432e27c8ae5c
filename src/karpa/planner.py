"""Pre-planning: propose relation paths, pool similar relations, re-plan.

The two prompt templates ship as package data and are rendered byte-stably
with a single-pass placeholder substitution, so identical inputs always
produce identical prompts (scripted providers key on prompt digests).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from importlib import resources

from .embeddings import EmbeddingGateway
from .errors import ContractError, ParseError
from .llm import ChatMessage, LlmGateway, LlmParams
from .matching import RelationPath

_PLACEHOLDER = re.compile(r"\{\{(question|topic_entities|relations|reasoning_paths)\}\}")
# The group, holding no brace, that planning and reasoning replies write their items in.
BRACE_GROUP = re.compile(r"\{([^{}]*)\}")
_LENGTH_HEADER = re.compile(r"Length\s+(\d+)\s+reasoning\s+path", re.IGNORECASE)

PATH_LENGTHS = (1, 2, 3)

CORRECTIVE_MESSAGE = (
    "Your previous response could not be parsed. For each of the lengths 1, 2, and 3, "
    "write one line starting with \"Length N reasoning path:\" that ends with the chosen "
    "relations inside curly brackets, separated by commas, for example: "
    "{relation_one, relation_two}. If no reasoning path of a length exists, end that "
    "line with: None: {}."
)


@dataclass(frozen=True)
class Query:
    id: str
    question: str
    topic_entities: tuple[str, ...]

    def __post_init__(self):
        if not self.topic_entities:
            raise ContractError("query needs at least one topic entity")


@dataclass
class CandidatePathSet:
    """Relation paths grouped by proposed length 1..3.

    ``inconsistent`` marks sets where some path's relation count does not
    match its stated length; such paths are kept, not dropped. ``snaps``
    records off-vocabulary labels that were replaced by their nearest
    vocabulary label during re-planning.
    """

    by_length: dict[int, list[RelationPath]]
    raw_llm_text: str
    inconsistent: bool = False
    snaps: list[tuple[str, str]] = field(default_factory=list)

    def all_paths(self) -> list[RelationPath]:
        paths = []
        for length in sorted(self.by_length):
            paths.extend(self.by_length[length])
        return paths

    def is_empty(self) -> bool:
        return not any(self.by_length.values())


@dataclass
class RelationPool:
    """Vocabulary relations pooled per source relation, flattened under a cap."""

    rankings: list[tuple[str, list[tuple[str, float]]]]
    pool: list[str]
    cap: int


def load_template(name: str) -> str:
    return resources.files("karpa.prompts").joinpath(name).read_text(encoding="utf-8")


def render_template(template: str, values: dict[str, str]) -> str:
    """Replace ``{{placeholder}}`` markers in one pass.

    Substituted values are never re-scanned, so rendering is injective in
    the values it embeds.
    """

    def sub(match: re.Match) -> str:
        key = match.group(1)
        if key not in values:
            raise ContractError(f"template placeholder {{{{{key}}}}} has no value")
        return values[key]

    return _PLACEHOLDER.sub(sub, template)


def comma_items(content: str) -> list[str]:
    """The comma-separated items of a brace group's content, trimmed, empty ones dropped."""
    return [part.strip() for part in content.split(",") if part.strip()]


def build_initial_prompt(query: Query) -> list[ChatMessage]:
    text = render_template(
        load_template("initial_planning.txt"),
        {"question": query.question, "topic_entities": ", ".join(query.topic_entities)},
    )
    return [ChatMessage("user", text)]


def parse_path_sets(llm_text: str) -> CandidatePathSet:
    """Extract the per-length relation lists from planning output.

    For each length the last ``{...}`` group after that length's header is
    taken; its content is comma-split and trimmed. ``{}`` and ``None``
    mean no path of that length. If no length yields any brace group the
    text is unusable and a ``ParseError`` carrying it is raised.
    """
    headers = [(m.start(), int(m.group(1))) for m in _LENGTH_HEADER.finditer(llm_text)]
    by_length: dict[int, list[RelationPath]] = {length: [] for length in PATH_LENGTHS}
    inconsistent = False
    found_any = False
    for idx, (start, length) in enumerate(headers):
        end = headers[idx + 1][0] if idx + 1 < len(headers) else len(llm_text)
        groups = BRACE_GROUP.findall(llm_text[start:end])
        if not groups:
            continue
        found_any = True
        labels = tuple(comma_items(groups[-1]))
        if not labels or groups[-1].strip().lower() == "none":
            continue
        path = RelationPath(labels)
        if len(labels) != length:
            inconsistent = True
        if length in by_length:
            by_length[length].append(path)
        else:
            by_length[length] = [path]
            inconsistent = True
    if not found_any:
        raise ParseError("no per-length brace groups found in planning output", raw=llm_text)
    return CandidatePathSet(by_length=by_length, raw_llm_text=llm_text, inconsistent=inconsistent)


def extract_relation_pool(
    initial: CandidatePathSet,
    vocab: list[str],
    gateway: EmbeddingGateway,
    per_relation_k: int | None = None,
    cap: int = 30,
) -> RelationPool:
    """Pool the vocabulary relations most similar to the proposed ones.

    Each distinct proposed relation contributes its top-k similar
    vocabulary labels; the per-source rankings are merged round-robin by
    rank, deduplicated, and truncated to the cap. An empty initial set
    yields an empty pool (the pipeline then falls back).
    """
    if not vocab:
        raise ContractError("vocabulary must be non-empty")
    sources: list[str] = []
    for path in initial.all_paths():
        for label in path.relations:
            if label not in sources:
                sources.append(label)
    if not sources:
        return RelationPool(rankings=[], pool=[], cap=cap)
    if per_relation_k is None:
        per_relation_k = max(3, cap // len(sources))
    rankings = [
        (source, gateway.top_k_similar_relations(source, vocab, per_relation_k))
        for source in sources
    ]
    pool: list[str] = []
    for rank in range(per_relation_k):
        for _, ranked in rankings:
            if rank >= len(ranked):
                continue
            label = ranked[rank][0]
            if label not in pool:
                pool.append(label)
            if len(pool) >= cap:
                break
        if len(pool) >= cap:
            break
    return RelationPool(rankings=rankings, pool=pool[:cap], cap=cap)


def build_replanning_prompt(query: Query, pool: RelationPool) -> list[ChatMessage]:
    if not pool.pool:
        raise ContractError("relation pool must be non-empty")
    text = render_template(
        load_template("replanning.txt"),
        {
            "question": query.question,
            "topic_entities": ", ".join(query.topic_entities),
            "relations": "; ".join(pool.pool),
        },
    )
    return [ChatMessage("user", text)]


def _snap_to_vocabulary(
    candidate_set: CandidatePathSet,
    vocab: list[str],
    gateway: EmbeddingGateway,
) -> CandidatePathSet:
    vocab_set = set(vocab)
    snaps: list[tuple[str, str]] = []
    snapped: dict[int, list[RelationPath]] = {}
    for length, paths in candidate_set.by_length.items():
        new_paths = []
        for path in paths:
            labels = []
            for label in path.relations:
                if label in vocab_set:
                    labels.append(label)
                else:
                    nearest = gateway.top_k_similar_relations(label, vocab, 1)[0][0]
                    snaps.append((label, nearest))
                    labels.append(nearest)
            new_paths.append(RelationPath(tuple(labels)))
        snapped[length] = new_paths
    return CandidatePathSet(
        by_length=snapped,
        raw_llm_text=candidate_set.raw_llm_text,
        inconsistent=candidate_set.inconsistent,
        snaps=snaps,
    )


def replan(
    query: Query,
    pool: RelationPool,
    llm: LlmGateway,
    params: LlmParams,
    embedder: EmbeddingGateway,
    vocab: list[str],
) -> CandidatePathSet:
    """One re-planning completion, parsed and validated against the vocabulary.

    Hallucinated relation labels are snapped to their nearest vocabulary
    label by cosine similarity so the paths stay executable; every snap is
    recorded. A parse failure earns one corrective retry, then the error
    surfaces.
    """
    messages = build_replanning_prompt(query, pool)
    result = llm.complete(messages, params, phase="replanning")
    try:
        parsed = parse_path_sets(result.text)
    except ParseError:
        retry_messages = messages + [
            ChatMessage("assistant", result.text),
            ChatMessage("user", CORRECTIVE_MESSAGE),
        ]
        retry_result = llm.complete(retry_messages, params, phase="replanning")
        parsed = parse_path_sets(retry_result.text)
    return _snap_to_vocabulary(parsed, vocab, embedder)
