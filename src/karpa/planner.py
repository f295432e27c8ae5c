"""Pre-planning: propose relation paths, pool similar relations, re-plan.

The prompt templates ship as package data, are read once per process and
are rendered byte-stably with a single-pass placeholder substitution, so
identical inputs always produce identical prompts (scripted providers key
on prompt digests). The caller renders the re-planning prompt once and
hands the messages to ``replan``, so the messages sent and the messages
digested into a trace are the same object.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from itertools import islice

from .embeddings import EmbeddingGateway
from .errors import ContractError
from .llm import ChatMessage, LlmGateway
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
    vocabulary label during re-planning. ``parsed`` is False for a reply
    with no brace group, whose set is empty. ``unparsed`` holds the
    re-planning replies that did not parse, in order.
    """

    by_length: dict[int, list[RelationPath]]
    raw_llm_text: str
    inconsistent: bool = False
    parsed: bool = True
    snaps: list[tuple[str, str]] = field(default_factory=list)
    unparsed: list[str] = field(default_factory=list)

    def all_paths(self) -> list[RelationPath]:
        return [path for length in sorted(self.by_length) for path in self.by_length[length]]

    def is_empty(self) -> bool:
        return not any(self.by_length.values())

    def trace_paths(self) -> dict[str, list[list[str]]]:
        """The paths as a trace records them: ``{str(length): [[label, ...], ...]}``."""
        return {str(k): [list(p.relations) for p in v] for k, v in self.by_length.items()}


@functools.cache
def load_template(name: str) -> str:
    """The text of the packaged prompt template ``name``, read once per process."""
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


def render_prompt(name: str, query: Query, **values: str) -> list[ChatMessage]:
    """The one user message of template ``name``, with ``query``'s question and topic entities."""
    values = {"question": query.question, "topic_entities": ", ".join(query.topic_entities), **values}
    return [ChatMessage("user", render_template(load_template(name), values))]


def build_initial_prompt(query: Query) -> list[ChatMessage]:
    return render_prompt("initial_planning.txt", query)


def parse_path_sets(llm_text: str) -> CandidatePathSet:
    """Extract the per-length relation lists from planning output.

    For each length the last ``{...}`` group after that length's header is
    taken; its content is comma-split and trimmed. ``{}`` and ``None``
    mean no path of that length. If no length yields any brace group the
    text is unusable: the set is empty and not ``parsed``.
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
        if len(labels) != length or length not in PATH_LENGTHS:
            inconsistent = True
        by_length.setdefault(length, []).append(RelationPath(labels))
    return CandidatePathSet(by_length, llm_text, inconsistent, parsed=found_any)


def extract_relation_pool(
    initial: CandidatePathSet,
    vocab: list[str],
    gateway: EmbeddingGateway,
    per_relation_k: int | None = None,
    *,
    cap: int,
) -> list[str]:
    """Pool the vocabulary relations most similar to the proposed ones.

    Each distinct proposed relation contributes its top-k similar
    vocabulary labels, all ranked in one ``top_k_similar_relations`` call;
    the per-source rankings are merged round-robin by rank, deduplicated,
    and truncated to the cap. An empty initial set yields an empty pool
    (the pipeline then falls back).
    """
    if not vocab:
        raise ContractError("vocabulary must be non-empty")
    sources = list(dict.fromkeys(label for path in initial.all_paths() for label in path.relations))
    if not sources:
        return []
    if per_relation_k is None:
        per_relation_k = max(3, cap // len(sources))
    rankings = gateway.top_k_similar_relations(sources, vocab, per_relation_k)
    rank_major = (
        ranked[rank][0] for rank in range(per_relation_k) for ranked in rankings if rank < len(ranked)
    )
    return list(islice(dict.fromkeys(rank_major), cap))


def build_replanning_prompt(query: Query, pool: list[str]) -> list[ChatMessage]:
    if not pool:
        raise ContractError("relation pool must be non-empty")
    return render_prompt("replanning.txt", query, relations="; ".join(pool))


def _snap_to_vocabulary(
    candidate_set: CandidatePathSet,
    vocab: list[str],
    gateway: EmbeddingGateway,
) -> CandidatePathSet:
    vocab_set = set(vocab)
    labels = (label for path in candidate_set.all_paths() for label in path.relations)
    off_vocab = list(dict.fromkeys(label for label in labels if label not in vocab_set))
    nearest = {}
    if off_vocab:
        rankings = gateway.top_k_similar_relations(off_vocab, vocab, 1)
        nearest = {label: ranked[0][0] for label, ranked in zip(off_vocab, rankings)}
    snaps: list[tuple[str, str]] = []

    def snap(label: str) -> str:
        if label in vocab_set:
            return label
        snaps.append((label, nearest[label]))
        return nearest[label]

    snapped = {
        length: [RelationPath(tuple(map(snap, path.relations))) for path in paths]
        for length, paths in candidate_set.by_length.items()
    }
    return replace(candidate_set, by_length=snapped, snaps=snaps)


def replan(
    messages: list[ChatMessage],
    llm: LlmGateway,
    embedder: EmbeddingGateway,
    vocab: list[str],
) -> CandidatePathSet:
    """One re-planning completion of the rendered ``messages``
    (``build_replanning_prompt``), parsed and validated against the vocabulary.

    Hallucinated relation labels are snapped to their nearest vocabulary
    label by cosine similarity so the paths stay executable. All of them
    are ranked in one ``top_k_similar_relations`` call, and every snap is
    recorded, a repeated label at each place it occurs. A reply that does
    not parse earns one corrective retry, which appends the reply and a
    corrective message to ``messages`` (a new list; ``messages`` itself is
    not changed). The set is the retry's, with the first reply under
    ``unparsed``; when the retry does not parse either, it is empty, not
    ``parsed``, and holds both replies.
    """
    candidate_set = parse_path_sets(llm.complete(messages, phase="replanning").text)
    if not candidate_set.parsed:
        first = candidate_set.raw_llm_text
        retry_messages = messages + [ChatMessage("assistant", first), ChatMessage("user", CORRECTIVE_MESSAGE)]
        candidate_set = parse_path_sets(llm.complete(retry_messages, phase="replanning").text)
        candidate_set.unparsed = [first] if candidate_set.parsed else [first, candidate_set.raw_llm_text]
    return _snap_to_vocabulary(candidate_set, vocab, embedder)
