"""Reasoning over matched paths: prompt rendering, batching, answer parsing.

Matched paths are fed to the LLM in score order, at most ``batch_limit``
per completion. Answers are whatever the model encloses in its final
curly-brace group; answers that are not the tail entity of any supplied
path are kept but flagged ungrounded so the evaluator can score strictly
or leniently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .errors import ContractError, ProviderError
from .llm import ChatMessage, LlmGateway, digest_messages
from .planner import BRACE_GROUP, Query, comma_items, render_prompt

if TYPE_CHECKING:
    from .kg import KnowledgeGraph
    from .matching import ScoredPath


def normalize_answer(text: str) -> str:
    """Trim, collapse whitespace, case-fold; the comparison form of an answer."""
    return " ".join(text.split()).casefold()


@dataclass
class AnswerSet:
    """Deduplicated answers with per-batch provenance and grounding flags.

    ``answers`` keeps the first-seen surface form of each distinct
    normalized answer. ``ungrounded`` holds normalized answers that match
    no tail entity of the paths shown to the model. ``no_answer_marker``
    means the model produced no brace group at all (an abstention, not an
    error).
    """

    answers: list[str] = field(default_factory=list)
    provenance: dict[str, list[int]] = field(default_factory=dict)
    ungrounded: set[str] = field(default_factory=set)
    no_answer_marker: bool = False

    def normalized(self) -> list[str]:
        return [normalize_answer(a) for a in self.answers]

    def add(self, surface: str, batch: int) -> None:
        norm = normalize_answer(surface)
        if not norm:
            return
        if norm not in self.provenance:
            self.answers.append(surface)
            self.provenance[norm] = []
        if batch not in self.provenance[norm]:
            self.provenance[norm].append(batch)

    def as_dict(self) -> dict:
        return {
            "answers": list(self.answers),
            "provenance": {k: list(v) for k, v in sorted(self.provenance.items())},
            "ungrounded": sorted(self.ungrounded),
            "no_answer_marker": self.no_answer_marker,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "AnswerSet":
        return cls(
            answers=list(data["answers"]),
            provenance={k: list(v) for k, v in data["provenance"].items()},
            ungrounded=set(data["ungrounded"]),
            no_answer_marker=bool(data["no_answer_marker"]),
        )


def render_path_line(g: "KnowledgeGraph", scored: "ScoredPath") -> str:
    start = g.entity_label(scored.path.start)
    tail = g.entity_label(scored.path.tail)
    relations = " → ".join(scored.relation_path.relations)
    return f"({start}, {relations}, {tail})"


def build_reasoning_prompt(
    query: Query, paths: list["ScoredPath"], g: "KnowledgeGraph"
) -> list[ChatMessage]:
    """Render the reasoning prompt with one path line per matched path, in score order."""
    if not paths:
        raise ContractError("reasoning prompt needs at least one path")
    lines = "\n".join(render_path_line(g, scored) for scored in paths)
    return render_prompt("reasoning.txt", query, reasoning_paths=lines)


def parse_answers(llm_text: str, batch: int = 0) -> AnswerSet:
    """Answers from the LAST curly-brace group of the model output.

    Empty braces mean an explicit empty answer; no braces at all sets the
    abstention marker instead of raising.
    """
    groups = BRACE_GROUP.findall(llm_text)
    answers = AnswerSet()
    if not groups:
        answers.no_answer_marker = True
        return answers
    for part in comma_items(groups[-1]):
        answers.add(part, batch)
    return answers


def answer_question(
    query: Query,
    matched: list["ScoredPath"],
    g: "KnowledgeGraph",
    llm: LlmGateway,
    batch_limit: int,
    trace: list[dict],
) -> AnswerSet:
    """Batched reasoning over the matched paths; answers are unioned.

    Batches partition the score-ordered paths. A failed batch is recorded
    and the rest still run; only all batches failing is an error. Answers
    matching no supplied tail-entity label are flagged ungrounded. One
    event per batch is appended to ``trace`` (prompt digest, raw completion
    or failure, parsed answers), then, unless all batches failed, one
    ``reasoning`` event with the batch count.
    """
    if batch_limit < 1:
        raise ContractError(f"batch_limit must be >= 1, got {batch_limit}")
    if not matched:
        raise ContractError("answer_question requires at least one matched path")
    scores = [p.score for p in matched]
    if scores != sorted(scores, reverse=True):
        raise ContractError("matched paths must be sorted by score descending")

    merged = AnswerSet()
    batches = [matched[i : i + batch_limit] for i in range(0, len(matched), batch_limit)]
    failures = 0
    abstained = 0
    for index, batch in enumerate(batches):
        messages = build_reasoning_prompt(query, batch, g)
        event = {
            "event": "reasoning_batch",
            "batch": index,
            "paths": len(batch),
            "prompt_digest": digest_messages(messages),
        }
        try:
            result = llm.complete(messages, phase="reasoning")
        except ProviderError as exc:
            failures += 1
            event["failed"] = f"{type(exc).__name__}: {exc}"
        else:
            parsed = parse_answers(result.text, batch=index)
            if parsed.no_answer_marker:
                abstained += 1
            for surface in parsed.answers:
                merged.add(surface, index)
            event["raw"] = result.text
            event["parsed"] = list(parsed.answers)
        trace.append(event)
    if failures == len(batches):
        raise ProviderError(f"all {len(batches)} reasoning batches failed")
    trace.append({"event": "reasoning", "batches": len(batches)})
    merged.no_answer_marker = abstained == len(batches) - failures

    tails = {normalize_answer(g.entity_label(p.path.tail)) for p in matched}
    merged.ungrounded = {norm for norm in merged.normalized() if norm not in tails}
    return merged
