"""Oracle chat replies: gold plans and gold answers, looked up by question text.

The oracle is a pure function of the message list and the generated oracle
table, so the in-process provider and the loopback HTTP stub give the same
replies and the same usage. Token counts are ``ceil(chars / 4)``.

* Initial planning: the gold path at its length, every label perturbed
  (spaced, underscored, a typo, or the domain dropped), so relation
  pooling starts from off-vocabulary labels.
* Re-planning: for each gold label, its respelling when the table gives
  one (spaced, underscored or a typo), else the label itself when the
  shown pool holds it, else its initial perturbed spelling. Off-vocabulary
  labels are what the planner must snap to the vocabulary.
* Reasoning: the shown tails that are gold answers, as ``{a, b}``.
"""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from gen import perturb

_QUESTION = re.compile(r"Q:\n(.*?)\n(?:Topic Entity|Reasoning Paths):", re.S)
_RELATIONS = re.compile(r"\nRelations: (.*)\nA:")


def load_table(path: str | Path) -> dict[str, dict]:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def count_tokens(text: str) -> int:
    return math.ceil(len(text) / 4)


def _plan_text(labels: list[str]) -> str:
    lines = []
    for length in (1, 2, 3):
        if length == len(labels):
            lines.append(f"Length {length} reasoning path: {{{', '.join(labels)}}}.")
        else:
            lines.append(f"Length {length} reasoning path: None: {{}}.")
    return "\n".join(lines)


def reply(table: dict[str, dict], messages: list[tuple[str, str]]) -> tuple[str, int, int]:
    """``(text, prompt_tokens, completion_tokens)`` for ``(role, content)`` messages."""
    prompt = messages[0][1]
    questions = _QUESTION.findall(prompt)
    if not questions or questions[-1] not in table:
        raise KeyError("oracle: prompt names no generated question")
    entry = table[questions[-1]]
    gold = entry["path"]
    perturbed = [perturb(label, kind) for label, kind in zip(gold, entry["perturb"])]
    if "\nReasoning Paths:\n" in prompt:
        section = prompt.rsplit("\nReasoning Paths:\n", 1)[1].rsplit("\nA:", 1)[0]
        shown = [line.rsplit(", ", 1)[1].rstrip(")") for line in section.split("\n")]
        answers = set(entry["answers"])
        picked = list(dict.fromkeys(tail for tail in shown if tail in answers))
        text = f"The answer is {{{', '.join(picked)}}}."
    elif "\nRelations: " in prompt:
        pool = set(_RELATIONS.findall(prompt)[-1].split("; "))
        labels = [
            perturb(g, respell) if respell else g if g in pool else p
            for g, p, respell in zip(gold, perturbed, entry["respell"])
        ]
        text = _plan_text(labels)
    else:
        text = _plan_text(perturbed)
    prompt_tokens = sum(count_tokens(content) for _, content in messages)
    return text, prompt_tokens, count_tokens(text)
