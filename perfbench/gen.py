"""Seeded synthetic inputs: a triple TSV, a `simple` dataset, an oracle table.

The program under test only ever reads the TSV and the dataset. The oracle
table holds, per question text, the gold relation path, the gold answers
and the label perturbations the oracle chat provider uses (which spelling,
and whether the re-plan keeps it); it never reaches the program.

Graphs have Freebase-like relation labels (``domain.type.property``) and
Freebase-like entity ids (``m.0<base36>``). Each entity has a uniform
random out-degree. Topics are drawn from the well-connected entities (a
minimum out-degree), as KGQA topic entities usually are. Each question is
a random simple walk of 1-3 hops from its topic (hop counts cycle 1, 2, 3
so every run has the same mix); its
gold answers are every tail reachable from the topic along that relation
sequence by a simple path. A two-topic question adds a second topic that
has the walk's first relation and unions both topics' tails.

Run as a script it writes the three files for one workload and seed:

    python3 perfbench/gen.py --workload beam-rerun --seed 1 --out DIR
"""

from __future__ import annotations

import argparse
import json
import random
from dataclasses import dataclass
from pathlib import Path

DOMAINS = ["people", "film", "music", "location", "sports", "tv", "book", "award"]
TYPES = ["person", "artist", "country", "team", "movie", "author", "season", "prize"]
PROPS = [
    "children", "parents", "spouse", "birthplace", "albums", "capital",
    "winner", "roster", "director", "genre", "currency", "language",
]
PERTURBATIONS = ("spaced", "underscored", "typo", "truncated")
RESPELLINGS = ("spaced", "underscored", "typo")  # spellings that still snap back to the label
RESPELL_SHARE = 0.3  # re-planned labels the oracle spells off-vocabulary even when pooled
MAX_GOLD = 16  # the matcher keeps 16 paths, so a larger gold set could never be fully recalled


@dataclass(frozen=True)
class Shape:
    """Size of one generated workload."""

    entities: int
    relations: int
    max_out_degree: int
    questions: int
    min_topic_degree: int = 1
    two_topic_every: int = 0  # every n-th question has two topics; 0 = none


def entity_label(index: int) -> str:
    digits = "0123456789abcdefghijklmnopqrstuvwxyz"
    out = ""
    while True:
        index, rem = divmod(index, 36)
        out = digits[rem] + out
        if index == 0:
            return "m.0" + out


def relation_labels(rng: random.Random, count: int) -> list[str]:
    combos = [f"{d}.{t}.{p}" for d in DOMAINS for t in TYPES for p in PROPS]
    if count > len(combos):
        raise ValueError(f"at most {len(combos)} relation labels, asked for {count}")
    return rng.sample(combos, count)


def perturb(label: str, kind: str) -> str:
    """An off-vocabulary spelling of a relation label, as an LLM might write it."""
    if kind == "spaced":
        return label.replace(".", " ")
    if kind == "underscored":
        return label.replace(".", "_")
    if kind == "typo":
        return label[:-1] if label.endswith("s") else label + "s"
    if kind == "truncated":
        return label.split(".", 1)[1]
    raise ValueError(f"unknown perturbation {kind!r}")


def build_edges(rng: random.Random, shape: Shape) -> tuple[list[str], list[list[tuple[int, int]]]]:
    """Relation labels and per-head sorted, duplicate-free ``(relation, tail)`` lists."""
    relations = relation_labels(rng, shape.relations)
    n = shape.entities
    out: list[list[tuple[int, int]]] = []
    for head in range(n):
        edges = set()
        for _ in range(rng.randint(1, shape.max_out_degree)):
            tail = rng.randrange(n - 1)
            if tail >= head:
                tail += 1
            edges.add((rng.randrange(len(relations)), tail))
        out.append(sorted(edges))
    return relations, out


def gold_tails(out: list[list[tuple[int, int]]], topic: int, path: list[int]) -> set[int]:
    """Tails of every simple path from ``topic`` whose relations are ``path``."""
    tails: set[int] = set()
    stack = [(topic, (topic,))]
    while stack:
        node, visited = stack.pop()
        depth = len(visited) - 1
        if depth == len(path):
            tails.add(node)
            continue
        for rel, tail in out[node]:
            if rel == path[depth] and tail not in visited:
                stack.append((tail, visited + (tail,)))
    return tails


def random_walk(rng: random.Random, out, topic: int, hops: int) -> list[int] | None:
    node, visited, rels = topic, {topic}, []
    for _ in range(hops):
        choices = [(r, t) for r, t in out[node] if t not in visited]
        if not choices:
            return None
        rel, node = rng.choice(choices)
        visited.add(node)
        rels.append(rel)
    return rels


def build_questions(rng: random.Random, shape: Shape, relations, out) -> list[dict]:
    heads_by_relation: dict[int, list[int]] = {}
    for head, edges in enumerate(out):
        for rel, _ in edges:
            heads_by_relation.setdefault(rel, []).append(head)
    questions = []
    while len(questions) < shape.questions:
        index = len(questions)
        hops = 1 + index % 3
        topic = rng.randrange(shape.entities)
        if len(out[topic]) < shape.min_topic_degree:
            continue
        path = random_walk(rng, out, topic, hops)
        if path is None:
            continue
        topics = [topic]
        if shape.two_topic_every and index % shape.two_topic_every == shape.two_topic_every - 1:
            other = rng.choice(heads_by_relation[path[0]])
            if other == topic:
                continue
            topics.append(other)
        tails: set[int] = set()
        for t in topics:
            tails |= gold_tails(out, t, path)
        if not tails or len(tails) > MAX_GOLD:
            continue
        labels = [relations[r] for r in path]
        topic_labels = [entity_label(t) for t in topics]
        qid = f"q{index:04d}"
        readable = " then ".join(label.replace(".", " ") for label in labels)
        questions.append(
            {
                "id": qid,
                "question": f"[{qid}] Starting from {' and '.join(topic_labels)}, "
                f"which entities are reached by following {readable}?",
                "topics": topic_labels,
                "path": labels,
                "answers": sorted(entity_label(t) for t in tails),
                "perturb": [rng.choice(PERTURBATIONS) for _ in labels],
                "respell": [
                    rng.choice(RESPELLINGS) if rng.random() < RESPELL_SHARE else None for _ in labels
                ],
            }
        )
    return questions


def generate(shape: Shape, seed: int, out_dir: Path) -> dict[str, Path]:
    """Write ``kg.tsv``, ``questions.jsonl`` and ``oracle.json`` under ``out_dir``."""
    rng = random.Random(seed)
    relations, out = build_edges(rng, shape)
    questions = build_questions(rng, shape, relations, out)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = {
        "kg": out_dir / "kg.tsv",
        "dataset": out_dir / "questions.jsonl",
        "oracle": out_dir / "oracle.json",
    }
    with paths["kg"].open("w", encoding="utf-8") as fp:
        for head, edges in enumerate(out):
            h = entity_label(head)
            fp.writelines(f"{h}\t{relations[r]}\t{entity_label(t)}\n" for r, t in edges)
    with paths["dataset"].open("w", encoding="utf-8") as fp:
        for q in questions:
            record = {
                "id": q["id"],
                "question": q["question"],
                "topics": q["topics"],
                "answers": [[a] for a in q["answers"]],
            }
            fp.write(json.dumps(record, sort_keys=True) + "\n")
    table = {
        q["question"]: {key: q[key] for key in ("path", "answers", "perturb", "respell")}
        for q in questions
    }
    paths["oracle"].write_text(json.dumps(table, sort_keys=True), encoding="utf-8")
    return paths


def main() -> None:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(WORKLOADS[args.workload].shape, args.seed, Path(args.out))


if __name__ == "__main__":
    main()
