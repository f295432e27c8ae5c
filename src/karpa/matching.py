"""Match candidate relation paths against the graph.

Three strategies, all scoring with embedding similarity:

* ``beam_match`` — stepwise beam search, position-aligned against the
  candidate relations; fast but greedy, so it can miss globally better
  paths behind a locally weak first hop.
* ``dijkstra_avg_match`` — uniform-cost search whose path cost is the
  *mean* step cost, so paths of the candidate's length compete fairly; a
  strict superset of what the beam can find.
* ``heuristic_top_k`` — best-first search ranked by the similarity of the
  whole traversed label sequence to the whole candidate, which lets paths
  of *different* lengths compete (a one-hop "grandfather" edge versus a
  two-hop "father, father" chain). It scores all children of an expanded
  prefix with one embedding request.

``brute_force_top_k`` enumerates everything and exists as the testing
oracle for the other strategies.

All strategies extend a prefix only along edges to entities it has not
visited (``_children``), so returned paths are simple from the first hop
on. Ordering is always deterministic: score descending, then
relation-label sequence, then entity-id sequence.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

from .embeddings import cosine, cosine_many
from .errors import CapacityError, ContractError

if TYPE_CHECKING:
    from .embeddings import EmbeddingGateway
    from .kg import KnowledgeGraph

STRATEGIES = ("beam", "pathfind", "heuristic")

_BRUTE_FORCE_PATH_LIMIT = 10_000_000
_TOL = 1e-9


@dataclass(frozen=True)
class RelationPath:
    """Ordered relation labels, no entities."""

    relations: tuple[str, ...]

    def __post_init__(self):
        if not self.relations:
            raise ContractError("relation path must have at least one relation")
        if any(not r for r in self.relations):
            raise ContractError("relation labels must be non-empty")

    def __len__(self) -> int:
        return len(self.relations)


@dataclass(frozen=True)
class ReasoningPath:
    """A relation path grounded in the graph with concrete entities."""

    start: int
    steps: tuple[tuple[int, int], ...]  # (relation_id, entity_id) per hop

    def entities(self) -> tuple[int, ...]:
        return (self.start,) + tuple(e for _, e in self.steps)

    @property
    def tail(self) -> int:
        return self.steps[-1][1] if self.steps else self.start

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class ScoredPath:
    path: ReasoningPath
    relation_path: RelationPath
    score: float
    cost: float
    truncated: bool = False

    def __post_init__(self):
        if abs(self.cost + self.score - 1.0) > _TOL:
            raise ContractError(f"cost {self.cost} and score {self.score} must sum to 1")


@dataclass
class MatchConfig:
    strategy: str = "heuristic"
    top_k: int = 16
    beam_width: int = 8
    max_len: int | None = None  # None: max candidate length + 1
    frontier_cap: int = 5000
    exact_mode: bool = False
    direction: str = "forward"

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ContractError(f"strategy must be one of {STRATEGIES}, got {self.strategy!r}")
        if self.top_k < 1:
            raise ContractError(f"top_k must be >= 1, got {self.top_k}")
        if self.beam_width < 1:
            raise ContractError(f"beam_width must be >= 1, got {self.beam_width}")
        if self.max_len is not None and self.max_len < 1:
            raise ContractError(f"max_len must be >= 1, got {self.max_len}")
        if self.frontier_cap < 1:
            raise ContractError(f"frontier_cap must be >= 1, got {self.frontier_cap}")
        if self.direction not in ("forward", "inverse", "both"):
            raise ContractError(f"direction must be forward, inverse, or both, got {self.direction!r}")

    def resolve_max_len(self, candidates: list[RelationPath]) -> int:
        if self.max_len is not None:
            return self.max_len
        if not candidates:
            return 1
        return max(len(c) for c in candidates) + 1


def step_cost(gateway: "EmbeddingGateway", kg_label: str, candidate_label: str) -> float:
    """1 - cosine similarity between the two relation labels; in [0, 2]."""
    return 1.0 - gateway.similarity(kg_label, candidate_label)


def path_similarity(gateway: "EmbeddingGateway", labels_a: list[str], labels_b: list[str]) -> float:
    """Similarity of two label sequences joined into single sentences.

    The sequences may have different lengths; each is space-joined and
    embedded as one text.
    """
    if not labels_a or not labels_b:
        raise ContractError("path similarity requires non-empty label sequences")
    vec_a, vec_b = gateway.embed([" ".join(labels_a), " ".join(labels_b)])
    return cosine(vec_a, vec_b)


def _children(
    g: "KnowledgeGraph",
    labels: tuple[str, ...],
    entities: tuple[int, ...],
    steps: tuple[tuple[int, int], ...],
    direction: str,
) -> list[tuple[tuple[str, ...], tuple[int, ...], tuple[tuple[int, int], ...]]]:
    """(labels, entity_ids, steps) of each one-hop extension that revisits no entity."""
    return [
        (labels + (g.relation_label(rid),), entities + (nid,), steps + ((rid, nid),))
        for rid, nid in g.neighbors(entities[-1], direction)
        if nid not in entities
    ]


def _sort_key(scored: ScoredPath) -> tuple:
    return (-scored.score, scored.relation_path.relations, scored.path.entities())


def _mean_cost_path(
    g: "KnowledgeGraph",
    start: int,
    steps: tuple[tuple[int, int], ...],
    labels: tuple[str, ...],
    total_cost: float,
    truncated: bool = False,
) -> ScoredPath:
    mean = total_cost / len(steps)
    return ScoredPath(
        path=ReasoningPath(start, steps),
        relation_path=RelationPath(labels),
        score=1.0 - mean,
        cost=mean,
        truncated=truncated,
    )


def beam_match(
    g: "KnowledgeGraph",
    start: int,
    candidate: RelationPath,
    cfg: MatchConfig,
    gateway: "EmbeddingGateway",
) -> list[ScoredPath]:
    """Fixed-length beam search aligned step-by-step with the candidate.

    At step j only the ``beam_width`` partial paths with the lowest summed
    step cost against the candidate's j-th relation survive. Final paths
    are scored by 1 - mean step cost. An empty list means no path of the
    candidate's length was reachable inside the beam; that is not an error.
    """
    max_len = cfg.resolve_max_len([candidate])
    if len(candidate) > max_len:
        raise ContractError(f"candidate length {len(candidate)} exceeds max_len {max_len}")
    g.entity_label(start)  # raises NotFoundError on a bad id
    # beam entries: (total_cost, labels, entity_ids, steps)
    beam: list[tuple[float, tuple[str, ...], tuple[int, ...], tuple[tuple[int, int], ...]]] = [
        (0.0, (), (start,), ())
    ]
    for cand_label in candidate.relations:
        expansions = []
        for total, labels, entities, steps in beam:
            for child_labels, child_entities, child_steps in _children(
                g, labels, entities, steps, cfg.direction
            ):
                cost = step_cost(gateway, child_labels[-1], cand_label)
                expansions.append((total + cost, child_labels, child_entities, child_steps))
        expansions.sort(key=lambda e: (e[0], e[1], e[2]))
        beam = expansions[: cfg.beam_width]
        if not beam:
            return []
    results = [
        _mean_cost_path(g, start, steps, labels, total)
        for total, labels, entities, steps in beam
    ]
    results.sort(key=_sort_key)
    return results[: cfg.top_k]


def dijkstra_avg_match(
    g: "KnowledgeGraph",
    start: int,
    candidate: RelationPath,
    cfg: MatchConfig,
    gateway: "EmbeddingGateway",
) -> list[ScoredPath]:
    """Uniform-cost search for the candidate-length paths of lowest mean cost.

    States are (entity, depth); the edge cost at depth j is the step cost
    of the edge label against the candidate's j-th relation. All complete
    paths share the candidate's length, so ordering by accumulated sum is
    ordering by mean, and the first ``top_k`` complete paths popped from
    the frontier are the global best. Expansion per (entity, depth) state
    is capped at ``top_k`` to keep dense graphs tractable.
    """
    max_len = cfg.resolve_max_len([candidate])
    if len(candidate) > max_len:
        raise ContractError(f"candidate length {len(candidate)} exceeds max_len {max_len}")
    g.entity_label(start)
    target_depth = len(candidate)
    # heap entries: (total_cost, labels, entity_ids, steps)
    frontier: list[tuple[float, tuple[str, ...], tuple[int, ...], tuple[tuple[int, int], ...]]] = [
        (0.0, (), (start,), ())
    ]
    pops: dict[tuple[int, int], int] = {}
    results: list[ScoredPath] = []
    while frontier and len(results) < cfg.top_k:
        total, labels, entities, steps = heapq.heappop(frontier)
        depth = len(steps)
        state = (entities[-1], depth)
        seen = pops.get(state, 0)
        if seen >= cfg.top_k:
            continue
        pops[state] = seen + 1
        if depth == target_depth:
            results.append(_mean_cost_path(g, start, steps, labels, total))
            continue
        cand_label = candidate.relations[depth]
        for child_labels, child_entities, child_steps in _children(
            g, labels, entities, steps, cfg.direction
        ):
            cost = step_cost(gateway, child_labels[-1], cand_label)
            heapq.heappush(frontier, (total + cost, child_labels, child_entities, child_steps))
    return results


def heuristic_top_k(
    g: "KnowledgeGraph",
    start: int,
    candidate: RelationPath,
    cfg: MatchConfig,
    gateway: "EmbeddingGateway",
) -> list[ScoredPath]:
    """Variable-length matching by whole-path similarity.

    Every simple path of length 1..max_len from the start is a candidate
    result, scored by ``h = 1 - path_similarity(path labels, candidate)``;
    a self-loop at the start is not one. Expansion is best-first on the
    prefix's h. Each expansion, the first hop from the start included,
    makes one ``gateway.embed`` request for the candidate and all the
    prefix's children; a prefix with no children makes none. The prefix
    value is a priority, not an admissible bound, so the bounded search
    is approximate by design: when the frontier (or the expansion budget)
    exceeds ``frontier_cap`` the worst prefixes are dropped and results
    carry ``truncated=True``. ``exact_mode`` disables all pruning and
    enumerates exhaustively.
    """
    g.entity_label(start)
    max_len = cfg.resolve_max_len([candidate])
    cand_text = " ".join(candidate.relations)

    # heap entries: (h, labels, entity_ids, steps)
    frontier: list[tuple[float, tuple[str, ...], tuple[int, ...], tuple[tuple[int, int], ...]]] = []

    def expand(labels, entities, steps) -> None:
        children = _children(g, labels, entities, steps, cfg.direction)
        if not children:
            return
        cand_vec, *child_vecs = gateway.embed([cand_text] + [" ".join(c[0]) for c in children])
        for (child_labels, child_entities, child_steps), sim in zip(
            children, cosine_many(cand_vec, child_vecs)
        ):
            heapq.heappush(frontier, (1.0 - sim, child_labels, child_entities, child_steps))

    expand((), (start,), ())
    truncated = False
    budget = None if cfg.exact_mode else cfg.frontier_cap
    expansions = 0
    completed: list[tuple[float, tuple[str, ...], tuple[int, ...], tuple[tuple[int, int], ...]]] = []
    while frontier:
        if budget is not None and expansions >= budget:
            truncated = True
            break
        entry = heapq.heappop(frontier)
        expansions += 1
        completed.append(entry)
        h, labels, entities, steps = entry
        if len(steps) < max_len:
            expand(labels, entities, steps)
        if budget is not None and len(frontier) > cfg.frontier_cap:
            frontier = heapq.nsmallest(cfg.frontier_cap, frontier)
            heapq.heapify(frontier)
            truncated = True

    results = [
        ScoredPath(
            path=ReasoningPath(entities[0], steps),
            relation_path=RelationPath(labels),
            score=1.0 - h,
            cost=h,
            truncated=truncated,
        )
        for h, labels, entities, steps in completed
    ]
    results.sort(key=_sort_key)
    return results[: cfg.top_k]


def _enumerate_simple_paths(
    g: "KnowledgeGraph", start: int, max_len: int, direction: str
):
    """Yield (labels, entity_ids, steps) for every simple path of length 1..max_len."""
    count = 0

    def walk(labels, entities, steps):
        nonlocal count
        for path in _children(g, labels, entities, steps, direction):
            count += 1
            if count > _BRUTE_FORCE_PATH_LIMIT:
                raise CapacityError(
                    f"path enumeration exceeded {_BRUTE_FORCE_PATH_LIMIT} paths"
                )
            yield path
            if len(path[2]) < max_len:
                yield from walk(*path)

    yield from walk((), (start,), ())


def brute_force_top_k(
    g: "KnowledgeGraph",
    start: int,
    candidate: RelationPath,
    k: int,
    max_len: int,
    gateway: "EmbeddingGateway",
    scoring: str = "path_similarity",
    direction: str = "forward",
) -> list[ScoredPath]:
    """Exhaustive oracle: enumerate all simple paths and rank them.

    ``path_similarity`` mode scores every path of length 1..max_len by
    whole-path similarity (the oracle for ``heuristic_top_k``);
    ``mean_step_cost`` mode scores only candidate-length paths by mean
    step cost (the oracle for ``dijkstra_avg_match``). Intended for small
    graphs; refuses to enumerate more than 10^7 paths.
    """
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    if scoring not in ("path_similarity", "mean_step_cost"):
        raise ContractError(f"unknown scoring {scoring!r}")
    g.entity_label(start)
    results: list[ScoredPath] = []
    for labels, entities, steps in _enumerate_simple_paths(g, start, max_len, direction):
        if scoring == "path_similarity":
            h = 1.0 - path_similarity(gateway, list(labels), list(candidate.relations))
            results.append(
                ScoredPath(
                    path=ReasoningPath(entities[0], steps),
                    relation_path=RelationPath(labels),
                    score=1.0 - h,
                    cost=h,
                )
            )
        else:
            if len(steps) != len(candidate):
                continue
            total = 0.0
            for label, cand_label in zip(labels, candidate.relations):
                total += step_cost(gateway, label, cand_label)
            results.append(_mean_cost_path(g, entities[0], steps, labels, total))
    results.sort(key=_sort_key)
    return results[:k]


def match_candidates(
    g: "KnowledgeGraph",
    start: int,
    candidates: list[RelationPath],
    cfg: MatchConfig,
    gateway: "EmbeddingGateway",
) -> list[ScoredPath]:
    """Match each candidate independently, union, re-rank, truncate to top_k.

    The same grounded path found under several candidates is kept once
    with its best score.
    """
    if not candidates:
        return []
    if cfg.max_len is None:
        cfg = replace(cfg, max_len=cfg.resolve_max_len(candidates))
    matchers = {
        "beam": beam_match,
        "pathfind": dijkstra_avg_match,
        "heuristic": heuristic_top_k,
    }
    matcher = matchers[cfg.strategy]
    best: dict[tuple[int, tuple[tuple[int, int], ...]], ScoredPath] = {}
    for candidate in candidates:
        for scored in matcher(g, start, candidate, cfg, gateway):
            key = (scored.path.start, scored.path.steps)
            current = best.get(key)
            if current is None or scored.score > current.score:
                best[key] = scored
    merged = sorted(best.values(), key=_sort_key)
    return merged[: cfg.top_k]


def render_match_report(g: "KnowledgeGraph", paths: list[ScoredPath]) -> str:
    """Line-JSON debug report, one object per returned path."""
    lines = []
    for rank, scored in enumerate(paths, start=1):
        lines.append(
            json.dumps(
                {
                    "rank": rank,
                    "score": scored.score,
                    "cost": scored.cost,
                    "relations": list(scored.relation_path.relations),
                    "entities": [g.entity_label(e) for e in scored.path.entities()],
                    "truncated": scored.truncated,
                },
                ensure_ascii=False,
                sort_keys=True,
            )
        )
    return "\n".join(lines) + ("\n" if lines else "")
