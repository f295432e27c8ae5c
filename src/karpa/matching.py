"""Match candidate relation paths against the graph.

Three strategies, all scoring with embedding similarity:

* ``beam_match`` — beam search, position-aligned against the candidate
  relations: at each depth only the ``beam_width`` cheapest prefixes are
  extended. Fast but greedy, so it can miss globally better paths behind
  a locally weak first hop.
* ``dijkstra_avg_match`` — uniform-cost search whose path cost is the
  *mean* step cost, so paths of the candidate's length compete fairly; a
  strict superset of what the beam can find.
* ``heuristic_top_k`` — best-first search ranked by the similarity of the
  whole traversed label sequence to the whole candidate, which lets paths
  of *different* lengths compete (a one-hop "grandfather" edge versus a
  two-hop "father, father" chain).

Beam and pathfind are one best-first loop over summed step costs
(``_fixed_length_match``); they differ only in what its pop cap counts. A
step's cost depends only on the depth and the edge's relation, so each
search costs a (depth, relation) pair once, against relation-label vectors
the gateway holds: an expansion makes an embedding request only when it
meets a label the gateway has not fetched, or is the first at its depth
and needs the candidate's relation there. The heuristic scores whole label
sequences, which the gateway does not hold and the embedding cache neither
keeps nor reads: a search requests them as ``Uncached`` lists. Each search
keeps its own table from label-sequence text to cost and fetches the
candidate text once, with the start's one-label children. Each later
expansion that meets an uncosted child makes one embedding request, which
also carries the uncosted children of the next ``LOOKAHEAD - 1`` expandable
prefixes in pop order, so that when those are popped they make none. Every
strategy extends a prefix only along edges to entities it has not visited,
so returned paths are simple from the first hop on. Ordering is always
deterministic: score descending, then relation-label sequence, then
entity-id sequence.
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Iterable

from .embeddings import Uncached, cosine_many
from .errors import ContractError, KarpaError, TransportError

if TYPE_CHECKING:
    from .embeddings import EmbeddingGateway, EmbeddingVector
    from .kg import KnowledgeGraph

# A search prefix: (cost, labels, entity_ids, steps). Heaps order on it as is.
_Prefix = tuple[float, tuple[str, ...], tuple[int, ...], tuple[tuple[int, int], ...]]
# A heuristic prefix's child before it is costed: (text, labels, entity_ids, steps).
_Child = tuple[str, tuple[str, ...], tuple[int, ...], tuple[tuple[int, int], ...]]

# Prefixes whose children one heuristic embedding request may carry: the
# expanded prefix and the next LOOKAHEAD - 1 in pop order. Larger windows
# save requests but fetch more children the search never expands.
LOOKAHEAD = 4


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
    cost: float
    truncated: bool = False

    @property
    def score(self) -> float:
        """``1 - cost``; higher is better."""
        return 1.0 - self.cost

    def as_dict(self, g: "KnowledgeGraph") -> dict:
        """JSON-ready fields, entities by label."""
        return {
            "score": self.score,
            "cost": self.cost,
            "relations": list(self.relation_path.relations),
            "entities": [g.entity_label(e) for e in self.path.entities()],
            "truncated": self.truncated,
        }


@dataclass
class MatchConfig:
    strategy: str = "heuristic"
    top_k: int = 16
    beam_width: int = 8
    max_len: int | None = None  # the heuristic's depth bound; None: max candidate length + 1
    frontier_cap: int = 5000
    exact_mode: bool = False

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

    def resolve_max_len(self, candidates: list[RelationPath]) -> int:
        if self.max_len is not None:
            return self.max_len
        return max(len(c) for c in candidates) + 1


def _rank_key(cost: float, labels: tuple[str, ...], entities: tuple[int, ...]) -> tuple:
    """Score descending, then labels, then entities.

    The score ``1 - cost``, not the cost: two distinct costs can round to
    the same score, and then the labels decide.
    """
    return (-(1.0 - cost), labels, entities)


def _sort_key(scored: ScoredPath) -> tuple:
    return _rank_key(scored.cost, scored.relation_path.relations, scored.path.entities())


def _fixed_length_match(
    g: "KnowledgeGraph",
    start: int,
    candidate: RelationPath,
    cfg: MatchConfig,
    gateway: "EmbeddingGateway",
    slot: Callable[[int, int], object],
    cap: int,
) -> list[ScoredPath]:
    """Best-first search for the candidate-length paths of least summed step cost.

    The step cost at depth j is ``1 - cosine`` of the edge label against the
    candidate's j-th relation, which lies in [0, 2]; so a child's heap key
    ``(total, labels, entities, steps)`` is greater than its parent's, and
    prefixes pop in increasing key order. A prefix is dropped once ``cap``
    prefixes with the same ``slot(entity, depth)`` have been popped, and the
    search stops after ``cap`` complete paths. All complete paths have the
    candidate's length, so the least sum is the least mean; results are
    scored by 1 - mean step cost. An empty list means no path of the
    candidate's length was reachable; that is not an error.

    Step costs are kept per depth by relation id. An expansion costs the
    relations it meets that its depth has not costed, in one ``cosine_many``
    call over the gateway's label vectors (``embed_with_labels``), which
    embeds, in one request, the labels the gateway does not hold and, at
    the depth's first costing, the candidate's relation there. A depth at
    which no expansion has children embeds nothing. The cosine is symmetric
    bit for bit, so each cost equals the reference ``step_cost`` in
    ``tests/oracles.py`` exactly.
    """
    relation_label = g.relation_label
    frontier: list[_Prefix] = [(0.0, (), (start,), ())]
    pops: dict[object, int] = {}
    results: list[ScoredPath] = []
    step_costs: list[dict[int, float]] = [{} for _ in candidate.relations]
    queries: list[EmbeddingVector | None] = [None] * len(candidate)
    while frontier and len(results) < cap:
        prefix = heapq.heappop(frontier)
        total, labels, entities, steps = prefix
        depth = len(steps)
        key = slot(entities[-1], depth)
        seen = pops.get(key, 0)
        if seen >= cap:
            continue
        pops[key] = seen + 1
        if depth == len(candidate):
            results.append(ScoredPath(ReasoningPath(start, steps), RelationPath(labels), total / depth))
            continue
        edges = [edge for edge in g.neighbors(entities[-1]) if edge[1] not in entities]
        costs = step_costs[depth]
        new = [rid for rid in dict.fromkeys(rid for rid, _ in edges) if rid not in costs]
        if new:
            query = queries[depth]
            texts = [candidate.relations[depth]] if query is None else []
            fetched, label_vecs = gateway.embed_with_labels(texts, [relation_label(rid) for rid in new])
            if query is None:
                query = queries[depth] = fetched[0]
            for rid, sim in zip(new, cosine_many(query, label_vecs)):
                costs[rid] = 1.0 - sim
        for edge in edges:
            rid = edge[0]
            heapq.heappush(
                frontier,
                (total + costs[rid], labels + (relation_label(rid),), entities + (edge[1],), steps + (edge,)),
            )
    results.sort(key=_sort_key)
    return results[: cfg.top_k]


def beam_match(
    g: "KnowledgeGraph",
    start: int,
    candidate: RelationPath,
    cfg: MatchConfig,
    gateway: "EmbeddingGateway",
) -> list[ScoredPath]:
    """Fixed-length beam search aligned step-by-step with the candidate.

    At each depth only the ``beam_width`` prefixes with the lowest summed
    step cost survive: because prefixes pop in key order, the first
    ``beam_width`` pops at a depth are exactly a level-by-level beam's
    survivors. Final paths are scored by 1 - mean step cost.
    """
    return _fixed_length_match(
        g, start, candidate, cfg, gateway, lambda entity, depth: depth, cfg.beam_width
    )


def dijkstra_avg_match(
    g: "KnowledgeGraph",
    start: int,
    candidate: RelationPath,
    cfg: MatchConfig,
    gateway: "EmbeddingGateway",
) -> list[ScoredPath]:
    """Uniform-cost search for the candidate-length paths of lowest mean cost.

    The first ``top_k`` complete paths popped are the global best, except
    that expansion per (entity, depth) state is capped at ``top_k`` pops to
    keep dense graphs tractable.
    """
    return _fixed_length_match(
        g, start, candidate, cfg, gateway, lambda entity, depth: (entity, depth), cfg.top_k
    )


def _children(g: "KnowledgeGraph", prefix: _Prefix) -> list[_Child]:
    """Each one-hop extension of ``prefix`` that revisits no entity, with its space-joined labels."""
    _, labels, entities, steps = prefix
    children = []
    for edge in g.neighbors(entities[-1]):
        if edge[1] not in entities:
            child = labels + (g.relation_label(edge[0]),)
            children.append((" ".join(child), child, entities + (edge[1],), steps + (edge,)))
    return children


def _lookahead(frontier: list[_Prefix], max_len: int, fetched: dict) -> list[_Prefix]:
    """The ``LOOKAHEAD - 1`` least frontier prefixes shorter than ``max_len`` and not in ``fetched``.

    A lazy walk of the heap from its root, in pop order: a heap node is
    never less than its parent, so a node is looked at only once its parent
    has been, and the walk stops at the last prefix it picks.
    """
    picked: list[_Prefix] = []
    todo = [(frontier[0], 0)] if frontier else []
    while todo and len(picked) < LOOKAHEAD - 1:
        prefix, i = heapq.heappop(todo)
        if len(prefix[3]) < max_len and prefix[3] not in fetched:
            picked.append(prefix)
        for j in (2 * i + 1, 2 * i + 2):
            if j < len(frontier):
                heapq.heappush(todo, (frontier[j], j))
    return picked


def heuristic_top_k(
    g: "KnowledgeGraph",
    start: int,
    candidate: RelationPath,
    cfg: MatchConfig,
    gateway: "EmbeddingGateway",
) -> list[ScoredPath]:
    """Variable-length matching by whole-path similarity.

    Every simple path of length 1..max_len from the start is a candidate
    result, scored by ``h = 1 - cosine`` of its space-joined labels against
    the space-joined candidate; a self-loop at the start is not one.
    Expansion is best-first on the prefix's h, the start first. The prefix
    value is a priority, not an admissible bound, so the bounded search is
    approximate by design: when the frontier (or the expansion budget)
    exceeds ``frontier_cap`` the worst prefixes are dropped and results
    carry ``truncated=True``. ``exact_mode`` disables all pruning and
    enumerates exhaustively.

    The search keeps ``costs``, from label-sequence text to h. The start's
    children, each one relation label, are costed against the gateway's
    held label vectors (``embed_with_labels``), in one request with the
    candidate text, which the cache keeps. A later expansion whose children
    are all costed makes no request. Otherwise its one ``gateway.embed``
    request also carries the uncosted children of the ``LOOKAHEAD - 1``
    least frontier prefixes that are shorter than ``max_len`` and not yet
    fetched (``_lookahead``); those prefixes keep their children, so when
    one is popped it pushes them and makes no request. The largest request
    is thus ``LOOKAHEAD`` times the most edges ``neighbors`` returns. An h
    does not depend on which request fetched its vector, so pop order,
    truncation and every cost's bits are those of one request per
    expansion (``ref_heuristic`` in ``tests/oracles.py``).

    Those later requests are ``Uncached``: no label sequence is looked up
    in the cache or stored in it. So a search's costs outlive it only in its
    results, and a rerun over a file cache requests its label sequences
    again.

    A window may fetch prefixes the search never expands. So when its
    request fails with a ``KarpaError`` other than a ``TransportError``
    (retried by ``embed`` already, it surfaces at once), the expansion
    re-issues its own children's request alone, and an error surfaces only
    where one request per expansion would raise it. Such a refusal is of
    the window's extra texts, a text under a prefix fetched ahead or a
    request over a service's batch limit, which a later window would likely
    meet again: so from then on each expansion requests its own children.
    """
    max_len = cfg.resolve_max_len([candidate])
    cand_text = " ".join(candidate.relations)
    frontier: list[_Prefix] = []
    costs: dict[str, float] = {}
    fetched: dict[tuple[tuple[int, int], ...], list[_Child]] = {}  # prefix steps -> children
    query: EmbeddingVector | None = None  # the candidate text's vector, once fetched
    windows = True  # whether requests carry a lookahead window; False once one fails

    def add_costs(texts: list[str]) -> None:
        nonlocal query
        if query is None:  # the start's children: each text is one relation label
            (query,), vectors = gateway.embed_with_labels([cand_text], texts)
        else:
            vectors = gateway.embed(Uncached(texts))
        for text, sim in zip(texts, cosine_many(query, vectors)):
            costs[text] = 1.0 - sim

    def expand(prefix: _Prefix) -> None:
        nonlocal windows
        children = fetched.pop(prefix[3], None)
        if children is None:
            children = _children(g, prefix)
        own = [text for text in dict.fromkeys(child[0] for child in children) if text not in costs]
        if own:
            window = _lookahead(frontier, max_len, fetched) if windows else []
            ahead = [(p[3], _children(g, p)) for p in window]
            extra = [kid[0] for _, kids in ahead for kid in kids if kid[0] not in costs]
            texts = list(dict.fromkeys(own + extra))
            try:
                add_costs(texts)
            except KarpaError as exc:
                if isinstance(exc, TransportError) or len(texts) == len(own):
                    raise
                windows = False
                add_costs(own)
            else:
                fetched.update(ahead)
        for text, labels, entities, steps in children:
            heapq.heappush(frontier, (costs[text], labels, entities, steps))

    expand((0.0, (), (start,), ()))
    truncated = False
    budget = None if cfg.exact_mode else cfg.frontier_cap
    completed: list[_Prefix] = []
    while frontier:
        if budget is not None and len(completed) >= budget:
            truncated = True
            break
        entry = heapq.heappop(frontier)
        completed.append(entry)
        if len(entry[3]) < max_len:
            expand(entry)
        if budget is not None and len(frontier) > cfg.frontier_cap:
            frontier = heapq.nsmallest(cfg.frontier_cap, frontier)
            heapq.heapify(frontier)
            truncated = True

    best = heapq.nsmallest(cfg.top_k, completed, key=lambda entry: _rank_key(*entry[:3]))
    return [
        ScoredPath(ReasoningPath(start, steps), RelationPath(labels), h, truncated)
        for h, labels, _, steps in best
    ]


MATCHERS = {"beam": beam_match, "pathfind": dijkstra_avg_match, "heuristic": heuristic_top_k}
STRATEGIES = tuple(MATCHERS)


def union_top_k(paths: Iterable[ScoredPath], top_k: int) -> list[ScoredPath]:
    """Keep each grounded path once with its best score, rank, truncate to top_k."""
    best: dict[tuple[int, tuple[tuple[int, int], ...]], ScoredPath] = {}
    for scored in paths:
        key = (scored.path.start, scored.path.steps)
        current = best.get(key)
        if current is None or scored.score > current.score:
            best[key] = scored
    return sorted(best.values(), key=_sort_key)[:top_k]


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
    matcher = MATCHERS[cfg.strategy]
    return union_top_k(
        (scored for candidate in candidates for scored in matcher(g, start, candidate, cfg, gateway)),
        cfg.top_k,
    )


def render_match_report(g: "KnowledgeGraph", paths: list[ScoredPath]) -> str:
    """Line-JSON debug report, one object per returned path."""
    lines = [
        json.dumps({"rank": rank, **scored.as_dict(g)}, ensure_ascii=False, sort_keys=True)
        for rank, scored in enumerate(paths, start=1)
    ]
    return "\n".join(lines) + ("\n" if lines else "")
