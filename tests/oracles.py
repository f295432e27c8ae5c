"""Independent reference implementations used to verify the production code.

Everything here is deliberately written through a different code path than
the package: dict-based feature accumulation instead of list buckets, an
iterative path enumerator instead of the matchers' shared expansion,
plain-loop cosine, pairwise step costs instead of batched ones, a
level-by-level beam instead of a best-first one, a heuristic search with
one embedding request per expansion instead of one per lookahead window.
Production must agree with these, not the other way around.
"""

from __future__ import annotations

import heapq
import math
import re
import zlib
from typing import Iterable, Iterator

from karpa.errors import ContractError, DomainError, KarpaError, ParseError
from karpa.matching import ReasoningPath, RelationPath, ScoredPath

_SPLIT = re.compile(r"[^0-9a-z]+")

BRUTE_FORCE_PATH_LIMIT = 10_000_000


class CapacityError(KarpaError):
    """A resource guard refused to run an unbounded computation."""


def step_cost(gateway, kg_label: str, candidate_label: str) -> float:
    """1 - cosine similarity between the two relation labels; in [0, 2].

    The fixed-length matchers compute the same value in batches.
    """
    vec_a, vec_b = gateway.embed([kg_label, candidate_label])
    return 1.0 - ref_pair_cosine(vec_a, vec_b)


def path_similarity(gateway, labels_a: list[str], labels_b: list[str]) -> float:
    """Similarity of two label sequences joined into single sentences.

    The sequences may have different lengths; each is space-joined and
    embedded as one text.
    """
    if not labels_a or not labels_b:
        raise ContractError("path similarity requires non-empty label sequences")
    vec_a, vec_b = gateway.embed([" ".join(labels_a), " ".join(labels_b)])
    return ref_pair_cosine(vec_a, vec_b)


def ref_mock_embedding(text: str, dim: int) -> list[float]:
    """Reference for the hashing mock embedding: token + trigram bucket counts."""
    counts: dict[int, float] = {}
    for token in _SPLIT.split(text.lower()):
        if not token:
            continue
        features = [token] + [token[i : i + 3] for i in range(len(token) - 2)]
        for feature in features:
            bucket = zlib.crc32(feature.encode("utf-8")) % dim
            counts[bucket] = counts.get(bucket, 0.0) + 1.0
    norm = math.sqrt(sum(v * v for v in counts.values()))
    return [counts.get(i, 0.0) / norm for i in range(dim)]


def ref_mock_embed_loop(text: str, dim: int = 64):
    """``mock_embed`` as it was before its per-word memo: every token and
    trigram hashed afresh, counted in float buckets. The memoized version
    must equal this with ``==``, errors included."""
    from karpa.embeddings import EmbeddingVector

    if dim < 8:
        raise ContractError(f"mock embedding dim must be >= 8, got {dim}")
    tokens = [t for t in _SPLIT.split(text.lower()) if t]
    if not tokens:
        raise DomainError(f"text has no tokens to embed: {text!r}")
    weights = [0.0] * dim
    for token in tokens:
        weights[zlib.crc32(token.encode("utf-8")) % dim] += 1.0
        for i in range(len(token) - 2):
            weights[zlib.crc32(token[i : i + 3].encode("utf-8")) % dim] += 1.0
    norm = math.sqrt(sum(w * w for w in weights))
    return EmbeddingVector(tuple(w / norm for w in weights))


def ref_cosine(a: list[float], b: list[float]) -> float:
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    return dot / (na * nb)


def ref_pair_cosine(a, b) -> float:
    """Cosine of two ``EmbeddingVector``s, clamped to [-1, 1], as one loop over
    every component that also sums both squared norms. The package's
    ``cosine_many`` must equal this bit for bit, errors included: a
    ``ContractError`` on a dimension mismatch before a ``DomainError`` for
    an all-zero vector."""
    if a.dim != b.dim:
        raise ContractError(f"dimension mismatch: {a.dim} vs {b.dim}")
    dot = na = nb = 0.0
    for x, y in zip(a.values, b.values):
        dot += x * y
        na += x * x
        nb += y * y
    if na == 0.0 or nb == 0.0:
        raise DomainError("cosine undefined for all-zero vector")
    return max(-1.0, min(1.0, dot / (math.sqrt(na) * math.sqrt(nb))))


def ref_mock_similarity(text_a: str, text_b: str, dim: int = 64) -> float:
    return ref_cosine(ref_mock_embedding(text_a, dim), ref_mock_embedding(text_b, dim))


def enumerate_all_paths(g, start: int, max_len: int, limit=None):
    """All simple paths of length 1..max_len as (labels, entities, steps) tuples.

    Iterative DFS over ``g.neighbors``, independent of the package's search
    expansion. Raises ``CapacityError`` once more than ``limit`` paths are
    found.
    """
    results = []
    stack = [((), (start,), ())]
    while stack:
        labels, entities, steps = stack.pop()
        if len(steps) >= max_len:
            continue
        for rid, nid in g.neighbors(entities[-1]):
            if nid in entities:
                continue
            label = g.relation_label(rid)
            node = (labels + (label,), entities + (nid,), steps + ((rid, nid),))
            results.append(node)
            if limit is not None and len(results) > limit:
                raise CapacityError(f"path enumeration exceeded {limit} paths")
            stack.append(node)
    return results


def _rank(paths, k):
    return sorted(paths, key=lambda p: (-p.score, p.relation_path.relations, p.path.entities()))[:k]


def brute_force_top_k(
    g,
    start: int,
    candidate,
    k: int,
    max_len: int,
    gateway,
    scoring: str = "path_similarity",
):
    """Exhaustive oracle: enumerate all simple paths and rank them.

    ``path_similarity`` mode scores every path of length 1..max_len by
    whole-path similarity (the oracle for ``heuristic_top_k``);
    ``mean_step_cost`` mode scores only candidate-length paths by mean
    step cost (the oracle for ``dijkstra_avg_match``). Intended for small
    graphs; refuses to enumerate more than ``BRUTE_FORCE_PATH_LIMIT`` paths.
    """
    if k < 1:
        raise ContractError(f"k must be >= 1, got {k}")
    if scoring not in ("path_similarity", "mean_step_cost"):
        raise ContractError(f"unknown scoring {scoring!r}")
    g.entity_label(start)
    results = []
    for labels, entities, steps in enumerate_all_paths(
        g, start, max_len, limit=BRUTE_FORCE_PATH_LIMIT
    ):
        if scoring == "path_similarity":
            cost = 1.0 - path_similarity(gateway, list(labels), list(candidate.relations))
        elif len(steps) == len(candidate):
            total = 0.0
            for label, cand_label in zip(labels, candidate.relations):
                total += step_cost(gateway, label, cand_label)
            cost = total / len(steps)
        else:
            continue
        results.append(ScoredPath(ReasoningPath(start, steps), RelationPath(labels), cost))
    return _rank(results, k)


def ref_beam(g, start: int, candidate, cfg, gateway):
    """Level-by-level beam search, the reference for ``beam_match``.

    At each depth every survivor is extended along edges to unvisited
    entities, each child costed pairwise by ``step_cost``; all children are
    sorted by (summed cost, labels, entities) and the first ``beam_width``
    survive. Final paths are scored by 1 - mean step cost.
    """
    beam = [(0.0, (), (start,), ())]
    for cand_label in candidate.relations:
        expansions = []
        for total, labels, entities, steps in beam:
            for rid, nid in g.neighbors(entities[-1]):
                if nid in entities:
                    continue
                label = g.relation_label(rid)
                cost = step_cost(gateway, label, cand_label)
                expansions.append(
                    (total + cost, labels + (label,), entities + (nid,), steps + ((rid, nid),))
                )
        expansions.sort(key=lambda e: (e[0], e[1], e[2]))
        beam = expansions[: cfg.beam_width]
    results = [
        ScoredPath(ReasoningPath(start, steps), RelationPath(labels), total / len(steps))
        for total, labels, _, steps in beam
    ]
    return _rank(results, cfg.top_k)


def ref_heuristic(g, start: int, candidate, cfg, gateway):
    """Best-first heuristic search with one embedding request per expansion,
    the reference for ``heuristic_top_k``.

    Each expansion that has children embeds the candidate text and every
    child's space-joined labels in one ``gateway.embed`` request, however
    many of them earlier requests fetched, and costs each child
    ``1 - cosine`` against the candidate. Pop order, the expansion budget,
    frontier truncation and the final ranking are those of the package.
    """
    g.entity_label(start)
    max_len = cfg.resolve_max_len([candidate])
    cand_text = " ".join(candidate.relations)
    frontier = []

    def expand(prefix):
        _, labels, entities, steps = prefix
        edges = [edge for edge in g.neighbors(entities[-1]) if edge[1] not in entities]
        if not edges:
            return
        child_labels = [labels + (g.relation_label(rid),) for rid, _ in edges]
        query_vec, *child_vecs = gateway.embed([cand_text, *map(" ".join, child_labels)])
        for edge, child, child_vec in zip(edges, child_labels, child_vecs):
            cost = 1.0 - ref_pair_cosine(query_vec, child_vec)
            heapq.heappush(frontier, (cost, child, entities + (edge[1],), steps + (edge,)))

    expand((0.0, (), (start,), ()))
    truncated = False
    budget = None if cfg.exact_mode else cfg.frontier_cap
    expansions = 0
    completed = []
    while frontier:
        if budget is not None and expansions >= budget:
            truncated = True
            break
        entry = heapq.heappop(frontier)
        expansions += 1
        completed.append(entry)
        if len(entry[3]) < max_len:
            expand(entry)
        if budget is not None and len(frontier) > cfg.frontier_cap:
            frontier[:] = heapq.nsmallest(cfg.frontier_cap, frontier)
            heapq.heapify(frontier)
            truncated = True
    results = [
        ScoredPath(ReasoningPath(start, steps), RelationPath(labels), h, truncated)
        for h, labels, _, steps in completed
    ]
    return _rank(results, cfg.top_k)


def exhaustive_fixed_length_best(g, gateway, start, candidate_labels):
    """Minimum mean-step-cost path of exactly len(candidate_labels) hops, with ties
    broken like the package: (cost, labels, entities)."""
    n = len(candidate_labels)
    best = None
    for labels, entities, steps in enumerate_all_paths(g, start, n):
        if len(steps) != n:
            continue
        total = 0.0
        for label, cand in zip(labels, candidate_labels):
            total += step_cost(gateway, label, cand)
        mean = total / n
        key = (mean, labels, entities)
        if best is None or key < best[0]:
            best = (key, labels, entities, steps, mean)
    return best


def ref_graph(label_triples) -> dict:
    """What ``load_triples`` must build from ``(head, relation, tail)`` label
    triples, computed naively: one list scan per label and per triple.

    Returns ``entities`` and ``relations`` (labels in first-appearance order:
    head, relation, tail within a triple), ``neighbors[direction]`` (one
    sorted list per entity id, inverse relations offset by the relation
    count), ``len`` (distinct triples) and ``dumps`` (rows sorted by label).
    """
    entities: list[str] = []
    relations: list[str] = []
    triples: list[tuple[int, int, int]] = []
    for head, rel, tail in label_triples:
        for label, table in ((head, entities), (rel, relations), (tail, entities)):
            if label not in table:
                table.append(label)
        key = (entities.index(head), relations.index(rel), entities.index(tail))
        if key not in triples:
            triples.append(key)
    n = len(relations)
    forward = [sorted((r, t) for h, r, t in triples if h == e) for e in range(len(entities))]
    inverse = [sorted((r + n, h) for h, r, t in triples if t == e) for e in range(len(entities))]
    rows = sorted((entities[h], relations[r], entities[t]) for h, r, t in triples)
    return {
        "entities": entities,
        "relations": relations,
        "neighbors": {
            "forward": forward,
            "inverse": inverse,
            "both": [f + i for f, i in zip(forward, inverse)],
        },
        "len": len(triples),
        "dumps": "".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows),
    }


# The line rules of ``karpa.kg._iter_fields`` in their plainest form, kept as
# the reference for the faster loop there.
def ref_iter_fields(lines: Iterable[str]) -> Iterator[list[str]]:
    """``[head, relation, tail]`` per data line; blank and ``#`` lines skipped.

    A ``#`` line that holds three non-empty tab-separated fields reads as a
    triple whose head label starts with ``#``, which a comment would drop
    without a word, so it is a ``ParseError`` instead.
    """
    for lineno, raw in enumerate(lines, start=1):
        line = raw.rstrip("\r\n")
        if not line.strip():
            continue
        fields = line.split("\t")
        triple = len(fields) == 3 and "" not in fields
        if line.lstrip().startswith("#"):
            if not triple:
                continue
            raise ParseError(f"line {lineno}: a head label may not start with '#', got {line!r}")
        if not triple:
            raise ParseError(f"line {lineno}: expected 3 tab-separated non-empty fields, got {line!r}")
        yield fields
