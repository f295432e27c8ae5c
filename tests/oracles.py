"""Independent reference implementations used to verify the production code.

Everything here is deliberately written through a different code path than
the package: dict-based feature accumulation instead of list buckets, an
iterative path enumerator instead of the recursive one, plain-loop cosine.
Production must agree with these, not the other way around.
"""

from __future__ import annotations

import math
import re
import zlib

_SPLIT = re.compile(r"[^0-9a-z]+")


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


def ref_cosine(a: list[float], b: list[float]) -> float:
    dot = sum(x * y for x, y in zip(a, b))
    na = math.sqrt(sum(x * x for x in a))
    nb = math.sqrt(sum(y * y for y in b))
    return dot / (na * nb)


def ref_pair_cosine(a, b) -> float:
    """One pair's cosine of two ``EmbeddingVector``s, the arithmetic and the
    errors of the package's ``cosine`` written as its own loop: the batch
    form must equal this bit for bit."""
    from karpa.errors import ContractError, DomainError

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


def enumerate_all_paths(g, start: int, max_len: int, direction: str = "forward"):
    """All simple paths of length 1..max_len as (labels, entities, steps) tuples.

    Iterative DFS, independent of the package's recursive enumerator.
    """
    results = []
    stack = [((), (start,), ())]
    while stack:
        labels, entities, steps = stack.pop()
        if len(steps) >= max_len:
            continue
        for rid, nid in g.neighbors(entities[-1], direction):
            if nid in entities:
                continue
            label = g.relation_label(rid)
            node = (labels + (label,), entities + (nid,), steps + ((rid, nid),))
            results.append(node)
            stack.append(node)
    return results


def exhaustive_fixed_length_best(g, gateway, start, candidate_labels, direction="forward"):
    """Minimum mean-step-cost path of exactly len(candidate_labels) hops, with ties
    broken like the package: (cost, labels, entities)."""
    n = len(candidate_labels)
    best = None
    for labels, entities, steps in enumerate_all_paths(g, start, n, direction):
        if len(steps) != n:
            continue
        total = 0.0
        for label, cand in zip(labels, candidate_labels):
            total += 1.0 - gateway.similarity(label, cand)
        mean = total / n
        key = (mean, labels, entities)
        if best is None or key < best[0]:
            best = (key, labels, entities, steps, mean)
    return best
