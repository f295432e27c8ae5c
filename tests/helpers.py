"""Shared test fixtures: graph builders, random graphs, spy providers."""

from __future__ import annotations

import random

from karpa.embeddings import EmbeddingGateway, MockEmbeddingProvider
from karpa.kg import KnowledgeGraph, load_triples

_DOMAINS = ["people", "film", "music", "location", "sports", "tv", "book", "award"]
_TYPES = ["person", "artist", "country", "team", "movie", "author", "season", "prize"]
_PROPS = [
    "children",
    "parents",
    "spouse",
    "birthplace",
    "albums",
    "capital",
    "winner",
    "roster",
    "director",
    "genre",
    "currency",
    "language",
]


def graph_from(triples: list[tuple[str, str, str]], inverse_edges: bool = False) -> KnowledgeGraph:
    return load_triples((f"{h}\t{r}\t{t}\n" for h, r, t in triples), inverse_edges)


def mock_gateway(dim: int = 64) -> EmbeddingGateway:
    return EmbeddingGateway(MockEmbeddingProvider(dim=dim))


def relation_label_pool(rng: random.Random, count: int) -> list[str]:
    labels: list[str] = []
    while len(labels) < count:
        label = f"{rng.choice(_DOMAINS)}.{rng.choice(_TYPES)}.{rng.choice(_PROPS)}"
        if label not in labels:
            labels.append(label)
    return labels


def random_graph(
    rng: random.Random,
    n_entities: int,
    n_relations: int,
    max_out_degree: int = 3,
    inverse_edges: bool = False,
) -> KnowledgeGraph:
    """Random directed multigraph with Freebase-flavoured relation labels.

    Entity 0 always has at least one outgoing edge so it can serve as the
    topic entity of a search.
    """
    relations = relation_label_pool(rng, n_relations)
    triples = []
    for head in range(n_entities):
        degree = rng.randint(1, max_out_degree) if head == 0 else rng.randint(0, max_out_degree)
        for _ in range(degree):
            tail = rng.randrange(n_entities)
            if tail == head:
                tail = (tail + 1) % n_entities
            triples.append((f"e{head}", rng.choice(relations), f"e{tail}"))
    return graph_from(triples, inverse_edges)


class SpyEmbeddingProvider:
    """Wraps a provider, recording every batch it is asked to embed."""

    def __init__(self, inner):
        self.inner = inner
        self.identity = inner.identity
        self.batches: list[list[str]] = []

    @property
    def calls(self) -> int:
        return len(self.batches)

    def embed_batch(self, texts):
        self.batches.append(list(texts))
        return self.inner.embed_batch(texts)


class SpyGateway(EmbeddingGateway):
    """A mock-embedding gateway recording every ``embed`` request it serves."""

    def __init__(self, dim: int = 64):
        super().__init__(MockEmbeddingProvider(dim=dim))
        self.requests: list[list[str]] = []

    def embed(self, texts):
        self.requests.append(list(texts))
        return super().embed(texts)


class FlakyEmbeddingProvider:
    """Fails with a transport error a fixed number of times, then succeeds."""

    def __init__(self, inner, failures: int):
        from karpa.errors import TransportError

        self.inner = inner
        self.identity = inner.identity
        self.remaining = failures
        self.attempts = 0
        self._error = TransportError

    def embed_batch(self, texts):
        self.attempts += 1
        if self.remaining > 0:
            self.remaining -= 1
            raise self._error("synthetic transport failure")
        return self.inner.embed_batch(texts)


# A small fixed graph used by several matching tests: twelve entities,
# branching paths of mixed quality.
TWELVE_ENTITY_TRIPLES = [
    ("hub", "people.person.children", "kid_a"),
    ("hub", "people.person.children", "kid_b"),
    ("hub", "people.person.spouse", "partner"),
    ("hub", "location.person.birthplace", "town"),
    ("kid_a", "people.person.children", "grandkid_a"),
    ("kid_a", "people.person.spouse", "in_law"),
    ("kid_b", "people.person.children", "grandkid_b"),
    ("kid_b", "award.person.winner", "prize"),
    ("partner", "people.person.parents", "elder"),
    ("town", "location.country.capital", "capital"),
    ("elder", "people.person.children", "partner_sibling"),
    ("grandkid_a", "people.person.spouse", "grandkid_spouse"),
]
