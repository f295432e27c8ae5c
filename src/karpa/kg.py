"""Immutable triple store: interned labels and sorted adjacency tuples.

Triples are read from UTF-8 TSV (``head<TAB>relation<TAB>tail``, ``#``
comments allowed, but not ``#`` lines that hold three non-empty fields) and
deduplicated. Entity and relation labels are plain
strings in lists indexed by id; ids are dense integers assigned in
first-appearance order (head, relation, tail within a line) so that
fixtures load reproducibly. Each triple is stored as ``(relation_id,
tail_id)`` under its head in ``out_index``. Whether searches also walk
edges backwards is fixed at load: only a graph loaded with
``inverse_edges`` stores ``(inverse_id, head_id)`` under each tail in
``in_index``: a relation's id offset by the size of the relation table,
labelled with the reserved marker ``~inv`` appended. Inverse ids and labels
are built at load and never appear in the vocabulary.

Each entity's edges are one sorted tuple of ``(relation_id, entity_id)``
pairs. The cyclic garbage collector stops tracking a tuple once a pass finds
all its items untracked: each pair at the first pass over it, the tuple that
holds them at the same pass or the next. So a loaded graph adds almost
nothing to later collections, where one list per entity would stay tracked.
"""

from __future__ import annotations

from collections import defaultdict
from pathlib import Path
from typing import Iterable, Iterator

from .errors import NotFoundError, ParseError
from .transport import require_file

INVERSE_MARKER = "~inv"


class KnowledgeGraph:
    """Entity/relation tables plus the triple set as sorted adjacency tuples.

    Instances are immutable after construction and safe for concurrent
    reads. Build them through :func:`load_triples` rather than directly.
    """

    def __init__(
        self,
        entity_ids: dict[str, int],
        relation_ids: dict[str, int],
        adjacency: dict[int, set[tuple[int, int]]],
        inverse_edges: bool = False,
    ):
        """``entity_ids`` and ``relation_ids`` map labels to ids and iterate in
        id order; ``adjacency`` maps a head id to its distinct
        ``(relation_id, tail_id)`` pairs; ``inverse_edges`` fills ``in_index``."""
        self.entities = list(entity_ids)
        self.relations = list(relation_ids)
        self._entity_ids = entity_ids
        self._relation_ids = relation_ids
        self._labels = self.relations + [label + INVERSE_MARKER for label in self.relations]
        self.out_index = {head: tuple(sorted(edges)) for head, edges in adjacency.items()}
        inc: dict[int, list[tuple[int, int]]] = defaultdict(list)
        if inverse_edges:
            # Shared ints: ids above 256 are not cached, so each edge's own would cost memory.
            inverse_ids = list(range(len(self.relations), len(self._labels)))
            for head, edges in self.out_index.items():
                for rid, tail in edges:
                    inc[tail].append((inverse_ids[rid], head))
        self.in_index = {tail: tuple(sorted(adj)) for tail, adj in inc.items()}

    # -- lookups ---------------------------------------------------------

    def __len__(self) -> int:
        return sum(map(len, self.out_index.values()))

    @property
    def num_entities(self) -> int:
        return len(self.entities)

    @property
    def num_relations(self) -> int:
        return len(self.relations)

    def entity_id(self, label: str) -> int | None:
        return self._entity_ids.get(label)

    def entity_label(self, entity_id: int) -> str:
        if not 0 <= entity_id < len(self.entities):
            raise NotFoundError(f"unknown entity id {entity_id}")
        return self.entities[entity_id]

    def relation_id(self, label: str) -> int | None:
        return self._relation_ids.get(label)

    def relation_label(self, relation_id: int) -> str:
        """Label for a relation id; inverse ids get the ~inv suffix."""
        if not 0 <= relation_id < len(self._labels):
            raise NotFoundError(f"unknown relation id {relation_id}")
        return self._labels[relation_id]

    # -- queries ---------------------------------------------------------

    def neighbors(self, entity_id: int) -> list[tuple[int, int]]:
        """Adjacent ``(relation_id, entity_id)`` pairs in deterministic order, in a new list.

        The stored triples head-to-tail, then, on a graph loaded with
        ``inverse_edges``, those ending here walked backwards, each relation
        under its inverse id.
        """
        if not 0 <= entity_id < len(self.entities):
            raise NotFoundError(f"unknown entity id {entity_id}")
        return [*self.out_index.get(entity_id, ()), *self.in_index.get(entity_id, ())]

    def relation_vocabulary(self) -> list[str]:
        """All distinct relation labels, sorted; inverse synthetics excluded."""
        return sorted(self.relations)

    # -- serialization ---------------------------------------------------

    def dumps(self) -> str:
        """Canonical TSV dump, triples sorted by (head, relation, tail) label.

        Label order makes the dump a pure function of the triple set, so
        dump -> load -> dump is byte-identical no matter what order the
        triples were first ingested in. (Sorting by ids cannot give that:
        an entity first seen as a tail gets an earlier id on reload, which
        reorders head blocks.)
        """
        entities, relations = self.entities, self.relations
        rows = sorted(
            (entities[head], relations[rid], entities[tail])
            for head, edges in self.out_index.items()
            for rid, tail in edges
        )
        return "".join(f"{h}\t{r}\t{t}\n" for h, r, t in rows)

    def dump(self, path: str | Path) -> None:
        Path(path).write_text(self.dumps(), encoding="utf-8")


def _iter_fields(lines: Iterable[str]) -> Iterator[list[str]]:
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
            raise ParseError(
                f"line {lineno}: a head label may not start with '#', got {line!r}",
                line=lineno,
                raw=line,
            )
        if not triple:
            raise ParseError(
                f"line {lineno}: expected 3 tab-separated non-empty fields, got {line!r}",
                line=lineno,
                raw=line,
            )
        yield fields


def load_triples(lines: Iterable[str], inverse_edges: bool = False) -> KnowledgeGraph:
    """Build a graph from an iterable of TSV lines.

    Duplicate triples are silently dropped; ids are assigned in
    first-appearance order (head, then relation, then tail within a line).
    An empty stream yields a valid empty graph. ``inverse_edges`` lets the
    graph's ``neighbors`` walk edges backwards too.
    """
    entity_ids: dict[str, int] = {}
    relation_ids: dict[str, int] = {}
    adjacency: dict[int, set[tuple[int, int]]] = defaultdict(set)
    for head, rel, tail in _iter_fields(lines):
        h = entity_ids.setdefault(head, len(entity_ids))
        r = relation_ids.setdefault(rel, len(relation_ids))
        adjacency[h].add((r, entity_ids.setdefault(tail, len(entity_ids))))
    return KnowledgeGraph(entity_ids, relation_ids, adjacency, inverse_edges)


def load_triples_path(path: str | Path, inverse_edges: bool = False) -> KnowledgeGraph:
    with require_file(path, "triple file", NotFoundError).open("r", encoding="utf-8") as fp:
        return load_triples(fp, inverse_edges)
