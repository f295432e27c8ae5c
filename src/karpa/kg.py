"""Immutable triple store: interned labels and flat adjacency arrays.

Triples are read from UTF-8 TSV (``head<TAB>relation<TAB>tail``, ``#``
comments allowed, but not ``#`` lines that hold three non-empty fields) and
deduplicated. Entity and relation labels are plain
strings in lists indexed by id; ids are dense integers assigned in
first-appearance order (head, relation, tail within a line) so that
fixtures load reproducibly. Whether searches also walk edges backwards is
fixed at load: only a graph loaded with ``inverse_edges`` stores each triple
a second time, under its tail, with the relation's inverse id: its id offset
by the size of the relation table, labelled with the reserved marker
``~inv`` appended. Inverse ids and labels are built at load and never
appear in the vocabulary.

The edges are stored in compressed sparse row form: two ``array('Q')``s,
``offsets`` (one per entity, plus one) and ``keys``, each key one edge packed
as ``relation_id << 32 | entity_id``; entity ``e``'s edges are the keys at
positions ``offsets[e]`` to ``offsets[e + 1]``, sorted and distinct, so in
``(relation_id, entity_id)`` order. An inverse id sorts after every forward
id, so an entity's run holds its forward edges, then its inverse ones. So an
edge costs 8 bytes a direction, the cyclic garbage collector sees the same
few objects whatever the graph's size, and ``neighbors`` decodes one slice
per call. ``load_triples`` appends each line's key to its head's
``array('Q')`` (with inverse edges, ``relation_id << 32 | head_id`` to its
tail's incoming one); the store then sorts and deduplicates one entity at a
time into ``keys``, freeing each entity's arrays as it goes, so the load
holds each direction's edges about once at any time.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from functools import partial
from pathlib import Path
from typing import Iterable, Iterator

from .errors import NotFoundError, ParseError
from .transport import read_utf8, require_file

INVERSE_MARKER = "~inv"

# An edge packs into one int as ``relation_id << 32 | entity_id``: ids fit in
# 32 bits, as no process holds 2**32 interned labels.
_SHIFT = 32


class _Ids(dict):
    """Label -> id; looking up a label not yet seen gives it the next id, so
    ids follow first appearance. Read it with ``get`` once loading is done."""

    def __missing__(self, label: str) -> int:
        self[label] = next_id = len(self)
        return next_id


def _pack(
    adjacency: dict[int, array], incoming: dict[int, array] | None, count: int, rid_offset: int
) -> tuple[array, array]:
    """Flatten ``{entity_id: array("Q", [relation_id << 32 | entity_id, ...])}``
    into ``(offsets, keys)``: each entity's run is its ``adjacency`` keys, then
    its ``incoming`` keys with relation ids plus ``rid_offset``, each part sorted
    and distinct. Both dicts are emptied as it goes, so each entity's keys are
    freed once appended."""
    offsets, packed = array("Q", [0]), array("Q")
    parts = ((adjacency, 0),) if incoming is None else ((adjacency, 0), (incoming, rid_offset << _SHIFT))
    for entity in range(count):
        for keys, shift in parts:
            # Sorted in place and kept when distinct, as they mostly are: in
            # input order, so keys read in sorted order sort in one pass.
            row = keys.pop(entity).tolist() if entity in keys else []
            row.sort()
            distinct = set(row)
            if len(distinct) != len(row):
                row = sorted(distinct)
            packed.fromlist([key + shift for key in row] if shift else row)
        offsets.append(len(packed))
    return offsets, packed


class KnowledgeGraph:
    """Entity/relation tables plus the triple set as flat adjacency arrays.

    ``edges`` is ``(offsets, keys)``: each entity's run holds each triple
    under its head as the key ``relation_id << 32 | tail_id`` and, on a graph
    loaded with ``inverse_edges``, each triple under its tail as
    ``inverse_id << 32 | head_id``, after the forward keys. Instances are
    immutable after construction and safe for concurrent reads. Build them
    through :func:`load_triples` rather than directly.
    """

    def __init__(
        self,
        entity_ids: dict[str, int],
        relation_ids: dict[str, int],
        adjacency: dict[int, array],
        incoming: dict[int, array] | None = None,
    ):
        """``entity_ids`` and ``relation_ids`` map labels to ids and iterate in
        id order; ``adjacency`` maps a head id to an ``array('Q')`` of its
        ``relation_id << 32 | tail_id`` edges and ``incoming``, on a graph
        that walks edges backwards, a tail id to an ``array('Q')`` of its
        ``relation_id << 32 | head_id`` edges, repeats allowed, in any order;
        an entity with no edges may be left out. Both are emptied here."""
        self.entities = list(entity_ids)
        self.relations = list(relation_ids)
        self._entity_ids = entity_ids
        self._labels = self.relations + [label + INVERSE_MARKER for label in self.relations]
        self.edges = _pack(adjacency, incoming, len(self.entities), len(self.relations))
        # With inverse edges each distinct triple is stored exactly once under
        # each end, a self-loop too (its two keys differ in the relation id),
        # so the triples are half the keys.
        self._size = len(self.edges[1]) // (1 if incoming is None else 2)

    # -- lookups ---------------------------------------------------------

    def __len__(self) -> int:
        return self._size

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
        offsets, keys = self.edges
        return [divmod(key, 1 << _SHIFT) for key in keys[offsets[entity_id] : offsets[entity_id + 1]]]

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
            for head in range(len(entities))
            for rid, tail in self.neighbors(head)
            if rid < len(relations)
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
        fields = line.split("\t")
        triple = len(fields) == 3 and "" not in fields
        if triple and line[0] != "#" and not line[0].isspace():
            yield fields  # the common line, told apart without stripping it
            continue
        first = line.lstrip()[:1]  # "" on a blank line
        if first not in ("", "#"):
            if not triple:
                raise ParseError(
                    f"line {lineno}: expected 3 tab-separated non-empty fields, got {line!r}"
                )
            yield fields
        elif first and triple:
            raise ParseError(f"line {lineno}: a head label may not start with '#', got {line!r}")


def load_triples(lines: Iterable[str], inverse_edges: bool = False) -> KnowledgeGraph:
    """Build a graph from an iterable of TSV lines.

    Duplicate triples are silently dropped; ids are assigned in
    first-appearance order (head, then relation, then tail within a line).
    An empty stream yields a valid empty graph. ``inverse_edges`` lets the
    graph's ``neighbors`` walk edges backwards too.
    """
    entity_ids, relation_ids = _Ids(), _Ids()
    adjacency: dict[int, array] = defaultdict(partial(array, "Q"))
    incoming: dict[int, array] | None = defaultdict(partial(array, "Q")) if inverse_edges else None
    for head, rel, tail in _iter_fields(lines):
        h = entity_ids[head]
        r = relation_ids[rel] << _SHIFT
        t = entity_ids[tail]
        adjacency[h].append(r | t)
        if incoming is not None:
            incoming[t].append(r | h)
    return KnowledgeGraph(entity_ids, relation_ids, adjacency, incoming)


def load_triples_path(path: str | Path, inverse_edges: bool = False) -> KnowledgeGraph:
    """``load_triples`` over the UTF-8 lines of the file at ``path``.

    A malformed line, or bytes that are not UTF-8, are a ``ParseError``
    naming the file and the line. Text mode decodes in blocks, so on bad
    bytes the file is read again whole to find their line.
    """
    p = require_file(path, "triple file", NotFoundError)
    try:
        with p.open("r", encoding="utf-8") as fp:
            return load_triples(fp, inverse_edges)
    except ParseError as exc:
        raise ParseError(f"{p}: {exc}") from None
    except UnicodeDecodeError as exc:
        read_utf8(p, ParseError)  # raises, naming the line, unless the file changed since
        raise ParseError(f"{p}: not UTF-8 text ({exc.reason})") from None
