import gc
import io
import random
import tracemalloc
from array import array
from collections import defaultdict

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from karpa.errors import NotFoundError, ParseError
from karpa.kg import INVERSE_MARKER, _iter_fields, load_triples, load_triples_path

from helpers import graph_from
from oracles import ref_graph, ref_iter_fields


def test_load_counts_distinct_entities():
    g = graph_from([("a", "r1", "b"), ("b", "r2", "c"), ("c", "r1", "a")])
    assert len(g) == 3
    assert g.num_entities == 3
    assert g.num_relations == 2


def test_duplicate_lines_store_one_triple():
    g = load_triples(io.StringIO("a\tr\tb\na\tr\tb\n"))
    assert len(g) == 1


def test_wrong_field_count_reports_line_number():
    with pytest.raises(ParseError) as exc:
        load_triples(io.StringIO("a\tb\n"))
    assert str(exc.value) == "line 1: expected 3 tab-separated non-empty fields, got 'a\\tb'"


def test_comments_and_blank_lines_skipped():
    g = load_triples(io.StringIO("# header\n\na\tr\tb\n"))
    assert len(g) == 1


def test_hash_line_with_three_fields_is_parse_error_naming_its_line():
    with pytest.raises(ParseError) as exc:
        load_triples(io.StringIO("a\tr\t#tag\n#tag\tr\tb\n"))
    assert str(exc.value).startswith("line 2: ")


def test_hash_lines_without_three_fields_stay_comments():
    text = "#\n# head\trelation\n# a\t\tb\n  # x\ty\tz\t!\na\tr\t#tag\n"
    g = load_triples(io.StringIO(text))
    assert len(g) == 1 and g.entities == ["a", "#tag"]
    assert load_triples(io.StringIO(g.dumps())).dumps() == g.dumps()


def test_a_head_label_that_starts_with_whitespace_is_kept_as_written():
    g = load_triples(io.StringIO(" a\tr\tb\n\u00a0a\tr\tb\na\tr\tb\n"))
    assert g.entities == [" a", "b", "\u00a0a", "a"] and len(g) == 3
    assert load_triples(io.StringIO(g.dumps())).dumps() == g.dumps()


def _fields_then_error(iter_fields, lines):
    """What a field reader yields from ``lines``, and the message (it names
    the line and its text) of the ``ParseError`` that stopped it, if one did."""
    fields = []
    try:
        for item in iter_fields(lines):
            fields.append(item)
    except ParseError as exc:
        return fields, str(exc)
    return fields, None


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.lists(st.sampled_from(["a", "#", " ", "\t", "\r"]), max_size=8).map("".join), max_size=8),
    st.sampled_from(["\n", "\r\n"]),
    st.booleans(),
)
@example([" \t \t "], "\n", True)
@example(["a\ta\ta", " \t#\ta", "\t#a\ta\ta"], "\n", True)
@example(["# a", "a\ta\ta"], "\r\n", True)
@example(["a\ta\ta", "a\t\ta"], "\n", False)
@example(["a\ta\ta\r", "", "a\ta"], "\r\n", False)
def test_iter_fields_follows_the_reference_line_rules(texts, newline, final_newline):
    lines = [text + newline for text in texts]
    if lines and not final_newline:
        lines[-1] = texts[-1]
    assert _fields_then_error(_iter_fields, lines) == _fields_then_error(ref_iter_fields, lines)


def test_empty_stream_is_valid_empty_graph():
    g = load_triples(io.StringIO(""))
    assert len(g) == 0
    assert g.relation_vocabulary() == []


def test_ids_assigned_first_appearance_order():
    g = graph_from([("x", "r", "y"), ("y", "s", "x")])
    assert g.entity_id("x") == 0
    assert g.entity_id("y") == 1
    assert g.relations.index("r") == 0
    assert g.relations.index("s") == 1


def test_neighbors_forward_empty_for_sink():
    g = graph_from([("a", "r", "b")])
    assert g.neighbors(g.entity_id("b")) == []


def test_neighbors_forward_single_edge():
    g = graph_from([("A", "r", "B")])
    assert g.neighbors(g.entity_id("A")) == [(0, g.entity_id("B"))]


def test_neighbors_returns_a_fresh_list():
    g = graph_from([("A", "r", "B")], inverse_edges=True)
    for eid in (g.entity_id("A"), g.entity_id("B")):
        g.neighbors(eid).clear()
        assert len(g.neighbors(eid)) == 1


def test_neighbors_inverse_uses_marker():
    g = graph_from([("A", "r", "B")], inverse_edges=True)
    (rid, nid), = g.neighbors(g.entity_id("B"))
    assert nid == g.entity_id("A")
    assert g.relation_label(rid) == "r" + INVERSE_MARKER


def test_neighbors_both_concatenates():
    triples = [("A", "r", "B"), ("C", "s", "A")]
    g = graph_from(triples, inverse_edges=True)
    a = g.entity_id("A")
    inverse = [(g.relations.index("s") + g.num_relations, g.entity_id("C"))]
    assert g.neighbors(a) == graph_from(triples).neighbors(a) + inverse


def test_neighbors_invalid_id():
    g = graph_from([("a", "r", "b")])
    with pytest.raises(NotFoundError):
        g.neighbors(99)


def test_vocabulary_sorted_and_deduped():
    g = graph_from([("x", "b", "y"), ("y", "a", "z"), ("z", "a", "x")])
    assert g.relation_vocabulary() == ["a", "b"]


def test_vocabulary_size_equals_relation_table():
    g = graph_from([("x", "b", "y"), ("y", "a", "z"), ("z", "c", "x")])
    assert len(g.relation_vocabulary()) == g.num_relations


def test_vocabulary_excludes_inverse_synthetics():
    g = graph_from([("a", "r", "b")], inverse_edges=True)
    g.neighbors(g.entity_id("b"))
    assert g.relation_vocabulary() == ["r"]


def _stored_pairs(g):
    """Each entity's ``(relation_id, entity_id)`` pairs as the graph's arrays
    store them, decoded straight from the packed keys."""
    offsets, keys = g.edges
    assert len(offsets) == g.num_entities + 1 and offsets[0] == 0
    assert list(offsets) == sorted(offsets)
    assert offsets[-1] == len(keys)
    return [[(key >> 32, key & 0xFFFFFFFF) for key in keys[offsets[e] : offsets[e + 1]]] for e in range(g.num_entities)]


def test_index_contains_each_triple_exactly_once():
    triples = [("a", "r", "b"), ("a", "s", "b"), ("b", "r", "a"), ("a", "r", "c"), ("a", "r", "b"), ("c", "r", "c")]
    g = graph_from(triples, inverse_edges=True)
    stored = _stored_pairs(g)
    for h, r, t in triples:
        head, rid, tail = g.entity_id(h), g.relations.index(r), g.entity_id(t)
        assert stored[head].count((rid, tail)) == 1
        assert stored[tail].count((rid + g.num_relations, head)) == 1
    assert len(g) == len(set(triples))
    assert sum(rid < g.num_relations for adj in stored for rid, _ in adj) == len(g)
    assert sum(map(len, stored)) == 2 * len(g)


def test_indexes_sorted():
    triples = [("a", "z", "b"), ("a", "r", "c"), ("a", "r", "b"), ("c", "s", "a"), ("b", "r", "a")]
    g = graph_from(triples, inverse_edges=True)
    stored = _stored_pairs(g)
    assert all(adj == sorted(set(adj)) for adj in stored)
    a, b, c = map(g.entity_id, "abc")
    z, r, s = (g.relations.index(label) for label in "zrs")
    n = g.num_relations
    assert stored[a] == [(z, b), (r, b), (r, c), (r + n, b), (s + n, c)]


def _tracked_objects_reachable(root) -> int:
    """Objects the cyclic collector tracks that ``root`` reaches, itself
    included; classes (and what only they reach) are left out."""
    seen = {id(root)}
    stack = [root]
    while stack:
        for ref in gc.get_referents(stack.pop()):
            if gc.is_tracked(ref) and not isinstance(ref, type) and id(ref) not in seen:
                seen.add(id(ref))
                stack.append(ref)
    return len(seen)


def test_adjacency_is_untracked_by_the_cyclic_collector():
    # The adjacency is two flat arrays that refer to no object but their
    # type, so the collector sees the same few objects per graph whatever
    # its size, where one container per entity or per edge would grow with
    # it. Collect twice: a container of untracked items is untracked only
    # at the collection after the one that untracks those items.
    rng = random.Random(0)
    counts = []
    for size, names in ((300, 30), (3000, 300)):
        triples = [
            (f"e{rng.randrange(names)}", f"r{rng.randrange(12)}", f"e{rng.randrange(names)}") for _ in range(size)
        ]
        g = graph_from(triples, inverse_edges=True)
        for stored in g.edges:
            assert type(stored) is array
            assert all(isinstance(ref, type) for ref in gc.get_referents(stored))
        gc.collect()
        gc.collect()
        counts.append(_tracked_objects_reachable(g))
    assert counts[0] == counts[1] < 20


# Bytes a triple costs in a load of 60k seeded random triples over 5,000
# entities and 200 relations (labels and tables included), forward / with
# inverse edges, on Python 3.11.7. Sorted tuples of pairs per entity, built
# from per-head sets of pairs: 82.6 / 153.7 retained, 158.0 / 248.4 at the
# load's peak (at 50k triples). Flat arrays, built from one packed int per
# line in per-head (and per-tail) lists: 18.3 / 27.3 retained, 59.3 / 108.8
# at the peak. The same, with the packed keys in per-head (and per-tail)
# array('Q')s, split into the id arrays in batches: 18.5 / 27.3 retained,
# 30.5 / 50.1 at the peak.
# The same, kept as the packed keys (offsets and keys, no id arrays): 18.6 /
# 27.7 retained, 29.4 / 49.0 at the peak.
GRAPH_BYTES_PER_TRIPLE_BOUNDS = {False: (32, 40), True: (45, 70)}  # (retained, peak)


def test_graph_bytes_per_triple_stay_small():
    rng = random.Random(0)
    lines = [f"m.{rng.randrange(5000)}\tr.{rng.randrange(200)}\tm.{rng.randrange(5000)}\n" for _ in range(60_000)]
    for inverse_edges, (retained_bound, peak_bound) in GRAPH_BYTES_PER_TRIPLE_BOUNDS.items():
        gc.collect()
        tracemalloc.start()
        try:
            g = load_triples(lines, inverse_edges)
            gc.collect()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(g) == 60_000
        assert retained / len(g) < retained_bound
        assert peak / len(g) < peak_bound
        del g


def test_large_graph_equals_plain_dict_reference():
    # Large, with a hub of 8,192 edges, repeated lines, and inverse ids that
    # need more than one byte.
    rng = random.Random(5)
    triples = [(f"e{rng.randrange(3000)}", f"r{rng.randrange(300)}", f"e{rng.randrange(3000)}") for _ in range(30_000)]
    triples += [("hub", f"r{i % 300}", f"e{i}") for i in range(8192)]
    triples += rng.sample(triples, 5_000)
    rng.shuffle(triples)
    entities, relations = {}, {}
    for head, rel, tail in triples:
        for label, table in ((head, entities), (rel, relations), (tail, entities)):
            table.setdefault(label, len(table))
    n = len(relations)
    forward, inverse = defaultdict(set), defaultdict(set)
    for head, rel, tail in triples:
        h, r, t = entities[head], relations[rel], entities[tail]
        forward[h].add((r, t))
        inverse[t].add((r + n, h))
    lines = [f"{h}\t{r}\t{t}\n" for h, r, t in triples]
    g, both = load_triples(lines), load_triples(lines, inverse_edges=True)
    assert len(g) == len(both) == sum(map(len, forward.values())) > 16_384
    for graph in (g, both):
        assert graph.entities == list(entities) and graph.relations == list(relations)
    for eid in range(len(entities)):
        assert g.neighbors(eid) == sorted(forward[eid])
        assert both.neighbors(eid) == sorted(forward[eid]) + sorted(inverse[eid])


def test_dump_load_dump_byte_identical_small():
    g = graph_from([("b", "r", "a"), ("a", "s", "b"), ("c", "r", "a")])
    first = g.dumps()
    second = load_triples(io.StringIO(first)).dumps()
    assert first == second


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_dump_load_dump_byte_identical_random(data):
    n = data.draw(st.integers(2, 12))
    labels = [f"n{i}" for i in range(n)]
    rels = [f"r{i}" for i in range(data.draw(st.integers(1, 5)))]
    count = data.draw(st.integers(1, 25))
    rng = random.Random(data.draw(st.integers(0, 10**9)))
    lines = [
        f"{rng.choice(labels)}\t{rng.choice(rels)}\t{rng.choice(labels)}\n" for _ in range(count)
    ]
    g = load_triples(lines)
    first = g.dumps()
    second = load_triples(io.StringIO(first)).dumps()
    assert first == second


def test_dump_sorted_by_labels():
    g = graph_from([("b", "r", "c"), ("a", "r", "b")])
    assert g.dumps().splitlines() == ["a\tr\tb", "b\tr\tc"]


def test_dump_independent_of_ingestion_order():
    triples = [("b", "r", "c"), ("a", "r", "b"), ("c", "s", "a")]
    g1 = graph_from(triples)
    g2 = graph_from(list(reversed(triples)))
    assert g1.dumps() == g2.dumps()


def test_load_triples_path_missing_file(tmp_path):
    with pytest.raises(NotFoundError):
        load_triples_path(tmp_path / "absent.tsv")


def test_load_triples_path_roundtrip(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text("a\tr\tb\n# comment\nb\tr\tc\n", encoding="utf-8")
    g = load_triples_path(path)
    assert len(g) == 2
    out = tmp_path / "dump.tsv"
    g.dump(out)
    assert load_triples_path(out).dumps() == g.dumps()


def test_empty_label_rejected():
    with pytest.raises(ParseError):
        load_triples(io.StringIO("a\t\tb\n"))


_ENTITY_LABELS = ["a", "b", "c", "d", "é", "a b", "A"]
_RELATION_LABELS = ["r", "s", "r.x", "R", "r s"]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(_ENTITY_LABELS),
            st.sampled_from(_RELATION_LABELS),
            st.sampled_from(_ENTITY_LABELS),
        ),
        max_size=40,
    )
)
@example([])
@example([("a", "r", "a"), ("a", "r", "a"), ("b", "s", "a"), ("a", "r", "b"), ("b", "s", "a")])
def test_load_triples_equals_reference_graph(label_triples):
    ref = ref_graph(label_triples)
    for inverse_edges, walk in ((False, "forward"), (True, "both")):
        g = graph_from(label_triples, inverse_edges)
        assert g.num_entities == len(ref["entities"])
        assert g.num_relations == len(ref["relations"])
        for eid, label in enumerate(ref["entities"]):
            assert g.entity_id(label) == eid
            assert g.entity_label(eid) == label
        n = len(ref["relations"])
        for rid, label in enumerate(ref["relations"]):
            assert g.relations.index(label) == rid
            assert g.relation_label(rid) == label
            assert g.relation_label(rid + n) == label + INVERSE_MARKER
        assert [g.neighbors(eid) for eid in range(g.num_entities)] == ref["neighbors"][walk]
        assert len(g) == ref["len"]
        assert g.dumps() == ref["dumps"]
        if not inverse_edges:
            assert all(key >> 32 < n for key in g.edges[1])
