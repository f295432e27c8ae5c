import json
import random
from collections import Counter
from dataclasses import replace

import pytest

from karpa.embeddings import (
    EmbeddingCache,
    EmbeddingGateway,
    MockEmbeddingProvider,
    ScriptedEmbeddingProvider,
    mock_embed,
    text_digest,
)
from karpa.errors import ContractError, DataError, DomainError, NotFoundError, TransportError
from karpa.matching import (
    LOOKAHEAD,
    MATCHERS,
    _rank_key,
    _sort_key,
    MatchConfig,
    ReasoningPath,
    RelationPath,
    ScoredPath,
    beam_match,
    dijkstra_avg_match,
    heuristic_top_k,
    match_candidates,
    render_match_report,
)
from karpa.transport import ATTEMPTS

from helpers import (
    FlakyEmbeddingProvider,
    SpyEmbeddingProvider,
    SpyGateway,
    TWELVE_ENTITY_TRIPLES,
    graph_from,
    mock_gateway,
    random_graph,
)
from oracles import (
    CapacityError,
    brute_force_top_k,
    enumerate_all_paths,
    exhaustive_fixed_length_best,
    path_similarity,
    ref_beam,
    ref_heuristic,
    ref_mock_similarity,
    step_cost,
)

# Frozen before implementation from the independent reference embedding
# (tests/oracles.py) at dim=64.
CHILDREN_VS_PARENTS_COST = 0.33135215016426833


# The greedy trap: the best first hop (an exact "father" match) leads to a
# near-dead-end, while the slightly worse "parent" hop reaches an exact
# "spouse" continuation. Width-1 beam search takes the bait.
TRAP_TRIPLES = [
    ("A", "person.family.father", "DeadEnd"),
    ("A", "person.family.parent", "Mid"),
    ("DeadEnd", "zz.qq.ww", "WrongVille"),
    ("Mid", "person.family.spouse", "GoldTown"),
]
TRAP_CANDIDATE = RelationPath(("person.family.father", "person.family.spouse"))


@pytest.fixture(scope="module")
def trap_graph():
    return graph_from(TRAP_TRIPLES)


@pytest.fixture(scope="module")
def twelve_graph():
    return graph_from(TWELVE_ENTITY_TRIPLES)


def labels_of(scored: ScoredPath) -> tuple:
    return scored.relation_path.relations


def tail_label(g, scored: ScoredPath) -> str:
    return g.entity_label(scored.path.tail)


# -- types -------------------------------------------------------------------


def test_relation_path_rejects_empty():
    with pytest.raises(ContractError):
        RelationPath(())


def test_match_config_rejects_zero_top_k():
    with pytest.raises(ContractError):
        MatchConfig(top_k=0)


def test_match_config_rejects_unknown_strategy():
    with pytest.raises(ContractError):
        MatchConfig(strategy="oracle")


def test_match_config_default_max_len_is_longest_candidate_plus_one():
    cfg = MatchConfig()
    assert cfg.resolve_max_len([RelationPath(("a",)), RelationPath(("a", "b"))]) == 3
    assert MatchConfig(max_len=5).resolve_max_len([RelationPath(("a",))]) == 5


# -- step_cost ----------------------------------------------------------------


def test_step_cost_identical_labels(gateway):
    assert step_cost(gateway, "people.person.children", "people.person.children") == pytest.approx(
        0.0, abs=1e-9
    )


def test_step_cost_orthogonal_vectors():
    from karpa.embeddings import EmbeddingGateway, EmbeddingVector

    class OrthogonalProvider:
        identity = "orthogonal"

        def embed_batch(self, texts):
            axes = {"left": (1.0, 0.0), "right": (0.0, 1.0)}
            return [EmbeddingVector(axes[t]) for t in texts]

    gw = EmbeddingGateway(OrthogonalProvider())
    assert step_cost(gw, "left", "right") == pytest.approx(1.0, abs=1e-9)


def test_step_cost_children_vs_parents_frozen_value(gateway):
    value = step_cost(gateway, "people.person.children", "people.person.parents")
    assert value == pytest.approx(CHILDREN_VS_PARENTS_COST, abs=1e-9)
    # and the production path agrees with the independent reference
    assert value == pytest.approx(
        1.0 - ref_mock_similarity("people.person.children", "people.person.parents", 64),
        abs=1e-12,
    )


# -- path_similarity ------------------------------------------------------------


def test_path_similarity_identical_lists(gateway):
    assert path_similarity(gateway, ["a.b.c", "d.e.f"], ["a.b.c", "d.e.f"]) == pytest.approx(
        1.0, abs=1e-9
    )


def test_path_similarity_variable_length_semantics(gateway):
    two_hop = ["father", "father"]
    assert path_similarity(gateway, two_hop, ["grandfather"]) > path_similarity(
        gateway, two_hop, ["spouse"]
    )


def test_path_similarity_symmetry(gateway):
    a, b = ["people.person.children"], ["people.person.parents", "people.person.spouse"]
    assert path_similarity(gateway, a, b) == pytest.approx(path_similarity(gateway, b, a), abs=1e-12)


# -- beam ---------------------------------------------------------------------


def test_beam_single_step_equals_neighbor_ranking(gateway, twelve_graph):
    g = twelve_graph
    hub = g.entity_id("hub")
    candidate = RelationPath(("people.person.children",))
    cfg = MatchConfig(strategy="beam", beam_width=16, top_k=16)
    result = beam_match(g, hub, candidate, cfg, gateway)

    expected = []
    for rid, nid in g.neighbors(hub):
        cost = step_cost(gateway, g.relation_label(rid), candidate.relations[0])
        expected.append((1.0 - cost, g.relation_label(rid), nid))
    expected.sort(key=lambda e: (-e[0], e[1], e[2]))
    assert [(p.score, p.relation_path.relations[0], p.path.tail) for p in result] == [
        (pytest.approx(s), l, n) for s, l, n in expected
    ]


def test_beam_wide_enough_equals_enumeration_oracle(gateway):
    rng = random.Random(4242)
    for _ in range(8):
        g = random_graph(rng, n_entities=14, n_relations=8, max_out_degree=3)
        candidate = RelationPath(tuple(rng.choice(g.relation_vocabulary()) for _ in range(2)))
        # wide enough to hold every partial path at every level
        cfg = MatchConfig(strategy="beam", beam_width=4096, top_k=1)
        got = beam_match(g, 0, candidate, cfg, gateway)
        best = exhaustive_fixed_length_best(g, gateway, 0, list(candidate.relations))
        if best is None:
            assert got == []
        else:
            assert got, "beam found nothing but oracle found a path"
            assert labels_of(got[0]) == best[1]
            assert got[0].path.entities() == best[2]
            assert got[0].cost == pytest.approx(best[4], abs=1e-12)


def test_beam_trap_misses_global_optimum(gateway, trap_graph):
    g = trap_graph
    a = g.entity_id("A")
    narrow = MatchConfig(strategy="beam", beam_width=1, top_k=16)
    beam_result = beam_match(g, a, TRAP_CANDIDATE, narrow, gateway)

    oracle_best = exhaustive_fixed_length_best(g, gateway, a, list(TRAP_CANDIDATE.relations))
    assert oracle_best is not None
    assert tail_label(g, beam_result[0]) == "WrongVille"
    assert oracle_best[2][-1] == g.entity_id("GoldTown")
    assert beam_result[0].cost > oracle_best[4] + 0.1


@pytest.mark.parametrize("start", [99, -1])
@pytest.mark.parametrize("strategy", MATCHERS)
def test_invalid_start_is_not_found_before_any_request(trap_graph, strategy, start):
    spy = SpyGateway()
    with pytest.raises(NotFoundError, match=f"unknown entity id {start}"):
        MATCHERS[strategy](trap_graph, start, TRAP_CANDIDATE, MatchConfig(strategy=strategy), spy)
    assert spy.requests == []


def test_beam_no_path_of_required_length_returns_empty(gateway):
    g = graph_from([("a", "r", "b")])
    result = beam_match(g, 0, RelationPath(("r", "r", "r")), MatchConfig(strategy="beam"), gateway)
    assert result == []


# -- dijkstra -------------------------------------------------------------------


def test_dijkstra_trap_finds_global_optimum(gateway, trap_graph):
    g = trap_graph
    result = dijkstra_avg_match(
        g, g.entity_id("A"), TRAP_CANDIDATE, MatchConfig(strategy="pathfind"), gateway
    )
    assert tail_label(g, result[0]) == "GoldTown"


def test_dijkstra_twelve_entity_fixture_matches_brute_force(gateway, twelve_graph):
    g = twelve_graph
    candidate = RelationPath(("people.person.children", "people.person.spouse"))
    cfg = MatchConfig(strategy="pathfind", top_k=16)
    result = dijkstra_avg_match(g, g.entity_id("hub"), candidate, cfg, gateway)
    oracle = brute_force_top_k(
        g, g.entity_id("hub"), candidate, 16, len(candidate), gateway, scoring="mean_step_cost"
    )
    assert result, "fixture must contain 2-hop paths"
    assert labels_of(result[0]) == labels_of(oracle[0])
    assert result[0].path.entities() == oracle[0].path.entities()
    assert result[0].cost == pytest.approx(oracle[0].cost, abs=1e-12)


def test_dijkstra_constant_costs_returns_tiebreak_prefix(gateway):
    # one relation everywhere -> every length-2 path has the same mean cost
    triples = [
        ("s", "link.rel.x", "m1"),
        ("s", "link.rel.x", "m2"),
        ("m1", "link.rel.x", "t1"),
        ("m1", "link.rel.x", "t2"),
        ("m2", "link.rel.x", "t3"),
    ]
    g = graph_from(triples)
    candidate = RelationPath(("q.w.e", "r.t.y"))
    cfg = MatchConfig(strategy="pathfind", top_k=2)
    result = dijkstra_avg_match(g, g.entity_id("s"), candidate, cfg, gateway)

    all_paths = [
        (labels, entities)
        for labels, entities, steps in enumerate_all_paths(g, g.entity_id("s"), 2)
        if len(steps) == 2
    ]
    all_paths.sort()
    assert len(result) == 2
    costs = {p.cost for p in result}
    assert len(costs) == 1  # constant mean cost
    assert [(labels_of(p), p.path.entities()) for p in result] == all_paths[:2]


def test_dijkstra_length_mean_invariance(gateway):
    # chain with one relation label: mean cost equals the single-step cost
    # for candidate lengths 1 through 4
    triples = [(f"c{i}", "link.rel.x", f"c{i+1}") for i in range(5)]
    g = graph_from(triples)
    unit = step_cost(gateway, "link.rel.x", "q.w.e")
    for n in range(1, 5):
        candidate = RelationPath(tuple(["q.w.e"] * n))
        result = dijkstra_avg_match(g, 0, candidate, MatchConfig(strategy="pathfind"), gateway)
        assert result[0].cost == pytest.approx(unit, abs=1e-9), f"length {n}"


def test_dijkstra_dominates_beam_on_random_graphs(gateway):
    rng = random.Random(777)
    for _ in range(20):
        g = random_graph(rng, n_entities=20, n_relations=10, max_out_degree=3)
        candidate = RelationPath(tuple(rng.choice(g.relation_vocabulary()) for _ in range(rng.randint(1, 3))))
        beam_cfg = MatchConfig(strategy="beam", beam_width=2, top_k=4)
        dij_cfg = MatchConfig(strategy="pathfind", top_k=4)
        beam_result = beam_match(g, 0, candidate, beam_cfg, gateway)
        dij_result = dijkstra_avg_match(g, 0, candidate, dij_cfg, gateway)
        if beam_result:
            assert dij_result
            assert dij_result[0].score >= beam_result[0].score - 1e-12


# -- heuristic -------------------------------------------------------------------


def test_heuristic_exact_equals_brute_force_small(gateway, twelve_graph):
    g = twelve_graph
    candidate = RelationPath(("people.person.children", "people.person.spouse"))
    cfg = MatchConfig(strategy="heuristic", top_k=16, exact_mode=True, max_len=3)
    ours = heuristic_top_k(g, g.entity_id("hub"), candidate, cfg, gateway)
    oracle = brute_force_top_k(g, g.entity_id("hub"), candidate, 16, 3, gateway)
    assert [(labels_of(p), p.path.entities(), p.score) for p in ours] == [
        (labels_of(p), p.path.entities(), p.score) for p in oracle
    ]


def test_heuristic_grandfather_returns_both_lengths(gateway):
    # Two hops whose joined labels resemble the one-hop relation. (A chain
    # repeating one label, e.g. father+father, normalizes to the same mock
    # vector as its own first hop and ties with it, so the hops differ here.)
    g = graph_from(
        [
            ("A", "grandfather", "B"),
            ("A", "grand", "C"),
            ("C", "father", "B"),
        ]
    )
    candidate = RelationPath(("grandfather",))
    cfg = MatchConfig(strategy="heuristic", top_k=2)  # max_len auto = 2
    result = heuristic_top_k(g, g.entity_id("A"), candidate, cfg, gateway)
    label_seqs = {labels_of(p) for p in result}
    assert ("grandfather",) in label_seqs
    assert ("grand", "father") in label_seqs

    # the fixed-length strategy structurally cannot return the 2-hop chain
    dij = dijkstra_avg_match(g, g.entity_id("A"), candidate, MatchConfig(strategy="pathfind"), gateway)
    assert dij
    assert all(len(p.path) == 1 for p in dij)


def test_heuristic_trap_finds_gold(gateway, trap_graph):
    g = trap_graph
    result = heuristic_top_k(
        g, g.entity_id("A"), TRAP_CANDIDATE, MatchConfig(strategy="heuristic", top_k=16), gateway
    )
    tails = [tail_label(g, p) for p in result]
    assert "GoldTown" in tails
    assert tails.index("GoldTown") < tails.index("WrongVille")

    # width-1 beam cannot surface the gold path at all
    narrow = beam_match(
        g, g.entity_id("A"), TRAP_CANDIDATE, MatchConfig(strategy="beam", beam_width=1, top_k=16), gateway
    )
    assert "GoldTown" not in [tail_label(g, p) for p in narrow]


def test_heuristic_truncation_flag(gateway):
    rng = random.Random(3)
    g = random_graph(rng, n_entities=30, n_relations=10, max_out_degree=3)
    cfg = MatchConfig(strategy="heuristic", top_k=4, frontier_cap=5, max_len=4)
    result = heuristic_top_k(g, 0, RelationPath(("people.person.children",)), cfg, gateway)
    assert result
    assert all(p.truncated for p in result)

    exact = heuristic_top_k(
        g,
        0,
        RelationPath(("people.person.children",)),
        MatchConfig(strategy="heuristic", top_k=4, exact_mode=True, max_len=4),
        gateway,
    )
    assert all(not p.truncated for p in exact)


def _ranked(paths):
    return [(labels_of(p), p.path.entities(), repr(p.cost), p.truncated) for p in paths]


@pytest.mark.parametrize("exact_mode", [True, False])
def test_heuristic_top_k_is_a_prefix_of_the_full_ranking(gateway, exact_mode):
    rng = random.Random(2024)
    truncated = 0
    for _ in range(12):
        g = random_graph(rng, n_entities=25, n_relations=12, max_out_degree=3)
        candidate = RelationPath(
            tuple(rng.choice(g.relation_vocabulary()) for _ in range(rng.randint(1, 3)))
        )
        cfg = MatchConfig(strategy="heuristic", max_len=3, exact_mode=exact_mode, frontier_cap=6)
        full = heuristic_top_k(g, 0, candidate, replace(cfg, top_k=100_000), gateway)
        assert len(full) < 100_000
        truncated += full[0].truncated
        for k in (1, 2, 5, 16):
            assert _ranked(heuristic_top_k(g, 0, candidate, replace(cfg, top_k=k), gateway)) == (
                _ranked(full[:k])
            )
    assert (truncated == 0) if exact_mode else (truncated >= 6)


def test_rank_key_ranks_equal_scores_by_labels_not_cost():
    assert 1.0 - 0.0 == 1.0 - 1e-17
    low_cost = ScoredPath(ReasoningPath(0, ((0, 1),)), RelationPath(("b.b.b",)), 0.0)
    high_cost = ScoredPath(ReasoningPath(0, ((1, 2),)), RelationPath(("a.a.a",)), 1e-17)
    assert _rank_key(1e-17, ("a.a.a",), (0, 2)) < _rank_key(0.0, ("b.b.b",), (0, 1))
    assert _sort_key(high_cost) == _rank_key(1e-17, ("a.a.a",), (0, 2))
    assert sorted([low_cost, high_cost], key=_sort_key) == [high_cost, low_cost]


# -- brute force -----------------------------------------------------------------


def test_brute_force_single_edge(gateway):
    g = graph_from([("x", "people.person.children", "y")])
    result = brute_force_top_k(g, 0, RelationPath(("people.person.children",)), 1, 2, gateway)
    assert len(result) == 1
    assert result[0].score == pytest.approx(1.0, abs=1e-9)
    assert result[0].path.entities() == (0, 1)


def test_brute_force_capacity_guard(gateway, monkeypatch):
    monkeypatch.setattr("oracles.BRUTE_FORCE_PATH_LIMIT", 10)
    nodes = [f"v{i}" for i in range(6)]
    g = graph_from(
        [(h, "link.any.edge", t) for h in nodes for t in nodes if h != t]
    )
    with pytest.raises(CapacityError):
        brute_force_top_k(g, 0, RelationPath(("a.b.c",)), 4, 4, gateway)


def test_heuristic_exact_equals_brute_force_random(gateway):
    rng = random.Random(1010)
    for _ in range(10):
        g = random_graph(rng, n_entities=25, n_relations=12, max_out_degree=2)
        candidate = RelationPath(
            tuple(rng.choice(g.relation_vocabulary()) for _ in range(rng.randint(1, 3)))
        )
        max_len = len(candidate) + 1
        cfg = MatchConfig(strategy="heuristic", top_k=16, exact_mode=True, max_len=max_len)
        ours = heuristic_top_k(g, 0, candidate, cfg, gateway)
        oracle = brute_force_top_k(g, 0, candidate, 16, max_len, gateway)
        assert [(labels_of(p), p.path.entities(), p.score) for p in ours] == [
            (labels_of(p), p.path.entities(), p.score) for p in oracle
        ]


@pytest.mark.parametrize("inverse_edges", [False, True], ids=["forward", "both"])
def test_heuristic_self_loop_at_start_is_not_a_path(gateway, inverse_edges):
    g = graph_from(
        [("A", "people.person.knows", "A"), ("A", "people.person.children", "B")], inverse_edges
    )
    a = g.entity_id("A")
    candidate = RelationPath(("people.person.knows",))
    cfg = MatchConfig(strategy="heuristic", top_k=16, exact_mode=True, max_len=2)
    ours = heuristic_top_k(g, a, candidate, cfg, gateway)
    oracle = brute_force_top_k(g, a, candidate, 16, 2, gateway)
    assert [(labels_of(p), p.path.entities(), p.score) for p in ours] == [
        (labels_of(p), p.path.entities(), p.score) for p in oracle
    ]
    assert [p.path.entities() for p in ours] == [(a, g.entity_id("B"))]


def test_heuristic_exact_several_candidates_equal_brute_force(twelve_graph):
    # One gateway serves every candidate, so each search starts with the
    # cache the earlier ones filled.
    gateway = mock_gateway()
    candidates = [
        ("people.person.children",),
        ("people.person.children", "people.person.spouse"),
        ("people.person.spouse", "people.person.parents", "people.person.children"),
        ("location.person.birthplace", "location.country.capital"),
    ]
    for g in (twelve_graph, graph_from(TWELVE_ENTITY_TRIPLES, inverse_edges=True)):
        hub = g.entity_id("hub")
        for labels in candidates:
            candidate = RelationPath(labels)
            cfg = MatchConfig(top_k=32, exact_mode=True, max_len=3)
            ours = heuristic_top_k(g, hub, candidate, cfg, gateway)
            oracle = brute_force_top_k(g, hub, candidate, 32, 3, gateway)
            assert [(labels_of(p), p.path.entities(), p.score) for p in ours] == [
                (labels_of(p), p.path.entities(), p.score) for p in oracle
            ]


def _random_match_cases():
    """``(graph, candidate, max_len)`` on ten small random graphs, some with inverse edges."""
    rng = random.Random(3030)
    for _ in range(10):
        replay = random.Random()
        replay.setstate(rng.getstate())
        g = random_graph(rng, n_entities=20, n_relations=10, max_out_degree=3)
        candidate = RelationPath(
            tuple(rng.choice(g.relation_vocabulary()) for _ in range(rng.randint(1, 2)))
        )
        max_len = len(candidate) + 1
        if rng.choice([False, True]):  # the same graph, loaded with inverse edges
            g = random_graph(replay, n_entities=20, n_relations=10, max_out_degree=3, inverse_edges=True)
        yield g, candidate, max_len


def _wide_config(strategy, max_len):
    """Wide enough that no search drops a prefix: each expands the start
    and every path shorter than its deepest length."""
    return MatchConfig(
        strategy=strategy,
        top_k=10_000,
        beam_width=10_000,
        exact_mode=True,
        max_len=max_len,
    )


def test_heuristic_requests_each_text_once_in_lookahead_windows():
    carried = []  # per request, the parent label sequences its children have
    expanded = 0
    for g, candidate, max_len in _random_match_cases():
        gateway = SpyGateway()
        cand_text = " ".join(candidate.relations)
        heuristic_top_k(g, 0, candidate, _wide_config("heuristic", max_len), gateway)
        paths = enumerate_all_paths(g, 0, max_len)
        child_labels = {" ".join(labels): labels for labels, _, _ in paths}
        # Every text requested, counted: the candidate once, with the first
        # request, and each child label sequence once, however many
        # prefixes reach it.
        requested = Counter(text for request in gateway.requests for text in request)
        assert requested == Counter([cand_text, *child_labels])
        assert gateway.requests[0][0] == cand_text
        children = [gateway.requests[0][1:]] + gateway.requests[1:]
        carried += [{child_labels[text][:-1] for text in request} for request in children]
        # Only prefixes with a child that revisits no entity need a request.
        prefixes = len({steps[:-1] for _, _, steps in paths})
        assert len(gateway.requests) <= prefixes
        expanded += prefixes
    # Distinct parent label sequences undercount the prefixes a request
    # carries children of, never overcount them.
    assert max(len(parents) for parents in carried) == LOOKAHEAD
    assert len(carried) < expanded


@pytest.mark.parametrize("inverse_edges", [False, True], ids=["forward", "both"])
def test_heuristic_equals_one_request_per_expansion_reference(inverse_edges):
    rng = random.Random(4242)
    truncated = 0
    for _ in range(40):
        g = random_graph(rng, n_entities=rng.randint(6, 30), n_relations=rng.randint(2, 12),
                         max_out_degree=4, inverse_edges=inverse_edges)
        candidate = RelationPath(
            tuple(rng.choice(g.relation_vocabulary()) for _ in range(rng.randint(1, 3)))
        )
        cfg = MatchConfig(
            strategy="heuristic",
            top_k=rng.randint(1, 16),
            max_len=rng.randint(1, 4),
            frontier_cap=rng.randint(1, 12),
            exact_mode=rng.random() < 0.2,
        )
        ours = heuristic_top_k(g, 0, candidate, cfg, mock_gateway())
        ref = ref_heuristic(g, 0, candidate, cfg, mock_gateway())
        assert _ranked(ours) == _ranked(ref)
        truncated += ref[0].truncated
    assert truncated >= 10


class WordwiseEmbeddingProvider(MockEmbeddingProvider):
    """The mock embedding, refusing a text with any word that has no token,
    as a service may refuse a label it cannot read."""

    def embed_batch(self, texts):
        for text in texts:
            for word in text.split(" "):
                mock_embed(word, self.dim)
        return super().embed_batch(texts)


def test_heuristic_error_under_a_prefix_fetched_ahead_surfaces_only_when_expanded():
    g = graph_from(
        [
            ("A", "people.person.children", "B"),
            ("A", "film.movie.director", "C"),
            ("B", "people.person.spouse", "D"),
            ("C", "!!!", "E"),
        ]
    )
    candidate = RelationPath(("people.person.children",))
    a = g.entity_id("A")
    # Expanding B fetches C's children ahead; the budget ends before C pops.
    cfg = MatchConfig(top_k=16, max_len=2, frontier_cap=1)
    provider = SpyEmbeddingProvider(WordwiseEmbeddingProvider())
    ours = heuristic_top_k(g, a, candidate, cfg, EmbeddingGateway(provider))
    assert any("film.movie.director !!!" in batch for batch in provider.batches)
    ref = ref_heuristic(g, a, candidate, cfg, EmbeddingGateway(WordwiseEmbeddingProvider()))
    assert _ranked(ours) == _ranked(ref)
    assert [p.path.entities() for p in ours] == [(a, g.entity_id("B"))]
    exact = replace(cfg, exact_mode=True)
    for search in (heuristic_top_k, ref_heuristic):
        with pytest.raises(DomainError, match="'!!!'"):
            search(g, a, candidate, exact, EmbeddingGateway(WordwiseEmbeddingProvider()))


class BatchLimitedProvider(SpyEmbeddingProvider):
    """The mock embedding, recording every batch and refusing one of more
    than ``limit`` texts, as a service with a batch limit does."""

    def __init__(self, limit):
        super().__init__(MockEmbeddingProvider())
        self.limit = limit

    def embed_batch(self, texts):
        if len(texts) > self.limit:
            self.batches.append(list(texts))
            raise DataError(f"{len(texts)} texts are over the batch limit of {self.limit}")
        return super().embed_batch(texts)


def test_heuristic_requests_own_children_alone_after_a_window_over_a_batch_limit():
    # Each prefix has at most four children, so only a request with a window
    # can pass five texts; the start's request, four labels and the
    # candidate text, never does.
    limit, max_out_degree = 5, 4
    rng = random.Random(5150)
    limited = 0
    for _ in range(30):
        g = random_graph(rng, n_entities=rng.randint(8, 30), n_relations=rng.randint(3, 12),
                         max_out_degree=max_out_degree)
        candidate = RelationPath(
            tuple(rng.choice(g.relation_vocabulary()) for _ in range(rng.randint(1, 3)))
        )
        cfg = MatchConfig(strategy="heuristic", top_k=8, max_len=3, frontier_cap=rng.randint(2, 12))
        provider = BatchLimitedProvider(limit)
        ours = heuristic_top_k(g, 0, candidate, cfg, EmbeddingGateway(provider))
        assert _ranked(ours) == _ranked(ref_heuristic(g, 0, candidate, cfg, mock_gateway()))
        refused = [i for i, batch in enumerate(provider.batches) if len(batch) > limit]
        if refused:
            limited += 1
            (first,) = refused
            for batch in provider.batches[first + 1 :]:
                # One prefix's children: one parent label sequence, one entity's edges at most.
                assert len({text.rpartition(" ")[0] for text in batch}) == 1, batch
                assert len(batch) <= max_out_degree, batch
    assert limited >= 10


def test_heuristic_replays_fixtures_recorded_from_the_reference():
    rng = random.Random(77)
    replayed_past_a_miss = 0
    for _ in range(20):
        g = random_graph(rng, n_entities=25, n_relations=10, max_out_degree=4,
                         inverse_edges=rng.random() < 0.5)
        candidate = RelationPath(
            tuple(rng.choice(g.relation_vocabulary()) for _ in range(rng.randint(1, 2)))
        )
        cfg = MatchConfig(top_k=8, max_len=3, frontier_cap=rng.randint(1, 6))
        recorder = SpyGateway()
        ref = ref_heuristic(g, 0, candidate, cfg, recorder)
        records = {text_digest(t): mock_embed(t) for request in recorder.requests for t in request}
        provider = SpyEmbeddingProvider(ScriptedEmbeddingProvider(records))
        ours = heuristic_top_k(g, 0, candidate, cfg, EmbeddingGateway(provider))
        assert _ranked(ours) == _ranked(ref)
        replayed_past_a_miss += any(
            text_digest(t) not in records for batch in provider.batches for t in batch
        )
    assert replayed_past_a_miss >= 5


def test_heuristic_makes_the_reference_attempts_when_transport_always_fails():
    # Cold, the start's request fails, and it carries no window. With the
    # start's children cached, the first request with a window fails.
    failed_warm = 0
    for g, candidate, max_len in _random_match_cases():
        cfg = MatchConfig(top_k=8, max_len=max_len, frontier_cap=4)
        for warm in (False, True):
            outcomes = []
            for search in (ref_heuristic, heuristic_top_k):
                cache = EmbeddingCache()
                if warm:
                    ref_heuristic(g, 0, candidate, replace(cfg, max_len=1),
                                  EmbeddingGateway(MockEmbeddingProvider(), cache))
                provider = FlakyEmbeddingProvider(MockEmbeddingProvider(), failures=10**9)
                gateway = EmbeddingGateway(provider, cache, sleep=lambda _: None)
                try:
                    search(g, 0, candidate, cfg, gateway)
                    raised = False
                except TransportError:
                    raised = True
                outcomes.append((raised, provider.attempts))
            assert outcomes[0] == outcomes[1]
            assert outcomes[0] == (True, ATTEMPTS) or (warm and outcomes[0] == (False, 0))
            failed_warm += warm and outcomes[0][0]
    assert failed_warm >= 5


def test_heuristic_match_stores_no_label_sequence_and_reads_none(tmp_path):
    # A heuristic search embeds thousands of label sequences a question and
    # meets almost none again, so it neither stores nor looks one up: a
    # sequence the cache holds is fetched from the provider. Only the first
    # request, the candidate text and the start's one-label children, goes
    # through the cache.
    g = graph_from(TWELVE_ENTITY_TRIPLES)
    hub = g.entity_id("hub")
    candidates = [RelationPath(("people.person.children", "people.person.spouse"))]
    cfg = MatchConfig(strategy="heuristic", top_k=64)
    fresh = match_candidates(g, hub, candidates, cfg, mock_gateway())
    path = tmp_path / "cache.jsonl"
    held = "people.person.children people.person.children"
    # Not the provider's vector for the text, so that a read of it would show.
    EmbeddingCache(path).put(MockEmbeddingProvider().identity, held, mock_embed("people.person.spouse"))
    provider = SpyEmbeddingProvider(MockEmbeddingProvider())
    served = match_candidates(g, hub, candidates, cfg, EmbeddingGateway(provider, EmbeddingCache(path)))
    assert served == fresh and held in {" ".join(labels_of(p)) for p in served}
    assert sum(batch.count(held) for batch in provider.batches) == 1
    records = [json.loads(line)["text"] for line in path.read_text(encoding="utf-8").splitlines()[1:]]
    start_labels = {g.relation_label(rid) for rid, entity in g.neighbors(hub) if entity != hub}
    first = {" ".join(candidates[0].relations), *start_labels}
    assert sorted(records) == sorted(map(text_digest, {held, *first}))
    assert set(provider.batches[0]) == first


def test_a_second_heuristic_search_sends_only_its_candidate_text_first():
    # The start's labels are held after the first search, so the second's
    # first request is its candidate text alone; its later requests repeat
    # the first search's, as the cache does not serve label sequences.
    g = graph_from(TWELVE_ENTITY_TRIPLES)
    hub = g.entity_id("hub")
    candidate = RelationPath(("people.person.children", "people.person.spouse"))
    cfg = MatchConfig(strategy="heuristic", top_k=64)
    gateway = SpyGateway()
    first = heuristic_top_k(g, hub, candidate, cfg, gateway)
    requests = list(gateway.requests)
    del gateway.requests[:]
    assert heuristic_top_k(g, hub, candidate, cfg, gateway) == first
    assert len(requests) > 1 and len(requests[0]) > 1
    assert gateway.requests == [["people.person.children people.person.spouse"], *requests[1:]]


@pytest.mark.parametrize("strategy", ["beam", "pathfind"])
def test_fixed_length_matchers_request_each_label_once_per_gateway(strategy):
    for g, candidate, max_len in _random_match_cases():
        gateway = SpyGateway()
        cfg = _wide_config(strategy, max_len)
        first = MATCHERS[strategy](g, 0, candidate, cfg, gateway)
        paths = enumerate_all_paths(g, 0, len(candidate))
        # Only prefixes with a child that revisits no entity cost a step.
        depths = sorted({len(steps) - 1 for _, _, steps in paths})
        labels = {g.relation_label(steps[-1][0]) for _, _, steps in paths}
        # Every text requested, counted: each depth's candidate relation once,
        # and each label met once, however many edges carry it.
        requested = Counter(text for request in gateway.requests for text in request)
        assert requested == Counter(candidate.relations[d] for d in depths) + Counter(labels)
        assert len(gateway.requests) <= len({steps[:-1] for _, _, steps in paths})
        # A second search holds every label: it requests only its depth queries.
        del gateway.requests[:]
        assert MATCHERS[strategy](g, 0, candidate, cfg, gateway) == first
        assert gateway.requests == [[candidate.relations[d]] for d in depths]


@pytest.mark.parametrize("strategy", ["beam", "pathfind"])
def test_candidate_relation_at_a_depth_never_expanded_is_not_embedded(strategy):
    # "!!!" has no token, so the mock embedding raises DomainError for it.
    candidate = RelationPath(("people.person.children", "!!!"))
    g = graph_from([("A", "people.person.children", "B"), ("C", "people.person.children", "A")])
    cfg = _wide_config(strategy, 2)
    assert MATCHERS[strategy](g, g.entity_id("A"), candidate, cfg, mock_gateway()) == []
    with pytest.raises(DomainError):  # C's child A has a child of its own
        MATCHERS[strategy](g, g.entity_id("C"), candidate, cfg, mock_gateway())


@pytest.mark.parametrize("inverse_edges", [False, True], ids=["forward", "both"])
def test_beam_equals_level_by_level_reference(gateway, inverse_edges):
    # Few relation labels, so equal step costs, and so ties at the beam's
    # cut, are common.
    rng = random.Random(5150)
    for _ in range(60):
        g = random_graph(rng, n_entities=rng.randint(6, 30), n_relations=rng.randint(2, 4),
                         max_out_degree=4, inverse_edges=inverse_edges)
        candidate = RelationPath(
            tuple(rng.choice(g.relation_vocabulary()) for _ in range(rng.randint(1, 3)))
        )
        cfg = MatchConfig(strategy="beam", beam_width=rng.randint(1, 8), top_k=rng.randint(1, 16))
        ours = beam_match(g, 0, candidate, cfg, gateway)
        ref = ref_beam(g, 0, candidate, cfg, gateway)
        assert [(labels_of(p), p.path.entities(), p.score, p.cost) for p in ours] == [
            (labels_of(p), p.path.entities(), p.score, p.cost) for p in ref
        ]


def test_dijkstra_best_equals_brute_force_random(gateway):
    rng = random.Random(2020)
    for _ in range(10):
        g = random_graph(rng, n_entities=25, n_relations=12, max_out_degree=2)
        candidate = RelationPath(
            tuple(rng.choice(g.relation_vocabulary()) for _ in range(rng.randint(1, 3)))
        )
        ours = dijkstra_avg_match(g, 0, candidate, MatchConfig(strategy="pathfind", top_k=16), gateway)
        oracle = brute_force_top_k(
            g, 0, candidate, 16, len(candidate), gateway, scoring="mean_step_cost"
        )
        assert bool(ours) == bool(oracle)
        if ours:
            assert labels_of(ours[0]) == labels_of(oracle[0])
            assert ours[0].path.entities() == oracle[0].path.entities()
            assert ours[0].cost == pytest.approx(oracle[0].cost, abs=1e-12)


# -- shared invariants --------------------------------------------------------------


def _all_strategy_results(g, start, candidate, gateway):
    yield beam_match(g, start, candidate, MatchConfig(strategy="beam", top_k=8), gateway)
    yield dijkstra_avg_match(g, start, candidate, MatchConfig(strategy="pathfind", top_k=8), gateway)
    yield heuristic_top_k(g, start, candidate, MatchConfig(strategy="heuristic", top_k=8), gateway)


def test_score_cost_duality_and_ordering(gateway):
    rng = random.Random(31337)
    for _ in range(6):
        g = random_graph(rng, n_entities=18, n_relations=8, max_out_degree=3)
        candidate = RelationPath(
            tuple(rng.choice(g.relation_vocabulary()) for _ in range(rng.randint(1, 2)))
        )
        for results in _all_strategy_results(g, 0, candidate, gateway):
            for scored in results:
                assert abs(scored.cost + scored.score - 1.0) <= 1e-9
            keys = [(-p.score, p.relation_path.relations, p.path.entities()) for p in results]
            assert keys == sorted(keys)


def test_returned_paths_are_edge_valid_and_simple(gateway):
    rng = random.Random(91)
    for _ in range(6):
        g = random_graph(rng, n_entities=18, n_relations=8, max_out_degree=3)
        candidate = RelationPath((rng.choice(g.relation_vocabulary()),))
        for results in _all_strategy_results(g, 0, candidate, gateway):
            for scored in results:
                entities = scored.path.entities()
                assert len(set(entities)) == len(entities)
                current = scored.path.start
                for rid, nid in scored.path.steps:
                    assert (rid, nid) in g.neighbors(current)
                    current = nid


# -- multi-candidate union ------------------------------------------------------------


def test_match_candidates_unions_and_dedups(gateway, twelve_graph):
    g = twelve_graph
    hub = g.entity_id("hub")
    one_hop = RelationPath(("people.person.children",))
    two_hop = RelationPath(("people.person.children", "people.person.spouse"))
    cfg = MatchConfig(strategy="heuristic", top_k=16, max_len=3)
    union = match_candidates(g, hub, [one_hop, two_hop], cfg, gateway)

    keys = [(p.path.start, p.path.steps) for p in union]
    assert len(keys) == len(set(keys)), "identical grounded paths must be deduped"
    singles = {
        (p.path.start, p.path.steps): p.score
        for p in heuristic_top_k(g, hub, one_hop, cfg, gateway)
    }
    for p in heuristic_top_k(g, hub, two_hop, cfg, gateway):
        key = (p.path.start, p.path.steps)
        singles[key] = max(singles.get(key, -2.0), p.score)
    for scored in union:
        assert scored.score == pytest.approx(singles[(scored.path.start, scored.path.steps)])
    assert len(union) <= cfg.top_k


def test_match_candidates_empty_input(gateway, twelve_graph):
    assert match_candidates(twelve_graph, 0, [], MatchConfig(), gateway) == []


def test_inverse_direction_reaches_backwards(gateway):
    # B is only reachable from C against the edge direction
    triples = [("B", "people.person.children", "C")]
    candidate = RelationPath(("people.person.children",))
    g = graph_from(triples)
    assert heuristic_top_k(g, g.entity_id("C"), candidate, MatchConfig(top_k=4), gateway) == []
    g = graph_from(triples, inverse_edges=True)
    both = heuristic_top_k(g, g.entity_id("C"), candidate, MatchConfig(top_k=4), gateway)
    assert len(both) == 1
    assert both[0].relation_path.relations == ("people.person.children~inv",)
    assert both[0].path.tail == g.entity_id("B")


def test_render_match_report_shape(gateway, trap_graph):
    g = trap_graph
    paths = heuristic_top_k(
        g, g.entity_id("A"), TRAP_CANDIDATE, MatchConfig(strategy="heuristic", top_k=3), gateway
    )
    import json

    lines = render_match_report(g, paths).strip().splitlines()
    assert len(lines) == len(paths)
    first = json.loads(lines[0])
    assert set(first) == {"rank", "score", "cost", "relations", "entities", "truncated"}
    assert first["rank"] == 1
