import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from karpa.errors import ContractError
from karpa.llm import ChatMessage, LlmGateway, LlmParams, ScriptedChatProvider
from karpa.matching import RelationPath
from karpa.planner import (
    CORRECTIVE_MESSAGE,
    CandidatePathSet,
    Query,
    build_initial_prompt,
    build_replanning_prompt,
    extract_relation_pool,
    parse_path_sets,
    render_template,
    replan,
)

from helpers import SpyGateway, relation_label_pool

BRAHUI_QUERY = Query(
    id="ex1",
    question="Name the president of the country whose main spoken language was Brahui in 1980?",
    topic_entities=("Brahui Language",),
)

# the worked answer shape the planning prompts teach
EXEMPLAR_ANSWER = (
    "Length 1 reasoning path: The answer entity cannot be reached within a single step, "
    "so the length 1 reasoning path is None: {}.\n"
    "Length 2 reasoning path: The answer entity may be reached by first finding the "
    'corresponding country through the relation "language.human language.main country", '
    "and then finding the president of the country through the relation "
    '"government.government position held.office holder". So the length 2 reasoning path '
    "is: {language.human_language.main_country, government.government_position_held.office_holder}.\n"
    "Length 3 reasoning path: The answer entity does not require 3 steps to reach, "
    "so the length 3 reasoning path is None: {}.\n"
)


# -- prompt rendering -------------------------------------------------------------


def test_initial_prompt_contains_brahui_exemplar_verbatim():
    (message,) = build_initial_prompt(BRAHUI_QUERY)
    assert message.role == "user"
    assert "main spoken language was Brahui in 1980?" in message.content
    assert (
        "{language.human_language.main_country, government.government_position_held.office_holder}"
        in message.content
    )
    assert "reasoning path is None: {}" in message.content
    assert "generate reasoning paths of lengths 1, 2, and 3" in message.content


def test_initial_prompt_rendering_deterministic():
    first = build_initial_prompt(BRAHUI_QUERY)[0].content
    second = build_initial_prompt(BRAHUI_QUERY)[0].content
    assert first == second


def test_initial_prompt_multiple_topics_comma_joined():
    query = Query("q", "Who?", ("Alpha", "Beta", "Gamma"))
    content = build_initial_prompt(query)[0].content
    assert "Topic Entity: Alpha, Beta, Gamma" in content


def test_render_template_single_pass_is_injective():
    template = "Q: {{question}} T: {{topic_entities}}"
    tricky = render_template(template, {"question": "{{topic_entities}}", "topic_entities": "X"})
    plain = render_template(template, {"question": "X", "topic_entities": "X"})
    assert tricky != plain
    assert "{{topic_entities}}" in tricky


@settings(max_examples=100, deadline=None)
@given(st.text(min_size=1, max_size=80), st.text(min_size=1, max_size=80))
def test_distinct_questions_give_distinct_prompts(q1, q2):
    if q1 == q2:
        return
    p1 = build_initial_prompt(Query("a", q1, ("T",)))[0].content
    p2 = build_initial_prompt(Query("a", q2, ("T",)))[0].content
    assert p1 != p2


def test_query_requires_topics():
    with pytest.raises(ContractError):
        Query("q", "question?", ())


# -- parse_path_sets ------------------------------------------------------------------


def test_parse_exemplar_answer_extracts_length_two():
    parsed = parse_path_sets(EXEMPLAR_ANSWER)
    assert parsed.by_length[1] == []
    assert parsed.by_length[3] == []
    assert parsed.by_length[2] == [
        RelationPath(
            ("language.human_language.main_country", "government.government_position_held.office_holder")
        )
    ]
    assert not parsed.inconsistent


def test_parse_none_with_empty_braces():
    text = "Length 1 reasoning path: no single hop works, so the length 1 reasoning path is None: {}."
    parsed = parse_path_sets(text)
    assert parsed.by_length[1] == []


def test_parse_no_braces_returns_an_empty_unparsed_set():
    parsed = parse_path_sets("I have no idea what to do here.")
    assert not parsed.parsed and parsed.is_empty() and not parsed.inconsistent
    assert parsed.by_length == {1: [], 2: [], 3: []}
    assert parsed.raw_llm_text == "I have no idea what to do here."
    assert parse_path_sets(EXEMPLAR_ANSWER).parsed


def test_parse_takes_last_brace_group_per_length():
    text = (
        "Length 1 reasoning path: maybe {people.person.spouse_s} but actually "
        "the best is: {people.person.children}."
    )
    parsed = parse_path_sets(text)
    assert parsed.by_length[1] == [RelationPath(("people.person.children",))]


def test_parse_flags_wrong_relation_count():
    text = "Length 1 reasoning path: {people.person.children, people.person.parents}."
    parsed = parse_path_sets(text)
    assert parsed.inconsistent
    assert parsed.by_length[1] == [
        RelationPath(("people.person.children", "people.person.parents"))
    ]


def test_parse_keeps_overlong_lengths_flagged():
    text = (
        "Length 2 reasoning path: {a.b.c, d.e.f}.\n"
        "Length 4 reasoning path: {a.b.c, d.e.f, g.h.i, j.k.l}."
    )
    parsed = parse_path_sets(text)
    assert parsed.by_length[2] == [RelationPath(("a.b.c", "d.e.f"))]
    assert parsed.by_length[4] == [RelationPath(("a.b.c", "d.e.f", "g.h.i", "j.k.l"))]
    assert parsed.inconsistent


def test_parse_literal_none_inside_braces():
    parsed = parse_path_sets("Length 1 reasoning path: {None}.")
    assert parsed.by_length[1] == []


def _render_set(path_set: dict[int, list[tuple[str, ...]]]) -> str:
    lines = []
    for length in (1, 2, 3):
        paths = path_set.get(length, [])
        if paths:
            body = ", ".join(paths[0])
            lines.append(f"Length {length} reasoning path: the path is: {{{body}}}.")
        else:
            lines.append(f"Length {length} reasoning path: None: {{}}.")
    return "\n".join(lines)


_segment = st.text(alphabet="abcdefghijklmnopqrstuvwxyz_", min_size=1, max_size=8).map(
    lambda s: s.strip("_") or "x"
)
label_strategy = st.lists(_segment, min_size=2, max_size=3).map(".".join)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_parse_roundtrips_rendered_sets(data):
    path_set = {}
    for length in (1, 2, 3):
        if data.draw(st.booleans()):
            path_set[length] = [
                tuple(data.draw(label_strategy) for _ in range(length))
            ]
    parsed = parse_path_sets(_render_set(path_set))
    for length in (1, 2, 3):
        expected = [RelationPath(p) for p in path_set.get(length, [])]
        assert parsed.by_length[length] == expected


# -- relation pool ----------------------------------------------------------------------


def paths(*label_tuples):
    by_length = {1: [], 2: [], 3: []}
    for labels in label_tuples:
        by_length[len(labels)].append(RelationPath(tuple(labels)))
    return CandidatePathSet(by_length=by_length, raw_llm_text="")


def test_pool_single_relation_top_k(gateway):
    vocab = sorted(relation_label_pool(random.Random(1), 12))
    initial = paths(("people.person.children",))
    pool = extract_relation_pool(initial, vocab, gateway, per_relation_k=5, cap=30)
    [ranked] = gateway.top_k_similar_relations(["people.person.children"], vocab, 5)
    assert pool == [label for label, _ in ranked]


def test_pool_round_robin_interleaves_rank_order(gateway):
    # two sources with disjoint top lists: ranks interleave a1 b1 a2 b2
    vocab = ["music.artist.albums", "music.artist.genre", "sports.team.roster", "sports.team.winner"]
    initial = paths(("music.artist.albums", "sports.team.roster"))
    pool = extract_relation_pool(initial, vocab, gateway, per_relation_k=2, cap=4)
    a, b = (
        [label for label, _ in ranked]
        for ranked in gateway.top_k_similar_relations(["music.artist.albums", "sports.team.roster"], vocab, 2)
    )
    assert pool == [a[0], b[0], a[1], b[1]]


def test_pool_ranks_all_sources_in_one_embed_request():
    vocab = sorted(set(relation_label_pool(random.Random(2), 20)))
    initial = paths(("music.artist.albums", "sports.team.roster"), ("people.person.children",))
    spy = SpyGateway()
    pool = extract_relation_pool(initial, vocab, spy, per_relation_k=3, cap=30)
    sources = ["people.person.children", "music.artist.albums", "sports.team.roster"]  # shortest path first
    assert spy.requests == [[*sources, *vocab]]
    fresh = SpyGateway()
    rankings = [(s, fresh.top_k_similar_relations([s], vocab, 3)[0]) for s in sources]
    assert pool == round_robin_pool(rankings, 3, 30)


def test_pool_cap_and_membership_property(gateway):
    rng = random.Random(17)
    vocab = sorted(relation_label_pool(rng, 40))
    sources = [tuple(rng.sample(vocab, rng.randint(1, 3))) for _ in range(5)]
    initial = paths(*[s[:3] for s in sources])
    pool = extract_relation_pool(initial, vocab, gateway, per_relation_k=5, cap=30)
    assert len(pool) <= 30
    assert len(set(pool)) == len(pool)
    assert set(pool) <= set(vocab)


def test_pool_default_per_relation_k(gateway):
    vocab = sorted(relation_label_pool(random.Random(3), 40))
    # 12 distinct sources -> floor(30/12)=2 -> min 3 applies
    sources = vocab[:12]
    initial = paths(*[(s,) for s in sources])
    pool = extract_relation_pool(initial, vocab, gateway, cap=30)
    rankings = gateway.top_k_similar_relations(sources, vocab, 3)
    assert pool == round_robin_pool(list(zip(sources, rankings)), 3, 30)


class RankedGateway:
    """Serves fixed rankings, as ``top_k_similar_relations`` would, cut to k."""

    def __init__(self, rankings):
        self.rankings = rankings

    def top_k_similar_relations(self, labels, vocab, k):
        return [self.rankings[label][:k] for label in labels]


def round_robin_pool(rankings, per_relation_k, cap):
    """The pool as a rank-by-rank round robin over the sources, deduplicated and stopped at the cap."""
    pool = []
    for rank in range(per_relation_k):
        for _, ranked in rankings:
            if rank >= len(ranked):
                continue
            if ranked[rank][0] not in pool:
                pool.append(ranked[rank][0])
            if len(pool) >= cap:
                return pool
    return pool


@pytest.mark.parametrize("cap", [1, 3, 5, 8, 30])
@pytest.mark.parametrize("per_relation_k", [1, 2, 4])
def test_pool_order_with_ties_and_short_rankings(cap, per_relation_k):
    # Sources share labels and scores, and two rank fewer labels than k.
    rankings = {
        "s.a": [("v.x", 0.9), ("v.y", 0.9), ("v.z", 0.5), ("v.w", 0.1)],
        "s.b": [("v.y", 0.9), ("v.x", 0.9)],
        "s.c": [("v.x", 0.7)],
        "s.d": [("v.u", 0.9), ("v.z", 0.9), ("v.t", 0.9), ("v.s", 0.2)],
    }
    initial = paths(("s.a",), ("s.b", "s.c"), ("s.d", "s.a", "s.b"))
    pool = extract_relation_pool(
        initial, ["v.x"], RankedGateway(rankings), per_relation_k=per_relation_k, cap=cap
    )
    # Sources in first-appearance order, shortest path first.
    in_order = [(source, rankings[source]) for source in ("s.a", "s.b", "s.c", "s.d")]
    assert pool == round_robin_pool(in_order, per_relation_k, cap)


def test_templates_are_read_once_per_process(monkeypatch):
    from importlib import resources

    from karpa import planner

    reads = []
    files = resources.files

    class CountingTraversable:
        def __init__(self, inner):
            self.inner = inner

        def joinpath(self, name):
            return CountingTraversable(self.inner.joinpath(name))

        def read_text(self, encoding):
            reads.append(self.inner.name)
            return self.inner.read_text(encoding=encoding)

    monkeypatch.setattr(planner.resources, "files", lambda package: CountingTraversable(files(package)))
    planner.load_template.cache_clear()
    try:
        for _ in range(3):
            build_initial_prompt(BRAHUI_QUERY)
            build_replanning_prompt(BRAHUI_QUERY, ["a.b.c"])
            planner.load_template("reasoning.txt")
    finally:
        planner.load_template.cache_clear()
    assert sorted(reads) == ["initial_planning.txt", "reasoning.txt", "replanning.txt"]


def test_pool_empty_initial_set(gateway):
    assert extract_relation_pool(paths(), ["a.b.c"], gateway, cap=30) == []


# -- replanning prompt ---------------------------------------------------------------------


def test_replanning_prompt_contains_exemplar_phrases():
    content = build_replanning_prompt(BRAHUI_QUERY, ["a.b.c"])[0].content
    assert "form reasoning paths of length 1, 2, and 3" in content
    assert "select relevant relations from the provided relation set" in content
    assert "people.marriage.spouse" in content  # second exemplar's relation list


def test_replanning_prompt_renders_pool_in_order():
    pool = ["z.y.x", "a.b.c", "m.n.o"]
    content = build_replanning_prompt(BRAHUI_QUERY, pool)[0].content
    assert "Relations: z.y.x; a.b.c; m.n.o" in content


def test_replanning_prompt_deterministic():
    pool = ["a.b.c", "d.e.f"]
    assert (
        build_replanning_prompt(BRAHUI_QUERY, pool)[0].content
        == build_replanning_prompt(BRAHUI_QUERY, pool)[0].content
    )


def test_replanning_prompt_rejects_empty_pool():
    with pytest.raises(ContractError):
        build_replanning_prompt(BRAHUI_QUERY, [])


# -- replan ------------------------------------------------------------------------------


def scripted_llm():
    provider = ScriptedChatProvider()
    return provider, LlmGateway(provider, params=LlmParams())


def test_replan_parses_exemplar_format(gateway):
    vocab = ["language.human_language.main_country", "government.government_position_held.office_holder"]
    pool = vocab
    provider, llm = scripted_llm()
    provider.add(build_replanning_prompt(BRAHUI_QUERY, pool), EXEMPLAR_ANSWER)
    result = replan(build_replanning_prompt(BRAHUI_QUERY, pool), llm, gateway, vocab)
    assert result.by_length[2] == [RelationPath(tuple(vocab))]
    assert result.by_length[1] == [] and result.by_length[3] == []
    assert result.snaps == []


def test_replan_snaps_hallucinated_label(gateway):
    vocab = ["people.person.children", "people.person.parents", "film.movie.director"]
    pool = vocab
    provider, llm = scripted_llm()
    provider.add(
        build_replanning_prompt(BRAHUI_QUERY, pool),
        "Length 1 reasoning path: {people.person.child}.\n"
        "Length 2 reasoning path: None: {}.\nLength 3 reasoning path: None: {}.",
    )
    result = replan(build_replanning_prompt(BRAHUI_QUERY, pool), llm, gateway, vocab)
    nearest = gateway.top_k_similar_relations(["people.person.child"], vocab, 1)[0][0][0]
    assert result.by_length[1] == [RelationPath((nearest,))]
    assert result.snaps == [("people.person.child", nearest)]


def test_replan_snaps_every_off_vocabulary_label_in_one_request():
    vocab = ["people.person.children", "people.person.parents", "film.movie.director"]
    pool = vocab
    provider, llm = scripted_llm()
    provider.add(
        build_replanning_prompt(BRAHUI_QUERY, pool),
        "Length 1 reasoning path: {people.person.child}.\n"
        "Length 2 reasoning path: {film.movie.directed_by, people.person.parents}.\n"
        "Length 3 reasoning path: {people.person.child, people.person.parents, people.person.child}.",
    )
    spy = SpyGateway()
    spy.top_k_similar_relations(["warm"], vocab, 1)  # the vocabulary is held, as after pooling
    result = replan(build_replanning_prompt(BRAHUI_QUERY, pool), llm, spy, vocab)
    assert spy.requests[1:] == [["people.person.child", "film.movie.directed_by"]]
    # One snap per place the label occurs, in path order, as when each was ranked alone.
    child, directed = (
        spy.top_k_similar_relations([label], vocab, 1)[0][0][0]
        for label in ("people.person.child", "film.movie.directed_by")
    )
    assert result.snaps == [
        ("people.person.child", child),
        ("film.movie.directed_by", directed),
        ("people.person.child", child),
        ("people.person.child", child),
    ]
    assert result.by_length[3] == [RelationPath((child, "people.person.parents", child))]


def test_replan_retries_once_with_corrective_message(gateway):
    vocab = ["a.b.c"]
    pool = vocab
    provider, llm = scripted_llm()
    first = build_replanning_prompt(BRAHUI_QUERY, pool)
    provider.add(first, "free-form rambling with no braces")
    retry = first + [
        ChatMessage("assistant", "free-form rambling with no braces"),
        ChatMessage("user", CORRECTIVE_MESSAGE),
    ]
    provider.add(
        retry,
        "Length 1 reasoning path: {a.b.c}.\nLength 2 reasoning path: None: {}.\n"
        "Length 3 reasoning path: None: {}.",
    )
    result = replan(first, llm, gateway, vocab)
    assert result.by_length[1] == [RelationPath(("a.b.c",))]
    assert llm.ledger.snapshot()["calls"] == 2
    assert first == build_replanning_prompt(BRAHUI_QUERY, pool)  # the retry appended to a copy


def test_replan_parse_failure_after_retry_returns_an_empty_unparsed_set():
    vocab = ["a.b.c"]
    pool = vocab
    provider, llm = scripted_llm()
    first = build_replanning_prompt(BRAHUI_QUERY, pool)
    provider.add(first, "nope")
    retry = first + [ChatMessage("assistant", "nope"), ChatMessage("user", CORRECTIVE_MESSAGE)]
    provider.add(retry, "still nope")
    spy = SpyGateway()
    result = replan(first, llm, spy, vocab)
    assert not result.parsed and result.is_empty()
    assert result.by_length == {1: [], 2: [], 3: []}
    assert result.unparsed == ["nope", "still nope"] and result.snaps == []
    assert llm.ledger.snapshot()["calls"] == 2
    assert spy.requests == []  # an empty set has nothing to snap


def test_replan_all_none_yields_empty_set(gateway):
    vocab = ["a.b.c"]
    pool = vocab
    provider, llm = scripted_llm()
    provider.add(
        build_replanning_prompt(BRAHUI_QUERY, pool),
        "Length 1 reasoning path: None: {}.\nLength 2 reasoning path: None: {}.\n"
        "Length 3 reasoning path: None: {}.",
    )
    result = replan(build_replanning_prompt(BRAHUI_QUERY, pool), llm, gateway, vocab)
    assert result.is_empty()
