import pytest

from karpa.errors import ContractError, ProviderError
from karpa.llm import LlmGateway, LlmParams, ScriptedChatProvider
from karpa.matching import MatchConfig, RelationPath, heuristic_top_k
from karpa.planner import Query
from karpa.reasoner import (
    AnswerSet,
    answer_question,
    build_reasoning_prompt,
    parse_answers,
    render_path_line,
)

from helpers import graph_from

RIFT_QUERY = Query(
    id="rift",
    question="Rift Valley Province is located in a nation that uses which form of currency?",
    topic_entities=("Rift Valley Province",),
)


def star_graph(n_tails, relation="film.director.films_directed"):
    return graph_from([("hub", relation, f"tail{i:02d}") for i in range(n_tails)])


def matched_paths(g, n, gateway, relation="film.director.films_directed"):
    cfg = MatchConfig(strategy="heuristic", top_k=n, max_len=1)
    paths = heuristic_top_k(g, g.entity_id("hub"), RelationPath((relation,)), cfg, gateway)
    assert len(paths) == n
    return paths


# -- prompt --------------------------------------------------------------------


def test_reasoning_prompt_contains_rift_valley_exemplar(gateway):
    g = star_graph(1)
    paths = matched_paths(g, 1, gateway)
    content = build_reasoning_prompt(RIFT_QUERY, paths, g)[0].content
    assert "(Rift Valley Province, location.administrative division.country, Kenya)" in content
    assert "{Kenyan shilling}" in content
    assert "think step-by-step" in content


def test_two_step_path_rendered_with_arrows(gateway):
    g = graph_from([("a", "r.one.x", "b"), ("b", "r.two.y", "c")])
    cfg = MatchConfig(strategy="heuristic", top_k=4, max_len=2, exact_mode=True)
    paths = [
        p
        for p in heuristic_top_k(g, 0, RelationPath(("r.one.x", "r.two.y")), cfg, gateway)
        if len(p.path) == 2
    ]
    line = render_path_line(g, paths[0])
    assert line == "(a, r.one.x → r.two.y, c)"


def test_reasoning_prompt_orders_paths_by_score(gateway):
    g = star_graph(3)
    paths = matched_paths(g, 3, gateway)
    content = build_reasoning_prompt(RIFT_QUERY, paths, g)[0].content
    rendered = [render_path_line(g, p) for p in paths]
    positions = [content.index(line) for line in rendered]
    assert positions == sorted(positions)


def test_reasoning_prompt_deterministic(gateway):
    g = star_graph(2)
    paths = matched_paths(g, 2, gateway)
    assert (
        build_reasoning_prompt(RIFT_QUERY, paths, g)[0].content
        == build_reasoning_prompt(RIFT_QUERY, paths, g)[0].content
    )


def test_reasoning_prompt_requires_paths(gateway):
    g = star_graph(1)
    with pytest.raises(ContractError):
        build_reasoning_prompt(RIFT_QUERY, [], g)


# -- parse_answers ----------------------------------------------------------------


def test_parse_exemplar_kenyan_shilling():
    text = "...analysis... Therefore, the correct tail entity is:\n{Kenyan shilling}."
    parsed = parse_answers(text)
    assert parsed.answers == ["Kenyan shilling"]
    assert not parsed.no_answer_marker


def test_parse_dedups_normalized():
    parsed = parse_answers("{a, b, a}")
    assert parsed.answers == ["a", "b"]


def test_parse_case_fold_dedup_keeps_first_surface():
    parsed = parse_answers("{Kenya, KENYA}")
    assert parsed.answers == ["Kenya"]


def test_parse_takes_last_group():
    parsed = parse_answers("first {alpha} then finally {beta, gamma}")
    assert parsed.answers == ["beta", "gamma"]


def test_parse_empty_braces_is_explicit_empty():
    parsed = parse_answers("nothing fits: {}")
    assert parsed.answers == []
    assert not parsed.no_answer_marker


def test_parse_no_braces_sets_abstention_flag():
    parsed = parse_answers("I cannot answer this question.")
    assert parsed.answers == []
    assert parsed.no_answer_marker


def test_answer_set_add_keeps_no_surface_that_normalizes_to_empty():
    # parse_answers never passes one (comma_items drops blank items); add guards the set itself.
    a = AnswerSet()
    a.add(" \t\u00a0", 0)
    a.add("X", 1)
    assert a.answers == ["X"] and a.provenance == {"x": [1]}


def test_answer_set_roundtrip():
    a = AnswerSet()
    a.add("X", 0)
    a.add("Y", 1)
    a.ungrounded = {"y"}
    assert AnswerSet.from_dict(a.as_dict()).as_dict() == a.as_dict()


def test_parse_answers_idempotent_on_own_rendering():
    import random

    rng = random.Random(8)
    pool = ["Kenyan shilling", "Paris", "Orla Venn", "The Amber Reel", "x1"]
    for _ in range(25):
        surfaces = rng.sample(pool, rng.randint(0, len(pool)))
        first = AnswerSet()
        for s in surfaces:
            first.add(s, 0)
        rendered = "{" + ", ".join(first.answers) + "}"
        reparsed = parse_answers(rendered)
        assert reparsed.answers == first.answers


# -- answer_question -----------------------------------------------------------------


def scripted(g, query, batches, responses, gateway):
    """Register scripted reasoning responses for consecutive batches."""
    provider = ScriptedChatProvider()
    for batch, response in zip(batches, responses):
        provider.add(build_reasoning_prompt(query, batch, g), response)
    return provider, LlmGateway(provider, params=LlmParams())


def test_sixteen_paths_make_two_completions(gateway):
    g = star_graph(16)
    paths = matched_paths(g, 16, gateway)
    batches = [paths[:8], paths[8:]]
    provider, llm = scripted(g, RIFT_QUERY, batches, ["{tail00}", "{}"], gateway)
    answers = answer_question(RIFT_QUERY, paths, g, llm, batch_limit=8, trace=[])
    assert llm.ledger.snapshot()["calls"] == 2
    assert llm.ledger.snapshot()["phases"]["reasoning"]["calls"] == 2
    assert answers.answers == ["tail00"]


def test_batch_answers_unioned(gateway):
    g = star_graph(10)
    paths = matched_paths(g, 10, gateway)
    batches = [paths[:8], paths[8:]]
    provider, llm = scripted(g, RIFT_QUERY, batches, ["{tail00, tail01}", "{tail08}"], gateway)
    answers = answer_question(RIFT_QUERY, paths, g, llm, batch_limit=8, trace=[])
    assert answers.answers == ["tail00", "tail01", "tail08"]
    assert answers.provenance["tail08"] == [1]
    assert answers.ungrounded == set()


def test_ungrounded_answer_kept_but_flagged(gateway):
    g = star_graph(2)
    paths = matched_paths(g, 2, gateway)
    provider, llm = scripted(g, RIFT_QUERY, [paths], ["{Atlantis}"], gateway)
    answers = answer_question(RIFT_QUERY, paths, g, llm, batch_limit=8, trace=[])
    assert answers.answers == ["Atlantis"]
    assert answers.ungrounded == {"atlantis"}


def test_completion_count_formula(gateway):
    for n, expected in [(1, 1), (8, 1), (9, 2), (16, 2), (17, 3)]:
        g = star_graph(n)
        paths = matched_paths(g, n, gateway)
        batches = [paths[i : i + 8] for i in range(0, n, 8)]
        provider, llm = scripted(g, RIFT_QUERY, batches, ["{}"] * len(batches), gateway)
        answer_question(RIFT_QUERY, paths, g, llm, batch_limit=8, trace=[])
        assert llm.ledger.snapshot()["calls"] == expected, f"{n} paths"


def test_failed_batch_recorded_rest_continue(gateway):
    g = star_graph(10)
    paths = matched_paths(g, 10, gateway)
    batches = [paths[:8], paths[8:]]
    # only the second batch has a fixture; the first raises MissingFixtureError
    provider, llm = scripted(g, RIFT_QUERY, [batches[1]], ["{tail08}"], gateway)
    answers = answer_question(RIFT_QUERY, paths, g, llm, batch_limit=8, trace=[])
    assert answers.answers == ["tail08"]


def test_all_batches_failing_is_error(gateway):
    g = star_graph(3)
    paths = matched_paths(g, 3, gateway)
    provider, llm = scripted(g, RIFT_QUERY, [], [], gateway)
    with pytest.raises(ProviderError):
        answer_question(RIFT_QUERY, paths, g, llm, batch_limit=8, trace=[])


def test_trace_ends_with_the_batch_count_unless_all_batches_fail(gateway):
    g = star_graph(10)
    paths = matched_paths(g, 10, gateway)
    provider, llm = scripted(g, RIFT_QUERY, [paths[8:]], ["{tail08}"], gateway)
    trace = []
    answer_question(RIFT_QUERY, paths, g, llm, batch_limit=8, trace=trace)
    assert [event["event"] for event in trace] == ["reasoning_batch", "reasoning_batch", "reasoning"]
    assert trace[-1] == {"event": "reasoning", "batches": 2}
    failed = []
    with pytest.raises(ProviderError):
        answer_question(RIFT_QUERY, paths[:8], g, llm, batch_limit=8, trace=failed)
    assert [event["event"] for event in failed] == ["reasoning_batch"]


def test_unsorted_matched_paths_rejected(gateway):
    g = graph_from([("hub", "film.director.films_directed", "t0"), ("hub", "zz.qq.ww", "t1")])
    cfg = MatchConfig(strategy="heuristic", top_k=4, max_len=1)
    paths = heuristic_top_k(
        g, g.entity_id("hub"), RelationPath(("film.director.films_directed",)), cfg, gateway
    )
    assert paths[0].score > paths[1].score
    provider, llm = scripted(g, RIFT_QUERY, [paths], ["{}"], gateway)
    with pytest.raises(ContractError):
        answer_question(RIFT_QUERY, list(reversed(paths)), g, llm, batch_limit=8, trace=[])


def test_abstention_marker_only_when_all_batches_abstain(gateway):
    g = star_graph(10)
    paths = matched_paths(g, 10, gateway)
    batches = [paths[:8], paths[8:]]
    provider, llm = scripted(g, RIFT_QUERY, batches, ["no braces here", "none here either"], gateway)
    answers = answer_question(RIFT_QUERY, paths, g, llm, batch_limit=8, trace=[])
    assert answers.no_answer_marker
    assert answers.answers == []
