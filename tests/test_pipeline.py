import json

import pytest

from karpa.config import PipelineConfig, config_digest
from karpa.embeddings import EmbeddingGateway, MockEmbeddingProvider
from karpa.evaluation import QASample, evaluate
from karpa.errors import MissingFixtureError
from karpa.llm import ChatMessage, CompletionResult, ScriptedChatProvider, digest_messages
from karpa.matching import MatchConfig, match_candidates
from karpa.pipeline import Pipeline, make_sample_runner
from karpa.planner import (
    CORRECTIVE_MESSAGE,
    Query,
    build_initial_prompt,
    build_replanning_prompt,
    extract_relation_pool,
    parse_path_sets,
)
from karpa.reasoner import build_reasoning_prompt

from helpers import graph_from

BRAHUI_TRIPLES = [
    ("Brahui Language", "language.human_language.main_country", "Pakistan"),
    ("Pakistan", "government.government_position_held.office_holder", "Muhammad Zia-ul-Haq"),
    ("Brahui Language", "language.human_language.language_family", "Dravidian"),
    ("Brahui Language", "language.human_language.writing_system", "Arabic script"),
    ("Pakistan", "location.country.capital", "Islamabad"),
    ("Pakistan", "location.country.currency_used", "Pakistani rupee"),
    ("Muhammad Zia-ul-Haq", "people.person.place_of_birth", "Jalandhar"),
    ("Dravidian", "language.language_family.languages", "Brahui Language"),
    ("Islamabad", "location.location.containedby", "Pakistan"),
]

BRAHUI_QUESTION = Query(
    id="brahui",
    question="Name the president of the country whose main spoken language was Brahui in 1980?",
    topic_entities=("Brahui Language",),
)

PLAN_TEXT = (
    "Length 1 reasoning path: The answer entity cannot be reached within a single step, "
    "so the length 1 reasoning path is None: {}.\n"
    "Length 2 reasoning path: So the length 2 reasoning path is: "
    "{language.human_language.main_country, government.government_position_held.office_holder}.\n"
    "Length 3 reasoning path: The answer entity does not require 3 steps to reach, "
    "so the length 3 reasoning path is None: {}.\n"
)


def make_config(**overrides) -> PipelineConfig:
    cfg = PipelineConfig()
    cfg.kg.path = "kg.tsv"
    cfg.llm.kind = "scripted"
    cfg.embedding.kind = "mock"
    for key, value in overrides.items():
        section, name = key.split("__")
        setattr(getattr(cfg, section), name, value)
    return cfg


def build_brahui_world(strategy="heuristic", beam_width=8, max_len=None):
    """Graph + scripted provider with fixtures for all three phases."""
    g = graph_from(BRAHUI_TRIPLES)
    embedder = EmbeddingGateway(MockEmbeddingProvider(64))
    provider = ScriptedChatProvider()
    cfg = make_config()
    cfg.matcher = MatchConfig(strategy=strategy, beam_width=beam_width, max_len=max_len)

    provider.add(build_initial_prompt(BRAHUI_QUESTION), PLAN_TEXT)

    vocab = g.relation_vocabulary()
    initial = parse_path_sets(PLAN_TEXT)
    pool = extract_relation_pool(
        initial, vocab, embedder, per_relation_k=cfg.planner.per_relation_k, cap=30
    )
    provider.add(build_replanning_prompt(BRAHUI_QUESTION, pool), PLAN_TEXT)

    candidates = initial.all_paths()
    selected = match_candidates(
        g, g.entity_id("Brahui Language"), candidates, cfg.matcher, embedder
    )
    batches = [selected[i : i + 8] for i in range(0, len(selected), 8)]
    for batch in batches:
        tails = {g.entity_label(p.path.tail) for p in batch}
        answer = "{Muhammad Zia-ul-Haq}" if "Muhammad Zia-ul-Haq" in tails else "{}"
        provider.add(build_reasoning_prompt(BRAHUI_QUESTION, batch, g), answer)

    return Pipeline(cfg, g, embedder, provider), len(batches)


# -- the exemplar end-to-end question ------------------------------------------------


def test_brahui_pipeline_answers_president_in_three_calls():
    pipeline, n_batches = build_brahui_world()
    assert n_batches == 1  # 9-triple graph: everything fits one reasoning batch
    result = pipeline.run(BRAHUI_QUESTION)
    assert "Muhammad Zia-ul-Haq" in result.answers.answers
    assert result.usage_snapshot["calls"] == 3
    phases = result.usage_snapshot["phases"]
    assert phases["initial_planning"]["calls"] == 1
    assert phases["replanning"]["calls"] == 1
    assert phases["reasoning"]["calls"] == 1
    assert result.answers.ungrounded == set()


@pytest.mark.parametrize("strategy", ["beam", "pathfind"])
def test_max_len_below_the_planned_length_leaves_beam_and_pathfind_unbounded(strategy):
    # matcher.max_len bounds the heuristic's depth only; the fixed-length
    # matchers find paths of the planned length 2.
    bounded, _ = build_brahui_world(strategy, max_len=1)
    unbounded, _ = build_brahui_world(strategy)
    sample = QASample("brahui", BRAHUI_QUESTION.question, ["Brahui Language"], [["Muhammad Zia-ul-Haq"]])
    [record] = evaluate([sample], make_sample_runner(bounded)).records
    assert record.error is None and record.score.hit1 == 1
    selected = bounded.run(BRAHUI_QUESTION).selected
    assert selected == unbounded.run(BRAHUI_QUESTION).selected
    assert {len(p.path) for p in selected} == {2}


def test_preplanning_is_exactly_two_completions():
    pipeline, _ = build_brahui_world()
    result = pipeline.run(BRAHUI_QUESTION)
    planning = (
        result.usage_snapshot["phases"]["initial_planning"]["calls"]
        + result.usage_snapshot["phases"]["replanning"]["calls"]
    )
    assert planning == 2


def test_pipeline_trace_structure():
    pipeline, _ = build_brahui_world()
    result = pipeline.run(BRAHUI_QUESTION)
    events = [e["event"] for e in result.trace]
    for expected in ("resolve", "initial_planning", "relation_pool", "replanning",
                     "matching", "selected", "reasoning_batch", "answers", "flags"):
        assert expected in events
    for event in result.trace:
        json.dumps(event)  # trace must be line-JSON serializable
    batch_event = next(e for e in result.trace if e["event"] == "reasoning_batch")
    assert set(batch_event) >= {"batch", "prompt_digest", "raw", "parsed"}
    replanning_event = next(e for e in result.trace if e["event"] == "replanning")
    assert "prompt_digest" in replanning_event and "raw" in replanning_event


def test_replanning_prompt_is_rendered_once_and_digested_as_sent(monkeypatch):
    from karpa import pipeline as pipeline_module
    from karpa import planner

    pipeline, _ = build_brahui_world()
    rendered = []

    def counting(query, pool):
        rendered.append(build_replanning_prompt(query, pool))
        return rendered[-1]

    # Both names: the pipeline calls its own, and ``replan`` once rendered through the planner's.
    monkeypatch.setattr(pipeline_module, "build_replanning_prompt", counting)
    monkeypatch.setattr(planner, "build_replanning_prompt", counting)
    sent = []
    complete = pipeline.chat_provider.complete

    def recording(messages, params):
        sent.append(messages)
        return complete(messages, params)

    monkeypatch.setattr(pipeline.chat_provider, "complete", recording)
    result = pipeline.run(BRAHUI_QUESTION)
    assert len(rendered) == 1
    (replanning_sent,) = [m for m in sent if m is rendered[0]]
    event = next(e for e in result.trace if e["event"] == "replanning")
    assert event["prompt_digest"] == digest_messages(replanning_sent)


def test_pipeline_deterministic_trace():
    pipeline, _ = build_brahui_world()
    first = pipeline.run(BRAHUI_QUESTION)
    second = pipeline.run(BRAHUI_QUESTION)
    assert json.dumps(first.trace, sort_keys=True) == json.dumps(second.trace, sort_keys=True)
    assert first.answers.as_dict() == second.answers.as_dict()


# -- fallbacks and edge cases ----------------------------------------------------------


def test_unresolvable_topic_returns_empty_with_flag():
    pipeline, _ = build_brahui_world()
    query = Query("x", "Whatever?", ("Klingon Language",))
    result = pipeline.run(query)
    assert result.answers.answers == []
    assert "no_resolvable_topic" in result.flags
    assert result.usage_snapshot["calls"] == 0


def test_empty_replanned_candidates_falls_back_to_initial():
    g = graph_from(BRAHUI_TRIPLES)
    embedder = EmbeddingGateway(MockEmbeddingProvider(64))
    provider = ScriptedChatProvider()
    cfg = make_config()

    provider.add(build_initial_prompt(BRAHUI_QUESTION), PLAN_TEXT)
    initial = parse_path_sets(PLAN_TEXT)
    pool = extract_relation_pool(initial, g.relation_vocabulary(), embedder, cap=30)
    all_none = (
        "Length 1 reasoning path: None: {}.\nLength 2 reasoning path: None: {}.\n"
        "Length 3 reasoning path: None: {}."
    )
    provider.add(build_replanning_prompt(BRAHUI_QUESTION, pool), all_none)

    pipeline = Pipeline(cfg, g, embedder, provider)
    selected = match_candidates(
        g, g.entity_id("Brahui Language"), initial.all_paths(), cfg.matcher, embedder
    )
    batches = [selected[i : i + 8] for i in range(0, len(selected), 8)]
    for batch in batches:
        provider.add(build_reasoning_prompt(BRAHUI_QUESTION, batch, g), "{Muhammad Zia-ul-Haq}")

    result = pipeline.run(BRAHUI_QUESTION)
    assert "fallback_initial" in result.flags
    assert "Muhammad Zia-ul-Haq" in result.answers.answers


def test_unparseable_replan_after_retry_falls_back_to_initial_plan():
    # Both re-planning replies lack braces: the question is still answered,
    # from the initial plan, and all four completions count in its usage.
    pipeline, _ = build_brahui_world()
    provider = pipeline.chat_provider
    initial = parse_path_sets(PLAN_TEXT)
    pool = extract_relation_pool(initial, pipeline.vocab, pipeline.embedder, cap=30)
    first = build_replanning_prompt(BRAHUI_QUESTION, pool)
    provider.add(first, "nope")
    provider.add(first + [ChatMessage("assistant", "nope"), ChatMessage("user", CORRECTIVE_MESSAGE)], "still nope")
    sample = QASample("brahui", BRAHUI_QUESTION.question, ["Brahui Language"], [["Muhammad Zia-ul-Haq"]])
    [record] = evaluate([sample], make_sample_runner(pipeline)).records
    assert record.error is None and record.score.hit1 == 1
    assert record.flags[:2] == ["replan_parse_error", "fallback_initial"]
    assert record.usage["calls"] == 4
    assert {phase: c["calls"] for phase, c in record.usage["phases"].items()} == {
        "initial_planning": 1, "replanning": 2, "reasoning": 1
    }
    result = pipeline.run(BRAHUI_QUESTION)
    [event] = [e for e in result.trace if e["event"] == "replanning"]
    assert event == {
        "event": "replanning", "prompt_digest": digest_messages(first), "unparsed": ["nope", "still nope"], "snaps": []
    }
    expected = match_candidates(
        pipeline.g, pipeline.g.entity_id("Brahui Language"), initial.all_paths(), pipeline.cfg.matcher, pipeline.embedder
    )
    assert result.selected == expected


def test_replan_whose_retry_parses_records_the_unparsed_first_reply():
    pipeline, _ = build_brahui_world()
    provider = pipeline.chat_provider
    pool = extract_relation_pool(parse_path_sets(PLAN_TEXT), pipeline.vocab, pipeline.embedder, cap=30)
    first = build_replanning_prompt(BRAHUI_QUESTION, pool)
    provider.add(first, "nope")
    provider.add(first + [ChatMessage("assistant", "nope"), ChatMessage("user", CORRECTIVE_MESSAGE)], PLAN_TEXT)
    result = pipeline.run(BRAHUI_QUESTION)
    assert "Muhammad Zia-ul-Haq" in result.answers.answers
    assert result.flags == [] and result.usage_snapshot["phases"]["replanning"]["calls"] == 2
    [event] = [e for e in result.trace if e["event"] == "replanning"]
    assert event["raw"] == PLAN_TEXT and event["unparsed"] == ["nope"]


def test_unparseable_initial_plan_flagged_and_empty():
    g = graph_from(BRAHUI_TRIPLES)
    embedder = EmbeddingGateway(MockEmbeddingProvider(64))
    provider = ScriptedChatProvider()
    provider.add(build_initial_prompt(BRAHUI_QUESTION), "I refuse to follow the format.")
    pipeline = Pipeline(make_config(), g, embedder, provider)
    result = pipeline.run(BRAHUI_QUESTION)
    assert "initial_parse_error" in result.flags
    assert "fallback_initial" in result.flags
    assert "no_paths_matched" in result.flags
    assert result.answers.answers == []
    assert result.usage_snapshot["calls"] == 1  # nothing to re-plan or reason over


class _AbstainingChat(ScriptedChatProvider):
    """Replays its fixtures, and abstains with ``{}`` on any other prompt."""

    def complete(self, messages, params):
        try:
            return super().complete(messages, params)
        except MissingFixtureError:
            return CompletionResult("{}", 1, 1)


def test_inconsistent_plans_and_snapped_labels_are_flagged():
    # Two labels under "Length 1" make both plans inconsistent, and the
    # re-plan's unknown label is snapped to its nearest vocabulary label.
    g = graph_from(BRAHUI_TRIPLES)
    embedder = EmbeddingGateway(MockEmbeddingProvider(64))
    provider = _AbstainingChat()
    plan = (
        "Length 1 reasoning path: "
        "{language.human_language.main_country, government.government_position_held.office_holder}.\n"
        "Length 2 reasoning path: None: {}.\nLength 3 reasoning path: None: {}."
    )
    provider.add(build_initial_prompt(BRAHUI_QUESTION), plan)
    pool = extract_relation_pool(parse_path_sets(plan), g.relation_vocabulary(), embedder, cap=30)
    provider.add(
        build_replanning_prompt(BRAHUI_QUESTION, pool),
        plan.replace("government.government_position_held.office_holder", "government.president"),
    )
    result = Pipeline(make_config(), g, embedder, provider).run(BRAHUI_QUESTION)
    assert {"initial_inconsistent", "replan_inconsistent", "snapped_relations"} <= set(result.flags)
    [(label, snapped)] = next(e for e in result.trace if e["event"] == "replanning")["snaps"]
    assert label == "government.president" and snapped in g.relation_vocabulary()


def test_sample_without_topics_is_a_not_found_error_record():
    pipeline, _ = build_brahui_world()
    sample = QASample("bare", BRAHUI_QUESTION.question, [], [["Muhammad Zia-ul-Haq"]])
    [record] = evaluate([sample], make_sample_runner(pipeline)).records
    assert record.error == "NotFoundError: sample bare has no topic entities"
    assert record.usage["calls"] == 0


# -- strategy comparison on the greedy trap ----------------------------------------------


TRAP_TRIPLES = [
    ("A", "person.family.father", "DeadEnd"),
    ("A", "person.family.parent", "Mid"),
    ("DeadEnd", "zz.qq.ww", "WrongVille"),
    ("Mid", "person.family.spouse", "GoldTown"),
]

TRAP_QUERY = Query("trap", "Who is the spouse of A's father?", ("A",))

TRAP_PLAN = (
    "Length 1 reasoning path: None: {}.\n"
    "Length 2 reasoning path: the path is: {person.family.father, person.family.spouse}.\n"
    "Length 3 reasoning path: None: {}."
)


def build_trap_pipeline(strategy, beam_width=1):
    g = graph_from(TRAP_TRIPLES)
    embedder = EmbeddingGateway(MockEmbeddingProvider(64))
    provider = ScriptedChatProvider()
    cfg = make_config()
    cfg.matcher = MatchConfig(strategy=strategy, beam_width=beam_width)

    provider.add(build_initial_prompt(TRAP_QUERY), TRAP_PLAN)
    initial = parse_path_sets(TRAP_PLAN)
    pool = extract_relation_pool(initial, g.relation_vocabulary(), embedder, cap=30)
    provider.add(build_replanning_prompt(TRAP_QUERY, pool), TRAP_PLAN)

    selected = match_candidates(g, g.entity_id("A"), initial.all_paths(), cfg.matcher, embedder)
    batches = [selected[i : i + 8] for i in range(0, len(selected), 8)]
    for batch in batches:
        tails = {g.entity_label(p.path.tail) for p in batch}
        provider.add(
            build_reasoning_prompt(TRAP_QUERY, batch, g),
            "{GoldTown}" if "GoldTown" in tails else "{}",
        )
    return Pipeline(cfg, g, embedder, provider), g


def test_trap_beam_and_heuristic_diverge():
    beam_pipeline, _ = build_trap_pipeline("beam", beam_width=1)
    heuristic_pipeline, _ = build_trap_pipeline("heuristic")

    beam_result = beam_pipeline.run(TRAP_QUERY)
    heuristic_result = heuristic_pipeline.run(TRAP_QUERY)

    assert "GoldTown" in heuristic_result.answers.answers
    assert "GoldTown" not in beam_result.answers.answers
    beam_trace = json.dumps(beam_result.trace, sort_keys=True)
    heuristic_trace = json.dumps(heuristic_result.trace, sort_keys=True)
    assert beam_trace != heuristic_trace


def test_trap_pathfind_also_finds_gold():
    pathfind_pipeline, _ = build_trap_pipeline("pathfind")
    result = pathfind_pipeline.run(TRAP_QUERY)
    assert "GoldTown" in result.answers.answers


# -- config digest stability --------------------------------------------------------------


def test_config_digest_ignores_execution_knobs():
    a = make_config()
    b = make_config()
    b.eval.concurrency = 8
    b.eval.checkpoint_dir = "/elsewhere"
    b.embedding.cache_path = "/elsewhere/cache.jsonl"
    assert config_digest(a) == config_digest(b)
    c = make_config()
    c.matcher.top_k = 4
    assert config_digest(a) != config_digest(c)


def test_run_pipeline_from_config(tmp_path):
    from karpa.pipeline import build_pipeline

    kg_path = tmp_path / "kg.tsv"
    kg_path.write_text("A\tr.s.t\tB\n", encoding="utf-8")
    cfg = PipelineConfig()
    cfg.kg.path = str(kg_path)
    cfg.llm.kind = "mock"  # canned "{}" response: explicit empty answers
    result = build_pipeline(cfg).run(Query("q", "What is linked to A?", ("A",)))
    assert result.answers.answers == []
    assert result.usage_snapshot["calls"] >= 1


def test_scripted_embedding_provider_from_config(tmp_path):
    from karpa.embeddings import mock_embed, text_digest
    from karpa.pipeline import build_embedding_gateway

    fixtures = tmp_path / "embed.jsonl"
    vector = mock_embed("some text", 16)
    record = {"digest": text_digest("some text"), "dim": 16, "values": vector.values.tolist()}
    fixtures.write_text(json.dumps(record) + "\n", encoding="utf-8")
    cfg = PipelineConfig()
    cfg.embedding.kind = "scripted"
    cfg.embedding.fixtures = str(fixtures)
    gw = build_embedding_gateway(cfg)
    assert gw.embed(["some text"])[0] == vector


def test_multi_topic_union(gateway):
    g = graph_from(
        [
            ("A", "people.person.children", "X"),
            ("B", "people.person.children", "Y"),
        ]
    )
    provider = ScriptedChatProvider()
    cfg = make_config()
    query = Query("multi", "Who are the children of A and B?", ("A", "B"))
    plan = (
        "Length 1 reasoning path: the path is: {people.person.children}.\n"
        "Length 2 reasoning path: None: {}.\nLength 3 reasoning path: None: {}."
    )
    embedder = EmbeddingGateway(MockEmbeddingProvider(64))
    provider.add(build_initial_prompt(query), plan)
    initial = parse_path_sets(plan)
    pool = extract_relation_pool(initial, g.relation_vocabulary(), embedder, cap=30)
    provider.add(build_replanning_prompt(query, pool), plan)

    per_topic = []
    for label in ("A", "B"):
        per_topic.extend(
            match_candidates(g, g.entity_id(label), initial.all_paths(), cfg.matcher, embedder)
        )
    per_topic.sort(key=lambda sp: (-sp.score, sp.relation_path.relations, sp.path.entities()))
    provider.add(build_reasoning_prompt(query, per_topic, g), "{X, Y}")

    pipeline = Pipeline(cfg, g, embedder, provider)
    result = pipeline.run(query)
    assert result.answers.answers == ["X", "Y"]
    assert result.answers.ungrounded == set()
