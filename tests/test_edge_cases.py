"""Edge-case coverage across modules: inverse traversal end-to-end, loader
failures, cache corruption, unicode labels."""

import io
import json

import pytest

from karpa.config import PipelineConfig
from karpa.embeddings import EmbeddingCache, EmbeddingGateway, MockEmbeddingProvider
from karpa.errors import DataError
from karpa.evaluation import load_dataset
from karpa.kg import load_triples
from karpa.llm import ScriptedChatProvider
from karpa.matching import MatchConfig, render_match_report
from karpa.pipeline import Pipeline
from karpa.planner import (
    Query,
    build_initial_prompt,
    build_replanning_prompt,
    extract_relation_pool,
    parse_path_sets,
)
from karpa.reasoner import build_reasoning_prompt

from helpers import graph_from


def test_inverse_edges_answer_reverse_question():
    # "Pakistan" -> language is only reachable against the stored direction
    g = graph_from(
        [("Brahui Language", "language.human_language.main_country", "Pakistan")], inverse_edges=True
    )
    embedder = EmbeddingGateway(MockEmbeddingProvider(64))
    provider = ScriptedChatProvider()
    cfg = PipelineConfig()
    cfg.kg.path = "kg.tsv"
    cfg.llm.kind = "scripted"
    cfg.kg.inverse_edges = True

    query = Query("rev", "Which language is mainly spoken in Pakistan?", ("Pakistan",))
    plan = (
        "Length 1 reasoning path: the path is: {language.human_language.main_country}.\n"
        "Length 2 reasoning path: None: {}.\nLength 3 reasoning path: None: {}."
    )
    provider.add(build_initial_prompt(query), plan)
    initial = parse_path_sets(plan)
    pool = extract_relation_pool(initial, g.relation_vocabulary(), embedder, cap=30)
    provider.add(build_replanning_prompt(query, pool), plan)

    from karpa.matching import match_candidates

    selected = match_candidates(
        g, g.entity_id("Pakistan"), initial.all_paths(), cfg.matcher, embedder
    )
    assert selected, "inverse edge must be reachable"
    assert selected[0].relation_path.relations == ("language.human_language.main_country~inv",)
    provider.add(build_reasoning_prompt(query, selected, g), "{Brahui Language}")

    pipeline = Pipeline(cfg, g, embedder, provider)
    result = pipeline.run(query)
    assert result.answers.answers == ["Brahui Language"]
    assert result.answers.ungrounded == set()


def test_forward_only_cannot_answer_reverse_question():
    g = graph_from([("Brahui Language", "language.human_language.main_country", "Pakistan")])
    embedder = EmbeddingGateway(MockEmbeddingProvider(64))
    from karpa.matching import match_candidates, RelationPath

    selected = match_candidates(
        g,
        g.entity_id("Pakistan"),
        [RelationPath(("language.human_language.main_country",))],
        MatchConfig(),
        embedder,
    )
    assert selected == []


# -- loaders --------------------------------------------------------------------


def test_webqsp_record_without_parses_reports_index(tmp_path):
    path = tmp_path / "w.json"
    path.write_text(
        json.dumps({"Questions": [{"QuestionId": "x", "RawQuestion": "q?"}]}), encoding="utf-8"
    )
    with pytest.raises(DataError) as exc:
        load_dataset(path, "webqsp")
    assert "record 0" in str(exc.value)


def test_cwq_record_without_topic_entity_rejected(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(
        json.dumps([{"ID": "1", "question": "q?", "answers": [{"answer": "a"}]}]),
        encoding="utf-8",
    )
    with pytest.raises(DataError):
        load_dataset(path, "cwq")


@pytest.mark.parametrize(
    "answers",
    [[], [["x"], []], [[]], [["  "]]],
    ids=["no-answer", "an-answer-without-aliases", "no-alias", "a-blank-alias"],
)
def test_sample_with_empty_gold_rejected(tmp_path, answers):
    # A gold answer with no alias that normalises to a non-empty string can
    # never be matched, so a perfect prediction would score recall below 1.
    path = tmp_path / "d.jsonl"
    path.write_text(
        json.dumps({"id": "q", "question": "?", "topics": ["T"], "answers": answers}) + "\n",
        encoding="utf-8",
    )
    with pytest.raises(DataError, match="sample q"):
        load_dataset(path, "simple")


def test_missing_dataset_file(tmp_path):
    with pytest.raises(DataError):
        load_dataset(tmp_path / "absent.jsonl", "simple")


# -- cache robustness -------------------------------------------------------------


def test_cache_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.jsonl"
    path.write_text('{"format": "something-else"}\n', encoding="utf-8")
    with pytest.raises(DataError):
        EmbeddingCache(path)


def test_cache_tolerates_truncated_trailing_record(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = EmbeddingCache(path)
    gw = EmbeddingGateway(MockEmbeddingProvider(16), cache)
    gw.embed(["alpha", "beta"])
    with path.open("a", encoding="utf-8") as fp:
        fp.write('{"identity": "x", "text": "y", "dim": 16, "values": [0.')  # interrupted write
    reopened = EmbeddingCache(path)
    assert reopened.stats()["records"] == 2
    # Records appended after the cut one survive the next load.
    EmbeddingGateway(MockEmbeddingProvider(16), reopened).embed(["gamma", "delta", "epsilon"])
    again = EmbeddingCache(path)
    assert again.stats()["records"] == 5
    assert again.stats()["skipped"] == 1


# -- unicode and report shapes ------------------------------------------------------


def test_unicode_labels_roundtrip():
    g = load_triples(io.StringIO("Zürich\tlocation.city.país\tSchweiz ❄\n"))
    assert g.entity_id("Zürich") == 0
    assert load_triples(io.StringIO(g.dumps())).dumps() == g.dumps()


def test_match_report_empty_is_empty_string(gateway):
    g = graph_from([("a", "r", "b")])
    assert render_match_report(g, []) == ""
