"""Acceptance gate: one test per criterion, each printed pass/fail at the end.

Criteria 1-8 run offline against mock embeddings and scripted chat
providers; criterion 9 (live endpoints) is opt-in via KARPA_LIVE_EVAL.
"""

import json
import math
import os
import random
import time
from pathlib import Path

import pytest

from karpa.cli import EXIT_OK, main
from karpa.evaluation import score_sample
from karpa.matching import (
    MatchConfig,
    RelationPath,
    beam_match,
    dijkstra_avg_match,
    heuristic_top_k,
)
from karpa.planner import parse_path_sets
from karpa.reasoner import AnswerSet, parse_answers

from helpers import graph_from, random_graph
from oracles import brute_force_top_k, step_cost

DATA = Path(__file__).parent / "data" / "fixture20"


def _sig(paths):
    return [(p.relation_path.relations, p.path.entities(), round(p.score, 12)) for p in paths]


# -- 1. oracle equivalence ----------------------------------------------------------


def test_criterion_1_oracle_equivalence(gateway):
    started = time.monotonic()
    for index in range(50):
        rng = random.Random(1000 + index)
        g = random_graph(
            rng,
            n_entities=rng.randint(20, 120),
            n_relations=rng.randint(8, 30),
            max_out_degree=3,
        )
        candidate = RelationPath(
            tuple(rng.choice(g.relation_vocabulary()) for _ in range(rng.randint(1, 3)))
        )
        max_len = len(candidate) + 1

        exact_cfg = MatchConfig(strategy="heuristic", top_k=16, exact_mode=True, max_len=max_len)
        heuristic = heuristic_top_k(g, 0, candidate, exact_cfg, gateway)
        oracle = brute_force_top_k(g, 0, candidate, 16, max_len, gateway)
        assert _sig(heuristic) == _sig(oracle), f"graph seed {1000 + index}: heuristic != oracle"

        dijkstra = dijkstra_avg_match(
            g, 0, candidate, MatchConfig(strategy="pathfind", top_k=16), gateway
        )
        mean_oracle = brute_force_top_k(
            g, 0, candidate, 16, len(candidate), gateway, scoring="mean_step_cost"
        )
        assert bool(dijkstra) == bool(mean_oracle), f"graph seed {1000 + index}"
        if dijkstra:
            assert dijkstra[0].relation_path.relations == mean_oracle[0].relation_path.relations
            assert dijkstra[0].path.entities() == mean_oracle[0].path.entities()
            assert dijkstra[0].cost == pytest.approx(mean_oracle[0].cost, abs=1e-12)
    elapsed = time.monotonic() - started
    assert elapsed < 120.0, f"oracle equivalence suite took {elapsed:.1f}s"


# -- 2. global-vs-local demonstration ------------------------------------------------


def test_criterion_2_beam_trap_regression(gateway):
    g = graph_from(
        [
            ("A", "person.family.father", "DeadEnd"),
            ("A", "person.family.parent", "Mid"),
            ("DeadEnd", "zz.qq.ww", "WrongVille"),
            ("Mid", "person.family.spouse", "GoldTown"),
        ]
    )
    candidate = RelationPath(("person.family.father", "person.family.spouse"))
    a = g.entity_id("A")
    gold = g.entity_id("GoldTown")

    narrow = beam_match(g, a, candidate, MatchConfig(strategy="beam", beam_width=1, top_k=16), gateway)
    assert gold not in [p.path.tail for p in narrow], "width-1 beam should miss the optimum"

    dijkstra = dijkstra_avg_match(g, a, candidate, MatchConfig(strategy="pathfind", top_k=16), gateway)
    assert dijkstra[0].path.tail == gold
    assert dijkstra[0].cost < narrow[0].cost

    heuristic = heuristic_top_k(g, a, candidate, MatchConfig(strategy="heuristic", top_k=16), gateway)
    tails = [p.path.tail for p in heuristic]
    assert gold in tails
    assert tails.index(gold) < tails.index(g.entity_id("WrongVille"))


# -- 3. length fairness ----------------------------------------------------------------


def test_criterion_3_length_fairness(gateway):
    triples = [(f"c{i}", "link.rel.x", f"c{i+1}") for i in range(5)]
    g = graph_from(triples)
    unit = step_cost(gateway, "link.rel.x", "q.w.e")
    for length in range(1, 5):
        candidate = RelationPath(tuple(["q.w.e"] * length))
        best = dijkstra_avg_match(g, 0, candidate, MatchConfig(strategy="pathfind"), gateway)[0]
        assert abs(best.cost - unit) <= 1e-9, f"length {length}: {best.cost} vs {unit}"
        oracle = brute_force_top_k(g, 0, candidate, 1, length, gateway, scoring="mean_step_cost")[0]
        assert abs(oracle.cost - unit) <= 1e-9


# -- 4. variable-length matching ---------------------------------------------------------


def test_criterion_4_variable_length_matching(gateway):
    g = graph_from(
        [
            ("A", "grandfather", "B"),
            ("A", "grand", "C"),
            ("C", "father", "B"),
        ]
    )
    candidate = RelationPath(("grandfather",))
    a = g.entity_id("A")
    top2 = heuristic_top_k(g, a, candidate, MatchConfig(strategy="heuristic", top_k=2), gateway)
    label_seqs = {p.relation_path.relations for p in top2}
    assert ("grandfather",) in label_seqs, "1-hop edge must be in top-2"
    assert ("grand", "father") in label_seqs, "2-hop chain must be in top-2"

    fixed = dijkstra_avg_match(g, a, candidate, MatchConfig(strategy="pathfind", top_k=16), gateway)
    assert fixed, "fixed-length matcher returns 1-hop paths"
    assert all(len(p.path) == 1 for p in fixed), "length-1 candidate cannot yield a 2-hop path"


# -- 5 & 8 need the shipped scripted corpus ------------------------------------------------


def _write_eval_config(tmp_path, name, concurrency, checkpoint_dir):
    conf = tmp_path / name
    conf.write_text(
        f"kg.path = {DATA / 'kg.tsv'}\n"
        "embedding.kind = mock\n"
        "llm.kind = scripted\n"
        f"llm.fixtures = {DATA / 'llm_fixtures.jsonl'}\n"
        f"eval.concurrency = {concurrency}\n"
        f"eval.checkpoint_dir = {checkpoint_dir}\n",
        encoding="utf-8",
    )
    return conf


def _run_eval(tmp_path, tag, concurrency=1):
    checkpoints = tmp_path / f"ckpt-{tag}"
    conf = _write_eval_config(tmp_path, f"{tag}.conf", concurrency, checkpoints)
    report_path = tmp_path / f"report-{tag}.txt"
    code = main(
        [
            "--config",
            str(conf),
            "eval",
            "--dataset",
            str(DATA / "questions.jsonl"),
            "--format",
            "simple",
            "--report",
            str(report_path),
        ]
    )
    assert code == EXIT_OK
    return report_path.read_bytes(), checkpoints


def test_criterion_5_interaction_accounting(tmp_path):
    report_bytes, checkpoints = _run_eval(tmp_path, "accounting")
    text = report_bytes.decode("utf-8")
    records = [
        json.loads(line)
        for line in text.splitlines()
        if line.startswith("{") and '"id"' in line
    ]
    assert len(records) == 20

    selected_by_id = {}
    for trace_file in checkpoints.glob("*.trace.jsonl"):
        events = [json.loads(l) for l in trace_file.read_text(encoding="utf-8").splitlines()]
        selected = next(e for e in events if e["event"] == "selected")
        sample_id = trace_file.name.split("-")[0]
        selected_by_id[sample_id] = selected["count"]

    calls = []
    for record in records:
        expected = 2 + math.ceil(selected_by_id[record["id"]] / 8)
        assert record["usage"]["calls"] == expected, record["id"]
        calls.append(record["usage"]["calls"])
    mean_calls = sum(calls) / len(calls)
    assert 3.0 <= mean_calls <= 4.0, mean_calls

    aggregates = json.loads(text.split("== aggregates ==\n")[1].splitlines()[0])
    assert aggregates["calls_per_question"] == pytest.approx(mean_calls)
    assert aggregates["hit1"] == 1.0


def test_criterion_5b_small_fixture_three_calls(tmp_path):
    checkpoints = tmp_path / "ckpt-small"
    conf = _write_eval_config(tmp_path, "small.conf", 1, checkpoints)
    report_path = tmp_path / "report-small.txt"
    code = main(
        [
            "--config", str(conf),
            "eval",
            "--dataset", str(DATA / "questions5.jsonl"),
            "--format", "simple",
            "--report", str(report_path),
        ]
    )
    assert code == EXIT_OK
    text = report_path.read_text(encoding="utf-8")
    aggregates = json.loads(text.split("== aggregates ==\n")[1].splitlines()[0])
    assert aggregates["hit1"] == 1.0
    assert aggregates["calls_per_question"] == pytest.approx(3.0)


# -- 6. prompt/parse fidelity ---------------------------------------------------------------


def test_criterion_6_prompt_parse_fidelity():
    planning_answer = (
        "Length 1 reasoning path: The answer entity cannot be reached within a single step, "
        "so the length 1 reasoning path is None: {}.\n"
        "Length 2 reasoning path: So the length 2 reasoning path is: "
        "{language.human_language.main_country, government.government_position_held.office_holder}.\n"
        "Length 3 reasoning path: None: {}."
    )
    parsed = parse_path_sets(planning_answer)
    assert parsed.by_length[2][0].relations == (
        "language.human_language.main_country",
        "government.government_position_held.office_holder",
    )
    assert parsed.by_length[1] == [] and parsed.by_length[3] == []

    reasoning_answer = "Therefore, the correct tail entity is:\n{Kenyan shilling}."
    answers = parse_answers(reasoning_answer)
    assert answers.answers == ["Kenyan shilling"]

    from karpa.planner import load_template

    initial = load_template("initial_planning.txt")
    assert (
        "{language.human_language.main_country, government.government_position_held.office_holder}"
        in initial
    )
    reasoning = load_template("reasoning.txt")
    assert "{Kenyan shilling}" in reasoning
    assert "(Rift Valley Province, location.administrative division.country, Kenya)" in reasoning


# -- 7. metric correctness ---------------------------------------------------------------------


def _answers(*surfaces, ungrounded=()):
    a = AnswerSet()
    for s in surfaces:
        a.add(s, 0)
    a.ungrounded = set(ungrounded)
    return a


def test_criterion_7_metric_correctness():
    s = score_sample(_answers("a"), [["a"]])
    assert (s.hit1, s.precision, s.recall, s.f1, s.exact) == (1, 1.0, 1.0, 1.0, 1)

    s = score_sample(_answers("a", "b"), [["a"], ["c"]])
    assert s.hit1 == 1
    assert (s.precision, s.recall, s.f1, s.exact) == (0.5, 0.5, 0.5, 0)

    s = score_sample(_answers(), [["a"]])
    assert (s.hit1, s.precision, s.recall, s.f1, s.exact) == (0, 0.0, 0.0, 0.0, 0)

    rng = random.Random(20240817)
    for _ in range(1000):
        universe = [f"e{i}" for i in range(9)]
        preds = rng.sample(universe, rng.randint(0, 7))
        ungrounded = {p.casefold() for p in preds if rng.random() < 0.3}
        golds = [[rng.choice(universe)] for _ in range(rng.randint(1, 6))]
        mode = rng.choice(["strict", "lenient"])
        s = score_sample(_answers(*preds, ungrounded=ungrounded), golds, mode=mode)
        if s.precision + s.recall > 0:
            assert s.f1 == pytest.approx(2 * s.precision * s.recall / (s.precision + s.recall), abs=1e-12)
        else:
            assert s.f1 == 0.0
        assert 0.0 <= s.precision <= 1.0 and 0.0 <= s.recall <= 1.0 and 0.0 <= s.f1 <= 1.0
        assert s.hit1 in (0, 1) and s.exact in (0, 1)


# -- 8. end-to-end determinism -------------------------------------------------------------------


def test_criterion_8_end_to_end_determinism(tmp_path):
    first, _ = _run_eval(tmp_path, "run1")
    second, _ = _run_eval(tmp_path, "run2")
    assert first == second, "two sequential runs must be byte-identical"

    concurrent, _ = _run_eval(tmp_path, "run4", concurrency=4)
    assert first == concurrent, "single-threaded and concurrent runs must be byte-identical"


# -- 9. optional live mode -----------------------------------------------------------------------


@pytest.mark.skipif(
    not os.environ.get("KARPA_LIVE_EVAL"),
    reason="live mode is opt-in: set KARPA_LIVE_EVAL=1 with KARPA_LIVE_CONFIG, "
    "KARPA_LIVE_DATASET and KARPA_LIVE_FORMAT pointing at real endpoints/data",
)
def test_criterion_9_live_mode(tmp_path):
    config = os.environ["KARPA_LIVE_CONFIG"]
    dataset = os.environ["KARPA_LIVE_DATASET"]
    fmt = os.environ.get("KARPA_LIVE_FORMAT", "webqsp")
    report_path = tmp_path / "live-report.txt"
    code = main(
        ["--config", config, "eval", "--dataset", dataset, "--format", fmt,
         "--report", str(report_path)]
    )
    assert code == EXIT_OK
    text = report_path.read_text(encoding="utf-8")
    assert text.startswith("karpa evaluation report")
    assert "== aggregates ==" in text
