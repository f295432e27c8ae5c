#!/usr/bin/env python3
"""Regenerate the shipped 20-question evaluation fixtures.

Builds a 40-entity toy knowledge graph, 20 questions over it, and the
scripted chat responses for every prompt the pipeline will issue (initial
planning, re-planning, and one response per reasoning batch). Since
prompts render byte-stably and the mock embeddings are deterministic, the
recorded digests replay exactly.

Run from the repository root:

    python3 scripts/make_fixtures.py

Outputs under tests/data/fixture20/:
    kg.tsv               the toy graph
    questions.jsonl      all 20 questions (simple dataset format)
    questions5.jsonl     the 5-question subset used by the small fixture
    llm_fixtures.jsonl   scripted chat responses keyed by prompt digest
    golden/              the CLI's outputs on these fixtures (see golden_outputs)

The script verifies the generated corpus end-to-end (Hit@1 = 1.0, call
counts match 2 + ceil(selected/8)) before writing the golden outputs.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile
from pathlib import Path
from unittest import mock

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from karpa.cli import main as karpa_main  # noqa: E402
from karpa.embeddings import EmbeddingGateway, MockEmbeddingProvider  # noqa: E402
from karpa.evaluation import evaluate, load_dataset  # noqa: E402
from karpa.kg import load_triples  # noqa: E402
from karpa.llm import ScriptedChatProvider, digest_messages  # noqa: E402
from karpa.matching import STRATEGIES, match_candidates  # noqa: E402
from karpa.pipeline import Pipeline, make_sample_runner  # noqa: E402
from karpa.config import PipelineConfig  # noqa: E402
from karpa.planner import (  # noqa: E402
    Query,
    build_initial_prompt,
    build_replanning_prompt,
    extract_relation_pool,
    parse_path_sets,
)
from karpa.reasoner import build_reasoning_prompt  # noqa: E402

OUT_DIR = REPO / "tests" / "data" / "fixture20"
GOLDEN_DIR = OUT_DIR / "golden"

REL_MAIN_COUNTRY = "language.human_language.main_country"
REL_OFFICE_HOLDER = "government.government_position_held.office_holder"
REL_CAPITAL = "location.country.capital_city"
REL_CURRENCY = "location.country.currency_used"
REL_FILMS = "film.director.films_directed"
REL_ALBUMS = "music.artist.albums_released"
REL_SPOUSE = "people.person.spouse_s"
REL_BIRTHPLACE = "people.person.place_of_birth"

LANGS = ["Lurvish Language", "Quenti Language", "Mardek Language"]
COUNTRIES = ["Veldoria", "Quentara", "Mardekia"]
PRESIDENTS = ["Orla Venn", "Casimir Holt", "Petra Lindqvist"]
CAPITALS = ["Veld City", "Quent Harbor", "Mardek Falls"]
CURRENCIES = ["veldorian crown", "quentara mark", "mardekian pound"]
DIRECTOR = "Orven Hale"
DIRECTOR_SPOUSE = "Ansel Hale"
FILMS = [f"The {name} Reel" for name in [
    "Silent", "Amber", "Crooked", "Seventh", "Paper", "Hollow",
    "Winter", "Glass", "Copper", "Burning", "Quiet", "Last",
]]
ARTIST = "Mira Solen"
ALBUMS = [f"{name} Sessions" for name in [
    "Harbor", "Northern", "Velvet", "Ashen", "Golden",
    "Midnight", "Wandering", "Scarlet", "Ivory", "Echo",
]]


def build_triples() -> list[tuple[str, str, str]]:
    triples = []
    for lang, country in zip(LANGS, COUNTRIES):
        triples.append((lang, REL_MAIN_COUNTRY, country))
    for country, president in zip(COUNTRIES, PRESIDENTS):
        triples.append((country, REL_OFFICE_HOLDER, president))
    for country, capital in zip(COUNTRIES, CAPITALS):
        triples.append((country, REL_CAPITAL, capital))
    for country, currency in zip(COUNTRIES, CURRENCIES):
        triples.append((country, REL_CURRENCY, currency))
    for film in FILMS:
        triples.append((DIRECTOR, REL_FILMS, film))
    for album in ALBUMS:
        triples.append((ARTIST, REL_ALBUMS, album))
    triples.append((DIRECTOR, REL_SPOUSE, DIRECTOR_SPOUSE))
    for president, capital in zip(PRESIDENTS, CAPITALS):
        triples.append((president, REL_BIRTHPLACE, capital))
    return triples


def plan_text(paths_by_length: dict[int, list[str]]) -> str:
    """Exemplar-format planning answer proposing the given relation paths."""
    lines = []
    for length in (1, 2, 3):
        relations = paths_by_length.get(length)
        if relations:
            body = ", ".join(relations)
            lines.append(
                f"Length {length} reasoning path: The answer may be reached through the "
                f"chosen relations. Therefore, the length {length} reasoning path is: {{{body}}}."
            )
        else:
            lines.append(
                f"Length {length} reasoning path: The answer entity does not require "
                f"{length} steps to reach, so the length {length} reasoning path is None: {{}}."
            )
    return "\n".join(lines)


def build_questions() -> list[dict]:
    questions = []

    def add(qid, question, topic, answers, plan):
        questions.append(
            {
                "id": qid,
                "question": question,
                "topics": [topic],
                "answers": [[a] for a in answers],
                "plan": plan,
            }
        )

    for i, (lang, president) in enumerate(zip(LANGS, PRESIDENTS), start=1):
        add(
            f"q{i:02d}",
            f"Name the president of the country whose main spoken language is {lang.split()[0]}?",
            lang,
            [president],
            {1: [REL_MAIN_COUNTRY], 2: [REL_MAIN_COUNTRY, REL_OFFICE_HOLDER]},
        )
    for i, (country, currency) in enumerate(zip(COUNTRIES, CURRENCIES), start=4):
        add(
            f"q{i:02d}",
            f"What form of currency is used in {country}?",
            country,
            [currency],
            {1: [REL_CURRENCY]},
        )
    for i, (country, capital) in enumerate(zip(COUNTRIES, CAPITALS), start=7):
        add(
            f"q{i:02d}",
            f"What is the capital city of {country}?",
            country,
            [capital],
            {1: [REL_CAPITAL]},
        )
    for i, (lang, country) in enumerate(zip(LANGS, COUNTRIES), start=10):
        add(
            f"q{i:02d}",
            f"Which country is {lang} mainly spoken in?",
            lang,
            [country],
            {1: [REL_MAIN_COUNTRY]},
        )
    add("q13", f"Who is {DIRECTOR} married to?", DIRECTOR, [DIRECTOR_SPOUSE], {1: [REL_SPOUSE]})
    add("q14", f"Which films did {DIRECTOR} direct?", DIRECTOR, FILMS, {1: [REL_FILMS]})
    add("q15", f"Which albums has {ARTIST} released?", ARTIST, ALBUMS, {1: [REL_ALBUMS]})
    for i, (country, president) in enumerate(zip(COUNTRIES, PRESIDENTS), start=16):
        add(
            f"q{i:02d}",
            f"Who holds the office of president in {country}?",
            country,
            [president],
            {1: [REL_OFFICE_HOLDER]},
        )
    add("q19", f"Where was {PRESIDENTS[0]} born?", PRESIDENTS[0], [CAPITALS[0]], {1: [REL_BIRTHPLACE]})
    add("q20", f"List the albums released by {ARTIST}.", ARTIST, ALBUMS, {1: [REL_ALBUMS]})
    return questions


SMALL_SUBSET = ["q01", "q04", "q07", "q10", "q16"]


def synthesize_fixtures(g, embedder, cfg, questions) -> tuple[dict[str, str], dict[str, int]]:
    """Record a scripted response for every prompt the pipeline will issue."""
    fixtures: dict[str, str] = {}
    selected_counts: dict[str, int] = {}
    vocab = g.relation_vocabulary()
    for spec in questions:
        query = Query(spec["id"], spec["question"], tuple(spec["topics"]))
        text = plan_text(spec["plan"])
        fixtures[digest_messages(build_initial_prompt(query))] = text

        initial = parse_path_sets(text)
        pool = extract_relation_pool(
            initial, vocab, embedder, per_relation_k=cfg.planner.per_relation_k,
            cap=cfg.planner.relation_cap,
        )
        fixtures[digest_messages(build_replanning_prompt(query, pool))] = text

        topic_id = g.entity_id(spec["topics"][0])
        assert topic_id is not None, f"unresolvable topic {spec['topics']}"
        selected = match_candidates(g, topic_id, initial.all_paths(), cfg.matcher, embedder)
        selected_counts[spec["id"]] = len(selected)

        gold = {a[0] for a in spec["answers"]}
        gold_seen = set()
        limit = cfg.reasoner.batch_limit
        for start in range(0, len(selected), limit):
            batch = selected[start : start + limit]
            tails = [g.entity_label(p.path.tail) for p in batch]
            hits = [t for t in tails if t in gold]
            gold_seen.update(hits)
            response = "{" + ", ".join(dict.fromkeys(hits)) + "}" if hits else "no correct tail entity here: {}"
            fixtures[digest_messages(build_reasoning_prompt(query, batch, g))] = response
        assert gold_seen == gold, f"{spec['id']}: gold answers {gold - gold_seen} not reachable"
    return fixtures, selected_counts


def verify(out_dir: Path, selected_counts: dict[str, int]) -> None:
    cfg = PipelineConfig()
    cfg.kg.path = str(out_dir / "kg.tsv")
    cfg.llm.kind = "scripted"
    cfg.llm.fixtures = str(out_dir / "llm_fixtures.jsonl")

    g = load_triples((out_dir / "kg.tsv").read_text(encoding="utf-8").splitlines())
    embedder = EmbeddingGateway(MockEmbeddingProvider(64))
    provider = ScriptedChatProvider.from_file(out_dir / "llm_fixtures.jsonl")
    pipeline = Pipeline(cfg, g, embedder, provider)

    samples = load_dataset(out_dir / "questions.jsonl", "simple")
    report = evaluate(samples, make_sample_runner(pipeline))
    assert report.aggregates["hit1"] == 1.0, report.aggregates
    assert report.aggregates["f1"] == 1.0, report.aggregates
    for record in report.records:
        expected = 2 + math.ceil(selected_counts[record.sample_id] / 8)
        assert record.usage["calls"] == expected, (record.sample_id, record.usage["calls"], expected)
    mean_calls = report.aggregates["calls_per_question"]
    assert 3.0 <= mean_calls <= 4.0, mean_calls
    print(f"verified: hit1=1.0 f1=1.0 calls/question={mean_calls}")


def golden_outputs() -> dict[str, bytes]:
    """What the CLI writes for the shipped fixtures, by golden file name.

    ``eval`` over all 20 questions (report and summary TSV), the trace of one
    ``ask``, and ``match`` with each strategy, forward and with inverse
    edges. The config names the fixtures by repo-relative paths and the runs
    start in the repository root with no ``KARPA_*`` variable set, so the
    reports' ``config_digest`` does not depend on where the repository lives.
    """
    first = build_questions()[0]
    topic = first["topics"][0]
    path = ",".join(first["plan"][2])
    config = (
        "kg.path = tests/data/fixture20/kg.tsv\n"
        "llm.kind = scripted\n"
        "llm.fixtures = tests/data/fixture20/llm_fixtures.jsonl\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("KARPA_")}
    outputs: dict[str, bytes] = {}
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ, env, clear=True):
        work = Path(tmp)
        forward, inverse = work / "forward.conf", work / "inverse.conf"
        forward.write_text(config, encoding="utf-8")
        inverse.write_text(config + "kg.inverse_edges = true\n", encoding="utf-8")

        def run(conf: Path, *argv: str) -> bytes:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                code = karpa_main(["--config", str(conf), *argv])
            if code != 0:
                raise RuntimeError(f"karpa {' '.join(argv)} exited {code}")
            return stdout.getvalue().encode("utf-8")

        os.chdir(REPO)
        try:
            run(forward, "eval", "--dataset", "tests/data/fixture20/questions.jsonl",
                "--report", str(work / "eval_report.txt"), "--tsv", str(work / "eval_summary.tsv"))
            run(forward, "ask", "--question", first["question"], "--topic", topic,
                "--id", first["id"], "--trace", str(work / "ask_trace.jsonl"))
            for name in ("eval_report.txt", "eval_summary.tsv", "ask_trace.jsonl"):
                outputs[name] = (work / name).read_bytes()
            for strategy in STRATEGIES:
                for direction, conf in (("forward", forward), ("inverse", inverse)):
                    outputs[f"match_{strategy}_{direction}.txt"] = run(
                        conf, "match", "--topic", topic, "--path", path, "--strategy", strategy
                    )
        finally:
            os.chdir(cwd)
    return outputs


def main() -> None:
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    triples = build_triples()
    entities = {h for h, _, t in triples} | {t for _, _, t in triples}
    assert len(entities) == 40, f"expected a 40-entity graph, got {len(entities)}"

    g = load_triples(f"{h}\t{r}\t{t}" for h, r, t in triples)
    embedder = EmbeddingGateway(MockEmbeddingProvider(64))
    cfg = PipelineConfig()

    questions = build_questions()
    fixtures, selected_counts = synthesize_fixtures(g, embedder, cfg, questions)

    kg_path = OUT_DIR / "kg.tsv"
    kg_path.write_text("".join(f"{h}\t{r}\t{t}\n" for h, r, t in triples), encoding="utf-8")

    with (OUT_DIR / "questions.jsonl").open("w", encoding="utf-8") as fp:
        for spec in questions:
            record = {k: spec[k] for k in ("id", "question", "topics", "answers")}
            fp.write(json.dumps(record, ensure_ascii=False) + "\n")
    with (OUT_DIR / "questions5.jsonl").open("w", encoding="utf-8") as fp:
        for spec in questions:
            if spec["id"] in SMALL_SUBSET:
                record = {k: spec[k] for k in ("id", "question", "topics", "answers")}
                fp.write(json.dumps(record, ensure_ascii=False) + "\n")

    with (OUT_DIR / "llm_fixtures.jsonl").open("w", encoding="utf-8") as fp:
        for digest, text in sorted(fixtures.items()):
            fp.write(json.dumps({"digest": digest, "response_text": text}, ensure_ascii=False) + "\n")

    print(f"wrote {len(triples)} triples, {len(questions)} questions, {len(fixtures)} chat fixtures")
    verify(OUT_DIR, selected_counts)

    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, data in golden_outputs().items():
        (GOLDEN_DIR / name).write_bytes(data)
    print(f"wrote golden outputs to {GOLDEN_DIR.relative_to(REPO)}")


if __name__ == "__main__":
    main()
