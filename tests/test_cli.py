import json
import os
import random
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from karpa.cli import EXIT_CONFIG, EXIT_DATA, EXIT_OK, EXIT_PROVIDER, main
from karpa.config import config_digest, env_name, load_config, parse_config_text, resolve_values, build_config
from karpa.embeddings import EmbeddingCache, MockEmbeddingProvider, mock_embed
from karpa.errors import ConfigError
from karpa.kg import load_triples_path
from karpa.llm import digest_messages
from karpa.matching import STRATEGIES
from karpa.pipeline import load_graph
from karpa.planner import Query, build_initial_prompt

FIXTURE20 = Path(__file__).parent / "data" / "fixture20"


@pytest.fixture()
def kg_file(tmp_path):
    path = tmp_path / "kg.tsv"
    path.write_text(
        "A\tperson.family.father\tB\nB\tperson.family.spouse\tC\nA\tperson.family.parent\tD\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture()
def config_file(tmp_path, kg_file):
    path = tmp_path / "karpa.conf"
    path.write_text(
        f"kg.path = {kg_file}\n"
        "embedding.kind = mock\n"
        "llm.kind = mock\n"
        "matcher.top_k = 4\n",
        encoding="utf-8",
    )
    return path


# -- config parsing ------------------------------------------------------------


def test_parse_config_text_basics():
    values = parse_config_text("# comment\nmatcher.top_k = 8\n\nkg.path = /x/y.tsv\n")
    assert values == {"matcher.top_k": "8", "kg.path": "/x/y.tsv"}


def test_parse_config_unknown_key():
    with pytest.raises(ConfigError):
        parse_config_text("matcher.width = 9\n")


def test_parse_config_bad_line():
    with pytest.raises(ConfigError):
        parse_config_text("just some words\n")


def test_env_overrides_file(config_file):
    cfg = load_config(config_file, env={})
    assert cfg.matcher.top_k == 4
    cfg2 = load_config(config_file, env={"KARPA_MATCHER_TOP_K": "9"})
    assert cfg2.matcher.top_k == 9


def test_env_names_are_dotted_keys_upcased():
    assert env_name("matcher.top_k") == "KARPA_MATCHER_TOP_K"
    assert env_name("kg.inverse_edges") == "KARPA_KG_INVERSE_EDGES"


def test_a_boolean_setting_that_is_not_a_boolean_word_is_config_error():
    with pytest.raises(ConfigError, match="bad value for kg.inverse_edges: 'maybe'"):
        resolve_values({}, env={"KARPA_KG_INVERSE_EDGES": "maybe"})


def test_karpa_config_env_selects_file(config_file):
    cfg = load_config(None, env={"KARPA_CONFIG": str(config_file)})
    assert cfg.matcher.top_k == 4


def test_bad_value_is_config_error():
    with pytest.raises(ConfigError):
        build_config(resolve_values({"matcher.top_k": "many"}, env={}))


def test_bad_provider_kind_is_config_error():
    with pytest.raises(ConfigError):
        build_config(resolve_values({"llm.kind": "telepathy"}, env={}))


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_temperature_is_config_error(value):
    with pytest.raises(ConfigError, match="llm.temperature must be a finite number"):
        build_config(resolve_values({"llm.temperature": value}, env={}))


def test_ask_with_non_finite_temperature_exits_config_error(config_file, monkeypatch, capsys):
    monkeypatch.setenv("KARPA_LLM_TEMPERATURE", "nan")
    code = main(["--config", str(config_file), "ask", "--question", "Q?", "--topic", "A"])
    assert code == EXIT_CONFIG
    assert "llm.temperature must be a finite number" in capsys.readouterr().err


@pytest.mark.parametrize("section", ["llm", "embedding"])
@pytest.mark.parametrize("endpoint", ["", "127.0.0.1:9/v1", "localhost:9/v1", "file:///etc/hosts", "http://", "https:///v1", "http:"])
def test_http_endpoint_that_is_not_an_http_url_is_config_error(config_file, monkeypatch, capsys, section, endpoint):
    monkeypatch.setenv(env_name(f"{section}.kind"), "http")
    monkeypatch.setenv(env_name(f"{section}.endpoint"), endpoint)
    code = main(["--config", str(config_file), "ask", "--question", "Q?", "--topic", "A"])
    assert code == EXIT_CONFIG
    assert f"{section}.endpoint must be an http:// or https:// URL" in capsys.readouterr().err


@pytest.mark.parametrize(
    "flag, walked",
    [
        ("false", [("person.family.spouse", "C")]),
        ("true", [("person.family.spouse", "C"), ("person.family.father~inv", "A")]),
    ],
    ids=["false", "true"],
)
def test_inverse_edges_flag_makes_load_graph_walk_backwards(kg_file, flag, walked):
    cfg = build_config(resolve_values({"kg.path": str(kg_file), "kg.inverse_edges": flag}, env={}))
    g = load_graph(cfg)
    b = g.entity_id("B")
    assert [(g.relation_label(rid), g.entity_label(nid)) for rid, nid in g.neighbors(b)] == walked


@pytest.mark.parametrize(
    "key, value",
    [
        ("matcher.top_k", "0"),
        ("matcher.max_len", "0"),
        ("matcher.strategy", "bogus"),
        ("embedding.dim", "4"),
        ("planner.per_relation_k", "0"),
        ("planner.per_relation_k", "-1"),
        ("embedding.kind", "bogus"),
        ("eval.mode", "bogus"),
        ("eval.concurrency", "0"),
        ("planner.relation_cap", "0"),
        ("reasoner.batch_limit", "0"),
        ("llm.max_output", "0"),
    ],
)
def test_out_of_range_value_is_config_error_before_the_graph_loads(
    config_file, tmp_path, monkeypatch, capsys, key, value
):
    # The graph file is absent: loading it first would be a data error.
    monkeypatch.setenv("KARPA_KG_PATH", str(tmp_path / "absent.tsv"))
    monkeypatch.setenv(env_name(key), value)
    code = main(["--config", str(config_file), "ask", "--question", "Q?", "--topic", "A"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    section, attr = key.split(".")
    assert err.startswith("config error: ")
    assert section in err and attr in err


@pytest.mark.parametrize(
    "command, settings, named",
    [
        pytest.param(command, settings, named, id=f"{command}-{named}")
        for command in ("ask", "eval", "match")
        for settings, named in [
            ({"embedding.cache_path": "{tmp}/no/such/c.jsonl"}, "embedding.cache_path"),
            ({"embedding.kind": "scripted"}, "embedding.fixtures"),
            ({"llm.kind": "http", "llm.endpoint": "ftp://x"}, "llm.endpoint"),
            ({"llm.kind": "scripted"}, "llm.fixtures"),
            ({"kg.path": ""}, "kg.path"),
        ]
        if not (command == "match" and named.startswith("llm."))  # match asks no LLM
    ],
)
def test_provider_config_error_is_reported_before_the_graph_loads(
    config_file, tmp_path, monkeypatch, capsys, command, settings, named
):
    # The graph file is absent: loading it first would be a data error.
    monkeypatch.setenv("KARPA_KG_PATH", str(tmp_path / "absent.tsv"))
    for key, value in settings.items():
        monkeypatch.setenv(env_name(key), value.format(tmp=tmp_path))
    dataset = tmp_path / "data.jsonl"
    dataset.write_text(
        json.dumps({"id": "q1", "question": "Q?", "topics": ["A"], "answers": [["C"]]}) + "\n",
        encoding="utf-8",
    )
    args = {
        "ask": ["ask", "--question", "Q?", "--topic", "A"],
        "eval": ["eval", "--dataset", str(dataset)],
        "match": ["match", "--topic", "A", "--path", "person.family.father"],
    }[command]
    assert main(["--config", str(config_file), *args]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and named in err


@pytest.mark.parametrize("command", ["ask", "eval"])
def test_cache_path_in_a_missing_directory_is_config_error(
    config_file, tmp_path, monkeypatch, capsys, command
):
    dataset = tmp_path / "data.jsonl"
    dataset.write_text(
        json.dumps({"id": "q1", "question": "Q?", "topics": ["A"], "answers": [["C"]]}) + "\n",
        encoding="utf-8",
    )
    monkeypatch.setenv("KARPA_EMBEDDING_CACHE_PATH", str(tmp_path / "no" / "such" / "c.jsonl"))
    args = {
        "ask": ["ask", "--question", "Q?", "--topic", "A"],
        "eval": ["eval", "--dataset", str(dataset), "--report", str(tmp_path / "report.txt")],
    }[command]
    assert main(["--config", str(config_file), *args]) == EXIT_CONFIG
    assert "config error: embedding.cache_path" in capsys.readouterr().err
    assert not (tmp_path / "report.txt").exists()
    # Inspecting the cache is not running questions: stats reads no file.
    assert main(["--config", str(config_file), "cache", "stats"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["records"] == 0


@pytest.mark.parametrize("option", ["dump", "trace", "report", "tsv"])
def test_output_path_in_a_missing_directory_or_naming_one_is_config_error_before_the_graph_loads(
    config_file, tmp_path, capsys, option
):
    dataset = tmp_path / "data.jsonl"
    dataset.write_text(
        json.dumps({"id": "q1", "question": "Q?", "topics": ["A"], "answers": [["C"]]}) + "\n",
        encoding="utf-8",
    )
    missing = tmp_path / "no" / "such" / "out.txt"
    # A missing graph is a data error (3): a run that reached it checked its output too late.
    with config_file.open("a", encoding="utf-8") as fp:
        fp.write(f"kg.path = {tmp_path / 'no_graph.tsv'}\n")
    args = {
        "dump": ["ingest", str(tmp_path / "no_graph.tsv")],
        "trace": ["ask", "--question", "Q?", "--topic", "A"],
        "report": ["eval", "--dataset", str(dataset)],
        "tsv": ["eval", "--dataset", str(dataset)],
    }[option]
    assert main(["--config", str(config_file), *args, f"--{option}", str(missing)]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: --{option} is in a missing directory: {missing}\n")
    assert main(["--config", str(config_file), *args, f"--{option}", str(tmp_path)]) == EXIT_CONFIG
    assert capsys.readouterr() == ("", f"config error: --{option} is a directory: {tmp_path}\n")


@pytest.mark.parametrize("under", [False, True], ids=["a-file", "under-a-file"])
def test_checkpoint_dir_that_is_a_file_or_under_one_is_config_error_before_the_graph_loads(
    config_file, tmp_path, capsys, under
):
    dataset = tmp_path / "data.jsonl"
    dataset.write_text(
        json.dumps({"id": "q1", "question": "Q?", "topics": ["A"], "answers": [["C"]]}) + "\n",
        encoding="utf-8",
    )
    blocker = tmp_path / "ckpt"
    blocker.write_text("not a directory\n", encoding="utf-8")
    checkpoint_dir = blocker / "run1" if under else blocker
    # A missing graph is a data error (3): a run that reached it checked the directory too late.
    with config_file.open("a", encoding="utf-8") as fp:
        fp.write(f"kg.path = {tmp_path / 'no_graph.tsv'}\neval.checkpoint_dir = {checkpoint_dir}\n")
    report = tmp_path / "report.txt"
    code = main(["--config", str(config_file), "eval", "--dataset", str(dataset), "--report", str(report)])
    assert code == EXIT_CONFIG
    where = f"is under a file, {blocker}" if under else "is a file"
    assert capsys.readouterr() == ("", f"config error: eval.checkpoint_dir {where}: {checkpoint_dir}\n")
    assert not report.exists()
    assert blocker.read_text(encoding="utf-8") == "not a directory\n"


@pytest.mark.parametrize("command", ["ask", "eval"])
def test_cached_vectors_of_another_dim_are_provider_error(tmp_path, capsys, command):
    # A vector of dim 8 cached under the identity of a dim-64 mock, as when
    # the model behind an identity changed: the first request, over every
    # relation label, takes it from the cache and the rest from the mock.
    # It fails every question, so eval ends with it, as ask does, at any
    # concurrency, and checkpoints no question it failed.
    label = load_triples_path(FIXTURE20 / "kg.tsv").relations[0]
    identity = MockEmbeddingProvider(64).identity
    for concurrency in (1, 2) if command == "eval" else (1,):
        run = tmp_path / f"c{concurrency}"
        run.mkdir()
        cache_path = run / "cache.jsonl"
        EmbeddingCache(cache_path).put(identity, label, mock_embed(label, 8))
        config = run / "karpa.conf"
        config.write_text(
            f"kg.path = {FIXTURE20 / 'kg.tsv'}\n"
            "llm.kind = scripted\n"
            f"llm.fixtures = {FIXTURE20 / 'llm_fixtures.jsonl'}\n"
            f"embedding.cache_path = {cache_path}\n"
            f"eval.concurrency = {concurrency}\n"
            f"eval.checkpoint_dir = {run / 'checkpoints'}\n",
            encoding="utf-8",
        )
        if command == "ask":
            first = json.loads((FIXTURE20 / "questions.jsonl").read_text(encoding="utf-8").splitlines()[0])
            args = ["ask", "--question", first["question"], "--topic", first["topics"][0]]
        else:
            args = ["eval", "--dataset", str(FIXTURE20 / "questions5.jsonl"),
                    "--report", str(run / "report.txt"), "--tsv", str(run / "summary.tsv")]
        code = main(["--config", str(config), *args])
        assert code == EXIT_PROVIDER
        err = capsys.readouterr().err
        assert err.startswith("provider error: embedding dim drifted from 8 to 64 ")
        assert "karpa cache clear" in err
        assert not (run / "report.txt").exists() and not (run / "summary.tsv").exists()
        assert not list((run / "checkpoints").glob("*"))


@pytest.mark.parametrize("command", ["ask", "eval", "cache stats", "cache clear"])
def test_cache_path_naming_a_directory_is_config_error(
    config_file, tmp_path, monkeypatch, capsys, command
):
    dataset = tmp_path / "data.jsonl"
    dataset.write_text(
        json.dumps({"id": "q1", "question": "Q?", "topics": ["A"], "answers": [["C"]]}) + "\n",
        encoding="utf-8",
    )
    directory = tmp_path / "cache.d"
    directory.mkdir()
    monkeypatch.setenv("KARPA_EMBEDDING_CACHE_PATH", str(directory))
    args = {
        "ask": ["ask", "--question", "Q?", "--topic", "A"],
        "eval": ["eval", "--dataset", str(dataset), "--report", str(tmp_path / "report.txt")],
        "cache stats": ["cache", "stats"],
        "cache clear": ["cache", "clear"],
    }[command]
    assert main(["--config", str(config_file), *args]) == EXIT_CONFIG
    assert f"config error: embedding.cache_path is a directory: {directory}" in capsys.readouterr().err
    assert not (tmp_path / "report.txt").exists()
    assert directory.is_dir()


def test_config_digest_covers_every_semantic_key(config_file):
    cfg = load_config(config_file, env={})
    base = config_digest(cfg)
    cfg.planner.relation_cap = 7
    assert config_digest(cfg) != base


def test_config_digest_values_are_pinned():
    # Digests written into checkpoints and report headers must not move.
    assert config_digest(load_config(env={})) == (
        "fec114775b3aa9b0e43101ea9944426b90a37d83753299564a4dc17719398305"
    )
    env = {
        "KARPA_KG_PATH": "graph.tsv",
        "KARPA_KG_INVERSE_EDGES": "true",
        "KARPA_EMBEDDING_DIM": "32",
        "KARPA_LLM_TEMPERATURE": "0.5",
        "KARPA_LLM_MAX_OUTPUT": "256",
        "KARPA_MATCHER_STRATEGY": "beam",
        "KARPA_MATCHER_MAX_LEN": "4",
        "KARPA_MATCHER_EXACT_MODE": "true",
        "KARPA_PLANNER_PER_RELATION_K": "3",
        "KARPA_EVAL_MODE": "lenient",
        "KARPA_EVAL_CONCURRENCY": "4",
    }
    assert config_digest(load_config(env=env)) == (
        "19df7d8a94383262dd268f4216d01c47a06794ab3949a508074b5095c7e06553"
    )


# -- subcommands -----------------------------------------------------------------


def test_ingest_reports_counts(kg_file, capsys):
    assert main(["ingest", str(kg_file)]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out == {"entities": 4, "relations": 3, "triples": 3}


def test_ingest_dump_writes_canonical_tsv(kg_file, tmp_path, capsys):
    dump = tmp_path / "canon.tsv"
    assert main(["ingest", str(kg_file), "--dump", str(dump)]) == EXIT_OK
    lines = dump.read_text(encoding="utf-8").splitlines()
    assert lines == sorted(lines)


def test_ingest_missing_file_is_data_error(tmp_path, capsys):
    assert main(["ingest", str(tmp_path / "nope.tsv")]) == EXIT_DATA


def test_ingest_malformed_file_is_data_error(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    bad.write_text("only-one-field\n", encoding="utf-8")
    assert main(["ingest", str(bad)]) == EXIT_DATA


@pytest.mark.parametrize("command", ["ingest", "ask"])
@pytest.mark.parametrize(
    "data, error",
    [
        (b"A\tr\tB\nbroken line\n", "line 2: expected 3 tab-separated non-empty fields, got 'broken line'"),
        (b"A\tr\tB\n\xff\tr\tC\n", "line 2 is not UTF-8 text (invalid start byte)"),
    ],
    ids=["malformed", "not-utf8"],
)
def test_bad_triple_line_is_data_error_naming_the_file_and_line(tmp_path, capsys, command, data, error):
    bad = tmp_path / "bad.tsv"
    bad.write_bytes(data)
    if command == "ingest":
        argv = ["ingest", str(bad)]
    else:
        conf = tmp_path / "karpa.conf"
        conf.write_text(f"kg.path = {bad}\nllm.kind = mock\n", encoding="utf-8")
        argv = ["--config", str(conf), "ask", "--question", "Q?", "--topic", "A"]
    assert main(argv) == EXIT_DATA
    assert capsys.readouterr().err == f"data error: {bad}: {error}\n"


def test_missing_config_file_is_config_error(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "absent.conf"), "cache", "stats"])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize(
    "case, code, error",
    [
        ("--config", EXIT_CONFIG, "config error: config file"),
        ("ingest", EXIT_DATA, "data error: triple file"),
        ("kg.path", EXIT_DATA, "data error: triple file"),
        ("simple", EXIT_DATA, "data error: dataset"),
        ("webqsp", EXIT_DATA, "data error: dataset"),
        ("cwq", EXIT_DATA, "data error: dataset"),
        ("llm.fixtures", EXIT_DATA, "data error: scripted chat fixture"),
        ("embedding.fixtures", EXIT_DATA, "data error: scripted embedding fixture"),
    ],
    ids=["config", "ingest", "kg.path", "simple", "webqsp", "cwq", "llm.fixtures", "embedding.fixtures"],
)
def test_a_directory_where_a_file_belongs_is_reported_like_a_missing_file(
    tmp_path, kg_file, capsys, case, code, error
):
    directory = tmp_path / "dir"
    directory.mkdir()
    settings = {"kg.path": kg_file, "llm.kind": "mock"}
    if case in ("kg.path", "llm.fixtures", "embedding.fixtures"):
        settings[case] = directory
        if case.endswith(".fixtures"):
            settings[case.replace(".fixtures", ".kind")] = "scripted"
    conf = tmp_path / "karpa.conf"
    conf.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()), encoding="utf-8")
    if case == "--config":
        argv = ["--config", str(directory), "cache", "stats"]
    elif case == "ingest":
        argv = ["ingest", str(directory)]
    elif case in ("simple", "webqsp", "cwq"):
        argv = ["--config", str(conf), "eval", "--dataset", str(directory), "--format", case]
    else:
        argv = ["--config", str(conf), "ask", "--question", "Q?", "--topic", "A"]
    assert main(argv) == code
    assert capsys.readouterr().err == f"{error} is a directory: {directory}\n"


def test_cache_without_path_is_config_error(config_file, capsys):
    assert main(["--config", str(config_file), "cache", "stats"]) == EXIT_CONFIG


def test_cache_stats_and_clear(tmp_path, kg_file, capsys):
    conf = tmp_path / "c.conf"
    cache_path = tmp_path / "cache.jsonl"
    conf.write_text(
        f"kg.path = {kg_file}\nembedding.cache_path = {cache_path}\n", encoding="utf-8"
    )
    assert main(["--config", str(conf), "cache", "stats"]) == EXIT_OK
    stats = json.loads(capsys.readouterr().out)
    assert stats["records"] == 0
    assert main(["--config", str(conf), "cache", "clear"]) == EXIT_OK


def test_match_prints_report(config_file, capsys):
    code = main(
        [
            "--config",
            str(config_file),
            "match",
            "--topic",
            "A",
            "--path",
            "person.family.father,person.family.spouse",
            "--strategy",
            "heuristic",
        ]
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    objs = [json.loads(line) for line in lines]
    assert objs[0]["rank"] == 1
    assert {"rank", "score", "cost", "relations", "entities", "truncated"} == set(objs[0])
    ranks = [o["rank"] for o in objs]
    assert ranks == list(range(1, len(objs) + 1))


def test_match_unknown_topic_is_data_error(config_file, capsys):
    code = main(
        ["--config", str(config_file), "match", "--topic", "Zzz", "--path", "person.family.father"]
    )
    assert code == EXIT_DATA


def test_match_path_with_no_label_is_data_error(tmp_path, capsys):
    config = tmp_path / "karpa.conf"
    config.write_text(f"kg.path = {FIXTURE20 / 'kg.tsv'}\n", encoding="utf-8")
    code = main(["--config", str(config), "match", "--topic", "Lurvish Language", "--path", " , "])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == "data error: --path must list at least one relation label\n"


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_match_over_a_label_with_no_tokens_is_data_error(tmp_path, capsys, strategy):
    kg = tmp_path / "kg.tsv"
    kg.write_text("a\t---\tb\n", encoding="utf-8")
    config = tmp_path / "karpa.conf"
    config.write_text(f"kg.path = {kg}\n", encoding="utf-8")
    code = main(["--config", str(config), "match", "--topic", "a", "--path", "r.x", "--strategy", strategy])
    assert code == EXIT_DATA
    assert capsys.readouterr().err == "data error: text has no tokens to embed: '---'\n"


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_match_path_longer_than_max_len(tmp_path, capsys, strategy):
    config = tmp_path / "karpa.conf"
    config.write_text(f"kg.path = {FIXTURE20 / 'kg.tsv'}\nmatcher.max_len = 1\n", encoding="utf-8")
    path = "language.human_language.main_country,location.country.capital"
    code = main(["--config", str(config), "match", "--topic", "Lurvish Language", "--path", path,
                 "--strategy", strategy])
    out, err = capsys.readouterr()
    if strategy == "heuristic":  # matches paths of any length up to max_len
        assert code == EXIT_OK
        assert [json.loads(line)["entities"] for line in out.splitlines()] == [
            ["Lurvish Language", "Veldoria"]
        ]
    else:  # find paths of the candidate's length; max_len bounds only the heuristic
        assert code == EXIT_OK and err == ""
        assert [json.loads(line)["entities"] for line in out.splitlines()] == [
            ["Lurvish Language", "Veldoria", "Veld City"],
            ["Lurvish Language", "Veldoria", "veldorian crown"],
            ["Lurvish Language", "Veldoria", "Orla Venn"],
        ]


def test_ask_with_scripted_provider(tmp_path, kg_file, capsys):
    fixtures = tmp_path / "llm.jsonl"
    query = Query(id="q0", question="Who is the spouse of A's father?", topic_entities=("A",))
    # scripted fixture only for initial planning; it proposes nothing, the
    # pipeline falls back, matches nothing at zero candidates, answers empty
    record = {
        "digest": digest_messages(build_initial_prompt(query)),
        "response_text": "Length 1 reasoning path: None: {}.\nLength 2 reasoning path: None: {}.\n"
        "Length 3 reasoning path: None: {}.",
    }
    fixtures.write_text(json.dumps(record) + "\n", encoding="utf-8")
    conf = tmp_path / "ask.conf"
    conf.write_text(
        f"kg.path = {kg_file}\nllm.kind = scripted\nllm.fixtures = {fixtures}\n",
        encoding="utf-8",
    )
    trace_path = tmp_path / "trace.jsonl"
    code = main(
        [
            "--config",
            str(conf),
            "ask",
            "--question",
            "Who is the spouse of A's father?",
            "--topic",
            "A",
            "--trace",
            str(trace_path),
        ]
    )
    assert code == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["answers"] == []
    assert "fallback_initial" in out["flags"]
    events = [json.loads(line) for line in trace_path.read_text(encoding="utf-8").splitlines()]
    assert events[0]["event"] == "resolve"


def test_ask_is_deterministic(tmp_path, kg_file):
    fixtures = tmp_path / "llm.jsonl"
    query = Query(id="q0", question="Q?", topic_entities=("A",))
    record = {
        "digest": digest_messages(build_initial_prompt(query)),
        "response_text": "Length 1 reasoning path: None: {}.\nLength 2 reasoning path: None: {}.\n"
        "Length 3 reasoning path: None: {}.",
    }
    fixtures.write_text(json.dumps(record) + "\n", encoding="utf-8")
    conf = tmp_path / "ask.conf"
    conf.write_text(
        f"kg.path = {kg_file}\nllm.kind = scripted\nllm.fixtures = {fixtures}\n",
        encoding="utf-8",
    )
    t1, t2 = tmp_path / "t1.jsonl", tmp_path / "t2.jsonl"
    for t in (t1, t2):
        assert (
            main(["--config", str(conf), "ask", "--question", "Q?", "--topic", "A", "--trace", str(t)])
            == EXIT_OK
        )
    assert t1.read_bytes() == t2.read_bytes()


def test_missing_scripted_fixture_is_provider_error(tmp_path, kg_file, capsys):
    fixtures = tmp_path / "empty.jsonl"
    fixtures.write_text("", encoding="utf-8")
    conf = tmp_path / "ask.conf"
    conf.write_text(
        f"kg.path = {kg_file}\nllm.kind = scripted\nllm.fixtures = {fixtures}\n",
        encoding="utf-8",
    )
    from karpa.cli import EXIT_PROVIDER

    code = main(["--config", str(conf), "ask", "--question", "Q?", "--topic", "A"])
    assert code == EXIT_PROVIDER


def test_eval_subcommand_end_to_end(tmp_path, kg_file, capsys):
    dataset = tmp_path / "data.jsonl"
    dataset.write_text(
        json.dumps({"id": "q1", "question": "Q?", "topics": ["A"], "answers": [["C"]]}) + "\n",
        encoding="utf-8",
    )
    conf = tmp_path / "ev.conf"
    conf.write_text(f"kg.path = {kg_file}\nllm.kind = mock\n", encoding="utf-8")
    report_path = tmp_path / "report.txt"
    tsv_path = tmp_path / "summary.tsv"
    code = main(
        [
            "--config",
            str(conf),
            "eval",
            "--dataset",
            str(dataset),
            "--format",
            "simple",
            "--report",
            str(report_path),
            "--tsv",
            str(tsv_path),
        ]
    )
    assert code == EXIT_OK
    text = report_path.read_text(encoding="utf-8")
    assert text.startswith("karpa evaluation report")
    assert "hit1\t" in tsv_path.read_text(encoding="utf-8")


def test_eval_with_a_repeated_sample_id_is_data_error(tmp_path, kg_file, capsys):
    dataset = tmp_path / "data.jsonl"
    dataset.write_text(
        "".join(
            json.dumps({"id": "q1", "question": "Q?", "topics": ["A"], "answers": [[gold]]}) + "\n"
            for gold in ("B", "C")
        ),
        encoding="utf-8",
    )
    config = tmp_path / "karpa.conf"
    config.write_text(
        f"kg.path = {kg_file}\nembedding.kind = mock\nllm.kind = mock\n"
        f"eval.checkpoint_dir = {tmp_path / 'ckpt'}\n",
        encoding="utf-8",
    )
    code = main(["--config", str(config), "eval", "--dataset", str(dataset)])
    assert code == EXIT_DATA
    captured = capsys.readouterr()
    assert "data error: duplicate sample id 'q1'" in captured.err
    assert captured.out == ""
    assert not any((tmp_path / "ckpt").glob("*.json"))


def test_eval_non_json_dataset_line_is_data_error(tmp_path, kg_file, capsys):
    dataset = tmp_path / "data.jsonl"
    dataset.write_text(
        json.dumps({"id": "q1", "question": "Q?", "topics": ["A"], "answers": [["C"]]}) + "\n{oops\n",
        encoding="utf-8",
    )
    conf = tmp_path / "ev.conf"
    conf.write_text(f"kg.path = {kg_file}\nllm.kind = mock\n", encoding="utf-8")
    code = main(["--config", str(conf), "eval", "--dataset", str(dataset)])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith("data error: ") and f"{dataset}: line 2 is not JSON" in err


def test_ask_non_json_chat_fixture_line_is_data_error(tmp_path, kg_file, capsys):
    fixtures = tmp_path / "llm.jsonl"
    fixtures.write_text("not json\n", encoding="utf-8")
    conf = tmp_path / "ask.conf"
    conf.write_text(
        f"kg.path = {kg_file}\nllm.kind = scripted\nllm.fixtures = {fixtures}\n", encoding="utf-8"
    )
    code = main(["--config", str(conf), "ask", "--question", "Q?", "--topic", "A"])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith("data error: ") and f"{fixtures}: line 1 is not JSON" in err


@pytest.mark.parametrize(
    "kind, line",
    [
        ("llm", "{}"),
        ("llm", '{"digest": "d2"}'),
        ("llm", '{"digest": "d2", "response_text": 3}'),
        ("llm", "[1, 2]"),
        ("embedding", "{}"),
        ("embedding", '{"digest": "d2", "dim": 1, "values": ["x"]}'),
        ("embedding", '{"digest": "d2", "dim": 1, "values": [1e999]}'),
        ("embedding", '{"digest": "d2", "dim": 3, "values": "123"}'),
        ("embedding", '{"digest": "d2", "dim": 2, "values": ["1.5", "2"]}'),
        ("embedding", '{"digest": "d2", "dim": 3, "values": [true, false, 3]}'),
        pytest.param("embedding", '{"digest": "d2", "dim": 2, "values": [1' + "0" * 400 + ', 1.0]}', id="embedding-huge-int"),
    ],
)
def test_ask_fixture_line_that_is_not_a_record_is_data_error(tmp_path, kg_file, capsys, kind, line):
    first = {
        "llm": '{"digest": "d1", "response_text": "t"}',
        "embedding": '{"digest": "d1", "values": [1.0]}',
    }
    fixtures = tmp_path / "fixtures.jsonl"
    fixtures.write_text(f"{first[kind]}\n{line}\n", encoding="utf-8")
    conf = tmp_path / "ask.conf"
    conf.write_text(
        f"kg.path = {kg_file}\n{kind}.kind = scripted\n{kind}.fixtures = {fixtures}\n", encoding="utf-8"
    )
    code = main(["--config", str(conf), "ask", "--question", "Q?", "--topic", "A"])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith("data error: ") and f"{fixtures}: line 2 is not a scripted" in err


@pytest.mark.parametrize("format", ["webqsp", "cwq"])
def test_eval_dataset_that_is_not_json_is_data_error(tmp_path, kg_file, capsys, format):
    dataset = tmp_path / "data.json"
    dataset.write_text("not json\n", encoding="utf-8")
    conf = tmp_path / "ev.conf"
    conf.write_text(f"kg.path = {kg_file}\nllm.kind = mock\n", encoding="utf-8")
    code = main(["--config", str(conf), "eval", "--dataset", str(dataset), "--format", format])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith("data error: ") and f"{dataset}: not a JSON {format} dataset" in err


@pytest.mark.parametrize("format", ["webqsp", "cwq"])
def test_eval_object_without_its_question_list_is_data_error(tmp_path, kg_file, capsys, format):
    dataset = tmp_path / "data.json"
    dataset.write_text(json.dumps({"Version": "1.0"}), encoding="utf-8")
    conf = tmp_path / "ev.conf"
    conf.write_text(f"kg.path = {kg_file}\nllm.kind = mock\n", encoding="utf-8")
    code = main(["--config", str(conf), "eval", "--dataset", str(dataset), "--format", format])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith("data error: ") and f"{dataset}: no {format} question list" in err


_GOOD_SIMPLE = json.dumps({"id": "q", "question": "?", "topics": ["A"], "answers": [["B"]]})


@pytest.mark.parametrize(
    "format, text, index",
    [
        ("simple", f"{_GOOD_SIMPLE}\n[1, 2]\n", 1),
        ("webqsp", json.dumps(["oops"]), 0),
        ("webqsp", json.dumps({"Questions": [{"QuestionId": "x", "RawQuestion": "q?", "Parses": "oops"}]}), 0),
        ("cwq", json.dumps([{"ID": "1", "question": "q?", "topic_entity_name": "A", "answers": ["x"]}]), 0),
        # A string where a list belongs would be taken as its characters.
        ("simple", json.dumps({"id": "q", "question": "?", "topics": "Topic", "answers": [["B"]]}), 0),
        ("simple", f'{_GOOD_SIMPLE}\n{json.dumps({"id": "q", "question": "?", "topics": ["A"], "answers": "abc"})}', 1),
        ("simple", json.dumps({"id": "q", "question": "?", "topics": ["A"], "answers": [["B"], "abc"]}), 0),
        (
            "cwq",
            json.dumps(
                [{"ID": "1", "question": "q?", "topic_entity_name": "A", "answers": [{"answer": "x", "aliases": "xy"}]}]
            ),
            0,
        ),
        ("simple", f'{_GOOD_SIMPLE}\n{json.dumps({"id": "1", "question": 5, "topics": ["A"], "answers": [["B"]]})}', 1),
        (
            "webqsp",
            json.dumps(
                [{"QuestionId": "1", "RawQuestion": 5, "Parses": [{"TopicEntityName": "A", "Answers": [{"EntityName": "B"}]}]}]
            ),
            0,
        ),
        ("cwq", json.dumps([{"ID": "1", "question": 5, "topic_entity_name": "A", "answers": [{"answer": "B"}]}]), 0),
        # A null would be taken as the label "None", a list or an object as its repr.
        ("simple", json.dumps({"id": "q", "question": "?", "topics": [None], "answers": [["B"]]}), 0),
        ("simple", f'{_GOOD_SIMPLE}\n{json.dumps({"id": "1", "question": "?", "topics": ["A"], "answers": [[None]]})}', 1),
        ("simple", json.dumps({"id": "q", "question": "?", "topics": [["A"]], "answers": [["B"]]}), 0),
        ("simple", json.dumps({"id": "q", "question": "?", "topics": ["A"], "answers": [[{"B": 1}]]}), 0),
        ("cwq", json.dumps([{"ID": "1", "question": "q?", "topic_entity_name": "A", "answers": [{"answer": None}]}]), 0),
        (
            "cwq",
            json.dumps(
                [{"ID": "1", "question": "q?", "topic_entity_name": "A", "answers": [{"answer": "x", "aliases": [None]}]}]
            ),
            0,
        ),
        ("cwq", json.dumps([{"ID": "1", "question": "q?", "topic_entity": {"m.1": None}, "answers": [{"answer": "B"}]}]), 0),
        ("cwq", json.dumps([{"ID": "1", "question": "q?", "topic_entity_name": ["A"], "answers": [{"answer": "B"}]}]), 0),
        # An id goes through the same check: str() would read null as "None", true as "True".
        ("simple", json.dumps({"id": None, "question": "?", "topics": ["A"], "answers": [["B"]]}), 0),
        ("simple", f'{_GOOD_SIMPLE}\n{json.dumps({"id": True, "question": "?", "topics": ["A"], "answers": [["B"]]})}', 1),
        ("simple", json.dumps({"id": [1], "question": "?", "topics": ["A"], "answers": [["B"]]}), 0),
        ("cwq", json.dumps([{"ID": None, "question": "q?", "topic_entity_name": "A", "answers": [{"answer": "B"}]}]), 0),
        ("cwq", json.dumps([{"ID": True, "question": "q?", "topic_entity_name": "A", "answers": [{"answer": "B"}]}]), 0),
        (
            "webqsp",
            json.dumps([{"QuestionId": None, "RawQuestion": "q?", "Parses": [{"TopicEntityName": "A", "Answers": [{"EntityName": "B"}]}]}]),
            0,
        ),
        (
            "webqsp",
            json.dumps([{"QuestionId": [1], "RawQuestion": "q?", "Parses": [{"TopicEntityName": "A", "Answers": [{"EntityName": "B"}]}]}]),
            0,
        ),
        # A WebQSP name that is a list, an object or a boolean would be taken as its repr.
        (
            "webqsp",
            json.dumps([{"QuestionId": "1", "RawQuestion": "q?", "Parses": [{"TopicEntityName": ["A"], "Answers": [{"EntityName": "B"}]}]}]),
            0,
        ),
        (
            "webqsp",
            json.dumps([{"QuestionId": "1", "RawQuestion": "q?", "Parses": [{"TopicEntityName": "A", "Answers": [{"EntityName": {"x": 1}}]}]}]),
            0,
        ),
        (
            "webqsp",
            json.dumps([{"QuestionId": "1", "RawQuestion": "q?", "Parses": [{"TopicEntityName": "A", "Answers": [{"EntityName": None, "AnswerArgument": [7]}]}]}]),
            0,
        ),
        (
            "webqsp",
            json.dumps([{"QuestionId": "1", "RawQuestion": "q?", "Parses": [{"TopicEntityName": True, "Answers": [{"EntityName": "B"}]}]}]),
            0,
        ),
    ],
    ids=[
        "simple-list-record",
        "webqsp-string-record",
        "webqsp-string-parses",
        "cwq-string-answer",
        "simple-string-topics",
        "simple-string-answers",
        "simple-string-answers-entry",
        "cwq-string-aliases",
        "simple-int-question",
        "webqsp-int-question",
        "cwq-int-question",
        "simple-null-topic",
        "simple-null-answer",
        "simple-list-topic",
        "simple-object-answer",
        "cwq-null-answer",
        "cwq-null-alias",
        "cwq-null-topic-entity",
        "cwq-list-topic-name",
        "simple-null-id",
        "simple-true-id",
        "simple-list-id",
        "cwq-null-id",
        "cwq-true-id",
        "webqsp-null-id",
        "webqsp-list-id",
        "webqsp-list-topic-name",
        "webqsp-object-answer",
        "webqsp-list-answer-argument",
        "webqsp-true-topic-name",
    ],
)
def test_eval_dataset_record_of_wrong_shape_is_data_error(tmp_path, kg_file, capsys, format, text, index):
    dataset = tmp_path / "data.json"
    dataset.write_text(text, encoding="utf-8")
    conf = tmp_path / "ev.conf"
    conf.write_text(f"kg.path = {kg_file}\nllm.kind = mock\n", encoding="utf-8")
    code = main(["--config", str(conf), "eval", "--dataset", str(dataset), "--format", format])
    err = capsys.readouterr().err
    assert code == EXIT_DATA
    assert err.startswith(f"data error: record {index}: ")


# One case per reader: a line of bytes that are not UTF-8, after a good first line.
_NOT_UTF8 = {
    "triples": b"A\tr\tB\n\xff\tr\tC\n",
    "simple": _GOOD_SIMPLE.encode("utf-8") + b"\n\xff\n",
    "webqsp": b'{"Questions": [\n"\xff"]}',
    "cwq": b'[\n"\xff"]',
    "llm": b'{"digest": "d1", "response_text": "t"}\n\xff\n',
    "embedding": b'{"digest": "d1", "values": [1.0]}\n\xff\n',
    "config": b"llm.kind = mock\nmatcher.strategy = \xff\n",
}


@pytest.mark.parametrize("reader", list(_NOT_UTF8))
def test_input_file_that_is_not_utf8_is_a_typed_error_naming_it(tmp_path, kg_file, capsys, reader):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(_NOT_UTF8[reader])
    conf = tmp_path / "karpa.conf"
    conf.write_text(f"kg.path = {kg_file}\nllm.kind = mock\n", encoding="utf-8")
    ask = ["ask", "--question", "Q?", "--topic", "A"]
    if reader == "triples":
        argv = ["ingest", str(bad)]
    elif reader in ("simple", "webqsp", "cwq"):
        argv = ["--config", str(conf), "eval", "--dataset", str(bad), "--format", reader]
    elif reader == "config":
        argv = ["--config", str(bad), *ask]
    else:
        conf.write_text(f"kg.path = {kg_file}\n{reader}.kind = scripted\n{reader}.fixtures = {bad}\n", encoding="utf-8")
        argv = ["--config", str(conf), *ask]
    code = main(argv)
    err = capsys.readouterr().err
    if reader == "config":
        assert code == EXIT_CONFIG and err.startswith("config error: ")
    else:
        assert code == EXIT_DATA and err.startswith("data error: ")
    assert f"{bad}: line 2 is not UTF-8 text" in err


def test_eval_killed_at_seeded_points_resumes_to_the_uninterrupted_report(tmp_path):
    # `karpa eval` with checkpoints and a file cache, SIGKILLed once k
    # checkpoints exist for seeded k, then run again each time: the last run
    # must write the uninterrupted run's report byte for byte. Only the
    # test's own child process is signalled.
    config = (
        f"kg.path = {FIXTURE20 / 'kg.tsv'}\n"
        "llm.kind = scripted\n"
        f"llm.fixtures = {FIXTURE20 / 'llm_fixtures.jsonl'}\n"
        "embedding.cache_path = cache.jsonl\n"
        "eval.checkpoint_dir = ckpt\n"
        "eval.concurrency = 2\n"
    )
    env = {k: v for k, v in os.environ.items() if not k.startswith("KARPA_")}
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])

    def start(cwd: Path) -> subprocess.Popen:
        cwd.mkdir(exist_ok=True)
        (cwd / "karpa.conf").write_text(config, encoding="utf-8")
        argv = ["--config", "karpa.conf", "eval", "--dataset", str(FIXTURE20 / "questions.jsonl")]
        return subprocess.Popen(
            [sys.executable, "-m", "karpa.cli", *argv, "--report", "report.txt"], cwd=cwd, env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )

    def finish(cwd: Path) -> bytes:
        proc = start(cwd)
        assert proc.wait(timeout=120) == 0
        return (cwd / "report.txt").read_bytes()

    def checkpoints() -> int:
        return len(list((work / "ckpt").glob("*.json")))

    reference = finish(tmp_path / "reference")
    work = tmp_path / "interrupted"
    # A kill lands mid-run when the killed run wrote a checkpoint and not the
    # last: not while the interpreter starts, and not after the eval ended.
    landed = 0
    for k in sorted(random.Random(27).sample(range(1, 20), 4)):
        before = checkpoints()
        proc = start(work)
        try:
            deadline = time.monotonic() + 120
            while proc.poll() is None and checkpoints() < k:
                assert time.monotonic() < deadline
                time.sleep(0.001)
            if proc.poll() is None:
                proc.kill()
                if proc.wait(timeout=30) == -signal.SIGKILL:
                    landed += before < checkpoints() < 20
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait(timeout=30)
    assert landed >= 1
    assert finish(work) == reference
    assert EmbeddingCache(work / "cache.jsonl").skipped <= 1
