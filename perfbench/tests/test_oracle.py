import math
import subprocess
import sys
from pathlib import Path

from karpa.config import PipelineConfig
from karpa.embeddings import EmbeddingGateway, HttpEmbeddingProvider, MockEmbeddingProvider
from karpa.evaluation import evaluate, load_dataset
from karpa.kg import load_triples_path
from karpa.llm import HttpChatProvider, LlmParams
from karpa.pipeline import Pipeline, make_sample_runner
from karpa.planner import Query, build_initial_prompt, parse_path_sets

import oracle
from gen import Shape, generate
from providers import OracleChatProvider

TINY = Shape(entities=40, relations=10, max_out_degree=3, questions=6, two_topic_every=3)
HERE = Path(__file__).resolve().parent.parent


def _world(tmp_path):
    paths = generate(TINY, 11, tmp_path)
    return paths, oracle.load_table(paths["oracle"]), load_dataset(paths["dataset"])


def test_pipeline_with_oracle_answers_gold_on_a_tiny_graph(tmp_path):
    paths, table, samples = _world(tmp_path)
    cfg = PipelineConfig()
    cfg.matcher.strategy = "pathfind"
    g = load_triples_path(paths["kg"])
    pipeline = Pipeline(cfg, g, EmbeddingGateway(MockEmbeddingProvider()), OracleChatProvider(table))
    report = evaluate(samples, make_sample_runner(pipeline))
    assert report.aggregates["errors"] == 0
    assert report.aggregates["hit1"] == 1.0


def test_initial_plan_is_the_perturbed_gold_path(tmp_path):
    _, table, samples = _world(tmp_path)
    sample = samples[1]
    entry = table[sample.question]
    messages = build_initial_prompt(Query(sample.id, sample.question, tuple(sample.topic_entities)))
    text, prompt_tokens, completion_tokens = oracle.reply(table, [(m.role, m.content) for m in messages])
    planned = parse_path_sets(text).by_length
    assert [len(planned[n]) for n in (1, 2, 3)] == [0, 1, 0]
    assert not set(planned[2][0].relations) & set(entry["path"])  # every label is perturbed
    assert prompt_tokens == math.ceil(len(messages[0].content) / 4)
    assert completion_tokens == math.ceil(len(text) / 4)


def test_reasoning_reply_picks_the_shown_gold_tails(tmp_path):
    _, table, samples = _world(tmp_path)
    sample = samples[0]
    gold = table[sample.question]["answers"][0]
    prompt = f"Q:\n{sample.question}\nReasoning Paths:\n(a, r, {gold})\n(a, r, m.0zz)\nA:"
    text, _, _ = oracle.reply(table, [("user", prompt)])
    assert text.endswith(f"{{{gold}}}.")


def test_stub_serves_the_same_replies_and_vectors(tmp_path):
    paths, table, samples = _world(tmp_path)
    stub = subprocess.Popen(
        [sys.executable, str(HERE / "stub.py"), "--oracle", str(paths["oracle"]), "--dim", "64"],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        port = int(stub.stdout.readline())
        sample = samples[2]
        messages = build_initial_prompt(Query(sample.id, sample.question, tuple(sample.topic_entities)))
        remote = HttpChatProvider(f"http://127.0.0.1:{port}/chat").complete(messages, LlmParams())
        local = OracleChatProvider(table).complete(messages, LlmParams())
        assert remote == local
        texts = ["people.person.children", "film movie director"]
        remote_vectors = HttpEmbeddingProvider(f"http://127.0.0.1:{port}/embed", "m").embed_batch(texts)
        assert remote_vectors == MockEmbeddingProvider(64).embed_batch(texts)
    finally:
        stub.stdin.close()
        stub.wait(timeout=10)
    assert stub.returncode is not None
