"""The traced run: per-layer metrics from spans and counters around the program's calls.

Untraced passes run for half of ``--seconds`` and traced passes for the
other half (at least one of each), each on fresh state; the ratio of their
mean pass walls is ``trace.overhead_ratio``. Per-question metrics are
totals of the traced passes divided by their question count. Each workload
states which layer should dominate question time; the run prints whether
the trace confirms or refutes that prediction, and reports it as
``trace.prediction_confirmed``. A cross-check times ``match_candidates``
cold and warm for each strategy on the workload's graph.
"""

from __future__ import annotations

import time
from dataclasses import replace

from karpa.embeddings import EmbeddingGateway, MockEmbeddingProvider
from karpa.matching import STRATEGIES, RelationPath, match_candidates

from providers import CountingChatProvider
from tracing import MODULES, Tracer, instrument, self_times, write_spans

PHASES = ("initial_planning", "replanning", "reasoning")

# Which share of question time each workload is expected to be dominated by.
PREDICTIONS = {
    "heuristic-cold": "matching plus the embedding calls made inside it has the largest self time",
    "beam-rerun": "embeddings.top_k_similar_relations has the largest self time of any traced call",
    "pathfind-http": "llm plus embedding provider time is larger than any module's own self time",
}


def run_traced(bench, seconds: float, spans_path):
    """``(per-layer metrics, extra, attempted, failed)`` for one workload and seed;
    the setup and pass spans are written to ``spans_path``."""
    bench.prime()
    setup_tracer = Tracer()
    _, base = bench.setup(setup_tracer)
    untraced: list = []
    while not untraced or sum(p.wall_s for p in untraced) < seconds / 2:
        untraced.append(bench.run_pass(bench.fresh(base), len(untraced)))
    tracer = Tracer()
    chat = CountingChatProvider(base.chat_provider)
    chat.complete = tracer.spanned("llm.provider", chat.complete)
    traced: list = []
    with instrument(tracer):
        while not traced or sum(p.wall_s for p in traced) < seconds / 2:
            pipeline, counter = bench.fresh(base, chat)
            provider = pipeline.embedder.provider
            provider.embed_batch = tracer.timed("embeddings.provider", provider.embed_batch)
            index = len(untraced) + len(traced)
            traced.append(bench.run_pass((pipeline, counter), index, tracer, keep_results=True))
    write_spans(setup_tracer.spans + tracer.spans, spans_path)
    metrics = layer_metrics(tracer, traced, untraced, bench.cfg.eval.concurrency)
    metrics["kg.load_s"] = (_total(setup_tracer, "kg.load"), "s")
    metrics["embeddings.cache_load_s"] = (_total(setup_tracer, "embeddings.cache_load"), "s")
    metrics["llm.retries"] = (chat.transport_errors, "count")
    metrics.update(cross_check(bench, base.g))
    claim, others = prediction(bench.workload.name, tracer)
    confirmed = claim > max(others.values())
    metrics["trace.prediction_confirmed"] = (int(confirmed), "count")
    shares = module_self(tracer)
    total = sum(shares.values())
    metrics.update({f"{m}.self_share": (shares[m] / total, "ratio") for m in MODULES})
    runner_up = max(others, key=others.get)
    verdict = "CONFIRMED" if confirmed else "REFUTED"
    extra = {
        "prediction": (
            f"{verdict}: {PREDICTIONS[bench.workload.name]} "
            f"({claim:.3f} s against {runner_up} {others[runner_up]:.3f} s)",
            "",
        )
    }
    records = [r for p in untraced + traced for r in p.report.records]
    failed = sum(1 for r in records if r.error)
    return dict(sorted(metrics.items())), extra, len(records), failed


def _mean_wall(passes: list) -> float:
    return sum(p.wall_s for p in passes) / len(passes)


def _total(tracer: Tracer, name: str) -> float:
    return sum(s.duration for s in tracer.spans if s.name == name)


def by_name(tracer: Tracer) -> tuple[dict[str, float], dict[str, float], dict[str, int]]:
    """Self seconds, total seconds and call count per span name."""
    selfs = self_times(tracer.spans)
    self_s: dict[str, float] = {}
    total_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for span in tracer.spans:
        self_s[span.name] = self_s.get(span.name, 0.0) + selfs[span.id]
        total_s[span.name] = total_s.get(span.name, 0.0) + span.duration
        calls[span.name] = calls.get(span.name, 0) + 1
    return self_s, total_s, calls


def module_self(tracer: Tracer) -> dict[str, float]:
    """Self seconds per module: span self times plus timed counter self times."""
    out = {m: 0.0 for m in MODULES}
    self_s, _, _ = by_name(tracer)
    for name, seconds in self_s.items():
        out[name.split(".")[0]] += seconds
    for (name, _), counter in tracer.counters.items():
        out[name.split(".")[0]] += counter.self_s
    return out


def prediction(workload: str, tracer: Tracer) -> tuple[float, dict[str, float]]:
    """``(seconds of the predicted part, seconds of every competing part)``."""
    modules = module_self(tracer)
    self_s, total_s, _ = by_name(tracer)
    if workload == "heuristic-cold":
        inside = tracer.counter_time("embeddings.gateway_embed", within="matching.match_candidates")
        others = {m: s for m, s in modules.items() if m != "matching"}
        others["embeddings"] -= inside
        return modules["matching"] + inside, others
    if workload == "beam-rerun":
        calls = dict(self_s)
        for (name, _), counter in tracer.counters.items():
            calls[name] = calls.get(name, 0.0) + counter.self_s
        return calls.pop("embeddings.top_k_similar_relations", 0.0), calls
    if workload == "pathfind-http":
        embed_provider = tracer.counter_time("embeddings.provider", field="self_s")
        others = dict(modules)
        others["llm"] -= self_s.get("llm.provider", 0.0)
        others["embeddings"] -= embed_provider
        return total_s.get("llm.provider", 0.0) + embed_provider, others
    raise KeyError(workload)


def layer_metrics(tracer: Tracer, traced: list, untraced: list, concurrency: int) -> dict[str, tuple[float, str]]:
    n = sum(len(p.report.records) for p in traced)
    self_s, total_s, calls = by_name(tracer)
    pools, snaps, batches, matched, truncated, selected = [], 0, 0, 0, [], 0
    answers = ungrounded = 0
    for result in (r for p in traced for r in p.results.values()):
        for event in result.trace:
            kind = event["event"]
            if kind == "relation_pool":
                pools.append(len(event["pool"]))
            elif kind == "replanning":
                snaps += len(event["snaps"])
            elif kind == "matching":
                matched += event["count"]
                truncated.append(event["truncated"])
            elif kind == "selected":
                selected += event["count"]
            elif kind == "reasoning":
                batches += event["batches"]
        answers += len(result.answers.answers)
        ungrounded += len(result.answers.ungrounded)
    tokens = {key: sum(p.report.usage[key] for p in traced) for key in ("prompt_tokens", "completion_tokens")}
    phase_calls = {phase: sum(p.report.usage["phases"][phase]["calls"] for p in traced) for phase in PHASES}
    gets = tracer.calls("embeddings.cache_get")
    eval_s = total_s["evaluation.evaluate"]
    metrics = {
        "kg.neighbors_calls": (tracer.calls("kg.neighbors") / n, "count"),
        "embeddings.provider_calls": (sum(p.provider_calls for p in traced) / n, "count"),
        "embeddings.provider_texts": (sum(p.provider_texts for p in traced) / n, "count"),
        "embeddings.provider_s": (tracer.counter_time("embeddings.provider") / n, "s"),
        "embeddings.gateway_embed_calls": (tracer.calls("embeddings.gateway_embed") / n, "count"),
        "embeddings.gateway_embed_self_s": (tracer.counter_time("embeddings.gateway_embed", field="self_s") / n, "s"),
        "embeddings.cache_hit_ratio": (tracer.calls("embeddings.cache_get.hits") / gets if gets else 0.0, "ratio"),
        "embeddings.top_k_similar_calls": (calls.get("embeddings.top_k_similar_relations", 0) / n, "count"),
        "embeddings.top_k_similar_self_s": (self_s.get("embeddings.top_k_similar_relations", 0.0) / n, "s"),
        "embeddings.cache_puts": (tracer.calls("embeddings.cache_put") / n, "count"),
        "embeddings.cache_put_s": (tracer.counter_time("embeddings.cache_put") / n, "s"),
        "planner.extract_relation_pool_s": (self_s.get("planner.extract_relation_pool", 0.0) / n, "s"),
        "planner.replan_s": (self_s.get("planner.replan", 0.0) / n, "s"),
        "planner.snaps_per_question": (snaps / n, "count"),
        "planner.pool_size_mean": (sum(pools) / len(pools) if pools else 0.0, "count"),
        "matching.match_candidates_calls": (calls.get("matching.match_candidates", 0) / n, "count"),
        "matching.match_candidates_self_s": (self_s.get("matching.match_candidates", 0.0) / n, "s"),
        "matching.expansions": (tracer.calls("kg.neighbors", within="matching.match_candidates") / n, "count"),
        "matching.truncated_share": (sum(truncated) / len(truncated) if truncated else 0.0, "ratio"),
        "matching.selected_ratio": (selected / matched if matched else 0.0, "ratio"),
        "reasoner.answer_question_self_s": (self_s.get("reasoner.answer_question", 0.0) / n, "s"),
        "reasoner.batches_per_question": (batches / n, "count"),
        "reasoner.ungrounded_share": (ungrounded / answers if answers else 0.0, "ratio"),
        "llm.prompt_tokens": (tokens["prompt_tokens"] / n, "count"),
        "llm.completion_tokens": (tokens["completion_tokens"] / n, "count"),
        "llm.provider_s": (total_s.get("llm.provider", 0.0) / n, "s"),
        "evaluation.self_s": (self_s["evaluation.evaluate"] / n, "s"),
        "evaluation.worker_busy_share": (total_s.get("pipeline.run", 0.0) / (eval_s * concurrency), "ratio"),
        "pipeline.self_s": (self_s.get("pipeline.run", 0.0) / n, "s"),
        "trace.overhead_ratio": (_mean_wall(traced) / _mean_wall(untraced), "ratio"),
    }
    for phase in PHASES:
        metrics[f"llm.provider_calls.{phase}"] = (phase_calls[phase] / n, "count")
    return metrics


def cross_check(bench, g) -> dict[str, tuple[float, str]]:
    """``match_candidates`` cold and warm per strategy: the first three questions' gold
    paths from the first question's topic, each strategy on a fresh in-memory mock gateway."""
    topic = g.entity_id(bench.samples[0].topic_entities[0])
    candidates = [RelationPath(tuple(bench.table[s.question]["path"])) for s in bench.samples[:3]]
    out = {}
    for strategy in STRATEGIES:
        cfg = replace(bench.cfg.matcher, strategy=strategy)
        gateway = EmbeddingGateway(MockEmbeddingProvider(bench.cfg.embedding.dim))
        for phase in ("cold", "warm"):
            start = time.perf_counter()
            match_candidates(g, topic, candidates, cfg, gateway)
            out[f"matching.{strategy}.{phase}_ms"] = (1000 * (time.perf_counter() - start), "ms")
    return out
