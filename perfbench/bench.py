"""One workload at one seed: inputs, set-up, checked ``evaluate`` passes, end-to-end metrics.

``Bench`` makes the same library calls as ``karpa eval``: ``load_config``,
``load_dataset``, ``load_graph``, ``build_embedding_gateway``, the in-process
oracle chat provider or ``build_chat_provider``, ``Pipeline``,
``make_sample_runner`` and ``evaluate``. The ``karpa`` package must be
importable; ``run.py`` puts the checkout's ``src`` first on the path.
"""

from __future__ import annotations

import gc
import hashlib
import math
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from karpa.config import config_digest, load_config
from karpa.evaluation import evaluate, load_dataset, render_report
from karpa.kg import INVERSE_MARKER
from karpa.pipeline import (
    Pipeline,
    build_chat_provider,
    build_embedding_gateway,
    load_graph,
    make_sample_runner,
)

import oracle
from probe import REF_S, probe
from providers import CountingEmbeddingProvider, EmbedCounter, OracleChatProvider

HERE = Path(__file__).resolve().parent
EMBED_DIM = 64
SETUP_MIN_REPEATS = 3  # set up at least this often, and until SETUP_MIN_SECONDS have been spent,
SETUP_MIN_SECONDS = 2.0  # so that a fast set-up still gets a steady median
SETUP_MAX_REPEATS = 20
MIN_TIMED_PASSES = 2  # so every question's time is a median of at least two samples


def percentile(values: list[float], q: float) -> float | None:
    """Nearest-rank percentile, or None unless at least ten samples lie beyond it."""
    ordered = sorted(values)
    rank = math.ceil(q / 100 * len(ordered))
    if rank < 1 or len(ordered) - rank < 10:
        return None
    return ordered[rank - 1]


def at_reference_speed(
    question_s: dict[str, float], probes: list[float], wall_s: float
) -> tuple[dict[str, float], float]:
    """Question times and pass wall at the probe's reference speed.

    ``question_s`` is in run order and ``probes`` has one probe before the
    first question and one after each. A question's time is scaled by
    ``REF_S`` over the mean of the two probes around it; the evaluate loop's
    time outside questions, by the pass's time-weighted mean of those factors.
    """
    ref = {
        qid: t * REF_S / ((probes[i] + probes[i + 1]) / 2)
        for i, (qid, t) in enumerate(question_s.items())
    }
    if not ref:  # every question failed
        return ref, wall_s
    return ref, wall_s * sum(ref.values()) / sum(question_s.values())


@dataclass
class PassResult:
    report: object
    wall_s: float
    question_s: dict[str, float]
    results: dict[str, object]
    embed_calls: int
    embed_texts: int
    provider_calls: int
    provider_texts: int
    digest: str = ""
    # At the probe's reference speed (see probe.py); the raw figures where the workload does not probe.
    ref_wall_s: float = 0.0
    ref_question_s: dict[str, float] = field(default_factory=dict)
    probe_s: list[float] = field(default_factory=list)


@dataclass
class Checks:
    problems: list[str] = field(default_factory=list)
    claimed_edges: set[tuple[str, str, str]] = field(default_factory=set)
    digests: set[str] = field(default_factory=set)

    def fail(self, message: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(message)


class Bench:
    """One workload at one seed: inputs, optional stub, set-up and passes."""

    def __init__(self, workload, seed: int, work: Path):
        self.workload = workload
        self.work = work
        self.stub = None
        work.mkdir(parents=True)
        subprocess.run(
            [sys.executable, str(HERE / "gen.py"), "--workload", workload.name,
             "--seed", str(seed), "--out", str(work)],
            check=True, timeout=170,
        )
        self.kg_path = work / "kg.tsv"
        self.table = oracle.load_table(work / "oracle.json")
        self.samples = load_dataset(work / "questions.jsonl", format="simple")
        self.checks = Checks()
        port = self._start_stub() if workload.http else None
        try:
            config_path = work / "karpa.conf"
            config_path.write_text(self._config_text(port), encoding="utf-8")
            self.cfg = load_config(config_path, env={})
        except BaseException:
            self.close()
            raise

    def _config_text(self, port: int | None) -> str:
        w = self.workload
        values = {
            "kg.path": self.kg_path,
            "kg.inverse_edges": str(w.inverse_edges).lower(),
            "embedding.dim": EMBED_DIM,
            "matcher.strategy": w.strategy,
            "eval.concurrency": w.concurrency,
        }
        if w.cache != "memory":
            values["embedding.cache_path"] = self.work / "embeddings.jsonl"
        if w.http:
            values.update({
                "embedding.kind": "http",
                "embedding.endpoint": f"http://127.0.0.1:{port}/embed",
                "embedding.model": "mock-64",
                "llm.kind": "http",
                "llm.endpoint": f"http://127.0.0.1:{port}/chat",
            })
        return "".join(f"{key} = {value}\n" for key, value in values.items())

    def _start_stub(self) -> int:
        self.stub = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--oracle", str(self.work / "oracle.json"),
             "--dim", str(EMBED_DIM)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        ready, _, _ = select.select([self.stub.stdout], [], [], 60)
        line = self.stub.stdout.readline().strip() if ready else ""
        if not line.isdigit():
            raise RuntimeError("loopback stub did not report a port")
        return int(line)

    def close(self) -> None:
        if self.stub is not None:
            self.stub.stdin.close()
            try:
                self.stub.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.stub.kill()
                self.stub.wait()
            self.stub = None

    # -- program set-up ----------------------------------------------------

    def _chat_provider(self):
        return build_chat_provider(self.cfg) if self.workload.http else OracleChatProvider(self.table)

    def setup(self, tracer=None):
        """Graph load, embedding gateway (cache file load), chat provider, Pipeline."""
        span = tracer.span if tracer is not None else (lambda name: nullcontext())
        start = time.perf_counter()
        with span("kg.load"):
            g = load_graph(self.cfg)
        with span("embeddings.cache_load"):
            gateway = build_embedding_gateway(self.cfg)
        pipeline = Pipeline(self.cfg, g, gateway, self._chat_provider())
        return time.perf_counter() - start, pipeline

    def timed_setups(self):
        """``(seconds of each set-up, the last pipeline)``."""
        times, pipeline = [], None
        while len(times) < SETUP_MAX_REPEATS and (
            len(times) < SETUP_MIN_REPEATS or sum(times) < SETUP_MIN_SECONDS
        ):
            pipeline = None
            gc.collect()
            elapsed, pipeline = self.setup()
            times.append(elapsed)
        return times, pipeline

    def fresh(self, base, chat=None):
        """``(pipeline, embed counter)`` on ``base``'s graph and chat provider (or ``chat``),
        with the workload's per-pass cache state and counting wrappers on the embedding side."""
        if self.workload.cache == "empty-file":
            Path(self.cfg.embedding.cache_path).unlink(missing_ok=True)
        gateway = build_embedding_gateway(self.cfg)
        gateway.provider = CountingEmbeddingProvider(gateway.provider)
        counter = EmbedCounter(gateway)
        return Pipeline(self.cfg, base.g, gateway, chat or base.chat_provider), counter

    # -- passes ------------------------------------------------------------

    def run_pass(self, state, index: int, tracer=None, keep_results: bool = False,
                 probe_host: bool = False) -> PassResult:
        """One checked ``evaluate`` pass over ``state`` (from ``fresh``); the
        ``PipelineResult`` objects are dropped after the checks unless
        ``keep_results``, so memory does not grow with passes.

        With ``probe_host`` (one worker only), the host-speed probe runs before
        the first question and after each one, outside the question's timing;
        each question's time is also given at the probe's reference speed, from
        the two probes around it, and the probes' time is taken out of the wall."""
        pipeline, counter = state
        run = make_sample_runner(pipeline)
        question_s: dict[str, float] = {}
        probes: list[float] = []
        results: dict[str, object] = {}
        eval_span_id = None

        def runner(sample):
            if probe_host and not probes:
                probes.append(probe())
            start = time.perf_counter()
            if tracer is None:
                result = run(sample)
            else:
                tracer.set_question(sample.id)
                with tracer.span("pipeline.run", parent=eval_span_id):
                    result = run(sample)
            question_s[sample.id] = time.perf_counter() - start
            if probe_host:
                probes.append(probe())
            results[sample.id] = result
            return result

        gc.collect()  # every pass starts with the previous pass's garbage gone
        checkpoint_dir = None
        if self.workload.checkpoints:
            checkpoint_dir = self.work / f"checkpoints-{index}"
            shutil.rmtree(checkpoint_dir, ignore_errors=True)
        provider = pipeline.embedder.provider
        before = (counter.calls, counter.texts, provider.calls, provider.texts)
        span = tracer.span("evaluation.evaluate") if tracer is not None else nullcontext()
        start = time.perf_counter()
        with span as opened:
            eval_span_id = opened.id if tracer is not None else None
            report = evaluate(
                self.samples,
                runner,
                mode=self.cfg.eval.mode,
                concurrency=self.cfg.eval.concurrency,
                checkpoint_dir=checkpoint_dir,
                config_digest=config_digest(self.cfg),
            )
        wall = time.perf_counter() - start - sum(probes)
        after = (counter.calls, counter.texts, provider.calls, provider.texts)
        counts = (a - b for a, b in zip(after, before))
        result = PassResult(report, wall, question_s, results, *counts)
        if probe_host:
            result.ref_question_s, result.ref_wall_s = at_reference_speed(question_s, probes, wall)
            result.probe_s = probes
        else:
            result.ref_wall_s, result.ref_question_s = wall, question_s
        result.digest = hashlib.sha256(render_report(report).encode("utf-8")).hexdigest()
        self.check(pipeline.g, result)
        if not keep_results:
            result.results = {}
        return result

    # -- output checks -----------------------------------------------------

    def check(self, g, result: PassResult) -> None:
        """Per-question checks of one pass; graph edges are verified later against the TSV."""
        checks = self.checks
        checks.digests.add(result.digest)
        limit = self.cfg.reasoner.batch_limit
        for record in result.report.records:
            if record.error:
                continue
            outcome = result.results[record.sample_id]
            for scored in outcome.selected:
                entities = [g.entity_label(e) for e in scored.path.entities()]
                labels = scored.relation_path.relations
                if len(set(entities)) != len(entities):
                    checks.fail(f"{record.sample_id}: selected path revisits an entity: {entities}")
                if len(labels) != len(entities) - 1:
                    checks.fail(f"{record.sample_id}: {len(labels)} labels for {len(entities) - 1} hops")
                for head, label, tail in zip(entities, labels, entities[1:]):
                    if label.endswith(INVERSE_MARKER):
                        checks.claimed_edges.add((tail, label[: -len(INVERSE_MARKER)], head))
                    else:
                        checks.claimed_edges.add((head, label, tail))
            phases = outcome.usage_snapshot["phases"]
            expected = {
                "initial_planning": 1,
                "replanning": 1,
                "reasoning": math.ceil(len(outcome.selected) / limit),
            }
            actual = {phase: phases[phase]["calls"] for phase in expected}
            if actual != expected or outcome.usage_snapshot["calls"] != sum(expected.values()):
                checks.fail(f"{record.sample_id}: LLM calls {actual}, expected {expected}")

    def finish_checks(self) -> list[str]:
        """Edge verification against the generated TSV, plus the report-digest rule."""
        checks = self.checks
        missing = set(checks.claimed_edges)
        with self.kg_path.open("r", encoding="utf-8") as fp:
            for line in fp:
                missing.discard(tuple(line.rstrip("\n").split("\t")))
        for edge in sorted(missing)[:5]:
            checks.fail(f"selected path uses an edge not in the graph: {edge}")
        if len(checks.digests) != 1:
            checks.fail(f"eval reports differ across passes: {len(checks.digests)} distinct digests")
        return checks.problems

    # -- end-to-end run ------------------------------------------------------

    def prime(self) -> None:
        """For a primed-file cache: one untimed pass that fills the cache file."""
        if self.workload.cache == "primed-file":
            self.run_pass(self.fresh(self.setup()[1]), 0)

    def run_end_to_end(self, seconds: float) -> tuple[dict, dict, int, int]:
        """Timed passes on fresh state until ``seconds`` have passed (at least
        MIN_TIMED_PASSES), then one untimed pass on the last pass's warm state,
        which must render the same report."""
        self.prime()
        setup_times, base = self.timed_setups()
        passes: list[PassResult] = []
        measured = 0.0
        while len(passes) < MIN_TIMED_PASSES or measured < seconds:
            state = self.fresh(base)
            passes.append(self.run_pass(state, len(passes), probe_host=self.workload.probes_host))
            measured += passes[-1].wall_s
        warm = self.run_pass(state, len(passes))
        return end_to_end_metrics(setup_times, passes, warm)


def end_to_end_metrics(
    setup_times: list[float], passes: list[PassResult], warm: PassResult
) -> tuple[dict, dict, int, int]:
    """``(metrics, extra, attempted, failed)``; both dicts map name -> (value, unit).

    ``metrics`` are the bounded end-to-end metrics of BENCHMARK.json, from
    the timed passes; ``extra`` are printed for reading only (see README.md).
    The question times in ``metrics`` are at the probe's reference speed on a
    workload that probes the host, and raw wall times on one that does not;
    ``extra`` has the raw ones too.
    """
    first = passes[0].report
    n = len(first.records)
    timed = n * len(passes)
    failed = sum(1 for p in passes + [warm] for r in p.report.records if r.error)

    def per_question(times_of) -> list[float]:
        """Each question's median time over the passes."""
        return [
            statistics.median(times_of(p)[qid] for p in passes if qid in times_of(p))
            for qid in passes[0].question_s
        ]

    question_s = per_question(lambda p: p.ref_question_s)
    usage = first.usage
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "questions_per_s": (timed / sum(p.ref_wall_s for p in passes), "1/s"),
        "question_ms_p50": (1000 * statistics.median(question_s), "ms"),
        "llm_calls_per_question": (usage["calls"] / n, "count"),
        "llm_tokens_per_question": ((usage["prompt_tokens"] + usage["completion_tokens"]) / n, "count"),
        "embed_calls_per_question": (passes[0].embed_calls / n, "count"),
        "embed_texts_per_question": (passes[0].embed_texts / n, "count"),
        "hit1": (first.aggregates["hit1"], "ratio"),
        "f1": (first.aggregates["f1"], "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    p90 = percentile(question_s, 90)
    attempted = timed + n
    extra = {
        "question_ms_p90": (None if p90 is None else 1000 * p90, "ms"),
        "failed_share": (failed / attempted, "ratio"),
        "embed_provider_calls_per_question": (passes[0].provider_calls / n, "count"),
        "embed_provider_texts_per_question": (passes[0].provider_texts / n, "count"),
        "setup_s_samples": (" ".join(f"{t:.3f}" for t in setup_times), "s"),
        "pass_walls_s": (" ".join(f"{p.wall_s:.3f}" for p in passes), "s"),
        "warm_pass_wall_s": (warm.wall_s, "s"),
        "questions": (n, "count"),
    }
    probes = [t for p in passes for t in p.probe_s]
    if probes:
        extra.update({
            "questions_per_s_wall": (timed / sum(p.wall_s for p in passes), "1/s"),
            "question_ms_p50_wall": (1000 * statistics.median(per_question(lambda p: p.question_s)), "ms"),
            "host_speed": (REF_S / statistics.median(probes), "ratio"),
        })
    return metrics, extra, attempted, failed
