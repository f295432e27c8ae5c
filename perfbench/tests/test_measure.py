import pytest

from karpa.embeddings import EmbeddingGateway, MockEmbeddingProvider
from karpa.errors import TransportError
from karpa.llm import CompletionResult

from providers import CountingChatProvider, CountingEmbeddingProvider, EmbedCounter
from bench import at_reference_speed, percentile
import gc
import json

import probe
from workloads import WORKLOADS

from tracing import Span, Tracer, self_times, union_length, write_spans


def test_percentile_needs_ten_samples_beyond_it():
    assert percentile([float(i) for i in range(99)], 90) is None
    assert percentile([float(i) for i in range(1, 101)], 90) == 90.0
    assert percentile([float(i) for i in range(1, 21)], 50) == 10.0
    assert percentile([float(i) for i in range(1, 20)], 50) is None


def test_union_length_merges_overlaps_and_clips():
    assert union_length([], 0, 10) == 0
    assert union_length([(1, 3), (2, 5), (7, 8)], 0, 10) == 5
    assert union_length([(-5, 2), (9, 20)], 0, 10) == 3


def test_self_time_subtracts_covered_children_and_counted_calls():
    spans = [
        Span(1, "evaluation.evaluate", None, None, 0.0, 10.0),
        # two workers overlapping: union is [1, 8]
        Span(2, "pipeline.run", "q1", 1, 1.0, 6.0, counted_s=0.5),
        Span(3, "pipeline.run", "q2", 1, 4.0, 8.0),
        Span(4, "matching.match_candidates", "q1", 2, 2.0, 4.0, counted_s=1.5),
    ]
    selfs = self_times(spans)
    assert selfs == {1: 3.0, 2: 2.5, 3: 4.0, 4: 0.5}


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_tracer_attributes_nested_timed_calls():
    clock = FakeClock()
    tracer = Tracer(clock)

    def provider():
        clock.now += 2.0

    def embed():
        clock.now += 1.0
        timed_provider()

    timed_provider = tracer.timed("embeddings.provider", provider)
    timed_embed = tracer.timed("embeddings.gateway_embed", embed)
    with tracer.span("matching.match_candidates") as span:
        clock.now += 0.5
        timed_embed()
    assert span.duration == 3.5 and span.counted_s == 3.0
    assert self_times(tracer.spans) == {span.id: 0.5}
    assert tracer.counter_time("embeddings.gateway_embed", field="self_s") == 1.0
    assert tracer.counter_time("embeddings.provider", within="matching.match_candidates") == 2.0
    assert tracer.calls("embeddings.gateway_embed", within="matching.match_candidates") == 1


def test_write_spans_writes_one_record_per_span(tmp_path):
    spans = [Span(2, "pipeline.run", "q1", 1, 1.0, 2.0), Span(1, "evaluation.evaluate", None, None, 0.0, 3.0)]
    write_spans(spans, tmp_path / "spans.jsonl")
    records = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    assert [r["name"] for r in records] == ["evaluation.evaluate", "pipeline.run"]
    assert records[1] == {"id": 2, "name": "pipeline.run", "question": "q1", "parent": 1, "start": 1.0, "end": 2.0}


def test_counting_embedding_provider_counts_calls_texts_and_failures():
    class Flaky:
        identity = "flaky"

        def __init__(self):
            self.fail = True

        def embed_batch(self, texts):
            if self.fail:
                self.fail = False
                raise TransportError("down")
            return MockEmbeddingProvider().embed_batch(texts)

    counting = CountingEmbeddingProvider(Flaky())
    gateway = EmbeddingGateway(counting, sleep=lambda _: None)
    gateway.embed(["a b", "c d", "a b"])
    gateway.embed(["a b"])
    assert (counting.calls, counting.texts, counting.transport_errors) == (2, 4, 1)
    assert counting.identity == "flaky"


def test_embed_counter_sees_calls_made_through_the_gateway():
    gateway = EmbeddingGateway(MockEmbeddingProvider())
    counter = EmbedCounter(gateway)
    gateway.similarity("people person", "film movie")
    gateway.top_k_similar_relations("people", ["a.b", "c.d", "e.f"], 2)
    assert (counter.calls, counter.texts) == (2, 6)


def test_counting_chat_provider_counts_transport_errors():
    class Down:
        identity = "down"

        def complete(self, messages, params):
            raise TransportError("down")

    class Up:
        identity = "up"

        def complete(self, messages, params):
            return CompletionResult("{}", 1, 1)

    down = CountingChatProvider(Down())
    with pytest.raises(TransportError):
        down.complete([], None)
    up = CountingChatProvider(Up())
    up.complete([], None)
    assert (down.transport_errors, up.transport_errors) == (1, 0)


def test_reference_speed_scales_each_question_by_the_probes_around_it():
    probes = [probe.REF_S, probe.REF_S, 3 * probe.REF_S]  # the host slows down during q2
    ref, ref_wall = at_reference_speed({"q1": 1.0, "q2": 4.0}, probes, wall_s=5.5)
    assert ref == {"q1": 1.0, "q2": 2.0}
    assert ref_wall == 5.5 * 3.0 / 5.0


def test_probe_takes_time_and_leaves_the_collector_as_it_was():
    was = gc.isenabled()
    try:
        gc.enable()
        assert probe.probe() > 0 and gc.isenabled()
        gc.disable()
        assert probe.probe() > 0 and not gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()


def test_only_single_worker_workloads_probe_the_host():
    assert {name for name, w in WORKLOADS.items() if w.probes_host} == {"heuristic-cold", "beam-rerun"}
