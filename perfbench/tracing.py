"""Spans and counters for the traced run, recorded from outside the program.

``instrument`` swaps the module functions ``Pipeline`` calls, and a few
class methods, for timing wrappers, and restores them on exit. Phase-level
calls get spans (name, start, end, parent, question id) kept in memory.
They are written out once the run ends (``write_spans``).
Hot calls get counters instead of spans: ``KnowledgeGraph.neighbors`` and
``EmbeddingCache.get`` are only counted; ``EmbeddingGateway.embed``,
``EmbeddingCache.put`` and the embedding provider are counted and timed.

A span's self time is its duration minus the part of it covered by its
child spans (a union of intervals, so children running on two worker
threads are not counted twice) minus the timed counted calls made directly
inside it.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass

from karpa import embeddings, kg, llm, pipeline

MODULES = ("kg", "embeddings", "planner", "matching", "reasoner", "llm", "evaluation", "pipeline")


@dataclass
class Span:
    id: int
    name: str
    qid: str | None
    parent: int | None
    start: float
    end: float = 0.0
    counted_s: float = 0.0  # timed counted calls made directly inside this span

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class Counter:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class _Frame:
    """Stack entry of a timed counted call; collects the time of calls nested in it."""

    __slots__ = ("child_s",)

    def __init__(self):
        self.child_s = 0.0


def union_length(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted((max(s, lo), min(e, hi)) for s, e in intervals):
        if end <= start:
            continue
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span: duration minus covered children minus counted calls."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append((span.start, span.end))
    return {
        span.id: span.duration
        - union_length(children.get(span.id, []), span.start, span.end)
        - span.counted_s
        for span in spans
    }


def write_spans(spans: list[Span], path) -> None:
    """Write spans as line-JSON, one object per span, in start order."""
    with open(path, "w", encoding="utf-8") as fp:
        for span in sorted(spans, key=lambda s: s.start):
            record = {
                "id": span.id,
                "name": span.name,
                "question": span.qid,
                "parent": span.parent,
                "start": span.start,
                "end": span.end,
            }
            fp.write(json.dumps(record) + "\n")


class Tracer:
    """In-memory span and counter store; safe to use from several threads."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counters: dict[tuple[str, str | None], Counter] = {}  # (name, enclosing span name)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._ids = itertools.count(1)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @staticmethod
    def _enclosing(stack: list) -> Span | None:
        for frame in reversed(stack):
            if isinstance(frame, Span):
                return frame
        return None

    def set_question(self, qid: str | None) -> None:
        self._local.qid = qid

    def _add(self, name: str, stack: list, calls: int, total: float, self_s: float) -> None:
        span = self._enclosing(stack)
        key = (name, span.name if span is not None else None)
        with self._lock:
            counter = self.counters.get(key)
            if counter is None:
                counter = self.counters[key] = Counter()
            counter.calls += calls
            counter.total_s += total
            counter.self_s += self_s

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        stack = self._stack()
        if parent is None:
            enclosing = self._enclosing(stack)
            parent = enclosing.id if enclosing is not None else None
        span = Span(next(self._ids), name, getattr(self._local, "qid", None), parent, self.clock())
        stack.append(span)
        try:
            yield span
        finally:
            span.end = self.clock()
            stack.pop()
            if stack and isinstance(stack[-1], _Frame):
                stack[-1].child_s += span.duration
            with self._lock:
                self.spans.append(span)

    def spanned(self, name: str, fn):
        """``fn`` wrapped so that each call is a span named ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)

        return wrapper

    def timed(self, name: str, fn):
        """``fn`` wrapped so that each call is counted and timed, without a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            frame = _Frame()
            stack.append(frame)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = self.clock() - start
                stack.pop()
                if stack:
                    if isinstance(stack[-1], Span):
                        stack[-1].counted_s += duration
                    else:
                        stack[-1].child_s += duration
                self._add(name, stack, 1, duration, duration - frame.child_s)

        return wrapper

    def counted(self, name: str, fn, hit=None):
        """``fn`` wrapped so that each call is counted; ``hit(result)`` true also counts ``name.hits``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            stack = self._stack()
            self._add(name, stack, 1, 0.0, 0.0)
            if hit is not None and hit(result):
                self._add(name + ".hits", stack, 1, 0.0, 0.0)
            return result

        return wrapper

    # -- queries -------------------------------------------------------

    def calls(self, name: str, within: str | None = None) -> int:
        return sum(
            c.calls for (n, enclosing), c in self.counters.items()
            if n == name and (within is None or enclosing == within)
        )

    def counter_time(self, name: str, within: str | None = None, field: str = "total_s") -> float:
        return sum(
            getattr(c, field) for (n, enclosing), c in self.counters.items()
            if n == name and (within is None or enclosing == within)
        )


# Functions ``Pipeline`` calls through its own module namespace, with their span names.
_PIPELINE_CALLS = [
    ("build_initial_prompt", "planner.build_initial_prompt"),
    ("parse_path_sets", "planner.parse_path_sets"),
    ("extract_relation_pool", "planner.extract_relation_pool"),
    ("replan", "planner.replan"),
    ("build_replanning_prompt", "planner.build_replanning_prompt"),
    ("match_candidates", "matching.match_candidates"),
    ("answer_question", "reasoner.answer_question"),
]


@contextmanager
def instrument(tracer: Tracer):
    """Patch the program's public calls with ``tracer`` wrappers; restore them on exit."""
    patches = [(pipeline, attr, tracer.spanned(name, getattr(pipeline, attr))) for attr, name in _PIPELINE_CALLS]
    patches += [
        (llm.LlmGateway, "complete", tracer.spanned("llm.complete", llm.LlmGateway.complete)),
        (
            embeddings.EmbeddingGateway,
            "top_k_similar_relations",
            tracer.spanned("embeddings.top_k_similar_relations", embeddings.EmbeddingGateway.top_k_similar_relations),
        ),
        (embeddings.EmbeddingGateway, "embed", tracer.timed("embeddings.gateway_embed", embeddings.EmbeddingGateway.embed)),
        (embeddings.EmbeddingCache, "put", tracer.timed("embeddings.cache_put", embeddings.EmbeddingCache.put)),
        (
            embeddings.EmbeddingCache,
            "get",
            tracer.counted("embeddings.cache_get", embeddings.EmbeddingCache.get, hit=lambda r: r is not None),
        ),
        (kg.KnowledgeGraph, "neighbors", tracer.counted("kg.neighbors", kg.KnowledgeGraph.neighbors)),
    ]
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, wrapper in patches:
            setattr(owner, attr, wrapper)
        yield tracer
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)
