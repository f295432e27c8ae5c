import errno
import gc
import itertools
import json
import math
import os
import random
import subprocess
import sys
import tempfile
import threading
import tracemalloc
from array import array
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from karpa import embeddings
from karpa.embeddings import (
    EmbeddingCache,
    EmbeddingGateway,
    EmbeddingVector,
    MockEmbeddingProvider,
    ScriptedEmbeddingProvider,
    Uncached,
    cosine_many,
    mock_embed,
    text_digest,
)
from karpa.errors import (
    ContractError,
    DataError,
    DomainError,
    EmbeddingDimError,
    MissingFixtureError,
    ProviderError,
    TransportError,
)

from helpers import FlakyEmbeddingProvider, SpyEmbeddingProvider, relation_label_pool
from oracles import ref_mock_embed_loop, ref_mock_embedding, ref_pair_cosine


def vec(*values):
    return EmbeddingVector(tuple(float(v) for v in values))


# -- cosine ----------------------------------------------------------------


def test_cosine_identity():
    assert cosine_many(vec(1, 0), [vec(1, 0)]) == pytest.approx([1.0], abs=1e-9)


def test_cosine_orthogonal():
    assert cosine_many(vec(1, 0), [vec(0, 1)]) == pytest.approx([0.0], abs=1e-9)


def test_cosine_analytic_sqrt2():
    assert cosine_many(vec(1, 1), [vec(1, 0)]) == pytest.approx([0.7071], abs=1e-4)


def test_cosine_dimension_mismatch():
    with pytest.raises(ContractError):
        cosine_many(vec(1, 0), [vec(1, 0, 0)])


def test_cosine_zero_vector():
    with pytest.raises(DomainError):
        cosine_many(vec(0, 0), [vec(1, 0)])


def test_vector_values_must_be_finite():
    with pytest.raises(ContractError):
        vec(1.0, float("nan"))
    with pytest.raises(ContractError):
        vec(float("inf"), 0.0)


finite_floats = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False).filter(
    lambda v: v == 0 or abs(v) > 1e-6
)


@settings(max_examples=200, deadline=None)
@given(st.lists(finite_floats, min_size=2, max_size=16))
def test_cosine_self_similarity(values):
    if not any(v != 0 for v in values):
        return
    v = EmbeddingVector(tuple(values))
    assert cosine_many(v, [v]) == pytest.approx([1.0], abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(finite_floats, min_size=3, max_size=8),
    st.lists(finite_floats, min_size=3, max_size=8),
    st.floats(1e-3, 1e3),
)
def test_cosine_symmetry_and_scale_invariance(a, b, scale):
    size = min(len(a), len(b))
    a, b = a[:size], b[:size]
    if not any(v != 0 for v in a) or not any(v != 0 for v in b):
        return
    va, vb = EmbeddingVector(tuple(a)), EmbeddingVector(tuple(b))
    scaled = EmbeddingVector(tuple(x * scale for x in a))
    [ab] = cosine_many(va, [vb])
    assert cosine_many(vb, [va]) == pytest.approx([ab], abs=1e-9)
    assert cosine_many(scaled, [vb]) == pytest.approx([ab], abs=1e-6)
    assert -1.0 <= ab <= 1.0


def _outcome(call):
    try:
        return call()
    except (ContractError, DomainError) as exc:
        return type(exc), str(exc)


# Vectors of two dimensions, some all-zero, so mismatches and zero norms
# turn up among ordinary values.
_cosine_vectors = st.integers(2, 3).flatmap(
    lambda dim: st.one_of(st.just((0.0,) * dim), st.tuples(*[finite_floats] * dim))
)


@settings(max_examples=300, deadline=None)
@given(_cosine_vectors, st.lists(_cosine_vectors, max_size=6))
def test_cosine_many_is_pairwise_cosine_bit_for_bit(query, vectors):
    q = EmbeddingVector(query)
    vs = [EmbeddingVector(v) for v in vectors]
    # Equal lists of floats with ==, or the same error type and message,
    # which names the first offending vector's dimension.
    batch = _outcome(lambda: cosine_many(q, vs))
    assert batch == _outcome(lambda: [cosine_many(q, [v])[0] for v in vs])
    assert batch == _outcome(lambda: [ref_pair_cosine(q, v) for v in vs])


# Components mostly ±0.0, as in bag-of-features vectors, plus extremes whose
# squares overflow or underflow: the sparse dot and the stored norms must
# give the same bits and errors as the full loop.
_sparse_component = st.one_of(
    st.just(0.0),
    st.just(-0.0),
    st.just(0.0),
    st.just(-0.0),
    finite_floats,
    st.sampled_from([1e300, -1e300, 5e-324, -5e-324]),
)


def _sparse_vector(dim):
    return st.one_of(st.just((0.0,) * dim), st.just((-0.0,) * dim), st.tuples(*[_sparse_component] * dim))


# A query and vectors of its dim, now and then one a component longer.
_sparse_cases = st.integers(1, 64).flatmap(
    lambda dim: st.tuples(
        _sparse_vector(dim),
        st.lists(st.sampled_from([dim, dim, dim, dim + 1]).flatmap(_sparse_vector), max_size=6),
    )
)


@settings(max_examples=200, deadline=None)
@given(_sparse_cases)
@example(((0.0, -0.0, 0.0), [(1.0, 0.0, 2.0)]))
@example(((0.0, 1.0, 0.0), [(0.0, 1.0, 0.0), (-0.0, -0.0, -0.0)]))
@example(((0.0, 1.0), [(0.0, 1.0), (1.0, 0.0, 0.0), (0.0, 0.0)]))
def test_cosine_many_with_sparse_vectors_equals_the_pairwise_loop(case):
    query, vectors = case
    q = EmbeddingVector(query)
    vs = [EmbeddingVector(v) for v in vectors]
    assert _outcome(lambda: cosine_many(q, vs)) == _outcome(lambda: [ref_pair_cosine(q, v) for v in vs])


def _loop_norm_sq(values):
    nv = 0.0
    for y in values:
        nv += y * y
    return nv


@settings(max_examples=200, deadline=None)
@given(st.lists(_sparse_component, min_size=1, max_size=64))
def test_stored_norm_is_the_loop_sum_and_stays_out_of_equality(values):
    a, b = EmbeddingVector(tuple(values)), EmbeddingVector(tuple(values))
    assert a == b
    with pytest.raises(TypeError):
        hash(a)  # a vector's array is mutable, so it has no hash
    assert a.norm_sq == _loop_norm_sq(values)
    assert repr(a) == f"EmbeddingVector(values={tuple(values)!r})"


def test_huge_values_are_finite_though_their_norm_is_not():
    v = vec(1e200, 1e200)
    assert v.norm_sq == math.inf
    with pytest.raises(ContractError):
        vec(1e200, float("inf"))


# -- mock embedding ---------------------------------------------------------


def test_mock_embed_deterministic():
    assert mock_embed("people.person.children", 64) == mock_embed("people.person.children", 64)


def test_mock_embed_unit_norm():
    norm = math.sqrt(sum(v * v for v in mock_embed("father mother child", 64).values))
    assert norm == pytest.approx(1.0, abs=1e-9)


def test_mock_embed_matches_reference_oracle():
    for text in ["people.person.children", "father father", "location.country.capital x1"]:
        ours = mock_embed(text, 64).values
        ref = ref_mock_embedding(text, 64)
        assert list(ours) == pytest.approx(ref, abs=1e-12)


def _embed_outcome(embed, text, dim):
    try:
        return embed(text, dim)
    except (ContractError, DomainError) as exc:
        return type(exc), str(exc)


# Letters in both cases, digits, every kind of separator, and characters
# whose lowercase form is longer (İ), context-dependent (Σ) or unchanged (ß).
_mock_texts = st.text(alphabet=st.sampled_from(list("abcxyzABZ019 .\t\n_-İΣß")), max_size=40)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_mock_texts, st.text(max_size=20)), st.sampled_from([8, 64, 97]))
@example("", 64)
@example("   ", 8)
@example("\t\n", 97)
@example("a b", 64)
@example("  People.Person.Father  people_person  ", 64)
@example("İstanbul ΣΑΣ straße", 97)
@example("ab ab  ab", 8)
def test_mock_embed_equals_the_unmemoized_loop(text, dim):
    assert _embed_outcome(mock_embed, text, dim) == _embed_outcome(ref_mock_embed_loop, text, dim)


# A word of a label sequence: a relation label, or any short run of letters,
# digits and separators, which may hold no token at all ("", "._").
_mock_words = st.one_of(
    st.sampled_from(["people.person.children", "people.person.spouse_s", "location.country.capital"]),
    st.text(alphabet=st.sampled_from(list("abxyz09._-İΣß")), max_size=8),
)


@st.composite
def _heuristic_batches(draw):
    """Texts shaped like one heuristic request: a few heads, each followed by one
    space and one label per child, with single-word texts (the empty head),
    double spaces (an empty word in a head) and repeats, in any order."""
    batch = []
    for head in draw(st.lists(st.lists(_mock_words, max_size=3).map(" ".join), min_size=1, max_size=4)):
        labels = draw(st.lists(_mock_words, min_size=1, max_size=6))
        batch += [f"{head} {label}" if head else label for label in labels]
    batch += draw(st.lists(st.sampled_from(batch), max_size=3))
    return draw(st.permutations(batch))


def _loop_outcome(batch, dim):
    """Each text's ``(values bytes, norm_sq hex)`` from the per-text reference, up to the
    first ``DomainError``, and that error's message (None if there is none)."""
    out = []
    for text in batch:
        try:
            vector = ref_mock_embed_loop(text, dim)
        except DomainError as exc:
            return out, str(exc)
        out.append((vector.values.tobytes(), vector.norm_sq.hex()))
    return out, None


@settings(max_examples=200, deadline=None)
@given(_heuristic_batches())
@example(["a b", "a c", "a b", "b", "a  c", "a ..", "x.y a", "x.y  b"])
@example(["people.person.children people.person.spouse_s", "..", "a b"])
def test_mock_batch_equals_the_per_text_loop(batch):
    for dim in (8, 64, 768):
        expected, error = _loop_outcome(batch, dim)
        if error is not None:
            with pytest.raises(DomainError) as info:
                MockEmbeddingProvider(dim).embed_batch(batch)
            assert str(info.value) == error
            continue
        got = MockEmbeddingProvider(dim).embed_batch(batch)
        assert [(vector.values.tobytes(), vector.norm_sq.hex()) for vector in got] == expected
        assert [array("d", ref_mock_embedding(text, dim)).tobytes() for text in batch] == [v for v, _ in expected]


def test_mock_embed_shared_tokens_raise_similarity():
    ff = mock_embed("father father", 64)
    father, spouse = cosine_many(ff, [mock_embed("father", 64), mock_embed("spouse", 64)])
    assert father > spouse


def test_mock_embed_rejects_small_dim():
    with pytest.raises(ContractError):
        mock_embed("x", 4)


def test_mock_embed_rejects_empty_tokenization():
    with pytest.raises(DomainError):
        mock_embed("...___...", 64)


# -- gateway + cache ---------------------------------------------------------


def test_embed_second_call_hits_cache():
    spy = SpyEmbeddingProvider(MockEmbeddingProvider(64))
    gw = EmbeddingGateway(spy)
    first = gw.embed(["alpha beta"])
    assert spy.calls == 1
    second = gw.embed(["alpha beta"])
    assert spy.calls == 1
    assert first == second


def test_embed_partial_cache_sends_only_misses():
    spy = SpyEmbeddingProvider(MockEmbeddingProvider(64))
    gw = EmbeddingGateway(spy)
    gw.embed(["one"])
    gw.embed(["one", "two", "three"])
    assert spy.batches[-1] == ["two", "three"]


def test_embed_duplicate_texts_in_one_batch():
    spy = SpyEmbeddingProvider(MockEmbeddingProvider(64))
    gw = EmbeddingGateway(spy)
    a, b = gw.embed(["same text", "same text"])
    assert a == b
    assert spy.batches == [["same text"]]


def test_embed_rejects_empty_inputs():
    gw = EmbeddingGateway(MockEmbeddingProvider(64))
    with pytest.raises(ContractError):
        gw.embed([])
    with pytest.raises(ContractError):
        gw.embed(["ok", ""])


def test_embed_retries_transport_errors():
    flaky = FlakyEmbeddingProvider(MockEmbeddingProvider(64), failures=2)
    naps = []
    gw = EmbeddingGateway(flaky, sleep=naps.append)
    gw.embed(["retry me"])
    assert flaky.attempts == 3
    assert naps == [0.25, 0.5]


def test_embed_surfaces_after_exhausted_retries():
    flaky = FlakyEmbeddingProvider(MockEmbeddingProvider(64), failures=5)
    gw = EmbeddingGateway(flaky, sleep=lambda _: None)
    with pytest.raises(TransportError):
        gw.embed(["never"])
    assert flaky.attempts == 3


class _DriftingProvider:
    identity = "drifting"

    def __init__(self):
        self.calls = 0

    def embed_batch(self, texts):
        self.calls += 1
        dim = 8 if self.calls == 1 else 9
        return [EmbeddingVector(tuple([1.0] * dim)) for _ in texts]


def test_dim_drift_is_provider_error():
    gw = EmbeddingGateway(_DriftingProvider())
    gw.embed(["first"])
    with pytest.raises(ProviderError, match="drifted from 8 to 9 under identity 'drifting'.*karpa cache clear"):
        gw.embed(["second"])


def test_a_reply_with_too_few_vectors_is_provider_error():
    class Short(MockEmbeddingProvider):
        def embed_batch(self, texts):
            return super().embed_batch(texts)[1:]

    with pytest.raises(ProviderError, match="returned 1 vectors for 2 texts"):
        EmbeddingGateway(Short(64)).embed(["one", "two"])


def test_embed_keeps_the_vector_another_thread_cached_first(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = EmbeddingCache(path)
    provider = MockEmbeddingProvider(64)
    identity = provider.identity
    # Not the provider's vector for the text, so that the test sees whose bits are kept.
    held = mock_embed("another worker's text", 64)

    class Racing:
        """Another worker caches the text while this provider call runs."""

        identity = provider.identity

        def embed_batch(self, texts):
            cache.put(identity, "raced text", held)
            return provider.embed_batch(texts)

    (vec,) = EmbeddingGateway(Racing(), cache).embed(["raced text"])
    again = cache.put(identity, "raced text", mock_embed("raced text", 64))
    for kept in (vec, again, cache.get(identity, "raced text")):
        assert kept.values.tobytes() == held.values.tobytes()
        assert kept.norm_sq.hex() == held.norm_sq.hex()
    assert cache.stats()["records"] == 1
    assert len(path.read_text(encoding="utf-8").splitlines()) == 2  # the header and one record


def test_an_uncached_request_in_flight_leaves_other_requests_on_the_cache():
    # While one thread's Uncached request waits inside the provider, plain
    # requests from another thread, to the same gateway and to a second one
    # on the same cache, are served from the cache and keep their misses.
    cache = EmbeddingCache()
    provider = MockEmbeddingProvider(64)
    identity = provider.identity

    def cached(text):
        return cache.get(identity, text)

    # Not the provider's vector for the text, so that the test sees whose bits are used.
    stored = cache.put(identity, "held", mock_embed("something else", 64))
    entered, release = threading.Event(), threading.Event()

    class Gated:
        """Holds an ``Uncached`` request, which it is sent as given, until released."""

        identity = provider.identity

        def __init__(self):
            self.batches = []

        def embed_batch(self, texts):
            self.batches.append(list(texts))
            if isinstance(texts, Uncached):
                entered.set()
                release.wait(10)
            return provider.embed_batch(texts)

    gated = Gated()
    gateway = EmbeddingGateway(gated, cache)
    other = EmbeddingGateway(gated, cache)
    uncached = []
    worker = threading.Thread(target=lambda: uncached.extend(gateway.embed(Uncached(["held", "dropped"]))))
    worker.start()
    try:
        assert entered.wait(10)
        hit, fetched = gateway.embed(["held", "this gateway's"])
        other_hit, other_fetched = other.embed(["held", "another gateway's"])
    finally:
        release.set()
        worker.join(timeout=10)
    assert not worker.is_alive()
    assert hit.values == other_hit.values == stored.values
    assert [v.values for v in uncached] == [mock_embed(t, 64).values for t in ("held", "dropped")]
    assert gated.batches == [["held", "dropped"], ["this gateway's"], ["another gateway's"]]
    assert cached("held").values == stored.values and cached("dropped") is None
    assert cached("this gateway's").values == fetched.values
    assert cached("another gateway's").values == other_fetched.values
    assert cache.stats()["records"] == 3


class _CountingCache(EmbeddingCache):
    """An in-memory cache counting its ``get`` and ``put`` calls."""

    def __init__(self):
        super().__init__()
        self.calls = 0

    def get(self, identity, text):
        self.calls += 1
        return super().get(identity, text)

    def put(self, identity, text, vector):
        self.calls += 1
        return super().put(identity, text, vector)


def test_uncached_requests_make_no_cache_call_and_keep_the_checks():
    # An Uncached request sends its texts as given, repeats included, and
    # holds the reply to the same count and dim checks as a miss.
    cache = _CountingCache()
    spy = SpyEmbeddingProvider(MockEmbeddingProvider(64))
    gateway = EmbeddingGateway(spy, cache)
    vectors = gateway.embed(Uncached(["a b", "c", "a b"]))
    assert spy.batches == [["a b", "c", "a b"]]
    assert [v.values for v in vectors] == [mock_embed(t, 64).values for t in ("a b", "c", "a b")]

    class Short(MockEmbeddingProvider):
        def embed_batch(self, texts):
            return super().embed_batch(texts)[1:]

    short = EmbeddingGateway(Short(64), cache)
    with pytest.raises(ProviderError, match="returned 1 vectors for 2 texts"):
        short.embed(Uncached(["one", "two"]))
    drifting = EmbeddingGateway(_DriftingProvider(), cache)
    drifting.embed(Uncached(["first"]))
    with pytest.raises(EmbeddingDimError, match="drifted from 8 to 9"):
        drifting.embed(Uncached(["second"]))
    assert cache.calls == 0 and cache.stats()["records"] == 0
    gateway.embed(["a b"])  # a plain list: one lookup, one store
    assert cache.calls == 2


def test_cache_roundtrip_equals_uncached():
    texts = ["people.person.children", "film.movie.director", "location.country.capital"]
    cached = EmbeddingGateway(MockEmbeddingProvider(64), EmbeddingCache())
    uncached = MockEmbeddingProvider(64)
    for a, b in zip(cached.embed(texts), uncached.embed_batch(texts)):
        assert a.values == b.values


def test_cache_file_persistence(tmp_path):
    path = tmp_path / "cache.jsonl"
    spy = SpyEmbeddingProvider(MockEmbeddingProvider(64))
    gw = EmbeddingGateway(spy, EmbeddingCache(path))
    gw.embed(["persist me"])
    assert spy.calls == 1

    spy2 = SpyEmbeddingProvider(MockEmbeddingProvider(64))
    gw2 = EmbeddingGateway(spy2, EmbeddingCache(path))
    assert gw2.embed(["persist me"])[0] == gw.embed(["persist me"])[0]
    assert spy2.calls == 0

    header = path.read_text(encoding="utf-8").splitlines()[0]
    assert json.loads(header)["format"] == "karpa-embedding-cache"


def test_cache_keys_include_provider_identity(tmp_path):
    path = tmp_path / "cache.jsonl"
    gw64 = EmbeddingGateway(MockEmbeddingProvider(64), EmbeddingCache(path))
    gw64.embed(["shared text"])
    spy32 = SpyEmbeddingProvider(MockEmbeddingProvider(32))
    gw32 = EmbeddingGateway(spy32, EmbeddingCache(path))
    gw32.embed(["shared text"])
    assert spy32.calls == 1  # different identity, no aliasing


def test_cache_stats_and_clear(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_text(json.dumps(embeddings.CACHE_HEADER) + "\nnot a record\n", encoding="utf-8")
    cache = EmbeddingCache(path)
    gw = EmbeddingGateway(MockEmbeddingProvider(64), cache)
    gw.embed(["a", "b"])
    stats = cache.stats()
    assert stats["records"] == 2 and stats["skipped"] == 1
    assert stats["bytes"] > 0
    cache.clear()
    assert cache.stats() == {"records": 0, "skipped": 0, "path": str(path), "bytes": 0}
    assert not path.exists()


# Signed zeros, the least subnormal and a value whose square overflows, so
# that the norm is 0.0, subnormal-fed or infinite.
_EXTREME_VECTORS = [
    (0.0, -0.0, 5e-324, 1.0),
    (1e300, -0.0, -1e300, 0.5),
    (5e-324, -5e-324, -0.0, 0.0),
]


def test_payload_round_trip_keeps_values_and_norm_bit_for_bit(tmp_path):
    path = tmp_path / "cache.jsonl"
    cache = EmbeddingCache(path)
    vectors = [EmbeddingVector(values) for values in _EXTREME_VECTORS]
    for i, vector in enumerate(vectors):
        cache.put("identity", str(i), vector)
    reloaded = EmbeddingCache(path)
    assert reloaded.skipped == 0
    for i, vector in enumerate(vectors):
        for held in (cache.get("identity", str(i)), reloaded.get("identity", str(i))):
            assert held.values.tobytes() == vector.values.tobytes()
            assert held.norm_sq.hex() == vector.norm_sq.hex()
    assert [v.norm_sq for v in vectors][1:] == [math.inf, 0.0]


def test_cache_load_skips_values_that_are_not_a_list(tmp_path):
    path = tmp_path / "cache.jsonl"
    EmbeddingCache(path).put("identity", "kept", mock_embed("kept", 8))
    with path.open("a", encoding="utf-8") as fp:
        for text, values in (("string", "123"), ("object", {"4": 1, "5": 2, "6": 3})):
            record = {"identity": text_digest("identity"), "text": text_digest(text), "dim": 3, "values": values}
            fp.write(json.dumps(record) + "\n")
    cache = EmbeddingCache(path)
    assert cache.skipped == 2 and cache.stats()["records"] == 1
    assert cache.get("identity", "string") is None and cache.get("identity", "object") is None


def test_cache_load_skips_values_that_are_not_json_numbers(tmp_path):
    path = tmp_path / "cache.jsonl"
    EmbeddingCache(path).put("identity", "kept", mock_embed("kept", 8))
    with path.open("a", encoding="utf-8") as fp:
        for text, values in (("strings", ["1.5", "2"]), ("booleans", [True, False]), ("huge", [10**400, 1.0])):
            record = {"identity": text_digest("identity"), "text": text_digest(text), "dim": 2, "values": values}
            fp.write(json.dumps(record) + "\n")
    cache = EmbeddingCache(path)
    assert cache.skipped == 3 and cache.stats()["records"] == 1
    assert cache.get("identity", "kept") == mock_embed("kept", 8)


def test_cache_load_skips_blank_lines_without_counting_them(tmp_path):
    path = tmp_path / "cache.jsonl"
    EmbeddingCache(path).put("identity", "first", mock_embed("first", 8))
    with path.open("a", encoding="utf-8") as fp:
        fp.write("\n  \n")
    EmbeddingCache(path).put("identity", "second", mock_embed("second", 8))
    cache = EmbeddingCache(path)
    assert cache.skipped == 0 and cache.stats()["records"] == 2


def test_cache_load_skips_a_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "cache.jsonl"
    EmbeddingCache(path).put("identity", "first", mock_embed("first", 8))
    with path.open("ab") as fp:
        fp.write(b'{"identity": "\xff"}\n')
    EmbeddingCache(path).put("identity", "second", mock_embed("second", 8))
    cache = EmbeddingCache(path)
    assert cache.skipped == 1 and cache.stats()["records"] == 2


def test_file_whose_first_line_is_not_utf8_is_data_error(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_bytes(b"\xff\n")
    with pytest.raises(DataError, match="not an embedding cache file"):
        EmbeddingCache(path)


@pytest.mark.parametrize("first_line", ["karpa cache\n", "[1, 2]\n"], ids=["not-json", "not-a-header"])
def test_file_that_does_not_start_with_a_cache_header_is_data_error(tmp_path, first_line):
    path = tmp_path / "cache.jsonl"
    path.write_text(first_line, encoding="utf-8")
    with pytest.raises(DataError, match="not an embedding cache file"):
        EmbeddingCache(path)


def _two_caches_put_one_record_each(path: Path) -> EmbeddingCache:
    """Open two caches on ``path``, then put one record through each; the file reloaded."""
    first, second = EmbeddingCache(path), EmbeddingCache(path)
    first.put("identity", "alpha", mock_embed("alpha"))
    second.put("identity", "beta", mock_embed("beta"))
    return EmbeddingCache(path)


def _assert_both_records(reloaded: EmbeddingCache, why=None) -> None:
    assert reloaded.stats()["records"] == 2 and reloaded.skipped == 0, why
    assert reloaded.get("identity", "alpha") == mock_embed("alpha"), why
    assert reloaded.get("identity", "beta") == mock_embed("beta"), why


def test_two_caches_on_one_new_file_keep_both_records(tmp_path):
    path = tmp_path / "cache.jsonl"
    _assert_both_records(_two_caches_put_one_record_each(path))
    # Each cache found no file, so each appended a header before its record.
    assert path.read_text(encoding="utf-8").count('"format"') == 2


def test_two_caches_on_an_empty_file_keep_both_records(tmp_path):
    path = tmp_path / "cache.jsonl"
    path.write_bytes(b"")
    _assert_both_records(_two_caches_put_one_record_each(path))


def test_two_caches_on_a_header_cut_short_keep_both_records(tmp_path):
    header = embeddings._HEADER_LINE
    for n in range(1, len(header)):
        path = tmp_path / f"cache{n}.jsonl"
        path.write_text(header[:n], encoding="utf-8")
        _assert_both_records(_two_caches_put_one_record_each(path), n)


@pytest.mark.parametrize("remove", ["clear", "unlink"])
def test_a_cache_file_removed_under_a_cache_is_made_again_with_its_header(tmp_path, remove):
    # As when `karpa cache clear` runs in another shell, or `rm` removes the
    # file, while a run holds the cache: its next put makes a new file.
    path = tmp_path / "cache.jsonl"
    cache = EmbeddingCache(path)
    cache.put("identity", "before", mock_embed("before"))
    if remove == "clear":
        EmbeddingCache(path).clear()
    else:
        os.unlink(path)
    cache.put("identity", "after", mock_embed("after"))
    assert path.read_text(encoding="utf-8").startswith(embeddings._HEADER_LINE)
    reloaded = EmbeddingCache(path)
    assert reloaded.stats()["records"] == 1 and reloaded.skipped == 0
    assert reloaded.get("identity", "after") == mock_embed("after")


def test_a_put_to_a_new_file_works_where_hard_links_fail(tmp_path, monkeypatch):
    # As on a filesystem without hard links.
    def no_link(src, dst, *args, **kwargs):
        raise OSError(errno.EPERM, "Operation not permitted", str(src))

    monkeypatch.setattr(os, "link", no_link)
    path = tmp_path / "cache.jsonl"
    EmbeddingCache(path).put("identity", "alpha", mock_embed("alpha"))
    reloaded = EmbeddingCache(path)
    assert reloaded.stats()["records"] == 1 and reloaded.skipped == 0
    assert reloaded.get("identity", "alpha") == mock_embed("alpha")
    assert [p.name for p in tmp_path.iterdir()] == ["cache.jsonl"]


def test_caches_on_one_new_file_in_many_threads_keep_every_record(tmp_path):
    path = tmp_path / "cache.jsonl"
    caches = [EmbeddingCache(path) for _ in range(4)]
    start = threading.Barrier(8)

    def put_all(worker):
        cache = caches[worker % len(caches)]
        start.wait(timeout=10)
        for i in range(10):
            text = f"w{worker} r{i}"
            cache.put("identity", text, mock_embed(text))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=put_all, args=(w,)) for w in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    reloaded = EmbeddingCache(path)
    assert reloaded.stats()["records"] == 80 and reloaded.skipped == 0
    assert path.read_text(encoding="utf-8").count('"format"') == 4  # one per cache
    assert [p.name for p in tmp_path.iterdir()] == ["cache.jsonl"]


_PUT_FIFTY = """\
import sys
from karpa.embeddings import EmbeddingCache, mock_embed
cache = EmbeddingCache(sys.argv[1])
print("open", flush=True)
sys.stdin.read()  # start when the test closes stdin, once both caches are open
for i in range(50):
    text = f"{sys.argv[2]} r{i}"
    cache.put("identity", text, mock_embed(text))
"""


def test_two_processes_on_one_new_file_keep_every_record(tmp_path):
    path = tmp_path / "cache.jsonl"
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join([str(src), env.get("PYTHONPATH", "")])
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _PUT_FIFTY, str(path), name],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True, encoding="utf-8",
        )
        for name in ("p0", "p1")
    ]
    try:
        # Both caches are open, and neither found a file, before either writes.
        assert [proc.stdout.readline() for proc in procs] == ["open\n", "open\n"]
    finally:
        for proc in procs:
            proc.stdin.close()
    assert [proc.wait(timeout=60) for proc in procs] == [0, 0]
    for proc in procs:
        proc.stdout.close()
    reloaded = EmbeddingCache(path)
    assert reloaded.stats()["records"] == 100 and reloaded.skipped == 0
    assert path.read_text(encoding="utf-8").count('"format"') == 2  # one per process
    assert [p.name for p in tmp_path.iterdir()] == ["cache.jsonl"]


_cache_texts = st.lists(
    st.text(alphabet="abcdefgh", min_size=1, max_size=6), min_size=2, max_size=4, unique=True
)


@settings(max_examples=8, deadline=None)
@given(_cache_texts, st.integers(1, 3))
def test_cache_survives_truncation_at_every_offset(texts, split):
    split = min(split, len(texts) - 1)
    before, after = texts[:split], texts[split:]
    provider = MockEmbeddingProvider(8)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "cache.jsonl"
        EmbeddingGateway(provider, EmbeddingCache(path)).embed(before)
        data = path.read_bytes()
        newlines = [i for i, b in enumerate(data) if b == ord("\n")]
        # (first byte, newline) of each record line after the header line
        records = [(prev + 1, nl) for prev, nl in zip(newlines, newlines[1:])]
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            EmbeddingGateway(provider, EmbeddingCache(path)).embed(after)
            reopened = EmbeddingCache(path)
            # A record survives when the cut kept its closing brace.
            expected = [t for t, (_, nl) in zip(before, records) if nl <= cut] + after
            assert reopened.stats()["records"] == len(expected), cut
            for text, vector in zip(expected, provider.embed_batch(expected)):
                assert reopened.get(provider.identity, text) == vector, cut
            cut_inside_record = any(first < cut < nl for first, nl in records)
            assert reopened.skipped == int(cut_inside_record), cut


# A cache file written when vectors held tuples of floats (karpa 2c1c261): mock
# vectors of ``_V1_TEXTS`` at dim 8 and of the first at dim 16, and one vector
# of extremes. ``_V1_KEYS`` holds each record's (identity, text), in file order.
_V1_CACHE = Path(__file__).parent / "data" / "embedding_cache_v1.jsonl"
_V1_TEXTS = ["people.person.children", "film.movie.director", "father mother child"]
_V1_KEYS = [
    *(("mock:dim=8", text) for text in _V1_TEXTS),
    ("mock:dim=16", _V1_TEXTS[0]),
    ("scripted-embed", "extremes"),
]


def test_cache_file_written_with_tuple_payloads_loads_and_rewrites_the_same_bytes(tmp_path):
    data = _V1_CACHE.read_bytes()
    path = tmp_path / "v1.jsonl"
    path.write_bytes(data)
    cache = EmbeddingCache(path)
    records = [json.loads(line) for line in data.decode("utf-8").splitlines()[1:]]
    assert cache.skipped == 0 and cache.stats()["records"] == len(records) == 5

    # Today's gateway finds every mock text under the keys the old writer chose.
    spy = SpyEmbeddingProvider(MockEmbeddingProvider(8))
    assert EmbeddingGateway(spy, cache).embed(_V1_TEXTS) == MockEmbeddingProvider(8).embed_batch(_V1_TEXTS)
    assert spy.calls == 0

    rewritten = EmbeddingCache(tmp_path / "rewritten.jsonl")
    for record, (identity, text) in zip(records, _V1_KEYS):
        assert (record["identity"], record["text"]) == (text_digest(identity), text_digest(text))
        vector = cache.get(identity, text)
        assert vector == EmbeddingVector(tuple(record["values"]))
        assert rewritten.put(identity, text, vector) is vector
    assert (tmp_path / "rewritten.jsonl").read_bytes() == data
    assert path.read_bytes() == data


def _two_label_texts_and_a_warm_gateway() -> tuple[list[str], EmbeddingGateway]:
    """20k distinct two-label mock texts, and a gateway that memoized every word in them."""
    labels = relation_label_pool(random.Random(0), 150)
    texts = [f"{a} {b}" for a in labels for b in labels if a != b][:20_000]
    gateway = EmbeddingGateway(MockEmbeddingProvider(64))
    gateway.embed(labels)
    return texts, gateway


# Bytes a cache entry (dim 64, ~22 nonzero components) retains: about 1,400
# when vectors held tuples of floats under hex-digest keys, about 815 with
# ``array('d')`` payloads in slotted vectors, about 650 with one ``bytes``
# payload of values and norm per entry, about 640 with the values' bytes only.
CACHE_ENTRY_BYTES_BOUND = 700


def test_cache_entries_stay_small():
    texts, gateway = _two_label_texts_and_a_warm_gateway()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for i in range(0, len(texts), 20):
            gateway.embed(texts[i : i + 20])
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert gateway.cache.stats()["records"] == 150 + len(texts)
    assert retained / len(texts) < CACHE_ENTRY_BYTES_BOUND


def test_cache_entries_add_no_objects_for_the_cyclic_collector():
    texts, gateway = _two_label_texts_and_a_warm_gateway()
    gc.collect()
    before = len(gc.get_objects())
    for i in range(0, len(texts), 20):
        gateway.embed(texts[i : i + 20])
    gc.collect()
    assert gateway.cache.stats()["records"] == 150 + len(texts)
    assert len(gc.get_objects()) - before < 100


# -- top-k retrieval ---------------------------------------------------------


def test_top_k_query_in_vocab_ranks_first(gateway):
    vocab = ["people.person.children", "film.movie.director", "location.country.capital"]
    [ranked] = gateway.top_k_similar_relations(["people.person.children"], vocab, 2)
    assert ranked[0][0] == "people.person.children"
    assert ranked[0][1] == pytest.approx(1.0, abs=1e-9)


def test_top_k_larger_than_vocab_returns_all(gateway):
    vocab = ["a.b.c", "d.e.f"]
    assert [len(r) for r in gateway.top_k_similar_relations(["a.b.c", "d.e.f"], vocab, 7)] == [2, 2]


def test_top_k_matches_exhaustive_ranking(gateway):
    rng = random.Random(7)
    vocab = relation_label_pool(rng, 20)
    query = "people.person.children"
    [ranked] = gateway.top_k_similar_relations([query], vocab, 5)

    qv = gateway.embed([query])[0]
    full = sorted(
        ((label, cosine_many(qv, gateway.embed([label]))[0]) for label in vocab),
        key=lambda pair: (-pair[1], pair[0]),
    )
    assert ranked == full[:5]


def test_top_k_is_prefix_of_full_ranking(gateway):
    rng = random.Random(21)
    vocab = relation_label_pool(rng, 60)
    [full] = gateway.top_k_similar_relations(["music.artist.albums"], vocab, len(vocab))
    for k in (1, 5, 17, 60):
        assert gateway.top_k_similar_relations(["music.artist.albums"], vocab, k) == [full[:k]]


def test_top_k_rejects_empty_vocab(gateway):
    with pytest.raises(ContractError):
        gateway.top_k_similar_relations(["x"], [], 3)


def test_top_k_rejects_an_empty_query_list(gateway):
    with pytest.raises(ContractError):
        gateway.top_k_similar_relations([], ["a.b.c"], 3)


def test_top_k_ranks_each_query_as_a_call_of_its_own():
    vocab = relation_label_pool(random.Random(4), 30)
    queries = ["people.person.children", "film director", "people.person.children", vocab[3]]
    batched = EmbeddingGateway(MockEmbeddingProvider(64)).top_k_similar_relations(queries, vocab, 5)
    assert batched == [
        EmbeddingGateway(MockEmbeddingProvider(64)).top_k_similar_relations([query], vocab, 5)[0]
        for query in queries
    ]
    # A single string is one query, not a list of characters.
    single = EmbeddingGateway(MockEmbeddingProvider(64)).top_k_similar_relations(queries[1], vocab, 5)
    assert single == batched[1:2]


def _record_requests(gateway):
    """The texts of every ``embed`` request ``gateway`` serves from now on."""
    requests = []
    embed = gateway.embed

    def recording(texts):
        requests.append(list(texts))
        return embed(texts)

    gateway.embed = recording
    return requests


def test_top_k_embeds_each_label_once_per_gateway():
    vocab = list(dict.fromkeys(relation_label_pool(random.Random(5), 30)))
    other = list(dict.fromkeys(relation_label_pool(random.Random(6), 30)))
    gw = EmbeddingGateway(MockEmbeddingProvider(64))
    requests = _record_requests(gw)
    gw.top_k_similar_relations(["people person", "music"], vocab, 3)
    gw.top_k_similar_relations(["film director"], list(vocab), 3)
    assert requests == [["people person", "music", *vocab], ["film director"]]
    # A vocabulary that shares labels with one held requests only the others.
    gw.top_k_similar_relations(["film director"], other, 3)
    gw.top_k_similar_relations(["music album"], other + vocab, 3)
    fresh = [label for label in other if label not in vocab]
    assert requests[2:] == [["film director", *fresh], ["music album"]]


def test_top_k_over_a_query_sequence_ranks_as_a_fresh_gateway_does():
    a, b = (relation_label_pool(random.Random(seed), 40) for seed in (8, 9))
    queries = ["people.person.children", "film movie", "people.person.children", "location capital"]
    gw = EmbeddingGateway(MockEmbeddingProvider(64))
    # The vocabulary switches now and then, so the kept vectors are both
    # reused and replaced.
    for query, vocab in zip(queries * 2, [b, a, a, b, a, a, b, a]):
        fresh = EmbeddingGateway(MockEmbeddingProvider(64))
        for k in (1, 7, len(vocab)):
            assert gw.top_k_similar_relations([query], vocab, k) == fresh.top_k_similar_relations([query], vocab, k)


def test_top_k_call_whose_provider_fails_leaves_no_vocabulary_behind():
    vocab = ["a.b.c", "d.e.f", "g.h.i"]
    gw = EmbeddingGateway(FlakyEmbeddingProvider(MockEmbeddingProvider(64), failures=3), sleep=lambda _: None)
    requests = _record_requests(gw)
    with pytest.raises(TransportError):
        gw.top_k_similar_relations(["a b"], vocab, 2)
    gw.top_k_similar_relations(["a b"], vocab, 2)
    assert requests == [["a b", *vocab], ["a b", *vocab]]


def test_label_fetch_whose_provider_fails_holds_no_label():
    gw = EmbeddingGateway(FlakyEmbeddingProvider(MockEmbeddingProvider(64), failures=3), sleep=lambda _: None)
    requests = _record_requests(gw)
    with pytest.raises(TransportError):
        gw.embed_with_labels([], ["a.b.c", "d.e.f"])
    assert gw.embed_with_labels([], ["d.e.f", "a.b.c"])[0] == []
    gw.embed_with_labels(["query"], ["a.b.c", "d.e.f"])
    assert requests == [["a.b.c", "d.e.f"], ["d.e.f", "a.b.c"], ["query"]]


def test_threads_fetching_labels_together_serve_the_cache_bits():
    labels = list(dict.fromkeys(relation_label_pool(random.Random(12), 60)))

    class EachCallItsOwn:
        """A provider whose vectors differ from call to call, so that whose bits are kept shows."""

        identity = "each-call"

        def __init__(self):
            self.calls = itertools.count()

        def embed_batch(self, texts):
            n = next(self.calls)
            return [mock_embed(f"{text} {n}", 64) for text in texts]

    gw = EmbeddingGateway(EachCallItsOwn())
    served: list[tuple[str, EmbeddingVector]] = []

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(20):
            batch = rng.sample(labels, 8)
            _, vectors = gw.embed_with_labels(["query"], batch)
            served.extend(zip(batch, vectors))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(served) == 8 * 20 * 8
    for label, vector in served:
        cached = gw.cache.get(gw.provider.identity, label)
        assert vector.values.tobytes() == cached.values.tobytes()


def test_held_labels_are_the_vectors_the_cache_serves():
    cache = EmbeddingCache()
    gw = EmbeddingGateway(MockEmbeddingProvider(64), cache)
    # Not the provider's vector for the label, so that the test sees whose bits are held.
    cached = mock_embed("another label", 64)
    cache.put(gw.provider.identity, "a.b.c", cached)
    _, (first, other) = gw.embed_with_labels([], ["a.b.c", "d.e.f"])
    _, (again,) = gw.embed_with_labels([], ["a.b.c"])
    assert first.values.tobytes() == cached.values.tobytes() and again is first
    assert other == mock_embed("d.e.f", 64)


# -- label fetches under the gateway's label lock -----------------------------


class _GatedProvider:
    """Mock vectors, recording every request. The first request that holds a
    text of ``hold`` blocks until ``release`` is set, then raises ``error``
    if one is given."""

    identity = "gated"

    def __init__(self, hold, error=None):
        self.hold = set(hold)
        self.error = error
        self.batches: list[list[str]] = []
        self.release = threading.Event()
        self._seen = threading.Condition()

    def embed_batch(self, texts):
        with self._seen:
            self.batches.append(list(texts))
            gated = not self.hold.isdisjoint(texts)
            self.hold.difference_update(texts)
            self._seen.notify_all()
        if gated:
            if not self.release.wait(timeout=10):
                raise RuntimeError("the gated request was never released")
            if self.error is not None:
                raise self.error
        return [mock_embed(text, 16) for text in texts]

    def wait_for_requests(self, count):
        with self._seen:
            assert self._seen.wait_for(lambda: len(self.batches) >= count, timeout=10)


class _WatchedLock:
    """A lock that counts the calls that have asked for it, so that a test
    can tell when a thread is queued behind the holder."""

    def __init__(self):
        self._lock = threading.Lock()
        self._asked = threading.Condition()
        self.asks = 0

    def __enter__(self):
        with self._asked:
            self.asks += 1
            self._asked.notify_all()
        if not self._lock.acquire(timeout=10):
            raise RuntimeError("the label lock was never released")

    def __exit__(self, *exc_info):
        self._lock.release()

    def locked(self):
        return self._lock.locked()

    def wait_for_asks(self, count):
        with self._asked:
            assert self._asked.wait_for(lambda: self.asks >= count, timeout=10)


def _in_thread(call, *args):
    """Start ``call(*args)`` in a thread; the returned dict gets its result or what it raised."""
    outcome = {}

    def run():
        try:
            outcome["result"] = call(*args)
        except BaseException as exc:  # handed to the test, KeyboardInterrupt too
            outcome["error"] = exc

    thread = threading.Thread(target=run)
    thread.start()
    return thread, outcome


def _join(*threads):
    for thread in threads:
        thread.join(timeout=10)
    assert not any(thread.is_alive() for thread in threads)


def _cached_bits(gateway, text):
    return gateway.cache.get(gateway.provider.identity, text).values.tobytes()


def test_threads_with_overlapping_labels_send_each_label_once():
    provider = _GatedProvider(hold={"first query"})
    gw = EmbeddingGateway(provider)
    gw._label_lock = lock = _WatchedLock()
    requests = _record_requests(gw)
    first, second = ["a.b.c", "d.e.f", "g.h.i"], ["g.h.i", "d.e.f", "j.k.l"]
    leader, led = _in_thread(gw.embed_with_labels, ["first query"], first)
    try:
        provider.wait_for_requests(1)
        follower, followed = _in_thread(gw.embed_with_labels, ["second query"], second)
        # The follower waits for the lock the leader holds, its own text unsent.
        lock.wait_for_asks(2)
        assert provider.batches == [["first query", *first]]
    finally:
        provider.release.set()
    _join(leader, follower)
    # Once the leader's labels are held, the follower sends only the label still missing.
    assert requests == [["first query", *first], ["second query", "j.k.l"]]
    assert provider.batches == requests
    for labels, outcome in ((first, led), (second, followed)):
        _, vectors = outcome["result"]
        assert [v.values.tobytes() for v in vectors] == [_cached_bits(gw, label) for label in labels]


@pytest.mark.parametrize(
    "error", [ProviderError("leader failed"), KeyboardInterrupt()], ids=["ProviderError", "KeyboardInterrupt"]
)
def test_a_failed_label_fetch_releases_its_waiters_and_each_fetches_the_label_itself(error):
    provider = _GatedProvider(hold={"first query"}, error=error)
    gw = EmbeddingGateway(provider, sleep=lambda _: None)
    gw._label_lock = lock = _WatchedLock()
    leader, led = _in_thread(gw.embed_with_labels, ["first query"], ["a.b.c"])
    try:
        provider.wait_for_requests(1)
        follower, followed = _in_thread(gw.embed_with_labels, ["second query"], ["a.b.c", "d.e.f"])
        lock.wait_for_asks(2)
    finally:
        provider.release.set()
    _join(leader, follower)
    # The leader's error stays the leader's; once released, the follower
    # sends its text and both labels in one request.
    assert led["error"] is error and "error" not in followed
    assert provider.batches == [["first query", "a.b.c"], ["second query", "a.b.c", "d.e.f"]]
    _, vectors = followed["result"]
    assert vectors == [mock_embed("a.b.c", 16), mock_embed("d.e.f", 16)]
    assert not lock.locked()


def test_a_call_whose_labels_are_held_does_not_wait_for_another_fetch():
    # The planner's per-question ranking, once the vocabulary is held, goes
    # on while another thread's label fetch is in flight.
    provider = _GatedProvider(hold={"gated query"})
    gw = EmbeddingGateway(provider)
    gw.embed_with_labels([], ["a.b.c", "d.e.f"])
    fetcher, fetched = _in_thread(gw.embed_with_labels, ["gated query"], ["g.h.i"])
    try:
        provider.wait_for_requests(2)
        ranker, ranked = _in_thread(gw.top_k_similar_relations, ["ranked query"], ["a.b.c", "d.e.f"], 1)
        ranker.join(timeout=5)
        assert not ranker.is_alive() and fetcher.is_alive()
    finally:
        provider.release.set()
    _join(fetcher, ranker)
    assert ranked["result"] == gw.top_k_similar_relations(["ranked query"], ["a.b.c", "d.e.f"], 1)
    assert provider.batches == [["a.b.c", "d.e.f"], ["gated query", "g.h.i"], ["ranked query"]]
    assert "error" not in fetched


def test_many_threads_pass_each_label_to_embed_once():
    texts = [f"text {i}" for i in range(40)]
    labels = list(dict.fromkeys(relation_label_pool(random.Random(13), 60)))
    gw = EmbeddingGateway(MockEmbeddingProvider(64))
    requests = _record_requests(gw)

    def worker(seed):
        rng = random.Random(seed)
        for _ in range(20):
            gw.embed_with_labels(rng.sample(texts, 2), rng.sample(labels, 8))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
        for thread in threads:
            thread.start()
        _join(*threads)
    finally:
        sys.setswitchinterval(interval)
    passed_labels = [text for request in requests for text in request if text in labels]
    assert len(passed_labels) == len(set(passed_labels))
    assert not gw._label_lock.locked()


# -- scripted provider --------------------------------------------------------


def test_scripted_provider_replays_and_misses(tmp_path):
    path = tmp_path / "embed.jsonl"
    vector = mock_embed("known text", 16)
    record = {"digest": text_digest("known text"), "dim": 16, "values": vector.values.tolist()}
    path.write_text(json.dumps(record) + "\n", encoding="utf-8")
    provider = ScriptedEmbeddingProvider.from_file(path)
    assert provider.embed_batch(["known text"]) == [vector]
    with pytest.raises(MissingFixtureError) as exc:
        provider.embed_batch(["unknown"])
    assert text_digest("unknown") in str(exc.value)
