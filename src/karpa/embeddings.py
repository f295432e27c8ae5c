"""Text embeddings: pluggable providers, cosine similarity, caching, top-K retrieval.

The gateway is provider-agnostic. Three providers ship here:

* ``MockEmbeddingProvider`` — deterministic offline hashing of tokens and
  character trigrams into a fixed number of buckets, memoized per word; a
  request counts each distinct head, the text before a text's last space,
  once. Shared tokens between two texts raise their cosine similarity.
  Used throughout the test suite.
* ``ScriptedEmbeddingProvider`` — replays vectors recorded per text digest.
* ``HttpEmbeddingProvider`` — generic HTTP embedding service client. The
  HTTP call, its error mapping, the gateway's retry loop and the fixture
  reader live in ``transport``.

Each vector holds its values in one ``array('d')`` (8 bytes a component,
where a tuple of floats holds a pointer to a boxed float per component) and
stores its squared norm, taken once when it is made; ``cosine_many``
multiplies through the query's nonzero components only. Both give the same
bits as the plain pairwise loop. The cache hashes the provider identity and
the text on each ``get`` and ``put``, and keeps each vector in memory as one
``bytes`` payload, its values' bytes, under the two raw 32-byte SHA-256
digests. Bytes and dicts of bytes are not tracked by the cyclic garbage
collector, so a full cache adds nothing to its collections. A lookup makes
the vector anew with ``EmbeddingVector``, which adds up the same squares in
the same order, so every hit has the stored bits. Hex digests appear only
in cache-file records and in scripted-fixture lookups.

Each gateway holds the vector of every relation label it has fetched; a
graph has at most twice as many labels as relations. Vocabulary retrieval,
the fixed-length matchers' step costs and the heuristic's one-hop paths
score against those vectors, so each label is requested once per gateway
and is not rebuilt from the cache's bytes at every use. Vocabulary
retrieval asks for the whole vocabulary, and a fixed-length search for the
graph's whole label table, inverse labels included, at its first
expansion; the heuristic asks for its start's labels. So a cold gateway
fetches labels that no search may meet, at most one table, and a provider
that cannot embed one of them fails every such call, not only those that
meet it. A query text or a candidate relation that is a held label is
served from its held vector too, and so costs no request: the fixed-length
matchers' depth queries are labels once re-planning has snapped them to
the vocabulary. Vocabulary retrieval is an exhaustive cosine scan;
vocabulary sizes here do not warrant an ANN index.

Relation labels are fetched one call at a time per gateway, under one lock:
under ``eval.concurrency > 1`` a worker that misses a label waits for the
fetch in progress, then sends the labels still missing, so each label is
passed to ``embed`` once. A worker whose labels are all held takes no lock;
one that misses a label waits, its own texts too, while another fetches.
Other texts, an LLM's relations and query texts, are fetched by each worker
that misses them: two workers rarely miss the same one at once.

The cache keeps relation labels, the LLM's query texts and the matchers'
candidate texts. The heuristic matcher's label sequences, thousands a
question and almost none met again, skip it: the heuristic requests them
as ``Uncached`` lists, which ``embed`` sends to the provider with no
lookup and no store.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import heapq
import json
import math
import operator
import re
import threading
import time
import zlib
from array import array
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Protocol

from .errors import (
    ContractError,
    DataError,
    DomainError,
    EmbeddingDimError,
    MissingFixtureError,
    ProviderError,
    StorageError,
)
from .transport import check_endpoint, post_json, read_records, with_retries

_TOKEN_SPLIT = re.compile(r"[^0-9a-z]+")

CACHE_HEADER = {"format": "karpa-embedding-cache", "version": 1}
_HEADER_LINE = json.dumps(CACHE_HEADER, separators=(",", ":")) + "\n"
_HEADER_BYTES = _HEADER_LINE.encode("utf-8")


def _digest(text: str) -> bytes:
    """Raw SHA-256 of ``text``: the embedding cache's key of an identity or a text."""
    return hashlib.sha256(text.encode("utf-8")).digest()


def text_digest(text: str) -> str:
    """Hex SHA-256 of ``text``: the key of cache-file records and scripted fixtures."""
    return _digest(text).hex()


@dataclass(frozen=True, slots=True)
class EmbeddingVector:
    """Fixed-length real vector; all values finite.

    ``values`` is one ``array('d')``: any other iterable of numbers is copied
    into one when the vector is made, and an ``array('d')`` is kept as given,
    so the maker must not change it afterwards. Equality is elementwise (so
    ``0.0 == -0.0``) and ``repr`` shows the values as a tuple. A vector has
    no hash: its array is mutable. ``norm_sq`` is the sum of squared values,
    added in index order when the vector is made. It takes no part in
    equality or ``repr``.
    """

    values: array
    norm_sq: float = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        values = self.values
        if type(values) is not array or values.typecode != "d":
            values = array("d", values)
            object.__setattr__(self, "values", values)
        nv = 0.0
        for y in values:
            nv += y * y
        # A NaN or infinite value makes the norm NaN or infinite, so a finite
        # norm proves the values finite. Huge finite values overflow it too,
        # so an infinite norm alone proves nothing: then check each value.
        if not math.isfinite(nv) and not all(map(math.isfinite, values)):
            raise ContractError("embedding values must be finite")
        object.__setattr__(self, "norm_sq", nv)

    def __repr__(self) -> str:
        return f"EmbeddingVector(values={tuple(self.values)!r})"

    @property
    def dim(self) -> int:
        return len(self.values)


def _vector_from_json(values) -> EmbeddingVector:
    """The vector of a JSON array of numbers. Anything else is a ``TypeError``:
    a string or an object would read as its characters or keys, and ``float``
    would take a numeric string or a boolean. An int too large for a double
    is a ``ValueError``."""
    if not isinstance(values, list) or bool in map(type, values):
        raise TypeError("embedding values must be a list of numbers")
    try:
        values = array("d", values)  # a TypeError for anything but an int or a float
    except OverflowError as exc:
        raise ValueError(f"embedding value out of range ({exc})") from None
    return EmbeddingVector(values)


def cosine_many(query: EmbeddingVector, vectors: Iterable[EmbeddingVector]) -> list[float]:
    """The cosine similarity of ``query`` and each ``v`` in order, clamped to
    [-1, 1], from the stored norms.

    The dot product runs over the query's nonzero components only. It starts
    at ``+0.0`` and so never becomes ``-0.0``; a skipped term is ``±0.0`` and
    cannot change it. Results are therefore bit-identical to the pairwise
    loop over every component, and errors are raised at the same vector with
    the same type: ``ContractError`` on a dimension mismatch before
    ``DomainError`` for an all-zero vector on either side. The sum is an
    explicit loop because ``sum()`` of floats is compensated from Python 3.12.

    On dense vectors, with no zero to skip, the loop over the prebuilt pairs
    still beats a ``zip`` over both value arrays once a call scores a few vectors;
    a call that scores one vector pays an extra pass to build the pairs.
    """
    q = query.values
    dim = len(q)
    nq = query.norm_sq
    root_nq = math.sqrt(nq)
    nonzero = [(i, x) for i, x in enumerate(q) if x]
    out = []
    for vec in vectors:
        v = vec.values
        if len(v) != dim:
            raise ContractError(f"dimension mismatch: {dim} vs {len(v)}")
        nv = vec.norm_sq
        if nq == 0.0 or nv == 0.0:
            raise DomainError("cosine undefined for all-zero vector")
        dot = 0.0
        for i, x in nonzero:
            dot += x * v[i]
        value = dot / (root_nq * math.sqrt(nv))
        out.append(max(-1.0, min(1.0, value)))
    return out


MOCK_MIN_DIM = 8

# Distinct (word, dim) pairs whose bucket counts ``mock_embed`` remembers.
# Relation vocabularies are far smaller; an entry for a three-part label at
# dim 64 takes about 1.2 kB, so a full memo holds about 10 MB.
MOCK_WORD_MEMO = 8192


@functools.lru_cache(maxsize=MOCK_WORD_MEMO)
def _word_buckets(word: str, dim: int) -> tuple[tuple[int, int], ...]:
    """``(bucket, count)`` for every token and token trigram of one space-free word."""
    counts: dict[int, int] = {}
    for token in _TOKEN_SPLIT.split(word.lower()):
        if not token:
            continue
        for feature in [token] + [token[i : i + 3] for i in range(len(token) - 2)]:
            bucket = zlib.crc32(feature.encode("utf-8")) % dim
            counts[bucket] = counts.get(bucket, 0) + 1
    return tuple(counts.items())


def mock_embed(text: str, dim: int = 64) -> EmbeddingVector:
    """Deterministic bag-of-features embedding for offline use.

    Lowercases, splits on anything non-alphanumeric (dots and underscores
    included), then hashes every token and every character trigram of each
    token into one of ``dim`` buckets, accumulating counts. The result is
    L2-normalized, so identical texts give identical unit vectors and
    texts sharing tokens score higher cosine. It is the one-text case of
    ``MockEmbeddingProvider.embed_batch`` (``_mock_vectors``).
    """
    return _mock_vectors([text], dim)[0]


def _mock_vectors(texts: list[str], dim: int) -> list[EmbeddingVector]:
    """``mock_embed`` of each text, in order; a tokenless text raises at its turn.

    A space is one of the separators, so each word's bucket counts can come
    from a memo (``MOCK_WORD_MEMO`` words): label sequences repeat the
    words of a small vocabulary. Each text is split at its last space into
    a head and a last word, and each distinct head's counts are summed once
    per call, in a dict that ends with the call: the heuristic matcher's
    requests hold the children of a few prefixes, each child a prefix's
    text plus one space and one label. A text copies its head's counts,
    adds its last word's and sums the squares of its counts; a one-word
    text has no head to count or copy. Every count and every squared count
    is a small integer, exact in any order of addition, so the vector
    equals the one from hashing each feature afresh bit for bit.
    """
    if dim < MOCK_MIN_DIM:
        raise ContractError(f"mock embedding dim must be >= {MOCK_MIN_DIM}, got {dim}")
    heads: dict[str, dict[int, int]] = {}  # head -> its bucket counts
    zeros = array("d", bytes(8 * dim))
    out = []
    for text in texts:
        head, _, last = text.rpartition(" ")
        if head:
            counts = heads.get(head)
            if counts is None:
                counts = heads[head] = {}
                for word in head.split(" "):
                    for bucket, count in _word_buckets(word, dim):
                        counts[bucket] = counts.get(bucket, 0) + count
            counts = counts.copy()
        else:
            counts = {}
        for bucket, count in _word_buckets(last, dim):
            counts[bucket] = counts.get(bucket, 0) + count
        if not counts:
            raise DomainError(f"text has no tokens to embed: {text!r}")
        norm = math.sqrt(sum(map(operator.mul, counts.values(), counts.values())))
        values = zeros[:]
        for bucket, count in counts.items():
            values[bucket] = count / norm
        out.append(EmbeddingVector(values))
    return out


class EmbeddingProvider(Protocol):
    identity: str

    def embed_batch(self, texts: list[str]) -> list[EmbeddingVector]: ...


class MockEmbeddingProvider:
    """``mock_embed`` of every text of a request, each distinct head (the text
    before its last space) counted once per request (``_mock_vectors``)."""

    def __init__(self, dim: int = 64):
        if dim < MOCK_MIN_DIM:
            raise ContractError(f"mock embedding dim must be >= {MOCK_MIN_DIM}, got {dim}")
        self.dim = dim
        self.identity = f"mock:dim={dim}"

    def embed_batch(self, texts: list[str]) -> list[EmbeddingVector]:
        return _mock_vectors(texts, self.dim)


def _embedding_fixture_record(obj) -> tuple[str, EmbeddingVector]:
    digest = obj["digest"]
    if not isinstance(digest, str):
        raise TypeError("digest must be a string")
    return digest, _vector_from_json(obj["values"])


class ScriptedEmbeddingProvider:
    """Replays vectors from line-JSON records ``{"digest", "dim", "values"}``."""

    def __init__(self, records: dict[str, EmbeddingVector], identity: str = "scripted-embed"):
        self._records = records
        self.identity = identity

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedEmbeddingProvider":
        records = dict(read_records(path, "scripted embedding fixture", _embedding_fixture_record))
        return cls(records, identity=f"scripted-embed:{Path(path).name}")

    def embed_batch(self, texts: list[str]) -> list[EmbeddingVector]:
        out = []
        for text in texts:
            digest = text_digest(text)
            if digest not in self._records:
                raise MissingFixtureError(digest)
            out.append(self._records[digest])
        return out


class HttpEmbeddingProvider:
    """Client for a generic HTTP embedding service.

    Request: ``POST {"model": <str>, "input": [<str>...]}``.
    Response: ``{"data": [{"index": <int>, "embedding": [<float>...]}...]}``,
    index-aligned to the input. The API key (if any) is read from the
    ``KARPA_EMBED_API_KEY`` environment variable and sent as a bearer token.
    A reply without ``data`` rows of ``index`` and finite ``embedding``
    numbers, one per input with the integer indices 0..n-1, or with an all-zero
    vector, which no cosine is defined for, is a ``ProviderError``.
    """

    def __init__(self, endpoint: str, model: str, api_key: str | None = None, timeout: float = 30.0):
        check_endpoint("embedding.endpoint", endpoint)
        self.endpoint = endpoint
        self.model = model
        self.api_key = api_key
        self.timeout = timeout
        self.identity = f"http:{endpoint}:{model}"

    def embed_batch(self, texts: list[str]) -> list[EmbeddingVector]:
        body = post_json(
            self.endpoint, {"model": self.model, "input": texts}, self.api_key, self.timeout, "embedding"
        )
        try:
            rows = sorted(body["data"], key=lambda r: r["index"])
            vectors = [_vector_from_json(row["embedding"]) for row in rows]
        except (LookupError, TypeError, ValueError, ContractError) as exc:
            raise ProviderError(f"malformed embedding reply ({type(exc).__name__}: {exc})") from None
        indices = [row["index"] for row in rows]
        # ``False == 0`` and ``1.0 == 1``: only an int is an index.
        if any(type(index) is not int for index in indices) or indices != list(range(len(texts))):
            raise ProviderError(
                f"embedding service returned vectors indexed {indices} for {len(texts)} inputs"
            )
        if any(vector.norm_sq == 0.0 for vector in vectors):
            raise ProviderError("embedding service returned an all-zero vector")
        return vectors


class EmbeddingCache:
    """Append-only embedding cache addressed by (provider identity, text).

    ``get`` and ``put`` hash both strings: vectors are held per raw 32-byte
    SHA-256 identity digest in a dict keyed by the text's, each as one
    ``bytes`` payload (its values' bytes), so that no held entry is an object
    the cyclic garbage collector must walk. ``get`` makes a new vector from
    the held bytes each time, so with the held bits, norm included; ``put``
    returns a vector equal bit for bit to the held one, not the held object.
    A file holds line-JSON records naming both digests in hex after a version
    header line; each ``put`` appends one record, under a lock, flushed. A
    cache that loaded no whole header (no file, an empty one or a header cut
    short) writes the header before its first record, as does any append to
    an empty file, one removed under the cache included; a load skips every
    header line after the first, uncounted. A load skips and counts lines
    that are not whole records, such as one cut short by an interrupted
    write, and the next append starts on a new line so that no later record
    is glued onto the cut one.
    """

    def __init__(self, path: str | Path | None = None):
        self._memory: dict[bytes, dict[bytes, bytes]] = {}
        self._lock = threading.Lock()
        self._path = Path(path) if path is not None else None
        self.skipped = 0
        # What the next append to a non-empty file writes before its record.
        self._lead = _HEADER_LINE
        if self._path is not None and self._path.exists():
            self._load()

    def _load(self) -> None:
        assert self._path is not None
        # Read as bytes, which ``json.loads`` decodes: a line that is not
        # UTF-8 is a ``UnicodeDecodeError``, a ``ValueError`` like a line
        # that is not JSON, and is skipped the same way.
        with self._path.open("rb") as fp:
            last = first = fp.readline()
            if not first:
                return  # empty file: the first append writes the header
            try:
                header = json.loads(first)
            except ValueError:
                header = None
            if isinstance(header, dict) and header.get("format") == CACHE_HEADER["format"]:
                self._lead = ""
            elif first == b"\n" or not _HEADER_BYTES.startswith(first.rstrip(b"\n")):
                # Neither a header nor one cut short.
                raise DataError(f"not an embedding cache file: {self._path}")
            for line in fp:
                last = line
                if not line.strip() or line == _HEADER_BYTES:
                    continue
                try:
                    obj = json.loads(line)
                    identity, digest = bytes.fromhex(obj["identity"]), bytes.fromhex(obj["text"])
                    vector = _vector_from_json(obj["values"])
                except (ValueError, KeyError, TypeError, ContractError):
                    self.skipped += 1
                    continue
                self._memory.setdefault(identity, {})[digest] = vector.values.tobytes()
        if not last.endswith(b"\n"):
            self._lead = "\n" + self._lead

    def get(self, identity: str, text: str) -> EmbeddingVector | None:
        vectors = self._memory.get(_digest(identity))
        payload = vectors.get(_digest(text)) if vectors is not None else None
        return EmbeddingVector(array("d", payload)) if payload is not None else None

    def put(self, identity: str, text: str, vector: EmbeddingVector) -> EmbeddingVector:
        """Store ``vector`` for ``text`` under ``identity`` unless it is held
        already; return a vector equal bit for bit to the held one.

        That is ``vector`` itself when this call stored it. Callers keep the
        returned vector, so two threads that embedded the same text keep the
        same bits between them: those of the first to store it.

        With a file, the record is appended before the vector is held, so a
        failed append (a full disk, say) raises a ``StorageError`` naming the
        file and holds nothing: memory never has a vector the file lacks, and
        the next ``put`` of the text appends it again. A failed append may
        leave part of its line in the file, so the next append starts on a new
        line, and writes the header again if the failed one was to write it.
        """
        identity_digest, digest = _digest(identity), _digest(text)
        payload = vector.values.tobytes()
        with self._lock:
            vectors = self._memory.setdefault(identity_digest, {})
            stored = vectors.get(digest)
            if stored is not None:
                return EmbeddingVector(array("d", stored))
            if self._path is not None:
                record = {
                    "identity": identity_digest.hex(),
                    "text": digest.hex(),
                    "dim": vector.dim,
                    "values": vector.values.tolist(),
                }
                lead = self._lead
                try:
                    with self._path.open("a", encoding="utf-8") as fp:
                        if fp.tell() == 0:
                            lead = _HEADER_LINE
                        fp.write(lead + json.dumps(record, separators=(",", ":")) + "\n")
                        fp.flush()
                except OSError as exc:
                    self._lead = "\n" + lead
                    raise StorageError(f"cannot append to embedding cache {self._path}: {exc}") from exc
                self._lead = ""
            vectors[digest] = payload
        return vector

    def stats(self) -> dict:
        size = self._path.stat().st_size if self._path is not None and self._path.exists() else 0
        return {
            "records": sum(map(len, self._memory.values())),
            "skipped": self.skipped,
            "path": str(self._path) if self._path is not None else None,
            "bytes": size,
        }

    def clear(self) -> None:
        with self._lock:
            self._memory.clear()
            self.skipped = 0
            if self._path is not None and self._path.exists():
                self._path.unlink()


class Uncached(list):
    """A request of texts that ``EmbeddingGateway.embed`` neither looks up in
    the cache nor stores: ``embed(Uncached(texts))``."""


class EmbeddingGateway:
    """Cache-first embedding access with retries and top-K similarity retrieval.

    ``embed`` serves each text the cache holds from it and fetches the rest
    from the provider in one request. It keeps what it fetches: the cache
    stores each fetched vector, and appends it to its file, so a later
    ``embed`` of the text, by any caller, gets the bits stored first.

    An ``Uncached`` request skips the cache: ``embed`` sends its texts to
    the provider as given, with a miss's retries and checks, and keeps
    nothing, so it gets the provider's bits even for a text the cache holds
    (with the mock, scripted or stub provider, the same bits). The rule
    travels with the request, so no other request, in any thread, is
    affected.
    """

    def __init__(
        self,
        provider: EmbeddingProvider,
        cache: EmbeddingCache | None = None,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self.provider = provider
        self.cache = cache if cache is not None else EmbeddingCache()
        self._sleep = sleep
        self._dim: int | None = None
        self._lock = threading.Lock()
        # Relation label -> its vector, for every label ``embed_with_labels``
        # has fetched. Labels are fetched under ``_label_lock``, one fetch at
        # a time, so each label is held once, with the bits the cache serves.
        # ``_lock`` guards ``_dim`` only: ``embed`` takes it, so it cannot be
        # held across a label fetch.
        self._labels: dict[str, EmbeddingVector] = {}
        self._label_lock = threading.Lock()

    def _check_dim(self, vectors: list[EmbeddingVector]) -> None:
        """Hold a batch of vectors to the dim of the first vector this gateway saw."""
        dim = self._dim
        if dim is None:
            with self._lock:
                if self._dim is None:
                    self._dim = len(vectors[0].values)
                dim = self._dim
        for vec in vectors:
            if len(vec.values) != dim:
                raise EmbeddingDimError(
                    f"embedding dim drifted from {dim} to {len(vec.values)} under identity "
                    f"{self.provider.identity!r}; if its model changed, run `karpa cache clear`"
                )

    def _fetch(self, texts: list[str]) -> list[EmbeddingVector]:
        """The provider's vectors for ``texts``, retried and checked; nothing is stored."""
        vectors = with_retries(lambda: self.provider.embed_batch(texts), self._sleep)
        if len(vectors) != len(texts):
            raise ProviderError(f"provider returned {len(vectors)} vectors for {len(texts)} texts")
        self._check_dim(vectors)
        return vectors

    def embed(self, texts: list[str]) -> list[EmbeddingVector]:
        """Embed each text, serving cache hits without touching the provider.

        Each text is looked up, and each distinct miss fetched in one request
        and stored, under the provider's identity; the cache hashes both. Dims
        are checked once for the hits and once for the provider's reply,
        before any vector is stored. An ``Uncached`` request goes to the
        provider as given, with no lookup and no store.
        """
        if not texts:
            raise ContractError("embed requires at least one text")
        if any(not t for t in texts):
            raise ContractError("embed texts must be non-empty")
        if isinstance(texts, Uncached):
            return self._fetch(texts)
        identity, cache = self.provider.identity, self.cache
        out = [cache.get(identity, text) for text in texts]
        hits = [vec for vec in out if vec is not None]
        if hits:
            self._check_dim(hits)
        if len(hits) == len(out):
            return out
        missing = list(dict.fromkeys(text for text, vec in zip(texts, out) if vec is None))
        fetched = {text: cache.put(identity, text, vec) for text, vec in zip(missing, self._fetch(missing))}
        return [vec if vec is not None else fetched[text] for text, vec in zip(texts, out)]

    def similarity(self, text_a: str, text_b: str) -> float:
        """Cosine similarity of two texts' vectors. No karpa code calls it: it
        stays for the benchmark's tests (``perfbench/tests/test_measure.py``)."""
        vec_a, vec_b = self.embed([text_a, text_b])
        return cosine_many(vec_a, [vec_b])[0]

    def embed_with_labels(
        self, texts: list[str], labels: list[str]
    ) -> tuple[list[EmbeddingVector], list[EmbeddingVector]]:
        """``embed(texts)``, and the vectors of the relation ``labels``, in at most one request.

        A graph has at most twice as many relation labels as relations, so
        the gateway holds the vector of every label it has fetched. A call
        whose labels are all held takes no lock, so it never waits for
        another call's fetch. Any other call takes the gateway's label lock,
        looks again for the labels it does not hold, and sends them to
        ``embed`` in one request with the texts, so they pass through the
        cache and keep its bits, and are held from then on. So each label is
        passed to ``embed`` once per gateway, and a call that misses a label
        waits while another call fetches. A failed request holds nothing:
        the next caller sends the labels itself.

        A text that is a held label gets the held vector, which has the bits
        ``cache.get`` of the text rebuilds, and is not sent: a query text or
        a candidate relation that is a held label costs no request. Only the
        other texts go to ``embed``, with the missing labels. No request is
        made, and no lock taken, when every text and every label is held.
        Texts are never held, even a text that is a label: there is no bound
        on an LLM's relations.
        """
        held = self._labels
        fetch = any(label not in held for label in labels)
        with self._label_lock if fetch else contextlib.nullcontext():
            out = [held.get(text) for text in texts]
            asked = [text for text, vec in zip(texts, out) if vec is None]
            missing = [label for label in dict.fromkeys(labels) if label not in held]
            vectors = self.embed([*asked, *missing]) if asked or missing else []
            for label, vec in zip(missing, vectors[len(asked) :]):
                held[label] = vec
        fetched = iter(vectors)
        return [vec if vec is not None else next(fetched) for vec in out], [held[label] for label in labels]

    def top_k_similar_relations(
        self, query_texts: list[str] | str, vocab: list[str], k: int
    ) -> list[list[tuple[str, float]]]:
        """For each query, the k vocabulary labels most cosine-similar to it.

        One ranking per query, in order: descending score, ties broken
        lexicographically by label. Asking for more than the vocabulary
        holds returns the whole ranking. A single string is one query.

        The queries that are not held labels and the vocabulary labels the
        gateway does not hold go to ``embed`` in one request
        (``embed_with_labels``).
        """
        if isinstance(query_texts, str):
            query_texts = [query_texts]
        if not query_texts:
            raise ContractError("top_k_similar_relations requires at least one query")
        if not vocab:
            raise ContractError("vocabulary must be non-empty")
        if k < 1:
            raise ContractError(f"k must be positive, got {k}")
        query_vecs, vocab_vecs = self.embed_with_labels(list(query_texts), vocab)
        rankings = []
        for query_vec in query_vecs:
            # Tuples compare without a key function; negation is exact, so
            # ``-neg`` has the score's bits. ``nsmallest`` sorts outright
            # when ``k`` covers the vocabulary.
            keyed = list(zip(map(operator.neg, cosine_many(query_vec, vocab_vecs)), vocab))
            rankings.append([(label, -neg) for neg, label in heapq.nsmallest(k, keyed)])
        return rankings
