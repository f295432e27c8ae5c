"""Dataset loading, answer scoring, and the evaluation runner.

Scoring is surface-level: a prediction matches a gold answer when its
normalized form equals any of that answer's aliases. Per-sample metrics
are macro-averaged. The report deliberately contains no timestamps or
host-specific state, so a rerun with the same configuration is
byte-identical, whether samples ran sequentially or concurrently.

"Accuracy" is reported twice under explicit names — ``accuracy_exact``
(exact set match ratio) and ``accuracy_recall`` (macro recall) — because
the headline metric name alone does not pin down a formula.
"""

from __future__ import annotations

import json
import os
import re
import tempfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, TextIO

from .errors import DataError, EmbeddingDimError, ParseError, StorageError
from .llm import COUNTERS, UsageLedger
from .reasoner import AnswerSet, normalize_answer
from .transport import read_jsonl, read_utf8, require_file

FORMATS = ("simple", "webqsp", "cwq")  # dataset layouts ``load_dataset`` reads
MODES = ("strict", "lenient")  # scoring modes ``score_sample`` knows
_SAFE_ID = re.compile(r"[^A-Za-z0-9._-]+")
_CHECKPOINT_KEYS = {"config_digest", "answers", "usage", "flags", "error"}  # a checkpoint file's object


@dataclass
class QASample:
    id: str
    question: str
    topic_entities: list[str]
    gold_answers: list[list[str]]  # one alias list per gold answer

    def __post_init__(self):
        if not isinstance(self.question, str):
            raise TypeError(f"question must be a string, got {type(self.question).__name__}")
        if not self.gold_answers:
            raise DataError(f"sample {self.id}: gold answers must be non-empty")
        if not all(any(map(normalize_answer, aliases)) for aliases in self.gold_answers):
            raise DataError(f"sample {self.id}: each gold answer needs an alias that is not blank")


@dataclass
class SampleScore:
    hit1: int
    precision: float
    recall: float
    f1: float
    exact: int
    predicted: AnswerSet


@dataclass
class SampleRecord:
    sample_id: str
    score: SampleScore
    usage: dict
    flags: list[str] = field(default_factory=list)
    error: str | None = None


@dataclass
class EvalReport:
    records: list[SampleRecord]
    aggregates: dict
    usage: dict
    config_digest: str
    mode: str


# -- dataset loading ------------------------------------------------------


def _as_list(value, name: str) -> list:
    """``value`` if it is a list; a string would otherwise be taken as its characters."""
    if not isinstance(value, list):
        raise TypeError(f"{name} must be a list, got {type(value).__name__}")
    return value


def _label(value, name: str) -> str:
    """An id, topic, answer or alias: a string, or a JSON number as its text. Anything
    else is a ``TypeError``: ``str`` would read a null as the label "None"."""
    if type(value) not in (str, int, float):
        raise TypeError(f"{name} must be a string or a number, got {type(value).__name__}")
    return str(value)


def _webqsp_name(obj: dict, key: str) -> str | None:
    """``obj[key]`` through ``_label``; a null, missing or blank name, one that
    ``normalize_answer`` leaves empty, is absent (``None``)."""
    value = obj.get(key)
    if value is None:
        return None
    name = _label(value, key)
    return name if normalize_answer(name) else None


def _sample_from_simple(obj: dict) -> QASample:
    return QASample(
        id=_label(obj["id"], "id"),
        question=obj["question"],
        topic_entities=[_label(t, "topic") for t in _as_list(obj["topics"], "topics")],
        gold_answers=[
            [_label(a, "answer") for a in _as_list(aliases, "answers entry")]
            for aliases in _as_list(obj["answers"], "answers")
        ],
    )


def _sample_from_webqsp(obj: dict) -> QASample:
    question = obj.get("ProcessedQuestion") or obj["RawQuestion"]
    sample_id = _label(obj["QuestionId"], "QuestionId")
    topics: list[str] = []
    answers: dict[str, list[str]] = {}
    for parse in obj["Parses"]:
        name = _webqsp_name(parse, "TopicEntityName")
        if name is not None and name not in topics:
            topics.append(name)
        for ans in parse.get("Answers", []):
            label = _webqsp_name(ans, "EntityName") or _webqsp_name(ans, "AnswerArgument")
            if label is not None:
                answers.setdefault(label, [label])
    return QASample(sample_id, question, topics, list(answers.values()))


def _sample_from_cwq(obj: dict) -> QASample:
    sample_id = _label(obj["ID"], "ID")
    question = obj["question"]
    if isinstance(obj.get("topic_entity"), dict):
        topics = [_label(t, "topic_entity") for t in obj["topic_entity"].values()]
    elif "topic_entity_name" in obj:
        topics = [_label(obj["topic_entity_name"], "topic_entity_name")]
    else:
        raise KeyError("topic_entity")
    answers = [
        [_label(a, "answer") for a in [ans["answer"], *_as_list(ans.get("aliases", []), "aliases")]]
        for ans in obj["answers"]
    ]
    return QASample(sample_id, question, topics, answers)


def _parse_records(parse: Callable[[dict], QASample], records: Iterable[tuple[int, dict]]) -> list[QASample]:
    """``parse`` each ``(index, record)``; a record of the wrong shape is a
    ``DataError`` naming its 0-based index."""
    samples = []
    for index, obj in records:
        try:
            samples.append(parse(obj))
        except KeyError as exc:
            raise DataError(f"record {index}: missing field {exc}") from exc
        except (AttributeError, TypeError) as exc:
            raise DataError(f"record {index}: wrong shape ({exc})") from exc
    return samples


def load_dataset(path: str | Path, format: str = "simple") -> list[QASample]:
    """Load QA samples, order-preserving.

    ``simple`` is this package's own line-JSON format
    ``{"id", "question", "topics": [...], "answers": [[alias...]...]}``;
    ``webqsp`` and ``cwq`` accept those datasets' published JSON layouts.
    """
    if format not in FORMATS:
        raise DataError(f"unknown dataset format {format!r}; expected one of {FORMATS}")
    if format == "simple":
        return _parse_records(_sample_from_simple, read_jsonl(path, "dataset"))
    p = require_file(path, "dataset")
    try:
        payload = json.loads(read_utf8(p, ParseError))
    except json.JSONDecodeError as exc:
        raise ParseError(f"{p}: not a JSON {format} dataset ({exc})") from None
    if format == "webqsp":
        records = payload.get("Questions") if isinstance(payload, dict) else payload
        parse = _sample_from_webqsp
    else:
        records = payload.get("data") if isinstance(payload, dict) else payload
        parse = _sample_from_cwq
    if not isinstance(records, list):
        raise DataError(f"{p}: no {format} question list")
    return _parse_records(parse, enumerate(records))


# -- scoring --------------------------------------------------------------


def _bipartite_match_size(preds: list[str], golds: list[set[str]]) -> int:
    """Maximum matching between predictions and gold alias sets."""
    assigned: dict[int, int] = {}  # gold index -> pred index

    def try_assign(pred_index: int, pred: str, visited: set[int]) -> bool:
        for gold_index, aliases in enumerate(golds):
            if pred in aliases and gold_index not in visited:
                visited.add(gold_index)
                if gold_index not in assigned or try_assign(
                    assigned[gold_index], preds[assigned[gold_index]], visited
                ):
                    assigned[gold_index] = pred_index
                    return True
        return False

    for pred_index, pred in enumerate(preds):
        try_assign(pred_index, pred, set())
    return len(assigned)


def score_sample(pred: AnswerSet, gold: list[list[str]], mode: str = "strict") -> SampleScore:
    """Hit@1, precision, recall, F1, and exact set match for one sample.

    ``strict`` drops ungrounded predictions before scoring; ``lenient``
    keeps them. Matching is normalized string equality against any alias.
    """
    if mode not in MODES:
        raise DataError(f"unknown scoring mode {mode!r}")
    if not gold:
        raise DataError("gold answers must be non-empty")
    normalized = pred.normalized()
    if mode == "strict":
        normalized = [n for n in normalized if n not in pred.ungrounded]
    # dedup, preserving order
    preds = list(dict.fromkeys(normalized))
    golds = [{normalize_answer(alias) for alias in aliases} for aliases in gold]

    matched_preds = sum(1 for p in preds if any(p in aliases for aliases in golds))
    matched_golds = sum(1 for aliases in golds if any(p in aliases for p in preds))
    precision = matched_preds / len(preds) if preds else 0.0
    recall = matched_golds / len(golds)
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    hit1 = 1 if matched_preds > 0 else 0
    exact = int(len(preds) == len(golds) and _bipartite_match_size(preds, golds) == len(golds))
    return SampleScore(hit1, precision, recall, f1, exact, pred)


# -- evaluation runner ----------------------------------------------------


def _checkpoint_name(sample_id: str) -> str:
    import hashlib

    safe = _SAFE_ID.sub("_", sample_id) or "sample"
    suffix = hashlib.sha256(sample_id.encode("utf-8")).hexdigest()[:8]
    return f"{safe}-{suffix}"


def _replace_file(path: Path, write: Callable[[TextIO], None]) -> None:
    """Write ``path`` through ``write`` into a temp file beside it, then rename it over ``path``.

    A reader sees the old file or the whole new one, never a part; a write
    that fails removes the temp file, leaves ``path`` as it was and raises a
    ``StorageError`` naming ``path``.
    """
    try:
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fp:
                write(fp)
                # On disk before the rename, so a power loss leaves the old file
                # or the whole new one, not an empty one under the new name.
                fp.flush()
                os.fsync(fp.fileno())
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        raise StorageError(f"cannot write {path}: {exc}") from exc


def render_trace(trace: list[dict]) -> str:
    """A run trace as line-JSON, one event per line."""
    return "".join(json.dumps(event, ensure_ascii=False, sort_keys=True) + "\n" for event in trace)


def _write_checkpoint(directory: Path, sample_id: str, payload: dict, trace: list[dict]) -> None:
    base = directory / _checkpoint_name(sample_id)
    _replace_file(base.parent / (base.name + ".trace.jsonl"), lambda fp: fp.write(render_trace(trace)))
    _replace_file(
        base.parent / (base.name + ".json"),
        lambda fp: json.dump(payload, fp, ensure_ascii=False, sort_keys=True),
    )


def _read_checkpoint(directory: Path, sample_id: str, config_digest: str) -> dict | None:
    path = directory / (_checkpoint_name(sample_id) + ".json")
    if not path.exists():
        return None
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError):
        return None
    # Valid JSON that is not what ``_write_checkpoint`` wrote reads as absent.
    if not _is_checkpoint(payload) or payload["config_digest"] != config_digest:
        return None
    return payload


def _is_checkpoint(payload) -> bool:
    """Whether ``payload`` has a checkpoint's keys and each value of the type ``evaluate`` reads:
    answers that ``AnswerSet.from_dict`` gives back unchanged, a ledger snapshot, a list of
    str flags and a str or null error. Every count and batch index is an int not below zero:
    ``True == 1`` and ``2.0 == 2``, so the comparisons alone would take them."""
    if not isinstance(payload, dict) or payload.keys() != _CHECKPOINT_KEYS:
        return False
    flags, error = payload["flags"], payload["error"]
    if not isinstance(flags, list) or not all(isinstance(flag, str) for flag in flags):
        return False
    if error is not None and not isinstance(error, str):
        return False
    answers, usage = payload["answers"], payload["usage"]
    ledger = UsageLedger()
    try:
        answer_set = AnswerSet.from_dict(answers)
        ledger.merge_snapshot(usage)
        counts = [counter[key] for counter in (usage, *usage["phases"].values()) for key in COUNTERS]
        counts += [batch for batches in answers["provenance"].values() for batch in batches]
        return (
            answer_set.as_dict() == answers
            and all(isinstance(answer, str) for answer in answer_set.answers)
            and ledger.snapshot() == usage
            and all(type(count) is int and count >= 0 for count in counts)
        )
    except (AttributeError, KeyError, TypeError):
        return False


def evaluate(
    samples: list[QASample],
    runner: Callable,
    *,
    mode: str = "strict",
    concurrency: int = 1,
    checkpoint_dir: str | Path | None = None,
    config_digest: str = "",
) -> EvalReport:
    """Run the pipeline over every sample and aggregate macro metrics.

    ``runner(sample)`` must return an object with ``answers`` (AnswerSet),
    ``usage_snapshot`` (dict), ``trace`` (list of dicts), and ``flags``
    (list of str). Per-sample failures become zero-score records with an
    error annotation; the run continues. An ``EmbeddingDimError`` is not a
    per-sample failure: it fails every sample that meets the drifted
    vector, so it ends the run, writes no checkpoint for its sample and
    cancels the samples not yet started. A ``StorageError``, a failed write
    to the embedding cache file or a checkpoint, ends the run the same way,
    since later writes to that disk would likely fail too. With a
    checkpoint directory the run is resumable: samples whose checkpoint
    matches the config digest are not re-run. Sample ids name checkpoints, so a repeated id is a
    ``DataError``, raised before any sample runs.
    """
    seen: set[str] = set()
    for sample in samples:
        if sample.id in seen:
            raise DataError(f"duplicate sample id {sample.id!r}")
        seen.add(sample.id)
    directory = Path(checkpoint_dir) if checkpoint_dir else None
    if directory is not None:
        try:
            directory.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise StorageError(f"cannot make checkpoint directory {directory}: {exc}") from exc

    def run_one(sample: QASample) -> dict:
        if directory is not None:
            cached = _read_checkpoint(directory, sample.id, config_digest)
            if cached is not None and cached["error"] is None:  # an errored question runs again
                return cached
        error = None
        try:
            outcome = runner(sample)
            answers, usage, flags, trace = (
                outcome.answers, outcome.usage_snapshot, list(outcome.flags), outcome.trace
            )
        except (EmbeddingDimError, StorageError):
            raise
        except Exception as exc:  # per-sample isolation is the contract here
            error = f"{type(exc).__name__}: {exc}"
            answers, usage, flags = AnswerSet(), UsageLedger().snapshot(), []
            trace = [{"event": "error", "detail": error}]
        payload = {
            "config_digest": config_digest,
            "answers": answers.as_dict(),
            "usage": usage,
            "flags": flags,
            "error": error,
        }
        if directory is not None:
            _write_checkpoint(directory, sample.id, payload, trace)
        return payload

    if concurrency > 1:
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            try:
                payloads = list(pool.map(run_one, samples))
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    else:
        # In the calling thread, not a one-worker pool: there Ctrl-C stops the
        # question in flight, where a pool's shutdown waits for it to finish.
        payloads = [run_one(sample) for sample in samples]

    ledger = UsageLedger()
    records: list[SampleRecord] = []
    for sample, payload in zip(samples, payloads):
        answers = AnswerSet.from_dict(payload["answers"])
        score = score_sample(answers, sample.gold_answers, mode=mode)
        ledger.merge_snapshot(payload["usage"])
        records.append(
            SampleRecord(
                sample_id=sample.id,
                score=score,
                usage=payload["usage"],
                flags=payload["flags"],
                error=payload["error"],
            )
        )

    n = len(records)
    usage = ledger.snapshot()

    def mean(values: list[float]) -> float:
        return sum(values) / n if n else 0.0

    aggregates = {
        "samples": n,
        "errors": sum(1 for r in records if r.error),
        "hit1": mean([r.score.hit1 for r in records]),
        "precision": mean([r.score.precision for r in records]),
        "recall": mean([r.score.recall for r in records]),
        "f1": mean([r.score.f1 for r in records]),
        "accuracy_exact": mean([r.score.exact for r in records]),
        "accuracy_recall": mean([r.score.recall for r in records]),
        "calls_per_question": mean([r.usage["calls"] for r in records]),
        "prompt_tokens_per_question": mean([r.usage["prompt_tokens"] for r in records]),
        "completion_tokens_per_question": mean([r.usage["completion_tokens"] for r in records]),
    }
    return EvalReport(
        records=records,
        aggregates=aggregates,
        usage=usage,
        config_digest=config_digest,
        mode=mode,
    )


# -- report rendering -----------------------------------------------------


def _record_as_dict(record: SampleRecord) -> dict:
    return {
        "id": record.sample_id,
        "hit1": record.score.hit1,
        "precision": record.score.precision,
        "recall": record.score.recall,
        "f1": record.score.f1,
        "exact": record.score.exact,
        "predicted": record.score.predicted.as_dict(),
        "usage": record.usage,
        "flags": record.flags,
        "error": record.error,
    }


def render_report(report: EvalReport) -> str:
    """Single-document report: header, per-sample line-JSON, aggregate block."""
    lines = [
        "karpa evaluation report",
        f"config_digest: {report.config_digest}",
        f"mode: {report.mode}",
        "averaging: macro (per-sample arithmetic mean)",
        f"samples: {len(report.records)}",
        "== per-sample ==",
    ]
    for record in report.records:
        lines.append(json.dumps(_record_as_dict(record), ensure_ascii=False, sort_keys=True))
    lines.append("== aggregates ==")
    lines.append(json.dumps(report.aggregates, ensure_ascii=False, sort_keys=True))
    lines.append("== usage ==")
    lines.append(json.dumps(report.usage, ensure_ascii=False, sort_keys=True))
    return "\n".join(lines) + "\n"


def render_summary_tsv(report: EvalReport) -> str:
    lines = [f"{metric}\t{value}" for metric, value in sorted(report.aggregates.items())]
    return "\n".join(lines) + "\n"
