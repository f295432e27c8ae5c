import json
import os
import random
import re
import signal
import threading
import time
from types import SimpleNamespace

import pytest

from karpa.errors import DataError, StorageError
from karpa.evaluation import (
    EvalReport,
    QASample,
    evaluate,
    load_dataset,
    render_report,
    render_summary_tsv,
    score_sample,
)
from karpa.llm import COUNTERS, UsageLedger
from karpa.reasoner import AnswerSet


def answer_set(*surfaces, ungrounded=()):
    a = AnswerSet()
    for s in surfaces:
        a.add(s, 0)
    a.ungrounded = set(ungrounded)
    return a


# -- dataset loading --------------------------------------------------------------


def test_simple_loader_maps_fields(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text(
        json.dumps({"id": "q1", "question": "Who?", "topics": ["T"], "answers": [["a"], ["b", "B"]]})
        + "\n",
        encoding="utf-8",
    )
    (sample,) = load_dataset(path, "simple")
    assert sample.id == "q1"
    assert sample.topic_entities == ["T"]
    assert len(sample.gold_answers) == 2


def test_simple_loader_missing_field_reports_index(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": "q1", "question": "Who?", "topics": ["T"]}\n', encoding="utf-8")
    with pytest.raises(DataError) as exc:
        load_dataset(path, "simple")
    assert "record 0" in str(exc.value)


def test_loader_order_preserving(tmp_path):
    path = tmp_path / "data.jsonl"
    lines = [
        json.dumps({"id": f"q{i}", "question": "?", "topics": ["T"], "answers": [["a"]]})
        for i in range(5)
    ]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    samples = load_dataset(path, "simple")
    assert [s.id for s in samples] == [f"q{i}" for i in range(5)]


def test_unknown_format_rejected(tmp_path):
    path = tmp_path / "x.json"
    path.write_text("{}", encoding="utf-8")
    with pytest.raises(DataError):
        load_dataset(path, "freebase")


def test_webqsp_loader(tmp_path):
    payload = {
        "Questions": [
            {
                "QuestionId": "WebQTest-1",
                "RawQuestion": "where is X?",
                "ProcessedQuestion": "where is x",
                "Parses": [
                    {
                        "TopicEntityName": "X",
                        "Answers": [
                            {"EntityName": "Y", "AnswerArgument": "m.123"},
                            {"EntityName": None, "AnswerArgument": "1984"},
                        ],
                    },
                    # A null, empty or missing name is absent.
                    {"TopicEntityName": None, "Answers": [{"EntityName": "", "AnswerArgument": None}, {}]},
                    {"TopicEntityName": ""},
                    {},
                ],
            }
        ]
    }
    path = tmp_path / "webqsp.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    (sample,) = load_dataset(path, "webqsp")
    assert sample.question == "where is x"
    assert sample.topic_entities == ["X"]
    assert sample.gold_answers == [["Y"], ["1984"]]


def test_webqsp_blank_entity_name_falls_back_to_the_answer_argument(tmp_path):
    payload = {
        "Questions": [
            {
                "QuestionId": "w1",
                "RawQuestion": "what?",
                "Parses": [{"TopicEntityName": "X", "Answers": [{"EntityName": " ", "AnswerArgument": "m.0x"}]}],
            }
        ]
    }
    path = tmp_path / "webqsp.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    (sample,) = load_dataset(path, "webqsp")
    assert sample.gold_answers == [["m.0x"]]


def test_cwq_loader(tmp_path):
    payload = [
        {
            "ID": "cwq-1",
            "question": "which country?",
            "topic_entity": {"m.01": "France"},
            "answers": [{"answer": "Paris", "aliases": ["City of Light"]}],
        }
    ]
    path = tmp_path / "cwq.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    (sample,) = load_dataset(path, "cwq")
    assert sample.topic_entities == ["France"]
    assert sample.gold_answers == [["Paris", "City of Light"]]


@pytest.mark.parametrize("format, key", [("webqsp", "Questions"), ("cwq", "data")])
def test_an_object_with_an_empty_question_list_loads_no_sample(tmp_path, format, key):
    path = tmp_path / "data.json"
    path.write_text(json.dumps({key: []}), encoding="utf-8")
    assert load_dataset(path, format) == []


_WEBQSP_NUMERIC = {
    "QuestionId": 1,
    "RawQuestion": "when?",
    "Parses": [{"TopicEntityName": 1066, "Answers": [{"EntityName": None, "AnswerArgument": 7}]}],
}
_CWQ_NUMERIC = {"ID": 1, "question": "when?", "answers": [{"answer": 7, "aliases": [7.0]}]}


@pytest.mark.parametrize(
    "format, payload, gold",
    [
        ("webqsp", {"Questions": [_WEBQSP_NUMERIC]}, [["7"]]),
        ("cwq", [{**_CWQ_NUMERIC, "topic_entity": {"m.01": 1066}}], [["7", "7.0"]]),
        ("cwq", [{**_CWQ_NUMERIC, "topic_entity_name": 1066}], [["7", "7.0"]]),
    ],
    ids=["webqsp", "cwq", "cwq-topic-name"],
)
def test_numeric_labels_load_as_strings_and_score(tmp_path, format, payload, gold):
    path = tmp_path / "data.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    (sample,) = load_dataset(path, format)
    assert sample.topic_entities == ["1066"]
    assert sample.gold_answers == gold
    assert score_sample(answer_set("7"), sample.gold_answers).hit1 == 1


# -- score_sample -------------------------------------------------------------------


def test_perfect_single_answer():
    s = score_sample(answer_set("a"), [["a"]])
    assert (s.hit1, s.precision, s.recall, s.f1, s.exact) == (1, 1.0, 1.0, 1.0, 1)


def test_half_precision_half_recall():
    s = score_sample(answer_set("a", "b"), [["a"], ["c"]])
    assert s.hit1 == 1
    assert s.precision == pytest.approx(0.5)
    assert s.recall == pytest.approx(0.5)
    assert s.f1 == pytest.approx(0.5)
    assert s.exact == 0


def test_empty_prediction_scores_zero():
    s = score_sample(answer_set(), [["a"]])
    assert (s.hit1, s.precision, s.recall, s.f1, s.exact) == (0, 0.0, 0.0, 0.0, 0)


def test_alias_match_counts():
    s = score_sample(answer_set("city of light"), [["Paris", "City of Light"]])
    assert s.hit1 == 1 and s.recall == 1.0


def test_normalization_trims_folds_collapses():
    s = score_sample(answer_set("  KENYAN   shilling "), [["Kenyan shilling"]])
    assert s.hit1 == 1 and s.f1 == 1.0


def test_strict_mode_drops_ungrounded():
    pred = answer_set("a", "ghost", ungrounded=["ghost"])
    strict = score_sample(pred, [["a"]], mode="strict")
    lenient = score_sample(pred, [["a"]], mode="lenient")
    assert strict.precision == 1.0 and strict.exact == 1
    assert lenient.precision == pytest.approx(0.5) and lenient.exact == 0


def test_strict_predictions_subset_of_lenient():
    rng = random.Random(5)
    for _ in range(50):
        surfaces = [f"ans{i}" for i in range(rng.randint(0, 6))]
        ungrounded = {s for s in surfaces if rng.random() < 0.5}
        pred = answer_set(*surfaces, ungrounded=ungrounded)
        strict = [n for n in pred.normalized() if n not in pred.ungrounded]
        assert set(strict) <= set(pred.normalized())


def test_exact_requires_bijection():
    # two predictions, one gold: not exact even though everything matches
    s = score_sample(answer_set("paris", "city of light"), [["Paris", "City of Light"]])
    assert s.exact == 0
    # one prediction per gold, via aliases
    s2 = score_sample(answer_set("paris", "london"), [["Paris"], ["London"]])
    assert s2.exact == 1


def test_exact_match_moves_an_earlier_prediction_to_a_free_gold():
    # "a" takes the first gold, then "b", which only the first gold holds,
    # takes it over and "a" moves to the second.
    assert score_sample(answer_set("a", "b"), [["a", "b"], ["a"]]).exact == 1


def test_f1_identity_and_bounds_thousand_cases():
    rng = random.Random(424242)
    for _ in range(1000):
        n_pred = rng.randint(0, 6)
        n_gold = rng.randint(1, 6)
        universe = [f"e{i}" for i in range(8)]
        preds = rng.sample(universe, n_pred)
        golds = [[rng.choice(universe)] for _ in range(n_gold)]
        s = score_sample(answer_set(*preds), golds)
        if s.precision + s.recall > 0:
            assert s.f1 == pytest.approx(
                2 * s.precision * s.recall / (s.precision + s.recall), abs=1e-12
            )
        else:
            assert s.f1 == 0.0
        for v in (s.precision, s.recall, s.f1):
            assert 0.0 <= v <= 1.0
        assert s.hit1 in (0, 1) and s.exact in (0, 1)


def test_gold_must_be_non_empty():
    with pytest.raises(DataError):
        score_sample(answer_set("a"), [])


# -- evaluate -----------------------------------------------------------------------


def outcome(answers, calls=3):
    ledger = UsageLedger()
    from karpa.llm import CompletionResult

    for _ in range(calls):
        ledger.record("reasoning", CompletionResult("x", 10, 5, estimated=True))
    return SimpleNamespace(
        answers=answers, usage_snapshot=ledger.snapshot(), trace=[{"event": "t"}], flags=[]
    )


def sample(i, gold):
    return QASample(id=f"q{i}", question="?", topic_entities=["T"], gold_answers=gold)


def test_aggregate_is_mean_of_samples():
    samples = [sample(1, [["a"]]), sample(2, [["b"]])]

    def runner(s):
        return outcome(answer_set("a"))  # right for q1, wrong for q2

    report = evaluate(samples, runner)
    assert report.aggregates["f1"] == pytest.approx(0.5)
    assert report.aggregates["hit1"] == pytest.approx(0.5)
    assert report.aggregates["calls_per_question"] == pytest.approx(3.0)


def test_per_sample_failure_becomes_zero_score():
    samples = [sample(1, [["a"]]), sample(2, [["b"]])]

    def runner(s):
        if s.id == "q2":
            raise RuntimeError("pipeline exploded")
        return outcome(answer_set("a"))

    report = evaluate(samples, runner)
    assert report.aggregates["errors"] == 1
    assert report.records[1].error == "RuntimeError: pipeline exploded"
    assert report.records[1].score.f1 == 0.0
    assert report.aggregates["hit1"] == pytest.approx(0.5)


@pytest.mark.parametrize("checkpoints", [False, True])
def test_repeated_sample_id_is_data_error_before_any_sample_runs(tmp_path, checkpoints):
    # Same id, different gold: the second would be served the first's checkpoint.
    samples = [sample(1, [["a"]]), sample(2, [["b"]]), sample(1, [["b"]])]
    ran = []

    def runner(s):
        ran.append(s.id)
        return outcome(answer_set("a"))

    with pytest.raises(DataError, match="duplicate sample id 'q1'"):
        evaluate(samples, runner, checkpoint_dir=tmp_path if checkpoints else None, config_digest="d")
    assert ran == []
    assert list(tmp_path.iterdir()) == []


def test_checkpoint_resume_skips_runner(tmp_path):
    samples = [sample(1, [["a"]])]
    calls = {"n": 0}

    def runner(s):
        calls["n"] += 1
        return outcome(answer_set("a"))

    kwargs = dict(checkpoint_dir=tmp_path, config_digest="abc123")
    first = evaluate(samples, runner, **kwargs)
    second = evaluate(samples, runner, **kwargs)
    assert calls["n"] == 1
    assert render_report(first) == render_report(second)
    # a different config digest invalidates the checkpoint
    evaluate(samples, runner, checkpoint_dir=tmp_path, config_digest="other")
    assert calls["n"] == 2


def test_checkpoint_that_records_an_error_is_run_again(tmp_path):
    samples = [sample(1, [["a"]]), sample(2, [["b"]]), sample(3, [["c"]])]
    ran = []

    def runner(s):
        ran.append(s.id)
        if s.id == "q2" and ran.count("q2") == 1:
            raise RuntimeError("provider outage")
        return outcome(answer_set(s.gold_answers[0][0]))

    faulty = evaluate(samples, runner, checkpoint_dir=tmp_path, config_digest="d")
    assert faulty.aggregates["errors"] == 1
    resumed = evaluate(samples, runner, checkpoint_dir=tmp_path, config_digest="d")
    assert ran == ["q1", "q2", "q3", "q2"]
    assert render_report(resumed) == render_report(evaluate(samples, runner, config_digest="d"))


def test_checkpoint_that_is_not_json_is_run_again(tmp_path):
    samples = [sample(1, [["a"]])]
    ran = []

    def runner(s):
        ran.append(s.id)
        return outcome(answer_set("a"))

    evaluate(samples, runner, checkpoint_dir=tmp_path, config_digest="d")
    (checkpoint,) = tmp_path.glob("*.json")
    checkpoint.write_text('{"config_digest": "d", "ans', encoding="utf-8")
    report = evaluate(samples, runner, checkpoint_dir=tmp_path, config_digest="d")
    assert ran == ["q1", "q1"]
    assert report.records[0].score.hit1 == 1
    assert json.loads(checkpoint.read_text(encoding="utf-8"))["config_digest"] == "d"


def test_checkpoint_that_is_not_utf8_is_run_again(tmp_path):
    samples = [sample(1, [["a"]])]
    ran = []

    def runner(s):
        ran.append(s.id)
        return outcome(answer_set("a"))

    evaluate(samples, runner, checkpoint_dir=tmp_path, config_digest="d")
    (checkpoint,) = tmp_path.glob("*.json")
    checkpoint.write_bytes(b'{"config_digest": "\xff"}')
    report = evaluate(samples, runner, checkpoint_dir=tmp_path, config_digest="d")
    assert ran == ["q1", "q1"]
    assert report.records[0].score.hit1 == 1
    assert json.loads(checkpoint.read_text(encoding="utf-8"))["config_digest"] == "d"


@pytest.mark.parametrize("text", ["[]", "null", '"d"', '{"config_digest": "d"}'])
def test_checkpoint_that_is_not_a_checkpoint_object_is_run_again(tmp_path, text):
    samples = [sample(1, [["a"]])]
    ran = []

    def runner(s):
        ran.append(s.id)
        return outcome(answer_set("a"))

    evaluate(samples, runner, checkpoint_dir=tmp_path, config_digest="d")
    (checkpoint,) = tmp_path.glob("*.json")
    checkpoint.write_text(text, encoding="utf-8")
    report = evaluate(samples, runner, checkpoint_dir=tmp_path, config_digest="d")
    assert ran == ["q1", "q1"]
    assert report.records[0].score.hit1 == 1 and report.records[0].error is None
    assert json.loads(checkpoint.read_text(encoding="utf-8")).keys() == {
        "config_digest", "answers", "usage", "flags", "error"
    }


def _usage(calls):
    """A ledger snapshot whose only count is ``calls`` reasoning calls, in the totals too."""
    zeros = dict.fromkeys(COUNTERS, 0)
    reasoning = {**zeros, "calls": calls}
    return {**reasoning, "phases": {"initial_planning": zeros, "replanning": zeros, "reasoning": reasoning}}


def _answers(provenance):
    """The answer ``a`` with batch indices ``provenance``."""
    return {"answers": ["a"], "provenance": {"a": provenance}, "ungrounded": [], "no_answer_marker": False}


@pytest.mark.parametrize(
    "key, value",
    [
        (None, {"config_digest": "d", "answers": [], "usage": {}, "flags": [], "error": None}),
        ("answers", []),
        ("answers", "a"),
        ("answers", {"answers": [1], "provenance": {}, "ungrounded": [], "no_answer_marker": False}),
        ("answers", {"answers": ["a"], "provenance": {}, "ungrounded": [], "no_answer_marker": "no"}),
        ("usage", {}),
        ("usage", {"calls": 3, "phases": []}),
        ("usage", {"phases": {"reasoning": {"calls": "3"}}}),
        ("flags", "fallback_initial"),
        ("flags", [1]),
        ("error", 5),
        # Totals equal the phase sums and provenance comes back unchanged, so
        # only the type is wrong: ``True == 1`` and ``2 == 2.0``.
        ("usage", _usage(calls=True)),
        ("usage", _usage(calls=1.5)),
        ("usage", _usage(calls=2.0)),
        ("usage", _usage(calls=-3)),
        ("usage", {**_usage(calls=3), "calls": 3.0}),
        ("answers", _answers(provenance=[0.0])),
        ("answers", _answers(provenance=[False])),
        ("answers", _answers(provenance=[-1])),
    ],
)
def test_checkpoint_with_a_value_of_the_wrong_type_is_run_again(tmp_path, key, value):
    samples = [sample(1, [["a"]])]
    ran = []

    def runner(s):
        ran.append(s.id)
        return outcome(answer_set("a"))

    first = evaluate(samples, runner, checkpoint_dir=tmp_path, config_digest="d")
    (checkpoint,) = tmp_path.glob("*.json")
    written = json.loads(checkpoint.read_text(encoding="utf-8"))
    payload = value if key is None else {**written, key: value}
    checkpoint.write_text(json.dumps(payload), encoding="utf-8")
    report = evaluate(samples, runner, checkpoint_dir=tmp_path, config_digest="d")
    assert ran == ["q1", "q1"]
    assert render_report(report) == render_report(first)
    assert json.loads(checkpoint.read_text(encoding="utf-8")) == written


def test_checkpoint_writes_trace_file(tmp_path):
    samples = [sample(7, [["a"]])]
    evaluate(samples, lambda s: outcome(answer_set("a")), checkpoint_dir=tmp_path, config_digest="d")
    traces = list(tmp_path.glob("*.trace.jsonl"))
    assert len(traces) == 1
    event = json.loads(traces[0].read_text(encoding="utf-8").splitlines()[0])
    assert event["event"] == "t"


def test_checkpoint_write_that_fails_midway_keeps_the_previous_one(tmp_path, monkeypatch):
    samples = [sample(3, [["a"]])]
    first = evaluate(samples, lambda s: outcome(answer_set("a")), checkpoint_dir=tmp_path, config_digest="d1")
    names = sorted(p.name for p in tmp_path.iterdir())

    def dump_then_fail(obj, fp, **kwargs):
        fp.write('{"config_digest": "d2", "answ')
        raise OSError("disk full")

    monkeypatch.setattr(json, "dump", dump_then_fail)
    with pytest.raises(StorageError, match=f"cannot write {re.escape(str(tmp_path))}.*: disk full"):
        evaluate(samples, lambda s: outcome(answer_set("z")), checkpoint_dir=tmp_path, config_digest="d2")
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == names

    def must_not_run(s):
        raise AssertionError("the previous checkpoint was not readable")

    resumed = evaluate(samples, must_not_run, checkpoint_dir=tmp_path, config_digest="d1")
    assert render_report(resumed) == render_report(first)


def test_checkpoint_files_are_synced_before_the_rename(tmp_path, monkeypatch):
    events = []
    real_fsync, real_replace = os.fsync, os.replace

    def fsync(fd):
        st = os.fstat(fd)
        events.append(("fsync", st.st_ino, st.st_size))
        real_fsync(fd)

    def replace(src, dst):
        st = os.stat(src)
        events.append(("replace", st.st_ino, st.st_size))
        real_replace(src, dst)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", replace)
    evaluate([sample(5, [["a"]])], lambda s: outcome(answer_set("a")), checkpoint_dir=tmp_path, config_digest="d")
    # Two files (record and trace), each fsynced whole through the temp
    # file's own descriptor right before it is renamed.
    assert [kind for kind, _, _ in events] == ["fsync", "replace"] * 2
    for (_, synced, synced_size), (_, renamed, renamed_size) in zip(events[::2], events[1::2]):
        assert synced == renamed
        assert synced_size == renamed_size > 0


def test_concurrent_equals_sequential():
    samples = [sample(i, [["a"]]) for i in range(8)]

    def runner(s):
        return outcome(answer_set("a" if int(s.id[1]) % 2 == 0 else "z"))

    sequential = evaluate(samples, runner, concurrency=1)
    concurrent = evaluate(samples, runner, concurrency=4)
    assert render_report(sequential) == render_report(concurrent)


def test_ctrl_c_stops_a_sequential_run_in_the_question_in_flight():
    started, finished = threading.Event(), []

    def runner(s):
        started.set()
        deadline = time.monotonic() + 2.0
        while time.monotonic() < deadline:
            time.sleep(0.01)
        finished.append(s.id)
        return outcome(answer_set("a"))

    def interrupt():
        if started.wait(timeout=10):
            signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)

    # A shell starts background jobs with SIGINT ignored: install Python's own handler.
    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    helper = threading.Thread(target=interrupt)
    helper.start()
    try:
        with pytest.raises(KeyboardInterrupt):
            evaluate([sample(1, [["a"]]), sample(2, [["a"]])], runner, concurrency=1)
    finally:
        helper.join(timeout=10)
        signal.signal(signal.SIGINT, previous)
    assert not helper.is_alive()
    assert finished == []


def test_report_rendering_shape():
    report = evaluate([sample(1, [["a"]])], lambda s: outcome(answer_set("a")), config_digest="cfg1")
    text = render_report(report)
    assert text.startswith("karpa evaluation report\nconfig_digest: cfg1\n")
    assert "== per-sample ==" in text and "== aggregates ==" in text and "== usage ==" in text
    tsv = render_summary_tsv(report)
    assert "f1\t1.0" in tsv
    assert all(len(line.split("\t")) == 2 for line in tsv.strip().splitlines())


def test_mode_recorded_in_report():
    report = evaluate([sample(1, [["a"]])], lambda s: outcome(answer_set("a")), mode="lenient")
    assert isinstance(report, EvalReport)
    assert "mode: lenient" in render_report(report)
