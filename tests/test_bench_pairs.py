import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

_SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _SCRIPT)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

# A stand-in benchmark: prints a progress line and, as run.py does, one
# unbounded metric as a "name value unit" line, then the result line with
# the speed its revision's speed.txt names; a file of several speeds gives
# its n-th run the n-th speed (the runs are counted in runs.log).
_FAKE_RUN = """\
import json, sys
from pathlib import Path
speeds = Path("speed.txt").read_text().split()
log = Path("runs.log")
run = len(log.read_text().splitlines()) if log.exists() else 0
log.write_text("run\\n" * (run + 1))
speed = float(speeds[run % len(speeds)])
print("progress")
print(f"{'embed_provider_texts_per_question':44s} {2 * speed:.6g} count")
print(json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {
    "questions_per_s": {"value": speed, "unit": "1/s"},
    "peak_rss_mb": {"value": 100.0, "unit": "MB"},
    "host_only": {"value": 1.0, "unit": "count"},
}}))
"""


def _git(repo, *args):
    return subprocess.run(
        ["git", *args], cwd=repo, check=True, capture_output=True, text=True, encoding="utf-8"
    ).stdout.strip()


def _make_repo(tmp_path, base_speeds, change_speeds):
    repo = tmp_path / "repo"
    (repo / "perfbench").mkdir(parents=True)
    (repo / "perfbench" / "run.py").write_text(_FAKE_RUN, encoding="utf-8")
    # The script works on the repository it sits in, and writes its record there.
    (repo / "scripts").mkdir()
    shutil.copy(_SCRIPT, repo / "scripts" / "bench_pairs.py")
    (repo / "BENCHMARK.json").write_text(
        json.dumps({"end_to_end": [
            {"name": "questions_per_s", "better": "higher", "bound": 0.25},
            {"name": "peak_rss_mb", "better": "lower", "bound": 0.1},
        ]}),
        encoding="utf-8",
    )
    _git(repo, "init", "-q")
    _git(repo, "config", "user.email", "bench@example.invalid")
    _git(repo, "config", "user.name", "bench")
    for speeds in (base_speeds, change_speeds):
        (repo / "speed.txt").write_text(speeds, encoding="utf-8")
        _git(repo, "add", "-A")
        _git(repo, "commit", "-q", "-m", f"speeds {speeds}")
    return repo


@pytest.fixture()
def two_revisions(tmp_path):
    return _make_repo(tmp_path, "4.0", "5.0")


def _bench_pairs(repo, *args):
    return subprocess.run(
        [sys.executable, "scripts/bench_pairs.py", "--base", "HEAD~1", "--change", "HEAD", "--workload", "w",
         "--seconds", "1", "--tag", "t", *args],
        cwd=repo, capture_output=True, text=True, encoding="utf-8",
    )


def test_pairs_alternate_and_record_every_run(two_revisions):
    repo = two_revisions
    proc = _bench_pairs(repo, "--seed", "3", "--pairs", "3")
    assert proc.returncode == 0, proc.stderr
    record = json.loads((repo / "BENCH_t.json").read_text(encoding="utf-8"))
    assert record["revisions"]["change"]["commit"] == _git(repo, "rev-parse", "HEAD")
    assert record["revisions"]["base"]["commit"] == _git(repo, "rev-parse", "HEAD~1")
    assert (record["seed"], record["seconds"], record["pairs"]) == (3, 1.0, 3)
    assert record["python"] and record["nproc"] >= 1
    runs = record["workloads"]["w"]["runs"]
    assert [(r["pair"], r["side"]) for r in runs] == [
        (0, "base"), (0, "change"), (1, "change"), (1, "base"), (2, "base"), (2, "change"),
    ]
    assert all(r["result"]["correct"] for r in runs)
    summary = record["workloads"]["w"]["summary"]
    assert summary["questions_per_s"]["base"] == {"median": 4.0, "q1": 4.0, "q3": 4.0, "iqr": 0.0, "runs": 3}
    assert summary["questions_per_s"]["change"]["median"] == 5.0
    assert summary["questions_per_s"]["pairs_won"] == {"change": 3, "base": 0, "tie": 0}
    assert summary["peak_rss_mb"]["pairs_won"] == {"change": 0, "base": 0, "tie": 3}
    assert summary["questions_per_s"]["claim"] == {
        "wins": 3, "pairs": 3, "median_gap": 1.0, "base_iqr": 0.0, "met": True,
    }
    assert summary["peak_rss_mb"]["claim"]["met"] is False
    assert summary["questions_per_s"]["regression"] == {
        "worse_by": -0.25, "bound": 0.25, "base_spread": 0.0, "verdict": "held",
    }
    assert summary["peak_rss_mb"]["regression"]["verdict"] == "held"
    assert "claim" not in summary["host_only"] and "regression" not in summary["host_only"]
    assert "met True" in proc.stdout and "verdict held" in proc.stdout
    assert "pairs_won" not in summary["host_only"]
    # The printed unbounded metric reaches the record and is summarized, with no claim.
    assert [r["extra"] for r in runs] == [
        {"embed_provider_texts_per_question": {"value": 8.0 if r["side"] == "base" else 10.0, "unit": "count"}}
        for r in runs
    ]
    texts = summary["embed_provider_texts_per_question"]
    assert texts == {
        "base": {"median": 8.0, "q1": 8.0, "q3": 8.0, "iqr": 0.0, "runs": 3},
        "change": {"median": 10.0, "q1": 10.0, "q3": 10.0, "iqr": 0.0, "runs": 3},
    }
    # The worktrees are gone again.
    assert len(_git(repo, "worktree", "list").splitlines()) == 1


def test_summary_quartiles_and_lower_is_better():
    runs = [
        {"pair": i, "side": side, "result": {"metrics": {"ms": {"value": value}}}}
        for i, (b, c) in enumerate([(10.0, 9.0), (12.0, 13.0), (14.0, 11.0), (16.0, 16.0)])
        for side, value in (("base", b), ("change", c))
    ]
    summary = bench_pairs.summarize(runs, {"ms": "lower"})["ms"]
    assert summary["base"] == {"median": 13.0, "q1": 11.5, "q3": 14.5, "iqr": 3.0, "runs": 4}
    assert summary["pairs_won"] == {"change": 2, "base": 1, "tie": 1}


def _verdict(base, change, better="lower", bound=0.25):
    runs = [
        {"pair": i, "side": side, "result": {"metrics": {"m": {"value": value}}}}
        for i, pair in enumerate(zip(base, change))
        for side, value in zip(("base", "change"), pair)
    ]
    return bench_pairs.summarize(runs, {"m": better}, {"m": bound})["m"]["regression"]


def test_regression_verdict_holds_within_the_bound_and_regresses_beyond_it():
    held = _verdict([4.0, 4.0, 4.0, 4.0], [3.2, 3.2, 3.2, 3.2], better="higher")
    assert held == {"worse_by": pytest.approx(0.2), "bound": 0.25, "base_spread": 0.0, "verdict": "held"}
    regressed = _verdict([4.0, 4.0, 4.0, 4.0], [2.0, 2.0, 2.0, 2.0], better="higher")
    assert regressed == {"worse_by": 0.5, "bound": 0.25, "base_spread": 0.0, "verdict": "regressed"}
    assert _verdict([10.0] * 4, [13.0] * 4)["verdict"] == "regressed"  # lower is better
    assert _verdict([10.0] * 4, [7.0] * 4)["worse_by"] == pytest.approx(-0.3)


def test_a_base_spread_wider_than_the_bound_leaves_the_verdict_unresolved():
    # A set-up time that falls in a fast or a slow cluster run by run.
    base = [0.043, 0.062, 0.043, 0.062]
    unresolved = _verdict(base, [0.044, 0.061, 0.045, 0.062])
    assert unresolved["base_spread"] == pytest.approx(0.019 / 0.0525)
    assert unresolved["verdict"] == "unresolved"
    # Unless every change run beats every base run.
    assert _verdict(base, [0.040, 0.041, 0.040, 0.042])["verdict"] == "held"
    assert _verdict(base, [0.040, 0.041, 0.040, 0.043])["verdict"] == "unresolved"  # a tie is no win


def test_a_zero_base_median_regresses_on_any_increase():
    assert _verdict([0.0] * 4, [0.0] * 4)["verdict"] == "held"
    assert _verdict([0.0] * 4, [1.0] * 4) == {
        "worse_by": None, "bound": 0.25, "base_spread": 0.0, "verdict": "regressed",
    }


def test_printed_metrics_read_run_py_lines():
    lines = [
        "# workload heuristic-cold  seed 1  trace 0  nproc 2  python 3.11.7",
        f"{'setup_s':44s} 1.18001 s",
        f"{'question_ms_p90':44s} n/a ms",
        f"{'setup_s_samples':44s} 1.223 1.180 1.100 s",
        f"{'host_speed':44s} 1.07009 ratio",
        "CHECK FAILED: pass 2 rendered another report",
        "progress",
    ]
    assert bench_pairs.printed_metrics(lines) == {
        "setup_s": {"value": 1.18001, "unit": "s"},
        "question_ms_p90": {"value": None, "unit": "ms"},
        "setup_s_samples": {"value": "1.223 1.180 1.100", "unit": "s"},
        "host_speed": {"value": 1.07009, "unit": "ratio"},
    }


def test_several_printed_samples_are_recorded_and_summarized_by_their_minimum():
    printed = [
        # (side, setup_s_samples, pass_walls_s): a run's least set-up shows its cluster, fast or slow
        ("base", "0.043 0.061 0.044", "1.20 1.10"),
        ("change", "0.045 0.044 0.062", "1.00 1.30"),
        ("base", "0.062 0.060 0.063", "1.40 1.50"),
        ("change", "0.046 0.063 0.064", "1.10 1.20"),
    ]
    runs = []
    for pair, (side, setup, walls) in enumerate(printed):
        extra = bench_pairs.printed_metrics([
            f"{'setup_s_samples':44s} {setup} s",
            f"{'pass_walls_s':44s} {walls} s",
            f"{'host_speed':44s} 1.07009 ratio",
            f"{'note':44s} fast cluster s",
        ])
        extra.update(bench_pairs.sample_minimums(extra))
        runs.append({"pair": pair // 2, "side": side, "result": {"metrics": {}}, "extra": extra})
    assert runs[0]["extra"]["setup_s_samples_min"] == {"value": 0.043, "unit": "s"}
    assert runs[0]["extra"]["pass_walls_s_min"] == {"value": 1.10, "unit": "s"}
    assert "host_speed_min" not in runs[0]["extra"] and "note_min" not in runs[0]["extra"]
    summary = bench_pairs.summarize(runs, {"setup_s": "lower"})
    setup = summary["setup_s_samples_min"]
    assert setup["base"] == pytest.approx({"median": 0.0515, "q1": 0.04725, "q3": 0.05575, "iqr": 0.0085, "runs": 2})
    assert setup["change"] == pytest.approx({"median": 0.045, "q1": 0.0445, "q3": 0.0455, "iqr": 0.001, "runs": 2})
    assert "claim" not in summary["setup_s_samples_min"] and "pairs_won" not in summary["pass_walls_s_min"]
    assert summary["pass_walls_s_min"]["change"]["median"] == 1.05
    assert "setup_s_samples" not in summary  # the samples themselves are text


def test_a_run_without_a_result_line_fails_the_script(two_revisions):
    repo = two_revisions
    (repo / "perfbench" / "run.py").write_text("import sys; sys.exit(2)\n", encoding="utf-8")
    _git(repo, "commit", "-q", "-am", "broken")
    proc = _bench_pairs(repo, "--seed", "1", "--pairs", "1")
    assert proc.returncode == 1
    runs = json.loads((repo / "BENCH_t.json").read_text(encoding="utf-8"))["workloads"]["w"]["runs"]
    broken = next(r for r in runs if r["side"] == "change")
    assert broken["result"] is None and broken["returncode"] == 2


def test_eight_wins_in_ten_pairs_do_not_meet_the_claim_rule(tmp_path):
    # The change wins pairs 0-7 by 1.0 and loses pairs 8 and 9.
    repo = _make_repo(tmp_path, "4.0", "5.0 " * 8 + "3.0 3.0")
    proc = _bench_pairs(repo, "--seed", "1", "--pairs", "10")
    assert proc.returncode == 0, proc.stderr
    summary = json.loads((repo / "BENCH_t.json").read_text(encoding="utf-8"))["workloads"]["w"]["summary"]
    assert summary["questions_per_s"]["pairs_won"] == {"change": 8, "base": 2, "tie": 0}
    assert summary["questions_per_s"]["claim"] == {
        "wins": 8, "pairs": 10, "median_gap": 1.0, "base_iqr": 0.0, "met": False,
    }
    assert "met True" not in proc.stdout
