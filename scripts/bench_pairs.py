#!/usr/bin/env python3
"""Run the benchmark on two git revisions in alternating pairs and record every run.

    python3 scripts/bench_pairs.py --base HEAD~1 --change HEAD \\
        --workload heuristic-cold --workload pathfind-http \\
        --seed 53 --seconds 20 --pairs 10 --tag embedding_scoring

Each revision is checked out with ``git worktree add`` under a temporary
directory, so each side runs ``python3 perfbench/run.py --trace 0`` on its
own sources. Pair ``i`` runs the base first when ``i`` is even and the change
first when it is odd, so a drift in host speed falls on both sides alike.

``BENCH_<tag>.json``, written to the root of the repository that holds this
script, records the commits, the seed, ``--seconds``, the host's CPU count
and Python version, and per workload every run's last stdout line, plus
under ``extra`` the unbounded metrics that ``run.py`` prints above it as
``name value unit`` lines (printed to six significant digits). An extra
that prints several numbers, such as ``setup_s_samples``, is also recorded
as its smallest one, ``<name>_min``, so set-up noise shows run by run. Per
metric, the extra ones that are single numbers included, it gives each
side's median, quartiles and IQR, and for the
end-to-end metrics that the change's ``BENCHMARK.json`` lists, how many
pairs each side won in the metric's better direction and whether the claim
rule is met: the change wins at least nine tenths of all pairs, ties
counting for neither, and its median beats the base's by more than the
base's IQR. For each of those with a ``bound`` it also gives a regression
verdict: ``worse_by``, how far the change's median lies from the base's in
the worse direction, as a share of the base's; ``held`` if that is at most
the bound, ``regressed`` if it is more, and ``unresolved`` if the base's IQR
over its median exceeds the bound, unless every change run beats every base
run. The file is
rewritten after every run, so an interrupted run keeps the pairs made so
far. The worktrees are removed on exit.

Exit status 1 if any run failed, printed no result, reported
``"correct": false`` or failed an operation.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SIDES = ("base", "change")


def git(repo: Path, *args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=repo, check=True, capture_output=True, text=True, encoding="utf-8"
    ).stdout.strip()


def tree_hash(repo: Path, rev: str, path: str) -> str | None:
    """The git tree hash of ``path`` at ``rev``, or None if it has no such directory."""
    proc = subprocess.run(
        ["git", "rev-parse", f"{rev}:{path}"], cwd=repo, capture_output=True, text=True, encoding="utf-8"
    )
    return proc.stdout.strip() if proc.returncode == 0 else None


def printed_metrics(lines: list[str]) -> dict[str, dict]:
    """``{name: {"value": ..., "unit": ...}}`` from the ``name value unit``
    lines ``perfbench/run.py`` prints: a single number as a float, ``n/a``
    as None, anything else (several samples) as the printed text. Its
    header and ``CHECK FAILED`` lines are skipped."""
    printed = {}
    for line in lines:
        parts = line.split()
        if len(parts) < 3 or line.startswith(("#", "CHECK FAILED")):
            continue
        shown = " ".join(parts[1:-1])
        try:
            value = float(shown)
        except ValueError:
            value = None if shown == "n/a" else shown
        printed[parts[0]] = {"value": value, "unit": parts[-1]}
    return printed


def sample_minimums(extra: dict[str, dict]) -> dict[str, dict]:
    """``{name + "_min": {"value": ..., "unit": ...}}`` for each extra that
    printed several numbers: the smallest of them."""
    minimums = {}
    for name, metric in extra.items():
        if isinstance(metric["value"], str):
            try:
                samples = [float(word) for word in metric["value"].split()]
            except ValueError:
                continue
            minimums[name + "_min"] = {"value": min(samples), "unit": metric["unit"]}
    return minimums


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``tree``: its exit status, its last
    stdout line and, as ``extra``, the metrics printed above it that the
    last line does not carry."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, encoding="utf-8",
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = None
    bounded = (result or {}).get("metrics", {})
    extra = {name: m for name, m in printed_metrics(lines[:-1]).items() if name not in bounded}
    extra.update(sample_minimums(extra))
    run = {"returncode": proc.returncode, "result": result, "extra": extra}
    if proc.returncode != 0 or result is None:
        run["stderr_tail"] = proc.stderr[-2000:]
    return run


def run_ok(run: dict) -> bool:
    result = run["result"]
    return (
        run["returncode"] == 0
        and isinstance(result, dict)
        and result.get("correct") is True
        and result.get("failed") == 0
    )


def claim(wins: dict[str, int], entry: dict, sign: int) -> dict:
    """The claim rule for one metric, from the pairs each side won and the
    sides' summaries; ``sign`` is 1 where higher is better, -1 where lower is.

    ``median_gap`` is the change's median less the base's, in the better
    direction. ``met`` needs the change to win at least 9 of every 10 pairs,
    ties counting for neither side, and ``median_gap`` above the base's IQR.
    """
    pairs = sum(wins.values())
    if "base" in entry and "change" in entry:
        gap = sign * (entry["change"]["median"] - entry["base"]["median"])
        iqr = entry["base"]["iqr"]
    else:
        gap = iqr = None
    met = pairs > 0 and 10 * wins["change"] >= 9 * pairs and gap is not None and gap > iqr
    return {"wins": wins["change"], "pairs": pairs, "median_gap": gap, "base_iqr": iqr, "met": met}


def share(amount: float, base: float) -> float | None:
    """``amount`` as a share of ``|base|``. With a zero base: 0.0 for an
    amount of at most zero, None (unbounded) for a positive one."""
    if base:
        return amount / abs(base)
    return None if amount > 0 else 0.0


def regression(base: list[float], change: list[float], entry: dict, sign: int, bound: float) -> dict:
    """The regression verdict for one metric, from each side's runs and
    summaries; ``sign`` is 1 where higher is better, -1 where lower is.

    ``worse_by`` is the change's median less the base's in the worse
    direction, as a share of the base's median: negative for a change that
    is better. ``base_spread`` is the base's IQR as a share of its median.
    The verdict is ``unresolved`` when a side has no run, or when ``base_spread``
    exceeds ``bound`` and some change run does not beat every base run;
    otherwise ``regressed`` when ``worse_by`` exceeds ``bound``, and ``held``
    when it does not.
    """
    if not base or not change:
        return {"worse_by": None, "bound": bound, "base_spread": None, "verdict": "unresolved"}
    median = entry["base"]["median"]
    worse_by = share(sign * (median - entry["change"]["median"]), median)
    spread = share(entry["base"]["iqr"], median)
    beats_every_base_run = min(sign * v for v in change) > max(sign * v for v in base)
    if (spread is None or spread > bound) and not beats_every_base_run:
        verdict = "unresolved"
    elif worse_by is None or worse_by > bound:
        verdict = "regressed"
    else:
        verdict = "held"
    return {"worse_by": worse_by, "bound": bound, "base_spread": spread, "verdict": verdict}


def run_values(run: dict) -> dict[str, float | None]:
    """One run's metric values: the last line's, then the numeric extras."""
    values = {name: metric.get("value") for name, metric in (run["result"] or {}).get("metrics", {}).items()}
    for name, metric in run.get("extra", {}).items():
        if isinstance(metric["value"], float):
            values.setdefault(name, metric["value"])
    return values


def summarize(runs: list[dict], better: dict[str, str], bounds: dict[str, float] | None = None) -> dict:
    """Per metric: each side's median, quartiles and IQR; for metrics in
    ``better`` (name -> "higher" or "lower"), the pairs each side won and
    the claim rule's figures (``claim``), and for those in ``bounds`` too,
    the regression verdict (``regression``)."""
    values_by_name: dict[str, dict[str, dict[int, float]]] = {}
    for run in runs:
        for name, value in run_values(run).items():
            values = values_by_name.setdefault(name, {side: {} for side in SIDES})
            if value is not None:
                values[run["side"]][run["pair"]] = value
    summary = {}
    for name, values in values_by_name.items():
        entry = {}
        for side in SIDES:
            side_values = list(values[side].values())
            if not side_values:
                continue
            if len(side_values) > 1:
                q1, _, q3 = statistics.quantiles(side_values, n=4, method="inclusive")
            else:
                q1 = q3 = side_values[0]
            entry[side] = {
                "median": statistics.median(side_values),
                "q1": q1,
                "q3": q3,
                "iqr": q3 - q1,
                "runs": len(side_values),
            }
        if name in better:
            sign = 1 if better[name] == "higher" else -1
            wins = {"change": 0, "base": 0, "tie": 0}
            for pair, base in values["base"].items():
                if pair in values["change"]:
                    diff = sign * (values["change"][pair] - base)
                    wins["change" if diff > 0 else "base" if diff < 0 else "tie"] += 1
            entry["better"] = better[name]
            entry["pairs_won"] = wins
            entry["claim"] = claim(wins, entry, sign)
            if bounds and name in bounds:
                sides = [list(values[side].values()) for side in SIDES]
                entry["regression"] = regression(*sides, entry, sign, bounds[name])
        summary[name] = entry
    return summary


def end_to_end(tree: Path) -> tuple[dict[str, str], dict[str, float]]:
    """``{metric: "higher" | "lower"}`` for the end-to-end metrics of
    ``tree``'s BENCHMARK.json, and ``{metric: bound}`` for those with a bound."""
    path = tree / "BENCHMARK.json"
    if not path.is_file():
        return {}, {}
    metrics = json.loads(path.read_text(encoding="utf-8")).get("end_to_end", [])
    return {m["name"]: m["better"] for m in metrics}, {m["name"]: m["bound"] for m in metrics if "bound" in m}


def nproc() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="parent revision")
    parser.add_argument("--change", required=True, help="revision under test")
    parser.add_argument("--workload", required=True, action="append", help="repeat for several")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--tag", required=True, help="the output is BENCH_<tag>.json")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be positive")
    out = REPO / f"BENCH_{args.tag}.json"

    revisions = {side: getattr(args, side) for side in SIDES}
    record = {
        "tag": args.tag,
        "command": "python3 perfbench/run.py --workload W --seed SEED --seconds SECONDS --trace 0",
        "revisions": {
            side: {
                "rev": rev,
                "commit": git(REPO, "rev-parse", f"{rev}^{{commit}}"),
                # Equal tree hashes mean equal files, across amended or rebased commits.
                "src_tree": tree_hash(REPO, rev, "src"),
                "perfbench_tree": tree_hash(REPO, rev, "perfbench"),
            }
            for side, rev in revisions.items()
        },
        "seed": args.seed,
        "seconds": args.seconds,
        "pairs": args.pairs,
        "nproc": nproc(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "workloads": {},
    }
    if len({r["perfbench_tree"] for r in record["revisions"].values()}) != 1:
        print("bench_pairs: warning: the two revisions' perfbench/ differ", file=sys.stderr)

    all_ok = True
    with tempfile.TemporaryDirectory(prefix="bench_pairs.") as tmp:
        trees: dict[str, Path] = {}
        try:
            for side in SIDES:
                trees[side] = Path(tmp) / side
                git(REPO, "worktree", "add", "--detach", str(trees[side]), record["revisions"][side]["commit"])
            better, bounds = end_to_end(trees["change"])
            for workload in args.workload:
                runs: list[dict] = []
                entry = record["workloads"][workload] = {"runs": runs, "summary": {}}
                for pair in range(args.pairs):
                    for side in SIDES if pair % 2 == 0 else SIDES[::-1]:
                        run = {"pair": pair, "side": side}
                        run.update(run_once(trees[side], workload, args.seed, args.seconds))
                        runs.append(run)
                        all_ok &= run_ok(run)
                        entry["summary"] = summarize(runs, better, bounds)
                        out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
                        metrics = (run["result"] or {}).get("metrics", {})
                        qps = metrics.get("questions_per_s", {}).get("value")
                        print(f"{workload} pair {pair} {side}: ok={run_ok(run)} questions_per_s={qps}", file=sys.stderr)
        finally:
            for path in trees.values():
                subprocess.run(["git", "worktree", "remove", "--force", str(path)], cwd=REPO,
                               capture_output=True)
            subprocess.run(["git", "worktree", "prune"], cwd=REPO, capture_output=True)

    for workload, entry in record["workloads"].items():
        for name, stats in entry["summary"].items():
            if "pairs_won" not in stats:
                continue
            base, change = stats.get("base", {}), stats.get("change", {})
            verdict = stats.get("regression", {}).get("verdict")
            print(
                f"{workload:16} {name:26} base {base.get('median')!s:>22} (IQR {base.get('iqr')!s:>22})"
                f"  change {change.get('median')!s:>22}  won {stats['pairs_won']}  met {stats['claim']['met']}"
                f"  verdict {verdict}"
            )
    print(f"wrote {out}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
