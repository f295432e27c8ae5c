#!/usr/bin/env python3
"""End-to-end benchmark of a whole ``karpa eval`` run, driven through the library.

    python3 perfbench/run.py --workload heuristic-cold --seed 1 --seconds 20 --trace 0

It generates the workload's graph, dataset and oracle table from the seed,
sets the program up several times (reporting the median set-up time), then
runs ``evaluate`` over the dataset in whole passes until ``--seconds`` have
passed (at least two), plus one untimed pass on a warm cache, as ``karpa eval``
does: ``load_graph``, ``build_embedding_gateway``, an injected oracle chat
provider or ``build_chat_provider``, ``Pipeline``, ``make_sample_runner``,
``evaluate``.

Every pass is checked: each selected path must be a simple path of the
generated graph with the labels it claims, each question must make
``2 + ceil(selected / batch_limit)`` LLM calls, and every pass must render
the same eval report. A failed check makes ``correct`` false.

On single-client workloads a host-speed probe (probe.py) is timed between
questions, and question times are reported at its reference speed as well
as raw.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` runs untraced
and traced passes and prints the per-layer metrics. The last stdout line
is one JSON object: ``correct``, ``attempted``, ``failed``, ``metrics``.
See perfbench/README.md for every metric.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "karpa" / "__init__.py").is_file():
        print(f"perfbench: program sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from bench import Bench
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    work = ROOT / ".perfbench_work" / f"{workload.name}-{args.seed}-{os.getpid()}"
    bench = None
    try:
        bench = Bench(workload, args.seed, work)
        if args.trace:
            from traced import run_traced

            spans_path = ROOT / ".perfbench_traces" / f"{workload.name}-{args.seed}.jsonl"
            spans_path.parent.mkdir(exist_ok=True)
            metrics, extra, attempted, failed = run_traced(bench, args.seconds, spans_path)
        else:
            metrics, extra, attempted, failed = bench.run_end_to_end(args.seconds)
        problems = bench.finish_checks()
    finally:
        if bench is not None:
            bench.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()  # only succeeds once no other run is using it
        except OSError:
            pass

    print(f"# workload {workload.name}  seed {args.seed}  trace {args.trace}  "
          f"nproc {os.cpu_count()}  python {platform.python_version()}")
    for name, (value, unit) in {**metrics, **extra}.items():
        shown = f"{value:.6g}" if isinstance(value, (int, float)) else value or "n/a"
        print(f"{name:44s} {shown} {unit}")
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
