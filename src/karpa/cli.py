"""Command-line surface: ingest, ask, eval, match, cache.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 provider
error, 5 storage error: a failed write to the embedding cache file, an eval
checkpoint or an output file, which ends an eval run. Text outside an
operation's domain, such as a graph label with no letter or digit to
embed, is a data error. An output path that names a directory or lies in
a missing one, or a checkpoint directory that is a file or lies under one,
is a configuration error, raised before any work.
"""

from __future__ import annotations

import argparse
import json
import logging
import sys
from pathlib import Path

from .config import config_digest, load_config
from .errors import ConfigError, DataError, DomainError, ProviderError, StorageError
from .evaluation import FORMATS, evaluate, load_dataset, render_report, render_summary_tsv, render_trace
from .kg import load_triples_path
from .matching import STRATEGIES, RelationPath, match_candidates, render_match_report
from .pipeline import (
    build_embedding_gateway,
    build_pipeline,
    load_graph,
    make_sample_runner,
    open_embedding_cache,
)
from .planner import Query
from .transport import require_directory, require_output

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_PROVIDER = 4
EXIT_STORAGE = 5

logger = logging.getLogger(__name__)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="karpa", description=__doc__)
    parser.add_argument("--config", help="path to a dotted-key config file (or set KARPA_CONFIG)")
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="load a triple TSV and report its shape")
    ingest.add_argument("tsv", help="triple file: head<TAB>relation<TAB>tail per line")
    ingest.add_argument("--dump", help="write the canonical sorted dump to this path")

    ask = sub.add_parser("ask", help="answer one question against the configured graph")
    ask.add_argument("--question", required=True)
    ask.add_argument("--topic", required=True, action="append",
                     help="topic entity label (repeatable)")
    ask.add_argument("--id", default="q0", help="question id recorded in the trace")
    ask.add_argument("--trace", help="write the run trace (line-JSON) to this path")

    ev = sub.add_parser("eval", help="run the pipeline over a dataset and score it")
    ev.add_argument("--dataset", required=True)
    ev.add_argument("--format", default="simple", choices=FORMATS)
    ev.add_argument("--report", help="write the full report here (default: stdout)")
    ev.add_argument("--tsv", help="write the metric summary TSV here")

    match = sub.add_parser("match", help="run one matcher directly and print its report")
    match.add_argument("--topic", required=True)
    match.add_argument("--path", required=True, help="comma-separated candidate relation labels")
    match.add_argument("--strategy", choices=STRATEGIES,
                       help="override matcher.strategy from the config")

    cache = sub.add_parser("cache", help="inspect or clear the embedding cache")
    cache.add_argument("action", choices=["stats", "clear"])
    return parser


def _write_output(path: Path, text: str) -> None:
    """Write one of a command's output files; a failed write is a ``StorageError`` naming it."""
    try:
        path.write_text(text, encoding="utf-8")
    except OSError as exc:
        raise StorageError(f"cannot write {path}: {exc}") from exc


def _cmd_ingest(args) -> int:
    dump = require_output(args.dump, "--dump")
    g = load_triples_path(args.tsv)
    if dump:
        _write_output(dump, g.dumps())
    print(
        json.dumps(
            {
                "entities": g.num_entities,
                "relations": g.num_relations,
                "triples": len(g),
            },
            sort_keys=True,
        )
    )
    return EXIT_OK


def _cmd_ask(args, cfg) -> int:
    trace = require_output(args.trace, "--trace")
    pipeline = build_pipeline(cfg)
    query = Query(id=args.id, question=args.question, topic_entities=tuple(args.topic))
    result = pipeline.run(query)
    if trace:
        _write_output(trace, render_trace(result.trace))
    print(
        json.dumps(
            {
                "answers": result.answers.answers,
                "ungrounded": sorted(result.answers.ungrounded),
                "flags": result.flags,
                "calls": result.usage_snapshot["calls"],
            },
            ensure_ascii=False,
            sort_keys=True,
        )
    )
    return EXIT_OK


def _cmd_eval(args, cfg) -> int:
    report_path = require_output(args.report, "--report")
    tsv_path = require_output(args.tsv, "--tsv")
    checkpoint_dir = require_directory(cfg.eval.checkpoint_dir, "eval.checkpoint_dir")
    samples = load_dataset(args.dataset, format=args.format)
    pipeline = build_pipeline(cfg)
    report = evaluate(
        samples,
        make_sample_runner(pipeline),
        mode=cfg.eval.mode,
        concurrency=cfg.eval.concurrency,
        checkpoint_dir=checkpoint_dir,
        config_digest=config_digest(cfg),
    )
    text = render_report(report)
    if report_path:
        _write_output(report_path, text)
    else:
        print(text, end="")
    if tsv_path:
        _write_output(tsv_path, render_summary_tsv(report))
    return EXIT_OK


def _cmd_match(args, cfg) -> int:
    if args.strategy:
        cfg.matcher.strategy = args.strategy
    embedder = build_embedding_gateway(cfg)
    g = load_graph(cfg)
    topic_id = g.entity_id(args.topic)
    if topic_id is None:
        raise DataError(f"topic entity not in graph: {args.topic!r}")
    labels = tuple(part.strip() for part in args.path.split(",") if part.strip())
    if not labels:
        raise DataError("--path must list at least one relation label")
    paths = match_candidates(g, topic_id, [RelationPath(labels)], cfg.matcher, embedder)
    print(render_match_report(g, paths), end="")
    return EXIT_OK


def _cmd_cache(args, cfg) -> int:
    if not cfg.embedding.cache_path:
        raise ConfigError("embedding.cache_path is not configured")
    cache = open_embedding_cache(cfg.embedding.cache_path)
    if args.action == "stats":
        print(json.dumps(cache.stats(), sort_keys=True))
    else:
        cache.clear()
        print(json.dumps({"cleared": True}))
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )
    try:
        if args.command == "ingest":
            return _cmd_ingest(args)
        cfg = load_config(args.config)
        if args.command == "ask":
            return _cmd_ask(args, cfg)
        if args.command == "eval":
            return _cmd_eval(args, cfg)
        if args.command == "match":
            return _cmd_match(args, cfg)
        return _cmd_cache(args, cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, DomainError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except ProviderError as exc:
        print(f"provider error: {exc}", file=sys.stderr)
        return EXIT_PROVIDER
    except StorageError as exc:
        print(f"storage error: {exc}", file=sys.stderr)
        return EXIT_STORAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
