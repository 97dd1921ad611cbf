"""Command-line entry point: link | generate | eval | run | dump-prompt."""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys
from pathlib import Path

from .catalog import build_catalog, load_questions, load_spider_tables
from .config import BACKENDS, LAYOUTS, PipelineConfig, load_config
from .errors import ConfigurationError, Text2SqlError
from .evaluation import report_text
from .pipeline import (
    LINK_JOURNAL,
    Journal,
    StageSummary,
    generation_view,
    load_predictions,
    make_gateway,
    run_eval_stage,
    run_generate_stage,
    run_link_stage,
)
from .voting import generation_request

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2


def _add_dataset_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--tables", required=True, type=Path, help="Spider-format tables.json")
    parser.add_argument("--questions", required=True, type=Path, help="question JSON file")
    parser.add_argument("--out", type=Path, default=Path("artifacts"), help="artifact directory")


def _add_config_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", type=Path, default=None, help="flat key=value config file")
    parser.add_argument("--backend", choices=BACKENDS, default=None)
    parser.add_argument("--cache-dir", type=Path, default=None)
    parser.add_argument("--model", dest="model_name", default=None)
    parser.add_argument("--n-samples", type=int, default=None)
    parser.add_argument("--recall-samples", type=int, default=None)
    parser.add_argument("--temperature", type=float, default=None)
    parser.add_argument("--layout", choices=LAYOUTS, default=None)
    for flag, field in (
        ("--no-calibration", "use_calibration"),
        ("--no-linking", "use_linking"),
        ("--no-self-consistency", "use_self_consistency"),
        ("--no-foreign-keys", "include_foreign_keys"),
    ):
        parser.add_argument(flag, dest=field, action="store_false", default=None)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="text2sql",
        description="Zero-shot text-to-SQL pipeline with execution-consistency voting.",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    commands = parser.add_subparsers(dest="command", required=True)

    for name in ("link", "generate", "eval", "run", "dump-prompt"):
        sub = commands.add_parser(name)
        _add_dataset_args(sub)
        _add_config_args(sub)
        if name in ("link", "generate", "run"):
            sub.add_argument("--force", action="store_true", help="recompute existing artifacts")
        if name == "eval":
            sub.add_argument("--predictions", type=Path, default=None,
                             help="predictions file (defaults to <out>/predictions.json)")
        if name == "dump-prompt":
            sub.add_argument("--question-id", required=True)
    return parser


def config_from_args(args: argparse.Namespace) -> PipelineConfig:
    """Every option whose dest is a config field overrides it unless left at None."""
    fields = {field.name for field in dataclasses.fields(PipelineConfig)}
    overrides = {name: value for name, value in vars(args).items() if name in fields}
    return load_config(config_file=args.config, overrides=overrides)


def _load_dataset(args: argparse.Namespace):
    catalog = build_catalog(load_spider_tables(args.tables))
    questions = load_questions(args.questions)
    for question in questions:
        if question.db_id not in catalog:
            raise ConfigurationError(
                f"question {question.question_id} references unknown db {question.db_id!r}"
            )
    return catalog, questions


def _emit(text: str) -> None:
    """Write ``text`` to stdout now. Once the reader of stdout has left
    (``text2sql run ... | head -1``), stdout points at os.devnull, so the
    command still writes its artifacts and no flush raises again."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _print_summaries(*summaries: StageSummary) -> int:
    """Print each stage's counts and failures; the exit code they amount to."""
    for summary in summaries:
        _emit(
            f"[{summary.name}] processed={summary.processed} "
            f"skipped={summary.skipped} failed={len(summary.failures)}\n"
        )
        for question_id, message in summary.failures:
            print(f"  question {question_id}: {message}", file=sys.stderr)
    return EXIT_OK if all(summary.ok for summary in summaries) else EXIT_PARTIAL


def _run_stages(
    args: argparse.Namespace, config: PipelineConfig, catalog, questions, *stages
) -> int:
    """Run each pipeline stage over the dataset in turn; print their summaries.
    The gateway's POST threads have ended when this returns."""
    gateway = make_gateway(config)
    try:
        summaries = [
            stage(catalog, questions, gateway, config, args.out, force=args.force) for stage in stages
        ]
    finally:
        gateway.close()
    return _print_summaries(*summaries)


def cmd_eval(args: argparse.Namespace, config: PipelineConfig, catalog, questions) -> int:
    # run has no --predictions: it scores the file its generate stage wrote.
    predictions_path = getattr(args, "predictions", None) or args.out / "predictions.json"
    predictions = load_predictions(predictions_path)
    _emit(report_text(run_eval_stage(catalog, questions, predictions, config, args.out)))
    return EXIT_OK


def cmd_run(args: argparse.Namespace, config: PipelineConfig, catalog, questions) -> int:
    linking = (run_link_stage,) if config.effective_use_linking else ()
    exit_code = _run_stages(args, config, catalog, questions, *linking, run_generate_stage)
    cmd_eval(args, config, catalog, questions)
    return exit_code


def cmd_dump_prompt(
    args: argparse.Namespace, config: PipelineConfig, catalog, questions
) -> int:
    question = next((q for q in questions if q.question_id == args.question_id), None)
    if question is None:
        raise ConfigurationError(f"no question with id {args.question_id!r}")
    links = Journal(args.out / LINK_JOURNAL) if config.effective_use_linking else None
    view = generation_view(links, question, catalog[question.db_id])
    for message in generation_request(question, view, config).messages:
        _emit(f"--- {message.role} ---\n{message.content}\n")
    return EXIT_OK


COMMANDS = {
    "link": lambda *loaded: _run_stages(*loaded, run_link_stage),
    "generate": lambda *loaded: _run_stages(*loaded, run_generate_stage),
    "eval": cmd_eval,
    "run": cmd_run,
    "dump-prompt": cmd_dump_prompt,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO)
    try:
        config = config_from_args(args)
        catalog, questions = _load_dataset(args)
        return COMMANDS[args.command](args, config, catalog, questions)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Text2SqlError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARTIAL


if __name__ == "__main__":
    sys.exit(main())
