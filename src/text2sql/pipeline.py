"""Batch stages: schema linking, SQL generation, and evaluation.

Each stage writes one JSON artifact per question (atomically, via rename) and
skips questions whose artifact already exists, so interrupted live runs resume
cheaply. Work items run on a pool bounded by max_inflight_requests.

EX is scored where the winner's result table already is: after a question's
vote, the generate stage runs the gold query once, compares it with the
winning cluster's table, and records ``gold_sql`` and ``outcome`` in the vote
trace. The eval stage takes that outcome when the trace's SQL and gold query
are the ones it is asked to score, and executes both queries otherwise (an
edited or external predictions file, a changed gold query, a trace written
before outcomes were recorded).
"""

from __future__ import annotations

import json
import logging
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

from .catalog import DatabaseSchema, FkRelation, LinkedSchema, Question
from .config import PipelineConfig, api_key_from_env
from .errors import ConfigurationError, SpiderFormatError, Text2SqlError
from .evaluation import (
    OUTCOMES,
    EvalRecord,
    EvalReport,
    build_report,
    execution_accuracy,
    extract_gold_schema_items,
    recall_auc,
    render_report,
    score_table,
)
from .gateway import CacheStore, LiveGateway, RecordingGateway, ReplayGateway, atomic_write_text
from .linking import RecallScores, link_schema
from .voting import VoteResult, generate_sql

log = logging.getLogger(__name__)


@dataclass
class StageSummary:
    name: str
    processed: int = 0
    skipped: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def make_gateway(config: PipelineConfig, api_key: str | None = None):
    """Build the gateway for the configured backend.

    The replay backend never touches the network; live/record require an API
    key up front so misconfiguration fails before any work is scheduled.
    """
    cache = CacheStore(config.cache_dir)
    if config.backend == "replay":
        return ReplayGateway(cache)
    key = api_key if api_key is not None else api_key_from_env()
    if not key:
        raise ConfigurationError(
            f"backend {config.backend!r} needs an API key (set TEXT2SQL_API_KEY)"
        )
    live = LiveGateway(
        config.api_base,
        key,
        max_attempts=config.retry_attempts,
        max_inflight=config.max_inflight_requests,
    )
    if config.backend == "record":
        return RecordingGateway(live, cache)
    return live


def _dump_json(path: Path, payload) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def linked_schema_to_json(linked: LinkedSchema) -> dict:
    return {
        "db_id": linked.db_id,
        "tables": [[name, list(cols)] for name, cols in linked.tables],
        "foreign_keys": [
            [fk.from_table, fk.from_column, fk.to_table, fk.to_column]
            for fk in linked.foreign_keys
        ],
    }


def linked_schema_from_json(payload: dict) -> LinkedSchema:
    return LinkedSchema(
        db_id=payload["db_id"],
        tables=tuple((name, tuple(cols)) for name, cols in payload["tables"]),
        foreign_keys=tuple(FkRelation(*item) for item in payload["foreign_keys"]),
    )


def scores_to_json(scores: RecallScores) -> dict:
    columns: dict[str, dict[str, float]] = {}
    for (table, column), value in scores.column_scores.items():
        columns.setdefault(table, {})[column] = value
    return {"tables": dict(scores.table_scores), "columns": columns}


def scores_from_json(payload: dict) -> RecallScores:
    column_scores = {
        (table, column): value
        for table, per_table in payload["columns"].items()
        for column, value in per_table.items()
    }
    return RecallScores(table_scores=dict(payload["tables"]), column_scores=column_scores)


_SKIPPED = "skipped"
_PROCESSED = "processed"


def _pool_map(config: PipelineConfig, fn, items) -> list:
    """Apply fn to every item on a pool of max_inflight_requests threads;
    results come back in input order."""
    with ThreadPoolExecutor(max_workers=config.max_inflight_requests) as pool:
        return list(pool.map(fn, items))


def _run_stage(
    name: str,
    catalog: dict[str, DatabaseSchema],
    questions: list[Question],
    config: PipelineConfig,
    out_dir: Path,
    artifact_path,
    work,
    force: bool,
) -> StageSummary:
    """Write ``work(question, schema)`` as JSON to ``artifact_path(out_dir,
    question)`` for every question, skipping existing artifacts unless forced.

    An exception from one question's work becomes a named failure in the
    summary instead of aborting the batch.
    """

    def process(question: Question):
        path = artifact_path(out_dir, question)
        if path.is_file() and not force:
            return _SKIPPED
        schema = catalog.get(question.db_id)
        if schema is None:
            return (question.question_id, f"unknown db_id {question.db_id}")
        try:
            payload = work(question, schema)
        except Text2SqlError as exc:
            return (question.question_id, str(exc))
        except Exception as exc:
            log.debug("%s stage failed on question %s", name, question.question_id, exc_info=True)
            return (question.question_id, f"{type(exc).__name__}: {exc}")
        _dump_json(path, payload)
        return _PROCESSED

    summary = StageSummary(name)
    for status in _pool_map(config, process, questions):
        if status == _PROCESSED:
            summary.processed += 1
        elif status == _SKIPPED:
            summary.skipped += 1
        else:
            summary.failures.append(status)
    return summary


def link_artifact_path(out_dir: Path, question: Question) -> Path:
    return out_dir / "link" / f"{question.question_id}.json"


def read_link_artifact(
    out_dir: Path, question: Question
) -> tuple[LinkedSchema, RecallScores] | None:
    """The linked schema and recall scores stored for a question, if any."""
    path = link_artifact_path(out_dir, question)
    if not path.is_file():
        return None
    payload = json.loads(path.read_text(encoding="utf-8"))
    return linked_schema_from_json(payload["linked"]), scores_from_json(payload["scores"])


def run_link_stage(
    catalog: dict[str, DatabaseSchema],
    questions: list[Question],
    gateway,
    config: PipelineConfig,
    out_dir: Path,
    force: bool = False,
) -> StageSummary:
    """Write one linking artifact (linked schema + recall scores) per question."""

    def work(question: Question, schema: DatabaseSchema) -> dict:
        linked, scores = link_schema(schema, question, gateway, config.linking_config())
        return {
            "question_id": question.question_id,
            "linked": linked_schema_to_json(linked),
            "scores": scores_to_json(scores),
        }

    return _run_stage("link", catalog, questions, config, out_dir, link_artifact_path, work, force)


def vote_trace_path(out_dir: Path, question: Question) -> Path:
    return out_dir / "votes" / f"{question.question_id}.json"


def _vote_trace(question: Question, vote: VoteResult) -> dict:
    return {
        "question_id": question.question_id,
        "sql": vote.winner.text,
        "fallback_used": vote.fallback_used,
        "clusters": [
            {"size": cluster.size, "members": sorted(c.sample_index for c in cluster.members)}
            for cluster in vote.clusters
        ],
        "discarded": [[index, reason] for index, reason in sorted(vote.discarded)],
    }


def run_generate_stage(
    catalog: dict[str, DatabaseSchema],
    questions: list[Question],
    gateway,
    config: PipelineConfig,
    out_dir: Path,
    force: bool = False,
) -> StageSummary:
    """Produce one voted prediction per question plus a vote-trace artifact,
    then assemble predictions.json in dataset order."""

    def work(question: Question, schema: DatabaseSchema) -> dict:
        view = schema
        if config.effective_use_linking:
            linked = read_link_artifact(out_dir, question)
            if linked is None:
                raise Text2SqlError(
                    f"missing linking artifact {link_artifact_path(out_dir, question)}"
                )
            view = linked[0]
        vote = generate_sql(
            question,
            view,
            gateway,
            schema.sqlite_path,
            config.prompt_config(),
            n_samples=config.effective_n_samples,
            temperature=config.temperature,
            model_name=config.model_name,
            max_output_tokens=config.max_generation_tokens,
            exec_timeout=config.exec_timeout,
        )
        trace = _vote_trace(question, vote)
        if question.gold_sql is not None:
            # The winner is the lowest-index member of the first cluster,
            # which is the member whose execution gave the cluster its table.
            winner_table = None if vote.fallback_used else vote.clusters[0].result
            trace["gold_sql"] = question.gold_sql
            trace["outcome"] = score_table(
                winner_table, question.gold_sql, schema.sqlite_path, timeout=config.exec_timeout
            )
        return trace

    summary = _run_stage(
        "generate", catalog, questions, config, out_dir, vote_trace_path, work, force
    )

    predictions = []
    for question in questions:
        path = vote_trace_path(out_dir, question)
        if path.is_file():
            trace = json.loads(path.read_text(encoding="utf-8"))
            predictions.append({"question_id": question.question_id, "sql": trace["sql"]})
    _dump_json(out_dir / "predictions.json", predictions)
    return summary


def recorded_outcome(out_dir: Path, question: Question, predicted_sql: str) -> str | None:
    """The EX outcome the generate stage recorded for this prediction and the
    question's gold query, or None when the vote trace is missing, unreadable,
    older than recorded outcomes, or about other SQL."""
    try:
        trace = json.loads(vote_trace_path(out_dir, question).read_text(encoding="utf-8"))
    except (OSError, ValueError):
        return None
    if (
        not isinstance(trace, dict)
        or trace.get("sql") != predicted_sql
        or trace.get("gold_sql") != question.gold_sql
    ):
        return None
    outcome = trace.get("outcome")
    return outcome if outcome in OUTCOMES else None


def load_predictions(path: Path) -> dict[str, str]:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    return {str(item["question_id"]): item["sql"] for item in payload}


def run_eval_stage(
    catalog: dict[str, DatabaseSchema],
    questions: list[Question],
    predictions: dict[str, str],
    config: PipelineConfig,
    out_dir: Path,
) -> EvalReport:
    """Score predictions against gold SQL and render report.json / report.txt.

    A prediction takes the outcome its vote trace recorded when there is one
    (see ``recorded_outcome``); the rest execute both queries. Questions
    without a prediction are scored as mismatches; recall AUC is joined in
    when linking artifacts are present.
    """
    records = []
    settled: list[EvalRecord] = []
    for question in questions:
        if question.gold_sql is None:
            raise SpiderFormatError(
                f"question {question.question_id} has no gold SQL; cannot evaluate"
            )
        schema = catalog.get(question.db_id)
        if schema is None:
            raise SpiderFormatError(f"question {question.question_id}: unknown db {question.db_id}")
        predicted = predictions.get(question.question_id)
        if predicted is None:
            log.warning("no prediction for question %s; scoring as mismatch", question.question_id)
            predicted, outcome = "", "mismatch"
        else:
            outcome = recorded_outcome(out_dir, question, predicted)
        if outcome is not None:
            settled.append(
                EvalRecord(
                    question.question_id, predicted, question.gold_sql, outcome, question.difficulty
                )
            )
            continue
        records.append(
            (
                question.question_id,
                predicted,
                question.gold_sql,
                schema.sqlite_path,
                question.difficulty,
            )
        )

    def score(record):
        return execution_accuracy([record], timeout=config.exec_timeout)[0]

    eval_records = _pool_map(config, score, records) + settled

    per_question = []
    for question in questions:
        linked = read_link_artifact(out_dir, question)
        if linked is None:
            continue
        schema = catalog[question.db_id]
        gold_tables, gold_columns = extract_gold_schema_items(question.gold_sql, schema)
        per_question.append((linked[1], gold_tables, gold_columns))
    table_auc, column_auc = recall_auc(per_question) if per_question else (None, None)

    report = build_report(eval_records, table_auc=table_auc, column_auc=column_auc)
    atomic_write_text(out_dir / "report.json", render_report(report, "json").decode("utf-8"))
    atomic_write_text(out_dir / "report.txt", render_report(report, "text").decode("utf-8"))
    return report
