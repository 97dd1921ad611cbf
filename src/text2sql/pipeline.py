"""Batch stages: schema linking, SQL generation, and evaluation.

Each stage writes one JSON artifact per question (atomically, via rename) and
skips questions whose artifact already exists, so interrupted live runs resume
cheaply. A question holds one of max_inflight_requests work slots while it
works, and hands it back while its model call is out, so another question can
vote while it waits. The live and record backends run twice that many workers,
one set waiting on POSTs (which ``LiveGateway`` bounds by the same number) and
one voting; replay runs one worker per slot, as its calls wait on nothing.

EX is scored where the result tables already are: the vote hands back the
gold query's outcome with its clusters (the gold text is usually one of the
candidates it executed; otherwise it runs once more on the vote's connection),
so the generate stage executes nothing after the vote. It compares that
outcome with the winning cluster's table and records ``gold_sql`` and
``outcome`` in the vote trace. The eval stage takes that outcome when the
trace's SQL and gold query are the ones it is asked to score, and executes
both queries otherwise (an edited or external predictions file, a changed gold
query, a trace written before outcomes were recorded).
"""

from __future__ import annotations

import json
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass, field
from pathlib import Path

from .catalog import DatabaseSchema, FkRelation, LinkedSchema, Question, SchemaView, read_json_file
from .config import PipelineConfig, api_key_from_env
from .errors import ConfigurationError, SpiderFormatError, Text2SqlError
from .evaluation import (
    OUTCOMES,
    EvalRecord,
    EvalReport,
    build_report,
    execution_accuracy,
    gold_schema_items,
    recall_auc,
    render_report,
    score_outcome,
)
from .executor import ReadOnlyConnection
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


def _link_artifact(question: Question, linked: LinkedSchema, scores: RecallScores) -> dict:
    columns: dict[str, dict[str, float]] = {}
    for (table, column), value in scores.column_scores.items():
        columns.setdefault(table, {})[column] = value
    fks = [[fk.from_table, fk.from_column, fk.to_table, fk.to_column] for fk in linked.foreign_keys]
    return {
        "question_id": question.question_id,
        "linked": {
            "db_id": linked.db_id,
            "tables": [[name, list(cols)] for name, cols in linked.tables],
            "foreign_keys": fks,
        },
        "scores": {"tables": dict(scores.table_scores), "columns": columns},
    }


def _link_from_artifact(payload: dict) -> tuple[LinkedSchema, RecallScores]:
    linked, scores = payload["linked"], payload["scores"]
    column_scores = {
        (table, column): value
        for table, per_table in scores["columns"].items()
        for column, value in per_table.items()
    }
    return (
        LinkedSchema(
            db_id=linked["db_id"],
            tables=tuple((name, tuple(cols)) for name, cols in linked["tables"]),
            foreign_keys=tuple(FkRelation(*item) for item in linked["foreign_keys"]),
        ),
        RecallScores(table_scores=dict(scores["tables"]), column_scores=column_scores),
    )


_SKIPPED = "skipped"
_PROCESSED = "processed"


def _pool_map(workers: int, fn, items) -> list:
    """Apply fn to every item on a pool of ``workers`` threads; results come
    back in input order."""
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


class _SlotReleasingGateway:
    """The stage's gateway as a question sees it: the question's work slot is
    given back while a completion is out and taken again before it goes on."""

    def __init__(self, gateway, slots: threading.BoundedSemaphore):
        self._gateway = gateway
        self._slots = slots

    def complete(self, exchange):
        self._slots.release()
        try:
            return self._gateway.complete(exchange)
        finally:
            self._slots.acquire()


def _run_stage(
    name: str,
    catalog: dict[str, DatabaseSchema],
    questions: list[Question],
    gateway,
    config: PipelineConfig,
    out_dir: Path,
    artifact_path,
    work,
    force: bool,
) -> StageSummary:
    """Write ``work(question, schema, gateway)`` as JSON to
    ``artifact_path(out_dir, question)`` for every question, skipping existing
    artifacts unless forced.

    A question works while it holds one of ``max_inflight_requests`` slots, so
    at most that many run SQLite at once; the gateway ``work`` receives frees
    the slot for the length of each completion. An exception from one
    question's work becomes a named failure in the summary instead of aborting
    the batch.
    """
    slots = threading.BoundedSemaphore(config.max_inflight_requests)
    slot_gateway = _SlotReleasingGateway(gateway, slots)
    # While a question waits on its POST another can hold its slot, so the
    # network backends need a worker for each. A replay completion is a cache
    # read that waits on nothing; extra workers would only contend for the GIL.
    workers = config.max_inflight_requests * (1 if config.backend == "replay" else 2)

    def process(question: Question):
        path = artifact_path(out_dir, question)
        if path.is_file() and not force:
            return _SKIPPED
        schema = catalog.get(question.db_id)
        if schema is None:
            return (question.question_id, f"unknown db_id {question.db_id}")
        with slots:
            try:
                payload = work(question, schema, slot_gateway)
            except Text2SqlError as exc:
                return (question.question_id, str(exc))
            except Exception as exc:
                log.debug(
                    "%s stage failed on question %s", name, question.question_id, exc_info=True
                )
                return (question.question_id, f"{type(exc).__name__}: {exc}")
            _dump_json(path, payload)
        return _PROCESSED

    summary = StageSummary(name)
    for status in _pool_map(workers, process, questions):
        if status == _PROCESSED:
            summary.processed += 1
        elif status == _SKIPPED:
            summary.skipped += 1
        else:
            summary.failures.append(status)
    return summary


def link_artifact_path(out_dir: Path, question: Question) -> Path:
    return out_dir / "link" / f"{question.question_id}.json"


def _read_artifact(path: Path, parse):
    """``parse`` applied to the JSON artifact at ``path``, or None when there is
    none. An artifact that cannot be read or parsed is a Text2SqlError naming it."""
    if not path.is_file():
        return None
    try:
        return parse(json.loads(path.read_text(encoding="utf-8")))
    except (OSError, ValueError, LookupError, TypeError, AttributeError, SpiderFormatError) as exc:
        raise Text2SqlError(f"unreadable artifact {path}: {type(exc).__name__}: {exc}") from exc


def read_link_artifact(
    out_dir: Path, question: Question
) -> tuple[LinkedSchema, RecallScores] | None:
    """The linked schema and recall scores stored for a question, if any."""
    return _read_artifact(link_artifact_path(out_dir, question), _link_from_artifact)


def run_link_stage(
    catalog: dict[str, DatabaseSchema],
    questions: list[Question],
    gateway,
    config: PipelineConfig,
    out_dir: Path,
    force: bool = False,
) -> StageSummary:
    """Write one linking artifact (linked schema + recall scores) per question."""

    def work(question: Question, schema: DatabaseSchema, gateway) -> dict:
        linked, scores = link_schema(schema, question, gateway, config.linking_config())
        return _link_artifact(question, linked, scores)

    return _run_stage(
        "link", catalog, questions, gateway, config, out_dir, link_artifact_path, work, force
    )


def generation_view(
    config: PipelineConfig, out_dir: Path, question: Question, schema: DatabaseSchema
) -> SchemaView:
    """The schema a question's generation prompt shows: its linked schema when
    linking is on, which needs the link artifact, else the full schema."""
    if not config.effective_use_linking:
        return schema
    linked = read_link_artifact(out_dir, question)
    if linked is None:
        raise Text2SqlError(f"missing linking artifact {link_artifact_path(out_dir, question)}")
    return linked[0]


def vote_trace_path(out_dir: Path, question: Question) -> Path:
    return out_dir / "votes" / f"{question.question_id}.json"


def _trace_with_sql(trace: dict) -> dict:
    if not isinstance(trace["sql"], str):
        raise TypeError(f"sql is a {type(trace['sql']).__name__}, not a string")
    return trace


def read_vote_trace(out_dir: Path, question: Question) -> dict | None:
    """The vote trace stored for a question, if any; its ``sql`` is a string."""
    return _read_artifact(vote_trace_path(out_dir, question), _trace_with_sql)


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
    then assemble predictions.json in dataset order. An existing trace that
    cannot be read is that question's failure and has no prediction."""

    def work(question: Question, schema: DatabaseSchema, gateway) -> dict:
        view = generation_view(config, out_dir, question, schema)
        vote = generate_sql(question, view, gateway, schema.sqlite_path, config)
        trace = _vote_trace(question, vote)
        if question.gold_sql is not None:
            # The winner is the lowest-index member of the first cluster,
            # which is the member whose execution gave the cluster its table.
            winner_table = None if vote.fallback_used else vote.clusters[0].result
            trace["gold_sql"] = question.gold_sql
            trace["outcome"] = score_outcome(vote.reference_outcome, winner_table)
        return trace

    summary = _run_stage(
        "generate", catalog, questions, gateway, config, out_dir, vote_trace_path, work, force
    )

    predictions = []
    for question in questions:
        try:
            trace = read_vote_trace(out_dir, question)
        except Text2SqlError as exc:
            summary.failures.append((question.question_id, str(exc)))
            continue
        if trace is not None:
            predictions.append({"question_id": question.question_id, "sql": trace["sql"]})
    _dump_json(out_dir / "predictions.json", predictions)
    return summary


def recorded_outcome(out_dir: Path, question: Question, predicted_sql: str) -> str | None:
    """The EX outcome the generate stage recorded for this prediction and the
    question's gold query, or None when the vote trace is missing, unreadable,
    older than recorded outcomes, or about other SQL."""
    try:
        trace = read_vote_trace(out_dir, question)
    except Text2SqlError:
        return None
    if trace is None or trace["sql"] != predicted_sql or trace.get("gold_sql") != question.gold_sql:
        return None
    outcome = trace.get("outcome")
    return outcome if outcome in OUTCOMES else None


def load_predictions(path: Path) -> dict[str, str]:
    """question_id -> SQL from a JSON array of ``{"question_id", "sql"}``
    objects; any other shape is a SpiderFormatError naming the file and entry."""
    payload = read_json_file(Path(path))
    if not isinstance(payload, list):
        raise SpiderFormatError(f"{path}: expected a JSON array of predictions")
    predictions = {}
    for idx, item in enumerate(payload):
        sql = item.get("sql") if isinstance(item, dict) else None
        if not isinstance(sql, str) or "question_id" not in item:
            raise SpiderFormatError(f"{path}: entry {idx} needs a question_id and a string sql")
        predictions[str(item["question_id"])] = sql
    return predictions


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
    without a prediction are scored as mismatches. Recall AUC pools the
    questions with a linking artifact and a gold query SQLite can prepare.
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

    eval_records = _pool_map(config.max_inflight_requests, score, records) + settled

    per_question = []
    with ExitStack() as stack:
        # Opened at a database's first gold query, if any.
        connections = {
            db_id: stack.enter_context(ReadOnlyConnection(schema.sqlite_path))
            for db_id, schema in catalog.items()
        }
        for question in questions:
            linked = read_link_artifact(out_dir, question)
            if linked is None:
                continue
            gold_items = gold_schema_items(question.gold_sql, connections[question.db_id])
            if gold_items is not None:
                per_question.append((linked[1], *gold_items))
    table_auc, column_auc = recall_auc(per_question) if per_question else (None, None)

    report = build_report(eval_records, table_auc=table_auc, column_auc=column_auc)
    atomic_write_text(out_dir / "report.json", render_report(report, "json").decode("utf-8"))
    atomic_write_text(out_dir / "report.txt", render_report(report, "text").decode("utf-8"))
    return report
