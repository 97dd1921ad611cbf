"""Batch stages: schema linking, SQL generation, and evaluation.

The link and generate stages journal one JSON line per question in
``link.jsonl`` and ``votes.jsonl`` (see ``Journal``) and skip the questions
already journaled, so interrupted live runs resume cheaply. A question holds
one of max_inflight_requests work slots while it works, and hands it back
while its model call is out, so another question can vote while it waits.
The live and record backends run twice that many workers, one set waiting on
POSTs (which ``LiveGateway`` bounds by the same number) and one voting; replay
runs one worker per slot, as its calls wait on nothing.

EX is scored where the result tables already are: the vote hands back the
gold query's outcome with its clusters (the gold text is usually one of the
candidates it executed; otherwise it runs once more on the vote's connection),
so the generate stage executes nothing after the vote. It compares that
outcome with the winning cluster's table and records ``gold_sql`` and
``outcome`` in the vote trace. The eval stage takes that outcome when the
trace's SQL and gold query are the ones it is asked to score, and executes
both queries otherwise (an edited or external predictions file, a changed gold
query, a trace written before outcomes were recorded, an unreadable journal).
"""

from __future__ import annotations

import json
import logging
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from .catalog import DatabaseSchema, FkRelation, Question, read_json_file
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


LINK_JOURNAL = "link.jsonl"
VOTE_JOURNAL = "votes.jsonl"


def _publish(path: Path, text: str) -> None:
    try:
        atomic_write_text(path, text)
    except OSError as exc:
        raise Text2SqlError(f"cannot write {path}: {exc}") from exc


class Journal:
    """A stage's artifacts at ``path`` (empty when there is none, or when
    ``fresh``), one compact JSON object per line. ``entries`` maps each line's
    ``question_id`` to it; the last line for a question wins, and a complete
    line that is not such an object is a Text2SqlError naming it. Each line
    is appended with one write and a flush, so an interrupted run leaves at
    most a torn final line (no newline), which reading ignores and appending
    cuts off."""

    def __init__(self, path: Path, fresh: bool = False):
        self.path = path
        self.entries: dict[str, dict] = {}
        self._lock = threading.Lock()
        try:
            data = b"" if fresh else path.read_bytes()
        except FileNotFoundError:
            data = b""
        except OSError as exc:
            raise Text2SqlError(f"cannot read {path}: {exc}") from exc
        self._end = data.rfind(b"\n") + 1  # bytes up to the end of the last complete line
        for number, line in enumerate(data[: self._end].splitlines(), start=1):
            try:
                payload = json.loads(line)
            except (ValueError, RecursionError):
                payload = None
            if not isinstance(payload, dict) or not isinstance(payload.get("question_id"), str):
                raise Text2SqlError(f"{path} line {number}: not a JSON object with a question_id")
            self.entries[payload["question_id"]] = payload

    @contextmanager
    def appending(self):
        """Hold the file open for ``append``, cut back to its complete lines."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab") as self._file:
            self._file.truncate(self._end)
            yield

    def append(self, payload: dict) -> None:
        line = json.dumps(payload, separators=(",", ":")).encode("utf-8") + b"\n"
        with self._lock:
            self._file.write(line)
            self._file.flush()
            self._end += len(line)
            self.entries[payload["question_id"]] = payload


def _link_artifact(question: Question, linked: DatabaseSchema, scores: RecallScores) -> dict:
    columns = [[table, column, value] for (table, column), value in scores.column_scores.items()]
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


def _read_link(links: Journal, question: Question) -> tuple[DatabaseSchema, RecallScores] | None:
    """The linked schema and recall scores journaled for a question, if any."""
    payload = links.entries.get(question.question_id)
    if payload is None:
        return None
    try:
        linked, scores = payload["linked"], payload["scores"]
        column_scores = {(table, column): value for table, column, value in scores["columns"]}
        return (
            DatabaseSchema(
                db_id=linked["db_id"],
                tables=tuple((name, tuple(cols)) for name, cols in linked["tables"]),
                foreign_keys=tuple(FkRelation(*item) for item in linked["foreign_keys"]),
            ),
            RecallScores(table_scores=dict(scores["tables"]), column_scores=column_scores),
        )
    except (LookupError, TypeError, ValueError, AttributeError, SpiderFormatError) as exc:
        raise Text2SqlError(
            f"unreadable artifact in {links.path} for question {question.question_id}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc


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
    journal_path: Path,
    work,
    force: bool,
) -> tuple[StageSummary, Journal]:
    """Append ``work(question, schema, gateway)`` to the journal at
    ``journal_path`` for every question it has no line for, which is every
    question when forced; the summary, and the journal with every payload.

    A question works while it holds one of ``max_inflight_requests`` slots, so
    at most that many run SQLite at once; the gateway ``work`` receives frees
    the slot for the length of each completion. An exception from one
    question's work becomes a named failure in the summary instead of aborting
    the batch.
    """
    journal = Journal(journal_path, fresh=force)
    todo = [question for question in questions if question.question_id not in journal.entries]
    slots = threading.BoundedSemaphore(config.max_inflight_requests)
    slot_gateway = _SlotReleasingGateway(gateway, slots)
    # While a question waits on its POST another can hold its slot, so the
    # network backends need a worker for each. A replay completion is a cache
    # read that waits on nothing; extra workers would only contend for the GIL.
    workers = config.max_inflight_requests * (1 if config.backend == "replay" else 2)

    def process(question: Question):
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
            journal.append(payload)
        return None

    try:
        with journal.appending():
            failures = [failure for failure in _pool_map(workers, process, todo) if failure]
    except OSError as exc:
        raise Text2SqlError(f"cannot write {journal_path}: {exc}") from exc
    skipped = len(questions) - len(todo)
    return StageSummary(name, len(todo) - len(failures), skipped, failures), journal


def run_link_stage(
    catalog: dict[str, DatabaseSchema],
    questions: list[Question],
    gateway,
    config: PipelineConfig,
    out_dir: Path,
    force: bool = False,
) -> StageSummary:
    """Journal each question's linked schema and recall scores in link.jsonl."""

    def work(question: Question, schema: DatabaseSchema, gateway) -> dict:
        linked, scores = link_schema(schema, question, gateway, config.linking_config())
        return _link_artifact(question, linked, scores)

    return _run_stage(
        "link", catalog, questions, gateway, config, out_dir / LINK_JOURNAL, work, force
    )[0]


def generation_view(
    config: PipelineConfig, links: Journal | None, question: Question, schema: DatabaseSchema
) -> DatabaseSchema:
    """The schema a question's generation prompt shows: its linked schema from
    ``links``, the link journal, when linking is on, else the full schema."""
    if not config.effective_use_linking:
        return schema
    linked = _read_link(links, question)
    if linked is None:
        raise Text2SqlError(f"{links.path} has no line for question {question.question_id}")
    return linked[0]


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
    """Journal each question's vote trace in votes.jsonl, then write its
    prediction to predictions.json in dataset order. A journaled trace whose
    sql is not a string is that question's failure and has no prediction."""
    links = Journal(out_dir / LINK_JOURNAL) if config.effective_use_linking else None

    def work(question: Question, schema: DatabaseSchema, gateway) -> dict:
        view = generation_view(config, links, question, schema)
        vote = generate_sql(question, view, gateway, schema.sqlite_path, config)
        trace = _vote_trace(question, vote)
        if question.gold_sql is not None:
            # The winner is the lowest-index member of the first cluster,
            # which is the member whose execution gave the cluster its table.
            winner_table = None if vote.fallback_used else vote.clusters[0].result
            trace["gold_sql"] = question.gold_sql
            trace["outcome"] = score_outcome(vote.reference_outcome, winner_table)
        return trace

    summary, votes = _run_stage(
        "generate", catalog, questions, gateway, config, out_dir / VOTE_JOURNAL, work, force
    )

    predictions = []
    for question in questions:
        if question.question_id not in votes.entries:
            continue
        sql = votes.entries[question.question_id].get("sql")
        if isinstance(sql, str):
            predictions.append({"question_id": question.question_id, "sql": sql})
        else:
            message = f"vote trace in {votes.path}: sql is a {type(sql).__name__}, not a string"
            summary.failures.append((question.question_id, message))
    _publish(out_dir / "predictions.json", json.dumps(predictions, indent=2, sort_keys=True) + "\n")
    return summary


def recorded_outcome(votes: Journal, question: Question, predicted_sql: str) -> str | None:
    """The EX outcome the generate stage recorded for this prediction and the
    question's gold query, or None when the vote trace is missing, older than
    recorded outcomes, or about other SQL."""
    trace = votes.entries.get(question.question_id, {})
    if trace.get("sql") != predicted_sql or trace.get("gold_sql") != question.gold_sql:
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
    questions with a line in link.jsonl and a gold query SQLite can prepare.
    """
    links = Journal(out_dir / LINK_JOURNAL)
    try:
        votes = Journal(out_dir / VOTE_JOURNAL)
    except Text2SqlError as exc:
        log.warning("%s; executing every prediction", exc)
        votes = Journal(out_dir / VOTE_JOURNAL, fresh=True)
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
            outcome = recorded_outcome(votes, question, predicted)
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
            linked = _read_link(links, question)
            if linked is None:
                continue
            gold_items = gold_schema_items(question.gold_sql, connections[question.db_id])
            if gold_items is not None:
                per_question.append((linked[1], *gold_items))
    table_auc, column_auc = recall_auc(per_question) if per_question else (None, None)

    report = build_report(eval_records, table_auc=table_auc, column_auc=column_auc)
    _publish(out_dir / "report.json", render_report(report, "json").decode("utf-8"))
    _publish(out_dir / "report.txt", render_report(report, "text").decode("utf-8"))
    return report
