"""Batch stages: schema linking, SQL generation, and evaluation.

The link and generate stages journal one JSON line per question in
``link.jsonl`` and ``votes.jsonl`` (see ``Journal``) and skip the questions
already journaled, so interrupted live runs resume cheaply.

max_inflight_requests bounds the POSTs in flight (``LiveGateway`` posts on
that many threads), replay's worker processes and eval's re-scoring threads.
The live and record backends run twice that many threads, so questions vote
while others wait on their POSTs; at most twice that many run SQLite at once. A replayed
call waits on nothing, so replay's work is Python that threads cannot overlap.
Each stage runs worker processes instead, no more than max_inflight_requests
or the CPUs it may use: its own, and one forked child per other worker (none
with one worker or no ``os.fork``). It reads their answers in question order,
and works ahead on its own shard while the next answer is a child's and not
there yet. Threads and workers alike only hand back each question's answer;
the thread that runs the stage appends them to the journal, so it is the only
journal writer. A forked child that dies fails only the questions it had not
answered; a hard crash of the stage's process (an OOM kill, a segfault) ends
the run, as it does at one worker and on threads. A stage that finishes seals
its journal in dataset order, so a finished journal is the same bytes under
every backend, at any worker count and after any resume; while a live or
record stage runs, its lines are in the order the questions finished.

EX is scored where the result tables already are: the vote hands back the
gold query's outcome with its clusters (the gold text is usually one of the
candidates it executed; otherwise it runs once more on the vote's connection),
so the generate stage executes nothing after the vote. It compares that
outcome with the winning cluster's table and records ``gold_sql`` and
``outcome`` in the vote trace. The eval stage takes that outcome when the
trace's SQL and gold query are the ones it is asked to score, and executes
both queries otherwise (an edited or external predictions file, a changed gold
query, an unreadable journal).
"""

from __future__ import annotations

import json
import logging
import os
import threading
from collections.abc import Callable
from concurrent.futures import ThreadPoolExecutor, as_completed
from contextlib import ExitStack, closing, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import TypeVar

from .catalog import DatabaseSchema, FkRelation, Question, question_id_text, read_json_file
from .config import PipelineConfig, api_key_from_env
from .errors import ConfigurationError, SpiderFormatError, Text2SqlError
from .evaluation import (
    OUTCOME_MISMATCH,
    OUTCOMES,
    EvalRecord,
    EvalReport,
    build_report,
    execution_accuracy,
    gold_schema_items,
    recall_auc,
    report_json,
    report_text,
    score_outcome,
)
from .executor import readonly
from .gateway import CacheStore, LiveGateway, RecordingGateway, ReplayGateway, atomic_write_text
from .linking import RecallScores, link_schema
from .voting import VoteResult, generate_sql

T = TypeVar("T")

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


def make_gateway(config: PipelineConfig):
    """Build the gateway for the configured backend.

    The replay backend never touches the network; live/record require an API
    key up front (``LiveGateway`` checks it) so misconfiguration fails before
    any work is scheduled.
    """
    cache = CacheStore(config.cache_dir)
    if config.backend == "replay":
        return ReplayGateway(cache)
    live = LiveGateway(
        config.api_base,
        api_key_from_env(),
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
    cuts off. ``seal`` puts the lines in question order once a stage is done;
    a journal that was never sealed is just as valid."""

    def __init__(self, path: Path, fresh: bool = False):
        self.path = path
        self.entries: dict[str, dict] = {}
        self._order: list[str] = []  # the question_id of each complete line, in file order
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
            self._order.append(payload["question_id"])

    @contextmanager
    def appending(self):
        """Hold the file open for ``append``, cut back to its complete lines."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "ab") as self._file:
            self._file.truncate(self._end)
            yield

    def append(self, payload: dict) -> None:
        line = _journal_line(payload).encode("utf-8")
        with self._lock:
            self._file.write(line)
            self._file.flush()
            self._end += len(line)
            self.entries[payload["question_id"]] = payload
            self._order.append(payload["question_id"])

    def seal(self, question_ids: list[str]) -> None:
        """Leave one line per question: those of ``question_ids`` first, in
        that order, then the others in file order. A file that is already so
        is not rewritten; any other is replaced whole from ``entries``."""
        listed = [qid for qid in question_ids if qid in self.entries]
        order = list(dict.fromkeys([*listed, *self.entries]))
        if order == self._order:
            return
        text = "".join(_journal_line(self.entries[qid]) for qid in order)
        atomic_write_text(self.path, text)
        self._order = order
        self._end = len(text.encode("utf-8"))


def _journal_line(payload: dict) -> str:
    return json.dumps(payload, separators=(",", ":")) + "\n"


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


def _strings(value) -> tuple[str, ...]:
    if not isinstance(value, list) or not all(isinstance(item, str) for item in value):
        raise TypeError(f"{value!r} is not an array of strings")
    return tuple(value)


def _score(value) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 <= value <= 1:
        raise ValueError(f"{value!r} is not a score from 0 to 1")
    return value


def _read_link(links: Journal, question: Question, read: Callable[[dict], T]) -> T | None:
    """``read`` applied to the line journaled for a question (``_linked_schema``
    or ``_recall_scores``), or None when there is no line. A line ``read``
    cannot take is a Text2SqlError naming the journal and the question."""
    payload = links.entries.get(question.question_id)
    if payload is None:
        return None
    try:
        return read(payload)
    except (LookupError, TypeError, ValueError, AttributeError, SpiderFormatError) as exc:
        raise Text2SqlError(
            f"unreadable artifact in {links.path} for question {question.question_id}: "
            f"{type(exc).__name__}: {exc}"
        ) from exc


def _linked_schema(payload: dict) -> DatabaseSchema:
    """A link line's linked schema; names must be strings, columns an array."""
    linked = payload["linked"]
    return DatabaseSchema(
        db_id=linked["db_id"],
        tables=tuple((name, _strings(cols)) for name, cols in linked["tables"]),
        foreign_keys=tuple(FkRelation(*_strings(item)) for item in linked["foreign_keys"]),
    )


def _recall_scores(payload: dict) -> RecallScores:
    """A link line's recall scores; each must be a number from 0 to 1."""
    scores = payload["scores"]
    return RecallScores(
        table_scores={name: _score(value) for name, value in scores["tables"].items()},
        column_scores={
            _strings([table, column]): _score(value) for table, column, value in scores["columns"]
        },
    )


def _pool_as_completed(workers: int, fn, items):
    """Apply fn to every item on a pool of ``workers`` threads, yielding
    ``(index of the item, result)`` as each finishes. Items not yet started
    when the caller stops iterating are cancelled."""
    pool = ThreadPoolExecutor(max_workers=workers)
    try:
        futures = {pool.submit(fn, item): index for index, item in enumerate(items)}
        for future in as_completed(futures):
            yield futures[future], future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def usable_cpus() -> int:
    """The CPUs this process may run on, which bound replay's workers."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _forked_answers(workers: int, todo: list[Question], answer):
    """Yield ``(index into todo, answer(question))`` for every question in
    ``todo``, in question order, worked on ``workers`` processes: the one
    running the stage and ``workers - 1`` forked children.

    The stage's process takes questions ``0``, ``workers``, ``2 * workers``,
    ...; child ``k`` takes ``k``, ``k + workers``, ... and sends each answer
    down its own pipe, so answer ``i`` is the next on child ``i % workers``'s
    pipe. While that pipe has nothing yet, the stage's process works ahead on
    its own questions and holds their answers until their turn. Each question
    a child left when it exited reads as ``worker exited with code N``; the
    stage's own questions have no such isolation, so a hard crash there (an
    OOM kill, a segfault) ends the run. One worker forks nothing. Every child
    is joined before the generator finishes or is closed, and terminated
    first if it is still running.
    """
    children = {}  # k -> (receiving end, process) of child k
    held = {}  # index -> an answer the stage's process worked out ahead of its turn
    ahead = 0  # the stage's process's next question

    def work_ahead() -> None:
        nonlocal ahead
        held[ahead] = answer(todo[ahead])
        ahead += workers

    try:
        if workers > 1:
            # Imported here: importing multiprocessing takes a tenth of the set-up time.
            import multiprocessing

            context = multiprocessing.get_context("fork")

            def serve(sender, shard: range) -> None:
                for index in shard:
                    sender.send(answer(todo[index]))

            for first in range(1, workers):
                shard = range(first, len(todo), workers)
                try:
                    receiver, sender = context.Pipe(duplex=False)
                    with sender:  # the parent's copy closes, so the child's exit reads as EOF
                        process = context.Process(target=serve, args=(sender, shard))
                        process.start()
                except OSError as exc:
                    raise Text2SqlError(f"cannot start a worker process: {exc}") from exc
                children[first] = (receiver, process)
        for index in range(len(todo)):
            if index % workers:
                receiver, process = children[index % workers]
                while ahead < len(todo) and not receiver.poll():
                    work_ahead()
                try:
                    result = receiver.recv()
                except EOFError:
                    process.join()
                    result = f"worker exited with code {process.exitcode}"
            else:
                if index == ahead:
                    work_ahead()
                result = held.pop(index)
            yield index, result
    finally:
        for _, process in children.values():
            if process.is_alive():
                process.terminate()
        for receiver, process in children.values():
            process.join()
            receiver.close()


def _run_stage(
    name: str,
    catalog: dict[str, DatabaseSchema],
    questions: list[Question],
    config: PipelineConfig,
    journal_path: Path,
    work,
    force: bool,
) -> tuple[StageSummary, Journal]:
    """Append ``work(question, schema)`` to the journal at ``journal_path``
    for every question it has no line for, which is every question when
    forced; the summary, and the journal with every payload. An exception
    from one question's work becomes a named failure in the summary instead
    of aborting the batch; failures are in question order. A
    ``ConfigurationError``, such as rejected credentials, would fail every
    question alike, so it ends the stage instead.

    ``max_inflight_requests`` bounds the POSTs in flight (``LiveGateway``
    posts on that many threads), replay's workers and eval's re-scoring
    threads. Live and record answer on twice that many threads
    (``_pool_as_completed``) and journal answers as they finish: while up to
    half of them wait on a POST, the rest vote. Replay journals them in
    question order (``_forked_answers``) from as many workers as the smallest of
    ``max_inflight_requests``, the usable CPUs (``usable_cpus``) and the
    questions, and from one where the platform cannot fork. The stage's
    process is one of the workers and forks a child for each other one,
    starting no thread first. The answers arrive on the thread that called the
    stage, which appends each payload: this is the only place that writes a
    journal line. Leaving the loop, by an exception too, closes the answers,
    which stops the children at once. Once every answer is in, the journal is
    sealed in question order (``Journal.seal``); a stage cut short leaves it
    unsealed, and resuming it reads it the same.
    """
    journal = Journal(journal_path, fresh=force)
    todo = [question for question in questions if question.question_id not in journal.entries]

    def answer(question: Question) -> dict | str:
        """The question's payload, or the message naming its failure."""
        schema = catalog.get(question.db_id)
        if schema is None:
            return f"unknown db_id {question.db_id}"
        try:
            return work(question, schema)
        except ConfigurationError:
            raise
        except Text2SqlError as exc:
            return str(exc)
        except Exception as exc:
            log.debug(
                "%s stage failed on question %s", name, question.question_id, exc_info=True
            )
            return f"{type(exc).__name__}: {exc}"

    if config.backend != "replay":
        answers = _pool_as_completed(2 * config.max_inflight_requests, answer, todo)
    else:
        cpus = usable_cpus() if hasattr(os, "fork") else 1
        workers = min(config.max_inflight_requests, cpus, len(todo))
        answers = _forked_answers(max(workers, 1), todo, answer)
    failed: dict[int, str] = {}
    try:
        with journal.appending(), closing(answers):
            for index, result in answers:
                if isinstance(result, str):
                    failed[index] = result
                else:
                    journal.append(result)
        journal.seal([question.question_id for question in questions])
    except OSError as exc:
        raise Text2SqlError(f"cannot write {journal_path}: {exc}") from exc
    failures = [(todo[index].question_id, failed[index]) for index in sorted(failed)]
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

    def work(question: Question, schema: DatabaseSchema) -> dict:
        linked, scores = link_schema(schema, question, gateway, config)
        return _link_artifact(question, linked, scores)

    return _run_stage("link", catalog, questions, config, out_dir / LINK_JOURNAL, work, force)[0]


def generation_view(
    links: Journal | None, question: Question, schema: DatabaseSchema
) -> DatabaseSchema:
    """The schema a question's generation prompt shows: its linked schema from
    ``links``, the link journal, or the full schema without one (linking off)."""
    if links is None:
        return schema
    linked = _read_link(links, question, _linked_schema)
    if linked is None:
        raise Text2SqlError(f"{links.path} has no line for question {question.question_id}")
    return linked


def _vote_trace(question: Question, vote: VoteResult) -> dict:
    return {
        "question_id": question.question_id,
        "sql": vote.winner.text,
        "fallback_used": vote.fallback_used,
        "clusters": [
            {"size": cluster.size, "members": [c.sample_index for c in cluster.members]}
            for cluster in vote.clusters
        ],
        "discarded": [[index, reason] for index, reason in vote.discarded],
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

    def work(question: Question, schema: DatabaseSchema) -> dict:
        view = generation_view(links, question, schema)
        vote = generate_sql(question, view, gateway, schema.sqlite_path, config)
        trace = _vote_trace(question, vote)
        if question.gold_sql is not None:
            trace["gold_sql"] = question.gold_sql
            trace["outcome"] = score_outcome(vote.reference_outcome, vote.winner_table)
        return trace

    summary, votes = _run_stage(
        "generate", catalog, questions, config, out_dir / VOTE_JOURNAL, work, force
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
    question's gold query, or None when the vote trace is missing, is about
    other SQL or holds no known outcome."""
    trace = votes.entries.get(question.question_id, {})
    if trace.get("sql") != predicted_sql or trace.get("gold_sql") != question.gold_sql:
        return None
    outcome = trace.get("outcome")
    return outcome if outcome in OUTCOMES else None


def load_predictions(path: Path) -> dict[str, str]:
    """question_id -> SQL from a JSON array of ``{"question_id", "sql"}``
    objects, each question_id a string or an integer; any other shape, or two
    entries with the same question_id (``1`` and ``"1"`` included), is a
    SpiderFormatError naming the file and entries."""
    payload = read_json_file(Path(path))
    if not isinstance(payload, list):
        raise SpiderFormatError(f"{path}: expected a JSON array of predictions")
    predictions = {}
    index_of: dict[str, int] = {}
    for idx, item in enumerate(payload):
        sql = item.get("sql") if isinstance(item, dict) else None
        if not isinstance(sql, str) or "question_id" not in item:
            raise SpiderFormatError(f"{path}: entry {idx} needs a question_id and a string sql")
        question_id = question_id_text(item["question_id"], f"{path}: entry {idx}")
        if question_id in index_of:
            raise SpiderFormatError(
                f"{path}: entries {index_of[question_id]} and {idx} share question_id {question_id!r}"
            )
        index_of[question_id] = idx
        predictions[question_id] = sql
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
    eval_records: list[EvalRecord] = []
    unsettled = []  # execution_accuracy's records: the predictions to execute
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
            outcome = OUTCOME_MISMATCH
        else:
            outcome = recorded_outcome(votes, question, predicted)
        if outcome is not None:
            eval_records.append(EvalRecord(outcome, question.difficulty))
        else:
            db_path = schema.sqlite_path
            unsettled.append(
                (question.question_id, predicted, question.gold_sql, db_path, question.difficulty)
            )

    def score(record):
        return execution_accuracy([record], timeout=config.exec_timeout)[0]

    scored = _pool_as_completed(config.max_inflight_requests, score, unsettled)
    eval_records.extend(record for _, record in scored)

    per_question = []
    with ExitStack() as stack:
        connections = {}  # db_id -> connection, opened at the database's first gold query
        for question in questions:
            scores = _read_link(links, question, _recall_scores)
            if scores is None:
                continue
            connection = connections.get(question.db_id)
            if connection is None:
                path = catalog[question.db_id].sqlite_path
                connection = connections[question.db_id] = stack.enter_context(readonly(path))
            gold_items = gold_schema_items(question.gold_sql, connection)
            if gold_items is not None:
                per_question.append((scores, *gold_items))
    table_auc, column_auc = recall_auc(per_question) if per_question else (None, None)

    report = build_report(eval_records, table_auc=table_auc, column_auc=column_auc)
    _publish(out_dir / "report.json", report_json(report))
    _publish(out_dir / "report.txt", report_text(report))
    return report
