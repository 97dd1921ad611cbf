"""Execution accuracy, recall-ranking AUC, and report rendering.

A prediction's EX outcome compares its result table with the gold query's,
under the gold query's order sensitivity. ``score_pair`` executes both
queries; ``score_outcome`` executes nothing and compares outcomes someone
already has, which is how the generate stage scores a vote's winner from the
tables the vote executed, the gold query's included. ``score_pair`` ends in
``score_outcome``, so the two agree on every verdict for deterministic queries.

Recall AUC ranks the linker's scores against the tables and columns the gold
query reads, as SQLite's authorizer names them while it prepares the query.
It is computed by counting: the negatives are sorted once, and each positive
counts the negatives below it and tied with it by bisection.

``report.json`` is ``EvalReport``'s fields, key-sorted; ``report.txt`` is a
fixed-width table of the same numbers.
"""

from __future__ import annotations

import json
import sqlite3
from bisect import bisect_left, bisect_right
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .config import PipelineConfig
from .executor import (
    SQL_FAILURES,
    ExecutionOutcome,
    ResultTable,
    execute_sql,
    readonly,
    results_equivalent,
    with_order_sensitivity,
)
from .linking import RecallScores

OUTCOME_MATCH = "match"
OUTCOME_MISMATCH = "mismatch"
OUTCOME_PRED_ERROR = "pred_error"
OUTCOME_GOLD_ERROR = "gold_error"
OUTCOMES = (OUTCOME_MATCH, OUTCOME_MISMATCH, OUTCOME_PRED_ERROR, OUTCOME_GOLD_ERROR)


@dataclass(frozen=True)
class EvalRecord:
    outcome: str
    difficulty: str | None = None


@dataclass(frozen=True)
class EvalReport:
    total: int
    counts: dict[str, int]
    overall_ex: float | None
    per_difficulty_ex: dict[str, float]
    table_auc: float | None = None
    column_auc: float | None = None


def score_pair(
    predicted_sql: str,
    gold_sql: str,
    db_path: Path | str,
    timeout: float = PipelineConfig.exec_timeout,
) -> str:
    """Outcome of one prediction: both queries run on one read-only
    connection, order sensitivity taken from the gold query. A failing gold
    query flags a dataset/environment problem and still counts against
    accuracy; a missing database file raises."""
    with readonly(db_path) as connection:
        gold = execute_sql(db_path, gold_sql, timeout=timeout, connection=connection)
        if not gold.ok:
            return OUTCOME_GOLD_ERROR
        predicted = execute_sql(db_path, predicted_sql, timeout=timeout, connection=connection)
    return score_outcome(gold, predicted.table)


def score_outcome(gold: ExecutionOutcome, predicted: ResultTable | None) -> str:
    """Outcome of a prediction whose result table is known (None when it
    failed to execute) against the gold query's execution outcome."""
    if not gold.ok:
        return OUTCOME_GOLD_ERROR
    if predicted is None:
        return OUTCOME_PRED_ERROR
    predicted = with_order_sensitivity(predicted, gold.table.order_sensitive)
    return OUTCOME_MATCH if results_equivalent(gold.table, predicted) else OUTCOME_MISMATCH


def execution_accuracy(
    records: Iterable[tuple[str, str, str, Path | str, str | None]],
    timeout: float = PipelineConfig.exec_timeout,
) -> list[EvalRecord]:
    """Score (question_id, predicted, gold, db_path, difficulty) records; the
    question id names a record to the caller and does not change its score."""
    return [
        EvalRecord(score_pair(predicted, gold, db_path, timeout=timeout), difficulty)
        for _, predicted, gold, db_path, difficulty in records
    ]


def build_report(
    records: Sequence[EvalRecord],
    table_auc: float | None = None,
    column_auc: float | None = None,
) -> EvalReport:
    counts = dict.fromkeys(OUTCOMES, 0)
    sizes: Counter[str] = Counter()  # difficulty -> records
    matches: Counter[str] = Counter()  # difficulty -> records that match
    for record in records:
        counts[record.outcome] += 1  # an outcome outside OUTCOMES raises KeyError
        if record.difficulty:
            sizes[record.difficulty] += 1
            matches[record.difficulty] += record.outcome == OUTCOME_MATCH
    total = len(records)
    return EvalReport(
        total=total,
        counts=counts,
        overall_ex=counts[OUTCOME_MATCH] / total if total else None,
        per_difficulty_ex={key: matches[key] / sizes[key] for key in sorted(sizes)},
        table_auc=table_auc,
        column_auc=column_auc,
    )


def gold_schema_items(
    gold_sql: str, connection: sqlite3.Connection
) -> tuple[set[str], set[tuple[str, str]]] | None:
    """The tables and (table, column) pairs the gold query reads, as SQLite
    resolves them while preparing ``EXPLAIN <gold>`` on ``connection``; the
    query itself never runs. A table read for no column (``count(*)``) adds
    the table only. None when SQLite cannot prepare the query."""
    tables: set[str] = set()
    columns: set[tuple[str, str]] = set()

    def record_read(action, table, column, database, trigger):
        if action == sqlite3.SQLITE_READ:
            tables.add(table)
            if column:
                columns.add((table, column))
        return sqlite3.SQLITE_OK

    # A fresh authorizer also expires the connection's cached statements, so a
    # gold text prepared before is prepared again and its reads recorded.
    connection.set_authorizer(record_read)
    try:
        connection.execute("EXPLAIN " + gold_sql).close()
    except SQL_FAILURES:
        return None
    return tables, columns


def pairwise_auc(scored: Sequence[tuple[float, bool]]) -> float | None:
    """Mann-Whitney AUC of a score/label sample: the share of (positive,
    negative) pairs the positive outscores, a tie counting half.

    Returns None when one of the classes is empty (undefined AUC).
    """
    positives = [score for score, is_gold in scored if is_gold]
    negatives = sorted(score for score, is_gold in scored if not is_gold)
    if not positives or not negatives:
        return None
    # Twice the pairs won: a negative below a positive counts 2, a tied one 1.
    doubled = sum(bisect_left(negatives, s) + bisect_right(negatives, s) for s in positives)
    return doubled / 2 / (len(positives) * len(negatives))


def recall_auc(
    per_question: Sequence[tuple[RecallScores, set[str], set[tuple[str, str]]]],
) -> tuple[float | None, float | None]:
    """Ranking quality of recall scores against gold schema items.

    Every question's scored items are pooled into one global ranking per kind.
    """
    table_pairs: list[tuple[float, bool]] = []
    column_pairs: list[tuple[float, bool]] = []
    for scores, gold_tables, gold_columns in per_question:
        gold_tables_lower = {name.lower() for name in gold_tables}
        gold_columns_lower = {(t.lower(), c.lower()) for t, c in gold_columns}
        table_pairs.extend(
            (score, name.lower() in gold_tables_lower)
            for name, score in scores.table_scores.items()
        )
        column_pairs.extend(
            (score, (t.lower(), c.lower()) in gold_columns_lower)
            for (t, c), score in scores.column_scores.items()
        )
    return pairwise_auc(table_pairs), pairwise_auc(column_pairs)


def _format_ratio(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.4f}"


def report_json(report: EvalReport) -> str:
    """``report.json``: the report's fields as JSON, keys sorted."""
    return json.dumps(asdict(report), indent=2, sort_keys=True) + "\n"


def report_text(report: EvalReport) -> str:
    """``report.txt``: the report as a fixed-width text table."""
    rows = [("questions", report.total), ("overall EX", _format_ratio(report.overall_ex))]
    rows += [(f"EX [{key}]", _format_ratio(ex)) for key, ex in sorted(report.per_difficulty_ex.items())]
    rows += [(outcome, report.counts.get(outcome, 0)) for outcome in OUTCOMES]
    rows += [
        ("table recall AUC", _format_ratio(report.table_auc)),
        ("column recall AUC", _format_ratio(report.column_auc)),
    ]
    lines = ["execution accuracy report", "=" * 40]
    lines += [f"{label:<24}{value:>16}" for label, value in rows]
    return "\n".join(lines) + "\n"
