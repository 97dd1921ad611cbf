"""Execution accuracy, recall-ranking AUC, and report rendering.

A prediction's EX outcome compares its result table with the gold query's,
under the gold query's order sensitivity. ``score_pair`` executes both
queries; ``score_outcome`` executes nothing and compares outcomes someone
already has, which is how the generate stage scores a vote's winner from the
tables the vote executed, the gold query's included. ``score_pair`` ends in
``score_outcome``, so the two agree on every verdict for deterministic queries.

Recall AUC ranks the linker's scores against the tables and columns the gold
query reads, as SQLite's authorizer names them while it prepares the query.
"""

from __future__ import annotations

import json
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

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
    question_id: str
    predicted_sql: str
    gold_sql: str
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
    predicted_sql: str, gold_sql: str, db_path: Path | str, timeout: float = 5.0
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
    timeout: float = 5.0,
) -> list[EvalRecord]:
    """Score (question_id, predicted, gold, db_path, difficulty) records."""
    results = []
    for question_id, predicted, gold, db_path, difficulty in records:
        outcome = score_pair(predicted, gold, db_path, timeout=timeout)
        results.append(EvalRecord(question_id, predicted, gold, outcome, difficulty))
    return results


def build_report(
    records: Sequence[EvalRecord],
    table_auc: float | None = None,
    column_auc: float | None = None,
) -> EvalReport:
    counts = {outcome: 0 for outcome in OUTCOMES}
    for record in records:
        counts[record.outcome] += 1
    total = len(records)
    overall = counts[OUTCOME_MATCH] / total if total else None

    per_difficulty: dict[str, float] = {}
    buckets: dict[str, list[EvalRecord]] = {}
    for record in records:
        if record.difficulty:
            buckets.setdefault(record.difficulty, []).append(record)
    for difficulty, bucket in sorted(buckets.items()):
        matched = sum(1 for r in bucket if r.outcome == OUTCOME_MATCH)
        per_difficulty[difficulty] = matched / len(bucket)

    return EvalReport(
        total=total,
        counts=counts,
        overall_ex=overall,
        per_difficulty_ex=per_difficulty,
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
    """Mann-Whitney AUC of a score/label sample; ties credit 0.5.

    Returns None when one of the classes is empty (undefined AUC).
    """
    positives = sum(1 for _, is_gold in scored if is_gold)
    negatives = len(scored) - positives
    if positives == 0 or negatives == 0:
        return None
    ordered = sorted(scored, key=lambda pair: pair[0])
    rank_sum = 0.0
    index = 0
    while index < len(ordered):
        tied_end = index
        while tied_end + 1 < len(ordered) and ordered[tied_end + 1][0] == ordered[index][0]:
            tied_end += 1
        average_rank = (index + tied_end) / 2 + 1  # 1-based average rank of the tie group
        for position in range(index, tied_end + 1):
            if ordered[position][1]:
                rank_sum += average_rank
        index = tied_end + 1
    u_statistic = rank_sum - positives * (positives + 1) / 2
    return u_statistic / (positives * negatives)


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


def render_report(report: EvalReport, fmt: str = "text") -> bytes:
    """Render a report as stable-key JSON or a fixed-width text table."""
    if fmt == "json":
        payload = {
            "column_auc": report.column_auc,
            "counts": {k: report.counts.get(k, 0) for k in OUTCOMES},
            "overall_ex": report.overall_ex,
            "per_difficulty_ex": dict(sorted(report.per_difficulty_ex.items())),
            "table_auc": report.table_auc,
            "total": report.total,
        }
        return (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode("utf-8")
    if fmt != "text":
        raise ValueError(f"unknown report format {fmt!r}")

    lines = [
        "execution accuracy report",
        "=" * 40,
        f"{'questions':<24}{report.total:>16}",
        f"{'overall EX':<24}{_format_ratio(report.overall_ex):>16}",
    ]
    for difficulty, value in sorted(report.per_difficulty_ex.items()):
        lines.append(f"{'EX [' + difficulty + ']':<24}{_format_ratio(value):>16}")
    for outcome in OUTCOMES:
        lines.append(f"{outcome:<24}{report.counts.get(outcome, 0):>16}")
    lines.append(f"{'table recall AUC':<24}{_format_ratio(report.table_auc):>16}")
    lines.append(f"{'column recall AUC':<24}{_format_ratio(report.column_auc):>16}")
    return ("\n".join(lines) + "\n").encode("utf-8")
