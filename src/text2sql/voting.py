"""Execution-consistency voting over sampled SQL completions.

Completions are normalized into runnable candidates, executed once per distinct
text on one read-only connection per question, and grouped by result
equivalence; the winner comes from the largest group. Errors, timeouts,
oversized results, and unparseable completions are removed before voting.

The vote also hands back the question's gold query outcome, which EX scoring
needs: the outcome of the candidate whose text is exactly the gold query when
there is one, else one more statement on the same connection. So a question's
SQL runs on one connection, and the gold query never runs twice.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from pathlib import Path

from .catalog import DatabaseSchema, Question
from .config import PipelineConfig
from .executor import (
    STATUS_OVERFLOW,
    STATUS_TIMEOUT,
    ExecutionOutcome,
    ReadOnlyConnection,
    ResultTable,
    execute_sql,
    results_equivalent,
)
from .gateway import ChatExchange
from .prompts import build_generation_prompt

DISCARD_SQL_ERROR = "SqlError"
DISCARD_TIMEOUT = "Timeout"
DISCARD_OVERFLOW = "Overflow"
DISCARD_UNPARSEABLE = "Unparseable"

_DISCARD_REASONS = {STATUS_TIMEOUT: DISCARD_TIMEOUT, STATUS_OVERFLOW: DISCARD_OVERFLOW}

_FENCE_BLOCK_RE = re.compile(r"```[a-zA-Z]*\n(.*?)```", re.DOTALL)
_SQL_LINE_RE = re.compile(r"^\s*(select|with)\b", re.IGNORECASE)
# Trailing whitespace and semicolons, in any mix. The lookbehind lets a match
# start only where a run begins, which keeps the scan linear.
_TRAILING_RE = re.compile(r"(?<![\s;])[\s;]+\Z")


@dataclass(frozen=True)
class SqlCandidate:
    text: str
    sample_index: int
    raw_completion: str

    @property
    def unparseable(self) -> bool:
        return not self.text


@dataclass
class ExecutionCluster:
    result: ResultTable
    members: list[SqlCandidate] = field(default_factory=list)

    @property
    def size(self) -> int:
        return len(self.members)

    @property
    def min_index(self) -> int:
        return min(c.sample_index for c in self.members)


@dataclass
class VoteResult:
    winner: SqlCandidate
    clusters: list[ExecutionCluster]
    discarded: list[tuple[int, str]]
    fallback_used: bool = False
    # The gold query's outcome, when the vote was given one (``reference_sql``).
    reference_outcome: ExecutionOutcome | None = None


def postprocess_completion(raw: str, sample_index: int) -> SqlCandidate:
    """Normalize one completion into a runnable candidate.

    Strips code fences and leading prose, re-attaches the SELECT the prompt
    ended with, collapses newlines, and drops trailing semicolons. The whole
    transformation is idempotent; an empty residue marks the candidate
    unparseable.
    """
    text = raw
    fenced = _FENCE_BLOCK_RE.search(text)
    if fenced:
        text = fenced.group(1)
    elif "```" in text:
        text = text.split("```", 2)[1]

    lines = text.splitlines()
    for idx, line in enumerate(lines):
        if _SQL_LINE_RE.match(line):
            lines = lines[idx:]
            break
    text = " ".join(line.strip() for line in lines if line.strip())

    text = _TRAILING_RE.sub("", text).strip()
    if not text:
        return SqlCandidate(text="", sample_index=sample_index, raw_completion=raw)
    if not _SQL_LINE_RE.match(text):
        text = f"SELECT {text}"
    return SqlCandidate(text=text, sample_index=sample_index, raw_completion=raw)


def cluster_by_execution(
    candidates: list[SqlCandidate],
    db_path: Path | str,
    timeout: float = 5.0,
    *,
    reference_sql: str | None = None,
) -> tuple[list[ExecutionCluster], list[tuple[int, str]], ExecutionOutcome | None]:
    """Execute each distinct candidate text once and group successes by result
    equivalence.

    A repeated text joins the cluster, or takes the discard reason, of its
    first occurrence. Each candidate's own ORDER BY status decides its sequence
    sensitivity. All texts run on one read-only connection, opened at the first
    text that runs and closed before returning; each statement gets the full
    ``timeout``. Clusters come back ordered by descending size, then ascending
    smallest member index; failed candidates land in the discard list with a
    reason.

    The third item is ``reference_sql``'s outcome (None without one): kept from
    the candidate execution whose text equals it exactly, else run once more on
    the same connection.
    """
    clusters: list[ExecutionCluster] = []
    discarded: list[tuple[int, str]] = []
    reference: ExecutionOutcome | None = None
    # Text -> its cluster, or its discard reason. Equivalence is reflexive and
    # deterministic and clusters are only appended, so a repeat would land in
    # the same place if it were executed and compared again.
    placed: dict[str, ExecutionCluster | str] = {}
    with ReadOnlyConnection(db_path) as connection:
        for candidate in candidates:
            if candidate.unparseable:
                discarded.append((candidate.sample_index, DISCARD_UNPARSEABLE))
                continue
            place = placed.get(candidate.text)
            if place is None:
                outcome = execute_sql(
                    db_path, candidate.text, timeout=timeout, connection=connection
                )
                if candidate.text == reference_sql:
                    reference = outcome
                place = placed[candidate.text] = _place(outcome, clusters)
            if isinstance(place, str):
                discarded.append((candidate.sample_index, place))
            else:
                place.members.append(candidate)
        if reference_sql is not None and reference is None:
            reference = execute_sql(db_path, reference_sql, timeout=timeout, connection=connection)
    clusters.sort(key=lambda c: (-c.size, c.min_index))
    return clusters, discarded, reference


def _place(outcome: ExecutionOutcome, clusters: list[ExecutionCluster]) -> ExecutionCluster | str:
    """The first cluster with a result equivalent to the outcome's, appending a
    new one if none matches, or the discard reason of a failed execution."""
    if not outcome.ok:
        return _DISCARD_REASONS.get(outcome.status, DISCARD_SQL_ERROR)
    for cluster in clusters:
        if results_equivalent(cluster.result, outcome.table):
            return cluster
    cluster = ExecutionCluster(result=outcome.table)
    clusters.append(cluster)
    return cluster


def select_final(
    clusters: list[ExecutionCluster],
    discarded: list[tuple[int, str]],
    fallback: SqlCandidate,
) -> VoteResult:
    """Pick the winner: lowest sample index inside the largest cluster, size
    ties resolved by the cluster holding the lowest index overall. With nothing
    left to vote on, the raw first candidate wins and the result is flagged."""
    if not clusters:
        return VoteResult(winner=fallback, clusters=[], discarded=discarded, fallback_used=True)
    best = min(clusters, key=lambda c: (-c.size, c.min_index))
    winner = min(best.members, key=lambda c: c.sample_index)
    return VoteResult(winner=winner, clusters=clusters, discarded=discarded)


def generation_request(
    question: Question, view: DatabaseSchema, config: PipelineConfig
) -> ChatExchange:
    """The SQL-generation request for one question over the given schema view:
    what ``generate_sql`` sends and ``text2sql dump-prompt`` prints."""
    return build_generation_prompt(
        view,
        question,
        config.prompt_config(),
        n=config.effective_n_samples,
        temperature=config.temperature,
        model_name=config.model_name,
        max_output_tokens=config.max_generation_tokens,
    )


def generate_sql(
    question: Question, view: DatabaseSchema, gateway, db_path: Path | str, config: PipelineConfig
) -> VoteResult:
    """Send the question's ``generation_request`` over ``view`` (the linked
    schema, or the full one without linking) and vote on the samples by their
    results on ``db_path``, each statement under ``config.exec_timeout``.

    A single sample goes through the same vote, so a lone failing sample is
    discarded and returned as the flagged fallback. A question with gold SQL
    gets its outcome in ``reference_outcome``, from the same vote.
    """
    completion = gateway.complete(generation_request(question, view, config))
    candidates = [
        postprocess_completion(text, index) for index, text in enumerate(completion.texts)
    ]

    clusters, discarded, reference = cluster_by_execution(
        candidates, db_path, timeout=config.exec_timeout, reference_sql=question.gold_sql
    )
    vote = select_final(clusters, discarded, fallback=candidates[0])
    vote.reference_outcome = reference
    return vote
