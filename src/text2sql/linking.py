"""LLM-driven schema linking: table and column recall with self-consistency voting.

Both recall steps sample several completions in a single request, parse each
sample best-effort, and vote: table recall keeps the most frequent top-k table
set, column recall keeps the k most frequently recalled columns per table.
Foreign keys survive only when both endpoint tables stay linked. Each
distinct sample text is parsed once, and the votes and scores take (parse,
count) pairs, which gives the same results as counting every copy; it saves
work only when samples repeat.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from json import JSONDecoder
from typing import Hashable, Mapping, Sequence

from .catalog import DatabaseSchema, FkRelation, Question, format_fk_line, format_table_line
from .config import PipelineConfig
from .gateway import ChatExchange, ChatMessage

log = logging.getLogger(__name__)

TABLE_RECALL_INSTRUCTION = """Given the database schema and question, perform the following actions:
1 - Rank all the tables based on the possibility of being used in the SQL according to the question from the most relevant to the least relevant, Table or its column that matches more with the question words is highly relevant and must be placed ahead.
2 - Check whether you consider all the tables.
3 - Output a list object in the order of step 2, Your output should contain all the tables. The format should be like:
[
"table_1", "table_2", ...
]"""

COLUMN_RECALL_INSTRUCTION = """Given the database tables and question, perform the following actions:
1 - Rank the columns in each table based on the possibility of being used in the SQL, Column that matches more with the question words or the foreign key is highly relevant and must be placed ahead. You should output them in the order of the most relevant to the least relevant.
Explain why you choose each column.
2 - Output a JSON object that contains all the columns in each table according to your explanation. The format should be like:
{
"table_1": ["column_1", "column_2", ......],
"table_2": ["column_1", "column_2", ......],
"table_3": ["column_1", "column_2", ......],
......
}"""


@dataclass(frozen=True)
class RecallScores:
    """Per-item recall frequencies: the fraction of samples whose kept top-k
    contained the item. Every table and column of the source schema is present,
    unrecalled items at 0.0."""

    table_scores: dict[str, float]
    column_scores: dict[tuple[str, str], float]


def _recall_exchange(
    instruction: str, schema_text: str, question: Question, config: PipelineConfig
) -> ChatExchange:
    """Single-user-message recall exchange: instruction, schema, question."""
    content = f"{instruction}\n\nSchema:\n{schema_text}\n\nQuestion:\n### {question.text}"
    return ChatExchange(
        messages=(ChatMessage("user", content),),
        n=config.recall_samples,
        temperature=config.temperature,
        model_name=config.model_name,
        max_output_tokens=config.max_recall_tokens,
    )


def build_table_recall_prompt(
    schema: DatabaseSchema, question: Question, config: PipelineConfig = PipelineConfig()
) -> ChatExchange:
    """Exchange asking for a full ranked table list."""
    schema_lines = "\n".join(format_table_line(name, cols) for name, cols in schema.tables)
    return _recall_exchange(TABLE_RECALL_INSTRUCTION, schema_lines, question, config)


def build_column_recall_prompt(
    schema: DatabaseSchema,
    table_names: Sequence[str],
    question: Question,
    config: PipelineConfig = PipelineConfig(),
) -> ChatExchange:
    """Exchange asking for ranked columns of the linked tables, with the
    foreign keys among those tables listed under a "Foreign keys:" header."""
    columns = [(name, schema.columns_of(name)) for name in table_names]
    schema_text = "\n".join(
        format_table_line(name, cols) for name, cols in columns if cols is not None
    )
    fks = restrict_foreign_keys(schema.foreign_keys, table_names)
    if fks:
        schema_text += "\nForeign keys:\n" + "\n".join(format_fk_line(fk) for fk in fks)
    return _recall_exchange(COLUMN_RECALL_INSTRUCTION, schema_text, question, config)


def restrict_foreign_keys(
    foreign_keys: Sequence[FkRelation], table_names: Sequence[str]
) -> list[FkRelation]:
    linked = {name.lower() for name in table_names}
    return [
        fk
        for fk in foreign_keys
        if fk.from_table.lower() in linked and fk.to_table.lower() in linked
    ]


# A decode that fails can scan the rest of the sample, so a sample of nested
# objects that never close would cost one such scan per brace. Every sample the
# demo and the benchmark record decodes at its first brace.
MAX_OBJECT_DECODES = 32

_QUOTED_RE = re.compile(r'["\']([^"\']+)["\']')
_DECODER = JSONDecoder()


def parse_table_list(text: str, schema: DatabaseSchema) -> list[str]:
    """Extract the first bracketed list and match entries to schema tables.

    Matching is case-insensitive; unknown entries are dropped, duplicates keep
    their first position, and unparseable text yields an empty list.
    """
    by_lower = {name.lower(): name for name, _ in schema.tables}
    start = text.find("[")
    if start < 0:
        return []
    entries: list[str] = []
    try:
        parsed, _ = _DECODER.raw_decode(text, start)
        entries = [item for item in parsed if isinstance(item, str)]
    except (ValueError, RecursionError):
        end = text.find("]", start)
        segment = text[start : end + 1] if end > start else text[start:]
        entries = _QUOTED_RE.findall(segment)
        if not entries:
            entries = [part.strip() for part in segment.strip("[]").split(",")]

    result: list[str] = []
    for entry in entries:
        match = by_lower.get(entry.strip().strip("\"'").lower())
        if match and match not in result:
            result.append(match)
    return result


def parse_column_dict(
    text: str, table_columns: Mapping[str, Sequence[str]]
) -> dict[str, list[str]]:
    """Extract the first JSON object and filter it to real linked-table columns.

    Keys and values are matched case-insensitively; anything unknown is dropped
    and tables missing from the completion come back as empty lists. A code
    fence around the object needs no stripping: it holds no brace.
    """
    parsed = _first_json_object(text)

    canonical_tables = {name.lower(): name for name in table_columns}
    result: dict[str, list[str]] = {name: [] for name in table_columns}
    if not isinstance(parsed, dict):
        return result
    for key, value in parsed.items():
        if not isinstance(key, str) or not isinstance(value, list):
            continue
        table = canonical_tables.get(key.strip().lower())
        if table is None:
            continue
        by_lower = {c.lower(): c for c in table_columns[table]}
        for item in value:
            if not isinstance(item, str):
                continue
            column = by_lower.get(item.strip().lower())
            if column and column not in result[table]:
                result[table].append(column)
    return result


def _first_json_object(text: str):
    """The first JSON object that decodes at one of the first
    MAX_OBJECT_DECODES braces of ``text``; None when none does."""
    for match in islice(re.finditer(r"\{", text), MAX_OBJECT_DECODES):
        try:
            parsed, _ = _DECODER.raw_decode(text, match.start())
        except ValueError:
            continue
        except RecursionError:
            # Nested past the decoder's limit: unparseable, rather than a
            # retry as deep at each brace inside the nesting.
            return None
        if isinstance(parsed, dict):
            return parsed
    return None


def vote_table_sets(counted: Sequence[tuple[Sequence[str], int]], k_tables: int) -> list[str]:
    """Pick the most frequent top-k table set across samples, given as
    (sample, count) pairs in first-occurrence order, each standing for
    ``count`` identical samples.

    Each sample is truncated to its first k_tables entries and compared as an
    unordered set; frequency ties go to the set whose first occurrence has the
    lower sample index. The returned ordering is the one inside that earliest
    winning sample. Empty samples cast no vote, and with no vote the result is
    empty.
    """
    first: dict[frozenset[str], list[str]] = {}
    counts: Counter[frozenset[str]] = Counter()
    for sample, count in counted:
        top = list(sample[:k_tables])
        if top:
            key = frozenset(name.lower() for name in top)
            first.setdefault(key, top)
            counts[key] += count
    # max keeps the first of equal counts, and a Counter iterates its keys in
    # first-occurrence order.
    return first[max(counts, key=counts.__getitem__)] if counts else []


def vote_columns(
    counted: Sequence[tuple[Mapping[str, Sequence[str]], int]],
    k_columns: int,
    table_columns: Mapping[str, Sequence[str]],
) -> dict[str, list[str]]:
    """Keep the k most frequently recalled columns per table, over (sample,
    count) pairs, each standing for ``count`` identical samples.

    Occurrences are counted over each sample's full recalled list (entries
    outside the table's schema are ignored); ties break by lower mean rank
    across the samples containing the column, then by schema column order.
    The rank sums stay integers, so the mean ranks are the same floats as when
    each copy is counted. A table nobody recalled falls back to its first
    k_columns schema columns.
    """
    result: dict[str, list[str]] = {}
    for table, schema_columns in table_columns.items():
        known = set(schema_columns)
        occurrences: Counter[str] = Counter()
        rank_sums: dict[str, int] = {}
        for sample, count in counted:
            for rank, column in enumerate(sample.get(table, ()), start=1):
                if column not in known:
                    continue
                occurrences[column] += count
                rank_sums[column] = rank_sums.get(column, 0) + rank * count
        if not occurrences:
            result[table] = list(schema_columns[:k_columns])
            continue
        schema_order = {name: idx for idx, name in enumerate(schema_columns)}
        ordered = sorted(
            occurrences,
            key=lambda col: (
                -occurrences[col],
                rank_sums[col] / occurrences[col],
                schema_order.get(col, len(schema_order)),
            ),
        )
        result[table] = ordered[:k_columns]
    return result


def link_schema(
    schema: DatabaseSchema,
    question: Question,
    gateway,
    config: PipelineConfig = PipelineConfig(),
) -> tuple[DatabaseSchema, RecallScores]:
    """Run both recall steps and assemble the linked subset of ``schema`` plus scores.

    Gateway errors propagate; a total parse failure falls back to the full
    schema truncated to k_tables tables in schema order. Each distinct sample
    text is parsed once and weighted by its count. A column's score is the
    share of column samples whose first k_columns for its table hold it.
    """
    table_exchange = build_table_recall_prompt(schema, question, config)
    table_texts = gateway.complete(table_exchange).texts
    table_parses = [
        (parse_table_list(text, schema)[: config.k_tables], count)
        for text, count in Counter(table_texts).items()
    ]
    schema_tables = [name for name, _ in schema.tables]
    table_scores = _frequency_scores(schema_tables, table_parses, len(table_texts))

    if len(schema_tables) <= config.k_tables:
        linked_tables = schema_tables
    else:
        linked_tables = vote_table_sets(table_parses, config.k_tables)
        if not linked_tables:
            linked_tables = schema_tables[: config.k_tables]
            log.warning(
                "question %s: table recall unusable, falling back to first %d schema tables",
                question.question_id,
                config.k_tables,
            )

    column_exchange = build_column_recall_prompt(schema, linked_tables, question, config)
    column_texts = gateway.complete(column_exchange).texts
    linked_table_columns = {name: schema.columns_of(name) for name in linked_tables}
    column_parses = [
        (parse_column_dict(text, linked_table_columns), count)
        for text, count in Counter(column_texts).items()
    ]
    voted_columns = vote_columns(column_parses, config.k_columns, linked_table_columns)
    kept_columns = [
        ([(name, col) for name, cols in sample.items() for col in cols[: config.k_columns]], count)
        for sample, count in column_parses
    ]
    schema_columns = [(name, col) for name, cols in schema.tables for col in cols]
    column_scores = _frequency_scores(schema_columns, kept_columns, len(column_texts))

    fks = restrict_foreign_keys(schema.foreign_keys, linked_tables)
    linked = DatabaseSchema(
        db_id=schema.db_id,
        tables=tuple((name, tuple(voted_columns[name])) for name in linked_tables),
        foreign_keys=tuple(fks),
    )
    return linked, RecallScores(table_scores=table_scores, column_scores=column_scores)


def _frequency_scores(
    items: Sequence[Hashable], counted: Sequence[tuple[Sequence[Hashable], int]], total: int
) -> dict[Hashable, float]:
    """The share of the `total` samples that hold each item, from (sample,
    count) pairs; `total` is a completion's text count, at least 1. Integer
    counts keep every share the float that counting each copy once would give."""
    scores = {item: 0.0 for item in items}
    for sample, count in counted:
        for entry in sample:
            if entry in scores:
                scores[entry] += count
    return {item: hits / total for item, hits in scores.items()}
