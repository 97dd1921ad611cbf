"""LLM-driven schema linking: table and column recall with self-consistency voting.

Both recall steps sample several completions in a single request, parse each
sample best-effort, and vote: table recall keeps the most frequent top-k table
set, column recall keeps the k most frequently recalled columns per table.
Foreign keys survive only when both endpoint tables stay linked.
"""

from __future__ import annotations

import logging
import re
from collections import Counter
from dataclasses import dataclass
from itertools import islice
from json import JSONDecoder
from typing import Mapping, Sequence

from .catalog import DatabaseSchema, FkRelation, Question, format_fk_line, format_table_line
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


@dataclass(frozen=True)
class LinkingConfig:
    recall_samples: int = 10
    k_tables: int = 4
    k_columns: int = 5
    model_name: str = "gpt-3.5-turbo-0301"
    temperature: float = 1.0
    max_output_tokens: int = 1024


def _recall_exchange(
    instruction: str, schema_text: str, question: Question, config: LinkingConfig
) -> ChatExchange:
    """Single-user-message recall exchange: instruction, schema, question."""
    content = f"{instruction}\n\nSchema:\n{schema_text}\n\nQuestion:\n### {question.text}"
    return ChatExchange(
        messages=(ChatMessage("user", content),),
        n=config.recall_samples,
        temperature=config.temperature,
        model_name=config.model_name,
        max_output_tokens=config.max_output_tokens,
    )


def build_table_recall_prompt(
    schema: DatabaseSchema, question: Question, config: LinkingConfig = LinkingConfig()
) -> ChatExchange:
    """Exchange asking for a full ranked table list."""
    schema_lines = "\n".join(format_table_line(name, cols) for name, cols in schema.tables)
    return _recall_exchange(TABLE_RECALL_INSTRUCTION, schema_lines, question, config)


def build_column_recall_prompt(
    schema: DatabaseSchema,
    table_names: Sequence[str],
    question: Question,
    config: LinkingConfig = LinkingConfig(),
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

_FENCE_RE = re.compile(r"```[a-zA-Z]*\n?|```")
_QUOTED_RE = re.compile(r'["\']([^"\']+)["\']')


def parse_table_list(text: str, schema: DatabaseSchema) -> list[str]:
    """Extract the first bracketed list and match entries to schema tables.

    Matching is case-insensitive; unknown entries are dropped, duplicates keep
    their first position, and unparseable text yields an empty list.
    """
    by_lower = {name.lower(): name for name, _ in schema.tables}
    start = text.find("[")
    if start < 0:
        return []
    decoder = JSONDecoder()
    entries: list[str] = []
    try:
        parsed, _ = decoder.raw_decode(text[start:])
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
    and tables missing from the completion come back as empty lists.
    """
    stripped = _FENCE_RE.sub("", text)
    parsed = _first_json_object(stripped)

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
    decoder = JSONDecoder()
    for match in islice(re.finditer(r"\{", text), MAX_OBJECT_DECODES):
        try:
            parsed, _ = decoder.raw_decode(text[match.start() :])
        except ValueError:
            continue
        except RecursionError:
            # Nested past the decoder's limit: unparseable, rather than a
            # retry as deep at each brace inside the nesting.
            return None
        if isinstance(parsed, dict):
            return parsed
    return None


def vote_table_sets(samples: Sequence[Sequence[str]], k_tables: int) -> list[str]:
    """Pick the most frequent top-k table set across samples.

    Each sample is truncated to its first k_tables entries and compared as an
    unordered set; frequency ties go to the set whose first occurrence has the
    lower sample index. The returned ordering is the one inside that earliest
    winning sample. Empty samples cast no vote, and with no vote the result is
    empty.
    """
    first: dict[frozenset[str], list[str]] = {}
    counts: Counter[frozenset[str]] = Counter()
    for sample in samples:
        top = list(sample[:k_tables])
        if top:
            key = frozenset(name.lower() for name in top)
            first.setdefault(key, top)
            counts[key] += 1
    # max keeps the first of equal counts, and a Counter iterates its keys in
    # first-occurrence order.
    return first[max(counts, key=counts.__getitem__)] if counts else []


def vote_columns(
    samples: Sequence[Mapping[str, Sequence[str]]],
    k_columns: int,
    table_columns: Mapping[str, Sequence[str]],
) -> dict[str, list[str]]:
    """Keep the k most frequently recalled columns per table.

    Occurrences are counted over each sample's full recalled list (entries
    outside the table's schema are ignored); ties break by lower mean rank
    across the samples containing the column, then by schema column order.
    A table nobody recalled falls back to its first k_columns schema columns.
    """
    result: dict[str, list[str]] = {}
    for table, schema_columns in table_columns.items():
        known = set(schema_columns)
        occurrences: Counter[str] = Counter()
        rank_sums: dict[str, int] = {}
        for sample in samples:
            for rank, column in enumerate(sample.get(table, ()), start=1):
                if column not in known:
                    continue
                occurrences[column] += 1
                rank_sums[column] = rank_sums.get(column, 0) + rank
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
    config: LinkingConfig = LinkingConfig(),
) -> tuple[DatabaseSchema, RecallScores]:
    """Run both recall steps and assemble the linked subset of ``schema`` plus scores.

    Gateway errors propagate; a total parse failure falls back to the full
    schema truncated to k_tables tables in schema order.
    """
    table_exchange = build_table_recall_prompt(schema, question, config)
    table_completion = gateway.complete(table_exchange)
    table_samples = [
        parse_table_list(text, schema)[: config.k_tables] for text in table_completion.texts
    ]
    schema_tables = [name for name, _ in schema.tables]
    table_scores = _frequency_scores(schema_tables, table_samples)

    if len(schema_tables) <= config.k_tables:
        linked_tables = schema_tables
    else:
        linked_tables = vote_table_sets(table_samples, config.k_tables)
        if not linked_tables:
            linked_tables = schema_tables[: config.k_tables]
            log.warning(
                "question %s: table recall unusable, falling back to first %d schema tables",
                question.question_id,
                config.k_tables,
            )

    column_exchange = build_column_recall_prompt(schema, linked_tables, question, config)
    column_completion = gateway.complete(column_exchange)
    linked_table_columns = {name: schema.columns_of(name) for name in linked_tables}
    column_samples = [
        parse_column_dict(text, linked_table_columns) for text in column_completion.texts
    ]
    voted_columns = vote_columns(column_samples, config.k_columns, linked_table_columns)

    column_scores: dict[tuple[str, str], float] = {}
    for name, cols in schema.tables:
        truncated = [
            list(sample.get(name, ()))[: config.k_columns] for sample in column_samples
        ]
        per_column = _frequency_scores(cols, truncated)
        for col, score in per_column.items():
            column_scores[(name, col)] = score

    fks = restrict_foreign_keys(schema.foreign_keys, linked_tables)
    linked = DatabaseSchema(
        db_id=schema.db_id,
        tables=tuple((name, tuple(voted_columns[name])) for name in linked_tables),
        foreign_keys=tuple(fks),
    )
    return linked, RecallScores(table_scores=table_scores, column_scores=column_scores)


def _frequency_scores(items: Sequence[str], samples: Sequence[Sequence[str]]) -> dict[str, float]:
    scores = {item: 0.0 for item in items}
    if not samples:
        return scores
    for sample in samples:
        for entry in sample:
            if entry in scores:
                scores[entry] += 1.0
    return {item: count / len(samples) for item, count in scores.items()}
