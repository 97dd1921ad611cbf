"""Spider-format schema and question catalog.

Loads the benchmark's ``tables.json`` / question files into immutable domain
objects and serializes schemas in the two prompt layout styles (line-per-table
"#" blocks and the run-on ``table : table.col , ...`` form).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence

from .errors import SpiderFormatError

DIFFICULTY_LEVELS = ("easy", "medium", "hard", "extra")


@dataclass(frozen=True)
class FkRelation:
    from_table: str
    from_column: str
    to_table: str
    to_column: str

    def __post_init__(self) -> None:
        if (self.from_table.lower(), self.from_column.lower()) == (
            self.to_table.lower(),
            self.to_column.lower(),
        ):
            raise SpiderFormatError("foreign key endpoints are identical")


@dataclass(frozen=True)
class DatabaseSchema:
    """One database, or the subset of it that schema linking recalled: its
    tables as ``(name, column names)`` pairs in prompt order, and the foreign
    keys between them. A linked subset keeps a foreign key whose columns it
    dropped, so only the key's tables must be in the schema."""

    db_id: str
    tables: tuple[tuple[str, tuple[str, ...]], ...]
    foreign_keys: tuple[FkRelation, ...] = ()
    sqlite_path: Path | None = None

    def __post_init__(self) -> None:
        names = set()
        for name, columns in self.tables:
            if name.lower() in names:
                raise SpiderFormatError(f"duplicate table {name!r} in {self.db_id}")
            names.add(name.lower())
            if not columns:
                raise SpiderFormatError(f"table {name!r} has no columns")
            seen = set()
            for column in columns:
                if not column.strip():
                    raise SpiderFormatError(f"table {name!r} has an empty column name")
                if column.lower() in seen:
                    raise SpiderFormatError(f"duplicate column {column!r} in table {name!r}")
                seen.add(column.lower())
        for fk in self.foreign_keys:
            for table in (fk.from_table, fk.to_table):
                if table.lower() not in names:
                    raise SpiderFormatError(
                        f"foreign key table {table} not found in schema {self.db_id}"
                    )

    def columns_of(self, table: str) -> tuple[str, ...] | None:
        """The columns of ``table``, matched case-insensitively; None when the
        schema has no such table."""
        wanted = table.lower()
        return next((cols for name, cols in self.tables if name.lower() == wanted), None)


@dataclass(frozen=True)
class Question:
    question_id: str
    db_id: str
    text: str
    gold_sql: str | None = None
    difficulty: str | None = None

    def __post_init__(self) -> None:
        if self.difficulty is not None and self.difficulty not in DIFFICULTY_LEVELS:
            raise SpiderFormatError(f"unknown difficulty {self.difficulty!r}")


def read_json_file(path: Path) -> Any:
    """The JSON value in an input file; a file that is missing, unreadable,
    not JSON or nested too deep to parse is a SpiderFormatError naming it."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SpiderFormatError(f"{path}: malformed JSON at byte offset {exc.pos}: {exc.msg}") from exc
    except (OSError, ValueError, RecursionError) as exc:
        raise SpiderFormatError(f"cannot read {path}: {exc}") from exc


def load_spider_tables(path: Path | str) -> list[DatabaseSchema]:
    """Parse a Spider ``tables.json`` file into one schema per descriptor.

    The sentinel ``(-1, "*")`` column is dropped, foreign-key column indices are
    resolved to (table, column) name pairs, and original-case names are kept.
    SQLite files are expected at ``<parent>/database/<db_id>/<db_id>.sqlite``.
    """
    path = Path(path)
    raw = read_json_file(path)
    if not isinstance(raw, list):
        raise SpiderFormatError(f"{path}: expected a JSON array of database descriptors")

    schemas = []
    for idx, descriptor in enumerate(raw):
        if not isinstance(descriptor, dict):
            raise SpiderFormatError(f"{path}: entry {idx} is not a JSON object")
        schemas.append(_schema_from_descriptor(descriptor, path))
    return schemas


def _schema_from_descriptor(descriptor: dict, path: Path) -> DatabaseSchema:
    """One database from its ``tables.json`` descriptor; an entry of the wrong
    shape is a SpiderFormatError naming ``path``, the db_id and the entry."""
    db_id = descriptor.get("db_id")
    if not db_id or not isinstance(db_id, str):
        raise SpiderFormatError(f"{path}: database descriptor without a string db_id: {db_id!r}")
    table_names = descriptor.get("table_names_original") or descriptor.get("table_names") or []
    if not isinstance(table_names, list):
        raise SpiderFormatError(f"{path}: {db_id}: table names are not a JSON array")
    for idx, name in enumerate(table_names):
        if not isinstance(name, str):
            raise SpiderFormatError(f"{path}: {db_id}: table name {idx} is not a string: {name!r}")
    column_pairs = descriptor.get("column_names_original") or descriptor.get("column_names") or []

    columns_per_table: list[list[str]] = [[] for _ in table_names]
    # Global column index -> (table index, name) of every real column; the
    # "*" sentinel (usually index 0) is no column a foreign key can name.
    column_ref: dict[int, tuple[int, str]] = {}
    for idx, pair in enumerate(column_pairs):
        if not (
            isinstance(pair, list)
            and len(pair) == 2
            and type(pair[0]) is int
            and isinstance(pair[1], str)
        ):
            raise SpiderFormatError(
                f"{path}: {db_id}: column entry {idx} is not a [table index, name] pair: {pair!r}"
            )
        table_idx, col_name = pair
        if not -1 <= table_idx < len(table_names):  # -1 marks the "*" sentinel
            raise SpiderFormatError(
                f"{path}: {db_id}: column entry {idx} names table index {table_idx},"
                f" but there are {len(table_names)} tables"
            )
        if table_idx < 0 or col_name == "*":
            continue
        column_ref[idx] = (table_idx, col_name)
        columns_per_table[table_idx].append(col_name)

    fk_refs = []
    for entry, pair in enumerate(descriptor.get("foreign_keys") or []):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SpiderFormatError(
                f"{path}: {db_id}: foreign key entry {entry} is not a"
                f" [column index, column index] pair: {pair!r}"
            )
        for idx in pair:
            if type(idx) is not int or idx not in column_ref:
                raise SpiderFormatError(
                    f"{path}: {db_id}: foreign key entry {entry} references"
                    f" dangling column index {idx!r}"
                )
        fk_refs.append((column_ref[pair[0]], column_ref[pair[1]]))

    try:
        return DatabaseSchema(
            db_id,
            tuple(zip(table_names, map(tuple, columns_per_table))),
            tuple(
                FkRelation(table_names[from_tbl], from_col, table_names[to_tbl], to_col)
                for (from_tbl, from_col), (to_tbl, to_col) in fk_refs
            ),
            path.parent / "database" / db_id / f"{db_id}.sqlite",
        )
    except SpiderFormatError as exc:
        raise SpiderFormatError(f"{path}: {db_id}: {exc}") from exc


def load_questions(path: Path | str) -> list[Question]:
    """Parse a Spider dev/test question file.

    ``question_id`` defaults to the zero-based record position; ``gold_sql``
    comes from the record's ``query`` field when present. ``question`` and
    ``db_id`` must be non-empty strings, ``query`` and ``difficulty`` strings
    or absent; any other record is a SpiderFormatError naming the file and
    the record's index. So is a record whose ``question_id``, explicit or
    defaulted, another record already has: every stage keys its journal lines
    and predictions by that id.
    """
    path = Path(path)
    raw = read_json_file(path)
    if not isinstance(raw, list):
        raise SpiderFormatError(f"{path}: expected a JSON array of question records")

    questions = []
    index_of: dict[str, int] = {}
    for idx, record in enumerate(raw):
        if not isinstance(record, dict):
            raise SpiderFormatError(f"{path}: record {idx} is not a JSON object")
        for key in ("question", "db_id", "query", "difficulty"):
            value = record.get(key)
            if value is not None and not isinstance(value, str):
                raise SpiderFormatError(f"{path}: record {idx}: {key} is not a string: {value!r}")
        text = record.get("question")
        db_id = record.get("db_id")
        if not text or not db_id:
            raise SpiderFormatError(f"{path}: record {idx} is missing question or db_id")
        question_id = str(record.get("question_id", idx))
        if question_id in index_of:
            raise SpiderFormatError(
                f"{path}: records {index_of[question_id]} and {idx}"
                f" share question_id {question_id!r}"
            )
        index_of[question_id] = idx
        try:
            question = Question(
                question_id=question_id,
                db_id=db_id,
                text=text,
                gold_sql=record.get("query"),
                difficulty=record.get("difficulty"),
            )
        except SpiderFormatError as exc:
            raise SpiderFormatError(f"{path}: record {idx}: {exc}") from exc
        questions.append(question)
    return questions


def build_catalog(schemas: Iterable[DatabaseSchema]) -> dict[str, DatabaseSchema]:
    return {schema.db_id: schema for schema in schemas}


def format_table_line(name: str, columns: Sequence[str], terminator: str = "") -> str:
    return f"# {name} ( {', '.join(columns)} ){terminator}"


def format_fk_line(fk: FkRelation) -> str:
    return f"# {fk.from_table}.{fk.from_column} = {fk.to_table}.{fk.to_column}"


def serialize_clear_layout(schema: DatabaseSchema) -> str:
    """Render the "#"-prefixed layout: one ``# table ( cols );`` line per table,
    then one ``# t1.c1 = t2.c2`` line per foreign key."""
    if not schema.tables:
        raise ValueError("schema has no tables")
    lines = [format_table_line(name, cols, terminator=";") for name, cols in schema.tables]
    lines.extend(format_fk_line(fk) for fk in schema.foreign_keys)
    return "\n".join(lines)


COMPLICATED_INSTRUCTION = "Complete sqlite SQL query only and with no explanation."


def serialize_complicated_layout(schema: DatabaseSchema, question: Question) -> str:
    """Render the run-on layout: instruction, question, and ``table : table.col , ...``
    segments joined by " | ", ending with a bare SELECT."""
    segments = [
        f"{name} : " + " , ".join(f"{name}.{col}" for col in cols)
        for name, cols in schema.tables
    ]
    context = " | ".join(segments)
    return (
        f"{COMPLICATED_INSTRUCTION}\n"
        f"{question.text} Sqlite SQL tables, with their properties: {context}\n"
        "SELECT"
    )
