"""Spider-format schema and question catalog.

Loads the benchmark's ``tables.json`` / question files into immutable domain
objects and serializes schemas in the two prompt layout styles (line-per-table
"#" blocks and the run-on ``table : table.col , ...`` form).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterable, Sequence, Union

from .errors import SpiderFormatError

DIFFICULTY_LEVELS = ("easy", "medium", "hard", "extra")


@dataclass(frozen=True)
class Column:
    name: str
    declared_type: str = ""

    def __post_init__(self) -> None:
        if not self.name.strip():
            raise SpiderFormatError("column name is empty")


@dataclass(frozen=True)
class Table:
    name: str
    columns: tuple[Column, ...]

    def __post_init__(self) -> None:
        if not self.columns:
            raise SpiderFormatError(f"table {self.name!r} has no columns")
        seen = set()
        for col in self.columns:
            key = col.name.lower()
            if key in seen:
                raise SpiderFormatError(f"duplicate column {col.name!r} in table {self.name!r}")
            seen.add(key)

    @property
    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]


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
    """One database: tables, columns, and foreign-key relations."""

    db_id: str
    tables: tuple[Table, ...]
    foreign_keys: tuple[FkRelation, ...] = ()
    sqlite_path: Path | None = None

    def __post_init__(self) -> None:
        names = set()
        for table in self.tables:
            key = table.name.lower()
            if key in names:
                raise SpiderFormatError(f"duplicate table {table.name!r} in {self.db_id}")
            names.add(key)
        for fk in self.foreign_keys:
            for tbl, col in ((fk.from_table, fk.from_column), (fk.to_table, fk.to_column)):
                table = self.find_table(tbl)
                if table is None or col.lower() not in {c.lower() for c in table.column_names}:
                    raise SpiderFormatError(
                        f"foreign key endpoint {tbl}.{col} not found in schema {self.db_id}"
                    )

    def find_table(self, name: str) -> Table | None:
        wanted = name.lower()
        for table in self.tables:
            if table.name.lower() == wanted:
                return table
        return None

    @property
    def table_items(self) -> list[tuple[str, list[str]]]:
        return [(t.name, t.column_names) for t in self.tables]


@dataclass(frozen=True)
class LinkedSchema:
    """The recalled subset of a schema: ranked tables/columns plus surviving FKs."""

    db_id: str
    tables: tuple[tuple[str, tuple[str, ...]], ...]
    foreign_keys: tuple[FkRelation, ...] = ()

    @property
    def table_items(self) -> list[tuple[str, list[str]]]:
        return [(name, list(cols)) for name, cols in self.tables]


SchemaView = Union[DatabaseSchema, LinkedSchema]


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
    """The JSON value in an input file; a file that is missing, unreadable or
    not JSON is a SpiderFormatError naming it."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SpiderFormatError(f"{path}: malformed JSON at byte offset {exc.pos}: {exc.msg}") from exc
    except (OSError, ValueError) as exc:
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
    column_types = descriptor.get("column_types") or [""] * len(column_pairs)

    columns_per_table: dict[int, list[Column]] = {i: [] for i in range(len(table_names))}
    # Global column index -> (table index, name); index 0 is usually the "*" sentinel.
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
        column_ref[idx] = (table_idx, col_name)
        if table_idx < 0 or col_name == "*":
            continue
        declared = column_types[idx] if idx < len(column_types) else ""
        columns_per_table[table_idx].append(Column(col_name, declared))

    tables = tuple(Table(name, tuple(columns_per_table[i])) for i, name in enumerate(table_names))

    fks = []
    for entry, pair in enumerate(descriptor.get("foreign_keys") or []):
        if not (isinstance(pair, list) and len(pair) == 2):
            raise SpiderFormatError(
                f"{path}: {db_id}: foreign key entry {entry} is not a"
                f" [column index, column index] pair: {pair!r}"
            )
        from_idx, to_idx = pair
        for idx in (from_idx, to_idx):
            if idx not in column_ref or not 0 <= column_ref[idx][0] < len(table_names):
                raise SpiderFormatError(
                    f"{path}: {db_id}: foreign key entry {entry} references"
                    f" dangling column index {idx}"
                )
        from_tbl, from_col = column_ref[from_idx]
        to_tbl, to_col = column_ref[to_idx]
        fks.append(
            FkRelation(table_names[from_tbl], from_col, table_names[to_tbl], to_col)
        )

    sqlite_path = path.parent / "database" / db_id / f"{db_id}.sqlite"
    return DatabaseSchema(db_id, tables, tuple(fks), sqlite_path)


def load_questions(path: Path | str) -> list[Question]:
    """Parse a Spider dev/test question file.

    ``question_id`` defaults to the zero-based record position; ``gold_sql``
    comes from the record's ``query`` field when present. ``question`` and
    ``db_id`` must be non-empty strings, ``query`` and ``difficulty`` strings
    or absent; any other record is a SpiderFormatError naming the file and
    the record's index.
    """
    path = Path(path)
    raw = read_json_file(path)
    if not isinstance(raw, list):
        raise SpiderFormatError(f"{path}: expected a JSON array of question records")

    questions = []
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
        try:
            question = Question(
                question_id=str(record.get("question_id", idx)),
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


def serialize_clear_layout(schema_view: SchemaView) -> str:
    """Render the "#"-prefixed layout: one ``# table ( cols );`` line per table,
    then one ``# t1.c1 = t2.c2`` line per foreign key."""
    items = schema_view.table_items
    if not items:
        raise ValueError("schema view has no tables")
    lines = [format_table_line(name, cols, terminator=";") for name, cols in items]
    lines.extend(format_fk_line(fk) for fk in schema_view.foreign_keys)
    return "\n".join(lines)


COMPLICATED_INSTRUCTION = "Complete sqlite SQL query only and with no explanation."


def serialize_complicated_layout(schema: SchemaView, question: Question) -> str:
    """Render the run-on layout: instruction, question, and ``table : table.col , ...``
    segments joined by " | ", ending with a bare SELECT."""
    segments = [
        f"{name} : " + " , ".join(f"{name}.{col}" for col in cols)
        for name, cols in schema.table_items
    ]
    context = " | ".join(segments)
    return (
        f"{COMPLICATED_INSTRUCTION}\n"
        f"{question.text} Sqlite SQL tables, with their properties: {context}\n"
        "SELECT"
    )
