"""Read-only SQLite execution and result-table equivalence.

Queries run against read-only (``mode=ro``) connections under a per-statement
deadline that SQLite's progress handler checks inside the connection; results
are materialized into ResultTable values whose equivalence semantics (numeric
tolerance, multiset vs sequence comparison) drive both consistency voting and
execution-accuracy scoring. Multiset comparison sorts each table once into
the canonical order ``ResultTable.sorted_rows`` defines: NULL, then numbers
by value, then text by code point, then blobs by byte, cell by cell. Rows
sort by native tuple comparison, and by a typed sort key only when that
comparison meets a column that mixes value classes; the two orders agree.
Near-tolerance floats can sort apart from their tolerance-equal partners,
which changes a verdict only for tables above TOLERANT_MATCH_MAX_ROWS rows.

A connection lives as long as one unit of work: one question's vote, or one
scored gold/predicted pair, runs in one ``readonly`` block, which opens it on
entry (so a missing database raises even if no statement runs) and closes it on
leaving. A bare execute_sql call opens and closes its own for a statement that
runs. Each statement still gets its own full deadline. Connections are
deliberately not cached per thread or process: a measured per-thread cache
kept every database's page cache alive and pushed peak RSS past the
benchmark's bound.
"""

from __future__ import annotations

import re
import sqlite3
import time
from contextlib import closing
from dataclasses import dataclass, replace
from functools import cached_property
from pathlib import Path
from urllib.parse import quote

from .config import PipelineConfig
from .errors import DatabaseMissingError

NUMERIC_TOLERANCE = 1e-6
MAX_RESULT_ROWS = 10_000
# Above this many rows, tables whose sorted rows differ beyond the tolerance are
# not equivalent; the pairwise matching that catches near-tolerance values
# sorting apart is quadratic.
TOLERANT_MATCH_MAX_ROWS = 1000
# SQLite virtual-machine instructions between two deadline checks; a check costs
# one clock read, and 10 000 instructions take well under a millisecond.
PROGRESS_CHECK_OPS = 10_000

# What sqlite3 raises for SQL it cannot prepare or run. Text it cannot take
# raises ProgrammingError (a NUL, a second statement) or UnicodeEncodeError, a
# ValueError (a lone surrogate).
SQL_FAILURES = (sqlite3.Error, ValueError)

STATUS_SUCCESS = "success"
STATUS_ERROR = "error"
STATUS_TIMEOUT = "timeout"
STATUS_OVERFLOW = "overflow"


@dataclass(frozen=True)
class ResultTable:
    """A materialized query result; the unit of equivalence for voting and EX."""

    column_count: int
    rows: tuple[tuple, ...]
    order_sensitive: bool = False

    def __post_init__(self) -> None:
        for row in self.rows:
            if len(row) != self.column_count:
                raise ValueError("row width does not match column_count")

    @cached_property
    def sorted_rows(self) -> tuple[tuple, ...]:
        """Rows in canonical order, the multiset form results_equivalent
        compares; sorted at most once per table.

        The canonical order is ``_row_sort_key``'s: cell by cell, NULL before
        numbers (by value, int 3 == real 3.0) before text (by code point)
        before blobs (by byte). Native tuple comparison gives that order
        whenever it can compare the cells it meets, and it ties only rows
        that are ``==``, so it runs first. When it meets two cells of
        different classes in one column (a NULL and a number, text and a
        number) it raises TypeError, and the table is sorted again by the
        key. Either way the result is element-wise ``==`` to the keyed sort
        of any permutation of the rows.
        """
        try:
            return tuple(sorted(self.rows))
        except TypeError:
            return tuple(sorted(self.rows, key=_row_sort_key))


@dataclass(frozen=True)
class ExecutionOutcome:
    status: str
    table: ResultTable | None = None
    message: str = ""

    @property
    def ok(self) -> bool:
        return self.status == STATUS_SUCCESS


def is_order_sensitive(sql: str) -> bool:
    """True iff ORDER BY appears at subquery depth zero, outside string
    literals, quoted identifiers and comments."""
    return _orders_rows(_depth_zero_tokens(sql))


def _orders_rows(tokens: list[str]) -> bool:
    return any(first == "order" and second == "by" for first, second in zip(tokens, tokens[1:]))


# An unterminated literal, identifier or comment runs to the end of the text;
# characters no alternative matches separate words.
_LEXEME_RE = re.compile(
    r"'[^']*'?"  # string literal
    r'|"[^"]*"?|\[[^\]]*\]?|`[^`]*`?'  # quoted identifiers
    r"|--[^\n]*|/\*.*?(?:\*/|\Z)"  # comments
    r"|(?P<paren>[()])|(?P<word>\w+)",
    re.DOTALL,
)


def _depth_zero_tokens(sql: str) -> list[str]:
    """Lower-cased words outside parentheses, quotes and comments, as SQLite
    reads them."""
    tokens: list[str] = []
    depth = 0
    for match in _LEXEME_RE.finditer(sql):
        kind = match.lastgroup
        if kind == "word":
            if depth == 0:
                tokens.append(match.group().lower())
        elif kind == "paren":
            depth = depth + 1 if match.group() == "(" else max(0, depth - 1)
    return tokens


def connect_readonly(db_path: Path | str) -> sqlite3.Connection:
    """Open a read-only connection; a missing database file is an environment
    fault and raises."""
    db_path = Path(db_path)
    if not db_path.is_file():
        raise DatabaseMissingError(f"database file not found: {db_path}")
    # Autocommit: no statement ever opens a transaction that would outlive it.
    return sqlite3.connect(f"file:{quote(str(db_path))}?mode=ro", uri=True, isolation_level=None)


def readonly(db_path: Path | str) -> closing[sqlite3.Connection]:
    """A read-only connection for the statements of one ``with`` block, which
    closes it on leaving."""
    return closing(connect_readonly(db_path))


def execute_sql(
    db_path: Path | str,
    sql: str,
    timeout: float = PipelineConfig.exec_timeout,
    *,
    connection: sqlite3.Connection | None = None,
) -> ExecutionOutcome:
    """Run one SELECT against the database, materializing the full result set.

    Engine errors and text SQLite cannot take (a NUL character, a lone
    surrogate) become SqlError outcomes, running past ``timeout`` seconds
    becomes Timeout, and anything that is not a SELECT/WITH statement is
    refused. The statement runs on ``connection``, a ``readonly(db_path)``
    connection, if given, else on its own; so a refused statement touches no
    file, and a missing database file, an environment fault, raises only when
    a statement would run.
    """
    tokens = _depth_zero_tokens(sql)
    if not tokens or tokens[0] not in ("select", "with"):
        return ExecutionOutcome(STATUS_ERROR, message="write statement refused")
    order_sensitive = _orders_rows(tokens)
    if connection is None:
        with readonly(db_path) as own:
            return _run_statement(own, sql, timeout, order_sensitive)
    return _run_statement(connection, sql, timeout, order_sensitive)


def _run_statement(
    conn: sqlite3.Connection, sql: str, timeout: float, order_sensitive: bool
) -> ExecutionOutcome:
    deadline = time.monotonic() + timeout
    expired = False

    def past_deadline() -> bool:
        # A true return makes SQLite abort the statement as interrupted.
        nonlocal expired
        expired = time.monotonic() > deadline
        return expired

    conn.set_progress_handler(past_deadline, PROGRESS_CHECK_OPS)
    cursor = conn.cursor()
    try:
        cursor.execute(sql)
        rows = cursor.fetchmany(MAX_RESULT_ROWS + 1)
        if len(rows) > MAX_RESULT_ROWS:
            return ExecutionOutcome(STATUS_OVERFLOW, message=f"result exceeds {MAX_RESULT_ROWS} rows")
        column_count = len(cursor.description) if cursor.description else 0
        table = ResultTable(column_count, tuple(rows), order_sensitive)
        return ExecutionOutcome(STATUS_SUCCESS, table)
    except SQL_FAILURES as exc:
        if expired:
            return ExecutionOutcome(STATUS_TIMEOUT, message="statement interrupted by timeout")
        return ExecutionOutcome(STATUS_ERROR, message=str(exc))
    finally:
        # An overflow leaves the statement mid-fetch; finish it before the
        # connection runs the next one.
        cursor.close()


def cells_equal(a, b) -> bool:
    """Cell equivalence: numbers equal by value as SQLite compares them (int 3
    == real 3.0, inf == inf, inf != -inf), or within 1e-6 absolute tolerance
    when a float with a fraction is involved; everything else by exact
    equality with matching type class."""
    if a is None or b is None:
        return a is None and b is None
    a_num = isinstance(a, (int, float)) and not isinstance(a, bool)
    b_num = isinstance(b, (int, float)) and not isinstance(b, bool)
    if a_num and b_num:
        if a == b:
            return True
        # Two different whole numbers differ by at least 1; through float(),
        # an integer beyond 2**53 would tie with a nearby whole float.
        if (isinstance(a, int) or a.is_integer()) and (isinstance(b, int) or b.is_integer()):
            return False
        difference = abs(float(a) - float(b))
        if difference != NUMERIC_TOLERANCE:
            return difference < NUMERIC_TOLERANCE
        # The subtraction rounds, so a difference just above the tolerance can
        # land on it; decide that rare case exactly (fractions loads on demand).
        from fractions import Fraction

        return abs(Fraction(a) - Fraction(b)) <= Fraction(NUMERIC_TOLERANCE)
    if type(a) is not type(b):
        return False
    return a == b


def _rows_equal(a: tuple, b: tuple) -> bool:
    return len(a) == len(b) and all(cells_equal(x, y) for x, y in zip(a, b))


def _cell_sort_key(cell) -> tuple:
    if cell is None:
        return (0, 0)
    if isinstance(cell, (int, float)) and not isinstance(cell, bool):
        return (1, cell)  # int and float compare exactly
    if isinstance(cell, str):
        return (2, cell)
    return (3, bytes(cell).hex())


def _row_sort_key(row: tuple) -> tuple:
    return tuple(_cell_sort_key(cell) for cell in row)


def results_equivalent(a: ResultTable, b: ResultTable) -> bool:
    """Result equivalence: sequences when either side is order sensitive,
    multisets otherwise, with tolerant cell comparison throughout.

    Multisets of more than TOLERANT_MATCH_MAX_ROWS rows are compared row by row
    after sorting only, so near-tolerance values that sort apart make such
    tables unequal.
    """
    if a.column_count != b.column_count or len(a.rows) != len(b.rows):
        return False
    if a.order_sensitive or b.order_sensitive:
        return a.rows == b.rows or all(_rows_equal(x, y) for x, y in zip(a.rows, b.rows))
    left = a.sorted_rows
    right = b.sorted_rows
    # Fast path: exact multiset equality (Python already unifies 3 and 3.0).
    if left == right or all(_rows_equal(x, y) for x, y in zip(left, right)):
        return True
    # Near-tolerance values can sort apart; fall back to explicit matching.
    if len(left) > TOLERANT_MATCH_MAX_ROWS:
        return False
    remaining = list(right)
    for row in left:
        for i, other in enumerate(remaining):
            if _rows_equal(row, other):
                del remaining[i]
                break
        else:
            return False
    return True


def with_order_sensitivity(table: ResultTable, order_sensitive: bool) -> ResultTable:
    if table.order_sensitive == order_sensitive:
        return table
    return replace(table, order_sensitive=order_sensitive)
