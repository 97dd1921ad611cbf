from __future__ import annotations

import hashlib
import random
import sqlite3
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from text2sql.errors import DatabaseMissingError
from text2sql.executor import (
    MAX_RESULT_ROWS,
    STATUS_SUCCESS,
    STATUS_ERROR,
    STATUS_OVERFLOW,
    STATUS_TIMEOUT,
    TOLERANT_MATCH_MAX_ROWS,
    ReadOnlyConnection,
    ResultTable,
    _row_sort_key,
    _rows_equal,
    cells_equal,
    execute_sql,
    is_order_sensitive,
    results_equivalent,
    with_order_sensitivity,
)


def test_count_singers(concert_db):
    outcome = execute_sql(concert_db, "SELECT count(*) FROM singer")
    assert outcome.ok
    assert outcome.table.rows == ((6,),)


def test_missing_table_is_sql_error(concert_db):
    outcome = execute_sql(concert_db, "SELECT * FROM no_such_table")
    assert outcome.status == STATUS_ERROR
    assert "no_such_table" in outcome.message


def test_empty_result_is_success(concert_db):
    outcome = execute_sql(concert_db, "SELECT 1 WHERE 1=0")
    assert outcome.ok
    assert outcome.table.rows == ()
    assert outcome.table.column_count == 1


def test_write_statement_refused(concert_db):
    outcome = execute_sql(concert_db, "INSERT INTO singer VALUES (9, 'x', 'y', 'z', 'w', 1, 1)")
    assert outcome.status == STATUS_ERROR
    assert outcome.message == "write statement refused"
    outcome = execute_sql(concert_db, "/* c */ DELETE FROM singer")
    assert outcome.message == "write statement refused"


def test_missing_database_is_environment_error(tmp_path):
    with pytest.raises(DatabaseMissingError):
        execute_sql(tmp_path / "nope.sqlite", "SELECT 1")


def test_refused_statement_needs_no_database(tmp_path):
    outcome = execute_sql(tmp_path / "nope.sqlite", "DELETE FROM singer")
    assert outcome.message == "write statement refused"


def test_shared_connection_releases_overflowed_statement(tmp_path):
    # A statement left mid-fetch would hold its read lock, and the writer's
    # commit would fail with "database is locked".
    db = tmp_path / "big.sqlite"
    writer = sqlite3.connect(db, timeout=0)
    try:
        writer.execute("CREATE TABLE t (a)")
        writer.executemany("INSERT INTO t VALUES (?)", [(i,) for i in range(2 * MAX_RESULT_ROWS)])
        writer.commit()
        with ReadOnlyConnection(db) as connection:
            outcome = execute_sql(db, "SELECT a FROM t", connection=connection)
            assert outcome.status == STATUS_OVERFLOW
            writer.execute("DELETE FROM t WHERE a > 0")
            writer.commit()
            outcome = execute_sql(db, "SELECT a FROM t", connection=connection)
            assert outcome.status == STATUS_SUCCESS
            assert outcome.table.rows == ((0,),)
    finally:
        writer.close()


def test_timeout_interrupts_runaway_query(concert_db):
    runaway = (
        "WITH RECURSIVE r(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM r) "
        "SELECT count(*) FROM r"
    )
    # The deadline is checked inside the connection: sample the thread count
    # while the query runs and expect no watchdog thread to appear.
    counts = []
    done = threading.Event()

    def sample():
        while not done.is_set():
            counts.append(threading.active_count())
            done.wait(0.005)

    sampler = threading.Thread(target=sample)
    sampler.start()
    baseline = threading.active_count()
    try:
        outcome = execute_sql(concert_db, runaway, timeout=0.2)
    finally:
        done.set()
        sampler.join(timeout=5)
    assert not sampler.is_alive()
    assert outcome.status == STATUS_TIMEOUT
    assert len(counts) > 1 and max(counts) <= baseline
    assert execute_sql(concert_db, "SELECT count(*) FROM singer").table.rows == ((6,),)


def test_row_cap_overflow_is_distinct_outcome(concert_db):
    # 6^5 = 7776 rows is fine; 6^6 = 46656 overflows the cap.
    big = "SELECT 1 FROM singer a, singer b, singer c, singer d, singer e, singer f"
    outcome = execute_sql(concert_db, big)
    assert outcome.status == STATUS_OVERFLOW
    assert str(MAX_RESULT_ROWS) in outcome.message


def test_execution_does_not_mutate_database(concert_db):
    before = hashlib.sha256(concert_db.read_bytes()).hexdigest()
    statements = [
        "SELECT * FROM singer",
        "DELETE FROM singer",  # refused before reaching the engine
        "SELECT count(*) FROM concert JOIN stadium ON concert.stadium_id = stadium.stadium_id",
        "UPDATE singer SET age = 1",
        "SELECT name FROM stadium ORDER BY capacity",
    ]
    for sql in statements:
        execute_sql(concert_db, sql)
    assert hashlib.sha256(concert_db.read_bytes()).hexdigest() == before


def test_readonly_guard_even_for_with_prefixed_writes(tmp_path):
    # WITH passes the statement filter; the read-only connection must refuse it.
    db = tmp_path / "w.sqlite"
    conn = sqlite3.connect(db)
    conn.execute("CREATE TABLE t (a)")
    conn.execute("INSERT INTO t VALUES (1)")
    conn.commit()
    conn.close()
    outcome = execute_sql(db, "WITH x(v) AS (SELECT 2) INSERT INTO t SELECT v FROM x")
    assert outcome.status == STATUS_ERROR


def test_multiset_equivalence_ignores_order():
    a = ResultTable(1, ((1,), (2,)))
    b = ResultTable(1, ((2,), (1,)))
    assert results_equivalent(a, b)


def test_order_sensitive_comparison_respects_sequence():
    a = ResultTable(1, ((1,), (2,)), order_sensitive=True)
    b = ResultTable(1, ((2,), (1,)))
    assert not results_equivalent(a, b)


def test_integer_matches_real_within_tolerance():
    # Independent check of the cell rule first, then through the table path.
    assert abs(3 - 3.0) <= 1e-6
    assert cells_equal(3, 3.0)
    assert results_equivalent(ResultTable(1, ((3,),)), ResultTable(1, ((3.0,),)))
    assert not results_equivalent(ResultTable(1, ((3,),)), ResultTable(1, ((3.1,),)))


def test_column_count_mismatch_never_equivalent():
    assert not results_equivalent(ResultTable(1, ((1,),)), ResultTable(2, ((1, 1),)))


def test_text_and_number_cells_differ():
    assert not cells_equal("3", 3)
    assert cells_equal(None, None)
    assert not cells_equal(None, 0)


def test_infinities_equal_themselves_and_not_each_other(concert_db):
    # SQLite returns inf for a REAL literal past the double range; inf - inf is
    # NaN, so equal numbers must be equal before the tolerance test.
    tables = {}
    for name, sql in (("inf", "SELECT 1e999"), ("-inf", "SELECT -1e999"),
                      ("inf, 0.5", "SELECT 1e999 UNION ALL SELECT 0.5"),
                      ("inf, 0.5 + 5e-7", "SELECT 0.5000005 UNION ALL SELECT 1e999")):
        outcome = execute_sql(concert_db, sql)
        assert outcome.ok, sql
        tables[name] = outcome.table
    assert tables["inf"].rows == ((float("inf"),),)
    assert tables["-inf"].rows == ((float("-inf"),),)
    for order_sensitive in (False, True):
        inf, neg_inf = (
            with_order_sensitivity(tables[name], order_sensitive) for name in ("inf", "-inf")
        )
        assert results_equivalent(inf, inf)
        assert results_equivalent(neg_inf, neg_inf)
        assert not results_equivalent(inf, neg_inf)
        assert not results_equivalent(neg_inf, inf)
    # The sorted rows differ within the tolerance, so the cells are compared.
    assert results_equivalent(tables["inf, 0.5"], tables["inf, 0.5 + 5e-7"])
    assert not cells_equal(float("inf"), float("-inf"))


def test_unencodable_sql_is_sql_error(concert_db):
    with ReadOnlyConnection(concert_db) as connection:
        for sql in ("SELECT '\ud800'", "SELECT 1\x00", "SELECT 1; DELETE FROM singer"):
            outcome = execute_sql(concert_db, sql, connection=connection)
            assert outcome.status == STATUS_ERROR, sql
        # The shared connection still serves the next statement.
        assert execute_sql(concert_db, "SELECT 1", connection=connection).table.rows == ((1,),)


def test_near_tolerance_rows_match_across_sort_order():
    # Sorting can split near-equal floats; the matching fallback must catch this.
    a = ResultTable(2, ((1.0, "a"), (1.0 + 5e-7, "b")))
    b = ResultTable(2, ((1.0 + 5e-7, "b"), (1.0, "a")))
    assert results_equivalent(a, b)
    # Here the tolerance-equal rows sort apart, (1.0, "b") first on one side and
    # (1.0, "a") on the other; the matching runs only up to the row cutoff.
    swap_a = ((1.0, "b"), (1.0 + 5e-7, "a"))
    swap_b = ((1.0 + 5e-7, "b"), (1.0, "a"))
    for total, expected in ((TOLERANT_MATCH_MAX_ROWS, True), (TOLERANT_MATCH_MAX_ROWS + 1, False)):
        padding = ((0.0, "pad"),) * (total - 2)
        assert results_equivalent(
            ResultTable(2, padding + swap_a), ResultTable(2, swap_b + padding)
        ) is expected, total
    assert TOLERANT_MATCH_MAX_ROWS == 1000


def test_order_by_detected_at_top_level():
    assert is_order_sensitive("SELECT a FROM t ORDER BY a")
    assert is_order_sensitive("select a from t order\n by a")


def test_order_by_in_subquery_ignored():
    assert not is_order_sensitive("SELECT a FROM (SELECT a FROM t ORDER BY a) LIMIT 1")


def test_order_by_inside_literal_ignored():
    assert not is_order_sensitive("SELECT 'order by' FROM t")
    assert not is_order_sensitive('SELECT "order by" FROM t')
    assert not is_order_sensitive("SELECT name FROM singer -- order by age")
    assert not is_order_sensitive("SELECT [order by] FROM t")
    assert not is_order_sensitive("SELECT `order` FROM t /* order by x */")


def _oracle_order_sensitive(sql: str) -> bool:
    # Character-level reference: blank literals, quoted identifiers and
    # comments, then walk chars tracking depth.
    closers = {"'": "'", '"': '"', "[": "]", "`": "`", "--": "\n", "/*": "*/"}
    chars = []
    closer = None
    i = 0
    while i < len(sql):
        if closer is not None:
            if sql.startswith(closer, i):
                chars.append(" " * len(closer))
                i += len(closer)
                closer = None
            else:
                chars.append(" ")
                i += 1
            continue
        opener = next((o for o in closers if sql.startswith(o, i)), None)
        if opener is not None:
            closer = closers[opener]
            chars.append(" " * len(opener))
            i += len(opener)
        else:
            chars.append(sql[i])
            i += 1
    cleaned = "".join(chars)
    depth = 0
    lowered = cleaned.lower()
    i = 0
    while i < len(lowered):
        ch = lowered[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        elif depth == 0 and lowered.startswith("order", i):
            before_ok = i == 0 or not (lowered[i - 1].isalnum() or lowered[i - 1] == "_")
            j = i + 5
            while j < len(lowered) and lowered[j].isspace():
                j += 1
            if before_ok and lowered.startswith("by", j):
                after = j + 2
                after_ok = after >= len(lowered) or not (
                    lowered[after].isalnum() or lowered[after] == "_"
                )
                if j > i + 5 and after_ok:
                    return True
        i += 1
    return False


def test_order_scan_agrees_with_character_oracle():
    rng = random.Random(7)
    pieces = [
        "SELECT a FROM t",
        " ORDER BY a",
        " WHERE b = 'order by'",
        " (SELECT c FROM u ORDER BY c)",
        " GROUP BY a",
        ' "order by"',
        " [order by]",
        " `order` BY x",
        " -- order by a\n",
        " -- (",
        " /* order by ( */",
        " LIMIT 5",
        " JOIN u ON t.a = u.a",
    ]
    for _ in range(500):
        sql = "SELECT x FROM t" + "".join(
            rng.choice(pieces) for _ in range(rng.randint(0, 4))
        )
        assert is_order_sensitive(sql) == _oracle_order_sensitive(sql), sql


# Statement parts over concert_singer. Every source and select list gives two
# columns, so any two cores make a compound; each part may hide "order by" in a
# literal, a quoted identifier, a comment, a subquery, a CTE or a window, none
# of which orders the statement's rows.
_ORDER_SOURCES = [
    "singer",
    "(SELECT name, age FROM singer ORDER BY age) AS s",
    "(SELECT name, age FROM singer WHERE name <> ') order by (') AS s",
    "s",  # a CTE
]
_ORDER_CTES = [
    "WITH s AS (SELECT name, age FROM singer ORDER BY age) ",
    'WITH "order by" AS (SELECT 1), s AS (SELECT name, age FROM singer) ',
]
_ORDER_SELECT_LISTS = [
    "name, age",
    'name AS "order by", age',
    "name AS [order by], age",
    "name AS `order by`, age",
    "'order by' AS x, age",
    "name, row_number() OVER (ORDER BY age)",
    "name, (SELECT max(capacity) FROM stadium ORDER BY 1 LIMIT 1)",
]
_ORDER_FILTERS = [
    "",
    " WHERE name <> 'x order by y'",
    " WHERE age IN (SELECT age FROM singer ORDER BY age)",
    " /* order by ( */",
    " -- order by age\n",
]
_ORDER_COMPOUNDS = [" UNION ", " UNION ALL ", " EXCEPT ", " INTERSECT "]
_ORDER_TAILS = [" ORDER BY 2", " order\n by 1 DESC", " ORDER /* by */ BY 2, 1", " ORDER BY 1 LIMIT 3"]


@st.composite
def _sql_with_known_order(draw):
    """A statement over concert_singer and whether it orders its rows: a
    top-level ORDER BY comes only from the drawn tail."""

    sources = []

    def core():
        select_list = draw(st.sampled_from(_ORDER_SELECT_LISTS))
        sources.append(draw(st.sampled_from(_ORDER_SOURCES)))
        return f"SELECT {select_list} FROM {sources[-1]}{draw(st.sampled_from(_ORDER_FILTERS))}"

    body = core()
    for _ in range(draw(st.integers(0, 2))):
        body += draw(st.sampled_from(_ORDER_COMPOUNDS)) + core()
    with_cte = "s" in sources or draw(st.booleans())
    cte = draw(st.sampled_from(_ORDER_CTES)) if with_cte else ""
    ordered = draw(st.booleans())
    tail = draw(st.sampled_from(_ORDER_TAILS)) if ordered else draw(st.sampled_from(["", " LIMIT 3"]))
    return cte + body + tail, ordered


@settings(max_examples=300, deadline=None)
@given(_sql_with_known_order())
def test_order_scan_matches_composed_statements(concert_db, case):
    sql, ordered = case
    with ReadOnlyConnection(concert_db) as connection:
        connection.get().execute("EXPLAIN " + sql).close()
    assert is_order_sensitive(sql) is ordered, sql


# Any value SQLite hands back: its text holds no lone surrogate, and it turns
# NaN into NULL.
_sqlite_values = st.one_of(
    st.none(),
    st.integers(-(2**63), 2**63 - 1),
    st.floats(allow_nan=False),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=3),
    st.binary(max_size=3),
)


def _equal_variant(cell):
    # The value of the other numeric type that == takes as equal, if any.
    if isinstance(cell, int) and float(cell) == cell:
        return float(cell)
    if isinstance(cell, float) and cell.is_integer():
        return int(cell)
    return cell


@st.composite
def _order_sensitive_pairs(draw):
    width = draw(st.integers(1, 3))
    rows = [tuple(draw(_sqlite_values) for _ in range(width)) for _ in range(draw(st.integers(0, 4)))]
    other = [tuple(_equal_variant(c) if draw(st.booleans()) else c for c in row) for row in rows]
    if other and draw(st.booleans()):
        other[draw(st.integers(0, len(other) - 1))] = tuple(
            draw(_sqlite_values) for _ in range(width)
        )
    return ResultTable(width, tuple(rows), True), ResultTable(width, tuple(other), True)


@settings(max_examples=300)
@given(_order_sensitive_pairs())
def test_tuple_equality_implies_tolerant_verdict(pair):
    # The order-sensitive comparison tries tuple == before the cell-by-cell
    # tolerant one; it must never say equal where the tolerant one would not.
    a, b = pair
    tolerant = all(_rows_equal(x, y) for x, y in zip(a.rows, b.rows))
    if a.rows == b.rows:
        assert tolerant
    assert results_equivalent(a, b) is tolerant


# Cells drawn from a grid spaced far beyond the tolerance, so that tolerant
# equality behaves as a true equivalence relation on generated data.
_cells = st.one_of(
    st.none(),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([0.0, 0.5, 1.5, -2.5, 10.0]),
    st.sampled_from(["a", "b", "c"]),
)


@st.composite
def _table_triples(draw):
    # One sensitivity mode per comparison triple: the relation is an
    # equivalence only under a fixed pair-wise comparison mode.
    order_sensitive = draw(st.booleans())
    width = draw(st.integers(min_value=1, max_value=3))
    tables = []
    for _ in range(3):
        height = draw(st.integers(min_value=0, max_value=4))
        rows = tuple(tuple(draw(_cells) for _ in range(width)) for _ in range(height))
        tables.append(ResultTable(width, rows, order_sensitive=order_sensitive))
    return tables


@settings(max_examples=300)
@given(_table_triples())
def test_equivalence_relation_properties(triple):
    a, b, c = triple
    assert results_equivalent(a, a)
    assert results_equivalent(a, b) == results_equivalent(b, a)
    if results_equivalent(a, b) and results_equivalent(b, c):
        assert results_equivalent(a, c)


def _keyed(table: ResultTable) -> ResultTable:
    """A copy of ``table`` whose canonical order comes from the typed sort key
    alone: the reference the native-first sort must agree with."""
    copy = ResultTable(table.column_count, table.rows, table.order_sensitive)
    copy.__dict__["sorted_rows"] = tuple(sorted(table.rows, key=_row_sort_key))
    return copy


def test_nulls_among_numbers_sort_by_key():
    rows = ((3, "c"), (None, "n"), (1.5, "b"), (None, "a"), (-2, "z"), (1.5, "a"))
    with pytest.raises(TypeError):
        sorted(rows)
    assert ResultTable(2, rows).sorted_rows == (
        (None, "a"), (None, "n"), (-2, "z"), (1.5, "a"), (1.5, "b"), (3, "c"),
    )


def test_text_among_numbers_sorts_by_key():
    rows = (("10",), (9,), (b"\x01",), ("9",), (10.0,), (None,), (b"\x00\xff",))
    with pytest.raises(TypeError):
        sorted(rows)
    assert ResultTable(1, rows).sorted_rows == (
        (None,), (9,), (10.0,), ("10",), ("9",), (b"\x00\xff",), (b"\x01",),
    )


def test_native_sort_failing_late_falls_back_to_key():
    # Ascending rows up to a last pair whose second cells mix classes: the
    # native sort compares every earlier neighbour before it raises.
    n = 2 * TOLERANT_MATCH_MAX_ROWS
    rows = tuple((i, i) for i in range(n)) + ((n, 7), (n, None))
    comparisons = 0

    class CountingRow(tuple):
        def __lt__(self, other):
            nonlocal comparisons
            comparisons += 1
            return tuple.__lt__(self, other)

    with pytest.raises(TypeError):
        sorted(map(CountingRow, rows))
    assert comparisons >= n
    expected = rows[:n] + ((n, None), (n, 7))
    assert ResultTable(2, rows).sorted_rows == expected
    shuffled = list(rows)
    random.Random(3).shuffle(shuffled)
    table = ResultTable(2, tuple(shuffled))
    assert table.sorted_rows == expected
    assert results_equivalent(table, ResultTable(2, rows))


# Integers stay within 2**53 in magnitude, where the key's float conversion
# is exact; some floats come in near-tolerance pairs (x, x + 5e-7).
_near = [0.0, 1.0, -2.5, 1e6, 123.456]
_cell_kinds = {
    "int": st.one_of(st.integers(-3, 3), st.integers(-(2**53), 2**53)),
    "float": st.one_of(
        st.sampled_from(_near + [x + 5e-7 for x in _near]),
        st.floats(allow_nan=False),
    ),
    "text": st.text(st.characters(blacklist_categories=("Cs",)), max_size=3),
    "blob": st.binary(max_size=3),
}
_cell_kinds["number"] = st.one_of(_cell_kinds["int"], _cell_kinds["float"])
_cell_kinds["any"] = st.one_of(st.none(), *_cell_kinds.values())


def _tweaked(draw, cell, kind):
    # A cell the comparison may or may not treat as equal: the same value as
    # another numeric type, a near-tolerance neighbour, or a fresh draw.
    choice = draw(st.integers(0, 3))
    if choice == 1 and isinstance(cell, int):
        return float(cell)
    if choice == 2 and isinstance(cell, float):
        return cell + 5e-7
    if choice == 3:
        return draw(_cell_kinds[kind])
    return cell


@st.composite
def _table_pairs(draw):
    # Column kinds decide whether the native sort can succeed: a single-class
    # column sorts natively, an "any" column usually mixes classes.
    kinds = draw(st.lists(st.sampled_from(sorted(_cell_kinds)), min_size=1, max_size=3))
    width = len(kinds)

    def row():
        return tuple(draw(_cell_kinds[kind]) for kind in kinds)

    rows = [row() for _ in range(draw(st.integers(0, 6)))]
    other = [tuple(_tweaked(draw, cell, kind) for cell, kind in zip(r, kinds)) for r in rows]
    other = draw(st.permutations(other))
    if draw(st.booleans()):
        # Pad both sides to just above the tolerant-matching cutoff, on
        # opposite ends, so the sorted rows alone decide the verdict.
        padding = [row()] * (TOLERANT_MATCH_MAX_ROWS + 1 - len(rows))
        rows, other = padding + rows, list(other) + padding
    order_sensitive = draw(st.booleans())
    return (
        ResultTable(width, tuple(rows), order_sensitive=order_sensitive),
        ResultTable(width, tuple(other), order_sensitive=order_sensitive),
    )


@settings(max_examples=300, deadline=None)
@given(_table_pairs(), st.integers(0, 2**32))
def test_native_first_sort_keeps_keyed_verdict(pair, seed):
    a, b = pair
    keyed_a, keyed_b = _keyed(a), _keyed(b)
    assert results_equivalent(a, b) == results_equivalent(keyed_a, keyed_b)
    for table, keyed in ((a, keyed_a), (b, keyed_b)):
        permuted = list(table.rows)
        random.Random(seed).shuffle(permuted)
        assert table.sorted_rows == keyed.sorted_rows
        assert ResultTable(table.column_count, tuple(permuted)).sorted_rows == keyed.sorted_rows
