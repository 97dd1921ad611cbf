from __future__ import annotations

import random
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from text2sql import executor
from text2sql.errors import DatabaseMissingError
from text2sql.executor import ReadOnlyConnection, execute_sql
from text2sql.evaluation import (
    EvalRecord,
    build_report,
    execution_accuracy,
    gold_schema_items,
    pairwise_auc,
    recall_auc,
    render_report,
    score_outcome,
    score_pair,
)
from text2sql.linking import RecallScores


def test_gold_vs_gold_is_perfect(questions, catalog):
    records = [
        (q.question_id, q.gold_sql, q.gold_sql, catalog[q.db_id].sqlite_path, q.difficulty)
        for q in questions
    ]
    scored = execution_accuracy(records)
    report = build_report(scored)
    assert report.overall_ex == 1.0
    assert report.counts["match"] == len(questions)


def test_two_of_four_matches(concert_db):
    good = "SELECT count(*) FROM singer"
    bad = "SELECT count(*) FROM stadium"
    records = [
        ("0", good, good, concert_db, None),
        ("1", bad, good, concert_db, None),
        ("2", good, good, concert_db, None),
        ("3", bad, good, concert_db, None),
    ]
    report = build_report(execution_accuracy(records))
    assert report.overall_ex == 0.5


def test_qualified_and_bare_column_match(concert_db):
    assert score_pair("SELECT singer.name FROM singer", "SELECT name FROM singer", concert_db) == "match"


def test_pred_error_and_gold_error_outcomes(concert_db):
    assert score_pair("SELECT * FROM ghost", "SELECT 1", concert_db) == "pred_error"
    assert score_pair("SELECT 1", "SELECT * FROM ghost", concert_db) == "gold_error"


def test_gold_order_sensitivity_governs(concert_db):
    ordered_gold = "SELECT name FROM singer ORDER BY age"
    permuted = "SELECT name FROM singer ORDER BY age DESC"
    assert score_pair(permuted, ordered_gold, concert_db) == "mismatch"
    unordered_gold = "SELECT name FROM singer"
    assert score_pair(permuted, unordered_gold, concert_db) == "match"


SCORED_POOL = [
    "SELECT count(*) FROM singer",
    "SELECT count(singer_id) FROM singer",
    "SELECT name FROM singer ORDER BY age",
    "SELECT name FROM singer ORDER BY age DESC",
    "SELECT name FROM singer",
    "SELECT age FROM singer",
    "SELECT age + 0.0000001 FROM singer",
    "SELECT * FROM ghost",
    "DELETE FROM singer",
]


@pytest.mark.parametrize("gold", SCORED_POOL)
def test_score_table_agrees_with_score_pair(concert_db, gold, opened_connections):
    # score_outcome compares outcomes from runs already made; with
    # deterministic queries it must give score_pair's verdict.
    gold_outcome = execute_sql(concert_db, gold)
    for predicted in SCORED_POOL:
        table = execute_sql(concert_db, predicted).table
        opened = len(opened_connections)
        verdict = score_outcome(gold_outcome, table)
        # Nothing runs: the comparison opens no connection.
        assert len(opened_connections) == opened
        assert verdict == score_pair(predicted, gold, concert_db), (predicted, gold)


def test_score_pair_opens_one_connection(concert_db, tmp_path, opened_connections):
    assert score_pair("SELECT count(singer_id) FROM singer", "SELECT count(*) FROM singer",
                      concert_db) == "match"
    assert len(opened_connections) == 1
    assert score_pair("SELECT * FROM ghost", "SELECT 1", concert_db) == "pred_error"
    assert score_pair("SELECT 1", "SELECT * FROM ghost", concert_db) == "gold_error"
    assert len(opened_connections) == 3
    for conn in opened_connections:
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            conn.execute("SELECT 1")
    # A refused gold query runs nothing, so it opens nothing, even for a
    # missing database; a runnable one needs the database.
    missing = tmp_path / "missing.sqlite"
    assert score_pair("SELECT 1", "DELETE FROM singer", missing) == "gold_error"
    assert len(opened_connections) == 3
    with pytest.raises(DatabaseMissingError):
        score_pair("SELECT 1", "SELECT 1", missing)


def test_score_pair_tokenizes_each_query_once(concert_db, monkeypatch):
    # The gold table's order sensitivity comes from the executor's own scan.
    scanned = []
    scan = executor._depth_zero_tokens

    def counting_scan(sql):
        scanned.append(sql)
        return scan(sql)

    monkeypatch.setattr(executor, "_depth_zero_tokens", counting_scan)
    gold = "SELECT name FROM singer ORDER BY age"
    assert score_pair("SELECT name FROM singer ORDER BY age DESC", gold, concert_db) == "mismatch"
    assert sorted(scanned) == sorted([gold, "SELECT name FROM singer ORDER BY age DESC"])


_SINGER_COLUMNS = ("singer_id", "name", "country", "song_name", "song_release_year", "age",
                   "is_male")
_MAKERS_JOIN = "FROM car_makers JOIN model_list ON model_list.maker = car_makers.id"
_NAME = {("singer", "name")}


@pytest.mark.parametrize(
    "db, gold, expected",
    [
        pytest.param(
            "concert_db", "SELECT count(*) FROM singer", ({"singer"}, set()), id="count_star"
        ),
        pytest.param("concert_db", "SELECT T1.name FROM singer AS T1", ({"singer"}, _NAME),
                     id="alias"),
        pytest.param(
            "car_db",
            f"SELECT car_makers.maker {_MAKERS_JOIN}",
            (
                {"car_makers", "model_list"},
                {("car_makers", "maker"), ("car_makers", "id"), ("model_list", "maker")},
            ),
            id="join",
        ),
        pytest.param(
            "concert_db",
            "SELECT name FROM stadium WHERE location = 'singer age'",
            ({"stadium"}, {("stadium", "name"), ("stadium", "location")}),
            id="string_literal",
        ),
        pytest.param(
            "concert_db",
            "SELECT * FROM singer",
            ({"singer"}, {("singer", column) for column in _SINGER_COLUMNS}),
            id="star",
        ),
        pytest.param("concert_db", "SELECT T1.name FROM singer T1", ({"singer"}, _NAME),
                     id="alias_without_as"),
        pytest.param("concert_db", "SELECT name FROM singer -- stadium capacity",
                     ({"singer"}, _NAME), id="comment"),
        pytest.param(
            "concert_db",
            "WITH young AS (SELECT name, age FROM singer) SELECT name FROM young WHERE age < 30",
            ({"singer"}, {("singer", "name"), ("singer", "age")}),
            id="cte",
        ),
        pytest.param("concert_db", "SELECT n FROM (SELECT name AS n FROM singer) AS d",
                     ({"singer"}, _NAME), id="derived_table"),
        pytest.param("concert_db", 'SELECT "name" FROM "singer"', ({"singer"}, _NAME),
                     id="quoted_identifier"),
        # None: SQLite cannot prepare the query.
        pytest.param("concert_db", "SELECT ghost_col FROM ghost_table JOIN singer", None,
                     id="ghost_table"),
        # Both tables have a maker column, and SQLite refuses the bare name.
        pytest.param("car_db", f"SELECT maker {_MAKERS_JOIN}", None, id="ambiguous_column"),
        pytest.param("concert_db", "SELECT 1; DELETE FROM singer", None, id="two_statements"),
        pytest.param("concert_db", "SELECT name FROM singer\x00", None, id="nul"),
        pytest.param("concert_db", "SELECT name FROM singer WHERE name = '\ud800'", None,
                     id="lone_surrogate"),
    ],
)
def test_gold_schema_items(request, db, gold, expected):
    # Each gold query is asked for twice on one connection: sqlite3 serves a
    # repeated text from its statement cache, and the reads must be recorded
    # again all the same.
    with ReadOnlyConnection(request.getfixturevalue(db)) as connection:
        assert gold_schema_items(gold, connection) == expected
        assert gold_schema_items(gold, connection) == expected


def test_auc_perfect_separation():
    assert pairwise_auc([(0.9, True), (0.8, True), (0.1, False)]) == 1.0


def test_auc_reversed_is_zero():
    assert pairwise_auc([(0.1, True), (0.9, False)]) == 0.0


def test_auc_all_tied_is_half():
    assert pairwise_auc([(0.5, True), (0.5, False), (0.5, True), (0.5, False)]) == 0.5


def test_auc_degenerate_class_is_none():
    assert pairwise_auc([(0.5, True)]) is None
    assert pairwise_auc([(0.5, False), (0.1, False)]) is None
    assert pairwise_auc([]) is None


def _auc_oracle(scored):
    positives = [s for s, g in scored if g]
    negatives = [s for s, g in scored if not g]
    if not positives or not negatives:
        return None
    wins = 0.0
    for p in positives:
        for n in negatives:
            if p > n:
                wins += 1.0
            elif p == n:
                wins += 0.5
    return wins / (len(positives) * len(negatives))


def test_auc_matches_pairwise_oracle_randomized():
    rng = random.Random(123)
    for _ in range(300):
        size = rng.randint(2, 12)
        scored = [
            (rng.choice([0.0, 0.1, 0.25, 0.5, 0.5, 0.75, 1.0]), rng.random() < 0.5)
            for _ in range(size)
        ]
        expected = _auc_oracle(scored)
        got = pairwise_auc(scored)
        if expected is None:
            assert got is None
        else:
            assert got == pytest.approx(expected, abs=1e-12)


# Scores on a coarse grid so the affine transform stays strictly monotone in
# floating point (tiny magnitudes would collapse into new ties otherwise).
@settings(max_examples=200)
@given(
    scores=st.lists(
        st.tuples(st.sampled_from([i / 64 for i in range(65)]), st.booleans()),
        min_size=2,
        max_size=20,
    )
)
def test_auc_invariant_under_monotone_transform(scores):
    base = pairwise_auc(scores)
    transformed = [(3.0 * s + 1.0, g) for s, g in scores]
    assert pairwise_auc(transformed) == base


def test_recall_auc_pools_across_questions():
    scores_a = RecallScores({"t": 1.0, "u": 0.0}, {("t", "a"): 1.0, ("t", "b"): 0.2})
    scores_b = RecallScores({"t": 0.5, "u": 0.5}, {("t", "a"): 0.6, ("t", "b"): 0.6})
    per_question = [
        (scores_a, {"t"}, {("t", "a")}),
        (scores_b, {"u"}, {("t", "b")}),
    ]
    pooled_tables = [(1.0, True), (0.0, False), (0.5, False), (0.5, True)]
    pooled_columns = [(1.0, True), (0.2, False), (0.6, False), (0.6, True)]
    table_auc, column_auc = recall_auc(per_question)
    assert table_auc == pytest.approx(_auc_oracle(pooled_tables))
    assert column_auc == pytest.approx(_auc_oracle(pooled_columns))


def test_render_empty_report_shows_na():
    report = build_report([])
    text = render_report(report, "text").decode()
    assert "n/a" in text
    assert "questions" in text
    json_bytes = render_report(report, "json")
    assert b'"overall_ex": null' in json_bytes


def test_render_deterministic():
    records = [EvalRecord("0", "a", "b", "match", "easy")]
    report = build_report(records, table_auc=0.9, column_auc=0.8)
    assert render_report(report, "json") == render_report(report, "json")
    assert render_report(report, "text") == render_report(report, "text")


def test_report_difficulty_breakdown():
    records = [
        EvalRecord("0", "", "", "match", "easy"),
        EvalRecord("1", "", "", "mismatch", "easy"),
        EvalRecord("2", "", "", "match", "hard"),
    ]
    report = build_report(records)
    assert report.per_difficulty_ex == {"easy": 0.5, "hard": 1.0}
    assert report.overall_ex == pytest.approx(2 / 3)
