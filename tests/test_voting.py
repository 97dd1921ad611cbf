from __future__ import annotations

import dataclasses
import random
import sqlite3

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from text2sql import executor, voting
from text2sql.catalog import DatabaseSchema, Question
from text2sql.errors import DatabaseMissingError
from text2sql.evaluation import OUTCOME_GOLD_ERROR, OUTCOME_MATCH, score_outcome
from text2sql.executor import (
    STATUS_ERROR,
    STATUS_OVERFLOW,
    STATUS_TIMEOUT,
    execute_sql,
    results_equivalent,
)
from text2sql.gateway import ChatCompletion
from text2sql.config import PipelineConfig
from text2sql.voting import (
    DISCARD_OVERFLOW,
    DISCARD_SQL_ERROR,
    DISCARD_TIMEOUT,
    DISCARD_UNPARSEABLE,
    ExecutionCluster,
    SqlCandidate,
    cluster_by_execution,
    generate_sql,
    postprocess_completion,
    select_final,
)

from test_acceptance import CONCERT_POOL

# 6^6 = 46656 rows is past the executor's row cap.
CROSS_JOIN = "SELECT 1 FROM singer a, singer b, singer c, singer d, singer e, singer f"
RUNAWAY = (
    "WITH RECURSIVE r(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM r) SELECT count(*) FROM r"
)
# Runs for many progress-handler periods but well inside any deadline used here.
BOUNDED_RECURSION = (
    "WITH RECURSIVE r(i) AS (SELECT 1 UNION ALL SELECT i + 1 FROM r WHERE i < 20000) "
    "SELECT count(*) FROM r"
)
# The acceptance pool plus an overflow and a multi-statement error, so that
# the one connection a vote shares is also used after each of those.
VOTE_POOL = CONCERT_POOL + [CROSS_JOIN, "SELECT 1; DELETE FROM singer"]


def test_postprocess_continuation_gets_select_prefix():
    candidate = postprocess_completion(" count(*) FROM singer", 0)
    assert candidate.text == "SELECT count(*) FROM singer"
    assert not candidate.unparseable


def test_postprocess_strips_fences_and_semicolon():
    candidate = postprocess_completion("```sql\nSELECT name FROM singer;\n```", 1)
    assert candidate.text == "SELECT name FROM singer"


def test_postprocess_drops_leading_prose():
    raw = "Sure, here is the query you asked for:\nSELECT name\nFROM singer;"
    assert postprocess_completion(raw, 0).text == "SELECT name FROM singer"


def test_postprocess_keeps_with_statements():
    raw = "WITH x AS (SELECT 1) SELECT * FROM x"
    assert postprocess_completion(raw, 0).text == raw


def test_postprocess_empty_residue_is_unparseable():
    for raw in ("", "   \n ", ";"):
        candidate = postprocess_completion(raw, 3)
        assert candidate.unparseable
        assert candidate.sample_index == 3
        assert candidate.raw_completion == raw


def test_postprocess_collapses_newlines():
    assert postprocess_completion("SELECT a,\n  b\nFROM t", 0).text == "SELECT a, b FROM t"


_junk = st.text(
    alphabet=st.characters(blacklist_categories=("Cs",), max_codepoint=0x2000),
    max_size=120,
)


@settings(max_examples=300)
@given(_junk)
def test_postprocess_idempotent(raw):
    once = postprocess_completion(raw, 0)
    twice = postprocess_completion(once.text, 0)
    assert twice.text == once.text


def _candidates(*sqls: str) -> list[SqlCandidate]:
    return [SqlCandidate(text=sql, sample_index=i, raw_completion=sql) for i, sql in enumerate(sqls)]


def test_cluster_groups_equivalent_queries(concert_db):
    clusters, discarded, _ = cluster_by_execution(
        _candidates(
            "SELECT count(*) FROM singer",
            "SELECT count(singer_id) FROM singer",
            "SELECT count(*) FROM stadium",
        ),
        concert_db,
    )
    assert not discarded
    assert [c.size for c in clusters] == [2, 1]
    assert sorted(m.sample_index for m in clusters[0].members) == [0, 1]


def test_cluster_conservation_with_errors(concert_db):
    sqls = ["SELECT count(*) FROM singer"] * 17 + ["SELECT * FROM ghost"] * 3
    clusters, discarded, _ = cluster_by_execution(_candidates(*sqls), concert_db)
    assert sum(c.size for c in clusters) == 17
    assert len(discarded) == 3
    assert all(reason == DISCARD_SQL_ERROR for _, reason in discarded)


def test_cluster_overflow_has_its_own_reason(concert_db):
    sqls = ["SELECT count(*) FROM singer"] * 2 + [CROSS_JOIN, "SELECT * FROM ghost"]
    clusters, discarded, _ = cluster_by_execution(_candidates(*sqls), concert_db)
    assert sum(c.size for c in clusters) == 2
    assert discarded == [(2, DISCARD_OVERFLOW), (3, DISCARD_SQL_ERROR)]


def test_cluster_executes_each_distinct_text_once(concert_db, monkeypatch):
    executed = []

    def counting_execute(db_path, sql, timeout=5.0, **kwargs):
        executed.append(sql)
        return execute_sql(db_path, sql, timeout=timeout, **kwargs)

    monkeypatch.setattr(voting, "execute_sql", counting_execute)
    distinct = ["SELECT count(*) FROM singer", "SELECT * FROM ghost", "SELECT max(age) FROM singer"]
    sqls = [distinct[i % 3] for i in range(20)]
    clusters, discarded, _ = cluster_by_execution(_candidates(*sqls), concert_db)
    assert sorted(executed) == sorted(distinct)
    ghost_indices = [i for i, sql in enumerate(sqls) if sql == distinct[1]]
    assert discarded == [(i, DISCARD_SQL_ERROR) for i in ghost_indices]
    assert [sorted(m.sample_index for m in c.members) for c in clusters] == [
        list(range(0, 20, 3)),
        list(range(2, 20, 3)),
    ]


def _cluster_every_candidate(candidates, db_path):
    """Reference: execute every candidate, repeats included, and compare each
    success against the clusters in creation order."""
    clusters: list[ExecutionCluster] = []
    discarded = []
    reasons = {STATUS_TIMEOUT: DISCARD_TIMEOUT, STATUS_OVERFLOW: DISCARD_OVERFLOW}
    for candidate in candidates:
        if candidate.unparseable:
            discarded.append((candidate.sample_index, DISCARD_UNPARSEABLE))
            continue
        outcome = execute_sql(db_path, candidate.text)
        if not outcome.ok:
            discarded.append((candidate.sample_index, reasons.get(outcome.status, DISCARD_SQL_ERROR)))
            continue
        for cluster in clusters:
            if results_equivalent(cluster.result, outcome.table):
                cluster.members.append(candidate)
                break
        else:
            clusters.append(ExecutionCluster(result=outcome.table, members=[candidate]))
    clusters.sort(key=lambda c: (-c.size, c.min_index))
    return clusters, discarded


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sampled_from(VOTE_POOL), min_size=1, max_size=20), st.sampled_from(VOTE_POOL))
def test_cluster_matches_executing_every_candidate(concert_db, raws, gold_raw):
    candidates = [postprocess_completion(raw, i) for i, raw in enumerate(raws)]
    gold = postprocess_completion(gold_raw, 0).text
    clusters, discarded, reference = cluster_by_execution(
        candidates, concert_db, reference_sql=gold
    )
    assert (clusters, discarded) == _cluster_every_candidate(candidates, concert_db)
    # The gold outcome, whether kept from a candidate or run after the vote,
    # is what a run of its own gives.
    assert reference == execute_sql(concert_db, gold)


def test_cluster_gives_each_statement_its_own_deadline(concert_db):
    # The runaway query uses up its deadline on the connection the vote
    # shares; the next text must still run to completion on it.
    clusters, discarded, _ = cluster_by_execution(
        _candidates(RUNAWAY, BOUNDED_RECURSION), concert_db, timeout=0.2
    )
    assert discarded == [(0, DISCARD_TIMEOUT)]
    assert [[m.sample_index for m in c.members] for c in clusters] == [[1]]
    assert clusters[0].result.rows == ((20000,),)


def test_cluster_runs_valid_text_after_overflow(concert_db):
    ordered = "SELECT name FROM singer ORDER BY age"
    clusters, discarded, _ = cluster_by_execution(_candidates(CROSS_JOIN, ordered), concert_db)
    assert discarded == [(0, DISCARD_OVERFLOW)]
    assert [[m.sample_index for m in c.members] for c in clusters] == [[1]]
    assert clusters[0].result == execute_sql(concert_db, ordered).table


def test_cluster_opens_one_connection_per_call(concert_db, opened_connections):
    sqls = ["SELECT count(*) FROM singer", CROSS_JOIN, "SELECT * FROM ghost", "DELETE FROM singer"]
    clusters, discarded, _ = cluster_by_execution(_candidates(*sqls * 5), concert_db)
    assert sum(c.size for c in clusters) == 5 and len(discarded) == 15
    assert len(opened_connections) == 1
    cluster_by_execution(_candidates("SELECT max(age) FROM singer"), concert_db)
    assert len(opened_connections) == 2
    for conn in opened_connections:
        with pytest.raises(sqlite3.ProgrammingError, match="closed"):
            conn.execute("SELECT 1")


def test_cluster_opens_no_connection_when_nothing_runs(concert_db, tmp_path, opened_connections):
    candidates = _candidates("DELETE FROM singer", "UPDATE singer SET age = 1")
    candidates.append(SqlCandidate(text="", sample_index=2, raw_completion="???"))
    missing = tmp_path / "missing.sqlite"
    for db_path in (concert_db, missing):
        clusters, discarded, _ = cluster_by_execution(candidates, db_path)
        assert clusters == []
        assert [reason for _, reason in discarded] == [
            DISCARD_SQL_ERROR, DISCARD_SQL_ERROR, DISCARD_UNPARSEABLE
        ]
    assert opened_connections == []
    # A missing database is an environment fault as soon as a statement would run.
    with pytest.raises(DatabaseMissingError):
        cluster_by_execution(
            candidates + [SqlCandidate(text="SELECT 1", sample_index=3, raw_completion="")],
            missing,
        )


def test_cluster_order_insensitive_rows_group_together(concert_db):
    # Same multiset, different order: both order-insensitive, so one cluster.
    clusters, _, _ = cluster_by_execution(
        _candidates(
            "SELECT singer_id FROM singer WHERE singer_id <= 2",
            "SELECT singer_id FROM singer WHERE singer_id <= 2 "
            "AND singer_id > 0 ORDER BY singer_id DESC LIMIT -1 OFFSET 0",
        ),
        concert_db,
    )
    # The second query carries ORDER BY at top level, so it is order sensitive
    # and only groups if sequences agree: rows are (2, 1) vs (1, 2) -> separate.
    assert [c.size for c in clusters] == [1, 1]
    clusters, _, _ = cluster_by_execution(
        _candidates(
            "SELECT singer_id FROM singer WHERE singer_id <= 2",
            "SELECT singer_id FROM singer WHERE singer_id IN (2, 1)",
        ),
        concert_db,
    )
    assert len(clusters) == 1
    assert clusters[0].size == 2


def test_cluster_unparseable_discarded_without_execution(concert_db):
    candidates = _candidates("SELECT count(*) FROM singer")
    candidates.append(SqlCandidate(text="", sample_index=1, raw_completion="???"))
    clusters, discarded, _ = cluster_by_execution(candidates, concert_db)
    assert discarded == [(1, DISCARD_UNPARSEABLE)]
    assert clusters[0].size == 1


def test_select_final_plurality():
    clusters, discarded = _synthetic_clusters([12, 5, 3])
    result = select_final(clusters, discarded, fallback=clusters[0].members[0])
    assert result.winner in clusters[0].members
    assert result.winner.sample_index == min(m.sample_index for m in clusters[0].members)
    assert not result.fallback_used


def test_select_final_unanimous():
    clusters, discarded = _synthetic_clusters([20])
    result = select_final(clusters, discarded, fallback=clusters[0].members[0])
    assert result.winner.sample_index == 0


def test_select_final_tie_breaks_by_lowest_overall_index():
    # Two clusters of equal size; indices interleaved so cluster B holds 0.
    a = ExecutionCluster(result=None, members=[_member(2), _member(3)])
    b = ExecutionCluster(result=None, members=[_member(0), _member(5)])
    result = select_final([a, b], [], fallback=_member(0))
    assert result.winner.sample_index == 0


def test_select_final_everything_discarded_uses_fallback():
    fallback = _member(0)
    result = select_final([], [(0, DISCARD_SQL_ERROR), (1, DISCARD_SQL_ERROR)], fallback)
    assert result.fallback_used
    assert result.winner is fallback


def _member(index: int) -> SqlCandidate:
    return SqlCandidate(text=f"SELECT {index}", sample_index=index, raw_completion="")


def _synthetic_clusters(sizes):
    clusters = []
    index = 0
    for size in sizes:
        members = [_member(index + i) for i in range(size)]
        clusters.append(ExecutionCluster(result=None, members=members))
        index += size
    return clusters, []


class _FixedGateway:
    def __init__(self, texts):
        self.texts = texts

    def complete(self, exchange):
        return ChatCompletion(texts=tuple(self.texts[: exchange.n]))


@pytest.fixture
def singer_view():
    return DatabaseSchema("concert_singer", (("singer", ("singer_id", "name", "age")),))


@pytest.fixture
def question():
    return Question("0", "concert_singer", "How many singers do we have?")


def test_generate_sql_majority_of_fourteen(concert_db, singer_view, question):
    texts = (
        [" count(*) FROM singer"] * 14
        + ["SELECT max(age) FROM singer"] * 4
        + ["SELECT * FROM ghost"] * 2
    )
    result = generate_sql(
        question, singer_view, _FixedGateway(texts), concert_db, PipelineConfig(n_samples=20)
    )
    assert result.winner.text == "SELECT count(*) FROM singer"
    assert result.clusters[0].size == 14
    assert len(result.discarded) == 2
    assert sum(c.size for c in result.clusters) + len(result.discarded) == 20


def test_generate_sql_single_sample_votes_alone(concert_db, singer_view, question):
    result = generate_sql(
        question,
        singer_view,
        _FixedGateway(["SELECT count(*) FROM singer"]),
        concert_db,
        PipelineConfig(n_samples=1),
    )
    assert result.winner.text == "SELECT count(*) FROM singer"
    assert len(result.clusters) == 1
    assert result.clusters[0].size == 1
    assert not result.fallback_used

    failing = generate_sql(
        question,
        singer_view,
        _FixedGateway(["SELECT * FROM ghost"]),
        concert_db,
        PipelineConfig(n_samples=1),
    )
    assert failing.winner.text == "SELECT * FROM ghost"
    assert failing.fallback_used
    assert failing.clusters == []
    assert failing.discarded == [(0, DISCARD_SQL_ERROR)]


def test_generate_sql_all_errors_flags_fallback(concert_db, singer_view, question):
    texts = ["SELECT * FROM ghost"] * 20
    result = generate_sql(
        question, singer_view, _FixedGateway(texts), concert_db, PipelineConfig(n_samples=20)
    )
    assert result.fallback_used
    assert result.winner.sample_index == 0
    assert len(result.discarded) == 20


def test_generate_sql_lone_surrogate_sample_is_discarded(concert_db, singer_view, question):
    # A JSON "\ud800" escape decodes to a lone surrogate, which SQLite cannot
    # take; that one sample is a SqlError and the vote goes on without it.
    texts = ["SELECT '\ud800'"] + [" count(*) FROM singer"] * 12 + ["SELECT max(age) FROM singer"] * 7
    result = generate_sql(
        question, singer_view, _FixedGateway(texts), concert_db, PipelineConfig(n_samples=20)
    )
    assert not result.fallback_used
    assert result.winner.text == "SELECT count(*) FROM singer"
    assert result.winner.sample_index == 1
    assert [c.size for c in result.clusters] == [12, 7]
    assert result.discarded == [(0, DISCARD_SQL_ERROR)]


def _count_calls(monkeypatch, owner, name) -> list:
    """The positional arguments of every call made through ``owner.name``."""
    calls = []
    original = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


GOLD = "SELECT count(*) FROM singer"


@pytest.mark.parametrize(
    "gold, run_after_vote",
    [(None, []), (GOLD, []), (GOLD.replace(" FROM", "  FROM"), [GOLD.replace(" FROM", "  FROM")])],
    ids=["no-gold", "gold-is-a-candidate", "gold-differs-in-whitespace"],
)
def test_generate_sql_takes_the_gold_outcome_from_the_vote(
    concert_db, singer_view, question, monkeypatch, opened_connections, gold, run_after_vote
):
    # The gold text is matched exactly: one that is not a candidate runs once
    # more, after the vote's texts and on the vote's connection.
    distinct = [GOLD, "SELECT max(age) FROM singer", "SELECT * FROM ghost"]
    texts = [" count(*) FROM singer"] * 3 + distinct[1:] * 2
    voted = _count_calls(monkeypatch, voting, "execute_sql")
    statements = _count_calls(monkeypatch, executor, "_run_statement")
    result = generate_sql(
        dataclasses.replace(question, gold_sql=gold),
        singer_view,
        _FixedGateway(texts),
        concert_db,
        PipelineConfig(n_samples=len(texts)),
    )
    assert [args[1] for args in voted] == distinct + run_after_vote
    assert len(statements) == len(voted)
    assert len(opened_connections) == 1
    if gold is None:
        assert result.reference_outcome is None
    else:
        assert result.reference_outcome == execute_sql(concert_db, gold)
        assert score_outcome(result.reference_outcome, result.clusters[0].result) == OUTCOME_MATCH


@pytest.mark.parametrize(
    "gold, status", [("DELETE FROM singer", STATUS_ERROR), (RUNAWAY, STATUS_TIMEOUT)],
    ids=["refused", "timed-out"],
)
@pytest.mark.parametrize("among_candidates", [True, False], ids=["candidate", "not-candidate"])
def test_cluster_gold_that_cannot_run_scores_gold_error(
    concert_db, monkeypatch, opened_connections, gold, status, among_candidates
):
    # A gold query that failed in the vote keeps that outcome: one that timed
    # out there is not given a second run.
    voted = _count_calls(monkeypatch, voting, "execute_sql")
    sqls = [GOLD] + [gold, gold] * among_candidates
    clusters, _, reference = cluster_by_execution(
        _candidates(*sqls), concert_db, timeout=0.2, reference_sql=gold
    )
    assert [args[1] for args in voted] == [GOLD, gold]
    assert reference.status == status
    assert score_outcome(reference, clusters[0].result) == OUTCOME_GOLD_ERROR
    assert len(opened_connections) == 1


POOL = [
    "SELECT count(*) FROM singer",                      # A: one row [6]
    "SELECT count(singer_id) FROM singer",              # A again, different text
    "SELECT max(age) FROM singer",                      # B: [52]
    "SELECT name FROM singer ORDER BY age",             # C: 6 ordered rows
    "SELECT name FROM singer ORDER BY age DESC",        # D: reversed order
    "SELECT * FROM ghost",                              # error
    "SELECT country FROM singer WHERE is_male = 0",     # E: one row
]


def test_winning_class_invariant_under_permutation(concert_db):
    rng = random.Random(42)
    for _ in range(50):
        sqls = [rng.choice(POOL) for _ in range(rng.randint(1, 6))]
        base_clusters, base_discarded, _ = cluster_by_execution(_candidates(*sqls), concert_db)
        base = select_final(
            base_clusters, base_discarded, _candidates(*sqls)[0]
        )
        perm = list(enumerate(sqls))
        rng.shuffle(perm)
        shuffled = [
            SqlCandidate(text=sql, sample_index=i, raw_completion=sql)
            for i, (_, sql) in enumerate(perm)
        ]
        clusters, discarded, _ = cluster_by_execution(shuffled, concert_db)
        result = select_final(clusters, discarded, shuffled[0])
        if base.fallback_used:
            assert result.fallback_used
            continue
        # The winning cluster size is permutation invariant; the winning class
        # itself is only pinned down when the plurality is strict (otherwise
        # the lowest-index rule re-applies over the permuted indices).
        assert clusters[0].size == base_clusters[0].size
        strict = len(base_clusters) == 1 or base_clusters[0].size > base_clusters[1].size
        if strict:
            first = execute_sql(concert_db, base.winner.text)
            second = execute_sql(concert_db, result.winner.text)
            assert first.ok and second.ok
            assert results_equivalent(first.table, second.table)
