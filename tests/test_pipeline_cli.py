from __future__ import annotations

import contextlib
import dataclasses
import itertools
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import get_type_hints

import pytest
from hypothesis import given
from hypothesis import strategies as st

from text2sql import evaluation, executor, pipeline, voting
from text2sql.catalog import DatabaseSchema, FkRelation, Question
from text2sql.cli import main
from text2sql.config import BACKENDS, PipelineConfig, load_config
from text2sql.errors import ConfigurationError
from text2sql.evaluation import score_pair
from text2sql.gateway import (
    CacheStore,
    ChatCompletion,
    ChatExchange,
    ChatMessage,
    LiveGateway,
    RecordingGateway,
    ReplayGateway,
)
from text2sql.linking import RecallScores
from text2sql.minicorpus import ScriptedModel, seed_replay_cache
from text2sql.pipeline import (
    LINK_JOURNAL,
    VOTE_JOURNAL,
    load_predictions,
    make_gateway,
    run_eval_stage,
    run_generate_stage,
    run_link_stage,
)
from text2sql.prompts import LAYOUT_CLEAR, LAYOUT_COMPLICATED

from conftest import FIXTURES
from test_gateway import _FakeResponse


class CountingGateway:
    def __init__(self, inner, delay=0.0):
        self.inner = inner
        self.delay = delay
        self.calls = 0
        self.active = 0
        self.max_active = 0
        self._lock = threading.Lock()

    def complete(self, exchange):
        with self._lock:
            self.calls += 1
            self.active += 1
            self.max_active = max(self.max_active, self.active)
        try:
            if self.delay:
                time.sleep(self.delay)
            return self.inner.complete(exchange)
        finally:
            with self._lock:
                self.active -= 1


@pytest.fixture
def replay_config(replay_cache):
    return PipelineConfig(backend="replay", cache_dir=replay_cache)


def _journal(path):
    """The payload of each complete line of a stage journal, in order."""
    text = path.read_text(encoding="utf-8") if path.exists() else ""
    return [json.loads(line) for line in text[: text.rfind("\n") + 1].splitlines()]


def test_defaults_match_published_constants():
    config = PipelineConfig()
    assert config.n_samples == 20
    assert config.recall_samples == 10
    assert config.k_tables == 4
    assert config.k_columns == 5


def test_config_precedence(tmp_path, monkeypatch):
    config_file = tmp_path / "pipeline.cfg"
    config_file.write_text("n_samples = 7\ntemperature = 0.2\n# comment\n")
    monkeypatch.setenv("TEXT2SQL_N_SAMPLES", "9")
    assert load_config(config_file).n_samples == 9
    assert load_config(config_file, overrides={"n_samples": 11}).n_samples == 11
    monkeypatch.delenv("TEXT2SQL_N_SAMPLES")
    loaded = load_config(config_file)
    assert loaded.n_samples == 7
    assert loaded.temperature == 0.2


def test_config_rejects_bad_values(tmp_path):
    with pytest.raises(ConfigurationError):
        PipelineConfig(n_samples=0)
    with pytest.raises(ConfigurationError):
        PipelineConfig(backend="telepathy")
    bad = tmp_path / "bad.cfg"
    bad.write_text("unknown_key = 1\n")
    with pytest.raises(ConfigurationError):
        load_config(bad)


_FIELD_VALUES = {
    str: st.text(st.characters(whitelist_categories=("L", "N", "P")), min_size=1),
    int: st.integers(min_value=1, max_value=10**6),
    float: st.floats(min_value=1e-3, max_value=1e6),
    bool: st.booleans(),
    Path: st.from_regex(r"[a-z0-9_]{1,8}(/[a-z0-9_]{1,8}){0,2}", fullmatch=True).map(Path),
}
_CONSTRAINED_VALUES = {
    "backend": st.sampled_from(BACKENDS),
    "layout": st.sampled_from((LAYOUT_CLEAR, LAYOUT_COMPLICATED)),
}


@given(st.data())
def test_env_value_reaches_config_as_annotated_type(data):
    hints = get_type_hints(PipelineConfig)
    for field_info in dataclasses.fields(PipelineConfig):
        name = field_info.name
        strategy = _CONSTRAINED_VALUES.get(name, _FIELD_VALUES[hints[name]])
        value = data.draw(strategy, label=name)
        config = load_config(env={"TEXT2SQL_" + name.upper(): str(value)})
        assert type(getattr(config, name)) is type(value), name
        assert getattr(config, name) == value, name
    with pytest.raises(ConfigurationError):
        load_config(env={}, overrides={"no_such_field": "1"})


def test_no_self_consistency_forces_single_sample():
    config = PipelineConfig(use_self_consistency=False)
    assert config.effective_n_samples == 1


def test_link_stage_writes_one_artifact_per_question(
    catalog, questions, replay_config, tmp_path
):
    gateway = make_gateway(replay_config)
    summary = run_link_stage(catalog, questions, gateway, replay_config, tmp_path)
    assert summary.ok
    assert summary.processed == len(questions)
    lines = _journal(tmp_path / LINK_JOURNAL)
    assert sorted(p["question_id"] for p in lines) == sorted(q.question_id for q in questions)
    assert {"question_id", "linked", "scores"} <= lines[0].keys()


def test_link_stage_resumes_with_zero_calls(catalog, questions, replay_config, tmp_path):
    counting = CountingGateway(make_gateway(replay_config))
    run_link_stage(catalog, questions, counting, replay_config, tmp_path)
    first_calls = counting.calls
    assert first_calls == 2 * len(questions)  # one table + one column recall each
    summary = run_link_stage(catalog, questions, counting, replay_config, tmp_path)
    assert counting.calls == first_calls
    assert summary.skipped == len(questions)


def test_replay_miss_records_failure_naming_fingerprint(
    catalog, questions, tmp_path
):
    config = PipelineConfig(backend="replay", cache_dir=tmp_path / "empty_cache")
    gateway = make_gateway(config)
    summary = run_link_stage(catalog, questions, gateway, config, tmp_path / "arts")
    assert len(summary.failures) == len(questions)
    for _, message in summary.failures:
        assert re.search(r"[0-9a-f]{64}", message)


def test_gateway_concurrency_stays_bounded(catalog, questions, replay_config, tmp_path):
    # A small delay forces the pool to actually overlap requests.
    counting = CountingGateway(make_gateway(replay_config), delay=0.01)
    run_link_stage(catalog, questions, counting, replay_config, tmp_path)
    run_generate_stage(catalog, questions, counting, replay_config, tmp_path)
    assert 2 <= counting.max_active <= replay_config.max_inflight_requests


class _Activity:
    """How many POSTs and votes run at once, and how often one kind starts
    while the other is running."""

    def __init__(self):
        self._lock = threading.Lock()
        self.now = {"post": 0, "vote": 0}
        self.peak = {"post": 0, "vote": 0}
        self.overlaps = 0

    @contextlib.contextmanager
    def running(self, kind):
        with self._lock:
            self.now[kind] += 1
            self.peak[kind] = max(self.peak[kind], self.now[kind])
            if self.now["post"] and self.now["vote"]:
                self.overlaps += 1
        try:
            yield
        finally:
            with self._lock:
                self.now[kind] -= 1


class _ScriptedSession:
    """LiveGateway's session over the scripted model: each POST is in flight
    for ``service_s``."""

    def __init__(self, activity, service_s=0.02):
        self.model = ScriptedModel()
        self.activity = activity
        self.service_s = service_s

    def post(self, url, **request):
        body = request["json"]
        with self.activity.running("post"):
            time.sleep(self.service_s)
        messages = tuple(ChatMessage(m["role"], m["content"]) for m in body["messages"])
        texts = self.model.complete(ChatExchange(messages, n=body["n"])).texts
        return _FakeResponse(200, {"choices": [{"message": {"content": t}} for t in texts]})


def _record_gateway(config, session):
    """What make_gateway builds for the record backend, posting through ``session``."""
    live = LiveGateway(
        config.api_base,
        "key",
        max_attempts=config.retry_attempts,
        max_inflight=config.max_inflight_requests,
        session=session,
    )
    return RecordingGateway(live, CacheStore(config.cache_dir))


@pytest.mark.parametrize("inflight", [1, 2])
def test_record_backend_votes_while_requests_are_out(
    catalog, questions, tmp_path, monkeypatch, inflight
):
    activity = _Activity()
    cluster = voting.cluster_by_execution

    def watched_cluster(*args, **kwargs):
        with activity.running("vote"):
            time.sleep(0.01)  # a vote on a real database takes milliseconds
            return cluster(*args, **kwargs)

    monkeypatch.setattr(voting, "cluster_by_execution", watched_cluster)
    config = PipelineConfig(
        backend="record", cache_dir=tmp_path / "cache", max_inflight_requests=inflight
    )
    gateway = _record_gateway(config, _ScriptedSession(activity))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so a race shows
    try:
        _generate(catalog, questions, config, tmp_path / "arts", gateway)
    finally:
        sys.setswitchinterval(interval)
    assert max(activity.peak.values()) <= inflight
    assert activity.overlaps >= 1
    got = (tmp_path / "arts" / "predictions.json").read_text()
    assert got == (FIXTURES / "expected_predictions.json").read_text()


class _DownSession:
    def post(self, url, **request):
        raise OSError("connection refused")


def test_record_backend_transport_failures_end_as_named_failures(catalog, questions, tmp_path):
    config = PipelineConfig(
        backend="record",
        cache_dir=tmp_path / "cache",
        max_inflight_requests=1,
        retry_attempts=1,
        use_linking=False,  # generate calls the gateway without link artifacts
    )
    gateway = _record_gateway(config, _DownSession())
    summaries = []

    def run_stages():
        for stage in (run_link_stage, run_generate_stage):
            summaries.append(stage(catalog, questions, gateway, config, tmp_path / "arts"))

    runner = threading.Thread(target=run_stages, daemon=True)
    runner.start()
    runner.join(timeout=60)
    assert not runner.is_alive()
    assert [summary.name for summary in summaries] == ["link", "generate"]
    for summary in summaries:
        assert [qid for qid, _ in summary.failures] == [q.question_id for q in questions]
        for _, message in summary.failures:
            assert "request failed after 1 attempts" in message
            assert "connection refused" in message


def test_generate_matches_frozen_predictions(catalog, questions, replay_config, tmp_path):
    gateway = make_gateway(replay_config)
    run_link_stage(catalog, questions, gateway, replay_config, tmp_path)
    summary = run_generate_stage(catalog, questions, gateway, replay_config, tmp_path)
    assert summary.ok
    got = (tmp_path / "predictions.json").read_text()
    expected = (FIXTURES / "expected_predictions.json").read_text()
    assert got == expected


def test_eval_scores_missing_prediction_as_mismatch(
    catalog, questions, replay_config, tmp_path
):
    predictions = {q.question_id: q.gold_sql for q in questions}
    dropped = questions[0].question_id
    del predictions[dropped]
    report = run_eval_stage(catalog, questions, predictions, replay_config, tmp_path)
    assert report.counts["mismatch"] == 1
    assert report.counts["match"] == len(questions) - 1


class _FailingGenerationGateway:
    """Replays the cache, but every generation sample for the named questions
    is SQL that cannot run, so their votes fall back."""

    def __init__(self, inner, question_texts):
        self.inner = inner
        self.prompts = [f"\n### {text}\nSELECT" for text in question_texts]

    def complete(self, exchange):
        content = exchange.messages[-1].content
        if any(prompt in content for prompt in self.prompts):
            return ChatCompletion(texts=("SELECT '\ud800'",) * exchange.n)
        return self.inner.complete(exchange)


def _generate(catalog, questions, config, out, gateway=None):
    gateway = gateway or make_gateway(config)
    assert run_link_stage(catalog, questions, gateway, config, out).ok
    assert run_generate_stage(catalog, questions, gateway, config, out).ok


def _trace(out, question):
    """The question's vote trace: the last line the vote journal holds for it."""
    lines = _journal(out / VOTE_JOURNAL)
    return [line for line in lines if line["question_id"] == question.question_id][-1]


def _append_line(journal, line):
    with journal.open("a", encoding="utf-8") as handle:
        handle.write(line + "\n")


def test_recorded_outcome_equals_score_pair(catalog, questions, replay_config, tmp_path):
    # Demo questions as they are, plus: fallback votes with a good and a
    # failing gold query, a failing gold query under a normal vote, and a
    # gold query the winner does not match.
    ghost = "SELECT * FROM ghost"
    varied = list(questions)
    varied[1] = dataclasses.replace(varied[1], gold_sql=ghost)
    varied[2] = dataclasses.replace(varied[2], gold_sql=ghost)
    varied[3] = dataclasses.replace(varied[3], gold_sql="SELECT 0")
    gateway = _FailingGenerationGateway(
        make_gateway(replay_config), [varied[0].text, varied[1].text]
    )
    _generate(catalog, varied, replay_config, tmp_path, gateway)
    outcomes = {}
    for question in varied:
        trace = _trace(tmp_path, question)
        assert trace["gold_sql"] == question.gold_sql
        db_path = catalog[question.db_id].sqlite_path
        assert trace["outcome"] == score_pair(trace["sql"], question.gold_sql, db_path)
        outcomes[question.question_id] = (trace["fallback_used"], trace["outcome"])
    assert outcomes[varied[0].question_id] == (True, "pred_error")
    assert outcomes[varied[1].question_id] == (True, "gold_error")
    assert outcomes[varied[2].question_id] == (False, "gold_error")
    assert outcomes[varied[3].question_id] == (False, "mismatch")
    assert all(outcomes[q.question_id] == (False, "match") for q in varied[4:])


def test_demo_generate_stage_executes_only_the_votes(
    catalog, questions, replay_config, tmp_path, opened_connections, monkeypatch
):
    # Each vote runs its distinct candidate texts and, only when it is none of
    # them, the gold query, all on one connection; nothing runs after it.
    gateway = make_gateway(replay_config)
    assert run_link_stage(catalog, questions, gateway, replay_config, tmp_path).ok
    expected = []
    cluster = voting.cluster_by_execution

    def watched_cluster(candidates, db_path, timeout=5.0, *, reference_sql=None):
        texts = list(dict.fromkeys(c.text for c in candidates if not c.unparseable))
        if reference_sql not in texts:
            texts.append(reference_sql)
        expected.extend((str(db_path), text) for text in texts)
        return cluster(candidates, db_path, timeout, reference_sql=reference_sql)

    calls: dict[str, list] = {}

    def count(owner, name):
        original = getattr(owner, name)
        made = calls[f"{owner.__name__}.{name}"] = []

        def counting(*args, **kwargs):
            outcome = original(*args, **kwargs)
            made.append((str(args[0]), args[1], outcome.message))
            return outcome

        monkeypatch.setattr(owner, name, counting)

    count(voting, "execute_sql")
    count(evaluation, "execute_sql")
    count(executor, "_run_statement")
    monkeypatch.setattr(voting, "cluster_by_execution", watched_cluster)
    opened = len(opened_connections)
    assert run_generate_stage(catalog, questions, gateway, replay_config, tmp_path).ok
    voted = calls["text2sql.voting.execute_sql"]
    assert calls["text2sql.evaluation.execute_sql"] == []
    assert sorted((db, sql) for db, sql, _ in voted) == sorted(expected)
    refused = sum(message == "write statement refused" for *_, message in voted)
    assert len(calls["text2sql.executor._run_statement"]) == len(voted) - refused
    assert len(opened_connections) - opened == len(questions)
    got = (tmp_path / "predictions.json").read_text()
    assert got == (FIXTURES / "expected_predictions.json").read_text()


def _count_scored_pairs(monkeypatch):
    """The (predicted, gold) pairs ``evaluation.score_pair`` executes from now on."""
    scored = []
    score_pair = evaluation.score_pair

    def counting_score_pair(predicted_sql, gold_sql, db_path, timeout=5.0):
        scored.append((predicted_sql, gold_sql))
        return score_pair(predicted_sql, gold_sql, db_path, timeout=timeout)

    monkeypatch.setattr(evaluation, "score_pair", counting_score_pair)
    return scored


def test_eval_rescores_what_the_trace_does_not_cover(
    catalog, questions, replay_config, tmp_path, monkeypatch
):
    _generate(catalog, questions, replay_config, tmp_path)
    predictions = load_predictions(tmp_path / "predictions.json")
    edited, regolded, old, corrupt = questions[:4]
    # The trace recorded "match" for each of these; the edited prediction and
    # the changed gold query are mismatches.
    predictions[edited.question_id] = "SELECT count(*) FROM stadium"
    changed = list(questions)
    changed[1] = dataclasses.replace(regolded, gold_sql="SELECT 0")
    old_trace = _trace(tmp_path, old)
    del old_trace["outcome"]
    _append_line(tmp_path / VOTE_JOURNAL, json.dumps(old_trace))
    _append_line(tmp_path / VOTE_JOURNAL, json.dumps({**_trace(tmp_path, corrupt), "sql": 5}))

    scored = _count_scored_pairs(monkeypatch)
    report = run_eval_stage(catalog, changed, predictions, replay_config, tmp_path)
    assert sorted(scored) == sorted(
        (predictions[q.question_id], q.gold_sql) for q in (edited, changed[1], old, corrupt)
    )
    assert report.counts == {"match": len(questions) - 2, "mismatch": 2, "pred_error": 0,
                             "gold_error": 0}


def test_demo_eval_stage_executes_nothing(
    catalog, questions, replay_config, tmp_path, opened_connections, monkeypatch
):
    # The recorded outcomes settle every question; the only connections are
    # the gold-item ones, one per database, which prepare without executing.
    _generate(catalog, questions, replay_config, tmp_path)
    executed = []

    def count(owner, name):
        original = getattr(owner, name)

        def counting(*args, **kwargs):
            executed.append((name, args))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counting)

    count(evaluation, "execute_sql")
    count(executor, "_run_statement")
    opened = len(opened_connections)
    predictions = load_predictions(tmp_path / "predictions.json")
    run_eval_stage(catalog, questions, predictions, replay_config, tmp_path)
    assert len(opened_connections) - opened == len({q.db_id for q in questions}) == 2
    assert executed == []
    got = (tmp_path / "report.json").read_text()
    assert got == (FIXTURES / "expected_report.json").read_text()


def _generation_requests(cache_dir):
    store = CacheStore(cache_dir)
    requests = [store.load_request(fp) for fp in store.fingerprints()]
    return [
        r
        for r in requests
        if not r["messages"][-1]["content"].startswith("Given the database")
    ]


def _record_run(corpus_dir, tmp_path, catalog, questions, **config_kwargs):
    cache_dir = tmp_path / "cache"
    config = PipelineConfig(backend="record", cache_dir=cache_dir, **config_kwargs)
    gateway = RecordingGateway(ScriptedModel(), CacheStore(cache_dir))
    out = tmp_path / "arts"
    if config.effective_use_linking:
        assert run_link_stage(catalog, questions, gateway, config, out).ok
    assert run_generate_stage(catalog, questions, gateway, config, out).ok
    return cache_dir


def test_ablation_calibration_toggles_message_prefix(
    corpus_dir, tmp_path, catalog, questions
):
    with_cal = _record_run(corpus_dir, tmp_path / "on", catalog, questions)
    without_cal = _record_run(
        corpus_dir, tmp_path / "off", catalog, questions, use_calibration=False
    )
    for request in _generation_requests(with_cal):
        assert len(request["messages"]) == 6
        assert request["messages"][0]["role"] == "system"
    for request in _generation_requests(without_cal):
        assert len(request["messages"]) == 1
        assert request["messages"][0]["role"] == "user"


def test_ablation_foreign_keys_strip_fk_lines(corpus_dir, tmp_path, catalog, questions):
    with_fks = _record_run(corpus_dir, tmp_path / "on", catalog, questions)
    without_fks = _record_run(
        corpus_dir, tmp_path / "off", catalog, questions, include_foreign_keys=False
    )
    fk_line = re.compile(r"^# \w+\.\w+ = \w+\.\w+$", re.MULTILINE)
    assert any(
        fk_line.search(r["messages"][-1]["content"]) for r in _generation_requests(with_fks)
    )
    for request in _generation_requests(without_fks):
        assert not fk_line.search(request["messages"][-1]["content"])


def test_ablation_self_consistency_changes_n(corpus_dir, tmp_path, catalog, questions):
    with_sc = _record_run(corpus_dir, tmp_path / "on", catalog, questions)
    without_sc = _record_run(
        corpus_dir, tmp_path / "off", catalog, questions, use_self_consistency=False
    )
    assert all(r["n"] == 20 for r in _generation_requests(with_sc))
    assert all(r["n"] == 1 for r in _generation_requests(without_sc))


def test_ablation_layout_switches_prompt_shape(corpus_dir, tmp_path, catalog, questions):
    clear = _record_run(corpus_dir, tmp_path / "clear", catalog, questions)
    complicated = _record_run(
        corpus_dir,
        tmp_path / "complicated",
        catalog,
        questions,
        layout="complicated",
        use_linking=False,
    )
    for request in _generation_requests(clear):
        assert request["messages"][-1]["content"].startswith("### Complete sqlite SQL query")
    for request in _generation_requests(complicated):
        content = request["messages"][-1]["content"]
        assert content.startswith("Complete sqlite SQL query only and with no explanation.")
        assert " | " in content


def test_cli_run_replay_end_to_end(corpus_dir, replay_cache, tmp_path, capsys):
    rc = main(
        [
            "run",
            "--tables", str(corpus_dir / "tables.json"),
            "--questions", str(corpus_dir / "questions.json"),
            "--backend", "replay",
            "--cache-dir", str(replay_cache),
            "--out", str(tmp_path / "arts"),
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "arts" / "report.json").read_text())
    assert report["overall_ex"] == 1.0
    # The whole report matches the frozen fixture from the first validated run.
    got = (tmp_path / "arts" / "report.json").read_text()
    assert got == (FIXTURES / "expected_report.json").read_text()
    out = capsys.readouterr().out
    assert "overall EX" in out


def test_cli_eval_scores_unencodable_prediction_as_pred_error(corpus_dir, questions, tmp_path):
    # json.dumps writes a lone surrogate as a "\ud800" escape, which loads
    # back as a str SQLite cannot take.
    predictions = [{"question_id": q.question_id, "sql": q.gold_sql} for q in questions]
    predictions[0]["sql"] = "SELECT '\ud800'"
    path = tmp_path / "external.json"
    path.write_text(json.dumps(predictions))
    assert "\\ud800" in path.read_text()
    rc = main(
        [
            "eval",
            "--tables", str(corpus_dir / "tables.json"),
            "--questions", str(corpus_dir / "questions.json"),
            "--predictions", str(path),
            "--out", str(tmp_path / "arts"),
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "arts" / "report.json").read_text())
    assert report["counts"]["pred_error"] == 1
    assert report["counts"]["match"] == len(questions) - 1


def test_cli_empty_dataset_succeeds(tmp_path, capsys):
    (tmp_path / "tables.json").write_text("[]")
    (tmp_path / "questions.json").write_text("[]")
    rc = main(
        [
            "run",
            "--tables", str(tmp_path / "tables.json"),
            "--questions", str(tmp_path / "questions.json"),
            "--backend", "replay",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "arts"),
        ]
    )
    assert rc == 0
    report = json.loads((tmp_path / "arts" / "report.json").read_text())
    assert report["total"] == 0


def test_cli_live_without_key_is_config_error(corpus_dir, tmp_path, monkeypatch, capsys):
    monkeypatch.delenv("TEXT2SQL_API_KEY", raising=False)
    monkeypatch.delenv("OPENAI_API_KEY", raising=False)
    rc = main(
        [
            "run",
            "--tables", str(corpus_dir / "tables.json"),
            "--questions", str(corpus_dir / "questions.json"),
            "--backend", "live",
            "--out", str(tmp_path / "arts"),
        ]
    )
    assert rc == 2
    assert "API key" in capsys.readouterr().err
    assert not (tmp_path / "arts").exists()


@pytest.mark.parametrize("api_base", ["api.example/v1", "http://[::1/v1"])
def test_cli_record_with_bad_api_base_is_config_error(
    corpus_dir, tmp_path, monkeypatch, capsys, api_base
):
    monkeypatch.setenv("TEXT2SQL_API_KEY", "key")
    monkeypatch.setenv("TEXT2SQL_API_BASE", api_base)
    rc = main(
        [
            "run",
            "--tables", str(corpus_dir / "tables.json"),
            "--questions", str(corpus_dir / "questions.json"),
            "--backend", "record",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "arts"),
        ]
    )
    assert rc == 2
    assert repr(api_base) in capsys.readouterr().err
    assert not (tmp_path / "arts").exists()


def test_cli_dump_prompt_prints_messages(corpus_dir, replay_cache, tmp_path, capsys):
    rc = main(
        [
            "dump-prompt",
            "--tables", str(corpus_dir / "tables.json"),
            "--questions", str(corpus_dir / "questions.json"),
            "--backend", "replay",
            "--cache-dir", str(replay_cache),
            "--out", str(tmp_path / "arts"),
            "--question-id", "0",
            "--no-linking",
        ]
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "--- system ---" in out
    assert out.rstrip().endswith("SELECT")


def test_cli_unknown_db_is_config_error(tmp_path, capsys):
    (tmp_path / "tables.json").write_text("[]")
    (tmp_path / "questions.json").write_text(
        json.dumps([{"question": "q", "db_id": "ghost", "query": "SELECT 1"}])
    )
    rc = main(
        [
            "link",
            "--tables", str(tmp_path / "tables.json"),
            "--questions", str(tmp_path / "questions.json"),
            "--backend", "replay",
            "--cache-dir", str(tmp_path / "cache"),
            "--out", str(tmp_path / "arts"),
        ]
    )
    assert rc == 2


def test_replay_backend_never_needs_network(replay_cache):
    gateway = make_gateway(PipelineConfig(backend="replay", cache_dir=replay_cache))
    assert isinstance(gateway, ReplayGateway)


def test_cli_run_survives_corrupt_cache_entry(
    corpus_dir, replay_cache, questions, tmp_path, capsys
):
    cache_dir = tmp_path / "cache"
    shutil.copytree(replay_cache, cache_dir)
    broken = questions[0]
    store = CacheStore(cache_dir)
    fingerprint = next(
        fp
        for fp in store.fingerprints()
        if f"\n### {broken.text}\nSELECT" in store.load_request(fp)["messages"][-1]["content"]
    )
    store.path_for(fingerprint).write_text("{not json")
    rc = main(
        [
            "run",
            "--tables", str(corpus_dir / "tables.json"),
            "--questions", str(corpus_dir / "questions.json"),
            "--backend", "replay",
            "--cache-dir", str(cache_dir),
            "--out", str(tmp_path / "arts"),
        ]
    )
    assert rc == 1
    assert f"question {broken.question_id}: JSONDecodeError" in capsys.readouterr().err
    report = json.loads((tmp_path / "arts" / "report.json").read_text())
    assert report["total"] == len(questions)
    assert report["counts"]["mismatch"] == 1


def _cli_args(corpus_dir, cache_dir, out_dir, tables=None, questions=None):
    return [
        "--tables", str(tables or corpus_dir / "tables.json"),
        "--questions", str(questions or corpus_dir / "questions.json"),
        "--backend", "replay",
        "--cache-dir", str(cache_dir),
        "--out", str(out_dir),
    ]


def _fault_line(capsys, rc, expected_rc, prefix="error: "):
    """The one stderr line a refused command prints, checked to be its only output."""
    err = capsys.readouterr().err
    assert rc == expected_rc, err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and err.startswith(prefix), err
    return err


def _render(messages):
    return "".join(f"--- {m['role']} ---\n{m['content']}\n" for m in messages)


@pytest.mark.parametrize(
    "flags, config_kwargs",
    [
        ([], {}),
        (["--no-linking"], {"use_linking": False}),
        (["--layout", "complicated"], {"layout": LAYOUT_COMPLICATED}),
    ],
)
def test_cli_dump_prompt_prints_the_request_generate_sends(
    corpus_dir, questions, tmp_path, capsys, flags, config_kwargs
):
    cache_dir = tmp_path / "cache"
    config = PipelineConfig(backend="record", cache_dir=cache_dir, **config_kwargs)
    assert all(summary.ok for summary in seed_replay_cache(corpus_dir, cache_dir, config))
    args = _cli_args(corpus_dir, cache_dir, tmp_path / "arts") + flags
    # `run` links only when linking is in effect, as a user would.
    assert main(["run", *args]) == 0
    assert (tmp_path / "arts" / LINK_JOURNAL).is_file() == config.effective_use_linking
    question = questions[0]
    capsys.readouterr()
    assert main(["dump-prompt", *args, "--question-id", question.question_id]) == 0
    dumped = capsys.readouterr().out
    sent = [
        _render(request["messages"])
        for request in _generation_requests(cache_dir)
        if question.text in request["messages"][-1]["content"]
    ]
    assert sent == [dumped]


def test_cli_dump_prompt_refuses_missing_link_artifact(corpus_dir, replay_cache, tmp_path, capsys):
    args = _cli_args(corpus_dir, replay_cache, tmp_path / "arts")
    rc = main(["dump-prompt", *args, "--question-id", "0"])
    err = _fault_line(capsys, rc, 1)
    assert f"{tmp_path / 'arts' / LINK_JOURNAL} has no line for question 0" in err


@pytest.mark.parametrize("absent", ["tables", "questions"])
def test_cli_missing_dataset_file_is_named_error(
    corpus_dir, replay_cache, tmp_path, capsys, absent
):
    missing = tmp_path / f"absent_{absent}.json"
    args = _cli_args(corpus_dir, replay_cache, tmp_path / "arts", **{absent: missing})
    err = _fault_line(capsys, main(["run", *args]), 1)
    assert str(missing) in err


@pytest.mark.parametrize(
    "flags, env, named",
    [
        (["--temperature", "-1"], {}, "temperature must be >= 0"),
        (["--temperature", "nan"], {}, "temperature must be >= 0"),
        ([], {"TEXT2SQL_MAX_GENERATION_TOKENS": "0"}, "max_generation_tokens must be >= 1"),
        ([], {"TEXT2SQL_MAX_RECALL_TOKENS": "0"}, "max_recall_tokens must be >= 1"),
        ([], {"TEXT2SQL_RETRY_ATTEMPTS": "0"}, "retry_attempts must be >= 1"),
    ],
)
def test_cli_out_of_range_setting_is_config_error(
    corpus_dir, replay_cache, tmp_path, monkeypatch, capsys, flags, env, named
):
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    out = tmp_path / "arts"
    rc = main(["run", *_cli_args(corpus_dir, replay_cache, out), *flags])
    assert named in _fault_line(capsys, rc, 2, prefix="configuration error: ")
    assert not out.exists()


def test_cli_missing_config_file_is_config_error(corpus_dir, replay_cache, tmp_path, capsys):
    missing = tmp_path / "absent.cfg"
    args = _cli_args(corpus_dir, replay_cache, tmp_path / "arts") + ["--config", str(missing)]
    err = _fault_line(capsys, main(["run", *args]), 2, prefix="configuration error: ")
    assert str(missing) in err


@pytest.mark.parametrize("which, entry", [("tables", "entry 0"), ("questions", "record 0")])
def test_cli_non_object_dataset_entry_is_named_error(
    corpus_dir, replay_cache, tmp_path, capsys, which, entry
):
    bad = tmp_path / f"{which}.json"
    bad.write_text("[1]")
    args = _cli_args(corpus_dir, replay_cache, tmp_path / "arts", **{which: bad})
    err = _fault_line(capsys, main(["run", *args]), 1)
    assert f"{bad}: {entry}" in err


@pytest.mark.parametrize(
    "field, index, bad, named",
    [
        ("column_names_original", 1, [0], "concert_singer: column entry 1 is not a"),
        ("foreign_keys", 0, [1, 2, 3], "concert_singer: foreign key entry 0 is not a"),
        ("column_names_original", 1, ["0", "stadium_id"], "concert_singer: column entry 1 is not a"),
        ("column_names_original", 2, [99, "location"],
         "concert_singer: column entry 2 names table index 99, but there are 4 tables"),
        ("column_names_original", 2, [4, "location"],
         "concert_singer: column entry 2 names table index 4, but there are 4 tables"),
        ("column_names_original", 2, [-5, "location"],
         "concert_singer: column entry 2 names table index -5, but there are 4 tables"),
        ("table_names_original", 1, 5, "concert_singer: table name 1 is not a string: 5"),
        ("db_id", None, 5, "database descriptor without a string db_id: 5"),
    ],
    ids=[
        "column-entry-of-one",
        "foreign-key-of-three",
        "string-table-index",
        "table-index-99",
        "table-index-at-end",
        "table-index-minus-5",
        "integer-table-name",
        "integer-db-id",
    ],
)
def test_cli_malformed_tables_entry_is_named_error(
    corpus_dir, replay_cache, tmp_path, capsys, field, index, bad, named
):
    descriptors = json.loads((corpus_dir / "tables.json").read_text())
    assert descriptors[0]["db_id"] == "concert_singer"
    if index is None:
        descriptors[0][field] = bad
    else:
        descriptors[0][field][index] = bad
    path = tmp_path / "tables.json"
    path.write_text(json.dumps(descriptors))
    args = _cli_args(corpus_dir, replay_cache, tmp_path / "arts", tables=path)
    err = _fault_line(capsys, main(["run", *args]), 1)
    assert f"{path}: {named}" in err


@pytest.mark.parametrize(
    "field, bad, named",
    [
        ("query", 5, "query is not a string: 5"),
        ("question", ["x"], "question is not a string: ['x']"),
        ("db_id", 5, "db_id is not a string: 5"),
        ("difficulty", 3, "difficulty is not a string: 3"),
        ("difficulty", "trivial", "unknown difficulty 'trivial'"),
    ],
    ids=["query-int", "question-list", "db-id-int", "difficulty-int", "unknown-difficulty"],
)
def test_cli_mistyped_question_field_is_named_error(
    corpus_dir, replay_cache, tmp_path, capsys, field, bad, named
):
    records = json.loads((corpus_dir / "questions.json").read_text())
    records[1][field] = bad
    path = tmp_path / "questions.json"
    path.write_text(json.dumps(records))
    args = _cli_args(corpus_dir, replay_cache, tmp_path / "arts", questions=path)
    err = _fault_line(capsys, main(["run", *args]), 1)
    assert f"{path}: record 1: {named}" in err


def test_cli_eval_missing_predictions_file_is_named_error(
    corpus_dir, replay_cache, tmp_path, capsys
):
    missing = tmp_path / "no_such_file.json"
    args = _cli_args(corpus_dir, replay_cache, tmp_path / "arts") + ["--predictions", str(missing)]
    err = _fault_line(capsys, main(["eval", *args]), 1)
    assert f"cannot read {missing}" in err
    assert not (tmp_path / "arts" / "report.json").exists()


def test_cli_eval_with_link_artifacts_needs_the_databases(
    corpus_dir, replay_cache, tmp_path, capsys
):
    # Every outcome is recorded in the votes, but recall AUC prepares each gold
    # query on its database.
    out = tmp_path / "arts"
    assert main(["run", *_cli_args(corpus_dir, replay_cache, out)]) == 0
    capsys.readouterr()
    moved = tmp_path / "corpus"
    moved.mkdir()
    for name in ("tables.json", "questions.json"):
        shutil.copy(corpus_dir / name, moved / name)
    err = _fault_line(capsys, main(["eval", *_cli_args(moved, replay_cache, out)]), 1)
    assert "database file not found" in err


@pytest.mark.parametrize(
    "content, named",
    [
        ('{"a": 1}', "expected a JSON array"),
        ('[{"question_id": "0"}]', "entry 0"),
        ('[{"question_id": "0", "sql": 5}]', "entry 0"),
        ("not json", "malformed JSON"),
    ],
)
def test_cli_eval_malformed_predictions_is_named_error(
    corpus_dir, replay_cache, tmp_path, capsys, content, named
):
    path = tmp_path / "predictions.json"
    path.write_text(content)
    args = _cli_args(corpus_dir, replay_cache, tmp_path / "arts") + ["--predictions", str(path)]
    err = _fault_line(capsys, main(["eval", *args]), 1)
    assert f"{path}: {named}" in err


def test_cli_eval_scores_questions_absent_from_predictions_as_mismatches(
    corpus_dir, replay_cache, questions, tmp_path
):
    path = tmp_path / "predictions.json"
    first = questions[0]
    path.write_text(json.dumps([{"question_id": first.question_id, "sql": first.gold_sql}]))
    args = _cli_args(corpus_dir, replay_cache, tmp_path / "arts") + ["--predictions", str(path)]
    assert main(["eval", *args]) == 0
    report = json.loads((tmp_path / "arts" / "report.json").read_text())
    assert report["counts"]["match"] == 1
    assert report["counts"]["mismatch"] == len(questions) - 1


def test_cli_corrupt_link_artifact_is_named_error(corpus_dir, replay_cache, tmp_path, capsys):
    args = _cli_args(corpus_dir, replay_cache, tmp_path / "arts")
    assert main(["run", *args]) == 0
    corrupt = tmp_path / "arts" / LINK_JOURNAL
    lines = corrupt.read_text().splitlines(keepends=True)
    lines[2] = "{not json\n"
    corrupt.write_text("".join(lines))
    capsys.readouterr()
    named = f"{corrupt} line 3: not a JSON object with a question_id"
    assert named in _fault_line(capsys, main(["eval", *args]), 1)
    rc = main(["dump-prompt", *args, "--question-id", "0"])
    assert named in _fault_line(capsys, rc, 1)


def test_cli_deeply_nested_journal_line_is_named_error(corpus_dir, replay_cache, tmp_path, capsys):
    # Deeper than CPython's C recursion limit on every supported version, so
    # json raises RecursionError rather than ValueError.
    args = _cli_args(corpus_dir, replay_cache, tmp_path / "arts")
    assert main(["run", *args]) == 0
    journal = tmp_path / "arts" / LINK_JOURNAL
    _append_line(journal, "[" * 100_000)
    capsys.readouterr()
    named = f"{journal} line 13: not a JSON object with a question_id"
    assert named in _fault_line(capsys, main(["run", *args]), 1)


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_cli_run_into_a_closed_stdout_ends_quietly(corpus_dir, replay_cache, tmp_path, unbuffered):
    src = Path(pipeline.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONUNBUFFERED": unbuffered}
    out = tmp_path / "arts"
    read_end, write_end = os.pipe()
    os.close(read_end)  # every write to stdout fails with EPIPE
    try:
        result = subprocess.run(
            [sys.executable, "-m", "text2sql.cli", "run", *_cli_args(corpus_dir, replay_cache, out)],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            timeout=120,
            env=env,
        )
    finally:
        os.close(write_end)
    assert result.stderr == ""
    assert result.returncode == 0
    for name in ("predictions.json", "report.json"):
        assert (out / name).read_bytes() == (FIXTURES / f"expected_{name}").read_bytes()


_names = st.text(min_size=1, max_size=6).filter(str.strip)


@st.composite
def _linked_subsets(draw):
    """A linked schema and recall scores as ``link_schema`` could return them:
    foreign keys join linked tables, on columns the subset may have dropped."""
    unique_names = st.lists(_names, min_size=1, max_size=4, unique_by=str.lower)
    tables = draw(unique_names)
    endpoints = st.tuples(st.sampled_from(tables), _names, st.sampled_from(tables), _names)
    fks = [
        FkRelation(*ends)
        for ends in draw(st.lists(endpoints, max_size=3))
        if (ends[0].lower(), ends[1].lower()) != (ends[2].lower(), ends[3].lower())
    ]
    linked = DatabaseSchema(
        "db", tuple((name, tuple(draw(unique_names))) for name in tables), tuple(fks)
    )
    score = st.floats(0.0, 1.0)
    scores = RecallScores(
        draw(st.dictionaries(_names, score, max_size=4)),
        draw(st.dictionaries(st.tuples(_names, _names), score, max_size=4)),
    )
    return linked, scores


@given(_linked_subsets())
def test_link_journal_line_reads_back_as_written(linked_and_scores):
    linked, scores = linked_and_scores
    question = Question("q", "db", "question text")
    with tempfile.TemporaryDirectory() as scratch:
        journal = pipeline.Journal(Path(scratch) / LINK_JOURNAL)
        with journal.appending():
            journal.append(pipeline._link_artifact(question, linked, scores))
        reread = pipeline.Journal(journal.path)
    assert pipeline._read_link(reread, question) == (linked, scores)


def test_cli_generate_lists_unreadable_vote_trace_as_failure(
    corpus_dir, replay_cache, questions, tmp_path, capsys
):
    args = _cli_args(corpus_dir, replay_cache, tmp_path / "arts")
    assert main(["run", *args]) == 0
    broken = questions[0]
    corrupt = tmp_path / "arts" / VOTE_JOURNAL
    _append_line(corrupt, json.dumps({"question_id": broken.question_id, "sql": 5}))
    capsys.readouterr()
    assert main(["generate", *args]) == 1
    captured = capsys.readouterr()
    assert "failed=1" in captured.out
    named = f"question {broken.question_id}: vote trace in {corrupt}: sql is a int, not a string"
    assert named in captured.err
    assert "Traceback" not in captured.err
    predicted = load_predictions(tmp_path / "arts" / "predictions.json")
    assert broken.question_id not in predicted
    assert len(predicted) == len(questions) - 1


def test_eval_executes_every_prediction_when_the_vote_journal_is_unreadable(
    catalog, questions, replay_config, tmp_path, monkeypatch
):
    _generate(catalog, questions, replay_config, tmp_path)
    _append_line(tmp_path / VOTE_JOURNAL, "[]")
    predictions = load_predictions(tmp_path / "predictions.json")
    scored = _count_scored_pairs(monkeypatch)
    run_eval_stage(catalog, questions, predictions, replay_config, tmp_path)
    assert sorted(scored) == sorted((predictions[q.question_id], q.gold_sql) for q in questions)
    got = (tmp_path / "report.json").read_text()
    assert got == (FIXTURES / "expected_report.json").read_text()


@pytest.mark.parametrize("blocked", ["", "predictions.json", "report.json"])
def test_cli_unwritable_output_is_named_error(corpus_dir, replay_cache, tmp_path, capsys, blocked):
    # `--out` is a file, or an output file's path is a directory.
    out = tmp_path / "arts"
    if blocked:
        (out / blocked).mkdir(parents=True)
    else:
        out.write_text("")
    err = _fault_line(capsys, main(["run", *_cli_args(corpus_dir, replay_cache, out)]), 1)
    assert str(out / (blocked or LINK_JOURNAL)) in err


def test_journal_appends_from_many_threads_lose_no_line(tmp_path):
    path = tmp_path / "stress.jsonl"
    journal = pipeline.Journal(path)

    def append_many(thread):
        for index in range(50):
            journal.append({"question_id": f"{thread}-{index}", "index": index})

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with journal.appending():
            threads = [threading.Thread(target=append_many, args=(t,)) for t in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    with journal.appending():  # cuts the file back to the lines it knows of
        pass
    assert path.read_bytes().count(b"\n") == len(journal.entries) == 8 * 50
    assert pipeline.Journal(path).entries == journal.entries


class _Crash(Exception):
    """The process dying in the middle of a journal write."""


class _CrashingFile:
    """A journal file whose ``crash_at``-th write (counted over ``writes``)
    stops half-way through its line; after it, nothing is written."""

    def __init__(self, handle, writes, crash_at):
        self._handle = handle
        self._writes = writes
        self._crash_at = crash_at

    def write(self, data):
        index = next(self._writes)
        if index == self._crash_at:
            self._handle.write(data[: len(data) // 2])
            self._handle.flush()
        if index >= self._crash_at:
            raise _Crash
        return self._handle.write(data)

    def __getattr__(self, name):
        return getattr(self._handle, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._handle.close()


def test_resume_after_a_crash_at_every_journal_write(
    corpus_dir, replay_cache, questions, tmp_path, monkeypatch
):
    complete = ReplayGateway.complete
    stages = (LINK_JOURNAL, VOTE_JOURNAL)
    for crash_at in range(len(stages) * len(questions)):
        out = tmp_path / f"crash{crash_at}"
        args = ["run", *_cli_args(corpus_dir, replay_cache, out)]
        writes = itertools.count()

        def crashing_open(*args, **kwargs):
            return _CrashingFile(open(*args, **kwargs), writes, crash_at)

        monkeypatch.setattr(pipeline, "open", crashing_open, raising=False)
        with pytest.raises(_Crash):
            main(args)
        monkeypatch.delattr(pipeline, "open")
        torn = out / stages[crash_at // len(questions)]
        assert not torn.read_bytes().endswith(b"\n")
        journaled = {name: {line["question_id"] for line in _journal(out / name)} for name in stages}
        assert sum(map(len, journaled.values())) == crash_at

        requested = {name: [] for name in stages}

        def recording_complete(gateway, exchange):
            content = exchange.messages[-1].content
            stage = LINK_JOURNAL if content.startswith("Given the database") else VOTE_JOURNAL
            requested[stage] += [q.question_id for q in questions if f"### {q.text}" in content]
            return complete(gateway, exchange)

        monkeypatch.setattr(ReplayGateway, "complete", recording_complete)
        assert main(args) == 0
        monkeypatch.setattr(ReplayGateway, "complete", complete)
        for name in stages:
            assert set(requested[name]) == {q.question_id for q in questions} - journaled[name]
            assert (out / name).read_bytes().endswith(b"\n")
            assert sorted(line["question_id"] for line in _journal(out / name)) == sorted(
                q.question_id for q in questions
            )
        for name in ("predictions", "report"):
            got = (out / f"{name}.json").read_bytes()
            assert got == (FIXTURES / f"expected_{name}.json").read_bytes(), (crash_at, name)
