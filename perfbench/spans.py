"""In-memory span recorder that wraps the package's public functions from outside.

Each span records its name, start, end, parent (from a thread-local stack),
thread and question id.  Functions are wrapped at the name they are called
through (``voting.execute_sql`` is the executor's function as the voting
module sees it), so the package itself is not changed.  `layer_metrics` turns
one pass's spans into the per-layer figures listed in ``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import math
import sqlite3
import threading
import time
from collections import defaultdict
from pathlib import Path


class Span:
    __slots__ = ("name", "start", "end", "parent", "thread", "qid", "info")

    def __init__(self, name, parent, qid):
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.qid = qid
        self.start = self.end = 0.0
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, qid=None, info=None) -> None:
        """Replace ``owner.attr`` with a recording wrapper.

        `qid(args)` names the question a span starts; otherwise it inherits its
        parent's.  `info(args, result)` is evaluated after the span has ended.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        recorder = self

        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            parent = stack[-1] if stack else None
            span = Span(name, parent, qid(args) if qid else parent.qid if parent else None)
            stack.append(span)
            span.start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                recorder.spans.append(span)
            if info is not None:
                span.info = info(args, result)
            return result

        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


def install(recorder: SpanRecorder, session_cls: type) -> None:
    """Wrap every layer boundary the benchmark measures, and the scripted
    session's POST, which stands in for the model's HTTP endpoint."""
    from text2sql import evaluation, gateway, linking, pipeline, voting

    def execution(args, outcome):
        return (str(args[0]), args[1], outcome.status)

    def stored_bytes(args, _result):
        return args[0].path_for(args[1]).stat().st_size

    recorder.wrap(pipeline, "link_schema", "pipeline.link_schema", qid=lambda a: a[1].question_id)
    recorder.wrap(pipeline, "generate_sql", "pipeline.generate_sql", qid=lambda a: a[0].question_id)
    recorder.wrap(pipeline, "execution_accuracy", "pipeline.execution_accuracy",
                  qid=lambda a: a[0][0][0])
    recorder.wrap(pipeline, "atomic_write_text", "pipeline.atomic_write_text")
    recorder.wrap(pipeline, "recall_auc", "pipeline.recall_auc")
    recorder.wrap(evaluation, "score_pair", "evaluation.score_pair")
    recorder.wrap(evaluation, "execute_sql", "evaluation.execute_sql", info=execution)
    recorder.wrap(voting, "execute_sql", "voting.execute_sql", info=execution)
    recorder.wrap(voting, "results_equivalent", "voting.results_equivalent")
    recorder.wrap(voting, "postprocess_completion", "voting.postprocess_completion")
    recorder.wrap(voting, "build_generation_prompt", "voting.build_generation_prompt")
    recorder.wrap(voting, "cluster_by_execution", "voting.cluster_by_execution")
    recorder.wrap(linking, "parse_table_list", "linking.parse_table_list")
    recorder.wrap(linking, "parse_column_dict", "linking.parse_column_dict")
    for cls in (gateway.ReplayGateway, gateway.RecordingGateway, gateway.LiveGateway):
        recorder.wrap(cls, "complete", f"{cls.__name__}.complete")
    recorder.wrap(gateway.CacheStore, "load", "CacheStore.load",
                  info=lambda _args, result: result is not None)
    recorder.wrap(gateway.CacheStore, "store", "CacheStore.store", info=stored_bytes)
    recorder.wrap(session_cls, "post", "transport.post")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def raw_sqlite_seconds(executions: list[tuple[str, str]], row_limit: int) -> float:
    """Time the same (db, sql) multiset on one reused read-only connection per
    database, fetching at most `row_limit + 1` rows as the executor does."""
    connections: dict[str, sqlite3.Connection] = {}
    total = 0.0
    try:
        for db_path, sql in executions:
            conn = connections.get(db_path)
            if conn is None:
                conn = connections[db_path] = sqlite3.connect(f"file:{db_path}?mode=ro", uri=True)
            start = time.perf_counter()
            try:
                conn.execute(sql).fetchmany(row_limit + 1)
            except sqlite3.Error:
                pass
            total += time.perf_counter() - start
    finally:
        for conn in connections.values():
            conn.close()
    return total


GATEWAY_COMPLETES = ("ReplayGateway.complete", "RecordingGateway.complete", "LiveGateway.complete")


def layer_metrics(spans: list[Span], stages: dict, pool_size: int, row_limit: int) -> dict:
    """Per-layer figures for one traced pass."""
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def durations(*names):
        return [s.duration for name in names for s in by_name[name]]

    executions = by_name["voting.execute_sql"] + by_name["evaluation.execute_sql"]
    exec_times = [s.duration for s in executions]
    statuses = [s.info[2] for s in executions]
    raw_s = raw_sqlite_seconds([(s.info[0], s.info[1]) for s in executions], row_limit)
    busy_s = sum(exec_times)

    vote_execs = by_name["voting.execute_sql"]
    distinct = {(s.qid, s.info[1]) for s in vote_execs}
    voted_sql = {(s.info[0], s.info[1]) for s in vote_execs}
    eval_execs = by_name["evaluation.execute_sql"]
    candidates = len(by_name["voting.postprocess_completion"])
    generate = durations("pipeline.generate_sql")
    equivalence = durations("voting.results_equivalent")

    requests = [s for name in GATEWAY_COMPLETES for s in by_name[name]
                if s.parent is None or s.parent.name not in GATEWAY_COMPLETES]
    loads = by_name["CacheStore.load"]
    stores = by_name["CacheStore.store"]
    link = durations("pipeline.link_schema")

    return {
        "executor.calls": len(executions),
        "executor.busy_s": busy_s,
        "executor.call_p50_us": percentile(exec_times, 0.50) * 1e6,
        "executor.call_p95_us": percentile(exec_times, 0.95) * 1e6,
        "executor.failed_error": statuses.count("error"),
        "executor.failed_timeout": statuses.count("timeout"),
        "executor.failed_overflow": statuses.count("overflow"),
        "executor.raw_sqlite_s": raw_s,
        "executor.overhead_ratio": busy_s / raw_s if raw_s else 0.0,
        "voting.generate_p50_ms": percentile(generate, 0.50) * 1e3,
        "voting.generate_p95_ms": percentile(generate, 0.95) * 1e3,
        "voting.cluster_s": sum(durations("voting.cluster_by_execution")),
        "voting.candidates": candidates,
        "voting.distinct_candidates": len(distinct),
        "voting.executions": len(vote_execs),
        "voting.useful_exec_ratio": len(distinct) / len(vote_execs) if vote_execs else 0.0,
        "voting.valid_frac": (
            sum(1 for s in vote_execs if s.info[2] == "success") / candidates if candidates else 0.0
        ),
        "voting.equivalence_calls": len(equivalence),
        "voting.equivalence_s": sum(equivalence),
        "voting.postprocess_s": sum(durations("voting.postprocess_completion")),
        "voting.exec_equiv_share": (
            (sum(s.duration for s in vote_execs) + sum(equivalence)) / sum(generate)
            if generate else 0.0
        ),
        "evaluation.score_pair_s": sum(durations("evaluation.score_pair")),
        "evaluation.executions": len(eval_execs),
        "evaluation.reexecuted_frac": (
            sum(1 for s in eval_execs if (s.info[0], s.info[1]) in voted_sql) / len(eval_execs)
            if eval_execs else 0.0
        ),
        "evaluation.auc_s": sum(durations("pipeline.recall_auc")),
        "gateway.requests": len(requests),
        "gateway.complete_s": sum(s.duration for s in requests),
        "gateway.complete_p95_us": percentile([s.duration for s in requests], 0.95) * 1e6,
        "gateway.cache_hits": sum(1 for s in loads if s.info),
        "gateway.cache_misses": sum(1 for s in loads if not s.info),
        "gateway.cache_store_s": sum(s.duration for s in stores),
        "gateway.cache_bytes_written": sum(s.info for s in stores),
        "gateway.transport_wait_s": sum(durations("transport.post")),
        "gateway.transport_posts": len(by_name["transport.post"]),
        "pipeline.link_stage_s": stages["link"],
        "pipeline.generate_stage_s": stages["generate"],
        "pipeline.eval_stage_s": stages["eval"],
        "pipeline.artifact_writes": len(by_name["pipeline.atomic_write_text"]),
        "pipeline.artifact_write_s": sum(durations("pipeline.atomic_write_text")),
        "pipeline.generate_busy_ratio": sum(generate) / (stages["generate"] * pool_size),
        "linking.link_p50_ms": percentile(link, 0.50) * 1e3,
        "linking.link_p95_ms": percentile(link, 0.95) * 1e3,
        "linking.parse_s": sum(durations("linking.parse_table_list", "linking.parse_column_dict")),
        "prompts.build_s": sum(durations("voting.build_generation_prompt")),
        "catalog.load_s": stages["catalog"],
        "trace.spans": len(spans),
    }


def _child_time(spans: list[Span]) -> dict[int, float]:
    """Time covered by each span's direct children, keyed by id(span).  Children
    run on their parent's thread, nested inside it, so their durations add up."""
    covered: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            covered[id(span.parent)] += span.duration
    return covered


def self_times(spans: list[Span]) -> dict[str, dict]:
    """Calls, total and self seconds per span name."""
    covered = _child_time(spans)
    summary: dict[str, dict] = {}
    for span in spans:
        entry = summary.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["total_s"] += span.duration
        entry["self_s"] += span.duration - covered[id(span)]
    return summary


def write_spans(spans: list[Span], path: Path) -> None:
    """One JSON object per span, in start order, with its self time."""
    ordered = sorted(spans, key=lambda s: s.start)
    index = {id(span): i for i, span in enumerate(ordered)}
    covered = _child_time(ordered)
    origin = ordered[0].start if ordered else 0.0
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as handle:
        for i, span in enumerate(ordered):
            record = {
                "id": i,
                "name": span.name,
                "start_s": span.start - origin,
                "end_s": span.end - origin,
                "self_s": span.duration - covered[id(span)],
                "parent": None if span.parent is None else index.get(id(span.parent)),
                "thread": span.thread,
                "question_id": span.qid,
            }
            handle.write(json.dumps(record) + "\n")
