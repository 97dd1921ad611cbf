#!/usr/bin/env python3
"""Benchmark of the text2sql pipeline: questions per second through catalog
load, schema linking, 20-way generation with execution-consistency voting and
EX evaluation, on a seeded synthetic corpus.

Usage (from the repository root):
    python3 perfbench/run.py --workload replay-small-db --seed 1 --seconds 20 --trace 0

Workloads:
  replay-small-db  many questions over databases of at most 10^3 rows, replayed
                   from a seeded cache: per-call overhead dominates.
  replay-large-db  few questions over databases of about 10^5 rows: SQLite,
                   result materialization and result comparison dominate.
  record-cold      the record backend from an empty cache, behind an in-process
                   session that answers after a fixed service time: cache
                   writes, response parsing and waits overlapping SQLite.

A run builds the corpus (data, questions, scripted completions and the
expected prediction of every question), seeds the replay cache through
``RecordingGateway``, replays the bundled demo against the committed fixtures,
then starts one client process (``client.py``) that runs the pipeline in a
closed loop for ``--seconds``.  The client's set-up is also timed in several
fresh interpreters.  With ``--trace 0`` the last line of output is a JSON object
holding the end-to-end metrics; with ``--trace 1`` the passes alternate
untraced and traced and it holds the per-layer metrics, and the spans of the
last traced pass are written to ``.perfbench/traces/``.  Every pass is checked
against the expected predictions and EX; any mismatch makes ``correct`` false.

The pipeline and the demo fixtures are read from ``src/`` and ``tests/fixtures``
of the checkout the script sits in; without them it exits with code 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench" / f"work-{os.getpid()}"
# Python's and SQLite's temporary files (sort spills) stay inside the checkout;
# the client processes inherit this.  Set before SQLite initializes.
os.environ["TMPDIR"] = os.environ["SQLITE_TMPDIR"] = str(WORK / "tmp")

import corpus  # noqa: E402

if not (ROOT / "src" / "text2sql").is_dir():
    sys.exit(f"perfbench: package source not found under {ROOT / 'src'}")
sys.path.insert(0, str(ROOT / "src"))
try:
    from text2sql.catalog import build_catalog, load_questions, load_spider_tables
    from text2sql.config import PipelineConfig
    from text2sql.gateway import CacheStore, ChatCompletion, RecordingGateway
    from text2sql.linking import link_schema
    from text2sql.minicorpus import build_corpus as build_demo_corpus
    from text2sql.minicorpus import seed_replay_cache as seed_demo_cache
    from text2sql.pipeline import (
        load_predictions,
        make_gateway,
        run_eval_stage,
        run_generate_stage,
        run_link_stage,
    )
    from text2sql.prompts import build_generation_prompt
except ModuleNotFoundError as exc:
    sys.exit(f"perfbench: cannot import the package from {ROOT / 'src'}: {exc}")

FIXTURES = ROOT / "tests" / "fixtures"
BENCHMARK = ROOT / "BENCHMARK.json"
TRACES = ROOT / ".perfbench" / "traces"

POOL = 2  # PipelineConfig.max_inflight_requests: one worker per core of the reference machine
SETUP_PROBES = 5
RUN_LIMIT_S = 170  # a run must end within 180 s; children are killed past this

WORKLOADS = {
    "replay-small-db": dict(
        corpus=corpus.CorpusSpec(databases=10, questions=100, shape=corpus.SMALL_DB,
                                 overflow_share=0.05),
        backend="replay", service_s=0.0,
    ),
    "replay-large-db": dict(
        corpus=corpus.CorpusSpec(databases=2, questions=14, shape=corpus.LARGE_DB,
                                 overflow_share=0.5),
        backend="replay", service_s=0.0,
    ),
    "record-cold": dict(
        corpus=corpus.CorpusSpec(databases=10, questions=80, shape=corpus.SMALL_DB,
                                 overflow_share=0.05),
        backend="record", service_s=0.020,
    ),
}


class ScriptedModel:
    """Gateway transport over the corpus script, for seeding the replay cache."""

    def __init__(self, transport: corpus.ScriptedTransport):
        self.transport = transport

    def complete(self, exchange):
        texts = self.transport.texts_for(exchange.messages[-1].content, exchange.n)
        return ChatCompletion(texts=tuple(texts))


def seed_replay_cache(corpus_dir: Path, scripts: dict, cache_dir: Path) -> None:
    """Record every request a replay pass makes, through RecordingGateway.

    The requests are the ones `generate_sql` sends (the same prompt arguments
    ``text2sql dump-prompt`` uses), built without executing any SQL.
    """
    config = PipelineConfig(backend="record", cache_dir=cache_dir)
    catalog = build_catalog(load_spider_tables(corpus_dir / "tables.json"))
    gateway = RecordingGateway(ScriptedModel(corpus.ScriptedTransport(scripts)), CacheStore(cache_dir))
    for question in load_questions(corpus_dir / "questions.json"):
        linked, _ = link_schema(catalog[question.db_id], question, gateway, config.linking_config())
        gateway.complete(build_generation_prompt(
            linked,
            question,
            config.prompt_config(),
            n=config.effective_n_samples,
            temperature=config.temperature,
            model_name=config.model_name,
            max_output_tokens=config.max_generation_tokens,
        ))


def demo_matches_fixtures(work: Path) -> bool:
    """Replay the bundled demo and compare with the committed fixtures (read only)."""
    corpus_dir = build_demo_corpus(work / "corpus")
    seed_demo_cache(corpus_dir, work / "cache")
    config = PipelineConfig(backend="replay", cache_dir=work / "cache", max_inflight_requests=POOL)
    catalog = build_catalog(load_spider_tables(corpus_dir / "tables.json"))
    questions = load_questions(corpus_dir / "questions.json")
    gateway = make_gateway(config)
    out = work / "out"
    run_link_stage(catalog, questions, gateway, config, out)
    run_generate_stage(catalog, questions, gateway, config, out)
    run_eval_stage(catalog, questions, load_predictions(out / "predictions.json"), config, out)
    return all(
        (out / name).read_bytes() == (FIXTURES / f"expected_{name}").read_bytes()
        for name in ("predictions.json", "report.json")
    )


def run_client(spec_path: Path, result_path: Path, deadline: float, *flags: str) -> dict:
    subprocess.run(
        [sys.executable, str(HERE / "client.py"), str(spec_path), str(result_path), *flags],
        check=True,
        timeout=max(1.0, deadline - time.perf_counter()),
    )
    return json.loads(result_path.read_text(encoding="utf-8"))


def declared(section: str, values: dict) -> dict:
    """Attach the units BENCHMARK.json declares; the names must match it exactly."""
    units = {m["name"]: m["unit"] for m in json.loads(BENCHMARK.read_text(encoding="utf-8"))[section]}
    if set(values) != set(units):
        raise ValueError(f"{section} metrics differ from BENCHMARK.json: {set(values) ^ set(units)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def end_to_end(result: dict, setup_samples: list[float]) -> dict:
    passes = result["passes"]
    qps = [p["questions_per_s"] for p in passes]
    attempted = sum(p["questions"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    q1, median, q3 = statistics.quantiles(qps, n=4)
    print(f"questions_per_s over {len(qps)} passes: median {median:.2f},"
          f" quartiles {q1:.2f}..{q3:.2f}, passes {[round(v, 2) for v in qps]}")
    print(f"setup_s samples {[round(s, 4) for s in setup_samples]}")
    return declared("end_to_end", {
        "questions_per_s": statistics.median(qps),
        "ex": statistics.median(p["ex"] for p in passes),
        "answered_frac": (attempted - failed) / attempted,
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": result["peak_rss_mb"],
    })


def per_layer(result: dict) -> dict:
    layers = result["layers"]
    values = {name: statistics.median(layer[name] for layer in layers) for name in layers[0]}
    untraced = statistics.median(p["questions_per_s"] for p in result["passes"] if not p["traced"])
    traced = statistics.median(p["questions_per_s"] for p in result["passes"] if p["traced"])
    values["trace.questions_per_s_untraced"] = untraced
    values["trace.questions_per_s_traced"] = traced
    values["trace.overhead_ratio"] = untraced / traced
    print("self time of the last traced pass (calls, total s, self s):")
    for name, row in sorted(result["self_times"].items(), key=lambda kv: -kv[1]["self_s"]):
        print(f"  {name:<34}{row['calls']:>8}{row['total_s']:>10.3f}{row['self_s']:>10.3f}")
    return declared("per_layer", values)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not all((FIXTURES / f"expected_{n}").is_file() for n in ("predictions.json", "report.json")):
        sys.exit(f"perfbench: demo fixtures not found under {FIXTURES}")

    # On SIGTERM, unwind: subprocess.run kills the running client and the
    # work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    workload = WORKLOADS[args.workload]
    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "tmp").mkdir(parents=True)
    try:
        started = time.perf_counter()
        demo_ok = demo_matches_fixtures(WORK / "demo")
        built = corpus.build_corpus(WORK / "corpus", workload["corpus"], args.seed)
        (WORK / "scripts.json").write_text(json.dumps(built.scripts), encoding="utf-8")
        if workload["backend"] == "replay":
            seed_replay_cache(built.root, built.scripts, WORK / "cache")
        spec = {
            "backend": workload["backend"],
            "service_s": workload["service_s"],
            "pool": POOL,
            "corpus_dir": str(built.root),
            "cache_dir": str(WORK / "cache"),
            "scripts": str(WORK / "scripts.json"),
            "work_dir": str(WORK / "client"),
            "trace_file": str(TRACES / f"{args.workload}-seed{args.seed}.jsonl"),
            "seconds": args.seconds,
            "trace": bool(args.trace),
            "expected_predictions": built.expected_predictions,
            "expected_ex": built.expected_ex,
        }
        spec_path = WORK / "spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        print(f"{args.workload} seed {args.seed}: {len(built.expected_predictions)} questions,"
              f" expected EX {built.expected_ex:.4f}, demo {'ok' if demo_ok else 'MISMATCH'},"
              f" prepared in {time.perf_counter() - started:.1f}s")

        deadline = started + RUN_LIMIT_S
        setup_samples = [
            run_client(spec_path, WORK / f"setup{i}.json", deadline, "--setup-only")["setup_s"]
            for i in range(SETUP_PROBES)
        ]
        result = run_client(spec_path, WORK / "result.json", deadline)
        setup_samples.append(result["setup_s"])
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    passes = result["passes"]
    for p in passes:
        if not p["correct"]:
            print(f"pass failed the gate: ex {p['ex']} (expected {built.expected_ex}),"
                  f" wrong predictions for {p['wrong_predictions']}", file=sys.stderr)
    metrics = per_layer(result) if args.trace else end_to_end(result, setup_samples)
    print(json.dumps({
        "correct": demo_ok and all(p["correct"] for p in passes),
        "attempted": sum(p["questions"] for p in passes),
        "failed": sum(p["failed"] for p in passes),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
