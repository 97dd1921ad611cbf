"""The measured process: one client running the pipeline in a closed loop.

Started by ``run.py`` with a JSON spec.  It times its own set-up (package
import, catalog load, config and gateway construction) from a fresh
interpreter, then, unless ``--setup-only``, runs passes back to back until the
spec's time is up.  A pass is what ``text2sql run`` does: load the catalog and
questions, build the gateway, then link, generate, load predictions and
evaluate into a fresh output directory, so no stage skips work.  Each pass is
checked against the corpus's expectations.  With tracing on, passes alternate
untraced and traced, and the traced ones yield the per-layer figures.

Usage: python3 client.py SPEC_JSON RESULT_JSON [--setup-only]
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

IMPORT_START = time.perf_counter()
ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from text2sql.catalog import build_catalog, load_questions, load_spider_tables  # noqa: E402
from text2sql.config import PipelineConfig  # noqa: E402
from text2sql.executor import MAX_RESULT_ROWS  # noqa: E402
from text2sql.gateway import CacheStore, LiveGateway, RecordingGateway  # noqa: E402
from text2sql.pipeline import (  # noqa: E402
    load_predictions,
    make_gateway,
    run_eval_stage,
    run_generate_stage,
    run_link_stage,
)

IMPORT_S = time.perf_counter() - IMPORT_START

import corpus  # noqa: E402
import spans  # noqa: E402


def load_dataset(corpus_dir: Path):
    catalog = build_catalog(load_spider_tables(corpus_dir / "tables.json"))
    return catalog, load_questions(corpus_dir / "questions.json")


class Client:
    def __init__(self, spec: dict, session: corpus.FakeSession | None):
        self.spec = spec
        self.session = session
        self.corpus_dir = Path(spec["corpus_dir"])
        self.work = Path(spec["work_dir"])
        self.config = PipelineConfig(
            backend=spec["backend"],
            cache_dir=Path(spec["cache_dir"]),
            max_inflight_requests=spec["pool"],
        )

    def gateway(self, cache_dir: Path):
        """What `make_gateway` builds, with the live backend's session replaced
        by the in-process scripted one."""
        if self.session is None:
            return make_gateway(self.config)
        live = LiveGateway(
            self.config.api_base,
            "benchmark-key",
            max_attempts=self.config.retry_attempts,
            max_inflight=self.config.max_inflight_requests,
            session=self.session,
        )
        return RecordingGateway(live, CacheStore(cache_dir))

    def run_pass(self, index: int) -> dict:
        out_dir = self.work / f"pass{index}" / "out"
        cache_dir = self.work / f"pass{index}" / "cache"  # record backend: empty each pass
        start = time.perf_counter()
        catalog, questions = load_dataset(self.corpus_dir)
        loaded = time.perf_counter()
        gateway = self.gateway(cache_dir)
        link = run_link_stage(catalog, questions, gateway, self.config, out_dir)
        linked = time.perf_counter()
        generate = run_generate_stage(catalog, questions, gateway, self.config, out_dir)
        generated = time.perf_counter()
        predictions = load_predictions(out_dir / "predictions.json")
        report = run_eval_stage(catalog, questions, predictions, self.config, out_dir)
        end = time.perf_counter()
        shutil.rmtree(self.work / f"pass{index}")

        failed = {qid for qid, _ in link.failures + generate.failures}
        failed |= {q.question_id for q in questions if q.question_id not in predictions}
        expected = self.spec["expected_predictions"]
        wrong = sorted(qid for qid, sql in expected.items() if predictions.get(qid) != sql)
        return {
            "wall_s": end - start,
            "questions": len(questions),
            "questions_per_s": len(questions) / (end - start),
            "failed": len(failed),
            "ex": report.overall_ex,
            "correct": not wrong and report.overall_ex == self.spec["expected_ex"],
            "wrong_predictions": wrong[:10],
            "stages": {
                "catalog": loaded - start,
                "link": linked - loaded,
                "generate": generated - linked,
                "eval": end - generated,
            },
        }


def measure(client: Client, seconds: float, traced_passes: bool) -> dict:
    """Closed loop: start another pass while its expected length still fits."""
    recorder = spans.SpanRecorder()
    passes, layers, last_spans = [], [], []
    minimum = 4 if traced_passes else 3
    deadline = time.perf_counter() + seconds
    while True:
        traced = traced_passes and len(passes) % 2 == 1
        if traced:
            spans.install(recorder, corpus.FakeSession)
        try:
            result = client.run_pass(len(passes))
        finally:
            recorder.uninstall()
        result["traced"] = traced
        passes.append(result)
        if traced:
            last_spans = recorder.take()
            layers.append(spans.layer_metrics(
                last_spans, result["stages"], client.config.max_inflight_requests, MAX_RESULT_ROWS
            ))
        typical = statistics.median(p["wall_s"] for p in passes)
        if len(passes) >= minimum and time.perf_counter() + typical > deadline:
            break
    outcome = {"passes": passes, "layers": layers}
    if last_spans:
        outcome["self_times"] = spans.self_times(last_spans)
        spans.write_spans(last_spans, Path(client.spec["trace_file"]))
    return outcome


def main(argv: list[str]) -> int:
    spec = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    session = None
    if spec["backend"] == "record":
        scripts = json.loads(Path(spec["scripts"]).read_text(encoding="utf-8"))
        session = corpus.FakeSession(corpus.ScriptedTransport(scripts), spec["service_s"])
    # Set-up is the package import plus what precedes the first question.
    start = time.perf_counter()
    client = Client(spec, session)
    load_dataset(client.corpus_dir)
    client.gateway(client.work / "setup-cache")
    result = {"setup_s": IMPORT_S + time.perf_counter() - start}
    if "--setup-only" not in argv:
        result.update(measure(client, spec["seconds"], spec["trace"]))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    Path(argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
