from __future__ import annotations

from pathlib import Path

import pytest

from text2sql import executor
from text2sql.catalog import build_catalog, load_questions, load_spider_tables
from text2sql.minicorpus import build_corpus, seed_replay_cache

FIXTURES = Path(__file__).parent / "fixtures"
PROMPT_FIXTURES = FIXTURES / "prompts"


@pytest.fixture(scope="session")
def corpus_dir(tmp_path_factory) -> Path:
    return build_corpus(tmp_path_factory.mktemp("corpus"))


@pytest.fixture(scope="session")
def catalog(corpus_dir):
    return build_catalog(load_spider_tables(corpus_dir / "tables.json"))


@pytest.fixture(scope="session")
def questions(corpus_dir):
    return load_questions(corpus_dir / "questions.json")


@pytest.fixture(scope="session")
def concert_schema(catalog):
    return catalog["concert_singer"]


@pytest.fixture(scope="session")
def car_schema(catalog):
    return catalog["car_1"]


@pytest.fixture(scope="session")
def concert_db(corpus_dir) -> Path:
    return corpus_dir / "database" / "concert_singer" / "concert_singer.sqlite"


@pytest.fixture(scope="session")
def car_db(corpus_dir) -> Path:
    return corpus_dir / "database" / "car_1" / "car_1.sqlite"


@pytest.fixture(scope="session")
def replay_cache(corpus_dir, tmp_path_factory) -> Path:
    cache_dir = tmp_path_factory.mktemp("replay_cache")
    link_summary, generate_summary = seed_replay_cache(corpus_dir, cache_dir)
    assert link_summary.ok and generate_summary.ok
    return cache_dir


@pytest.fixture
def opened_connections(monkeypatch) -> list:
    """Every connection the executor opens while the test runs, in order."""
    opened = []
    connect = executor.connect_readonly

    def counting_connect(db_path):
        conn = connect(db_path)
        opened.append(conn)
        return conn

    monkeypatch.setattr(executor, "connect_readonly", counting_connect)
    return opened


def prompt_fixture(name: str) -> str:
    return (PROMPT_FIXTURES / name).read_text(encoding="utf-8")
