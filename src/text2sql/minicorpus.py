"""Bundled demo corpus: two hand-built databases, twelve gold questions, and a
scripted stand-in model whose recorded completions make offline replay runs
fully deterministic (with a correct plurality, so the demo scores EX = 1.0)."""

from __future__ import annotations

import json
import sqlite3
import tempfile
from contextlib import closing
from dataclasses import dataclass
from pathlib import Path

from .catalog import build_catalog, load_questions, load_spider_tables
from .config import PipelineConfig
from .gateway import CacheStore, ChatCompletion, ChatExchange, RecordingGateway
from .linking import COLUMN_RECALL_INSTRUCTION, TABLE_RECALL_INSTRUCTION
from .pipeline import StageSummary, run_generate_stage, run_link_stage

CONCERT_DB = "concert_singer"
CAR_DB = "car_1"

CONCERT_DDL = """
CREATE TABLE stadium (stadium_id INTEGER PRIMARY KEY, location TEXT, name TEXT,
    capacity INTEGER, highest INTEGER, lowest INTEGER, average INTEGER);
CREATE TABLE singer (singer_id INTEGER PRIMARY KEY, name TEXT, country TEXT,
    song_name TEXT, song_release_year TEXT, age INTEGER, is_male INTEGER);
CREATE TABLE concert (concert_id INTEGER PRIMARY KEY, concert_name TEXT, theme TEXT,
    stadium_id INTEGER REFERENCES stadium (stadium_id), year TEXT);
CREATE TABLE singer_in_concert (concert_id INTEGER REFERENCES concert (concert_id),
    singer_id INTEGER REFERENCES singer (singer_id));
"""

CONCERT_ROWS = {
    "stadium": [
        (1, "East Side", "Riverbank Arena", 5000, 2100, 300, 1200),
        (2, "West Side", "Harbor Field", 3200, 1500, 250, 900),
        (3, "North End", "Maple Grove Park", 8000, 4200, 600, 2500),
    ],
    "singer": [
        (1, "Joe Sharp", "Netherlands", "You", "1992", 52, 1),
        (2, "Timbaland", "United States", "Dangerous", "2008", 32, 1),
        (3, "Justin Brown", "France", "Hey Oh", "2013", 29, 1),
        (4, "Rose White", "France", "Sun", "2003", 41, 0),
        (5, "John Nizinik", "France", "Gentleman", "2014", 43, 1),
        (6, "Tribal King", "France", "Love", "2016", 25, 1),
    ],
    "concert": [
        (1, "Auditions", "Free choice", 1, "2014"),
        (2, "Super bootcamp", "Free choice 2", 2, "2014"),
        (3, "Home Visits", "Bleeding Love", 3, "2015"),
        (4, "Week 1", "Wide Awake", 3, "2015"),
    ],
    "singer_in_concert": [(1, 2), (1, 3), (2, 3), (2, 5), (3, 5), (4, 5)],
}

CAR_DDL = """
CREATE TABLE continents (contid INTEGER PRIMARY KEY, continent TEXT);
CREATE TABLE countries (countryid INTEGER PRIMARY KEY, countryname TEXT,
    continent INTEGER REFERENCES continents (contid));
CREATE TABLE car_makers (id INTEGER PRIMARY KEY, maker TEXT, fullname TEXT,
    country INTEGER REFERENCES countries (countryid));
CREATE TABLE model_list (modelid INTEGER PRIMARY KEY, maker INTEGER REFERENCES car_makers (id),
    model TEXT);
-- model_list.model is not unique: the key is declared for tables.json, and
-- nothing turns on PRAGMA foreign_keys, so SQLite never enforces it.
CREATE TABLE car_names (makeid INTEGER PRIMARY KEY, model TEXT REFERENCES model_list (model),
    make TEXT);
CREATE TABLE cars_data (id INTEGER PRIMARY KEY REFERENCES car_names (makeid), mpg REAL,
    cylinders INTEGER, edispl REAL, horsepower INTEGER, weight INTEGER, accelerate REAL,
    year INTEGER);
"""

CAR_ROWS = {
    "continents": [(1, "america"), (2, "europe")],
    "countries": [(1, "usa", 1), (2, "germany", 2), (3, "france", 2)],
    "car_makers": [
        (1, "amc", "American Motor Company", 1),
        (2, "volkswagen", "Volkswagen", 2),
        (3, "bmw", "BMW", 2),
        (4, "citroen", "Citroen", 3),
    ],
    "model_list": [
        (1, 1, "amc"),
        (2, 2, "volkswagen"),
        (3, 3, "bmw"),
        (4, 4, "citroen"),
        (5, 1, "rambler"),
    ],
    "car_names": [
        (1, "amc", "amc gremlin"),
        (2, "volkswagen", "volkswagen rabbit"),
        (3, "bmw", "bmw 2002"),
        (4, "citroen", "citroen ds-21 pallas"),
        (5, "amc", "amc hornet"),
    ],
    "cars_data": [
        (1, 21.0, 6, 199.0, 90, 2648, 15.0, 1970),
        (2, 24.0, 4, 90.0, 75, 2108, 15.5, 1974),
        (3, 26.0, 4, 121.0, 113, 2234, 12.5, 1970),
        (4, 25.0, 4, 133.0, 115, 3090, 17.5, 1970),
        (5, 18.0, 6, 199.0, 97, 2774, 15.5, 1970),
    ],
}


@dataclass(frozen=True)
class QuestionScript:
    """One demo question plus the canned model behavior for it."""

    db_id: str
    text: str
    difficulty: str
    table_ranking: tuple[str, ...]
    column_ranking: dict[str, tuple[str, ...]]
    correct: tuple[str, ...]
    wrong: str

    @property
    def gold_sql(self) -> str:
        return self.correct[0]


QUESTION_SCRIPTS: tuple[QuestionScript, ...] = (
    QuestionScript(
        CONCERT_DB,
        "How many singers do we have?",
        "easy",
        ("singer", "singer_in_concert", "concert", "stadium"),
        {"singer": ("singer_id", "name", "country", "age", "song_name")},
        ("SELECT count(*) FROM singer", "SELECT count(singer_id) FROM singer"),
        "SELECT count(*) FROM singer WHERE is_male = 1",
    ),
    QuestionScript(
        CONCERT_DB,
        "What is the average age of all singers?",
        "easy",
        ("singer", "singer_in_concert", "concert", "stadium"),
        {"singer": ("age", "singer_id", "name", "country", "song_name")},
        ("SELECT avg(age) FROM singer", "SELECT sum(age) * 1.0 / count(*) FROM singer"),
        "SELECT max(age) FROM singer",
    ),
    QuestionScript(
        CONCERT_DB,
        "Show name and country for all singers ordered by age from the oldest to the youngest.",
        "medium",
        ("singer", "singer_in_concert", "concert", "stadium"),
        {"singer": ("name", "country", "age", "singer_id", "song_name")},
        (
            "SELECT name, country FROM singer ORDER BY age DESC",
            "SELECT name, country FROM singer ORDER BY -age",
        ),
        "SELECT name, country FROM singer ORDER BY age",
    ),
    QuestionScript(
        CONCERT_DB,
        "What are the names of the stadiums with a capacity of at least 5000?",
        "medium",
        ("stadium", "concert", "singer_in_concert", "singer"),
        {"stadium": ("name", "capacity", "stadium_id", "location", "highest")},
        (
            "SELECT name FROM stadium WHERE capacity >= 5000",
            "SELECT name FROM stadium WHERE capacity > 4999",
        ),
        "SELECT name FROM stadium WHERE capacity > 5000",
    ),
    QuestionScript(
        CONCERT_DB,
        "How many concerts were held in the year 2014?",
        "easy",
        ("concert", "stadium", "singer_in_concert", "singer"),
        {"concert": ("year", "concert_id", "concert_name", "theme", "stadium_id")},
        (
            "SELECT count(*) FROM concert WHERE year = '2014'",
            "SELECT count(concert_id) FROM concert WHERE year = '2014'",
        ),
        "SELECT count(*) FROM concert",
    ),
    QuestionScript(
        CONCERT_DB,
        "What is the name of the singer who performed in the most concerts?",
        "hard",
        ("singer_in_concert", "singer", "concert", "stadium"),
        {
            "singer_in_concert": ("singer_id", "concert_id"),
            "singer": ("name", "singer_id", "country", "age"),
        },
        (
            "SELECT T2.name FROM singer_in_concert AS T1 JOIN singer AS T2 "
            "ON T1.singer_id = T2.singer_id GROUP BY T2.singer_id "
            "ORDER BY count(*) DESC LIMIT 1",
            "SELECT name FROM singer WHERE singer_id = (SELECT singer_id "
            "FROM singer_in_concert GROUP BY singer_id ORDER BY count(*) DESC LIMIT 1)",
        ),
        "SELECT T2.name FROM singer_in_concert AS T1 JOIN singer AS T2 "
        "ON T1.singer_id = T2.singer_id GROUP BY T2.singer_id ORDER BY count(*) ASC LIMIT 1",
    ),
    QuestionScript(
        CAR_DB,
        "What is the name of the different car makers who produced a car in 1970?",
        "medium",
        ("car_makers", "model_list", "car_names", "cars_data", "countries", "continents"),
        {
            "car_makers": ("maker", "id", "fullname", "country"),
            "model_list": ("maker", "model", "modelid"),
            "car_names": ("model", "makeid", "make"),
            "cars_data": ("year", "id", "mpg", "horsepower", "weight"),
        },
        (
            "SELECT DISTINCT T1.maker FROM car_makers AS T1 JOIN model_list AS T2 "
            "ON T1.id = T2.maker JOIN car_names AS T3 ON T2.model = T3.model "
            "JOIN cars_data AS T4 ON T3.makeid = T4.id WHERE T4.year = 1970",
            "SELECT DISTINCT car_makers.maker FROM car_makers "
            "JOIN model_list ON car_makers.id = model_list.maker "
            "JOIN car_names ON model_list.model = car_names.model "
            "JOIN cars_data ON car_names.makeid = cars_data.id WHERE cars_data.year = 1970",
        ),
        "SELECT DISTINCT maker FROM car_makers",
    ),
    QuestionScript(
        CAR_DB,
        "How many countries exist?",
        "easy",
        ("countries", "continents", "car_makers", "model_list", "car_names", "cars_data"),
        {"countries": ("countryid", "countryname", "continent")},
        ("SELECT count(*) FROM countries", "SELECT count(countryid) FROM countries"),
        "SELECT count(*) FROM continents",
    ),
    QuestionScript(
        CAR_DB,
        "What is the average weight of cars produced in 1970?",
        "medium",
        ("cars_data", "car_names", "model_list", "car_makers", "countries", "continents"),
        {"cars_data": ("weight", "year", "id", "mpg", "cylinders")},
        (
            "SELECT avg(weight) FROM cars_data WHERE year = 1970",
            "SELECT sum(weight) * 1.0 / count(*) FROM cars_data WHERE year = 1970",
        ),
        "SELECT avg(weight) FROM cars_data",
    ),
    QuestionScript(
        CAR_DB,
        "What are the names of all continents?",
        "easy",
        ("continents", "countries", "car_makers", "model_list", "car_names", "cars_data"),
        {"continents": ("continent", "contid")},
        (
            "SELECT continent FROM continents",
            "SELECT continent FROM continents WHERE contid IS NOT NULL",
        ),
        "SELECT countryname FROM countries",
    ),
    QuestionScript(
        CAR_DB,
        "What is the full name of the maker with the most models?",
        "hard",
        ("car_makers", "model_list", "car_names", "cars_data", "countries", "continents"),
        {
            "car_makers": ("fullname", "id", "maker", "country"),
            "model_list": ("maker", "modelid", "model"),
        },
        (
            "SELECT T1.fullname FROM car_makers AS T1 JOIN model_list AS T2 "
            "ON T1.id = T2.maker GROUP BY T1.id ORDER BY count(*) DESC LIMIT 1",
            "SELECT fullname FROM car_makers WHERE id = (SELECT maker FROM model_list "
            "GROUP BY maker ORDER BY count(*) DESC LIMIT 1)",
        ),
        "SELECT maker FROM car_makers ORDER BY id LIMIT 1",
    ),
    QuestionScript(
        CAR_DB,
        "List the distinct horsepower of cars with more than 4 cylinders in descending order.",
        "extra",
        ("cars_data", "car_names", "model_list", "car_makers", "countries", "continents"),
        {"cars_data": ("horsepower", "cylinders", "id", "year", "mpg")},
        (
            "SELECT DISTINCT horsepower FROM cars_data WHERE cylinders > 4 "
            "ORDER BY horsepower DESC",
            "SELECT DISTINCT horsepower FROM cars_data WHERE cylinders >= 5 "
            "ORDER BY horsepower DESC",
        ),
        "SELECT DISTINCT horsepower FROM cars_data ORDER BY horsepower DESC",
    ),
)

BROKEN_SQL = (
    "SELECT * FROM table_that_does_not_exist",
    "SELECT FROM WHERE",
    "SELECT name FROM",
)

CORRECT_SAMPLES = 12
WRONG_SAMPLES = 5


def _create_database(dest: Path, db_id: str, ddl: str, rows: dict[str, list[tuple]]) -> dict:
    """Create db_id's SQLite file under dest and return its tables.json
    descriptor as SQLite reports it: tables in creation order, columns in
    declaration order, and foreign keys as global column indices, each table's
    in the order ``PRAGMA foreign_key_list`` gives (last-declared first)."""
    path = dest / "database" / db_id / f"{db_id}.sqlite"
    path.parent.mkdir(parents=True, exist_ok=True)
    if path.exists():
        path.unlink()
    with closing(sqlite3.connect(path)) as conn:
        conn.executescript(ddl)
        for table, table_rows in rows.items():
            placeholders = ", ".join("?" * len(table_rows[0]))
            conn.executemany(f"INSERT INTO {table} VALUES ({placeholders})", table_rows)
        conn.commit()
        query = "SELECT name FROM sqlite_master WHERE type = 'table' ORDER BY rowid"
        tables = [name for (name,) in conn.execute(query)]
        columns: list[list] = [[-1, "*"]]
        keys = []
        for idx, table in enumerate(tables):
            columns += [[idx, row[1]] for row in conn.execute(f"PRAGMA table_info({table})")]
            keys += [
                ((table, row[3]), (row[2], row[4]))
                for row in conn.execute(f"PRAGMA foreign_key_list({table})")
            ]
    index = {(tables[t], name): i for i, (t, name) in enumerate(columns) if t >= 0}
    return {
        "db_id": db_id,
        "table_names_original": tables,
        "column_names_original": columns,
        "foreign_keys": [[index[child], index[parent]] for child, parent in keys],
    }


def build_corpus(dest: Path | str) -> Path:
    """Write both SQLite files under dest, then tables.json as SQLite describes
    them, and questions.json."""
    dest = Path(dest)
    descriptors = [
        _create_database(dest, CONCERT_DB, CONCERT_DDL, CONCERT_ROWS),
        _create_database(dest, CAR_DB, CAR_DDL, CAR_ROWS),
    ]
    (dest / "tables.json").write_text(json.dumps(descriptors, indent=2) + "\n", encoding="utf-8")

    questions = [
        {
            "db_id": script.db_id,
            "question": script.text,
            "query": script.gold_sql,
            "difficulty": script.difficulty,
        }
        for script in QUESTION_SCRIPTS
    ]
    (dest / "questions.json").write_text(json.dumps(questions, indent=2) + "\n", encoding="utf-8")
    return dest


def _table_recall_texts(script: QuestionScript) -> list[str]:
    ranking = list(script.table_ranking)
    swapped = ranking[:-2] + [ranking[-1], ranking[-2]]
    texts = [json.dumps(ranking) for _ in range(8)]
    texts.append(json.dumps(swapped))
    texts.append("Sure! Here is the ranking:\n" + json.dumps(swapped))
    return texts


def _column_recall_texts(script: QuestionScript) -> list[str]:
    ranking = {table: list(cols) for table, cols in script.column_ranking.items()}
    noisy = {
        table: (cols[:-2] + [cols[-1], cols[-2]] if len(cols) >= 2 else list(cols))
        for table, cols in ranking.items()
    }
    texts = [json.dumps(ranking) for _ in range(8)]
    texts.append(json.dumps(noisy))
    texts.append("```json\n" + json.dumps(noisy) + "\n```")
    return texts


def _format_generation_sample(sql: str, index: int) -> str:
    style = index % 3
    if style == 0 and sql.upper().startswith("SELECT "):
        return " " + sql[7:]  # continuation of the prompt's trailing SELECT
    if style == 1:
        return sql + ";"
    return f"```sql\n{sql};\n```"


def _generation_texts(script: QuestionScript) -> list[str]:
    texts = []
    for index in range(CORRECT_SAMPLES):
        sql = script.correct[index % len(script.correct)]
        texts.append(_format_generation_sample(sql, index))
    for index in range(WRONG_SAMPLES):
        texts.append(_format_generation_sample(script.wrong, CORRECT_SAMPLES + index))
    for index in range(len(BROKEN_SQL)):
        texts.append(BROKEN_SQL[index])
    return texts


class ScriptedModel:
    """Gateway transport that answers the demo corpus's prompts from a script."""

    def complete(self, exchange: ChatExchange) -> ChatCompletion:
        content = exchange.messages[-1].content
        script = self._script_for(content)
        if content.startswith(TABLE_RECALL_INSTRUCTION):
            texts = _table_recall_texts(script)
        elif content.startswith(COLUMN_RECALL_INSTRUCTION):
            texts = _column_recall_texts(script)
        else:
            texts = _generation_texts(script)
        sized = [texts[i % len(texts)] for i in range(exchange.n)]
        return ChatCompletion(texts=tuple(sized))

    @staticmethod
    def _script_for(content: str) -> QuestionScript:
        for script in QUESTION_SCRIPTS:
            if script.text in content:
                return script
        raise LookupError("prompt does not match any scripted question")


def seed_replay_cache(
    corpus_dir: Path | str, cache_dir: Path | str, config: PipelineConfig | None = None
) -> tuple[StageSummary, StageSummary]:
    """Record the scripted model's answers for every pipeline request so replay
    runs over the corpus work offline. Link artifacts go to a scratch dir; only
    the cache matters here."""
    corpus_dir = Path(corpus_dir)
    config = config or PipelineConfig(backend="record", cache_dir=Path(cache_dir))
    catalog = build_catalog(load_spider_tables(corpus_dir / "tables.json"))
    questions = load_questions(corpus_dir / "questions.json")
    gateway = RecordingGateway(ScriptedModel(), CacheStore(cache_dir))
    with tempfile.TemporaryDirectory() as scratch:
        scratch_dir = Path(scratch)
        link_summary = run_link_stage(catalog, questions, gateway, config, scratch_dir)
        generate_summary = run_generate_stage(catalog, questions, gateway, config, scratch_dir)
    return link_summary, generate_summary
