from __future__ import annotations

import dataclasses
import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from text2sql.catalog import (
    DatabaseSchema,
    FkRelation,
    Question,
    load_questions,
    load_spider_tables,
    read_json_file,
    serialize_clear_layout,
    serialize_complicated_layout,
)
from text2sql.errors import SpiderFormatError

from conftest import prompt_fixture


def test_loads_both_databases(catalog):
    assert set(catalog) == {"concert_singer", "car_1"}
    concert = catalog["concert_singer"]
    assert [name for name, _ in concert.tables] == [
        "stadium",
        "singer",
        "concert",
        "singer_in_concert",
    ]


def test_concert_clear_line_matches_expected(concert_schema):
    lines = serialize_clear_layout(concert_schema).splitlines()
    assert "# concert ( concert_id, concert_name, theme, stadium_id, year );" in lines


def test_sentinel_star_column_is_dropped(catalog):
    for schema in catalog.values():
        for _, columns in schema.tables:
            assert "*" not in columns


def test_foreign_key_indices_resolved_to_names(car_schema):
    fks = {
        (fk.from_table, fk.from_column, fk.to_table, fk.to_column)
        for fk in car_schema.foreign_keys
    }
    assert ("model_list", "maker", "car_makers", "id") in fks
    assert ("cars_data", "id", "car_names", "makeid") in fks


def test_empty_tables_file(tmp_path):
    path = tmp_path / "tables.json"
    path.write_text("[]")
    assert load_spider_tables(path) == []


def test_malformed_json_names_byte_offset(tmp_path):
    path = tmp_path / "tables.json"
    path.write_text('[{"db_id": "x", }]')
    with pytest.raises(SpiderFormatError, match="byte offset"):
        load_spider_tables(path)


def test_dangling_foreign_key_index_names_db(tmp_path):
    descriptor = {
        "db_id": "broken_db",
        "table_names_original": ["t"],
        "column_names_original": [[-1, "*"], [0, "a"]],
        "column_types": ["text", "number"],
        "foreign_keys": [[1, 99]],
    }
    path = tmp_path / "tables.json"
    path.write_text(json.dumps([descriptor]))
    with pytest.raises(SpiderFormatError, match="broken_db"):
        load_spider_tables(path)


def test_deeply_nested_json_file_is_named_format_error(tmp_path):
    # Deeper than CPython's C recursion limit on every supported version, so
    # json raises RecursionError rather than ValueError.
    path = tmp_path / "tables.json"
    path.write_text("[" * 100_000)
    with pytest.raises(SpiderFormatError) as excinfo:
        read_json_file(path)
    assert str(excinfo.value).startswith(f"cannot read {path}: ")


_STAR_AND_A = [[-1, "*"], [0, "a"]]


@pytest.mark.parametrize(
    "descriptor, named",
    [
        ({"table_names_original": ["t", "T"], "column_names_original": [*_STAR_AND_A, [1, "b"]]},
         "duplicate table 'T' in d"),
        ({"table_names_original": ["t"], "column_names_original": [*_STAR_AND_A, [0, "A"]]},
         "duplicate column 'A' in table 't'"),
        ({"table_names_original": ["t", "u"], "column_names_original": _STAR_AND_A},
         "table 'u' has no columns"),
        ({"table_names_original": ["t"], "column_names_original": [*_STAR_AND_A, [0, " "]]},
         "table 't' has an empty column name"),
        ({"table_names_original": ["t"], "column_names_original": [*_STAR_AND_A, [-1, "ghost"]],
          "foreign_keys": [[1, 2]]},
         "foreign key entry 0 references dangling column index 2"),
        ({"table_names_original": ["t"], "column_names_original": [[0, "*"], [0, "a"]],
          "foreign_keys": [[1, 0]]},
         "foreign key entry 0 references dangling column index 0"),
        ({"table_names_original": ["t"], "column_names_original": _STAR_AND_A,
          "foreign_keys": [[[1], 1]]},
         "foreign key entry 0 references dangling column index [1]"),
    ],
    ids=[
        "duplicate-table",
        "columns-differing-in-case",
        "table-without-columns",
        "blank-column-name",
        "foreign-key-to-no-table",
        "foreign-key-to-star-entry",
        "foreign-key-index-not-an-integer",
    ],
)
def test_inconsistent_descriptor_is_named_format_error(tmp_path, descriptor, named):
    path = tmp_path / "tables.json"
    path.write_text(json.dumps([{"db_id": "d", **descriptor}]))
    with pytest.raises(SpiderFormatError) as excinfo:
        load_spider_tables(path)
    assert str(excinfo.value) == f"{path}: d: {named}"


def test_load_questions_reads_gold_and_assigns_ids(tmp_path):
    path = tmp_path / "dev.json"
    path.write_text(
        json.dumps(
            [
                {
                    "question": "How many singers do we have?",
                    "db_id": "concert_singer",
                    "query": "SELECT count(*) FROM singer",
                },
                {"question": "no gold here", "db_id": "concert_singer"},
            ]
        )
    )
    loaded = load_questions(path)
    assert loaded[0].question_id == "0"
    assert loaded[0].gold_sql == "SELECT count(*) FROM singer"
    assert loaded[1].gold_sql is None


def test_load_questions_missing_field_reports_index(tmp_path):
    path = tmp_path / "dev.json"
    path.write_text(json.dumps([{"question": "q", "db_id": "d"}, {"db_id": "d"}]))
    with pytest.raises(SpiderFormatError, match="record 1"):
        load_questions(path)


def test_mini_corpus_question_count(questions):
    assert len(questions) == 12
    assert all(q.gold_sql for q in questions)


@pytest.mark.parametrize(
    "records, named",
    [
        ([{"question_id": "q"}, {"question_id": "q"}], "records 0 and 1 share question_id 'q'"),
        ([{"question_id": 1}, {}], "records 0 and 1 share question_id '1'"),
        ([{}, {}, {"question_id": "0"}], "records 0 and 2 share question_id '0'"),
    ],
    ids=["both-explicit", "explicit-then-default", "default-then-explicit"],
)
def test_load_questions_refuses_a_repeated_question_id(tmp_path, records, named):
    path = tmp_path / "dev.json"
    path.write_text(json.dumps([{"question": "q", "db_id": "d", **r} for r in records]))
    with pytest.raises(SpiderFormatError) as excinfo:
        load_questions(path)
    assert str(excinfo.value) == f"{path}: {named}"


# The demo catalog as SQLite describes it. build_corpus reads the foreign keys
# back with PRAGMA foreign_key_list, which lists a table's keys last-declared
# first; this pins that order on every SQLite the tests run against.
_DEMO_CATALOG = [
    (
        "concert_singer",
        (
            ("stadium", ("stadium_id", "location", "name", "capacity", "highest", "lowest",
                         "average")),
            ("singer", ("singer_id", "name", "country", "song_name", "song_release_year",
                        "age", "is_male")),
            ("concert", ("concert_id", "concert_name", "theme", "stadium_id", "year")),
            ("singer_in_concert", ("concert_id", "singer_id")),
        ),
        (
            ("concert", "stadium_id", "stadium", "stadium_id"),
            ("singer_in_concert", "singer_id", "singer", "singer_id"),
            ("singer_in_concert", "concert_id", "concert", "concert_id"),
        ),
    ),
    (
        "car_1",
        (
            ("continents", ("contid", "continent")),
            ("countries", ("countryid", "countryname", "continent")),
            ("car_makers", ("id", "maker", "fullname", "country")),
            ("model_list", ("modelid", "maker", "model")),
            ("car_names", ("makeid", "model", "make")),
            ("cars_data", ("id", "mpg", "cylinders", "edispl", "horsepower", "weight",
                           "accelerate", "year")),
        ),
        (
            ("countries", "continent", "continents", "contid"),
            ("car_makers", "country", "countries", "countryid"),
            ("model_list", "maker", "car_makers", "id"),
            ("car_names", "model", "model_list", "model"),
            ("cars_data", "id", "car_names", "makeid"),
        ),
    ),
]


def test_demo_catalog_is_pinned(corpus_dir):
    loaded = [
        (
            schema.db_id,
            schema.tables,
            tuple(
                (fk.from_table, fk.from_column, fk.to_table, fk.to_column)
                for fk in schema.foreign_keys
            ),
        )
        for schema in load_spider_tables(corpus_dir / "tables.json")
    ]
    assert loaded == _DEMO_CATALOG


def test_clear_layout_minimal_single_table():
    schema = DatabaseSchema("d", (("t", ("a",)),))
    assert serialize_clear_layout(schema) == "# t ( a );"


def test_clear_layout_linked_car_block_ends_with_fk(car_schema):
    view = dataclasses.replace(
        car_schema,
        tables=tuple(t for t in car_schema.tables if t[0] != "continents" and t[0] != "countries"),
        foreign_keys=tuple(
            fk
            for fk in car_schema.foreign_keys
            if fk.from_table not in ("countries", "car_makers")
        ),
    )
    assert serialize_clear_layout(view).splitlines()[-1] == "# cars_data.id = car_names.makeid"


def test_clear_layout_golden_fixture(concert_schema):
    tables_only = dataclasses.replace(concert_schema, foreign_keys=())
    assert serialize_clear_layout(tables_only) == prompt_fixture("clear_layout_concert_singer.txt")


def test_complicated_layout_contains_singer_segment(concert_schema, questions):
    question = questions[0]
    text = serialize_complicated_layout(concert_schema, question)
    assert "singer : singer.singer_id , singer.name" in text


def test_complicated_layout_minimal():
    schema = DatabaseSchema("d", (("t", ("a",)),))
    question = Question("0", "d", "list a")
    text = serialize_complicated_layout(schema, question)
    assert text.endswith("t : t.a\nSELECT")


def test_complicated_layout_golden_fixture(concert_schema, questions):
    question = next(q for q in questions if q.text == "How many singers do we have?")
    got = serialize_complicated_layout(concert_schema, question)
    assert got == prompt_fixture("complicated_layout_concert_singer.txt")


def test_duplicate_table_names_rejected():
    with pytest.raises(SpiderFormatError):
        DatabaseSchema(
            "d",
            (("t", ("a",)), ("T", ("b",))),
        )


def test_unresolvable_fk_rejected():
    with pytest.raises(SpiderFormatError):
        DatabaseSchema(
            "d",
            (("t", ("a",)),),
            (FkRelation("t", "a", "ghost", "x"),),
        )


_identifier = st.text(
    alphabet=st.characters(whitelist_categories=("Ll",), whitelist_characters="_"),
    min_size=1,
    max_size=8,
)


@st.composite
def _schemas(draw):
    table_names = draw(
        st.lists(_identifier, min_size=1, max_size=4, unique_by=lambda s: s.lower())
    )
    tables = []
    for name in table_names:
        columns = draw(
            st.lists(_identifier, min_size=1, max_size=5, unique_by=lambda s: s.lower())
        )
        tables.append((name, tuple(columns)))
    return DatabaseSchema("db", tuple(tables))


@given(_schemas())
def test_clear_layout_round_trips_every_name(schema):
    text = serialize_clear_layout(schema)
    for name, cols in schema.tables:
        line = next(l for l in text.splitlines() if l.startswith(f"# {name} ("))
        for col in cols:
            assert col in line
    # And deterministic: same schema, same bytes.
    assert serialize_clear_layout(schema) == text
