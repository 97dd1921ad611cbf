from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from text2sql.catalog import DatabaseSchema, Question
from text2sql.errors import LinkingFailure
from text2sql.gateway import ChatCompletion
from text2sql.linking import (
    build_column_recall_prompt,
    build_table_recall_prompt,
    link_schema,
    parse_column_dict,
    parse_table_list,
    vote_columns,
    vote_table_sets,
)
from text2sql.minicorpus import ScriptedModel

from conftest import prompt_fixture


@pytest.fixture(scope="module")
def car_question(questions):
    return next(q for q in questions if "1970" in q.text)


def test_table_recall_prompt_matches_golden_fixture(car_schema, car_question):
    exchange = build_table_recall_prompt(car_schema, car_question)
    assert exchange.messages[0].content == prompt_fixture("table_recall_car_1.txt")
    assert exchange.messages[0].role == "user"
    assert len(exchange.messages) == 1


def test_table_recall_prompt_defaults_to_ten_samples(car_schema, car_question):
    assert build_table_recall_prompt(car_schema, car_question).n == 10


def test_table_recall_prompt_contains_check_step(concert_schema, questions):
    content = build_table_recall_prompt(concert_schema, questions[0]).messages[0].content
    assert "2 - Check whether you consider all the tables." in content


def test_table_recall_prompt_single_table_schema():
    schema = DatabaseSchema("d", (("t", ("a",)),))
    content = build_table_recall_prompt(schema, Question("0", "d", "list a")).messages[0].content
    table_lines = [l for l in content.splitlines() if l.startswith("# ")]
    assert table_lines == ["# t ( a )"]


def test_column_recall_prompt_matches_golden_fixture(car_schema, car_question):
    exchange = build_column_recall_prompt(
        car_schema, ["car_makers", "model_list", "car_names", "cars_data"], car_question
    )
    assert exchange.messages[0].content == prompt_fixture("column_recall_car_1.txt")


def test_column_recall_prompt_omits_empty_fk_block(concert_schema, questions):
    content = (
        build_column_recall_prompt(concert_schema, ["singer"], questions[0])
        .messages[0]
        .content
    )
    assert "Foreign keys:" not in content


def test_column_recall_prompt_ends_with_question(car_schema, car_question):
    content = build_column_recall_prompt(
        car_schema, ["car_makers", "cars_data"], car_question
    ).messages[0].content
    assert content.endswith(f"### {car_question.text}")


def test_parse_table_list_plain(car_schema):
    text = '["car_makers", "cars_data", "car_names", "model_list", "countries", "continents"]'
    assert parse_table_list(text, car_schema) == [
        "car_makers",
        "cars_data",
        "car_names",
        "model_list",
        "countries",
        "continents",
    ]


def test_parse_table_list_case_insensitive_with_prose(car_schema):
    text = 'Here is my ranking:\n["CARS_DATA", "car_makers"]\nDone.'
    assert parse_table_list(text, car_schema) == ["cars_data", "car_makers"]


def test_parse_table_list_drops_unknown(concert_schema):
    assert parse_table_list('["ghost_table", "singer"]', concert_schema) == ["singer"]


def test_parse_table_list_unparseable_is_empty(concert_schema):
    assert parse_table_list("no list here", concert_schema) == []
    assert parse_table_list("", concert_schema) == []


def test_parse_table_list_keeps_first_duplicate(concert_schema):
    assert parse_table_list('["singer", "SINGER", "concert"]', concert_schema) == [
        "singer",
        "concert",
    ]


def test_vote_table_sets_strict_majority():
    samples = [["a", "b", "c", "d"]] * 6 + [["a", "b", "c", "e"]] * 4
    assert vote_table_sets(samples, 4) == ["a", "b", "c", "d"]


def test_vote_table_sets_unanimous():
    samples = [["x", "y"]] * 10
    assert vote_table_sets(samples, 4) == ["x", "y"]


def test_vote_table_sets_tie_prefers_earlier_sample():
    samples = [["a", "b"]] * 5 + [["c", "d"]] * 5
    assert vote_table_sets(samples, 2) == ["a", "b"]
    samples = [["c", "d"]] + [["a", "b"]] * 4 + [["c", "d"]] * 4 + [["a", "b"]]
    assert vote_table_sets(samples, 2) == ["c", "d"]


def test_vote_table_sets_order_from_earliest_winning_sample():
    samples = [["b", "a"], ["a", "b"], ["a", "b"]]
    # All three are the same set; the earliest sample's order wins.
    assert vote_table_sets(samples, 2) == ["b", "a"]


def test_vote_table_sets_truncates_before_voting():
    samples = [["a", "b", "c"], ["a", "b", "d"], ["a", "b", "e"]]
    assert vote_table_sets(samples, 2) == ["a", "b"]


def test_vote_table_sets_ignores_empty_votes():
    samples = [[], ["a", "b"], []]
    assert vote_table_sets(samples, 2) == ["a", "b"]


def test_vote_table_sets_all_empty_raises():
    with pytest.raises(LinkingFailure):
        vote_table_sets([[], [], []], 4)


def test_parse_column_dict_plain():
    text = '{"car_makers": ["maker", "id"], "cars_data": ["year", "id"]}'
    table_columns = {
        "car_makers": ["id", "maker", "fullname", "country"],
        "cars_data": ["id", "year", "mpg"],
    }
    assert parse_column_dict(text, table_columns) == {
        "car_makers": ["maker", "id"],
        "cars_data": ["year", "id"],
    }


def test_parse_column_dict_strips_fences():
    text = '```json\n{"t": ["a"]}\n```'
    assert parse_column_dict(text, {"t": ["a", "b"]}) == {"t": ["a"]}


def test_parse_column_dict_drops_cross_table_column():
    text = '{"t": ["a", "other_col"], "u": ["b"]}'
    parsed = parse_column_dict(text, {"t": ["a"], "u": ["b", "other_col"]})
    assert parsed == {"t": ["a"], "u": ["b"]}


def test_parse_column_dict_unparseable_is_all_empty():
    assert parse_column_dict("nothing json-ish", {"t": ["a"]}) == {"t": []}


def test_parse_column_dict_missing_table_is_empty():
    parsed = parse_column_dict('{"t": ["a"]}', {"t": ["a"], "u": ["b"]})
    assert parsed["u"] == []


def test_vote_columns_frequency_dominates():
    samples = [{"t": ["a", "b"]}] * 10
    samples[3] = {"t": ["b"]}
    out = vote_columns(samples, 1, {"t": ["a", "b", "c"]})
    assert out == {"t": ["b"]}  # b in 10 samples, a in 9


def test_vote_columns_small_table_keeps_all():
    samples = [{"t": ["c", "a", "b"]}] * 4
    out = vote_columns(samples, 5, {"t": ["a", "b", "c"]})
    assert sorted(out["t"]) == ["a", "b", "c"]
    assert len(out["t"]) == 3


def test_vote_columns_mean_rank_breaks_ties():
    # Both columns appear 7/10; ranks give a mean of 1.4 vs 2.9 within a
    # three-column table, so the 1.4 column must precede.
    samples = []
    for i in range(7):
        samples.append({"t": ["x", "f", "g"] if i < 4 else ["f", "x", "g"]})
    # f ranks: 2,2,2,2,1,1,1 -> mean 11/7 ~ 1.57 ; recompute explicit case below
    samples = [
        {"t": ["f", "z", "g"]},
        {"t": ["f", "g", "z"]},
        {"t": ["f", "z", "g"]},
        {"t": ["z", "g", "f"]},
        {"t": ["f", "z", "g"]},
        {"t": ["z", "f", "g"]},
        {"t": ["g", "z", "f"]},
        {"t": []},
        {"t": []},
        {"t": []},
    ]
    # f: ranks 1,1,1,3,1,2,3 -> mean 12/7; g: 3,2,3,2,3,3,1 -> mean 17/7
    out = vote_columns(samples, 2, {"t": ["g", "f", "z"]})
    assert out["t"][0] == "f"


def test_vote_columns_schema_order_final_tiebreak():
    samples = [{"t": ["a", "b"]}, {"t": ["b", "a"]}]
    out = vote_columns(samples, 2, {"t": ["b", "a"]})
    # Equal frequency, equal mean rank: schema order decides.
    assert out["t"] == ["b", "a"]


def test_vote_columns_fallback_to_schema_prefix():
    samples = [{"t": []}, {}]
    out = vote_columns(samples, 2, {"t": ["c1", "c2", "c3"]})
    assert out["t"] == ["c1", "c2"]


class _ReplayFromScript:
    """Routes exchanges through the demo script without touching a cache."""

    def __init__(self):
        self.model = ScriptedModel()

    def complete(self, exchange):
        return self.model.complete(exchange)


def test_link_schema_car_fixture_matches_recall_appendix(car_schema, car_question):
    linked, scores = link_schema(car_schema, car_question, _ReplayFromScript())
    assert [name for name, _ in linked.tables] == [
        "car_makers",
        "model_list",
        "car_names",
        "cars_data",
    ]
    assert all(len(cols) <= 5 for _, cols in linked.tables)
    fk_pairs = {
        f"{fk.from_table}.{fk.from_column} = {fk.to_table}.{fk.to_column}"
        for fk in linked.foreign_keys
    }
    assert fk_pairs == {
        "model_list.maker = car_makers.id",
        "car_names.model = model_list.model",
        "cars_data.id = car_names.makeid",
    }
    # Every schema item is scored, recalled or not.
    assert set(scores.table_scores) == {name for name, _ in car_schema.tables}
    assert scores.table_scores["continents"] == 0.0
    assert scores.table_scores["car_makers"] == 1.0


class _WithDeepSample(_ReplayFromScript):
    """The demo script's samples plus one nested deeper than CPython's C
    recursion limit on every supported version, where json raises
    RecursionError rather than ValueError."""

    DEEP = "[" * 100_000

    def complete(self, exchange):
        texts = super().complete(exchange).texts
        return ChatCompletion(texts=(*texts, '{"car_makers": ' + self.DEEP))


def test_deeply_nested_recall_sample_is_one_unparseable_sample(car_schema, car_question):
    assert parse_table_list(_WithDeepSample.DEEP, car_schema) == []
    assert parse_column_dict('{"t": ' + _WithDeepSample.DEEP, {"t": ["a"]}) == {"t": []}
    linked, _ = link_schema(car_schema, car_question, _WithDeepSample())
    assert linked == link_schema(car_schema, car_question, _ReplayFromScript())[0]


def test_link_schema_small_schema_links_everything(concert_schema, questions):
    linked, _ = link_schema(concert_schema, questions[0], _ReplayFromScript())
    assert [name for name, _ in linked.tables] == [
        "stadium",
        "singer",
        "concert",
        "singer_in_concert",
    ]


class _Garbage:
    def complete(self, exchange):
        return ChatCompletion(texts=tuple("not parseable" for _ in range(exchange.n)))


def test_link_schema_total_parse_failure_falls_back(car_schema, car_question, caplog):
    linked, scores = link_schema(car_schema, car_question, _Garbage())
    assert [name for name, _ in linked.tables] == [
        "continents",
        "countries",
        "car_makers",
        "model_list",
    ]
    # Columns fall back to schema order prefixes, scores to all zeros.
    assert dict(linked.tables)["continents"] == ("contid", "continent")
    assert all(v == 0.0 for v in scores.table_scores.values())


def test_linked_schema_is_substructure(car_schema, car_question):
    linked, _ = link_schema(car_schema, car_question, _ReplayFromScript())
    table_names = {name for name, _ in car_schema.tables}
    for name, cols in linked.tables:
        assert name in table_names
        schema_cols = set(car_schema.columns_of(name))
        assert set(cols) <= schema_cols
    schema_fks = set(car_schema.foreign_keys)
    assert set(linked.foreign_keys) <= schema_fks


def test_link_schema_deterministic(car_schema, car_question):
    first = link_schema(car_schema, car_question, _ReplayFromScript())
    second = link_schema(car_schema, car_question, _ReplayFromScript())
    assert first == second


@settings(max_examples=200)
@given(
    majority=st.lists(
        st.sampled_from(["a", "b", "c", "d", "e", "f"]), min_size=4, max_size=4, unique=True
    ),
    noise=st.lists(
        st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f"]), min_size=4, max_size=4, unique=True),
        min_size=0,
        max_size=4,
    ),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_strict_majority_set_always_wins(majority, noise, seed):
    rng = random.Random(seed)
    samples = [list(majority) for _ in range(len(noise) + 1)] + [list(s) for s in noise]
    rng.shuffle(samples)
    winner = vote_table_sets(samples, 4)
    assert frozenset(winner) == frozenset(majority)


@given(
    data=st.dictionaries(
        st.sampled_from(["t1", "t2"]),
        st.lists(st.sampled_from(["a", "b", "c", "d", "e", "f", "g"]), max_size=7, unique=True),
        min_size=2,
        max_size=2,
    ),
    k=st.integers(min_value=1, max_value=5),
)
def test_vote_columns_length_and_uniqueness(data, k):
    table_columns = {"t1": ["a", "b", "c", "d", "e", "f", "g"], "t2": ["a", "b", "c"]}
    out = vote_columns([data], k, table_columns)
    for table, cols in out.items():
        recalled = [c for c in data.get(table, []) if c in table_columns[table]]
        expected = len(recalled) if recalled else len(table_columns[table])
        assert len(cols) == min(k, expected)
        assert len(set(cols)) == len(cols)
