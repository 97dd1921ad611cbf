from __future__ import annotations

import json
import logging

import pytest
from hypothesis import given
from hypothesis import strategies as st

from text2sql.catalog import DatabaseSchema, FkRelation, Question
from text2sql import prompts
from text2sql.config import PromptConfig
from text2sql.errors import ConfigurationError
from text2sql.prompts import (
    build_generation_prompt,
    calibration_history,
)

from conftest import PROMPT_FIXTURES, prompt_fixture


@pytest.fixture(scope="module")
def c3_linked_view():
    return DatabaseSchema(
        db_id="concert_singer",
        tables=(
            ("singer", ("singer_id", "name", "country", "age")),
            ("stadium", ("capacity", "highest", "lowest", "average")),
            ("concert", ("theme", "year", "concert_id", "concert_name")),
            ("singer_in_concert", ("concert_id", "singer_id")),
        ),
        foreign_keys=(
            FkRelation("concert", "stadium_id", "stadium", "stadium_id"),
            FkRelation("singer_in_concert", "singer_id", "singer", "singer_id"),
            FkRelation("singer_in_concert", "concert_id", "concert", "concert_id"),
        ),
    )


@pytest.fixture(scope="module")
def count_question():
    return Question("0", "concert_singer", "How many singers do we have?")


def test_calibration_history_shape():
    history = calibration_history()
    assert [m.role for m in history] == ["system", "user", "assistant", "user", "assistant"]


def test_calibration_tip_one_verbatim_sql():
    history = calibration_history()
    assert "select A from B group by A order by count ( * ) desc limit 1" in history[1].content


def test_calibration_tip_two_keywords():
    history = calibration_history()
    assert 'use "INTERSECT" or "EXCEPT" instead' in history[3].content
    assert '"DISTINCT" or "LIMIT"' in history[3].content


def test_calibration_history_matches_frozen_fixture():
    frozen = json.loads((PROMPT_FIXTURES / "calibration_history.json").read_text())
    got = [{"role": m.role, "content": m.content} for m in calibration_history()]
    assert got == frozen


def test_generation_final_message_matches_frozen_fixture(c3_linked_view, count_question):
    exchange = build_generation_prompt(c3_linked_view, count_question, PromptConfig())
    assert exchange.messages[-1].content == prompt_fixture("generation_user_concert_singer.txt")
    assert exchange.messages[-1].role == "user"
    assert len(exchange.messages) == 6


def test_generation_without_calibration_is_single_message(c3_linked_view, count_question):
    with_history = build_generation_prompt(c3_linked_view, count_question, PromptConfig())
    without = build_generation_prompt(
        c3_linked_view, count_question, PromptConfig(use_calibration=False)
    )
    # The five-message history disappears, leaving only the instruction turn.
    assert len(with_history.messages) == 6
    assert len(without.messages) == 1
    assert without.messages[0].content.startswith("### Complete sqlite SQL query only")


def test_toggling_calibration_keeps_final_message(c3_linked_view, count_question):
    on = build_generation_prompt(c3_linked_view, count_question, PromptConfig())
    off = build_generation_prompt(
        c3_linked_view, count_question, PromptConfig(use_calibration=False)
    )
    assert on.messages[-1] == off.messages[-1]
    assert list(on.messages[:-1]) == calibration_history()


def test_complicated_layout_substitutes_whole_block(concert_schema, count_question):
    config = PromptConfig(layout="complicated")
    exchange = build_generation_prompt(concert_schema, count_question, config)
    assert exchange.messages[-1].content == prompt_fixture(
        "complicated_layout_concert_singer.txt"
    )


def test_a_prompt_with_an_unknown_layout_is_refused():
    # A prompt's settings are the pipeline's, so its one layout check holds:
    # an unknown layout is no silent fallback to the clear one.
    with pytest.raises(ConfigurationError, match="unknown layout 'bogus'"):
        PromptConfig(layout="bogus")


def test_foreign_key_lines_can_be_suppressed(c3_linked_view, count_question):
    config = PromptConfig(include_foreign_keys=False)
    content = build_generation_prompt(c3_linked_view, count_question, config).messages[-1].content
    assert "concert.stadium_id = stadium.stadium_id" not in content
    assert "# singer ( singer_id, name, country, age )" in content


def test_sampling_parameters_pass_through(c3_linked_view, count_question):
    exchange = build_generation_prompt(
        c3_linked_view,
        count_question,
        PromptConfig(),
        n=20,
        temperature=0.7,
        max_output_tokens=256,
    )
    assert exchange.n == 20
    assert exchange.temperature == 0.7
    assert exchange.max_output_tokens == 256


def test_token_budget_warning(c3_linked_view, count_question, caplog, monkeypatch):
    monkeypatch.setattr(prompts, "TOKEN_BUDGET", 10)
    with caplog.at_level(logging.WARNING):
        build_generation_prompt(c3_linked_view, count_question, PromptConfig())
    assert any("budget" in record.message for record in caplog.records)


@given(
    use_calibration=st.booleans(),
    include_fks=st.booleans(),
    question_text=st.text(
        alphabet=st.characters(blacklist_categories=("Cs", "Cc")), min_size=1, max_size=60
    ),
)
def test_final_message_always_ends_with_select(use_calibration, include_fks, question_text):
    view = DatabaseSchema("db", (("t", ("a", "b")),))
    question = Question("0", "db", question_text)
    config = PromptConfig(use_calibration=use_calibration, include_foreign_keys=include_fks)
    exchange = build_generation_prompt(view, question, config)
    assert exchange.messages[-1].role == "user"
    assert exchange.messages[-1].content.endswith("SELECT")
    # Deterministic and pure: building twice gives identical messages.
    again = build_generation_prompt(view, question, config)
    assert again.messages == exchange.messages
