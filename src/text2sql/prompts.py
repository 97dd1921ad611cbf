"""Generation-prompt assembly: bias-calibration history plus the "#"-layout
instruction/context/question block, or the run-on layout as an ablation."""

from __future__ import annotations

import logging

from .catalog import (
    DatabaseSchema,
    Question,
    format_fk_line,
    format_table_line,
    serialize_complicated_layout,
)
from .config import LAYOUT_COMPLICATED, PipelineConfig
from .gateway import ChatExchange, ChatMessage

log = logging.getLogger(__name__)

GENERATION_INSTRUCTION = (
    "### Complete sqlite SQL query only and with no explanation, and do not select "
    "extra columns that are not explicitly requested in the query."
)
SCHEMA_HEADER = "### Sqlite SQL tables, with their properties:"

SYSTEM_PRIMER = (
    "You are now an excellent SQL writer, first I'll give you some tips and examples, "
    "and I need you to remember the tips, and do not make same mistakes."
)

TIP_ONE = """Tips 1:
Question: Which A has most number of B?
Gold SQL: select A from B group by A order by count ( * ) desc limit 1;
Notice that the Gold SQL doesn't select COUNT(*) because the question only wants to know the A and the number should be only used in ORDER BY clause, there are many questions asks in this way, and I need you to remember this in the the following questions."""

TIP_ONE_ACK = (
    "Thank you for the tip! I'll keep in mind that when the question only asks for a "
    "certain field, I should not include the COUNT(*) in the SELECT statement, but "
    "instead use it in the ORDER BY clause to sort the results based on the count of "
    "that field."
)

TIP_TWO = """Tips 2:
Don't use "IN", "OR", "LEFT JOIN" as it might cause extra results, use "INTERSECT" or "EXCEPT" instead, and remember to use "DISTINCT" or "LIMIT" when necessary.
For example,
Question: Who are the A who have been nominated for both B award and C award?
Gold SQL should be: select A from X where award = 'B' intersect select A from X where award = 'C';"""

TIP_TWO_ACK = (
    'Thank you for the tip! I\'ll remember to use "INTERSECT" or "EXCEPT" instead of '
    '"IN", "NOT IN", or "LEFT JOIN" when I want to find records that match or don\'t '
    'match across two tables. Additionally, I\'ll make sure to use "DISTINCT" or '
    '"LIMIT" when necessary to avoid repetitive results or limit the number of '
    "results returned."
)

# Rough sizing guard only; generation prompts are expected to stay near 1k tokens.
CHARS_PER_TOKEN = 4
TOKEN_BUDGET = 1800


def calibration_history() -> list[ChatMessage]:
    """The fixed five-message debiasing conversation prepended to generation prompts."""
    return [
        ChatMessage("system", SYSTEM_PRIMER),
        ChatMessage("user", TIP_ONE),
        ChatMessage("assistant", TIP_ONE_ACK),
        ChatMessage("user", TIP_TWO),
        ChatMessage("assistant", TIP_TWO_ACK),
    ]


def clear_generation_context(view: DatabaseSchema, include_foreign_keys: bool) -> str:
    """The "#"-bordered schema block used inside the generation prompt.

    Table lines carry no terminator here; foreign keys appear as bare
    ``# t1.c1 = t2.c2`` lines inside the same block.
    """
    lines = ["#"]
    lines.extend(format_table_line(name, cols) for name, cols in view.tables)
    if include_foreign_keys:
        lines.extend(format_fk_line(fk) for fk in view.foreign_keys)
    lines.append("#")
    return "\n".join(lines)


def generation_user_message(
    view: DatabaseSchema, question: Question, config: PipelineConfig
) -> str:
    if config.layout == LAYOUT_COMPLICATED:
        return serialize_complicated_layout(view, question)
    return "\n".join(
        [
            GENERATION_INSTRUCTION,
            SCHEMA_HEADER,
            clear_generation_context(view, config.include_foreign_keys),
            f"### {question.text}",
            "SELECT",
        ]
    )


def build_generation_prompt(
    view: DatabaseSchema,
    question: Question,
    config: PipelineConfig,
    *,
    n: int = PipelineConfig.n_samples,
    temperature: float = PipelineConfig.temperature,
    model_name: str = PipelineConfig.model_name,
    max_output_tokens: int = PipelineConfig.max_generation_tokens,
) -> ChatExchange:
    """Assemble the full SQL-generation exchange for one question."""
    messages: list[ChatMessage] = []
    if config.use_calibration:
        messages.extend(calibration_history())
    content = generation_user_message(view, question, config)
    messages.append(ChatMessage("user", content))

    estimated = sum(len(m.content) for m in messages) // CHARS_PER_TOKEN
    if estimated > TOKEN_BUDGET:
        log.warning(
            "prompt for question %s estimated at %d tokens (budget %d)",
            question.question_id,
            estimated,
            TOKEN_BUDGET,
        )
    return ChatExchange(
        messages=tuple(messages),
        n=n,
        temperature=temperature,
        model_name=model_name,
        max_output_tokens=max_output_tokens,
    )
