"""Zero-shot text-to-SQL pipeline: LLM schema linking with self-consistency
voting, bias-calibrated prompt construction, n-way SQL sampling with
execution-consistency voting, and a Spider-format execution-accuracy harness."""

from .catalog import (
    DatabaseSchema,
    FkRelation,
    Question,
    load_questions,
    load_spider_tables,
    serialize_clear_layout,
    serialize_complicated_layout,
)
from .config import PipelineConfig, load_config
from .executor import ExecutionOutcome, ResultTable, execute_sql, is_order_sensitive, results_equivalent
from .gateway import ChatCompletion, ChatExchange, ChatMessage, request_fingerprint
from .linking import RecallScores, link_schema
from .prompts import PromptConfig, build_generation_prompt, calibration_history
from .voting import SqlCandidate, VoteResult, generate_sql, postprocess_completion

__version__ = "0.1.0"

__all__ = [
    "ChatCompletion",
    "ChatExchange",
    "ChatMessage",
    "DatabaseSchema",
    "ExecutionOutcome",
    "FkRelation",
    "PipelineConfig",
    "PromptConfig",
    "Question",
    "RecallScores",
    "ResultTable",
    "SqlCandidate",
    "VoteResult",
    "build_generation_prompt",
    "calibration_history",
    "execute_sql",
    "generate_sql",
    "is_order_sensitive",
    "link_schema",
    "load_config",
    "load_questions",
    "load_spider_tables",
    "postprocess_completion",
    "request_fingerprint",
    "results_equivalent",
    "serialize_clear_layout",
    "serialize_complicated_layout",
]
