"""Zero-shot text-to-SQL pipeline: LLM schema linking with self-consistency
voting, bias-calibrated prompt construction, n-way SQL sampling with
execution-consistency voting, and a Spider-format execution-accuracy harness.

The package exports only ``__version__``; import everything else from its
module (``text2sql.linking``, ``text2sql.pipeline``, ...)."""

__version__ = "0.1.0"
