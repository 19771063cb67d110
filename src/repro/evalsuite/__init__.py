"""Evaluation: task scoring, perplexity, and analytic model-size arithmetic."""

from repro.evalsuite.harness import (
    EvalReport,
    SuiteResult,
    evaluate_suites,
    option_log_likelihoods,
    score_cloze,
    score_multiple_choice,
)
from repro.evalsuite.model_size import (
    GB,
    QuantScheme,
    attention_map_bytes,
    decoder_stack_attention_map_bytes,
    fp16_size_bytes,
    model_size_bytes,
    model_size_gb,
    paper_schemes,
)
from repro.evalsuite.perplexity import perplexity

__all__ = [
    "EvalReport",
    "SuiteResult",
    "evaluate_suites",
    "option_log_likelihoods",
    "score_cloze",
    "score_multiple_choice",
    "GB",
    "QuantScheme",
    "attention_map_bytes",
    "decoder_stack_attention_map_bytes",
    "fp16_size_bytes",
    "model_size_bytes",
    "model_size_gb",
    "paper_schemes",
    "perplexity",
]
