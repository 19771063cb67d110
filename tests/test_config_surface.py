"""The configuration surface, pinned by name.

Every field of the four engine config dataclasses, of the five baseline
method configs, and every member of the strategy registry is
listed here.  Adding a knob means editing
this pin *and* naming, in the PR, the second non-test caller that needs a
value different from the first (ROADMAP aim 2: a mechanism nobody but its
own bench and tests switches on is deleted together with its selector).
"""

import inspect
from dataclasses import fields

import pytest

from repro.baselines import (
    AWQConfig,
    GPTQConfig,
    QATConfig,
    RTNConfig,
    SmoothQuantConfig,
    quantize,
)
from repro.core.config import (
    SEARCH_STRATEGIES,
    CompressorConfig,
    DKMConfig,
    EDKMConfig,
    RetryPolicy,
)
from repro.serving.config import ServingConfig

SURFACE = {
    DKMConfig: {
        "bits", "temperature", "iters", "tol", "weight_dtype",
        "dense_saved_bytes_limit",
    },
    CompressorConfig: {
        "num_workers", "embedding_bits", "skip_names", "retry", "fault_plan",
    },
    EDKMConfig: {
        "offload", "marshal", "uniquify", "shard", "hop_budget",
        "search_strategy", "group", "shard_min_bytes",
    },
    ServingConfig: {
        "max_batch_size", "max_queue_depth", "max_new_tokens", "eval_path",
        "tile_cache_bytes_limit", "temperature", "poll_interval_s", "retry",
        "join_timeout_s", "drain_timeout_s", "breaker_threshold",
        "breaker_probation_steps", "fault_plan",
    },
}


# ``quantize(model, config, run_fn=, skip_names=)``: eDKM takes the
# DKMConfig above; ``percdamp`` and SmoothQuant's ``alpha`` are defaults of
# the per-weight functions, not knobs.
METHOD_SURFACE = {
    RTNConfig: {"bits", "symmetric", "per_channel"},
    GPTQConfig: {"bits", "group_size"},
    AWQConfig: {"bits", "group_size"},
    SmoothQuantConfig: {"bits"},
    QATConfig: {"bits"},
}


@pytest.mark.parametrize("cls", SURFACE, ids=lambda cls: cls.__name__)
def test_field_names_are_pinned(cls):
    assert {f.name for f in fields(cls)} == SURFACE[cls]


@pytest.mark.parametrize("cls", METHOD_SURFACE, ids=lambda cls: cls.__name__)
def test_method_config_fields_are_pinned(cls):
    assert {f.name for f in fields(cls)} == METHOD_SURFACE[cls]


def test_baseline_settable_value_budget():
    """The five method configs' fields plus ``skip_names``: 10 values, down
    from 16 keyword knobs on six model-level entry points (``run_fn`` is a
    data argument, like the calibration batches it replaced)."""
    params = inspect.signature(quantize).parameters
    assert [n for n, p in params.items() if p.kind is p.POSITIONAL_OR_KEYWORD] == [
        "model", "config",
    ]
    knobs = [n for n, p in params.items() if p.kind is p.KEYWORD_ONLY and n != "run_fn"]
    assert knobs == ["skip_names"]
    assert sum(len(names) for names in METHOD_SURFACE.values()) + len(knobs) == 10


def test_field_budget():
    assert sum(len(names) for names in SURFACE.values()) == 32


def test_settable_value_budget():
    """``retry`` is one field but four values per engine."""
    policy = {f.name for f in fields(RetryPolicy)}
    assert policy == {"timeout_s", "retries", "backoff_s", "respawns"}
    retry_fields = sum("retry" in names for names in SURFACE.values())
    total = sum(len(names) for names in SURFACE.values())
    assert total - retry_fields + retry_fields * len(policy) == 38


def test_registries_are_pinned():
    assert SEARCH_STRATEGIES == ("graph", "storage-id")


@pytest.mark.parametrize(
    "cls", [DKMConfig, CompressorConfig, ServingConfig], ids=lambda cls: cls.__name__
)
def test_to_dict_keys_are_derived_from_the_fields(cls):
    """No hand-enumerated key list to drift: ``to_dict`` emits exactly the
    dataclass fields (minus the unserializable ``fault_plan``) and
    ``from_dict`` rebuilds the config from them, rejecting anything else."""
    config = cls()
    payload = config.to_dict()
    assert set(payload) == SURFACE[cls] - {"fault_plan"}
    assert cls.from_dict(payload) == config
    with pytest.raises(ValueError, match=f"unknown {cls.__name__} keys"):
        cls.from_dict({**payload, "mp_context": "spawn"})

