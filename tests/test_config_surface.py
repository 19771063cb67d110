"""The configuration surface, pinned by name.

Every field of the three engine config dataclasses, every keyword of
``ModelCompressor``, every field of the five baseline method configs, and
every member of the strategy registry is listed here.  Adding a knob means editing
this pin *and* naming, in the PR, the second non-test caller that needs a
value different from the first (ROADMAP aim 2: a mechanism nobody but its
own bench and tests switches on is deleted together with its selector).
"""

import inspect
import json
import math
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
from repro.core.compressor import ModelCompressor
from repro.core.config import DKMConfig, EDKMConfig
from repro.core.marshal import SEARCH_STRATEGIES
from repro.serving.config import RetryPolicy, ServingConfig
from repro.tensor.dtype import float16

SURFACE = {
    DKMConfig: {
        "bits", "temperature", "iters", "tol", "weight_dtype",
    },
    EDKMConfig: {
        "offload", "marshal", "uniquify", "shard", "hop_budget", "group",
        "shard_min_bytes",
    },
    ServingConfig: {
        "max_batch_size", "max_queue_depth", "max_new_tokens",
        "temperature", "poll_interval_s", "retry", "join_timeout_s",
        "drain_timeout_s", "fault_plan",
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
    assert sum(len(names) for names in SURFACE.values()) == 21


def test_settable_value_budget():
    """``retry`` is one field but four values."""
    policy = {f.name for f in fields(RetryPolicy)}
    assert policy == {"timeout_s", "retries", "backoff_s", "respawns"}
    retry_fields = sum("retry" in names for names in SURFACE.values())
    total = sum(len(names) for names in SURFACE.values())
    assert total - retry_fields + retry_fields * len(policy) == 24


def test_model_compressor_keywords_are_pinned():
    """The configs plus two loose values; there is no engine knob."""
    params = inspect.signature(ModelCompressor).parameters
    assert list(params) == [
        "dkm_config", "edkm_config", "embedding_bits", "skip_names",
    ]
    assert (params["embedding_bits"].default, params["skip_names"].default) == (8, ())


def test_registries_are_pinned():
    assert SEARCH_STRATEGIES == ("graph", "storage-id")


@pytest.mark.parametrize("cls", [DKMConfig, ServingConfig], ids=lambda cls: cls.__name__)
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


# One value off the default for every serialized field: a field must
# survive ``to_dict`` / JSON / ``from_dict`` at any value, not only at the
# default the test above builds.
NON_DEFAULTS = {
    DKMConfig: dict(
        bits=4, temperature=0.5, iters=7, tol=1e-4, weight_dtype=float16,
    ),
    ServingConfig: dict(
        max_batch_size=3, max_queue_depth=5, max_new_tokens=9,
        temperature=0.7, poll_interval_s=0.01,
        retry=RetryPolicy(timeout_s=1.0, retries=0, backoff_s=0.0, respawns=1),
        join_timeout_s=1.5, drain_timeout_s=2.5,
    ),
    RetryPolicy: dict(timeout_s=0.25, retries=5, backoff_s=0.0, respawns=0),
}


def test_non_default_table_covers_every_serialized_field():
    for cls, values in NON_DEFAULTS.items():
        assert set(values) == {f.name for f in fields(cls)} - {"fault_plan"}


@pytest.mark.parametrize(
    "cls,name",
    [(cls, name) for cls, values in NON_DEFAULTS.items() for name in values],
    ids=lambda value: value if isinstance(value, str) else value.__name__,
)
def test_every_field_round_trips_off_its_default(cls, name):
    value = NON_DEFAULTS[cls][name]
    config = cls(**{name: value})
    assert getattr(config, name) != getattr(cls(), name)
    payload = json.loads(json.dumps(config.to_dict()))
    rebuilt = cls.from_dict(payload)
    assert rebuilt == config
    assert getattr(rebuilt, name) == value


OUT_OF_RANGE = [
    (DKMConfig, "bits", 0),
    (DKMConfig, "bits", 9),
    (DKMConfig, "temperature", 0.0),
    (DKMConfig, "iters", 0),
    (EDKMConfig, "hop_budget", -1),
    (EDKMConfig, "shard", True),  # no LearnerGroup to shard over
    (ServingConfig, "max_batch_size", 0),
    (ServingConfig, "max_queue_depth", 0),
    (ServingConfig, "max_new_tokens", 0),
    (ServingConfig, "temperature", -0.1),
    (ServingConfig, "poll_interval_s", 0.0),
    (ServingConfig, "join_timeout_s", 0.0),
    (ServingConfig, "drain_timeout_s", 0.0),
    (ServingConfig, "fault_plan", "hang_step"),
    (RetryPolicy, "timeout_s", 0.0),
    (RetryPolicy, "retries", -1),
    (RetryPolicy, "backoff_s", -0.1),
    (RetryPolicy, "respawns", -1),
    # Non-finite times and temperatures: a NaN passes every sign check,
    # and an infinite sleep or join overflows inside the scheduler.
    (ServingConfig, "temperature", math.nan),
    (ServingConfig, "temperature", math.inf),
    (ServingConfig, "poll_interval_s", math.nan),
    (ServingConfig, "poll_interval_s", math.inf),
    (ServingConfig, "join_timeout_s", math.nan),
    (ServingConfig, "join_timeout_s", math.inf),
    (ServingConfig, "drain_timeout_s", math.nan),
    (ServingConfig, "drain_timeout_s", math.inf),
    (RetryPolicy, "timeout_s", math.nan),
    (RetryPolicy, "timeout_s", math.inf),
    (RetryPolicy, "backoff_s", math.nan),
    (RetryPolicy, "backoff_s", math.inf),
]


@pytest.mark.parametrize(
    "cls,name,value",
    OUT_OF_RANGE,
    ids=[f"{cls.__name__}-{name}-{value!r}" for cls, name, value in OUT_OF_RANGE],
)
def test_out_of_range_value_rejected(cls, name, value):
    with pytest.raises(ValueError):
        cls(**{name: value})
    if hasattr(cls, "from_dict") and name != "fault_plan":
        with pytest.raises(ValueError):
            cls.from_dict({name: value})



@pytest.mark.parametrize(
    "name",
    ["tile_cache_bytes_limit", "breaker_threshold", "breaker_probation_steps", "eval_path"],
)
def test_retired_serving_knobs_are_refused(name):
    """The tile-cache budget, the circuit breaker's two knobs and the
    palette/dense eval-path switch are gone: a constructor keyword is a
    ``TypeError`` and a persisted key a ``ValueError``, never a silent
    default."""
    with pytest.raises(TypeError, match=name):
        ServingConfig(**{name: 1})
    with pytest.raises(ValueError, match=rf"unknown ServingConfig keys: \['{name}'\]"):
        ServingConfig.from_dict({**ServingConfig().to_dict(), name: 1})
