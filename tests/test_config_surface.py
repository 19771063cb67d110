"""The configuration surface, pinned by name.

Every field of the three engine config dataclasses and the retry policy
nested in ``ServingConfig``, every keyword of ``ModelCompressor``, every
field of the four baseline method configs, and every member of the
strategy registry is listed here.  Adding a knob means editing this pin
*and* naming, in the PR, the second non-test caller that needs a value
different from the first (ROADMAP aim 2: a mechanism nobody but its own
bench and tests switches on is deleted together with its selector).
"""

import inspect
import math
from dataclasses import fields

import pytest

from repro.baselines import (
    AWQConfig,
    GPTQConfig,
    QATConfig,
    RTNConfig,
    quantize,
)
from repro.core.compressor import ModelCompressor
from repro.core.config import DKMConfig, EDKMConfig
from repro.core.marshal import SEARCH_STRATEGIES
from repro.serving.config import RetryPolicy, ServingConfig

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
        "temperature", "retry", "fault_plan",
    },
    RetryPolicy: {"timeout_s", "retries", "backoff_s"},
}

# Fields that hold a nested config: each counts as its config's values.
NESTED = {(ServingConfig, "retry"): RetryPolicy}


# ``quantize(model, config, run_fn=, skip_names=)``: eDKM takes the
# DKMConfig above; ``percdamp`` is a default of the per-weight function,
# not a knob.
METHOD_SURFACE = {
    RTNConfig: {"bits", "symmetric", "per_channel"},
    GPTQConfig: {"bits", "group_size"},
    AWQConfig: {"bits", "group_size"},
    QATConfig: {"bits"},
}


@pytest.mark.parametrize("cls", SURFACE, ids=lambda cls: cls.__name__)
def test_field_names_are_pinned(cls):
    assert {f.name for f in fields(cls)} == SURFACE[cls]


@pytest.mark.parametrize("cls", METHOD_SURFACE, ids=lambda cls: cls.__name__)
def test_method_config_fields_are_pinned(cls):
    assert {f.name for f in fields(cls)} == METHOD_SURFACE[cls]


def test_baseline_settable_value_budget():
    """The four method configs' fields plus ``skip_names``: 9 values, down
    from 16 keyword knobs on six model-level entry points (``run_fn`` is a
    data argument, like the calibration batches it replaced)."""
    params = inspect.signature(quantize).parameters
    assert [n for n, p in params.items() if p.kind is p.POSITIONAL_OR_KEYWORD] == [
        "model", "config",
    ]
    knobs = [n for n, p in params.items() if p.kind is p.KEYWORD_ONLY and n != "run_fn"]
    assert knobs == ["skip_names"]
    assert sum(len(names) for names in METHOD_SURFACE.values()) + len(knobs) == 9


def test_field_budget():
    """Fields of the three top-level configs; a nested policy is one field."""
    nested = set(NESTED.values())
    assert sum(len(names) for cls, names in SURFACE.items() if cls not in nested) == 18


def test_settable_value_budget():
    """Every field is one value, except that a nested config counts as its
    own fields: ``retry`` is one field but three values."""
    for (owner, name), nested in NESTED.items():
        assert name in SURFACE[owner] and nested in SURFACE
    total = sum(len(names) for names in SURFACE.values())
    assert total - len(NESTED) == 20


def test_model_compressor_keywords_are_pinned():
    """The configs plus two loose values; there is no engine knob."""
    params = inspect.signature(ModelCompressor).parameters
    assert list(params) == [
        "dkm_config", "edkm_config", "embedding_bits", "skip_names",
    ]
    assert (params["embedding_bits"].default, params["skip_names"].default) == (8, ())


def test_registries_are_pinned():
    assert SEARCH_STRATEGIES == ("graph", "storage-id")


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
    (ServingConfig, "fault_plan", "hang_step"),
    (RetryPolicy, "timeout_s", 0.0),
    (RetryPolicy, "retries", -1),
    (RetryPolicy, "backoff_s", -0.1),
    # Non-finite times and temperatures: a NaN passes every sign check,
    # and an infinite sleep overflows inside the scheduler.
    (ServingConfig, "temperature", math.nan),
    (ServingConfig, "temperature", math.inf),
    (RetryPolicy, "timeout_s", math.nan),
    (RetryPolicy, "timeout_s", math.inf),
    (RetryPolicy, "backoff_s", math.nan),
    (RetryPolicy, "backoff_s", math.inf),
    # One past each bound on the other side, and the signed infinities.
    (DKMConfig, "bits", -1),
    (DKMConfig, "iters", -1),
    (DKMConfig, "temperature", -1.0),
    (DKMConfig, "temperature", math.nan),
    (DKMConfig, "temperature", math.inf),
    # Positive in float64 but 0.0 in float32, where the table divides by it.
    (DKMConfig, "temperature", 1e-50),
    # Finite in float64 but inf in float32, where every column goes uniform.
    (DKMConfig, "temperature", 1e39),
    (ServingConfig, "max_batch_size", -1),
    (ServingConfig, "max_queue_depth", -1),
    (ServingConfig, "max_new_tokens", -1),
    (ServingConfig, "temperature", -math.inf),
    (RetryPolicy, "timeout_s", -1.0),
    (RetryPolicy, "timeout_s", -math.inf),
    (RetryPolicy, "backoff_s", -math.inf),
]


@pytest.mark.parametrize(
    "cls,name,value",
    OUT_OF_RANGE,
    ids=[f"{cls.__name__}-{name}-{value!r}" for cls, name, value in OUT_OF_RANGE],
)
def test_out_of_range_value_rejected(cls, name, value):
    with pytest.raises(ValueError):
        cls(**{name: value})


IN_RANGE = [
    (DKMConfig, "bits", 1),
    (DKMConfig, "bits", 8),
    (DKMConfig, "iters", 1),
    (DKMConfig, "temperature", 1e-30),
    (EDKMConfig, "hop_budget", 0),
    (ServingConfig, "max_batch_size", 1),
    (ServingConfig, "max_queue_depth", 1),
    (ServingConfig, "max_new_tokens", 1),
    (ServingConfig, "temperature", 0.0),
    (RetryPolicy, "timeout_s", None),
    (RetryPolicy, "retries", 0),
    (RetryPolicy, "backoff_s", 0.0),
]


@pytest.mark.parametrize(
    "cls,name,value",
    IN_RANGE,
    ids=[f"{cls.__name__}-{name}-{value!r}" for cls, name, value in IN_RANGE],
)
def test_boundary_value_accepted(cls, name, value):
    """Each bound is inclusive where the docstring says so: the value on
    the bound builds, and is kept as given."""
    assert getattr(cls(**{name: value}), name) == value


RETIRED = [
    (ServingConfig, "tile_cache_bytes_limit"),
    (ServingConfig, "breaker_threshold"),
    (ServingConfig, "breaker_probation_steps"),
    (ServingConfig, "eval_path"),
    (ServingConfig, "poll_interval_s"),
    (ServingConfig, "join_timeout_s"),
    (ServingConfig, "drain_timeout_s"),
    (RetryPolicy, "respawns"),
]


@pytest.mark.parametrize("cls,name", RETIRED, ids=[name for _, name in RETIRED])
def test_retired_serving_knobs_are_refused(cls, name):
    """The tile-cache budget, the circuit breaker's two knobs, the
    palette/dense eval-path switch, and the scheduler's idle poll, join and
    drain deadlines and respawn budget (now constants of
    ``repro.serving.server``) are gone: a constructor keyword is a
    ``TypeError``, never a silent default."""
    with pytest.raises(TypeError, match=name):
        cls(**{name: 1})


@pytest.mark.parametrize(
    "name,value",
    [
        ("POLL_INTERVAL_S", 0.005),
        ("JOIN_TIMEOUT_S", 5.0),
        ("DRAIN_TIMEOUT_S", 30.0),
        ("LOOP_RESPAWNS", 4),
    ],
)
def test_retired_knobs_are_server_constants(name, value):
    """The four retired scheduler knobs live on as module constants at the
    defaults they had as fields; tests that need a short deadline patch the
    constant."""
    import repro.serving.server as server_mod

    assert getattr(server_mod, name) == value


@pytest.mark.parametrize("method", ["to_dict", "from_dict"])
@pytest.mark.parametrize("cls", list(SURFACE), ids=lambda cls: cls.__name__)
def test_configs_have_no_serialization_layer(cls, method):
    """Configs are built in code and validated on construction; nothing
    persists or reloads them (checkpoints pin a config through ``repr``)."""
    assert not hasattr(cls, method)


@pytest.mark.parametrize("name", ["config_to_dict", "config_from_dict"])
def test_core_config_has_no_dict_helpers(name):
    import repro.core.config as config_mod

    assert not hasattr(config_mod, name)
