"""The configuration surface, pinned by name.

Every field of the three engine config dataclasses, every keyword of
``ModelCompressor``, every
field of the four baseline method configs, and every member of the
strategy registry is listed here.  Adding a knob means editing this pin
*and* naming, in the PR, the second non-test caller that needs a value
different from the first (ROADMAP aim 2: a mechanism nobody but its own
bench and tests switches on is deleted together with its selector).
"""

import dataclasses
import importlib
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
import repro
from repro.serving.config import ServingConfig
from repro.tensor.dtype import bfloat16, float16, float32, int64

SURFACE = {
    DKMConfig: {"bits", "temperature", "iters", "weight_dtype"},
    EDKMConfig: {"marshal", "uniquify", "shard", "hop_budget", "group"},
    ServingConfig: {"max_batch_size", "max_new_tokens", "backoff_s", "fault_plan"},
}


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
    """Fields of the three configs."""
    assert sum(len(names) for names in SURFACE.values()) == 13


def test_settable_value_budget():
    """Every field is one value: no config nests another (the retry
    policy's ``backoff_s`` is a ``ServingConfig`` field, its watchdog
    ``timeout_s`` is gone), so 13 values, down from 14."""
    assert not any(
        dataclasses.is_dataclass(f.type) or f.name == "retry"
        for cls in SURFACE
        for f in fields(cls)
    )
    assert sum(len(names) for names in SURFACE.values()) == 13


def test_model_compressor_keywords_are_pinned():
    """The configs plus one loose value; there is no engine knob."""
    params = inspect.signature(ModelCompressor).parameters
    assert list(params) == ["dkm_config", "edkm_config", "skip_names"]
    assert params["skip_names"].default == ()


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
    (ServingConfig, "max_new_tokens", 0),
    (ServingConfig, "fault_plan", "transient_step"),
    (ServingConfig, "backoff_s", -0.1),
    # Clustering keys on 16-bit float patterns: a wider float failed only
    # at the first forward, and an integer dtype zeroed the wrapped weight.
    (DKMConfig, "weight_dtype", float32),
    (DKMConfig, "weight_dtype", int64),
    # Non-finite times: a NaN passes every sign check, and an infinite
    # sleep overflows inside the scheduler.
    (ServingConfig, "backoff_s", math.nan),
    (ServingConfig, "backoff_s", math.inf),
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
    (ServingConfig, "max_new_tokens", -1),
    (ServingConfig, "backoff_s", -math.inf),
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
    (DKMConfig, "weight_dtype", bfloat16),
    (DKMConfig, "weight_dtype", float16),
    (EDKMConfig, "hop_budget", 0),
    (ServingConfig, "max_batch_size", 1),
    (ServingConfig, "max_new_tokens", 1),
    (ServingConfig, "backoff_s", 0.0),
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
    (DKMConfig, "tol"),
    (EDKMConfig, "offload"),
    (EDKMConfig, "shard_min_bytes"),
    (ModelCompressor, "embedding_bits"),
    (ServingConfig, "max_queue_depth"),
    (ServingConfig, "temperature"),
    (ServingConfig, "retries"),
    (ServingConfig, "tile_cache_bytes_limit"),
    (ServingConfig, "breaker_threshold"),
    (ServingConfig, "breaker_probation_steps"),
    (ServingConfig, "eval_path"),
    (ServingConfig, "poll_interval_s"),
    (ServingConfig, "join_timeout_s"),
    (ServingConfig, "drain_timeout_s"),
    (ServingConfig, "respawns"),
    (ServingConfig, "retry"),
    (ServingConfig, "timeout_s"),
    (repro.serve, "start"),
]


@pytest.mark.parametrize("cls,name", RETIRED, ids=[name for _, name in RETIRED])
def test_retired_knobs_are_refused(cls, name):
    """Knobs that only ever had one value are gone: k-means' ``tol``, the
    pipeline's ``offload`` switch and shard floor, the embedding bit width,
    the serving queue depth, sampling temperature and step retries, the
    tile-cache budget, the circuit breaker's two knobs, the palette/dense
    eval-path switch, and the scheduler's idle poll, join and drain
    deadlines and respawn budget, the nested retry policy and its watchdog
    deadline, and ``repro.serve(start=)`` (a server accepts work from
    construction).  A constructor keyword is a ``TypeError``, never a
    silent default."""
    args = {ModelCompressor: (DKMConfig(),), repro.serve: (None, None)}.get(cls, ())
    with pytest.raises(TypeError, match=name):
        cls(*args, **{name: 1})


@pytest.mark.parametrize(
    "name,value",
    [
        ("MAX_QUEUE_DEPTH", 64),
        ("STEP_RETRIES", 2),
    ],
)
def test_retired_knobs_are_server_constants(name, value):
    """The queue depth and step retries live on as module constants at the
    defaults they had as fields; tests that need a shallow queue or fewer
    retries patch the constant."""
    import repro.serving.server as server_mod

    assert getattr(server_mod, name) == value


@pytest.mark.parametrize(
    "name", ["POLL_INTERVAL_S", "JOIN_TIMEOUT_S", "DRAIN_TIMEOUT_S", "LOOP_RESPAWNS"]
)
def test_scheduler_thread_constants_are_gone(name):
    """The idle poll, join and drain deadlines and respawn budget timed a
    scheduler thread; the scheduler now runs on the caller's thread."""
    import repro.serving.server as server_mod

    assert not hasattr(server_mod, name)


@pytest.mark.parametrize(
    "module,name,value",
    [
        ("repro.core.dkm", "TOL", 1e-8),
        ("repro.core.offload", "SHARD_MIN_BYTES", 4096),
    ],
)
def test_retired_knobs_are_core_constants(module, name, value):
    """``DKMConfig.tol`` and ``EDKMConfig.shard_min_bytes`` live on as
    constants next to the code that reads them, at their old defaults."""
    assert getattr(importlib.import_module(module), name) == value


def test_embedding_bits_is_a_class_constant():
    """The paper's 8-bit embedding palette, read as ``compressor.embedding_bits``."""
    assert ModelCompressor.embedding_bits == 8
    assert ModelCompressor(DKMConfig()).embedding_bits == 8


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
