"""eDKM: memory-efficient train-time weight clustering for LLMs.

Reproduction of Cho et al., "eDKM: An Efficient and Accurate Train-time
Weight Clustering for Large Language Models" (HPCA 2025 / arXiv:2309.00964),
grown into a compress-then-serve system.

Quickstart -- compress::

    import repro

    model = ...                        # a repro.nn model
    compressor = repro.compress(model, bits=3)
    # Linears now re-cluster every forward; fine-tune, then:
    report = compressor.finalize(model)

Quickstart -- one Table 3 method::

    from repro.baselines import GPTQConfig
    repro.quantize(model, GPTQConfig(bits=3), run_fn=calibrate)

Quickstart -- serve::

    import repro
    from repro.llm import MICRO, WordTokenizer, build_model

    tokenizer = WordTokenizer.from_corpus(["the quick brown fox ..."])
    model = build_model(MICRO, vocab_size=tokenizer.vocab_size)
    repro.compress(model, bits=3)
    with repro.serve(model, tokenizer, max_batch_size=8) as server:
        request = server.submit("the quick", max_new_tokens=8)
        print(request.result(timeout=30))
        print(server.stats().to_json_dict())

``repro.compress`` wraps the model's Linears with
:class:`~repro.core.compressor.ClusteredLinear` (train-time clustering);
``repro.quantize`` applies any Table 3 method named by its config (RTN /
GPTQ / AWQ / LLM-QAT, or eDKM via ``DKMConfig``), with
``run_fn`` as the calibration pass or the fine-tune;
``repro.serve`` starts a :class:`~repro.serving.server.PaletteServer` --
an admission-controlled, continuously-batched generation server whose
eval-mode clustered layers execute against the k-entry palette.  The
memory pipeline of the paper (offload + marshal + uniquify + shard)
lives on :class:`SavedTensorPipeline`::

    pipeline = repro.SavedTensorPipeline(repro.EDKMConfig())
    with pipeline.step():              # saved tensors offloaded + marshaled
        loss = ...; loss.backward()    # + uniquified + sharded (M/U/S)

Subpackages: ``tensor`` (autograd substrate), ``memory`` (byte accounting),
``nn``/``optim`` (model library), ``distributed`` (learner simulation),
``core`` (DKM + eDKM), ``serving`` (palette-aware inference serving),
``baselines`` (RTN/GPTQ/AWQ/LLM-QAT), ``llm``/``data``/
``evalsuite`` (end-to-end experiments), ``bench`` (table/figure
regeneration).
"""

__version__ = "2.0.0"

from repro import (  # noqa: F401
    baselines,
    core,
    data,
    distributed,
    evalsuite,
    llm,
    memory,
    nn,
    optim,
    serving,
    tensor,
)
from repro.baselines import quantize
from repro.core import (
    DKMConfig,
    EDKMConfig,
    ModelCompressor,
    SavedTensorPipeline,
)
from repro.serving import PaletteServer, ServingConfig


def compress(
    model,
    bits: int = 3,
    *,
    dkm_config: DKMConfig | None = None,
    edkm_config: EDKMConfig | None = None,
) -> ModelCompressor:
    """Wrap ``model``'s Linears with train-time clustering; return the compressor.

    The one-call front door to :class:`~repro.core.compressor.
    ModelCompressor`: ``repro.compress(model, bits=3)`` swaps every
    eligible ``Linear`` for a :class:`~repro.core.compressor.
    ClusteredLinear` at ``2**bits`` palette entries and returns the
    compressor for sweeps (``refine_all``/``precluster``/``finalize``).
    Pass ``dkm_config`` to control clustering beyond ``bits`` (they are
    mutually exclusive with each other only when they disagree:
    ``bits`` is ignored when an explicit ``dkm_config`` is given).
    Build a :class:`~repro.core.compressor.ModelCompressor` directly for
    ``embedding_bits`` or ``skip_names``.
    """
    compressor = ModelCompressor(
        dkm_config or DKMConfig(bits=bits), edkm_config=edkm_config
    )
    compressor.compress(model)
    return compressor


def serve(
    model,
    tokenizer,
    *,
    config: ServingConfig | None = None,
    device=None,
    start: bool = True,
    **overrides,
) -> PaletteServer:
    """Start a palette-aware generation server over ``model``.

    The one-call front door to :class:`~repro.serving.server.
    PaletteServer`: switches the model to eval mode, routes any
    :class:`~repro.core.compressor.ClusteredLinear` to the server's
    tile cache, and -- unless ``start=False`` --
    launches the scheduler thread so :meth:`~repro.serving.server.
    PaletteServer.submit` / :meth:`~repro.serving.server.PaletteServer.
    generate` are immediately usable.  Keyword ``overrides`` are
    :class:`~repro.serving.config.ServingConfig` fields
    (``repro.serve(m, tok, max_batch_size=16)``); they are mutually
    exclusive with an explicit ``config``.
    """
    if config is not None and overrides:
        raise ValueError(
            "pass ServingConfig fields either via config= or as keyword "
            f"overrides, not both (got overrides {sorted(overrides)})"
        )
    server = PaletteServer(
        model,
        tokenizer,
        config=config or ServingConfig(**overrides),
        device=device,
    )
    return server.start() if start else server


__all__ = [
    "__version__",
    "compress",
    "quantize",
    "serve",
    "DKMConfig",
    "EDKMConfig",
    "ModelCompressor",
    "PaletteServer",
    "SavedTensorPipeline",
    "ServingConfig",
    "baselines",
    "core",
    "data",
    "distributed",
    "evalsuite",
    "llm",
    "memory",
    "nn",
    "optim",
    "serving",
    "tensor",
]
