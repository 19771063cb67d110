"""One front-end for every Table 3 method: ``quantize(model, config, run_fn=)``.

The shape is neural-compressor's prepare -> ``run_fn(model)`` -> convert,
and the config's type picks the method:

- :class:`RTNConfig` -- round-to-nearest; needs no ``run_fn``.
- :class:`GPTQConfig`, :class:`AWQConfig` -- ``run_fn`` is the
  calibration pass; it runs without gradients while
  :func:`~repro.baselines.calibration.record_linear_inputs` records every
  Linear's inputs.
- :class:`QATConfig` -- LLM-QAT: the Linears are wrapped in
  :class:`~repro.baselines.llm_qat.QATLinear`, ``run_fn`` fine-tunes, and
  the trained weights are frozen onto their grid.  The wrappers stay in
  place; their forward re-projects the frozen weights onto the same grid.
- :class:`~repro.core.config.DKMConfig` -- eDKM: ``ModelCompressor``
  swaps in :class:`~repro.core.compressor.ClusteredLinear` and ``run_fn``
  fine-tunes; finalize through a ``ModelCompressor`` of your own
  (``repro.compress``) when palettized artifacts are needed.

Every method walks the Linears with :func:`repro.nn.named_linears` and
adds only its per-weight transform.  Grids: ``group_size=None`` is one
grid per output row, and only ``RTNConfig(per_channel=False)`` is
per-tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Union

import numpy as np

from repro.baselines.awq import awq_scale_search
from repro.baselines.calibration import LayerCalibration, record_linear_inputs
from repro.baselines.common import fake_quantize, quantization_mse
from repro.baselines.gptq import gptq_quantize_weight
from repro.baselines.llm_qat import QATLinear
from repro.core.compressor import ModelCompressor
from repro.core.config import DKMConfig
from repro.nn import Module, named_linears
from repro.tensor.autograd import no_grad


@dataclass(frozen=True)
class RTNConfig:
    """Round-to-nearest onto a uniform grid; no calibration."""

    bits: int = 4
    symmetric: bool = True
    per_channel: bool = True


@dataclass(frozen=True)
class GPTQConfig:
    """GPTQ: asymmetric grids, rounding error pushed into later columns."""

    bits: int = 4
    group_size: int | None = None


@dataclass(frozen=True)
class AWQConfig:
    """AWQ: symmetric grids after activation-aware channel scaling."""

    bits: int = 4
    group_size: int | None = None


@dataclass(frozen=True)
class QATConfig:
    """LLM-QAT: fine-tune through a per-row symmetric fake-quantizer."""

    bits: int = 4


QuantConfig = Union[RTNConfig, GPTQConfig, AWQConfig, QATConfig, DKMConfig]


@dataclass
class QuantReport:
    """What :func:`quantize` did: each quantized layer's weight MSE, in walk order."""

    method: str
    bits: int
    layer_mse: dict[str, float] = field(default_factory=dict)


def _quantize_weight(
    config: QuantConfig, weight: np.ndarray, calibration: LayerCalibration | None
) -> np.ndarray:
    """``config``'s per-weight transform (every method but eDKM)."""
    if isinstance(config, RTNConfig):
        return fake_quantize(
            weight, config.bits, symmetric=config.symmetric, per_channel=config.per_channel
        )
    if isinstance(config, QATConfig):
        return fake_quantize(weight, config.bits)
    if isinstance(config, GPTQConfig):
        return gptq_quantize_weight(
            weight, calibration.hessian, config.bits, group_size=config.group_size
        )
    scales = awq_scale_search(weight, calibration, config.bits, config.group_size)[0]
    # Quantize ``W * s`` so salient input channels get finer steps, then fold
    # ``s`` back out.
    quantized = fake_quantize(
        weight * scales[None, :], config.bits, symmetric=True, group_size=config.group_size
    )
    return quantized / scales[None, :]


def quantize(
    model: Module,
    config: QuantConfig,
    *,
    run_fn: Callable[[Module], object] | None = None,
    skip_names: tuple[str, ...] = (),
) -> QuantReport:
    """Compress ``model``'s Linears in place with ``config``'s method.

    ``skip_names`` are module-path prefixes left untouched.  ``run_fn`` is
    required by every method but RTN: the calibration pass for GPTQ and
    AWQ, the fine-tune for LLM-QAT and eDKM.  eDKM's ``layer_mse``
    is each fine-tuned weight's hard-assignment error against its current
    centroids.
    """
    method = type(config).__name__.removesuffix("Config")
    if run_fn is None and not isinstance(config, RTNConfig):
        raise ValueError(f"{method} needs a run_fn (calibration pass or fine-tune)")
    if isinstance(config, DKMConfig):
        compressor = ModelCompressor(config, skip_names=skip_names)
        compressor.compress(model)
        run_fn(model)
        return QuantReport(
            method,
            config.bits,
            {
                name: layer.clusterer.reconstruction_error(layer.inner.weight)
                for name, layer in compressor.wrapped.items()
            },
        )

    targets = list(named_linears(model, skip_names))
    if not targets:
        raise ValueError("no Linear layers found to quantize")
    records: dict[str, LayerCalibration] = {}
    if isinstance(config, QATConfig):
        for _, parent, attribute, linear in targets:
            setattr(parent, attribute, QATLinear(linear, config.bits))
        run_fn(model)
    elif not isinstance(config, RTNConfig):
        with record_linear_inputs(model) as records, no_grad():
            run_fn(model)

    report = QuantReport(method, config.bits)
    for name, _, _, linear in targets:
        original = linear.weight._compute()
        quantized = _quantize_weight(config, original, records.get(name))
        linear.weight.copy_(quantized)
        report.layer_mse[name] = quantization_mse(original, quantized)
    return report
