"""Baseline compression schemes compared against eDKM in Table 3.

:func:`quantize` is the one model-level entry point; the per-weight
transforms it composes stay importable for single-matrix experiments.
"""

from repro.baselines.awq import awq_scale_search
from repro.baselines.calibration import LayerCalibration, record_linear_inputs
from repro.baselines.common import (
    QuantizedWeight,
    fake_quantize,
    quantization_mse,
    quantize_uniform,
)
from repro.baselines.gptq import gptq_quantize_weight
from repro.baselines.llm_qat import FakeQuantSTE, QATLinear
from repro.baselines.frontend import (
    AWQConfig,
    GPTQConfig,
    QATConfig,
    QuantReport,
    RTNConfig,
    quantize,
)

__all__ = [
    "quantize",
    "QuantReport",
    "RTNConfig",
    "GPTQConfig",
    "AWQConfig",
    "QATConfig",
    "awq_scale_search",
    "LayerCalibration",
    "record_linear_inputs",
    "QuantizedWeight",
    "fake_quantize",
    "quantization_mse",
    "quantize_uniform",
    "gptq_quantize_weight",
    "FakeQuantSTE",
    "QATLinear",
]
