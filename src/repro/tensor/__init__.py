"""A numpy-backed tensor engine with PyTorch's memory architecture.

This package is the substrate substitution for PyTorch (see
docs/architecture.md, "Tensor engine"): it reproduces the pieces of the
PyTorch tensor/autograd architecture that the eDKM paper's memory
optimizations act on --

- storage/metadata separation, so views are free and cross-device moves
  duplicate storage (paper Table 1);
- simulated ``gpu``/``cpu`` devices with byte-exact memory accounting and a
  cross-device traffic ledger;
- reverse-mode autograd whose saved-for-backward tensors pass through
  ``saved_tensors_hooks`` -- the hook eDKM uses to offload, marshal,
  uniquify and shard activations.
"""

from repro.tensor import ops
from repro.tensor.autograd import (
    Context,
    Function,
    enable_grad,
    is_grad_enabled,
    no_grad,
    saved_tensors_hooks,
)
from repro.tensor.device import CPU, GPU, Device, as_device
from repro.tensor.dtype import (
    DType,
    bfloat16,
    bit_pattern16,
    bool_,
    decode_pattern16,
    float16,
    float32,
    float64,
    get_dtype,
    int32,
    int64,
    promote,
    uint8,
    uint16,
)
from repro.tensor.random import default_rng, manual_seed, rand, randint, randn
from repro.tensor.serialization import load_state, save_state
from repro.tensor.tensor import Tensor, arange, full, ones, tensor, zeros

__all__ = [
    "ops",
    "Context",
    "Function",
    "enable_grad",
    "is_grad_enabled",
    "no_grad",
    "saved_tensors_hooks",
    "CPU",
    "GPU",
    "Device",
    "as_device",
    "DType",
    "bfloat16",
    "bit_pattern16",
    "bool_",
    "decode_pattern16",
    "float16",
    "float32",
    "float64",
    "get_dtype",
    "int32",
    "int64",
    "promote",
    "uint8",
    "uint16",
    "default_rng",
    "manual_seed",
    "rand",
    "randint",
    "randn",
    "load_state",
    "save_state",
    "Tensor",
    "arange",
    "full",
    "ones",
    "tensor",
    "zeros",
]
