"""Finite-difference gradient checking for the op tests."""

from __future__ import annotations

from typing import Callable

import numpy as np

import repro.tensor as rt
from repro.tensor.tensor import Tensor


def numeric_grad(
    fn: Callable[[list[Tensor]], Tensor],
    arrays: list[np.ndarray],
    wrt: int,
    eps: float = 1e-4,
) -> np.ndarray:
    """Central-difference gradient of ``sum(fn(inputs))`` wrt input ``wrt``."""
    base = [a.astype(np.float64) for a in arrays]
    grad = np.zeros_like(base[wrt])
    for idx in np.ndindex(grad.shape):  # unlike nditer, fine with zero-size inputs
        plus = [a.copy() for a in base]
        minus = [a.copy() for a in base]
        plus[wrt][idx] += eps
        minus[wrt][idx] -= eps
        f_plus = float(
            fn([rt.tensor(a.astype(np.float32)) for a in plus]).sum().item()
        )
        f_minus = float(
            fn([rt.tensor(a.astype(np.float32)) for a in minus]).sum().item()
        )
        grad[idx] = (f_plus - f_minus) / (2 * eps)
    return grad


def check_gradients(
    fn: Callable[[list[Tensor]], Tensor],
    arrays: list[np.ndarray],
    rtol: float = 1e-2,
    atol: float = 1e-3,
) -> None:
    """Assert autograd gradients match finite differences for all inputs."""
    tensors = [
        rt.tensor(a.astype(np.float32), requires_grad=True) for a in arrays
    ]
    out = fn(tensors).sum()
    out.backward()
    for i, tensor in enumerate(tensors):
        expected = numeric_grad(fn, arrays, wrt=i)
        actual = tensor.grad.numpy().astype(np.float64)
        np.testing.assert_allclose(
            actual,
            expected,
            rtol=rtol,
            atol=atol,
            err_msg=f"gradient mismatch for input {i}",
        )
