"""Matrix multiplication with batch broadcasting.

An N-D activation times a 2-D weight -- what every ``Linear`` does -- is
one ``(prod(lead), K) @ (K, N)`` gemm: ``np.matmul`` would broadcast it as
``prod(lead[:-1])`` separate gemms and backward would stack as many
per-batch weight gradients only to sum them.  N-D x N-D operands
(attention) keep numpy's batch broadcast.

A product whose contracted dimension is 1 -- an outer product, such as the
map gradient of the dense DKM map's ``(1, k) @ (k, |W|)`` -- is a broadcast
multiply, not a BLAS call.  For that ``(8, 1) x (1, 32 768)`` BLAS takes
436 µs and the multiply 33 µs (float32, one BLAS thread, 2-core VM); a
short last axis, ``(32 768, 1) x (1, 8)``, runs at 0.8× BLAS, and no
training step builds one.  The bytes are the elementwise products', signed
zeros included.  They equal ``np.matmul``'s up to the sign of a zero
product: BLAS accumulates into a ``beta = 0`` output, and
``+0.0 + -0.0`` is ``+0.0``.

``SwiGLU`` is the LLaMA MLP's gate and up projections as one op,
``silu(h @ w_gate.T) * (h @ w_up.T)``: two of those gemms, then the
``silu_gate`` epilogue.  ``CausalAttention`` is the attention core,
``softmax(mask(q·kᵀ/√d))·v`` with its heads merged: two batched gemms
around a masked softmax, whose ``B·heads·T²`` map no tensor holds.
"""

from __future__ import annotations

import functools
import math
from typing import Sequence

import numpy as np

from repro.tensor.autograd import Context, Function
from repro.tensor.dtype import DType, promote
from repro.tensor.tensor import Tensor
from repro.tensor.ops._common import check_same_device, make_result
from repro.tensor.ops.activation import _silu, silu_gate
from repro.tensor.pairwise import stable_softmax, sum_keepdims


def _unbroadcast_batch(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum the batch dims ``np.matmul`` broadcast, leaving the matrix dims."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(
        i for i in range(grad.ndim - 2) if shape[i] == 1 and grad.shape[i] != 1
    )
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _product(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``x @ y``; a broadcast multiply when the contracted dimension is 1."""
    if x.shape[-1] == 1:
        return np.multiply(x, y, order="C")
    return np.matmul(x, y)


def _rows(array: np.ndarray) -> np.ndarray:
    """``array`` with its leading dims collapsed into one row axis."""
    return array.reshape(math.prod(array.shape[:-1]), array.shape[-1])


def _is_one_gemm(a: Tensor, b: Tensor) -> bool:
    """Whether ``a @ b`` is an N-D activation times a 2-D weight."""
    return b.ndim == 2 and a.ndim > 2


class MatMul(Function):
    """``a @ b`` for operands with ``ndim >= 2``."""

    @staticmethod
    def forward(ctx: Context, a: Tensor, b: Tensor) -> Tensor:
        check_same_device(a, b)
        if a.ndim < 2 or b.ndim < 2:
            raise ValueError(
                f"MatMul requires ndim >= 2 operands, got {a.ndim} and {b.ndim}"
            )
        if a.shape[-1] != b.shape[-2]:
            raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
        dtype = promote(a.dtype, b.dtype)
        ctx.save_for_backward(a, b)
        a_np = a._np().astype(dtype.np_compute, copy=False)
        b_np = b._np().astype(dtype.np_compute, copy=False)
        if _is_one_gemm(a, b):
            out = _product(_rows(a_np), b_np).reshape(a.shape[:-1] + b.shape[-1:])
        else:
            out = _product(a_np, b_np)
        return make_result(out, dtype, a.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        a, b = ctx.saved_tensors
        needs_a, needs_b = ctx.needs_input_grad
        # Strided views go to BLAS as transpose flags; no contiguous copies.
        a_np = a._np().astype(grad.dtype, copy=False)
        b_np = b._np().astype(grad.dtype, copy=False)
        ga = gb = None
        if _is_one_gemm(a, b):
            grad = _rows(grad)
            if needs_a:
                ga = _product(grad, b_np.T).reshape(a.shape)
            if needs_b:
                gb = _product(_rows(a_np).T, grad)
        else:
            if needs_a:
                ga = _unbroadcast_batch(_product(grad, np.swapaxes(b_np, -1, -2)), a.shape)
            if needs_b:
                gb = _unbroadcast_batch(_product(np.swapaxes(a_np, -1, -2), grad), b.shape)
        return (ga, gb)


def _projection(x: Tensor, weight: Tensor, dtype: DType) -> np.ndarray:
    """``x @ weight.T`` as ``MatMul`` computes it, raw (not yet on ``dtype``'s grid)."""
    x_np = x._np().astype(dtype.np_compute, copy=False)
    w_np = weight._np().astype(dtype.np_compute, copy=False)
    return _product(_rows(x_np), w_np.T).reshape(x.shape[:-1] + weight.shape[:1])


def _gate(h: Tensor, w_gate: Tensor) -> tuple[np.ndarray, DType]:
    """The gate ``h @ w_gate.T`` and its dtype, in compute precision on that
    dtype's grid: the ``MatMul`` result as a reader of the stored tensor read it."""
    dtype = promote(h.dtype, w_gate.dtype)
    gate = dtype.project(_projection(h, w_gate, dtype))
    return gate.astype(dtype.np_compute, copy=False), dtype


class SwiGLU(Function):
    """``silu(h @ w_gate.T) * (h @ w_up.T)`` -- SwiGLU's gate and up projections.

    Saves only its three inputs.  The gate, its silu and the up activation
    are kernel temporaries that no tensor holds: backward rebuilds them
    from the saved inputs (two gemms and one sigmoid pass), the selective
    recomputation of Korthikanti et al. (arXiv:2205.05198), as a dual-gemm
    SwiGLU kernel does.  Every array is computed by the numpy calls, in the
    order, of the chain it replaces -- the gate's ``h @ w_gate.T``
    ``MatMul``, then ``h @ w_up.T``, ``silu`` and ``mul`` -- so the output
    and all three gradients are that chain's, byte for byte; ``h``'s
    gradient is the sum the engine formed from its two readers.
    """

    @staticmethod
    def forward(ctx: Context, h: Tensor, w_gate: Tensor, w_up: Tensor) -> Tensor:
        check_same_device(h, w_gate, w_up)
        if h.ndim < 2 or w_up.ndim != 2 or h.shape[-1] != w_up.shape[1]:
            raise ValueError(f"swiglu shape mismatch: {h.shape} @ {w_up.shape}.T")
        if w_gate.shape != w_up.shape:
            raise ValueError(
                f"gate weight shape {w_gate.shape} does not match the up weight's {w_up.shape}"
            )
        ctx.save_for_backward(h, w_gate, w_up)
        gate, gate_dtype = _gate(h, w_gate)
        up_dtype = promote(h.dtype, w_up.dtype)
        out, dtype = silu_gate(gate, gate_dtype, _projection(h, w_up, up_dtype), up_dtype)
        return make_result(out, dtype, h.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        h, w_gate, w_up = ctx.saved_tensors
        needs_h, needs_gate, needs_up = ctx.needs_input_grad
        g, gate_dtype = _gate(h, w_gate)
        sig, silu = _silu(g, gate_dtype)
        gx = gw_gate = gw_up = None
        if needs_h or needs_gate:
            up_dtype = promote(h.dtype, w_up.dtype)
            up = up_dtype.project(_projection(h, w_up, up_dtype))
            g_silu = grad * up.astype(up_dtype.np_compute, copy=False)
            g_gate = _rows(g_silu * (sig + g * sig * (1.0 - sig)))
        # Strided views go to BLAS as transpose flags; no contiguous copies.
        if needs_h or needs_up:
            g_up = _rows(grad * silu.astype(gate_dtype.np_compute, copy=False))
            if needs_h:
                w_np = w_up._np().astype(g_up.dtype, copy=False)
                gx = _product(g_up, w_np).reshape(h.shape)
            if needs_up:
                h_np = h._np().astype(g_up.dtype, copy=False)
                gw_up = _product(_rows(h_np).T, g_up).T
        if needs_h:
            w_np = w_gate._np().astype(g_gate.dtype, copy=False)
            gx = gx + _product(g_gate, w_np).reshape(h.shape)
        if needs_gate:
            h_np = h._np().astype(g_gate.dtype, copy=False)
            gw_gate = _product(_rows(h_np).T, g_gate).T
        return (gx, gw_gate, gw_up)


# The score a masked (future) position gets before the softmax: finite, so
# a row's maximum stays a real score, and far enough down that its weight
# underflows to exactly 0.  A dtype whose range ends above it (float16)
# takes its lowest finite value instead, whose weight underflows alike.
MASK_FILL = -1e9


@functools.cache
def _mask_fill(storage: np.dtype) -> float:
    """:data:`MASK_FILL`, or the lowest finite value of a ``storage`` above it."""
    return max(MASK_FILL, float(np.finfo(storage).min))


def causal_mask(size: int) -> np.ndarray:
    """Boolean mask that is True strictly above the diagonal (to be filled)."""
    return np.triu(np.ones((size, size), dtype=bool), k=1)


def attention_weights(
    q: np.ndarray, k: np.ndarray, hidden: np.ndarray, dtype: DType
) -> np.ndarray:
    """``softmax(mask(q·kᵀ/√d))``, projected onto ``dtype``'s grid.

    ``q`` and ``k`` are ``(..., T_q, d)`` and ``(..., T_k, d)`` arrays in
    ``dtype``'s compute precision; ``hidden`` is True where a score is
    masked and broadcasts against the ``(..., T_q, T_k)`` scores.  Each
    step is the numpy call of the op it stood for -- ``MatMul``, a scalar
    ``Mul``, ``MaskedFill`` and ``Softmax`` -- on that op's input as it
    read it from the previous op's stored (projected) result.
    """
    compute = dtype.np_compute
    scale = np.asarray(1.0 / math.sqrt(q.shape[-1]), dtype=compute)
    scores = dtype.project(_product(q, np.swapaxes(k, -1, -2))).astype(compute, copy=False)
    scores = dtype.project(scores * scale).astype(compute, copy=False)
    np.copyto(scores, _mask_fill(dtype.np_storage), where=hidden)
    scores = np.ascontiguousarray(dtype.project(scores), dtype=compute)
    return dtype.project(stable_softmax(scores, scores.ndim - 1))


def _attention_map(q: Tensor, k: Tensor) -> tuple[np.ndarray, DType]:
    """``(weights, dtype)``: :func:`attention_weights` of ``q`` and ``k`` under the causal mask."""
    dtype = promote(q.dtype, k.dtype)
    compute = dtype.np_compute
    q_np = q._np().astype(compute, copy=False)
    k_np = k._np().astype(compute, copy=False)
    return attention_weights(q_np, k_np, causal_mask(q.shape[-2]), dtype), dtype


class CausalAttention(Function):
    """Causal self-attention's core: ``softmax(mask(q·kᵀ/√d))·v``, heads merged.

    ``q``, ``k`` and ``v`` are ``(B, heads, T, head_dim)``; the result is
    the ``(B, T, heads·head_dim)`` context.  Saves only its three inputs:
    the scores and the attention map are kernel temporaries that no tensor
    holds, and backward rebuilds the map from ``q`` and ``k`` (one batched
    gemm and the softmax), the selective recomputation of Korthikanti et
    al. (arXiv:2205.05198) that FlashAttention also makes (Dao et al.,
    arXiv:2205.14135).  Every array is computed by the numpy calls, in the
    order, of the ``q @ kᵀ``, ``* 1/√d``, ``masked_fill(-1e9)``,
    ``softmax``, ``@ v`` and head-merge chain it replaces, each rounded
    onto its dtype's grid as that chain stored it, so the output and all
    three gradients are that chain's, byte for byte.
    """

    @staticmethod
    def forward(ctx: Context, q: Tensor, k: Tensor, v: Tensor) -> Tensor:
        check_same_device(q, k, v)
        if q.ndim != 4 or k.shape != q.shape or v.shape != q.shape:
            raise ValueError(
                "causal_attention expects q, k and v of one (batch, heads, seq, "
                f"head_dim) shape, got {q.shape}, {k.shape} and {v.shape}"
            )
        ctx.save_for_backward(q, k, v)
        weights, map_dtype = _attention_map(q, k)
        dtype = promote(map_dtype, v.dtype)
        context = _product(
            weights.astype(dtype.np_compute, copy=False),
            v._np().astype(dtype.np_compute, copy=False),
        )
        batch, heads, seq, head_dim = q.shape
        merged = context.transpose(0, 2, 1, 3).reshape(batch, seq, heads * head_dim)
        return make_result(merged, dtype, q.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        q, k, v = ctx.saved_tensors
        needs_q, needs_k, needs_v = ctx.needs_input_grad
        batch, heads, seq, head_dim = q.shape
        weights, map_dtype = _attention_map(q, k)
        g_context = grad.reshape(batch, seq, heads, head_dim).transpose(0, 2, 1, 3)
        # Strided views go to BLAS as transpose flags; no contiguous copies.
        w_np = weights.astype(grad.dtype, copy=False)
        gq = gk = gv = None
        if needs_v:
            gv = _product(np.swapaxes(w_np, -1, -2), g_context)
        if needs_q or needs_k:
            v_np = v._np().astype(grad.dtype, copy=False)
            g_weights = _product(g_context, np.swapaxes(v_np, -1, -2))
            y = np.ascontiguousarray(weights, dtype=map_dtype.np_compute)
            g_scores = y * (g_weights - sum_keepdims(g_weights * y, y.ndim - 1))
            np.copyto(g_scores, 0.0, where=causal_mask(seq))
            g_scores = g_scores * (1.0 / math.sqrt(head_dim))
            if needs_q:
                k_np = k._np().astype(grad.dtype, copy=False)
                gq = _product(g_scores, k_np)
            if needs_k:
                q_np = q._np().astype(grad.dtype, copy=False)
                gk = np.swapaxes(_product(np.swapaxes(q_np, -1, -2), g_scores), -1, -2)
        return (gq, gk, gv)
