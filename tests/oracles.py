"""Implementations ``src/`` replaced, kept as test oracles.

Each is copied from the last commit that ran it, and the contract with
what replaced it is equality, not a tolerance:

- the ``(u, k)`` formulation of the clustering sweep -- ``src/`` builds
  the softmax table transposed, ``(k, u)``, sums the normaliser in a
  hand-written association order and the centroid update in one float64
  gemm, whose float32 centroids are byte-equal to this in-order sum;
- the row-wise last-axis reductions of the ``Softmax`` op and of
  ``unbroadcast`` -- ``src/`` moves a C-contiguous array with enough rows
  to ``(n, rows)`` and reduces down its ``n`` rows in the same order, and
  reduces axis 0 of a C-contiguous ``(n, m)`` array down its rows, so it
  equals these on the C-contiguous transpose;
- the dense DKM map laid out ``(|W|, k)`` -- ``src/`` builds it ``(k, |W|)``:
  weight gradients are byte-equal, and the output may differ where the
  forward's ``k``-term gemv rounds differently, by at most one 16-bit ulp;
- the per-shard collectives -- ``src/`` keeps a sharded tensor in one flat
  buffer and charges each learner's tracker for its rows; these build one
  ``Storage`` and ``Tensor`` per learner;
- RoPE and RMSNorm as chains of primitive ops (13 and 6 dispatches) --
  ``src/`` runs each as one ``Function``.  Forward is bit-equal for float32
  activations; backward is closed-form there, so gradients agree to float32
  rounding;
- index packing through a per-index bit matrix (``unpackbits`` -> slice ->
  ``packbits``) -- ``src/`` ORs eight indices into one word;
- the sweep kernel's logits as negate-then-divide -- ``src/`` divides once
  by ``-temperature``, the same bytes;
- ``EDKMClusterAssign.backward`` over a ``(u, k)`` Jacobian summed row by
  row -- ``src/`` lays it out ``(k, u)`` and sums down its ``k`` rows in
  the same order: both gradients are byte-equal;
- ``MultiHeadAttention.forward`` with every buffer bound to the end, and
  its attention core as the ``q @ kᵀ``, ``mul``, ``MaskedFill``,
  ``softmax``, ``@ v`` and head-merge chain -- ``src/`` runs the core as
  one ``CausalAttention``, which saves q, k and v instead of q, ``kᵀ``,
  the attention map (twice) and v, and rebuilds the map in backward with
  the same numpy calls: the output and every gradient are byte-equal.
- ``DecoderLayer.forward`` and the ``Transformer.forward`` that called it
  -- ``src/`` has no layer ``forward``: ``Transformer.forward`` holds the
  residual stream and rebinds it after each sublayer, and the MLP applies
  its norm itself and drops the normed input once ``up_proj`` has read it.
  The same ops run in the same order, so the output and every gradient are
  byte-equal; only the layer input and the MLP-norm output die earlier.
- SwiGLU's gate and up projections as the gate's ``h @ w_gate.T``
  ``MatMul`` feeding a ``SiluGatedLinear``, the gated up projection that
  saved ``h``, ``w_up`` and the gate (itself the ``x @ weight.T``, ``Silu``
  and ``mul`` chain) -- ``src/`` runs both as one ``SwiGLU``, which saves
  ``h`` and the two weights instead of ``h`` twice, ``w_gateᵀ``, ``w_up``
  and the gate, and rebuilds the gate and the up activation in backward
  with the same numpy calls: the output and all three gradients are
  byte-equal wherever ``h`` is an op's output (a leaf ``h`` accumulates
  its two gradients separately, rounding a 16-bit one twice).

``pattern16_inputs`` draws the arrays on which uniquify's on-grid bf16 read
must agree with ``bit_pattern16``, which rounds every element to nearest even.
"""

import math

import numpy as np
from hypothesis import strategies as st

from repro.core import dkm
from repro.core.dkm import ClusterState, default_temperature, init_centroids_quantile
from repro.core.uniquify import HISTOGRAM_MIN_SIZE
from repro.memory.traffic import global_ledger
from repro.tensor import ops
from repro.tensor.autograd import Function, no_grad
from repro.tensor.dtype import bfloat16, decode_pattern16, float16, promote
from repro.tensor.ops._common import make_result
from repro.tensor.ops.activation import _silu, _stable_sigmoid, silu_gate
from repro.tensor.ops.matmul import _product, _projection, _rows
from repro.tensor.ops.segment import segment_sum
from repro.tensor.pairwise import softmax_columns_
from repro.tensor.storage import Storage
from repro.tensor.tensor import Tensor, contiguous_strides


def attention_table_uk(unique_values, centroids, temperature):
    """``attention_table`` as numpy's own short-axis reductions compute it."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    w = np.asarray(unique_values, dtype=np.float32).reshape(-1, 1)
    c = np.asarray(centroids, dtype=np.float32).reshape(1, -1)
    logits = -((w - c) ** 2) / temperature
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    return exp / exp.sum(axis=1, keepdims=True)


def attention_table_ku_negate(unique_values, centroids, temperature):
    """``attention_table_ku`` negating the squared distances, then dividing by ``temperature``."""
    w = np.asarray(unique_values, dtype=np.float32).reshape(1, -1)
    c = np.asarray(centroids, dtype=np.float32).reshape(-1, 1)
    buf = w - c
    np.square(buf, out=buf)
    np.negative(buf, out=buf)
    np.divide(buf, np.float32(temperature), out=buf)
    return softmax_columns_(buf)


def edkm_backward_uk(ctx, grad):
    """``EDKMClusterAssign.backward`` with ``J`` laid out ``(u, k)``, ``rho`` summed row by row."""
    table_t, index_t, patterns_t, centroids_t = ctx.saved_tensors
    table = table_t._compute().astype(np.float64)  # (u, k)
    index_list = index_t._np().astype(np.int64)
    c = centroids_t._compute().reshape(-1).astype(np.float64)
    w_unique = decode_pattern16(patterns_t._np(), ctx.weight_dtype)
    g = grad.reshape(-1).astype(np.float32, copy=False)

    diff_u = w_unique.astype(np.float64)[:, None] - c[None, :]  # (u, k)
    out_u = table @ c  # (u,)
    jac = table * (c[None, :] - out_u[:, None]) * (diff_u * (2.0 / ctx.temperature))

    needs_w, needs_c = ctx.needs_input_grad
    grad_w = grad_c = None
    if needs_w:
        rho = (-jac.sum(axis=1)).astype(np.float32)  # (u,)
        grad_w = (g * rho[index_list]).reshape(ctx.w_shape)
    if needs_c:
        seg_g = segment_sum(g, index_list, w_unique.shape[0])
        grad_c = (seg_g @ (table + jac)).astype(np.float32)
    return grad_w, grad_c


def softmax_rowwise(x, axis):
    """The ``Softmax`` forward kernel as numpy's own short-axis reductions compute it."""
    shifted = x - x.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


def softmax_backward_rowwise(grad, y, axis):
    """``Softmax.backward`` with its inner product summed row by row."""
    inner = (grad * y).sum(axis=axis, keepdims=True)
    return y * (grad - inner)


def unbroadcast_rowwise(grad, shape):
    """``autograd.unbroadcast`` summing every broadcast axis with ``ndarray.sum``."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def refine_uk(clusterer, weights, cache_table=False):
    """``DKMClusterer.refine`` over the ``(u, k)`` table, on ``clusterer``'s own state."""
    self = clusterer
    unique = self.fastpath.uniquify(weights, self.config.weight_dtype)
    w_u = unique.values
    counts = unique.counts.astype(np.float64)

    if self.state is None:
        centroids = init_centroids_quantile(w_u.repeat(unique.counts), self.config.n_clusters)
        temperature = (
            self.config.temperature
            if self.config.temperature is not None
            else default_temperature(w_u, self.config.n_clusters)
        )
        self.state = ClusterState(centroids=centroids, temperature=temperature)

    state = self.state
    for iteration in range(self.config.iters):
        table = attention_table_uk(w_u, state.centroids, state.temperature)
        weighted = table * counts[:, None]
        denom = weighted.sum(axis=0)
        numer = (weighted * w_u[:, None]).sum(axis=0)
        new_centroids = np.where(
            denom > 1e-12, numer / np.maximum(denom, 1e-12), state.centroids
        ).astype(np.float32)
        movement = float(np.abs(new_centroids - state.centroids).max())
        state.centroids = new_centroids
        state.iterations_run += 1
        if movement < dkm.TOL:
            break
    if cache_table:
        final_table = attention_table_uk(w_u, state.centroids, state.temperature)
        self.fastpath.store_table(state.centroids, state.temperature, final_table)
    return state


def cluster_dense_wk(clusterer, weights):
    """``DKMClusterer.cluster_dense`` with the map laid out ``(|W|, k)``."""
    with no_grad():
        state = clusterer.refine(weights)
    centroids = Tensor.from_numpy(state.centroids, dtype="float32", device=weights.device)
    diff = weights.reshape(-1).unsqueeze(1) - centroids.unsqueeze(0)  # (|W|, k)
    sq_dist = diff * diff
    logits = sq_dist * (-1.0 / state.temperature)
    attention = ops.softmax(logits, dim=1)
    mixed = attention @ centroids.unsqueeze(1)
    return mixed.reshape(weights.shape).cast(weights.dtype)


def pack_indices_unpackbits(indices, bits):
    """``pack_indices`` for in-range integers: each index's low ``bits`` bits, concatenated."""
    indices = np.asarray(indices).reshape(-1).astype(np.uint8)
    as_bits = np.unpackbits(indices.reshape(-1, 1), axis=1, bitorder="little")
    payload = as_bits[:, :bits].reshape(-1)
    return np.packbits(payload, bitorder="little")


class PerShardTensor:
    """``ShardedTensor`` as a list of per-device tensors, one storage each."""

    def __init__(self, shards, group, full_shape):
        if len(shards) != group.n_learners:
            raise ValueError(f"{len(shards)} shards for {group.n_learners} learners")
        self.shards = shards
        self.group = group
        self.full_shape = tuple(full_shape)

    @property
    def dtype(self):
        return self.shards[0].dtype

    @property
    def local_nbytes(self):
        return self.shards[0].nbytes


def shard_rows_per_shard(tensor, group, tag="shard"):
    """``shard_rows`` slicing the source into one ``Storage`` per learner."""
    shape = tensor.shape
    flat = np.ascontiguousarray(tensor._np()).reshape(-1)
    dtype = tensor.dtype
    src = tensor.device
    tail = shape[1:]
    row_elems = math.prod(tail)
    base, extra = divmod(shape[0], group.n_learners)
    ledger = global_ledger()
    shards = []
    lo = 0
    for i, dev in enumerate(group.devices):
        rows = base + (i < extra)
        hi = lo + rows * row_elems
        storage = Storage(flat[lo:hi].copy(), dtype, dev)
        shard_shape = (rows, *tail)
        shards.append(Tensor(storage, shard_shape, contiguous_strides(shard_shape)))
        if dev != src:
            ledger.record(src.name, dev.name, storage.nbytes, tag=tag)
        lo = hi
    return PerShardTensor(shards, group, shape)


def shard_storage_per_shard(storage, group, tag="shard"):
    """``shard_storage`` as the pipeline used to call it: through a flat tensor."""
    return shard_rows_per_shard(Tensor(storage, (storage.numel,), (1,)), group, tag)


def all_gather_per_shard(sharded, device, tag="all_gather"):
    """``all_gather`` writing each shard's buffer into a preallocated destination."""
    dtype = sharded.dtype
    full_shape = sharded.full_shape
    out = np.empty(math.prod(full_shape), dtype.np_storage)
    ledger = global_ledger()
    lo = 0
    for shard in sharded.shards:
        piece = shard._np()
        hi = lo + piece.size
        out[lo:hi] = piece.reshape(-1)
        if shard.device != device:
            ledger.record(
                shard.device.name, device.name, shard.numel * dtype.itemsize, tag=tag
            )
        lo = hi
    if lo != out.size:
        raise ValueError(
            f"shards hold {lo} elements, full shape {full_shape} needs {out.size}"
        )
    return Tensor(Storage(out, dtype, device), full_shape, contiguous_strides(full_shape))


def rope_composite(rope, x):
    """``RotaryEmbedding.apply`` over per-device table tensors, slices and ``cat``."""
    seq_len = x.shape[2]
    half = rope.head_dim // 2
    # src/ keeps the tables full width (cos ‖ cos, sin ‖ -sin); the left halves are these.
    cos = Tensor.from_numpy(rope._cos[:seq_len, :half], device=x.device)
    sin = Tensor.from_numpy(rope._sin[:seq_len, :half], device=x.device)
    x1 = x[:, :, :, :half]
    x2 = x[:, :, :, half:]
    # cos/sin broadcast over batch and heads: (T, half) -> (1, 1, T, half)
    cos_b = cos.unsqueeze(0).unsqueeze(0)
    sin_b = sin.unsqueeze(0).unsqueeze(0)
    rotated_first = x1 * cos_b - x2 * sin_b
    rotated_second = x1 * sin_b + x2 * cos_b
    return ops.cat([rotated_first, rotated_second], dim=3)


class MaskedFill(Function):
    """Replace masked positions with ``value`` (no grad through them)."""

    @staticmethod
    def forward(ctx, a, mask, value):
        mask = np.asarray(mask, dtype=bool)
        out = a._compute().copy()
        broadcast_mask = np.broadcast_to(mask, out.shape)
        out[broadcast_mask] = value
        ctx.mask = broadcast_mask
        return make_result(out, a.dtype, a.device)

    @staticmethod
    def backward(ctx, grad):
        g = grad.copy()
        g[ctx.mask] = 0.0
        return (g,)


def masked_fill(a, mask, value):
    return MaskedFill.apply(a, mask, value)


def attention_composite(q, k, v):
    """``ops.causal_attention`` as ``q @ kᵀ``, ``* 1/√d``, ``masked_fill(-1e9)``,
    ``softmax`` and ``@ v``, with the heads merged by ``permute`` and ``reshape``."""
    batch, heads, seq, head_dim = q.shape
    scores = (q @ k.transpose(2, 3)) * (1.0 / math.sqrt(head_dim))
    scores = masked_fill(scores, ops.causal_mask(seq), -1e9)
    weights = ops.softmax(scores, dim=-1)
    return (weights @ v).permute(0, 2, 1, 3).reshape(batch, seq, heads * head_dim)


def attention_forward_unfreed(layer, x):
    """``MultiHeadAttention.forward`` holding q, k, v, scores and weights to the end."""
    seq_len = x.shape[1]
    q = layer.rope.apply(layer._split_heads(layer.q_proj(x)))
    k = layer.rope.apply(layer._split_heads(layer.k_proj(x)))
    v = layer._split_heads(layer.v_proj(x))

    scores = (q @ k.transpose(2, 3)) * (1.0 / math.sqrt(layer.head_dim))
    mask = ops.causal_mask(seq_len)
    scores = masked_fill(scores, mask, -1e9)
    weights = ops.softmax(scores, dim=-1)
    batch, heads, seq, head_dim = q.shape
    context = (weights @ v).permute(0, 2, 1, 3).reshape(batch, seq, heads * head_dim)
    return layer.o_proj(context)


def decoder_layer_unfreed(layer, x):
    """``DecoderLayer.forward``: the caller's ``x`` keeps the layer input, and
    argument passing keeps the MLP-norm output, alive until the MLP returns."""
    x = x + layer.attn(layer.attn_norm(x))
    x = x + layer.mlp(layer.mlp_norm(x))
    return x


def transformer_forward_unfreed(model, tokens):
    """``Transformer.forward`` running each layer through ``decoder_layer_unfreed``."""
    x = model.embed(tokens)
    for layer in model.layers:
        x = decoder_layer_unfreed(layer, x)
    return model.lm_head(model.final_norm(x))


class Silu(Function):
    """x * sigmoid(x) -- the LLaMA MLP activation."""

    @staticmethod
    def forward(ctx, a):
        ctx.save_for_backward(a)
        x = a._compute()
        sig = _stable_sigmoid(x)
        return make_result(x * sig, a.dtype, a.device)

    @staticmethod
    def backward(ctx, grad):
        (a,) = ctx.saved_tensors
        x = a._compute()
        sig = _stable_sigmoid(x)
        return (grad * (sig + x * sig * (1.0 - sig)),)


class SiluGatedLinear(Function):
    """``silu(gate) * (x @ weight.T)`` -- SwiGLU's up projection, gated.

    Saves its three inputs and rebuilds the up activation and the silu
    output in backward with the numpy calls of the ``x @ weight.T``
    ``MatMul``, ``silu`` and ``mul`` chain.
    """

    @staticmethod
    def forward(ctx, x, weight, gate):
        ctx.save_for_backward(x, weight, gate)
        up_dtype = promote(x.dtype, weight.dtype)
        out, dtype = silu_gate(
            gate._compute(), gate.dtype, _projection(x, weight, up_dtype), up_dtype
        )
        return make_result(out, dtype, x.device)

    @staticmethod
    def backward(ctx, grad):
        x, weight, gate = ctx.saved_tensors
        needs_x, needs_weight, needs_gate = ctx.needs_input_grad
        g = gate._compute()
        sig, silu = _silu(g, gate.dtype)
        gx = gw = g_gate = None
        if needs_gate:
            up_dtype = promote(x.dtype, weight.dtype)
            up = up_dtype.project(_projection(x, weight, up_dtype))
            g_silu = grad * up.astype(up_dtype.np_compute, copy=False)
            g_gate = g_silu * (sig + g * sig * (1.0 - sig))
        if needs_x or needs_weight:
            g_up = _rows(grad * silu.astype(gate.dtype.np_compute, copy=False))
            if needs_x:
                w_np = weight._np().astype(g_up.dtype, copy=False)
                gx = _product(g_up, w_np).reshape(x.shape)
            if needs_weight:
                x_np = x._np().astype(g_up.dtype, copy=False)
                gw = _product(_rows(x_np).T, g_up).T
        return (gx, gw, g_gate)


def swiglu_composite(h, w_gate, w_up):
    """``ops.swiglu`` as the gate's ``h @ w_gate.T`` and a ``SiluGatedLinear``."""
    return SiluGatedLinear.apply(h, w_up, h @ w_gate.T)


def silu_gated_linear_composite(x, weight, gate):
    """``SiluGatedLinear`` as ``Silu.apply(gate) * (x @ weight.T)``."""
    return Silu.apply(gate) * (x @ weight.T)


def swiglu_mlp_composite(mlp, x, norm=None):
    """``SwiGLUMLP.forward`` when ``up_proj`` returned ``x @ W.T`` and the
    MLP multiplied it by ``silu(gate)`` itself, dropping ``h`` and then both
    factors as it went."""
    h = x if norm is None else norm(x)
    gate = Silu.apply(mlp.gate_proj(h))
    up = mlp.up_proj(h)
    del h
    hidden = gate * up
    del gate, up
    return mlp.down_proj(hidden)


def swiglu_mlp_gated_composite(mlp, x, norm=None):
    """``SwiGLUMLP.forward`` when ``gate_proj`` ran its own projection and
    ``up_proj`` took the gate tensor: one ``SiluGatedLinear`` over ``h``,
    the up weight and the gate, dropping ``h`` and the gate after it."""
    h = x if norm is None else norm(x)
    gate = mlp.gate_proj(h)
    hidden = SiluGatedLinear.apply(h, mlp.up_proj.gemm_weight(), gate)
    del h, gate
    return mlp.down_proj(hidden)


def rms_norm_composite(x, weight, eps):
    """``RMSNorm.forward`` as ``mul``, ``mean``, ``add``, ``sqrt``, ``div``, ``mul``."""
    mean_square = (x * x).mean(dim=-1, keepdim=True)
    normed = x / (mean_square + eps).sqrt()
    return normed * weight


# +-0, +-inf, quiet and signalling NaNs, the largest finite value, 0xFFFF.
_SPECIALS = {
    bfloat16: [0x0000, 0x8000, 0x7F80, 0xFF80, 0x7FC0, 0xFFC1, 0x7F81, 0x7F7F, 0xFFFF],
    float16: [0x0000, 0x8000, 0x7C00, 0xFC00, 0x7E00, 0xFE01, 0x7C01, 0x7BFF, 0xFFFF],
}
# Around the rounding boundary: ties both ways, and the carries into the high half.
_LOW_HALVES = [0x0001, 0x7FFF, 0x8000, 0x8001, 0xFFFF]
_SIZES = [0, 1, 2, 7, HISTOGRAM_MIN_SIZE - 1, HISTOGRAM_MIN_SIZE, HISTOGRAM_MIN_SIZE + 1, 5003]


def _lay_out(base, layout, n):
    """``n`` elements of ``base`` as a C-order, transposed, F-order or ``[::2]`` array."""
    if layout == "step2":
        return base[::2]
    rows = next((d for d in range(2, n) if n % d == 0), 1)
    grid = base.reshape(rows, n // rows)
    if layout == "T":
        return grid.T
    if layout == "F":
        return np.asfortranarray(grid)
    return grid


@st.composite
def pattern16_inputs(draw):
    """``(array, dtype, off_grid)`` for ``bit_pattern16`` and ``uniquify``.

    bf16 arrays are float32 on the bf16 grid, except, when ``off_grid``, for
    one element at the first, last or a random position whose low half is
    set; float16 arrays are float16.  Sizes straddle ``HISTOGRAM_MIN_SIZE``;
    the high halves are a few dozen patterns, the whole domain, or only the
    specials (which the other two pools also mix in).
    """
    dtype = draw(st.sampled_from([bfloat16, float16]))
    n = draw(st.sampled_from(_SIZES))
    layout = draw(st.sampled_from(["C", "T", "F", "step2"]))
    pool = draw(st.sampled_from(["few", "all", "specials"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    size = 2 * n if layout == "step2" else n
    specials = np.array(_SPECIALS[dtype], dtype=np.uint16)
    if pool == "few":
        few = rng.integers(0, 1 << 16, 37).astype(np.uint16)
        high = rng.choice(np.concatenate([few, specials]), size)
    elif pool == "all":
        high = np.concatenate([specials, rng.integers(0, 1 << 16, size).astype(np.uint16)])
        high = rng.permutation(high)[:size]
    else:
        high = rng.choice(specials, size)
    if dtype is float16:
        return _lay_out(high, layout, n).view(np.float16), dtype, False
    laid = _lay_out(high.astype(np.uint32) << 16, layout, n)
    where = draw(st.sampled_from([None, "first", "last", "random"])) if n else None
    if where is not None:
        position = {"first": 0, "last": n - 1, "random": int(rng.integers(n))}[where]
        low = np.uint32(draw(st.sampled_from(_LOW_HALVES)))
        laid[np.unravel_index(position, laid.shape)] |= low
    return laid.view(np.float32), dtype, where is not None
