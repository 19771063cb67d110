"""Implementations ``src/`` replaced, kept as test oracles.

Each is copied from the last commit that ran it, and the contract with
what replaced it is equality, not a tolerance:

- the ``(u, k)`` formulation of the clustering sweep -- ``src/`` builds
  the softmax table transposed, ``(k, u)``, and sums the normaliser in a
  hand-written association order;
- the row-wise last-axis reductions of the ``Softmax`` op and of
  ``unbroadcast`` -- ``src/`` moves a C-contiguous array with enough rows
  to ``(n, rows)`` and reduces down its ``n`` rows in the same order;
- the per-shard collectives -- ``src/`` keeps a sharded tensor in one flat
  buffer and charges each learner's tracker for its rows; these build one
  ``Storage`` and ``Tensor`` per learner;
- RoPE and RMSNorm as chains of primitive ops (13 and 6 dispatches) --
  ``src/`` runs each as one ``Function``.  Forward is bit-equal for float32
  activations; backward is closed-form there, so gradients agree to float32
  rounding.
"""

import math

import numpy as np

from repro.core.dkm import ClusterState, default_temperature, init_centroids_quantile
from repro.memory.traffic import global_ledger
from repro.tensor import ops
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
        if movement < self.config.tol:
            break
    if cache_table:
        final_table = attention_table_uk(w_u, state.centroids, state.temperature)
        self.fastpath.store_table(state.centroids, state.temperature, final_table)
    return state


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


def rms_norm_composite(x, weight, eps):
    """``RMSNorm.forward`` as ``mul``, ``mean``, ``add``, ``sqrt``, ``div``, ``mul``."""
    mean_square = (x * x).mean(dim=-1, keepdim=True)
    normed = x / (mean_square + eps).sqrt()
    return normed * weight
