"""The eDKM differentiable clustering op (uniquification path).

``EDKMClusterAssign`` produces the same output and the same gradients as the
dense DKM composition in :meth:`DKMClusterer.cluster_dense`, but its
*saved-for-backward* set is the factored representation of paper Fig. 3:

- attention table ``(u, k)`` float32 -- ``O(|C|)`` rows, ``u <= 2**16``;
- index list ``(|W|,)`` uint16 -- ``O(|W|)``;
- unique patterns ``(u,)`` uint16 (to recover weight values in backward);
- centroids ``(k,)``.

These are saved through ``ctx.save_for_backward``, so the eDKM offload
pipeline still applies to them: the index list is the large one and is
exactly what sharding partitions across learners.

The backward pass stays in unique space too.  Weights with equal bit
patterns share an attention row, so the dense chain rule factors exactly:
``dL/dw_i = g_i * rho[idx_i]`` with one ``rho`` per table row, and the
centroid gradient needs only the per-row segment sums of ``g``.  That is
``O(u·|C| + |W|)`` work and memory; the ``|W| x |C|`` map is never rebuilt.
(The paper rebuilds it from table + index list "to stay compatible with the
existing autograd implementation"; our ``Function`` owns its backward, so
the rebuild would only be a cost -- see docs/edkm-pipeline.md, "Deviation
from the paper".  The rebuild lives on as the float64 test oracle.)
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.dkm import DKMClusterer
from repro.core.fastpath import StepCache
from repro.core.uniquify import attention_table, index_dtype_for, uniquify
from repro.tensor.autograd import Context, Function, is_grad_enabled, no_grad
from repro.tensor.dtype import decode_pattern16, float32, uint16
from repro.tensor.ops.segment import segment_sum
from repro.tensor.pairwise import _sum_rows_pairwise
from repro.tensor.tensor import Tensor


class EDKMClusterAssign(Function):
    """Fused unique-space DKM assignment with exact dense-equivalent grads."""

    @staticmethod
    def forward(
        ctx: Context,
        weights: Tensor,
        centroids: Tensor,
        temperature: float,
        cache: StepCache | None = None,
    ) -> Tensor:
        """Reconstruct weights as attention-weighted centroid mixtures.

        Computes in unique-value space (table ``(u, k)`` + index list)
        and saves only those factors for backward -- the U of the paper's
        M/U/S ablation.  With a :class:`StepCache`, the decomposition and
        the refine-parked attention table are reused instead of rebuilt.
        """
        from repro.tensor.ops._common import check_same_device, make_result

        check_same_device(weights, centroids)
        dtype = weights.dtype
        if dtype.itemsize != 2:
            raise TypeError(
                f"eDKM uniquification requires a 16-bit weight dtype, got {dtype.name}"
            )
        if cache is not None:
            # Fast path: refine() already decomposed this weight version and
            # parked the final-iteration table; reuse both.
            unique = cache.uniquify(weights, dtype)
        else:
            unique = uniquify(weights._np(), dtype)
        c_np = centroids._compute().reshape(-1)

        table_np = cache.lookup_table(c_np, temperature) if cache is not None else None
        if table_np is None:
            table_np = attention_table(unique.values, c_np, temperature)  # (u, k)
            if cache is not None:
                cache.store_table(c_np, temperature, table_np)
        mixed_unique = table_np @ c_np  # (u,)
        out_np = mixed_unique[unique.index_list.astype(np.int64)].reshape(weights.shape)

        # Function.apply records a node only under these conditions; without
        # one nothing will ever read the saved set, so do not hand it to the
        # offload pipeline (frozen weight, or a forward under no_grad).
        if is_grad_enabled() and any(ctx.needs_input_grad):
            idx_dtype = index_dtype_for(unique.n_unique)
            table_t = Tensor.from_numpy(table_np, dtype=float32, device=weights.device)
            index_t = Tensor.from_numpy(
                unique.index_list.astype(idx_dtype.np_storage, copy=False),
                dtype=idx_dtype,
                device=weights.device,
            )
            patterns_t = Tensor.from_numpy(
                unique.patterns, dtype=uint16, device=weights.device
            )
            ctx.save_for_backward(table_t, index_t, patterns_t, centroids)
            ctx.temperature = temperature
            ctx.weight_dtype = dtype
            ctx.w_shape = weights.shape
        return make_result(out_np, dtype, weights.device)

    @staticmethod
    def backward(ctx: Context, grad: np.ndarray) -> Sequence[np.ndarray | None]:
        """Exact dense-equivalent grads from the saved unique-space factors.

        Let ``z_ij = -(w_i - c_j)^2 / tau``, ``A = softmax_j(z)`` and
        ``out_i = sum_j A_ij c_j``.  Rows of ``A`` are equal within a unique
        group ``u``, so the dense chain rule collapses onto the table.  With
        ``J_uj = A_uj (c_j - out_u) * 2 (w_u - c_j) / tau`` -- ``d out_u /
        d c_j`` through the logits, and ``d z_uj / d w_u = -d z_uj / d c_j``:

        - ``dL/dw_i = g_i * rho[idx_i]``, ``rho_u = -sum_j J_uj``;
        - ``dL/dc_j = sum_u seg_u (A_uj + J_uj)``, ``seg_u`` the sum of
          ``g`` over group ``u``.

        The ``O(u·|C|)`` part runs in float64 -- the ``c_j - out_u``
        cancellation at near-hard temperatures otherwise costs two digits
        -- and no ``O(|W|·|C|)`` buffer is ever built.  ``J`` is laid out
        ``(k, u)``: every elementwise pass runs down ``k`` rows of ``u``
        contiguous elements, and ``rho``'s sum over ``j`` adds those rows in
        the pairwise order ``np.add.reduce`` uses for a contiguous ``k``-run,
        from the same ``+0.0`` start.  The two gemvs, ``table @ c`` and
        ``seg @ (A + J)``, keep the saved ``(u, k)`` table's layout, so both
        gradients are the bytes of the ``(u, k)`` formulation.
        """
        table_t, index_t, patterns_t, centroids_t = ctx.saved_tensors
        table = table_t._compute().astype(np.float64)  # (u, k)
        index_list = index_t._np().astype(np.int64)  # (N,) -- all-gathered by unpack
        c = centroids_t._compute().reshape(-1).astype(np.float64)  # (k,)
        w_unique = decode_pattern16(patterns_t._np(), ctx.weight_dtype)  # (u,)
        g = grad.reshape(-1).astype(np.float32, copy=False)  # (N,)

        out_u = table @ c  # (u,)
        jac = np.subtract(c[:, None], out_u)  # (k, u)
        jac *= table.T
        diff = np.subtract(w_unique.astype(np.float64), c[:, None])  # (k, u)
        diff *= 2.0 / ctx.temperature
        jac *= diff

        needs_w, needs_c = ctx.needs_input_grad
        grad_w = grad_c = None
        if needs_w:
            rho = _sum_rows_pairwise(jac)  # (u,)
            np.add(0.0, rho, out=rho)
            np.negative(rho, out=rho)
            grad_w = (g * rho.astype(np.float32)[index_list]).reshape(ctx.w_shape)
        if needs_c:
            # (u,) segment sums of g: O(N) bincount instead of element-wise add.at.
            seg_g = segment_sum(g, index_list, w_unique.shape[0])
            table += jac.T
            grad_c = (seg_g @ table).astype(np.float32)
        return grad_w, grad_c


def edkm_cluster(weights: Tensor, clusterer: DKMClusterer) -> Tensor:
    """Refine centroids, then run the fused unique-space assignment.

    Drop-in alternative to :meth:`DKMClusterer.cluster_dense` with the eDKM
    saved-tensor footprint.  Refinement and assignment share the clusterer's
    :class:`~repro.core.fastpath.StepCache`: one uniquify per layer per
    weight version, and the final refine-iteration attention table feeds the
    forward directly.
    """
    with no_grad():
        state = clusterer.refine(weights, cache_table=True)
    centroids = Tensor.from_numpy(
        state.centroids, dtype=float32, device=weights.device
    )
    return EDKMClusterAssign.apply(
        weights, centroids, state.temperature, cache=clusterer.fastpath
    )


def cluster(
    weights: Tensor,
    clusterer: DKMClusterer,
    uniquify_enabled: bool,
) -> Tensor:
    """Dispatch between the dense DKM path and the eDKM unique path."""
    if uniquify_enabled:
        return edkm_cluster(weights, clusterer)
    return clusterer.cluster_dense(weights)
