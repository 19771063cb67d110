"""The ``(u, k)`` formulation of the clustering sweep, kept as the test oracle.

``src/`` builds the softmax table transposed, ``(k, u)``, and sums the
normaliser in a hand-written association order; these are the functions
it replaced, copied verbatim from the last commit that ran them.  The
kernel's contract is byte equality with them, not a tolerance.
"""

import numpy as np

from repro.core.dkm import ClusterState, default_temperature, init_centroids_quantile


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
