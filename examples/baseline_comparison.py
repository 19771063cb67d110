"""Compare every compression baseline on one weight matrix + calibration set.

A compact, model-free view of the Table 3 contenders: quantize the same
Linear weight with RTN / GPTQ / AWQ / k-means palettization /
DKM clustering at 3 and 4 bits, and report both raw weight error and -- the
metric GPTQ/AWQ actually optimize -- the layer *output* error on calibration
inputs.

Run:  python examples/baseline_comparison.py
"""

import numpy as np

import repro.tensor as rt
from repro.baselines import fake_quantize, gptq_quantize_weight
from repro.baselines.awq import awq_scale_search
from repro.baselines.calibration import LayerCalibration
from repro.bench.tables import render_table
from repro.core import DKMConfig
from repro.core.dkm import DKMClusterer
from repro.core.palettize import kmeans_palettize


def build_problem(out_features=64, in_features=128, n_samples=512, seed=0):
    """A weight matrix and correlated calibration activations."""
    rng = np.random.default_rng(seed)
    weight = (rng.standard_normal((out_features, in_features)) * 0.08).astype(
        np.float32
    )
    # Correlated activations with a few dominant channels (AWQ's regime).
    base = rng.standard_normal((n_samples, 8))
    mix = rng.standard_normal((8, in_features))
    x = (base @ mix).astype(np.float64)
    x[:, : in_features // 8] *= 6.0  # salient channels
    calibration = LayerCalibration(in_features=in_features)
    calibration.update(x)
    return weight, calibration, x.astype(np.float32)


def evaluate(name, weight, reconstructed, x, rows):
    reference = x @ weight.T
    output_err = float(np.mean((x @ reconstructed.T - reference) ** 2))
    weight_err = float(np.mean((reconstructed - weight) ** 2))
    rows.append([name, weight_err, output_err])


def run_bits(bits: int):
    weight, calibration, x = build_problem()
    rows = []

    evaluate(f"RTN per-tensor", weight,
             fake_quantize(weight, bits, per_channel=False), x, rows)
    evaluate(f"RTN per-channel", weight,
             fake_quantize(weight, bits, per_channel=True), x, rows)

    gptq = gptq_quantize_weight(weight, calibration.hessian, bits, group_size=32)
    evaluate(f"GPTQ g32", weight, gptq, x, rows)

    scales, alpha, _ = awq_scale_search(weight, calibration, bits, group_size=32)
    awq = fake_quantize(weight * scales[None, :], bits, group_size=32) / scales[None, :]
    evaluate(f"AWQ g32 (alpha={alpha})", weight, awq, x, rows)

    km = kmeans_palettize(weight, bits)
    evaluate("k-means palette (PTQ)", weight, km.dequantize(), x, rows)

    w_t = rt.Tensor.from_numpy(weight, dtype="bfloat16", device="gpu")
    clusterer = DKMClusterer(DKMConfig(bits=bits, iters=25))
    clusterer.refine(w_t)
    assignments = clusterer.hard_assign(w_t)
    dkm = clusterer.state.centroids[assignments].reshape(weight.shape)
    evaluate("DKM clustering (hard)", weight, dkm, x, rows)

    print(render_table(
        ["method", "weight MSE", "output MSE"],
        rows,
        title=f"\n{bits}-bit compression of one (64 x 128) Linear weight",
        float_fmt="{:.3e}",
    ))


def main() -> None:
    for bits in (4, 3):
        run_bits(bits)
    print(
        "\nReading: GPTQ/AWQ minimize *output* error via calibration;"
        "\nnon-linear codebooks (k-means / DKM) beat uniform grids on weight"
        "\nerror at equal bits -- and DKM's train-time version additionally"
        "\nadapts the task loss (see examples/compress_llm.py)."
    )


if __name__ == "__main__":
    main()
