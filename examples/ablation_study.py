"""Ablation study: reproduce the paper's Table 2 and its design sweeps.

Measures the saved-tensor CPU footprint of one DKM-compressed attention
layer under every combination of the paper's three techniques --
M(arshaling), U(niquification), S(harding) -- plus the design-choice sweeps
called out in docs/edkm-pipeline.md ("Section 2.2 -- sharding"): learner
count and bit width.

Run:  python examples/ablation_study.py        (~1 minute)
"""

from repro.bench import PAPER_TABLE2, run_learner_sweep, run_table2
from repro.bench.tables import render_table
from repro.memory import format_bytes


def main() -> None:
    print("running the M/U/S ablation (one attention layer, 3-bit, |L|=8)...")
    result = run_table2(dim=256, n_heads=8, seq_len=16, bits=3, n_learners=8)

    rows = []
    for row in result.rows:
        paper_mb, paper_red, paper_rt = PAPER_TABLE2[row.name]
        rows.append(
            [
                row.name,
                format_bytes(row.cpu_peak_bytes),
                f"{result.reduction(row):.1f}x",
                f"{row.runtime_s:.2f}s",
                f"{paper_mb:.0f} MB",
                f"{paper_red}x",
            ]
        )
    print(render_table(
        ["config", "CPU peak", "reduction", "runtime",
         "paper MB (7B scale)", "paper reduction"],
        rows,
        title="\nTable 2 reproduction",
    ))

    print("\nsharding scaling with learner count (M+U+S):")
    sweep = run_learner_sweep(n_learners_options=(1, 2, 4, 8))
    rows = [
        [n, format_bytes(res.rows[1].cpu_peak_bytes),
         f"{res.reduction(res.rows[1]):.1f}x"]
        for n, res in sweep.items()
    ]
    print(render_table(["|L|", "per-learner CPU peak", "reduction"], rows))

    print(
        "\nReading: M alone deduplicates repeated saves (the paper's 2.9x);"
        "\nU collapses the attention map to a table + index list (23.5x);"
        "\nS splits the big saved tensors across learners (16.4x);"
        "\ntogether they land two orders of magnitude (paper: 129.9x)."
    )


if __name__ == "__main__":
    main()
