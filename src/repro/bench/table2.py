"""Experiment: paper Table 2 -- the M/U/S ablation.

Workload: one multi-head attention layer (the paper uses one from the
LLaMA-7B decoder stack; ours is dimension-scaled) whose four projection
weights are re-clustered by DKM at 3 bits on every forward.  Saved tensors
overflow from "gpu" to "cpu" through the eDKM pipeline; we measure the CPU
peak of learner 0 across forward+backward and offload traffic, under the
five paper configurations:

    baseline offload / M / M+U / M+S / M+U+S  (|L| = 8 learners)

Paper reference numbers (memory MB, reduction, runtime s):
    1600, 1.0x, 8.67 | 544, 2.9x, 8.97 | 68, 23.5x, 9.5 |
    97, 16.4x, 15.9  | 12, 129.9x, 14.9

The table records no wall-clock column, so a rerun rewrites
``table2.txt`` byte for byte.  The runtime ratio of M+U+S to the dense
baseline is measured end to end by the ``finetune_mus`` and
``finetune_offload`` benchmark workloads (docs/edkm-pipeline.md).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.tables import PaperTable, render_table
from repro.core.compressor import ClusteredLinear
from repro.core.config import DKMConfig, EDKMConfig
from repro.core.offload import SavedTensorPipeline
from repro.distributed import LearnerGroup
from repro.memory import global_ledger, profile_memory
from repro.nn import MultiHeadAttention
from repro.tensor import manual_seed
from repro.tensor.device import CPU, GPU
from repro.tensor.tensor import Tensor

MB = 1024 * 1024


@dataclass
class Table2Row:
    name: str
    marshal: bool
    uniquify: bool
    shard: bool
    cpu_peak_bytes: int
    offload_traffic_bytes: int
    copies_made: int
    copies_avoided: int
    tensors_sharded: int

    @property
    def cpu_peak_mb(self) -> float:
        return self.cpu_peak_bytes / MB


@dataclass
class Table2Result:
    rows: list[Table2Row]

    def reduction(self, row: Table2Row) -> float:
        base = self.rows[0].cpu_peak_bytes
        return base / max(row.cpu_peak_bytes, 1)

    def failures(self) -> list[str]:
        """The paper's ordering, at the default :func:`run_table2` shape."""
        by_name = {r.name: r for r in self.rows}
        failures = [
            f"table2 {name}: reduction {self.reduction(by_name[name]):.1f}x "
            f"is not above {floor}x"
            for name, floor in (("M", 1.5), ("M+U", 10), ("M+S", 5), ("M+U+S", 100))
            if not self.reduction(by_name[name]) > floor
        ]
        if by_name["M+U+S"].cpu_peak_bytes != min(r.cpu_peak_bytes for r in self.rows):
            failures.append("table2: M+U+S is not the smallest CPU peak")
        # M+U beats M+S here as in the paper (23.5x vs 16.4x).
        if not by_name["M+U"].cpu_peak_bytes < by_name["M+S"].cpu_peak_bytes:
            failures.append("table2: M+U does not beat M+S")
        return failures


# Paper CPU peak (MB, at 7B scale) and reduction per configuration.
PAPER_TABLE2 = {
    "baseline": (1600.0, 1.0),
    "M": (544.0, 2.9),
    "M+U": (68.0, 23.5),
    "M+S": (97.0, 16.4),
    "M+U+S": (12.0, 129.9),
}


def _build_workload(
    dim: int, n_heads: int, seq_len: int, bits: int, iters: int, uniquify: bool
):
    manual_seed(0)
    rng = np.random.default_rng(0)
    attention = MultiHeadAttention(dim=dim, n_heads=n_heads, max_seq_len=seq_len, rng=rng)
    attention.to(GPU)
    dkm = DKMConfig(bits=bits, iters=iters)
    for name in ("q_proj", "k_proj", "v_proj", "o_proj"):
        setattr(
            attention,
            name,
            ClusteredLinear(getattr(attention, name), dkm, uniquify_enabled=uniquify),
        )
    x = Tensor.from_numpy(
        rng.standard_normal((1, seq_len, dim)).astype(np.float32), device=GPU
    )
    return attention, x


def _run_config(
    name: str,
    config: EDKMConfig,
    dim: int,
    n_heads: int,
    seq_len: int,
    bits: int,
    iters: int,
) -> Table2Row:
    attention, x = _build_workload(dim, n_heads, seq_len, bits, iters, config.uniquify)
    pipeline = SavedTensorPipeline(config)
    with profile_memory([CPU.tracker], global_ledger()) as prof:
        with pipeline.step():
            out = attention(x)
            (out * out).sum().backward()
    return Table2Row(
        name=name,
        marshal=config.marshal,
        uniquify=config.uniquify,
        shard=config.shard,
        cpu_peak_bytes=prof.peak_delta("cpu"),
        offload_traffic_bytes=prof.traffic("gpu", "cpu"),
        copies_made=pipeline.stats.copies_made,
        copies_avoided=pipeline.stats.copies_avoided,
        tensors_sharded=pipeline.stats.tensors_sharded,
    )


def run_table2(
    dim: int = 256,
    n_heads: int = 8,
    seq_len: int = 16,
    bits: int = 3,
    iters: int = 3,
    n_learners: int = 8,
) -> Table2Result:
    """The five-row ablation at a CPU-friendly scale."""
    group = LearnerGroup(n_learners)
    configs = [
        ("baseline", EDKMConfig.baseline_offload()),
        ("M", EDKMConfig(marshal=True, uniquify=False, shard=False, group=None)),
        ("M+U", EDKMConfig(marshal=True, uniquify=True, shard=False, group=None)),
        ("M+S", EDKMConfig(marshal=True, uniquify=False, shard=True, group=group)),
        ("M+U+S", EDKMConfig(marshal=True, uniquify=True, shard=True, group=group)),
    ]
    rows = [
        _run_config(name, config, dim, n_heads, seq_len, bits, iters)
        for name, config in configs
    ]
    return Table2Result(rows=rows)


def run_learner_sweep(
    n_learners_options: tuple[int, ...] = (1, 2, 4, 8),
    dim: int = 256,
    seq_len: int = 16,
) -> dict[int, Table2Result]:
    """Ablation: sharding benefit vs learner count (design choice sweep)."""
    results = {}
    for n in n_learners_options:
        group = LearnerGroup(n)
        rows = [
            _run_config("baseline", EDKMConfig.baseline_offload(), dim, 8, seq_len, 3, 3),
            _run_config(
                f"M+U+S|L={n}",
                EDKMConfig(marshal=True, uniquify=True, shard=True, group=group),
                dim,
                8,
                seq_len,
                3,
                3,
            ),
        ]
        results[n] = Table2Result(rows=rows)
    return results


def run_bits_sweep(
    bits_options: tuple[int, ...] = (2, 3, 4), dim: int = 256, seq_len: int = 16
) -> dict[int, Table2Result]:
    """Ablation: map size scales with 2**bits; U's win is bits-independent."""
    return {
        b: run_table2(dim=dim, seq_len=seq_len, bits=b) for b in bits_options
    }


@dataclass
class Table2BenchResult(PaperTable):
    """Table 2 plus the learner-count and bit-width ablations."""

    main: Table2Result
    learner_sweep: dict[int, Table2Result]
    bits_sweep: dict[int, Table2Result]

    def render(self) -> str:
        main = self.main
        return "\n\n".join(
            [
                render_table(
                    ["config", "CPU peak (MB)", "reduction", "dedup hits",
                     "sharded", "paper reduction"],
                    [
                        [row.name, row.cpu_peak_mb, f"{main.reduction(row):.1f}x",
                         row.copies_avoided, row.tensors_sharded,
                         f"{PAPER_TABLE2[row.name][1]}x"]
                        for row in main.rows
                    ],
                    title="Table 2: eDKM ablation (one attention layer, 3-bit, |L|=8)",
                    float_fmt="{:.2f}",
                ),
                render_table(
                    ["learners |L|", "M+U+S CPU peak (MB)", "reduction vs baseline"],
                    [
                        [n, r.rows[1].cpu_peak_mb, f"{r.reduction(r.rows[1]):.1f}x"]
                        for n, r in self.learner_sweep.items()
                    ],
                    title="Table 2 ablation: sharding benefit vs learner count",
                    float_fmt="{:.3f}",
                ),
                render_table(
                    ["bits", "|C|", "baseline (MB)", "M+U+S (MB)", "reduction"],
                    [
                        [bits, 2**bits, r.rows[0].cpu_peak_mb, r.rows[-1].cpu_peak_mb,
                         f"{r.reduction(r.rows[-1]):.1f}x"]
                        for bits, r in self.bits_sweep.items()
                    ],
                    title="Table 2 ablation: bit width (map scales with 2^bits)",
                    float_fmt="{:.3f}",
                ),
            ]
        )

    def failures(self) -> list[str]:
        failures = self.main.failures()
        reductions = {
            n: r.reduction(r.rows[1]) for n, r in self.learner_sweep.items()
        }
        if not reductions[8] > reductions[2] > reductions[1] * 0.9:
            failures.append(
                f"table2 learners: reduction does not grow with |L| ({reductions})"
            )
        # The dense map grows with the codebook.
        baselines = [r.rows[0].cpu_peak_bytes for r in self.bits_sweep.values()]
        if baselines != sorted(set(baselines)):
            failures.append("table2 bits: baseline peak does not grow with 2^bits")
        return failures


def run(quick: bool = False, seed: int = 0) -> Table2BenchResult:
    """``python -m repro.bench table2`` (a few seconds; quick == full).

    The ablation workloads are seeded internally, so ``seed`` is unused.
    """
    return Table2BenchResult(
        main=run_table2(),
        learner_sweep=run_learner_sweep(),
        bits_sweep=run_bits_sweep(dim=192),
    )
