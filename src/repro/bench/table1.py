"""Experiment: paper Table 1 -- cross-device copies duplicate storage.

Replays the paper's four-line program with byte-exact accounting:

    line 0   x0 = torch.rand([1024, 1024])    GPU 4 MB   CPU 0
    line 1   x1 = x0.view(-1, 1)              GPU 4 MB   CPU 0
    line 2   y0 = x0.to('cpu')                GPU 4 MB   CPU 4 MB
    line 3   y1 = x1.to('cpu')                GPU 4 MB   CPU 8 MB

The view is free on GPU (shared storage); each ``.to`` allocates a fresh
CPU storage even though y0/y1 could share one -- the redundancy marshaling
removes (Fig. 2 / :mod:`repro.bench.fig2`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.bench.tables import PaperTable, render_table
from repro.tensor.device import CPU, GPU
from repro.tensor.tensor import Tensor

MB = 1024 * 1024


@dataclass
class Table1Row:
    line: int
    code: str
    gpu_mb: float
    cpu_mb: float


def run_table1() -> list[Table1Row]:
    gpu_start = GPU.tracker.current_bytes
    cpu_start = CPU.tracker.current_bytes

    def snapshot(line: int, code: str) -> Table1Row:
        return Table1Row(
            line=line,
            code=code,
            gpu_mb=(GPU.tracker.current_bytes - gpu_start) / MB,
            cpu_mb=(CPU.tracker.current_bytes - cpu_start) / MB,
        )

    rows = []
    rng = np.random.default_rng(0)
    x0 = Tensor.from_numpy(
        rng.random((1024, 1024), dtype=np.float32), device=GPU
    )
    rows.append(snapshot(0, "x0 = rand([1024, 1024])"))
    x1 = x0.view(-1, 1)
    rows.append(snapshot(1, "x1 = x0.view(-1, 1)"))
    y0 = x0.to(CPU)
    rows.append(snapshot(2, "y0 = x0.to('cpu')"))
    y1 = x1.to(CPU)
    rows.append(snapshot(3, "y1 = x1.to('cpu')"))
    # Keep references alive through the last snapshot.
    del x1, y0, y1
    return rows


PAPER_TABLE1 = [
    (0, 4.0, 0.0),
    (1, 4.0, 0.0),
    (2, 4.0, 4.0),
    (3, 4.0, 8.0),
]


@dataclass
class Table1Result(PaperTable):
    rows: list[Table1Row]

    def render(self) -> str:
        return render_table(
            ["line", "code", "GPU (MB)", "CPU (MB)", "paper GPU", "paper CPU"],
            [
                [r.line, r.code, r.gpu_mb, r.cpu_mb, p[1], p[2]]
                for r, p in zip(self.rows, PAPER_TABLE1)
            ],
            title="Table 1: memory footprint of cross-device tensor moves",
        )

    def failures(self) -> list[str]:
        """Byte-for-byte match: it is arithmetic of the storage model."""
        failures = []
        for row, (line, gpu_mb, cpu_mb) in zip(self.rows, PAPER_TABLE1):
            if row.gpu_mb != gpu_mb:
                failures.append(f"table1 line {line}: GPU {row.gpu_mb} != {gpu_mb}")
            if row.cpu_mb != cpu_mb:
                failures.append(f"table1 line {line}: CPU {row.cpu_mb} != {cpu_mb}")
        return failures


def run(quick: bool = False, seed: int = 0) -> Table1Result:
    """``python -m repro.bench table1`` (one fixed shape; seed unused)."""
    return Table1Result(run_table1())
