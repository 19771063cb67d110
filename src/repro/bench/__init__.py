"""Experiment runners regenerating every table and figure of the paper.

Each module is one experiment and owns its shapes (``run(quick, seed)``),
its printed rows (``render()``), its artifact (``to_json_dict()``) and its
gates (``failures()``); ``python -m repro.bench <name>...|all`` is the one
way to run them (:mod:`repro.bench.__main__` holds the registry).

- :mod:`repro.bench.table1` -- Table 1 (cross-device copy duplication)
- :mod:`repro.bench.fig2`   -- Fig. 2  (marshaling removes the duplicate;
  hop-budget and lookup-strategy ablations)
- :mod:`repro.bench.fig3`   -- Fig. 3  (uniquification + sharding)
- :mod:`repro.bench.table2` -- Table 2 (M/U/S ablation, memory + runtime)
- :mod:`repro.bench.table3` -- Table 3 (accuracy of compressed models)
- :mod:`repro.bench.claims` -- Section 1/2 analytic size claims
- :mod:`repro.bench.faults` -- crash-safe checkpoint/resume of a
  compression run
- :mod:`repro.bench.serving_faults` -- chaos-serving fault matrix
"""

from repro.bench.claims import Claim, run_claims
from repro.bench.faults import FaultBenchResult, run_faults
from repro.bench.fig2 import Fig2Result, run_fig2, run_hop_budget_sweep
from repro.bench.fig3 import Fig3Result, run_dtype_sweep, run_fig3
from repro.bench.table1 import PAPER_TABLE1, Table1Row, run_table1
from repro.bench.table2 import (
    PAPER_TABLE2,
    Table2Result,
    Table2Row,
    run_bits_sweep,
    run_learner_sweep,
    run_table2,
)
from repro.bench.table3 import (
    PAPER_TABLE3,
    SUITE_ORDER,
    Table3Harness,
    Table3Row,
    run_table3,
)
from repro.bench.tables import render_table

__all__ = [
    "Claim",
    "run_claims",
    "FaultBenchResult",
    "run_faults",
    "Fig2Result",
    "run_fig2",
    "run_hop_budget_sweep",
    "Fig3Result",
    "run_dtype_sweep",
    "run_fig3",
    "PAPER_TABLE1",
    "Table1Row",
    "run_table1",
    "PAPER_TABLE2",
    "Table2Result",
    "Table2Row",
    "run_bits_sweep",
    "run_learner_sweep",
    "run_table2",
    "PAPER_TABLE3",
    "SUITE_ORDER",
    "Table3Harness",
    "Table3Row",
    "run_table3",
    "render_table",
]
