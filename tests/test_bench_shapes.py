"""Fast shape-checks of the experiment runners.

Each test asserts the *qualitative* paper result: ``python -m repro.bench``
regenerates the numbers, these guard the direction of every claim.  The
thresholds themselves live in each result's ``failures()``.
"""

import dataclasses

import pytest

from repro.bench import (
    PAPER_TABLE1,
    claims,
    run_fig2,
    run_fig3,
    run_hop_budget_sweep,
    run_table1,
    run_table2,
)
from repro.bench.table2 import Table2Result
from repro.bench.tables import render_table


class TestTable1:
    def test_matches_paper_exactly(self):
        rows = run_table1()
        for row, (line, gpu_mb, cpu_mb) in zip(rows, PAPER_TABLE1):
            assert row.line == line
            assert row.gpu_mb == pytest.approx(gpu_mb)
            assert row.cpu_mb == pytest.approx(cpu_mb)


class TestFig2:
    def test_marshaling_reduces_memory_and_traffic(self):
        base = run_fig2(marshal=False)
        marshal = run_fig2(marshal=True)
        assert marshal.cpu_peak_mb < base.cpu_peak_mb
        assert marshal.offload_traffic_mb < base.offload_traffic_mb
        assert marshal.copies_avoided >= 2
        assert base.copies_avoided == 0

    def test_view_dedup_requires_one_hop(self):
        sweep = run_hop_budget_sweep(budgets=(0, 1))
        assert sweep[0].copies_avoided < sweep[1].copies_avoided
        assert 1 in sweep[1].hops_histogram

    def test_oracle_strategy_agrees_with_graph(self):
        graph = run_fig2(marshal=True, strategy="graph")
        oracle = run_fig2(marshal=True, strategy="storage-id")
        assert graph.cpu_peak_mb == oracle.cpu_peak_mb
        assert graph.copies_avoided == oracle.copies_avoided


class TestFig3:
    def test_uniquification_reduces_and_reconstructs(self):
        result = run_fig3(n_weights=1 << 14)
        assert result.reconstruction_exact
        assert result.n_unique <= 1 << 16
        assert result.uniquify_reduction > 2
        assert result.total_reduction_per_learner > result.uniquify_reduction

    def test_sharding_divides_index_bytes(self):
        result = run_fig3(n_weights=1 << 14, n_learners=8)
        assert result.index_bytes_per_learner == -(-result.index_bytes // 8)


class TestTable2Shape:
    @pytest.fixture(scope="class")
    def result(self):
        # The benchmark's own shape (~1 s): the gates are calibrated to it.
        return run_table2()

    def test_row_order(self, result):
        assert [r.name for r in result.rows] == [
            "baseline", "M", "M+U", "M+S", "M+U+S",
        ]

    def test_marshaling_reduces(self, result):
        base, m = result.rows[0], result.rows[1]
        assert m.cpu_peak_bytes < base.cpu_peak_bytes
        assert m.copies_avoided > 0

    def test_uniquification_compounds(self, result):
        m, mu = result.rows[1], result.rows[2]
        assert mu.cpu_peak_bytes < m.cpu_peak_bytes

    def test_sharding_compounds(self, result):
        m, ms = result.rows[1], result.rows[3]
        assert ms.cpu_peak_bytes < m.cpu_peak_bytes
        assert ms.tensors_sharded > 0

    def test_full_edkm_is_best(self, result):
        peaks = {r.name: r.cpu_peak_bytes for r in result.rows}
        assert peaks["M+U+S"] == min(peaks.values())
        assert result.failures() == []

    def test_a_missed_threshold_is_named(self, result):
        weak = Table2Result(rows=list(result.rows))
        weak.rows[1] = dataclasses.replace(
            weak.rows[1], cpu_peak_bytes=weak.rows[0].cpu_peak_bytes
        )
        assert [f.split(":")[0] for f in weak.failures()] == ["table2 M"]


class TestClaims:
    def test_all_claims_within_10_percent(self):
        assert claims.run().failures() == []


class TestTableRendering:
    def test_render_table(self):
        text = render_table(
            ["a", "b"], [[1, 2.5], ["x", None]], title="T", float_fmt="{:.2f}"
        )
        assert "T" in text and "2.50" in text and "--" in text
