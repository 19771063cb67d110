"""Tests for the Table 3 harness API (quick subset; full run in benchmarks/)."""

import math

import numpy as np
import pytest

from repro.bench.table3 import (
    EDKM3,
    FP16,
    RTN3,
    SUITE_ORDER,
    TABLE3_ROWS,
    Table3Harness,
    run_table3,
)
from repro.core.compressor import ClusteredLinear


@pytest.fixture(scope="module")
def harness():
    """A deliberately small harness: enough training to beat chance fast."""
    return Table3Harness(
        seed=0, n_corpus=800, n_alpaca=300, n_items=8,
        corpus_epochs=1, alpaca_epochs=1,
    )


class TestHarness:
    def test_pretrained_is_cached(self, harness):
        first = harness.pretrained()
        assert harness.pretrained() is first

    def test_restore_rebuilds_fresh_model(self, harness):
        a = harness.restore()
        b = harness.restore()
        assert a is not b
        assert [p.shape for p in a.parameters()] == [p.shape for p in b.parameters()]

    def test_fp16_row(self, harness):
        row = harness.run_row(*FP16)
        assert row.method == "LLaMA (fp16)"
        assert row.bits == 16
        assert row.size_gb == pytest.approx(12.55, abs=0.1)
        assert len(row.accuracies()) == len(SUITE_ORDER)
        assert 0 <= row.mean_accuracy <= 100

    def test_rtn_row_has_size(self, harness):
        row = harness.run_row(*RTN3)
        assert row.method == "RTN"
        assert not math.isnan(row.size_gb)
        assert row.size_gb < 3.0

    def test_edkm_row(self, harness):
        row = harness.run_row(*EDKM3, epochs=1)
        assert row.method == "eDKM"
        assert row.size_gb == pytest.approx(2.43, abs=0.1)
        assert row.mean_accuracy > 30  # well above zero on 8-item suites

    def test_quick_run_table3(self, harness):
        rows = run_table3(harness, quick=True)
        assert [r.method for r in rows] == ["LLaMA (fp16)", "RTN", "eDKM"]
        # Sizes strictly ordered fp16 > RTN-3 ~ eDKM-3.
        assert rows[0].size_gb > rows[1].size_gb
        assert rows[0].size_gb > rows[2].size_gb

    def test_structure_does_not_leak_between_rows(self, harness):
        """An eDKM (structure-wrapping) row must not affect the next row."""
        harness.run_row(*EDKM3, epochs=1)
        row = harness.run_row(*FP16)
        # A wrapped model would have renamed parameters and failed restore;
        # reaching here with a sane accuracy is the regression check.
        assert row.mean_accuracy > 30

    def test_pretrained_survives_rows(self, harness):
        """Rows quantize their own copy: the fp16 model and its snapshot
        stay as trained, whatever the last row built."""
        model = harness.pretrained()
        before = {k: v.numpy().copy() for k, v in model.state_dict().items()}
        harness.run_row(*RTN3)
        harness.run_row(*EDKM3, epochs=1)
        assert harness.pretrained() is model
        assert not any(isinstance(m, ClusteredLinear) for _, m in model.named_modules())
        after = model.state_dict()
        assert all(np.array_equal(before[k], after[k].numpy()) for k in before)
        fresh = harness.restore().state_dict()
        assert all(np.array_equal(before[k], fresh[k].numpy()) for k in before)

    def test_rows_are_configs(self):
        """Every row is (label, scheme key, config); the paper's eight plus
        the 3-bit RTN reference row, each label/bits pair once."""
        keys = [(label, getattr(config, "bits", 16)) for label, _, config in TABLE3_ROWS]
        assert len(keys) == len(set(keys)) == 9
        assert keys[-1] == ("RTN", 3)
