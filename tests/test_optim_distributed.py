"""Tests for optimizers, clipping, and the learner simulation."""

import numpy as np
import pytest

import repro.tensor as rt
from repro.distributed import (
    LearnerGroup,
    all_gather,
    shard_rows,
)
from repro.memory import global_ledger, profile_memory
from repro.nn.module import Parameter
from repro.optim import AdamW, clip_grad_norm_


def _quadratic_param(value=5.0):
    return Parameter.wrap(rt.tensor([value]), requires_grad=True)


def _step_quadratic(optimizer, param, n=50):
    for _ in range(n):
        loss = (param * param).sum()
        optimizer.zero_grad()
        loss.backward()
        optimizer.step()
    return abs(param.item())


class TestOptimizers:
    def test_adamw_minimizes_quadratic(self):
        p = _quadratic_param()
        assert _step_quadratic(AdamW([p], lr=0.3), p, n=100) < 0.05

    def test_adamw_weight_decay_shrinks_weights(self):
        p = Parameter.wrap(rt.tensor([1.0]), requires_grad=True)
        opt = AdamW([p], lr=0.01, weight_decay=0.5)
        # Zero gradient: only decay acts.
        p.grad = rt.zeros(1)
        for _ in range(10):
            opt.step()
        assert 0 < p.item() < 1.0

    def test_params_without_grad_skipped(self):
        p = _quadratic_param()
        opt = AdamW([p], lr=0.1)
        opt.step()  # no grad yet; must not crash
        assert p.item() == 5.0

    def test_empty_params_rejected(self):
        with pytest.raises(ValueError):
            AdamW([], lr=0.1)

    def test_bad_lr_rejected(self):
        with pytest.raises(ValueError):
            AdamW([_quadratic_param()], lr=0.0)

    def test_adamw_state_is_per_parameter(self):
        p1 = _quadratic_param(1.0)
        p2 = _quadratic_param(2.0)
        opt = AdamW([p1, p2], lr=0.1)
        loss = (p1 * p1).sum() + (p2 * p2 * 2.0).sum()
        loss.backward()
        opt.step()
        assert len(opt.m) == len(opt.v) == 2
        assert not np.array_equal(opt.m[0], opt.m[1])

    def test_adamw_moments_are_keyed_by_position(self):
        """A parameter that got no gradient keeps ``None`` at its own
        position; its neighbours' moments sit at theirs."""
        p1, p2, p3 = (_quadratic_param(v) for v in (1.0, 2.0, 3.0))
        opt = AdamW([p1, p2, p3], lr=0.1)
        ((p1 * p1).sum() + (p3 * p3).sum()).backward()
        opt.step()
        assert opt.m[1] is None and opt.v[1] is None
        assert 0 < opt.m[0][0] < opt.m[2][0]  # gradients 2 and 6


class TestClipping:
    def test_clip_reduces_norm(self):
        params = [
            Parameter.wrap(rt.tensor([3.0]), requires_grad=True),
            Parameter.wrap(rt.tensor([4.0]), requires_grad=True),
        ]
        params[0].grad = rt.tensor([3.0])
        params[1].grad = rt.tensor([4.0])
        norm = clip_grad_norm_(params, max_norm=1.0)
        assert norm == pytest.approx(5.0)
        new_norm = np.sqrt(sum(float(p.grad.item()) ** 2 for p in params))
        assert new_norm == pytest.approx(1.0, rel=1e-5)

    def test_no_clip_when_below_max(self):
        p = Parameter.wrap(rt.tensor([1.0]), requires_grad=True)
        p.grad = rt.tensor([0.1])
        clip_grad_norm_([p], max_norm=1.0)
        assert p.grad.numpy()[0] == pytest.approx(0.1)

    def test_bad_max_norm(self):
        with pytest.raises(ValueError):
            clip_grad_norm_([], max_norm=0.0)


class TestLearnerGroup:
    def test_devices_named(self):
        group = LearnerGroup(4)
        assert group.devices[0].name == "cpu"
        assert [d.name for d in group.devices[1:]] == [
            "cpu:peer1",
            "cpu:peer2",
            "cpu:peer3",
        ]

    def test_single_learner(self):
        assert len(LearnerGroup(1).devices) == 1

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            LearnerGroup(0)


class TestCollectives:
    def test_shard_gather_roundtrip(self):
        group = LearnerGroup(4)
        t = rt.tensor(np.arange(10, dtype=np.float32), device="gpu")
        sharded = shard_rows(t, group)
        assert len(sharded.counts) == 4
        rebuilt = all_gather(sharded, rt.GPU)
        assert np.array_equal(rebuilt.numpy(), t.numpy())

    def test_shard_sizes_balanced(self):
        group = LearnerGroup(4)
        sharded = shard_rows(rt.zeros(10), group)
        assert sharded.counts == (3, 3, 2, 2)
        assert sharded.learner_nbytes == (12, 12, 8, 8)

    def test_shard_2d_rows(self):
        group = LearnerGroup(2)
        t = rt.tensor(np.arange(12, dtype=np.float32).reshape(6, 2))
        sharded = shard_rows(t, group)
        assert sharded.counts[0] == 3 * 2
        rebuilt = all_gather(sharded, rt.CPU)
        assert np.array_equal(rebuilt.numpy(), t.numpy())

    def test_per_learner_memory_accounting(self):
        group = LearnerGroup(4)
        peer = group.devices[1]
        with profile_memory([group.devices[0].tracker, peer.tracker]) as prof:
            t = rt.tensor(np.zeros(400, dtype=np.float32), device="gpu")
            sharded = shard_rows(t, group)
            del t
            assert prof is not None
            local = sharded.local_nbytes
            del sharded
        assert prof.peak_delta("cpu") == local == 400
        assert prof.peak_delta(peer.name) == 400

    def test_shard_traffic_recorded(self):
        group = LearnerGroup(2)
        ledger = global_ledger()
        before = ledger.total_bytes("gpu")
        t = rt.tensor(np.zeros(100, dtype=np.float32), device="gpu")
        shard_rows(t, group)
        assert ledger.total_bytes("gpu") - before == 400

    def test_sharded_tensor_validates_count(self):
        from repro.distributed.collective import ShardedTensor

        group = LearnerGroup(2)
        with pytest.raises(ValueError):
            ShardedTensor(np.zeros(2, np.float32), rt.float32, group, (2,), [2])
