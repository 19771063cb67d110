"""Tests for the nn layer library."""

import numpy as np
import pytest

import repro.tensor as rt
import repro.nn as nn
from repro.nn.module import Parameter

from tests.gradcheck import check_gradients
from tests.opcount import training_step_counts


def _arr(shape, seed=0, scale=1.0):
    return (np.random.default_rng(seed).standard_normal(shape) * scale).astype(
        np.float32
    )


class TestModule:
    def test_parameter_registration(self):
        layer = nn.Linear(3, 4)
        names = dict(layer.named_parameters())
        assert set(names) == {"weight", "bias"}
        assert isinstance(names["weight"], Parameter)

    def test_nested_registration(self):
        model = nn.DecoderLayer(dim=8, n_heads=2, hidden_dim=16)
        names = dict(model.named_parameters())
        assert "attn.q_proj.weight" in names
        assert "mlp.down_proj.weight" in names
        assert "attn_norm.weight" in names

    def test_num_parameters(self):
        layer = nn.Linear(3, 4)
        assert layer.num_parameters() == 3 * 4 + 4

    def test_state_dict_roundtrip(self):
        a = nn.Linear(3, 4, rng=np.random.default_rng(1))
        b = nn.Linear(3, 4, rng=np.random.default_rng(2))
        assert not np.allclose(a.weight.numpy(), b.weight.numpy())
        b.load_state_dict(a.state_dict())
        assert np.allclose(a.weight.numpy(), b.weight.numpy())

    def test_load_state_dict_validates_keys(self):
        a = nn.Linear(3, 4)
        with pytest.raises(KeyError):
            a.load_state_dict({"weight": a.weight})

    def test_load_state_dict_validates_shapes(self):
        a = nn.Linear(3, 4)
        state = dict(a.state_dict())
        state["bias"] = rt.zeros(7)
        with pytest.raises(ValueError):
            a.load_state_dict(state)

    def test_train_eval_propagates(self):
        model = nn.DecoderLayer(dim=8, n_heads=2, hidden_dim=16)
        model.eval()
        assert not model.attn.q_proj.training
        model.train()
        assert model.attn.q_proj.training

    def test_to_device_preserves_param_identity(self):
        layer = nn.Linear(3, 4)
        weight = layer.weight
        layer.to("gpu")
        assert layer.weight is weight
        assert layer.weight.device.name == "gpu"

    def test_zero_grad(self):
        layer = nn.Linear(3, 4)
        out = layer(rt.tensor(_arr((2, 3))))
        out.sum().backward()
        assert layer.weight.grad is not None
        layer.zero_grad()
        assert layer.weight.grad is None

    def test_module_list(self):
        modules = nn.ModuleList([nn.Linear(2, 2), nn.Linear(2, 2)])
        assert len(modules) == 2
        assert modules[0] is not modules[1]
        assert len(dict(modules.named_parameters())) == 4


class TestLinearEmbedding:
    def test_linear_matches_numpy(self):
        layer = nn.Linear(3, 4)
        x = _arr((5, 3))
        expected = x @ layer.weight.numpy().T + layer.bias.numpy()
        assert np.allclose(layer(rt.tensor(x)).numpy(), expected, rtol=1e-5)

    def test_linear_batched_input(self):
        layer = nn.Linear(3, 4)
        out = layer(rt.tensor(_arr((2, 5, 3))))
        assert out.shape == (2, 5, 4)

    def test_linear_no_bias(self):
        layer = nn.Linear(3, 4, bias=False)
        assert layer.bias is None
        assert layer(rt.tensor(_arr((2, 3)))).shape == (2, 4)

    def test_linear_grad(self):
        w = _arr((4, 3), 5, scale=0.5)

        def fn(ts):
            return ts[0] @ ts[1].transpose(0, 1)

        check_gradients(fn, [_arr((2, 3)), w])

    def test_embedding_lookup(self):
        emb = nn.Embedding(10, 4)
        idx = rt.tensor(np.array([[1, 2], [3, 1]]))
        out = emb(idx)
        assert out.shape == (2, 2, 4)
        assert np.array_equal(out.numpy()[0, 0], emb.weight.numpy()[1])

    def test_embedding_grad(self):
        emb = nn.Embedding(5, 3)
        idx = rt.tensor(np.array([0, 0, 2]))
        emb(idx).sum().backward()
        grad = emb.weight.grad.numpy()
        assert np.all(grad[0] == 2.0)
        assert np.all(grad[2] == 1.0)
        assert np.all(grad[1] == 0.0)


class TestNorms:
    def test_rmsnorm_unit_rms(self):
        norm = nn.RMSNorm(8)
        x = rt.tensor(_arr((4, 8), scale=3.0))
        out = norm(x).numpy()
        rms = np.sqrt((out**2).mean(axis=-1))
        assert np.allclose(rms, 1.0, atol=1e-3)

    def test_rmsnorm_scale_applied(self):
        norm = nn.RMSNorm(4)
        norm.weight.copy_(np.array([2.0, 2.0, 2.0, 2.0]))
        x = rt.tensor(_arr((2, 4)))
        out = norm(x).numpy()
        rms = np.sqrt((out**2).mean(axis=-1))
        assert np.allclose(rms, 2.0, atol=1e-3)

    def test_rmsnorm_grad(self):
        norm = nn.RMSNorm(4)
        norm.weight.copy_(_arr((4,), seed=1))
        mix = rt.tensor(_arr((3, 4), seed=2))  # sum() alone has a zero input gradient
        check_gradients(lambda ts: norm(ts[0]) * mix, [_arr((3, 4))])


class TestRoPE:
    def test_rotation_preserves_norm(self):
        rope = nn.RotaryEmbedding(head_dim=8, max_seq_len=16)
        x = rt.tensor(_arr((1, 2, 6, 8)))
        out = rope.apply(x)
        assert np.allclose(
            np.linalg.norm(out.numpy(), axis=-1),
            np.linalg.norm(x.numpy(), axis=-1),
            rtol=1e-4,
        )

    def test_position_zero_unchanged(self):
        rope = nn.RotaryEmbedding(head_dim=8, max_seq_len=16)
        x = rt.tensor(_arr((1, 1, 4, 8)))
        out = rope.apply(x)
        assert np.allclose(out.numpy()[0, 0, 0], x.numpy()[0, 0, 0], atol=1e-6)

    def test_relative_property(self):
        # Dot product of rotated q/k depends only on relative offset.
        rope = nn.RotaryEmbedding(head_dim=8, max_seq_len=32)
        q = _arr((8,), 1)
        k = _arr((8,), 2)

        def rotated_dot(pos_q, pos_k):
            x = np.zeros((1, 1, 32, 8), dtype=np.float32)
            x[0, 0, pos_q] = q
            y = np.zeros((1, 1, 32, 8), dtype=np.float32)
            y[0, 0, pos_k] = k
            rq = rope.apply(rt.tensor(x)).numpy()[0, 0, pos_q]
            rk = rope.apply(rt.tensor(y)).numpy()[0, 0, pos_k]
            return float(rq @ rk)

        assert rotated_dot(3, 5) == pytest.approx(rotated_dot(10, 12), rel=1e-4)

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ValueError):
            nn.RotaryEmbedding(head_dim=7, max_seq_len=8)

    def test_sequence_too_long_rejected(self):
        rope = nn.RotaryEmbedding(head_dim=4, max_seq_len=4)
        with pytest.raises(ValueError, match="exceeds RoPE table"):
            rope.apply(rt.tensor(_arr((1, 1, 8, 4))))
        with pytest.raises(ValueError, match="expected"):
            rope.apply(rt.tensor(_arr((1, 4, 4))))

    def test_apply_at_is_apply_at_arbitrary_positions(self):
        rope = nn.RotaryEmbedding(head_dim=8, max_seq_len=16)
        x = _arr((1, 2, 16, 8))
        full = rope.apply(rt.tensor(x)).numpy()[0]  # (heads, seq, head_dim)
        positions = np.array([5, 0, 15, 5])
        ragged = rope.apply_at(x[0].transpose(1, 0, 2)[positions], positions)
        assert ragged.tobytes() == full.transpose(1, 0, 2)[positions].tobytes()
        with pytest.raises(ValueError):
            rope.apply_at(x, positions)

    @pytest.mark.parametrize("positions", [[-1, 3], [3, 16], [0, 1, 2], [[0, 1]]])
    def test_apply_at_rejects_positions_off_the_table(self, positions):
        rope = nn.RotaryEmbedding(head_dim=8, max_seq_len=16)
        with pytest.raises(ValueError, match="position"):
            rope.apply_at(np.ones((2, 1, 8), dtype=np.float32), np.array(positions))

    def test_apply_at_accepts_both_ends_of_the_table(self):
        rope = nn.RotaryEmbedding(head_dim=8, max_seq_len=16)
        out = rope.apply_at(np.ones((2, 1, 8), dtype=np.float32), np.array([0, 15]))
        assert np.all(out[0] == 1.0) and np.isfinite(out).all()
        assert rope.apply_at(np.ones((0, 1, 8), dtype=np.float32), np.array([], int)).shape == (0, 1, 8)

    def test_no_sequence_length_leaves_device_memory_behind(self):
        rope = nn.RotaryEmbedding(head_dim=8, max_seq_len=16)
        x = rt.tensor(_arr((1, 2, 16, 8)), device="gpu")
        before = rt.GPU.tracker.current_bytes
        for seq_len in (1, 5, 16):
            rope.apply(x[:, :, :seq_len])
        assert rt.GPU.tracker.current_bytes == before


class TestAttention:
    def test_output_shape(self):
        attn = nn.MultiHeadAttention(dim=16, n_heads=4, max_seq_len=8)
        out = attn(rt.tensor(_arr((2, 6, 16))))
        assert out.shape == (2, 6, 16)

    def test_causality(self):
        """Changing a future token must not affect earlier outputs."""
        attn = nn.MultiHeadAttention(dim=16, n_heads=4, max_seq_len=8)
        x = _arr((1, 6, 16))
        out_a = attn(rt.tensor(x)).numpy()
        x_mod = x.copy()
        x_mod[0, 4] += 10.0  # perturb position 4
        out_b = attn(rt.tensor(x_mod)).numpy()
        assert np.allclose(out_a[0, :4], out_b[0, :4], atol=1e-5)
        assert not np.allclose(out_a[0, 4:], out_b[0, 4:], atol=1e-3)

    def test_dim_head_divisibility(self):
        with pytest.raises(ValueError):
            nn.MultiHeadAttention(dim=10, n_heads=3)

    def test_kv_block_grows_in_chunks_and_keeps_what_was_written(self):
        block = nn.KVBlock(n_heads=2, head_dim=4, dtype=rt.float32, device=rt.GPU)
        assert block.nbytes == 0
        first = _arr((3, 2, 4), 1)
        block.write(0, first, -first)
        assert block.capacity == nn.KVBlock.GROWTH
        assert block.nbytes == 2 * nn.KVBlock.GROWTH * 2 * 4 * 4
        assert block.keys.device == rt.GPU
        version = block.keys.storage.version
        more = _arr((nn.KVBlock.GROWTH, 2, 4), 2)
        block.write(3, more, -more)  # outgrows the first chunk
        assert block.capacity == 2 * nn.KVBlock.GROWTH
        keys, values = block.read(3 + nn.KVBlock.GROWTH)
        want = np.concatenate([first, more]).transpose(1, 0, 2)
        np.testing.assert_array_equal(keys, want)
        np.testing.assert_array_equal(values, -want)
        block.write(3, more[:1], more[:1])  # in place: the version moves
        assert block.keys.storage.version > version

    def test_step_matches_forward_for_any_split_of_the_sequence(self):
        attn = nn.MultiHeadAttention(dim=16, n_heads=4, max_seq_len=12)
        x = _arr((2, 9, 16))
        with rt.no_grad():
            full = attn(rt.tensor(x)).numpy()
            # Row 0 is prefilled with 5 tokens, then fed 1 and 3; row 1
            # joins a step late with all 9 at once.
            blocks = [
                nn.KVBlock(4, 4, rt.float32, rt.CPU),
                nn.KVBlock(4, 4, rt.float32, rt.CPU),
            ]
            steps = [
                [(0, 0, 5)],
                [(0, 5, 1), (1, 0, 9)],
                [(0, 6, 3)],
            ]
            got = np.zeros_like(full)
            for step in steps:
                rows, tokens, positions, start = [], [], [], 0
                for seq, cached, count in step:
                    rows.append(nn.AttentionRow(start, count, cached, blocks[seq]))
                    tokens.append(x[seq, cached : cached + count])
                    positions.extend(range(cached, cached + count))
                    start += count
                out = attn.step(
                    rt.tensor(np.concatenate(tokens)), np.array(positions), rows
                ).numpy()
                for row, (seq, cached, count) in zip(rows, step):
                    got[seq, cached : cached + count] = out[row.start : row.start + count]
        np.testing.assert_allclose(got, full, atol=1e-5, rtol=0)

    def test_gradients_flow_to_all_projections(self):
        attn = nn.MultiHeadAttention(dim=8, n_heads=2, max_seq_len=4)
        out = attn(rt.tensor(_arr((1, 3, 8))))
        (out * out).sum().backward()
        for proj in (attn.q_proj, attn.k_proj, attn.v_proj, attn.o_proj):
            assert proj.weight.grad is not None
            assert float(np.abs(proj.weight.grad.numpy()).max()) > 0


class TestTransformer:
    def test_logits_shape(self):
        model = nn.Transformer(
            vocab_size=50, dim=16, n_layers=2, n_heads=2, hidden_dim=32, max_seq_len=8
        )
        tokens = rt.tensor(np.array([[1, 2, 3], [4, 5, 6]]))
        assert model(tokens).shape == (2, 3, 50)

    def test_deterministic_given_seed(self):
        kwargs = dict(
            vocab_size=20, dim=8, n_layers=1, n_heads=2, hidden_dim=16, seed=7
        )
        a = nn.Transformer(**kwargs)
        b = nn.Transformer(**kwargs)
        tokens = rt.tensor(np.array([[1, 2, 3]]))
        assert np.array_equal(a(tokens).numpy(), b(tokens).numpy())

    def test_training_step_dispatch_budget(self):
        # 173 dispatches / 178 saved tensors while RoPE and RMSNorm were
        # chains of primitive ops (13 x 4 and 6 x 5 of them).
        counts = training_step_counts()
        assert counts.dispatches["EDKMClusterAssign"] == 15
        assert counts.dispatches["rope"] == 4 and counts.saved["rope"] == 0
        assert counts.dispatches["rms_norm"] == 5 and counts.saved["rms_norm"] == 10
        assert not {"Slice", "Cat", "Mean", "Sqrt", "Div", "Sub"} & set(counts.dispatches)
        assert sum(counts.dispatches.values()) <= 100
        assert sum(counts.saved.values()) <= 121


class TestLoss:
    def test_cross_entropy_matches_manual(self):
        logits = _arr((2, 3, 5))
        targets = np.array([[1, 2, 0], [4, 3, 1]])
        loss = nn.cross_entropy(rt.tensor(logits), rt.tensor(targets))
        log_probs = logits - scipy_logsumexp(logits)
        manual = -np.mean(
            [log_probs[i, j, targets[i, j]] for i in range(2) for j in range(3)]
        )
        assert loss.item() == pytest.approx(manual, rel=1e-4)

    def test_ignore_index_masks_positions(self):
        logits = _arr((1, 3, 5))
        targets = np.array([[1, nn.IGNORE_INDEX, 2]])
        loss = nn.cross_entropy(rt.tensor(logits), rt.tensor(targets))
        log_probs = logits - scipy_logsumexp(logits)
        manual = -(log_probs[0, 0, 1] + log_probs[0, 2, 2]) / 2
        assert loss.item() == pytest.approx(manual, rel=1e-4)

    def test_all_masked_raises(self):
        logits = rt.tensor(_arr((1, 2, 5)))
        targets = rt.tensor(np.full((1, 2), nn.IGNORE_INDEX))
        with pytest.raises(ValueError):
            nn.cross_entropy(logits, targets)

    def test_loss_decreases_under_gradient_step(self):
        layer = nn.Linear(4, 6)
        x = rt.tensor(_arr((8, 4)))
        targets = rt.tensor(np.random.default_rng(0).integers(0, 6, size=(8,)))
        losses = []
        for _ in range(20):
            loss = nn.cross_entropy(layer(x), targets)
            layer.zero_grad()
            loss.backward()
            for p in layer.parameters():
                p.copy_(p._compute() - 0.5 * p.grad._compute())
            losses.append(loss.item())
        assert losses[-1] < losses[0] * 0.5

    def test_token_log_likelihoods_shape(self):
        logits = rt.tensor(_arr((2, 3, 5)))
        targets = rt.tensor(np.array([[1, 2, 0], [4, 3, 1]]))
        lls = nn.token_log_likelihoods(logits, targets)
        assert lls.shape == (2, 3)
        assert np.all(lls <= 0)


def scipy_logsumexp(logits):
    import scipy.special

    return scipy.special.logsumexp(logits, axis=-1, keepdims=True)
