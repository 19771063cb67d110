"""Tests for autograd graph mechanics and saved-tensor hooks."""

import copy
import gc
import pickle

import numpy as np
import pytest

import repro.tensor as rt
from repro.tensor import no_grad, saved_tensors_hooks
from repro.tensor.autograd import Context, unbroadcast
from repro.tensor.pairwise import DOWN_ROWS_MAX_N

from tests.oracles import unbroadcast_rowwise


def _randn(*shape, seed=0, **kwargs):
    """A float32 standard-normal tensor; ``kwargs`` go to ``rt.tensor``."""
    values = np.random.default_rng(seed).standard_normal(shape).astype(np.float32)
    return rt.tensor(values, **kwargs)


class TestGraphMechanics:
    def test_simple_chain(self):
        x = rt.tensor([2.0], requires_grad=True)
        y = (x * 3.0 + 1.0) ** 2
        y.backward()
        # dy/dx = 2 (3x + 1) * 3 = 42 at x=2.
        assert x.grad.numpy()[0] == pytest.approx(42.0)

    def test_grad_accumulates_across_backwards(self):
        x = rt.tensor([1.0], requires_grad=True)
        (x * 2.0).sum().backward()
        (x * 3.0).sum().backward()
        assert x.grad.numpy()[0] == pytest.approx(5.0)

    def test_multi_use_fanout(self):
        x = rt.tensor([3.0], requires_grad=True)
        y = x * x + x * 2.0  # dy/dx = 2x + 2 = 8
        y.sum().backward()
        assert x.grad.numpy()[0] == pytest.approx(8.0)

    def test_diamond_graph(self):
        x = rt.tensor([2.0], requires_grad=True)
        a = x * 3.0
        b = x + 1.0
        y = (a * b).sum()  # y = 3x(x+1); dy/dx = 6x + 3 = 15
        y.backward()
        assert x.grad.numpy()[0] == pytest.approx(15.0)

    def test_deep_chain_no_recursion_error(self):
        x = rt.tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 0.001
        y.sum().backward()
        assert x.grad.numpy()[0] == pytest.approx(1.0)

    def test_backward_on_leaf_raises(self):
        x = rt.tensor([1.0], requires_grad=True)
        with pytest.raises(RuntimeError, match="no grad_fn"):
            x.backward()

    def test_backward_nonscalar_needs_grad(self):
        x = rt.tensor([1.0, 2.0], requires_grad=True)
        y = x * 2.0
        with pytest.raises(RuntimeError, match="non-scalar"):
            y.backward()
        y2 = x * 2.0
        y2.backward(np.array([1.0, 0.5], dtype=np.float32))
        assert np.allclose(x.grad.numpy(), [2.0, 1.0])

    def test_backward_grad_shape_mismatch(self):
        x = rt.tensor([1.0, 2.0], requires_grad=True)
        with pytest.raises(RuntimeError, match="shape"):
            (x * 2.0).backward(np.ones(3, dtype=np.float32))

    def test_double_backward_through_same_node_raises(self):
        x = rt.tensor([1.0], requires_grad=True)
        y = (x * x).sum()
        y.backward()
        with pytest.raises(RuntimeError, match="consumed|grad_fn"):
            y.backward()

    def test_no_grad_blocks_recording(self):
        x = rt.tensor([1.0], requires_grad=True)
        with no_grad():
            y = x * 2.0
        assert y.grad_fn is None
        assert not y.requires_grad

    def test_nested_no_grad_restores_the_outer_mode(self):
        x = rt.tensor([1.0], requires_grad=True)
        with no_grad():
            with no_grad():
                pass
            assert not rt.is_grad_enabled()
            assert (x * 2.0).grad_fn is None
        assert rt.is_grad_enabled()
        assert (x * 2.0).grad_fn is not None

    def test_no_grad_restores_the_mode_after_an_exception(self):
        with pytest.raises(KeyError):
            with no_grad():
                raise KeyError("boom")
        assert rt.is_grad_enabled()

    def test_grad_not_tracked_for_non_required(self):
        x = rt.tensor([1.0])
        y = x * 2.0
        assert y.grad_fn is None

    def test_mixed_required_inputs(self):
        x = rt.tensor([1.0], requires_grad=True)
        c = rt.tensor([5.0])
        (x * c).sum().backward()
        assert x.grad is not None
        assert c.grad is None

    def test_grad_dtype_matches_leaf(self):
        x = rt.tensor([1.0], dtype="bfloat16", requires_grad=True)
        (x * 2.0).sum().backward()
        assert x.grad.dtype is rt.bfloat16

    def test_leaf_grads_never_share_a_buffer(self):
        """``Add.backward`` hands one ``grad`` array to both inputs; each
        leaf must still own its ``.grad`` (``_accumulate_leaf`` copies)."""
        from repro.nn import Parameter

        w1, w2 = (
            Parameter.wrap(rt.tensor(np.full((2, 3), v, dtype=np.float32)))
            for v in (1.0, 2.0)
        )
        weights = rt.tensor(np.arange(6, dtype=np.float32).reshape(2, 3))
        for step in (1, 2):  # the second backward accumulates
            ((w1 + w2) * weights).sum().backward()
            for w in (w1, w2):
                assert np.array_equal(w.grad.numpy(), step * weights.numpy())
            assert not np.shares_memory(w1.grad.storage.data, w2.grad.storage.data)


class TestContext:
    def test_plain_object_protocols(self):
        """A ctx is an ordinary object: built without ``__init__``, copied
        or pickled, it neither recurses nor loses its attributes."""
        bare = Context.__new__(Context)
        assert not hasattr(bare, "dim")
        ctx = Context()
        ctx.needs_input_grad = (True, False)
        ctx.dim = 1
        for clone in (copy.copy(ctx), pickle.loads(pickle.dumps(ctx))):
            assert clone.dim == 1
            assert clone.needs_input_grad == (True, False)
            assert clone.saved_tensors == ()
            assert not hasattr(clone, "scalar")


class TestUnbroadcast:
    def test_identity(self):
        g = np.ones((2, 3))
        assert unbroadcast(g, (2, 3)) is g

    def test_sum_leading_dims(self):
        assert unbroadcast(np.ones((4, 2, 3)), (2, 3)).shape == (2, 3)
        assert np.all(unbroadcast(np.ones((4, 2, 3)), (2, 3)) == 4)

    def test_sum_size1_dims(self):
        out = unbroadcast(np.ones((2, 3)), (2, 1))
        assert out.shape == (2, 1)
        assert np.all(out == 3)

    def test_combined(self):
        out = unbroadcast(np.ones((5, 2, 3)), (1, 3))
        assert out.shape == (1, 3)
        assert np.all(out == 10)


class TestSavedTensorHooks:
    def test_pack_unpack_called(self):
        events = []

        def pack(t):
            events.append(("pack", t.shape))
            return t

        def unpack(handle):
            events.append(("unpack", handle.shape))
            return handle

        x = rt.tensor([1.0, 2.0], requires_grad=True)
        with saved_tensors_hooks(pack, unpack):
            y = (x * x).sum()
        assert ("pack", (2,)) in events
        y.backward()
        assert ("unpack", (2,)) in events

    def test_hooks_only_active_inside_context(self):
        calls = []
        x = rt.tensor([1.0], requires_grad=True)
        with saved_tensors_hooks(lambda t: calls.append(1) or t, lambda h: h):
            pass
        (x * x).sum().backward()
        assert calls == []

    def test_innermost_hooks_win(self):
        order = []

        def make(tag):
            return (
                lambda t: order.append(f"pack-{tag}") or t,
                lambda h: h,
            )

        x = rt.tensor([1.0], requires_grad=True)
        outer_pack, outer_unpack = make("outer")
        inner_pack, inner_unpack = make("inner")
        with saved_tensors_hooks(outer_pack, outer_unpack):
            with saved_tensors_hooks(inner_pack, inner_unpack):
                y = (x * x).sum()
        y.backward()
        assert "pack-inner" in order
        assert "pack-outer" not in order

    def test_inner_hooks_pop_back_to_the_outer_pair(self):
        order = []
        x = rt.tensor([1.0], requires_grad=True)
        with saved_tensors_hooks(lambda t: order.append("outer") or t, lambda h: h):
            with saved_tensors_hooks(lambda t: order.append("inner") or t, lambda h: h):
                pass
            y = (x * x).sum()
        y.backward()
        assert order and set(order) == {"outer"}

    def test_hooks_are_popped_after_an_exception(self):
        calls = []
        with pytest.raises(KeyError):
            with saved_tensors_hooks(lambda t: calls.append(1) or t, lambda h: h):
                raise KeyError("boom")
        x = rt.tensor([1.0], requires_grad=True)
        (x * x).sum().backward()
        assert calls == []

    def test_handle_can_be_arbitrary_object(self):
        stash = {}

        def pack(t):
            key = len(stash)
            stash[key] = t.numpy()
            return key

        def unpack(key):
            return rt.tensor(stash[key], device="cpu")

        x = rt.tensor([3.0], requires_grad=True)
        with saved_tensors_hooks(pack, unpack):
            y = (x * x).sum()
        y.backward()
        assert x.grad.numpy()[0] == pytest.approx(6.0)

    def test_gradients_identical_with_roundtrip_hooks(self):
        def run(with_hooks):
            rt.manual_seed(0)
            x = _randn(4, 4, requires_grad=True)
            if with_hooks:
                with saved_tensors_hooks(lambda t: t.numpy(), lambda a: rt.tensor(a)):
                    y = (rt.ops.softmax(x @ x, dim=1) ** 2).sum()
            else:
                y = (rt.ops.softmax(x @ x, dim=1) ** 2).sum()
            y.backward()
            return x.grad.numpy()

        assert np.allclose(run(False), run(True), rtol=1e-6)

    def test_saved_tensors_released_after_backward(self):
        x = _randn(16, 16, requires_grad=True)
        y = (x * x).sum()
        node = y.grad_fn
        # Mul's saved payload holds x; sum's node holds edges to mul.
        y.backward()
        gc.collect()
        assert node.ctx._packed == []


class TestConsumerEdges:
    def test_consumers_recorded(self):
        x = rt.tensor([1.0], requires_grad=True)
        y = x * 2.0
        z = x + 1.0
        assert x.consumers is not None
        live = [ref() for ref in x.consumers if ref() is not None]
        names = {node.op_name for node in live}
        assert names == {"Mul", "Add"}
        del y, z

    def test_consumers_are_weak(self):
        x = rt.tensor([1.0], requires_grad=True)
        y = x * 2.0
        del y
        gc.collect()
        assert all(ref() is None for ref in x.consumers)

    def test_no_consumers_without_grad(self):
        x = rt.tensor([1.0])
        _ = x * 2.0
        assert x.consumers is None


# Every branch of the pairwise order, from one row to many.
_AXIS_LENGTHS = [*range(1, 18), 31, 64, 127, 128, 129, 200, 257]
_ROW_COUNTS = [1, 20, 1500, 9000]


def _assert_unbroadcast_matches_oracle(grad, shape):
    got = unbroadcast(grad, shape)
    want = unbroadcast_rowwise(grad, shape)
    assert got.shape == want.shape == shape
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestUnbroadcastEqualsRowwiseOracle:
    """Every sum but a short axis 0's keeps numpy's bytes."""

    @pytest.mark.parametrize("n", _AXIS_LENGTHS)
    @pytest.mark.parametrize("rows", _ROW_COUNTS)
    def test_trailing_axis(self, rows, n):
        grad = np.random.default_rng(n).standard_normal((rows, n)).astype(np.float32)
        _assert_unbroadcast_matches_oracle(grad, (rows, 1))

    @pytest.mark.parametrize("k", [4, 8, 16])  # the dense map at 2, 3 and 4 bits
    @pytest.mark.parametrize("rows", [16384, 30848, 32768])
    def test_dense_map_shapes(self, rows, k):
        grad = (np.random.default_rng(rows).standard_normal((rows, k)) * 1e-3).astype(np.float32)
        _assert_unbroadcast_matches_oracle(grad, (rows, 1))
        _assert_unbroadcast_matches_oracle(grad, (1, k))

    @pytest.mark.parametrize("rows", [20, 1500, 9000])
    def test_special_values(self, rows):
        grad = np.random.default_rng(1).standard_normal((rows, 8)).astype(np.float32)
        grad[::4] = -0.0  # sums to +0.0: add.reduce starts from its identity
        grad[1, 2] = np.nan
        grad[2, :3] = np.inf
        grad[3, 0], grad[3, 1] = np.inf, -np.inf
        grad[5, 4] = np.float32(3e38)
        grad[5, 5] = np.float32(3e38)  # overflows to inf in float32
        with np.errstate(all="ignore"):
            _assert_unbroadcast_matches_oracle(grad, (rows, 1))

    @pytest.mark.parametrize("rows", [20, 1500, 9000])
    def test_layouts_and_dtypes(self, rows):
        rng = np.random.default_rng(2)
        transposed = rng.standard_normal((8, rows)).astype(np.float32).T
        _assert_unbroadcast_matches_oracle(transposed, (rows, 1))
        _assert_unbroadcast_matches_oracle(rng.standard_normal((rows, 8)), (rows, 1))
        _assert_unbroadcast_matches_oracle(
            rng.standard_normal((rows, 8)).astype(np.float16), (rows, 1)
        )

    @pytest.mark.parametrize(
        "grad_shape,shape",
        [
            ((3, 1500, 8), (1500, 1)),
            ((3, 1500, 8), (3, 1500, 1)),
            ((2, 3, 200, 8), (3, 1, 8)),
            ((4, 1500, 8), (1, 1)),
            ((16, 8, 23, 23), (16, 8, 23, 1)),
        ],
    )
    def test_leading_and_several_axes(self, grad_shape, shape):
        grad = np.random.default_rng(3).standard_normal(grad_shape).astype(np.float32)
        _assert_unbroadcast_matches_oracle(grad, shape)


def _assert_down_rows_matches_oracle(grad):
    """``(n, m) -> (1, m)`` equals the row-wise oracle on the C-contiguous transpose."""
    n, m = grad.shape
    got = unbroadcast(grad, (1, m))
    want = unbroadcast_rowwise(np.ascontiguousarray(grad.T), (m, 1)).reshape(1, m)
    assert got.shape == (1, m)
    assert got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


class TestUnbroadcastDownRowsEqualsTransposedOracle:
    """An axis 0 of at most ``DOWN_ROWS_MAX_N`` rows (the weight gradient of
    the ``(k, |W|)`` dense map) is summed down its rows in the row-wise order."""

    @pytest.mark.parametrize("m", [1, 7, 1500, 9000])
    @pytest.mark.parametrize("n", [n for n in _AXIS_LENGTHS if n <= DOWN_ROWS_MAX_N] + [256])
    def test_lengths_and_column_counts(self, n, m):
        grad = np.random.default_rng(n).standard_normal((n, m)).astype(np.float32)
        _assert_down_rows_matches_oracle(grad)

    @pytest.mark.parametrize("m", [20, 1500, 9000])
    def test_special_values(self, m):
        grad = np.random.default_rng(1).standard_normal((m, 8)).astype(np.float32)
        grad[::4] = -0.0  # sums to +0.0: add.reduce starts from its identity
        grad[1, 2] = np.nan
        grad[2, :3] = np.inf
        grad[3, 0], grad[3, 1] = np.inf, -np.inf
        grad[5, 4] = np.float32(3e38)
        grad[5, 5] = np.float32(3e38)  # overflows to inf in float32
        with np.errstate(all="ignore"):
            _assert_down_rows_matches_oracle(grad.T.copy())

    def test_float64(self):
        grad = np.random.default_rng(2).standard_normal((16, 1500))
        _assert_down_rows_matches_oracle(grad)

    def test_longer_axis_0_keeps_numpys_sum(self):
        # The centroid gradient of the old (|W|, k) map, summed over |W| rows.
        grad = np.random.default_rng(3).standard_normal((DOWN_ROWS_MAX_N + 1, 8))
        grad = grad.astype(np.float32)
        _assert_unbroadcast_matches_oracle(grad, (1, 8))
