import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from minidapt.autodiff import (BatchNormState, Parameter, ShapeError, Tensor,
                               attention, batch_norm, bce_with_logits, dropout,
                               embedding, grad_check, layer_norm, linear,
                               masked_cross_entropy, no_grad, stable_sigmoid)
from minidapt.model import ATTN_MASK_BIAS

from conftest import tiny_model


def softmax_rows(x):
    """Softmax over the last axis, read through `attention`: with k and v the
    identity, the scores are x and the output is the weights."""
    eye = Tensor(np.eye(x.shape[-1]))
    return attention(x, eye, eye, 1.0)


def reference_softmax(x):
    """The unfused softmax node the fused op must match: NumPy forward with
    max-subtraction, and the Jacobian-vector product as its backward."""
    e = np.exp(x.data - x.data.max(axis=-1, keepdims=True))
    s = e / e.sum(axis=-1, keepdims=True)
    return x._child(s, (x,),
                    lambda g: x._accum(s * (g - (g * s).sum(axis=-1, keepdims=True))))


class TestMatmul:
    def test_identity(self):
        a = Tensor(np.eye(2))
        b = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert_allclose((a @ b).data, [[1, 2], [3, 4]])

    def test_zero(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        assert_allclose((a @ Tensor(np.zeros((2, 2)))).data, np.zeros((2, 2)))

    def test_hand_product(self):
        a = Tensor([[1.0, 2.0], [3.0, 4.0]])
        b = Tensor([[5.0, 6.0], [7.0, 8.0]])
        assert_allclose((a @ b).data, [[19, 22], [43, 50]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            Tensor(np.ones((2, 3))) @ Tensor(np.ones((2, 2)))


class TestSoftmaxRows:
    """The softmax over rows inside `attention`."""

    def test_uniform(self):
        assert_allclose(softmax_rows(Tensor([[0.0, 0.0, 0.0]])).data, [[1 / 3] * 3])

    def test_analytic(self):
        out = softmax_rows(Tensor([[0.0, np.log(2.0)]]))
        assert_allclose(out.data, [[1 / 3, 2 / 3]], atol=1e-15)

    def test_shift_invariance(self):
        x = np.array([[0.3, -1.2, 2.5]])
        assert_allclose(softmax_rows(Tensor(x)).data,
                        softmax_rows(Tensor(x + 1000.0)).data, atol=1e-15)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-700, 700, size=(4, 6))
        sums = softmax_rows(Tensor(x)).data.sum(axis=-1)
        assert np.all(np.abs(sums - 1.0) <= 1e-12)


class TestLayerNorm:
    def _gb(self, d, gamma=1.0, beta=0.0):
        return (Parameter("g", np.full(d, gamma)), Parameter("b", np.full(d, beta)))

    def test_constant_row_maps_to_zero(self):
        g, b = self._gb(4)
        out = layer_norm(Tensor([[3.0, 3.0, 3.0, 3.0]]), g, b)
        assert_allclose(out.data, np.zeros((1, 4)), atol=1e-9)

    def test_already_standardized(self):
        g, b = self._gb(2)
        out = layer_norm(Tensor([[-1.0, 1.0]]), g, b, eps=1e-15)
        assert_allclose(out.data, [[-1.0, 1.0]], atol=1e-6)

    def test_zero_gamma_gives_beta(self):
        g, b = self._gb(3, gamma=0.0, beta=2.5)
        out = layer_norm(Tensor([[0.4, -1.0, 9.0]]), g, b)
        assert_allclose(out.data, np.full((1, 3), 2.5))


class TestBatchNorm:
    def test_standardized_batch_passthrough(self):
        x = np.array([[-1.0, -1.0], [1.0, 1.0]])
        g = Parameter("g", np.ones(2))
        b = Parameter("b", np.zeros(2))
        out = batch_norm(Tensor(x), g, b, BatchNormState(2), "train")
        assert_allclose(out.data, x, atol=1e-4)

    def test_constant_batch_gives_beta(self):
        g = Parameter("g", np.ones(2))
        b = Parameter("b", np.array([0.7, -0.2]))
        out = batch_norm(Tensor(np.full((3, 2), 5.0)), g, b, BatchNormState(2), "train")
        assert_allclose(out.data, np.broadcast_to(b.data, (3, 2)), atol=1e-9)

    def test_eval_hand_formula(self):
        # hand oracle: (x - m) / sqrt(v + eps) * gamma + beta on a 2x1 batch
        state = BatchNormState(1)
        state.running_mean[:] = 1.0
        state.running_var[:] = 4.0
        g = Parameter("g", np.array([2.0]))
        b = Parameter("b", np.array([0.5]))
        x = np.array([[1.0], [3.0]])
        expected = (x - 1.0) / np.sqrt(4.0 + 1e-5) * 2.0 + 0.5
        out = batch_norm(Tensor(x), g, b, state, "eval")
        assert_allclose(out.data, expected)

    def test_train_batch_of_one_errors(self):
        g = Parameter("g", np.ones(2))
        b = Parameter("b", np.zeros(2))
        with pytest.raises(ShapeError):
            batch_norm(Tensor(np.ones((1, 2))), g, b, BatchNormState(2), "train")

    def test_eval_mode_is_pure(self):
        state = BatchNormState(2)
        state.running_mean[:] = 0.3
        state.running_var[:] = 1.7
        before = (state.running_mean.copy(), state.running_var.copy())
        g = Parameter("g", np.ones(2))
        b = Parameter("b", np.zeros(2))
        x = Tensor(np.random.default_rng(0).normal(size=(5, 2)))
        out1 = batch_norm(x, g, b, state, "eval").data
        out2 = batch_norm(x, g, b, state, "eval").data
        assert np.array_equal(out1, out2)
        assert np.array_equal(state.running_mean, before[0])
        assert np.array_equal(state.running_var, before[1])

    def test_train_updates_running_stats(self):
        state = BatchNormState(1)
        g = Parameter("g", np.ones(1))
        b = Parameter("b", np.zeros(1))
        x = np.array([[0.0], [2.0]])
        batch_norm(Tensor(x), g, b, state, "train", momentum=0.1)
        assert_allclose(state.running_mean, [0.1])       # 0.9*0 + 0.1*1
        assert_allclose(state.running_var, [0.9 + 0.1])  # 0.9*1 + 0.1*var=1


class TestBackward:
    def test_sum_gives_ones(self):
        w = Parameter("w", np.random.default_rng(1).normal(size=(3, 4)))
        w.sum().backward()
        assert_allclose(w.grad, np.ones((3, 4)))

    def test_half_norm_squared_gives_w(self):
        w = Parameter("w", np.random.default_rng(2).normal(size=(5,)))
        ((w * w).sum() * 0.5).backward()
        assert_allclose(w.grad, w.data, atol=1e-12)

    def test_non_scalar_loss_errors(self):
        w = Parameter("w", np.ones((2, 2)))
        with pytest.raises(ShapeError):
            (w * 2.0).backward()

    def test_frozen_parameter_keeps_zero_grad(self):
        w = Parameter("w", np.ones(3), trainable=False)
        u = Parameter("u", np.ones(3))
        ((w * u).sum()).backward()
        assert_allclose(w.grad, np.zeros(3))
        assert_allclose(u.grad, np.ones(3))

    def test_reused_node_accumulates(self):
        w = Parameter("w", np.array([2.0]))
        y = w * w + w * 3.0
        y.sum().backward()
        assert_allclose(w.grad, [2 * 2.0 + 3.0])


class TestGradCheck:
    def test_linear_is_near_exact(self):
        w = Parameter("w", np.random.default_rng(3).normal(size=(4,)))
        c = np.array([1.0, -2.0, 0.5, 3.0])
        err = grad_check(lambda: (w * c).sum(), [w], fd_step=1e-5)
        assert err < 1e-9

    def test_quadratic(self):
        w = Parameter("w", np.random.default_rng(4).normal(size=(4,)))
        err = grad_check(lambda: (w * w).sum(), [w], fd_step=1e-5)
        assert err < 1e-7

    def test_nonfinite_objective_errors(self):
        w = Parameter("w", np.array([1.0]))
        with pytest.raises(ValueError):
            grad_check(lambda: Tensor(np.nan) * w.sum(), [w])


class TestLinear:
    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            linear(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))), Tensor(np.ones(2)))


class TestNoGrad:
    def test_forward_links_nothing_and_leaves_grads(self, small_vocab):
        model = tiny_model(small_vocab)
        rng = np.random.default_rng(0)
        for p in model.params.values():
            p.grad = rng.normal(size=p.data.shape)
        before = {n: p.grad.copy() for n, p in model.params.items()}
        ids = rng.integers(5, small_vocab.size, size=(2, 6))
        with no_grad():
            hidden = model.encode_forward(ids, mode="eval")
            loss = masked_cross_entropy(model.mlm_logits(hidden), ids)
        for t in (hidden, loss):
            assert t._prev == () and t._backward is None and not t.requires_grad
        loss.backward()
        for n, p in model.params.items():
            assert np.array_equal(p.grad, before[n]), n
        # the same forward outside the block records its graph
        assert model.encode_forward(ids, mode="eval")._prev

    def test_recording_resumes_after_an_exception(self):
        w = Parameter("w", np.ones((2, 2)))
        with pytest.raises(RuntimeError):
            with no_grad():
                with no_grad():
                    pass
                assert (w * 2.0)._prev == ()
                raise RuntimeError("inside the block")
        out = w * 2.0
        assert out._prev and out.requires_grad


class TestFusedMatchesUnfused:
    """`linear` and `attention` give bit-for-bit the values and gradients of
    the ops they replace, so fusing them moves no artifact."""

    rng = np.random.default_rng(7)

    def _grads(self, loss, params):
        for p in params:
            p.zero_grad()
        loss.backward()
        return [p.grad.copy() for p in params]

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_linear(self, ndim):
        x = Parameter("x", self.rng.normal(size=(2, 3, 4)[3 - ndim:]))
        w = Parameter("w", self.rng.normal(size=(4, 5)))
        b = Parameter("b", self.rng.normal(size=(5,)))
        c = self.rng.normal(size=x.shape[:-1] + (5,))
        fused = linear(x, w, b)
        unfused = x @ w + b
        assert np.array_equal(fused.data, unfused.data)
        assert all(np.array_equal(f, u) for f, u in zip(
            self._grads((fused * c).sum(), [x, w, b]),
            self._grads((unfused * c).sum(), [x, w, b])))

    @pytest.mark.parametrize("padded", [False, True])
    def test_attention(self, padded):
        # heads as the model makes them: [B,T,H,hd] transposed to [B,H,T,hd]
        B, T, H, hd = 2, 6, 3, 4
        qkv = [Parameter(n, self.rng.normal(size=(B, T, H, hd))) for n in "qkv"]
        bias = None
        if padded:
            bias = np.where(np.arange(T) < np.array([[T], [3]]), 0.0, ATTN_MASK_BIAS)
            bias = bias[:, None, None, :]
        scale = 1.0 / np.sqrt(hd)
        c = self.rng.normal(size=(B, H, T, hd))

        def heads():
            return [t.transpose(0, 2, 1, 3) for t in qkv]

        q, k, v = heads()
        fused = attention(q, k, v, scale, bias)
        q, k, v = heads()
        scores = (q @ k.transpose(0, 1, 3, 2)) * scale
        if padded:
            scores = scores + bias
        unfused = reference_softmax(scores) @ v
        assert np.array_equal(fused.data, unfused.data)
        assert all(np.array_equal(f, u) for f, u in zip(
            self._grads((fused * c).sum(), qkv), self._grads((unfused * c).sum(), qkv)))


FD_TOL = 1e-4


class TestPrimitiveGradients:
    """Every differentiable primitive against central differences at a
    generic point (the invariant tolerance is 1e-4 at step 1e-5)."""

    rng = np.random.default_rng(42)

    def test_matmul(self):
        a = Parameter("a", self.rng.normal(size=(3, 4)))
        b = Parameter("b", self.rng.normal(size=(4, 5)))
        c = Tensor(self.rng.normal(size=(3, 5)))
        assert grad_check(lambda: ((a @ b) * c).sum(), [a, b]) < FD_TOL

    def test_batched_matmul(self):
        a = Parameter("a", self.rng.normal(size=(2, 3, 4, 5)))
        b = Parameter("b", self.rng.normal(size=(2, 3, 5, 6)))
        c = Tensor(self.rng.normal(size=(2, 3, 4, 6)))
        assert grad_check(lambda: ((a @ b) * c).sum(), [a, b]) < FD_TOL

    def test_softmax(self):
        x = Parameter("x", self.rng.normal(size=(3, 5)))
        c = Tensor(self.rng.normal(size=(3, 5)))
        assert grad_check(lambda: (softmax_rows(x) * c).sum(), [x]) < FD_TOL

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4)])
    def test_linear(self, shape):
        x = Parameter("x", self.rng.normal(size=shape))
        w = Parameter("w", self.rng.normal(size=(4, 5)))
        b = Parameter("b", self.rng.normal(size=(5,)))
        c = Tensor(self.rng.normal(size=shape[:-1] + (5,)))
        assert grad_check(lambda: (linear(x, w, b) * c).sum(), [x, w, b]) < FD_TOL

    def test_attention(self):
        q = Parameter("q", self.rng.normal(size=(2, 3, 4, 5)))
        k = Parameter("k", self.rng.normal(size=(2, 3, 6, 5)))
        v = Parameter("v", self.rng.normal(size=(2, 3, 6, 7)))
        # the second row's last two keys are padding
        bias = np.zeros((2, 1, 1, 6))
        bias[1, ..., 4:] = ATTN_MASK_BIAS
        c = Tensor(self.rng.normal(size=(2, 3, 4, 7)))
        assert grad_check(lambda: (attention(q, k, v, 0.37, bias) * c).sum(),
                          [q, k, v]) < FD_TOL

    def test_layer_norm(self):
        x = Parameter("x", self.rng.normal(size=(3, 4)))
        g = Parameter("g", self.rng.normal(size=(4,)))
        b = Parameter("b", self.rng.normal(size=(4,)))
        c = Tensor(self.rng.normal(size=(3, 4)))
        assert grad_check(lambda: (layer_norm(x, g, b) * c).sum(), [x, g, b]) < FD_TOL

    def test_batch_norm_train(self):
        x = Parameter("x", self.rng.normal(size=(6, 4)))
        g = Parameter("g", self.rng.normal(size=(4,)))
        b = Parameter("b", self.rng.normal(size=(4,)))
        c = Tensor(self.rng.normal(size=(6, 4)))
        state = BatchNormState(4)
        assert grad_check(lambda: (batch_norm(x, g, b, state, "train") * c).sum(),
                          [x, g, b]) < FD_TOL

    def test_batch_norm_eval(self):
        x = Parameter("x", self.rng.normal(size=(6, 4)))
        g = Parameter("g", self.rng.normal(size=(4,)))
        b = Parameter("b", self.rng.normal(size=(4,)))
        c = Tensor(self.rng.normal(size=(6, 4)))
        state = BatchNormState(4)
        state.running_mean[:] = self.rng.normal(size=4)
        state.running_var[:] = np.abs(self.rng.normal(size=4)) + 0.5
        assert grad_check(lambda: (batch_norm(x, g, b, state, "eval") * c).sum(),
                          [x, g, b]) < FD_TOL

    def test_relu(self):
        x = Parameter("x", self.rng.normal(size=(4, 4)) + 0.01)
        c = Tensor(self.rng.normal(size=(4, 4)))
        assert grad_check(lambda: (x.relu() * c).sum(), [x]) < FD_TOL

    def test_embedding(self):
        table = Parameter("t", self.rng.normal(size=(9, 4)))
        ids = np.array([[0, 3, 3], [8, 1, 0]])
        c = Tensor(self.rng.normal(size=(2, 3, 4)))
        assert grad_check(lambda: (embedding(table, ids) * c).sum(), [table]) < FD_TOL

    def test_masked_cross_entropy(self):
        x = Parameter("x", self.rng.normal(size=(2, 3, 6)))
        labels = np.array([[1, -100, 3], [2, 5, -100]])
        assert grad_check(lambda: masked_cross_entropy(x, labels), [x]) < FD_TOL

    def test_bce_with_logits(self):
        z = Parameter("z", self.rng.normal(size=(5,)))
        y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        assert grad_check(lambda: bce_with_logits(z, y), [z]) < FD_TOL

    def test_add_broadcast_constant(self):
        # the attention pad bias: a constant [B,1,1,T] operand, plus a
        # parameter that broadcasts too
        x = Parameter("x", self.rng.normal(size=(2, 3, 4, 5)))
        b = Parameter("b", self.rng.normal(size=(1, 5)))
        bias = self.rng.normal(size=(2, 1, 1, 5))
        c = Tensor(self.rng.normal(size=(2, 3, 4, 5)))
        assert grad_check(lambda: (softmax_rows(x + bias + b) * c).sum(), [x, b]) < FD_TOL

    def test_mul_broadcast_constant(self):
        # the attention scale: a constant scalar operand, plus a parameter
        # that broadcasts too
        x = Parameter("x", self.rng.normal(size=(2, 3, 4, 5)))
        w = Parameter("w", self.rng.normal(size=(3, 1, 5)))
        c = Tensor(self.rng.normal(size=(2, 3, 4, 5)))
        assert grad_check(lambda: (softmax_rows(x * 0.125 * w) * c).sum(), [x, w]) < FD_TOL


class TestStability:
    def test_sigmoid_no_overflow(self):
        out = stable_sigmoid(np.array([-1000.0, 1000.0]))
        assert np.all(np.isfinite(out))
        assert_allclose(out, [0.0, 1.0], atol=1e-12)

    def test_bce_large_logits_finite(self):
        z = Tensor(np.array([5000.0, -5000.0]), requires_grad=True)
        loss = bce_with_logits(z, np.array([0.0, 1.0]))
        assert np.isfinite(loss.data)

    def test_masked_xent_all_ignored_is_zero(self):
        x = Tensor(np.random.default_rng(0).normal(size=(2, 3, 4)))
        loss = masked_cross_entropy(x, np.full((2, 3), -100))
        assert float(loss.data) == 0.0


class TestDropout:
    def test_eval_is_identity(self):
        x = Tensor(np.ones((3, 3)))
        assert dropout(x, 0.5, None, "eval") is x

    def test_train_requires_rng(self):
        with pytest.raises(ValueError):
            dropout(Tensor(np.ones(3)), 0.5, None, "train")

    def test_preserves_expectation(self):
        rng = np.random.default_rng(0)
        x = Tensor(np.ones((200, 200)))
        out = dropout(x, 0.5, rng, "train")
        assert abs(out.data.mean() - 1.0) < 0.02


class TestGraphLifetime:
    """Graphs are freed by reference counting alone: nothing in a graph
    refers back to a node, and backward() unlinks what it has replayed."""

    @pytest.fixture
    def no_gc(self):
        was_enabled = gc.isenabled()
        gc.disable()
        yield
        if was_enabled:
            gc.enable()

    def _batch(self, vocab):
        rng = np.random.default_rng(0)
        ids = rng.integers(5, vocab.size, size=(4, 12))
        mask = np.ones((4, 12), dtype=bool)
        mask[:2, 9:] = False
        return ids, mask

    def test_backward_frees_interior_nodes_and_keeps_leaf_grads(self, small_vocab, no_gc):
        model = tiny_model(small_vocab)
        ids, mask = self._batch(small_vocab)
        labels = np.where(mask, ids, -100)
        rng = np.random.default_rng(1)
        hidden = model.encode_forward(ids, pad_mask=mask, mode="train", rng=rng)
        # both heads, so every parameter lies on the loss's graph
        loss = (masked_cross_entropy(model.mlm_logits(hidden), labels)
                + bce_with_logits(model.classify_logits(hidden, "train", rng),
                                  np.array([0.0, 1.0, 1.0, 0.0])))
        interior = weakref.ref(hidden)
        del hidden
        loss.backward()
        del loss
        assert interior() is None
        for p in model.params.values():
            assert p.requires_grad and p.grad is not None and np.any(p.grad != 0), p.name

    def test_eval_graph_dies_with_its_result(self, small_vocab, no_gc):
        model = tiny_model(small_vocab)
        ids, mask = self._batch(small_vocab)
        hidden = model.encode_forward(ids, pad_mask=mask, mode="eval")
        logits = model.classify_logits(hidden, mode="eval")
        interior = weakref.ref(hidden)
        del hidden
        assert interior() is not None  # still reachable from logits
        del logits
        assert interior() is None
