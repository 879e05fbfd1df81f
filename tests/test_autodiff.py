import gc
import tracemalloc
import types
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from minidapt.autodiff import (IGNORE_LABEL, NORM_EPS, BatchNormState, Parameter, ShapeError,
                               Tensor, _tape, attention, batch_norm, bce_with_logits, dropout,
                               layer_norm, linear, masked_cross_entropy, no_grad, residual,
                               stable_sigmoid)
from minidapt.masking import MaskingConfig, collate
from minidapt.model import ATTN_MASK_BIAS
from minidapt.trainer import _mlm_batch_loss

from conftest import (FD_TOL, grad_check, reference_attention, reference_layer_norm,
                      reference_linear, tiny_model)


def softmax_rows(x):
    """Softmax over the last axis of x [B, T, n], read through one-head
    `attention`: with each row's k √n times the identity and v the identity,
    the scores are x (to rounding, since the node scales them by 1/√n) and
    the output is the weights."""
    B, _, n = x.shape
    eye = np.broadcast_to(np.eye(n), (B, n, n))
    return attention(x, Tensor(eye * np.sqrt(n)), Tensor(eye), 1)


def dot(t, c):
    """The scalar sum(t * c) for a constant array `c`, as a node of its own."""
    return t._child(float((t.data * c).sum()), (t,), lambda g: t._accum(g * c))


class TestSoftmaxRows:
    """The softmax over rows inside `attention`."""

    def test_uniform(self):
        assert_allclose(softmax_rows(Tensor([[[0.0, 0.0, 0.0]]])).data, [[[1 / 3] * 3]])

    def test_analytic(self):
        out = softmax_rows(Tensor([[[0.0, np.log(2.0)]]]))
        assert_allclose(out.data, [[[1 / 3, 2 / 3]]], atol=1e-15)

    def test_shift_invariance(self):
        x = np.array([[[0.3, -1.2, 2.5]]])
        assert_allclose(softmax_rows(Tensor(x)).data,
                        softmax_rows(Tensor(x + 1000.0)).data, atol=1e-15)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_rows_sum_to_one(self, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-700, 700, size=(2, 2, 6))
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
        out = layer_norm(Tensor([[-1.0, 1.0]]), g, b)
        assert_allclose(out.data, np.array([[-1.0, 1.0]]) / np.sqrt(1.0 + NORM_EPS))

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
        batch_norm(Tensor(x), g, b, state, "train")
        assert_allclose(state.running_mean, [0.1])       # 0.9*0 + 0.1*1
        assert_allclose(state.running_var, [0.9 + 0.1])  # 0.9*1 + 0.1*var=1


class TestBackward:
    def test_non_scalar_loss_errors(self):
        w = Parameter("w", np.ones((2, 2)))
        with pytest.raises(ShapeError):
            (w + w).backward()

    def test_frozen_parameter_gets_no_grad(self):
        w = Parameter("w", np.ones(3))
        w.requires_grad = False
        u = Parameter("u", np.ones(3))
        dot(w + u, np.array([1.0, 2.0, 3.0])).backward()
        assert w.grad is None
        assert_allclose(u.grad, [1.0, 2.0, 3.0])

    def test_reused_node_accumulates(self):
        # `w` feeds `h` twice and a `dot` once, and `h` feeds one `+` twice
        w = Parameter("w", np.array([2.0]))
        h = w + w
        (dot(h + h, np.array([1.5])) + dot(w, np.array([3.0]))).backward()
        assert_allclose(w.grad, [4 * 1.5 + 3.0])

    def test_add_parents_get_their_own_gradients(self):
        # `+` hands one gradient array to both parents; `a` gets it first and
        # then a second term, which must not reach `b`
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        c = np.array([1.0, 2.0, 3.0])
        d = np.array([10.0, 20.0, 30.0])
        (dot(a, d) + dot(a + b, c)).backward()
        assert a.grad is not b.grad
        assert_allclose(a.grad, c + d)
        assert_allclose(b.grad, c)
        # the same for op results: `h` hands its gradient to `a` and `b`, then
        # `dot(a, d)` adds to `a`'s array and `dot(b, e)` to `b`'s before
        # either is replayed, and neither term may reach the other
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        a, b = x[np.arange(3)], y[np.arange(3)]
        e = np.array([100.0, 200.0, 300.0])
        (dot(b, e) + dot(a, d) + dot(a + b, c)).backward()
        assert_allclose(x.grad, c + d)
        assert_allclose(y.grad, c + e)

    def test_first_gradient_is_the_array_handed_over(self):
        # a tensor with no gradient keeps the array an op hands it, uncopied
        t = Tensor(np.ones(3), requires_grad=True)
        arr = np.array([1.0, 2.0, 3.0])
        t._child(0.0, (t,), lambda g: t._accum(arr)).backward()
        assert t.grad is arr

    def test_repeated_index_adds(self):
        w = Parameter("w", np.ones(3))
        dot(w[np.array([0, 0, 1])], np.ones(3)).backward()
        assert_allclose(w.grad, [2.0, 1.0, 0.0])

    def test_first_gradient_after_zero_grad_adds_to_zeros(self):
        # the first gradient after zero_grad is 0.0 + g, so a -0.0 in g reads
        # +0.0 (a first gradient with no zero_grad before it is g itself)
        w = Parameter("w", np.ones(3))
        w.zero_grad()
        c = np.array([-0.0, 0.0, -2.0])
        dot(w, c).backward()
        expected = 0.0 + c
        assert np.array_equal(w.grad, expected)
        assert np.array_equal(np.signbit(w.grad), np.signbit(expected))
        assert not np.signbit(w.grad[0])

    def test_zero_grads_keeps_each_grad_array(self, small_vocab):
        model = tiny_model(small_vocab)
        model.zero_grads()
        before = {n: p.grad for n, p in model.params.items()}
        ids = np.random.default_rng(0).integers(5, small_vocab.size, size=(2, 6))
        logits = model.mlm_logits(model.encode_forward(ids))
        dot(logits, np.ones(logits.shape)).backward()
        assert any(np.any(p.grad != 0) for p in model.params.values())
        model.zero_grads()
        for n, p in model.params.items():
            assert p.grad is before[n] and not np.any(p.grad), n


class TestGradCheck:
    def test_linear_is_near_exact(self):
        w = Parameter("w", np.random.default_rng(3).normal(size=(4,)))
        c = np.array([1.0, -2.0, 0.5, 3.0])
        err = grad_check(lambda: dot(w, c), [w])
        assert err < 1e-9

    def test_quadratic(self):
        w = Parameter("w", np.random.default_rng(4).normal(size=(4,)))

        def square_sum():  # sum(w * w), whose gradient is w + w
            return w._child(float((w.data * w.data).sum()), (w,),
                            lambda g: w._accum(g * (w.data + w.data)))

        err = grad_check(square_sum, [w])
        assert err < 1e-7

    def test_nonfinite_objective_errors(self):
        w = Parameter("w", np.array([1.0]))
        with pytest.raises(ValueError):
            grad_check(lambda: dot(w, np.array([np.nan])), [w])


class TestLinear:
    def test_hand_product(self):
        x = Tensor([[1.0, 2.0], [3.0, 4.0]])
        w = Tensor([[5.0, 6.0], [7.0, 8.0]])
        b = Tensor([1.0, -1.0])
        assert_allclose(linear(x, w, b).data, [[20, 21], [44, 49]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ShapeError, match=r"\(2, 3\).*\(2, 2\)"):
            linear(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 2))), Tensor(np.ones(2)))


class TestMaskedCrossEntropyLabels:
    @pytest.mark.parametrize("bad", [-1, 5, 7])
    def test_label_out_of_range_is_named(self, bad):
        # -1 would score the last class, 7 end in an IndexError
        x = Tensor(np.zeros((2, 3, 5)))
        labels = np.array([[1, IGNORE_LABEL, 3], [bad, 4, 0]])
        with pytest.raises(ValueError, match=rf"label {bad} out of range \[0, 5\)"):
            masked_cross_entropy(x, labels)


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
                assert (w + w)._prev == ()
                raise RuntimeError("inside the block")
        out = w + w
        assert out._prev and out.requires_grad


def reference_masked_cross_entropy_grad(logits, labels, g):
    """`masked_cross_entropy`'s logits gradient for upstream `g`, in NumPy:
    (softmax - onehot) / n at the labelled rows, zero elsewhere, times g."""
    flat = logits.reshape(-1, logits.shape[-1])
    sel = labels.reshape(-1) != IGNORE_LABEL
    rows, target = flat[sel], labels.reshape(-1)[sel]
    n = len(target)
    m = rows.max(axis=1, keepdims=True)
    lse = m[:, 0] + np.log(np.exp(rows - m).sum(axis=1))
    full = np.zeros_like(flat)
    sm = np.exp(rows - lse[:, None])
    sm[np.arange(n), target] -= 1.0
    full[sel] = sm / n
    return (float(g) * full).reshape(logits.shape)


class TestFusedMatchesUnfused:
    """`linear` and `attention` give bit for bit the values and gradients of
    the NumPy expressions they fuse, and `residual` those of `x + dropout(a)`,
    so fusing them moves no artifact. `layer_norm` and `masked_cross_entropy`
    give those of the expressions that kept `xhat` and formed the loss's
    gradient in separate buffers."""

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
        value, grads = reference_linear(x.data, w.data, b.data, False, c)
        assert np.array_equal(fused.data, value)
        assert all(np.array_equal(f, r) for f, r in zip(
            self._grads(dot(fused, c), [x, w, b]), grads))

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_linear_relu(self, ndim):
        x = Parameter("x", self.rng.normal(size=(2, 3, 4)[3 - ndim:]))
        w = Parameter("w", self.rng.normal(size=(4, 5)))
        b = Parameter("b", self.rng.normal(size=(5,)))
        c = self.rng.normal(size=x.shape[:-1] + (5,))
        fused = linear(x, w, b, relu=True)
        value, grads = reference_linear(x.data, w.data, b.data, True, c)
        assert np.any(fused.data == 0) and np.any(fused.data > 0)
        assert np.array_equal(fused.data, value)
        assert all(np.array_equal(f, r) for f, r in zip(
            self._grads(dot(fused, c), [x, w, b]), grads))

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_residual(self, mode):
        x = Parameter("x", self.rng.normal(size=(2, 6, 4)))
        a = Parameter("a", self.rng.normal(size=(2, 6, 4)))
        c = self.rng.normal(size=(2, 6, 4))
        fused = residual(x, a, 0.3, np.random.default_rng(5), mode)
        unfused = x + dropout(a, 0.3, np.random.default_rng(5), mode)
        assert np.array_equal(fused.data, unfused.data)
        assert all(np.array_equal(f, u) for f, u in zip(
            self._grads(dot(fused, c), [x, a]),
            self._grads(dot(unfused, c), [x, a])))

    def test_residual_corner_of_a_full_draw(self):
        # its own generator, so the class stream's later draws stay put
        point = np.random.default_rng([7, 1])
        x = Parameter("x", point.normal(size=(2, 6, 4)))
        a = Parameter("a", point.normal(size=(2, 6, 4)))
        rows = np.arange(2)[:, None]
        # the CLS corner, and per-row queries out of order
        for queries in (np.zeros((2, 1), dtype=int), np.array([[4, 0, 2], [1, 5, 3]])):
            at = (rows, queries)
            c = point.normal(size=queries.shape + (4,))
            results = []
            for gathered in (True, False):
                rng = np.random.default_rng(5)
                if gathered:
                    out = residual(x[at], a[at], 0.3, rng, "train", draw=(x.shape, at))
                else:
                    out = residual(x, a, 0.3, rng, "train")[at]
                results.append((out.data, self._grads(dot(out, c), [x, a]), rng.random()))
            (value, grads, after), (full_value, full_grads, full_after) = results
            assert np.array_equal(value, full_value)
            assert all(np.array_equal(g, f) for g, f in zip(grads, full_grads))
            assert after == full_after  # the rng stream goes on where the full draw leaves it

    @pytest.mark.parametrize("padded", [False, True])
    def test_attention(self, padded):
        B, T, H, hd = 2, 6, 3, 4
        qkv = [Parameter(n, self.rng.normal(size=(B, T, H * hd))) for n in "qkv"]
        bias = None
        if padded:
            bias = np.where(np.arange(T) < np.array([[T], [3]]), 0.0, ATTN_MASK_BIAS)
            bias = bias[:, None, None, :]
        c = self.rng.normal(size=(B, T, H * hd))
        fused = attention(*qkv, H, bias)
        value, grads = reference_attention(*[t.data for t in qkv], H, bias, c)
        assert np.array_equal(fused.data, value)
        assert all(np.array_equal(f, r) for f, r in zip(self._grads(dot(fused, c), qkv), grads))

    # (B, T, S, frozen k, pad bias): an uneven split of B, masked queries,
    # one row, a k that takes no gradient with no bias, and no queries
    @pytest.mark.parametrize("B, T, S, k_frozen, padded", [
        (5, 6, 6, False, True), (5, 3, 6, False, True), (1, 6, 6, False, True),
        (5, 6, 6, True, False), (3, 0, 6, False, True)])
    def test_attention_in_row_blocks(self, monkeypatch, B, T, S, k_frozen, padded):
        H, hd = 3, 4
        # two rows' weights per block, so B = 5 runs as 2 + 2 + 1
        monkeypatch.setattr("minidapt.autodiff.ATTN_BLOCK_BYTES", 2 * 8 * H * T * S)
        q = Parameter("q", self.rng.normal(size=(B, T, H * hd)))
        k = Parameter("k", self.rng.normal(size=(B, S, H * hd)))
        k.requires_grad = not k_frozen
        v = Parameter("v", self.rng.normal(size=(B, S, H * hd)))
        bias = None
        if padded:
            bias = np.where(np.arange(S) < np.arange(S, S - B, -1)[:, None], 0.0, ATTN_MASK_BIAS)
            bias = bias[:, None, None, :]
        c = self.rng.normal(size=(B, T, H * hd))
        fused = attention(q, k, v, H, bias)
        value, (gq, gk, gv) = reference_attention(q.data, k.data, v.data, H, bias, c)
        assert np.array_equal(fused.data, value)
        grads = self._grads(dot(fused, c), [q, k, v])
        if k_frozen:
            gk = np.zeros_like(gk)  # `_grads` zeroed it and nothing wrote it
        assert all(np.array_equal(f, r) for f, r in zip(grads, [gq, gk, gv]))

    @pytest.mark.parametrize("ndim", [2, 3])
    def test_layer_norm(self, ndim):
        x = Parameter("x", self.rng.normal(2.0, 3.0, size=(2, 3, 8)[3 - ndim:]))
        gamma = Parameter("gamma", self.rng.normal(size=8))
        beta = Parameter("beta", self.rng.normal(size=8))
        c = self.rng.normal(size=x.shape)
        out = layer_norm(x, gamma, beta)
        value, grads = reference_layer_norm(x.data, gamma.data, beta.data, c)
        assert np.array_equal(out.data, value)
        assert all(np.array_equal(f, r) for f, r in zip(
            self._grads(dot(out, c), [x, gamma, beta]), grads))

    @pytest.mark.parametrize("ignored", [False, True])
    @pytest.mark.parametrize("g", [1.0, -0.5])
    def test_masked_cross_entropy_grad(self, ignored, g):
        logits = self.rng.normal(size=(2, 5, 7))
        labels = self.rng.integers(0, 7, size=(2, 5))
        if ignored:
            labels[:, 1::2] = IGNORE_LABEL
        # a plain tensor keeps the array it is handed as its first gradient,
        # so a zero keeps its sign: under g < 0 the ignored rows are -0.0
        x = Tensor(logits, requires_grad=True)
        loss = masked_cross_entropy(x, labels)
        loss.grad = np.array(g)
        loss.backward()
        expected = reference_masked_cross_entropy_grad(logits, labels, g)
        assert np.array_equal(x.grad, expected)
        assert np.array_equal(np.signbit(x.grad), np.signbit(expected))


class TestPrimitiveGradients:
    """Every differentiable primitive against central differences at a
    generic point (the invariant tolerance is 1e-4 at step 1e-5). Each check
    draws its point from its own generator, so it sees the same point when
    run alone."""

    def test_softmax(self):
        rng = np.random.default_rng([42, 1])
        x = Parameter("x", rng.normal(size=(1, 3, 5)))
        c = rng.normal(size=(1, 3, 5))
        assert grad_check(lambda: dot(softmax_rows(x), c), [x]) < FD_TOL

    @pytest.mark.parametrize("shape", [(3, 4), (2, 3, 4)])
    def test_linear(self, shape):
        rng = np.random.default_rng([42, 2])
        x = Parameter("x", rng.normal(size=shape))
        w = Parameter("w", rng.normal(size=(4, 5)))
        b = Parameter("b", rng.normal(size=(5,)))
        c = rng.normal(size=shape[:-1] + (5,))
        assert grad_check(lambda: dot(linear(x, w, b), c), [x, w, b]) < FD_TOL

    def test_attention(self):
        rng = np.random.default_rng([42, 3])
        # 3 heads of width 2; 4 queries against 6 keys
        q = Parameter("q", rng.normal(size=(2, 4, 6)))
        k = Parameter("k", rng.normal(size=(2, 6, 6)))
        v = Parameter("v", rng.normal(size=(2, 6, 6)))
        # the second row's last two keys are padding
        bias = np.zeros((2, 1, 1, 6))
        bias[1, ..., 4:] = ATTN_MASK_BIAS
        c = rng.normal(size=(2, 4, 6))
        assert grad_check(lambda: dot(attention(q, k, v, 3, bias), c),
                          [q, k, v]) < FD_TOL

    def test_layer_norm(self):
        rng = np.random.default_rng([42, 4])
        x = Parameter("x", rng.normal(size=(3, 4)))
        g = Parameter("g", rng.normal(size=(4,)))
        b = Parameter("b", rng.normal(size=(4,)))
        c = rng.normal(size=(3, 4))
        assert grad_check(lambda: dot(layer_norm(x, g, b), c), [x, g, b]) < FD_TOL

    def test_batch_norm_train(self):
        rng = np.random.default_rng([42, 5])
        x = Parameter("x", rng.normal(size=(6, 4)))
        g = Parameter("g", rng.normal(size=(4,)))
        b = Parameter("b", rng.normal(size=(4,)))
        c = rng.normal(size=(6, 4))
        state = BatchNormState(4)
        assert grad_check(lambda: dot(batch_norm(x, g, b, state, "train"), c),
                          [x, g, b]) < FD_TOL

    def test_batch_norm_eval(self):
        rng = np.random.default_rng([42, 6])
        x = Parameter("x", rng.normal(size=(6, 4)))
        g = Parameter("g", rng.normal(size=(4,)))
        b = Parameter("b", rng.normal(size=(4,)))
        c = rng.normal(size=(6, 4))
        state = BatchNormState(4)
        state.running_mean[:] = rng.normal(size=4)
        state.running_var[:] = np.abs(rng.normal(size=4)) + 0.5
        assert grad_check(lambda: dot(batch_norm(x, g, b, state, "eval"), c),
                          [x, g, b]) < FD_TOL

    def test_linear_relu(self):
        rng = np.random.default_rng([42, 7])
        x = Parameter("x", rng.normal(size=(2, 3, 4)))
        w = Parameter("w", rng.normal(size=(4, 5)))
        b = Parameter("b", rng.normal(size=(5,)))
        c = rng.normal(size=(2, 3, 5))
        assert grad_check(lambda: dot(linear(x, w, b, relu=True), c), [x, w, b]) < FD_TOL

    def test_residual(self):
        rng = np.random.default_rng([42, 8])
        x = Parameter("x", rng.normal(size=(3, 4)))
        a = Parameter("a", rng.normal(size=(3, 4)))
        c = rng.normal(size=(3, 4))
        # a fresh rng per call, so every call drops the same entries
        assert grad_check(lambda: dot(residual(x, a, 0.4, np.random.default_rng(3), "train"),
                                      c), [x, a]) < FD_TOL

    def test_getitem_repeated_index(self):
        rng = np.random.default_rng([42, 9])
        w = Parameter("w", rng.normal(size=(4, 3)))
        c = rng.normal(size=(5, 3))
        idx = np.array([2, 0, 2, 2, 1])
        assert grad_check(lambda: dot(w[idx], c), [w]) < FD_TOL

    def test_embedding(self):
        rng = np.random.default_rng([42, 10])
        table = Parameter("t", rng.normal(size=(9, 4)))
        # the encoder's token lookup: a [B, T] id array that repeats ids
        ids = np.array([[0, 3, 3], [8, 1, 0]])
        c = rng.normal(size=(2, 3, 4))
        assert grad_check(lambda: dot(table[ids], c), [table]) < FD_TOL

    def test_masked_cross_entropy(self):
        rng = np.random.default_rng([42, 11])
        x = Parameter("x", rng.normal(size=(2, 3, 6)))
        labels = np.array([[1, -100, 3], [2, 5, -100]])
        assert grad_check(lambda: masked_cross_entropy(x, labels), [x]) < FD_TOL

    def test_bce_with_logits(self):
        rng = np.random.default_rng([42, 12])
        z = Parameter("z", rng.normal(size=(5,)))
        y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        assert grad_check(lambda: bce_with_logits(z, y), [z]) < FD_TOL

    def test_add_broadcast_constant(self):
        rng = np.random.default_rng([42, 13])
        # a constant [B,1,T] operand like the attention pad bias, plus a
        # parameter that broadcasts too
        x = Parameter("x", rng.normal(size=(2, 4, 5)))
        b = Parameter("b", rng.normal(size=(1, 5)))
        bias = rng.normal(size=(2, 1, 5))
        c = rng.normal(size=(2, 4, 5))
        assert grad_check(lambda: dot(softmax_rows(x + Tensor(bias) + b), c), [x, b]) < FD_TOL


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
        with pytest.raises(ValueError, match="dropout: train mode needs an rng"):
            residual(Tensor(np.ones(3)), Tensor(np.ones(3)), 0.5, None, "train")

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

    @staticmethod
    def _retained_bytes(root):
        """Bytes of the distinct arrays a graph holds for its backward: each op
        result's output and the arrays its backward closure refers to, through
        the closures of the functions it calls too, a view counted once
        through its base, the leaves' own arrays left out."""
        def base(a):
            while isinstance(a.base, np.ndarray):
                a = a.base
            return a

        leaves, kept = set(), {}
        for node in _tape(root):
            if not node._prev:
                leaves.add(id(base(node.data)))
                continue
            refs, seen = [node.data, node._backward], set()
            while refs:
                a = refs.pop()
                if isinstance(a, np.ndarray):
                    kept[id(base(a))] = base(a)
                elif isinstance(a, types.FunctionType) and id(a) not in seen:
                    seen.add(id(a))
                    refs += [c.cell_contents for c in a.__closure__ or ()]
        return sum(a.nbytes for k, a in kept.items() if k not in leaves)

    def test_backward_frees_each_node_once_replayed(self, no_gc):
        rng = np.random.default_rng(0)
        w = Parameter("w", rng.normal(size=(4, 4)))
        b = Parameter("b", rng.normal(size=4))
        first = linear(Parameter("x", rng.normal(size=(3, 4))), w, b)
        later = linear(layer_norm(first, Parameter("g", np.ones(4)), Parameter("be", np.zeros(4))),
                       w, b, relu=True)
        loss = masked_cross_entropy(later, np.array([0, 1, 2]))
        later_ref, replay, dead = weakref.ref(later), first._backward, []

        def spy(g):
            dead.append(later_ref() is None)
            replay(g)

        first._backward = spy
        del first, later
        loss.backward()
        # `later` was replayed before `first`, and nothing kept it after
        assert dead == [True]

    def test_attention_keeps_no_weights(self):
        rng = np.random.default_rng(3)
        B, T, H, d = 4, 12, 2, 8
        q, k, v = (Parameter(n, rng.normal(size=(B, T, d))) for n in "qkv")
        bias = np.zeros((B, 1, 1, T))
        out = attention(q, k, v, H, bias)
        # its output, the bias, and each query's row max and row sum: no
        # [B, heads, T, T] weights (9,216 bytes here), which it once kept
        assert self._retained_bytes(out) == out.data.nbytes + bias.nbytes + 2 * 8 * B * H * T

    def test_mlm_step_keeps_only_what_backward_reads(self, small_vocab, small_chunks):
        model = tiny_model(small_vocab)
        batch = collate(small_chunks[:8], MaskingConfig(), small_vocab,
                        np.random.default_rng(0))
        loss, _ = _mlm_batch_loss(model, batch, "train", np.random.default_rng(1))
        # 369,640 bytes; with attention keeping its weights 396,520, with
        # layer norm keeping `xhat` as well 440,680, and with the
        # last layer, the MLM head and the loss run at every position as well
        # 845,744; with separate head split and join nodes the same graph held
        # 878,640, and with separate dropout, `+` and ReLU nodes and float64
        # dropout masks as well 1,067,056
        assert self._retained_bytes(loss) <= 369_640

    def test_mlm_backward_peak_stays_near_the_graph(self, small_vocab, small_chunks, no_gc):
        model = tiny_model(small_vocab)
        batch = collate(small_chunks[:8], MaskingConfig(), small_vocab,
                        np.random.default_rng(0))
        tracemalloc.start()
        try:
            loss, _ = _mlm_batch_loss(model, batch, "train", np.random.default_rng(1))
            start = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            loss.backward()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # about 1.28 of the bytes traced when backward starts (385,304 ->
        # 492,368); 1.26 (411,520 -> 518,584) while attention kept its
        # weights, the same backward peak over a larger graph; 1.45 while
        # backward kept every replayed node, layer norm its `xhat` and the
        # loss's backward four [N, V] temporaries
        assert peak / start <= 1.3

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
