import numpy as np
import pytest
from numpy.testing import assert_allclose

import minidapt.model as model_mod
from minidapt.autodiff import (Tensor, bce_with_logits, grad_check, masked_cross_entropy,
                               stable_sigmoid)
from minidapt.model import EncoderConfig, TransformerModel

from conftest import FD_TOL


def tiny_config(**kw):
    base = dict(vocab_size=20, num_layers=1, d_model=8, num_heads=2, d_ff=16,
                max_len=12, dropout_rate=0.0, head_hidden=(5, 3),
                head_dropout=0.0, seed=0)
    base.update(kw)
    return EncoderConfig(**base)


class TestConfig:
    def test_head_divisibility(self):
        with pytest.raises(ValueError):
            tiny_config(d_model=10, num_heads=4)

    def test_positive_dims(self):
        with pytest.raises(ValueError):
            tiny_config(num_layers=0)

    @pytest.mark.parametrize("name", ["dropout_rate", "head_dropout"])
    @pytest.mark.parametrize("value", [1.0, 1, -0.5, "0.1", True, None, float("nan")])
    def test_dropout_rate_outside_unit_interval_rejected(self, name, value):
        with pytest.raises(ValueError, match=rf"^{name} must be a number in \[0, 1\)"):
            tiny_config(**{name: value})

    def test_dropout_rate_bounds(self):
        tiny_config(dropout_rate=0, head_dropout=0.999)

    @pytest.mark.parametrize("value", [(8,), (8, 4, 2), (0, 4), (8, -1), (8, True), ("8", 4)])
    def test_head_hidden_needs_two_positive_ints(self, value):
        with pytest.raises(ValueError, match=r"^head_hidden must be two positive ints"):
            tiny_config(head_hidden=value)

    def test_dict_round_trip(self):
        cfg = tiny_config()
        assert EncoderConfig.from_dict(cfg.to_dict()) == cfg


class TestInit:
    def test_same_seed_identical(self):
        a = TransformerModel(tiny_config(seed=5))
        b = TransformerModel(tiny_config(seed=5))
        for name in a.params:
            assert np.array_equal(a.params[name].data, b.params[name].data)

    def test_biases_zero_gains_one(self):
        m = TransformerModel(tiny_config())
        for name, p in m.params.items():
            if p.data.ndim == 1:
                assert np.all(p.data == (1.0 if name.endswith(".gamma") else 0.0)), name

    def test_params_follow_the_table(self):
        cfg = tiny_config(num_layers=2)
        m = TransformerModel(cfg)
        assert [(n, p.shape) for n, p in m.params.items()] == list(model_mod.param_shapes(cfg))

    def test_weight_statistics(self):
        # 1e5-entry tensor: sample mean/std within +-0.001 of (0, 0.02)
        m = TransformerModel(EncoderConfig(vocab_size=2000, num_layers=1,
                                           d_model=64, num_heads=4, d_ff=64,
                                           max_len=8, seed=9))
        w = m.params["embed.tok"].data
        assert w.size >= 100_000
        assert abs(w.mean()) < 0.001
        assert abs(w.std() - 0.02) < 0.001


class TestEncodeForward:
    def test_output_shape(self):
        cfg = EncoderConfig(vocab_size=30, num_layers=2, d_model=64,
                            num_heads=4, d_ff=128, max_len=8, seed=0)
        m = TransformerModel(cfg)
        ids = np.random.default_rng(0).integers(0, 30, size=(3, 5))
        out = m.encode_forward(ids, mode="eval")
        assert out.shape == (3, 5, 64)

    def test_too_long_errors(self):
        m = TransformerModel(tiny_config(max_len=4))
        with pytest.raises(ValueError, match="max_len"):
            m.encode_forward(np.zeros((1, 5), dtype=int))

    def test_id_out_of_range_errors(self):
        m = TransformerModel(tiny_config())
        with pytest.raises(ValueError):
            m.encode_forward(np.array([[50]]))

    @pytest.mark.parametrize("bad", [-1, -3])
    def test_negative_id_errors(self, bad):
        # a negative id would read row V - |id| of the embedding table
        m = TransformerModel(tiny_config())
        with pytest.raises(ValueError, match="token id out of range"):
            m.encode_forward(np.array([[1, bad, 2]]))

    @staticmethod
    def _spy_weights(monkeypatch):
        """Record each attention call's weights [B, heads, T, T], worked out
        in NumPy from the q and k it was given and its bias."""
        captured = []
        orig = model_mod.attention

        def spy(q, k, v, num_heads, bias=None):
            B, T, d = q.shape
            hd = d // num_heads
            qh, kh = (t.data.reshape(B, T, num_heads, hd).transpose(0, 2, 1, 3) for t in (q, k))
            s = qh @ kh.transpose(0, 1, 3, 2) / np.sqrt(hd)
            if bias is not None:
                s = s + bias
            e = np.exp(s - s.max(axis=-1, keepdims=True))
            captured.append(e / e.sum(axis=-1, keepdims=True))
            return orig(q, k, v, num_heads, bias)

        monkeypatch.setattr(model_mod, "attention", spy)
        return captured

    def test_attention_rows_sum_to_one_over_real_keys(self, monkeypatch):
        m = TransformerModel(tiny_config(num_layers=2))
        captured = self._spy_weights(monkeypatch)
        ids = np.array([[5, 6, 7, 0, 0]])
        mask = np.array([[True, True, True, False, False]])
        m.encode_forward(ids, pad_mask=mask, mode="eval")
        assert len(captured) == 2
        for w in captured:
            assert w.shape == (1, 2, 5, 5)
            # PAD keys get ~zero weight; remaining rows sum to 1
            assert np.all(np.abs(w.sum(axis=-1) - 1.0) <= 1e-10)
            assert np.all(w[..., 3:] < 1e-12)

    def test_single_token_attention_weight_is_one(self, monkeypatch):
        m = TransformerModel(tiny_config(num_layers=2))
        captured = self._spy_weights(monkeypatch)
        m.encode_forward(np.array([[7]]), mode="eval")
        assert len(captured) == 2
        for w in captured:
            assert w.shape == (1, 2, 1, 1)
            assert_allclose(w, np.ones_like(w))

    def test_eval_forward_deterministic(self):
        m = TransformerModel(tiny_config(dropout_rate=0.3))
        ids = np.random.default_rng(1).integers(0, 20, size=(2, 6))
        a = m.encode_forward(ids, mode="eval").data
        b = m.encode_forward(ids, mode="eval").data
        assert np.array_equal(a, b)


class TestEncodeCls:
    """The classifier path runs only the CLS query through the last layer:
    its hidden state, loss and gradients equal the full path's up to
    summation order, and it leaves the dropout rng where the full path does."""

    def _batch(self):
        rng = np.random.default_rng(6)
        ids = rng.integers(0, 20, size=(4, 9))
        mask = np.ones((4, 9), dtype=bool)
        mask[1, 6:] = mask[3, 3:] = False
        return ids, mask, np.array([0.0, 1.0, 1.0, 0.0])

    @pytest.mark.parametrize("num_layers", [1, 2])
    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_matches_the_full_path(self, num_layers, mode):
        m = TransformerModel(tiny_config(num_layers=num_layers, dropout_rate=0.1,
                                         head_dropout=0.5))
        ids, mask, labels = self._batch()
        results = []
        for encode in (m.encode_cls, m.encode_forward):
            m.zero_grads()
            rng = np.random.default_rng(3)
            hidden = encode(ids, pad_mask=mask, mode=mode, rng=rng)
            cls = hidden.data[:, :1].copy()
            loss = bce_with_logits(m.classify_logits(hidden, mode, rng), labels)
            loss.backward()
            results.append((cls, float(loss.data), rng.random(),
                            {n: p.grad.copy() for n, p in m.params.items()}))
        (cls, loss, after, grads), (full_cls, full_loss, full_after, full_grads) = results
        assert cls.shape == (4, 1, 8)
        assert np.abs(cls - full_cls).max() <= 1e-12 * np.abs(full_cls).max()
        assert abs(loss - full_loss) <= 1e-12 * abs(full_loss)
        assert after == full_after
        top = max(np.abs(g).max() for g in full_grads.values())
        for name, g in full_grads.items():
            # the key bias's exact gradient is 0 (softmax is shift invariant),
            # so both paths hold rounding dust there, measured against the
            # largest gradient
            scale = top if name.endswith("attn.wk_b") else np.abs(g).max()
            assert np.abs(grads[name] - g).max() <= 1e-12 * scale, name

    def test_gradients_match_finite_differences(self):
        m = TransformerModel(tiny_config(num_layers=2, vocab_size=7, d_model=4, d_ff=6,
                                         max_len=6, dropout_rate=0.1))
        rng = np.random.default_rng(8)
        # a generic point, as the 0.02-std init leaves attention gradients
        # near the finite-difference noise floor
        for n in m.encoder_param_names():
            p = m.params[n]
            p.data = (1.0 if n.endswith("gamma") else 0.0) + rng.normal(
                0.0, 0.1 if p.data.ndim == 1 else 0.3, size=p.data.shape)
        ids = rng.integers(0, 7, size=(3, 5))
        mask = np.ones((3, 5), dtype=bool)
        mask[2, 3:] = False
        c = rng.normal(size=(3, 1, 4))

        def objective():
            # a fresh rng per call, so every call drops the same entries
            out = m.encode_cls(ids, pad_mask=mask, mode="train",
                               rng=np.random.default_rng(2))
            return out._child(float((out.data * c).sum()), (out,),
                              lambda g: out._accum(g * c))

        params = [m.params[n] for n in m.encoder_param_names()
                  if not n.endswith("attn.wk_b")]
        assert grad_check(objective, params) < FD_TOL

    def test_checks_ids_as_the_full_path_does(self):
        m = TransformerModel(tiny_config())
        with pytest.raises(ValueError, match="exceeds max_len"):
            m.encode_cls(np.zeros((1, 13), dtype=int))
        with pytest.raises(ValueError, match="token id out of range"):
            m.encode_cls(np.array([[1, 20]]))


class TestEncodeAt:
    """The MLM path runs only the labelled queries through the last layer,
    each row's labelled positions first, padded with unlabelled ones to the
    batch's largest count: the valid slots equal the full path's labelled
    positions, with its loss, gradients and dropout rng stream, up to
    summation order."""

    def _batch(self):
        rng = np.random.default_rng(6)
        ids = rng.integers(0, 20, size=(4, 6))
        labeled = np.zeros((4, 6), dtype=bool)
        labeled[1] = True  # row 0 has no label, row 1 every position
        labeled[2, [1, 4]] = labeled[3, [0, 2, 5]] = True
        queries = np.array([[0, 1, 2, 3, 4, 5], [0, 1, 2, 3, 4, 5],
                            [1, 4, 0, 2, 3, 5], [0, 2, 5, 1, 3, 4]])
        valid = np.arange(6) < labeled.sum(axis=1)[:, None]
        return ids, labeled, queries, valid

    @pytest.mark.parametrize("num_layers", [1, 2])
    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_matches_the_full_path(self, num_layers, mode):
        m = TransformerModel(tiny_config(num_layers=num_layers, dropout_rate=0.1))
        ids, labeled, queries, valid = self._batch()
        targets = ids[labeled]
        results = []
        for gathered in (True, False):
            m.zero_grads()
            rng = np.random.default_rng(3)
            if gathered:
                rows = m.encode_at(ids, queries, mode=mode, rng=rng)[valid]
            else:
                rows = m.encode_forward(ids, mode=mode, rng=rng)[labeled]
            loss = masked_cross_entropy(m.mlm_logits(rows), targets)
            loss.backward()
            results.append((rows.data, float(loss.data), rng.random(),
                            {n: p.grad.copy() for n, p in m.params.items()}))
        (rows, loss, after, grads), (full_rows, full_loss, full_after, full_grads) = results
        assert rows.shape == (11, 8)
        assert np.abs(rows - full_rows).max() <= 1e-12 * np.abs(full_rows).max()
        assert abs(loss - full_loss) <= 1e-12 * abs(full_loss)
        assert after == full_after
        top = max(np.abs(g).max() for g in full_grads.values())
        for name, g in full_grads.items():
            # the key bias's exact gradient is 0 (softmax is shift invariant),
            # so both paths hold rounding dust there, measured against the
            # largest gradient
            scale = top if name.endswith("attn.wk_b") else np.abs(g).max()
            assert np.abs(grads[name] - g).max() <= 1e-12 * scale, name

    def test_gradients_match_finite_differences(self):
        m = TransformerModel(tiny_config(num_layers=2, vocab_size=7, d_model=4, d_ff=6,
                                         max_len=6, dropout_rate=0.1))
        rng = np.random.default_rng(9)
        # a generic point, as the 0.02-std init leaves attention gradients
        # near the finite-difference noise floor
        for n in m.encoder_param_names():
            p = m.params[n]
            p.data = (1.0 if n.endswith("gamma") else 0.0) + rng.normal(
                0.0, 0.1 if p.data.ndim == 1 else 0.3, size=p.data.shape)
        ids = rng.integers(0, 7, size=(3, 5))
        queries = np.array([[3, 0], [1, 4], [2, 3]])
        c = rng.normal(size=(3, 2, 4))

        def objective():
            # a fresh rng per call, so every call drops the same entries
            out = m.encode_at(ids, queries, mode="train", rng=np.random.default_rng(2))
            return out._child(float((out.data * c).sum()), (out,),
                              lambda g: out._accum(g * c))

        params = [m.params[n] for n in m.encoder_param_names()
                  if not n.endswith("attn.wk_b")]
        assert grad_check(objective, params) < FD_TOL

    @pytest.mark.parametrize("queries, message", [
        (np.array([[0, 12]]), "query position out of range"),
        (np.array([[-1]]), "query position out of range"),
        (np.array([0, 1]), "queries must have shape"),
        (np.zeros((2, 1), dtype=int), "queries must have shape"),
    ])
    def test_rejects_bad_queries(self, queries, message):
        m = TransformerModel(tiny_config())
        with pytest.raises(ValueError, match=message):
            m.encode_at(np.zeros((1, 12), dtype=int), queries)


class TestMlmHead:
    def test_zero_hidden_gives_bias(self):
        m = TransformerModel(tiny_config())
        m.params["mlm.w"].data[:] = 0.0
        m.params["mlm.b"].data[:] = np.arange(20, dtype=float)
        hidden = Tensor(np.zeros((2, 3, 8)))
        out = m.mlm_logits(hidden)
        assert_allclose(out.data, np.broadcast_to(np.arange(20.0), (2, 3, 20)))

    def test_shape(self):
        m = TransformerModel(tiny_config())
        out = m.mlm_logits(Tensor(np.zeros((2, 3, 8))))
        assert out.shape == (2, 3, 20)


class TestClassifierHead:
    def test_zero_weights_give_half(self):
        m = TransformerModel(tiny_config())
        for name in m.head_param_names():
            if not name.endswith("gamma"):
                m.params[name].data[:] = 0.0
        hidden = Tensor(np.zeros((2, 3, 8)))
        out = stable_sigmoid(m.classify_logits(hidden, mode="eval").data)
        assert_allclose(out, [0.5, 0.5])

    def test_output_in_open_interval(self):
        m = TransformerModel(tiny_config())
        rng = np.random.default_rng(3)
        hidden = Tensor(rng.normal(size=(1000, 2, 8)))
        out = stable_sigmoid(m.classify_logits(hidden, mode="eval").data)
        assert np.all((out > 0.0) & (out < 1.0))

    def test_train_batch_of_one_errors(self):
        # batch norm's own check: one row has no batch variance
        m = TransformerModel(tiny_config())
        with pytest.raises(ValueError, match="batch_norm: train mode needs batch size >= 2"):
            m.classify_logits(Tensor(np.zeros((1, 2, 8))), mode="train",
                              rng=np.random.default_rng(0))

    def test_hand_oracle_eval(self):
        # straight-line evaluation of the head formula, recorded independently
        cfg = tiny_config(head_hidden=(2, 2))
        m = TransformerModel(cfg)
        p = m.params
        p["head.dense1.w"].data[:] = 0.1
        p["head.dense1.b"].data[:] = [0.05, -0.05]
        p["head.dense2.w"].data[:] = [[0.2, -0.1], [0.3, 0.4]]
        p["head.dense2.b"].data[:] = 0.0
        p["head.out.w"].data[:] = [[0.5], [-0.25]]
        p["head.out.b"].data[:] = [0.1]
        pooled = np.array([[0.3, -0.2, 0.5, 0.1, 0.0, -0.4, 0.2, 0.6],
                           [-0.1, 0.2, -0.3, 0.4, 0.1, 0.0, -0.2, 0.3]])
        hidden = np.zeros((2, 3, 8))
        hidden[:, 0, :] = pooled

        z1 = np.maximum(pooled @ p["head.dense1.w"].data + p["head.dense1.b"].data, 0)
        bn1 = (z1 - 0.0) / np.sqrt(1.0 + 1e-5)  # fresh running stats
        z2 = np.maximum(bn1 @ p["head.dense2.w"].data, 0)
        bn2 = z2 / np.sqrt(1.0 + 1e-5)
        logits = (bn2 @ p["head.out.w"].data + p["head.out.b"].data)[:, 0]
        expected = stable_sigmoid(logits)

        out = stable_sigmoid(m.classify_logits(Tensor(hidden), mode="eval").data)
        assert_allclose(out, expected, rtol=1e-12)

    def test_pooling_reads_position_zero_only(self):
        m = TransformerModel(tiny_config())
        rng = np.random.default_rng(4)
        hidden = rng.normal(size=(2, 5, 8))
        out1 = stable_sigmoid(m.classify_logits(Tensor(hidden), mode="eval").data)
        shuffled = hidden.copy()
        shuffled[:, 1:, :] = shuffled[:, [3, 4, 1, 2], :]
        out2 = stable_sigmoid(m.classify_logits(Tensor(shuffled), mode="eval").data)
        assert np.array_equal(out1, out2)
