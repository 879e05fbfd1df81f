import numpy as np
import pytest
from numpy.testing import assert_allclose

import minidapt.model as model_mod
from minidapt.autodiff import Tensor, stable_sigmoid
from minidapt.model import EncoderConfig, TransformerModel


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
        assert np.all(m.params["layer0.ffn.b1"].data == 0)
        assert np.all(m.params["head.dense1.b"].data == 0)
        assert np.all(m.params["layer0.ln1.gamma"].data == 1)

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

    @staticmethod
    def _spy_weights(monkeypatch):
        """Record each attention call's weights, read by calling the op again
        with v set to the identity."""
        captured = []
        orig = model_mod.attention

        def spy(q, k, v, scale, bias=None):
            eye = Tensor(np.eye(k.shape[-2]))
            captured.append(orig(q, k, eye, scale, bias).data)
            return orig(q, k, v, scale, bias)

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
        m = TransformerModel(tiny_config())
        with pytest.raises(ValueError):
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
