import numpy as np
import pytest
from numpy.testing import assert_allclose

from minidapt.autodiff import Parameter
from minidapt.model import TransformerModel, EncoderConfig
from minidapt.optim import AdamState, adam_step, lr_at, set_trainable
from minidapt.tokenizer import DEFAULT_TARGET_SIZE

from conftest import traced_growth


class TestLrAt:
    # a 100-step run whose ramp, capped at a tenth of the run, is 10 steps
    def test_warmup_endpoint_is_peak(self):
        assert lr_at(10, 1e-4, 1000, 100) == 1e-4

    def test_final_step_is_zero(self):
        assert lr_at(100, 1e-4, 1000, 100) == 0.0

    def test_linear_midpoint(self):
        assert_allclose(lr_at(55, 1e-4, 1000, 100), 5e-5)

    def test_continuity_at_warmup(self):
        assert abs(lr_at(7, 1e-4, 7, 70) - (lr_at(8, 1e-4, 7, 70) + 1e-4 / (70 - 7))) < 1e-18

    def test_nonnegative_everywhere(self):
        assert all(lr_at(t, 1e-4, 3, 37) >= 0 for t in range(1, 38))

    # the first step's rate is peak / warmup, which pins the capped warmup
    def test_long_runs_keep_full_warmup(self):
        assert lr_at(1, 1.0, 1000, 10_000) == 1 / 1000

    def test_short_runs_scale_to_tenth(self):
        assert lr_at(1, 1.0, 1000, 500) == 1 / 50

    def test_default_equals_the_thousand_step_rule(self):
        # 1000 steps on runs of 10,000 steps or more, else a tenth of the run, at least 1
        old = [1000 if t >= 10000 else max(1, min(1000, t // 10)) for t in range(1, 50_001)]
        assert [lr_at(1, 1.0, 1000, t) for t in range(1, 50_001)] == [1 / w for w in old]

    def test_explicit_value_capped_at_tenth(self):
        assert lr_at(1, 1.0, 20, 500) == 1 / 20
        assert lr_at(1, 1.0, 80, 500) == 1 / 50
        assert lr_at(1, 1.0, 3, 5) == 1.0

    def test_never_zero(self):
        assert lr_at(1, 1e-4, 0, 100) == 1e-4
        assert lr_at(1, 1e-4, 1000, 5) == 1e-4
        assert lr_at(1, 1e-4, 1000, 1) == 1e-4


class TestAdamStep:
    def test_zero_gradients_no_change(self):
        p = Parameter("w", np.array([1.0, -2.0]))
        p.zero_grad()
        adam_step([p], AdamState(), lr=0.1)
        assert_allclose(p.data, [1.0, -2.0])

    def test_first_step_hand_value(self):
        # single-step hand evaluation: m_hat = v_hat = 1, so
        # p <- 1 - 0.1 * 1/(1 + 1e-8)
        p = Parameter("w", np.array([1.0]))
        p.zero_grad()
        p.grad[:] = 1.0
        adam_step([p], AdamState(), lr=0.1)
        assert_allclose(p.data, [1.0 - 0.1 / (1.0 + 1e-8)], rtol=1e-14)

    def test_first_step_closed_form_entrywise(self):
        rng = np.random.default_rng(0)
        p = Parameter("w", rng.normal(size=(4, 3)))
        g = rng.normal(size=(4, 3))
        p.zero_grad()
        p.grad[:] = g
        before = p.data.copy()
        state = AdamState()
        adam_step([p], state, lr=0.05)
        mhat = g  # bias correction cancels at t=1
        vhat = g * g
        assert_allclose(p.data, before - 0.05 * mhat / (np.sqrt(vhat) + state.eps),
                        rtol=1e-12)

    def test_decoupled_decay_shrinks(self):
        p = Parameter("w", np.array([2.0, -3.0]))
        p.zero_grad()
        adam_step([p], AdamState(), lr=0.1, weight_decay=0.5)
        assert np.all(np.abs(p.data) < np.array([2.0, 3.0]))

    def test_frozen_untouched(self):
        p = Parameter("w", np.array([1.0]))
        p.requires_grad = False
        p.grad = np.array([5.0])
        state = AdamState()
        adam_step([p], state, lr=0.1)
        assert p.data[0] == 1.0
        assert "w" not in state.m

    def test_nonfinite_gradient_names_parameter(self):
        p = Parameter("bad.weight", np.array([1.0]))
        p.zero_grad()
        p.grad[:] = np.nan
        with pytest.raises(ValueError, match="bad.weight"):
            adam_step([p], AdamState(), lr=0.1)


class TestSetTrainable:
    def _model(self):
        return TransformerModel(EncoderConfig(vocab_size=20, num_layers=1,
                                              d_model=8, num_heads=2, d_ff=16,
                                              max_len=8, seed=0))

    def test_all_counts_every_tensor(self):
        m = self._model()
        set_trainable(m, "all")
        assert sum(p.requires_grad for p in m.params.values()) == len(m.params)

    def test_head_only_count_matches_head_tensors(self):
        m = self._model()
        # classifier head: 2x(dense w+b) + 2x(bn gamma+beta) + out w+b
        set_trainable(m, "head-only")
        assert sum(p.requires_grad for p in m.params.values()) == 10
        assert {n for n, p in m.params.items() if p.requires_grad} == \
            {n for n in m.params if n.startswith("head.")}

    def test_head_only_freezes_encoder_through_adam(self):
        m = self._model()
        set_trainable(m, "head-only")
        before = {n: p.data.copy() for n, p in m.params.items()}
        for p in m.params.values():
            p.grad = np.ones_like(p.data)
        adam_step(list(m.params.values()), AdamState(), lr=0.1)
        for name in m.encoder_param_names():
            assert np.array_equal(m.params[name].data, before[name])
        assert not np.array_equal(m.params["head.out.w"].data, before["head.out.w"])

    def test_encoder_mlm_freezes_exactly_the_head(self):
        m = self._model()
        set_trainable(m, "encoder+mlm")
        assert sum(p.requires_grad for p in m.params.values()) == len(m.params) - 10
        assert {n for n, p in m.params.items() if not p.requires_grad} == \
            {n for n in m.params if n.startswith("head.")}

    def test_encoder_head_freezes_exactly_the_mlm_head(self):
        m = self._model()
        set_trainable(m, "encoder+head")
        assert sum(p.requires_grad for p in m.params.values()) == len(m.params) - 2
        assert {n for n, p in m.params.items() if not p.requires_grad} == {"mlm.w", "mlm.b"}

    def test_frozen_parameters_drop_their_gradients(self):
        m = self._model()
        set_trainable(m, "all")
        for p in m.params.values():
            p.grad[...] = 1.0
        set_trainable(m, "head-only")
        m.zero_grads()
        for name, p in m.params.items():
            assert (p.grad is None) != p.requires_grad, name
            if p.requires_grad:
                assert p.grad.shape == p.data.shape and not p.grad.any(), name

    def test_head_only_allocates_only_the_head_gradients(self):
        def build():
            m = TransformerModel(EncoderConfig(vocab_size=DEFAULT_TARGET_SIZE))
            set_trainable(m, "head-only")
            m.zero_grads()
            return m

        m, grown = traced_growth(build)
        weights = sum(p.data.nbytes for p in m.params.values())
        head = sum(p.data.nbytes for n, p in m.params.items() if n.startswith("head."))
        # weights plus 1.04 of the head's gradient bytes (Python objects
        # included); a gradient per parameter made it 3.86
        assert grown - weights <= 1.1 * head

    def test_requires_grad_is_the_only_freeze_flag(self):
        p = Parameter("w", np.zeros(2))
        assert p.requires_grad
        assert not hasattr(p, "trainable") and not hasattr(p, "set_trainable")

    def test_unknown_selector(self):
        with pytest.raises(ValueError):
            set_trainable(self._model(), "some")
