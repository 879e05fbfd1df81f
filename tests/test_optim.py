import numpy as np
import pytest
from numpy.testing import assert_allclose

from minidapt.autodiff import Parameter
from minidapt.model import TransformerModel, EncoderConfig
from minidapt.optim import AdamState, Schedule, adam_step, lr_at, set_trainable


def sched(peak=1e-4, warmup=10, total=100):
    return Schedule(peak_lr=peak, warmup_steps=warmup, total_steps=total)


class TestSchedule:
    def test_warmup_endpoint_is_peak(self):
        assert lr_at(sched(), 10) == 1e-4

    def test_final_step_is_zero(self):
        assert lr_at(sched(), 100) == 0.0

    def test_linear_midpoint(self):
        assert_allclose(lr_at(sched(), 55), 5e-5)

    def test_continuity_at_warmup(self):
        s = sched(warmup=7, total=50)
        assert abs(lr_at(s, 7) - (lr_at(s, 8) + s.peak_lr / (50 - 7))) < 1e-18

    def test_nonnegative_everywhere(self):
        s = sched(warmup=3, total=17)
        assert all(lr_at(s, t) >= 0 for t in range(1, 18))

    def test_out_of_range_errors(self):
        with pytest.raises(ValueError):
            lr_at(sched(), 0)
        with pytest.raises(ValueError):
            lr_at(sched(), 101)

    def test_validation(self):
        with pytest.raises(ValueError):
            Schedule(peak_lr=1e-4, warmup_steps=0, total_steps=10)
        with pytest.raises(ValueError):
            Schedule(peak_lr=1e-4, warmup_steps=20, total_steps=10)


class TestAdamStep:
    def test_zero_gradients_no_change(self):
        p = Parameter("w", np.array([1.0, -2.0]))
        adam_step([p], AdamState(), lr=0.1)
        assert_allclose(p.data, [1.0, -2.0])

    def test_first_step_hand_value(self):
        # single-step hand evaluation: m_hat = v_hat = 1, so
        # p <- 1 - 0.1 * 1/(1 + 1e-8)
        p = Parameter("w", np.array([1.0]))
        p.grad[:] = 1.0
        adam_step([p], AdamState(), lr=0.1)
        assert_allclose(p.data, [1.0 - 0.1 / (1.0 + 1e-8)], rtol=1e-14)

    def test_first_step_closed_form_entrywise(self):
        rng = np.random.default_rng(0)
        p = Parameter("w", rng.normal(size=(4, 3)))
        g = rng.normal(size=(4, 3))
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
        adam_step([p], AdamState(), lr=0.1, weight_decay=0.5)
        assert np.all(np.abs(p.data) < np.array([2.0, 3.0]))

    def test_frozen_untouched(self):
        p = Parameter("w", np.array([1.0]), trainable=False)
        p.grad = np.array([5.0])
        state = AdamState()
        adam_step([p], state, lr=0.1)
        assert p.data[0] == 1.0
        assert "w" not in state.m

    def test_nonfinite_gradient_names_parameter(self):
        p = Parameter("bad.weight", np.array([1.0]))
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
        assert set_trainable(m, "all") == len(m.params)

    def test_head_only_count_matches_head_tensors(self):
        m = self._model()
        # classifier head: 2x(dense w+b) + 2x(bn gamma+beta) + out w+b
        assert set_trainable(m, "head-only") == 10
        assert set(p.name for p in m.params.values() if p.requires_grad) == \
            set(m.head_param_names())

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
        assert set_trainable(m, "encoder+mlm") == len(m.params) - 10
        assert {n for n, p in m.params.items() if not p.requires_grad} == \
            set(m.head_param_names())

    def test_requires_grad_is_the_only_freeze_flag(self):
        p = Parameter("w", np.zeros(2), trainable=False)
        assert not p.requires_grad
        assert not hasattr(p, "trainable") and not hasattr(p, "set_trainable")

    def test_unknown_selector(self):
        with pytest.raises(ValueError):
            set_trainable(self._model(), "some")
