import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from minidapt.metrics import (THRESHOLD, EvalReport, classification_report, mlm_report,
                              perplexity)


def brute_force_tally(preds, labels, threshold=0.5):
    """Independent per-example tally oracle."""
    tp = fp = tn = fn = 0
    for p, y in zip(preds, labels):
        guess = int(p >= threshold)
        if guess and y:
            tp += 1
        elif guess and not y:
            fp += 1
        elif not guess and not y:
            tn += 1
        else:
            fn += 1
    return tp, fp, tn, fn


class TestPerplexity:
    def test_perfect_prediction(self):
        assert perplexity(0.0) == 1.0

    def test_uniform_over_32(self):
        assert perplexity(5.0) == 32.0

    def test_reported_value_round_trip(self):
        # 2 ** 3.4738 bits formats to 11.11
        assert round(perplexity(3.4738), 2) == 11.11

    def test_negative_entropy_errors(self):
        with pytest.raises(ValueError):
            perplexity(-0.1)

    def test_monotone(self):
        hs = np.linspace(0, 10, 50)
        ppl = [perplexity(h) for h in hs]
        assert all(a < b for a, b in zip(ppl, ppl[1:]))

    def test_uniform_predictor_equals_vocab_size(self):
        for v in (2, 10, 50, 1000):
            nats = math.log(v)
            rep = mlm_report(nats, n=1)
            assert_allclose(rep.perplexity, v, rtol=1e-9)


def from_counts(tp=0, fp=0, tn=0, fn=0):
    """(probs, labels) with the given tally, probabilities at 0.9 and 0.1."""
    probs = [0.9] * (tp + fp) + [0.1] * (tn + fn)
    labels = [1] * tp + [0] * fp + [0] * tn + [1] * fn
    return probs, labels


class TestConfusion:
    def test_all_positive_correct(self):
        rep = classification_report([1.0] * 5, [1] * 5)
        assert (rep.n, rep.precision, rep.recall, rep.accuracy) == (5, 1.0, 1.0, 1.0)

    def test_threshold_tie_predicts_fake(self):
        assert THRESHOLD == 0.5
        assert classification_report([0.5], [1]).recall == 1.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            classification_report([0.5], [1, 0])

    def test_empty_input(self):
        with pytest.raises(ValueError, match="empty input"):
            classification_report([], [])

    @pytest.mark.parametrize("labels", [[1, 2], [0, -1], [0.5, 1]])
    def test_labels_outside_0_1_rejected(self, labels):
        with pytest.raises(ValueError, match="labels must be 0 or 1"):
            classification_report([0.9, 0.1], labels)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        preds = rng.random(200)
        labels = rng.integers(0, 2, size=200)
        rep = classification_report(preds, labels)
        tp, fp, tn, fn = brute_force_tally(preds, labels)
        assert rep.n == 200 and rep.accuracy == (tp + tn) / 200
        assert rep.precision == (tp / (tp + fp) if tp + fp else 0.0)
        assert rep.recall == (tp / (tp + fn) if tp + fn else 0.0)


class TestClassificationMetrics:
    def test_hand_case(self):
        rep = classification_report(*from_counts(tp=2, fp=1, tn=6, fn=1))
        assert_allclose(rep.precision, 2 / 3)
        assert_allclose(rep.recall, 2 / 3)
        assert_allclose(rep.f1, 2 / 3)
        assert_allclose(rep.accuracy, 0.8)

    def test_all_correct(self):
        rep = classification_report(*from_counts(tp=4, tn=6))
        assert rep.accuracy == rep.precision == rep.recall == rep.f1 == 1.0

    def test_zero_denominator_convention(self):
        rep = classification_report(*from_counts(tn=10))
        assert rep.precision == 0.0 and rep.recall == 0.0 and rep.f1 == 0.0

    def test_f1_between_precision_and_recall(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            rep = classification_report(*from_counts(*rng.integers(1, 50, size=4)))
            assert min(rep.precision, rep.recall) - 1e-12 <= rep.f1
            assert rep.f1 <= max(rep.precision, rep.recall) + 1e-12


class TestEvalReport:
    def test_json_round_trip(self, tmp_path):
        rep = classification_report([0.9, 0.1, 0.7], [1, 0, 0])
        path = tmp_path / "report.json"
        rep.save(path)
        assert EvalReport.load(path) == rep

    def test_classification_report_fields(self):
        rep = classification_report([0.9, 0.2], [1, 0])
        assert rep.task == "classify" and rep.threshold == 0.5 and rep.n == 2
        assert rep.accuracy == 1.0 and rep.macro_f1 == 1.0
        assert rep.perplexity is None

    def test_mlm_report_fields(self):
        rep = mlm_report(math.log(8), n=3)
        assert rep.task == "mlm"
        assert_allclose(rep.perplexity, 8.0)
        assert rep.accuracy is None
