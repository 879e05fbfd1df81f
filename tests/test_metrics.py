import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from minidapt.metrics import (ConfusionCounts, EvalReport,
                              classification_metrics, classification_report,
                              confusion, mlm_report, perplexity)


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

    def test_reads_reports_with_nats_base_key(self):
        old = '{"n": 3, "perplexity": 2.5, "perplexity_nats_base": 2.5, "task": "mlm"}'
        assert EvalReport.from_json(old) == EvalReport(task="mlm", n=3, perplexity=2.5)


class TestConfusion:
    def test_all_positive_correct(self):
        c = confusion([1.0] * 5, [1] * 5)
        assert (c.tp, c.fp, c.tn, c.fn) == (5, 0, 0, 0)

    def test_threshold_tie_predicts_fake(self):
        c = confusion([0.5], [1])
        assert c.tp == 1

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion([0.5], [1, 0])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force(self, seed):
        rng = np.random.default_rng(seed)
        preds = rng.random(200)
        labels = rng.integers(0, 2, size=200)
        c = confusion(preds.tolist(), labels.tolist())
        assert (c.tp, c.fp, c.tn, c.fn) == brute_force_tally(preds, labels)
        assert c.n == 200


class TestClassificationMetrics:
    def test_hand_case(self):
        m = classification_metrics(ConfusionCounts(tp=2, fp=1, tn=6, fn=1))
        assert_allclose(m["precision"], 2 / 3)
        assert_allclose(m["recall"], 2 / 3)
        assert_allclose(m["f1"], 2 / 3)
        assert_allclose(m["accuracy"], 0.8)

    def test_all_correct(self):
        m = classification_metrics(ConfusionCounts(tp=4, tn=6))
        assert m["accuracy"] == m["precision"] == m["recall"] == m["f1"] == 1.0

    def test_zero_denominator_convention(self):
        m = classification_metrics(ConfusionCounts(tn=10))
        assert m["precision"] == 0.0 and m["recall"] == 0.0 and m["f1"] == 0.0

    def test_f1_between_precision_and_recall(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            c = ConfusionCounts(*rng.integers(1, 50, size=4))
            m = classification_metrics(c)
            assert min(m["precision"], m["recall"]) - 1e-12 <= m["f1"]
            assert m["f1"] <= max(m["precision"], m["recall"]) + 1e-12


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
