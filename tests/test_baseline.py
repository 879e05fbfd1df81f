import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from numpy.testing import assert_allclose

from minidapt import baseline
from minidapt.baseline import (DEFAULT_LAMBDA_GRID, fit_tfidf, save_baseline, train_lsvm,
                               transform, transform_all, tune_lsvm)
from minidapt.corpus import Document

from conftest import separable_dataset


def _docs(*texts):
    return [Document(text=t) for t in texts]


class TestFitTfidf:
    def test_single_doc_idf_is_one(self):
        model = fit_tfidf(_docs("a b c"))
        assert_allclose(model.idf, np.ones(3))  # ln(2/2) + 1

    def test_two_doc_hand_values(self):
        # hand-derived smoothed idf: idf(a)=ln(3/3)+1=1, idf(b)=ln(3/2)+1
        model = fit_tfidf(_docs("a b", "a"))
        assert_allclose(model.idf[model.term_index["a"]], 1.0)
        assert_allclose(model.idf[model.term_index["b"]], math.log(3 / 2) + 1)

    def test_empty_corpus_errors(self):
        with pytest.raises(ValueError):
            fit_tfidf([])

    def test_first_occurrence_order(self):
        model = fit_tfidf(_docs("b a", "c a"))
        assert model.term_index == {"b": 0, "a": 1, "c": 2}


class TestTransform:
    def test_unknown_terms_give_zero_vector(self):
        model = fit_tfidf(_docs("a b", "a"))
        assert_allclose(transform(model, Document(text="z q")), np.zeros(2))

    def test_nonzero_output_is_unit_norm(self):
        model = fit_tfidf(_docs("a b c", "a b", "a"))
        rng = np.random.default_rng(0)
        for _ in range(20):
            doc = " ".join(rng.choice(["a", "b", "c", "z"], size=6))
            v = transform(model, Document(text=doc))
            n = np.linalg.norm(v)
            if n > 0:
                assert abs(n - 1.0) <= 1e-12

    def test_fixture_doc_exact_values(self):
        # same hand oracle as the idf test: doc "a a b" on corpus ["a b", "a"]
        model = fit_tfidf(_docs("a b", "a"))
        idf_b = math.log(3 / 2) + 1
        raw = np.array([2 * 1.0, 1 * idf_b])
        expected = raw / np.linalg.norm(raw)
        got = transform(model, Document(text="a a b"))
        assert_allclose(got[[model.term_index["a"], model.term_index["b"]]],
                        expected, rtol=1e-9)

    def test_idf_scaling_invariance(self):
        model = fit_tfidf(_docs("a b c", "a b", "c c"))
        v1 = transform(model, Document(text="a b c c"))
        model.idf *= 7.3
        v2 = transform(model, Document(text="a b c c"))
        assert_allclose(v1, v2, atol=1e-12)


def reference_lsvm(X, y, lam, epochs, seed=0):
    """The textbook Pegasos loop, indexing the matrix per example."""
    s = np.where(y == 1, 1.0, -1.0)
    rng = np.random.default_rng(seed)
    w = np.zeros(X.shape[1])
    b = 0.0
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(len(X)):
            t += 1
            eta = 1.0 / (lam * t)
            margin = s[i] * (X[i] @ w + b)
            w *= 1.0 - eta * lam
            if margin < 1:
                w += eta * s[i] * X[i]
                b += eta * s[i]
    return w, b


def scaled_lsvm(X, y, lam, epochs, seed=0):
    """The same loop with w kept as u / (lam*(t-1)), indexing per example."""
    s = np.where(y == 1, 1.0, -1.0)
    rng = np.random.default_rng(seed)
    u = np.zeros(X.shape[1])
    b = 0.0
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(len(X)):
            margin = s[i] * (X[i] @ u / (lam * t) + b) if t > 0 else 0.0
            t += 1
            if margin < 1:
                u += s[i] * X[i]
                b += s[i] / (lam * t)
    return u / (lam * t), b


lsvm_cases = given(st.integers(0, 2**32 - 1), st.integers(2, 40), st.integers(1, 30),
                   st.sampled_from(DEFAULT_LAMBDA_GRID + (0.37,)), st.integers(1, 6))


def lsvm_data(data_seed, n, d):
    rng = np.random.default_rng(data_seed)
    # sparse, L2-normalised rows like TF-IDF vectors
    X = rng.random((n, d)) * (rng.random((n, d)) < 0.4)
    norms = np.linalg.norm(X, axis=1, keepdims=True)
    X = np.divide(X, norms, out=X, where=norms > 0)
    y = rng.integers(0, 2, size=n)
    y[:2] = [0, 1]
    return X, y


class TestTrainLsvm:
    @lsvm_cases
    @settings(max_examples=100, deadline=None)
    def test_bit_identical_to_reference(self, data_seed, n, d, lam, epochs):
        X, y = lsvm_data(data_seed, n, d)
        self._assert_bit_identical(X, y, lam, epochs, [data_seed, 3])

    # margins that land on 1 to rounding, found by a search over small
    # inputs: the first case fails with `margin <= 1 - 1e-12` in place of
    # `margin < 1`, the second with `* (1.0 / (lam * t))` in place of
    # `/ (lam * t)` in the margin; the generated cases above catch neither
    @pytest.mark.parametrize("X, y, lam, seed", [
        ([[0], [2]], [0, 1], 0.3, 58),
        ([[3, 2], [0, 0], [1, 1], [3, 3]], [0, 1, 0, 1], 1.0, 924),
    ])
    def test_bit_identical_to_reference_at_margin_one(self, X, y, lam, seed):
        self._assert_bit_identical(np.array(X, dtype=float), np.array(y), lam, 3, seed)

    @staticmethod
    def _assert_bit_identical(X, y, lam, epochs, seed):
        model = train_lsvm(X, y, lam, epochs, seed=seed)
        w, b = scaled_lsvm(X, y, lam, epochs, seed=seed)
        assert model.weights.tobytes() == w.tobytes()
        assert repr(float(model.bias)) == repr(float(b))

    @lsvm_cases
    @settings(max_examples=100, deadline=None)
    def test_matches_textbook_loop(self, data_seed, n, d, lam, epochs):
        # the scaled form rounds the weights differently, but every margin
        # decision agrees, so the bias is the same sum of +-1/(lam*t)
        X, y = lsvm_data(data_seed, n, d)
        model = train_lsvm(X, y, lam, epochs, seed=[data_seed, 3])
        w, b = reference_lsvm(X, y, lam, epochs, seed=[data_seed, 3])
        assert repr(float(model.bias)) == repr(float(b))
        assert np.max(np.abs(model.weights - w)) <= 1e-12 / lam

    def test_separable_1d_sign(self):
        X = np.array([[-1.0], [1.0]])
        y = np.array([0, 1])
        model = train_lsvm(X, y, lam=0.1, epochs=100, seed=0)
        assert model.weights[0] > 0
        assert np.array_equal(model.predict(X), y)

    def test_updates_match_hand_subgradient_steps(self):
        # hand rule per visit t with step eta=1/(lam*t):
        #   w <- (1-eta*lam)*w, then if margin<1: w += eta*y*x, b += eta*y
        # first step from w=0 reduces to w = y*x/lam, b = y/lam
        X = np.array([[0.5, -2.0], [-1.0, 0.25]])
        y = np.array([1, 0])
        lam = 0.25
        model = train_lsvm(X, y, lam=lam, epochs=1, seed=0)

        s = np.array([1.0, -1.0])
        w = np.zeros(2)
        b = 0.0
        for t, i in enumerate(np.random.default_rng(0).permutation(2), start=1):
            eta = 1.0 / (lam * t)
            violating = s[i] * (X[i] @ w + b) < 1
            w = (1 - eta * lam) * w
            if violating:
                w = w + eta * s[i] * X[i]
                b = b + eta * s[i]
        assert_allclose(model.weights, w)
        assert_allclose(model.bias, b)

    def test_deterministic(self):
        rng = np.random.default_rng(1)
        X = rng.normal(size=(30, 5))
        y = (rng.random(30) < 0.5).astype(int)
        y[:2] = [0, 1]
        a = train_lsvm(X, y, 0.01, 20, seed=9)
        b = train_lsvm(X, y, 0.01, 20, seed=9)
        assert np.array_equal(a.weights, b.weights) and a.bias == b.bias

    def test_single_class_errors(self):
        with pytest.raises(ValueError):
            train_lsvm(np.ones((3, 2)), np.ones(3, dtype=int), 0.1, 5)

    @pytest.mark.parametrize("epochs", [0, -1])
    def test_no_epochs_errors(self, epochs):
        with pytest.raises(ValueError, match="epochs"):
            train_lsvm(np.eye(2), np.array([0, 1]), 0.1, epochs)

    def test_separable_training_accuracy_reaches_one(self):
        docs = separable_dataset(seed=5)
        model = fit_tfidf(docs)
        X = transform_all(model, docs)
        y = np.array([d.label for d in docs])
        svm = train_lsvm(X, y, lam=1e-3, epochs=100, seed=0)
        assert (svm.predict(X) == y).mean() == 1.0


class TestTuneLsvm:
    def _data(self, seed=2):
        docs = separable_dataset(seed=seed)
        model = fit_tfidf(docs)
        X = transform_all(model, docs)
        y = np.array([d.label for d in docs])
        return (X[:48], y[:48]), (X[48:], y[48:])

    def test_single_value_grid(self):
        train, val = self._data()
        _, lam = tune_lsvm(train, val, (0.05,), epochs=20)
        assert lam == 0.05

    def test_tie_breaks_toward_larger_lambda(self):
        train, val = self._data()
        # separable data: many lambdas reach F1=1, the largest must win
        model, lam = tune_lsvm(train, val, (1e-4, 1e-3), epochs=60)
        assert lam == 1e-3

    def test_tie_breaks_toward_larger_lambda_in_descending_grid(self):
        train, val = self._data()
        _, lam = tune_lsvm(train, val, (1e-3, 1e-4), epochs=60)
        assert lam == 1e-3

    def test_separable_fixture_reaches_perfect_f1(self):
        train, val = self._data(seed=3)
        model, _ = tune_lsvm(train, val, DEFAULT_LAMBDA_GRID, epochs=60)
        preds = model.predict(val[0])
        assert np.array_equal(preds, val[1])

    def test_empty_grid_errors(self):
        train, val = self._data()
        with pytest.raises(ValueError):
            tune_lsvm(train, val, (), epochs=5)

    @pytest.mark.parametrize("bad", [-1.0, 0.0, math.inf, math.nan])
    def test_bad_lambda_errors_before_training(self, monkeypatch, bad):
        train, val = self._data()
        trained = []
        monkeypatch.setattr(baseline, "train_lsvm", lambda *a, **k: trained.append(a))
        with pytest.raises(ValueError, match="lambda"):
            tune_lsvm(train, val, (0.1, bad), epochs=5)
        assert trained == []


class TestSerialization:
    def test_round_trip(self, tmp_path):
        docs = _docs("a b c", "b c d", "a d")
        tfidf = fit_tfidf(docs)
        svm = train_lsvm(transform_all(tfidf, docs), np.array([0, 1, 1]),
                         0.01, 10, seed=0)
        path = tmp_path / "baseline.json"
        save_baseline(tfidf, svm, path)
        obj = json.loads(path.read_text(encoding="utf-8"))
        assert {t: i for i, t in enumerate(obj["terms"])} == tfidf.term_index
        assert_allclose(obj["idf"], tfidf.idf)
        assert_allclose(obj["weights"], svm.weights)
        assert obj["bias"] == svm.bias and obj["lambda"] == svm.lam
