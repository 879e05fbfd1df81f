"""TF-IDF features with a primal (Pegasos-style) linear SVM comparison model."""

import json
import math
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .metrics import classification_report
from .tokenizer import normalize_whitespace

DEFAULT_LAMBDA_GRID = (1e-4, 1e-3, 1e-2, 1e-1, 1.0)
DEFAULT_EPOCHS = 50


def _terms(text):
    return normalize_whitespace(text).split(" ")


@dataclass
class TfIdfModel:
    term_index: dict
    idf: np.ndarray


def fit_tfidf(docs):
    """Unigram TF-IDF with smoothed idf ln((1+N)/(1+df)) + 1; term order is
    first occurrence in the training corpus."""
    texts = [d.text if hasattr(d, "text") else d for d in docs]
    if not texts:
        raise ValueError("fit_tfidf: empty corpus")
    term_index = {}
    df = Counter()
    for text in texts:
        toks = _terms(text)
        for t in toks:
            if t not in term_index:
                term_index[t] = len(term_index)
        df.update(set(toks))
    n = len(texts)
    idf = np.empty(len(term_index))
    for t, i in term_index.items():
        idf[i] = math.log((1 + n) / (1 + df[t])) + 1.0
    return TfIdfModel(term_index=term_index, idf=idf)


def transform(model, doc):
    """L2-normalized tf*idf vector over the fitted term space."""
    text = doc.text if hasattr(doc, "text") else doc
    vec = np.zeros(len(model.term_index))
    for t, c in Counter(_terms(text)).items():
        i = model.term_index.get(t)
        if i is not None:
            vec[i] = c * model.idf[i]
    norm = np.linalg.norm(vec)
    if norm > 0:
        vec /= norm
    return vec


def transform_all(model, docs):
    return np.stack([transform(model, d) for d in docs])


@dataclass
class LsvmModel:
    weights: np.ndarray
    bias: float
    lam: float
    epochs_trained: int

    def decision(self, X):
        return X @ self.weights + self.bias

    def predict(self, X):
        return (self.decision(X) >= 0).astype(int)


def _valid_lambda(lam):
    return lam > 0 and math.isfinite(lam)


def train_lsvm(X, y, lam, epochs, seed=0):
    """Pegasos: subgradient descent on hinge loss + (lam/2)||w||^2 with step
    1/(lam*t), seeded example order. Labels in {0,1} mapped to +-1.

    The shrink by 1 - 1/t at every step telescopes, so the weights step t
    reads are w = u / (lam*(t-1)), with u the signed sum of the rows that
    violated the margin before it: a step costs one dot product, and a
    violation adds or subtracts its row from u."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if set(np.unique(y)) != {0, 1}:
        raise ValueError("train_lsvm: need both classes present")
    s = np.where(y == 1, 1.0, -1.0)
    if not _valid_lambda(lam):
        raise ValueError("train_lsvm: lambda must be positive and finite")
    if epochs < 1:
        raise ValueError("train_lsvm: epochs must be at least 1")
    # rows as views, signs as Python floats and ndarray.dot (not the matmul
    # gufunc) keep the per-example NumPy dispatches few
    rows = list(X)
    signs = s.tolist()
    rng = np.random.default_rng(seed)
    u = np.zeros(X.shape[1])
    b = 0.0
    t = 0
    for _ in range(epochs):
        for i in rng.permutation(len(rows)).tolist():
            si = signs[i]
            # w and b are zero before the first step
            margin = si * (rows[i].dot(u) / (lam * t) + b) if t else 0.0
            t += 1
            if margin < 1:
                if si > 0:
                    u += rows[i]
                else:
                    u -= rows[i]
                b += si / (lam * t)
    u /= lam * t
    return LsvmModel(weights=u, bias=b, lam=lam, epochs_trained=epochs)


def tune_lsvm(train, val, lambda_grid=DEFAULT_LAMBDA_GRID, epochs=DEFAULT_EPOCHS,
              seed=0):
    """Grid search on validation F1; ties break toward the larger lambda."""
    (X_tr, y_tr), (X_va, y_va) = train, val
    if not len(lambda_grid):
        raise ValueError("tune_lsvm: empty grid")
    bad = [lam for lam in lambda_grid if not _valid_lambda(lam)]
    if bad:
        raise ValueError(f"tune_lsvm: lambda must be positive and finite, got {bad[0]}")
    best = None
    for k, lam in enumerate(lambda_grid):
        model = train_lsvm(X_tr, y_tr, lam, epochs, seed=[seed, k])
        f1 = classification_report(model.predict(X_va), y_va).f1
        if best is None or (f1, lam) >= best[:2]:
            best = (f1, lam, model)
    return best[2], best[1]


def save_baseline(tfidf, lsvm, path):
    terms = sorted(tfidf.term_index, key=tfidf.term_index.get)
    obj = {"terms": terms, "idf": tfidf.idf.tolist(),
           "weights": lsvm.weights.tolist(), "bias": lsvm.bias,
           "lambda": lsvm.lam, "epochs": lsvm.epochs_trained}
    with open(path, "w", encoding="utf-8") as f:
        json.dump(obj, f, ensure_ascii=False)

