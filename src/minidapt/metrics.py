"""Perplexity (base-2 exponentiation of mean cross-entropy in bits) and
binary classification metrics with positive class = fake = 1."""

import json
import math
from dataclasses import dataclass, asdict

import numpy as np

THRESHOLD = 0.5  # a probability at or above it predicts fake


@dataclass
class EvalReport:
    task: str
    n: int
    perplexity: float = None
    accuracy: float = None
    precision: float = None
    recall: float = None
    f1: float = None
    macro_f1: float = None
    threshold: float = None

    def to_json(self):
        return json.dumps({k: v for k, v in asdict(self).items() if v is not None},
                          indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text):
        d = json.loads(text)
        if not isinstance(d, dict):
            raise TypeError("a report is a JSON object")
        return cls(**d)

    def save(self, path):
        with open(path, "w", encoding="utf-8") as f:
            f.write(self.to_json())

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as f:
            return cls.from_json(f.read())


def perplexity(mean_xent_bits):
    """2 ** H for mean cross-entropy H given in bits; 1 means perfect."""
    if mean_xent_bits < 0:
        raise ValueError(f"cross-entropy must be non-negative, got {mean_xent_bits}")
    return 2.0 ** mean_xent_bits


def _prf(tp, fp, fn):
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def mlm_report(mean_xent_nats, n):
    h_bits = mean_xent_nats / math.log(2)
    return EvalReport(task="mlm", n=n, perplexity=perplexity(h_bits))


def classification_report(probs, labels):
    """Positive-class precision, recall and F1, accuracy and macro-F1 of
    probabilities against 0/1 labels; a probability >= THRESHOLD predicts
    fake, and a zero denominator yields 0."""
    probs, labels = np.asarray(probs), np.asarray(labels)
    n = len(probs)
    if n != len(labels):
        raise ValueError(f"length mismatch: {n} preds vs {len(labels)} labels")
    if n == 0:
        raise ValueError("classification_report: empty input")
    fake = labels == 1
    if not (fake | (labels == 0)).all():
        raise ValueError("classification_report: labels must be 0 or 1")
    guess = probs >= THRESHOLD
    tp = int((guess & fake).sum())
    fp, fn = int(guess.sum()) - tp, int(fake.sum()) - tp
    tn = n - tp - fp - fn
    precision, recall, f1 = _prf(tp, fp, fn)
    f1_neg = _prf(tn, fn, fp)[2]
    return EvalReport(task="classify", n=n, accuracy=(tp + tn) / n, precision=precision,
                      recall=recall, f1=f1, macro_f1=(f1 + f1_neg) / 2, threshold=THRESHOLD)
