"""Perplexity (base-2 exponentiation of mean cross-entropy in bits) and
binary classification metrics with positive class = fake = 1."""

import json
import math
from dataclasses import dataclass, asdict


@dataclass
class ConfusionCounts:
    tp: int = 0
    fp: int = 0
    tn: int = 0
    fn: int = 0

    @property
    def n(self):
        return self.tp + self.fp + self.tn + self.fn


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
        d.pop("perplexity_nats_base", None)  # older reports; equals perplexity
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


def confusion(preds, labels, threshold=0.5):
    """Tally tp/fp/tn/fn; predicted fake iff probability >= threshold."""
    if len(preds) != len(labels):
        raise ValueError(f"length mismatch: {len(preds)} preds vs {len(labels)} labels")
    if len(preds) == 0:
        raise ValueError("confusion: empty input")
    c = ConfusionCounts()
    for p, y in zip(preds, labels):
        pred = 1 if p >= threshold else 0
        if pred == 1 and y == 1:
            c.tp += 1
        elif pred == 1 and y == 0:
            c.fp += 1
        elif pred == 0 and y == 0:
            c.tn += 1
        else:
            c.fn += 1
    return c


def _prf(tp, fp, fn):
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return precision, recall, f1


def classification_metrics(c):
    """Positive-class metrics plus macro-F1; zero denominators yield 0."""
    if c.n < 1:
        raise ValueError("classification_metrics: no examples")
    precision, recall, f1 = _prf(c.tp, c.fp, c.fn)
    _, _, f1_neg = _prf(c.tn, c.fn, c.fp)
    return {
        "accuracy": (c.tp + c.tn) / c.n,
        "precision": precision,
        "recall": recall,
        "f1": f1,
        "macro_f1": (f1 + f1_neg) / 2,
    }


def mlm_report(mean_xent_nats, n):
    h_bits = mean_xent_nats / math.log(2)
    return EvalReport(task="mlm", n=n, perplexity=perplexity(h_bits))


def classification_report(preds, labels, threshold=0.5):
    c = confusion(preds, labels, threshold)
    m = classification_metrics(c)
    return EvalReport(task="classify", n=c.n, threshold=threshold, **m)
