"""NumPy reference computations that the output checks compare against.

Each function is written from the method's definition (pre-norm encoder,
MLM and classifier heads, the losses, TF-IDF and hinge loss) on plain
arrays, without the program's autodiff tensors, so a fault in the program's
ops does not cancel out of a comparison.
"""

import math
from collections import Counter

import numpy as np


def _layer_norm(x, gamma, beta, eps=1e-5):
    centred = x - x.mean(axis=-1, keepdims=True)
    std = np.sqrt((centred ** 2).mean(axis=-1, keepdims=True) + eps)
    return centred / std * gamma + beta


def _softmax(x):
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def encoder(params, num_layers, num_heads, ids, pad_mask=None):
    """Eval-mode hidden states [B, T, d] of the pre-norm encoder.

    params: name -> ndarray, with the program's parameter names.
    pad_mask: bool [B, T], True at real tokens; PAD keys get zero weight.
    """
    ids = np.asarray(ids)
    B, T = ids.shape
    x = params["embed.tok"][ids] + params["embed.pos"][:T]
    d = x.shape[-1]
    hd = d // num_heads
    for i in range(num_layers):
        p = f"layer{i}."
        h = _layer_norm(x, params[p + "ln1.gamma"], params[p + "ln1.beta"])
        q, k, v = (
            (h @ params[p + f"attn.{w}"] + params[p + f"attn.{w}_b"])
            .reshape(B, T, num_heads, hd).transpose(0, 2, 1, 3)
            for w in ("wq", "wk", "wv"))
        scores = np.einsum("bhqe,bhke->bhqk", q, k) / math.sqrt(hd)
        if pad_mask is not None:
            scores = np.where(np.asarray(pad_mask)[:, None, None, :], scores, -np.inf)
        ctx = np.einsum("bhqk,bhke->bqhe", _softmax(scores), v).reshape(B, T, d)
        x = x + ctx @ params[p + "attn.wo"] + params[p + "attn.wo_b"]
        h = _layer_norm(x, params[p + "ln2.gamma"], params[p + "ln2.beta"])
        ff = np.maximum(h @ params[p + "ffn.w1"] + params[p + "ffn.b1"], 0.0)
        x = x + ff @ params[p + "ffn.w2"] + params[p + "ffn.b2"]
    return _layer_norm(x, params["final_ln.gamma"], params["final_ln.beta"])


def mlm_logits(params, hidden):
    w = params["mlm.w"] if "mlm.w" in params else params["embed.tok"].T
    return hidden @ w + params["mlm.b"]


def classify_logits(params, bn_stats, hidden, eps=1e-5):
    """Eval-mode classifier scores [B] from the first position.

    bn_stats: layer name ("head.bn1", "head.bn2") -> (running mean, running var).
    """
    z = hidden[:, 0, :]
    for dense, bn in (("head.dense1", "head.bn1"), ("head.dense2", "head.bn2")):
        z = np.maximum(z @ params[dense + ".w"] + params[dense + ".b"], 0.0)
        mean, var = bn_stats[bn]
        z = (z - mean) / np.sqrt(var + eps) * params[bn + ".gamma"] + params[bn + ".beta"]
    return (z @ params["head.out.w"] + params["head.out.b"])[:, 0]


def masked_cross_entropy(logits, labels, ignore=-100):
    """(sum of nats over labelled positions, labelled position count)."""
    sel = np.asarray(labels) != ignore
    rows = logits[sel]
    target = np.asarray(labels)[sel]
    log_z = np.logaddexp.reduce(rows, axis=-1)
    return float((log_z - rows[np.arange(len(target)), target]).sum()), int(sel.sum())


def bce(logits, labels):
    """Mean binary cross-entropy: -y log s(z) - (1-y) log(1 - s(z))."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    return float(np.mean(y * np.logaddexp(0.0, -z) + (1.0 - y) * np.logaddexp(0.0, z)))


def tfidf_vectors(train_texts, texts):
    """Unit-length tf*idf vectors as term -> weight dicts, with idf
    ln((1 + N) / (1 + df)) + 1 over the training texts and raw term counts."""
    df = Counter()
    for text in train_texts:
        df.update(set(text.split()))
    n = len(train_texts)
    out = []
    for text in texts:
        weights = {t: c * (math.log((1 + n) / (1 + df[t])) + 1.0)
                   for t, c in Counter(text.split()).items() if t in df}
        norm = math.sqrt(sum(w * w for w in weights.values()))
        out.append({t: w / norm for t, w in weights.items()} if norm else weights)
    return out, set(df)


def hinge_loss(vectors, labels, weights, bias):
    """Mean max(0, 1 - s (w.x + b)) with s = +1 for label 1 and -1 for label 0.

    vectors: term -> weight dicts; weights: term -> weight dict.
    """
    total = 0.0
    for vec, label in zip(vectors, labels):
        score = sum(w * weights.get(t, 0.0) for t, w in vec.items()) + bias
        total += max(0.0, 1.0 - (1.0 if label == 1 else -1.0) * score)
    return total / len(vectors)


def f1(predictions, labels):
    """F1 of the positive class (label 1)."""
    tp = sum(1 for p, y in zip(predictions, labels) if p == 1 and y == 1)
    fp = sum(1 for p, y in zip(predictions, labels) if p == 1 and y == 0)
    fn = sum(1 for p, y in zip(predictions, labels) if p == 0 and y == 1)
    return 2 * tp / (2 * tp + fp + fn) if tp else 0.0
