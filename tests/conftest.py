import json
import struct
import tracemalloc

import numpy as np
import pytest

from minidapt.autodiff import _unbroadcast
from minidapt.checkpoint import MAGIC, Checkpoint
from minidapt.corpus import Document, chunk_stream
from minidapt.fixtures import (_SYLLABLES_A, FAKE_MARKERS, TRUE_MARKERS, _doc, _lexicon,
                               two_domain_corpus)
from minidapt.masking import MaskingConfig
from minidapt.model import EncoderConfig, TransformerModel
from minidapt.tokenizer import train_vocab
from minidapt.trainer import FinetuneConfig, MLMConfig, TrainConfig


def separable_dataset(seed, n=64, words_per_doc=(10, 20), lexicon_size=30):
    """Bag-of-words linearly separable: every fake doc carries fake-marker
    words and no true markers, and vice versa."""
    rng = np.random.default_rng([seed, 12])
    common = _lexicon(rng, _SYLLABLES_A, lexicon_size)
    docs = []
    for i in range(n):
        label = i % 2
        markers = FAKE_MARKERS if label == 1 else TRUE_MARKERS
        n_words = int(rng.integers(*words_per_doc))
        body = _doc(rng, common, n_words).split(" ")
        k = int(rng.integers(2, 4))
        for _ in range(k):
            body.insert(int(rng.integers(len(body) + 1)),
                        markers[int(rng.integers(len(markers)))])
        docs.append(Document(text=" ".join(body), label=label))
    return docs


@pytest.fixture(scope="session")
def small_vocab():
    docs_a, docs_b = two_domain_corpus(seed=0, n_docs=20)
    texts = [d.text for d in docs_a + docs_b] + [d.text for d in separable_dataset(0)]
    return train_vocab(texts, 160)


@pytest.fixture(scope="session")
def small_chunks(small_vocab):
    docs_a, docs_b = two_domain_corpus(seed=0, n_docs=20)
    return chunk_stream(docs_b, small_vocab, 32)


# the finite-difference checks' invariant tolerance, at the step 1e-5 that
# `grad_check` below takes by default
FD_TOL = 1e-4


def grad_check(f, params, fd_step=1e-5):
    """Max relative error between analytic gradients and central differences.

    f: zero-argument callable returning a scalar Tensor built from `params`.
    """
    for p in params:
        p.zero_grad()
    out = f()
    if not np.isfinite(out.data):
        raise ValueError("grad_check: non-finite objective")
    out.backward()
    analytic = [p.grad.copy() for p in params]

    worst = 0.0
    for p, a in zip(params, analytic):
        flat = p.data.reshape(-1)
        aflat = a.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + fd_step
            hi = float(f().data)
            flat[i] = orig - fd_step
            lo = float(f().data)
            flat[i] = orig
            if not (np.isfinite(hi) and np.isfinite(lo)):
                raise ValueError("grad_check: non-finite objective during perturbation")
            fd = (hi - lo) / (2 * fd_step)
            denom = max(abs(aflat[i]), abs(fd), 1e-8)
            worst = max(worst, abs(aflat[i] - fd) / denom)
    return worst


def reference_linear(x, w, b, relu, c):
    """`linear`'s value and its x, w, b gradients for upstream `c`, in NumPy."""
    z = x @ w + b
    g = c
    if relu:
        g = g * (z > 0)
        z = np.maximum(z, 0.0)
    return z, [g @ w.T, _unbroadcast(np.swapaxes(x, -1, -2) @ g, w.shape),
               _unbroadcast(g, b.shape)]


def reference_attention(q, k, v, num_heads, bias, c):
    """`attention`'s value and its q, k, v gradients for upstream `c`, in
    NumPy: [B, T, d] split into [B, heads, T, hd] views (`c` copied
    contiguous), the scores, a max-shifted row softmax and their VJP, each
    joined back to [B, T, d]."""
    B, T, d = q.shape
    hd = d // num_heads

    def split(a):
        return a.reshape(B, -1, num_heads, hd).transpose(0, 2, 1, 3)

    def join(a):
        return a.transpose(0, 2, 1, 3).reshape(B, -1, d)

    q, k, v, c = split(q), split(k), split(v), np.ascontiguousarray(split(c))
    scale = 1.0 / np.sqrt(hd)
    s = (q @ np.swapaxes(k, -1, -2)) * scale
    if bias is not None:
        s = s + bias
    e = np.exp(s - s.max(axis=-1, keepdims=True))
    p = e / e.sum(axis=-1, keepdims=True)
    gp = c @ np.swapaxes(v, -1, -2)
    gs = p * (gp - (gp * p).sum(axis=-1, keepdims=True)) * scale
    return join(p @ v), [join(gs @ k), join(np.swapaxes(np.swapaxes(q, -1, -2) @ gs, -1, -2)),
                         join(np.swapaxes(p, -1, -2) @ c)]


def reference_layer_norm(x, gamma, beta, c, eps=1e-5):
    """`layer_norm`'s value and its x, gamma, beta gradients for upstream
    `c`, in NumPy, from a kept `xhat`."""
    mu = x.mean(axis=-1, keepdims=True)
    inv = 1.0 / np.sqrt(x.var(axis=-1, keepdims=True) + eps)
    xhat = (x - mu) * inv
    d, sum_axes = x.shape[-1], tuple(range(c.ndim - 1))
    gx = c * gamma
    return xhat * gamma + beta, [
        inv / d * (d * gx - gx.sum(axis=-1, keepdims=True)
                   - xhat * (gx * xhat).sum(axis=-1, keepdims=True)),
        (c * xhat).sum(axis=sum_axes), c.sum(axis=sum_axes)]


def tiny_model(vocab, seed=0, **kw):
    base = dict(vocab_size=vocab.size, num_layers=1, d_model=16, num_heads=2,
                d_ff=32, max_len=64, dropout_rate=0.1, head_hidden=(8, 4),
                head_dropout=0.5, seed=seed)
    base.update(kw)
    return TransformerModel(EncoderConfig(**base))


def traced_growth(fn):
    """(fn(), bytes that tracemalloc traces more after fn returns than before
    it ran, while its result is held)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()


def traced_peak(fn):
    """(fn(), the most bytes tracemalloc traced above its start while fn
    ran)."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return out, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def tiny_train_config(**kw):
    cfg = TrainConfig(
        mlm=MLMConfig(epochs=2, batch_size=8, peak_lr=1e-3, warmup_steps=1000,
                      weight_decay=0.01),
        finetune=FinetuneConfig(stage1_epochs=2, stage2_epochs=2, batch_size=8,
                                lr_frozen=1e-3, lr_unfrozen=1e-4),
        chunk_size=32,
        seed=0,
        masking=MaskingConfig(),
    )
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


@pytest.fixture
def tiny_checkpoint(small_vocab):
    return Checkpoint(tiny_model(small_vocab))


def rewrite_manifest(path, edit):
    """Apply edit(manifest) to a saved checkpoint, keeping its payload."""
    raw = path.read_bytes()
    (mlen,) = struct.unpack("<Q", raw[8:16])
    manifest = json.loads(raw[16:16 + mlen])
    edit(manifest)
    mbytes = json.dumps(manifest).encode("utf-8")
    path.write_bytes(MAGIC + struct.pack("<Q", len(mbytes)) + mbytes + raw[16 + mlen:])


def poison(src, dst, entry, value):
    """Save the checkpoint at `src` to `dst` with every value of `entry`
    ("param/<name>" or "bn/<layer>/mean|var") set to `value`."""
    ckpt = Checkpoint.load(src)
    kind, name = entry.split("/", 1)
    if kind == "param":
        ckpt.model.params[name].data[...] = value
    else:
        layer, stat = name.rsplit("/", 1)
        getattr(ckpt.model.bn_states[layer], f"running_{stat}")[...] = value
    ckpt.save(dst)


def _config(**values):
    return lambda m: m["config"].update(values)


# manifest values of the wrong type or place, each as (edit, what the error
# says)
BAD_MANIFEST_VALUES = {
    # the config fixes every shape, so a manifest holds no entry table
    "entries-int": (lambda m: m.update(entries=5),
                    "manifest needs the keys config and provenance"),
    "config-list": (lambda m: m.update(config=[]), "config must be an object"),
    "size-str": (_config(num_layers="1"), "config: num_layers must be an int, got '1'"),
    "size-bool": (_config(d_ff=True), "config: d_ff must be an int, got True"),
    "head-int": (_config(head_hidden=5), "config: "),
    "dropout-str": (_config(dropout_rate="0.1"),
                    "config: dropout_rate must be a number in [0, 1), got '0.1'"),
    "head-short": (_config(head_hidden=[8]), "config: head_hidden must be two positive ints"),
    # a header written before the tied MLM head was removed
    "tie-mlm": (_config(tie_mlm=False), "config keys ['tie_mlm'] missing or unknown"),
    # a size whose arrays no machine could allocate: load compares the
    # payload length with the config before it allocates
    "vocab-huge": (_config(vocab_size=10**13), "the config needs "),
    # a layer count whose table alone would take hours to sum: load stops
    # summing once it passes the payload length
    "layers-huge": (_config(num_layers=10**9), "the config needs at least "),
    # the init seed, which load records but draws nothing from
    "seed-str": (_config(seed="abc"), "config: seed must be a non-negative int, got 'abc'"),
    "seed-float": (_config(seed=1.5), "config: seed must be a non-negative int, got 1.5"),
    "seed-negative": (_config(seed=-1), "config: seed must be a non-negative int, got -1"),
    "seed-bool": (_config(seed=True), "config: seed must be a non-negative int, got True"),
    "provenance-int": (lambda m: m.update(provenance=5),
                       "manifest provenance must be an object, got 5"),
    "provenance-list": (lambda m: m.update(provenance=[1]),
                        "manifest provenance must be an object, got [1]"),
    "provenance-str": (lambda m: m.update(provenance="abc"),
                       "manifest provenance must be an object, got 'abc'"),
}
