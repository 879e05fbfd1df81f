import json
import struct

import numpy as np
import pytest

from minidapt.checkpoint import MAGIC, Checkpoint
from minidapt.corpus import chunk_stream
from minidapt.fixtures import separable_dataset, two_domain_corpus
from minidapt.masking import MaskingConfig
from minidapt.model import EncoderConfig, TransformerModel
from minidapt.tokenizer import train_vocab
from minidapt.trainer import FinetuneConfig, MLMConfig, TrainConfig


@pytest.fixture(scope="session")
def small_vocab():
    docs_a, docs_b = two_domain_corpus(seed=0, n_docs=20)
    texts = [d.text for d in docs_a + docs_b] + [d.text for d in separable_dataset(0)]
    return train_vocab(texts, 160)


@pytest.fixture(scope="session")
def small_chunks(small_vocab):
    docs_a, docs_b = two_domain_corpus(seed=0, n_docs=20)
    return chunk_stream(docs_b, small_vocab, 32)


# the finite-difference checks' invariant tolerance, at grad_check's step 1e-5
FD_TOL = 1e-4


def tiny_model(vocab, seed=0, **kw):
    base = dict(vocab_size=vocab.size, num_layers=1, d_model=16, num_heads=2,
                d_ff=32, max_len=64, dropout_rate=0.1, head_hidden=(8, 4),
                head_dropout=0.5, seed=seed)
    base.update(kw)
    return TransformerModel(EncoderConfig(**base))


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
