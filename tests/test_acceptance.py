"""End-to-end acceptance checks for the pipeline.

Each test prints a single pass/fail line for its criterion. Tolerances are
pinned in the assertions. These run on synthetic fixtures at desk scale; the
training criteria are capability/direction checks, not benchmark numbers.
"""

import hashlib
import json
import math
import os
import time

import numpy as np
import pytest
from numpy.testing import assert_allclose

from minidapt import baseline as bl
from minidapt.autodiff import IGNORE_LABEL, bce_with_logits, masked_cross_entropy
from minidapt.checkpoint import Checkpoint
from minidapt.cli import main as cli_main
from minidapt.corpus import Document, chunk_stream
from minidapt.fixtures import two_domain_corpus
from minidapt.masking import MaskingConfig, collate, word_groups
from minidapt.metrics import EvalReport, classification_report, perplexity
from minidapt.model import EncoderConfig, TransformerModel
from minidapt.tokenizer import SPECIALS, EncodedText, Vocabulary, encode
from minidapt.trainer import (adapt_mlm, evaluate, finetune_staged,
                              mlm_validation_loss)

from conftest import grad_check, separable_dataset, tiny_model, tiny_train_config


def report(num, name, ok, detail=""):
    print(f"[acceptance {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num} {name}: {detail}"


def synthetic_vocab(n_plain=200):
    return Vocabulary(list(SPECIALS) + [f"t{i}" for i in range(n_plain)])


def test_01_gradient_oracle():
    start = time.perf_counter()
    cfg = EncoderConfig(vocab_size=50, num_layers=2, d_model=16, num_heads=2,
                        d_ff=32, max_len=8, dropout_rate=0.0,
                        head_hidden=(8, 4), head_dropout=0.0, seed=0)
    model = TransformerModel(cfg)
    rng = np.random.default_rng(0)
    # check at a generic well-conditioned point: the 0.02-std init leaves
    # attention gradients near the finite-difference noise floor, and norm
    # gains far from 1 degrade the normalization layers' conditioning
    for n, p in model.params.items():
        if n.endswith("gamma"):
            p.data = 1.0 + rng.normal(0.0, 0.1, size=p.data.shape)
        elif p.data.ndim == 1:
            p.data = rng.normal(0.0, 0.1, size=p.data.shape)
        else:
            p.data = rng.normal(0.0, 0.3, size=p.data.shape)
    ids = rng.integers(5, 50, size=(2, 8))
    mlm_labels = np.full((2, 8), IGNORE_LABEL, dtype=np.int64)
    mlm_labels[0, 2] = 7
    mlm_labels[0, 5] = 30
    mlm_labels[1, 1] = 12
    cls_labels = np.array([0.0, 1.0])

    def mlm_loss():
        hidden = model.encode_forward(ids, mode="eval")
        return masked_cross_entropy(model.mlm_logits(hidden), mlm_labels)

    def cls_loss():
        hidden = model.encode_forward(ids, mode="eval")
        return bce_with_logits(model.classify_logits(hidden, mode="eval"),
                               cls_labels)

    # The key-projection bias has a mathematically zero gradient (it shifts
    # every attention score for a query equally and softmax is shift
    # invariant), so finite differences on it measure only rounding noise.
    # Assert the near-zero analytically (cancellation dust only) and run the
    # FD sweep on everything else.
    key_bias_zero = True
    for loss in (mlm_loss, cls_loss):
        model.zero_grads()
        loss().backward()
        for n in model.encoder_param_names():
            if n.endswith("attn.wk_b"):
                key_bias_zero &= bool(np.abs(model.params[n].grad).max() < 1e-12)
    enc = [model.params[n] for n in model.encoder_param_names()
           if not n.endswith("attn.wk_b")]
    head = [p for n, p in model.params.items() if n.startswith("head.")]
    mlm_head = [model.params["mlm.w"], model.params["mlm.b"]]
    err_mlm = grad_check(mlm_loss, enc + mlm_head, fd_step=1e-5)
    err_cls = grad_check(cls_loss, enc + head, fd_step=1e-5)
    elapsed = time.perf_counter() - start
    report(1, "gradient oracle",
           key_bias_zero and err_mlm < 1e-4 and err_cls < 1e-4 and elapsed < 60,
           f"mlm {err_mlm:.2e}, bce {err_cls:.2e}, {elapsed:.1f}s")


def test_02_masking_statistics():
    vocab = synthetic_vocab()
    cfg = MaskingConfig(p_mask=0.15, p_wwm=0.0)  # token-level mode only
    rng = np.random.default_rng(20)
    data_rng = np.random.default_rng(21)
    candidates = labeled = n_mask = n_rand = n_keep = 0
    length = 128
    for _ in range(10):
        chunks = [EncodedText(ids=list(data_rng.integers(5, vocab.size, size=length)),
                              word_begin=list(data_rng.random(length) < 0.4))
                  for _ in range(100)]
        batch = collate(chunks, cfg, vocab, rng)
        orig = np.array([c.ids for c in chunks])
        sel = batch.labels != IGNORE_LABEL
        candidates += orig.size
        labeled += int(sel.sum())
        n_mask += int((batch.input_ids[sel] == vocab.mask_id).sum())
        n_keep += int((batch.input_ids[sel] == orig[sel]).sum())
        n_rand += int(((batch.input_ids[sel] != vocab.mask_id)
                       & (batch.input_ids[sel] != orig[sel])).sum())
    frac = labeled / candidates
    fm, fr, fk = n_mask / labeled, n_rand / labeled, n_keep / labeled
    ok = (candidates >= 100_000 and abs(frac - 0.15) <= 0.01
          and abs(fm - 0.80) <= 0.02 and abs(fr - 0.10) <= 0.02
          and abs(fk - 0.10) <= 0.02)
    report(2, "masking statistics", ok,
           f"n={candidates}, select {frac:.4f}, split "
           f"{fm:.3f}/{fr:.3f}/{fk:.3f}")


def test_03_whole_word_property():
    vocab = synthetic_vocab(40)
    cfg = MaskingConfig(p_mask=0.15, p_wwm=1.0)  # whole-word mode only
    rng = np.random.default_rng(30)
    data_rng = np.random.default_rng(31)
    partial = 0
    n_chunks = 10_000
    for start in range(0, n_chunks, 100):
        chunks = [EncodedText(ids=list(data_rng.integers(5, vocab.size, size=24)),
                              word_begin=list(data_rng.random(24) < 0.4))
                  for _ in range(100)]
        batch = collate(chunks, cfg, vocab, rng)
        for chunk, labels in zip(chunks, batch.labels):
            sel = set(np.flatnonzero(labels != IGNORE_LABEL))
            for group in word_groups(chunk.word_begin):
                hit = sum(1 for p in group if p in sel)
                if hit not in (0, len(group)):
                    partial += 1
    report(3, "whole-word masking", partial == 0,
           f"{partial} partially-masked words in {n_chunks} chunks")


def test_04_chunking_conservation(small_vocab):
    rng = np.random.default_rng(40)
    chars = list("bdgkmnaeo")
    bad = 0
    for _ in range(100):
        docs = [Document(text=" ".join(
                    "".join(rng.choice(chars, size=rng.integers(2, 8)))
                    for _ in range(rng.integers(5, 120))))
                for _ in range(rng.integers(1, 6))]
        total = sum(len(encode(small_vocab, d.text).ids) for d in docs)
        chunks = chunk_stream(docs, small_vocab, 128)
        if any(len(c.ids) != 128 for c in chunks):
            bad += 1
        elif sum(len(c.ids) for c in chunks) != (total // 128) * 128:
            bad += 1
    report(4, "chunking conservation", bad == 0, f"{bad}/100 corpora failed")


def test_05_perplexity_identities(small_vocab, small_chunks, tiny_checkpoint):
    ok_zero = perplexity(0.0) == 1.0
    model = tiny_checkpoint.model
    model.params["mlm.w"].data[:] = 0.0
    model.params["mlm.b"].data[:] = 0.0
    nats = mlm_validation_loss(tiny_checkpoint, small_chunks[:4],
                               tiny_train_config(), small_vocab)
    ppl = 2.0 ** (nats / math.log(2))
    rel = abs(ppl - small_vocab.size) / small_vocab.size
    report(5, "perplexity identities", ok_zero and rel < 1e-9,
           f"PPL(0)={perplexity(0.0)}, uniform rel err {rel:.2e}")


def test_06_freezing_invariant(small_vocab, tiny_checkpoint):
    def tensor_hash(model, names):
        h = hashlib.sha256()
        for n in sorted(names):
            h.update(model.params[n].data.tobytes())
        return h.hexdigest()

    cfg = tiny_train_config()
    cfg.finetune.stage2_epochs = 0
    docs = separable_dataset(seed=6)
    enc_before = tensor_hash(tiny_checkpoint.model,
                             tiny_checkpoint.model.encoder_param_names())
    head = [n for n in tiny_checkpoint.model.params if n.startswith("head.")]
    head_before = tensor_hash(tiny_checkpoint.model, head)
    out, _ = finetune_staged(tiny_checkpoint,
                             (docs[:44], docs[44:52], docs[52:]),
                             cfg, small_vocab)
    enc_same = tensor_hash(out.model, out.model.encoder_param_names()) == enc_before
    head_moved = tensor_hash(out.model, head) != head_before
    report(6, "freezing invariant", enc_same and head_moved,
           f"encoder unchanged={enc_same}, head changed={head_moved}")


def test_07_overfit_capability(small_vocab):
    start = time.perf_counter()
    docs = separable_dataset(seed=0)
    cfg = tiny_train_config()
    cfg.finetune.stage1_epochs = 20
    cfg.finetune.stage2_epochs = 20
    # learning rates are scaled up from the full-size defaults: at desk scale
    # 40 epochs of 8 batches cannot move weights meaningfully at 1e-5
    cfg.finetune.lr_frozen = 3e-3
    cfg.finetune.lr_unfrozen = 3e-4
    ckpt = Checkpoint(tiny_model(small_vocab))
    out, _ = finetune_staged(ckpt, (docs, docs[:8], docs[:8]), cfg, small_vocab)
    # the returned checkpoint's eval-mode accuracy on its own training docs;
    # the curves' train_acc carries head dropout
    acc = evaluate(out, docs, "classify", cfg, small_vocab).accuracy
    elapsed = time.perf_counter() - start
    report(7, "overfit capability", acc >= 0.99 and elapsed < 300,
           f"train acc {acc:.3f} in {elapsed:.1f}s")


def test_08_adaptation_reduces_perplexity(small_vocab):
    _, docs_b = two_domain_corpus(seed=8, n_docs=40)
    chunks = chunk_stream(docs_b, small_vocab, 32)
    n = len(chunks)
    splits = (chunks[:int(n * 0.8)], chunks[int(n * 0.8):int(n * 0.9)],
              chunks[int(n * 0.9):])
    cfg = tiny_train_config()
    cfg.mlm.epochs = 4
    vanilla = Checkpoint(tiny_model(small_vocab))
    ppl_vanilla = evaluate(vanilla, splits[2], "mlm", cfg, small_vocab).perplexity
    adapted, _ = adapt_mlm(vanilla, splits, cfg, small_vocab)
    ppl_adapted = evaluate(adapted, splits[2], "mlm", cfg, small_vocab).perplexity
    drop = 1.0 - ppl_adapted / ppl_vanilla
    report(8, "adaptation perplexity drop", drop >= 0.20,
           f"vanilla {ppl_vanilla:.2f} -> adapted {ppl_adapted:.2f} "
           f"({drop:.0%} drop)")


_TINY_CLI = [
    "--set", "encoder.num_layers=1",
    "--set", "encoder.d_model=16",
    "--set", "encoder.num_heads=2",
    "--set", "encoder.d_ff=32",
    "--set", "encoder.max_len=64",
    "--set", "encoder.head_hidden=[8,4]",
    "--set", "chunk_size=32",
    "--set", "mlm.epochs=2",
    "--set", "mlm.batch_size=8",
    "--set", "mlm.peak_lr=0.001",
    "--set", "finetune.stage1_epochs=2",
    "--set", "finetune.stage2_epochs=2",
    "--set", "finetune.batch_size=8",
    "--set", "finetune.lr_frozen=0.003",
    "--set", "finetune.lr_unfrozen=0.0003",
]


def _run_pipeline(root, tag):
    """fixtures -> vocab -> adapt -> finetune(adapted & vanilla) -> baseline;
    returns dirs."""
    d = {k: os.path.join(root, f"{tag}_{k}")
         for k in ("fix", "vocab", "adapt", "ft_adapted", "ft_vanilla", "baseline")}
    seed = ["--seed", "11"]

    def run(*argv):
        assert cli_main([str(a) for a in argv]) == 0

    run("fixtures", "generate", *seed, "--out", d["fix"])
    corpus_b = os.path.join(d["fix"], "corpus_b.jsonl")
    dataset = os.path.join(d["fix"], "dataset.jsonl")
    run("vocab", "--corpus", os.path.join(d["fix"], "corpus_a.jsonl"),
        corpus_b, dataset, "--set", "vocab_target_size=200", *seed,
        "--out", d["vocab"], *_TINY_CLI)
    vocab = os.path.join(d["vocab"], "vocab.json")
    run("adapt", "--vocab", vocab, "--corpus", corpus_b, *seed,
        "--out", d["adapt"], *_TINY_CLI)
    run("finetune", "--vocab", vocab, "--dataset", dataset,
        "--base", os.path.join(d["adapt"], "adapted.ckpt"), *seed,
        "--out", d["ft_adapted"], *_TINY_CLI)
    run("finetune", "--vocab", vocab, "--dataset", dataset,
        "--base", "vanilla", *seed, "--out", d["ft_vanilla"], *_TINY_CLI)
    run("baseline", "--dataset", dataset, *seed, "--out", d["baseline"])
    return d


@pytest.fixture(scope="module")
def pipeline_runs(tmp_path_factory):
    root = str(tmp_path_factory.mktemp("acceptance"))
    return root, _run_pipeline(root, "run1"), _run_pipeline(root, "run2")


def test_09_pipeline_and_comparison(pipeline_runs, capsys):
    root, d, _ = pipeline_runs
    reports = {}
    for key in ("ft_adapted", "ft_vanilla"):
        rep = EvalReport.load(os.path.join(d[key], "report.json"))
        assert rep.task == "classify"
        for v in (rep.accuracy, rep.precision, rep.recall, rep.f1):
            assert 0.0 <= v <= 1.0
        reports[key] = rep
    cmp_out = os.path.join(root, "cmp")
    code = cli_main(["compare", os.path.join(d["ft_adapted"], "report.json"),
                     os.path.join(d["ft_vanilla"], "report.json"),
                     "--out", cmp_out])
    table = capsys.readouterr().out
    ok = (code == 0 and "F1-score" in table
          and os.path.exists(os.path.join(cmp_out, "comparison.csv")))
    report(9, "pipeline both paths + comparison", ok,
           f"F1 adapted {reports['ft_adapted'].f1:.3f} vs "
           f"vanilla {reports['ft_vanilla'].f1:.3f} (observational)")


def test_10_metrics_oracle():
    rng = np.random.default_rng(100)
    mismatches = 0
    for _ in range(1000):
        n = int(rng.integers(1, 21))
        preds = rng.random(n)
        labels = rng.integers(0, 2, size=n)
        tp = fp = tn = fn = 0
        for p, y in zip(preds, labels):
            yhat = 1 if p >= 0.5 else 0
            tp += yhat == 1 and y == 1
            fp += yhat == 1 and y == 0
            tn += yhat == 0 and y == 0
            fn += yhat == 0 and y == 1
        rep = classification_report(preds, labels)
        expect = {
            "accuracy": (tp + tn) / n,
            "precision": tp / (tp + fp) if tp + fp else 0.0,
            "recall": tp / (tp + fn) if tp + fn else 0.0,
        }
        pr, rc = expect["precision"], expect["recall"]
        expect["f1"] = 2 * pr * rc / (pr + rc) if pr + rc else 0.0
        if any(getattr(rep, k) != v for k, v in expect.items()):
            mismatches += 1
    report(10, "metrics oracle", mismatches == 0,
           f"{mismatches}/1000 fixtures disagreed")


def test_11_baseline_oracles():
    tfidf = bl.fit_tfidf(["a b", "a"])
    idf_b = math.log(3 / 2) + 1
    raw = np.array([2.0, idf_b])
    expected = raw / np.linalg.norm(raw)
    got = bl.transform(tfidf, "a a b")
    tfidf_ok = (abs(tfidf.idf[tfidf.term_index["a"]] - 1.0) < 1e-9
                and abs(tfidf.idf[tfidf.term_index["b"]] - idf_b) < 1e-9
                and np.allclose(got[[tfidf.term_index["a"],
                                     tfidf.term_index["b"]]],
                                expected, atol=1e-9))
    docs = separable_dataset(seed=11)
    model = bl.fit_tfidf([d.text for d in docs[:48]])
    X_tr = bl.transform_all(model, docs[:48])
    X_va = bl.transform_all(model, docs[48:])
    y_tr = np.array([d.label for d in docs[:48]])
    y_va = np.array([d.label for d in docs[48:]])
    lsvm, _ = bl.tune_lsvm((X_tr, y_tr), (X_va, y_va), epochs=60)
    f1 = classification_report(lsvm.predict(X_va).astype(float), y_va).f1
    report(11, "baseline oracles", tfidf_ok and f1 == 1.0,
           f"tfidf hand values ok={tfidf_ok}, separable F1={f1}")


def test_12_determinism(pipeline_runs):
    _, d1, d2 = pipeline_runs
    diffs = []
    for key in d1:  # every file of every step, manifests included
        names = sorted(os.listdir(d1[key]))
        if names != sorted(os.listdir(d2[key])):
            diffs.append(f"{key}/ file names")
        for name in names:
            a = open(os.path.join(d1[key], name), "rb").read()
            b = open(os.path.join(d2[key], name), "rb").read()
            if a != b:
                diffs.append(f"{key}/{name}")
    report(12, "run-to-run determinism", not diffs,
           "byte-identical" if not diffs else "differs: " + ", ".join(diffs))
