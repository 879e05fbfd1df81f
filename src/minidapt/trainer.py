"""Training loops: MLM domain adaptation and two-stage classifier fine-tuning
with best-validation-checkpoint selection and curve logging."""

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .autodiff import (IGNORE_LABEL, Tensor, bce_with_logits, masked_cross_entropy,
                       no_grad, stable_sigmoid)
from .corpus import SplitSpec
from .masking import MaskingConfig, collate
from .metrics import classification_report, mlm_report
from .optim import AdamState, adam_step, lr_at, set_trainable

# rng stream tags, combined with the run seed so every consumer gets an
# independent deterministic stream
_SHUFFLE, _TRAIN_MASK, _VAL_MASK, _DROPOUT, _FT_SHUFFLE, _FT_DROPOUT = range(6)


def _finite(value):
    """A number that is neither infinite nor NaN; a bool is no number."""
    return (not isinstance(value, bool) and isinstance(value, (int, float))
            and math.isfinite(value))


def _check(section, cfg, at_least=(), positive=()):
    """Reject a count below its minimum or a learning rate that is not a
    finite positive number, naming the key."""
    for name, low in at_least:
        value = getattr(cfg, name)
        if isinstance(value, bool) or not isinstance(value, int) or value < low:
            raise ValueError(f"{section}.{name} must be an integer >= {low}")
    for name in positive:
        value = getattr(cfg, name)
        if not (_finite(value) and value > 0):
            raise ValueError(f"{section}.{name} must be positive")


@dataclass
class MLMConfig:
    epochs: int = 7
    batch_size: int = 16
    peak_lr: float = 1e-4
    warmup_steps: int = 1000
    weight_decay: float = 0.01

    def __post_init__(self):
        _check("mlm", self, [("epochs", 0), ("batch_size", 1), ("warmup_steps", 0)],
               ["peak_lr"])
        if not (_finite(self.weight_decay) and self.weight_decay >= 0):
            raise ValueError("mlm.weight_decay must be non-negative")


@dataclass
class FinetuneConfig:
    stage1_epochs: int = 20
    stage2_epochs: int = 20
    batch_size: int = 32
    lr_frozen: float = 1e-5
    lr_unfrozen: float = 1e-6

    def __post_init__(self):
        # a batch of one cannot run train-mode batch norm
        _check("finetune", self, [("stage1_epochs", 0), ("stage2_epochs", 0), ("batch_size", 2)],
               ["lr_frozen", "lr_unfrozen"])


@dataclass
class TrainConfig:
    mlm: MLMConfig = field(default_factory=MLMConfig)
    finetune: FinetuneConfig = field(default_factory=FinetuneConfig)
    split: SplitSpec = field(default_factory=SplitSpec)
    masking: MaskingConfig = field(default_factory=MaskingConfig)
    chunk_size: int = 128
    seed: int = 0


@dataclass
class CurvePoint:
    """One epoch of a curve. train_loss and train_acc are over the batches as
    they were trained (train mode, dropout on); val_loss and val_acc are an
    eval-mode pass over the validation set. The accuracies are for the
    fine-tuning stages only."""
    stage: str
    epoch: int
    train_loss: float
    val_loss: float
    train_acc: float = None
    val_acc: float = None


def write_curves(points, path):
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["stage", "epoch", "train_loss", "val_loss", "train_acc", "val_acc"])
        for p in points:
            w.writerow([p.stage, p.epoch, repr(p.train_loss), repr(p.val_loss),
                        "" if p.train_acc is None else repr(p.train_acc),
                        "" if p.val_acc is None else repr(p.val_acc)])


def _batches(n, batch_size, merge_singleton=False):
    out = [list(range(i, min(i + batch_size, n))) for i in range(0, n, batch_size)]
    if merge_singleton and len(out) > 1 and len(out[-1]) == 1:
        out[-2].extend(out.pop())
    return out


def _mlm_batch_loss(model, batch, mode, rng=None):
    """The last encoder layer, the MLM head and the loss run on the labelled
    positions only. Each row's queries are its labelled positions in order,
    padded with unlabelled ones to the batch's largest count, so the valid
    query slots, read row-major, are `labels[labeled]`'s order."""
    labeled = batch.labels != IGNORE_LABEL
    counts = labeled.sum(axis=1)
    width = int(counts.max())
    queries = np.argsort(~labeled, axis=1, kind="stable")[:, :width]
    hidden = model.encode_at(batch.input_ids, queries, pad_mask=None, mode=mode, rng=rng)
    valid = np.arange(width) < counts[:, None]
    loss = masked_cross_entropy(model.mlm_logits(hidden[valid]), batch.labels[labeled])
    return loss, int(counts.sum())


def mlm_validation_loss(ckpt, chunks, cfg, vocab):
    """Mean cross-entropy (nats per labeled token) with fixed-seed masking,
    unshuffled."""
    model = ckpt.model
    total, count = 0.0, 0
    rng = np.random.default_rng([cfg.seed, _VAL_MASK])
    with no_grad():
        for idx in _batches(len(chunks), cfg.mlm.batch_size):
            batch = collate([chunks[i] for i in idx], cfg.masking, vocab, rng)
            loss, n = _mlm_batch_loss(model, batch, mode="eval")
            total += float(loss.data) * n
            count += n
    if count == 0:
        raise ValueError("mlm validation: no labeled positions")
    return total / count


def adapt_mlm(init, splits, cfg, vocab):
    """Run the MLM adaptation loop on the encoder and the MLM head, leaving the
    classifier head as it is; returns (final checkpoint, curve points)."""
    train_chunks, val_chunks = splits[0], splits[1]
    if not train_chunks or not val_chunks:
        raise ValueError("adapt_mlm: empty split")
    if cfg.mlm.epochs == 0:
        return init.copy(), []
    ckpt = init.copy()
    model = ckpt.model
    set_trainable(model, "encoder+mlm")
    params = list(model.params.values())
    adam = AdamState()

    n_batches = len(_batches(len(train_chunks), cfg.mlm.batch_size))
    total_steps = cfg.mlm.epochs * n_batches

    shuffle_rng = np.random.default_rng([cfg.seed, _SHUFFLE])
    curves = []
    step = 0
    for epoch in range(1, cfg.mlm.epochs + 1):
        order = shuffle_rng.permutation(len(train_chunks))
        epoch_total, epoch_count = 0.0, 0
        for bidx, idx in enumerate(_batches(len(train_chunks), cfg.mlm.batch_size)):
            mask_rng = np.random.default_rng([cfg.seed, _TRAIN_MASK, epoch, bidx])
            drop_rng = np.random.default_rng([cfg.seed, _DROPOUT, epoch, bidx])
            batch = collate([train_chunks[order[i]] for i in idx],
                            cfg.masking, vocab, mask_rng)
            model.zero_grads()
            loss, n = _mlm_batch_loss(model, batch, mode="train", rng=drop_rng)
            loss.backward()
            step += 1
            lr = lr_at(step, cfg.mlm.peak_lr, cfg.mlm.warmup_steps, total_steps)
            adam_step(params, adam, lr, cfg.mlm.weight_decay)
            epoch_total += float(loss.data) * n
            epoch_count += n
        train_loss = epoch_total / max(epoch_count, 1)
        val_loss = mlm_validation_loss(ckpt, val_chunks, cfg, vocab)
        curves.append(CurvePoint("mlm", epoch, train_loss, val_loss))
    ckpt.provenance = {"stage": "mlm", "epoch": cfg.mlm.epochs,
                       "val_loss": curves[-1].val_loss}
    return ckpt, curves


def encode_examples(docs, vocab, max_len):
    """CLS + subword ids + SEP, truncated then PAD-padded to max_len.
    Returns (ids [N,T], pad_mask [N,T], labels [N])."""
    from .tokenizer import encode
    if max_len < 2:
        raise ValueError(f"max_len must be at least 2 to hold CLS and SEP, got {max_len}")
    ids = np.full((len(docs), max_len), vocab.pad_id, dtype=np.int64)
    mask = np.zeros((len(docs), max_len), dtype=bool)
    labels = np.zeros(len(docs), dtype=np.float64)
    for i, doc in enumerate(docs):
        body = encode(vocab, doc.text).ids[:max_len - 2]
        row = [vocab.cls_id] + body + [vocab.sep_id]
        ids[i, :len(row)] = row
        mask[i, :len(row)] = True
        if doc.label is None:
            raise ValueError("encode_examples: document without label")
        labels[i] = doc.label
    return ids, mask, labels


def _trim(ids, mask):
    """Cut a batch of left-aligned, PAD-padded rows to its longest real row.
    A PAD key gets attention weight exactly 0 and nothing reads a PAD query,
    so only the float summation order and the dropout mask's shape change."""
    w = int(mask.sum(axis=1).max())
    return ids[:, :w], mask[:, :w]


def _cls_rows(model, ids, mask, batch_size):
    """Eval-mode CLS-slot rows [N, d] of a dataset, the head's only input;
    `classify_logits` takes a batch of them as hidden states rows[idx][:, None]."""
    rows = np.empty((len(ids), model.config.d_model))
    with no_grad():
        for idx in _batches(len(ids), batch_size):
            b_ids, b_mask = _trim(ids[idx], mask[idx])
            rows[idx] = model.encode_cls(b_ids, pad_mask=b_mask, mode="eval").data[:, 0]
    return rows


def _head_eval(model, rows, labels, batch_size):
    """Eval-mode mean loss of the head on CLS rows and its classification report."""
    probs = np.empty(len(rows))
    total = 0.0
    with no_grad():
        for idx in _batches(len(rows), batch_size):
            logits = model.classify_logits(Tensor(rows[idx][:, None]), mode="eval")
            total += float(bce_with_logits(logits, labels[idx]).data) * len(idx)
            probs[idx] = stable_sigmoid(logits.data)
    return total / len(rows), classification_report(probs, labels)


def finetune_staged(base, dataset_splits, cfg, vocab):
    """Two-stage fine-tuning: head-only at lr_frozen, then full model at
    lr_unfrozen from the stage-1 best weights, each stage with a fresh Adam
    state; returns the checkpoint with the lowest validation loss seen in
    either stage, plus curve points.

    Stage 1 trains the head on the frozen encoder's eval-mode CLS rows,
    encoded once, as a frozen base runs; head dropout and train-mode batch
    norm still apply. A curve's train_acc is the accuracy of the train-mode
    logits of each batch as it was trained."""
    train_docs, val_docs = dataset_splits[0], dataset_splits[1]
    if not train_docs or not val_docs:
        raise ValueError("finetune_staged: empty split")
    ft = cfg.finetune
    if ft.stage1_epochs == 0 and ft.stage2_epochs == 0:
        return base.copy(), []
    max_len = base.model.config.max_len
    tr_ids, tr_mask, tr_labels = encode_examples(train_docs, vocab, max_len)
    va_ids, va_mask, va_labels = encode_examples(val_docs, vocab, max_len)

    curves = []
    best = None  # (val_loss, checkpoint)

    def run_stage(ckpt, stage_idx, stage_name, selector, epochs, lr):
        nonlocal best
        if epochs == 0:
            return
        model = ckpt.model
        set_trainable(model, selector)
        params = list(model.params.values())
        adam = AdamState()
        frozen = selector == "head-only"
        if frozen:
            tr_rows = _cls_rows(model, tr_ids, tr_mask, ft.batch_size)
            va_rows = _cls_rows(model, va_ids, va_mask, ft.batch_size)
        shuffle_rng = np.random.default_rng([cfg.seed, _FT_SHUFFLE, stage_idx])
        for epoch in range(1, epochs + 1):
            order = shuffle_rng.permutation(len(tr_ids))
            total, probs = 0.0, np.empty(len(tr_ids))
            for bidx, idx in enumerate(_batches(len(tr_ids), ft.batch_size,
                                                merge_singleton=True)):
                sel = order[idx]
                drop_rng = np.random.default_rng(
                    [cfg.seed, _FT_DROPOUT, stage_idx, epoch, bidx])
                model.zero_grads()
                if frozen:
                    hidden = Tensor(tr_rows[sel][:, None])
                else:
                    b_ids, b_mask = _trim(tr_ids[sel], tr_mask[sel])
                    hidden = model.encode_cls(b_ids, pad_mask=b_mask,
                                              mode="train", rng=drop_rng)
                logits = model.classify_logits(hidden, mode="train", rng=drop_rng)
                loss = bce_with_logits(logits, tr_labels[sel])
                loss.backward()
                adam_step(params, adam, lr)
                total += float(loss.data) * len(sel)
                probs[sel] = stable_sigmoid(logits.data)
            if not frozen:
                va_rows = _cls_rows(model, va_ids, va_mask, ft.batch_size)
            val_loss, val_report = _head_eval(model, va_rows, va_labels, ft.batch_size)
            curves.append(CurvePoint(stage_name, epoch, total / len(tr_ids), val_loss,
                                     classification_report(probs, tr_labels).accuracy,
                                     val_report.accuracy))
            if best is None or val_loss < best[0]:
                snap = ckpt.copy()
                snap.provenance = {"stage": stage_name, "epoch": epoch,
                                   "val_loss": val_loss}
                best = (val_loss, snap)

    ckpt = base.copy()
    run_stage(ckpt, 1, "frozen", "head-only", ft.stage1_epochs, ft.lr_frozen)
    stage2_start = best[1].copy() if best is not None else ckpt
    run_stage(stage2_start, 2, "unfrozen", "all", ft.stage2_epochs, ft.lr_unfrozen)
    return best[1], curves


def evaluate(ckpt, testset, task, cfg, vocab):
    """EvalReport on held-out data: perplexity for mlm, classification metrics otherwise."""
    if task == "mlm":
        if not testset:
            raise ValueError("evaluate: empty test set")
        nats = mlm_validation_loss(ckpt, testset, cfg, vocab)
        return mlm_report(nats, len(testset))
    elif task == "classify":
        if not testset:
            raise ValueError("evaluate: empty test set")
        ids, mask, labels = encode_examples(testset, vocab, ckpt.model.config.max_len)
        rows = _cls_rows(ckpt.model, ids, mask, cfg.finetune.batch_size)
        return _head_eval(ckpt.model, rows, labels, cfg.finetune.batch_size)[1]
    raise ValueError(f"unknown task {task!r}")
