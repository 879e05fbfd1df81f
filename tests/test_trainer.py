import copy
import hashlib
import math
import weakref

import numpy as np
import pytest
from numpy.testing import assert_allclose

from minidapt.autodiff import (IGNORE_LABEL, Tensor, bce_with_logits,
                               masked_cross_entropy, stable_sigmoid)
from minidapt.checkpoint import Checkpoint
from minidapt.fixtures import separable_dataset
from minidapt.masking import MaskingConfig, collate
from minidapt.model import TransformerModel
from minidapt.optim import AdamState, adam_step
from minidapt.tokenizer import EncodedText
from minidapt.trainer import (CurvePoint, FinetuneConfig, MLMConfig, _batches,
                              _cls_rows, _head_eval, _mlm_batch_loss, _trim, adapt_mlm,
                              encode_examples, evaluate, finetune_staged,
                              mlm_validation_loss, write_curves)

from conftest import tiny_model, tiny_train_config


def encoder_hash(model):
    h = hashlib.sha256()
    for name in sorted(model.encoder_param_names()):
        h.update(model.params[name].data.tobytes())
    return h.hexdigest()


def split_chunks(chunks):
    n = len(chunks)
    return chunks[:int(n * 0.8)], chunks[int(n * 0.8):int(n * 0.9)], chunks[int(n * 0.9):]


def split_docs(docs):
    n = len(docs)
    return docs[:int(n * 0.68)], docs[int(n * 0.68):int(n * 0.8)], docs[int(n * 0.8):]


def test_negative_weight_decay_rejected():
    with pytest.raises(ValueError, match="weight_decay"):
        MLMConfig(weight_decay=-1)


# (config class, field, a value it rejects, what the error says)
IMPOSSIBLE_SETTINGS = [
    (MLMConfig, "epochs", -1, "mlm.epochs must be an integer >= 0"),
    (MLMConfig, "batch_size", 0, "mlm.batch_size must be an integer >= 1"),
    (MLMConfig, "peak_lr", 0.0, "mlm.peak_lr must be positive"),
    (MLMConfig, "warmup_steps", -5, "mlm.warmup_steps must be an integer >= 0"),
    (FinetuneConfig, "stage1_epochs", -1, "finetune.stage1_epochs must be an integer >= 0"),
    (FinetuneConfig, "stage2_epochs", 1.5, "finetune.stage2_epochs must be an integer >= 0"),
    (FinetuneConfig, "batch_size", 1, "finetune.batch_size must be an integer >= 2"),
    (FinetuneConfig, "lr_frozen", -0.1, "finetune.lr_frozen must be positive"),
    (FinetuneConfig, "lr_unfrozen", "1e-6", "finetune.lr_unfrozen must be positive"),
    # a rate that is not finite: inf passes "> 0" and NaN passes "< 0"
    (MLMConfig, "peak_lr", math.inf, "mlm.peak_lr must be positive"),
    (MLMConfig, "weight_decay", math.nan, "mlm.weight_decay must be non-negative"),
    (MLMConfig, "weight_decay", math.inf, "mlm.weight_decay must be non-negative"),
    (MLMConfig, "weight_decay", "0.01", "mlm.weight_decay must be non-negative"),
    (FinetuneConfig, "lr_frozen", math.inf, "finetune.lr_frozen must be positive"),
    (FinetuneConfig, "lr_unfrozen", math.inf, "finetune.lr_unfrozen must be positive"),
]


@pytest.mark.parametrize("cls, name, value, message", IMPOSSIBLE_SETTINGS)
def test_impossible_setting_rejected(cls, name, value, message):
    with pytest.raises(ValueError, match=message):
        cls(**{name: value})


class TestAdaptMlm:
    def test_zero_epochs_identity(self, small_vocab, small_chunks, tiny_checkpoint):
        cfg = tiny_train_config()
        cfg.mlm.epochs = 0
        out, curves = adapt_mlm(tiny_checkpoint, split_chunks(small_chunks),
                                cfg, small_vocab)
        assert curves == []
        for name, p in tiny_checkpoint.model.params.items():
            assert np.array_equal(out.model.params[name].data, p.data)

    def test_uniform_logits_loss_is_log_vocab(self, small_vocab, small_chunks,
                                              tiny_checkpoint):
        model = tiny_checkpoint.model
        model.params["mlm.w"].data[:] = 0.0
        model.params["mlm.b"].data[:] = 0.0
        cfg = tiny_train_config()
        nats = mlm_validation_loss(tiny_checkpoint, small_chunks[:4], cfg, small_vocab)
        # uniform prediction: H = log2(V) bits per masked token
        assert_allclose(nats / math.log(2), math.log2(small_vocab.size), rtol=1e-12)

    def test_loss_decreases(self, small_vocab, small_chunks, tiny_checkpoint):
        cfg = tiny_train_config()
        cfg.mlm.epochs = 3
        out, curves = adapt_mlm(tiny_checkpoint, split_chunks(small_chunks),
                                cfg, small_vocab)
        assert curves[-1].train_loss < curves[0].train_loss
        assert len(curves) == 3
        assert out.provenance["stage"] == "mlm"

    def test_classifier_head_keeps_its_init(self, small_vocab, small_chunks,
                                            tiny_checkpoint):
        init = tiny_checkpoint.model
        out, _ = adapt_mlm(tiny_checkpoint, split_chunks(small_chunks),
                           tiny_train_config(), small_vocab)
        for name in init.head_param_names():
            assert out.model.params[name].data.tobytes() == \
                init.params[name].data.tobytes(), name
        for name, s in init.bn_states.items():
            assert out.model.bn_states[name].running_mean.tobytes() == s.running_mean.tobytes()
            assert out.model.bn_states[name].running_var.tobytes() == s.running_var.tobytes()
        assert encoder_hash(out.model) != encoder_hash(init)
        assert not np.array_equal(out.model.params["mlm.b"].data, init.params["mlm.b"].data)

    def test_empty_split_errors(self, small_vocab, tiny_checkpoint):
        with pytest.raises(ValueError):
            adapt_mlm(tiny_checkpoint, ([], [], []), tiny_train_config(), small_vocab)

    def test_each_step_trains_at_the_scheduled_rate(self, small_vocab, small_chunks,
                                                    tiny_checkpoint, monkeypatch):
        import minidapt.trainer as trainer_mod
        lrs = []

        def spy(params, state, lr, weight_decay=0.0):
            lrs.append(lr)
            return adam_step(params, state, lr, weight_decay)

        monkeypatch.setattr(trainer_mod, "adam_step", spy)
        # 3 epochs of 2 batches; the default warmup is capped to 1 step of 6
        cfg = tiny_train_config(mlm=MLMConfig(epochs=3, batch_size=8))
        splits = small_chunks[:16], small_chunks[48:54], small_chunks[54:]
        adapt_mlm(tiny_checkpoint, splits, cfg, small_vocab)
        assert cfg.mlm.peak_lr == 1e-4
        assert lrs == [1e-4] + [1e-4 * (6 - s) / 5 for s in range(2, 7)]
        assert lrs[-1] == 0.0

    def test_ignored_padding_chunks_leave_loss_unchanged(self, small_vocab,
                                                         small_chunks,
                                                         tiny_checkpoint):
        cfg = tiny_train_config()
        val = small_chunks[:4]
        pad_chunk = EncodedText(ids=[small_vocab.pad_id] * 32, word_begin=[True] * 32)
        base = mlm_validation_loss(tiny_checkpoint, val, cfg, small_vocab)
        padded = mlm_validation_loss(tiny_checkpoint, val + [pad_chunk] * 3,
                                     cfg, small_vocab)
        assert_allclose(padded, base, rtol=1e-9)

    def test_deterministic_reruns(self, small_vocab, small_chunks, tmp_path):
        cfg = tiny_train_config()
        outs = []
        for run in range(2):
            init = Checkpoint(tiny_model(small_vocab))
            out, curves = adapt_mlm(init, split_chunks(small_chunks), cfg, small_vocab)
            path = tmp_path / f"run{run}.ckpt"
            out.save(path)
            cpath = tmp_path / f"run{run}.csv"
            write_curves(curves, cpath)
            outs.append((path.read_bytes(), cpath.read_bytes()))
        assert outs[0] == outs[1]


class TestFinetuneStaged:
    def test_zero_epochs_identity(self, small_vocab, tiny_checkpoint):
        cfg = tiny_train_config()
        cfg.finetune.stage1_epochs = 0
        cfg.finetune.stage2_epochs = 0
        docs = separable_dataset(seed=1)
        out, curves = finetune_staged(tiny_checkpoint, split_docs(docs),
                                      cfg, small_vocab)
        assert curves == []
        for name, p in tiny_checkpoint.model.params.items():
            assert np.array_equal(out.model.params[name].data, p.data)

    def test_stage1_freezes_encoder(self, small_vocab, tiny_checkpoint):
        cfg = tiny_train_config()
        cfg.finetune.stage2_epochs = 0
        docs = separable_dataset(seed=1)
        before = encoder_hash(tiny_checkpoint.model)
        head_before = tiny_checkpoint.model.params["head.out.w"].data.copy()
        out, curves = finetune_staged(tiny_checkpoint, split_docs(docs),
                                      cfg, small_vocab)
        assert encoder_hash(out.model) == before
        assert not np.array_equal(out.model.params["head.out.w"].data, head_before)
        assert all(p.stage == "frozen" for p in curves)

    def test_best_checkpoint_has_min_val_loss(self, small_vocab, tiny_checkpoint):
        cfg = tiny_train_config()
        docs = separable_dataset(seed=1)
        out, curves = finetune_staged(tiny_checkpoint, split_docs(docs),
                                      cfg, small_vocab)
        assert len(curves) == cfg.finetune.stage1_epochs + cfg.finetune.stage2_epochs
        assert_allclose(out.provenance["val_loss"],
                        min(p.val_loss for p in curves))

    @pytest.fixture(scope="class")
    def adapted(self, small_vocab, small_chunks):
        out, _ = adapt_mlm(Checkpoint(tiny_model(small_vocab)),
                           split_chunks(small_chunks), tiny_train_config(), small_vocab)
        return out

    def test_mlm_head_untouched(self, small_vocab, adapted):
        cfg = tiny_train_config()
        cfg.finetune.stage1_epochs = 0  # keep a checkpoint of the unfrozen stage
        out, _ = finetune_staged(adapted, split_docs(separable_dataset(seed=1)),
                                 cfg, small_vocab)
        assert out.provenance["stage"] == "unfrozen"
        mlm = [n for n in adapted.model.params if n.startswith("mlm.")]
        assert mlm
        for name in mlm:
            assert np.array_equal(out.model.params[name].data,
                                  adapted.model.params[name].data), name

    def test_depends_only_on_starting_weights(self, small_vocab, adapted):
        """The adapted arm fine-tunes exactly as a fresh checkpoint holding the
        same weights and batch-norm statistics would: no state of the MLM run
        carries over."""
        fresh = Checkpoint(tiny_model(small_vocab, seed=1))
        for name, p in adapted.model.params.items():
            fresh.model.params[name].data = p.data.copy()
        fresh.model.bn_states = copy.deepcopy(adapted.model.bn_states)
        parts = split_docs(separable_dataset(seed=1))
        cfg = tiny_train_config()
        out_a, curves_a = finetune_staged(adapted, parts, cfg, small_vocab)
        out_f, curves_f = finetune_staged(fresh, parts, cfg, small_vocab)
        assert curves_a == curves_f
        for name, p in out_a.model.params.items():
            assert np.array_equal(out_f.model.params[name].data, p.data), name

    def test_stage2_trains_no_mlm_head(self, small_vocab, tiny_checkpoint, monkeypatch):
        import minidapt.trainer as trainer_mod
        states = []
        real = trainer_mod.adam_step

        def spy(params, state, lr, weight_decay=0.0):
            if state not in states:
                states.append(state)
            return real(params, state, lr, weight_decay)

        monkeypatch.setattr(trainer_mod, "adam_step", spy)
        finetune_staged(tiny_checkpoint, split_docs(separable_dataset(seed=1)),
                        tiny_train_config(), small_vocab)
        stage1, stage2 = states
        assert set(stage1.m) == set(tiny_checkpoint.model.head_param_names())
        assert set(stage2.m) == {n for n in tiny_checkpoint.model.params
                                 if not n.startswith("mlm.")}

    def test_stage1_model_is_freed_before_stage2_trains(self, small_vocab, tiny_checkpoint,
                                                        monkeypatch):
        import minidapt.trainer as trainer_mod
        stage1, seen = [], []
        real_set, real_backward = trainer_mod.set_trainable, Tensor.backward

        def set_trainable(model, selector):
            if selector == "head-only":
                stage1.append(weakref.ref(model.params["head.out.w"]))
            else:
                stage1.append(None)  # stage 2 has started
            return real_set(model, selector)

        def backward(self):
            if len(stage1) == 2 and not seen:
                seen.append(stage1[0]())
            return real_backward(self)

        monkeypatch.setattr(trainer_mod, "set_trainable", set_trainable)
        monkeypatch.setattr(Tensor, "backward", backward)
        finetune_staged(tiny_checkpoint, split_docs(separable_dataset(seed=1)),
                        tiny_train_config(), small_vocab)
        # stage 2 started from a copy of the stage-1 best; the model stage 1
        # trained was no longer referenced
        assert seen == [None]

    def test_singleton_tail_batch_merged(self, small_vocab, tiny_checkpoint):
        cfg = tiny_train_config()
        cfg.finetune.batch_size = 8
        cfg.finetune.stage1_epochs = 1
        cfg.finetune.stage2_epochs = 0
        docs = separable_dataset(seed=2, n=40)
        # train split of 27 = 8+8+8+3; shrink to force 8+8+1 -> merged
        parts = (docs[:17], docs[17:30], docs[30:])
        out, curves = finetune_staged(tiny_checkpoint, parts, cfg, small_vocab)
        assert len(curves) == 1  # completed without a batch-norm size error


class TestEvaluate:
    def test_classify_all_correct_gives_ones(self, small_vocab, tiny_checkpoint,
                                             monkeypatch):
        docs = separable_dataset(seed=3, n=12)
        import minidapt.trainer as trainer_mod

        # each CLS row holds its document's label, and the head's logit is
        # +-10 from it, so every probability is on the label's side of 0.5
        def label_rows(model, ids, mask, batch_size):
            return np.array([[d.label] for d in docs], dtype=float)

        def head(self, hidden, mode="eval", rng=None):
            return Tensor(20.0 * (hidden.data[:, 0, 0] - 0.5))

        monkeypatch.setattr(trainer_mod, "_cls_rows", label_rows)
        monkeypatch.setattr(TransformerModel, "classify_logits", head)
        rep = evaluate(tiny_checkpoint, docs, "classify", tiny_train_config(),
                       small_vocab)
        assert rep.accuracy == rep.precision == rep.recall == rep.f1 == 1.0

    def test_mlm_eval_deterministic(self, small_vocab, small_chunks, tiny_checkpoint):
        cfg = tiny_train_config()
        r1 = evaluate(tiny_checkpoint, small_chunks[:6], "mlm", cfg, small_vocab)
        r2 = evaluate(tiny_checkpoint, small_chunks[:6], "mlm", cfg, small_vocab)
        assert r1 == r2
        assert r1.perplexity >= 1.0

    def test_classify_report_ranges(self, small_vocab, tiny_checkpoint):
        docs = separable_dataset(seed=4, n=16)
        rep = evaluate(tiny_checkpoint, docs, "classify", tiny_train_config(),
                       small_vocab)
        for v in (rep.accuracy, rep.precision, rep.recall, rep.f1):
            assert 0.0 <= v <= 1.0

    def test_unknown_task_errors(self, small_vocab, tiny_checkpoint):
        with pytest.raises(ValueError):
            evaluate(tiny_checkpoint, [], "other", tiny_train_config(), small_vocab)


class TestEncodeExamples:
    def test_cls_sep_and_padding(self, small_vocab):
        docs = separable_dataset(seed=5, n=4)
        ids, mask, labels = encode_examples(docs, small_vocab, 64)
        assert ids.shape == (4, 64)
        assert np.all(ids[:, 0] == small_vocab.cls_id)
        for row, m in zip(ids, mask):
            real = row[m]
            assert real[-1] == small_vocab.sep_id
            assert np.all(row[~m] == small_vocab.pad_id)
        assert set(labels) <= {0.0, 1.0}

    def test_truncation(self, small_vocab):
        docs = separable_dataset(seed=5, n=2)
        ids, mask, _ = encode_examples(docs, small_vocab, 8)
        assert ids.shape[1] == 8
        assert np.all(mask.sum(axis=1) <= 8)


class TestCurves:
    def test_csv_format(self, tmp_path):
        points = [CurvePoint("mlm", 1, 2.5, 2.6),
                  CurvePoint("frozen", 1, 0.7, 0.68, 0.5, 0.55)]
        path = tmp_path / "curves.csv"
        write_curves(points, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "stage,epoch,train_loss,val_loss,train_acc,val_acc"
        assert lines[1].startswith("mlm,1,2.5,2.6,,")
        assert lines[2].startswith("frozen,1,0.7,0.68,0.5,0.55")


def _spy(monkeypatch, method):
    """Record the arguments of every call to TransformerModel.<method>."""
    calls = []
    real = getattr(TransformerModel, method)

    def spy(self, *args, **kw):
        calls.append((args, kw))
        return real(self, *args, **kw)

    monkeypatch.setattr(TransformerModel, method, spy)
    return calls


def _padded_batch(vocab):
    """Six rows of different real lengths, all shorter than the tiny model's
    max_len and padded to it."""
    ids, mask, labels = encode_examples(separable_dataset(seed=1, n=20), vocab, 64)
    keep = np.flatnonzero(mask.sum(axis=1) < 64)[:6]
    lengths = mask[keep].sum(axis=1)
    assert len(keep) == 6 and lengths.min() < lengths.max()
    return ids[keep], mask[keep], labels[keep]


class TestComputeOnlyWhatIsRead:
    def test_classifier_forwards_run_at_longest_real_row(self, small_vocab,
                                                         tiny_checkpoint, monkeypatch):
        calls = _spy(monkeypatch, "encode_cls")
        full = _spy(monkeypatch, "encode_forward")
        parts = split_docs(separable_dataset(seed=1))
        cfg = tiny_train_config()
        out, _ = finetune_staged(tiny_checkpoint, parts, cfg, small_vocab)
        evaluate(out, parts[2], "classify", cfg, small_vocab)
        widths = [ids.shape[1] for (ids,), _ in calls]
        assert widths == [kw["pad_mask"].sum(axis=1).max() for _, kw in calls]
        assert min(widths) < 64  # some batches are narrower than max_len
        assert {kw["mode"] for _, kw in calls} == {"train", "eval"}
        assert full == []  # the classifier path reads the CLS slot only

    def test_mlm_path_runs_only_the_labelled_queries(self, small_vocab, small_chunks,
                                                     tiny_checkpoint, monkeypatch):
        calls = _spy(monkeypatch, "encode_at")
        full = _spy(monkeypatch, "encode_forward")
        cls = _spy(monkeypatch, "encode_cls")
        cfg = tiny_train_config()
        out, _ = adapt_mlm(tiny_checkpoint, split_chunks(small_chunks), cfg, small_vocab)
        evaluate(out, small_chunks[:4], "mlm", cfg, small_vocab)
        assert {kw["mode"] for _, kw in calls} == {"train", "eval"}
        assert all(queries.shape[1] < ids.shape[1] for (ids, queries), _ in calls)
        assert full == [] and cls == []

    def test_unlabelled_batch_trains_with_zero_loss(self, small_vocab, small_chunks):
        batch = collate(small_chunks[:4], MaskingConfig(p_mask=0.0), small_vocab,
                        np.random.default_rng(0))
        assert np.all(batch.labels == IGNORE_LABEL)
        model = tiny_model(small_vocab)
        params = list(model.params.values())
        model.zero_grads()
        rng = np.random.default_rng(5)
        loss, n = _mlm_batch_loss(model, batch, "train", rng)
        loss.backward()
        adam_step(params, AdamState(), 1e-3)
        assert float(loss.data) == 0.0 and n == 0
        assert all(not p.grad.any() for p in params)
        full_rng = np.random.default_rng(5)
        model.encode_forward(batch.input_ids, mode="train", rng=full_rng)
        assert rng.random() == full_rng.random()  # the full path's dropout stream

    def test_unlabelled_evaluation_rejected(self, small_vocab, small_chunks, tiny_checkpoint):
        cfg = tiny_train_config(masking=MaskingConfig(p_mask=0.0))
        with pytest.raises(ValueError, match="no labeled positions"):
            evaluate(tiny_checkpoint, small_chunks[:4], "mlm", cfg, small_vocab)

    def test_mlm_head_gets_exactly_the_labelled_rows(self, small_vocab, small_chunks,
                                                     tiny_checkpoint, monkeypatch):
        model = tiny_checkpoint.model
        batch = collate(small_chunks[:4], tiny_train_config().masking, small_vocab,
                        np.random.default_rng(0))
        labeled = batch.labels != IGNORE_LABEL
        full = model.encode_forward(batch.input_ids, mode="eval").data
        calls = _spy(monkeypatch, "mlm_logits")
        _, n = _mlm_batch_loss(model, batch, "eval")
        assert len(calls) == 1 and n == labeled.sum() > 0
        (hidden,), _ = calls[0]
        assert np.array_equal(hidden.data, full[labeled])

    def test_trimmed_eval_logits_match_full_width(self, small_vocab, tiny_checkpoint):
        model = tiny_checkpoint.model
        ids, mask, _ = _padded_batch(small_vocab)

        def logits(ids, mask):
            return model.classify_logits(model.encode_forward(ids, pad_mask=mask)).data

        assert_allclose(logits(*_trim(ids, mask)), logits(ids, mask), rtol=0, atol=1e-12)

    def test_trimmed_train_step_matches_full_width(self, small_vocab):
        ids, mask, labels = _padded_batch(small_vocab)
        results = []
        for b_ids, b_mask in ((ids, mask), _trim(ids, mask)):
            model = tiny_model(small_vocab, dropout_rate=0.0)
            model.zero_grads()
            rng = np.random.default_rng(3)
            hidden = model.encode_forward(b_ids, pad_mask=b_mask, mode="train", rng=rng)
            loss = bce_with_logits(model.classify_logits(hidden, "train", rng), labels)
            loss.backward()
            results.append((float(loss.data),
                            {n: p.grad.copy() for n, p in model.params.items()}))
        (loss_full, grads_full), (loss_trim, grads_trim) = results
        assert abs(loss_trim - loss_full) <= 1e-12
        for name, g in grads_full.items():
            scale = max(np.abs(g).max(), 1e-300)
            assert np.abs(grads_trim[name] - g).max() <= 1e-12 * scale, name

    def test_gathered_mlm_loss_matches_full_logits(self, small_vocab, small_chunks):
        batch = collate(small_chunks[:4], tiny_train_config().masking, small_vocab,
                        np.random.default_rng(0))
        results = []
        for gathered in (True, False):
            model = tiny_model(small_vocab)
            model.zero_grads()
            rng = np.random.default_rng(5)
            if gathered:
                loss, _ = _mlm_batch_loss(model, batch, "train", rng)
            else:
                hidden = model.encode_forward(batch.input_ids, mode="train", rng=rng)
                loss = masked_cross_entropy(model.mlm_logits(hidden), batch.labels)
            loss.backward()
            results.append((float(loss.data),
                            {n: p.grad.copy() for n, p in model.params.items()}))
        (loss_g, grads_g), (loss_f, grads_f) = results
        assert abs(loss_g - loss_f) <= 1e-12
        for name, g in grads_f.items():
            assert_allclose(grads_g[name], g, rtol=0, atol=1e-12, err_msg=name)


def _head_state(model):
    return ([model.params[n].data.tobytes() for n in model.head_param_names()],
            [(s.running_mean.tobytes(), s.running_var.tobytes())
             for s in model.bn_states.values()])


class TestFrozenStageFeatures:
    """Stage 1 trains the head on eval-mode CLS rows encoded once; train_acc
    comes from the training forward."""

    @pytest.mark.parametrize("epochs", [1, 3])
    def test_encoder_runs_once_per_batch_in_eval_mode(self, small_vocab, tiny_checkpoint,
                                                      monkeypatch, epochs):
        calls = _spy(monkeypatch, "encode_cls")
        full = _spy(monkeypatch, "encode_forward")
        parts = split_docs(separable_dataset(seed=1))
        cfg = tiny_train_config()
        cfg.finetune.stage1_epochs = epochs
        cfg.finetune.stage2_epochs = 0
        finetune_staged(tiny_checkpoint, parts, cfg, small_vocab)
        bs = cfg.finetune.batch_size
        assert {kw["mode"] for _, kw in calls} == {"eval"}
        assert len(calls) == math.ceil(len(parts[0]) / bs) + math.ceil(len(parts[1]) / bs)
        assert full == []

    def test_frozen_val_loss_equals_a_fresh_eval(self, small_vocab, tiny_checkpoint):
        parts = split_docs(separable_dataset(seed=1))
        cfg = tiny_train_config()
        cfg.finetune.stage1_epochs = 3
        cfg.finetune.stage2_epochs = 0
        out, curves = finetune_staged(tiny_checkpoint, parts, cfg, small_vocab)
        assert out.provenance["stage"] == "frozen"
        ids, mask, labels = encode_examples(parts[1], small_vocab,
                                            out.model.config.max_len)
        rows = _cls_rows(out.model, ids, mask, cfg.finetune.batch_size)
        val_loss, _ = _head_eval(out.model, rows, labels, cfg.finetune.batch_size)
        assert out.provenance["val_loss"] == val_loss
        assert val_loss in [p.val_loss for p in curves]

    def test_head_ignores_encoder_dropout(self, small_vocab):
        parts = split_docs(separable_dataset(seed=1))
        cfg = tiny_train_config()
        cfg.finetune.stage2_epochs = 0
        runs = []
        for rate in (0.0, 0.3):
            base = Checkpoint(tiny_model(small_vocab, dropout_rate=rate))
            out, curves = finetune_staged(base, parts, cfg, small_vocab)
            runs.append((_head_state(out.model), curves))
        assert runs[0] == runs[1]

    def test_train_acc_is_read_from_the_training_logits(self, small_vocab,
                                                        tiny_checkpoint, monkeypatch):
        import minidapt.trainer as trainer_mod
        logits, targets = [], []
        real_head, real_loss = TransformerModel.classify_logits, trainer_mod.bce_with_logits

        def head(self, hidden, mode="eval", rng=None):
            out = real_head(self, hidden, mode, rng)
            logits.append((mode, out.data.copy()))
            return out

        def loss(z, y):
            targets.append(np.asarray(y).copy())
            return real_loss(z, y)

        monkeypatch.setattr(TransformerModel, "classify_logits", head)
        monkeypatch.setattr(trainer_mod, "bce_with_logits", loss)
        parts = split_docs(separable_dataset(seed=1))
        cfg = tiny_train_config()
        _, curves = finetune_staged(tiny_checkpoint, parts, cfg, small_vocab)
        # every head call is scored by exactly one loss call, in order
        assert len(logits) == len(targets)
        correct = [int(((stable_sigmoid(z) >= 0.5) == y).sum())
                   for (mode, z), y in zip(logits, targets) if mode == "train"]
        per_epoch = len(_batches(len(parts[0]), cfg.finetune.batch_size,
                                 merge_singleton=True))
        assert len(correct) == per_epoch * len(curves)
        for i, point in enumerate(curves):
            assert point.train_acc == sum(correct[i * per_epoch:(i + 1) * per_epoch]) \
                / len(parts[0])
