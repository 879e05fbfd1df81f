import hashlib
import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from minidapt.checkpoint import Checkpoint
from minidapt.corpus import Chunk
from minidapt.fixtures import separable_dataset
from minidapt.trainer import (CurvePoint, MLMConfig, adapt_mlm, effective_warmup,
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


class TestWarmupScaling:
    def test_long_runs_keep_full_warmup(self):
        assert effective_warmup(10_000) == 1000

    def test_short_runs_scale_to_tenth(self):
        assert effective_warmup(500) == 50

    def test_never_zero(self):
        assert effective_warmup(5) == 1

    def test_default_equals_the_thousand_step_rule(self):
        # 1000 steps on runs of 10,000 steps or more, else a tenth of the run, at least 1
        old = [1000 if t >= 10000 else max(1, min(1000, t // 10)) for t in range(1, 50_001)]
        assert [effective_warmup(t, 1000) for t in range(1, 50_001)] == old

    def test_explicit_value_capped_at_tenth(self):
        assert effective_warmup(500, 20) == 20
        assert effective_warmup(500, 80) == 50
        assert effective_warmup(5, 3) == 1


def test_negative_weight_decay_rejected():
    with pytest.raises(ValueError, match="weight_decay"):
        MLMConfig(weight_decay=-1)


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
        if not model.config.tie_mlm:
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

    def test_ignored_padding_chunks_leave_loss_unchanged(self, small_vocab,
                                                         small_chunks,
                                                         tiny_checkpoint):
        cfg = tiny_train_config()
        val = small_chunks[:4]
        pad_chunk = Chunk(ids=[small_vocab.pad_id] * 32, word_begin=[True] * 32)
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
        fresh.model.bn_states = {k: s.copy() for k, s in adapted.model.bn_states.items()}
        parts = split_docs(separable_dataset(seed=1))
        cfg = tiny_train_config()
        out_a, curves_a = finetune_staged(adapted, parts, cfg, small_vocab)
        out_f, curves_f = finetune_staged(fresh, parts, cfg, small_vocab)
        assert curves_a == curves_f
        for name, p in out_a.model.params.items():
            assert np.array_equal(out_f.model.params[name].data, p.data), name

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

        def fake_eval(ckpt, ids, mask, labels, batch_size):
            return 0.0, 1.0, labels.copy()

        monkeypatch.setattr(trainer_mod, "_classifier_eval", fake_eval)
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
