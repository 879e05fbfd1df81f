"""Tests of the benchmark's output checks: each passes on the program's own
output and fails on a deliberately corrupted one.

    python3 stagebench/selftest.py
"""

import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from minidapt import autodiff, baseline, corpus, fixtures, tokenizer  # noqa: E402
from minidapt.checkpoint import Checkpoint  # noqa: E402
from minidapt.model import EncoderConfig, TransformerModel  # noqa: E402

import checks  # noqa: E402
import reference  # noqa: E402
import workloads  # noqa: E402
from checks import CheckFailed  # noqa: E402


def tiny_checkpoint(vocab_size=30, seed=0):
    cfg = EncoderConfig(vocab_size=vocab_size, num_layers=2, d_model=8, num_heads=2,
                        d_ff=16, max_len=12, head_hidden=(6, 4), seed=seed)
    ckpt = Checkpoint(TransformerModel(cfg))
    rng = np.random.default_rng(seed)
    for p in ckpt.model.params.values():  # away from the near-zero init
        p.data = p.data + rng.normal(0.0, 0.3, size=p.data.shape)
    for s in ckpt.model.bn_states.values():
        s.running_mean = rng.normal(0.0, 0.1, size=s.running_mean.shape)
        s.running_var = rng.uniform(0.5, 2.0, size=s.running_var.shape)
    return ckpt


def corrupt(values, index=0, delta=1e-6):
    out = np.array(values, dtype=np.float64)
    out.reshape(-1)[index] += delta
    return out


class ForwardTest(unittest.TestCase):
    def setUp(self):
        self.ckpt = tiny_checkpoint()
        rng = np.random.default_rng(1)
        self.ids = rng.integers(5, 30, size=(3, 12))
        self.mask = np.arange(12)[None, :] < np.array([[12], [7], [3]])
        self.ids[~self.mask] = 0

    def test_mlm_logits(self):
        m = self.ckpt.model
        program = m.mlm_logits(m.encode_forward(self.ids, mode="eval")).data
        ref = reference.mlm_logits(workloads._params(self.ckpt),
                                   workloads._reference_encoder(self.ckpt, self.ids))
        checks.forward_matches(program, ref)
        with self.assertRaises(CheckFailed):
            checks.forward_matches(corrupt(program, 17), ref)

    def test_classify_logits_with_padding(self):
        m = self.ckpt.model
        hidden = m.encode_forward(self.ids, pad_mask=self.mask, mode="eval")
        program = m.classify_logits(hidden, mode="eval").data
        ref = reference.classify_logits(
            workloads._params(self.ckpt), workloads._bn_stats(self.ckpt),
            workloads._reference_encoder(self.ckpt, self.ids, self.mask))
        checks.forward_matches(program, ref)
        with self.assertRaises(CheckFailed):
            checks.forward_matches(corrupt(program, 2), ref)
        # a reference that ignored the padding would not match
        with self.assertRaises(CheckFailed):
            checks.forward_matches(program, reference.classify_logits(
                workloads._params(self.ckpt), workloads._bn_stats(self.ckpt),
                workloads._reference_encoder(self.ckpt, self.ids)))


class GradientTest(unittest.TestCase):
    def test_directional_derivative(self):
        ckpt = tiny_checkpoint()
        ids = np.random.default_rng(2).integers(5, 30, size=(2, 12))
        labels = np.where(np.arange(12) % 3 == 0, ids, autodiff.IGNORE_LABEL)

        def loss(m):
            hidden = m.encode_forward(ids, mode="train", rng=np.random.default_rng(3))
            return autodiff.masked_cross_entropy(m.mlm_logits(hidden), labels)

        workloads._gradient_check(ckpt, loss, seed=0)

        model = ckpt.model
        params = list(model.params.values())
        model.zero_grads()
        loss(model).backward()
        grads = [p.grad.copy() for p in params]
        for i, p in enumerate(params):  # a sign flipped in one parameter's gradient
            if p.name == "layer1.ffn.w1":
                grads[i] = -grads[i]
        with self.assertRaises(CheckFailed):
            checks.directional_derivative(lambda: float(loss(model).data),
                                          [p.data for p in params], grads,
                                          np.random.default_rng(4))

    def test_kink_near_the_point(self):
        # |x - 3e-6| at x = 0: the largest step crosses the kink, a smaller one does not
        x = np.zeros(1)
        checks.directional_derivative(lambda: abs(x[0] - 3e-6), [x], [np.array([-1.0])],
                                      np.random.default_rng(0))
        with self.assertRaises(CheckFailed):
            checks.directional_derivative(lambda: abs(x[0] - 3e-6), [x], [np.array([1.0])],
                                          np.random.default_rng(0))


class LossTest(unittest.TestCase):
    def test_masked_cross_entropy(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(2, 6, 9))
        labels = np.where(rng.random((2, 6)) < 0.5, rng.integers(0, 9, (2, 6)),
                          autodiff.IGNORE_LABEL)
        labels[0, 0] = 4
        program = float(autodiff.masked_cross_entropy(autodiff.Tensor(logits), labels).data)
        nats, n = reference.masked_cross_entropy(logits, labels)
        checks.loss_matches("mlm", program, nats / n)
        flipped = labels.copy()
        flipped[0, 0] = 5
        nats, n = reference.masked_cross_entropy(logits, flipped)
        with self.assertRaises(CheckFailed):
            checks.loss_matches("mlm", program, nats / n)

    def test_bce(self):
        z = np.array([-40.0, -1.5, 0.0, 2.0, 35.0])
        y = np.array([0.0, 1.0, 1.0, 0.0, 1.0])
        program = float(autodiff.bce_with_logits(autodiff.Tensor(z), y).data)
        checks.loss_matches("bce", program, reference.bce(z, y))
        flipped = y.copy()
        flipped[1] = 0.0
        with self.assertRaises(CheckFailed):
            checks.loss_matches("bce", program, reference.bce(z, flipped))

    def test_adaptation_lowers_loss(self):
        checks.adaptation_lowers_loss(5.7, 6.0)
        for adapted in (6.0, 6.1):
            with self.assertRaises(CheckFailed):
                checks.adaptation_lowers_loss(adapted, 6.0)


class CheckpointTest(unittest.TestCase):
    curve = [("frozen", 1, 0.70), ("frozen", 2, 0.68), ("unfrozen", 1, 0.68),
             ("unfrozen", 2, 0.69)]

    def test_best_checkpoint(self):
        prov = {"stage": "frozen", "epoch": 2, "val_loss": 0.68}
        checks.best_checkpoint(self.curve, prov, 0.68)
        with self.assertRaises(CheckFailed):  # the tie goes to the first point
            checks.best_checkpoint(self.curve, dict(prov, stage="unfrozen", epoch=1), 0.68)
        with self.assertRaises(CheckFailed):
            checks.best_checkpoint(self.curve, dict(prov, epoch=1, val_loss=0.70), 0.70)
        with self.assertRaises(CheckFailed):  # recomputed val loss disagrees
            checks.best_checkpoint(self.curve, prov, 0.6801)

    def test_frozen_encoder_unchanged(self):
        start = {"embed.tok": np.ones((3, 2)), "final_ln.beta": np.zeros(2)}
        same = {n: a.copy() for n, a in start.items()}
        nudged = dict(same, **{"final_ln.beta": np.nextafter(np.zeros(2), 1.0)})
        checks.frozen_encoder_unchanged({"stage": "frozen"}, start, same)
        checks.frozen_encoder_unchanged({"stage": "unfrozen"}, start, nudged)
        with self.assertRaises(CheckFailed):
            checks.frozen_encoder_unchanged({"stage": "frozen"}, start, nudged)


class TextTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.docs = fixtures.classification_dataset(0, n=60)
        cls.vocab = tokenizer.train_vocab([d.text for d in cls.docs], 200)

    def test_decodes_back(self):
        encoded = [tokenizer.encode(self.vocab, d.text) for d in self.docs]
        pairs = [(tokenizer.decode(self.vocab, e.ids), tokenizer.normalize_whitespace(d.text))
                 for e, d in zip(encoded, self.docs)]
        checks.decodes_back(pairs)
        ids = list(encoded[3].ids)
        ids[1] = (ids[1] + 1 - 5) % (self.vocab.size - 5) + 5  # another non-special id
        pairs[3] = (tokenizer.decode(self.vocab, ids), pairs[3][1])
        with self.assertRaises(CheckFailed):
            checks.decodes_back(pairs)

    def test_chunks_cover_stream(self):
        stream = [i for d in self.docs for i in tokenizer.encode(self.vocab, d.text).ids]
        chunks = [c.ids for c in corpus.chunk_stream(self.docs, self.vocab, 32)]
        checks.chunks_cover_stream(stream, chunks, 32)
        with self.assertRaises(CheckFailed):  # a dropped chunk
            checks.chunks_cover_stream(stream, chunks[:3] + chunks[4:], 32)
        with self.assertRaises(CheckFailed):  # chunks out of order
            checks.chunks_cover_stream(stream, [chunks[1], chunks[0]] + chunks[2:], 32)

    def test_tfidf_and_hinge(self):
        train, test = self.docs[:40], self.docs[40:]
        model = baseline.fit_tfidf(train)
        X = baseline.transform_all(model, test)
        ref, terms = reference.tfidf_vectors([d.text for d in train], [d.text for d in test])
        checks.tfidf_matches(X, ref, model.term_index, terms)
        with self.assertRaises(CheckFailed):
            checks.tfidf_matches(corrupt(X, 5, 1e-6), ref, model.term_index, terms)
        with self.assertRaises(CheckFailed):
            checks.tfidf_matches(X, ref, model.term_index, terms | {"zzz"})

        y = np.array([d.label for d in test])
        w = np.random.default_rng(6).normal(size=X.shape[1])
        program = float(np.maximum(0.0, 1.0 - np.where(y == 1, 1.0, -1.0) * (X @ w + 0.1)).mean())
        weights = {t: w[i] for t, i in model.term_index.items()}
        checks.loss_matches("hinge", program, reference.hinge_loss(ref, list(y), weights, 0.1))
        flipped = list(y)
        flipped[0] = 1 - flipped[0]
        with self.assertRaises(CheckFailed):
            checks.loss_matches("hinge", program, reference.hinge_loss(ref, flipped, weights, 0.1))

    def test_f1(self):
        labels = [1, 0, 1, 1, 0, 0, 1, 0, 1, 0]
        self.assertEqual(reference.f1(labels, labels), 1.0)
        checks.f1_at_least(reference.f1(labels, labels), 0.9)
        flipped = [1 - p if i < 2 else p for i, p in enumerate(labels)]
        with self.assertRaises(CheckFailed):
            checks.f1_at_least(reference.f1(flipped, labels), 0.9)


if __name__ == "__main__":
    unittest.main()
