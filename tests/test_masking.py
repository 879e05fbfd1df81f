import json
import os

import numpy as np
import pytest

from minidapt.autodiff import IGNORE_LABEL
from minidapt.masking import (MaskingConfig, apply_replacement, non_special_ids, collate,
                              word_groups)
from minidapt.tokenizer import EncodedText, Vocabulary, SPECIALS

FIXTURE = os.path.join(os.path.dirname(__file__), "data", "masking_fixture.json")


@pytest.fixture
def vocab():
    return Vocabulary(tokens=SPECIALS + [f"t{i}" for i in range(40 - 5)])


def random_chunks(rng, n, length=32, vocab_size=40, with_specials=False):
    chunks = []
    for _ in range(n):
        ids = rng.integers(5, vocab_size, size=length).tolist()
        if with_specials:
            for p in rng.integers(0, length, size=3):
                ids[p] = int(rng.integers(0, 5))
        word_begin = (rng.random(length) < 0.4).tolist()
        word_begin[0] = True
        chunks.append(EncodedText(ids=ids, word_begin=word_begin))
    return chunks


class TestCollate:
    def test_p_mask_zero_selects_nothing(self, vocab):
        rng = np.random.default_rng(0)
        chunks = random_chunks(rng, 4)
        cfg = MaskingConfig(p_mask=0.0)
        batch = collate(chunks, cfg, vocab, np.random.default_rng(1))
        assert np.all(batch.labels == IGNORE_LABEL)
        assert np.array_equal(batch.input_ids,
                              np.array([c.ids for c in chunks]))

    def test_wwm_selects_whole_words_only(self, vocab):
        rng = np.random.default_rng(2)
        chunks = random_chunks(rng, 10)
        cfg = MaskingConfig(p_wwm=1.0)
        batch = collate(chunks, cfg, vocab, np.random.default_rng(3))
        assert all(batch.wwm_flags)
        for c, labels in zip(chunks, batch.labels):
            for group in word_groups(c.word_begin):
                flags = [labels[p] != IGNORE_LABEL for p in group]
                assert all(flags) or not any(flags)

    def test_matches_frozen_reference_selections(self, vocab):
        with open(FIXTURE, encoding="utf-8") as f:
            fx = json.load(f)
        chunks = [EncodedText(ids=c["ids"], word_begin=c["word_begin"])
                  for c in fx["chunks"]]
        cfg = MaskingConfig(p_mask=fx["p_mask"], p_wwm=fx["p_wwm"],
                            replacement_split=(0.0, 0.0, 1.0))
        for case in fx["cases"]:
            batch = collate(chunks, cfg, vocab, np.random.default_rng(case["seed"]))
            for chunk, labels, wwm, exp in zip(chunks, batch.labels,
                                               batch.wwm_flags, case["expected"]):
                selected = sorted(np.flatnonzero(labels != IGNORE_LABEL).tolist())
                assert selected == sorted(exp["selected"])
                assert wwm == exp["wwm"]

    def test_labels_carry_original_ids(self, vocab):
        rng = np.random.default_rng(4)
        chunks = random_chunks(rng, 4)
        batch = collate(chunks, MaskingConfig(), vocab, np.random.default_rng(5))
        original = np.array([c.ids for c in chunks])
        sel = batch.labels != IGNORE_LABEL
        assert np.array_equal(batch.labels[sel], original[sel])
        assert np.array_equal(batch.input_ids[~sel], original[~sel])

    def test_specials_never_selected(self, vocab):
        rng = np.random.default_rng(6)
        chunks = random_chunks(rng, 10, with_specials=True)
        batch = collate(chunks, MaskingConfig(p_mask=0.9), vocab,
                        np.random.default_rng(7))
        original = np.array([c.ids for c in chunks])
        special_positions = np.isin(original, list(vocab.special_ids))
        assert np.all(batch.labels[special_positions] == IGNORE_LABEL)
        assert np.array_equal(batch.input_ids[special_positions],
                              original[special_positions])

    def test_all_special_chunk_gets_all_ignore(self, vocab):
        chunk = EncodedText(ids=[vocab.pad_id] * 8, word_begin=[True] * 8)
        batch = collate([chunk], MaskingConfig(), vocab, np.random.default_rng(8))
        assert np.all(batch.labels == IGNORE_LABEL)

    def test_dynamic_masking(self, vocab):
        rng = np.random.default_rng(9)
        chunks = random_chunks(rng, 8, length=64)
        cfg = MaskingConfig()
        b1 = collate(chunks, cfg, vocab, np.random.default_rng(10))
        b2 = collate(chunks, cfg, vocab, np.random.default_rng(11))
        b3 = collate(chunks, cfg, vocab, np.random.default_rng(10))
        assert not np.array_equal(b1.labels, b2.labels)
        assert np.array_equal(b1.labels, b3.labels)
        assert np.array_equal(b1.input_ids, b3.input_ids)

    def test_empty_and_ragged_chunks_rejected(self, vocab):
        with pytest.raises(ValueError):
            collate([], MaskingConfig(), vocab, np.random.default_rng(0))
        chunks = [EncodedText(ids=[5, 6], word_begin=[True, True]),
                  EncodedText(ids=[5], word_begin=[True])]
        with pytest.raises(ValueError):
            collate(chunks, MaskingConfig(), vocab, np.random.default_rng(0))


def _replace_from(vocab):
    return vocab.mask_id, non_special_ids(vocab)


class TestApplyReplacement:
    def test_all_mask_split(self, vocab):
        ids = [5, 6, 7, 8]
        out = apply_replacement(ids, [0, 2], (1.0, 0.0, 0.0), *_replace_from(vocab),
                                np.random.default_rng(0))
        assert out == [vocab.mask_id, 6, vocab.mask_id, 8]

    def test_keep_split_leaves_ids(self, vocab):
        ids = [5, 6, 7, 8]
        out = apply_replacement(ids, [0, 1, 2, 3], (0.0, 0.0, 1.0), *_replace_from(vocab),
                                np.random.default_rng(0))
        assert out == ids

    def test_random_replacement_avoids_specials(self, vocab):
        rng = np.random.default_rng(1)
        out = apply_replacement([5] * 500, list(range(500)), (0.0, 1.0, 0.0),
                                *_replace_from(vocab), rng)
        assert not set(out) & vocab.special_ids

    def test_empirical_split_fractions(self, vocab):
        # Monte-Carlo bound fixed up front: n = 1e5, tolerance +-0.02
        n = 100_000
        rng = np.random.default_rng(12)
        ids = [5] * n
        out = apply_replacement(ids, list(range(n)), (0.8, 0.1, 0.1), *_replace_from(vocab), rng)
        out = np.array(out)
        frac_mask = float((out == vocab.mask_id).mean())
        frac_keep = float((out == 5).mean()) - 0.0  # random draws may also hit 5
        frac_random = 1.0 - frac_mask - float((out == 5).mean())
        assert abs(frac_mask - 0.8) < 0.02
        assert abs(frac_keep - 0.1) < 0.021  # includes random hits on id 5
        assert abs(frac_random - 0.1) < 0.02


class TestSelectionStatistics:
    def test_token_level_rate(self, vocab):
        # >= 1e5 candidate tokens, labeled fraction within 0.15 +- 0.01
        rng = np.random.default_rng(13)
        chunks = random_chunks(rng, 800, length=128)
        cfg = MaskingConfig(p_wwm=0.0)
        batch = collate(chunks, cfg, vocab, np.random.default_rng(14))
        frac = float((batch.labels != IGNORE_LABEL).mean())
        assert batch.labels.size >= 100_000
        assert abs(frac - 0.15) < 0.01


class TestMaskingConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            MaskingConfig(p_mask=1.5)
        with pytest.raises(ValueError):
            MaskingConfig(replacement_split=(0.5, 0.1, 0.1))

    @pytest.mark.parametrize("kw", [dict(p_wwm=1.5), dict(p_wwm=-0.1),
                                    dict(replacement_split=(1.5, -0.25, -0.25))])
    def test_out_of_range_rejected(self, kw):
        with pytest.raises(ValueError, match=next(iter(kw))):
            MaskingConfig(**kw)

    @pytest.mark.parametrize("split", [(0.5, 0.25, 0.125, 0.125), (0.5, 0.5)])
    def test_needs_three_shares(self, split):
        with pytest.raises(ValueError, match="three shares"):
            MaskingConfig(replacement_split=split)

    def test_range_bounds(self):
        MaskingConfig(p_wwm=0.0)
        MaskingConfig(p_wwm=1.0, replacement_split=(1.0, 0.0, 0.0))
