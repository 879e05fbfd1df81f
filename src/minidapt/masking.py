"""MLM batch collation: 15% selection, 80/10/10 corruption, whole-word mode.

Selection is re-drawn on every call (dynamic masking); callers own the rng so
batches are reproducible from a run seed.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import IGNORE_LABEL


@dataclass
class MaskingConfig:
    p_mask: float = 0.15
    p_wwm: float = 0.2
    replacement_split: tuple = (0.8, 0.1, 0.1)
    seed: int = 0

    def __post_init__(self):
        if len(self.replacement_split) != 3:
            raise ValueError("replacement_split needs three shares: mask, random, keep")
        if not 0.0 <= self.p_mask < 1.0:
            raise ValueError("p_mask must be in [0, 1)")
        if not 0.0 <= self.p_wwm <= 1.0:
            raise ValueError("p_wwm must be in [0, 1]")
        if any(not 0.0 <= r <= 1.0 for r in self.replacement_split):
            raise ValueError("replacement_split entries must be in [0, 1]")
        if abs(sum(self.replacement_split) - 1.0) > 1e-9:
            raise ValueError("replacement split must sum to 1")


@dataclass
class MaskedBatch:
    input_ids: np.ndarray    # [B, T] int, after corruption
    labels: np.ndarray       # [B, T] int, original ids at selected positions, else IGNORE
    wwm_flags: list          # per example: True if whole-word mode was used


def word_groups(word_begin):
    """Positions grouped into words; a fragment at position 0 counts as a word."""
    groups = []
    for pos, begin in enumerate(word_begin):
        if begin or not groups:
            groups.append([pos])
        else:
            groups[-1].append(pos)
    return groups


def select_positions(ids, word_begin, cfg, special_ids, rng):
    """Choose the positions to corrupt for one example.

    Returns (sorted position list, used_wwm). Draw order: one uniform for the
    mode, then either one uniform per candidate position (token-level) or a
    word permutation (whole-word).
    """
    candidates = [p for p, t in enumerate(ids) if t not in special_ids]
    use_wwm = rng.random() < cfg.p_wwm
    if not candidates:
        return [], use_wwm
    if not use_wwm:
        draws = rng.random(len(candidates))
        return [p for p, u in zip(candidates, draws) if u < cfg.p_mask], False
    cand_set = set(candidates)
    words = [[p for p in g if p in cand_set] for g in word_groups(word_begin)]
    words = [w for w in words if w]
    order = rng.permutation(len(words))
    budget = cfg.p_mask * len(candidates)
    selected = []
    for wi in order:
        if budget > 0 and len(selected) < budget:
            selected.extend(words[wi])
        else:
            break
    return sorted(selected), True


def non_special_ids(vocab):
    """The ids a random replacement may take: every id but the specials."""
    return [i for i in range(vocab.size) if i not in vocab.special_ids]


def apply_replacement(ids, selected_positions, split, mask_id, non_special, rng):
    """80/10/10 rule per selected position: MASK / random id from
    `non_special` / keep."""
    out = list(ids)
    for pos in selected_positions:
        u = rng.random()
        if u < split[0]:
            out[pos] = mask_id
        elif u < split[0] + split[1]:
            out[pos] = non_special[rng.integers(len(non_special))]
        # else: keep original id
    return out


def collate(chunks, cfg, vocab, rng):
    """Build a MaskedBatch from uniform-length chunks with fresh randomness."""
    if not chunks:
        raise ValueError("collate: no chunks")
    length = len(chunks[0].ids)
    if any(len(c.ids) != length for c in chunks):
        raise ValueError("collate: chunks must have uniform length")
    input_ids = []
    labels = []
    flags = []
    non_special = non_special_ids(vocab)
    for chunk in chunks:
        selected, used_wwm = select_positions(chunk.ids, chunk.word_begin, cfg,
                                              vocab.special_ids, rng)
        corrupted = apply_replacement(chunk.ids, selected, cfg.replacement_split,
                                      vocab.mask_id, non_special, rng)
        row_labels = np.full(length, IGNORE_LABEL, dtype=np.int64)
        for p in selected:
            row_labels[p] = chunk.ids[p]
        input_ids.append(corrupted)
        labels.append(row_labels)
        flags.append(used_wwm)
    return MaskedBatch(input_ids=np.array(input_ids, dtype=np.int64),
                       labels=np.array(labels, dtype=np.int64),
                       wwm_flags=flags)
